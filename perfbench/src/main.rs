//! End-to-end and per-layer benchmark of the asip-explorer pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-cold|gen-sweep|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets the workload up several times (the median is `setup_s`), runs
//! one untimed warm-up session, then runs closed-loop sessions, one at
//! a time, for `--seconds`. Every session is checked against the
//! reference interpreter and the digests it must reproduce. Times are
//! process CPU time scaled to a reference host speed (see [`scaled_ms`]);
//! wall-clock figures are printed beside them. With
//! `--trace 0` the last line carries the end-to-end metrics; with
//! `--trace 1` every other schedule period is traced and the last line
//! carries the per-layer metrics. See `perfbench/README.md`.

mod clock;
mod oracle;
mod trace;
mod workload;

use clock::{calibrate, Usage};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Class, Kind, Record, Workload, THREADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Schedule periods every run completes, however short `--seconds`.
const MIN_CYCLES: usize = 16;

/// Traced periods whose counts are reported: a fixed prefix, so two runs
/// of one seed report counts of the same sessions.
const COUNTED_CYCLES: usize = 8;

/// No run measures longer than this, whatever `--seconds` asks.
const WALL_CAP: Duration = Duration::from_secs(120);

/// CPU milliseconds [`calibrate`] takes on the reference host, the
/// two-vCPU machine of the measured numbers in `perfbench/README.md`.
/// A time scaled by it reads as CPU time on that host.
const REFERENCE_CAL_MS: f64 = 3.0;

/// Calibrations timed before each set-up; their median scales it.
const SETUP_CALS: usize = 5;

/// Schedule periods on each side of a period whose calibrations, with
/// its own, set the host speed its sessions are scaled by.
const CAL_WINDOW: usize = 5;

const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("session_cpu_ms_p50", "ms"),
    ("session_cpu_ms_tail", "ms"),
    ("programs_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("asip_speedup_geomean", "x"),
];

const PER_LAYER: [(&str, &str); 41] = [
    ("session.critical_path_ms", "ms"),
    ("session.pool_busy_frac", "ratio"),
    ("frontend.compile_ms", "ms"),
    ("sim.profile_ms", "ms"),
    ("sim.dyn_ops", "count"),
    ("sim.ops_per_s", "1/s"),
    ("sim.run_state_creates", "count"),
    ("opt.schedule_ms", "ms"),
    ("opt.runs", "count"),
    ("chains.analyze_ms", "ms"),
    ("chains.runs", "count"),
    ("synth.design_ms", "ms"),
    ("synth.evaluate_ms", "ms"),
    ("synth.frontier_ms", "ms"),
    ("synth.frontier.expanded", "count"),
    ("synth.frontier.pruned", "count"),
    ("synth.frontier.memo_hit_ratio", "ratio"),
    ("tier.prefetch_ms", "ms"),
    ("tier.replay_ms", "ms"),
    ("tier.read_session_ms", "ms"),
    ("tier.write_session_ms", "ms"),
    ("tier.computes", "count"),
    ("tier.prefetch_hits", "count"),
    ("remote.requests", "count"),
    ("remote.connects", "count"),
    ("remote.retries", "count"),
    ("remote.errors", "count"),
    ("remote.bytes_sent", "bytes"),
    ("remote.bytes_received", "bytes"),
    ("serve.batch_keys", "count"),
    ("serve.puts", "count"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.overloaded", "count"),
    ("serve.deadline_truncated", "count"),
    ("serve.frame_errors", "count"),
    ("store.reads", "count"),
    ("store.writes", "count"),
    ("store.bytes", "bytes"),
    ("store.corrupt", "count"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str =
    "usage: asip-perfbench --workload table1-cold|gen-sweep|fleet --seed N --seconds S --trace 0|1";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s >= 1)
                        .ok_or_else(|| bad("expected a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("asip-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let work = out_dir.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &out_dir));
    std::fs::remove_dir_all(&work).ok();
    if let Err(e) = result {
        eprintln!("asip-perfbench: {e}");
        std::process::exit(1);
    }
}

/// One measured session with its place in the schedule.
struct Measured {
    cycle: usize,
    traced: bool,
    record: Record,
    /// The session's CPU time scaled to the reference host speed.
    cost_ms: f64,
}

/// `usage` in CPU ms on the reference host, given the calibration
/// kernel's times around it.
///
/// The benchmark times the kernel in every schedule period and before
/// every set-up, and multiplies CPU times by `REFERENCE_CAL_MS / kernel
/// time`: a session by the median kernel time of the periods around
/// it, a set-up by that of the kernels timed just before it.
fn scaled_ms(usage: Usage, cals: &[f64]) -> f64 {
    usage.total_ms() * REFERENCE_CAL_MS / median(cals)
}

fn run(args: &Args, work: &Path, out_dir: &Path) -> Result<(), String> {
    let kind = args.kind;
    println!(
        "workload {} seed {} seconds {} trace {} threads {THREADS} (host parallelism {})",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_wall = Vec::with_capacity(SETUP_REPS);
    let mut workload: Option<Workload> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = workload.take() {
            previous.teardown();
        }
        let cals: Vec<f64> = (0..SETUP_CALS).map(|_| calibrate(THREADS)).collect();
        let usage = Usage::now();
        let start = Instant::now();
        let w = Workload::setup(kind, args.seed, &work.join(format!("store-{rep}")))?;
        setup_wall.push(start.elapsed().as_secs_f64());
        let usage = Usage::now().since(usage);
        setup.push(scaled_ms(usage, &cals) / 1e3);
        workload = Some(w);
    }
    println!("setup wall p50 {:.4} s", median(&setup_wall));
    let mut w = workload.expect("at least one set-up");
    println!("inputs digest {:016x}", w.input_digest);
    let warm = w.session(None, None);
    if let Some(f) = &warm.failure {
        println!("warm-up session failed: {f}");
    }

    let tracer = Tracer::new();
    let seconds = Duration::from_secs(args.seconds);
    let cpu_before = cpu_ticks();
    let mut sessions = Vec::new();
    let start = Instant::now();
    let mut cycle = 0;
    let mut peak_rss = None;
    let mut cals = Vec::new();
    loop {
        cals.push(calibrate(THREADS));
        let traced = args.trace && cycle % 2 == 0;
        for j in 0..kind.cycle_len() {
            let index = cycle * kind.cycle_len() + j;
            let trace = tracer.session(u32::try_from(index).expect("few sessions"));
            let record = w.session(Some(index), traced.then_some(&trace));
            if let Some(f) = &record.failure {
                println!("session {index} failed: {f}");
            }
            sessions.push(Measured {
                cycle,
                traced,
                record,
                cost_ms: f64::NAN,
            });
        }
        cycle += 1;
        if cycle == MIN_CYCLES {
            // a fixed amount of work, so a faster run that fits more
            // fleet writes in its seconds does not read as more memory
            peak_rss = Some(peak_rss_mb()?);
        }
        let elapsed = start.elapsed();
        if (elapsed >= seconds && cycle >= MIN_CYCLES) || elapsed >= WALL_CAP {
            break;
        }
    }
    if let (Some((busy0, steal0)), Some((busy1, steal1))) = (cpu_before, cpu_ticks()) {
        println!(
            "host steal while measuring: {:.1} % of CPU time",
            100.0 * (steal1 - steal0) as f64 / (busy1 - busy0).max(1) as f64
        );
    }
    let speedups = w.speedups();
    w.teardown();
    for m in &mut sessions {
        let window =
            &cals[m.cycle.saturating_sub(CAL_WINDOW)..(m.cycle + CAL_WINDOW + 1).min(cals.len())];
        m.cost_ms = scaled_ms(m.record.usage, window);
    }
    println!(
        "calibration kernel p50 {:.4} CPU ms over {} periods (reference {REFERENCE_CAL_MS})",
        median(&cals),
        cals.len()
    );

    let attempted = sessions.len();
    let failed = sessions
        .iter()
        .filter(|m| m.record.failure.is_some())
        .count();
    println!(
        "failed_frac {} ratio ({failed} of {attempted} sessions)",
        failed as f64 / attempted as f64
    );
    let metrics = if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", kind.name(), args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        per_layer(&sessions, &tracer)
    } else {
        let peak_rss = match peak_rss {
            Some(mb) => mb,
            None => peak_rss_mb()?,
        };
        end_to_end(kind, &sessions, &setup, peak_rss, &speedups)
    };
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let mut json = Vec::new();
    for (name, value) in &metrics {
        let unit = units[name];
        println!("{name:<32} {value:>16.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A failed session counts as missing any latency limit.
fn latency(m: &Measured, ms: fn(&Measured) -> f64) -> f64 {
    match m.record.failure {
        None => ms(m),
        Some(_) => f64::INFINITY,
    }
}

fn cost(m: &Measured) -> f64 {
    m.cost_ms
}

fn wall(m: &Measured) -> f64 {
    m.record.wall_ms
}

/// Programs delivered per second of `ms`: per schedule period, then
/// the median over periods.
fn programs_per_s(sessions: &[Measured], ms: fn(&Measured) -> f64) -> f64 {
    let mut periods: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for m in sessions {
        let p = periods.entry(m.cycle).or_default();
        p.0 += m.record.programs;
        p.1 += ms(m) / 1e3;
    }
    let rates: Vec<f64> = periods.values().map(|&(n, s)| n as f64 / s).collect();
    median(&rates)
}

fn end_to_end(
    kind: Kind,
    sessions: &[Measured],
    setup_s: &[f64],
    peak_rss_mb: f64,
    speedups: &[f64],
) -> Vec<(&'static str, f64)> {
    let pct = kind.tail_percentile();
    let sorted = |ms: fn(&Measured) -> f64| {
        let mut v: Vec<f64> = sessions.iter().map(|m| latency(m, ms)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let costs = sorted(cost);
    let walls = sorted(wall);
    let n = costs.len();
    // nearest rank
    let rank = |pct: f64| ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    println!(
        "session_cpu_ms_tail is p{pct} of {n} sessions ({} beyond it)",
        n - rank(pct)
    );
    for (what, v) in [("session_cpu_ms", &costs), ("session wall ms", &walls)] {
        let deepest = if n > 10 { v[n - 11] } else { v[n - 1] };
        println!(
            "{what} p50 {:.3}, p{pct} {:.3}, p99 {:.3}, highest with ten beyond (p{:.1}) {deepest:.3}",
            median(v),
            v[rank(pct) - 1],
            v[rank(99.0) - 1],
            100.0 * n.saturating_sub(10) as f64 / n as f64,
        );
    }
    println!(
        "programs per wall second {:.3}",
        programs_per_s(sessions, wall)
    );
    for class in [Class::Cold, Class::Read, Class::Write] {
        let of_class: Vec<&Measured> = sessions
            .iter()
            .filter(|m| m.record.class == class)
            .collect();
        if !of_class.is_empty() {
            let p50 = |ms| median(&of_class.iter().map(|m| latency(m, ms)).collect::<Vec<_>>());
            println!(
                "{class:?} sessions: {}, p50 {:.3} CPU ms (unscaled: user {:.3}, system {:.3}), {:.3} wall ms",
                of_class.len(),
                p50(cost),
                p50(|m| m.record.usage.user_ms),
                p50(|m| m.record.usage.sys_ms),
                p50(wall)
            );
        }
    }
    let geomean =
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp();
    println!(
        "asip_speedup_geomean over {} programs is simulated cycles on an unvalidated cycle model",
        speedups.len()
    );
    vec![
        ("setup_s", median(setup_s)),
        ("session_cpu_ms_p50", median(&costs)),
        ("session_cpu_ms_tail", costs[rank(pct) - 1]),
        // throughput of each schedule period, then their median: a burst
        // of host contention slows a few periods instead of the figure
        ("programs_per_cpu_s", programs_per_s(sessions, cost)),
        ("peak_rss_mb", peak_rss_mb),
        ("asip_speedup_geomean", geomean),
    ]
}

/// `(all, steal)` CPU ticks of the host from `/proc/stat`, to report how
/// much of the measurement the hypervisor took away.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn per_layer(sessions: &[Measured], tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let traced: Vec<&Measured> = sessions
        .iter()
        .filter(|m| m.traced && m.record.failure.is_none())
        .collect();

    // times: the median over traced sessions of each session's span sums
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut selves: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut profile_ms_by_cycle: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, m) in sessions.iter().enumerate() {
        if !m.traced || m.record.failure.is_some() {
            continue;
        }
        let spans = tracer.session_spans(u32::try_from(i).expect("few sessions"));
        for (name, ms) in trace::session_layer_times(&spans, THREADS) {
            times.entry(name).or_default().push(ms);
        }
        for (name, ms) in trace::self_time_by_name(&spans) {
            *selves.entry(name).or_insert(0.0) += ms / traced.len() as f64;
        }
        *profile_ms_by_cycle.entry(m.cycle).or_insert(0.0) += spans
            .iter()
            .filter(|s| s.name == "profile")
            .map(trace::Span::ms)
            .sum::<f64>();
    }
    println!("self time per traced session, ms:");
    for (name, ms) in &selves {
        println!("  {name:<14} {ms:>10.3}");
    }
    let mut out: BTreeMap<&'static str, f64> =
        times.iter().map(|(name, v)| (*name, median(v))).collect();
    let class_p50 = |class: Class| {
        let costs: Vec<f64> = traced
            .iter()
            .filter(|m| m.record.class == class)
            .map(|m| m.cost_ms)
            .collect();
        median(&costs)
    };
    out.insert("tier.read_session_ms", class_p50(Class::Read));
    out.insert("tier.write_session_ms", class_p50(Class::Write));

    // counts: per schedule period, over the first traced periods
    let mut cycles: BTreeMap<usize, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for m in &traced {
        let sums = cycles.entry(m.cycle).or_default();
        for (name, v) in &m.record.counts {
            *sums.entry(name).or_insert(0) += v;
        }
    }
    let counted: Vec<&BTreeMap<&str, u64>> = cycles.values().take(COUNTED_CYCLES).collect();
    // every session of a workload reports the same counters
    let count_names: Vec<&str> = counted
        .first()
        .map_or(Vec::new(), |c| c.keys().copied().collect());
    for name in count_names {
        let v: Vec<f64> = counted
            .iter()
            .map(|c| c.get(name).copied().unwrap_or(0) as f64)
            .collect();
        out.insert(name, median(&v));
    }
    let ratios: Vec<f64> = counted
        .iter()
        .map(|c| {
            let hits = c.get("synth.frontier.memo_hits").copied().unwrap_or(0) as f64;
            let misses = c.get("synth.frontier.memo_misses").copied().unwrap_or(0) as f64;
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        })
        .collect();
    out.insert("synth.frontier.memo_hit_ratio", median(&ratios));
    let rates: Vec<f64> = cycles
        .iter()
        .filter_map(|(cycle, c)| {
            let ms = profile_ms_by_cycle.get(cycle).copied().unwrap_or(0.0);
            let ops = c.get("sim.profile_ops").copied().unwrap_or(0) as f64;
            (ops > 0.0 && ms > 0.0).then(|| ops / (ms / 1e3))
        })
        .collect();
    out.insert("sim.ops_per_s", median(&rates));

    let untraced: Vec<f64> = sessions
        .iter()
        .filter(|m| !m.traced)
        .map(|m| latency(m, cost))
        .collect();
    let traced_costs: Vec<f64> = traced.iter().map(|m| m.cost_ms).collect();
    out.insert(
        "trace.overhead_pct",
        (median(&traced_costs) / median(&untraced) - 1.0) * 100.0,
    );

    PER_LAYER
        .iter()
        .map(|(name, _)| (*name, out.get(name).copied().unwrap_or(0.0)))
        .collect()
}
