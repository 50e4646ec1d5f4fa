//! The perf-trajectory harness: cold vs warm session costs and
//! simulator throughput, with a machine-readable JSON summary diffed
//! against the checked-in baseline (`benches/baseline.json`).
//!
//! ```text
//! cargo bench --bench explore
//! ```
//!
//! The series families measured:
//!
//! - **cold `explore_all`** — a fresh storeless session runs the full
//!   Figure-1 pipeline over the whole Table-1 registry (compile,
//!   profile, three schedules, three analyses, design, evaluate per
//!   benchmark), fanned out on the session thread pool;
//! - **warm `explore_all`** — the same session again (every stage a
//!   typed-cache hit), a *store-warm* fresh session over a populated
//!   artifact store (every stage prefetched in parallel and decoded
//!   from staged bytes — `prefetch_hits` in the summary proves the
//!   path taken), and a *remote-warm* storeless session served by an
//!   in-process `serve` daemon on loopback over that same store (the
//!   batched prefetch turns the warm-up into one round trip);
//! - **design-space sweep** — a 256-config pareto-frontier sweep
//!   (8 area budgets × 4 clocks × 4 extension caps × 2 levels) over
//!   the whole suite on the warm session, counter-asserted to perform
//!   zero optimizer runs; plus the normalized `warm_over_cold_ratio`
//!   (store-warm replay cost as a fraction of the cold run);
//! - **simulator throughput** — dynamic ops interpreted per second by
//!   the pre-decoded engine on the largest Table-1 benchmark (largest
//!   by profiled dynamic op count, resolved at run time from the warm
//!   session), decode amortized out by reusing one [`sim::Engine`];
//! - **alloc-free sweep** — profile-only pooled runs over pre-bound
//!   inputs on the same benchmark (`ablation_alloc_free_ms`);
//! - **decode cost** — the one-time `Program` → `DecodedProgram`
//!   lowering for the same benchmark, so the amortization story stays
//!   measured;
//! - **generated-suite scaling** — cold `explore` cost per corpus size
//!   class (`gen_cold_explore_{small,mid,large}_ms`, 8 seeded programs
//!   each) and engine throughput on the heaviest generated program
//!   (`gen_sim_ops_per_sec`), so the pipeline's scaling with program
//!   size is gated alongside the Table-1 series.
//!
//! The summary is written to `ASIP_BENCH_JSON` (default
//! `target/asip-bench-explore.json`, workspace-relative) as a flat JSON
//! object; the values are milliseconds and ops/second. Series names
//! are *stable* (no benchmark name embedded) so the
//! perf gate can diff run against baseline; when
//! `benches/baseline.json` exists the comparison table is printed at
//! the end of the run (the CI gate is the `asip-bench` `perf` binary —
//! see `docs/perf.md`).
//!
//! [`sim::Engine`]: asip_explorer::sim::Engine

use asip_explorer::perf;
use asip_explorer::sim;
use asip_explorer::Explorer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock one call, in milliseconds.
fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn summary_path() -> PathBuf {
    match std::env::var("ASIP_BENCH_JSON") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => workspace_root().join("target/asip-bench-explore.json"),
    }
}

fn main() {
    let mut rows: Vec<(String, f64)> = Vec::new();

    // -- cold vs warm explore_all (in-memory) --------------------------
    let session = Explorer::new();
    let (cold, cold_ms) = time_ms(|| session.explore_all().expect("pipeline runs"));
    assert_eq!(cold.len(), session.registry().len());
    let (_, warm_ms) = time_ms(|| session.explore_all().expect("pipeline replays"));
    println!("bench explore_all/cold                               {cold_ms:>12.1} ms");
    println!("bench explore_all/warm-memory                        {warm_ms:>12.1} ms");
    rows.push(("cold_explore_all_ms".into(), cold_ms));
    rows.push(("warm_explore_all_ms".into(), warm_ms));

    // -- design-space sweep on the warm session ------------------------
    // 8 area budgets × 4 clocks × 4 extension caps × 2 levels = 256
    // configs; the frontier search shares coverage reports and unit
    // costs across the whole grid, and the warm session already holds
    // every schedule, so the sweep performs zero optimizer runs.
    {
        use asip_explorer::opt::OptLevel;
        use asip_explorer::synth::DesignConstraints;
        let mut grid = Vec::with_capacity(256);
        for &opt_level in &[OptLevel::Pipelined, OptLevel::PipelinedRenamed] {
            for budget_step in 0..8u32 {
                for clock_step in 0..4u32 {
                    for ext_cap in 1..=4usize {
                        grid.push(DesignConstraints {
                            area_budget: 750.0 * f64::from(budget_step + 1),
                            clock_ns: 25.0 + 10.0 * f64::from(clock_step),
                            max_extensions: ext_cap,
                            opt_level,
                        });
                    }
                }
            }
        }
        assert_eq!(grid.len(), 256);
        let schedule_runs = session.cache_stats().schedule.misses;
        let (space, sweep_ms) = time_ms(|| session.design_space(&grid).expect("sweep runs"));
        assert_eq!(space.space.len(), 256);
        assert_eq!(
            session.cache_stats().schedule.misses,
            schedule_runs,
            "a warm design-space sweep performs zero optimizer runs"
        );
        println!("bench design_space/sweep-256                         {sweep_ms:>12.1} ms");
        rows.push(("design_space_sweep_ms".into(), sweep_ms));
    }

    // -- store-warm explore_all (parallel prefetch from disk) ----------
    let dir = std::env::temp_dir().join(format!("asip-bench-explore-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Explorer::new()
        .with_store(&dir)
        .explore_all()
        .expect("populates the store");
    let store_warm = Explorer::new().with_store(&dir);
    let (_, disk_ms) = time_ms(|| store_warm.explore_all().expect("replays from disk"));
    let stats = store_warm.cache_stats();
    assert_eq!(stats.total_misses(), 0, "a warm store recomputes nothing");
    let prefetch_hits = stats.total_prefetch_hits();
    println!("bench explore_all/warm-store                         {disk_ms:>12.1} ms");
    rows.push(("store_warm_explore_all_ms".into(), disk_ms));
    rows.push(("store_warm_prefetch_hits".into(), prefetch_hits as f64));
    // normalized persistence payoff: how much of a cold run a
    // store-warm replay still costs (ROADMAP item 4 — lower is better,
    // gated with an absolute noise floor; see `perf::RATIO_NOISE_FLOOR`)
    rows.push(("warm_over_cold_ratio".into(), disk_ms / cold_ms));

    // -- remote-warm explore_all (loopback daemon over the same store) -
    {
        use asip_explorer::remote::{serve, Endpoint, RetryPolicy, ServeOptions};
        let server_session = Arc::new(Explorer::new().with_store(&dir));
        let handle = serve(
            server_session,
            &Endpoint::Tcp("127.0.0.1:0".into()),
            ServeOptions::default(),
        )
        .expect("daemon binds loopback");
        let remote_warm = Explorer::new()
            .with_remote(&handle.endpoint().to_string(), RetryPolicy::default())
            .expect("endpoint parses");
        let (_, remote_ms) = time_ms(|| remote_warm.explore_all().expect("replays over the wire"));
        let stats = remote_warm.cache_stats();
        assert_eq!(stats.total_misses(), 0, "a warm daemon recomputes nothing");
        assert!(stats.total_remote_hits() > 0, "served over the wire");
        println!("bench explore_all/warm-remote                        {remote_ms:>12.1} ms");
        rows.push(("remote_warm_explore_all_ms".into(), remote_ms));
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();

    // -- simulator throughput on the largest benchmark -----------------
    let largest = session
        .registry()
        .iter()
        .copied()
        .collect::<Vec<_>>()
        .into_iter()
        .max_by_key(|b| {
            session
                .profile(b.name)
                .expect("profiled during explore_all")
                .profile
                .total_ops()
        })
        .expect("registry is non-empty");
    let program = session.compile(largest.name).expect("cached").program;
    let data = largest.dataset();
    let total_ops = session
        .profile(largest.name)
        .expect("cached")
        .profile
        .total_ops();

    // decode cost: the one-time lowering the engine amortizes away
    const DECODE_REPS: u32 = 64;
    let (_, decode_total_ms) = time_ms(|| {
        for _ in 0..DECODE_REPS {
            std::hint::black_box(sim::DecodedProgram::decode(std::hint::black_box(&program)));
        }
    });
    let decode_ms = decode_total_ms / DECODE_REPS as f64;

    let engine = sim::Engine::new(Arc::clone(&program));
    // best of a few runs, so one scheduler hiccup cannot fail the gate
    let sim_ms = (0..5)
        .map(|_| time_ms(|| engine.run(&data).expect("runs")).1)
        .fold(f64::INFINITY, f64::min);
    let ops_per_sec = total_ops as f64 / (sim_ms / 1e3);
    println!(
        "bench simulator/{}: {total_ops} dynamic ops, {:.2} Mops/s, decode {decode_ms:.3} ms",
        largest.name,
        ops_per_sec / 1e6
    );
    rows.push(("sim_dynamic_ops".into(), total_ops as f64));
    rows.push(("sim_decode_ms".into(), decode_ms));
    rows.push(("sim_ops_per_sec".into(), ops_per_sec));

    // -- alloc-free sweep over pre-bound inputs ------------------------
    // the sweep shape design loops sit on: profile-only pooled runs, no
    // banks allocated, no outputs materialized
    {
        const SWEEP: usize = 64;
        let inputs = engine.bind(&data).expect("binds");
        let alloc_free_ms = (0..5)
            .map(|_| {
                time_ms(|| {
                    for _ in 0..SWEEP {
                        engine.run_pooled(&inputs).expect("pooled run");
                    }
                })
                .1
            })
            .fold(f64::INFINITY, f64::min);
        println!(
            "bench simulator/alloc-free-sweep-{SWEEP}                  {alloc_free_ms:>12.1} ms"
        );
        rows.push(("ablation_alloc_free_ms".into(), alloc_free_ms));
    }

    // -- generated-suite scaling series --------------------------------
    // cold explore cost per corpus size class (8 programs each), so the
    // pipeline's scaling with program size stays on the perf trajectory,
    // plus engine throughput on the heaviest generated program (a
    // workload shape the Table-1 suite does not cover)
    {
        use asip_explorer::benchmarks::{full_registry, generated_corpus_for, CorpusClass};
        let gen_session = Explorer::new().with_registry(full_registry());
        for class in CorpusClass::all() {
            let fresh = Explorer::new().with_registry(full_registry());
            let names: Vec<&str> = generated_corpus_for(class).map(|b| b.name).collect();
            assert_eq!(names.len(), 8);
            let (_, class_ms) = time_ms(|| {
                for name in &names {
                    fresh.explore(name).expect("corpus explores");
                }
            });
            let label = match class {
                CorpusClass::Small => "small",
                CorpusClass::Mid => "mid",
                CorpusClass::Large => "large",
            };
            println!(
                "bench gen/cold-explore-{label:<5}                        {class_ms:>12.1} ms"
            );
            rows.push((format!("gen_cold_explore_{label}_ms"), class_ms));
        }

        let heaviest = asip_explorer::benchmarks::generated_corpus()
            .iter()
            .max_by_key(|b| {
                gen_session
                    .profile(b.name)
                    .expect("corpus profiles")
                    .profile
                    .total_ops()
            })
            .expect("corpus is non-empty");
        let program = gen_session.compile(heaviest.name).expect("cached").program;
        let data = heaviest.dataset();
        let gen_ops = gen_session
            .profile(heaviest.name)
            .expect("cached")
            .profile
            .total_ops();
        let gen_engine = sim::Engine::new(Arc::clone(&program));
        let gen_ms = (0..5)
            .map(|_| time_ms(|| gen_engine.run(&data).expect("runs")).1)
            .fold(f64::INFINITY, f64::min);
        let gen_ops_per_sec = gen_ops as f64 / (gen_ms / 1e3);
        println!(
            "bench gen/simulator/{}: {gen_ops} dynamic ops, {:.2} Mops/s",
            heaviest.name,
            gen_ops_per_sec / 1e6
        );
        rows.push(("gen_sim_dynamic_ops".into(), gen_ops as f64));
        rows.push(("gen_sim_ops_per_sec".into(), gen_ops_per_sec));
    }

    // -- JSON summary --------------------------------------------------
    let mut json = String::from("{\n  \"schema\": 2");
    for (k, v) in &rows {
        json.push_str(&format!(",\n  \"{k}\": {v:.3}"));
    }
    json.push_str("\n}\n");
    let path = summary_path();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    // the CI perf gate reads this file right after the bench step, so
    // a failed write must fail the run, not just log
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote bench summary to {}", path.display()),
        Err(e) => panic!("could not write bench summary to {}: {e}", path.display()),
    }

    // -- baseline comparison (informational here; the CI gate is the
    //    `perf` binary, which exits non-zero) -------------------------
    let baseline_path = workspace_root().join("benches/baseline.json");
    if baseline_path.is_file() {
        match (
            perf::load_summary(&baseline_path),
            perf::parse_summary(&json),
        ) {
            (Ok(baseline), Ok(current)) => {
                println!("\nbaseline comparison ({}):", baseline_path.display());
                println!(
                    "{}",
                    perf::compare(&baseline, &current, perf::DEFAULT_TOLERANCE_PCT)
                );
            }
            (Err(e), _) | (_, Err(e)) => eprintln!("baseline comparison skipped: {e}"),
        }
    }
}
