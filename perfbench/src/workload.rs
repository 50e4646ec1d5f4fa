//! The three workloads: their set-up, one session each, and the
//! output checks and counter deltas taken after it.

use crate::clock::Usage;
use crate::oracle::{exploration_digest, input_digest, Fnv, Oracle};
use crate::trace::{span, SessionTrace};
use asip_explorer::benchmarks::{registry, Benchmark, DataSpec, Suite};
use asip_explorer::gen::{generate_named, GenConfig, GenTy};
use asip_explorer::opt::OptLevel;
use asip_explorer::remote::{serve, Endpoint, RetryPolicy, ServeOptions, ServeStats, ServerHandle};
use asip_explorer::store::DiskStats;
use asip_explorer::synth::DesignConstraints;
use asip_explorer::{
    ArtifactCodec, ArtifactTier, DesignSpaced, Exploration, Explorer, ExplorerError,
};
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of every session's pool (the benchmark host has two
/// cores).
pub const THREADS: usize = 2;

/// Dataset seeds the fleet daemon is populated with before timing.
const FLEET_POOL: usize = 4;

/// Fleet sessions per schedule period: three reads, then one write.
const FLEET_PERIOD: usize = 4;

/// Program sets gen-sweep generates; sessions take them in turn, so a
/// run's figures rest on 8 x 24 programs rather than on one seed's 24.
const GEN_SETS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Table1Cold,
    GenSweep,
    Fleet,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "table1-cold" => Some(Kind::Table1Cold),
            "gen-sweep" => Some(Kind::GenSweep),
            "fleet" => Some(Kind::Fleet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1Cold => "table1-cold",
            Kind::GenSweep => "gen-sweep",
            Kind::Fleet => "fleet",
        }
    }

    /// The tail percentile reported. It is fixed rather than derived
    /// from each run's session count, so that a run that fits more
    /// sessions in its seconds does not report a deeper percentile. A
    /// 30-second run on a two-core host has at least ten sessions
    /// beyond it, with room for a host half as fast; gen-sweep fits
    /// about 30 to 50 sessions in a run.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Kind::Table1Cold | Kind::Fleet => 95.0,
            Kind::GenSweep => 65.0,
        }
    }

    /// Sessions in one period of the workload's schedule.
    pub fn cycle_len(self) -> usize {
        match self {
            Kind::Fleet => FLEET_PERIOD,
            _ => 1,
        }
    }
}

/// What a session does to the tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A storeless session with no tiers (table1-cold, gen-sweep).
    Cold,
    /// Replays a published seed from the daemon.
    Read,
    /// Computes a never-seen seed and pushes it to the daemon.
    Write,
}

/// Named per-layer counts of one session.
pub type Counts = BTreeMap<&'static str, u64>;

/// One measured session.
#[derive(Debug)]
pub struct Record {
    pub wall_ms: f64,
    /// Process CPU time over the session, every thread included.
    pub usage: Usage,
    pub class: Class,
    /// Programs whose full pipeline result was delivered and checked.
    pub programs: usize,
    pub failure: Option<String>,
    pub counts: Counts,
}

/// Small deterministic generator for the workload's own choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed for one purpose (`tag`) derived from the workload seed.
fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The daemon of the fleet workload and the seeds it holds.
struct Fleet {
    dir: PathBuf,
    server: ServerHandle,
    addr: String,
    /// Published seeds with the digests of the session that published
    /// them, one per program.
    pool: Vec<(u64, Vec<u64>)>,
    seen: HashSet<u64>,
    schedule: SplitMix,
}

impl Fleet {
    fn fresh_seed(&mut self) -> u64 {
        loop {
            let seed = self.schedule.next_u64();
            if self.seen.insert(seed) {
                return seed;
            }
        }
    }
}

/// Digests every session of one table1-cold or gen-sweep program set
/// must reproduce, taken from the set's first session that passed the
/// reference checks.
struct Expected {
    digests: Vec<u64>,
    space: Option<u64>,
    speedups: Vec<f64>,
}

pub struct Workload {
    kind: Kind,
    /// The program sets sessions explore, in turn.
    sets: Vec<Vec<Benchmark>>,
    data_seed: u64,
    grid: Vec<DesignConstraints>,
    oracle: Oracle,
    expected: Vec<Option<Expected>>,
    fleet: Option<Fleet>,
    /// Speedups of the sessions that published the fleet's pool.
    published_speedups: Vec<f64>,
    /// Digest of every program source and dataset the run starts from.
    pub input_digest: u64,
}

/// What a session returns; checked and dropped outside the timed span.
struct Delivered {
    explorer: Explorer,
    explorations: Vec<Exploration>,
    space: Option<DesignSpaced>,
}

impl Workload {
    /// Everything before the first timed session: program generation,
    /// reference runs, daemon start and store population.
    pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<Workload, String> {
        let sets: Vec<Vec<Benchmark>> = match kind {
            Kind::GenSweep => (0..GEN_SETS)
                .map(|set| generated_programs(set, derive(seed, 2 + set as u64)))
                .collect(),
            _ => vec![registry().iter().copied().collect()],
        };
        let mut w = Workload {
            kind,
            expected: sets.iter().map(|_| None).collect(),
            sets,
            data_seed: derive(seed, 1),
            grid: if kind == Kind::GenSweep {
                design_grid()
            } else {
                Vec::new()
            },
            oracle: Oracle::default(),
            fleet: None,
            published_speedups: Vec::new(),
            input_digest: 0,
        };
        let mut digest = Fnv::new();
        digest.str(kind.name());
        let data_seeds = match kind {
            Kind::Fleet => {
                w.start_fleet(seed, dir)?;
                let fleet = w.fleet.as_ref().expect("just started");
                let mut schedule = fleet.schedule.clone();
                for _ in 0..256 {
                    digest.u64(schedule.next_u64());
                }
                fleet.pool.iter().map(|(s, _)| *s).collect()
            }
            _ => {
                for b in w.sets.iter().flatten() {
                    w.oracle.ops(b, w.data_seed)?;
                }
                vec![w.data_seed]
            }
        };
        for &s in &data_seeds {
            for b in w.sets.iter().flatten() {
                input_digest(&mut digest, b, s);
            }
        }
        w.input_digest = digest.finish();
        Ok(w)
    }

    fn start_fleet(&mut self, seed: u64, dir: &Path) -> Result<(), String> {
        let daemon = Explorer::new().with_threads(THREADS).with_store(dir);
        let server = serve(
            Arc::new(daemon),
            &Endpoint::Tcp("127.0.0.1:0".into()),
            ServeOptions::default(),
        )
        .map_err(|e| format!("daemon failed to bind loopback: {e}"))?;
        let addr = server.endpoint().to_string();
        let mut fleet = Fleet {
            dir: dir.to_path_buf(),
            server,
            addr,
            pool: Vec::new(),
            seen: HashSet::new(),
            schedule: SplitMix::new(derive(seed, 3)),
        };
        for _ in 0..FLEET_POOL {
            let data_seed = fleet.fresh_seed();
            for b in &self.sets[0] {
                self.oracle.ops(b, data_seed)?;
            }
            let client = Explorer::new()
                .with_threads(THREADS)
                .with_seed(data_seed)
                .with_remote(&fleet.addr, RetryPolicy::default())
                .map_err(|e| e.to_string())?;
            let explorations = client
                .explore_all()
                .map_err(|e| format!("publishing seed {data_seed}: {e}"))?;
            let mut digests = Vec::with_capacity(explorations.len());
            for e in &explorations {
                self.oracle.check(e, data_seed)?;
                digests.push(exploration_digest(e));
                self.published_speedups.push(e.speedup());
            }
            fleet.pool.push((data_seed, digests));
        }
        self.fleet = Some(fleet);
        Ok(())
    }

    /// Stop the daemon and remove its store.
    pub fn teardown(self) {
        if let Some(fleet) = self.fleet {
            fleet.server.shutdown();
            std::fs::remove_dir_all(&fleet.dir).ok();
        }
    }

    /// Simulated speedups of a fixed set of (program, seed) pairs: the
    /// fleet's published pool, or every program set at the data seed.
    pub fn speedups(&self) -> Vec<f64> {
        match self.fleet {
            Some(_) => self.published_speedups.clone(),
            None => self
                .expected
                .iter()
                .flatten()
                .flat_map(|e| e.speedups.iter().copied())
                .collect(),
        }
    }

    /// Run session `index` of the schedule, timed from building a fresh
    /// explorer until its results are returned, then check it. `None`
    /// is the warm-up: it takes no place in the schedule.
    pub fn session(&mut self, index: Option<usize>, trace: Option<&SessionTrace<'_>>) -> Record {
        let set = index.unwrap_or(0) % self.sets.len();
        let (class, seed) = match (&mut self.fleet, index) {
            (None, _) => (Class::Cold, self.data_seed),
            (Some(fleet), Some(i)) if i % FLEET_PERIOD == FLEET_PERIOD - 1 => {
                (Class::Write, fleet.fresh_seed())
            }
            (Some(fleet), Some(_)) => {
                let pick = fleet.schedule.below(fleet.pool.len());
                (Class::Read, fleet.pool[pick].0)
            }
            (Some(fleet), None) => (Class::Read, fleet.pool[0].0),
        };
        let before = self.fleet.as_ref().map(|f| daemon_snapshot(&f.server));

        let usage_start = Usage::now();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            span(trace, "session", 0, |root| {
                self.body(set, seed, trace, root)
            })
        }));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let usage = Usage::now().since(usage_start);

        let mut record = Record {
            wall_ms,
            usage,
            class,
            programs: 0,
            failure: None,
            counts: Counts::new(),
        };
        let delivered = match outcome {
            Ok(Ok(d)) => d,
            Ok(Err(e)) => {
                record.failure = Some(format!("explorer error: {e}"));
                return record;
            }
            Err(panic) => {
                record.failure = Some(format!("panic: {}", panic_message(&*panic)));
                return record;
            }
        };
        record.counts = client_counts(&delivered);
        if let (Some(fleet), Some(before)) = (&self.fleet, before) {
            record
                .counts
                .extend(daemon_counts(&before, &daemon_snapshot(&fleet.server)));
        }
        match self.check(&delivered, class, set, seed) {
            Ok(()) => record.programs = delivered.explorations.len(),
            Err(e) => record.failure = Some(e),
        }
        record
    }

    fn body(
        &self,
        set: usize,
        seed: u64,
        trace: Option<&SessionTrace<'_>>,
        root: u32,
    ) -> Result<Delivered, ExplorerError> {
        let mut explorer = Explorer::new().with_threads(THREADS).with_seed(seed);
        match self.kind {
            Kind::Table1Cold => {}
            Kind::GenSweep => {
                for b in &self.sets[set] {
                    explorer = explorer.with_benchmark(*b);
                }
            }
            Kind::Fleet => {
                let addr = &self.fleet.as_ref().expect("fleet set up").addr;
                explorer = explorer.with_remote(addr, RetryPolicy::default())?;
            }
        }
        let names: Vec<&str> = self.sets[set].iter().map(|b| b.name).collect();
        let explorations = explore_programs(&explorer, &names, trace, root)?;
        let space = match self.kind {
            Kind::GenSweep => Some(span(trace, "design_space", root, |_| {
                explorer.design_space_with(&names, &self.grid, explorer.detector())
            })?),
            _ => None,
        };
        Ok(Delivered {
            explorer,
            explorations,
            space,
        })
    }

    /// Check a session against the reference interpreter, and against
    /// the digests of the session it must reproduce byte for byte.
    fn check(&mut self, d: &Delivered, class: Class, set: usize, seed: u64) -> Result<(), String> {
        let programs = &self.sets[set];
        if d.explorations.len() != programs.len() {
            return Err(format!(
                "{} of {} programs delivered",
                d.explorations.len(),
                programs.len()
            ));
        }
        for e in &d.explorations {
            self.oracle.check(e, seed)?;
        }
        let digests: Vec<u64> = d.explorations.iter().map(exploration_digest).collect();
        let space = d.space.as_ref().map(|s| s.space.to_bytes());
        let space = space.map(|bytes| Fnv::new().bytes(&bytes).finish());
        match (class, &mut self.fleet) {
            (Class::Write, Some(fleet)) => {
                fleet.pool.push((seed, digests));
                Ok(())
            }
            (Class::Read, Some(fleet)) => {
                let (_, want) = fleet
                    .pool
                    .iter()
                    .find(|(s, _)| *s == seed)
                    .expect("reads pick published seeds");
                differ(&digests, want, programs)
            }
            _ => match &self.expected[set] {
                Some(want) => {
                    differ(&digests, &want.digests, programs)?;
                    if space != want.space {
                        return Err("design-space artifact differs from the first session".into());
                    }
                    Ok(())
                }
                None => {
                    self.expected[set] = Some(Expected {
                        digests,
                        space,
                        speedups: d.explorations.iter().map(Exploration::speedup).collect(),
                    });
                    Ok(())
                }
            },
        }
    }
}

fn differ(got: &[u64], want: &[u64], programs: &[Benchmark]) -> Result<(), String> {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(i) => Err(format!(
            "{}: stage artifacts differ from the reference session's",
            programs[i].name
        )),
        None => Ok(()),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Explore `names`. Untraced sessions over the whole registry call
/// `explore_all`; otherwise the same prefetch and `map_all` fan-out it
/// performs, with one span per stage call when tracing.
fn explore_programs(
    explorer: &Explorer,
    names: &[&str],
    trace: Option<&SessionTrace<'_>>,
    root: u32,
) -> Result<Vec<Exploration>, ExplorerError> {
    if trace.is_none() && names.len() == explorer.registry().len() {
        return explorer.explore_all();
    }
    span(trace, "prefetch", root, |_| explorer.prefetch(names))?;
    let found = span(trace, "map_all", root, |parent| {
        explorer.map_all(|b| {
            if !names.contains(&b.name) {
                return Ok(None);
            }
            match trace {
                None => explorer.explore(b.name).map(Some),
                Some(_) => span(trace, "explore", parent, |id| {
                    explore_staged(explorer, b.name, trace, id)
                })
                .map(Some),
            }
        })
    })?;
    Ok(found.into_iter().flatten().collect())
}

/// `Explorer::explore`, one public stage call at a time.
fn explore_staged(
    explorer: &Explorer,
    name: &str,
    trace: Option<&SessionTrace<'_>>,
    parent: u32,
) -> Result<Exploration, ExplorerError> {
    let compiled = span(trace, "compile", parent, |_| explorer.compile(name))?;
    let profiled = span(trace, "profile", parent, |_| explorer.profile(name))?;
    let mut levels = Vec::with_capacity(explorer.levels().len());
    for &level in explorer.levels() {
        let scheduled = span(trace, "schedule", parent, |_| {
            explorer.schedule(name, level)
        })?;
        let analyzed = span(trace, "analyze", parent, |_| explorer.analyze(name, level))?;
        levels.push((scheduled, analyzed));
    }
    let designed = span(trace, "design", parent, |_| explorer.design(name))?;
    let evaluated = span(trace, "evaluate", parent, |_| explorer.evaluate(name))?;
    Ok(Exploration {
        benchmark: compiled.benchmark,
        compiled,
        profiled,
        levels,
        designed,
        evaluated,
    })
}

/// Per-session counts from the client session's public counters.
fn client_counts(d: &Delivered) -> Counts {
    let s = d.explorer.cache_stats();
    let sum = |f: &dyn Fn(&Exploration) -> u64| -> u64 { d.explorations.iter().map(f).sum() };
    // Every session here either computes a stage for all its programs
    // or for none of them, so the op counts of the results are the ops
    // the session simulated.
    let profile_ops = if s.profile.misses > 0 {
        sum(&|e| e.profiled.profile.total_ops())
    } else {
        0
    };
    let evaluate_ops = if s.evaluate.misses > 0 {
        sum(&|e| e.evaluated.evaluation.base_cycles + e.evaluated.evaluation.asip_cycles)
    } else {
        0
    };
    let search = match (&d.space, s.design_space.misses) {
        (Some(space), 1..) => space.space.stats,
        _ => Default::default(),
    };
    Counts::from([
        ("sim.dyn_ops", profile_ops + evaluate_ops),
        ("sim.profile_ops", profile_ops),
        ("sim.run_state_creates", s.run_state.creates),
        ("opt.runs", s.schedule.misses),
        ("chains.runs", s.analyze.misses),
        ("synth.frontier.expanded", search.expanded as u64),
        ("synth.frontier.pruned", search.pruned as u64),
        ("synth.frontier.memo_hits", search.memo_hits as u64),
        ("synth.frontier.memo_misses", search.memo_misses as u64),
        ("tier.computes", s.total_misses()),
        ("tier.prefetch_hits", s.total_prefetch_hits()),
        ("remote.requests", s.remote.requests),
        ("remote.connects", s.remote.connects),
        ("remote.retries", s.remote.retries),
        ("remote.errors", s.remote.errors),
        ("remote.bytes_sent", s.remote.bytes_sent),
        ("remote.bytes_received", s.remote.bytes_received),
    ])
}

struct DaemonSnapshot {
    serve: ServeStats,
    disk: DiskStats,
    bytes: u64,
}

fn daemon_snapshot(server: &ServerHandle) -> DaemonSnapshot {
    let store = server.session().store().expect("the daemon has a store");
    DaemonSnapshot {
        serve: server.stats(),
        disk: store.disk_totals(),
        bytes: ArtifactTier::totals(store).bytes,
    }
}

/// Per-session deltas of the daemon's serve and store counters.
fn daemon_counts(a: &DaemonSnapshot, b: &DaemonSnapshot) -> Counts {
    let reads = |d: &DiskStats| d.hits + d.misses + d.corrupt;
    Counts::from([
        ("serve.batch_keys", b.serve.batch_keys - a.serve.batch_keys),
        ("serve.puts", b.serve.puts - a.serve.puts),
        ("serve.hits", b.serve.hits - a.serve.hits),
        ("serve.misses", b.serve.misses - a.serve.misses),
        ("serve.overloaded", b.serve.overloaded - a.serve.overloaded),
        (
            "serve.deadline_truncated",
            b.serve.deadline_truncated - a.serve.deadline_truncated,
        ),
        (
            "serve.frame_errors",
            b.serve.frame_errors - a.serve.frame_errors,
        ),
        ("store.reads", reads(&b.disk) - reads(&a.disk)),
        ("store.writes", b.disk.writes - a.disk.writes),
        ("store.bytes", b.bytes.saturating_sub(a.bytes)),
        ("store.corrupt", b.disk.corrupt - a.disk.corrupt),
    ])
}

/// The 256-config constraint grid: 8 area budgets x 4 clocks x 4
/// extension caps x 2 feedback levels.
fn design_grid() -> Vec<DesignConstraints> {
    let mut grid = Vec::with_capacity(256);
    for opt_level in [OptLevel::Pipelined, OptLevel::PipelinedRenamed] {
        for budget in 1..=8u32 {
            for clock in 0..4u32 {
                for max_extensions in 1..=4 {
                    grid.push(DesignConstraints {
                        area_budget: 750.0 * f64::from(budget),
                        clock_ns: 25.0 + 10.0 * f64::from(clock),
                        max_extensions,
                        opt_level,
                    });
                }
            }
        }
    }
    grid
}

/// Set `set` of 24 fresh programs over the generator grid: size x loop
/// depth x int/fp mix x chain density, each with its own seed.
fn generated_programs(set: usize, seed: u64) -> Vec<Benchmark> {
    let mut seeds = SplitMix::new(seed);
    let mut out = Vec::with_capacity(24);
    for (size, preset) in [
        ("s", GenConfig::small()),
        ("m", GenConfig::mid()),
        ("l", GenConfig::large()),
    ] {
        for (depth_name, loop_depth) in [("d1", 1), ("d3", 3)] {
            for (mix_name, float_share) in [("int", 0u8), ("fp", 45)] {
                for (chain_name, chain_density) in [("lo", 10u8), ("hi", 60)] {
                    let config = GenConfig {
                        loop_depth,
                        float_share,
                        float_arrays: if float_share == 0 {
                            0
                        } else {
                            preset.float_arrays
                        },
                        chain_density,
                        ..preset
                    };
                    let name = format!("set{set}-{size}-{depth_name}-{mix_name}-{chain_name}");
                    out.push(generated_benchmark(name, seeds.next_u64(), &config));
                }
            }
        }
    }
    out
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn generated_benchmark(name: String, seed: u64, config: &GenConfig) -> Benchmark {
    let prog = generate_named(name, seed, config);
    let specs: Vec<DataSpec> = prog
        .inputs
        .iter()
        .map(|input| {
            let name = leak(input.name.clone());
            match input.ty {
                GenTy::Int => DataSpec::Ints { name, n: input.len },
                GenTy::Float => DataSpec::Floats { name, n: input.len },
            }
        })
        .collect();
    let data = match specs.as_slice() {
        [one] => *one,
        _ => DataSpec::Multi {
            specs: Box::leak(specs.into_boxed_slice()),
        },
    };
    Benchmark {
        name: leak(prog.name),
        description: "generated workload",
        paper_lines: prog.source.lines().count(),
        data_description: "seeded random input arrays",
        source: leak(prog.source),
        data,
        suite: Suite::Generated,
    }
}
