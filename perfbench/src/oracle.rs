//! Output checks that do not come from the code under test: the
//! reference interpreter's results, and byte digests of encoded stage
//! artifacts.

use asip_explorer::benchmarks::Benchmark;
use asip_explorer::sim::{Engine, ReferenceSimulator};
use asip_explorer::{ArtifactCodec, Exploration};
use std::collections::HashMap;
use std::sync::Arc;

/// FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a benchmark's source and of the input data one seed binds.
pub fn input_digest(h: &mut Fnv, bench: &Benchmark, seed: u64) {
    h.str(bench.name).str(bench.source).u64(seed);
    let data = bench.dataset_with_seed(seed);
    let mut names: Vec<&str> = data.names().collect();
    names.sort_unstable();
    for name in names {
        h.str(name);
        for v in data.get(name).unwrap_or_default() {
            h.str(&v.to_string());
        }
    }
}

/// Digest of every stage artifact of one exploration, as the artifact
/// codec encodes them.
pub fn exploration_digest(e: &Exploration) -> u64 {
    let mut h = Fnv::new();
    h.str(e.benchmark.name)
        .bytes(&e.compiled.program.to_bytes())
        .bytes(&e.profiled.profile.to_bytes());
    for (scheduled, analyzed) in &e.levels {
        h.bytes(&scheduled.graph.to_bytes())
            .bytes(&analyzed.report.to_bytes());
    }
    h.bytes(&e.designed.design.to_bytes())
        .bytes(&e.evaluated.evaluation.to_bytes());
    h.finish()
}

/// Dynamic op counts of `(program, dataset seed)` pairs on the
/// reference interpreter, after checking that the engine the explorer
/// runs agrees with it on output memory and op count.
#[derive(Debug, Default)]
pub struct Oracle {
    ops: HashMap<(&'static str, u64), Result<u64, String>>,
}

impl Oracle {
    pub fn ops(&mut self, bench: &Benchmark, seed: u64) -> Result<u64, String> {
        self.ops
            .entry((bench.name, seed))
            .or_insert_with(|| reference_ops(bench, seed))
            .clone()
    }

    /// Check one session result against the reference: the profile's
    /// op count, and the evaluation's baseline re-run.
    pub fn check(&mut self, e: &Exploration, seed: u64) -> Result<(), String> {
        let want = self.ops(&e.benchmark, seed)?;
        let name = e.benchmark.name;
        let profiled = e.profiled.profile.total_ops();
        if profiled != want {
            return Err(format!(
                "{name} seed {seed}: profile has {profiled} ops, reference {want}"
            ));
        }
        let base = e.evaluated.evaluation.base_cycles;
        if base != want {
            return Err(format!(
                "{name} seed {seed}: evaluation baseline has {base} cycles, reference {want}"
            ));
        }
        Ok(())
    }
}

fn reference_ops(bench: &Benchmark, seed: u64) -> Result<u64, String> {
    let name = bench.name;
    let program = bench
        .compile()
        .map_err(|e| format!("{name}: compile failed: {e}"))?;
    let data = bench.dataset_with_seed(seed);
    let reference = ReferenceSimulator::new(&program)
        .run(&data)
        .map_err(|e| format!("{name} seed {seed}: reference run failed: {e}"))?;
    let engine = Engine::new(Arc::new(program))
        .run(&data)
        .map_err(|e| format!("{name} seed {seed}: engine run failed: {e}"))?;
    if engine.memory != reference.memory {
        return Err(format!(
            "{name} seed {seed}: engine output memory differs from the reference"
        ));
    }
    let (got, want) = (engine.profile.total_ops(), reference.profile.total_ops());
    if got != want {
        return Err(format!(
            "{name} seed {seed}: engine ran {got} ops, reference {want}"
        ));
    }
    Ok(want)
}
