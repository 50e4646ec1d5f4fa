//! Differential tests for the pre-decoded simulator engine: for every
//! Table-1 benchmark (and for the design-rewritten variants carrying
//! chained super-instructions), the engine must produce *byte-identical*
//! profiles, memories, results and trace streams to the retained
//! reference interpreter (`asip_sim::reference`).

use asip_explorer::ir::{ArrayKind, BinOp, Operand, Program, ProgramBuilder, Ty, Value};
use asip_explorer::sim::{ClassMix, DataSet, Engine, ReferenceSimulator, RingTrace, SimError};
use asip_explorer::synth::{DesignConstraints, Rewriter};
use asip_explorer::{opt::OptLevel, Explorer};
use std::sync::Arc;

/// Assert the engine and the reference agree on one program + data set.
fn assert_differential(program: &asip_explorer::ir::Program, data: &asip_explorer::sim::DataSet) {
    let reference = ReferenceSimulator::new(program)
        .run(data)
        .expect("reference runs");
    let engine = Engine::new(Arc::new(program.clone()));
    let decoded = engine.run(data).expect("engine runs");
    assert_eq!(
        decoded.profile, reference.profile,
        "{}: profiles must be byte-identical",
        program.name
    );
    assert_eq!(
        decoded.memory, reference.memory,
        "{}: final memories must be byte-identical",
        program.name
    );
    assert_eq!(
        decoded.result, reference.result,
        "{}: results must agree",
        program.name
    );
}

#[test]
fn all_table1_benchmarks_agree_with_the_reference() {
    let session = Explorer::new();
    for bench in session.registry().iter() {
        let program = session.compile(bench.name).expect("compiles").program;
        assert_differential(&program, &bench.dataset());
    }
}

#[test]
fn rewritten_programs_agree_at_every_opt_level() {
    // the design stage's rewritten programs carry Chained
    // super-instructions — the engine's typed chain plans; check all
    // twelve benchmarks under the designs each feedback level selects
    let session = Explorer::new();
    for &level in &OptLevel::all() {
        for bench in session.registry().iter() {
            assert_differential(&rewritten(&session, bench.name, level), &bench.dataset());
        }
    }
}

/// `program` rewritten under the design `level`'s feedback selects.
fn rewritten(session: &Explorer, name: &str, level: OptLevel) -> Program {
    let constraints = DesignConstraints {
        opt_level: level,
        ..DesignConstraints::default()
    };
    let designed = session
        .design_with(name, constraints, session.detector())
        .expect("designs");
    let mut program = session
        .compile(name)
        .expect("cached")
        .program
        .as_ref()
        .clone();
    Rewriter::new(designed.design.as_ref().clone()).apply(&mut program);
    program
}

/// Assert the engine's and the reference's traced runs emit the same
/// event stream, whole (the ring holds every step), and the same
/// class mix. Returns the number of chained-instruction events.
fn assert_traces_agree(program: &Program, data: &DataSet, what: &str) -> usize {
    const ALL: usize = 1 << 17;
    let mut ref_trace = RingTrace::new(ALL);
    let reference = ReferenceSimulator::new(program)
        .run_traced(data, &mut ref_trace)
        .expect("reference runs");
    let engine = Engine::new(Arc::new(program.clone()));
    let mut eng_trace = RingTrace::new(ALL);
    let traced = engine
        .run_traced(data, &mut eng_trace)
        .expect("engine runs");

    assert_eq!(traced.profile, reference.profile, "{what}: profiles");
    assert_eq!(traced.memory, reference.memory, "{what}: memories");
    assert_eq!(
        eng_trace.len() as u64,
        traced.profile.total_ops(),
        "{what}: the ring must hold the whole stream"
    );
    assert_eq!(eng_trace.len(), ref_trace.len(), "{what}: event counts");
    for (a, b) in eng_trace.events().zip(ref_trace.events()) {
        assert_eq!(a, b, "{what}: trace events must match step by step");
    }

    // the class-mix sink (a second TraceSink impl) agrees too
    let mut ref_mix = ClassMix::for_program(program);
    ReferenceSimulator::new(program)
        .run_traced(data, &mut ref_mix)
        .expect("runs");
    let mut eng_mix = ClassMix::for_program(program);
    engine.run_traced(data, &mut eng_mix).expect("runs");
    assert_eq!(eng_mix.counts(), ref_mix.counts(), "{what}: class mixes");

    eng_trace
        .events()
        .filter(|e| e.inst.contains("chained"))
        .count()
}

#[test]
fn traced_event_streams_are_identical() {
    let session = Explorer::new();
    // one float-heavy, one int-heavy, one with non-trivial control
    // flow; plain and rewritten under each level's design
    for name in ["sewha", "edge", "flatten"] {
        let program = session.compile(name).expect("compiles").program;
        let data = session.benchmark(name).expect("registered").dataset();
        assert_eq!(assert_traces_agree(&program, &data, name), 0);
        for &level in &OptLevel::all() {
            let chains = assert_traces_agree(
                &rewritten(&session, name, level),
                &data,
                &format!("{name} rewritten at {level:?}"),
            );
            assert!(chains > 0, "{name} at {level:?}: no chain executed");
        }
    }
}

#[test]
fn traced_and_untraced_engine_runs_agree() {
    let session = Explorer::new();
    let program = session.compile("fir").expect("compiles").program;
    let data = session.benchmark("fir").expect("registered").dataset();
    let engine = Engine::new(Arc::clone(&program));
    let plain = engine.run(&data).expect("runs");
    let mut trace = RingTrace::new(8);
    let traced = engine.run_traced(&data, &mut trace).expect("runs");
    assert_eq!(plain.profile, traced.profile);
    assert_eq!(plain.memory, traced.memory);
    assert_eq!(plain.result, traced.result);
    assert!(!trace.is_empty());
}

#[test]
fn step_limit_errors_agree_with_the_reference_on_real_programs() {
    let session = Explorer::new();
    let program = session.compile("fir").expect("compiles").program;
    let data = session.benchmark("fir").expect("registered").dataset();
    let total = Engine::new(Arc::clone(&program))
        .run(&data)
        .expect("runs")
        .profile
        .total_ops();
    // probe around several interesting limits, including mid-run
    for limit in [0, 1, total / 2, total - 1, total, total + 1] {
        let reference = ReferenceSimulator::new(&program)
            .with_step_limit(limit)
            .run(&data);
        let engine = Engine::new(Arc::clone(&program))
            .with_step_limit(limit)
            .run(&data);
        match (reference, engine) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.profile, b.profile, "limit {limit}");
                assert_eq!(a.memory, b.memory, "limit {limit}");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "limit {limit}");
                assert!(matches!(a, SimError::StepLimit { .. }));
            }
            (a, b) => panic!("diverged at limit {limit}: {a:?} vs {b:?}"),
        }
    }
}

/// Assert the engine and the reference agree under a step limit:
/// untraced and traced, the same profile and memory or the same error.
fn assert_limit_parity(program: &Program, data: &DataSet, limit: u64, what: &str) {
    let reference = ReferenceSimulator::new(program)
        .with_step_limit(limit)
        .run(data);
    let engine = Engine::new(Arc::new(program.clone())).with_step_limit(limit);
    let mut sink = RingTrace::new(1);
    for (how, run) in [
        ("untraced", engine.run(data)),
        ("traced", engine.run_traced(data, &mut sink)),
    ] {
        match (&reference, run) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.profile, b.profile, "{what} {how}: limit {limit}");
                assert_eq!(a.memory, b.memory, "{what} {how}: limit {limit}");
            }
            (Err(a), Err(b)) => assert_eq!(*a, b, "{what} {how}: limit {limit}"),
            (a, b) => panic!("{what} {how}: diverged at limit {limit}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn step_limits_inside_chain_bearing_blocks_agree_with_the_reference() {
    // the limit lands on, just before and just after chained steps of a
    // rewritten program, so the careful near-limit loop runs chains
    let session = Explorer::new();
    for name in ["fir", "sewha"] {
        let program = rewritten(&session, name, OptLevel::PipelinedRenamed);
        let data = session.benchmark(name).expect("registered").dataset();
        let mut trace = RingTrace::new(1 << 17);
        Engine::new(Arc::new(program.clone()))
            .run_traced(&data, &mut trace)
            .expect("runs");
        let chain_steps: Vec<u64> = trace
            .events()
            .filter(|e| e.inst.contains("chained"))
            .map(|e| e.step)
            .collect();
        let (first, last) = (chain_steps[0], chain_steps[chain_steps.len() - 1]);
        for at in [first, first + 1, last, chain_steps[chain_steps.len() / 2]] {
            for limit in [at - 1, at, at + 1] {
                assert_limit_parity(&program, &data, limit, name);
            }
        }
    }
}

/// Straight-line chains over both banks, one per domain transition:
/// int-only, float-only, float ops into a float compare into int ops
/// (a 4-op chain), immediates of both types, and int chains indexing a
/// direct-layout and a byte-layout load.
fn hand_built_chains() -> (Program, DataSet) {
    use BinOp::*;
    let mut b = ProgramBuilder::new("chains");
    let x = b.input_array("x", Ty::Int, 4);
    let f = b.input_array("f", Ty::Float, 4);
    let w = b.array_with_layout("w", Ty::Int, 4, ArrayKind::Input, 64, 8);
    let y = b.output_array("y", Ty::Int, 6);
    let g = b.output_array("g", Ty::Float, 2);
    let e = b.entry_block();
    b.select_block(e);
    let int = |v| Operand::imm_int(v);
    let (x0, x1, x2) = (b.load(x, int(0)), b.load(x, int(1)), b.load(x, int(2)));
    let (f0, f1, f2) = (b.load(f, int(0)), b.load(f, int(1)), b.load(f, int(2)));
    let int_only = b.chained(0, &[Mul, Add], &[x0.into(), x1.into(), x2.into()]);
    let float_only = b.chained(1, &[FMul, FAdd], &[f0.into(), f1.into(), f2.into()]);
    let mixed = b.chained(
        2,
        &[FMul, FCmpLt, And, Or],
        &[f0.into(), f1.into(), f2.into(), int(1), x0.into()],
    );
    let float_imms = b.chained(
        3,
        &[FSub, FDiv],
        &[Operand::imm_float(1.5), f0.into(), Operand::imm_float(0.25)],
    );
    // an int-immediate chain indexing a direct load (decode fuses the
    // pair), then a byte address for the `at 64 step 8` array
    let idx = b.chained(4, &[Add, And], &[x0.into(), int(1), int(3)]);
    let direct = b.load(x, idx.into());
    let addr = b.chained(0, &[Mul, Add], &[idx.into(), int(8), int(64)]);
    let laid_out = b.load(w, addr.into());
    for (k, v) in [int_only, mixed, idx, direct, addr, laid_out]
        .into_iter()
        .enumerate()
    {
        b.store(y, int(k as i64), v.into());
    }
    b.store(g, int(0), float_only.into());
    b.store(g, int(1), float_imms.into());
    b.ret(Some(mixed.into()));
    let program = b.finish().expect("every chain is well typed");
    let mut data = DataSet::new();
    data.bind_ints("x", vec![6, -7, 40, 3]);
    data.bind_floats("f", vec![0.75, -2.5, 1.0, 9.0]);
    data.bind_ints("w", vec![11, 22, 33, 44]);
    (program, data)
}

#[test]
fn hand_built_chains_agree_with_the_reference() {
    let (program, data) = hand_built_chains();
    assert_differential(&program, &data);
    assert_eq!(assert_traces_agree(&program, &data, "chains"), 6);
    let total = Engine::new(Arc::new(program.clone()))
        .run(&data)
        .expect("runs")
        .profile
        .total_ops();
    // every limit, so each chain and each fused chain + load boundary
    // is crossed once
    for limit in 0..=total + 1 {
        assert_limit_parity(&program, &data, limit, "chains");
    }
}

#[test]
fn rewritten_corpus_programs_validate_at_every_level() {
    // the rewriter's chains are type-checked like the binary ops they
    // fuse, on every corpus program (12 Table-1 + 24 generated)
    let session = Explorer::new().with_registry(asip_explorer::benchmarks::full_registry());
    for bench in asip_explorer::benchmarks::full_registry().iter() {
        for &level in &OptLevel::all() {
            let program = rewritten(&session, bench.name, level);
            assert_eq!(
                program.validate(),
                Ok(()),
                "{} rewritten at {level:?}",
                bench.name
            );
        }
    }
}

#[test]
fn pooled_engine_reuse_is_byte_identical_to_fresh_engines_on_the_full_corpus() {
    // every corpus benchmark (12 Table-1 + 24 generated), one engine
    // running interleaved dataset seeds through its pooled run states:
    // each run must reproduce a fresh engine's run byte for byte —
    // profiles, memories, results
    for bench in asip_explorer::benchmarks::full_registry().iter() {
        let program = Arc::new(bench.compile().expect("compiles"));
        let engine = Engine::new(Arc::clone(&program));
        for seed in [1, 2, 1, 3, 2] {
            let data = bench.dataset_with_seed(seed);
            let pooled = engine.run(&data).expect("pooled run");
            let fresh = Engine::new(Arc::clone(&program))
                .run(&data)
                .expect("fresh run");
            assert_eq!(pooled.profile, fresh.profile, "{}: profiles", bench.name);
            assert_eq!(pooled.memory, fresh.memory, "{}: memories", bench.name);
            assert_eq!(pooled.result, fresh.result, "{}: results", bench.name);
        }
        assert_eq!(engine.run_state_stats().creates, 1, "{}", bench.name);
    }
}

/// FNV-1a 64 over each cell's little-endian bit pattern: the documented
/// `Profile::memory_digests` algorithm, restated independently.
fn expected_digest(cells: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in cells {
        let bits = match *cell {
            Value::Int(i) => i as u64,
            Value::Float(f) => f.to_bits(),
        };
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn output_digests_agree_with_the_reference_on_the_full_corpus() {
    // the profile-only pooled run digests its outputs straight from the
    // arenas; on every corpus benchmark (12 Table-1 + 24 generated) the
    // digests must equal the reference's and those of the reference's
    // final memory, one per declared array
    for bench in asip_explorer::benchmarks::full_registry().iter() {
        let program = bench.compile().expect("compiles");
        let data = bench.dataset();
        let reference = ReferenceSimulator::new(&program)
            .run(&data)
            .expect("reference runs");
        let engine = Engine::new(Arc::new(program));
        let pooled = engine
            .run_pooled(&engine.bind(&data).expect("binds"))
            .expect("engine runs");
        let want: Vec<u64> = reference
            .memory
            .iter()
            .map(|a| expected_digest(a))
            .collect();
        assert_eq!(want.len(), engine.program().arrays.len(), "{}", bench.name);
        assert_eq!(reference.profile.memory_digests(), want, "{}", bench.name);
        assert_eq!(pooled.profile.memory_digests(), want, "{}", bench.name);
    }
}

#[test]
fn session_engines_decode_once_and_reset_drops_them() {
    let session = Explorer::new().with_levels([OptLevel::Pipelined]);
    let first = session.engine("sewha").expect("engine");
    let second = session.engine("sewha").expect("engine");
    assert!(
        Arc::ptr_eq(&first, &second),
        "repeated requests share one decoded engine"
    );
    // the engine wraps the same compiled program the session caches
    let compiled = session.compile("sewha").expect("cached").program;
    assert!(Arc::ptr_eq(first.program(), &compiled));
    // profile rides on it (no extra compile misses); evaluate reads the
    // profile instead of re-running it
    session.profile("sewha").expect("profiles");
    session.evaluate("sewha").expect("evaluates");
    assert_eq!(session.cache_stats().compile.misses, 1);
    session.reset();
    let fresh = session.engine("sewha").expect("engine");
    assert!(
        !Arc::ptr_eq(&first, &fresh),
        "reset drops cached engines with the rest of the ephemeral state"
    );
}
