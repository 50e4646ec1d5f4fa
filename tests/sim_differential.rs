//! Differential tests for the pre-decoded simulator engine: for every
//! Table-1 benchmark (and for the design-rewritten variants carrying
//! chained super-instructions), the engine must produce *byte-identical*
//! profiles, memories, results and trace streams to the retained
//! reference interpreter (`asip_sim::reference`).

use asip_explorer::sim::{ClassMix, Engine, ReferenceSimulator, RingTrace, SimError};
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
    // super-instructions — the engine's generic-domain path; check all
    // twelve benchmarks under the designs each feedback level selects
    let session = Explorer::new();
    for &level in &OptLevel::all() {
        let constraints = DesignConstraints {
            opt_level: level,
            ..DesignConstraints::default()
        };
        for bench in session.registry().iter() {
            let designed = session
                .design_with(bench.name, constraints, session.detector())
                .expect("designs");
            let mut rewritten = session
                .compile(bench.name)
                .expect("cached")
                .program
                .as_ref()
                .clone();
            Rewriter::new(designed.design.as_ref().clone()).apply(&mut rewritten);
            assert_differential(&rewritten, &bench.dataset());
        }
    }
}

#[test]
fn traced_event_streams_are_identical() {
    let session = Explorer::new();
    // one float-heavy, one int-heavy, one with non-trivial control flow
    for name in ["sewha", "edge", "flatten"] {
        let program = session.compile(name).expect("compiles").program;
        let bench = session.benchmark(name).expect("registered");
        let data = bench.dataset();

        let mut ref_trace = RingTrace::new(4096);
        let reference = ReferenceSimulator::new(&program)
            .run_traced(&data, &mut ref_trace)
            .expect("reference runs");
        let engine = Engine::new(Arc::clone(&program));
        let mut eng_trace = RingTrace::new(4096);
        let traced = engine
            .run_traced(&data, &mut eng_trace)
            .expect("engine runs");

        assert_eq!(traced.profile, reference.profile);
        assert_eq!(eng_trace.len(), ref_trace.len(), "{name}: event counts");
        for (a, b) in eng_trace.events().zip(ref_trace.events()) {
            assert_eq!(a, b, "{name}: trace events must match step by step");
        }

        // the class-mix sink (a second TraceSink impl) agrees too
        let mut ref_mix = ClassMix::for_program(&program);
        ReferenceSimulator::new(&program)
            .run_traced(&data, &mut ref_mix)
            .expect("runs");
        let mut eng_mix = ClassMix::for_program(&program);
        engine.run_traced(&data, &mut eng_mix).expect("runs");
        assert_eq!(eng_mix.counts(), ref_mix.counts(), "{name}: class mixes");
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
    // profile and evaluate ride on it (no extra compile misses)
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
