//! The closed design loop of the paper's **Figure 1**, which the paper
//! describes but does not evaluate: compiler feedback chooses chained
//! ISA extensions, the code is rewritten to use them, and the ASIP's
//! cycle count is measured against the base processor.
//!
//! All scenarios run as cached session stages: per-benchmark designs
//! through `evaluate`, the paper's real deployment — one shared ASIP
//! tuned to the whole suite — through `evaluate_suite`, and an
//! area-budget sweep through the `design_space` stage's incremental
//! pareto-frontier search. Every design selects from the same cached
//! schedule the analyze stage reports, so the printed cache counters
//! show zero extra optimizer runs for the design work — sweep
//! included.
//!
//! `cargo run --release -p asip-bench --bin design_loop`

use asip_explorer::{geomean, Explorer};
use asip_synth::DesignConstraints;

fn print_geomean(label: &str, geo: Option<f64>) {
    match geo {
        Some(g) => println!("geometric-mean speedup ({label}): {g:.3}x"),
        None => println!("geometric-mean speedup ({label}): n/a (no benchmarks)"),
    }
}

fn main() {
    let constraints = DesignConstraints::default();
    let session = asip_bench::with_shared_store(Explorer::new().with_constraints(constraints));
    println!(
        "Design loop: area budget {:.0}, clock {:.0} ns, max {} extensions, feedback level: {}",
        constraints.area_budget,
        constraints.clock_ns,
        constraints.max_extensions,
        constraints.opt_level
    );
    println!();
    println!(
        "{:10} {:>9} {:>11} {:>11} {:>9} {:>7}  extensions",
        "benchmark", "area", "base cyc", "asip cyc", "speedup", "chains"
    );
    println!("{:-^100}", "");

    // per-benchmark designs: the design and evaluate stages fan out in
    // parallel over the session thread pool
    let rows = session
        .map_all(|b| session.evaluate(b.name))
        .expect("built-ins evaluate cleanly");
    let mut speedups = Vec::new();
    for evaluated in rows {
        let eval = &evaluated.evaluation;
        let exts: Vec<String> = evaluated
            .design
            .extensions
            .iter()
            .map(|e| e.signature.to_string())
            .collect();
        println!(
            "{:10} {:>9.0} {:>11} {:>11} {:>8.3}x {:>7}  {}",
            evaluated.benchmark.name,
            evaluated.design.extension_area,
            eval.base_cycles,
            eval.asip_cycles,
            eval.speedup,
            eval.fused_chains,
            exts.join(", ")
        );
        speedups.push(eval.speedup);
    }
    println!("{:-^100}", "");
    print_geomean("per-benchmark designs", geomean(speedups));

    // the paper's real scenario: ONE ASIP tuned to the whole suite,
    // now a first-class cached session stage
    println!();
    println!("one shared ASIP for the whole suite:");
    let suite = session
        .evaluate_suite()
        .expect("built-ins evaluate as a suite");
    print!(
        "{}",
        asip_synth::DesignReport::new(&suite.design, constraints.clock_ns)
    );
    for (name, eval) in suite.evaluations.iter() {
        println!(
            "  {:10} {:>8.3}x ({} chains fused)",
            name, eval.speedup, eval.fused_chains
        );
    }
    print_geomean("shared design", suite.geomean_speedup());

    // the design-space question behind the paper's single design point:
    // how does the shared-suite frontier move with the area budget? One
    // cached sweep answers it — and because the sweep reuses the exact
    // schedules the stages above already computed, it adds zero
    // optimizer runs beyond the distinct (benchmark, level) pairs.
    println!();
    println!("design-space sweep (suite frontier vs area budget):");
    let schedule_runs = session.cache_stats().schedule.misses;
    let grid: Vec<DesignConstraints> = [1500.0, 3000.0, 6000.0, 12000.0]
        .iter()
        .map(|&area_budget| DesignConstraints {
            area_budget,
            ..constraints
        })
        .collect();
    let spaced = session.design_space(&grid).expect("built-ins sweep");
    for point in spaced
        .space
        .frontier_at(constraints.opt_level, constraints.clock_ns)
    {
        println!(
            "  frontier: area {:>8.0}, {} extensions, benefit {:6.2}%",
            point.area, point.extensions, point.benefit
        );
    }
    for (cons, design) in &spaced.space.configs {
        println!(
            "  budget {:>6.0}: {} extensions selected, area {:>8.0}",
            cons.area_budget,
            design.len(),
            design.extension_area
        );
    }
    assert_eq!(
        session.cache_stats().schedule.misses,
        schedule_runs,
        "the sweep adds no optimizer runs beyond the distinct (benchmark, level) pairs"
    );

    // robustness re-measurement over fresh input seeds on the cached
    // pooled engines: the shared design's speedups hold beyond the seed
    // it was tuned on
    println!();
    println!("seed robustness (pooled re-measurement, 4 fresh seeds):");
    for name in suite.benchmarks.iter() {
        let bench = session.benchmark(name).expect("registered");
        let base = session.engine(name).expect("cached engine");
        let asip = session
            .prepared(name, &suite.design)
            .expect("cached rewritten engine");
        let speedups: Vec<f64> = (1..=4u64)
            .map(|seed| {
                let data = bench.dataset_with_seed(seed);
                let b = base.run(&data).expect("base runs");
                let a = asip.engine().run(&data).expect("asip runs");
                b.profile.total_ops() as f64 / a.profile.total_ops().max(1) as f64
            })
            .collect();
        println!(
            "  {:10} {:>8.3}x geomean over {} seeds",
            name,
            geomean(speedups.clone()).unwrap_or(1.0),
            speedups.len()
        );
        assert!(
            speedups.iter().all(|s| *s >= 1.0),
            "{name}: the shared design must never slow a member down"
        );
    }
    println!();
    asip_bench::print_cache_report(&session);
}
