//! Before/after evaluation of a design on the profiling simulator.

use crate::extension::AsipDesign;
use crate::rewrite::{RewriteStats, Rewriter};
use asip_ir::Program;
use asip_sim::{DataSet, Engine, SimError};
use std::fmt;
use std::sync::Arc;

/// Measured effect of applying a design to one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Dynamic operations of the baseline run (single-issue: cycles).
    pub base_cycles: u64,
    /// Dynamic operations after rewriting (chained ops count one cycle).
    pub asip_cycles: u64,
    /// `base_cycles / asip_cycles`.
    pub speedup: f64,
    /// Static chains fused.
    pub fused_chains: usize,
    /// Extension area spent.
    pub extension_area: f64,
}

/// A design applied to a program and decoded, once: the rewritten
/// program's [`Engine`] plus the static rewrite stats, ready to be
/// measured against any number of datasets or baseline engines.
///
/// Rewriting and decoding a candidate design is the expensive half of
/// an evaluation; design sweeps re-measure the same `(program,
/// design)` pair across datasets and constraint grids, so sessions
/// cache `PreparedDesign`s keyed by design (see the session's
/// rewritten-engine cache) instead of re-deriving one per candidate.
#[derive(Debug)]
pub struct PreparedDesign {
    engine: Engine,
    stats: RewriteStats,
    area: f64,
}

impl PreparedDesign {
    /// The decoded engine for the rewritten program.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Static chains the rewriter fused.
    pub fn fused_chains(&self) -> usize {
        self.stats.fused_chains
    }

    /// Extension area of the design this was prepared from.
    pub fn extension_area(&self) -> f64 {
        self.area
    }
}

/// Rewrite a copy of `program` with `design` and decode the result
/// into a reusable [`PreparedDesign`].
///
/// # Panics
///
/// As [`Engine::new`]: panics if the rewriter produced a structurally
/// invalid program (a rewriter bug, not an input error).
pub fn prepare(program: &Program, design: &AsipDesign) -> PreparedDesign {
    let mut rewritten = program.clone();
    let stats: RewriteStats = Rewriter::new(design.clone()).apply(&mut rewritten);
    PreparedDesign {
        engine: Engine::new(Arc::new(rewritten)),
        stats,
        area: design.extension_area,
    }
}

/// Why a design evaluation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The baseline or the rewritten run failed in the simulator.
    Sim(SimError),
    /// The rewritten program computed different outputs than the
    /// baseline — a semantics bug in the rewriter, not an input error.
    OutputMismatch {
        /// The first array (in declaration order) whose contents differ.
        array: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Sim(e) => e.fmt(f),
            EvalError::OutputMismatch { array } => write!(
                f,
                "rewritten program computed different contents for `{array}`"
            ),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Sim(e) => Some(e),
            EvalError::OutputMismatch { .. } => None,
        }
    }
}

impl From<SimError> for EvalError {
    fn from(e: SimError) -> Self {
        EvalError::Sim(e)
    }
}

/// Measure a prepared design against the baseline engine on `data`:
/// both runs go through the pooled engines, and the outputs of the two
/// runs are compared, so a rewriter bug can never masquerade as a
/// speedup.
///
/// # Errors
///
/// [`EvalError::Sim`] if either run fails, and
/// [`EvalError::OutputMismatch`] if the rewritten program computes
/// different outputs.
pub fn evaluate_prepared(
    base_engine: &Engine,
    prepared: &PreparedDesign,
    data: &DataSet,
) -> Result<Evaluation, EvalError> {
    let base = base_engine.run(data)?;
    let after = prepared.engine.run(data)?;
    if base.memory != after.memory {
        let first = base
            .memory
            .iter()
            .zip(&after.memory)
            .take_while(|(b, a)| b == a)
            .count();
        let decl = base_engine.program().arrays.get(first);
        return Err(EvalError::OutputMismatch {
            array: decl.map_or_else(|| format!("#{first}"), |d| d.name.clone()),
        });
    }
    let base_cycles = base.profile.total_ops();
    let asip_cycles = after.profile.total_ops();
    Ok(Evaluation {
        base_cycles,
        asip_cycles,
        speedup: base_cycles as f64 / asip_cycles.max(1) as f64,
        fused_chains: prepared.stats.fused_chains,
        extension_area: prepared.area,
    })
}

/// Rewrite a copy of `program` with `design` and measure both versions
/// on `data` (one-shot convenience over [`prepare`] +
/// [`evaluate_prepared`]).
///
/// # Errors
///
/// As [`evaluate_prepared`].
pub fn evaluate(
    program: &Program,
    design: &AsipDesign,
    data: &DataSet,
) -> Result<Evaluation, EvalError> {
    let base = Engine::new(Arc::new(program.clone()));
    evaluate_prepared(&base, &prepare(program, design), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{AsipDesigner, DesignConstraints};

    #[test]
    fn design_loop_speeds_up_sewha() {
        let benches = asip_benchmarks::registry();
        let b = benches.find("sewha").expect("built-in");
        let program = b.compile().expect("compiles");
        let profile = b.profile(&program).expect("runs");
        let design = AsipDesigner::new(DesignConstraints::default()).design_for(&program, &profile);
        assert!(!design.is_empty(), "feedback should propose extensions");
        let eval = evaluate(&program, &design, &b.dataset()).expect("evaluates");
        assert!(eval.fused_chains > 0, "extensions should fire in the code");
        assert!(
            eval.speedup > 1.0,
            "chaining must reduce cycle count, got {:.3}",
            eval.speedup
        );
        assert!(eval.asip_cycles < eval.base_cycles);
    }

    #[test]
    fn output_mismatch_is_a_typed_error() {
        // a "rewrite" that changes semantics: the prepared design runs
        // `y[0] = x[0] + 2` against a baseline computing `x[0] + 1`
        fn add_program(k: i64) -> Program {
            use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
            let mut b = ProgramBuilder::new("add");
            let x = b.input_array("x", Ty::Int, 1);
            let y = b.output_array("y", Ty::Int, 1);
            let entry = b.entry_block();
            b.select_block(entry);
            let v = b.load(x, Operand::imm_int(0));
            let w = b.binary(BinOp::Add, v.into(), Operand::imm_int(k));
            b.store(y, Operand::imm_int(0), w.into());
            b.ret(None);
            b.finish().expect("valid")
        }
        let base = Engine::new(Arc::new(add_program(1)));
        let wrong = prepare(&add_program(2), &AsipDesign::default());
        let mut data = DataSet::new();
        data.bind_ints("x", vec![5]);
        assert_eq!(
            evaluate_prepared(&base, &wrong, &data),
            Err(EvalError::OutputMismatch { array: "y".into() })
        );
    }

    #[test]
    fn empty_design_is_identity() {
        let benches = asip_benchmarks::registry();
        let b = benches.find("bspline").expect("built-in");
        let program = b.compile().expect("compiles");
        let eval = evaluate(&program, &AsipDesign::default(), &b.dataset()).expect("evaluates");
        assert_eq!(eval.base_cycles, eval.asip_cycles);
        assert_eq!(eval.speedup, 1.0);
        assert_eq!(eval.fused_chains, 0);
    }

    #[test]
    fn suite_design_serves_multiple_benchmarks() {
        // one ASIP for several applications: the suite-combined design
        // must speed up (or leave unchanged) every member, with a real
        // win on at least one
        let benches = asip_benchmarks::registry();
        let suite = ["sewha", "bspline", "flatten"];
        let compiled: Vec<_> = suite
            .iter()
            .map(|n| {
                let b = *benches.find(n).expect("built-in");
                let program = b.compile().expect("compiles");
                let profile = b.profile(&program).expect("runs");
                (b, program, profile)
            })
            .collect();
        let refs: Vec<(&asip_ir::Program, &asip_sim::Profile)> =
            compiled.iter().map(|(_, p, pr)| (p, pr)).collect();
        let design = AsipDesigner::new(DesignConstraints::default()).design_for_suite(&refs);
        assert!(!design.is_empty());
        let mut best = 1.0_f64;
        for (b, program, _) in &compiled {
            let eval = evaluate(program, &design, &b.dataset()).expect("evaluates");
            assert!(eval.speedup >= 1.0, "{}: slowdown", b.name);
            best = best.max(eval.speedup);
        }
        assert!(best > 1.1, "the shared design should really help someone");
    }

    #[test]
    fn bigger_budget_never_slower() {
        let benches = asip_benchmarks::registry();
        let b = benches.find("feowf").expect("built-in");
        let program = b.compile().expect("compiles");
        let profile = b.profile(&program).expect("runs");
        let small = AsipDesigner::new(DesignConstraints {
            area_budget: 400.0,
            ..DesignConstraints::default()
        })
        .design_for(&program, &profile);
        let large = AsipDesigner::new(DesignConstraints {
            area_budget: 20_000.0,
            max_extensions: 8,
            ..DesignConstraints::default()
        })
        .design_for(&program, &profile);
        let es = evaluate(&program, &small, &b.dataset()).expect("evaluates");
        let el = evaluate(&program, &large, &b.dataset()).expect("evaluates");
        assert!(el.speedup >= es.speedup);
        assert!(large.extension_area >= small.extension_area);
    }
}
