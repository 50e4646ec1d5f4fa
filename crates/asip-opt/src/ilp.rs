//! Instruction-level-parallelism characterization.
//!
//! The paper's closing section names this as the next feedback channel:
//! *"we are interested in providing feedback on the use of
//! multiple-issue instruction-set architectures by characterizing the
//! instruction level parallelism of an application suite using compiler
//! optimizations."* This module implements that study: schedule each
//! benchmark at a sweep of issue widths and report the achieved
//! parallelism, the speedup over single-issue, and the knee where wider
//! issue stops paying — the designer's answer to "how many slots should
//! this ASIP issue per cycle?".

use crate::graph::ScheduleGraph;
use crate::optimizer::{OptConfig, OptLevel, Optimizer};
use asip_ir::Program;
use asip_sim::Profile;

/// ILP measurements for one issue width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpPoint {
    /// Issue width scheduled for.
    pub width: usize,
    /// Weighted dynamic schedule length (cycles).
    pub cycles: f64,
    /// Dynamic operations per cycle actually achieved.
    pub ops_per_cycle: f64,
    /// Speedup over the width-1 schedule.
    pub speedup_vs_scalar: f64,
}

/// An ILP characterization: one point per issue width.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpReport {
    /// Program name.
    pub name: String,
    /// Optimization level the schedule used.
    pub level: OptLevel,
    /// Measurements, in increasing width order.
    pub points: Vec<IlpPoint>,
}

impl IlpReport {
    /// The smallest width achieving at least `fraction` (e.g. `0.95`)
    /// of the widest configuration's speedup — the issue width a
    /// designer should build.
    ///
    /// # Panics
    ///
    /// Panics if the report has no points.
    pub fn recommended_width(&self, fraction: f64) -> usize {
        let best = self
            .points
            .iter()
            .map(|p| p.speedup_vs_scalar)
            .fold(0.0_f64, f64::max);
        self.points
            .iter()
            .find(|p| p.speedup_vs_scalar >= fraction * best)
            .map(|p| p.width)
            .expect("reports always have points")
    }

    /// The peak ops-per-cycle across the sweep.
    pub fn peak_ilp(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.ops_per_cycle)
            .fold(0.0_f64, f64::max)
    }
}

/// Total dynamic op weight scheduled in a graph.
fn total_weight(graph: &ScheduleGraph) -> f64 {
    graph.ops().map(|(_, o)| o.weight).sum()
}

/// Characterize a profiled program's ILP at the given optimization
/// level over a sweep of issue widths.
pub fn characterize(
    program: &Program,
    profile: &Profile,
    level: OptLevel,
    widths: &[usize],
) -> IlpReport {
    assert!(!widths.is_empty(), "need at least one width");
    let mut points = Vec::with_capacity(widths.len());
    let scalar_cycles = {
        let g = Optimizer::new(level)
            .with_config(OptConfig {
                width: 1,
                ..OptConfig::default()
            })
            .run(program, profile);
        g.weighted_cycles()
    };
    for &width in widths {
        let g = Optimizer::new(level)
            .with_config(OptConfig {
                width,
                ..OptConfig::default()
            })
            .run(program, profile);
        let cycles = g.weighted_cycles();
        points.push(IlpPoint {
            width,
            cycles,
            ops_per_cycle: total_weight(&g) / cycles.max(1.0),
            speedup_vs_scalar: scalar_cycles / cycles.max(1.0),
        });
    }
    IlpReport {
        name: program.name.clone(),
        level,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_sim::{DataSet, Simulator};

    fn mac_loop() -> (Program, Profile) {
        let program = asip_frontend::compile(
            "ilp",
            r#"
            input int x[64]; input int c[8]; output int y[64];
            void main() {
                int i; int j; int acc;
                for (i = 0; i < 64; i = i + 1) {
                    acc = 0;
                    for (j = 0; j < 8; j = j + 1) {
                        acc = acc + c[j] * x[(i + j) % 64];
                    }
                    y[i] = acc;
                }
            }
            "#,
        )
        .expect("compiles");
        let mut data = DataSet::new();
        data.bind_ints("x", (0..64).collect());
        data.bind_ints("c", (1..=8).collect());
        let profile = Simulator::new(&program).run(&data).expect("runs").profile;
        (program, profile)
    }

    #[test]
    fn wider_issue_never_slower() {
        let (p, profile) = mac_loop();
        let report = characterize(&p, &profile, OptLevel::Pipelined, &[1, 2, 4, 8]);
        assert_eq!(report.points.len(), 4);
        for w in report.points.windows(2) {
            assert!(
                w[1].cycles <= w[0].cycles + 1e-9,
                "width {} slower than width {}",
                w[1].width,
                w[0].width
            );
        }
        // width 1 is the scalar baseline
        assert!((report.points[0].speedup_vs_scalar - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ilp_exceeds_one_for_parallel_kernels() {
        let (p, profile) = mac_loop();
        let report = characterize(&p, &profile, OptLevel::Pipelined, &[4]);
        assert!(
            report.points[0].ops_per_cycle > 1.3,
            "a MAC kernel has real ILP, got {:.2}",
            report.points[0].ops_per_cycle
        );
        assert!(report.peak_ilp() >= report.points[0].ops_per_cycle);
    }

    #[test]
    fn recommended_width_finds_the_knee() {
        let (p, profile) = mac_loop();
        let report = characterize(&p, &profile, OptLevel::Pipelined, &[1, 2, 4, 8, 16]);
        let rec = report.recommended_width(0.95);
        assert!(rec >= 2, "parallel kernel should want multi-issue");
        assert!(rec <= 8, "ILP saturates well before width 16");
    }

    #[test]
    fn optimization_raises_ilp() {
        let (p, profile) = mac_loop();
        let r0 = characterize(&p, &profile, OptLevel::None, &[4]);
        let r1 = characterize(&p, &profile, OptLevel::Pipelined, &[4]);
        // level 0 graphs are sequential regardless of width
        assert!((r0.points[0].ops_per_cycle - 1.0).abs() < 1e-9);
        assert!(r1.points[0].ops_per_cycle > r0.points[0].ops_per_cycle);
    }

    #[test]
    #[should_panic(expected = "at least one width")]
    fn empty_width_sweep_panics() {
        let (p, profile) = mac_loop();
        let _ = characterize(&p, &profile, OptLevel::Pipelined, &[]);
    }
}
