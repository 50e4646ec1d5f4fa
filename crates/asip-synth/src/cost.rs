//! Functional-unit area/delay estimates and the chained-unit model.
//!
//! Numbers follow the flavor of the high-level-synthesis literature the
//! paper cites (Gajski, Dutt, Wu, Lin — *High-Level Synthesis*, 1992):
//! a ripple-carry-class adder is the area unit of account, multipliers
//! are an order of magnitude larger, and float units larger still.
//! Absolute values only need to be *relatively* sensible: the designer
//! optimizes benefit per area, and the ablation benches vary the budget.

use crate::extension::IsaExtension;
use asip_ir::OpClass;

/// Area estimate of a functional unit for one op class, in
/// equivalent-gate units.
pub fn fu_area(class: OpClass) -> f64 {
    use OpClass::*;
    match class {
        Add | Sub => 120.0,
        Mul => 1100.0,
        Div => 2400.0,
        Shift => 90.0,
        Logic => 40.0,
        Compare => 80.0,
        Load | Store => 200.0, // address port + alignment network
        FAdd | FSub => 450.0,
        FMul => 1600.0,
        FDiv => 3200.0,
        FLoad | FStore => 220.0,
        Move => 20.0,
        Convert => 150.0,
        Math => 4000.0, // a CORDIC/poly evaluator, if anyone asked
        Branch => 60.0,
        Chained => 0.0, // never a component of another chain
    }
}

/// Propagation delay of a functional unit, in nanoseconds (mid-90s
/// standard-cell flavor).
pub fn fu_delay_ns(class: OpClass) -> f64 {
    use OpClass::*;
    match class {
        Add | Sub => 4.0,
        Mul => 12.0,
        Div => 30.0,
        Shift => 2.0,
        Logic => 1.0,
        Compare => 3.0,
        Load | Store => 8.0,
        FAdd | FSub => 14.0,
        FMul => 20.0,
        FDiv => 40.0,
        FLoad | FStore => 8.0,
        Move => 0.5,
        Convert => 6.0,
        Math => 60.0,
        Branch => 2.0,
        Chained => 0.0,
    }
}

/// Datapath estimate for one chained instruction: the member functional
/// units wired output-to-input, with no register-file round trips.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainedUnit {
    /// The fused op classes, head first.
    pub classes: Vec<OpClass>,
}

impl ChainedUnit {
    /// A chained unit for a signature's classes.
    pub fn new(classes: Vec<OpClass>) -> Self {
        ChainedUnit { classes }
    }

    /// Total area: dedicated member units plus forwarding wiring
    /// (estimated at 5% of member area per internal hop).
    pub fn area(&self) -> f64 {
        let members: f64 = self.classes.iter().map(|&c| fu_area(c)).sum();
        let hops = self.classes.len().saturating_sub(1) as f64;
        members * (1.0 + 0.05 * hops)
    }

    /// Combinational delay: member delays in series.
    pub fn delay_ns(&self) -> f64 {
        self.classes.iter().map(|&c| fu_delay_ns(c)).sum()
    }

    /// Whether the chain closes timing in a single cycle of the given
    /// clock period.
    pub fn fits_clock(&self, clock_ns: f64) -> bool {
        self.delay_ns() <= clock_ns
    }
}

impl From<&IsaExtension> for ChainedUnit {
    fn from(ext: &IsaExtension) -> Self {
        ChainedUnit::new(ext.signature.classes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_dwarfs_adder() {
        assert!(fu_area(OpClass::Mul) > 5.0 * fu_area(OpClass::Add));
        assert!(fu_area(OpClass::FMul) > fu_area(OpClass::Mul));
        assert!(fu_delay_ns(OpClass::Div) > fu_delay_ns(OpClass::Add));
    }

    #[test]
    fn chained_unit_area_includes_forwarding() {
        let mac = ChainedUnit::new(vec![OpClass::Mul, OpClass::Add]);
        let members = fu_area(OpClass::Mul) + fu_area(OpClass::Add);
        assert!(mac.area() > members);
        assert!(mac.area() < members * 1.2);
    }

    #[test]
    fn delay_accumulates_along_chain() {
        let mac = ChainedUnit::new(vec![OpClass::Mul, OpClass::Add]);
        assert!((mac.delay_ns() - 16.0).abs() < 1e-9);
        assert!(mac.fits_clock(20.0));
        assert!(!mac.fits_clock(10.0));
        let long = ChainedUnit::new(vec![OpClass::Mul; 5]);
        assert!(long.delay_ns() > mac.delay_ns());
    }

    #[test]
    fn every_class_has_costs() {
        for &c in OpClass::all() {
            assert!(fu_area(c) >= 0.0);
            assert!(fu_delay_ns(c) >= 0.0);
        }
    }
}
