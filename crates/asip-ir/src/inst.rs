//! Instructions.

use crate::op::{BinOp, OpClass, UnOp};
use crate::types::{ArrayId, BlockId, InstId, Operand, Reg};
use smallvec_shim::SmallOperands;

/// A single three-address instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Stable identity (see [`InstId`] for profile-attribution semantics).
    pub id: InstId,
    /// The operation payload.
    pub kind: InstKind,
}

/// The operation payload of an [`Inst`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// `dst = op lhs, rhs`
    Binary {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = op src`
    Unary {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = array[index]`
    Load {
        /// Destination register.
        dst: Reg,
        /// Array being read.
        array: ArrayId,
        /// Element index.
        index: Operand,
    },
    /// `array[index] = value`
    Store {
        /// Array being written.
        array: ArrayId,
        /// Element index.
        index: Operand,
        /// Value stored.
        value: Operand,
    },
    /// Conditional branch on a non-zero condition.
    Branch {
        /// Condition operand (non-zero = taken).
        cond: Operand,
        /// Target when the condition is non-zero.
        then_target: BlockId,
        /// Target when the condition is zero.
        else_target: BlockId,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: BlockId,
    },
    /// Return from the program.
    Ret {
        /// Optional returned value.
        value: Option<Operand>,
    },
    /// A chained super-instruction synthesized by the ASIP design stage:
    /// several primitive ops fused into one issue slot, data forwarded
    /// internally (no register-file round trips).
    ///
    /// Evaluation contract (shared with the simulator and the rewriter):
    /// `acc = ops[0](inputs[0], inputs[1])`, then
    /// `acc = ops[i](acc, inputs[i + 1])` for each subsequent op.
    Chained {
        /// Index of the ISA extension this instance uses.
        ext: u32,
        /// Destination of the final op in the chain.
        dst: Reg,
        /// External inputs consumed by the chain, in chain order
        /// (`ops.len() + 1` of them).
        inputs: SmallOperands,
        /// The exact fused operations, head first (e.g. `[Mul, Add]`
        /// for a MAC).
        ops: Vec<BinOp>,
    },
}

/// Minimal inline-vector stand-in so `Inst` stays cheap to clone without
/// pulling in an external small-vector crate.
pub mod smallvec_shim {
    use super::Operand;
    /// Operand list for chained instructions.
    pub type SmallOperands = Vec<Operand>;
}

impl Inst {
    /// Create an instruction with the given id and payload.
    pub fn new(id: InstId, kind: InstKind) -> Self {
        Inst { id, kind }
    }

    /// The register this instruction defines, if any.
    pub fn dst(&self) -> Option<Reg> {
        match &self.kind {
            InstKind::Binary { dst, .. }
            | InstKind::Unary { dst, .. }
            | InstKind::Load { dst, .. }
            | InstKind::Chained { dst, .. } => Some(*dst),
            InstKind::Store { .. }
            | InstKind::Branch { .. }
            | InstKind::Jump { .. }
            | InstKind::Ret { .. } => None,
        }
    }

    /// Replace the destination register (used by register renaming).
    ///
    /// No-op for instructions without a destination.
    pub fn set_dst(&mut self, new: Reg) {
        match &mut self.kind {
            InstKind::Binary { dst, .. }
            | InstKind::Unary { dst, .. }
            | InstKind::Load { dst, .. }
            | InstKind::Chained { dst, .. } => *dst = new,
            _ => {}
        }
    }

    /// All operands read by this instruction, in operand order (`lhs`
    /// before `rhs`, `index` before `value`, chained inputs in chain
    /// order). Allocates nothing.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let (fixed, inputs): ([Option<Operand>; 2], &[Operand]) = match &self.kind {
            InstKind::Binary { lhs, rhs, .. } => ([Some(*lhs), Some(*rhs)], &[]),
            InstKind::Unary { src, .. } => ([Some(*src), None], &[]),
            InstKind::Load { index, .. } => ([Some(*index), None], &[]),
            InstKind::Store { index, value, .. } => ([Some(*index), Some(*value)], &[]),
            InstKind::Branch { cond, .. } => ([Some(*cond), None], &[]),
            InstKind::Jump { .. } => ([None, None], &[]),
            InstKind::Ret { value } => ([*value, None], &[]),
            InstKind::Chained { inputs, .. } => ([None, None], inputs),
        };
        fixed.into_iter().flatten().chain(inputs.iter().copied())
    }

    /// All registers read by this instruction, in operand order (a
    /// register read twice appears twice). Allocates nothing.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        self.operands().filter_map(|o| o.reg())
    }

    /// Rewrite every register operand via `f` (used by renaming/rewriting).
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        let mut map = |o: &mut Operand| {
            if let Operand::Reg(r) = o {
                *r = f(*r);
            }
        };
        match &mut self.kind {
            InstKind::Binary { lhs, rhs, .. } => {
                map(lhs);
                map(rhs);
            }
            InstKind::Unary { src, .. } => map(src),
            InstKind::Load { index, .. } => map(index),
            InstKind::Store { index, value, .. } => {
                map(index);
                map(value);
            }
            InstKind::Branch { cond, .. } => map(cond),
            InstKind::Jump { .. } => {}
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    map(v);
                }
            }
            InstKind::Chained { inputs, .. } => {
                for i in inputs {
                    map(i);
                }
            }
        }
    }

    /// The array this instruction accesses, with `true` for writes.
    pub fn memory_access(&self) -> Option<(ArrayId, bool)> {
        match &self.kind {
            InstKind::Load { array, .. } => Some((*array, false)),
            InstKind::Store { array, .. } => Some((*array, true)),
            _ => None,
        }
    }

    /// True if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.kind,
            InstKind::Branch { .. } | InstKind::Jump { .. } | InstKind::Ret { .. }
        )
    }

    /// True if this instruction has side effects beyond its destination
    /// register (memory writes and control flow).
    pub fn has_side_effects(&self) -> bool {
        matches!(self.kind, InstKind::Store { .. }) || self.is_terminator()
    }

    /// The operation class, given a predicate telling whether an array
    /// holds floats (loads/stores split into `load`/`fload` etc. exactly
    /// as the paper's tables do).
    pub fn class_with(&self, array_is_float: impl Fn(ArrayId) -> bool) -> OpClass {
        match &self.kind {
            InstKind::Binary { op, .. } => op.class(),
            InstKind::Unary { op, .. } => op.class(),
            InstKind::Load { array, .. } => {
                if array_is_float(*array) {
                    OpClass::FLoad
                } else {
                    OpClass::Load
                }
            }
            InstKind::Store { array, .. } => {
                if array_is_float(*array) {
                    OpClass::FStore
                } else {
                    OpClass::Store
                }
            }
            InstKind::Branch { .. } | InstKind::Jump { .. } | InstKind::Ret { .. } => {
                OpClass::Branch
            }
            InstKind::Chained { .. } => OpClass::Chained,
        }
    }

    /// Branch/jump successor blocks named by this terminator.
    pub fn targets(&self) -> Vec<BlockId> {
        match &self.kind {
            InstKind::Branch {
                then_target,
                else_target,
                ..
            } => vec![*then_target, *else_target],
            InstKind::Jump { target } => vec![*target],
            _ => vec![],
        }
    }

    /// Retarget control-flow edges via `f` (used when splitting blocks).
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match &mut self.kind {
            InstKind::Branch {
                then_target,
                else_target,
                ..
            } => {
                *then_target = f(*then_target);
                *else_target = f(*else_target);
            }
            InstKind::Jump { target } => *target = f(*target),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MathFn;

    fn inst(kind: InstKind) -> Inst {
        Inst::new(InstId(0), kind)
    }

    #[test]
    fn dst_and_uses() {
        let i = inst(InstKind::Binary {
            op: BinOp::Add,
            dst: Reg(2),
            lhs: Reg(0).into(),
            rhs: Operand::imm_int(1),
        });
        assert_eq!(i.dst(), Some(Reg(2)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg(0)]);

        let s = inst(InstKind::Store {
            array: ArrayId(0),
            index: Reg(1).into(),
            value: Reg(3).into(),
        });
        assert_eq!(s.dst(), None);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![Reg(1), Reg(3)]);
        assert!(s.has_side_effects());
        assert!(!s.is_terminator());
    }

    #[test]
    fn operand_order_per_kind() {
        // DepDag, DefUse and validate walk operands in this order
        let r = |n| Operand::Reg(Reg(n));
        let cases: Vec<(InstKind, Vec<Operand>)> = vec![
            (
                InstKind::Binary {
                    op: BinOp::Add,
                    dst: Reg(9),
                    lhs: r(1),
                    rhs: Operand::imm_int(2),
                },
                vec![r(1), Operand::imm_int(2)],
            ),
            (
                InstKind::Binary {
                    op: BinOp::Mul,
                    dst: Reg(9),
                    lhs: r(4),
                    rhs: r(4),
                },
                vec![r(4), r(4)],
            ),
            (
                InstKind::Unary {
                    op: UnOp::Neg,
                    dst: Reg(9),
                    src: r(3),
                },
                vec![r(3)],
            ),
            (
                InstKind::Load {
                    dst: Reg(9),
                    array: ArrayId(0),
                    index: r(5),
                },
                vec![r(5)],
            ),
            (
                InstKind::Store {
                    array: ArrayId(0),
                    index: Operand::imm_int(7),
                    value: r(6),
                },
                vec![Operand::imm_int(7), r(6)],
            ),
            (
                InstKind::Branch {
                    cond: r(2),
                    then_target: BlockId(1),
                    else_target: BlockId(2),
                },
                vec![r(2)],
            ),
            (InstKind::Jump { target: BlockId(3) }, vec![]),
            (InstKind::Ret { value: Some(r(8)) }, vec![r(8)]),
            (InstKind::Ret { value: None }, vec![]),
            (
                InstKind::Chained {
                    ext: 0,
                    dst: Reg(9),
                    inputs: vec![r(1), Operand::imm_float(0.5), r(2), Operand::imm_int(3)],
                    ops: vec![BinOp::FMul, BinOp::FAdd, BinOp::Add],
                },
                vec![r(1), Operand::imm_float(0.5), r(2), Operand::imm_int(3)],
            ),
        ];
        for (kind, want) in cases {
            let i = inst(kind);
            let regs: Vec<Reg> = want.iter().filter_map(Operand::reg).collect();
            assert_eq!(i.operands().collect::<Vec<_>>(), want, "{:?}", i.kind);
            assert_eq!(i.uses().collect::<Vec<_>>(), regs, "{:?}", i.kind);
        }
    }

    #[test]
    fn terminators() {
        let b = inst(InstKind::Branch {
            cond: Reg(0).into(),
            then_target: BlockId(1),
            else_target: BlockId(2),
        });
        assert!(b.is_terminator());
        assert_eq!(b.targets(), vec![BlockId(1), BlockId(2)]);

        let j = inst(InstKind::Jump { target: BlockId(3) });
        assert_eq!(j.targets(), vec![BlockId(3)]);

        let r = inst(InstKind::Ret { value: None });
        assert!(r.is_terminator());
        assert!(r.targets().is_empty());
    }

    #[test]
    fn map_targets_rewrites_edges() {
        let mut b = inst(InstKind::Branch {
            cond: Reg(0).into(),
            then_target: BlockId(1),
            else_target: BlockId(2),
        });
        b.map_targets(|t| BlockId(t.0 + 10));
        assert_eq!(b.targets(), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn classes_split_loads_by_element_type() {
        let l = inst(InstKind::Load {
            dst: Reg(0),
            array: ArrayId(0),
            index: Operand::imm_int(0),
        });
        assert_eq!(l.class_with(|_| false), OpClass::Load);
        assert_eq!(l.class_with(|_| true), OpClass::FLoad);

        let s = inst(InstKind::Store {
            array: ArrayId(0),
            index: Operand::imm_int(0),
            value: Operand::imm_float(1.0),
        });
        assert_eq!(s.class_with(|_| true), OpClass::FStore);
    }

    #[test]
    fn map_uses_renames_registers() {
        let mut i = inst(InstKind::Binary {
            op: BinOp::FMul,
            dst: Reg(9),
            lhs: Reg(1).into(),
            rhs: Reg(2).into(),
        });
        i.map_uses(|r| Reg(r.0 + 100));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg(101), Reg(102)]);
        assert_eq!(i.dst(), Some(Reg(9)), "map_uses must not touch dst");
        i.set_dst(Reg(42));
        assert_eq!(i.dst(), Some(Reg(42)));
    }

    #[test]
    fn unary_math_class() {
        let m = inst(InstKind::Unary {
            op: UnOp::Math(MathFn::Sin),
            dst: Reg(0),
            src: Reg(1).into(),
        });
        assert_eq!(m.class_with(|_| false), OpClass::Math);
    }

    #[test]
    fn memory_access_query() {
        let l = inst(InstKind::Load {
            dst: Reg(0),
            array: ArrayId(3),
            index: Operand::imm_int(0),
        });
        assert_eq!(l.memory_access(), Some((ArrayId(3), false)));
        let s = inst(InstKind::Store {
            array: ArrayId(4),
            index: Operand::imm_int(0),
            value: Operand::imm_int(1),
        });
        assert_eq!(s.memory_access(), Some((ArrayId(4), true)));
        let r = inst(InstKind::Ret { value: None });
        assert_eq!(r.memory_access(), None);
    }
}
