//! Rewriting 3-address code to use chained super-instructions.
//!
//! The matcher is deliberately conservative — it fuses only runs it can
//! prove semantics-preserving:
//!
//! - every op in the run is a pure binary ALU operation (no memory, no
//!   control, no intrinsics);
//! - each op's result feeds the *next op only* (single local use, dead
//!   afterwards), either as its left operand or as either operand of a
//!   commutative operation;
//! - the ops are consecutive in the block (a scheduler would have fused
//!   exactly such runs; percolation can make more runs consecutive, but
//!   rewriting stays valid regardless of how many it finds).
//!
//! The fused [`asip_ir::InstKind::Chained`] instruction evaluates as:
//! `acc = classes[0](inputs[0], inputs[1])`, then
//! `acc = classes[i](acc, inputs[i + 1])` — the contract shared with
//! the simulator, so a rewritten program computes bit-identical results.

use crate::extension::AsipDesign;
use asip_chains::Signature;
use asip_ir::{BinOp, DefUse, Inst, InstKind, OpClass, Operand, Program};

/// True if the rewriter can implement this signature as a chained
/// instruction (pure binary ALU classes only).
pub fn is_fusable_signature(sig: &Signature) -> bool {
    sig.classes().iter().all(|c| {
        matches!(
            c,
            OpClass::Add
                | OpClass::Sub
                | OpClass::Mul
                | OpClass::Div
                | OpClass::Shift
                | OpClass::Logic
                | OpClass::Compare
                | OpClass::FAdd
                | OpClass::FSub
                | OpClass::FMul
                | OpClass::FDiv
        )
    })
}

fn commutative(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        Add | Mul | And | Or | Xor | CmpEq | CmpNe | FAdd | FMul | FCmpEq | FCmpNe
    )
}

/// Applies an [`AsipDesign`] to programs.
#[derive(Debug, Clone)]
pub struct Rewriter {
    design: AsipDesign,
}

/// Statistics of one rewrite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Chained instructions emitted.
    pub fused_chains: usize,
    /// Primitive instructions removed (fused away).
    pub removed_ops: usize,
}

impl Rewriter {
    /// A rewriter for the given design.
    pub fn new(design: AsipDesign) -> Self {
        Rewriter { design }
    }

    /// The design being applied.
    pub fn design(&self) -> &AsipDesign {
        &self.design
    }

    /// Rewrite a program in place; longest extensions are tried first at
    /// each position. Returns fusion statistics.
    ///
    /// One forward pass over each block, against one def-use index of
    /// the input program, reaches the fixpoint of rescanning after
    /// every fusion: a fused run's intermediates had exactly one def
    /// and one use, both inside the run, so fusing changes no other
    /// position's match, and the chained instruction (not a binary op)
    /// can never begin or join one.
    pub fn apply(&self, program: &mut Program) -> RewriteStats {
        let mut stats = RewriteStats::default();
        // longest first so a MAC3 wins over a MAC at the same site
        let mut ext_order: Vec<usize> = (0..self.design.extensions.len()).collect();
        ext_order.sort_by_key(|&i| std::cmp::Reverse(self.design.extensions[i].signature.len()));

        let du = DefUse::new(program);
        for block in 0..program.blocks.len() {
            let mut start = 0;
            while start < program.blocks[block].insts.len() {
                let hit = ext_order
                    .iter()
                    .map(|&ei| &self.design.extensions[ei])
                    .find(|ext| {
                        Self::matches_at(
                            program,
                            &du,
                            &program.blocks[block],
                            start,
                            &ext.signature,
                        )
                    });
                if let Some(ext) = hit {
                    let k = ext.signature.len();
                    let fused = self.fuse_run(program, block, start, k, ext.id);
                    program.blocks[block]
                        .insts
                        .splice(start..start + k, [fused]);
                    stats.fused_chains += 1;
                    stats.removed_ops += k - 1;
                }
                start += 1;
            }
        }
        stats
    }

    /// Count the fusable runs of `sig` present in `program` without
    /// rewriting (used by the designer to avoid spending area on
    /// extensions that would never fire). `du` must be the def-use
    /// index of `program`, built once and shared across signatures.
    pub fn count_static_matches(program: &Program, du: &DefUse, sig: &Signature) -> usize {
        program
            .blocks
            .iter()
            .map(|block| {
                (0..block.insts.len())
                    .filter(|&start| Self::matches_at(program, du, block, start, sig))
                    .count()
            })
            .sum()
    }

    fn matches_at(
        program: &Program,
        du: &DefUse,
        block: &asip_ir::Block,
        start: usize,
        sig: &Signature,
    ) -> bool {
        let k = sig.len();
        if start + k > block.insts.len() {
            return false;
        }
        let run = &block.insts[start..start + k];
        // classes match and every member is a pure binary ALU op
        for (inst, want) in run.iter().zip(sig.classes()) {
            let InstKind::Binary { .. } = inst.kind else {
                return false;
            };
            if program.class_of(inst) != *want {
                return false;
            }
        }
        // each op feeds exactly the next one, in a fusable position
        for w in run.windows(2) {
            let prev = &w[0];
            let next = &w[1];
            let d = prev.dst().expect("binary ops define");
            let InstKind::Binary { op, lhs, rhs, .. } = &next.kind else {
                return false;
            };
            let feeds_lhs = lhs.reg() == Some(d);
            let feeds_rhs = rhs.reg() == Some(d);
            if !(feeds_lhs || (feeds_rhs && commutative(*op))) {
                return false;
            }
            if feeds_lhs && feeds_rhs {
                return false; // both operands: cannot express with one link
            }
            // the intermediate value must die at the next op: its only
            // use anywhere is `next`
            let uses = du.uses_of(d);
            if uses.len() != 1 || uses[0] != next.id {
                return false;
            }
            // and it must not be redefined elsewhere in a way that makes
            // removal unsafe: single def (this one)
            if du.defs_of(d).len() != 1 {
                return false;
            }
        }
        true
    }

    /// Build the Chained instruction for a verified run.
    fn fuse_run(
        &self,
        program: &mut Program,
        block: usize,
        start: usize,
        k: usize,
        ext_id: u32,
    ) -> Inst {
        let run: Vec<Inst> = program.blocks[block].insts[start..start + k].to_vec();
        let mut inputs: Vec<Operand> = Vec::with_capacity(k + 1);
        let mut ops: Vec<BinOp> = Vec::with_capacity(k);
        let InstKind::Binary { op, lhs, rhs, .. } = &run[0].kind else {
            unreachable!("verified binary");
        };
        inputs.push(*lhs);
        inputs.push(*rhs);
        ops.push(*op);
        for w in run.windows(2) {
            let d = w[0].dst().expect("binary ops define");
            let InstKind::Binary { op, lhs, rhs, .. } = &w[1].kind else {
                unreachable!("verified binary");
            };
            // the external (non-chained) operand
            let external = if lhs.reg() == Some(d) { *rhs } else { *lhs };
            inputs.push(external);
            ops.push(*op);
        }
        let dst = run[k - 1].dst().expect("binary ops define");
        let id = program.new_inst_id();
        Inst::new(
            id,
            InstKind::Chained {
                ext: ext_id,
                dst,
                inputs,
                ops,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extension::IsaExtension;
    use asip_ir::{Operand, ProgramBuilder, Ty};
    use asip_sim::{DataSet, Simulator};

    fn mac_design() -> AsipDesign {
        let sig: Signature = "multiply-add".parse().expect("ok");
        AsipDesign {
            extensions: vec![IsaExtension {
                id: 0,
                signature: sig,
                area: 1286.0,
                expected_benefit: 10.0,
            }],
            extension_area: 1286.0,
        }
    }

    /// y[0] = x[0]*x[1] + x[2], computed with an intermediate temp.
    fn mac_program() -> Program {
        let mut b = ProgramBuilder::new("m");
        let x = b.input_array("x", Ty::Int, 3);
        let y = b.output_array("y", Ty::Int, 1);
        let e = b.entry_block();
        b.select_block(e);
        let a = b.load(x, Operand::imm_int(0));
        let c = b.load(x, Operand::imm_int(1));
        let d = b.load(x, Operand::imm_int(2));
        let t = b.binary(BinOp::Mul, a.into(), c.into());
        let s = b.binary(BinOp::Add, t.into(), d.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.ret(None);
        b.finish().expect("valid")
    }

    fn run(p: &Program) -> i64 {
        let mut ds = DataSet::new();
        ds.bind_ints("x", vec![3, 5, 7]);
        let e = Simulator::new(p).run(&ds).expect("runs");
        e.array(p, "y").expect("output")[0].as_int()
    }

    #[test]
    fn fuses_mac_and_preserves_semantics() {
        let mut p = mac_program();
        let before = run(&p);
        let before_count = p.inst_count();
        let stats = Rewriter::new(mac_design()).apply(&mut p);
        assert_eq!(stats.fused_chains, 1);
        assert_eq!(stats.removed_ops, 1);
        assert_eq!(p.inst_count(), before_count - 1);
        assert!(p
            .insts()
            .any(|(_, i)| matches!(i.kind, InstKind::Chained { .. })));
        assert_eq!(run(&p), before, "rewriting must preserve results");
        assert_eq!(before, 3 * 5 + 7);
    }

    #[test]
    fn commutative_rhs_feed_is_fused() {
        // s = d + t (chain value on the rhs of a commutative add)
        let mut b = ProgramBuilder::new("m");
        let x = b.input_array("x", Ty::Int, 3);
        let y = b.output_array("y", Ty::Int, 1);
        let e = b.entry_block();
        b.select_block(e);
        let a = b.load(x, Operand::imm_int(0));
        let c = b.load(x, Operand::imm_int(1));
        let d = b.load(x, Operand::imm_int(2));
        let t = b.binary(BinOp::Mul, a.into(), c.into());
        let s = b.binary(BinOp::Add, d.into(), t.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let before = run(&p);
        let stats = Rewriter::new(mac_design()).apply(&mut p);
        assert_eq!(stats.fused_chains, 1);
        assert_eq!(run(&p), before);
    }

    #[test]
    fn non_commutative_rhs_feed_is_rejected() {
        // s = d - t: the chain value is subtrahend; a (mul)-(sub) unit
        // computing acc - ext would get it backwards, so no fusion
        let sig: Signature = "multiply-subtract".parse().expect("ok");
        let design = AsipDesign {
            extensions: vec![IsaExtension {
                id: 0,
                signature: sig,
                area: 1.0,
                expected_benefit: 1.0,
            }],
            extension_area: 1.0,
        };
        let mut b = ProgramBuilder::new("m");
        let x = b.input_array("x", Ty::Int, 3);
        let y = b.output_array("y", Ty::Int, 1);
        let e = b.entry_block();
        b.select_block(e);
        let a = b.load(x, Operand::imm_int(0));
        let c = b.load(x, Operand::imm_int(1));
        let d = b.load(x, Operand::imm_int(2));
        let t = b.binary(BinOp::Mul, a.into(), c.into());
        let s = b.binary(BinOp::Sub, d.into(), t.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let stats = Rewriter::new(design).apply(&mut p);
        assert_eq!(stats.fused_chains, 0);
    }

    #[test]
    fn intermediate_with_second_use_is_not_fused() {
        // t is used by the add AND stored: fusing would lose it
        let mut b = ProgramBuilder::new("m");
        let x = b.input_array("x", Ty::Int, 3);
        let y = b.output_array("y", Ty::Int, 2);
        let e = b.entry_block();
        b.select_block(e);
        let a = b.load(x, Operand::imm_int(0));
        let c = b.load(x, Operand::imm_int(1));
        let d = b.load(x, Operand::imm_int(2));
        let t = b.binary(BinOp::Mul, a.into(), c.into());
        let s = b.binary(BinOp::Add, t.into(), d.into());
        b.store(y, Operand::imm_int(0), s.into());
        b.store(y, Operand::imm_int(1), t.into());
        b.ret(None);
        let mut p = b.finish().expect("valid");
        let stats = Rewriter::new(mac_design()).apply(&mut p);
        assert_eq!(stats.fused_chains, 0);
    }

    #[test]
    fn fusable_signature_policy() {
        assert!(is_fusable_signature(&"multiply-add".parse().expect("ok")));
        assert!(is_fusable_signature(&"fmultiply-fadd".parse().expect("ok")));
        assert!(is_fusable_signature(&"add-shift-add".parse().expect("ok")));
        assert!(!is_fusable_signature(&"load-multiply".parse().expect("ok")));
        assert!(!is_fusable_signature(&"add-store".parse().expect("ok")));
        assert!(!is_fusable_signature(&"add-move".parse().expect("ok")));
    }

    #[test]
    fn rewritten_program_validates() {
        let mut p = mac_program();
        Rewriter::new(mac_design()).apply(&mut p);
        assert!(p.validate().is_ok());
    }
}
