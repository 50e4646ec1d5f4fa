//! The top-level program container and its validator.

use crate::block::Block;
use crate::error::{IrError, Result};
use crate::inst::{Inst, InstKind};
use crate::op::OpClass;
use crate::types::{ArrayId, BlockId, InstId, Operand, Reg, Ty};
use std::collections::HashSet;

/// How an array is bound at simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// Filled from the experiment's input data before execution.
    Input,
    /// Written by the program; checked/ignored by the harness.
    Output,
    /// Scratch storage, zero-initialized.
    Internal,
}

impl ArrayKind {
    /// Keyword used in the textual format.
    pub fn keyword(self) -> &'static str {
        match self {
            ArrayKind::Input => "input",
            ArrayKind::Output => "output",
            ArrayKind::Internal => "internal",
        }
    }
}

/// A declared memory object.
///
/// `base` and `elem_size` describe the array's address layout: a
/// [`crate::InstKind::Load`]/`Store` index operand holds
/// `base + element_index * elem_size`. The default layout (`base = 0`,
/// `elem_size = 1`) makes indices plain element numbers; a front end
/// that emits explicit address arithmetic (scaling multiply + base add,
/// as gcc-era 3-address code does) assigns real byte layouts instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Number of elements.
    pub len: usize,
    /// Binding kind.
    pub kind: ArrayKind,
    /// Address of element 0.
    pub base: i64,
    /// Bytes per element (1 = element-indexed).
    pub elem_size: i64,
}

impl ArrayDecl {
    /// Decode an address operand value into an element index.
    ///
    /// Returns `None` for addresses outside the array or not aligned to
    /// an element boundary.
    pub fn element_of(&self, addr: i64) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        if off < 0 || off % self.elem_size != 0 {
            return None;
        }
        let idx = (off / self.elem_size) as usize;
        (idx < self.len).then_some(idx)
    }

    /// The address of an element index.
    pub fn address_of(&self, index: usize) -> i64 {
        self.base + index as i64 * self.elem_size
    }
}

/// A whole program: one flat CFG over typed virtual registers and arrays.
///
/// The front end inlines all calls, so a `Program` corresponds to the
/// paper's per-benchmark "3-address code" unit of analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (benchmark name).
    pub name: String,
    /// Type of each virtual register, indexed by [`Reg`].
    pub reg_types: Vec<Ty>,
    /// Declared arrays, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// The next unused instruction id (ids already used are `0..next`).
    pub next_inst_id: u32,
}

impl Program {
    /// The blocks of the program.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Look up a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable block lookup.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// The type of a register.
    pub fn reg_ty(&self, r: Reg) -> Ty {
        self.reg_types[r.index()]
    }

    /// Allocate a fresh register of the given type.
    pub fn new_reg(&mut self, ty: Ty) -> Reg {
        let r = Reg(self.reg_types.len() as u32);
        self.reg_types.push(ty);
        r
    }

    /// Allocate a fresh instruction id.
    pub fn new_inst_id(&mut self) -> InstId {
        let id = InstId(self.next_inst_id);
        self.next_inst_id += 1;
        id
    }

    /// The declaration of an array.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// True if the array holds floats (drives `load` vs `fload` classes).
    pub fn array_is_float(&self, id: ArrayId) -> bool {
        self.arrays[id.index()].ty == Ty::Float
    }

    /// Find an array by source name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// The op class of an instruction in this program's context.
    pub fn class_of(&self, inst: &Inst) -> OpClass {
        inst.class_with(|a| self.array_is_float(a))
    }

    /// Iterate over every instruction with its containing block.
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, &Inst)> {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter().map(move |i| (b.id, i)))
    }

    /// Total static instruction count.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Validate structural and type invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: dangling block/register/array
    /// references, malformed blocks, duplicate instruction ids, or operand
    /// type mismatches.
    pub fn validate(&self) -> Result<()> {
        if self.blocks.is_empty() {
            return Err(IrError::EmptyProgram);
        }
        if self.entry.index() >= self.blocks.len() {
            return Err(IrError::UnknownBlock(self.entry.0));
        }
        let mut seen_ids = HashSet::new();
        for (bi, block) in self.blocks.iter().enumerate() {
            if !block.is_well_formed() {
                return Err(IrError::MalformedBlock(bi as u32));
            }
            for inst in &block.insts {
                if !seen_ids.insert(inst.id) {
                    return Err(IrError::DuplicateInstId(inst.id.0));
                }
                self.validate_inst(inst)?;
            }
        }
        Ok(())
    }

    fn check_reg(&self, r: Reg) -> Result<()> {
        if r.index() >= self.reg_types.len() {
            Err(IrError::UnknownReg(r.0))
        } else {
            Ok(())
        }
    }

    fn check_operand(&self, o: &Operand) -> Result<()> {
        if let Some(r) = o.reg() {
            self.check_reg(r)?;
        }
        Ok(())
    }

    fn operand_ty(&self, o: &Operand) -> Ty {
        match o {
            Operand::Reg(r) => self.reg_ty(*r),
            Operand::ImmInt(_) => Ty::Int,
            Operand::ImmFloat(_) => Ty::Float,
        }
    }

    fn validate_inst(&self, inst: &Inst) -> Result<()> {
        for o in inst.operands() {
            self.check_operand(&o)?;
        }
        if let Some(d) = inst.dst() {
            self.check_reg(d)?;
        }
        match &inst.kind {
            InstKind::Binary { op, dst, lhs, rhs } => {
                let want = if op.is_float() { Ty::Float } else { Ty::Int };
                for (side, o) in [("lhs", lhs), ("rhs", rhs)] {
                    if self.operand_ty(o) != want {
                        return Err(IrError::TypeMismatch {
                            inst: inst.id.0,
                            detail: format!("{op} expects {want} {side}"),
                        });
                    }
                }
                if self.reg_ty(*dst) != op.result_ty() {
                    return Err(IrError::TypeMismatch {
                        inst: inst.id.0,
                        detail: format!("{op} result must be {}", op.result_ty()),
                    });
                }
            }
            InstKind::Unary { op, dst, src } => {
                let src_ty = self.operand_ty(src);
                let want_src = match op {
                    crate::op::UnOp::Neg | crate::op::UnOp::Not => Some(Ty::Int),
                    crate::op::UnOp::FNeg | crate::op::UnOp::Math(_) => Some(Ty::Float),
                    crate::op::UnOp::IntToFloat => Some(Ty::Int),
                    crate::op::UnOp::FloatToInt => Some(Ty::Float),
                    crate::op::UnOp::Mov => None,
                };
                if let Some(w) = want_src {
                    if src_ty != w {
                        return Err(IrError::TypeMismatch {
                            inst: inst.id.0,
                            detail: format!("{op} expects {w} source"),
                        });
                    }
                }
                if self.reg_ty(*dst) != op.result_ty(src_ty) {
                    return Err(IrError::TypeMismatch {
                        inst: inst.id.0,
                        detail: format!("{op} result type mismatch"),
                    });
                }
            }
            InstKind::Load { dst, array, index } => {
                if array.index() >= self.arrays.len() {
                    return Err(IrError::UnknownArray(array.0));
                }
                if self.operand_ty(index) != Ty::Int {
                    return Err(IrError::TypeMismatch {
                        inst: inst.id.0,
                        detail: "load index must be int".into(),
                    });
                }
                if self.reg_ty(*dst) != self.arrays[array.index()].ty {
                    return Err(IrError::TypeMismatch {
                        inst: inst.id.0,
                        detail: "load destination type must match array element type".into(),
                    });
                }
            }
            InstKind::Store {
                array,
                index,
                value,
            } => {
                if array.index() >= self.arrays.len() {
                    return Err(IrError::UnknownArray(array.0));
                }
                if self.operand_ty(index) != Ty::Int {
                    return Err(IrError::TypeMismatch {
                        inst: inst.id.0,
                        detail: "store index must be int".into(),
                    });
                }
                if self.operand_ty(value) != self.arrays[array.index()].ty {
                    return Err(IrError::TypeMismatch {
                        inst: inst.id.0,
                        detail: "stored value type must match array element type".into(),
                    });
                }
            }
            InstKind::Branch {
                cond,
                then_target,
                else_target,
            } => {
                if self.operand_ty(cond) != Ty::Int {
                    return Err(IrError::TypeMismatch {
                        inst: inst.id.0,
                        detail: "branch condition must be int".into(),
                    });
                }
                for t in [then_target, else_target] {
                    if t.index() >= self.blocks.len() {
                        return Err(IrError::UnknownBlock(t.0));
                    }
                }
            }
            InstKind::Jump { target } => {
                if target.index() >= self.blocks.len() {
                    return Err(IrError::UnknownBlock(target.0));
                }
            }
            InstKind::Ret { .. } => {}
            InstKind::Chained { .. } => {
                // chained super-ops are synthesized post-validation; their
                // operand types are guaranteed by the rewriter
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::BinOp;

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let entry = b.entry_block();
        b.select_block(entry);
        let x = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        let _ = b.binary(BinOp::Mul, x.into(), Operand::imm_int(3));
        b.ret(None);
        b.finish().expect("valid")
    }

    #[test]
    fn validates_clean_program() {
        let p = tiny();
        assert!(p.validate().is_ok());
        assert_eq!(p.inst_count(), 3);
        assert_eq!(p.insts().count(), 3);
    }

    #[test]
    fn catches_type_mismatch() {
        let mut p = tiny();
        // change the add to fadd: int immediates now mismatch
        if let InstKind::Binary { op, .. } = &mut p.blocks[0].insts[0].kind {
            *op = BinOp::FAdd;
        }
        assert!(matches!(p.validate(), Err(IrError::TypeMismatch { .. })));
    }

    #[test]
    fn catches_dangling_block() {
        let mut p = tiny();
        p.blocks[0].insts.pop();
        p.blocks[0].insts.push(Inst::new(
            InstId(99),
            InstKind::Jump {
                target: BlockId(42),
            },
        ));
        assert_eq!(p.validate(), Err(IrError::UnknownBlock(42)));
    }

    #[test]
    fn catches_duplicate_ids() {
        let mut p = tiny();
        let dup = p.blocks[0].insts[0].clone();
        p.blocks[0].insts.insert(1, dup);
        assert!(matches!(p.validate(), Err(IrError::DuplicateInstId(_))));
    }

    #[test]
    fn catches_empty_program() {
        let p = Program {
            name: "empty".into(),
            reg_types: vec![],
            arrays: vec![],
            blocks: vec![],
            entry: BlockId(0),
            next_inst_id: 0,
        };
        assert_eq!(p.validate(), Err(IrError::EmptyProgram));
    }

    #[test]
    fn array_helpers() {
        let mut b = ProgramBuilder::new("arr");
        let a = b.input_array("x", Ty::Float, 8);
        let entry = b.entry_block();
        b.select_block(entry);
        let v = b.load(a, Operand::imm_int(0));
        let _ = b.binary(BinOp::FAdd, v.into(), Operand::imm_float(1.0));
        b.ret(None);
        let p = b.finish().expect("valid");
        assert!(p.array_is_float(a));
        assert_eq!(p.array_by_name("x"), Some(a));
        assert_eq!(p.array_by_name("nope"), None);
        assert_eq!(p.array(a).len, 8);
        assert_eq!(p.array(a).kind, ArrayKind::Input);
    }

    #[test]
    fn fresh_regs_and_ids_are_distinct() {
        let mut p = tiny();
        let r1 = p.new_reg(Ty::Int);
        let r2 = p.new_reg(Ty::Float);
        assert_ne!(r1, r2);
        assert_eq!(p.reg_ty(r2), Ty::Float);
        let i1 = p.new_inst_id();
        let i2 = p.new_inst_id();
        assert_ne!(i1, i2);
    }
}
