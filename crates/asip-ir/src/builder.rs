//! Ergonomic construction of IR programs.

use crate::block::Block;
use crate::error::Result;
use crate::inst::{Inst, InstKind};
use crate::op::{BinOp, UnOp};
use crate::program::{ArrayDecl, ArrayKind, Program};
use crate::types::{ArrayId, BlockId, InstId, Operand, Reg, Ty};

/// Builder for [`Program`]s.
///
/// Blocks are created first (so forward branches can name their targets),
/// then filled by selecting them. `finish` validates the result.
///
/// ```
/// use asip_ir::{BinOp, Operand, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new("demo");
/// let entry = b.entry_block();
/// b.select_block(entry);
/// let s = b.binary(BinOp::Add, Operand::imm_int(20), Operand::imm_int(22));
/// b.ret(Some(s.into()));
/// let program = b.finish().expect("well-formed");
/// assert_eq!(program.inst_count(), 2);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Program,
    current: Option<BlockId>,
    entry_created: bool,
}

impl ProgramBuilder {
    /// Start building a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            program: Program {
                name: name.into(),
                reg_types: Vec::new(),
                arrays: Vec::new(),
                blocks: Vec::new(),
                entry: BlockId(0),
                next_inst_id: 0,
            },
            current: None,
            entry_created: false,
        }
    }

    /// Create (or return) the entry block.
    pub fn entry_block(&mut self) -> BlockId {
        if !self.entry_created {
            let id = self.new_block();
            self.program.entry = id;
            self.entry_created = true;
            id
        } else {
            self.program.entry
        }
    }

    /// Create a new empty block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.program.blocks.len() as u32);
        self.program.blocks.push(Block::new(id));
        id
    }

    /// Create a new labelled block (labels survive into dumps).
    pub fn new_labeled_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = self.new_block();
        self.program.blocks[id.index()].label = Some(label.into());
        id
    }

    /// Select the block subsequent instructions are appended to.
    pub fn select_block(&mut self, id: BlockId) {
        self.current = Some(id);
    }

    /// The currently selected block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been selected.
    pub fn current_block(&self) -> BlockId {
        self.current.expect("no block selected")
    }

    /// True if the selected block already has a terminator.
    pub fn current_is_terminated(&self) -> bool {
        self.current
            .map(|c| self.program.blocks[c.index()].terminator().is_some())
            .unwrap_or(false)
    }

    /// Allocate a fresh register.
    pub fn new_reg(&mut self, ty: Ty) -> Reg {
        self.program.new_reg(ty)
    }

    /// Declare an input array.
    pub fn input_array(&mut self, name: impl Into<String>, ty: Ty, len: usize) -> ArrayId {
        self.array(name, ty, len, ArrayKind::Input)
    }

    /// Declare an output array.
    pub fn output_array(&mut self, name: impl Into<String>, ty: Ty, len: usize) -> ArrayId {
        self.array(name, ty, len, ArrayKind::Output)
    }

    /// Declare an internal (scratch) array.
    pub fn internal_array(&mut self, name: impl Into<String>, ty: Ty, len: usize) -> ArrayId {
        self.array(name, ty, len, ArrayKind::Internal)
    }

    /// Declare an array with an explicit kind (element-indexed layout:
    /// `base = 0`, `elem_size = 1`).
    pub fn array(
        &mut self,
        name: impl Into<String>,
        ty: Ty,
        len: usize,
        kind: ArrayKind,
    ) -> ArrayId {
        self.array_with_layout(name, ty, len, kind, 0, 1)
    }

    /// Declare an array with an explicit address layout (see
    /// [`ArrayDecl`] for the addressing rule).
    pub fn array_with_layout(
        &mut self,
        name: impl Into<String>,
        ty: Ty,
        len: usize,
        kind: ArrayKind,
        base: i64,
        elem_size: i64,
    ) -> ArrayId {
        let id = ArrayId(self.program.arrays.len() as u32);
        self.program.arrays.push(ArrayDecl {
            name: name.into(),
            ty,
            len,
            kind,
            base,
            elem_size,
        });
        id
    }

    /// The declaration of a previously declared array.
    pub fn array_decl(&self, id: ArrayId) -> &ArrayDecl {
        &self.program.arrays[id.index()]
    }

    fn push(&mut self, kind: InstKind) -> InstId {
        let id = self.program.new_inst_id();
        let block = self.current.expect("no block selected");
        self.program.blocks[block.index()]
            .insts
            .push(Inst::new(id, kind));
        id
    }

    /// Emit `dst = op lhs, rhs` into a fresh destination register.
    pub fn binary(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.new_reg(op.result_ty());
        self.binary_to(dst, op, lhs, rhs);
        dst
    }

    /// Emit `dst = op lhs, rhs` into an existing register.
    pub fn binary_to(&mut self, dst: Reg, op: BinOp, lhs: Operand, rhs: Operand) -> InstId {
        self.push(InstKind::Binary { op, dst, lhs, rhs })
    }

    /// Emit a chained super-instruction of extension `ext` into a fresh
    /// register of the last op's result type: `acc = ops[0](inputs[0],
    /// inputs[1])`, then `acc = ops[i](acc, inputs[i + 1])`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn chained(&mut self, ext: u32, ops: &[BinOp], inputs: &[Operand]) -> Reg {
        let last = ops.last().expect("a chain has at least one op");
        let dst = self.new_reg(last.result_ty());
        self.push(InstKind::Chained {
            ext,
            dst,
            inputs: inputs.to_vec(),
            ops: ops.to_vec(),
        });
        dst
    }

    /// Emit `dst = op src` into a fresh destination register.
    pub fn unary(&mut self, op: UnOp, src: Operand) -> Reg {
        let src_ty = match src {
            Operand::Reg(r) => self.program.reg_ty(r),
            Operand::ImmInt(_) => Ty::Int,
            Operand::ImmFloat(_) => Ty::Float,
        };
        let dst = self.new_reg(op.result_ty(src_ty));
        self.unary_to(dst, op, src);
        dst
    }

    /// Emit `dst = op src` into an existing register.
    pub fn unary_to(&mut self, dst: Reg, op: UnOp, src: Operand) -> InstId {
        self.push(InstKind::Unary { op, dst, src })
    }

    /// Emit a move into an existing register.
    pub fn mov_to(&mut self, dst: Reg, src: Operand) -> InstId {
        self.unary_to(dst, UnOp::Mov, src)
    }

    /// Emit `dst = array[index]` into a fresh register.
    pub fn load(&mut self, array: ArrayId, index: Operand) -> Reg {
        let ty = self.program.arrays[array.index()].ty;
        let dst = self.new_reg(ty);
        self.load_to(dst, array, index);
        dst
    }

    /// Emit `dst = array[index]` into an existing register.
    pub fn load_to(&mut self, dst: Reg, array: ArrayId, index: Operand) -> InstId {
        self.push(InstKind::Load { dst, array, index })
    }

    /// Emit `array[index] = value`.
    pub fn store(&mut self, array: ArrayId, index: Operand, value: Operand) -> InstId {
        self.push(InstKind::Store {
            array,
            index,
            value,
        })
    }

    /// Emit a conditional branch terminator.
    pub fn branch(&mut self, cond: Operand, then_target: BlockId, else_target: BlockId) -> InstId {
        self.push(InstKind::Branch {
            cond,
            then_target,
            else_target,
        })
    }

    /// Emit an unconditional jump terminator.
    pub fn jump(&mut self, target: BlockId) -> InstId {
        self.push(InstKind::Jump { target })
    }

    /// Emit a return terminator.
    pub fn ret(&mut self, value: Option<Operand>) -> InstId {
        self.push(InstKind::Ret { value })
    }

    /// Finish and validate the program.
    ///
    /// # Errors
    ///
    /// Returns any violation found by [`Program::validate`].
    pub fn finish(self) -> Result<Program> {
        self.program.validate()?;
        Ok(self.program)
    }

    /// Finish without validating (for tests constructing invalid IR).
    pub fn finish_unchecked(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_loop() {
        // for (i = 0; i < 10; i++) acc += x[i] * x[i]
        let mut b = ProgramBuilder::new("sumsq");
        let x = b.input_array("x", Ty::Int, 10);
        let entry = b.entry_block();
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");

        let i = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);

        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.mov_to(acc, Operand::imm_int(0));
        b.jump(header);

        b.select_block(header);
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(10));
        b.branch(c.into(), body, exit);

        b.select_block(body);
        let v = b.load(x, i.into());
        let sq = b.binary(BinOp::Mul, v.into(), v.into());
        let nacc = b.binary(BinOp::Add, acc.into(), sq.into());
        b.mov_to(acc, nacc.into());
        let ni = b.binary(BinOp::Add, i.into(), Operand::imm_int(1));
        b.mov_to(i, ni.into());
        b.jump(header);

        b.select_block(exit);
        b.ret(Some(acc.into()));

        let p = b.finish().expect("valid loop program");
        assert_eq!(p.blocks().len(), 4);
        assert_eq!(p.block(header).successors(), vec![body, exit]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn entry_block_is_idempotent() {
        let mut b = ProgramBuilder::new("t");
        let e1 = b.entry_block();
        let e2 = b.entry_block();
        assert_eq!(e1, e2);
    }

    #[test]
    fn load_infers_element_type() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input_array("f", Ty::Float, 4);
        let entry = b.entry_block();
        b.select_block(entry);
        let v = b.load(a, Operand::imm_int(0));
        b.ret(None);
        let p = b.finish().expect("valid");
        assert_eq!(p.reg_ty(v), Ty::Float);
    }

    #[test]
    fn unary_infers_result_type() {
        let mut b = ProgramBuilder::new("t");
        let entry = b.entry_block();
        b.select_block(entry);
        let f = b.unary(UnOp::IntToFloat, Operand::imm_int(3));
        let i = b.unary(UnOp::FloatToInt, f.into());
        b.ret(Some(i.into()));
        let p = b.finish().expect("valid");
        assert_eq!(p.reg_ty(f), Ty::Float);
        assert_eq!(p.reg_ty(i), Ty::Int);
    }

    #[test]
    fn terminated_query() {
        let mut b = ProgramBuilder::new("t");
        let entry = b.entry_block();
        b.select_block(entry);
        assert!(!b.current_is_terminated());
        b.ret(None);
        assert!(b.current_is_terminated());
    }
}
