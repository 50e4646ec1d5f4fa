//! Basic blocks.

use crate::inst::Inst;
use crate::types::BlockId;

/// A basic block: straight-line instructions ending in one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// This block's id (its index in [`crate::Program::blocks`]).
    pub id: BlockId,
    /// Optional label (kept from the front end for readable dumps).
    pub label: Option<String>,
    /// Instructions; the last one is the terminator.
    pub insts: Vec<Inst>,
}

impl Block {
    /// An empty block with the given id.
    pub fn new(id: BlockId) -> Self {
        Block {
            id,
            label: None,
            insts: Vec::new(),
        }
    }

    /// The terminator instruction, if the block is complete.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }

    /// Instructions excluding the terminator.
    pub fn body(&self) -> &[Inst] {
        match self.insts.last() {
            Some(last) if last.is_terminator() => &self.insts[..self.insts.len() - 1],
            _ => &self.insts,
        }
    }

    /// Successor blocks (from the terminator).
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator().map(|t| t.targets()).unwrap_or_default()
    }

    /// True if the block has a terminator as its final instruction and no
    /// terminator earlier.
    pub fn is_well_formed(&self) -> bool {
        match self.insts.last() {
            None => false,
            Some(last) => {
                last.is_terminator()
                    && self.insts[..self.insts.len() - 1]
                        .iter()
                        .all(|i| !i.is_terminator())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstKind;
    use crate::op::BinOp;
    use crate::types::{InstId, Operand, Reg};

    fn add(id: u32) -> Inst {
        Inst::new(
            InstId(id),
            InstKind::Binary {
                op: BinOp::Add,
                dst: Reg(0),
                lhs: Operand::imm_int(1),
                rhs: Operand::imm_int(2),
            },
        )
    }

    fn ret(id: u32) -> Inst {
        Inst::new(InstId(id), InstKind::Ret { value: None })
    }

    #[test]
    fn well_formedness() {
        let mut b = Block::new(BlockId(0));
        assert!(!b.is_well_formed(), "empty block is malformed");
        b.insts.push(add(0));
        assert!(!b.is_well_formed(), "missing terminator");
        b.insts.push(ret(1));
        assert!(b.is_well_formed());
        assert_eq!(b.body().len(), 1);
        assert!(b.terminator().is_some());

        // terminator in the middle is malformed
        let mut bad = Block::new(BlockId(1));
        bad.insts.push(ret(2));
        bad.insts.push(add(3));
        bad.insts.push(ret(4));
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn successors_from_terminator() {
        let mut b = Block::new(BlockId(0));
        b.insts
            .push(Inst::new(InstId(0), InstKind::Jump { target: BlockId(7) }));
        assert_eq!(b.successors(), vec![BlockId(7)]);
    }

    #[test]
    fn body_of_unterminated_block_is_everything() {
        let mut b = Block::new(BlockId(0));
        b.insts.push(add(0));
        b.insts.push(add(1));
        assert_eq!(b.body().len(), 2);
        assert!(b.terminator().is_none());
        assert!(b.successors().is_empty());
    }
}
