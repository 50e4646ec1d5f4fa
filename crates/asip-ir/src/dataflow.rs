//! Def/use summaries and live-variable analysis.

use crate::cfg::Cfg;
use crate::program::Program;
use crate::types::{BlockId, InstId, Reg};
use std::collections::HashSet;

/// Where a specific instruction lives: block and index within the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstLoc {
    /// Containing block.
    pub block: BlockId,
    /// Index within `block.insts`.
    pub index: usize,
}

/// Program-wide def/use index: which instructions define and use each
/// register, and where each instruction sits. Registers and instruction
/// ids are dense indices, so every table is a flat vector indexed by
/// them (sized by `reg_types.len()` and `next_inst_id`, grown on demand
/// for an index past either).
#[derive(Debug, Clone)]
pub struct DefUse {
    defs: Postings,
    uses: Postings,
    locs: Vec<Option<InstLoc>>,
}

/// Per-register instruction lists in one allocation: the ids of
/// register `r` are `ids[starts[r]..starts[r + 1]]`, in program order.
#[derive(Debug, Clone, Default)]
struct Postings {
    starts: Vec<u32>,
    ids: Vec<InstId>,
}

impl Postings {
    /// Bucket the `(reg, id)` pairs `pairs()` yields in program order
    /// by register: one pass to count, one to fill.
    fn build<I: Iterator<Item = (Reg, InstId)>>(regs: usize, pairs: impl Fn() -> I) -> Self {
        let mut starts = vec![0u32; regs + 1];
        for (r, _) in pairs() {
            if r.index() + 1 >= starts.len() {
                starts.resize(r.index() + 2, 0);
            }
            starts[r.index() + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut next = starts.clone();
        let mut ids = vec![InstId(0); starts[starts.len() - 1] as usize];
        for (r, id) in pairs() {
            ids[next[r.index()] as usize] = id;
            next[r.index()] += 1;
        }
        Postings { starts, ids }
    }

    fn of(&self, r: Reg) -> &[InstId] {
        match self.starts.get(r.index()..r.index() + 2) {
            Some(&[lo, hi]) => &self.ids[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

impl DefUse {
    /// Build the index for a program.
    pub fn new(program: &Program) -> Self {
        let insts = || program.blocks.iter().flat_map(|b| b.insts.iter());
        let defs = Postings::build(program.reg_types.len(), || {
            insts().filter_map(|i| Some((i.dst()?, i.id)))
        });
        let uses = Postings::build(program.reg_types.len(), || {
            insts().flat_map(|i| i.uses().map(move |u| (u, i.id)))
        });
        let mut locs = vec![None; program.next_inst_id as usize];
        for block in &program.blocks {
            for (index, inst) in block.insts.iter().enumerate() {
                if inst.id.index() >= locs.len() {
                    locs.resize(inst.id.index() + 1, None);
                }
                locs[inst.id.index()] = Some(InstLoc {
                    block: block.id,
                    index,
                });
            }
        }
        DefUse { defs, uses, locs }
    }

    /// Instructions defining a register.
    pub fn defs_of(&self, r: Reg) -> &[InstId] {
        self.defs.of(r)
    }

    /// Instructions using a register.
    pub fn uses_of(&self, r: Reg) -> &[InstId] {
        self.uses.of(r)
    }

    /// Location of an instruction.
    pub fn loc(&self, id: InstId) -> Option<InstLoc> {
        self.locs.get(id.index()).copied().flatten()
    }

    /// True if `r` has exactly one static definition.
    pub fn is_single_def(&self, r: Reg) -> bool {
        self.defs_of(r).len() == 1
    }
}

/// Classic backward live-variable analysis at block granularity.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<HashSet<Reg>>,
    live_out: Vec<HashSet<Reg>>,
}

impl Liveness {
    /// Compute liveness for a program.
    pub fn new(program: &Program, cfg: &Cfg) -> Self {
        let n = program.blocks.len();
        // gen = upward-exposed uses, kill = defs
        let mut gen = vec![HashSet::new(); n];
        let mut kill = vec![HashSet::new(); n];
        for block in &program.blocks {
            let bi = block.id.index();
            for inst in &block.insts {
                for u in inst.uses() {
                    if !kill[bi].contains(&u) {
                        gen[bi].insert(u);
                    }
                }
                if let Some(d) = inst.dst() {
                    kill[bi].insert(d);
                }
            }
        }
        let mut live_in = vec![HashSet::new(); n];
        let mut live_out = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            // iterate in postorder (reverse RPO) for fast convergence
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                let mut out = HashSet::new();
                for &s in cfg.succs(b) {
                    out.extend(live_in[s.index()].iter().copied());
                }
                let mut inn: HashSet<Reg> = gen[bi].clone();
                for &r in &out {
                    if !kill[bi].contains(&r) {
                        inn.insert(r);
                    }
                }
                if out != live_out[bi] || inn != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to a block.
    pub fn live_in(&self, b: BlockId) -> &HashSet<Reg> {
        &self.live_in[b.index()]
    }

    /// Registers live on exit from a block.
    pub fn live_out(&self, b: BlockId) -> &HashSet<Reg> {
        &self.live_out[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::BinOp;
    use crate::types::{Operand, Ty};

    fn loop_program() -> (Program, Reg, Reg) {
        // i defined in entry, used+redefined in body; acc likewise
        let mut b = ProgramBuilder::new("lp");
        let entry = b.entry_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.mov_to(acc, Operand::imm_int(0));
        b.jump(header);
        b.select_block(header);
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(8));
        b.branch(c.into(), body, exit);
        b.select_block(body);
        let na = b.binary(BinOp::Add, acc.into(), i.into());
        b.mov_to(acc, na.into());
        let ni = b.binary(BinOp::Add, i.into(), Operand::imm_int(1));
        b.mov_to(i, ni.into());
        b.jump(header);
        b.select_block(exit);
        b.ret(Some(acc.into()));
        (b.finish().expect("valid"), i, acc)
    }

    use crate::program::Program;

    #[test]
    fn def_use_index() {
        let (p, i, acc) = loop_program();
        let du = DefUse::new(&p);
        // i: defined by the entry mov and the body mov
        assert_eq!(du.defs_of(i).len(), 2);
        assert!(!du.is_single_def(i));
        // acc used by add in body and by ret
        assert!(du.uses_of(acc).len() >= 2);
        // every instruction has a location
        for (_, inst) in p.insts() {
            assert!(du.loc(inst.id).is_some());
        }
        // unknown register has no defs/uses
        assert!(du.defs_of(Reg(999)).is_empty());
        assert!(du.uses_of(Reg(999)).is_empty());
    }

    #[test]
    fn liveness_around_loop() {
        let (p, i, acc) = loop_program();
        let cfg = Cfg::new(&p);
        let lv = Liveness::new(&p, &cfg);
        let header = BlockId(1);
        let body = BlockId(2);
        let exit = BlockId(3);
        // i and acc are live around the loop
        assert!(lv.live_in(header).contains(&i));
        assert!(lv.live_in(header).contains(&acc));
        assert!(lv.live_in(body).contains(&i));
        // acc live into exit (returned); i not
        assert!(lv.live_in(exit).contains(&acc));
        assert!(!lv.live_in(exit).contains(&i));
        // nothing live out of exit
        assert!(lv.live_out(exit).is_empty());
    }

    #[test]
    fn dead_def_not_live() {
        let mut b = ProgramBuilder::new("dead");
        let entry = b.entry_block();
        b.select_block(entry);
        let dead = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        b.ret(None);
        let p = b.finish().expect("valid");
        let cfg = Cfg::new(&p);
        let lv = Liveness::new(&p, &cfg);
        assert!(!lv.live_in(entry).contains(&dead));
        assert!(!lv.live_out(entry).contains(&dead));
    }
}
