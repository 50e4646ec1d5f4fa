//! Dynamic execution profiles.

use asip_ir::{BlockId, InstId, Value};

/// Per-instruction and per-block dynamic execution counts for one run,
/// plus a digest of each array's final contents.
///
/// This is the "3-address code with profile info" artifact flowing from
/// step 2 to step 3 in the paper's Figure 2. The output digests let the
/// evaluate stage check a rewritten program's outputs against this run
/// without simulating the baseline a second time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    inst_counts: Vec<u64>,
    block_counts: Vec<u64>,
    total_ops: u64,
    memory_digests: Vec<u64>,
}

/// FNV-1a 64 digest of one array's cells, fed as the 8 little-endian
/// bytes of each cell's bit pattern (see [`Profile::memory_digests`]).
pub(crate) fn cell_digest(cells: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in cells {
        for b in cell.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// [`cell_digest`] of an array of [`Value`]s.
pub(crate) fn value_digest(cells: &[Value]) -> u64 {
    cell_digest(cells.iter().map(|v| match *v {
        Value::Int(i) => i as u64,
        Value::Float(f) => f.to_bits(),
    }))
}

impl Profile {
    /// Create an empty profile sized for a program.
    pub fn new(inst_slots: usize, block_slots: usize) -> Self {
        Profile {
            inst_counts: vec![0; inst_slots],
            block_counts: vec![0; block_slots],
            total_ops: 0,
            memory_digests: Vec::new(),
        }
    }

    /// Record one execution of an instruction.
    #[inline]
    pub(crate) fn bump_inst(&mut self, id: InstId) {
        if id.index() >= self.inst_counts.len() {
            self.inst_counts.resize(id.index() + 1, 0);
        }
        self.inst_counts[id.index()] += 1;
        self.total_ops += 1;
    }

    /// Record one entry into a block.
    #[inline]
    pub(crate) fn bump_block(&mut self, id: BlockId) {
        if id.index() >= self.block_counts.len() {
            self.block_counts.resize(id.index() + 1, 0);
        }
        self.block_counts[id.index()] += 1;
    }

    /// Dynamic execution count of a static instruction.
    pub fn count(&self, id: InstId) -> u64 {
        self.inst_counts.get(id.index()).copied().unwrap_or(0)
    }

    /// Dynamic entry count of a block.
    pub fn block_count(&self, id: BlockId) -> u64 {
        self.block_counts.get(id.index()).copied().unwrap_or(0)
    }

    /// Total dynamic operations executed (every instruction counts one).
    ///
    /// Sequence frequencies in the paper's tables are percentages of this
    /// total ("the percentage of execution time for which that sequence
    /// accounts", one cycle per operation).
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// One digest per array of the program, in declaration order, of
    /// the array's contents when the run finished: FNV-1a 64 (the
    /// store's stable hasher) over the 8 little-endian bytes of each
    /// cell's bit pattern (`i64` as is, `f64` via [`f64::to_bits`]).
    ///
    /// Bit patterns, not values, are compared: `0.0` and `-0.0`
    /// differ, and two NaNs with the same bits are equal.
    pub fn memory_digests(&self) -> &[u64] {
        &self.memory_digests
    }

    /// Record the final-memory digests of a finished run.
    pub(crate) fn set_memory_digests(&mut self, digests: Vec<u64>) {
        self.memory_digests = digests;
    }

    /// Iterate over `(InstId, count)` for instructions that executed.
    pub fn executed_insts(&self) -> impl Iterator<Item = (InstId, u64)> + '_ {
        self.inst_counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (InstId(i as u32), c))
    }

    /// The raw per-instruction counts, indexed by [`InstId`]. Together
    /// with [`Profile::block_counts`], [`Profile::total_ops`] and
    /// [`Profile::memory_digests`] this is the profile's complete state,
    /// exposed so artifact stores can serialize profiles without
    /// reflective serialization support.
    pub fn inst_counts(&self) -> &[u64] {
        &self.inst_counts
    }

    /// The raw per-block entry counts, indexed by [`BlockId`].
    pub fn block_counts(&self) -> &[u64] {
        &self.block_counts
    }

    /// Reassemble a profile from the parts exposed by
    /// [`Profile::inst_counts`], [`Profile::block_counts`],
    /// [`Profile::total_ops`] and [`Profile::memory_digests`] (the
    /// decode half of profile persistence).
    pub fn from_parts(
        inst_counts: Vec<u64>,
        block_counts: Vec<u64>,
        total_ops: u64,
        memory_digests: Vec<u64>,
    ) -> Self {
        Profile {
            inst_counts,
            block_counts,
            total_ops,
            memory_digests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut p = Profile::new(4, 2);
        p.bump_inst(InstId(1));
        p.bump_inst(InstId(1));
        p.bump_inst(InstId(3));
        p.bump_block(BlockId(0));
        assert_eq!(p.count(InstId(1)), 2);
        assert_eq!(p.count(InstId(0)), 0);
        assert_eq!(p.count(InstId(99)), 0, "out of range reads as zero");
        assert_eq!(p.block_count(BlockId(0)), 1);
        assert_eq!(p.total_ops(), 3);
        let executed: Vec<_> = p.executed_insts().collect();
        assert_eq!(executed, vec![(InstId(1), 2), (InstId(3), 1)]);
    }

    #[test]
    fn digests_compare_bit_patterns() {
        let d = |v: f64| value_digest(&[Value::Float(v)]);
        assert_ne!(d(0.0), d(-0.0), "signed zeros differ");
        assert_eq!(d(f64::NAN), d(f64::NAN), "identical NaNs match");
        assert_eq!(
            value_digest(&[Value::Int(-1), Value::Float(2.5)]),
            cell_digest([u64::MAX, 2.5f64.to_bits()])
        );
        assert_ne!(
            value_digest(&[Value::Int(1), Value::Int(2)]),
            value_digest(&[Value::Int(2), Value::Int(1)])
        );
    }

    #[test]
    fn grows_on_demand() {
        let mut p = Profile::new(0, 0);
        p.bump_inst(InstId(10));
        p.bump_block(BlockId(5));
        assert_eq!(p.count(InstId(10)), 1);
        assert_eq!(p.block_count(BlockId(5)), 1);
    }
}
