//! The scheduled program graph: the optimizer's output and the sequence
//! detector's input.

use asip_ir::{BlockId, Inst, InstId, OpClass, Program};
use std::fmt;

/// Identifier of a node in a [`ScheduleGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into [`ScheduleGraph::nodes`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operation placed in a schedule node.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// The (possibly renamed/cloned) instruction.
    pub inst: Inst,
    /// Original instruction id, for profile attribution. Several copies
    /// (loop-pipelined iterations, duplicated hoists) may share one
    /// original.
    pub orig: InstId,
    /// Dynamic execution count attributed to this copy. Copies of an
    /// unrolled loop body split the original count evenly, so summing
    /// weights over copies reproduces the measured count.
    pub weight: f64,
}

/// A wide instruction: operations issued together in one cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedNode {
    /// Operations in this node.
    pub ops: Vec<ScheduledOp>,
    /// Successor nodes (control flow).
    pub succs: Vec<NodeId>,
    /// Predecessor nodes.
    pub preds: Vec<NodeId>,
    /// The source block this node descends from (metadata for dumps).
    pub block: BlockId,
}

/// The scheduled program graph.
///
/// Level-0 graphs have one op per node in sequential order; optimized
/// graphs have compacted nodes. Program-level context (which arrays hold
/// floats, the original profile total) travels with the graph so the
/// detector can classify ops and normalize frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleGraph {
    /// Program name.
    pub name: String,
    /// All nodes.
    pub nodes: Vec<SchedNode>,
    /// Entry node.
    pub entry: NodeId,
    /// `true` for arrays with float elements (drives `load` vs `fload`).
    pub arrays_float: Vec<bool>,
    /// Total dynamic operations of the *original* profiled run. All
    /// frequencies are percentages of this, at every optimization level,
    /// so levels are directly comparable (the paper plots them on one
    /// axis).
    pub total_profile_ops: u64,
    /// True for optimized graphs: percolation's code motions can bring
    /// *any* flow-dependent pair within one block region together, so the
    /// sequence detector treats whole-region flow as potentially
    /// chainable ("search a much broader set of possibilities", paper
    /// Section 4). Sequential (level-0) graphs leave this false: there
    /// the ordering is fixed and only window-adjacent ops can chain.
    pub region_chaining: bool,
}

impl ScheduleGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &SchedNode {
        &self.nodes[id.index()]
    }

    /// The op class of a scheduled op in this graph's context.
    pub fn class_of(&self, op: &ScheduledOp) -> OpClass {
        op.inst
            .class_with(|a| self.arrays_float.get(a.index()).copied().unwrap_or(false))
    }

    /// Iterate over all scheduled ops with their node ids.
    pub fn ops(&self) -> impl Iterator<Item = (NodeId, &ScheduledOp)> {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(i, n)| n.ops.iter().map(move |op| (NodeId(i as u32), op)))
    }

    /// Total scheduled weight of chainable (non-control) ops.
    pub fn chainable_weight(&self) -> f64 {
        self.ops()
            .filter(|(_, op)| self.class_of(op).is_chainable())
            .map(|(_, op)| op.weight)
            .sum()
    }

    /// Maximum number of ops in any node (the graph's "issue width").
    pub fn max_width(&self) -> usize {
        self.nodes.iter().map(|n| n.ops.len()).max().unwrap_or(0)
    }

    /// Cycle count estimate: sum over nodes of (node entry weight),
    /// where a node's entry weight is the maximum op weight it contains
    /// (every op in a node issues in the same cycle).
    ///
    /// Used by the ablation benches to show pipelining shortens the
    /// dynamic schedule even though total work is constant.
    pub fn weighted_cycles(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.ops.iter().map(|o| o.weight).fold(0.0_f64, f64::max))
            .sum()
    }

    /// Build the level-0 ("No Optimization") graph: one op per node, in
    /// sequential program order, weights from the profile.
    pub fn sequential(program: &Program, profile: &asip_sim::Profile) -> Self {
        let arrays_float: Vec<bool> = program
            .arrays
            .iter()
            .map(|a| a.ty == asip_ir::Ty::Float)
            .collect();
        let mut nodes: Vec<SchedNode> = Vec::with_capacity(program.inst_count());
        // first node of each block, for wiring cross-block edges
        let mut block_first: Vec<Option<NodeId>> = vec![None; program.blocks.len()];
        let mut block_last: Vec<Option<NodeId>> = vec![None; program.blocks.len()];

        for block in program.blocks() {
            let mut prev: Option<NodeId> = None;
            for inst in &block.insts {
                let id = NodeId(nodes.len() as u32);
                nodes.push(SchedNode {
                    ops: vec![ScheduledOp {
                        inst: inst.clone(),
                        orig: inst.id,
                        weight: profile.count(inst.id) as f64,
                    }],
                    succs: Vec::new(),
                    preds: Vec::new(),
                    block: block.id,
                });
                if let Some(p) = prev {
                    nodes[p.index()].succs.push(id);
                    nodes[id.index()].preds.push(p);
                }
                if block_first[block.id.index()].is_none() {
                    block_first[block.id.index()] = Some(id);
                }
                block_last[block.id.index()] = Some(id);
                prev = Some(id);
            }
        }
        // cross-block edges: last node of a block -> first node of each successor
        for block in program.blocks() {
            let Some(last) = block_last[block.id.index()] else {
                continue;
            };
            for s in block.successors() {
                if let Some(first) = block_first[s.index()] {
                    nodes[last.index()].succs.push(first);
                    nodes[first.index()].preds.push(last);
                }
            }
        }
        let entry = block_first[program.entry.index()].unwrap_or(NodeId(0));
        ScheduleGraph {
            name: program.name.clone(),
            nodes,
            entry,
            arrays_float,
            total_profile_ops: profile.total_ops(),
            region_chaining: false,
        }
    }

    /// Structural sanity check: edges are symmetric and in range.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            for &s in &n.succs {
                if s.index() >= self.nodes.len() {
                    return Err(format!("n{i} has out-of-range successor {s}"));
                }
                if !self.nodes[s.index()].preds.contains(&NodeId(i as u32)) {
                    return Err(format!("edge n{i} -> {s} missing reverse edge"));
                }
            }
            for op in &n.ops {
                if op.weight < 0.0 || !op.weight.is_finite() {
                    return Err(format!("n{i} has invalid weight {}", op.weight));
                }
            }
        }
        if self.entry.index() >= self.nodes.len() && !self.nodes.is_empty() {
            return Err("entry out of range".into());
        }
        Ok(())
    }
}

impl fmt::Display for ScheduleGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule \"{}\" ({} nodes) {{",
            self.name,
            self.nodes.len()
        )?;
        for (i, n) in self.nodes.iter().enumerate() {
            let succs: Vec<String> = n.succs.iter().map(|s| s.to_string()).collect();
            writeln!(f, "  n{i} [{}] -> {}", n.block, succs.join(", "))?;
            for op in &n.ops {
                writeln!(
                    f,
                    "    {} (w={:.1})",
                    asip_ir::print::DisplayInst(&op.inst),
                    op.weight
                )?;
            }
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
    use asip_sim::{DataSet, Simulator};

    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new("g");
        let x = b.input_array("x", Ty::Int, 4);
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_reg(Ty::Int);
        let acc = b.new_reg(Ty::Int);
        b.select_block(entry);
        b.mov_to(i, Operand::imm_int(0));
        b.mov_to(acc, Operand::imm_int(0));
        b.jump(body);
        b.select_block(body);
        let v = b.load(x, i.into());
        b.binary_to(acc, BinOp::Add, acc.into(), v.into());
        b.binary_to(i, BinOp::Add, i.into(), Operand::imm_int(1));
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(4));
        b.branch(c.into(), body, exit);
        b.select_block(exit);
        b.ret(Some(acc.into()));
        b.finish().expect("valid")
    }

    fn run(p: &Program) -> asip_sim::Profile {
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2, 3, 4]);
        Simulator::new(p).run(&d).expect("runs").profile
    }

    #[test]
    fn sequential_graph_mirrors_program() {
        let p = loop_program();
        let profile = run(&p);
        let g = ScheduleGraph::sequential(&p, &profile);
        assert_eq!(g.node_count(), p.inst_count());
        g.check_invariants().expect("invariants");
        assert_eq!(g.max_width(), 1);
        // weights match profile counts
        for (_, op) in g.ops() {
            assert_eq!(op.weight, profile.count(op.orig) as f64);
        }
        assert_eq!(g.total_profile_ops, profile.total_ops());
    }

    #[test]
    fn sequential_graph_has_back_edge() {
        let p = loop_program();
        let g = ScheduleGraph::sequential(&p, &run(&p));
        // the branch node of the body points back to the body's first node
        let branch_node = g
            .nodes
            .iter()
            .position(|n| n.ops[0].inst.is_terminator() && n.succs.len() == 2)
            .expect("branch node");
        let body_first = g
            .nodes
            .iter()
            .position(|n| n.block == BlockId(1))
            .expect("body node");
        assert!(g.nodes[branch_node]
            .succs
            .contains(&NodeId(body_first as u32)));
    }

    #[test]
    fn chainable_weight_excludes_control() {
        let p = loop_program();
        let profile = run(&p);
        let g = ScheduleGraph::sequential(&p, &profile);
        let total: f64 = g.ops().map(|(_, o)| o.weight).sum();
        assert!(g.chainable_weight() < total);
        assert!(g.chainable_weight() > 0.0);
    }

    #[test]
    fn display_dump_mentions_nodes() {
        let p = loop_program();
        let g = ScheduleGraph::sequential(&p, &run(&p));
        let s = g.to_string();
        assert!(s.contains("schedule \"g\""));
        assert!(s.contains("n0"));
    }

    #[test]
    fn invariant_check_catches_asymmetric_edge() {
        let p = loop_program();
        let mut g = ScheduleGraph::sequential(&p, &run(&p));
        g.nodes[0].succs.push(NodeId(2));
        assert!(g.check_invariants().is_err());
    }
}
