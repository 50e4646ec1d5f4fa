//! The retained walk-the-IR reference interpreter.
//!
//! This is the original per-instruction enum-dispatch interpreter the
//! pre-decoded engine ([`crate::decode`]) replaced on the hot path. It
//! is kept as the *executable specification* of the machine model: the
//! differential test suite asserts that [`crate::Simulator`] (now a
//! facade over the decoded engine) produces byte-identical profiles,
//! memories, results and trace streams for every Table-1 benchmark and
//! for randomly generated programs.
//!
//! It is deliberately boring: one `match` per executed instruction,
//! straight off the IR, with per-step limit checks and bump-per-
//! instruction profiling. Any observable divergence between this and
//! the engine is a bug in the engine.

use crate::data::DataSet;
use crate::error::{Result, SimError};
use crate::machine::{eval_binop, eval_unop, Execution, DEFAULT_STEP_LIMIT};
use crate::profile::{value_digest, Profile};
use asip_ir::{ArrayKind, Inst, InstKind, Operand, Program, Reg, Ty, Value};

/// The reference profiling interpreter for one [`Program`].
///
/// Same machine model and public contract as [`crate::Simulator`]; see
/// the [module docs](self) for why it exists.
#[derive(Debug)]
pub struct ReferenceSimulator<'p> {
    program: &'p Program,
    step_limit: u64,
}

impl<'p> ReferenceSimulator<'p> {
    /// Create a reference simulator with the default step limit.
    pub fn new(program: &'p Program) -> Self {
        ReferenceSimulator {
            program,
            step_limit: DEFAULT_STEP_LIMIT,
        }
    }

    /// Override the dynamic step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Run the program on the given input data.
    ///
    /// # Errors
    ///
    /// Exactly as [`crate::Simulator::run`].
    pub fn run(&self, data: &DataSet) -> Result<Execution> {
        self.run_inner(data, None)
    }

    /// Run with an execution-trace observer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReferenceSimulator::run`].
    pub fn run_traced(
        &self,
        data: &DataSet,
        sink: &mut dyn crate::trace::TraceSink,
    ) -> Result<Execution> {
        self.run_inner(data, Some(sink))
    }

    fn run_inner(
        &self,
        data: &DataSet,
        mut sink: Option<&mut dyn crate::trace::TraceSink>,
    ) -> Result<Execution> {
        let program = self.program;
        let mut memory: Vec<Vec<Value>> = Vec::with_capacity(program.arrays.len());
        for decl in &program.arrays {
            match decl.kind {
                ArrayKind::Input => {
                    let bound = data.get(&decl.name).ok_or_else(|| SimError::UnboundInput {
                        name: decl.name.clone(),
                    })?;
                    if bound.len() != decl.len {
                        return Err(SimError::WrongLength {
                            name: decl.name.clone(),
                            expected: decl.len,
                            got: bound.len(),
                        });
                    }
                    if bound.iter().any(|v| v.ty() != decl.ty) {
                        return Err(SimError::WrongType {
                            name: decl.name.clone(),
                        });
                    }
                    memory.push(bound.to_vec());
                }
                ArrayKind::Output | ArrayKind::Internal => {
                    memory.push(vec![Value::zero(decl.ty); decl.len]);
                }
            }
        }

        let mut regs: Vec<Value> = program.reg_types.iter().map(|&t| Value::zero(t)).collect();
        let mut profile = Profile::new(program.next_inst_id as usize, program.blocks.len());
        let mut steps: u64 = 0;
        let mut block = program.entry;

        'outer: loop {
            profile.bump_block(block);
            let insts = &program.block(block).insts;
            for inst in insts {
                steps += 1;
                if steps > self.step_limit {
                    return Err(SimError::StepLimit {
                        limit: self.step_limit,
                    });
                }
                profile.bump_inst(inst.id);
                let flow = self.step(inst, &mut regs, &mut memory)?;
                if let Some(sink) = sink.as_deref_mut() {
                    sink.event(&crate::trace::TraceEvent {
                        step: steps,
                        block,
                        inst,
                        wrote: inst.dst().map(|d| regs[d.index()]),
                    });
                }
                match flow {
                    Flow::Next => {}
                    Flow::Goto(b) => {
                        block = b;
                        continue 'outer;
                    }
                    Flow::Halt(v) => {
                        profile
                            .set_memory_digests(memory.iter().map(|a| value_digest(a)).collect());
                        return Ok(Execution {
                            profile,
                            memory,
                            result: v,
                        });
                    }
                }
            }
            // validation guarantees a terminator, so this is unreachable
            unreachable!("block fell through without terminator");
        }
    }

    fn step(&self, inst: &Inst, regs: &mut [Value], memory: &mut [Vec<Value>]) -> Result<Flow> {
        let read = |o: &Operand, regs: &[Value]| -> Value {
            match o {
                Operand::Reg(r) => regs[r.index()],
                Operand::ImmInt(v) => Value::Int(*v),
                Operand::ImmFloat(v) => Value::Float(*v),
            }
        };
        let write = |r: Reg, v: Value, regs: &mut [Value]| {
            regs[r.index()] = v;
        };

        match &inst.kind {
            InstKind::Binary { op, dst, lhs, rhs } => {
                let a = read(lhs, regs);
                let b = read(rhs, regs);
                write(*dst, eval_binop(*op, a, b), regs);
                Ok(Flow::Next)
            }
            InstKind::Unary { op, dst, src } => {
                let v = read(src, regs);
                write(*dst, eval_unop(*op, v), regs);
                Ok(Flow::Next)
            }
            InstKind::Load { dst, array, index } => {
                let addr = read(index, regs).as_int();
                let decl = self.program.array(*array);
                let mem = &memory[array.index()];
                let slot = decl.element_of(addr).ok_or_else(|| SimError::OutOfBounds {
                    name: decl.name.clone(),
                    index: addr,
                    len: mem.len(),
                })?;
                let v = mem[slot];
                write(*dst, v, regs);
                Ok(Flow::Next)
            }
            InstKind::Store {
                array,
                index,
                value,
            } => {
                let addr = read(index, regs).as_int();
                let v = read(value, regs);
                let decl = self.program.array(*array);
                let len = memory[array.index()].len();
                let slot = decl.element_of(addr).ok_or_else(|| SimError::OutOfBounds {
                    name: decl.name.clone(),
                    index: addr,
                    len,
                })?;
                let mem = &mut memory[array.index()];
                // stores coerce to the array element type, like C
                mem[slot] = match self.program.array(*array).ty {
                    Ty::Int => Value::Int(v.as_int()),
                    Ty::Float => Value::Float(v.as_float()),
                };
                Ok(Flow::Next)
            }
            InstKind::Branch {
                cond,
                then_target,
                else_target,
            } => {
                let c = read(cond, regs);
                Ok(Flow::Goto(if c.is_truthy() {
                    *then_target
                } else {
                    *else_target
                }))
            }
            InstKind::Jump { target } => Ok(Flow::Goto(*target)),
            InstKind::Ret { value } => Ok(Flow::Halt(value.as_ref().map(|v| read(v, regs)))),
            InstKind::Chained {
                dst, inputs, ops, ..
            } => {
                // the contract shared with asip-synth's rewriter:
                // acc = ops[0](inputs[0], inputs[1]);
                // acc = ops[i](acc, inputs[i + 1]) for the rest
                let zero = Operand::ImmInt(0);
                let a = read(inputs.first().unwrap_or(&zero), regs);
                let b = read(inputs.get(1).unwrap_or(&zero), regs);
                let mut acc = match ops.first() {
                    Some(&op) => eval_binop(op, a, b),
                    None => a,
                };
                for (op, i) in ops.iter().skip(1).zip(inputs.iter().skip(2)) {
                    acc = eval_binop(*op, acc, read(i, regs));
                }
                write(*dst, acc, regs);
                Ok(Flow::Next)
            }
        }
    }
}

enum Flow {
    Next,
    Goto(asip_ir::BlockId),
    Halt(Option<Value>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{BinOp, ProgramBuilder};

    #[test]
    fn reference_still_computes() {
        let mut b = ProgramBuilder::new("t");
        let x = b.input_array("x", Ty::Int, 2);
        let e = b.entry_block();
        b.select_block(e);
        let v = b.load(x, Operand::imm_int(0));
        let w = b.binary(BinOp::Mul, v.into(), Operand::imm_int(3));
        b.ret(Some(w.into()));
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![7, 0]);
        let e = ReferenceSimulator::new(&p).run(&d).expect("runs");
        assert_eq!(e.result, Some(Value::Int(21)));
        assert_eq!(e.profile.total_ops(), 3);
    }
}
