//! The pre-decoded execution engine.
//!
//! [`DecodedProgram::decode`] lowers a [`Program`] once into a dense,
//! flat instruction array the interpreter can execute without touching
//! the IR (or the boxed [`Value`] representation) again:
//!
//! - every instruction becomes one copy-only decoded entry in a
//!   single `Vec`, grouped by block with per-block index ranges;
//! - all run-time data lives in two **typed arenas**: one flat `i64`
//!   allocation and one flat `f64` allocation, each laid out
//!   `[arrays][registers][constants]`. Operand types are static in
//!   the IR (registers are typed, validation pins operand types per
//!   op), so every operand resolves at decode time to an arena slot
//!   and the hot loop does raw machine arithmetic — no `Value` enum
//!   packing, unpacking or coercion;
//! - array accesses carry their bounds/offset/element size inline
//!   (with specialized element-indexed variants for the default
//!   `base = 0, elem_size = 1` layout that skip the address
//!   arithmetic);
//! - branch targets are resolved to decoded block indices;
//! - chained super-instructions are flattened into a side table and
//!   evaluated in the generic [`Value`] domain (they are rare and
//!   their contract is defined over [`eval_binop`]).
//!
//! The hot loop exploits two structural invariants (established at
//! decode time):
//!
//! - **block-granular stepping** — a well-formed block has its single
//!   terminator last, so entering a block of `n` instructions executes
//!   exactly `n` dynamic operations. The step-limit check runs once per
//!   block; only a block that *could* cross the limit falls back to a
//!   per-instruction careful loop that reproduces the reference
//!   interpreter's exact error ordering.
//! - **derived profiles** — for the same reason, every instruction in a
//!   block executes exactly once per block entry, so the hot loop only
//!   counts block entries; per-instruction counts (and `total_ops`) are
//!   reconstructed from the block counters after the run, via
//!   precomputed per-block profile-slot lists. The result is
//!   byte-identical to the reference interpreter's bump-per-instruction
//!   profile.
//!
//! Per-run state lives in a reusable, arena-backed `RunState`: both
//! typed arenas are single allocations sized once at decode time and
//! **reset by `memcpy`** from the decoded init images at the start of
//! every run. [`Engine`] pools states internally, so sweeps that run
//! the same decoded program thousands of times (ablation, design-space
//! search, batched profiling) perform zero per-run bank allocations —
//! see [`Engine::run_pooled`] and [`Engine::bind`] (input validation
//! hoisted out of the per-run path). Output memory is materialized
//! lazily: profile-only runs never re-box arenas into `Vec<Value>`.
//!
//! Error paths allocate nothing until an error actually occurs: the
//! decoded load/store entries carry only declaration indices, and the
//! array name for an [`SimError::OutOfBounds`] message is rebuilt from
//! the decode-time array plan at error time.
//!
//! Traced runs ([`Engine::run_traced`]) use a separate specialized loop
//! so the untraced hot path carries no `Option<sink>` check; the trace
//! loop rebuilds each event's `&Inst` from a decoded-index origin
//! table.
//!
//! ## Decode-time validation vs run-time checks
//!
//! Decoding assumes a structurally *and type* valid program (the
//! builder and the parser validate; see [`Program::validate`]) and
//! resolves every register, array and block reference — and every
//! operand type — eagerly. A dangling reference or an operand type
//! validation would reject panics at decode time, where the reference
//! interpreter would only panic (or silently coerce) if the broken
//! instruction were ever executed. Data-dependent conditions (input
//! binding, array indices, the step limit) remain run-time checks with
//! the exact error values of the reference interpreter.
//!
//! ## Example
//!
//! ```
//! use asip_sim::{DataSet, Engine};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let program = {
//! #     use asip_ir::{BinOp, Operand, ProgramBuilder, Ty};
//! #     let mut b = ProgramBuilder::new("t");
//! #     let x = b.input_array("x", Ty::Int, 4);
//! #     let e = b.entry_block();
//! #     b.select_block(e);
//! #     let v = b.load(x, Operand::imm_int(0));
//! #     let _ = b.binary(BinOp::Add, v.into(), Operand::imm_int(1));
//! #     b.ret(None);
//! #     b.finish()?
//! # };
//! // decode once, run many times
//! let engine = Engine::new(Arc::new(program));
//! let mut data = DataSet::new();
//! data.bind_ints("x", vec![1, 2, 3, 4]);
//! let first = engine.run(&data)?;
//! let again = engine.run(&data)?;
//! assert_eq!(first.profile, again.profile);
//! # Ok(())
//! # }
//! ```

use crate::data::DataSet;
use crate::error::{Result, SimError};
use crate::machine::{eval_binop, Execution};
use crate::profile::Profile;
use crate::trace::{TraceEvent, TraceSink};
use asip_ir::{ArrayKind, BinOp, InstKind, Operand, Program, Ty, UnOp, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One pre-decoded instruction: a copy-only struct whose operands are
/// slots into the typed register banks.
#[derive(Debug, Clone, Copy)]
enum DecodedInst {
    /// Integer-domain binary op (including comparisons): `ints[dst] =
    /// op(ints[lhs], ints[rhs])`.
    IntBin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Float-domain binary op with a float result.
    FloatBin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Float comparison: float operands, integer (0/1) result.
    FloatCmp {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Integer unary op (`neg`, `not`, int `mov`).
    IntUn { op: UnOp, dst: u32, src: u32 },
    /// Float unary op (`fneg`, float `mov`, math functions).
    FloatUn { op: UnOp, dst: u32, src: u32 },
    /// `floats[dst] = ints[src] as f64`
    IntToFloat { dst: u32, src: u32 },
    /// `ints[dst] = floats[src] as i64` (truncating, like C)
    FloatToInt { dst: u32, src: u32 },
    /// Element-indexed load from an int array (`base = 0, elem = 1`);
    /// `decl` indexes the `direct` arena-span table.
    LoadInt { dst: u32, decl: u32, index: u32 },
    /// Int-array load through the general address layout (`arr` is the
    /// declaration index; the address plan lives there).
    LoadIntAddr { dst: u32, arr: u32, index: u32 },
    /// Element-indexed load from a float array.
    LoadFloat { dst: u32, decl: u32, index: u32 },
    /// Float-array load through the general address layout.
    LoadFloatAddr { dst: u32, arr: u32, index: u32 },
    /// Element-indexed store to an int array.
    StoreInt { decl: u32, index: u32, value: u32 },
    /// Int-array store through the general address layout.
    StoreIntAddr { arr: u32, index: u32, value: u32 },
    /// Element-indexed store to a float array.
    StoreFloat { decl: u32, index: u32, value: u32 },
    /// Float-array store through the general address layout.
    StoreFloatAddr { arr: u32, index: u32, value: u32 },
    /// Conditional branch on a non-zero integer condition.
    Branch { cond: u32, then_b: u32, else_b: u32 },
    /// Decode-time fusion of an integer binary op feeding the block's
    /// terminating branch (the dominant loop back-edge pattern:
    /// `cmp` + `br`). Counts as **two** dynamic steps and two profile
    /// slots; the destination register is still written.
    IntBinBranch {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_b: u32,
        else_b: u32,
    },
    /// Fusion of a float comparison feeding the terminating branch.
    FloatCmpBranch {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_b: u32,
        else_b: u32,
    },
    /// Mov-chain collapse: an integer binary op whose result the next
    /// instruction `mov`s into a second register (`v = op(lhs, rhs);
    /// dst = v; dst2 = v` — the accumulator-update idiom). Two steps.
    IntBinMov {
        op: BinOp,
        dst: u32,
        dst2: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Mov-chain collapse of a float binary op feeding a float `mov`.
    FloatBinMov {
        op: BinOp,
        dst: u32,
        dst2: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Address-arithmetic fusion: an integer binary op whose result
    /// immediately indexes a direct-layout int array load
    /// (`v = op(lhs, rhs); dst = v; ld = array[v]`). Two steps.
    IntBinLoadInt {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        ld: u32,
        decl: u32,
    },
    /// Address-arithmetic fusion feeding a direct float-array load.
    IntBinLoadFloat {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        ld: u32,
        decl: u32,
    },
    /// Unconditional jump to a decoded block index.
    Jump { target: u32 },
    /// `ret` with no value.
    RetNone,
    /// `ret` of an integer slot.
    RetInt { src: u32 },
    /// `ret` of a float slot.
    RetFloat { src: u32 },
    /// Chained super-instruction; `plan` indexes the chain side table.
    Chained { dst: u32, plan: u32 },
    /// Decode-time marker for a block without a terminator. Executing
    /// it reproduces the reference interpreter's panic; it costs no
    /// dynamic step and has no profile slot.
    Unterminated,
}

/// The decoded shape of one basic block.
#[derive(Debug, Clone, Copy)]
struct BlockPlan {
    /// First decoded index of this block.
    start: u32,
    /// One past the last decoded index (sentinel included, if any).
    end: u32,
    /// Dynamic operations one entry executes (sentinel excluded).
    steps: u32,
}

/// Decode-time metadata for one declared array: its arena placement,
/// address layout, and the binding/error context (name, kind).
#[derive(Debug, Clone)]
struct ArrayPlan {
    name: String,
    ty: Ty,
    len: usize,
    kind: ArrayKind,
    base: i64,
    elem_size: i64,
    /// Element offset of this array's span in the matching typed
    /// arena.
    offset: u32,
}

/// The hot-path address plan for one declared array: a compact copy of
/// the layout fields (no name string nearby), with power-of-two element
/// sizes strength-reduced to shift/mask at decode time. Indexed by
/// declaration order, like `arrays`.
#[derive(Debug, Clone, Copy)]
struct AddrPlan {
    base: i64,
    elem: i64,
    /// `log2(elem)` when `pow2`.
    shift: u32,
    /// `elem - 1` when `pow2`.
    mask: i64,
    len: usize,
    /// Element offset of the array's span in the matching typed arena.
    offset: u32,
    pow2: bool,
}

/// The arena span of one declared array, for direct-layout accesses
/// and input binding: element offset into the matching typed arena,
/// and length. Indexed by declaration order, like `arrays`.
#[derive(Debug, Clone, Copy)]
struct Direct {
    off: u32,
    len: u32,
}

impl AddrPlan {
    /// [`asip_ir::ArrayDecl::element_of`], inlined and
    /// strength-reduced.
    #[inline(always)]
    fn element_of(&self, addr: i64) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        if off < 0 {
            return None;
        }
        let idx = if self.pow2 {
            if off & self.mask != 0 {
                return None;
            }
            (off >> self.shift) as usize
        } else {
            if off % self.elem != 0 {
                return None;
            }
            (off / self.elem) as usize
        };
        (idx < self.len).then_some(idx)
    }
}

/// A typed bank slot (for the generic chained-op path).
#[derive(Debug, Clone, Copy)]
enum TSlot {
    /// Integer-bank slot.
    I(u32),
    /// Float-bank slot.
    F(u32),
}

/// A flattened chained super-instruction: `acc = head(lhs, rhs)` (or
/// `lhs` with no head op), then `acc = op(acc, slot)` per tail step —
/// the evaluation contract shared with the rewriter. Chains are
/// evaluated in the generic [`Value`] domain; they are rare (only
/// rewritten programs contain them) and their contract is defined over
/// [`eval_binop`].
#[derive(Debug, Clone)]
struct ChainPlan {
    head: Option<BinOp>,
    lhs: TSlot,
    rhs: TSlot,
    tail: Vec<(BinOp, TSlot)>,
    dst_float: bool,
}

/// Control-flow outcome of one executed instruction. Kept small and
/// allocation-free; error context is rebuilt by the caller from the
/// payload only when an error actually occurs.
enum Step {
    Next,
    Goto(u32),
    Halt(Option<Value>),
    /// Out-of-bounds access: the offending *declaration* index and
    /// address (enough to rebuild the exact reference error).
    Oob {
        decl: u32,
        addr: i64,
    },
}

/// A reusable, arena-backed run state: one flat `i64` arena and one
/// flat `f64` arena (each laid out `[arrays][registers][constants]`)
/// plus the per-block entry counters. Checked out of the engine's
/// internal pool by the pooled run APIs; every run resets it by
/// `memcpy` from the decoded init images before executing, so a
/// faulted or interrupted run can never leak state into the next one.
#[derive(Debug)]
pub(crate) struct RunState {
    ints: Vec<i64>,
    floats: Vec<f64>,
    block_counts: Vec<u64>,
}

/// Input bindings validated and converted once per `(program,
/// dataset)` pair: the typed values of every input array plus the
/// arena offsets they are copied to at the start of each run.
/// Re-validating and re-collecting bindings per run is the other half
/// of the per-run allocation storm pooled run states remove — prepare
/// once with [`Engine::bind`], reuse across a whole sweep.
#[derive(Debug, Clone)]
pub struct BoundInputs {
    ints: Vec<(u32, Vec<i64>)>,
    floats: Vec<(u32, Vec<f64>)>,
    /// Arena-size stamps: a `BoundInputs` only fits the program whose
    /// arenas have exactly these sizes (checked on every run).
    int_arena: usize,
    float_arena: usize,
}

/// What a profile-only run produces: everything an [`Execution`]
/// carries except the materialized output memory (see
/// [`Engine::run_pooled`]; [`Engine::run`] materializes the outputs
/// when they are actually needed).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The derived execution profile.
    pub profile: Profile,
    /// The program's `ret` value, if any.
    pub result: Option<Value>,
}

/// Run-state pool counters (see [`Engine::run_state_stats`]): how many
/// runs checked a state out, and how many of those had to allocate a
/// fresh one. `creates` staying flat while `checkouts` grows is the
/// "zero per-run bank allocations" property the ablation bench
/// asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStateStats {
    /// Runs that acquired a run state (pooled or freshly allocated).
    pub checkouts: u64,
    /// Checkouts that had to allocate a fresh state.
    pub creates: u64,
}

impl RunStateStats {
    /// Fold another engine's counters into this aggregate.
    pub fn absorb(&mut self, other: RunStateStats) {
        self.checkouts += other.checkouts;
        self.creates += other.creates;
    }
}

/// A program lowered to the dense decoded form. Decode once with
/// [`DecodedProgram::decode`], execute any number of times; the decoded
/// form borrows nothing, so it can be cached next to (or inside) an
/// `Arc<Program>` — see [`Engine`].
#[derive(Debug)]
pub struct DecodedProgram {
    insts: Vec<DecodedInst>,
    /// `(block index, position in block)` per decoded index, for
    /// rebuilding trace events and error context from a decoded index.
    origins: Vec<(u32, u32)>,
    blocks: Vec<BlockPlan>,
    /// Per-block profile slots (instruction ids), flattened; indexed by
    /// the same ranges as `insts` minus sentinels via `profile_ranges`.
    profile_slots: Vec<u32>,
    /// `(start, end)` into `profile_slots` per block.
    profile_ranges: Vec<(u32, u32)>,
    arrays: Vec<ArrayPlan>,
    /// Hot-path address plans, parallel to `arrays`.
    addr_plans: Vec<AddrPlan>,
    /// Arena spans per declared array, parallel to `arrays`.
    direct: Vec<Direct>,
    chains: Vec<ChainPlan>,
    /// Init image of the int arena, laid out
    /// `[arrays][registers][constants]` (arrays and registers zeroed,
    /// constants materialized). A `RunState` is reset by copying
    /// these images over its arenas.
    image_ints: Vec<i64>,
    /// Init image of the float arena, same layout.
    image_floats: Vec<f64>,
    entry: u32,
    /// `Profile` sizing (the program's `next_inst_id`).
    inst_slots: usize,
    /// Working-count sizing: `max(inst_slots, max decoded id + 1)`.
    count_slots: usize,
}

/// Decode-time register/constant slot assignment for one arena.
struct Bank {
    consts_i: Vec<i64>,
    consts_f: Vec<f64>,
    /// First constant slot: arrays and registers precede the pool.
    const_base: u32,
    is_float: bool,
}

impl Bank {
    fn const_slot_i(&mut self, v: i64) -> u32 {
        debug_assert!(!self.is_float);
        let idx = match self.consts_i.iter().position(|&c| c == v) {
            Some(i) => i,
            None => {
                self.consts_i.push(v);
                self.consts_i.len() - 1
            }
        };
        self.const_base + idx as u32
    }

    fn const_slot_f(&mut self, v: f64) -> u32 {
        debug_assert!(self.is_float);
        let idx = match self
            .consts_f
            .iter()
            .position(|&c| c.to_bits() == v.to_bits())
        {
            Some(i) => i,
            None => {
                self.consts_f.push(v);
                self.consts_f.len() - 1
            }
        };
        self.const_base + idx as u32
    }
}

/// Decode-time context shared by the per-instruction lowering.
struct Lowering {
    /// Register index → bank-local slot.
    reg_slots: Vec<u32>,
    /// Register index → is the float bank?
    reg_float: Vec<bool>,
    int_bank: Bank,
    float_bank: Bank,
}

impl Lowering {
    /// Resolve an operand that validation pins to `want`.
    fn slot(&mut self, o: &Operand, want: Ty) -> u32 {
        match (o, want) {
            (Operand::Reg(r), _) => {
                let i = r.index();
                assert!(i < self.reg_slots.len(), "decode: dangling register {r}");
                assert!(
                    self.reg_float[i] == (want == Ty::Float),
                    "decode: register {r} is not of type {want}"
                );
                self.reg_slots[i]
            }
            (Operand::ImmInt(v), Ty::Int) => self.int_bank.const_slot_i(*v),
            (Operand::ImmFloat(v), Ty::Float) => self.float_bank.const_slot_f(*v),
            (o, want) => panic!("decode: operand {o} is not of type {want}"),
        }
    }

    /// Resolve an operand of either type to a typed slot (chains).
    fn tslot(&mut self, o: &Operand) -> TSlot {
        match o {
            Operand::Reg(r) => {
                let i = r.index();
                assert!(i < self.reg_slots.len(), "decode: dangling register {r}");
                if self.reg_float[i] {
                    TSlot::F(self.reg_slots[i])
                } else {
                    TSlot::I(self.reg_slots[i])
                }
            }
            Operand::ImmInt(v) => TSlot::I(self.int_bank.const_slot_i(*v)),
            Operand::ImmFloat(v) => TSlot::F(self.float_bank.const_slot_f(*v)),
        }
    }

    /// The bank slot of a destination register, asserting its type.
    fn dst(&self, r: asip_ir::Reg, want: Ty) -> u32 {
        let i = r.index();
        assert!(i < self.reg_slots.len(), "decode: dangling register {r}");
        assert!(
            self.reg_float[i] == (want == Ty::Float),
            "decode: destination {r} is not of type {want}"
        );
        self.reg_slots[i]
    }
}

impl DecodedProgram {
    /// Lower a program into the decoded form.
    ///
    /// # Panics
    ///
    /// Panics on dangling register, array or block references and on
    /// operand type mismatches — the conditions [`Program::validate`]
    /// rejects. Programs built through [`asip_ir::ProgramBuilder`], the
    /// parser, or the synthesis rewriter are always valid.
    pub fn decode(program: &Program) -> Self {
        // -- arena layout ---------------------------------------------
        // per-type arenas laid out `[arrays][registers][constants]`:
        // array offsets must be known while lowering loads and stores,
        // and the constant pools only finish growing during lowering,
        // so arrays come first and constants last. Constant slots
        // therefore always compare greater than register slots, which
        // the fusion peepholes below rely on.
        let (mut int_off, mut float_off) = (0u32, 0u32);
        let arrays: Vec<ArrayPlan> = program
            .arrays
            .iter()
            .map(|a| {
                let cursor = if a.ty == Ty::Float {
                    &mut float_off
                } else {
                    &mut int_off
                };
                let offset = *cursor;
                *cursor += a.len as u32;
                ArrayPlan {
                    name: a.name.clone(),
                    ty: a.ty,
                    len: a.len,
                    kind: a.kind,
                    base: a.base,
                    elem_size: a.elem_size,
                    offset,
                }
            })
            .collect();
        let addr_plans: Vec<AddrPlan> = arrays
            .iter()
            .map(|p| {
                let pow2 = p.elem_size > 0 && (p.elem_size & (p.elem_size - 1)) == 0;
                AddrPlan {
                    base: p.base,
                    elem: p.elem_size,
                    shift: if pow2 {
                        p.elem_size.trailing_zeros()
                    } else {
                        0
                    },
                    mask: if pow2 { p.elem_size - 1 } else { 0 },
                    len: p.len,
                    offset: p.offset,
                    pow2,
                }
            })
            .collect();
        let direct: Vec<Direct> = arrays
            .iter()
            .map(|p| Direct {
                off: p.offset,
                len: p.len as u32,
            })
            .collect();

        let mut reg_slots = Vec::with_capacity(program.reg_types.len());
        let mut reg_float = Vec::with_capacity(program.reg_types.len());
        let (mut n_int, mut n_float) = (0u32, 0u32);
        for &ty in &program.reg_types {
            if ty == Ty::Float {
                reg_slots.push(float_off + n_float);
                reg_float.push(true);
                n_float += 1;
            } else {
                reg_slots.push(int_off + n_int);
                reg_float.push(false);
                n_int += 1;
            }
        }
        let mut lower = Lowering {
            reg_slots,
            reg_float,
            int_bank: Bank {
                consts_i: Vec::new(),
                consts_f: Vec::new(),
                const_base: int_off + n_int,
                is_float: false,
            },
            float_bank: Bank {
                consts_i: Vec::new(),
                consts_f: Vec::new(),
                const_base: float_off + n_float,
                is_float: true,
            },
        };
        let array_plan = |a: asip_ir::ArrayId| -> &ArrayPlan {
            assert!(a.index() < arrays.len(), "decode: dangling array {a}");
            &arrays[a.index()]
        };
        let block_index = |b: asip_ir::BlockId| -> u32 {
            assert!(
                b.index() < program.blocks.len(),
                "decode: dangling block {b}"
            );
            b.0
        };

        // -- instruction lowering -------------------------------------
        let mut insts = Vec::with_capacity(program.inst_count() + 1);
        let mut origins = Vec::with_capacity(insts.capacity());
        let mut blocks = Vec::with_capacity(program.blocks.len());
        let mut profile_slots = Vec::with_capacity(program.inst_count());
        let mut profile_ranges = Vec::with_capacity(program.blocks.len());
        let mut chains: Vec<ChainPlan> = Vec::new();
        let mut max_id = 0usize;

        for (bi, block) in program.blocks.iter().enumerate() {
            let start = insts.len() as u32;
            let pstart = profile_slots.len() as u32;
            let mut terminated = false;
            let mut source_steps = 0u32;
            for (pos, inst) in block.insts.iter().enumerate() {
                let decoded = match &inst.kind {
                    InstKind::Binary { op, dst, lhs, rhs } => {
                        if !op.is_float() {
                            DecodedInst::IntBin {
                                op: *op,
                                dst: lower.dst(*dst, Ty::Int),
                                lhs: lower.slot(lhs, Ty::Int),
                                rhs: lower.slot(rhs, Ty::Int),
                            }
                        } else if op.result_ty() == Ty::Int {
                            DecodedInst::FloatCmp {
                                op: *op,
                                dst: lower.dst(*dst, Ty::Int),
                                lhs: lower.slot(lhs, Ty::Float),
                                rhs: lower.slot(rhs, Ty::Float),
                            }
                        } else {
                            DecodedInst::FloatBin {
                                op: *op,
                                dst: lower.dst(*dst, Ty::Float),
                                lhs: lower.slot(lhs, Ty::Float),
                                rhs: lower.slot(rhs, Ty::Float),
                            }
                        }
                    }
                    InstKind::Unary { op, dst, src } => match op {
                        UnOp::Neg | UnOp::Not => DecodedInst::IntUn {
                            op: *op,
                            dst: lower.dst(*dst, Ty::Int),
                            src: lower.slot(src, Ty::Int),
                        },
                        UnOp::FNeg | UnOp::Math(_) => DecodedInst::FloatUn {
                            op: *op,
                            dst: lower.dst(*dst, Ty::Float),
                            src: lower.slot(src, Ty::Float),
                        },
                        UnOp::IntToFloat => DecodedInst::IntToFloat {
                            dst: lower.dst(*dst, Ty::Float),
                            src: lower.slot(src, Ty::Int),
                        },
                        UnOp::FloatToInt => DecodedInst::FloatToInt {
                            dst: lower.dst(*dst, Ty::Int),
                            src: lower.slot(src, Ty::Float),
                        },
                        UnOp::Mov => {
                            let src_ty = match src {
                                Operand::Reg(r) => program.reg_ty(*r),
                                Operand::ImmInt(_) => Ty::Int,
                                Operand::ImmFloat(_) => Ty::Float,
                            };
                            let decoded_src = lower.slot(src, src_ty);
                            if src_ty == Ty::Float {
                                DecodedInst::FloatUn {
                                    op: UnOp::Mov,
                                    dst: lower.dst(*dst, Ty::Float),
                                    src: decoded_src,
                                }
                            } else {
                                DecodedInst::IntUn {
                                    op: UnOp::Mov,
                                    dst: lower.dst(*dst, Ty::Int),
                                    src: decoded_src,
                                }
                            }
                        }
                    },
                    InstKind::Load { dst, array, index } => {
                        let plan = array_plan(*array);
                        let direct = plan.base == 0 && plan.elem_size == 1;
                        // every variant carries the *declaration*
                        // index: the direct span table and the address
                        // plans are both declaration-ordered
                        let decl = array.index() as u32;
                        let is_float = plan.ty == Ty::Float;
                        let index = lower.slot(index, Ty::Int);
                        if is_float {
                            let dst = lower.dst(*dst, Ty::Float);
                            if direct {
                                DecodedInst::LoadFloat { dst, decl, index }
                            } else {
                                DecodedInst::LoadFloatAddr {
                                    dst,
                                    arr: decl,
                                    index,
                                }
                            }
                        } else {
                            let dst = lower.dst(*dst, Ty::Int);
                            if direct {
                                DecodedInst::LoadInt { dst, decl, index }
                            } else {
                                DecodedInst::LoadIntAddr {
                                    dst,
                                    arr: decl,
                                    index,
                                }
                            }
                        }
                    }
                    InstKind::Store {
                        array,
                        index,
                        value,
                    } => {
                        let plan = array_plan(*array);
                        let direct = plan.base == 0 && plan.elem_size == 1;
                        let decl = array.index() as u32;
                        let is_float = plan.ty == Ty::Float;
                        let index = lower.slot(index, Ty::Int);
                        let value = lower.slot(value, plan.ty);
                        match (is_float, direct) {
                            (false, true) => DecodedInst::StoreInt { decl, index, value },
                            (false, false) => DecodedInst::StoreIntAddr {
                                arr: decl,
                                index,
                                value,
                            },
                            (true, true) => DecodedInst::StoreFloat { decl, index, value },
                            (true, false) => DecodedInst::StoreFloatAddr {
                                arr: decl,
                                index,
                                value,
                            },
                        }
                    }
                    InstKind::Branch {
                        cond,
                        then_target,
                        else_target,
                    } => DecodedInst::Branch {
                        cond: lower.slot(cond, Ty::Int),
                        then_b: block_index(*then_target),
                        else_b: block_index(*else_target),
                    },
                    InstKind::Jump { target } => DecodedInst::Jump {
                        target: block_index(*target),
                    },
                    InstKind::Ret { value } => match value {
                        None => DecodedInst::RetNone,
                        Some(o) => {
                            let ty = match o {
                                Operand::Reg(r) => program.reg_ty(*r),
                                Operand::ImmInt(_) => Ty::Int,
                                Operand::ImmFloat(_) => Ty::Float,
                            };
                            let src = lower.slot(o, ty);
                            if ty == Ty::Float {
                                DecodedInst::RetFloat { src }
                            } else {
                                DecodedInst::RetInt { src }
                            }
                        }
                    },
                    InstKind::Chained {
                        dst, inputs, ops, ..
                    } => {
                        let mut in_slots: Vec<TSlot> =
                            inputs.iter().map(|o| lower.tslot(o)).collect();
                        // the contract zero-fills missing head inputs
                        while in_slots.len() < 2 {
                            in_slots.push(TSlot::I(lower.int_bank.const_slot_i(0)));
                        }
                        let tail = ops
                            .iter()
                            .skip(1)
                            .zip(in_slots.iter().skip(2))
                            .map(|(op, slot)| (*op, *slot))
                            .collect();
                        let dst_float = program.reg_ty(*dst) == Ty::Float;
                        chains.push(ChainPlan {
                            head: ops.first().copied(),
                            lhs: in_slots[0],
                            rhs: in_slots[1],
                            tail,
                            dst_float,
                        });
                        DecodedInst::Chained {
                            dst: lower.dst(*dst, program.reg_ty(*dst)),
                            plan: (chains.len() - 1) as u32,
                        }
                    }
                };
                // peepholes: fuse a producer into the consumer that
                // immediately follows it in the same block when the
                // consumer reads exactly the register the producer
                // wrote — the loop back-edge compare+branch, the
                // accumulator mov chain, and address arithmetic
                // feeding a direct load. A consumer operand that is a
                // constant slot can never alias a produced register
                // (constants sit above all registers in the arena),
                // and fused variants are never matched as producers,
                // so fusion is single-level by construction.
                let decoded = match decoded {
                    DecodedInst::Branch {
                        cond,
                        then_b,
                        else_b,
                    } if insts.len() as u32 > start => match insts.last() {
                        Some(&DecodedInst::IntBin { op, dst, lhs, rhs }) if dst == cond => {
                            insts.pop();
                            DecodedInst::IntBinBranch {
                                op,
                                dst,
                                lhs,
                                rhs,
                                then_b,
                                else_b,
                            }
                        }
                        Some(&DecodedInst::FloatCmp { op, dst, lhs, rhs }) if dst == cond => {
                            insts.pop();
                            DecodedInst::FloatCmpBranch {
                                op,
                                dst,
                                lhs,
                                rhs,
                                then_b,
                                else_b,
                            }
                        }
                        _ => DecodedInst::Branch {
                            cond,
                            then_b,
                            else_b,
                        },
                    },
                    DecodedInst::IntUn {
                        op: UnOp::Mov,
                        dst,
                        src,
                    } if insts.len() as u32 > start => match insts.last() {
                        Some(&DecodedInst::IntBin {
                            op,
                            dst: d,
                            lhs,
                            rhs,
                        }) if d == src => {
                            insts.pop();
                            DecodedInst::IntBinMov {
                                op,
                                dst: d,
                                dst2: dst,
                                lhs,
                                rhs,
                            }
                        }
                        _ => DecodedInst::IntUn {
                            op: UnOp::Mov,
                            dst,
                            src,
                        },
                    },
                    DecodedInst::FloatUn {
                        op: UnOp::Mov,
                        dst,
                        src,
                    } if insts.len() as u32 > start => match insts.last() {
                        Some(&DecodedInst::FloatBin {
                            op,
                            dst: d,
                            lhs,
                            rhs,
                        }) if d == src => {
                            insts.pop();
                            DecodedInst::FloatBinMov {
                                op,
                                dst: d,
                                dst2: dst,
                                lhs,
                                rhs,
                            }
                        }
                        _ => DecodedInst::FloatUn {
                            op: UnOp::Mov,
                            dst,
                            src,
                        },
                    },
                    DecodedInst::LoadInt { dst, decl, index } if insts.len() as u32 > start => {
                        match insts.last() {
                            Some(&DecodedInst::IntBin {
                                op,
                                dst: d,
                                lhs,
                                rhs,
                            }) if d == index => {
                                insts.pop();
                                DecodedInst::IntBinLoadInt {
                                    op,
                                    dst: d,
                                    lhs,
                                    rhs,
                                    ld: dst,
                                    decl,
                                }
                            }
                            _ => DecodedInst::LoadInt { dst, decl, index },
                        }
                    }
                    DecodedInst::LoadFloat { dst, decl, index } if insts.len() as u32 > start => {
                        match insts.last() {
                            Some(&DecodedInst::IntBin {
                                op,
                                dst: d,
                                lhs,
                                rhs,
                            }) if d == index => {
                                insts.pop();
                                DecodedInst::IntBinLoadFloat {
                                    op,
                                    dst: d,
                                    lhs,
                                    rhs,
                                    ld: dst,
                                    decl,
                                }
                            }
                            _ => DecodedInst::LoadFloat { dst, decl, index },
                        }
                    }
                    other => other,
                };
                // a fused pair keeps the *producer's* origin so the
                // trace loop can re-derive both source instructions
                if matches!(
                    decoded,
                    DecodedInst::IntBinBranch { .. }
                        | DecodedInst::FloatCmpBranch { .. }
                        | DecodedInst::IntBinMov { .. }
                        | DecodedInst::FloatBinMov { .. }
                        | DecodedInst::IntBinLoadInt { .. }
                        | DecodedInst::IntBinLoadFloat { .. }
                ) {
                    origins.pop();
                    origins.push((bi as u32, pos as u32 - 1));
                } else {
                    origins.push((bi as u32, pos as u32));
                }
                insts.push(decoded);
                profile_slots.push(inst.id.0);
                source_steps += 1;
                max_id = max_id.max(inst.id.index() + 1);
                if inst.is_terminator() {
                    terminated = true;
                    break;
                }
            }
            if !terminated {
                insts.push(DecodedInst::Unterminated);
                origins.push((bi as u32, block.insts.len() as u32));
            }
            blocks.push(BlockPlan {
                start,
                end: insts.len() as u32,
                steps: source_steps,
            });
            profile_ranges.push((pstart, profile_slots.len() as u32));
        }

        let mut image_ints = vec![0i64; (int_off + n_int) as usize];
        image_ints.extend(&lower.int_bank.consts_i);
        let mut image_floats = vec![0f64; (float_off + n_float) as usize];
        image_floats.extend(&lower.float_bank.consts_f);

        DecodedProgram {
            insts,
            origins,
            blocks,
            profile_slots,
            profile_ranges,
            arrays,
            addr_plans,
            direct,
            chains,
            image_ints,
            image_floats,
            entry: program.entry.0,
            inst_slots: program.next_inst_id as usize,
            count_slots: (program.next_inst_id as usize).max(max_id),
        }
    }

    /// Number of decoded instructions (sentinels included).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing was decoded (impossible for a valid program).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Allocate a fresh, reset `RunState` sized for this program's
    /// arenas.
    fn new_state(&self) -> RunState {
        RunState {
            ints: self.image_ints.clone(),
            floats: self.image_floats.clone(),
            block_counts: vec![0u64; self.blocks.len()],
        }
    }

    /// Validate and convert input bindings — the same checks, in the
    /// same declaration order, as the reference interpreter — into
    /// arena spans ready to copy in at the start of each run.
    pub(crate) fn bind(&self, data: &DataSet) -> Result<BoundInputs> {
        let mut ints = Vec::new();
        let mut floats = Vec::new();
        for plan in &self.arrays {
            if plan.kind != ArrayKind::Input {
                continue;
            }
            let bound = data.get(&plan.name).ok_or_else(|| SimError::UnboundInput {
                name: plan.name.clone(),
            })?;
            if bound.len() != plan.len {
                return Err(SimError::WrongLength {
                    name: plan.name.clone(),
                    expected: plan.len,
                    got: bound.len(),
                });
            }
            if bound.iter().any(|v| v.ty() != plan.ty) {
                return Err(SimError::WrongType {
                    name: plan.name.clone(),
                });
            }
            if plan.ty == Ty::Float {
                floats.push((plan.offset, bound.iter().map(Value::as_float).collect()));
            } else {
                ints.push((plan.offset, bound.iter().map(Value::as_int).collect()));
            }
        }
        Ok(BoundInputs {
            ints,
            floats,
            int_arena: self.image_ints.len(),
            float_arena: self.image_floats.len(),
        })
    }

    /// Reset `state` to the decoded init images and copy the bound
    /// inputs in: two arena `memcpy`s plus one span copy per input
    /// array — no allocation. This runs at the *start* of every run,
    /// so a state that carries a faulted run's partial writes is
    /// scrubbed before it is ever read again.
    fn reset_into(&self, state: &mut RunState, inputs: &BoundInputs) {
        assert!(
            inputs.int_arena == self.image_ints.len()
                && inputs.float_arena == self.image_floats.len()
                && state.ints.len() == self.image_ints.len()
                && state.floats.len() == self.image_floats.len()
                && state.block_counts.len() == self.blocks.len(),
            "run state / bound inputs do not fit this program's arenas"
        );
        state.ints.copy_from_slice(&self.image_ints);
        state.floats.copy_from_slice(&self.image_floats);
        state.block_counts.fill(0);
        for (off, vals) in &inputs.ints {
            state.ints[*off as usize..*off as usize + vals.len()].copy_from_slice(vals);
        }
        for (off, vals) in &inputs.floats {
            state.floats[*off as usize..*off as usize + vals.len()].copy_from_slice(vals);
        }
    }

    /// Repackage the arena's array spans into the declaration-ordered
    /// [`Value`] arrays of an [`Execution`] — the lazy half of the old
    /// eager `finish_memory`: profile-only runs never call this.
    fn materialize_memory(&self, state: &RunState) -> Vec<Vec<Value>> {
        self.arrays
            .iter()
            .map(|plan| {
                let span = plan.offset as usize..plan.offset as usize + plan.len;
                if plan.ty == Ty::Float {
                    state.floats[span]
                        .iter()
                        .map(|&v| Value::Float(v))
                        .collect()
                } else {
                    state.ints[span].iter().map(|&v| Value::Int(v)).collect()
                }
            })
            .collect()
    }

    /// Rebuild the out-of-bounds error for a memory access, allocating
    /// the context (array name) only now that an error is certain.
    #[cold]
    fn oob(&self, decl: u32, addr: i64) -> SimError {
        let plan = &self.arrays[decl as usize];
        SimError::OutOfBounds {
            name: plan.name.clone(),
            index: addr,
            len: plan.len,
        }
    }

    /// Direct-layout int load.
    #[inline(always)]
    fn direct_load_int(&self, dst: u32, decl: u32, index: u32, m: &mut RunState) -> Step {
        let addr = m.ints[index as usize];
        let d = self.direct[decl as usize];
        // a negative address wraps to a huge u64 and misses
        if (addr as u64) < d.len as u64 {
            m.ints[dst as usize] = m.ints[d.off as usize + addr as usize];
            Step::Next
        } else {
            Step::Oob { decl, addr }
        }
    }

    /// Direct-layout float load.
    #[inline(always)]
    fn direct_load_float(&self, dst: u32, decl: u32, index: u32, m: &mut RunState) -> Step {
        let addr = m.ints[index as usize];
        let d = self.direct[decl as usize];
        if (addr as u64) < d.len as u64 {
            m.floats[dst as usize] = m.floats[d.off as usize + addr as usize];
            Step::Next
        } else {
            Step::Oob { decl, addr }
        }
    }

    /// Direct-layout int store.
    #[inline(always)]
    fn direct_store_int(&self, decl: u32, index: u32, value: u32, m: &mut RunState) -> Step {
        let addr = m.ints[index as usize];
        let d = self.direct[decl as usize];
        if (addr as u64) < d.len as u64 {
            m.ints[d.off as usize + addr as usize] = m.ints[value as usize];
            Step::Next
        } else {
            Step::Oob { decl, addr }
        }
    }

    /// Direct-layout float store.
    #[inline(always)]
    fn direct_store_float(&self, decl: u32, index: u32, value: u32, m: &mut RunState) -> Step {
        let addr = m.ints[index as usize];
        let d = self.direct[decl as usize];
        if (addr as u64) < d.len as u64 {
            m.floats[d.off as usize + addr as usize] = m.floats[value as usize];
            Step::Next
        } else {
            Step::Oob { decl, addr }
        }
    }

    /// General-layout int load.
    #[inline(always)]
    fn addr_load_int(&self, dst: u32, arr: u32, index: u32, m: &mut RunState) -> Step {
        let addr = m.ints[index as usize];
        let plan = &self.addr_plans[arr as usize];
        match plan.element_of(addr) {
            Some(slot) => {
                m.ints[dst as usize] = m.ints[plan.offset as usize + slot];
                Step::Next
            }
            None => Step::Oob { decl: arr, addr },
        }
    }

    /// General-layout float load.
    #[inline(always)]
    fn addr_load_float(&self, dst: u32, arr: u32, index: u32, m: &mut RunState) -> Step {
        let addr = m.ints[index as usize];
        let plan = &self.addr_plans[arr as usize];
        match plan.element_of(addr) {
            Some(slot) => {
                m.floats[dst as usize] = m.floats[plan.offset as usize + slot];
                Step::Next
            }
            None => Step::Oob { decl: arr, addr },
        }
    }

    /// General-layout int store.
    #[inline(always)]
    fn addr_store_int(&self, arr: u32, index: u32, value: u32, m: &mut RunState) -> Step {
        let addr = m.ints[index as usize];
        let plan = &self.addr_plans[arr as usize];
        match plan.element_of(addr) {
            Some(slot) => {
                m.ints[plan.offset as usize + slot] = m.ints[value as usize];
                Step::Next
            }
            None => Step::Oob { decl: arr, addr },
        }
    }

    /// General-layout float store.
    #[inline(always)]
    fn addr_store_float(&self, arr: u32, index: u32, value: u32, m: &mut RunState) -> Step {
        let addr = m.ints[index as usize];
        let plan = &self.addr_plans[arr as usize];
        match plan.element_of(addr) {
            Some(slot) => {
                m.floats[plan.offset as usize + slot] = m.floats[value as usize];
                Step::Next
            }
            None => Step::Oob { decl: arr, addr },
        }
    }

    /// Fused address-arith + direct int load: the produced value is
    /// written to `dst` *and* used directly as the load address.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // mirrors the fused variant's fields
    fn int_bin_load_int(
        &self,
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        ld: u32,
        decl: u32,
        m: &mut RunState,
    ) -> Step {
        let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
        m.ints[dst as usize] = v;
        let d = self.direct[decl as usize];
        if (v as u64) < d.len as u64 {
            m.ints[ld as usize] = m.ints[d.off as usize + v as usize];
            Step::Next
        } else {
            Step::Oob { decl, addr: v }
        }
    }

    /// Fused address-arith + direct float load.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // mirrors the fused variant's fields
    fn int_bin_load_float(
        &self,
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        ld: u32,
        decl: u32,
        m: &mut RunState,
    ) -> Step {
        let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
        m.ints[dst as usize] = v;
        let d = self.direct[decl as usize];
        if (v as u64) < d.len as u64 {
            m.floats[ld as usize] = m.floats[d.off as usize + v as usize];
            Step::Next
        } else {
            Step::Oob { decl, addr: v }
        }
    }

    /// Evaluate a chained super-instruction in the generic [`Value`]
    /// domain.
    #[inline(always)]
    fn run_chain(&self, dst: u32, plan: u32, m: &mut RunState) -> Step {
        let chain = &self.chains[plan as usize];
        let read = |s: TSlot| -> Value {
            match s {
                TSlot::I(i) => Value::Int(m.ints[i as usize]),
                TSlot::F(i) => Value::Float(m.floats[i as usize]),
            }
        };
        let a = read(chain.lhs);
        let mut acc = match chain.head {
            Some(op) => eval_binop(op, a, read(chain.rhs)),
            None => a,
        };
        for &(op, slot) in &chain.tail {
            acc = eval_binop(op, acc, read(slot));
        }
        if chain.dst_float {
            m.floats[dst as usize] = acc.as_float();
        } else {
            m.ints[dst as usize] = acc.as_int();
        }
        Step::Next
    }

    /// Execute one decoded instruction. Shared by the fast block loop,
    /// the careful near-limit loop and the trace loop.
    #[inline(always)]
    fn exec(&self, inst: &DecodedInst, m: &mut RunState) -> Step {
        match *inst {
            DecodedInst::IntBin { op, dst, lhs, rhs } => {
                m.ints[dst as usize] = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                Step::Next
            }
            DecodedInst::FloatBin { op, dst, lhs, rhs } => {
                m.floats[dst as usize] =
                    eval_float_bin(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                Step::Next
            }
            DecodedInst::FloatCmp { op, dst, lhs, rhs } => {
                m.ints[dst as usize] =
                    eval_float_cmp(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                Step::Next
            }
            DecodedInst::IntUn { op, dst, src } => {
                let v = m.ints[src as usize];
                m.ints[dst as usize] = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => !v,
                    UnOp::Mov => v,
                    _ => unreachable!("decode put a non-int unary in IntUn"),
                };
                Step::Next
            }
            DecodedInst::FloatUn { op, dst, src } => {
                let v = m.floats[src as usize];
                m.floats[dst as usize] = match op {
                    UnOp::FNeg => -v,
                    UnOp::Mov => v,
                    UnOp::Math(f) => f.eval(v),
                    _ => unreachable!("decode put a non-float unary in FloatUn"),
                };
                Step::Next
            }
            DecodedInst::IntToFloat { dst, src } => {
                m.floats[dst as usize] = m.ints[src as usize] as f64;
                Step::Next
            }
            DecodedInst::FloatToInt { dst, src } => {
                m.ints[dst as usize] = m.floats[src as usize] as i64;
                Step::Next
            }
            DecodedInst::LoadInt { dst, decl, index } => self.direct_load_int(dst, decl, index, m),
            DecodedInst::LoadFloat { dst, decl, index } => {
                self.direct_load_float(dst, decl, index, m)
            }
            DecodedInst::LoadIntAddr { dst, arr, index } => self.addr_load_int(dst, arr, index, m),
            DecodedInst::LoadFloatAddr { dst, arr, index } => {
                self.addr_load_float(dst, arr, index, m)
            }
            DecodedInst::StoreInt { decl, index, value } => {
                self.direct_store_int(decl, index, value, m)
            }
            DecodedInst::StoreFloat { decl, index, value } => {
                self.direct_store_float(decl, index, value, m)
            }
            DecodedInst::StoreIntAddr { arr, index, value } => {
                self.addr_store_int(arr, index, value, m)
            }
            DecodedInst::StoreFloatAddr { arr, index, value } => {
                self.addr_store_float(arr, index, value, m)
            }
            DecodedInst::IntBinMov {
                op,
                dst,
                dst2,
                lhs,
                rhs,
            } => {
                let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                m.ints[dst as usize] = v;
                m.ints[dst2 as usize] = v;
                Step::Next
            }
            DecodedInst::FloatBinMov {
                op,
                dst,
                dst2,
                lhs,
                rhs,
            } => {
                let v = eval_float_bin(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                m.floats[dst as usize] = v;
                m.floats[dst2 as usize] = v;
                Step::Next
            }
            DecodedInst::IntBinLoadInt {
                op,
                dst,
                lhs,
                rhs,
                ld,
                decl,
            } => self.int_bin_load_int(op, dst, lhs, rhs, ld, decl, m),
            DecodedInst::IntBinLoadFloat {
                op,
                dst,
                lhs,
                rhs,
                ld,
                decl,
            } => self.int_bin_load_float(op, dst, lhs, rhs, ld, decl, m),
            DecodedInst::Branch {
                cond,
                then_b,
                else_b,
            } => Step::Goto(if m.ints[cond as usize] != 0 {
                then_b
            } else {
                else_b
            }),
            DecodedInst::IntBinBranch {
                op,
                dst,
                lhs,
                rhs,
                then_b,
                else_b,
            } => {
                let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                m.ints[dst as usize] = v;
                Step::Goto(if v != 0 { then_b } else { else_b })
            }
            DecodedInst::FloatCmpBranch {
                op,
                dst,
                lhs,
                rhs,
                then_b,
                else_b,
            } => {
                let v = eval_float_cmp(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                m.ints[dst as usize] = v;
                Step::Goto(if v != 0 { then_b } else { else_b })
            }
            DecodedInst::Jump { target } => Step::Goto(target),
            DecodedInst::RetNone => Step::Halt(None),
            DecodedInst::RetInt { src } => Step::Halt(Some(Value::Int(m.ints[src as usize]))),
            DecodedInst::RetFloat { src } => Step::Halt(Some(Value::Float(m.floats[src as usize]))),
            DecodedInst::Chained { dst, plan } => self.run_chain(dst, plan, m),
            DecodedInst::Unterminated => {
                unreachable!("block fell through without terminator")
            }
        }
    }

    /// The value an instruction wrote to its destination register, if
    /// any (trace events only; the fused non-branch variants write two
    /// registers and are re-expanded inline by the trace loop instead).
    fn wrote(&self, inst: &DecodedInst, m: &RunState) -> Option<Value> {
        match *inst {
            DecodedInst::IntBin { dst, .. }
            | DecodedInst::FloatCmp { dst, .. }
            | DecodedInst::IntBinBranch { dst, .. }
            | DecodedInst::FloatCmpBranch { dst, .. }
            | DecodedInst::IntUn { dst, .. }
            | DecodedInst::FloatToInt { dst, .. }
            | DecodedInst::LoadInt { dst, .. }
            | DecodedInst::LoadIntAddr { dst, .. } => Some(Value::Int(m.ints[dst as usize])),
            DecodedInst::FloatBin { dst, .. }
            | DecodedInst::FloatUn { dst, .. }
            | DecodedInst::IntToFloat { dst, .. }
            | DecodedInst::LoadFloat { dst, .. }
            | DecodedInst::LoadFloatAddr { dst, .. } => Some(Value::Float(m.floats[dst as usize])),
            DecodedInst::Chained { dst, plan } => Some(if self.chains[plan as usize].dst_float {
                Value::Float(m.floats[dst as usize])
            } else {
                Value::Int(m.ints[dst as usize])
            }),
            _ => None,
        }
    }

    /// Derive the per-instruction profile from the block entry counters
    /// (every instruction in a block runs once per entry), reproducing
    /// the reference interpreter's on-demand slot growth exactly.
    fn derive_profile(&self, block_counts: &[u64], total_ops: u64) -> Profile {
        let mut inst_counts = vec![0u64; self.count_slots];
        for (b, &(pstart, pend)) in self.profile_ranges.iter().enumerate() {
            let entries = block_counts[b];
            if entries == 0 {
                continue;
            }
            for &slot in &self.profile_slots[pstart as usize..pend as usize] {
                inst_counts[slot as usize] += entries;
            }
        }
        // the reference profile only grows past `inst_slots` when an
        // instruction with a larger id actually executes
        let mut len = self.inst_slots;
        for i in (self.inst_slots..self.count_slots).rev() {
            if inst_counts[i] > 0 {
                len = i + 1;
                break;
            }
        }
        inst_counts.truncate(len);
        Profile::from_parts(inst_counts, block_counts.to_vec(), total_ops)
    }

    /// Reset `state` from the init images, copy `inputs` in, and run
    /// to completion — the allocation-free hot path under every run
    /// API (only the outcome's derived profile allocates).
    fn run_into(
        &self,
        state: &mut RunState,
        inputs: &BoundInputs,
        limit: u64,
    ) -> Result<RunOutcome> {
        self.reset_into(state, inputs);
        let mut steps: u64 = 0;
        let mut block = self.entry as usize;

        'outer: loop {
            state.block_counts[block] += 1;
            let plan = self.blocks[block];
            let n = plan.steps as u64;
            if steps + n > limit {
                // this block could cross the limit: fall back to the
                // reference interpreter's per-instruction ordering so
                // a data error that strikes first still wins
                for pc in plan.start as usize..plan.end as usize {
                    let inst = &self.insts[pc];
                    steps += step_weight(inst);
                    if steps > limit {
                        // which half of a fused pair crossed is
                        // unobservable: the error (and the discarded
                        // state) is the same either way
                        return Err(SimError::StepLimit { limit });
                    }
                    match self.exec(inst, state) {
                        Step::Next => {}
                        Step::Goto(b) => {
                            block = b as usize;
                            continue 'outer;
                        }
                        Step::Halt(result) => {
                            return Ok(RunOutcome {
                                profile: self.derive_profile(&state.block_counts, steps),
                                result,
                            })
                        }
                        Step::Oob { decl, addr } => return Err(self.oob(decl, addr)),
                    }
                }
            } else {
                steps += n;
                let (lo, hi) = (plan.start as usize, plan.end as usize);
                // iterate the block as a slice so the per-instruction
                // bounds check is hoisted to one check per block
                for inst in &self.insts[lo..hi] {
                    match self.exec(inst, state) {
                        Step::Next => {}
                        Step::Goto(b) => {
                            block = b as usize;
                            continue 'outer;
                        }
                        Step::Halt(result) => {
                            return Ok(RunOutcome {
                                profile: self.derive_profile(&state.block_counts, steps),
                                result,
                            })
                        }
                        Step::Oob { decl, addr } => return Err(self.oob(decl, addr)),
                    }
                }
            }
            // a block ends in a terminator or the Unterminated sentinel
            // (which panics), so falling through is impossible
            unreachable!("block fell through without terminator");
        }
    }

    /// One-shot convenience: bind, allocate a fresh state, run, and
    /// materialize the outputs (the borrowing [`crate::Simulator`]
    /// facade path; [`Engine`] pools states instead).
    pub(crate) fn execute(&self, data: &DataSet, limit: u64) -> Result<Execution> {
        let inputs = self.bind(data)?;
        let mut state = self.new_state();
        let out = self.run_into(&mut state, &inputs, limit)?;
        Ok(Execution {
            profile: out.profile,
            memory: self.materialize_memory(&state),
            result: out.result,
        })
    }

    /// Run with a per-step trace observer: the specialized slow loop.
    /// `program` must be the program this decode was built from (the
    /// trace borrows its instructions).
    pub(crate) fn execute_traced(
        &self,
        program: &Program,
        data: &DataSet,
        limit: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<Execution> {
        let inputs = self.bind(data)?;
        let mut m = self.new_state();
        self.reset_into(&mut m, &inputs);
        let mut steps: u64 = 0;
        let mut block = self.entry as usize;

        'outer: loop {
            m.block_counts[block] += 1;
            let plan = self.blocks[block];
            for pc in plan.start as usize..plan.end as usize {
                let inst = &self.insts[pc];
                let (ob, opos) = self.origins[pc];
                // every fused variant re-expands into its two source
                // events, with the reference's exact limit ordering:
                // no event if the producer's step crosses the limit,
                // the producer's event but not the consumer's if the
                // consumer's step crosses
                let step = match *inst {
                    DecodedInst::IntBinBranch { .. } | DecodedInst::FloatCmpBranch { .. } => {
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let step = self.exec(inst, &mut m);
                        let producer = &program.blocks[ob as usize].insts[opos as usize];
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: producer,
                            wrote: self.wrote(inst, &m),
                        });
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let branch = &program.blocks[ob as usize].insts[opos as usize + 1];
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: branch,
                            wrote: None,
                        });
                        step
                    }
                    DecodedInst::IntBinMov {
                        op,
                        dst,
                        dst2,
                        lhs,
                        rhs,
                    } => {
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                        m.ints[dst as usize] = v;
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: &program.blocks[ob as usize].insts[opos as usize],
                            wrote: Some(Value::Int(v)),
                        });
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        m.ints[dst2 as usize] = v;
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: &program.blocks[ob as usize].insts[opos as usize + 1],
                            wrote: Some(Value::Int(v)),
                        });
                        Step::Next
                    }
                    DecodedInst::FloatBinMov {
                        op,
                        dst,
                        dst2,
                        lhs,
                        rhs,
                    } => {
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let v = eval_float_bin(op, m.floats[lhs as usize], m.floats[rhs as usize]);
                        m.floats[dst as usize] = v;
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: &program.blocks[ob as usize].insts[opos as usize],
                            wrote: Some(Value::Float(v)),
                        });
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        m.floats[dst2 as usize] = v;
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: &program.blocks[ob as usize].insts[opos as usize + 1],
                            wrote: Some(Value::Float(v)),
                        });
                        Step::Next
                    }
                    DecodedInst::IntBinLoadInt {
                        op,
                        dst,
                        lhs,
                        rhs,
                        ld,
                        decl,
                    } => {
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                        m.ints[dst as usize] = v;
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: &program.blocks[ob as usize].insts[opos as usize],
                            wrote: Some(Value::Int(v)),
                        });
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let d = self.direct[decl as usize];
                        if (v as u64) >= d.len as u64 {
                            return Err(self.oob(decl, v));
                        }
                        let loaded = m.ints[d.off as usize + v as usize];
                        m.ints[ld as usize] = loaded;
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: &program.blocks[ob as usize].insts[opos as usize + 1],
                            wrote: Some(Value::Int(loaded)),
                        });
                        Step::Next
                    }
                    DecodedInst::IntBinLoadFloat {
                        op,
                        dst,
                        lhs,
                        rhs,
                        ld,
                        decl,
                    } => {
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let v = eval_int_bin(op, m.ints[lhs as usize], m.ints[rhs as usize]);
                        m.ints[dst as usize] = v;
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: &program.blocks[ob as usize].insts[opos as usize],
                            wrote: Some(Value::Int(v)),
                        });
                        steps += 1;
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let d = self.direct[decl as usize];
                        if (v as u64) >= d.len as u64 {
                            return Err(self.oob(decl, v));
                        }
                        let loaded = m.floats[d.off as usize + v as usize];
                        m.floats[ld as usize] = loaded;
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: &program.blocks[ob as usize].insts[opos as usize + 1],
                            wrote: Some(Value::Float(loaded)),
                        });
                        Step::Next
                    }
                    _ => {
                        steps += step_weight(inst);
                        if steps > limit {
                            return Err(SimError::StepLimit { limit });
                        }
                        let step = self.exec(inst, &mut m);
                        if let Step::Oob { decl, addr } = step {
                            return Err(self.oob(decl, addr));
                        }
                        let source = &program.blocks[ob as usize].insts[opos as usize];
                        sink.event(&TraceEvent {
                            step: steps,
                            block: asip_ir::BlockId(ob),
                            inst: source,
                            wrote: self.wrote(inst, &m),
                        });
                        step
                    }
                };
                match step {
                    Step::Next => {}
                    Step::Goto(b) => {
                        block = b as usize;
                        continue 'outer;
                    }
                    Step::Halt(result) => {
                        return Ok(Execution {
                            profile: self.derive_profile(&m.block_counts, steps),
                            memory: self.materialize_memory(&m),
                            result,
                        })
                    }
                    Step::Oob { .. } => unreachable!("handled above"),
                }
            }
            unreachable!("block fell through without terminator");
        }
    }
}

/// Dynamic steps one decoded instruction accounts for: two for a fused
/// pair, zero for the unterminated-block sentinel, one otherwise.
#[inline(always)]
fn step_weight(inst: &DecodedInst) -> u64 {
    match inst {
        DecodedInst::IntBinBranch { .. }
        | DecodedInst::FloatCmpBranch { .. }
        | DecodedInst::IntBinMov { .. }
        | DecodedInst::FloatBinMov { .. }
        | DecodedInst::IntBinLoadInt { .. }
        | DecodedInst::IntBinLoadFloat { .. } => 2,
        DecodedInst::Unterminated => 0,
        _ => 1,
    }
}

/// Integer-domain binary semantics (identical to [`eval_binop`] on two
/// [`Value::Int`]s).
#[inline(always)]
fn eval_int_bin(op: BinOp, a: i64, b: i64) -> i64 {
    use BinOp::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        Shl => a.wrapping_shl((b & 63) as u32),
        Shr => a.wrapping_shr((b & 63) as u32),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        CmpLt => (a < b) as i64,
        CmpLe => (a <= b) as i64,
        CmpGt => (a > b) as i64,
        CmpGe => (a >= b) as i64,
        CmpEq => (a == b) as i64,
        CmpNe => (a != b) as i64,
        _ => unreachable!("decode put a float op in IntBin"),
    }
}

/// Float-domain binary semantics with a float result.
#[inline(always)]
fn eval_float_bin(op: BinOp, a: f64, b: f64) -> f64 {
    use BinOp::*;
    match op {
        FAdd => a + b,
        FSub => a - b,
        FMul => a * b,
        FDiv => a / b,
        _ => unreachable!("decode put a non-arithmetic op in FloatBin"),
    }
}

/// Float comparison semantics with a 0/1 integer result.
#[inline(always)]
fn eval_float_cmp(op: BinOp, a: f64, b: f64) -> i64 {
    use BinOp::*;
    match op {
        FCmpLt => (a < b) as i64,
        FCmpLe => (a <= b) as i64,
        FCmpGt => (a > b) as i64,
        FCmpGe => (a >= b) as i64,
        FCmpEq => (a == b) as i64,
        FCmpNe => (a != b) as i64,
        _ => unreachable!("decode put a non-comparison op in FloatCmp"),
    }
}

/// Upper bound on pooled run states per engine. One state per worker
/// thread is the steady state; 64 comfortably covers any session pool
/// while bounding what an anomalous burst can pin.
const POOL_CAP: usize = 64;

/// A reusable execution engine: one program, decoded once, run many
/// times. This is what sessions cache so that repeated profiles of the
/// same program (three opt levels, suite sweeps, evaluate re-runs)
/// never pay the decode again.
///
/// The engine also pools run states internally: [`Engine::run`]
/// and [`Engine::run_pooled`] check a state out, run (reset is a
/// `memcpy` from the decoded init images), and return it — after
/// warm-up, a sweep of thousands of runs performs zero per-run bank
/// allocations ([`Engine::run_state_stats`] counts both sides).
///
/// [`crate::Simulator`] is the borrowing one-shot facade over the same
/// execution paths; `Engine` owns its program via `Arc` so it can
/// outlive the caller's borrow and live in caches.
#[derive(Debug)]
pub struct Engine {
    program: Arc<Program>,
    code: DecodedProgram,
    step_limit: u64,
    /// Reusable run states, checked out per run.
    pool: Mutex<Vec<RunState>>,
    checkouts: AtomicU64,
    creates: AtomicU64,
}

impl Engine {
    /// Decode `program` into a reusable engine with the default step
    /// limit (100 million ops, as [`crate::Simulator::new`]).
    ///
    /// # Panics
    ///
    /// As [`DecodedProgram::decode`]: panics on structurally invalid
    /// programs.
    pub fn new(program: Arc<Program>) -> Self {
        let code = DecodedProgram::decode(&program);
        Engine {
            program,
            code,
            step_limit: crate::machine::DEFAULT_STEP_LIMIT,
            pool: Mutex::new(Vec::new()),
            checkouts: AtomicU64::new(0),
            creates: AtomicU64::new(0),
        }
    }

    /// Override the dynamic step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// The program this engine executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The decoded code (e.g. for inspecting the decoded length).
    pub fn decoded(&self) -> &DecodedProgram {
        &self.code
    }

    /// Take a run state from the pool, or allocate a fresh one. A
    /// poisoned pool lock is survivable: states are reset before every
    /// run, so whatever a panicking thread left behind is scrubbed.
    fn checkout(&self) -> RunState {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        pooled.unwrap_or_else(|| {
            self.creates.fetch_add(1, Ordering::Relaxed);
            self.code.new_state()
        })
    }

    /// Return a state to the pool (dropped if the pool is full). Even
    /// a state a faulted run wrote partial results into goes back:
    /// the pre-run reset makes reuse safe.
    fn checkin(&self, state: RunState) {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < POOL_CAP {
            pool.push(state);
        }
    }

    /// Validate and convert `data`'s input bindings once, for reuse
    /// across any number of [`Engine::run_pooled`] calls on this
    /// engine.
    ///
    /// # Errors
    ///
    /// The binding half of [`Engine::run`]'s errors: unbound inputs,
    /// wrong lengths, wrong types.
    pub fn bind(&self, data: &DataSet) -> Result<BoundInputs> {
        self.code.bind(data)
    }

    /// Run the program on the given input data.
    ///
    /// # Errors
    ///
    /// As [`crate::Simulator::run`]: data-binding mismatches, bad array
    /// accesses, and the step limit.
    pub fn run(&self, data: &DataSet) -> Result<Execution> {
        let inputs = self.code.bind(data)?;
        let mut state = self.checkout();
        let finished = self
            .code
            .run_into(&mut state, &inputs, self.step_limit)
            .map(|out| Execution {
                profile: out.profile,
                memory: self.code.materialize_memory(&state),
                result: out.result,
            });
        self.checkin(state);
        finished
    }

    /// Pooled run over inputs prepared by [`Engine::bind`], skipping
    /// per-run re-validation and output materialization.
    ///
    /// # Errors
    ///
    /// Bad array accesses and the step limit.
    pub fn run_pooled(&self, inputs: &BoundInputs) -> Result<RunOutcome> {
        let mut state = self.checkout();
        let outcome = self.code.run_into(&mut state, inputs, self.step_limit);
        self.checkin(state);
        outcome
    }

    /// Run with an execution-trace observer (see [`crate::trace`]).
    /// Tracing is the diagnostic slow path: it uses a fresh state, not
    /// the pool.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_traced(&self, data: &DataSet, sink: &mut dyn TraceSink) -> Result<Execution> {
        self.code
            .execute_traced(&self.program, data, self.step_limit, sink)
    }

    /// This engine's run-state pool counters (sessions aggregate them
    /// into their cache stats).
    pub fn run_state_stats(&self) -> RunStateStats {
        RunStateStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            creates: self.creates.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_ir::{Operand, ProgramBuilder};

    fn sum_loop_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new("sumsq");
        let x = b.input_array("x", Ty::Int, n as usize);
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
        let c = b.binary(BinOp::CmpLt, i.into(), Operand::imm_int(n));
        b.branch(c.into(), body, exit);
        b.select_block(body);
        let v = b.load(x, i.into());
        let sq = b.binary(BinOp::Mul, v.into(), v.into());
        let na = b.binary(BinOp::Add, acc.into(), sq.into());
        b.mov_to(acc, na.into());
        let ni = b.binary(BinOp::Add, i.into(), Operand::imm_int(1));
        b.mov_to(i, ni.into());
        b.jump(header);
        b.select_block(exit);
        b.ret(Some(acc.into()));
        b.finish().expect("valid")
    }

    fn data() -> DataSet {
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2, 3, 4]);
        d
    }

    #[test]
    fn engine_matches_reference_on_a_loop() {
        let p = sum_loop_program(4);
        let reference = crate::reference::ReferenceSimulator::new(&p)
            .run(&data())
            .expect("runs");
        let engine = Engine::new(Arc::new(p));
        let decoded = engine.run(&data()).expect("runs");
        assert_eq!(decoded.result, Some(Value::Int(30)));
        assert_eq!(decoded.profile, reference.profile);
        assert_eq!(decoded.memory, reference.memory);
        assert_eq!(decoded.result, reference.result);
    }

    #[test]
    fn engine_is_reusable() {
        let engine = Engine::new(Arc::new(sum_loop_program(4)));
        let a = engine.run(&data()).expect("runs");
        let b = engine.run(&data()).expect("runs");
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.memory, b.memory);
        assert!(!engine.decoded().is_empty());
        // compare+branch fusion makes the decoded stream denser than
        // the source (this program fuses one back edge)
        assert!(engine.decoded().len() < engine.program().inst_count());
    }

    #[test]
    fn step_limit_parity_at_every_boundary() {
        // the engine's block-granular check must error (or not) at
        // exactly the same limits as the per-instruction reference
        let p = sum_loop_program(4);
        let total = Engine::new(Arc::new(p.clone()))
            .run(&data())
            .expect("runs")
            .profile
            .total_ops();
        for limit in (total.saturating_sub(3))..(total + 3) {
            let reference = crate::reference::ReferenceSimulator::new(&p)
                .with_step_limit(limit)
                .run(&data());
            let engine = Engine::new(Arc::new(p.clone()))
                .with_step_limit(limit)
                .run(&data());
            match (reference, engine) {
                (Ok(a), Ok(b)) => assert_eq!(a.profile, b.profile),
                (Err(a), Err(b)) => assert_eq!(a, b, "at limit {limit}"),
                (a, b) => panic!("diverged at limit {limit}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn data_error_beats_step_limit_like_the_reference() {
        // OOB at step 1, limit crossing at step 2: the careful loop
        // must surface the OOB first, like the reference
        let mut b = ProgramBuilder::new("oob");
        let x = b.input_array("x", Ty::Int, 2);
        let entry = b.entry_block();
        b.select_block(entry);
        let _ = b.load(x, Operand::imm_int(5));
        let _ = b.load(x, Operand::imm_int(0));
        b.ret(None);
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2]);
        let engine = Engine::new(Arc::new(p)).with_step_limit(2);
        assert!(matches!(
            engine.run(&d),
            Err(SimError::OutOfBounds { index: 5, .. })
        ));
    }

    #[test]
    fn non_default_array_layout_uses_the_general_path() {
        // give the array a byte-addressed layout; decode must take the
        // general load/store variants and agree with the reference
        let mut p = sum_loop_program(4);
        p.arrays[0].base = 16;
        p.arrays[0].elem_size = 8;
        // the loop indexes elements 0..4 directly, which are no longer
        // valid addresses under the new layout — both paths must agree
        let reference = crate::reference::ReferenceSimulator::new(&p).run(&data());
        let engine = Engine::new(Arc::new(p)).run(&data());
        assert_eq!(reference, engine);
        assert!(matches!(engine, Err(SimError::OutOfBounds { .. })));
    }

    #[test]
    fn mixed_type_programs_route_through_both_banks() {
        // int loop counter, float accumulation, conversions both ways
        let mut b = ProgramBuilder::new("mixed");
        let x = b.input_array("x", Ty::Float, 4);
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let v0 = b.load(x, Operand::imm_int(0));
        let v1 = b.load(x, Operand::imm_int(1));
        let s = b.binary(BinOp::FAdd, v0.into(), v1.into());
        let d = b.binary(BinOp::FMul, s.into(), Operand::imm_float(2.0));
        let c = b.binary(BinOp::FCmpGt, d.into(), Operand::imm_float(1.0));
        let i = b.unary(UnOp::FloatToInt, d.into());
        let sum = b.binary(BinOp::Add, i.into(), c.into());
        b.store(y, Operand::imm_int(0), sum.into());
        b.ret(Some(sum.into()));
        let p = b.finish().expect("valid");
        let mut data = DataSet::new();
        data.bind_floats("x", vec![1.25, 2.5, 0.0, 0.0]);
        let reference = crate::reference::ReferenceSimulator::new(&p)
            .run(&data)
            .expect("runs");
        let engine = Engine::new(Arc::new(p)).run(&data).expect("runs");
        assert_eq!(engine.result, Some(Value::Int(8)));
        assert_eq!(engine.profile, reference.profile);
        assert_eq!(engine.memory, reference.memory);
        assert_eq!(engine.result, reference.result);
    }

    #[test]
    fn constants_are_pooled_per_bank() {
        let p = sum_loop_program(4);
        let engine = Engine::new(Arc::new(p));
        let int_regs = engine
            .program()
            .reg_types
            .iter()
            .filter(|&&t| t == Ty::Int)
            .count();
        let int_array_elems: usize = engine
            .program()
            .arrays
            .iter()
            .filter(|a| a.ty == Ty::Int)
            .map(|a| a.len)
            .sum();
        // arena layout is [arrays][registers][constants]
        let consts = engine.code.image_ints.len() - int_array_elems - int_regs;
        assert!(consts >= 2, "int constant pool materialized ({consts})");
        let a = engine.run(&data()).expect("runs");
        let b = engine.run(&data()).expect("runs");
        assert_eq!(a.result, b.result, "pool state survives reuse");
    }

    #[test]
    fn pooled_run_states_are_reused() {
        let engine = Engine::new(Arc::new(sum_loop_program(4)));
        let d = data();
        let inputs = engine.bind(&d).expect("binds");
        let mut last = None;
        for _ in 0..8 {
            last = Some(engine.run_pooled(&inputs).expect("runs"));
        }
        let full = engine.run(&d).expect("runs");
        let out = last.expect("ran");
        assert_eq!(out.profile, full.profile);
        assert_eq!(out.result, full.result);
        let stats = engine.run_state_stats();
        assert_eq!(stats.checkouts, 9);
        assert_eq!(stats.creates, 1, "one allocation serves the whole sweep");
    }

    #[test]
    fn faulted_state_does_not_leak_into_the_next_run() {
        // an OOB mid-run leaves partial writes in the pooled state; the
        // next run of the same engine must be byte-identical to a
        // fresh engine's (reset-by-memcpy scrubs everything)
        let mut b = ProgramBuilder::new("poison");
        let x = b.input_array("x", Ty::Int, 2);
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let i = b.load(x, Operand::imm_int(0));
        b.store(y, Operand::imm_int(0), Operand::imm_int(7));
        let v = b.load(x, i.into());
        b.ret(Some(v.into()));
        let p = b.finish().expect("valid");
        let mut bad = DataSet::new();
        bad.bind_ints("x", vec![5, 0]);
        let mut good = DataSet::new();
        good.bind_ints("x", vec![1, 9]);
        let engine = Engine::new(Arc::new(p.clone()));
        assert!(matches!(
            engine.run(&bad),
            Err(SimError::OutOfBounds { index: 5, .. })
        ));
        let reused = engine.run(&good).expect("runs");
        let fresh = Engine::new(Arc::new(p)).run(&good).expect("runs");
        assert_eq!(reused.profile, fresh.profile);
        assert_eq!(reused.memory, fresh.memory);
        assert_eq!(reused.result, fresh.result);
    }

    #[test]
    fn addr_arith_and_mov_fusion_match_the_reference() {
        // an add feeding a direct load fuses (IntBinLoadInt /
        // IntBinLoadFloat), as does a bin-op result mov'd onward
        // (IntBinMov / FloatBinMov); everything observable must stay
        // byte-identical to the reference interpreter
        let mut b = ProgramBuilder::new("fused");
        let x = b.input_array("x", Ty::Int, 4);
        let f = b.input_array("f", Ty::Float, 4);
        let y = b.output_array("y", Ty::Int, 1);
        let entry = b.entry_block();
        b.select_block(entry);
        let i = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(2));
        let v = b.load(x, i.into()); // fuses: add + int load
        let j = b.binary(BinOp::Sub, i.into(), Operand::imm_int(3));
        let w = b.load(f, j.into()); // fuses: sub + float load
        let s = b.binary(BinOp::Mul, v.into(), Operand::imm_int(2));
        let t = b.new_reg(Ty::Int);
        b.mov_to(t, s.into()); // fuses: mul + mov
        let g = b.binary(BinOp::FAdd, w.into(), w.into());
        let h = b.new_reg(Ty::Float);
        b.mov_to(h, g.into()); // fuses: fadd + mov
        let k = b.unary(UnOp::FloatToInt, h.into());
        let sum = b.binary(BinOp::Add, t.into(), k.into());
        b.store(y, Operand::imm_int(0), sum.into());
        b.ret(Some(sum.into()));
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![10, 20, 30, 40]);
        d.bind_floats("f", vec![0.5, 1.5, 2.5, 3.5]);
        let engine = Engine::new(Arc::new(p.clone()));
        // all four fusion kinds fired: four pairs collapsed
        assert_eq!(engine.decoded().len(), p.inst_count() - 4);
        let decoded = engine.run(&d).expect("runs");
        let reference = crate::reference::ReferenceSimulator::new(&p)
            .run(&d)
            .expect("runs");
        assert_eq!(decoded.profile, reference.profile);
        assert_eq!(decoded.memory, reference.memory);
        assert_eq!(decoded.result, reference.result);
        // and step-limit parity holds across every fused boundary
        let total = decoded.profile.total_ops();
        for limit in 0..=total {
            let r = crate::reference::ReferenceSimulator::new(&p)
                .with_step_limit(limit)
                .run(&d);
            let e = Engine::new(Arc::new(p.clone()))
                .with_step_limit(limit)
                .run(&d);
            match (r, e) {
                (Ok(a), Ok(b)) => assert_eq!(a.profile, b.profile),
                (Err(a), Err(b)) => assert_eq!(a, b, "at limit {limit}"),
                (a, b) => panic!("diverged at limit {limit}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn fused_oob_reports_the_reference_error() {
        // the fused address-arith+load bounds check must surface the
        // same OOB payload as the unfused reference path
        let mut b = ProgramBuilder::new("fused-oob");
        let x = b.input_array("x", Ty::Int, 2);
        let entry = b.entry_block();
        b.select_block(entry);
        let i = b.binary(BinOp::Add, Operand::imm_int(1), Operand::imm_int(4));
        let v = b.load(x, i.into()); // fuses, address 5 misses
        b.ret(Some(v.into()));
        let p = b.finish().expect("valid");
        let mut d = DataSet::new();
        d.bind_ints("x", vec![1, 2]);
        let reference = crate::reference::ReferenceSimulator::new(&p).run(&d);
        let engine = Engine::new(Arc::new(p)).run(&d);
        assert_eq!(reference, engine);
        assert!(matches!(
            engine,
            Err(SimError::OutOfBounds {
                index: 5,
                len: 2,
                ..
            })
        ));
    }
}
