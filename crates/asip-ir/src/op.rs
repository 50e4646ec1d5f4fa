//! Operations and the operation-class vocabulary.
//!
//! [`OpClass`] is the alphabet from which sequence signatures are formed.
//! The paper's result tables name classes such as `add`, `multiply`,
//! `shift`, `compare`, `load`, and float-prefixed `fload`, `fmultiply`,
//! `fsub`, `fstore`; this module reproduces that vocabulary exactly so the
//! regenerated tables read like the paper's.

use crate::types::Ty;
use std::fmt;
use std::str::FromStr;

/// Binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (truncating; division by zero yields zero in the
    /// simulator, which keeps random-data benchmarks total).
    Div,
    /// Integer remainder.
    Rem,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Integer compare: less-than (produces 0/1).
    CmpLt,
    /// Integer compare: less-or-equal.
    CmpLe,
    /// Integer compare: greater-than.
    CmpGt,
    /// Integer compare: greater-or-equal.
    CmpGe,
    /// Integer compare: equal.
    CmpEq,
    /// Integer compare: not-equal.
    CmpNe,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
    /// Float compare: less-than (produces int 0/1).
    FCmpLt,
    /// Float compare: less-or-equal.
    FCmpLe,
    /// Float compare: greater-than.
    FCmpGt,
    /// Float compare: greater-or-equal.
    FCmpGe,
    /// Float compare: equal.
    FCmpEq,
    /// Float compare: not-equal.
    FCmpNe,
}

impl BinOp {
    /// The operation class used in sequence signatures.
    pub fn class(self) -> OpClass {
        use BinOp::*;
        match self {
            Add => OpClass::Add,
            Sub => OpClass::Sub,
            Mul => OpClass::Mul,
            Div | Rem => OpClass::Div,
            Shl | Shr => OpClass::Shift,
            And | Or | Xor => OpClass::Logic,
            CmpLt | CmpLe | CmpGt | CmpGe | CmpEq | CmpNe => OpClass::Compare,
            FAdd => OpClass::FAdd,
            FSub => OpClass::FSub,
            FMul => OpClass::FMul,
            FDiv => OpClass::FDiv,
            FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe => OpClass::Compare,
        }
    }

    /// Result type of the operation.
    pub fn result_ty(self) -> Ty {
        use BinOp::*;
        match self {
            FAdd | FSub | FMul | FDiv => Ty::Float,
            _ => Ty::Int,
        }
    }

    /// Type of both operands: float for the float ops (compares
    /// included), int otherwise.
    pub fn operand_ty(self) -> Ty {
        if self.is_float() {
            Ty::Float
        } else {
            Ty::Int
        }
    }

    /// True for the six integer and six float comparison operators.
    pub fn is_compare(self) -> bool {
        self.class() == OpClass::Compare
    }

    /// True if this is a floating-point operation (including float compares).
    pub fn is_float(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            FAdd | FSub | FMul | FDiv | FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe
        )
    }

    /// Mnemonic used by the textual IR format.
    pub fn mnemonic(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            Shl => "shl",
            Shr => "shr",
            And => "and",
            Or => "or",
            Xor => "xor",
            CmpLt => "cmplt",
            CmpLe => "cmple",
            CmpGt => "cmpgt",
            CmpGe => "cmpge",
            CmpEq => "cmpeq",
            CmpNe => "cmpne",
            FAdd => "fadd",
            FSub => "fsub",
            FMul => "fmul",
            FDiv => "fdiv",
            FCmpLt => "fcmplt",
            FCmpLe => "fcmple",
            FCmpGt => "fcmpgt",
            FCmpGe => "fcmpge",
            FCmpEq => "fcmpeq",
            FCmpNe => "fcmpne",
        }
    }

    /// All binary operations (for exhaustive testing).
    pub fn all() -> &'static [BinOp] {
        use BinOp::*;
        &[
            Add, Sub, Mul, Div, Rem, Shl, Shr, And, Or, Xor, CmpLt, CmpLe, CmpGt, CmpGe, CmpEq,
            CmpNe, FAdd, FSub, FMul, FDiv, FCmpLt, FCmpLe, FCmpGt, FCmpGe, FCmpEq, FCmpNe,
        ]
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl FromStr for BinOp {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BinOp::all()
            .iter()
            .copied()
            .find(|op| op.mnemonic() == s)
            .ok_or(())
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Bitwise not.
    Not,
    /// Float negation.
    FNeg,
    /// Register-to-register move.
    Mov,
    /// Integer-to-float conversion.
    IntToFloat,
    /// Float-to-integer conversion (truncating).
    FloatToInt,
    /// Math intrinsic applied to a float.
    Math(MathFn),
}

impl UnOp {
    /// The operation class used in sequence signatures.
    pub fn class(self) -> OpClass {
        match self {
            UnOp::Neg | UnOp::Not => OpClass::Logic,
            UnOp::FNeg => OpClass::FSub,
            UnOp::Mov => OpClass::Move,
            UnOp::IntToFloat | UnOp::FloatToInt => OpClass::Convert,
            UnOp::Math(_) => OpClass::Math,
        }
    }

    /// Result type, given the source type for type-preserving ops.
    pub fn result_ty(self, src: Ty) -> Ty {
        match self {
            UnOp::Neg | UnOp::Not => Ty::Int,
            UnOp::FNeg => Ty::Float,
            UnOp::Mov => src,
            UnOp::IntToFloat => Ty::Float,
            UnOp::FloatToInt => Ty::Int,
            UnOp::Math(_) => Ty::Float,
        }
    }

    /// Mnemonic used by the textual IR format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::FNeg => "fneg",
            UnOp::Mov => "mov",
            UnOp::IntToFloat => "itof",
            UnOp::FloatToInt => "ftoi",
            UnOp::Math(m) => m.name(),
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl FromStr for UnOp {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "neg" => UnOp::Neg,
            "not" => UnOp::Not,
            "fneg" => UnOp::FNeg,
            "mov" => UnOp::Mov,
            "itof" => UnOp::IntToFloat,
            "ftoi" => UnOp::FloatToInt,
            other => UnOp::Math(other.parse()?),
        })
    }
}

/// Math intrinsics available to mini-C programs (the FFT benchmarks need
/// `sin`/`cos`; `sqrt`/`fabs` appear in magnitude computations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MathFn {
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Square root.
    Sqrt,
    /// Absolute value.
    FAbs,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Floor.
    Floor,
}

impl MathFn {
    /// Function name as written in mini-C and the textual IR.
    pub fn name(self) -> &'static str {
        match self {
            MathFn::Sin => "sin",
            MathFn::Cos => "cos",
            MathFn::Sqrt => "sqrt",
            MathFn::FAbs => "fabs",
            MathFn::Exp => "exp",
            MathFn::Log => "log",
            MathFn::Floor => "floor",
        }
    }

    /// Evaluate the intrinsic.
    pub fn eval(self, x: f64) -> f64 {
        match self {
            MathFn::Sin => x.sin(),
            MathFn::Cos => x.cos(),
            MathFn::Sqrt => x.sqrt(),
            MathFn::FAbs => x.abs(),
            MathFn::Exp => x.exp(),
            MathFn::Log => x.ln(),
            MathFn::Floor => x.floor(),
        }
    }

    /// All intrinsics (for exhaustive testing).
    pub fn all() -> &'static [MathFn] {
        &[
            MathFn::Sin,
            MathFn::Cos,
            MathFn::Sqrt,
            MathFn::FAbs,
            MathFn::Exp,
            MathFn::Log,
            MathFn::Floor,
        ]
    }
}

impl FromStr for MathFn {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MathFn::all()
            .iter()
            .copied()
            .find(|m| m.name() == s)
            .ok_or(())
    }
}

impl fmt::Display for MathFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Operation classes: the alphabet of sequence signatures.
///
/// Display renders the exact words used by the paper's tables
/// (`multiply`, `fload`, `fmultiply`, …) so a signature prints as e.g.
/// `add-multiply-add`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division / remainder.
    Div,
    /// Shifts.
    Shift,
    /// Bitwise logic and unary integer ops.
    Logic,
    /// Comparisons (integer and float).
    Compare,
    /// Integer load.
    Load,
    /// Integer store.
    Store,
    /// Float addition.
    FAdd,
    /// Float subtraction / negation.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
    /// Float load.
    FLoad,
    /// Float store.
    FStore,
    /// Register move.
    Move,
    /// Int/float conversion.
    Convert,
    /// Math intrinsic.
    Math,
    /// Control transfer (branch/jump/ret). Never part of a chain.
    Branch,
    /// A chained super-instruction synthesized by the ASIP design stage.
    Chained,
}

impl OpClass {
    /// True if an op of this class may participate in a chained sequence.
    ///
    /// Control transfers and already-chained ops are excluded; everything
    /// that computes or moves data is fair game (the paper reports chains
    /// involving loads, stores, compares and shifts).
    pub fn is_chainable(self) -> bool {
        !matches!(self, OpClass::Branch | OpClass::Chained)
    }

    /// The paper's word for this class.
    pub fn paper_name(self) -> &'static str {
        match self {
            OpClass::Add => "add",
            OpClass::Sub => "subtract",
            OpClass::Mul => "multiply",
            OpClass::Div => "divide",
            OpClass::Shift => "shift",
            OpClass::Logic => "logic",
            OpClass::Compare => "compare",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::FAdd => "fadd",
            OpClass::FSub => "fsub",
            OpClass::FMul => "fmultiply",
            OpClass::FDiv => "fdivide",
            OpClass::FLoad => "fload",
            OpClass::FStore => "fstore",
            OpClass::Move => "move",
            OpClass::Convert => "convert",
            OpClass::Math => "math",
            OpClass::Branch => "branch",
            OpClass::Chained => "chained",
        }
    }

    /// All classes (for exhaustive testing).
    pub fn all() -> &'static [OpClass] {
        use OpClass::*;
        &[
            Add, Sub, Mul, Div, Shift, Logic, Compare, Load, Store, FAdd, FSub, FMul, FDiv, FLoad,
            FStore, Move, Convert, Math, Branch, Chained,
        ]
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

impl FromStr for OpClass {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        OpClass::all()
            .iter()
            .copied()
            .find(|c| c.paper_name() == s)
            .ok_or(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_mnemonics_round_trip() {
        for &op in BinOp::all() {
            let parsed: BinOp = op.mnemonic().parse().expect("parses");
            assert_eq!(parsed, op);
        }
        assert!("bogus".parse::<BinOp>().is_err());
    }

    #[test]
    fn unop_mnemonics_round_trip() {
        let ops = [
            UnOp::Neg,
            UnOp::Not,
            UnOp::FNeg,
            UnOp::Mov,
            UnOp::IntToFloat,
            UnOp::FloatToInt,
            UnOp::Math(MathFn::Sin),
            UnOp::Math(MathFn::Sqrt),
        ];
        for op in ops {
            let parsed: UnOp = op.mnemonic().parse().expect("parses");
            assert_eq!(parsed, op);
        }
    }

    #[test]
    fn op_class_paper_names_round_trip() {
        for &c in OpClass::all() {
            let parsed: OpClass = c.paper_name().parse().expect("parses");
            assert_eq!(parsed, c);
        }
    }

    #[test]
    fn classes_match_paper_vocabulary() {
        assert_eq!(BinOp::Mul.class().to_string(), "multiply");
        assert_eq!(BinOp::FMul.class().to_string(), "fmultiply");
        assert_eq!(BinOp::Shl.class().to_string(), "shift");
        assert_eq!(BinOp::CmpLt.class().to_string(), "compare");
        assert_eq!(BinOp::FCmpGt.class().to_string(), "compare");
        assert_eq!(OpClass::FLoad.to_string(), "fload");
        assert_eq!(OpClass::FStore.to_string(), "fstore");
    }

    #[test]
    fn chainability() {
        assert!(OpClass::Add.is_chainable());
        assert!(OpClass::Load.is_chainable());
        assert!(OpClass::Compare.is_chainable());
        assert!(!OpClass::Branch.is_chainable());
        assert!(!OpClass::Chained.is_chainable());
    }

    #[test]
    fn result_types() {
        assert_eq!(BinOp::Add.result_ty(), Ty::Int);
        assert_eq!(BinOp::FMul.result_ty(), Ty::Float);
        assert_eq!(BinOp::FCmpLt.result_ty(), Ty::Int);
        assert_eq!(UnOp::IntToFloat.result_ty(Ty::Int), Ty::Float);
        assert_eq!(UnOp::FloatToInt.result_ty(Ty::Float), Ty::Int);
        assert_eq!(UnOp::Mov.result_ty(Ty::Float), Ty::Float);
        assert_eq!(UnOp::Mov.result_ty(Ty::Int), Ty::Int);
        assert_eq!(UnOp::Math(MathFn::Cos).result_ty(Ty::Float), Ty::Float);
    }

    #[test]
    fn math_fn_eval() {
        assert_eq!(MathFn::FAbs.eval(-2.5), 2.5);
        assert_eq!(MathFn::Sqrt.eval(9.0), 3.0);
        assert_eq!(MathFn::Floor.eval(2.7), 2.0);
        assert!((MathFn::Sin.eval(0.0)).abs() < 1e-12);
        assert!((MathFn::Cos.eval(0.0) - 1.0).abs() < 1e-12);
        assert!((MathFn::Exp.eval(0.0) - 1.0).abs() < 1e-12);
        assert!((MathFn::Log.eval(1.0)).abs() < 1e-12);
    }

    #[test]
    fn float_binop_detection() {
        assert!(BinOp::FAdd.is_float());
        assert!(BinOp::FCmpEq.is_float());
        assert!(!BinOp::Add.is_float());
        assert!(BinOp::CmpEq.is_compare());
        assert!(BinOp::FCmpEq.is_compare());
        assert!(!BinOp::Mul.is_compare());
    }
}
