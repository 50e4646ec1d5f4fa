//! Core value and id types for the IR.

use std::fmt;

/// Scalar value types supported by the IR.
///
/// The paper's 3-address code distinguishes integer and floating-point
/// operations (its Table 3 reports `fload-fmultiply` separately from
/// `load-multiply`), so the type is tracked per register and per array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 floating point.
    Float,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Float => write!(f, "float"),
        }
    }
}

/// A virtual register.
///
/// Registers are unbounded; the register file constraint only matters to
/// the ASIP back end, not to the sequence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// The register's index into [`crate::Program::reg_types`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a declared array (memory object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// The array's index into [`crate::Program::arrays`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Identifier of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into [`crate::Program::blocks`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A stable identifier for a static instruction.
///
/// Instruction ids survive optimization: when the optimizer clones an
/// instruction (e.g. percolation duplicating an op into both join
/// predecessors) the clone records the original id, so dynamic profile
/// counts collected on the *unoptimized* program (paper Figure 2, step 2)
/// can still be attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// Numeric index of this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// An instruction operand: either a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Read from a virtual register.
    Reg(Reg),
    /// Integer immediate.
    ImmInt(i64),
    /// Floating-point immediate.
    ImmFloat(f64),
}

impl Operand {
    /// Convenience constructor for an integer immediate.
    #[inline]
    pub fn imm_int(v: i64) -> Self {
        Operand::ImmInt(v)
    }

    /// Convenience constructor for a floating-point immediate.
    #[inline]
    pub fn imm_float(v: f64) -> Self {
        Operand::ImmFloat(v)
    }

    /// The register this operand reads, if any.
    #[inline]
    pub fn reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// True if the operand is an immediate constant.
    #[inline]
    pub fn is_imm(&self) -> bool {
        !matches!(self, Operand::Reg(_))
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmInt(v) => write!(f, "{v}"),
            Operand::ImmFloat(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// A runtime scalar value produced by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
}

impl Value {
    /// The type of this value.
    #[inline]
    pub fn ty(&self) -> Ty {
        match self {
            Value::Int(_) => Ty::Int,
            Value::Float(_) => Ty::Float,
        }
    }

    /// Interpret as integer, converting if needed.
    ///
    /// Float-to-int conversion truncates toward zero, matching C casts.
    #[inline]
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Float(v) => *v as i64,
        }
    }

    /// Interpret as float, converting if needed.
    #[inline]
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
        }
    }

    /// True iff the value is non-zero (branch condition semantics).
    #[inline]
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
        }
    }

    /// Zero of the given type.
    #[inline]
    pub fn zero(ty: Ty) -> Self {
        match ty {
            Ty::Int => Value::Int(0),
            Ty::Float => Value::Float(0.0),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(BlockId(0).to_string(), "bb0");
        assert_eq!(ArrayId(2).to_string(), "@2");
        assert_eq!(InstId(7).to_string(), "i7");
        assert_eq!(Operand::imm_int(-4).to_string(), "-4");
        assert_eq!(Operand::imm_float(2.0).to_string(), "2.0");
        assert_eq!(Operand::imm_float(2.5).to_string(), "2.5");
        assert_eq!(Operand::Reg(Reg(1)).to_string(), "r1");
    }

    #[test]
    fn operand_reg_extraction() {
        assert_eq!(Operand::Reg(Reg(5)).reg(), Some(Reg(5)));
        assert_eq!(Operand::imm_int(1).reg(), None);
        assert!(Operand::imm_float(0.0).is_imm());
        assert!(!Operand::Reg(Reg(0)).is_imm());
    }

    #[test]
    fn value_conversions_match_c_semantics() {
        assert_eq!(Value::Float(2.9).as_int(), 2);
        assert_eq!(Value::Float(-2.9).as_int(), -2);
        assert_eq!(Value::Int(3).as_float(), 3.0);
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
        assert_eq!(Value::zero(Ty::Int), Value::Int(0));
        assert_eq!(Value::zero(Ty::Float), Value::Float(0.0));
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::Int(1).ty(), Ty::Int);
        assert_eq!(Value::Float(1.0).ty(), Ty::Float);
        assert_eq!(Ty::Int.to_string(), "int");
        assert_eq!(Ty::Float.to_string(), "float");
    }
}
