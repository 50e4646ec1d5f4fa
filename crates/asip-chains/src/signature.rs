//! Sequence signatures: the op-class tuples naming detected sequences.

use asip_ir::OpClass;
use std::fmt;
use std::str::FromStr;

/// A sequence signature: the ordered op classes of a chain, e.g.
/// `multiply-add` (the MAC) or `add-shift-add`.
///
/// Signatures print and parse in the paper's hyphenated vocabulary:
///
/// ```
/// use asip_chains::Signature;
///
/// let mac: Signature = "multiply-add".parse()?;
/// assert_eq!(mac.len(), 2);
/// assert_eq!(mac.to_string(), "multiply-add");
/// # Ok::<(), asip_chains::signature::ParseSignatureError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(Vec<OpClass>);

impl Signature {
    /// Create a signature from op classes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two classes are given — chains have length
    /// at least two by definition.
    pub fn new(classes: Vec<OpClass>) -> Self {
        assert!(classes.len() >= 2, "a sequence has at least two operations");
        Signature(classes)
    }

    /// The op classes, head first.
    pub fn classes(&self) -> &[OpClass] {
        &self.0
    }

    /// Chain length.
    #[allow(clippy::len_without_is_empty)] // never empty by construction
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if every class in the signature is chainable.
    pub fn is_chainable(&self) -> bool {
        self.0.iter().all(|c| c.is_chainable())
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Error parsing a signature from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSignatureError {
    /// The word that failed to parse as an op class.
    pub word: String,
}

impl fmt::Display for ParseSignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operation class `{}` in signature", self.word)
    }
}

impl std::error::Error for ParseSignatureError {}

impl FromStr for Signature {
    type Err = ParseSignatureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let classes: Result<Vec<OpClass>, _> = s
            .split('-')
            .map(|w| {
                w.parse::<OpClass>().map_err(|_| ParseSignatureError {
                    word: w.to_string(),
                })
            })
            .collect();
        let classes = classes?;
        if classes.len() < 2 {
            return Err(ParseSignatureError {
                word: s.to_string(),
            });
        }
        Ok(Signature(classes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_paper_signatures() {
        for s in [
            "multiply-add",
            "add-multiply",
            "add-add",
            "add-multiply-add",
            "multiply-add-add",
            "add-shift-add",
            "load-multiply-add",
            "fload-fmultiply",
            "fmultiply-fsub-fstore",
            "add-compare",
            "shift-add-subtract",
            "fload-fadd",
        ] {
            let sig: Signature = s.parse().expect(s);
            assert_eq!(sig.to_string(), s);
            assert!(sig.is_chainable());
        }
    }

    #[test]
    fn rejects_bad_signatures() {
        assert!("frobnicate-add".parse::<Signature>().is_err());
        assert!("add".parse::<Signature>().is_err(), "length-1 rejected");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn new_rejects_short() {
        let _ = Signature::new(vec![OpClass::Add]);
    }

    #[test]
    fn ordering_is_stable() {
        let a: Signature = "add-add".parse().expect("ok");
        let b: Signature = "add-multiply".parse().expect("ok");
        assert!(a < b);
    }
}
