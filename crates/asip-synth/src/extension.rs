//! ISA extensions and complete designs.

use asip_chains::Signature;

/// One chained-instruction extension chosen for the ASIP.
#[derive(Debug, Clone, PartialEq)]
pub struct IsaExtension {
    /// Extension id (the `ext` field of [`asip_ir::InstKind::Chained`]).
    pub id: u32,
    /// The fused sequence.
    pub signature: Signature,
    /// Estimated area of the chained unit (gate equivalents).
    pub area: f64,
    /// Detected dynamic frequency that motivated the selection (percent).
    pub expected_benefit: f64,
}

/// A complete extension set for one ASIP.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AsipDesign {
    /// Chosen extensions, in selection order.
    pub extensions: Vec<IsaExtension>,
    /// Area consumed by the extensions.
    pub extension_area: f64,
}

impl AsipDesign {
    /// Find an extension by signature.
    pub fn find(&self, signature: &Signature) -> Option<&IsaExtension> {
        self.extensions.iter().find(|e| &e.signature == signature)
    }

    /// Number of extensions.
    pub fn len(&self) -> usize {
        self.extensions.len()
    }

    /// True if no extension was selected.
    pub fn is_empty(&self) -> bool {
        self.extensions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_lookup() {
        let mac: Signature = "multiply-add".parse().expect("ok");
        let design = AsipDesign {
            extensions: vec![IsaExtension {
                id: 0,
                signature: mac.clone(),
                area: 1286.0,
                expected_benefit: 9.1,
            }],
            extension_area: 1286.0,
        };
        assert_eq!(design.len(), 1);
        assert!(!design.is_empty());
        assert!(design.find(&mac).is_some());
        assert!(design.find(&"add-add".parse().expect("ok")).is_none());
    }
}
