//! MAC key and tag newtypes.

use crate::hmac::hmac_sha256;
use std::fmt;

/// A 256-bit symmetric MAC key shared by exactly two principals.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacKey([u8; 32]);

impl MacKey {
    /// Wraps raw key bytes.
    #[cfg(test)]
    pub(crate) const fn from_bytes(bytes: [u8; 32]) -> Self {
        MacKey(bytes)
    }

    /// Derives a key from a master seed and a label, e.g. the canonical names
    /// of the two endpoints. Deterministic, so both endpoints of a simulated
    /// channel derive the same key without a handshake (the paper's
    /// `Connection` modules negotiate keys over SSL; the handshake itself is
    /// not part of any measured path).
    pub fn derive_from_label(master_seed: u64, label: &[u8]) -> Self {
        MacKey(hmac_sha256(&master_seed.to_be_bytes(), label))
    }

    /// The raw key bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Computes the MAC of `msg` under this key.
    pub fn compute(&self, msg: &[u8]) -> Mac {
        Mac(hmac_sha256(&self.0, msg))
    }

    /// Verifies `mac` over `msg`.
    pub fn verify(&self, msg: &[u8], mac: &Mac) -> bool {
        // Simulation substrate: plain comparison suffices (no timing oracle).
        self.compute(msg) == *mac
    }
}

impl fmt::Debug for MacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "MacKey(..)")
    }
}

/// A 256-bit MAC tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mac([u8; 32]);

impl Mac {
    /// Wraps raw tag bytes (e.g. decoded from the wire).
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Mac(bytes)
    }

    /// The raw tag bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Mac({})",
            self.0[..6]
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_verify_roundtrip() {
        let key = MacKey::derive_from_label(7, b"a<->b");
        let mac = key.compute(b"message");
        assert!(key.verify(b"message", &mac));
        assert!(!key.verify(b"messag3", &mac));
    }

    #[test]
    fn different_keys_reject() {
        let k1 = MacKey::derive_from_label(7, b"a<->b");
        let k2 = MacKey::derive_from_label(7, b"a<->c");
        let mac = k1.compute(b"message");
        assert!(!k2.verify(b"message", &mac));
    }

    #[test]
    fn derivation_is_deterministic() {
        let k1 = MacKey::derive_from_label(7, b"x");
        let k2 = MacKey::derive_from_label(7, b"x");
        assert_eq!(k1, k2);
        assert_ne!(k1, MacKey::derive_from_label(8, b"x"));
    }

    #[test]
    fn debug_hides_key_material() {
        let key = MacKey::derive_from_label(7, b"secret");
        assert_eq!(format!("{key:?}"), "MacKey(..)");
        let mac = key.compute(b"m");
        assert!(format!("{mac:?}").starts_with("Mac("));
    }

    #[test]
    fn mac_from_bytes_roundtrip() {
        let key = MacKey::from_bytes([9u8; 32]);
        let mac = key.compute(b"data");
        let wire = *mac.as_bytes();
        assert_eq!(Mac::from_bytes(wire), mac);
    }
}
