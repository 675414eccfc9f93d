//! Pairwise session-key tables.
//!
//! The paper's `ChannelAdapter` maintains an authenticated, encrypted
//! SSL/TCP connection per peer; the session keys behind those connections
//! are modeled here as deterministic derivations from a deployment-wide
//! master seed, so every correct node computes the same pairwise key without
//! a simulated handshake.

use crate::hmac::HmacKey;
use crate::mac::MacKey;
use std::collections::HashMap;
use std::fmt;

/// A protocol principal: one replica of one service group.
///
/// Unreplicated endpoints (plain clients, §1 footnote 3) are degenerate
/// groups of size 1, so they are principals too.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Principal {
    /// The replica group (service) id.
    pub group: u32,
    /// The replica index within the group.
    pub replica: u32,
}

impl Principal {
    /// Creates a principal.
    pub const fn new(group: u32, replica: u32) -> Self {
        Principal { group, replica }
    }
}

impl fmt::Debug for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}r{}", self.group, self.replica)
    }
}

/// Lazily-populated table of pairwise MAC keys, each kept with its HMAC
/// midstates so a MAC under it skips re-absorbing the key pads.
#[derive(Debug)]
pub struct KeyTable {
    master_seed: u64,
    cache: HashMap<(Principal, Principal), HmacKey>,
}

impl KeyTable {
    /// Creates a key table for a deployment identified by `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        KeyTable {
            master_seed,
            cache: HashMap::new(),
        }
    }

    /// The symmetric key shared by `a` and `b`, ready to MAC with;
    /// symmetric in its arguments.
    pub(crate) fn key_between(&mut self, a: Principal, b: Principal) -> &HmacKey {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let seed = self.master_seed;
        self.cache.entry((lo, hi)).or_insert_with(|| {
            let mut label = Vec::with_capacity(16);
            label.extend_from_slice(&lo.group.to_be_bytes());
            label.extend_from_slice(&lo.replica.to_be_bytes());
            label.extend_from_slice(&hi.group.to_be_bytes());
            label.extend_from_slice(&hi.replica.to_be_bytes());
            HmacKey::new(MacKey::derive_from_label(seed, &label).as_bytes())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_symmetric() {
        let mut t = KeyTable::new(99);
        let a = Principal::new(0, 1);
        let b = Principal::new(2, 3);
        let ab = t.key_between(a, b).mac(b"m");
        assert_eq!(ab, t.key_between(b, a).mac(b"m"));
    }

    #[test]
    fn distinct_pairs_distinct_keys() {
        let mut t = KeyTable::new(99);
        let a = Principal::new(0, 0);
        let b = Principal::new(0, 1);
        let c = Principal::new(0, 2);
        let ab = t.key_between(a, b).mac(b"m");
        assert_ne!(ab, t.key_between(a, c).mac(b"m"));
        assert_ne!(ab, t.key_between(b, c).mac(b"m"));
    }

    #[test]
    fn two_tables_same_seed_agree() {
        let mut t1 = KeyTable::new(5);
        let mut t2 = KeyTable::new(5);
        let a = Principal::new(1, 0);
        let b = Principal::new(2, 1);
        let k1 = t1.key_between(a, b).mac(b"m");
        assert_eq!(k1, t2.key_between(a, b).mac(b"m"));
        let mut t3 = KeyTable::new(6);
        assert_ne!(k1, t3.key_between(a, b).mac(b"m"));
    }

    #[test]
    fn kept_midstates_mac_like_the_derived_key() {
        let mut t = KeyTable::new(5);
        let (a, b) = (Principal::new(1, 0), Principal::new(2, 1));
        let derived =
            MacKey::derive_from_label(5, &[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1]);
        assert_eq!(
            t.key_between(a, b).mac(b"m"),
            *derived.compute(b"m").as_bytes()
        );
    }

    #[test]
    fn principal_debug() {
        assert_eq!(format!("{:?}", Principal::new(3, 1)), "g3r1");
    }
}
