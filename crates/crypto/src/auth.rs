//! PBFT-style authenticators and Perpetual reply-bundle shares.
//!
//! An *authenticator* is a vector of MACs over the same message, one per
//! receiving replica, each computed under the pairwise key the sender shares
//! with that replica (Castro & Liskov §2.4). It replaces a digital signature
//! at roughly 1/1000 of the cost, at the price of `O(n)` tag bytes.
//!
//! A [`BundleShare`] is a target replica's contribution to a Perpetual reply
//! bundle (paper §2.1.1 stages 5–6): the replica MACs the reply digest once
//! per *calling* driver, so the responder can forward a bundle of `f_t + 1`
//! shares that every calling driver can verify independently.

use crate::keys::{KeyTable, Principal};
use crate::mac::Mac;
use crate::sha256::Digest32;

/// A vector of MACs over one message, one entry per receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Authenticator {
    entries: Vec<(Principal, Mac)>,
}

impl Authenticator {
    /// Computes an authenticator for `msg` from `sender` to each receiver.
    pub fn compute(
        keys: &mut KeyTable,
        sender: Principal,
        receivers: &[Principal],
        msg: &[u8],
    ) -> Self {
        let entries = receivers
            .iter()
            .map(|&r| (r, Mac::from_bytes(keys.key_between(sender, r).mac(msg))))
            .collect();
        Authenticator { entries }
    }

    /// Verifies the entry addressed to `receiver`, if present.
    pub fn verify(
        &self,
        keys: &mut KeyTable,
        sender: Principal,
        receiver: Principal,
        msg: &[u8],
    ) -> bool {
        self.entries
            .iter()
            .find(|(r, _)| *r == receiver)
            .is_some_and(|(_, mac)| keys.key_between(sender, receiver).mac(msg) == *mac.as_bytes())
    }

    /// Number of (receiver, MAC) entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the authenticator carries no entries.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries (for wire encoding).
    pub fn entries(&self) -> impl Iterator<Item = &(Principal, Mac)> {
        self.entries.iter()
    }

    /// Rebuilds an authenticator from decoded entries.
    pub fn from_entries(entries: Vec<(Principal, Mac)>) -> Self {
        Authenticator { entries }
    }
}

/// One target replica's contribution to a reply bundle: an authenticator
/// over `(request id, reply digest)` addressed to every calling driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleShare {
    /// The target replica that produced this share.
    pub from: Principal,
    /// Digest of the reply payload this share vouches for.
    pub reply_digest: Digest32,
    /// MACs addressed to each calling driver.
    pub auth: Authenticator,
}

/// Canonical byte string a share MACs: request id then reply digest.
pub(crate) fn share_message(request_tag: &[u8], reply_digest: &Digest32) -> Vec<u8> {
    let mut msg = Vec::with_capacity(request_tag.len() + 32);
    msg.extend_from_slice(request_tag);
    msg.extend_from_slice(reply_digest.as_bytes());
    msg
}

impl BundleShare {
    /// Builds a share for `reply_digest` of request `request_tag`, MACed to
    /// every principal in `calling_drivers`.
    pub fn build(
        keys: &mut KeyTable,
        from: Principal,
        request_tag: &[u8],
        reply_digest: Digest32,
        calling_drivers: &[Principal],
    ) -> Self {
        let msg = share_message(request_tag, &reply_digest);
        BundleShare {
            from,
            reply_digest,
            auth: Authenticator::compute(keys, from, calling_drivers, &msg),
        }
    }

    /// Verifies this share from the point of view of one calling driver.
    pub fn verify(&self, keys: &mut KeyTable, request_tag: &[u8], me: Principal) -> bool {
        let msg = share_message(request_tag, &self.reply_digest);
        self.auth.verify(keys, self.from, me, &msg)
    }
}

/// Validates a reply bundle from one calling driver's perspective: at least
/// `threshold` shares from *distinct* target replicas, all vouching for
/// `reply_digest`, each with a valid MAC addressed to `me`.
pub fn verify_bundle(
    keys: &mut KeyTable,
    shares: &[BundleShare],
    request_tag: &[u8],
    reply_digest: &Digest32,
    me: Principal,
    threshold: usize,
) -> bool {
    let mut seen: Vec<Principal> = Vec::new();
    for share in shares {
        if share.reply_digest != *reply_digest || seen.contains(&share.from) {
            continue;
        }
        if share.verify(keys, request_tag, me) {
            seen.push(share.from);
            if seen.len() >= threshold {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn drivers(n: u32) -> Vec<Principal> {
        (0..n).map(|i| Principal::new(1, i)).collect()
    }

    #[test]
    fn authenticator_verifies_per_receiver() {
        let mut keys = KeyTable::new(1);
        let sender = Principal::new(0, 0);
        let rs = drivers(4);
        let auth = Authenticator::compute(&mut keys, sender, &rs, b"hello");
        assert_eq!(auth.len(), 4);
        assert!(!auth.is_empty());
        for &r in &rs {
            assert!(auth.verify(&mut keys, sender, r, b"hello"));
            assert!(!auth.verify(&mut keys, sender, r, b"hellp"));
        }
        // A receiver not in the vector fails.
        assert!(!auth.verify(&mut keys, sender, Principal::new(1, 9), b"hello"));
    }

    #[test]
    fn authenticator_entry_roundtrip() {
        let mut keys = KeyTable::new(1);
        let sender = Principal::new(0, 0);
        let rs = drivers(3);
        let auth = Authenticator::compute(&mut keys, sender, &rs, b"m");
        let rebuilt = Authenticator::from_entries(auth.entries().cloned().collect());
        assert_eq!(auth, rebuilt);
        assert!(rebuilt.entries().any(|(r, _)| *r == rs[1]));
        assert!(!rebuilt.entries().any(|(r, _)| *r == Principal::new(9, 9)));
    }

    #[test]
    fn bundle_accepts_threshold_distinct_shares() {
        let mut keys = KeyTable::new(1);
        let callers = drivers(4);
        let digest = sha256(b"the reply");
        let tag = b"req-42";
        let shares: Vec<BundleShare> = (0..2)
            .map(|i| BundleShare::build(&mut keys, Principal::new(2, i), tag, digest, &callers))
            .collect();
        // threshold 2 (= f_t + 1 with f_t = 1)
        assert!(verify_bundle(
            &mut keys, &shares, tag, &digest, callers[0], 2
        ));
        assert!(!verify_bundle(
            &mut keys, &shares, tag, &digest, callers[0], 3
        ));
    }

    #[test]
    fn bundle_rejects_duplicate_share_origin() {
        let mut keys = KeyTable::new(1);
        let callers = drivers(4);
        let digest = sha256(b"the reply");
        let tag = b"req-1";
        let share = BundleShare::build(&mut keys, Principal::new(2, 0), tag, digest, &callers);
        let shares = vec![share.clone(), share];
        assert!(!verify_bundle(
            &mut keys, &shares, tag, &digest, callers[0], 2
        ));
    }

    #[test]
    fn bundle_rejects_wrong_digest_shares() {
        let mut keys = KeyTable::new(1);
        let callers = drivers(4);
        let good = sha256(b"good");
        let bad = sha256(b"bad");
        let tag = b"req-2";
        let shares = vec![
            BundleShare::build(&mut keys, Principal::new(2, 0), tag, good, &callers),
            BundleShare::build(&mut keys, Principal::new(2, 1), tag, bad, &callers),
        ];
        assert!(!verify_bundle(
            &mut keys, &shares, tag, &good, callers[0], 2
        ));
    }

    #[test]
    fn bundle_rejects_forged_share() {
        let mut keys = KeyTable::new(1);
        let mut other_keys = KeyTable::new(2); // attacker has wrong keys
        let callers = drivers(4);
        let digest = sha256(b"r");
        let tag = b"req-3";
        let shares = vec![
            BundleShare::build(&mut keys, Principal::new(2, 0), tag, digest, &callers),
            BundleShare::build(&mut other_keys, Principal::new(2, 1), tag, digest, &callers),
        ];
        assert!(!verify_bundle(
            &mut keys, &shares, tag, &digest, callers[0], 2
        ));
        assert!(verify_bundle(
            &mut keys, &shares, tag, &digest, callers[0], 1
        ));
    }
}
