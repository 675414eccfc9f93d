//! Compact executed-request deduplication set.
//!
//! Checkpoints and state transfer used to carry the dedup table as a flat,
//! sorted `Vec<RequestId>` — 16 bytes per executed request, forever. This
//! module replaces it with a per-origin compaction (the ROADMAP's
//! "per-origin last-counter" item): request counters from one origin are
//! overwhelmingly contiguous (a caller group's `req_no`, an abort's
//! `call_no`, a time vote's token all count up), so each origin collapses
//! to a *contiguous prefix bound* plus a small sparse residue of counters
//! that executed out of order. An origin that has executed a million
//! requests in order costs 20 bytes instead of 16 MB.
//!
//! Origins whose single executed counter rides on entropy (result events
//! fold the reply digest into the origin, so each is unique) are encoded
//! in a dedicated singleton section at the old 16 bytes per id — the
//! compaction never costs more than the flat list it replaces.

use crate::wire::{Decoder, Encoder, WireError};
use crate::RequestId;
use std::collections::{BTreeMap, BTreeSet};

/// Per-origin executed counters: the contiguous prefix `[0, next)` plus
/// the out-of-order residue at or above `next`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct OriginSet {
    /// Every counter below this is executed.
    next: u64,
    /// Executed counters `>= next` (holes below them are still pending).
    extras: BTreeSet<u64>,
}

impl OriginSet {
    fn insert(&mut self, counter: u64) -> bool {
        if counter < self.next {
            return false;
        }
        if counter == self.next {
            self.next += 1;
            // Residue that became contiguous folds into the prefix.
            while self.extras.remove(&self.next) {
                self.next += 1;
            }
            return true;
        }
        self.extras.insert(counter)
    }

    fn contains(&self, counter: u64) -> bool {
        counter < self.next || self.extras.contains(&counter)
    }

    fn id_count(&self) -> u64 {
        self.next + self.extras.len() as u64
    }

    /// Whether this origin holds exactly one executed counter that is not
    /// a prefix (the digest-mixed result-event shape): encoded as a raw
    /// `(origin, counter)` singleton, never costing more than the old flat
    /// list did.
    fn singleton(&self) -> Option<u64> {
        if self.next == 0 && self.extras.len() == 1 {
            self.extras.first().copied()
        } else {
            None
        }
    }
}

/// The executed-request dedup set carried in checkpoints and
/// `StateResponse`s, compacted per origin.
///
/// Canonical by construction: the same set of [`RequestId`]s always
/// produces the same structure and therefore the same encoding, so every
/// correct replica derives the identical checkpoint digest from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutedSet {
    origins: BTreeMap<u64, OriginSet>,
}

impl ExecutedSet {
    /// An empty set.
    pub fn new() -> Self {
        ExecutedSet::default()
    }

    /// Marks `id` executed. Returns whether it was newly inserted.
    pub fn insert(&mut self, id: RequestId) -> bool {
        self.origins
            .entry(id.origin)
            .or_default()
            .insert(id.counter)
    }

    /// Whether `id` has executed.
    pub fn contains(&self, id: &RequestId) -> bool {
        self.origins
            .get(&id.origin)
            .is_some_and(|o| o.contains(id.counter))
    }

    /// Number of executed request ids the set covers (prefixes included).
    pub fn id_count(&self) -> u64 {
        self.origins.values().map(OriginSet::id_count).sum()
    }

    /// Whether the set covers nothing.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// Number of wire entries the encoding carries: one per origin plus
    /// one per out-of-order residue counter. This — not [`Self::id_count`] —
    /// is what the wire caps bound; a million contiguous executions still
    /// cost one entry.
    pub fn wire_entries(&self) -> usize {
        self.origins.values().map(|o| 1 + o.extras.len()).sum()
    }

    /// Canonical encoding: a ranged section (`origin`, `next`,
    /// `extra_count`, extras…) for compacted origins and a singleton
    /// section (`origin`, `counter`) for origins holding one stray id.
    pub fn encode_into(&self, e: &mut Encoder) {
        let mut ranged: Vec<(&u64, &OriginSet)> = Vec::new();
        let mut singles: Vec<(u64, u64)> = Vec::new();
        for (origin, set) in &self.origins {
            match set.singleton() {
                Some(counter) => singles.push((*origin, counter)),
                None => ranged.push((origin, set)),
            }
        }
        e.put_u32(ranged.len() as u32);
        for (origin, set) in ranged {
            e.put_u64(*origin);
            e.put_u64(set.next);
            e.put_u32(set.extras.len() as u32);
            for c in &set.extras {
                e.put_u64(*c);
            }
        }
        e.put_u32(singles.len() as u32);
        for (origin, counter) in singles {
            e.put_u64(origin);
            e.put_u64(counter);
        }
    }

    /// The canonical encoding as a byte vector (feeds the checkpoint
    /// digest).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_into(&mut e);
        e.finish().to_vec()
    }

    /// Decodes a set, normalizing as it goes (duplicate or
    /// below-prefix residue collapses), with every count capped at
    /// `max_entries` so a hostile prefix cannot drive a huge allocation.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for truncated input or oversized counts.
    pub fn decode_from(d: &mut Decoder<'_>, max_entries: usize) -> Result<Self, WireError> {
        let err = || WireError::malformed("executed set too large");
        let mut set = ExecutedSet::new();
        let mut budget = max_entries;
        let ranged = d.u32()? as usize;
        if ranged > budget {
            return Err(err());
        }
        budget -= ranged;
        for _ in 0..ranged {
            let origin = d.u64()?;
            let next = d.u64()?;
            let extras = d.u32()? as usize;
            if extras > budget {
                return Err(err());
            }
            budget -= extras;
            let entry = set.origins.entry(origin).or_default();
            if next > entry.next {
                entry.next = next;
            }
            for _ in 0..extras {
                entry.insert(d.u64()?);
            }
        }
        let singles = d.u32()? as usize;
        if singles > budget {
            return Err(err());
        }
        for _ in 0..singles {
            let origin = d.u64()?;
            let counter = d.u64()?;
            set.insert(RequestId::new(origin, counter));
        }
        // Normalize hostile spellings into the canonical structure: a
        // duplicate ranged entry can raise an origin's prefix over residue
        // decoded earlier (purge it, folding anything contiguous), and
        // degenerate empty origins are dropped. After this, `encode` of
        // the decoded set is canonical regardless of how a responder
        // spelled it.
        for o in set.origins.values_mut() {
            while o.extras.first().is_some_and(|c| *c <= o.next) {
                let c = o.extras.pop_first().expect("checked nonempty");
                if c == o.next {
                    o.next += 1;
                    while o.extras.remove(&o.next) {
                        o.next += 1;
                    }
                }
            }
        }
        set.origins.retain(|_, o| o.id_count() > 0);
        Ok(set)
    }
}

impl FromIterator<RequestId> for ExecutedSet {
    fn from_iter<I: IntoIterator<Item = RequestId>>(iter: I) -> Self {
        let mut set = ExecutedSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(set: &ExecutedSet) -> ExecutedSet {
        let bytes = set.encode();
        let mut d = Decoder::new(&bytes);
        let back = ExecutedSet::decode_from(&mut d, 1 << 20).unwrap();
        d.finish().unwrap();
        back
    }

    #[test]
    fn insert_contains_and_counts() {
        let mut s = ExecutedSet::new();
        assert!(s.is_empty());
        assert!(s.insert(RequestId::new(1, 0)));
        assert!(s.insert(RequestId::new(1, 1)));
        assert!(!s.insert(RequestId::new(1, 1)), "duplicate");
        assert!(s.insert(RequestId::new(1, 5)), "out of order");
        assert!(s.contains(&RequestId::new(1, 0)));
        assert!(s.contains(&RequestId::new(1, 5)));
        assert!(!s.contains(&RequestId::new(1, 2)));
        assert!(!s.contains(&RequestId::new(2, 0)));
        assert_eq!(s.id_count(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn out_of_order_residue_folds_into_the_prefix() {
        let mut s = ExecutedSet::new();
        for c in [3u64, 1, 4, 2] {
            s.insert(RequestId::new(7, c));
        }
        assert_eq!(s.wire_entries(), 5, "holes below keep the residue sparse");
        s.insert(RequestId::new(7, 0)); // fills the hole: 0..=4 contiguous
        assert_eq!(s.wire_entries(), 1, "residue folded into the prefix");
        assert_eq!(s.id_count(), 5);
        for c in 0..5 {
            assert!(s.contains(&RequestId::new(7, c)));
        }
    }

    #[test]
    fn insertion_order_does_not_change_the_encoding() {
        let ids = [
            RequestId::new(1, 0),
            RequestId::new(1, 1),
            RequestId::new(1, 2),
            RequestId::new(9, 4),
            RequestId::new(2, 0),
        ];
        let fwd: ExecutedSet = ids.iter().copied().collect();
        let rev: ExecutedSet = ids.iter().rev().copied().collect();
        assert_eq!(fwd, rev);
        assert_eq!(fwd.encode(), rev.encode());
    }

    #[test]
    fn encoding_roundtrips() {
        let mut s = ExecutedSet::new();
        for c in 0..100 {
            s.insert(RequestId::new(3, c));
        }
        s.insert(RequestId::new(3, 500));
        s.insert(RequestId::new(0xDEAD_BEEF, 42)); // singleton shape
        s.insert(RequestId::new(8, 0));
        let back = roundtrip(&s);
        assert_eq!(back, s);
        assert_eq!(back.encode(), s.encode());
    }

    #[test]
    fn sequential_ids_compact_dramatically() {
        // 1000 in-order executions from 2 origins: the flat list cost
        // 16 kB; the compact form is 2 ranged entries.
        let mut s = ExecutedSet::new();
        for c in 0..500u64 {
            s.insert(RequestId::new(1, c));
            s.insert(RequestId::new(2, c));
        }
        assert_eq!(s.id_count(), 1000);
        assert_eq!(s.wire_entries(), 2);
        let flat_bytes = 16 * 1000;
        assert!(
            s.encode().len() < flat_bytes / 100,
            "compact {} bytes vs flat {flat_bytes}",
            s.encode().len()
        );
    }

    #[test]
    fn singletons_cost_no_more_than_the_flat_list() {
        // Digest-mixed origins (result events): one id per origin. The
        // singleton section stores them at the flat list's 16 bytes each.
        let mut s = ExecutedSet::new();
        for i in 0..100u64 {
            s.insert(RequestId::new(0x5245_0000_0000_0000 ^ (i * 0x9E37), i + 1));
        }
        let flat_bytes = 16 * 100;
        assert!(
            s.encode().len() <= flat_bytes + 8,
            "singleton encoding {} bytes vs flat {flat_bytes}",
            s.encode().len()
        );
        assert_eq!(roundtrip(&s), s);
    }

    #[test]
    fn decode_rejects_oversized_counts() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX); // absurd ranged count
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(ExecutedSet::decode_from(&mut d, 1 << 20).is_err());

        // Oversized extras inside one origin are also rejected.
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u64(1); // origin
        e.put_u64(0); // next
        e.put_u32(u32::MAX); // absurd extras count
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(ExecutedSet::decode_from(&mut d, 1 << 20).is_err());
    }

    #[test]
    fn decode_folds_residue_under_a_duplicate_origins_raised_prefix() {
        // Two ranged entries for one origin: the first leaves residue, the
        // second raises the prefix over it. The decoded set must fold the
        // now-covered residue away — same structure, same encoding, same
        // id count as the honest spelling.
        let mut e = Encoder::new();
        e.put_u32(2);
        e.put_u64(5); // origin
        e.put_u64(0); // next
        e.put_u32(1);
        e.put_u64(7); // residue at 7
        e.put_u64(5); // same origin again
        e.put_u64(10); // raised prefix covers 0..10 (incl. 7)
        e.put_u32(0);
        e.put_u32(0); // no singles
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let set = ExecutedSet::decode_from(&mut d, 1 << 20).unwrap();
        d.finish().unwrap();
        let canonical: ExecutedSet = (0..10).map(|c| RequestId::new(5, c)).collect();
        assert_eq!(set, canonical);
        assert_eq!(set.id_count(), 10, "no double-counted residue");
        assert_eq!(set.encode(), canonical.encode());
    }

    #[test]
    fn decode_normalizes_hostile_shapes() {
        // Residue below the prefix and duplicate singletons collapse into
        // the canonical structure, so a re-encoded digest never depends on
        // how a responder chose to spell the set.
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u64(5); // origin
        e.put_u64(3); // next: 0,1,2 executed
        e.put_u32(2);
        e.put_u64(1); // below the prefix: redundant
        e.put_u64(3); // contiguous: folds into the prefix
        e.put_u32(1);
        e.put_u64(5);
        e.put_u64(2); // duplicate of the prefix
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let set = ExecutedSet::decode_from(&mut d, 1 << 20).unwrap();
        d.finish().unwrap();
        let canonical: ExecutedSet = (0..4).map(|c| RequestId::new(5, c)).collect();
        assert_eq!(set, canonical);
    }
}
