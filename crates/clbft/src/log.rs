//! The message log: per-sequence-number slots with quorum tracking.

use crate::messages::Batch;
use crate::{Config, ReplicaId, Seq, View};
use pws_crypto::sha256::Digest32;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Per-sequence-number protocol state.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    /// The accepted pre-prepare for the highest view seen at this seq.
    pub(crate) pre_prepare: Option<(View, Digest32, Batch)>,
    /// Prepare senders per (view, digest).
    pub(crate) prepares: HashMap<(View, Digest32), HashSet<ReplicaId>>,
    /// Commit senders per (view, digest).
    pub(crate) commits: HashMap<(View, Digest32), HashSet<ReplicaId>>,
    /// Whether this replica already broadcast its commit for this slot.
    pub(crate) commit_sent: bool,
    /// Whether the slot's batch has been executed locally.
    pub(crate) executed: bool,
}

impl Slot {
    /// Whether `prepared(m, v, n)` holds: accepted pre-prepare plus a
    /// quorum of matching prepares from distinct replicas.
    pub(crate) fn prepared(&self, cfg: &Config) -> Option<(View, Digest32)> {
        let (v, d, _) = self.pre_prepare.as_ref()?;
        let count = self.prepares.get(&(*v, *d)).map_or(0, HashSet::len);
        (count >= cfg.prepare_quorum()).then_some((*v, *d))
    }

    /// Whether `committed-local` holds: prepared plus a commit quorum.
    pub(crate) fn committed(&self, cfg: &Config) -> bool {
        match self.prepared(cfg) {
            Some((v, d)) => {
                self.commits.get(&(v, d)).map_or(0, HashSet::len) >= cfg.commit_quorum()
            }
            None => false,
        }
    }
}

/// The replica's message log with watermark-based garbage collection.
#[derive(Debug, Default)]
pub(crate) struct Log {
    slots: BTreeMap<Seq, Slot>,
}

impl Log {
    pub(crate) fn slot_mut(&mut self, seq: Seq) -> &mut Slot {
        self.slots.entry(seq).or_default()
    }

    pub(crate) fn slot(&self, seq: Seq) -> Option<&Slot> {
        self.slots.get(&seq)
    }

    /// Drops every slot at or below `stable` (garbage collection after a
    /// stable checkpoint).
    pub(crate) fn gc_below(&mut self, stable: Seq) {
        self.slots = self.slots.split_off(&stable.next());
    }

    /// Sequence numbers (above `from`) that this replica has prepared, for
    /// view-change claims. Each claim carries its whole batch.
    pub(crate) fn prepared_above(
        &self,
        from: Seq,
        cfg: &Config,
    ) -> Vec<(Seq, View, Digest32, Batch)> {
        self.slots
            .range(from.next()..)
            .filter_map(|(seq, slot)| {
                let (v, d) = slot.prepared(cfg)?;
                let (_, _, batch) = slot.pre_prepare.as_ref()?;
                Some((*seq, v, d, batch.clone()))
            })
            .collect()
    }

    /// Executed slots in `(from, to]` with their batches, in order — the
    /// committed log suffix shipped during state transfer so a fetcher
    /// lands at the responder's execution frontier.
    pub(crate) fn executed_suffix(&self, from: Seq, to: Seq) -> Vec<(Seq, Batch)> {
        if to <= from {
            return Vec::new();
        }
        self.slots
            .range(from.next()..=to)
            .filter_map(|(seq, slot)| {
                if !slot.executed {
                    return None;
                }
                let (_, _, batch) = slot.pre_prepare.as_ref()?;
                Some((*seq, batch.clone()))
            })
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Request, RequestId};
    use bytes::Bytes;

    fn req(c: u64) -> Batch {
        Batch::of(Request::new(RequestId::new(1, c), Bytes::from_static(b"x")))
    }

    #[test]
    fn prepared_requires_quorum_and_preprepare() {
        let cfg = Config::new(4); // prepare quorum = 2
        let mut slot = Slot::default();
        let r = req(1);
        let d = r.digest();
        assert!(slot.prepared(&cfg).is_none());
        slot.pre_prepare = Some((View(0), d, r));
        assert!(slot.prepared(&cfg).is_none());
        slot.prepares
            .entry((View(0), d))
            .or_default()
            .insert(ReplicaId(1));
        assert!(slot.prepared(&cfg).is_none());
        slot.prepares
            .entry((View(0), d))
            .or_default()
            .insert(ReplicaId(2));
        assert_eq!(slot.prepared(&cfg), Some((View(0), d)));
    }

    #[test]
    fn prepared_is_immediate_for_n1() {
        let cfg = Config::new(1); // prepare quorum = 0
        let mut slot = Slot::default();
        let r = req(1);
        let d = r.digest();
        slot.pre_prepare = Some((View(0), d, r));
        assert_eq!(slot.prepared(&cfg), Some((View(0), d)));
        slot.commits
            .entry((View(0), d))
            .or_default()
            .insert(ReplicaId(0));
        assert!(slot.committed(&cfg));
    }

    #[test]
    fn committed_requires_commit_quorum() {
        let cfg = Config::new(4); // commit quorum = 3
        let mut slot = Slot::default();
        let r = req(1);
        let d = r.digest();
        slot.pre_prepare = Some((View(0), d, r));
        for i in 1..=2 {
            slot.prepares
                .entry((View(0), d))
                .or_default()
                .insert(ReplicaId(i));
        }
        for i in 0..=1 {
            slot.commits
                .entry((View(0), d))
                .or_default()
                .insert(ReplicaId(i));
        }
        assert!(!slot.committed(&cfg));
        slot.commits
            .entry((View(0), d))
            .or_default()
            .insert(ReplicaId(2));
        assert!(slot.committed(&cfg));
    }

    #[test]
    fn mismatched_digest_prepares_do_not_count() {
        let cfg = Config::new(4);
        let mut slot = Slot::default();
        let r = req(1);
        let d = r.digest();
        let other = req(2).digest();
        slot.pre_prepare = Some((View(0), d, r));
        slot.prepares
            .entry((View(0), other))
            .or_default()
            .insert(ReplicaId(1));
        slot.prepares
            .entry((View(0), other))
            .or_default()
            .insert(ReplicaId(2));
        assert!(slot.prepared(&cfg).is_none());
    }

    #[test]
    fn gc_drops_old_slots() {
        let mut log = Log::default();
        for i in 1..=10u64 {
            log.slot_mut(Seq(i));
        }
        assert_eq!(log.len(), 10);
        log.gc_below(Seq(6));
        assert_eq!(log.len(), 4);
        assert!(log.slot(Seq(6)).is_none());
        assert!(log.slot(Seq(7)).is_some());
    }

    #[test]
    fn executed_suffix_skips_unexecuted_slots() {
        let mut log = Log::default();
        for i in 1..=4u64 {
            let r = req(i);
            let d = r.digest();
            let slot = log.slot_mut(Seq(i));
            slot.pre_prepare = Some((View(0), d, r));
            slot.executed = i != 3;
        }
        let suffix = log.executed_suffix(Seq(1), Seq(4));
        let seqs: Vec<u64> = suffix.iter().map(|(s, _)| s.0).collect();
        assert_eq!(seqs, vec![2, 4]);
        assert!(log.executed_suffix(Seq(4), Seq(4)).is_empty());
        assert!(log.executed_suffix(Seq(4), Seq(1)).is_empty());
    }

    #[test]
    fn prepared_above_reports_claims() {
        let cfg = Config::new(1);
        let mut log = Log::default();
        for i in 1..=3u64 {
            let r = req(i);
            let d = r.digest();
            log.slot_mut(Seq(i)).pre_prepare = Some((View(0), d, r));
        }
        let claims = log.prepared_above(Seq(1), &cfg);
        assert_eq!(claims.len(), 2);
        assert_eq!(claims[0].0, Seq(2));
        assert_eq!(claims[1].0, Seq(3));
    }
}
