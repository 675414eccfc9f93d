//! Group configuration.

/// Static configuration of one CLBFT replica group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Number of replicas; must be `3f + 1` for the tolerated `f`.
    pub n: u32,
    /// Checkpoint interval: a checkpoint is taken every `k` executions.
    pub checkpoint_interval: u64,
    /// Log window size (high watermark = low watermark + window).
    pub(crate) watermark_window: u64,
    /// Maximum number of requests the primary seals into one batch (one
    /// agreement slot). `1` disables batching entirely.
    pub max_batch_size: usize,
    /// Number of slots the primary keeps in flight (proposed but not yet
    /// executed locally) before it starts accumulating requests into
    /// batches. Within this depth requests propose immediately, so
    /// agreement for slot `s + 1` overlaps execution of slot `s`; beyond
    /// it, arrivals coalesce until a slot completes (freeing pipeline
    /// capacity), the watermark advances, or the batch timer fires —
    /// `max_batch_size` caps how much a seal takes, it does not trigger
    /// one. Bounded above by `watermark_window`.
    pub pipeline_depth: u64,
    /// Upper bound, in microseconds, on how long a queued request may wait
    /// for a batch to seal. The replica itself owns no clock — it only
    /// emits [`crate::Action::BatchTimer`] commands — so the transport
    /// harness reads this value (via [`crate::Replica::config`]) to size
    /// the real timer.
    pub batch_delay_us: u64,
    /// Snapshot page size in bytes for Merkle-partitioned state transfer
    /// and incremental checkpoints: the application snapshot is chunked
    /// into pages of this size (see [`crate::pages`]), checkpoint digests
    /// cover the page tree's root, and state transfer fetches only pages
    /// whose digests differ. Must be identical across the group — page
    /// geometry is digest-covered, so a mismatched replica simply never
    /// agrees with any checkpoint.
    pub page_size: u32,
    /// Collect per-request lifecycle phase events
    /// ([`crate::ObsEvent::Phase`]) for the harness to drain via
    /// [`crate::Replica::take_obs_events`]. Off by default; flight events
    /// ([`crate::ObsEvent::Flight`]) are collected regardless — they are
    /// rare and the buffer bounded. Purely observational: no protocol
    /// decision reads it.
    pub obs_phases: bool,
    /// Collect protocol audit observations ([`crate::ObsEvent::Audit`])
    /// for the harness to feed the online invariant auditor. Off by
    /// default; purely observational, like `obs_phases`.
    pub audit: bool,
}

impl Config {
    /// A configuration for `n` replicas with default checkpointing.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n != 3f + 1` for some `f >= 0` — i.e. `n` must
    /// be in `{1, 4, 7, 10, ...}`, matching the replica group sizes the
    /// paper evaluates.
    pub fn new(n: u32) -> Self {
        assert!(
            n >= 1 && (n - 1).is_multiple_of(3),
            "n must be 3f+1, got {n}"
        );
        Config {
            n,
            checkpoint_interval: 64,
            watermark_window: 256,
            max_batch_size: 16,
            pipeline_depth: 2,
            batch_delay_us: 1_000,
            page_size: crate::pages::DEFAULT_PAGE_SIZE,
            obs_phases: false,
            audit: false,
        }
    }

    /// The effective in-flight proposal bound: the configured pipeline
    /// depth, never exceeding the watermark window.
    pub(crate) fn effective_pipeline_depth(&self) -> u64 {
        self.pipeline_depth.min(self.watermark_window)
    }

    /// The number of Byzantine faults this group tolerates: `f = (n-1)/3`.
    pub(crate) fn f(&self) -> u32 {
        (self.n - 1) / 3
    }

    /// Quorum of matching `prepare`s needed (beyond the pre-prepare): `2f`.
    pub(crate) fn prepare_quorum(&self) -> usize {
        2 * self.f() as usize
    }

    /// Quorum of matching `commit`s needed: `2f + 1`.
    pub(crate) fn commit_quorum(&self) -> usize {
        2 * self.f() as usize + 1
    }

    /// Quorum of matching checkpoint messages for stability: `2f + 1`.
    pub(crate) fn checkpoint_quorum(&self) -> usize {
        self.commit_quorum()
    }

    /// Quorum of view-change messages the new primary needs: `2f + 1`.
    pub(crate) fn view_change_quorum(&self) -> usize {
        self.commit_quorum()
    }

    /// All replica ids in the group.
    #[cfg(test)]
    pub(crate) fn replicas(&self) -> impl Iterator<Item = crate::ReplicaId> {
        (0..self.n).map(crate::ReplicaId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplicaId;

    #[test]
    fn quorums_for_paper_sizes() {
        for (n, f, prep, commit) in [(1, 0, 0, 1), (4, 1, 2, 3), (7, 2, 4, 5), (10, 3, 6, 7)] {
            let c = Config::new(n);
            assert_eq!(c.f(), f, "n={n}");
            assert_eq!(c.prepare_quorum(), prep, "n={n}");
            assert_eq!(c.commit_quorum(), commit, "n={n}");
            assert_eq!(c.checkpoint_quorum(), commit);
            assert_eq!(c.view_change_quorum(), commit);
        }
    }

    #[test]
    #[should_panic(expected = "3f+1")]
    fn rejects_non_3f1() {
        Config::new(5);
    }

    #[test]
    fn batching_defaults_are_sane() {
        let c = Config::new(4);
        assert!(c.max_batch_size >= 1);
        assert!(c.pipeline_depth >= 1);
        assert_eq!(c.effective_pipeline_depth(), c.pipeline_depth);
        let mut wide = c.clone();
        wide.pipeline_depth = wide.watermark_window + 100;
        assert_eq!(wide.effective_pipeline_depth(), wide.watermark_window);
    }

    #[test]
    fn replicas_enumerates_all() {
        let ids: Vec<_> = Config::new(4).replicas().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[3], ReplicaId(3));
    }
}
