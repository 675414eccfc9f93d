//! Checkpointing and state transfer: the sub-machine beside the agreement
//! core.
//!
//! [`Checkpoints`] owns everything between "execution crossed a boundary"
//! and "the log below it is gone", and the way back in for a replica that
//! fell behind: boundary capture and the snapshot digest, checkpoint votes
//! and stabilisation, lag detection, serving and absorbing
//! `FetchState`/`StateResponse`/`FetchPages`/`PageResponse`, suffix votes
//! and view reports. It holds no reference to the agreement core
//! ([`crate::Replica`]): the protocol messages it wants sent go into the
//! caller's action list, and whatever the core itself must apply — a newly
//! stable sequence number, a checkpoint to install, suffix slots to
//! replay, a view to adopt — comes back as a plain return value.

use crate::dedup::ExecutedSet;
use crate::messages::{
    checkpoint_digest, Batch, CheckpointMsg, FetchPagesMsg, FetchStateMsg, Msg, PageResponseMsg,
    StateResponseMsg, SuffixSlot,
};
use crate::pages::{page_digest, PageCounters, PageManifest, MAX_PAGES_PER_FETCH};
use crate::replica::{fold_digest, Action, Obs};
use crate::{Config, ReplicaId, Seq, View};
use bytes::Bytes;
use pws_crypto::sha256::Digest32;
use pws_obs::{AuditEvent, FlightKind, ProtoFamily};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One checkpoint, from the moment execution crosses its boundary: the
/// execution-chain and dedup-set values captured there, then — once the
/// harness answers with the application state, or a transfer installs
/// it — the snapshot half. The record at the stable sequence number serves
/// `FetchState`/`FetchPages`; the newest record holding a snapshot is the
/// diff base for incremental hashing and the first place a page fetch
/// looks for pages this replica already has.
#[derive(Debug)]
struct Checkpoint {
    exec_chain: Digest32,
    executed: ExecutedSet,
    taken: Option<Taken>,
}

/// The snapshot half of a [`Checkpoint`]. `StateResponse` ships the
/// manifest (the snapshot's page table); the pages themselves are served
/// range-by-range from `snapshot` in answer to `FetchPages`.
#[derive(Debug)]
struct Taken {
    snapshot: Bytes,
    manifest: PageManifest,
    /// [`checkpoint_digest`] over the whole record: what this replica
    /// votes, and what a quorum of matching votes makes stable.
    digest: Digest32,
}

/// An in-progress Merkle page transfer toward a certified checkpoint. The
/// manifest arrived in a `StateResponse` whose checkpoint digest reached
/// `f + 1` distinct vouchers — and that digest covers the manifest's Merkle
/// root, which covers every per-page digest — so each received page is
/// verified against the manifest before it fills a slot. The checkpoint
/// installs only once no page is missing; a Byzantine responder can stall
/// the transfer but never corrupt it.
#[derive(Debug)]
struct PageFetch {
    seq: Seq,
    digest: Digest32,
    exec_chain: Digest32,
    executed: ExecutedSet,
    manifest: PageManifest,
    /// Verified page bytes by index; `None` until fetched (pages this
    /// replica already holds are filled at fetch start).
    pages: Vec<Option<Bytes>>,
    /// Pages asked of some responder in the current solicitation round.
    /// A page is never re-requested while this is set — redundant honest
    /// responders would otherwise all ship the same range — and the flag
    /// clears when the page's answer fails verification (re-ask another
    /// peer immediately) or when a new `FetchState` round begins.
    requested: Vec<bool>,
    /// Count of `None` entries in `pages`.
    missing: usize,
}

/// A certified checkpoint, every page verified, for the agreement core to
/// jump to ([`Action::InstallState`] carries `snapshot` to the harness).
#[derive(Debug)]
pub(crate) struct Install {
    pub(crate) seq: Seq,
    pub(crate) exec_chain: Digest32,
    pub(crate) snapshot: Bytes,
    pub(crate) executed: ExecutedSet,
}

/// What a state-transfer message asks the agreement core to apply, in
/// field order.
#[derive(Debug, Default)]
pub(crate) struct Transfer {
    /// Jump to this checkpoint.
    pub(crate) install: Option<Install>,
    /// Then replay these committed slots: contiguous from the (possibly
    /// just installed) frontier, each sent identically by `f + 1` distinct
    /// responders.
    pub(crate) replay: Vec<(Seq, Batch)>,
    /// A fetch ended or the frontier moved: run the post-transfer tail.
    pub(crate) progressed: bool,
    /// The `(f + 1)`-th highest view the responders report being in.
    pub(crate) view: Option<View>,
}

/// Maximum `StateResponse`s served to one requester per stable checkpoint:
/// one for the fetch that discovers the checkpoint, one spare in case the
/// requester loses its state again before the next boundary stabilizes.
pub(crate) const MAX_SERVES_PER_STABLE: u64 = 2;

/// Floor of the per-requester *page*-serve budget per stable checkpoint
/// (the budget itself is `MAX_SERVES_PER_STABLE` full transfers' worth of
/// pages); the floor keeps tiny snapshots from starving honest retries.
pub(crate) const MIN_PAGE_BUDGET: u64 = 2 * MAX_PAGES_PER_FETCH as u64;

/// The `Bytes` view of page `i` of `snapshot` (refcounted slice, no copy).
fn page_slice(snapshot: &Bytes, manifest: &PageManifest, i: usize) -> Bytes {
    let ps = manifest.page_size() as usize;
    let start = i * ps;
    snapshot.slice(start..(start + ps).min(snapshot.len()))
}

/// The stable checkpoint's record, once this replica holds its snapshot.
/// A free function over the fields so callers can keep charging serve
/// tallies while they read it.
fn stable_record(
    records: &BTreeMap<Seq, Checkpoint>,
    stable: Seq,
) -> Option<(&Checkpoint, &Taken)> {
    let cp = records.get(&stable)?;
    Some((cp, cp.taken.as_ref()?))
}

/// Counts a rejected page-response frame or page and leaves a flight
/// record naming `index`: a Byzantine responder's misbehavior is
/// observable, never installable.
fn reject_page(counters: &mut PageCounters, obs: &mut Obs, index: u64) {
    counters.rejected += 1;
    obs.flight(FlightKind::PageRejected, index, 0);
}

/// The checkpoint and state-transfer sub-machine of one replica.
#[derive(Debug)]
pub(crate) struct Checkpoints {
    id: ReplicaId,
    cfg: Config,
    stable_seq: Seq,
    /// One record per boundary from the stable checkpoint up (nothing
    /// before the first one stabilizes or installs).
    records: BTreeMap<Seq, Checkpoint>,
    votes: BTreeMap<Seq, HashMap<Digest32, HashSet<ReplicaId>>>,
    /// Per-peer index of the seqs it holds votes for in `votes`, capping
    /// how many entries any one peer can occupy (a Byzantine peer could
    /// otherwise grow the vote map without bound by voting for arbitrary
    /// far-future seqs that are never garbage-collected).
    vote_index: HashMap<ReplicaId, BTreeSet<Seq>>,
    /// Suffix-slot claims gathered from `StateResponse`s: per slot, each
    /// responder's latest claimed batch under its batch digest (a re-vote
    /// replaces). The checkpoint digest does not cover the suffix, so a
    /// slot replays only once `f + 1` distinct responders sent the
    /// identical batch for it — then at least one correct replica vouches
    /// that this batch really committed there
    /// ([`Checkpoints::take_replayable`]).
    suffix_votes: BTreeMap<Seq, HashMap<ReplicaId, (Digest32, Batch)>>,
    /// The latest view each `StateResponse` sender reported. A rebooted
    /// replica rejoins view `v` only when `f + 1` distinct responders
    /// report a view `>= v` (so at least one correct replica really is
    /// there); a lone Byzantine responder cannot strand it in a bogus
    /// far-future view.
    reported_views: HashMap<ReplicaId, View>,
    /// `StateResponse`s served per requester at the current stable
    /// checkpoint, bounding the large-message amplification a
    /// `FetchState`-spamming peer can extract: a tally starts over only
    /// when the group's next boundary stabilizes ([`Checkpoints::gc`]).
    served_fetches: HashMap<ReplicaId, u64>,
    /// Pages served per requester at the current stable checkpoint: the
    /// page-granular sibling of `served_fetches`.
    served_pages: HashMap<ReplicaId, u64>,
    /// Highest checkpoint seq a lag-triggered fetch is in flight for
    /// (suppresses re-broadcasting for the same evidence).
    fetch_target: Option<Seq>,
    /// In-progress page transfer ([`Checkpoints::begin_page_fetch`]);
    /// cleared on install or when a newer certified checkpoint supersedes
    /// it.
    page_fetch: Option<PageFetch>,
    /// Content-addressed pages this replica holds *besides* its newest
    /// snapshot's: pages seeded at reboot and pages verified mid-transfer.
    /// Together with that snapshot it is the diff base that lets a warm
    /// fetcher pull only pages it is missing. Emptied whenever a newer
    /// snapshot arrives, at a boundary or by install.
    page_store: HashMap<Digest32, Bytes>,
    /// Counters behind the `clbft.pages.*` metrics.
    page_counters: PageCounters,
    /// State transfer in progress: set when this replica solicits a fetch
    /// (lag evidence or explicit rejoin) and cleared only once the fetch
    /// is satisfied *and* the known committed suffix has replayed — until
    /// then the replica's state may be a bare checkpoint behind the
    /// group's frontier and must not answer read-only requests.
    recovering: bool,
}

impl Checkpoints {
    pub(crate) fn new(id: ReplicaId, cfg: Config) -> Self {
        Checkpoints {
            id,
            cfg,
            stable_seq: Seq::ZERO,
            records: BTreeMap::new(),
            votes: BTreeMap::new(),
            vote_index: HashMap::new(),
            suffix_votes: BTreeMap::new(),
            reported_views: HashMap::new(),
            served_fetches: HashMap::new(),
            served_pages: HashMap::new(),
            fetch_target: None,
            page_fetch: None,
            page_store: HashMap::new(),
            page_counters: PageCounters::default(),
            recovering: false,
        }
    }

    pub(crate) fn stable_seq(&self) -> Seq {
        self.stable_seq
    }

    /// Digest of the stable checkpoint (ZERO before the first one).
    pub(crate) fn stable_digest(&self) -> Digest32 {
        stable_record(&self.records, self.stable_seq).map_or(Digest32::ZERO, |(_, t)| t.digest)
    }

    pub(crate) fn recovering(&self) -> bool {
        self.recovering
    }

    pub(crate) fn take_page_counters(&mut self) -> PageCounters {
        self.page_counters.take()
    }

    /// The newest snapshot this replica holds, taken locally or installed.
    fn newest_taken(&self) -> Option<&Taken> {
        self.records.values().rev().find_map(|cp| cp.taken.as_ref())
    }

    /// Every page this replica holds: the store plus the newest snapshot's
    /// pages, read through its manifest.
    pub(crate) fn take_page_store(&mut self) -> Vec<Bytes> {
        let mut pages: Vec<Bytes> = self.page_store.drain().map(|(_, page)| page).collect();
        if let Some(t) = self.newest_taken() {
            pages.extend((0..t.manifest.len()).map(|i| page_slice(&t.snapshot, &t.manifest, i)));
        }
        pages
    }

    /// See [`crate::Replica::seed_page_store`].
    pub(crate) fn seed_page_store(&mut self, pages: impl IntoIterator<Item = Bytes>) {
        for page in pages {
            self.page_store.insert(page_digest(&page), page);
        }
    }

    /// Execution crossed the checkpoint boundary `seq`: keeps the chain and
    /// dedup values as of that point until [`Checkpoints::on_snapshot`]
    /// completes the record.
    pub(crate) fn capture_boundary(
        &mut self,
        seq: Seq,
        exec_chain: Digest32,
        executed: ExecutedSet,
    ) {
        let cp = Checkpoint {
            exec_chain,
            executed,
            taken: None,
        };
        self.records.insert(seq, cp);
    }

    /// The application state at boundary `seq` arrived: chunks it into the
    /// page table (re-hashing only pages dirtied since the newest snapshot
    /// held), digests `(seq, page-tree root, dedup set, exec chain)`,
    /// completes the record, and broadcasts this replica's checkpoint vote.
    /// Returns `seq` if that vote made the checkpoint stable.
    pub(crate) fn on_snapshot(
        &mut self,
        seq: Seq,
        snapshot: Bytes,
        obs: &mut Obs,
        out: &mut Vec<Action>,
    ) -> Option<Seq> {
        // A boundary superseded by an install, never captured, or already
        // answered has no open record.
        let open = self.records.get(&seq).is_some_and(|cp| cp.taken.is_none());
        if !open || seq <= self.stable_seq {
            return None;
        }
        let (manifest, hashed, dirty) = {
            let prev = self
                .newest_taken()
                .map(|t| (t.snapshot.as_ref(), &t.manifest));
            PageManifest::compute_incremental(&snapshot, self.cfg.page_size, prev)
        };
        self.page_counters.hashed += hashed;
        self.page_counters.dirty += dirty;
        obs.flight(FlightKind::CheckpointTaken, seq.0, snapshot.len() as u64);
        obs.proto(ProtoFamily::Ckpt, seq.0, 0, snapshot.len() as u64);
        let cp = self.records.get_mut(&seq).expect("checked above");
        let digest = checkpoint_digest(seq, &manifest, &cp.executed, &cp.exec_chain);
        cp.taken = Some(Taken {
            snapshot,
            manifest,
            digest,
        });
        // Stored pages predate this snapshot: whatever they still offer a
        // later fetch, the snapshot's own pages offer too.
        self.page_store.clear();
        self.record_vote(seq, digest, self.id, obs);
        out.push(Action::Broadcast(Msg::Checkpoint(CheckpointMsg {
            seq,
            state_digest: digest,
            replica: self.id,
        })));
        self.try_stabilize(seq, obs)
    }

    /// A peer's checkpoint vote. Returns `c.seq` if it made that
    /// checkpoint stable; otherwise the vote may be the lag evidence that
    /// starts a state fetch.
    pub(crate) fn on_checkpoint(
        &mut self,
        from: ReplicaId,
        c: CheckpointMsg,
        last_exec: Seq,
        obs: &mut Obs,
        out: &mut Vec<Action>,
    ) -> Option<Seq> {
        if c.seq <= self.stable_seq || from != c.replica {
            return None;
        }
        self.record_vote(c.seq, c.state_digest, from, obs);
        let stable = self.try_stabilize(c.seq, obs);
        self.maybe_fetch(c.seq, last_exec, obs, out);
        stable
    }

    /// How many distinct checkpoint seqs one peer's votes may occupy: the
    /// boundaries a correct replica can legitimately have in flight at once
    /// (one per interval across the watermark window) plus slack for races
    /// around stabilization.
    pub(crate) fn max_tracked_ckpts(&self) -> usize {
        (self.cfg.watermark_window / self.cfg.checkpoint_interval.max(1)) as usize + 2
    }

    /// Records one replica's checkpoint vote, keeping the vote map bounded:
    /// votes off the interval cadence are rejected outright (honest
    /// checkpoints only happen at boundaries), a peer voting two digests
    /// for the same seq keeps only its first, and a peer exceeding
    /// [`Checkpoints::max_tracked_ckpts`] seqs has its lowest-seq vote
    /// evicted.
    fn record_vote(&mut self, seq: Seq, digest: Digest32, from: ReplicaId, obs: &mut Obs) {
        if seq.0 == 0 || !seq.0.is_multiple_of(self.cfg.checkpoint_interval) || from.0 >= self.cfg.n
        {
            return;
        }
        let cap = self.max_tracked_ckpts();
        let per = self.votes.entry(seq).or_default();
        if per
            .iter()
            .any(|(d, voters)| *d != digest && voters.contains(&from))
        {
            return; // equivocating vote; keep the first
        }
        per.entry(digest).or_default().insert(from);
        obs.audit(AuditEvent::CheckpointVote {
            seq: seq.0,
            digest: fold_digest(&digest),
            voter: from.0 as u64,
        });
        let index = self.vote_index.entry(from).or_default();
        index.insert(seq);
        if index.len() > cap {
            // Evict this peer's lowest-seq vote (if the newcomer is itself
            // the lowest, the newcomer is what gets dropped).
            let evict = index.pop_first().expect("index non-empty");
            if let Some(per) = self.votes.get_mut(&evict) {
                per.retain(|_, voters| {
                    voters.remove(&from);
                    !voters.is_empty()
                });
                if per.is_empty() {
                    self.votes.remove(&evict);
                }
            }
        }
    }

    /// The checkpoint seqs votes are currently tracked for.
    #[cfg(test)]
    pub(crate) fn tracked_vote_seqs(&self) -> Vec<Seq> {
        self.votes.keys().copied().collect()
    }

    /// How many replicas voted `digest` at `seq`.
    fn vote_count(&self, seq: Seq, digest: &Digest32) -> usize {
        self.votes
            .get(&seq)
            .and_then(|per| per.get(digest))
            .map_or(0, HashSet::len)
    }

    /// Makes `seq` the stable checkpoint if this replica took it and a
    /// quorum voted the same digest.
    fn try_stabilize(&mut self, seq: Seq, obs: &mut Obs) -> Option<Seq> {
        if seq <= self.stable_seq {
            return None;
        }
        let own = self.records.get(&seq)?.taken.as_ref()?.digest;
        if self.vote_count(seq, &own) < self.cfg.checkpoint_quorum() {
            return None;
        }
        self.stable_seq = seq;
        obs.flight(FlightKind::CheckpointStable, seq.0, 0);
        obs.proto(ProtoFamily::Ckpt, seq.0, 1, 0);
        obs.audit(AuditEvent::CheckpointStable {
            seq: seq.0,
            digest: fold_digest(&own),
        });
        self.gc(seq);
        Some(seq)
    }

    /// Drops what the new stable checkpoint `stable` makes obsolete: older
    /// records (its own stays, to serve fetches — along with boundaries
    /// above it), votes at or below it with the per-peer index mirroring
    /// them, and the serve tallies of the checkpoint it replaces. Both
    /// ways a checkpoint becomes stable, by quorum and by install, end
    /// here.
    fn gc(&mut self, stable: Seq) {
        self.records = self.records.split_off(&stable);
        self.served_fetches.clear();
        self.served_pages.clear();
        self.votes = self.votes.split_off(&stable.next());
        // Per-entry mutation: the visiting order cannot reach a byte.
        #[allow(clippy::iter_over_hash_type)]
        for index in self.vote_index.values_mut() {
            while index.first().is_some_and(|s| *s <= stable) {
                index.pop_first();
            }
        }
        self.vote_index.retain(|_, index| !index.is_empty());
    }

    /// Lag detection: `f + 1` distinct replicas vouching for a checkpoint a
    /// full interval (or a whole watermark window) ahead of our execution
    /// frontier means we missed history that retransmits will never
    /// replay — the slots below the group's stable checkpoint are
    /// garbage-collected at every correct peer. Fetch state instead.
    fn maybe_fetch(&mut self, seq: Seq, last_exec: Seq, obs: &mut Obs, out: &mut Vec<Action>) {
        if seq <= last_exec {
            return;
        }
        let high_watermark = Seq(self.stable_seq.0 + self.cfg.watermark_window);
        let lagging = seq > high_watermark || seq.0 >= last_exec.0 + self.cfg.checkpoint_interval;
        if !lagging {
            return;
        }
        let vouched = self
            .votes
            .get(&seq)
            .is_some_and(|per| per.values().any(|v| v.len() > self.cfg.f() as usize));
        if !vouched || self.fetch_target.is_some_and(|t| t >= seq) {
            return;
        }
        self.fetch_target = Some(seq);
        let fetch = self.solicit(obs);
        // The lag-triggered transfer knows its certified target up front,
        // so the `xfer.<seq>` span opens at "triggered" here. The proactive
        // path ([`Checkpoints::begin_state_fetch`]) learns its target only
        // from the first response; its span opens at "manifest-verified".
        obs.proto(ProtoFamily::Xfer, seq.0, 0, 0);
        out.push(fetch);
    }

    /// See [`crate::Replica::begin_state_fetch`].
    pub(crate) fn begin_state_fetch(&mut self, obs: &mut Obs) -> Vec<Action> {
        if self.cfg.n == 1 {
            return Vec::new();
        }
        vec![self.solicit(obs)]
    }

    /// Opens a solicitation round and returns its `FetchState` broadcast.
    fn solicit(&mut self, obs: &mut Obs) -> Action {
        // Gate the read-only fast path until the transfer completes (the
        // suffix has replayed); a bare fetched checkpoint may be a whole
        // suffix behind the group's committed frontier.
        self.recovering = true;
        obs.flight(FlightKind::StateFetchStarted, self.stable_seq.0, 0);
        // Pages whose holder stalled become eligible for re-request from
        // whoever answers this broadcast (see `PageFetch::requested`).
        if let Some(pf) = &mut self.page_fetch {
            pf.requested.fill(false);
        }
        Action::Broadcast(Msg::FetchState(FetchStateMsg {
            have: self.stable_seq,
            replica: self.id,
        }))
    }

    /// Whether a transfer message really comes from the group member it
    /// names, and not from this replica itself.
    fn sent_by_peer(&self, from: ReplicaId, named: ReplicaId) -> bool {
        from == named && from != self.id && from.0 < self.cfg.n
    }

    /// Answers a `FetchState` with the stable checkpoint's manifest plus
    /// the agreement core's part of the frame: its `view`, and the
    /// committed log `suffix` above the checkpoint (asked for only once
    /// the request is going to be served).
    pub(crate) fn on_fetch_state(
        &mut self,
        from: ReplicaId,
        fs: FetchStateMsg,
        view: View,
        suffix: impl FnOnce(Seq) -> Vec<(Seq, Batch)>,
        out: &mut Vec<Action>,
    ) {
        if !self.sent_by_peer(from, fs.replica) {
            return;
        }
        let stable = self.stable_seq;
        let Some((cp, taken)) = stable_record(&self.records, stable) else {
            return;
        };
        if stable <= fs.have {
            return;
        }
        // Honest responders respect the wire caps. A dedup set past the
        // entry cap cannot be shipped at all (no fetcher would decode the
        // frame), while an oversized suffix can simply be truncated — the
        // fetcher lands earlier and re-fetches. Per-origin compaction
        // keeps honest sets at O(origins + reorder residue), far below
        // the cap for any realistic deployment lifetime.
        if cp.executed.wire_entries() > crate::wire::MAX_WIRE_EXECUTED {
            return;
        }
        let served = self.served_fetches.entry(from).or_default();
        if *served >= MAX_SERVES_PER_STABLE {
            return;
        }
        *served += 1;
        let mut suffix: Vec<SuffixSlot> = suffix(stable)
            .into_iter()
            .map(|(seq, batch)| SuffixSlot { seq, batch })
            .collect();
        suffix.truncate(crate::wire::MAX_WIRE_SUFFIX);
        out.push(Action::Send(
            from,
            Msg::StateResponse(StateResponseMsg {
                seq: stable,
                view,
                exec_chain: cp.exec_chain,
                manifest: taken.manifest.clone(),
                executed: cp.executed.clone(),
                suffix,
                replica: self.id,
            }),
        ));
    }

    /// Handles a `StateResponse`. Only the checkpoint part is covered by
    /// the `f + 1`-voucher digest check, so the rest of the frame is never
    /// trusted from a single responder: suffix slots are held back until
    /// `f + 1` distinct responders sent identical copies
    /// ([`Checkpoints::take_replayable`]), and the view field only counts
    /// as one report toward the `f + 1` needed to rejoin a later view
    /// ([`Checkpoints::reported_view`]).
    pub(crate) fn on_state_response(
        &mut self,
        from: ReplicaId,
        sr: StateResponseMsg,
        last_exec: Seq,
        obs: &mut Obs,
        out: &mut Vec<Action>,
    ) -> Transfer {
        let mut transfer = Transfer::default();
        if !self.sent_by_peer(from, sr.replica) {
            return transfer;
        }
        // Honest checkpoints sit on interval boundaries; anything else
        // could only grow the vote maps.
        if sr.seq.0 == 0 || !sr.seq.0.is_multiple_of(self.cfg.checkpoint_interval) {
            obs.flight(FlightKind::StateRejected, sr.seq.0, 0);
            return transfer;
        }
        if sr.seq < self.stable_seq {
            return transfer; // older than what we already hold
        }
        self.reported_views.insert(from, sr.view);
        self.record_suffix_votes(&sr, from, last_exec);
        if sr.seq > self.stable_seq && sr.seq > last_exec {
            let digest = checkpoint_digest(sr.seq, &sr.manifest, &sr.executed, &sr.exec_chain);
            // The response itself is the sender's implicit checkpoint vote.
            self.record_vote(sr.seq, digest, from, obs);
            if self.vote_count(sr.seq, &digest) > self.cfg.f() as usize {
                transfer.install = self.begin_page_fetch(from, sr, digest, obs, out);
            }
        }
        // Responses matching an already-installed checkpoint keep feeding
        // suffix copies and view reports; replay whatever just reached the
        // `f + 1` bar.
        let frontier = transfer.install.as_ref().map_or(last_exec, |i| i.seq);
        transfer.replay = self.take_replayable(frontier);
        transfer.progressed = transfer.install.is_some() || !transfer.replay.is_empty();
        transfer.view = self.reported_view();
        transfer
    }

    /// Starts (or continues) the page transfer toward the certified
    /// checkpoint of `sr`: fills every page this replica already holds,
    /// then asks `from` for the rest in [`MAX_PAGES_PER_FETCH`]-bounded
    /// ranges. Installs immediately when nothing is missing (the
    /// warm-restart and digest-identical-peer fast path: zero pages
    /// travel).
    fn begin_page_fetch(
        &mut self,
        from: ReplicaId,
        sr: StateResponseMsg,
        digest: Digest32,
        obs: &mut Obs,
        out: &mut Vec<Action>,
    ) -> Option<Install> {
        if let Some(pf) = &self.page_fetch {
            if pf.seq == sr.seq && pf.digest == digest {
                // Same certified target: ask this responder too for
                // whatever is still missing and unclaimed this round.
                self.request_missing_pages(from, out);
                return None;
            }
            if pf.seq >= sr.seq {
                // A stale (or equal-seq; two digests cannot both reach
                // `f + 1` with at most `f` faults) response must not
                // displace the newer in-flight target.
                return None;
            }
        }
        let pages = self.held_pages(&sr.manifest);
        let missing = pages.iter().filter(|p| p.is_none()).count();
        // The manifest is now `f + 1`-certified: the transfer has a trusted
        // page-by-page work list (`count` = pages still to travel).
        obs.proto(ProtoFamily::Xfer, sr.seq.0, 1, missing as u64);
        let pf = PageFetch {
            seq: sr.seq,
            digest,
            exec_chain: sr.exec_chain,
            executed: sr.executed,
            manifest: sr.manifest,
            requested: vec![false; pages.len()],
            pages,
            missing,
        };
        if missing == 0 {
            return Some(self.install(pf, obs));
        }
        self.page_fetch = Some(pf);
        self.request_missing_pages(from, out);
        None
    }

    /// For each page of `manifest`, the bytes this replica already holds
    /// under that page's digest: from the page store, or from its newest
    /// snapshot, looked up through that snapshot's manifest.
    fn held_pages(&self, manifest: &PageManifest) -> Vec<Option<Bytes>> {
        let newest = self.newest_taken();
        let mut in_newest: HashMap<&Digest32, usize> = HashMap::new();
        if let Some(t) = newest {
            for i in 0..t.manifest.len() {
                in_newest.insert(t.manifest.digest(i).expect("index in range"), i);
            }
        }
        (0..manifest.len())
            .map(|i| {
                let d = manifest.digest(i)?;
                self.page_store.get(d).cloned().or_else(|| {
                    let t = newest?;
                    Some(page_slice(&t.snapshot, &t.manifest, *in_newest.get(d)?))
                })
            })
            .collect()
    }

    /// Sends `to` one `FetchPages` request per run of consecutive pages
    /// that are missing and not already requested from some responder this
    /// round (longer runs split at [`MAX_PAGES_PER_FETCH`]), marking the
    /// asked pages so redundant responders are not all asked for the same
    /// range.
    fn request_missing_pages(&mut self, to: ReplicaId, out: &mut Vec<Action>) {
        let Some(pf) = &mut self.page_fetch else {
            return;
        };
        let wanted: Vec<usize> = (0..pf.pages.len())
            .filter(|&i| pf.pages[i].is_none() && !pf.requested[i])
            .collect();
        for run in wanted.chunk_by(|a, b| a + 1 == *b) {
            for range in run.chunks(MAX_PAGES_PER_FETCH as usize) {
                for &i in range {
                    pf.requested[i] = true;
                }
                out.push(Action::Send(
                    to,
                    Msg::FetchPages(FetchPagesMsg {
                        seq: pf.seq,
                        first: range[0] as u32,
                        count: range.len() as u32,
                        replica: self.id,
                    }),
                ));
            }
        }
    }

    /// Serves a range of stable-checkpoint pages. Honest requests name the
    /// current stable boundary with an in-range, non-empty,
    /// cap-respecting range; anything else is silently refused, and a
    /// per-requester budget (two full transfers per stable checkpoint)
    /// bounds the amplification a spamming peer can extract.
    pub(crate) fn on_fetch_pages(
        &mut self,
        from: ReplicaId,
        fp: FetchPagesMsg,
        out: &mut Vec<Action>,
    ) {
        if !self.sent_by_peer(from, fp.replica) {
            return;
        }
        if fp.count == 0 || fp.count > MAX_PAGES_PER_FETCH {
            return;
        }
        let Some((_, taken)) = stable_record(&self.records, self.stable_seq) else {
            return;
        };
        if self.stable_seq != fp.seq {
            return; // stale target; the fetcher will rediscover via FetchState
        }
        let first = fp.first as usize;
        let Some(end) = first.checked_add(fp.count as usize) else {
            return;
        };
        if end > taken.manifest.len() {
            return;
        }
        let budget = (taken.manifest.len() as u64 * MAX_SERVES_PER_STABLE).max(MIN_PAGE_BUDGET);
        let served = self.served_pages.entry(from).or_default();
        if served.saturating_add(u64::from(fp.count)) > budget {
            return;
        }
        *served += u64::from(fp.count);
        let pages = (first..end)
            .map(|i| page_slice(&taken.snapshot, &taken.manifest, i))
            .collect();
        out.push(Action::Send(
            from,
            Msg::PageResponse(PageResponseMsg {
                seq: fp.seq,
                first: fp.first,
                pages,
                replica: self.id,
            }),
        ));
    }

    /// Absorbs a page range into the in-flight fetch. Every page is
    /// verified against the `f + 1`-vouched manifest before it fills a
    /// slot; unsolicited frames, wrong-target frames, empty or over-cap
    /// frames, out-of-range ranges, duplicates of filled slots, and
    /// digest-mismatched pages are all rejected *and counted*. When the
    /// last page fills, the checkpoint assembles and installs.
    pub(crate) fn on_page_response(
        &mut self,
        from: ReplicaId,
        pr: PageResponseMsg,
        last_exec: Seq,
        obs: &mut Obs,
    ) -> Transfer {
        let mut transfer = Transfer::default();
        if !self.sent_by_peer(from, pr.replica) {
            return transfer;
        }
        let Some(pf) = &mut self.page_fetch else {
            reject_page(&mut self.page_counters, obs, pr.first as u64); // unsolicited
            return transfer;
        };
        let in_range = (pr.first as usize)
            .checked_add(pr.pages.len())
            .is_some_and(|end| end <= pf.manifest.len());
        if pr.seq != pf.seq
            || pr.pages.is_empty()
            || pr.pages.len() > MAX_PAGES_PER_FETCH as usize
            || !in_range
        {
            reject_page(&mut self.page_counters, obs, pr.first as u64);
            return transfer;
        }
        for (k, bytes) in pr.pages.iter().enumerate() {
            let i = pr.first as usize + k;
            if pf.pages[i].is_some() {
                self.page_counters.rejected += 1; // duplicate
                continue;
            }
            if !pf.manifest.verify_page(i, bytes) {
                reject_page(&mut self.page_counters, obs, i as u64);
                // Re-ask another responder without waiting for a new round.
                pf.requested[i] = false;
                continue;
            }
            self.page_counters.fetched += 1;
            self.page_counters.verified += 1;
            // Kept beyond this fetch: if a newer certified checkpoint
            // supersedes the target, its fetch starts from these.
            self.page_store
                .insert(*pf.manifest.digest(i).expect("in range"), bytes.clone());
            pf.pages[i] = Some(bytes.clone());
            pf.missing -= 1;
        }
        if pf.missing > 0 {
            return transfer;
        }
        let pf = self.page_fetch.take().expect("checked above");
        obs.proto(ProtoFamily::Xfer, pf.seq.0, 2, pf.manifest.len() as u64);
        if pf.seq > self.stable_seq && pf.seq > last_exec {
            let install = self.install(pf, obs);
            transfer.replay = self.take_replayable(install.seq);
            transfer.install = Some(install);
        }
        // Else execution caught up past the fetch target while pages were
        // in flight: installing now would jump state backward, so the
        // completed fetch is simply dropped.
        transfer.progressed = true;
        transfer
    }

    /// Makes a completed fetch the stable checkpoint: its digest is
    /// vouched for by `f + 1` distinct replicas (so at least one correct
    /// replica holds exactly this state) and every page verified against
    /// the vouched manifest, so the pages concatenate back into exactly
    /// the snapshot that manifest describes. The committed log suffix is
    /// *not* part of it — it replays separately, slot by slot, as copies
    /// reach the `f + 1` bar ([`Checkpoints::take_replayable`]).
    fn install(&mut self, pf: PageFetch, obs: &mut Obs) -> Install {
        let mut buf = Vec::with_capacity(pf.manifest.total_len() as usize);
        for page in &pf.pages {
            buf.extend_from_slice(page.as_ref().expect("fetch complete"));
        }
        let snapshot = Bytes::from(buf);
        obs.flight(
            FlightKind::StateInstalled,
            pf.seq.0,
            pf.manifest.len() as u64,
        );
        obs.proto(ProtoFamily::Xfer, pf.seq.0, 3, pf.manifest.len() as u64);
        // Reads stay gated until the committed suffix replays.
        self.recovering = true;
        self.stable_seq = pf.seq;
        self.gc(pf.seq);
        // Any older in-flight page fetch is obsolete, and so are the
        // stored pages now that a newer snapshot is held.
        self.page_fetch = None;
        self.page_store.clear();
        let cp = Checkpoint {
            exec_chain: pf.exec_chain,
            executed: pf.executed.clone(),
            taken: Some(Taken {
                snapshot: snapshot.clone(),
                manifest: pf.manifest,
                digest: pf.digest,
            }),
        };
        self.records.insert(pf.seq, cp);
        Install {
            seq: pf.seq,
            exec_chain: pf.exec_chain,
            snapshot,
            executed: pf.executed,
        }
    }

    /// Records one responder's claimed suffix slots for
    /// [`Checkpoints::take_replayable`]. Bounded regardless of peer
    /// behavior: only slots within one watermark window above the
    /// response's checkpoint count, a responder re-voting a slot replaces
    /// its earlier claim, replayed slots are pruned, and far-future
    /// overflow is evicted first (the slots closest to our frontier are
    /// the next to replay).
    fn record_suffix_votes(&mut self, sr: &StateResponseMsg, from: ReplicaId, last_exec: Seq) {
        let horizon = Seq(sr.seq.0.saturating_add(self.cfg.watermark_window));
        for slot in &sr.suffix {
            if slot.seq <= last_exec || slot.seq <= sr.seq || slot.seq > horizon {
                continue;
            }
            let claim = (slot.batch.digest(), slot.batch.clone());
            let claims = self.suffix_votes.entry(slot.seq).or_default();
            claims.insert(from, claim);
        }
        let cap = self.cfg.watermark_window as usize + 16;
        while self.suffix_votes.len() > cap {
            self.suffix_votes.pop_last();
        }
    }

    /// Takes the contiguous run of suffix slots above `frontier` whose
    /// batch `f + 1` distinct responders agree on: at least one of them is
    /// correct, and a correct replica only ever puts committed slots in a
    /// suffix. Tie-breaking is deterministic (vote count, then digest),
    /// though with at most `f` faulty replicas two digests can never both
    /// reach `f + 1`.
    fn take_replayable(&mut self, frontier: Seq) -> Vec<(Seq, Batch)> {
        let need = self.cfg.f() as usize + 1;
        let mut run = Vec::new();
        let mut next = frontier.next();
        // Slots at or below the frontier have replayed or been overtaken.
        self.suffix_votes = self.suffix_votes.split_off(&next);
        while let Some(claims) = self.suffix_votes.get(&next) {
            let tally = |d: &Digest32| claims.values().filter(|(e, _)| e == d).count();
            let best = claims.values().map(|(d, _)| (tally(d), *d)).max();
            let Some((_, digest)) = best.filter(|(count, _)| *count >= need) else {
                break;
            };
            let claims = self.suffix_votes.remove(&next).expect("tallied above");
            let claim = claims.into_values().find(|(d, _)| *d == digest);
            run.push((next, claim.expect("tallied batch present").1));
            next = next.next();
        }
        run
    }

    /// The `(f + 1)`-th highest view the `StateResponse` senders report,
    /// once `f + 1` distinct ones have: a view at least one correct
    /// replica really reached (views only advance), so the agreement core
    /// can rejoin it without trusting any single responder.
    fn reported_view(&self) -> Option<View> {
        let f = self.cfg.f() as usize;
        if self.reported_views.len() <= f {
            return None;
        }
        let mut views: Vec<View> = self.reported_views.values().copied().collect();
        views.sort_unstable_by(|a, b| b.cmp(a));
        Some(views[f])
    }

    /// The core entered a view. View reports served their purpose:
    /// abandoning a *future* view change must rest on fresh evidence
    /// gathered after this entry, never on reports from a bygone era in
    /// which the reported view was still live.
    pub(crate) fn entered_view(&mut self) {
        self.reported_views.clear();
    }

    /// A state-transfer step moved the core's frontier to `last_exec` (or
    /// ended a fetch): clears a satisfied fetch target, then
    /// [`Checkpoints::executed_to`].
    pub(crate) fn transfer_progressed(&mut self, last_exec: Seq) {
        if self.fetch_target.is_some_and(|t| t <= last_exec) {
            self.fetch_target = None;
        }
        self.executed_to(last_exec);
    }

    /// Execution reached `last_exec`. Re-opens the read-only fast path
    /// once a solicited transfer is fully absorbed: the fetch target (if
    /// any) is satisfied, no page transfer is mid-flight, and no further
    /// committed-suffix slot is pending replay. A Byzantine responder
    /// parking a bogus vote on the next slot can keep this replica's fast
    /// path closed (a liveness-only degradation at one replica — reads
    /// fall back to the ordered path); it cannot reopen it early.
    pub(crate) fn executed_to(&mut self, last_exec: Seq) {
        // A page fetch whose target execution has already passed is moot
        // (installing it would jump state backward); drop it rather than
        // let it gate reads forever.
        if self.page_fetch.as_ref().is_some_and(|p| p.seq <= last_exec) {
            self.page_fetch = None;
        }
        if self.recovering
            && self.fetch_target.is_none()
            && self.page_fetch.is_none()
            && !self.suffix_votes.contains_key(&last_exec.next())
        {
            self.recovering = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Crosses boundary `seq` and answers it with `state`; returns the
    /// checkpoint vote this replica broadcast.
    fn take(cp: &mut Checkpoints, obs: &mut Obs, seq: u64, state: &'static [u8]) -> CheckpointMsg {
        let mut out = Vec::new();
        cp.capture_boundary(Seq(seq), Digest32::ZERO, ExecutedSet::new());
        let _ = cp.on_snapshot(Seq(seq), Bytes::from_static(state), obs, &mut out);
        match out.pop() {
            Some(Action::Broadcast(Msg::Checkpoint(vote))) => vote,
            other => panic!("expected this replica's vote, got {other:?}"),
        }
    }

    #[test]
    fn one_record_per_checkpoint_collected_the_same_way_by_quorum_and_by_install() {
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 8;
        cfg.page_size = 4;
        let mut obs = Obs::new(&cfg);
        let mut cp = Checkpoints::new(ReplicaId(3), cfg);
        let mut out = Vec::new();
        cp.seed_page_store([Bytes::from_static(b"warm")]);
        let _ = take(&mut cp, &mut obs, 8, b"state-at-8");
        // A boundary does not copy its pages into the store, and the seeds
        // from before it are dropped; handing the pages over still
        // includes the snapshot's own.
        assert!(cp.page_store.is_empty());
        assert_eq!(cp.take_page_store().concat(), b"state-at-8");
        let v16 = take(&mut cp, &mut obs, 16, b"state-at-16");
        cp.capture_boundary(Seq(24), Digest32::ZERO, ExecutedSet::new());
        assert_eq!(cp.records.len(), 3, "8 and 16 taken, 24 open");
        // Two peers vote 16: stable by quorum. Everything below goes, the
        // open boundary above stays.
        let mut stable = None;
        for i in [0, 1] {
            let vote = CheckpointMsg {
                replica: ReplicaId(i),
                ..v16
            };
            stable = cp.on_checkpoint(ReplicaId(i), vote, Seq(24), &mut obs, &mut out);
        }
        assert_eq!(stable, Some(Seq(16)));
        let records = |cp: &Checkpoints| cp.records.keys().copied().collect::<Vec<_>>();
        assert_eq!(records(&cp), [Seq(16), Seq(24)]);
        assert!(cp.votes.is_empty() && cp.vote_index.is_empty());
        assert_eq!(cp.stable_digest(), v16.state_digest);
        // The harness's late answer for a collected boundary is ignored.
        let late = cp.on_snapshot(Seq(8), Bytes::from_static(b"late"), &mut obs, &mut out);
        assert!(late.is_none() && out.is_empty(), "{out:?}");

        // Two peers vouch for checkpoint 32, whose state happens to equal
        // this replica's newest snapshot: every page is found through that
        // snapshot's manifest, nothing travels, and the install ends in
        // the same collection — one record, the stable one.
        let manifest = PageManifest::compute(b"state-at-16", 4);
        let executed = ExecutedSet::new();
        let digest = checkpoint_digest(Seq(32), &manifest, &executed, &Digest32::ZERO);
        let vote = CheckpointMsg {
            seq: Seq(32),
            state_digest: digest,
            replica: ReplicaId(1),
        };
        let _ = cp.on_checkpoint(ReplicaId(1), vote, Seq(24), &mut obs, &mut out);
        let sr = StateResponseMsg {
            seq: Seq(32),
            view: View(0),
            exec_chain: Digest32::ZERO,
            manifest,
            executed,
            suffix: vec![],
            replica: ReplicaId(0),
        };
        let transfer = cp.on_state_response(ReplicaId(0), sr, Seq(24), &mut obs, &mut out);
        assert!(out.is_empty(), "no page was asked for: {out:?}");
        let installed = transfer.install.expect("certified and complete");
        assert_eq!(installed.seq, Seq(32));
        assert_eq!(&installed.snapshot[..], b"state-at-16");
        assert!(transfer.progressed && transfer.replay.is_empty());
        assert_eq!((cp.stable_seq(), cp.stable_digest()), (Seq(32), digest));
        assert_eq!(records(&cp), [Seq(32)]);
        assert!(cp.votes.is_empty() && cp.vote_index.is_empty());
        assert!(cp.recovering(), "reads stay gated until the core caught up");
        cp.transfer_progressed(Seq(32));
        assert!(!cp.recovering());
    }
}
