//! The CLBFT replica state machine (sans-io): agreement, batching and view
//! change. Checkpoints and state transfer live in [`crate::checkpoint`].

use crate::checkpoint::{Checkpoints, Install, Transfer};
use crate::dedup::ExecutedSet;
use crate::log::Log;
use crate::messages::{
    Batch, CommitMsg, Msg, NewViewMsg, PrePrepareMsg, PrepareMsg, PreparedClaim, Request,
    RequestId, ViewChangeMsg,
};
use crate::pages::PageCounters;
use crate::{Config, ReplicaId, Seq, View};
use bytes::Bytes;
use pws_crypto::sha256::{Digest32, Sha256};
use pws_obs::{AuditEvent, FlightKind, Phase, ProtoFamily};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// An observability event collected by the replica for the harness to
/// drain ([`Replica::take_obs_events`]) and stamp with real (sim) time.
/// The sans-io replica owns no clock, so events carry no timestamp here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A request-lifecycle phase was reached (collected only with
    /// [`Config::obs_phases`]).
    Phase {
        /// The request the phase belongs to.
        id: RequestId,
        /// The phase reached.
        phase: Phase,
    },
    /// A protocol event for the flight recorder (always collected; see
    /// [`FlightKind`] for the meaning of `a`/`b`).
    Flight {
        /// What happened.
        kind: FlightKind,
        /// First payload slot.
        a: u64,
        /// Second payload slot.
        b: u64,
    },
    /// A protocol-plane span phase was reached (collected only with
    /// [`Config::obs_phases`], like request phases). The group is
    /// supplied by the hosting harness at drain time.
    Proto {
        /// The span family (view change / checkpoint / state transfer).
        family: ProtoFamily,
        /// The per-family span id (target view or sequence number).
        id: u64,
        /// The family's phase index.
        phase: usize,
        /// Optional payload (e.g. pages fetched), 0 when meaningless.
        count: u64,
    },
    /// A protocol audit observation (collected only with
    /// [`Config::audit`]) for the online invariant auditor.
    Audit(AuditEvent),
}

/// Folds a 32-byte digest to 64 bits for audit events: auditing needs
/// cheap inequality detection, not collision resistance.
pub(crate) fn fold_digest(d: &Digest32) -> u64 {
    let b = d.as_bytes();
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Bound on the undrained obs buffer: a bare [`Replica`] whose harness
/// never drains (e.g. a unit test) must not grow memory without limit.
const OBS_BUFFER_CAP: usize = 1 << 16;

/// The replica's observability buffer. The agreement core and the
/// checkpoint sub-machine write to the same one, so the harness drains
/// their events in the order they happened.
#[derive(Debug)]
pub(crate) struct Obs {
    events: Vec<ObsEvent>,
    phases_on: bool,
    audit_on: bool,
}

impl Obs {
    pub(crate) fn new(cfg: &Config) -> Self {
        Obs {
            events: Vec::new(),
            phases_on: cfg.obs_phases,
            audit_on: cfg.audit,
        }
    }

    /// Appends to the buffer, dropping events past the cap.
    fn push(&mut self, ev: ObsEvent) {
        if self.events.len() < OBS_BUFFER_CAP {
            self.events.push(ev);
        }
    }

    /// Records a request-lifecycle phase (no-op unless
    /// [`Config::obs_phases`]).
    pub(crate) fn phase(&mut self, id: RequestId, phase: Phase) {
        if self.phases_on {
            self.push(ObsEvent::Phase { id, phase });
        }
    }

    /// Records a flight-recorder event (always collected).
    pub(crate) fn flight(&mut self, kind: FlightKind, a: u64, b: u64) {
        self.push(ObsEvent::Flight { kind, a, b });
    }

    /// Records a protocol-plane span phase (collected only with
    /// [`Config::obs_phases`], like request phases).
    pub(crate) fn proto(&mut self, family: ProtoFamily, id: u64, phase: usize, count: u64) {
        if self.phases_on {
            self.push(ObsEvent::Proto {
                family,
                id,
                phase,
                count,
            });
        }
    }

    /// Records an audit observation (collected only with [`Config::audit`]).
    pub(crate) fn audit(&mut self, ev: AuditEvent) {
        if self.audit_on {
            self.push(ObsEvent::Audit(ev));
        }
    }
}

/// Timer guidance emitted alongside protocol actions. The harness maintains
/// one view-change timer and one batch timer per replica and applies these
/// commands to whichever timer the enclosing [`Action`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerCmd {
    /// Start (or restart) the timer.
    Restart,
    /// Stop the timer: no outstanding work.
    Stop,
}

/// An effect requested by the replica. The transport harness performs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a message to one replica in the group.
    Send(ReplicaId, Msg),
    /// Send a message to every *other* replica in the group.
    Broadcast(Msg),
    /// Deliver the batch agreed at `seq`, unpacked in batch order. `batch`
    /// contains only the requests that have not executed before
    /// (deduplicated); null gap-filler batches deliver nothing.
    Execute {
        /// Agreed sequence number (one slot per batch).
        seq: Seq,
        /// The not-yet-executed requests of the slot's batch, in order.
        batch: Vec<Request>,
    },
    /// Execution crossed a checkpoint boundary: the harness must capture
    /// the application state *as of this point in the action stream* (all
    /// `Execute`s emitted before this action applied, none after) and hand
    /// it back via [`Replica::on_snapshot`], which digests it, broadcasts
    /// the checkpoint certificate vote, and retains it for state transfer.
    TakeCheckpoint(Seq),
    /// A verified stable snapshot was fetched from a peer: the harness must
    /// replace the application state with `snapshot` (the bytes it captured
    /// for [`Action::TakeCheckpoint`] at `seq` on some correct replica).
    /// `Execute` actions that follow resume from `seq`.
    InstallState {
        /// The checkpoint the snapshot captures.
        seq: Seq,
        /// The opaque application snapshot to restore.
        snapshot: Bytes,
    },
    /// A checkpoint became stable; the log below it was discarded.
    Stable(Seq),
    /// The replica entered a new view.
    EnteredView(View),
    /// Maintain the view-change timer.
    ViewTimer(TimerCmd),
    /// Maintain the primary's batch-accumulation timer. When the timer
    /// fires the harness calls [`Replica::on_batch_timer`], which seals
    /// whatever is queued regardless of pipeline occupancy. The delay is
    /// the harness's rendering of [`Config::batch_delay_us`].
    BatchTimer(TimerCmd),
}

#[derive(Debug, Clone)]
enum ReqState {
    /// Known but not yet ordered; payload retained for (re-)proposal.
    Pending(Request),
    /// Ordered in some slot; payload retained in case a view change drops it.
    Ordered(Request),
}

/// A CLBFT replica.
///
/// Drive it with [`Replica::on_request`], [`Replica::on_message`], and
/// [`Replica::on_view_timer`]; apply the returned [`Action`]s. See the
/// [crate docs](crate) for a complete in-memory example.
#[derive(Debug)]
pub struct Replica {
    id: ReplicaId,
    cfg: Config,
    view: View,
    in_view_change: bool,
    vc_target: View,
    /// Last sequence number this replica assigned as primary.
    next_seq: Seq,
    log: Log,
    last_exec: Seq,
    exec_chain: Digest32,
    /// Checkpoints and state transfer: owns the stable checkpoint (the
    /// base of the watermark window) and the read gate's transfer half.
    ckpt: Checkpoints,
    /// Requests known but not yet executed (pending or ordered). Entries
    /// move into the compact [`ExecutedSet`] on execution, so this map
    /// stays bounded by the in-flight window, not by history.
    requests: HashMap<RequestId, ReqState>,
    /// The executed-request dedup set, compacted per origin. Feeds the
    /// checkpoint digest and ships in `StateResponse`s.
    executed: ExecutedSet,
    outstanding: usize,
    /// Requests awaiting proposal at the primary: the batch accumulator.
    /// Drained into sealed batches by [`Replica::drain_queue`] whenever
    /// pipeline and watermark capacity allow.
    queue: VecDeque<RequestId>,
    /// Whether a batch-delay timer is currently armed at the harness.
    batch_timer_armed: bool,
    /// Re-entrancy guard: `drain_queue` can be re-entered through
    /// `try_execute` when a proposal executes synchronously (n = 1); the
    /// outer drain loop already continues, so inner calls are no-ops.
    draining: bool,
    /// View-change votes per target view. Ordered by voter so the
    /// `NewView` built from them has the same bytes in every run.
    view_changes: BTreeMap<View, BTreeMap<ReplicaId, ViewChangeMsg>>,
    /// Pre-prepares/prepares for views we have not entered yet (e.g. a new
    /// primary's first proposals racing ahead of its NewView on the wire).
    /// Drained on view entry; bounded to keep Byzantine peers from
    /// ballooning memory.
    stashed: Vec<(ReplicaId, Msg)>,
    /// Observability events awaiting the harness
    /// ([`Replica::take_obs_events`]). Bounded by [`OBS_BUFFER_CAP`].
    obs: Obs,
}

const STASH_CAP: usize = 10_000;

impl Replica {
    /// Creates a replica with the given id and group configuration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the group.
    pub fn new(id: ReplicaId, cfg: Config) -> Self {
        assert!(
            id.0 < cfg.n,
            "replica id {id:?} out of range for n={}",
            cfg.n
        );
        Replica {
            id,
            view: View(0),
            in_view_change: false,
            vc_target: View(0),
            next_seq: Seq::ZERO,
            log: Log::default(),
            last_exec: Seq::ZERO,
            exec_chain: Digest32::ZERO,
            ckpt: Checkpoints::new(id, cfg.clone()),
            requests: HashMap::new(),
            executed: ExecutedSet::new(),
            outstanding: 0,
            queue: VecDeque::new(),
            batch_timer_armed: false,
            draining: false,
            view_changes: BTreeMap::new(),
            stashed: Vec::new(),
            obs: Obs::new(&cfg),
            cfg,
        }
    }

    /// Drains the pending observability events. The harness stamps them
    /// with sim-time and feeds them to the simulation's recorder.
    pub fn take_obs_events(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.obs.events)
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The group configuration this replica runs with. The transport
    /// harness reads [`Config::batch_delay_us`] from here to size the
    /// timer behind [`Action::BatchTimer`].
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The primary of the current view.
    pub(crate) fn primary(&self) -> ReplicaId {
        self.view.primary(self.cfg.n)
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    /// Last executed sequence number.
    pub fn last_executed(&self) -> Seq {
        self.last_exec
    }

    /// Digest of the execution history (chained over all executed slots).
    pub fn execution_chain(&self) -> Digest32 {
        self.exec_chain
    }

    /// Last stable checkpoint.
    pub fn stable_seq(&self) -> Seq {
        self.ckpt.stable_seq()
    }

    /// Digest of the last stable checkpoint (ZERO before the first
    /// checkpoint stabilizes).
    pub fn stable_digest(&self) -> Digest32 {
        self.ckpt.stable_digest()
    }

    /// Number of known-but-unexecuted requests (drives the liveness timer).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Requests queued at this replica awaiting batch proposal (primary
    /// only; always 0 on an idle backup).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Slots this primary has proposed that have not yet executed locally.
    /// While this is below [`Config::pipeline_depth`] proposals go out
    /// immediately; above it, requests accumulate into batches.
    pub fn in_flight(&self) -> u64 {
        self.next_seq.0.saturating_sub(self.last_exec.0)
    }

    fn high_watermark(&self) -> Seq {
        Seq(self.stable_seq().0 + self.cfg.watermark_window)
    }

    fn in_watermarks(&self, seq: Seq) -> bool {
        seq > self.stable_seq() && seq <= self.high_watermark()
    }

    /// Whether the read-only fast path may answer right now: not mid view
    /// change and no state transfer in flight (a freshly installed
    /// checkpoint may be a whole suffix behind the group). The harness
    /// consults this before answering a read from committed state — a
    /// read consumes no sequence slot and never reaches the replica.
    pub fn can_serve_reads(&self) -> bool {
        !self.in_view_change && !self.ckpt.recovering()
    }

    /// Submits a request at this replica (from a local client/driver).
    pub fn on_request(&mut self, request: Request) -> Vec<Action> {
        let mut out = Vec::new();
        if self.executed.contains(&request.id()) || self.requests.contains_key(&request.id()) {
            return out; // duplicate submission or already executed
        }
        self.requests
            .insert(request.id(), ReqState::Pending(request.clone()));
        self.outstanding += 1;
        if self.outstanding == 1 {
            out.push(Action::ViewTimer(TimerCmd::Restart));
        }
        if self.in_view_change {
            // Will be (re-)proposed or forwarded when the new view installs.
            return out;
        }
        if self.is_primary() {
            self.queue.push_back(request.id());
            self.drain_queue(false, &mut out);
        } else {
            out.push(Action::Send(self.primary(), Msg::Forward(request)));
        }
        out
    }

    /// Seals queued requests into batches and proposes them, while the
    /// watermark window and (unless `force`) the pipeline depth permit.
    /// `force = true` is the batch timer's path: the accumulated batch goes
    /// out even with a full pipeline, bounding request latency.
    fn drain_queue(&mut self, force: bool, out: &mut Vec<Action>) {
        if self.draining {
            return;
        }
        self.draining = true;
        while !self.queue.is_empty() && self.next_seq < self.high_watermark() {
            if !force && self.in_flight() >= self.cfg.effective_pipeline_depth() {
                break;
            }
            let mut requests = Vec::new();
            while requests.len() < self.cfg.max_batch_size {
                let Some(id) = self.queue.pop_front() else {
                    break;
                };
                // Entries can go stale in the queue (dropped via
                // `drop_request`, or ordered through another path).
                if let Some(ReqState::Pending(r)) = self.requests.get(&id) {
                    // A config record always seals a slot of its own: an
                    // accumulating batch closes ahead of it, and nothing
                    // joins its slot behind it.
                    if r.is_config() {
                        if requests.is_empty() {
                            requests.push(r.clone());
                        } else {
                            self.queue.push_front(id);
                        }
                        break;
                    }
                    requests.push(r.clone());
                }
            }
            if requests.is_empty() {
                continue;
            }
            self.propose_batch(Batch::new(requests), out);
        }
        self.draining = false;
        self.update_batch_timer(out);
    }

    fn propose_batch(&mut self, batch: Batch, out: &mut Vec<Action>) {
        self.next_seq = self.next_seq.next();
        let seq = self.next_seq;
        let digest = batch.digest();
        let pp = PrePrepareMsg {
            view: self.view,
            seq,
            digest,
            batch: batch.clone(),
        };
        let slot = self.log.slot_mut(seq);
        slot.pre_prepare = Some((self.view, digest, batch.clone()));
        for r in &batch.requests {
            if let Some(state) = self.requests.get_mut(&r.id()) {
                *state = ReqState::Ordered(r.clone());
            }
        }
        if self.cfg.obs_phases {
            // The primary never receives its own pre-prepare, so it stamps
            // both the seal and its own acceptance here.
            for r in &batch.requests {
                self.obs.phase(r.id(), Phase::Batched);
                self.obs.phase(r.id(), Phase::PrePrepared);
            }
        }
        self.obs.audit(AuditEvent::PrePrepare {
            view: self.view.0,
            seq: seq.0,
            digest: fold_digest(&digest),
        });
        out.push(Action::Broadcast(Msg::PrePrepare(pp)));
        // n = 1 degenerate group: prepared immediately.
        self.try_prepare_transition(seq, out);
    }

    /// Arms the batch timer while requests are waiting in the queue and
    /// stops it when the queue drains, emitting at most one command per
    /// transition. A queue blocked on the *watermark* (rather than the
    /// pipeline) does not arm the timer — firing could not seal anything,
    /// so re-arming would busy-spin every `batch_delay_us` until a
    /// checkpoint stabilizes; the watermark-advance path in
    /// [`Replica::apply_stable`] drains the queue instead.
    fn update_batch_timer(&mut self, out: &mut Vec<Action>) {
        let want = !self.queue.is_empty()
            && self.is_primary()
            && !self.in_view_change
            && self.next_seq < self.high_watermark();
        if want && !self.batch_timer_armed {
            self.batch_timer_armed = true;
            out.push(Action::BatchTimer(TimerCmd::Restart));
        } else if !want && self.batch_timer_armed {
            self.batch_timer_armed = false;
            out.push(Action::BatchTimer(TimerCmd::Stop));
        }
    }

    /// The batch-delay timer fired: seal whatever is queued, even though
    /// the pipeline is still full.
    pub fn on_batch_timer(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.batch_timer_armed = false;
        if self.is_primary() && !self.in_view_change {
            self.drain_queue(true, &mut out);
        }
        out
    }

    /// Handles a protocol message from another replica.
    pub fn on_message(&mut self, from: ReplicaId, msg: Msg) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            Msg::Forward(req) => {
                return self.on_request(req);
            }
            Msg::PrePrepare(pp) => self.handle_pre_prepare(from, pp, &mut out),
            Msg::Prepare(p) => self.handle_prepare(from, p, &mut out),
            Msg::Commit(c) => self.handle_commit(from, c, &mut out),
            Msg::ViewChange(vc) => self.handle_view_change(from, vc, &mut out),
            Msg::NewView(nv) => self.handle_new_view(from, nv, &mut out),
            Msg::Checkpoint(c) => {
                let stable =
                    self.ckpt
                        .on_checkpoint(from, c, self.last_exec, &mut self.obs, &mut out);
                self.apply_stable(stable, &mut out);
            }
            Msg::FetchState(fs) => {
                // The view and the committed log suffix are this core's
                // part of the answer.
                let (log, last_exec) = (&self.log, self.last_exec);
                let suffix = |above| log.executed_suffix(above, last_exec);
                self.ckpt
                    .on_fetch_state(from, fs, self.view, suffix, &mut out);
            }
            Msg::StateResponse(sr) => {
                let transfer =
                    self.ckpt
                        .on_state_response(from, sr, self.last_exec, &mut self.obs, &mut out);
                self.apply_transfer(transfer, &mut out);
            }
            Msg::FetchPages(fp) => self.ckpt.on_fetch_pages(from, fp, &mut out),
            Msg::PageResponse(pr) => {
                let transfer = self
                    .ckpt
                    .on_page_response(from, pr, self.last_exec, &mut self.obs);
                self.apply_transfer(transfer, &mut out);
            }
        }
        out
    }

    fn handle_pre_prepare(&mut self, from: ReplicaId, pp: PrePrepareMsg, out: &mut Vec<Action>) {
        if pp.view > self.view || (pp.view == self.view && self.in_view_change) {
            // A new primary's proposal can overtake its NewView on the
            // wire; keep it until we enter that view.
            if self.stashed.len() < STASH_CAP {
                self.stashed.push((from, Msg::PrePrepare(pp)));
            }
            return;
        }
        // A request this replica already holds lends its digest to the
        // proposed copy, so the batch check hashes only unseen requests.
        for r in &pp.batch.requests {
            if let Some(ReqState::Pending(mine) | ReqState::Ordered(mine)) =
                self.requests.get(&r.id())
            {
                r.adopt_digest(mine);
            }
        }
        if pp.view != self.view
            || from != self.primary()
            || !self.in_watermarks(pp.seq)
            || pp.digest != pp.batch.digest()
        {
            return;
        }
        let slot = self.log.slot_mut(pp.seq);
        if let Some((v, d, _)) = &slot.pre_prepare {
            if *v == pp.view && *d != pp.digest {
                return; // equivocating primary; keep first, let the timer fire
            }
            if *v == pp.view {
                return; // duplicate
            }
            // Accepting a re-proposal from a newer view: the commit state of
            // the old view no longer applies.
            slot.commit_sent = false;
        }
        slot.pre_prepare = Some((pp.view, pp.digest, pp.batch.clone()));
        let was_idle = self.outstanding == 0;
        for r in &pp.batch.requests {
            match self.requests.get_mut(&r.id()) {
                Some(st @ ReqState::Pending(_)) => *st = ReqState::Ordered(r.clone()),
                Some(_) => {}
                None if self.executed.contains(&r.id()) => {} // replayed history
                None => {
                    self.requests.insert(r.id(), ReqState::Ordered(r.clone()));
                    self.outstanding += 1;
                }
            }
        }
        if was_idle && self.outstanding > 0 {
            out.push(Action::ViewTimer(TimerCmd::Restart));
        }
        if self.cfg.obs_phases {
            for r in &pp.batch.requests {
                self.obs.phase(r.id(), Phase::PrePrepared);
            }
        }
        self.obs.audit(AuditEvent::PrePrepare {
            view: pp.view.0,
            seq: pp.seq.0,
            digest: fold_digest(&pp.digest),
        });
        let prep = PrepareMsg {
            view: pp.view,
            seq: pp.seq,
            digest: pp.digest,
            replica: self.id,
        };
        // Record our own prepare (broadcasts do not loop back).
        self.log
            .slot_mut(pp.seq)
            .prepares
            .entry((pp.view, pp.digest))
            .or_default()
            .insert(self.id);
        out.push(Action::Broadcast(Msg::Prepare(prep)));
        self.try_prepare_transition(pp.seq, out);
    }

    fn handle_prepare(&mut self, from: ReplicaId, p: PrepareMsg, out: &mut Vec<Action>) {
        if p.view > self.view || (p.view == self.view && self.in_view_change) {
            if self.stashed.len() < STASH_CAP {
                self.stashed.push((from, Msg::Prepare(p)));
            }
            return;
        }
        if p.view != self.view || !self.in_watermarks(p.seq) || from != p.replica {
            return;
        }
        self.forget_stale_votes(from, p.view);
        if p.replica == p.view.primary(self.cfg.n) {
            return; // the primary never prepares its own proposal
        }
        self.log
            .slot_mut(p.seq)
            .prepares
            .entry((p.view, p.digest))
            .or_default()
            .insert(p.replica);
        self.try_prepare_transition(p.seq, out);
    }

    /// Vote hygiene: a prepare/commit from `from` in view `v` proves it is
    /// operating normally there — a replica in a view change sends
    /// neither — so any view-change votes it has parked for views above
    /// `v` are stale (it abandoned them, see
    /// [`Replica::adopt_reported_view`]) and must not count toward a later
    /// quorum: the stale vote's prepared claims predate whatever `from`
    /// prepares from here on. Dropping votes is strictly conservative —
    /// view changes only get *harder* — and a replica that genuinely wants
    /// one re-votes with fresh claims when it next joins.
    fn forget_stale_votes(&mut self, from: ReplicaId, v: View) {
        self.view_changes.retain(|target, votes| {
            if *target > v {
                votes.remove(&from);
            }
            !votes.is_empty()
        });
    }

    fn try_prepare_transition(&mut self, seq: Seq, out: &mut Vec<Action>) {
        let cfg = self.cfg.clone();
        let slot = self.log.slot_mut(seq);
        if slot.commit_sent {
            return;
        }
        let Some((v, d)) = slot.prepared(&cfg) else {
            return;
        };
        slot.commit_sent = true;
        slot.commits.entry((v, d)).or_default().insert(self.id);
        if cfg.obs_phases {
            if let Some((_, _, batch)) = &slot.pre_prepare {
                for r in &batch.requests {
                    self.obs.phase(r.id(), Phase::Prepared);
                }
            }
        }
        self.obs.audit(AuditEvent::Prepared {
            view: v.0,
            seq: seq.0,
            digest: fold_digest(&d),
        });
        out.push(Action::Broadcast(Msg::Commit(CommitMsg {
            view: v,
            seq,
            digest: d,
            replica: self.id,
        })));
        self.try_execute(out);
    }

    fn handle_commit(&mut self, from: ReplicaId, c: CommitMsg, out: &mut Vec<Action>) {
        if !self.in_watermarks(c.seq) || from != c.replica {
            return;
        }
        if c.view == self.view {
            self.forget_stale_votes(from, c.view);
        }
        self.log
            .slot_mut(c.seq)
            .commits
            .entry((c.view, c.digest))
            .or_default()
            .insert(c.replica);
        self.try_execute(out);
    }

    fn try_execute(&mut self, out: &mut Vec<Action>) {
        let cfg = self.cfg.clone();
        let mut progressed = false;
        loop {
            let next = self.last_exec.next();
            let committed = self.log.slot(next).is_some_and(|s| s.committed(&cfg));
            if !committed {
                break;
            }
            let slot = self.log.slot_mut(next);
            slot.executed = true;
            let (_, digest, batch) = slot.pre_prepare.clone().expect("committed implies pp");
            progressed = true;
            self.execute_slot(next, digest, batch, false, out);
        }
        if progressed {
            self.ckpt.executed_to(self.last_exec);
            out.push(Action::ViewTimer(if self.outstanding == 0 {
                TimerCmd::Stop
            } else {
                TimerCmd::Restart
            }));
            // Completed slots free pipeline capacity: the primary seals the
            // next batch from whatever accumulated meanwhile.
            if self.is_primary() && !self.in_view_change {
                self.drain_queue(false, out);
            }
        }
    }

    /// Executes the batch agreed at `seq`: chains the execution digest,
    /// dedups, delivers, and re-enters the checkpoint cadence at
    /// boundaries. `via_transfer` marks a slot that landed through an
    /// `f + 1`-agreed suffix copy, not a local commit certificate.
    fn execute_slot(
        &mut self,
        seq: Seq,
        digest: Digest32,
        batch: Batch,
        via_transfer: bool,
        out: &mut Vec<Action>,
    ) {
        self.last_exec = seq;
        // Chain the execution history for checkpoints.
        let mut h = Sha256::new();
        h.update(self.exec_chain.as_bytes());
        h.update_u64(seq.0);
        h.update(digest.as_bytes());
        self.exec_chain = h.finalize();
        // The auditor must not demand a covering prepare sighting for a
        // transferred slot.
        self.obs.audit(AuditEvent::Committed {
            seq: seq.0,
            digest: fold_digest(&digest),
            via_transfer,
        });

        // Unpack the batch in order, skipping already-executed requests
        // (re-proposals across view changes can repeat them). Executed
        // ids move from the live request map into the compact dedup set.
        // Unknown-but-agreed requests also deliver; `outstanding` is only
        // adjusted for entries this replica had counted.
        let mut fresh = Vec::new();
        for request in batch.requests {
            let first_time = self.executed.insert(request.id());
            if self.requests.remove(&request.id()).is_some() {
                self.outstanding = self.outstanding.saturating_sub(1);
                if via_transfer {
                    // Not sealed from this replica's queue, so the request
                    // may still be waiting in it.
                    self.queue.retain(|q| *q != request.id());
                }
            }
            if first_time {
                fresh.push(request);
            }
        }
        if !fresh.is_empty() {
            // A transferred slot committed at its vouchers long ago; only
            // a local commit certificate stamps the phase.
            if self.cfg.obs_phases && !via_transfer {
                for r in &fresh {
                    self.obs.phase(r.id(), Phase::Committed);
                }
            }
            out.push(Action::Execute { seq, batch: fresh });
        }

        if seq.0.is_multiple_of(self.cfg.checkpoint_interval) {
            // Capture the boundary values and ask the harness for the
            // application snapshot; [`Replica::on_snapshot`] completes the
            // checkpoint. The compact dedup set is canonical by
            // construction, so this clone is identical at every correct
            // replica at the same execution point (and O(origins), not
            // O(history)).
            self.ckpt
                .capture_boundary(seq, self.exec_chain, self.executed.clone());
            out.push(Action::TakeCheckpoint(seq));
        }
    }

    /// The executed-request dedup set (for assertions and size metrics).
    pub fn executed_set(&self) -> &ExecutedSet {
        &self.executed
    }

    /// Drains the page-subsystem counters ([`PageCounters`]): the harness
    /// publishes them as the `clbft.pages.*` metrics and charges hashing
    /// and transfer costs from them.
    pub fn take_page_counters(&mut self) -> PageCounters {
        self.ckpt.take_page_counters()
    }

    /// Hands over every snapshot page this replica holds, e.g. so a
    /// harness can carry still-warm pages across a state wipe; re-seed the
    /// successor with [`Replica::seed_page_store`].
    pub fn take_page_store(&mut self) -> Vec<Bytes> {
        self.ckpt.take_page_store()
    }

    /// Seeds the content-addressed page store. Every page is keyed by its
    /// *recomputed* content digest, never a claimed one, so corrupt or
    /// stale seeds are harmless: a damaged page keys under its own (wrong)
    /// digest, matches no certified manifest entry, and is simply fetched
    /// over the wire instead — re-verification against the `f + 1`-vouched
    /// root, not the seed itself, is what makes a warm restart trustworthy.
    pub fn seed_page_store(&mut self, pages: impl IntoIterator<Item = Bytes>) {
        self.ckpt.seed_page_store(pages);
    }

    /// The harness's answer to [`Action::TakeCheckpoint`]: `snapshot` is
    /// the application state at `seq`. Chunks it into the page table
    /// (re-hashing only pages dirtied since the previous boundary), digests
    /// `(seq, page-tree root, dedup set, exec chain)`, retains the full
    /// state for state transfer, and broadcasts this replica's checkpoint
    /// vote.
    pub fn on_snapshot(&mut self, seq: Seq, snapshot: Bytes) -> Vec<Action> {
        let mut out = Vec::new();
        let stable = self
            .ckpt
            .on_snapshot(seq, snapshot, &mut self.obs, &mut out);
        self.apply_stable(stable, &mut out);
        out
    }

    /// Applies a checkpoint the sub-machine just made stable, if any: the
    /// log below it is discarded and the watermark window slides.
    fn apply_stable(&mut self, stable: Option<Seq>, out: &mut Vec<Action>) {
        let Some(seq) = stable else {
            return;
        };
        self.log.gc_below(seq);
        out.push(Action::Stable(seq));
        // The watermark advanced: the primary can seal queued batches that
        // were blocked on the window.
        if self.is_primary() && !self.in_view_change {
            self.drain_queue(false, out);
        }
    }

    /// Explicitly (re)joins via state transfer: broadcast a `FetchState`
    /// for anything newer than our stable checkpoint. Used by proactive
    /// recovery right after a replica's state is torn down.
    pub fn begin_state_fetch(&mut self) -> Vec<Action> {
        self.ckpt.begin_state_fetch(&mut self.obs)
    }

    /// Applies what a `StateResponse` or `PageResponse` achieved: install,
    /// then replay, then the shared tail, then the view.
    fn apply_transfer(&mut self, transfer: Transfer, out: &mut Vec<Action>) {
        if let Some(checkpoint) = transfer.install {
            self.install_checkpoint(checkpoint, out);
        }
        for (seq, batch) in transfer.replay {
            let digest = batch.digest();
            let slot = self.log.slot_mut(seq);
            slot.pre_prepare = Some((self.view, digest, batch.clone()));
            slot.executed = true;
            slot.commit_sent = true;
            self.execute_slot(seq, digest, batch, true, out);
        }
        if transfer.progressed {
            self.post_transfer_progress(out);
        }
        if let Some(v) = transfer.view {
            self.adopt_reported_view(v, out);
        }
    }

    /// Rejoins `v`, a view `f + 1` distinct `StateResponse` senders report
    /// (the `(f + 1)`-th highest, so one at least one correct replica
    /// really reached): a rebooted replica rejoins the live primary
    /// without trusting any single responder.
    ///
    /// The same evidence also *abandons a stale view change*: a replica
    /// that voted for ever-higher views while partitioned away (its timer
    /// kept firing with no peer to join it) would otherwise stay
    /// `in_view_change` forever once healed — peers still in the old view
    /// never send the NewView it waits for, and stashed proposals never
    /// release. `f + 1` responders reporting the current view prove at
    /// least one correct replica is live and serving there, so re-entering
    /// it is exactly the recovering replica's move; liveness against a
    /// genuinely dead primary is preserved because the view timer re-arms
    /// with the outstanding work.
    ///
    /// Abandonment bends strict PBFT view-vote monotonicity (a replica
    /// prepares in a view it once voted to leave, while its old vote's
    /// frozen claims still circulate). Honest peers neutralize the stale
    /// vote the moment they see the abandoner participating again
    /// ([`Replica::forget_stale_votes`]), and the abandoner re-votes with
    /// fresh claims if it ever rejoins that view change; the residual
    /// window — a Byzantine peer racing the stale vote into a new-view
    /// quorum before the drop lands — is subsumed by this
    /// implementation's documented structural trust in the new-view
    /// primary's re-proposals (see the crate-level trust-boundary note).
    fn adopt_reported_view(&mut self, v: View, out: &mut Vec<Action>) {
        if v > self.view || (self.in_view_change && v >= self.view) {
            self.enter_view(v.max(self.view), out);
        }
    }

    /// Jumps the agreement state to a checkpoint the sub-machine verified
    /// and made stable. The committed log suffix is *not* installed here —
    /// it replays separately, slot by slot.
    fn install_checkpoint(&mut self, checkpoint: Install, out: &mut Vec<Action>) {
        let seq = checkpoint.seq;
        self.last_exec = seq;
        self.exec_chain = checkpoint.exec_chain;
        self.log.gc_below(seq);
        // Adopt the transferred dedup set so replayed or re-proposed
        // requests are filtered exactly as at the peers, and drop live
        // entries the set already covers.
        self.executed = checkpoint.executed;
        let covered: Vec<RequestId> = self
            .requests
            .keys()
            .filter(|id| self.executed.contains(id))
            .copied()
            .collect();
        for id in covered {
            self.requests.remove(&id);
            self.outstanding = self.outstanding.saturating_sub(1);
            self.queue.retain(|q| *q != id);
        }
        let snapshot = checkpoint.snapshot;
        out.push(Action::InstallState { seq, snapshot });
        out.push(Action::Stable(seq));
    }

    /// Shared tail of checkpoint installation and suffix replay: let the
    /// sub-machine close a satisfied fetch, re-aim the proposal counter,
    /// reset the liveness timer, and pick up whatever the jump unblocked.
    fn post_transfer_progress(&mut self, out: &mut Vec<Action>) {
        self.ckpt.transfer_progressed(self.last_exec);
        self.next_seq = self.next_seq.max(self.last_exec);
        out.push(Action::ViewTimer(if self.outstanding == 0 {
            TimerCmd::Stop
        } else {
            TimerCmd::Restart
        }));
        // Commits that arrived while we lagged may already complete later
        // slots; the watermark jump also unblocks a primary's queue.
        self.try_execute(out);
        if self.is_primary() && !self.in_view_change {
            self.drain_queue(false, out);
        }
        self.update_batch_timer(out);
    }

    /// Withdraws a not-yet-ordered request (e.g. a Perpetual result proposal
    /// made obsolete by an abort). Ordered or executed requests are
    /// unaffected.
    pub fn drop_request(&mut self, id: RequestId) -> Vec<Action> {
        let mut out = Vec::new();
        if matches!(self.requests.get(&id), Some(ReqState::Pending(_))) {
            self.requests.remove(&id);
            self.queue.retain(|b| *b != id);
            self.outstanding = self.outstanding.saturating_sub(1);
            if self.outstanding == 0 {
                out.push(Action::ViewTimer(TimerCmd::Stop));
            }
            self.update_batch_timer(&mut out);
        }
        out
    }

    /// The view-change timer fired: vote to replace the current primary.
    pub fn on_view_timer(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        let target = if self.in_view_change {
            self.vc_target.next()
        } else {
            self.view.next()
        };
        self.start_view_change(target, &mut out);
        out
    }

    fn start_view_change(&mut self, target: View, out: &mut Vec<Action>) {
        self.obs
            .flight(FlightKind::ViewChangeStarted, self.view.0, target.0);
        self.obs.proto(ProtoFamily::Vc, target.0, 0, 0);
        self.in_view_change = true;
        self.vc_target = target;
        // The primary role is suspended until the new view installs.
        self.update_batch_timer(out);
        let prepared = self
            .log
            .prepared_above(self.stable_seq(), &self.cfg)
            .into_iter()
            .map(|(seq, view, digest, batch)| PreparedClaim {
                view,
                seq,
                digest,
                batch,
            })
            .collect();
        let vc = ViewChangeMsg {
            new_view: target,
            stable_seq: self.stable_seq(),
            stable_digest: self.stable_digest(),
            prepared,
            replica: self.id,
        };
        self.view_changes
            .entry(target)
            .or_default()
            .insert(self.id, vc.clone());
        out.push(Action::Broadcast(Msg::ViewChange(vc)));
        out.push(Action::ViewTimer(TimerCmd::Restart));
        self.try_new_view(target, out);
    }

    fn handle_view_change(&mut self, from: ReplicaId, vc: ViewChangeMsg, out: &mut Vec<Action>) {
        if from != vc.replica || vc.new_view <= self.view {
            return;
        }
        let target = vc.new_view;
        self.view_changes
            .entry(target)
            .or_default()
            .insert(vc.replica, vc);
        // Liveness: if f+1 replicas are already voting for views above ours,
        // join the smallest such view even if our timer has not fired.
        let join = self
            .view_changes
            .range((
                std::ops::Bound::Excluded(self.view),
                std::ops::Bound::Unbounded,
            ))
            .filter(|(v, votes)| {
                **v > self.view
                    && (!self.in_view_change || **v > self.vc_target)
                    && votes.len() > self.cfg.f() as usize
            })
            .map(|(v, _)| *v)
            .next();
        if let Some(v) = join {
            self.start_view_change(v, out);
        }
        self.try_new_view(target, out);
    }

    fn try_new_view(&mut self, target: View, out: &mut Vec<Action>) {
        // `target <= self.view` also rules out sending a second NewView for
        // one view: `self.view` is written only by `enter_view`, every
        // caller of which passes a view no lower than the current one, and
        // sending a NewView enters `target` at once.
        if target.primary(self.cfg.n) != self.id || target <= self.view {
            return;
        }
        let Some(votes) = self.view_changes.get(&target) else {
            return;
        };
        if votes.len() < self.cfg.view_change_quorum() {
            return;
        }
        let votes: Vec<ViewChangeMsg> = votes.values().cloned().collect();
        let min_s = votes
            .iter()
            .map(|vc| vc.stable_seq)
            .max()
            .unwrap_or(Seq::ZERO);
        let max_s = votes
            .iter()
            .flat_map(|vc| vc.prepared.iter().map(|c| c.seq))
            .max()
            .unwrap_or(min_s)
            .max(min_s);
        let mut pre_prepares = Vec::new();
        let mut s = min_s.next();
        while s <= max_s {
            // Choose the claim from the highest view for this seq. The
            // claim's batch is re-proposed verbatim — same membership, same
            // internal order — or, if no quorum member prepared this slot,
            // the whole batch is dropped and a null batch fills the gap.
            let best = votes
                .iter()
                .flat_map(|vc| vc.prepared.iter())
                .filter(|c| c.seq == s)
                .max_by_key(|c| c.view);
            let (digest, batch) = match best {
                Some(c) => (c.digest, c.batch.clone()),
                None => {
                    let null = Batch::null();
                    (null.digest(), null)
                }
            };
            pre_prepares.push(PrePrepareMsg {
                view: target,
                seq: s,
                digest,
                batch,
            });
            s = s.next();
        }
        let nv = NewViewMsg {
            view: target,
            voters: votes.iter().map(|v| v.replica).collect(),
            pre_prepares: pre_prepares.clone(),
            replica: self.id,
        };
        out.push(Action::Broadcast(Msg::NewView(nv)));
        self.enter_view(target, out);
        self.next_seq = max_s;
        // Install our own re-proposals.
        for pp in pre_prepares {
            self.obs.audit(AuditEvent::PrePrepare {
                view: pp.view.0,
                seq: pp.seq.0,
                digest: fold_digest(&pp.digest),
            });
            let slot = self.log.slot_mut(pp.seq);
            slot.pre_prepare = Some((pp.view, pp.digest, pp.batch.clone()));
            slot.commit_sent = false;
            for r in &pp.batch.requests {
                if let Some(st) = self.requests.get_mut(&r.id()) {
                    if matches!(st, ReqState::Pending(_)) {
                        *st = ReqState::Ordered(r.clone());
                    }
                }
            }
            self.try_prepare_transition(pp.seq, out);
        }
        self.repropose_pending(out);
    }

    fn handle_new_view(&mut self, from: ReplicaId, nv: NewViewMsg, out: &mut Vec<Action>) {
        if nv.view <= self.view
            || from != nv.view.primary(self.cfg.n)
            || from != nv.replica
            || nv.voters.len() < self.cfg.view_change_quorum()
        {
            return;
        }
        self.enter_view(nv.view, out);
        for pp in nv.pre_prepares {
            self.handle_pre_prepare(from, pp, out);
        }
        self.repropose_pending(out);
    }

    fn enter_view(&mut self, v: View, out: &mut Vec<Action>) {
        self.view = v;
        self.obs.flight(FlightKind::EnteredView, v.0, 0);
        // Installing view `v` also retires every still-open view-change
        // span below `v` (the recorder closes them as "abandoned").
        self.obs.proto(ProtoFamily::Vc, v.0, 1, 0);
        self.in_view_change = false;
        self.vc_target = v;
        self.view_changes = self.view_changes.split_off(&v.next());
        self.ckpt.entered_view();
        // The old view's batch accumulator is stale; `repropose_pending`
        // rebuilds it (or forwards) from the demoted request states below.
        self.queue.clear();
        // Ordered-but-unexecuted requests may have been dropped by the view
        // change; demote them so they are re-proposed if needed.
        // Per-entry mutation: the visiting order cannot reach a byte.
        #[allow(clippy::iter_over_hash_type)]
        for st in self.requests.values_mut() {
            if let ReqState::Ordered(req) = st {
                *st = ReqState::Pending(req.clone());
            }
        }
        out.push(Action::EnteredView(v));
        out.push(Action::ViewTimer(if self.outstanding == 0 {
            TimerCmd::Stop
        } else {
            TimerCmd::Restart
        }));
        // Replay messages that raced ahead of the view installation.
        let stashed = std::mem::take(&mut self.stashed);
        for (from, msg) in stashed {
            let applies_now = match &msg {
                Msg::PrePrepare(pp) => pp.view <= v,
                Msg::Prepare(p) => p.view <= v,
                _ => true,
            };
            if applies_now {
                match msg {
                    Msg::PrePrepare(pp) => self.handle_pre_prepare(from, pp, out),
                    Msg::Prepare(p) => self.handle_prepare(from, p, out),
                    _ => {}
                }
            } else {
                self.stashed.push((from, msg));
            }
        }
    }

    fn repropose_pending(&mut self, out: &mut Vec<Action>) {
        let mut pending: Vec<Request> = self
            .requests
            .values()
            .filter_map(|st| match st {
                ReqState::Pending(r) => Some(r.clone()),
                _ => None,
            })
            .collect();
        // Deterministic order: by request id.
        pending.sort_by_key(Request::id);
        if self.is_primary() {
            for req in &pending {
                self.queue.push_back(req.id());
            }
            self.drain_queue(false, out);
        } else {
            for req in pending {
                out.push(Action::Send(self.primary(), Msg::Forward(req)));
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{MAX_SERVES_PER_STABLE, MIN_PAGE_BUDGET};
    use crate::messages::{
        checkpoint_digest, CheckpointMsg, FetchPagesMsg, FetchStateMsg, PageResponseMsg,
        StateResponseMsg, SuffixSlot,
    };
    use crate::pages::{PageManifest, MAX_PAGES_PER_FETCH};
    use std::collections::HashSet;

    fn req(c: u64) -> Request {
        Request::new(RequestId::new(1, c), Bytes::from(format!("op-{c}")))
    }

    /// Delivers all actions among a set of replicas until quiescence.
    /// Returns the Execute actions observed per replica.
    fn run_to_quiescence(
        replicas: &mut [Replica],
        mut inbox: VecDeque<(usize, ReplicaId, Msg)>,
        drop_to: &[usize],
    ) -> Vec<Vec<(Seq, RequestId)>> {
        let mut executed: Vec<Vec<(Seq, RequestId)>> = vec![Vec::new(); replicas.len()];
        let mut steps = 0;
        while let Some((to, from, msg)) = inbox.pop_front() {
            steps += 1;
            assert!(steps < 1_000_000, "protocol livelock");
            if drop_to.contains(&to) {
                continue;
            }
            let actions = replicas[to].on_message(from, msg);
            route(replicas, to, actions, &mut inbox, &mut executed);
        }
        executed
    }

    fn route(
        replicas: &mut [Replica],
        at: usize,
        actions: Vec<Action>,
        inbox: &mut VecDeque<(usize, ReplicaId, Msg)>,
        executed: &mut [Vec<(Seq, RequestId)>],
    ) {
        let me = replicas[at].id();
        for a in actions {
            match a {
                Action::Broadcast(m) => {
                    for (i, r) in replicas.iter().enumerate() {
                        if i != at {
                            let _ = r;
                            inbox.push_back((i, me, m.clone()));
                        }
                    }
                }
                Action::Send(dest, m) => inbox.push_back((dest.0 as usize, me, m)),
                Action::Execute { seq, batch } => {
                    for request in batch {
                        executed[at].push((seq, request.id()));
                    }
                }
                Action::TakeCheckpoint(seq) => {
                    // The harness answers synchronously with a snapshot
                    // that is a deterministic function of the boundary, as
                    // a real deterministic application would be.
                    let actions = replicas[at].on_snapshot(seq, test_snapshot(seq));
                    route(replicas, at, actions, inbox, executed);
                }
                Action::InstallState { .. }
                | Action::Stable(_)
                | Action::EnteredView(_)
                | Action::ViewTimer(_)
                | Action::BatchTimer(_) => {}
            }
        }
    }

    /// The stand-in application snapshot at `seq`.
    fn test_snapshot(seq: Seq) -> Bytes {
        Bytes::from(format!("app@{}", seq.0))
    }

    fn submit(
        replicas: &mut [Replica],
        at: usize,
        r: Request,
        inbox: &mut VecDeque<(usize, ReplicaId, Msg)>,
        executed: &mut [Vec<(Seq, RequestId)>],
    ) {
        let actions = replicas[at].on_request(r);
        route(replicas, at, actions, inbox, executed);
    }

    fn group(n: u32) -> Vec<Replica> {
        group_with(n, |_| {})
    }

    fn group_with(n: u32, tweak: impl Fn(&mut Config)) -> Vec<Replica> {
        let mut cfg = Config::new(n);
        tweak(&mut cfg);
        (0..n)
            .map(|i| Replica::new(ReplicaId(i), cfg.clone()))
            .collect()
    }

    #[test]
    fn four_replicas_agree_on_one_request() {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        submit(&mut rs, 0, req(1), &mut inbox, &mut executed);
        let more = run_to_quiescence(&mut rs, inbox, &[]);
        for (i, m) in more.into_iter().enumerate() {
            executed[i].extend(m);
        }
        for (i, ex) in executed.iter().enumerate() {
            assert_eq!(ex.len(), 1, "replica {i}");
            assert_eq!(ex[0], (Seq(1), RequestId::new(1, 1)));
        }
        assert!(rs.iter().all(|r| r.last_executed() == Seq(1)));
        let chains: HashSet<_> = rs.iter().map(|r| r.execution_chain()).collect();
        assert_eq!(chains.len(), 1, "execution chains agree");
    }

    #[test]
    fn requests_submitted_at_backup_reach_primary() {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        submit(&mut rs, 2, req(1), &mut inbox, &mut executed);
        let more = run_to_quiescence(&mut rs, inbox, &[]);
        assert!(more.iter().all(|ex| ex.len() == 1));
    }

    #[test]
    fn many_requests_execute_in_identical_order_everywhere() {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        for c in 1..=20 {
            submit(&mut rs, (c % 4) as usize, req(c), &mut inbox, &mut executed);
        }
        let more = run_to_quiescence(&mut rs, inbox, &[]);
        for (i, m) in more.into_iter().enumerate() {
            executed[i].extend(m);
        }
        for ex in &executed {
            assert_eq!(ex.len(), 20);
        }
        for i in 1..4 {
            assert_eq!(executed[0], executed[i], "order differs at replica {i}");
        }
    }

    #[test]
    fn requests_accumulate_into_batches_under_load() {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        // Ten requests land at the primary before any agreement messages
        // are delivered: the pipeline (depth 2) admits two solo proposals,
        // the rest accumulate in the batch queue.
        for c in 1..=10 {
            submit(&mut rs, 0, req(c), &mut inbox, &mut executed);
        }
        assert_eq!(rs[0].in_flight(), 2, "pipeline admits two proposals");
        assert_eq!(rs[0].queued(), 8, "the rest accumulate");
        let more = run_to_quiescence(&mut rs, inbox, &[]);
        for (i, m) in more.into_iter().enumerate() {
            executed[i].extend(m);
        }
        for (i, ex) in executed.iter().enumerate() {
            assert_eq!(ex.len(), 10, "replica {i} executed all requests");
        }
        for i in 1..4 {
            assert_eq!(executed[0], executed[i], "order differs at replica {i}");
        }
        // Batching engaged: the ten requests rode in fewer than ten slots.
        let slots: HashSet<Seq> = executed[0].iter().map(|(s, _)| *s).collect();
        assert!(
            slots.len() < 10,
            "expected multi-request batches, got {} slots",
            slots.len()
        );
        assert_eq!(rs[0].queued(), 0, "queue fully drained");
    }

    #[test]
    fn batch_timer_seals_when_pipeline_is_full() {
        // Pipeline depth 0: nothing proposes until the batch timer fires,
        // and submitting arms the timer exactly once.
        let mut rs = group_with(4, |c| c.pipeline_depth = 0);
        let a1 = rs[0].on_request(req(1));
        assert!(
            a1.iter()
                .any(|a| matches!(a, Action::BatchTimer(TimerCmd::Restart))),
            "first queued request arms the batch timer: {a1:?}"
        );
        let a2 = rs[0].on_request(req(2));
        assert!(
            !a2.iter().any(|a| matches!(a, Action::BatchTimer(_))),
            "timer already armed: {a2:?}"
        );
        let fired = rs[0].on_batch_timer();
        let pp = fired
            .iter()
            .find_map(|a| match a {
                Action::Broadcast(Msg::PrePrepare(pp)) => Some(pp),
                _ => None,
            })
            .expect("timer seals the batch");
        assert_eq!(pp.batch.len(), 2, "both requests ride one batch");
        assert!(
            !fired
                .iter()
                .any(|a| matches!(a, Action::BatchTimer(TimerCmd::Restart))),
            "queue drained: the one-shot timer must not re-arm: {fired:?}"
        );
    }

    #[test]
    fn single_replica_group_executes_immediately() {
        let mut rs = group(1);
        let actions = rs[0].on_request(req(1));
        let execs: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, Action::Execute { .. }))
            .collect();
        assert_eq!(execs.len(), 1);
        assert_eq!(rs[0].last_executed(), Seq(1));
    }

    #[test]
    fn duplicate_requests_execute_once() {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        submit(&mut rs, 0, req(1), &mut inbox, &mut executed);
        submit(&mut rs, 0, req(1), &mut inbox, &mut executed);
        submit(&mut rs, 1, req(1), &mut inbox, &mut executed);
        let more = run_to_quiescence(&mut rs, inbox, &[]);
        for (i, m) in more.into_iter().enumerate() {
            executed[i].extend(m);
        }
        for ex in &executed {
            assert_eq!(ex.len(), 1);
        }
    }

    #[test]
    fn checkpoints_stabilize_and_gc() {
        // One request per slot (batching off) so 69 requests cross the
        // 64-execution checkpoint interval.
        let mut rs = group_with(4, |c| c.max_batch_size = 1);
        let interval = rs[0].cfg.checkpoint_interval;
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        for c in 1..=interval + 5 {
            submit(&mut rs, 0, req(c), &mut inbox, &mut executed);
        }
        run_to_quiescence(&mut rs, inbox, &[]);
        for r in &rs {
            assert_eq!(r.stable_seq(), Seq(interval), "stable at first interval");
            assert!(r.log.len() <= 6, "log GCed, len={}", r.log.len());
        }
    }

    #[test]
    fn progress_with_f_silent_backups() {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        submit(&mut rs, 0, req(1), &mut inbox, &mut executed);
        // Replica 3 is silent (drops all input).
        let more = run_to_quiescence(&mut rs, inbox, &[3]);
        for i in 0..3 {
            assert_eq!(executed[i].len() + more[i].len(), 1, "replica {i}");
        }
        assert_eq!(more[3].len(), 0);
    }

    #[test]
    fn view_change_elects_new_primary_and_recovers_request() {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        // Submit at a backup; drop everything addressed to the primary (0)
        // so the request is never ordered.
        submit(&mut rs, 1, req(1), &mut inbox, &mut executed);
        run_to_quiescence(&mut rs, inbox, &[0]);
        assert!(executed.iter().all(|e| e.is_empty()));

        // Timers fire at the three live replicas.
        let mut inbox = VecDeque::new();
        for i in 1..4 {
            let actions = rs[i].on_view_timer();
            route(&mut rs, i, actions, &mut inbox, &mut executed);
        }
        let more = run_to_quiescence(&mut rs, inbox, &[0]);
        for i in 1..4 {
            let total = executed[i].len() + more[i].len();
            assert_eq!(total, 1, "replica {i} executed after view change");
            assert_eq!(rs[i].view(), View(1));
            assert!(!rs[i].in_view_change);
        }
        assert_eq!(rs[1].primary(), ReplicaId(1));
    }

    /// Runs one fresh group through a primary crash — a request reaches
    /// only the backups, their view timers fire — and returns the wire
    /// bytes of every `NewView` the election produced.
    fn new_views_after_primary_crash() -> Vec<Bytes> {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        submit(&mut rs, 1, req(1), &mut inbox, &mut executed);
        for i in 1..4 {
            let actions = rs[i].on_view_timer();
            route(&mut rs, i, actions, &mut inbox, &mut executed);
        }
        let mut new_views = Vec::new();
        while let Some((to, from, msg)) = inbox.pop_front() {
            if to == 0 {
                continue; // the crashed primary hears nothing
            }
            if to == 2 && matches!(msg, Msg::NewView(_)) {
                new_views.push(crate::wire::encode_msg(&msg)); // one copy per broadcast
            }
            let actions = rs[to].on_message(from, msg);
            route(&mut rs, to, actions, &mut inbox, &mut executed);
        }
        assert!(rs[1..].iter().all(|r| r.view() == View(1)));
        new_views
    }

    #[test]
    fn new_view_bytes_are_identical_across_independent_runs() {
        // The voter list of a NewView comes out of the view-change vote
        // map; iterating a hash map there made the bytes differ between
        // two runs of one schedule.
        let first = new_views_after_primary_crash();
        assert!(!first.is_empty(), "the schedule elects a new primary");
        for run in 1..8 {
            assert_eq!(new_views_after_primary_crash(), first, "run {run}");
        }
    }

    #[test]
    fn a_primary_announces_each_view_once() {
        // The new primary keeps no record of the views it announced:
        // sending a NewView enters that view, and a later vote for it (a
        // replay, a straggler) no longer names a view above its own.
        let mut rs = group(4);
        let vote = |i: u32| ViewChangeMsg {
            new_view: View(1),
            stable_seq: Seq::ZERO,
            stable_digest: Digest32::ZERO,
            prepared: vec![],
            replica: ReplicaId(i),
        };
        let mut announced = 0;
        for i in [0, 2, 3, 0, 2, 3] {
            let actions = rs[1].on_message(ReplicaId(i), Msg::ViewChange(vote(i)));
            announced += actions
                .iter()
                .filter(|a| matches!(a, Action::Broadcast(Msg::NewView(_))))
                .count();
        }
        assert_eq!(announced, 1);
        assert_eq!(rs[1].view(), View(1));
    }

    #[test]
    fn view_change_preserves_prepared_requests() {
        let mut rs = group(4);
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        // Order a request fully first.
        submit(&mut rs, 0, req(1), &mut inbox, &mut executed);
        let more = run_to_quiescence(&mut rs, std::mem::take(&mut inbox), &[]);
        for (i, m) in more.into_iter().enumerate() {
            executed[i].extend(m);
        }
        // Now force a view change with nothing pending.
        let mut inbox = VecDeque::new();
        for i in 1..4 {
            let actions = rs[i].on_view_timer();
            route(&mut rs, i, actions, &mut inbox, &mut executed);
        }
        run_to_quiescence(&mut rs, inbox, &[0]);
        // Replica 1..3 entered view 1; the executed request must not be
        // re-executed (its id is deduplicated).
        for i in 1..4 {
            assert_eq!(executed[i].len(), 1, "replica {i}");
            assert_eq!(rs[i].view(), View(1));
        }
        // New requests still execute in the new view.
        let mut inbox = VecDeque::new();
        submit(&mut rs, 1, req(2), &mut inbox, &mut executed);
        let more = run_to_quiescence(&mut rs, inbox, &[0]);
        for i in 1..4 {
            assert_eq!(executed[i].len() + more[i].len(), 2, "replica {i}");
        }
    }

    #[test]
    fn equivocating_pre_prepare_is_ignored() {
        let mut rs = group(4);
        let b1 = Batch::of(req(1));
        let b2 = Batch::of(req(2));
        // Primary 0 equivocates: sends different pre-prepares for seq 1.
        let pp1 = PrePrepareMsg {
            view: View(0),
            seq: Seq(1),
            digest: b1.digest(),
            batch: b1,
        };
        let pp2 = PrePrepareMsg {
            view: View(0),
            seq: Seq(1),
            digest: b2.digest(),
            batch: b2,
        };
        let a1 = rs[1].on_message(ReplicaId(0), Msg::PrePrepare(pp1.clone()));
        assert!(a1
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Prepare(_)))));
        let a2 = rs[1].on_message(ReplicaId(0), Msg::PrePrepare(pp2));
        assert!(
            !a2.iter()
                .any(|a| matches!(a, Action::Broadcast(Msg::Prepare(_)))),
            "second conflicting pre-prepare must not be prepared"
        );
        // Duplicate of the first is also ignored.
        let a3 = rs[1].on_message(ReplicaId(0), Msg::PrePrepare(pp1));
        assert!(!a3
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Prepare(_)))));
    }

    #[test]
    fn pre_prepare_from_non_primary_rejected() {
        let mut rs = group(4);
        let b1 = Batch::of(req(1));
        let pp = PrePrepareMsg {
            view: View(0),
            seq: Seq(1),
            digest: b1.digest(),
            batch: b1,
        };
        let a = rs[2].on_message(ReplicaId(1), Msg::PrePrepare(pp));
        assert!(a.is_empty());
    }

    #[test]
    fn mismatched_digest_pre_prepare_rejected() {
        let mut rs = group(4);
        let pp = PrePrepareMsg {
            view: View(0),
            seq: Seq(1),
            digest: Batch::of(req(9)).digest(),
            batch: Batch::of(req(1)),
        };
        let a = rs[1].on_message(ReplicaId(0), Msg::PrePrepare(pp));
        assert!(a.is_empty());
    }

    #[test]
    fn out_of_watermark_pre_prepare_rejected() {
        let mut rs = group(4);
        let b1 = Batch::of(req(1));
        let pp = PrePrepareMsg {
            view: View(0),
            seq: Seq(100_000),
            digest: b1.digest(),
            batch: b1,
        };
        let a = rs[1].on_message(ReplicaId(0), Msg::PrePrepare(pp));
        assert!(a.is_empty());
    }

    #[test]
    fn commits_before_prepares_are_buffered() {
        // Deliver commits first, then the pre-prepare/prepares; execution
        // must still happen exactly once.
        let mut rs = group(4);
        let b1 = Batch::of(req(1));
        let d = b1.digest();
        let mk_commit = |i: u32| CommitMsg {
            view: View(0),
            seq: Seq(1),
            digest: d,
            replica: ReplicaId(i),
        };
        let mut all = Vec::new();
        all.extend(rs[3].on_message(ReplicaId(0), Msg::Commit(mk_commit(0))));
        all.extend(rs[3].on_message(ReplicaId(1), Msg::Commit(mk_commit(1))));
        all.extend(rs[3].on_message(ReplicaId(2), Msg::Commit(mk_commit(2))));
        assert!(!all.iter().any(|a| matches!(a, Action::Execute { .. })));
        let pp = PrePrepareMsg {
            view: View(0),
            seq: Seq(1),
            digest: d,
            batch: b1,
        };
        all.extend(rs[3].on_message(ReplicaId(0), Msg::PrePrepare(pp)));
        let mk_prep = |i: u32| PrepareMsg {
            view: View(0),
            seq: Seq(1),
            digest: d,
            replica: ReplicaId(i),
        };
        all.extend(rs[3].on_message(ReplicaId(1), Msg::Prepare(mk_prep(1))));
        all.extend(rs[3].on_message(ReplicaId(2), Msg::Prepare(mk_prep(2))));
        let execs = all
            .iter()
            .filter(|a| matches!(a, Action::Execute { .. }))
            .count();
        assert_eq!(execs, 1);
    }

    #[test]
    fn proposals_racing_ahead_of_new_view_are_stashed_and_replayed() {
        // A new primary's PrePrepare can arrive before its NewView when the
        // network reorders messages; the backup must buffer it and prepare
        // once the view installs, or a single reorder stalls the view.
        let mut rs = group(4);
        // Put replica 3 into a view change for view 1.
        let mut executed = vec![Vec::new(); 4];
        let _ = rs[3].on_request(req(1)); // outstanding work
        let _ = rs[3].on_view_timer();
        assert!(rs[3].in_view_change);
        // The (future) view-1 primary's proposal arrives first...
        let b1 = Batch::of(req(1));
        let pp = PrePrepareMsg {
            view: View(1),
            seq: Seq(1),
            digest: b1.digest(),
            batch: b1,
        };
        let a = rs[3].on_message(ReplicaId(1), Msg::PrePrepare(pp));
        assert!(
            !a.iter()
                .any(|x| matches!(x, Action::Broadcast(Msg::Prepare(_)))),
            "must not prepare while the view change is pending"
        );
        // ... then the NewView. Build it legitimately via the new primary.
        let mut inbox = VecDeque::new();
        for i in [0usize, 2, 3] {
            let vc = ViewChangeMsg {
                new_view: View(1),
                stable_seq: Seq::ZERO,
                stable_digest: Digest32::ZERO,
                prepared: vec![],
                replica: ReplicaId(i as u32),
            };
            let actions = rs[1].on_message(ReplicaId(i as u32), Msg::ViewChange(vc));
            route(&mut rs, 1, actions, &mut inbox, &mut executed);
        }
        // Deliver the NewView to replica 3 and check the stashed proposal
        // got replayed (a Prepare goes out).
        let nv = inbox
            .iter()
            .find_map(|(to, _, m)| {
                if *to == 3 {
                    if let Msg::NewView(nv) = m {
                        return Some(nv.clone());
                    }
                }
                None
            })
            .expect("new view broadcast");
        let actions = rs[3].on_message(ReplicaId(1), Msg::NewView(nv));
        assert!(
            actions
                .iter()
                .any(|x| matches!(x, Action::Broadcast(Msg::Prepare(p)) if p.view == View(1))),
            "stashed pre-prepare must be prepared after entering the view: {actions:?}"
        );
    }

    #[test]
    fn wiped_replica_rejoins_via_explicit_state_fetch() {
        // Run past a checkpoint, wipe replica 3, let it recover through
        // FetchState/StateResponse: it must land at its peers' execution
        // frontier with the identical execution chain.
        let mut cfg = Config::new(4);
        cfg.max_batch_size = 1;
        cfg.checkpoint_interval = 8;
        let mut rs: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId(i), cfg.clone()))
            .collect();
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        for c in 1..=13 {
            submit(&mut rs, 0, req(c), &mut inbox, &mut executed);
        }
        run_to_quiescence(&mut rs, inbox, &[]);
        assert_eq!(rs[0].stable_seq(), Seq(8), "checkpoint stabilized");
        let frontier = rs[0].last_executed();
        let chain = rs[0].execution_chain();

        // Crash-and-wipe replica 3, then rejoin via state transfer.
        rs[3] = Replica::new(ReplicaId(3), cfg);
        let mut inbox = VecDeque::new();
        let actions = rs[3].begin_state_fetch();
        route(&mut rs, 3, actions, &mut inbox, &mut executed);
        let more = run_to_quiescence(&mut rs, inbox, &[]);
        assert_eq!(rs[3].last_executed(), frontier, "suffix replayed");
        assert_eq!(rs[3].execution_chain(), chain, "chains agree");
        assert_eq!(rs[3].stable_seq(), Seq(8));
        assert_eq!(rs[3].stable_digest(), rs[0].stable_digest());
        // The snapshot install plus suffix redelivered slots 9..=13 to the
        // (fresh) application.
        assert!(!more[3].is_empty(), "suffix slots delivered");

        // The recovered replica keeps up with new traffic normally.
        let mut inbox = VecDeque::new();
        submit(&mut rs, 0, req(99), &mut inbox, &mut executed);
        run_to_quiescence(&mut rs, inbox, &[]);
        assert_eq!(rs[3].last_executed(), rs[0].last_executed());
        assert_eq!(rs[3].execution_chain(), rs[0].execution_chain());
    }

    #[test]
    fn lag_evidence_triggers_automatic_state_fetch() {
        // Replica 3 misses everything for two checkpoint intervals; the
        // peers' checkpoint votes are the lag evidence that must trigger a
        // fetch — no explicit recovery call.
        let mut cfg = Config::new(4);
        cfg.max_batch_size = 1;
        cfg.checkpoint_interval = 8;
        let mut rs: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId(i), cfg.clone()))
            .collect();
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        for c in 1..=20 {
            submit(&mut rs, 0, req(c), &mut inbox, &mut executed);
        }
        run_to_quiescence(&mut rs, std::mem::take(&mut inbox), &[3]);
        assert_eq!(rs[3].last_executed(), Seq::ZERO, "replica 3 missed all");

        // New traffic crosses the next boundary with replica 3 connected:
        // its peers' checkpoint broadcasts reveal the lag.
        let mut inbox = VecDeque::new();
        for c in 21..=28 {
            submit(&mut rs, 0, req(c), &mut inbox, &mut executed);
        }
        run_to_quiescence(&mut rs, inbox, &[]);
        assert_eq!(rs[3].last_executed(), rs[0].last_executed());
        assert_eq!(rs[3].execution_chain(), rs[0].execution_chain());
        assert!(rs[3].stable_seq() >= Seq(16), "installed a fetched state");
    }

    #[test]
    fn state_response_requires_f_plus_one_vouchers() {
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 8;
        cfg.page_size = 4;
        let mut target = Replica::new(ReplicaId(3), cfg);
        let snapshot = Bytes::from_static(b"claimed-state");
        let manifest = PageManifest::compute(&snapshot, 4);
        let chain = Digest32([7u8; 32]);
        let executed: ExecutedSet = [RequestId::new(1, 1)].into_iter().collect();
        let response = StateResponseMsg {
            seq: Seq(8),
            view: View(0),
            exec_chain: chain,
            manifest: manifest.clone(),
            executed: executed.clone(),
            suffix: vec![],
            replica: ReplicaId(1),
        };
        // One voucher (the responder itself) is not enough for f = 1: no
        // page fetch even starts.
        let a = target.on_message(ReplicaId(1), Msg::StateResponse(response.clone()));
        assert!(
            !a.iter()
                .any(|x| matches!(x, Action::Send(_, Msg::FetchPages(_)))),
            "a lone responder must not be believed: {a:?}"
        );
        assert_eq!(target.last_executed(), Seq::ZERO);

        // A matching checkpoint vote from a second replica makes f + 1:
        // the cold fetcher asks the responder for every page it lacks.
        let digest = checkpoint_digest(Seq(8), &manifest, &executed, &chain);
        let _ = target.on_message(
            ReplicaId(2),
            Msg::Checkpoint(CheckpointMsg {
                seq: Seq(8),
                state_digest: digest,
                replica: ReplicaId(2),
            }),
        );
        let a = target.on_message(ReplicaId(1), Msg::StateResponse(response));
        let fp = a
            .iter()
            .find_map(|x| match x {
                Action::Send(to, Msg::FetchPages(fp)) if *to == ReplicaId(1) => Some(*fp),
                _ => None,
            })
            .expect("vouched manifest starts a page fetch");
        assert_eq!((fp.first, fp.count as usize), (0, manifest.len()));
        assert!(
            !a.iter().any(|x| matches!(x, Action::InstallState { .. })),
            "nothing installs before pages verify: {a:?}"
        );

        // The correct pages arrive: every one verifies against the vouched
        // manifest and the checkpoint installs.
        let pages: Vec<Bytes> = (0..manifest.len())
            .map(|i| snapshot.slice(i * 4..snapshot.len().min((i + 1) * 4)))
            .collect();
        let a = target.on_message(
            ReplicaId(1),
            Msg::PageResponse(PageResponseMsg {
                seq: Seq(8),
                first: 0,
                pages,
                replica: ReplicaId(1),
            }),
        );
        assert!(
            a.iter().any(|x| matches!(
                x,
                Action::InstallState { seq, snapshot: s } if *seq == Seq(8) && s == &snapshot
            )),
            "vouched and verified state must install: {a:?}"
        );
        assert_eq!(target.last_executed(), Seq(8));
        assert_eq!(target.stable_seq(), Seq(8));
        let c = target.take_page_counters();
        assert_eq!(c.fetched, manifest.len() as u64);
        assert_eq!(c.verified, manifest.len() as u64);
        assert_eq!(c.rejected, 0);

        // A tampered manifest no longer matches the vouched digest: no
        // fetch, no install.
        let mut fresh_cfg = Config::new(4);
        fresh_cfg.checkpoint_interval = 8;
        fresh_cfg.page_size = 4;
        let mut fresh = Replica::new(ReplicaId(3), fresh_cfg);
        let _ = fresh.on_message(
            ReplicaId(2),
            Msg::Checkpoint(CheckpointMsg {
                seq: Seq(8),
                state_digest: digest,
                replica: ReplicaId(2),
            }),
        );
        let bogus = StateResponseMsg {
            seq: Seq(8),
            view: View(0),
            exec_chain: chain,
            manifest: PageManifest::compute(b"tampered-state", 4),
            executed,
            suffix: vec![],
            replica: ReplicaId(1),
        };
        let a = fresh.on_message(ReplicaId(1), Msg::StateResponse(bogus));
        assert!(!a.iter().any(|x| matches!(
            x,
            Action::Send(_, Msg::FetchPages(_)) | Action::InstallState { .. }
        )));
        assert_eq!(fresh.last_executed(), Seq::ZERO);
    }

    /// The page table of the canonical test checkpoint state `b"state"`
    /// (one page at the default page size).
    fn test_manifest() -> PageManifest {
        PageManifest::compute(b"state", crate::pages::DEFAULT_PAGE_SIZE)
    }

    /// A `StateResponse` for checkpoint 8 with the given suffix, as
    /// replica `from` would send it.
    fn state_response(from: u32, view: u64, suffix: Vec<SuffixSlot>) -> StateResponseMsg {
        StateResponseMsg {
            seq: Seq(8),
            view: View(view),
            exec_chain: Digest32::ZERO,
            manifest: test_manifest(),
            executed: ExecutedSet::new(),
            suffix,
            replica: ReplicaId(from),
        }
    }

    /// A replica primed with one matching checkpoint vote for seq 8 —
    /// so the first `state_response` delivered to it reaches `f + 1 = 2`
    /// checkpoint vouchers — and a warm page store already holding the
    /// checkpoint's single page, so installation needs no page fetch.
    fn primed_fetcher() -> Replica {
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 8;
        let mut target = Replica::new(ReplicaId(3), cfg);
        target.seed_page_store([Bytes::from_static(b"state")]);
        let digest = checkpoint_digest(
            Seq(8),
            &test_manifest(),
            &ExecutedSet::new(),
            &Digest32::ZERO,
        );
        let _ = target.on_message(
            ReplicaId(2),
            Msg::Checkpoint(CheckpointMsg {
                seq: Seq(8),
                state_digest: digest,
                replica: ReplicaId(2),
            }),
        );
        target
    }

    #[test]
    fn suffix_slots_require_f_plus_one_matching_copies() {
        let mut target = primed_fetcher();
        let suffix = vec![SuffixSlot {
            seq: Seq(9),
            batch: Batch::of(req(50)),
        }];
        // First response: the checkpoint installs (two vouchers), but the
        // suffix has a single copy — a lone responder could have fabricated
        // it, so nothing past the checkpoint executes.
        let a = target.on_message(
            ReplicaId(1),
            Msg::StateResponse(state_response(1, 0, suffix)),
        );
        assert!(a.iter().any(|x| matches!(x, Action::InstallState { .. })));
        assert_eq!(
            target.last_executed(),
            Seq(8),
            "a single-responder suffix must not replay"
        );
        // A second responder sends a *different* batch for slot 9: still
        // no digest with f + 1 copies, still no replay.
        let forged = vec![SuffixSlot {
            seq: Seq(9),
            batch: Batch::of(req(66)),
        }];
        let _ = target.on_message(
            ReplicaId(0),
            Msg::StateResponse(state_response(0, 0, forged)),
        );
        assert_eq!(
            target.last_executed(),
            Seq(8),
            "conflicting copies don't count"
        );
        // The second *matching* copy crosses the bar and the slot replays.
        let suffix = vec![SuffixSlot {
            seq: Seq(9),
            batch: Batch::of(req(50)),
        }];
        let a = target.on_message(
            ReplicaId(2),
            Msg::StateResponse(state_response(2, 0, suffix)),
        );
        assert_eq!(
            target.last_executed(),
            Seq(9),
            "f + 1 matching copies replay"
        );
        assert!(
            a.iter().any(|x| matches!(
                x,
                Action::Execute { seq, .. } if *seq == Seq(9)
            )),
            "the vouched slot executes: {a:?}"
        );
    }

    #[test]
    fn non_contiguous_suffix_is_cut_at_the_gap() {
        let mut target = primed_fetcher();
        // Slot 9 is contiguous; slot 11 is not and must never replay, even
        // with f + 1 matching copies of it.
        let suffix = || {
            vec![
                SuffixSlot {
                    seq: Seq(9),
                    batch: Batch::of(req(50)),
                },
                SuffixSlot {
                    seq: Seq(11),
                    batch: Batch::of(req(51)),
                },
            ]
        };
        let a = target.on_message(
            ReplicaId(1),
            Msg::StateResponse(state_response(1, 0, suffix())),
        );
        assert!(a.iter().any(|x| matches!(x, Action::InstallState { .. })));
        let _ = target.on_message(
            ReplicaId(2),
            Msg::StateResponse(state_response(2, 0, suffix())),
        );
        assert_eq!(target.last_executed(), Seq(9), "stopped at the gap");
    }

    #[test]
    fn rejoining_a_view_requires_f_plus_one_reports() {
        let mut target = primed_fetcher();
        // A Byzantine responder claims a far-future view; installing the
        // (correct) checkpoint must not drag us there.
        let a = target.on_message(
            ReplicaId(1),
            Msg::StateResponse(state_response(1, u64::MAX, vec![])),
        );
        assert!(a.iter().any(|x| matches!(x, Action::InstallState { .. })));
        assert_eq!(target.view(), View(0), "one report must not move the view");
        // A second report makes f + 1 = 2 distinct reporters; the adopted
        // view is the (f+1)-th highest — the honest one, not the forgery.
        let _ = target.on_message(
            ReplicaId(2),
            Msg::StateResponse(state_response(2, 3, vec![])),
        );
        assert_eq!(
            target.view(),
            View(3),
            "f + 1 reports rejoin the vouched view"
        );
    }

    #[test]
    fn stale_view_change_is_abandoned_on_f_plus_one_current_view_reports() {
        // A replica whose view timer kept firing while it was partitioned
        // away accumulates a far-future view-change target no peer will
        // ever join. Once healed, f + 1 StateResponses reporting the
        // group's *current* view must snap it out of the stale view
        // change — otherwise it stashes live proposals forever.
        let mut target = primed_fetcher();
        let _ = target.on_request(req(1));
        let _ = target.on_view_timer();
        let _ = target.on_view_timer();
        assert!(target.in_view_change, "wedged in a lonely view change");
        let _ = target.on_message(
            ReplicaId(1),
            Msg::StateResponse(state_response(1, 0, vec![])),
        );
        assert!(target.in_view_change, "one report is not evidence");
        let _ = target.on_message(
            ReplicaId(2),
            Msg::StateResponse(state_response(2, 0, vec![])),
        );
        assert!(
            !target.in_view_change,
            "f + 1 current-view reports abandon the stale view change"
        );
        assert_eq!(target.view(), View(0), "still in the group's view");
    }

    // ---- The checkpoint sub-machine, alone ----

    /// A lone sub-machine — replica 0 of four, no agreement core, no
    /// peers — holding the stable checkpoint 8 over `test_snapshot`: its
    /// own vote plus the same digest from replicas 1 and 2 is the `2f + 1`.
    fn stable_at_8(page_size: u32) -> Checkpoints {
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 8;
        cfg.page_size = page_size;
        let mut obs = Obs::new(&cfg);
        let mut cp = Checkpoints::new(ReplicaId(0), cfg);
        let mut out = Vec::new();
        cp.capture_boundary(Seq(8), Digest32::ZERO, ExecutedSet::new());
        let mut stable = cp.on_snapshot(Seq(8), test_snapshot(Seq(8)), &mut obs, &mut out);
        assert_eq!(stable, None, "one vote is no quorum");
        let Some(Action::Broadcast(Msg::Checkpoint(own))) = out.pop() else {
            panic!("a snapshot is answered with this replica's vote");
        };
        for i in [1, 2] {
            let vote = CheckpointMsg {
                replica: ReplicaId(i),
                ..own
            };
            stable = cp.on_checkpoint(ReplicaId(i), vote, Seq(8), &mut obs, &mut out);
        }
        assert_eq!(stable, Some(Seq(8)));
        assert_eq!(cp.stable_seq(), Seq(8));
        cp
    }

    #[test]
    fn fetch_responses_are_rate_limited_per_stable_checkpoint() {
        // Spam a sub-machine that holds a stable state with FetchState from
        // the same requester: at most MAX_SERVES_PER_STABLE responses may
        // go out.
        let mut cp = stable_at_8(crate::pages::DEFAULT_PAGE_SIZE);
        let fetch = FetchStateMsg {
            have: Seq::ZERO,
            replica: ReplicaId(3),
        };
        let mut out = Vec::new();
        for _ in 0..10 {
            cp.on_fetch_state(ReplicaId(3), fetch, View(0), |_| Vec::new(), &mut out);
        }
        let responses = out
            .iter()
            .filter(|x| matches!(x, Action::Send(_, Msg::StateResponse(_))))
            .count();
        assert_eq!(
            responses as u64, MAX_SERVES_PER_STABLE,
            "FetchState spam must not amplify"
        );
    }

    // ---- Merkle page transfer: adversarial battery ----

    /// Sixteen bytes — four pages of four at the test page size.
    const ADV_STATE: &[u8] = b"0123456789abcdef";

    fn page_of(state: &'static [u8], i: usize) -> Bytes {
        Bytes::from_static(&state[i * 4..state.len().min((i + 1) * 4)])
    }

    fn page_resp(from: u32, seq: Seq, first: u32, pages: Vec<Bytes>) -> Msg {
        Msg::PageResponse(PageResponseMsg {
            seq,
            first,
            pages,
            replica: ReplicaId(from),
        })
    }

    /// A cold fetcher mid page-fetch for checkpoint 8 over `state` at page
    /// size 4: the manifest is certified (`f + 1` vouchers) and the
    /// `FetchPages` request has gone out to replica 1.
    fn mid_fetch(state: &'static [u8]) -> (Replica, PageManifest) {
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 8;
        cfg.page_size = 4;
        let mut target = Replica::new(ReplicaId(3), cfg);
        let manifest = PageManifest::compute(state, 4);
        let digest = checkpoint_digest(Seq(8), &manifest, &ExecutedSet::new(), &Digest32::ZERO);
        let _ = target.on_message(
            ReplicaId(2),
            Msg::Checkpoint(CheckpointMsg {
                seq: Seq(8),
                state_digest: digest,
                replica: ReplicaId(2),
            }),
        );
        let sr = StateResponseMsg {
            seq: Seq(8),
            view: View(0),
            exec_chain: Digest32::ZERO,
            manifest: manifest.clone(),
            executed: ExecutedSet::new(),
            suffix: vec![],
            replica: ReplicaId(1),
        };
        let a = target.on_message(ReplicaId(1), Msg::StateResponse(sr));
        assert!(a
            .iter()
            .any(|x| matches!(x, Action::Send(_, Msg::FetchPages(_)))));
        (target, manifest)
    }

    #[test]
    fn byzantine_page_responses_are_rejected_and_counted() {
        let (mut target, _) = mid_fetch(ADV_STATE);
        // Wrong checkpoint target.
        let _ = target.on_message(
            ReplicaId(0),
            page_resp(0, Seq(16), 0, vec![page_of(ADV_STATE, 0)]),
        );
        assert_eq!(target.take_page_counters().rejected, 1);
        // Empty frame.
        let _ = target.on_message(ReplicaId(0), page_resp(0, Seq(8), 0, vec![]));
        assert_eq!(target.take_page_counters().rejected, 1);
        // Range running past the end of the manifest: the whole frame is
        // refused even though its first page would have verified.
        let _ = target.on_message(
            ReplicaId(0),
            page_resp(
                0,
                Seq(8),
                3,
                vec![page_of(ADV_STATE, 3), Bytes::from_static(b"xxxx")],
            ),
        );
        assert_eq!(target.take_page_counters().rejected, 1);
        // Over the per-frame protocol cap: decodes (the wire cap is
        // higher), reaches the fetcher, rejected as one frame.
        let over: Vec<Bytes> = (0..=MAX_PAGES_PER_FETCH as usize)
            .map(|_| Bytes::from_static(b"xxxx"))
            .collect();
        let _ = target.on_message(ReplicaId(0), page_resp(0, Seq(8), 0, over));
        assert_eq!(target.take_page_counters().rejected, 1);
        // Digest-mismatched page bytes: rejected, nothing fills.
        let _ = target.on_message(
            ReplicaId(0),
            page_resp(0, Seq(8), 0, vec![Bytes::from_static(b"evil")]),
        );
        let c = target.take_page_counters();
        assert_eq!((c.rejected, c.fetched), (1, 0));
        assert_eq!(target.last_executed(), Seq::ZERO, "nothing installed");
        // An honest peer answers: every page verifies and the state
        // installs — the corrupt responder only ever stalled the transfer,
        // it never poisoned it.
        let pages: Vec<Bytes> = (0..4).map(|i| page_of(ADV_STATE, i)).collect();
        let a = target.on_message(ReplicaId(2), page_resp(2, Seq(8), 0, pages));
        assert!(
            a.iter().any(|x| matches!(
                x,
                Action::InstallState { seq, snapshot } if *seq == Seq(8)
                    && snapshot == &Bytes::from_static(ADV_STATE)
            )),
            "honest pages must converge: {a:?}"
        );
        let c = target.take_page_counters();
        assert_eq!((c.fetched, c.verified, c.rejected), (4, 4, 0));
        assert_eq!(target.stable_seq(), Seq(8));
    }

    #[test]
    fn duplicate_pages_are_rejected_and_counted() {
        let (mut target, _) = mid_fetch(ADV_STATE);
        let _ = target.on_message(
            ReplicaId(1),
            page_resp(1, Seq(8), 0, vec![page_of(ADV_STATE, 0)]),
        );
        assert_eq!(target.take_page_counters().fetched, 1);
        // The same page again — byte-identical and digest-valid, but the
        // slot is already filled: a duplicate is counted as a rejection.
        let _ = target.on_message(
            ReplicaId(2),
            page_resp(2, Seq(8), 0, vec![page_of(ADV_STATE, 0)]),
        );
        let c = target.take_page_counters();
        assert_eq!((c.fetched, c.rejected), (0, 1));
        // The remaining pages complete the fetch normally.
        let rest: Vec<Bytes> = (1..4).map(|i| page_of(ADV_STATE, i)).collect();
        let a = target.on_message(ReplicaId(1), page_resp(1, Seq(8), 1, rest));
        assert!(a.iter().any(|x| matches!(x, Action::InstallState { .. })));
        assert_eq!(target.last_executed(), Seq(8));
    }

    #[test]
    fn unsolicited_page_response_is_rejected_and_counted() {
        let mut target = Replica::new(ReplicaId(3), Config::new(4));
        let _ = target.on_message(
            ReplicaId(1),
            page_resp(1, Seq(8), 0, vec![Bytes::from_static(b"x")]),
        );
        assert_eq!(target.take_page_counters().rejected, 1);
    }

    #[test]
    fn warm_fetcher_pulls_only_differing_pages() {
        // The fetcher's store holds an old state differing from the
        // certified one in exactly one page: only that page is requested
        // and travels — an O(k) transfer for a k-page diff.
        let old: &[u8] = b"0123XXXX89abcdef";
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 8;
        cfg.page_size = 4;
        let mut target = Replica::new(ReplicaId(3), cfg);
        target.seed_page_store((0..4).map(|i| page_of(old, i)));
        let manifest = PageManifest::compute(ADV_STATE, 4);
        let digest = checkpoint_digest(Seq(8), &manifest, &ExecutedSet::new(), &Digest32::ZERO);
        let _ = target.on_message(
            ReplicaId(2),
            Msg::Checkpoint(CheckpointMsg {
                seq: Seq(8),
                state_digest: digest,
                replica: ReplicaId(2),
            }),
        );
        let sr = StateResponseMsg {
            seq: Seq(8),
            view: View(0),
            exec_chain: Digest32::ZERO,
            manifest,
            executed: ExecutedSet::new(),
            suffix: vec![],
            replica: ReplicaId(1),
        };
        let a = target.on_message(ReplicaId(1), Msg::StateResponse(sr));
        let fetches: Vec<_> = a
            .iter()
            .filter_map(|x| match x {
                Action::Send(to, Msg::FetchPages(fp)) => Some((*to, *fp)),
                _ => None,
            })
            .collect();
        assert_eq!(fetches.len(), 1, "one bounded range request: {a:?}");
        assert_eq!(
            fetches[0].0,
            ReplicaId(1),
            "asked of the responder, not broadcast"
        );
        assert_eq!(
            (fetches[0].1.first, fetches[0].1.count),
            (1, 1),
            "only the differing page is asked for"
        );
        let a = target.on_message(
            ReplicaId(1),
            page_resp(1, Seq(8), 1, vec![page_of(ADV_STATE, 1)]),
        );
        assert!(
            a.iter().any(|x| matches!(
                x,
                Action::InstallState { seq, snapshot } if *seq == Seq(8)
                    && snapshot == &Bytes::from_static(ADV_STATE)
            )),
            "reassembled from warm pages plus the one fetched: {a:?}"
        );
        let c = target.take_page_counters();
        assert_eq!((c.fetched, c.verified, c.rejected), (1, 1, 0));
    }

    #[test]
    fn page_requests_are_validated_and_budgeted() {
        // A sub-machine holding a stable checkpoint can serve pages: probe
        // every responder-side guard.
        let mut cp = stable_at_8(2);
        let total = test_snapshot(Seq(8)).len().div_ceil(2) as u32;
        let fetch = |first: u32, count: u32| FetchPagesMsg {
            seq: Seq(8),
            first,
            count,
            replica: ReplicaId(3),
        };
        let mut serve = |from: u32, fp: FetchPagesMsg| {
            let mut out = Vec::new();
            cp.on_fetch_pages(ReplicaId(from), fp, &mut out);
            out.iter()
                .filter_map(|x| match x {
                    Action::Send(to, Msg::PageResponse(pr)) => {
                        assert_eq!(*to, ReplicaId(3));
                        assert_eq!(pr.seq, Seq(8));
                        Some(pr.pages.len())
                    }
                    _ => None,
                })
                .sum::<usize>()
        };
        // An honest full-range request serves every page.
        let mut total_served = serve(3, fetch(0, total));
        assert_eq!(total_served as u32, total);
        // Zero count, over-cap count, out-of-range, wrong boundary, and a
        // spoofed requester id: all refused outright.
        assert_eq!(serve(3, fetch(0, 0)), 0);
        assert_eq!(serve(3, fetch(0, MAX_PAGES_PER_FETCH + 1)), 0);
        assert_eq!(serve(3, fetch(total, 1)), 0);
        let wrong_seq = FetchPagesMsg {
            seq: Seq(16),
            ..fetch(0, 1)
        };
        assert_eq!(serve(3, wrong_seq), 0);
        assert_eq!(serve(2, fetch(0, 1)), 0, "names 3, sent by 2");
        // A spamming requester exhausts its per-stable page budget and is
        // then cut off entirely.
        for _ in 0..200 {
            total_served += serve(3, fetch(0, total));
        }
        assert!(
            total_served as u64 <= MIN_PAGE_BUDGET,
            "FetchPages spam must not amplify: {total_served} pages"
        );
        assert_eq!(
            serve(3, fetch(0, total)),
            0,
            "budget stays exhausted until the next stable checkpoint"
        );
    }

    #[test]
    fn far_future_checkpoint_votes_stay_bounded() {
        let mut cfg = Config::new(4);
        cfg.checkpoint_interval = 8;
        let mut obs = Obs::new(&cfg);
        let mut target = Checkpoints::new(ReplicaId(3), cfg);
        let cap = target.max_tracked_ckpts();
        let mut vote = |from: u32, seq: u64| {
            let c = CheckpointMsg {
                seq: Seq(seq),
                state_digest: Digest32([9u8; 32]),
                replica: ReplicaId(from),
            };
            let _ = target.on_checkpoint(ReplicaId(from), c, Seq::ZERO, &mut obs, &mut Vec::new());
            target.tracked_vote_seqs()
        };
        // A Byzantine peer votes for thousands of distinct far-future
        // boundaries; only its newest `cap` may remain tracked.
        let mut tracked = Vec::new();
        for i in 1..=1_000u64 {
            tracked = vote(1, i * 8);
        }
        assert!(
            tracked.len() <= cap,
            "vote map grew to {} entries (cap {cap})",
            tracked.len()
        );
        // Votes off the interval cadence are rejected outright.
        assert!(
            !vote(2, 13).contains(&Seq(13)),
            "non-boundary votes must not be tracked"
        );
    }

    #[test]
    fn prepares_in_the_current_view_drop_the_senders_stale_votes() {
        // Replica 1 votes to leave view 0, then shows up preparing in
        // view 0 again (it abandoned the view change): its parked vote
        // must stop counting toward a later quorum, because its frozen
        // claims no longer cover what it prepares from here on.
        let mut rs = group(4);
        let vc = ViewChangeMsg {
            new_view: View(1),
            stable_seq: Seq::ZERO,
            stable_digest: Digest32::ZERO,
            prepared: vec![],
            replica: ReplicaId(1),
        };
        let _ = rs[3].on_message(ReplicaId(1), Msg::ViewChange(vc));
        assert!(rs[3].view_changes.contains_key(&View(1)));
        // Seed a pre-prepare so replica 3 accepts replica 1's prepare.
        let b1 = Batch::of(req(1));
        let pp = PrePrepareMsg {
            view: View(0),
            seq: Seq(1),
            digest: b1.digest(),
            batch: b1.clone(),
        };
        let _ = rs[3].on_message(ReplicaId(0), Msg::PrePrepare(pp));
        let _ = rs[3].on_message(
            ReplicaId(1),
            Msg::Prepare(PrepareMsg {
                view: View(0),
                seq: Seq(1),
                digest: b1.digest(),
                replica: ReplicaId(1),
            }),
        );
        assert!(
            !rs[3].view_changes.contains_key(&View(1)),
            "stale vote must be dropped once the voter prepares in view 0"
        );
        // A second vote for view 1 from replica 2 alone must not reach
        // the f + 1 join bar using the dropped vote.
        let vc2 = ViewChangeMsg {
            new_view: View(1),
            stable_seq: Seq::ZERO,
            stable_digest: Digest32::ZERO,
            prepared: vec![],
            replica: ReplicaId(2),
        };
        let a = rs[3].on_message(ReplicaId(2), Msg::ViewChange(vc2));
        assert!(
            !a.iter()
                .any(|x| matches!(x, Action::Broadcast(Msg::ViewChange(_)))),
            "one live vote plus a dropped stale vote must not trigger a join"
        );
    }

    #[test]
    fn f_plus_one_view_changes_trigger_join() {
        let mut rs = group(4);
        let vc = |i: u32| ViewChangeMsg {
            new_view: View(1),
            stable_seq: Seq::ZERO,
            stable_digest: Digest32::ZERO,
            prepared: vec![],
            replica: ReplicaId(i),
        };
        let a1 = rs[3].on_message(ReplicaId(0), Msg::ViewChange(vc(0)));
        assert!(!a1
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::ViewChange(_)))));
        let a2 = rs[3].on_message(ReplicaId(1), Msg::ViewChange(vc(1)));
        assert!(
            a2.iter()
                .any(|a| matches!(a, Action::Broadcast(Msg::ViewChange(_)))),
            "f+1 = 2 votes should trigger a join"
        );
        assert!(rs[3].in_view_change);
    }

    // ---- Read-only fast path gate ----

    #[test]
    fn read_only_gate_closes_during_view_change() {
        let mut rs = group(4);
        assert!(rs[1].can_serve_reads());
        let _ = rs[1].on_view_timer();
        assert!(rs[1].in_view_change);
        assert!(!rs[1].can_serve_reads());
    }

    #[test]
    fn read_only_gate_closes_during_state_transfer_until_suffix_replays() {
        // A replica that installed a fetched checkpoint must not answer
        // reads until the committed suffix has replayed: the bare
        // checkpoint may be a whole suffix behind the group's frontier.
        let mut target = primed_fetcher();
        let _ = target.begin_state_fetch();
        assert!(!target.can_serve_reads());
        // The checkpoint installs, but slot 9 has a single-copy suffix
        // claim: still mid-transfer, reads stay gated.
        let suffix = vec![SuffixSlot {
            seq: Seq(9),
            batch: Batch::of(req(50)),
        }];
        let _ = target.on_message(
            ReplicaId(1),
            Msg::StateResponse(state_response(1, 0, suffix.clone())),
        );
        assert_eq!(target.last_executed(), Seq(8));
        assert!(!target.can_serve_reads());
        // The second matching copy replays the suffix; reads reopen.
        let _ = target.on_message(
            ReplicaId(0),
            Msg::StateResponse(state_response(0, 0, suffix)),
        );
        assert_eq!(target.last_executed(), Seq(9));
        assert!(target.can_serve_reads());
    }

    #[test]
    fn wiped_replica_blocks_reads_until_recovered() {
        // End-to-end variant against the full rejoin flow.
        let mut cfg = Config::new(4);
        cfg.max_batch_size = 1;
        cfg.checkpoint_interval = 8;
        let mut rs: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId(i), cfg.clone()))
            .collect();
        let mut inbox = VecDeque::new();
        let mut executed = vec![Vec::new(); 4];
        for c in 1..=13 {
            submit(&mut rs, 0, req(c), &mut inbox, &mut executed);
        }
        run_to_quiescence(&mut rs, inbox, &[]);
        rs[3] = Replica::new(ReplicaId(3), cfg);
        let mut inbox = VecDeque::new();
        let actions = rs[3].begin_state_fetch();
        assert!(!rs[3].can_serve_reads(), "fetch in flight gates reads");
        route(&mut rs, 3, actions, &mut inbox, &mut executed);
        run_to_quiescence(&mut rs, inbox, &[]);
        assert_eq!(rs[3].last_executed(), rs[0].last_executed());
        assert!(rs[3].can_serve_reads(), "reads reopen once caught up");
    }

    // ---- Batch-timer force path ----

    #[test]
    fn forced_batch_seal_respects_the_watermark() {
        // Regression guard for the batch timer's force path: `force` may
        // bypass the pipeline-depth brake, but never the high watermark —
        // slots past `stable + window` must stay queued until a checkpoint
        // stabilizes and the window slides.
        let mut rs = group_with(4, |c| {
            c.pipeline_depth = 0;
            c.max_batch_size = 1;
            c.watermark_window = 4;
        });
        for c in 1..=6 {
            let _ = rs[0].on_request(req(c));
        }
        assert_eq!(rs[0].queued(), 6, "depth 0: nothing proposes untimed");
        let fired = rs[0].on_batch_timer();
        let seqs: Vec<Seq> = fired
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast(Msg::PrePrepare(pp)) => Some(pp.seq),
                _ => None,
            })
            .collect();
        assert_eq!(
            seqs,
            vec![Seq(1), Seq(2), Seq(3), Seq(4)],
            "force stops at the watermark: {fired:?}"
        );
        assert_eq!(rs[0].queued(), 2, "overflow stays queued");
        assert_eq!(rs[0].in_flight(), 4);
    }
}
