//! The Perpetual replica: a co-located voter + driver pair on one node
//! (paper §2.1.1, Fig. 1).
//!
//! Each replica hosts:
//!
//! * a **voter** — a CLBFT instance ordering this group's [`Event`] stream,
//!   plus the candidate/validation bookkeeping that decides *which* events
//!   may enter agreement (the `f_c + 1` matching-request rule, bundle
//!   validation, local abort timers);
//! * a **driver** — the deterministic [`Executor`] plus the outcall table,
//!   reply routing, and responder duty.
//!
//! ## Local-validation gate
//!
//! A backup voter refuses to *prepare* an ordering proposal for an external
//! request or an outcall result until it has locally validated the same
//! event (received `f_c + 1` matching `OutRequest`s, or a reply bundle with
//! `f_t + 1` valid shares). Proposals arriving before local validation are
//! parked in a gate buffer and released when validation catches up. This is
//! what stops a faulty primary from injecting forged cross-group events and
//! is the mechanism behind the paper's fault-isolation guarantee.

use crate::calls::{Calls, TimerKind};
use crate::cost::CostModel;
use crate::event::Event;
use crate::executor::{AppCmd, AppEvent, AppObs, AppOutput, CallId, Executor, RequestHandle};
use crate::faults::{corrupt, FaultMode};
use crate::group::{GroupId, Topology};
use crate::messages::{decode_pmsg, encode_pmsg, reply_digest, request_tag, PMsg, ShareVotes};
use bytes::Bytes;
use pws_clbft::{
    wire as bft_wire, Action, Config, ExecutedSet, Msg, ObsEvent, Replica as BftReplica, ReplicaId,
    RequestId as BftRequestId, TimerCmd,
};
use pws_crypto::auth::BundleShare;
use pws_crypto::keys::KeyTable;
use pws_crypto::sha256::Digest32;
use pws_simnet::metrics::BatchKeys;
use pws_simnet::{
    AuditEvent, Context, FlightKind, Node, NodeId, Phase, ProtoKey, SimDuration, TimerId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Default for [`ReplicaConfig::reply_retention`]: how many produced
/// replies (and reply routes) are retained per calling group for
/// responder-rotation retransmits. Callers only ever retry calls they
/// still have outstanding, so pruning the oldest entries keeps the
/// checkpointable driver state from growing with request history while
/// preserving every retransmit any live caller can ask for.
///
/// **Contract:** a caller must keep far fewer than this many calls
/// outstanding against one target group (every client and caller in this
/// workspace uses windows ≤ 16), and its retry cadence must revisit a
/// stuck call well before the group completes this many *newer* requests
/// for it — eviction of a still-wanted reply wedges that call for good.
/// The default gives a churn-degraded group several client retry cycles
/// of slack. This mirrors Castro–Liskov, where the reply cache holds
/// exactly *one* reply per client (their clients are
/// single-outstanding); the window here is 512× more generous.
pub(crate) const DEFAULT_REPLY_RETENTION: usize = 512;

/// CLBFT view-change timeout.
const VIEW_TIMEOUT: SimDuration = SimDuration::from_millis(400);

/// Interval after which an unanswered outcall is retransmitted with the
/// responder role rotated to the next target replica (masks a faulty
/// responder; part of Perpetual's fault handling).
const RETRY_INTERVAL: SimDuration = SimDuration::from_millis(700);

/// Milliseconds added to the simulated clock for time votes, so agreed
/// timestamps look like wall-clock epochs.
const EPOCH_OFFSET_MS: u64 = 1_190_000_000_000;

/// The dedup key for a delivered external request: the calling group is
/// the origin, the caller's dense *per-target* sequence number the
/// counter — exactly the shape [`ExecutedSet`] compacts to a contiguous
/// prefix per caller, even when the caller scatters its global `req_no`
/// stream across shards.
fn delivered_key(caller: GroupId, target_seq: u64) -> BftRequestId {
    BftRequestId::new(caller.0 as u64, target_seq)
}

/// Inserts into a per-caller retention-bounded map, evicting the
/// lowest-numbered entries past `retention` — but never the entry just
/// inserted. A straggler request can be ordered long after its numeric
/// peers (dropped by a view change mid-churn and re-proposed), making the
/// *newest* insertion the *lowest* key in the map; evicting it on sight
/// would discard its reply or route before they were ever used.
fn insert_bounded<T>(per: &mut BTreeMap<u64, T>, req_no: u64, value: T, retention: usize) {
    per.insert(req_no, value);
    while per.len() > retention.max(1) {
        let lowest = *per.keys().next().expect("nonempty past retention");
        let victim = if lowest == req_no {
            match per.keys().nth(1) {
                Some(k) => *k,
                None => break,
            }
        } else {
            lowest
        };
        per.remove(&victim);
    }
}

/// Applies a voter timer command to the one timer it names: whatever was
/// pending is cancelled, and a restart sets a fresh one.
fn reset_timer(
    slot: &mut Option<TimerId>,
    cmd: TimerCmd,
    delay: SimDuration,
    ctx: &mut Context<'_>,
) {
    if let Some(t) = slot.take() {
        ctx.cancel_timer(t);
    }
    if cmd == TimerCmd::Restart {
        *slot = Some(ctx.set_timer(delay));
    }
}

/// Static configuration of one Perpetual replica.
pub struct ReplicaConfig {
    /// This replica's group.
    pub(crate) group: GroupId,
    /// This replica's index within the group.
    pub(crate) index: u32,
    /// The deployment topology.
    pub(crate) topology: Arc<Topology>,
    /// Deployment-wide master seed (keys, deterministic app seeds).
    pub(crate) master_seed: u64,
    /// CPU cost model.
    pub cost: CostModel,
    /// Maximum requests the voter's primary seals into one agreement batch
    /// (CLBFT request batching; `1` disables it).
    pub max_batch_size: usize,
    /// The voter checkpoints (snapshot + certificate vote) every this many
    /// executions.
    pub checkpoint_interval: u64,
    /// Snapshot page size (bytes) for the voter's Merkle-partitioned
    /// checkpoints and state transfer. Must match across the group.
    pub page_size: u32,
    /// Proactive-recovery window: when set, this replica tears its state
    /// down and rejoins via state transfer every `n × window`, staggered by
    /// replica index so exactly one replica per group recovers per window.
    /// `None` disables proactive recovery. Ignored for singleton groups
    /// (`n = 1`): with no peers to fetch state from, a wipe would be an
    /// irrecoverable crash.
    pub recovery_interval: Option<SimDuration>,
    /// Produced replies and reply routes retained per calling group for
    /// retransmits (default 512; `DEFAULT_REPLY_RETENTION` in this module
    /// states the caller-side contract).
    pub reply_retention: usize,
    /// Collect per-request lifecycle phase events from the voter (see
    /// [`pws_clbft::Config::obs_phases`]). Set by the harness when tracing
    /// is enabled; off by default. Purely observational.
    pub obs_phases: bool,
    /// Collect protocol audit observations from the voter and driver (see
    /// [`pws_clbft::Config::audit`]) for the online invariant auditor. Set
    /// by the harness when auditing is enabled; off by default. Purely
    /// observational.
    pub audit: bool,
    /// Fault injection mode.
    pub fault: FaultMode,
}

impl ReplicaConfig {
    /// A correct replica with default cost model and timeouts.
    pub fn new(group: GroupId, index: u32, topology: Arc<Topology>, master_seed: u64) -> Self {
        // The voter knobs default to CLBFT's own defaults (any valid `n`
        // gives the same ones).
        let bft = Config::new(1);
        ReplicaConfig {
            group,
            index,
            topology,
            master_seed,
            cost: CostModel::DEFAULT,
            max_batch_size: bft.max_batch_size,
            checkpoint_interval: bft.checkpoint_interval,
            page_size: bft.page_size,
            recovery_interval: None,
            reply_retention: DEFAULT_REPLY_RETENTION,
            obs_phases: false,
            audit: false,
            fault: FaultMode::Correct,
        }
    }

    /// The CLBFT configuration this replica's voter runs with. The log
    /// window and the batch delay are [`Config::new`]'s.
    fn bft_config(&self, n: u32) -> Config {
        let mut bft_cfg = Config::new(n);
        bft_cfg.max_batch_size = self.max_batch_size.max(1);
        bft_cfg.checkpoint_interval = self.checkpoint_interval.max(1);
        bft_cfg.page_size = self.page_size.max(1);
        bft_cfg.obs_phases = self.obs_phases;
        bft_cfg.audit = self.audit;
        bft_cfg
    }
}

impl std::fmt::Debug for ReplicaConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaConfig")
            .field("group", &self.group)
            .field("index", &self.index)
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

/// What one calling group is owed. Three maps, not one record per request:
/// each is bounded by [`ReplicaConfig::reply_retention`] on its own
/// schedule, and `routes` and `replies` are snapshot-covered, so their
/// eviction order is part of the certified bytes.
#[derive(Debug, Default)]
struct CallerTable {
    /// The chosen responder per delivered request. Retransmits re-derive
    /// the route from the incoming request anyway, so old entries carry no
    /// information a live caller still needs.
    routes: BTreeMap<u64, u32>,
    /// Replies already produced, kept for responder-rotation retransmits.
    replies: BTreeMap<u64, Bytes>,
    /// Span routes for deferred replies: `req_no` → the span key `(origin,
    /// counter)` of the delivered external request. Populated at delivery
    /// only while tracing is on, consumed when the reply is produced. Not
    /// snapshot-covered, and survives a restore.
    traced: BTreeMap<u64, (u64, u64)>,
}

/// The group-agreed seed delivered in [`AppEvent::Init`].
pub(crate) fn group_seed(master_seed: u64, group: GroupId) -> u64 {
    let mut z = master_seed ^ ((group.0 as u64) << 32 | 0x5eed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each distinct copy of one external request the calling drivers sent,
/// hashed once, with the idxs of the drivers that sent it.
type Candidates = Vec<(pws_clbft::Request, HashSet<u32>)>;

/// A Perpetual replica node (voter + driver). Implements [`Node`].
pub struct PerpetualReplica {
    cfg: ReplicaConfig,
    n: u32,
    f: u32,
    bft: BftReplica,
    keys: KeyTable,
    // ----- voter state -----
    /// External-request candidates by (caller, req_no). Hashed, not
    /// ordered, because never iterated: entries are looked up, counted and
    /// removed by key, so their order reaches nothing.
    candidates: HashMap<(GroupId, u64), Candidates>,
    /// CLBFT request digests the gate lets through.
    validated: HashSet<Digest32>,
    /// Ordering proposals parked until local validation.
    gated: Vec<(ReplicaId, Msg)>,
    // ----- driver state -----
    executor: Box<dyn Executor>,
    next_call: u64,
    next_token: u64,
    /// Our own outcalls, one record each, with their timers.
    calls: Calls,
    /// Delivered external requests, compacted per calling group (the
    /// driver-level dedup mirror of the voter's [`ExecutedSet`]).
    delivered_external: ExecutedSet,
    /// Reply routes, retained replies and span routes per calling group.
    callers: BTreeMap<GroupId, CallerTable>,
    resolved_tokens: BTreeSet<u64>,
    // ----- responder duty -----
    /// Reply shares gathered per request this replica is responder for;
    /// `None` once the bundle went out.
    responder_state: HashMap<(GroupId, u64), Option<ShareVotes>>,
    // ----- timers -----
    view_timer: Option<TimerId>,
    batch_timer: Option<TimerId>,
    /// Fires once for [`FaultMode::StaleDrop`].
    stale_timer: Option<TimerId>,
    /// Fires every `n × recovery_interval` for proactive recovery.
    recovery_timer: Option<TimerId>,
    /// Precomputed `clbft.exec.*` metric keys (the per-batch path is hot;
    /// no per-batch formatting).
    exec_keys: BatchKeys,
    /// Precomputed per-group `clbft.exec.<group>.*` metric keys.
    exec_group_keys: BatchKeys,
}

impl std::fmt::Debug for PerpetualReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerpetualReplica")
            .field("group", &self.cfg.group)
            .field("index", &self.cfg.index)
            .field("pending_calls", &self.calls.len())
            .finish_non_exhaustive()
    }
}

impl PerpetualReplica {
    /// Creates a replica hosting `executor`.
    pub fn new(cfg: ReplicaConfig, executor: Box<dyn Executor>) -> Self {
        let n = cfg.topology.n(cfg.group);
        let f = cfg.topology.f(cfg.group);
        assert!(cfg.index < n, "replica index out of range");
        let bft = BftReplica::new(ReplicaId(cfg.index), cfg.bft_config(n));
        let keys = KeyTable::new(cfg.master_seed);
        PerpetualReplica {
            n,
            f,
            bft,
            keys,
            candidates: HashMap::new(),
            validated: HashSet::new(),
            gated: Vec::new(),
            executor,
            next_call: 0,
            next_token: 0,
            calls: Calls::new(cfg.group, cfg.index, cfg.topology.clone()),
            delivered_external: ExecutedSet::new(),
            callers: BTreeMap::new(),
            resolved_tokens: BTreeSet::new(),
            responder_state: HashMap::new(),
            view_timer: None,
            batch_timer: None,
            stale_timer: None,
            recovery_timer: None,
            exec_keys: BatchKeys::new("clbft.exec"),
            exec_group_keys: BatchKeys::new(&format!("clbft.exec.{}", cfg.group)),
            cfg,
        }
    }

    /// Typed access to the hosted executor (for harvesting results after a
    /// run).
    pub fn executor_mut<T: Executor>(&mut self) -> Option<&mut T> {
        let any: &mut dyn std::any::Any = self.executor.as_mut();
        any.downcast_mut::<T>()
    }

    /// This replica's group.
    pub fn group(&self) -> GroupId {
        self.cfg.group
    }

    /// This replica's index.
    pub fn index(&self) -> u32 {
        self.cfg.index
    }

    /// The CLBFT view the voter is currently in (for tests).
    pub fn bft_view(&self) -> pws_clbft::View {
        self.bft.view()
    }

    /// The voter's last executed sequence number (for tests/assertions).
    pub fn bft_last_executed(&self) -> pws_clbft::Seq {
        self.bft.last_executed()
    }

    /// The voter's chained execution digest — byte-identical across
    /// replicas that executed the same history (for digest-checked
    /// recovery assertions).
    pub fn bft_execution_chain(&self) -> Digest32 {
        self.bft.execution_chain()
    }

    /// The voter's last stable checkpoint and its digest.
    pub fn bft_stable_checkpoint(&self) -> (pws_clbft::Seq, Digest32) {
        (self.bft.stable_seq(), self.bft.stable_digest())
    }

    /// The voter's dedup-set footprint: `(request ids covered, wire
    /// entries)`. The compaction evidence for tests: ids grow with request
    /// history while entries stay `O(origins + reorder residue)`.
    pub fn bft_dedup_footprint(&self) -> (u64, usize) {
        let set = self.bft.executed_set();
        (set.id_count(), set.wire_entries())
    }

    /// The hosted executor's application snapshot (for digest-checked
    /// recovery assertions).
    pub fn service_snapshot(&self) -> Vec<u8> {
        self.executor.snapshot()
    }

    fn my_node(&self) -> NodeId {
        self.cfg.topology.node(self.cfg.group, self.cfg.index)
    }

    /// Records the responder choice for a delivered request, bounded per
    /// caller like the reply cache — retransmits re-derive the route from
    /// the incoming request, so only the newest window matters.
    fn record_reply_route(&mut self, caller: GroupId, req_no: u64, responder: u32) {
        insert_bounded(
            &mut self.callers.entry(caller).or_default().routes,
            req_no,
            responder,
            self.cfg.reply_retention,
        );
    }

    fn send_pmsg(&mut self, to: NodeId, msg: &PMsg, extra_macs: usize, ctx: &mut Context<'_>) {
        if self.cfg.fault.is_silent() {
            return;
        }
        let bytes = encode_pmsg(msg);
        ctx.spend(self.cfg.cost.send_cost(bytes.len(), extra_macs));
        ctx.metrics().incr("perpetual.messages_sent");
        ctx.send(to, bytes);
    }

    fn send_bft(&mut self, to: ReplicaId, msg: &Msg, ctx: &mut Context<'_>) {
        let inner = bft_wire::encode_msg(msg);
        let node = self.cfg.topology.node(self.cfg.group, to.0);
        self.send_pmsg(node, &PMsg::Bft(inner), 0, ctx);
    }

    fn broadcast_bft(&mut self, msg: &Msg, ctx: &mut Context<'_>) {
        for i in 0..self.n {
            if i != self.cfg.index {
                self.send_bft(ReplicaId(i), msg, ctx);
            }
        }
    }

    /// [`FaultMode::EquivocatingPrimary`]: deliver the honest pre-prepare
    /// to every backup but one, and a conflicting variant — same
    /// `(view, seq)`, different batch, consistently recomputed digest — to
    /// the victim. The variant corrupts one request payload, which the
    /// victim's local-validation gate admits as a malformed event (executed
    /// as a deterministic skip), so the conflicting proposal genuinely
    /// enters agreement bookkeeping there. Returns `false` (fall back to an
    /// honest broadcast) when the batch is empty or the group too small to
    /// have a victim and a majority.
    fn broadcast_equivocating(
        &mut self,
        pp: &pws_clbft::PrePrepareMsg,
        ctx: &mut Context<'_>,
    ) -> bool {
        if pp.batch.requests.is_empty() || self.n < 3 {
            return false;
        }
        let victim = (self.cfg.index + 1) % self.n;
        let mut twisted = pp.batch.clone();
        let first = &twisted.requests[0];
        twisted.requests[0] = first.with_payload(corrupt(first.payload(), 0xA5));
        let variant = Msg::PrePrepare(pws_clbft::PrePrepareMsg {
            view: pp.view,
            seq: pp.seq,
            digest: twisted.digest(),
            batch: twisted,
        });
        let honest = Msg::PrePrepare(pp.clone());
        ctx.metrics().incr("perpetual.fault.equivocations");
        for i in 0..self.n {
            if i == self.cfg.index {
                continue;
            }
            let msg = if i == victim { &variant } else { &honest };
            self.send_bft(ReplicaId(i), msg, ctx);
        }
        true
    }

    fn process_actions(&mut self, actions: Vec<Action>, ctx: &mut Context<'_>) {
        // Drain voter-side phase events *before* acting on the actions:
        // agreement phases (e.g. `committed`) must be stamped no later than
        // the execution/reply phases the actions below will record, and
        // `ctx.now()` advances with `spend` during action handling.
        self.drain_obs_events(ctx);
        for a in actions {
            match a {
                Action::Send(to, mut msg) => {
                    if matches!(msg, Msg::StateResponse(_)) {
                        ctx.metrics().incr("clbft.recovery.responses_sent");
                    }
                    if let Msg::PageResponse(pr) = &mut msg {
                        ctx.metrics()
                            .add("clbft.recovery.pages_sent", pr.pages.len() as u64);
                        if self.cfg.fault == FaultMode::CorruptPages {
                            // A compromised responder flips a byte in every
                            // page it serves; the fetcher's Merkle check
                            // must catch each one.
                            for page in &mut pr.pages {
                                *page = corrupt(page, 0xA5);
                            }
                        }
                    }
                    self.send_bft(to, &msg, ctx);
                }
                Action::Broadcast(msg) => {
                    if matches!(msg, Msg::FetchState(_)) {
                        ctx.metrics().incr("clbft.recovery.fetches_sent");
                    }
                    if self.cfg.fault == FaultMode::EquivocatingPrimary {
                        if let Msg::PrePrepare(pp) = &msg {
                            if self.broadcast_equivocating(pp, ctx) {
                                continue;
                            }
                        }
                    }
                    self.broadcast_bft(&msg, ctx);
                }
                Action::Execute { batch, .. } => self.handle_ordered_batch(batch, ctx),
                Action::TakeCheckpoint(seq) => self.take_checkpoint(seq, ctx),
                Action::InstallState { snapshot, .. } => {
                    ctx.metrics().incr("clbft.recovery.installs");
                    ctx.spend(self.cfg.cost.snapshot_cost(snapshot.len()));
                    self.restore_snapshot(&snapshot, ctx);
                }
                Action::Stable(_) => {
                    ctx.metrics().incr("perpetual.checkpoints_stable");
                    ctx.metrics().incr("clbft.ckpt.stable");
                }
                Action::EnteredView(_) => ctx.metrics().incr("perpetual.view_changes"),
                Action::ViewTimer(cmd) => reset_timer(&mut self.view_timer, cmd, VIEW_TIMEOUT, ctx),
                Action::BatchTimer(cmd) => {
                    // Single source of truth: the delay the voter was
                    // configured with.
                    let delay = SimDuration::from_micros(self.bft.config().batch_delay_us);
                    reset_timer(&mut self.batch_timer, cmd, delay, ctx);
                }
            }
        }
        self.drain_page_metrics(ctx);
        self.drain_obs_events(ctx);
    }

    /// Drains the voter's buffered observability events, stamping each with
    /// the current sim-time (the sans-io voter owns no clock). Only
    /// client-visible request families open lifecycle spans — internal
    /// agreement records (results, aborts, time votes) are filtered here by
    /// origin, so every span the recorder opens can actually close.
    fn drain_obs_events(&mut self, ctx: &mut Context<'_>) {
        for ev in self.bft.take_obs_events() {
            match ev {
                ObsEvent::Phase { id, phase } => {
                    if crate::event::is_traced_origin(id.origin) {
                        ctx.obs_phase(self.cfg.group.0, id.origin, id.counter, phase);
                    }
                }
                ObsEvent::Flight { kind, a, b } => ctx.obs_flight(kind, a, b),
                ObsEvent::Proto {
                    family,
                    id,
                    phase,
                    count,
                } => {
                    let key = ProtoKey {
                        group: self.cfg.group.0,
                        family,
                        id,
                    };
                    ctx.obs_proto(key, phase, count);
                }
                ObsEvent::Audit(ev) => ctx.obs_audit(self.cfg.group.0, ev),
            }
        }
    }

    /// Drains the voter's page counters into the `clbft.pages.*` metrics
    /// and charges the CPU cost of the hashing work they represent: each
    /// page hashed at a boundary and each transferred page verified against
    /// the certified manifest costs one `page_hash`.
    fn drain_page_metrics(&mut self, ctx: &mut Context<'_>) {
        let c = self.bft.take_page_counters();
        if c == pws_clbft::PageCounters::default() {
            return;
        }
        let m = ctx.metrics();
        m.add("clbft.pages.hashed", c.hashed);
        m.add("clbft.pages.dirty", c.dirty);
        m.add("clbft.pages.fetched", c.fetched);
        m.add("clbft.pages.verified", c.verified);
        m.add("clbft.pages.rejected", c.rejected);
        ctx.spend(self.cfg.cost.page_cost(c.hashed + c.verified));
    }

    /// Delivers one ordered batch to the driver: the per-slot agreement
    /// bookkeeping (authenticator work, ordering-table updates) is charged
    /// once for the whole batch, so multi-outcall services amortize it
    /// across every request the slot carries. Occupancy is recorded both
    /// globally and per group (`clbft.exec.<group>.*`), so topology sweeps
    /// can spot straggler groups instead of averaging them away.
    fn handle_ordered_batch(&mut self, batch: Vec<pws_clbft::Request>, ctx: &mut Context<'_>) {
        self.sample_gauges(batch.len(), ctx);
        ctx.metrics()
            .record_batch_with(&self.exec_keys, batch.len());
        ctx.metrics()
            .record_batch_with(&self.exec_group_keys, batch.len());
        ctx.spend(self.cfg.cost.batch_cost(batch.len()));
        for request in batch {
            self.handle_ordered(request.payload().clone(), ctx);
        }
    }

    /// Samples the protocol-plane time-series gauges at a batch-execution
    /// boundary — a deterministic, agreement-ordered point, so repeated
    /// runs sample at identical virtual times. Primary-only: queue depth
    /// and pipeline occupancy are primary-side quantities; sampling idle
    /// backups would drown the series in structural zeros. Purely
    /// observational and gated on tracing, like the span machinery.
    fn sample_gauges(&mut self, batch_len: usize, ctx: &mut Context<'_>) {
        if !ctx.trace_level().spans_enabled() || !self.bft.is_primary() {
            return;
        }
        let g = self.cfg.group.0;
        let queued = self.bft.queued() as f64;
        let in_flight = self.bft.in_flight() as f64;
        ctx.gauge(&format!("ts.queue_depth.{g}"), queued);
        ctx.gauge(&format!("ts.inflight.{g}"), in_flight);
        ctx.gauge(&format!("ts.batch_occupancy.{g}"), batch_len as f64);
    }

    // ------------------------------------------- checkpointing & recovery

    /// Answers the voter's [`Action::TakeCheckpoint`]: serialize the
    /// durable driver state plus the executor's application snapshot,
    /// charge the cost model, and hand the bytes back so the voter can
    /// digest and broadcast its checkpoint vote.
    fn take_checkpoint(&mut self, seq: pws_clbft::Seq, ctx: &mut Context<'_>) {
        let snapshot = self.build_snapshot();
        ctx.metrics().incr("clbft.ckpt.taken");
        ctx.metrics()
            .record_hist("clbft.ckpt.snapshot_bytes", snapshot.len() as f64);
        // Fixed serialization bookkeeping only: the digest work is charged
        // per *dirty* page by `drain_page_metrics` after the voter's
        // incremental re-hash, so checkpoint CPU stops scaling with total
        // state size when the state is mostly quiescent.
        ctx.spend(self.cfg.cost.snapshot_fixed);
        let actions = self.bft.on_snapshot(seq, snapshot);
        self.process_actions(actions, ctx);
    }

    /// Serializes the durable driver + executor state. Every table is an
    /// ordered map walked in key order, so all correct replicas produce
    /// byte-identical snapshots at the same agreed boundary.
    fn build_snapshot(&self) -> Bytes {
        let (calls, next_target_seq) = self.calls.snapshot();
        let per_caller = || self.callers.iter().map(|(g, t)| (g.0, t));
        crate::snapshot::DriverSnapshot {
            next_call: self.next_call,
            next_token: self.next_token,
            next_target_seq,
            calls,
            delivered: self.delivered_external.clone(),
            reply_routes: per_caller()
                .flat_map(|(g, t)| t.routes.iter().map(move |(r, resp)| (g, *r, *resp)))
                .collect(),
            replies_sent: per_caller()
                .flat_map(|(g, t)| t.replies.iter().map(move |(r, p)| (g, *r, p.clone())))
                .collect(),
            resolved_tokens: self.resolved_tokens.iter().copied().collect(),
            executor: Bytes::from(self.executor.snapshot()),
        }
        .encode()
    }

    /// Installs a state-transferred snapshot: overwrite the durable driver
    /// state and the hosted application, then re-arm the per-call timers
    /// the restored call table implies. Transient pre-agreement state
    /// (candidates, the validation gate, pending shares) is left alone —
    /// it re-derives from retransmissions.
    fn restore_snapshot(&mut self, snapshot: &Bytes, ctx: &mut Context<'_>) {
        // Restoring replaces `delivered_external` wholesale: this node's
        // exactly-once ledger starts a fresh incarnation at the auditor.
        ctx.obs_audit(self.cfg.group.0, AuditEvent::NodeReset);
        let snap = match crate::snapshot::DriverSnapshot::decode(snapshot) {
            Ok(s) => s,
            Err(e) => {
                // The digest was vouched for by f+1 replicas, so this is a
                // local bug, not a Byzantine payload; fail loudly.
                panic!("verified snapshot failed to decode: {e}");
            }
        };
        self.next_call = snap.next_call;
        self.next_token = snap.next_token;
        self.delivered_external = snap.delivered;
        for table in self.callers.values_mut() {
            table.routes.clear();
            table.replies.clear();
        }
        for (g, r, resp) in snap.reply_routes {
            let table = self.callers.entry(GroupId(g)).or_default();
            table.routes.insert(r, resp);
        }
        for (g, r, payload) in snap.replies_sent {
            let table = self.callers.entry(GroupId(g)).or_default();
            table.replies.insert(r, payload);
        }
        self.resolved_tokens = snap.resolved_tokens.into_iter().collect();
        self.executor.restore(&snap.executor);
        // Timer fixups: resolved calls need no timers; unresolved restored
        // calls need a retry timer so responder rotation keeps masking
        // faulty responders after recovery.
        let (cancel, unarmed) = self.calls.restore(&snap.calls, &snap.next_target_seq);
        for t in cancel {
            ctx.cancel_timer(t);
        }
        for call_no in unarmed {
            let rt = ctx.set_timer(RETRY_INTERVAL);
            self.calls.arm(call_no, TimerKind::Retry, rt);
        }
    }

    /// Tears this replica down to a blank reboot: fresh voter, empty
    /// driver state, all timers cancelled. The hosted executor is left
    /// untouched — it is frozen (nothing executes below the watermark) and
    /// wholly overwritten when state transfer installs a snapshot.
    ///
    /// Unless `cold`, the voter's content-addressed page store survives the
    /// reboot — modeling snapshot pages persisted on disk. The pages are
    /// untrusted cache, not state: the rebooted voter only reuses one after
    /// re-verifying its digest against the next `f + 1`-vouched manifest,
    /// so a warm restart fetches only pages that actually changed (and a
    /// corrupted disk page simply misses the manifest and is re-fetched).
    fn wipe(&mut self, ctx: &mut Context<'_>, cold: bool) {
        ctx.metrics().incr("clbft.recovery.wipes");
        ctx.obs_flight(FlightKind::Wiped, cold as u64, 0);
        // The auditor's exactly-once ledger is per node *incarnation*: a
        // wiped replica legitimately re-executes history during recovery.
        ctx.obs_audit(self.cfg.group.0, AuditEvent::NodeReset);
        let warm_pages = if cold {
            Vec::new()
        } else {
            self.bft.take_page_store()
        };
        self.bft = BftReplica::new(ReplicaId(self.cfg.index), self.cfg.bft_config(self.n));
        self.bft.seed_page_store(warm_pages);
        self.candidates.clear();
        self.validated.clear();
        self.gated.clear();
        self.delivered_external = ExecutedSet::new();
        self.callers.clear();
        self.resolved_tokens.clear();
        self.responder_state.clear();
        self.next_call = 0;
        self.next_token = 0;
        let own = [self.view_timer.take(), self.batch_timer.take()];
        for t in own.into_iter().flatten().chain(self.calls.wipe()) {
            ctx.cancel_timer(t);
        }
    }

    /// One proactive-recovery turn (paper §7 future work): reboot from
    /// nothing, renegotiate session keys, rejoin through state transfer.
    /// With one replica per group per window, the `≤ f faulty` assumption
    /// becomes time-bounded: a compromised-but-silent replica is flushed
    /// within `n` windows.
    fn proactive_recover(&mut self, ctx: &mut Context<'_>) {
        ctx.metrics().incr("clbft.recovery.proactive_restarts");
        ctx.obs_flight(FlightKind::ProactiveRestart, 0, 0);
        // Warm restart: the on-disk page cache survives (every page is
        // re-verified against the next certified manifest before reuse, so
        // nothing from before the reboot is trusted), keeping proactive
        // recovery's transfer bill proportional to what actually changed.
        self.wipe(ctx, false);
        // Re-derive the pairwise session keys from scratch (the simulated
        // stand-in for an SSL re-handshake with fresh key material) and
        // charge one MAC-key derivation per peer principal.
        self.keys = KeyTable::new(self.cfg.master_seed);
        ctx.spend(self.cfg.cost.mac.saturating_mul(self.n as u64));
        let actions = self.bft.begin_state_fetch();
        self.process_actions(actions, ctx);
    }

    /// Whether an ordering proposal may enter agreement at this replica.
    /// A batched pre-prepare passes only when *every* request in the batch
    /// passes: the batch is the unit of agreement, so it is gated (and
    /// later released) atomically.
    fn gate_ok(&mut self, msg: &Msg) -> bool {
        let Msg::PrePrepare(pp) = msg else {
            return true;
        };
        pp.batch.requests.iter().all(|r| self.request_gate_ok(r))
    }

    fn request_gate_ok(&mut self, request: &pws_clbft::Request) -> bool {
        match Event::decode(request.payload()) {
            Ok(Event::External { caller, req_no, .. }) => {
                // The copy our own driver already hashed lends its digest.
                if let Some(candidates) = self.candidates.get(&(caller, req_no)) {
                    candidates.iter().any(|(c, _)| request.adopt_digest(c));
                }
                self.validated.contains(&request.digest())
            }
            Ok(Event::Result {
                call_no,
                digest,
                payload,
                shares,
            }) => self.result_gate_ok(call_no, digest, &payload, &shares),
            Ok(Event::Abort { call_no }) => self
                .calls
                .get(call_no)
                .is_some_and(|c| c.live.as_ref().is_none_or(|l| l.abort_fired)),
            Ok(Event::TimeVote { .. }) => true,
            // Malformed events pass the gate; execution skips them
            // identically at every correct replica.
            Err(_) => true,
        }
    }

    /// Validates a result proposal: either our own driver already validated
    /// a bundle with this digest, or the embedded shares prove `f_t + 1`
    /// target replicas vouch for the payload.
    fn result_gate_ok(
        &mut self,
        call_no: u64,
        digest: Digest32,
        payload: &Bytes,
        shares: &[BundleShare],
    ) -> bool {
        let Some(call) = self.calls.get(call_no) else {
            return false; // unknown call: wait (calls are deterministic)
        };
        let Some(live) = call.live.as_ref() else {
            return true;
        };
        if live.validated.iter().any(|(d, _)| *d == digest) {
            return true;
        }
        let keys = &mut self.keys;
        if self.calls.bundle_ok(keys, call_no, payload, shares) != Some((digest, true)) {
            return false;
        }
        let live = self.calls.live_mut(call_no).expect("live above");
        live.validated.push((digest, payload.clone()));
        true
    }

    fn drain_gate(&mut self, ctx: &mut Context<'_>) {
        let mut i = 0;
        while i < self.gated.len() {
            // Tested out of the list (the gate needs `&mut self`) rather
            // than cloned: a parked proposal carries its whole batch.
            let (from, msg) = self.gated.swap_remove(i);
            // The voter ignores a proposal from a view it has left, so one
            // parked that long is dead: dropped, not re-tested forever.
            if matches!(&msg, Msg::PrePrepare(pp) if pp.view < self.bft.view()) {
                continue;
            }
            if self.gate_ok(&msg) {
                let actions = self.bft.on_message(from, msg);
                self.process_actions(actions, ctx);
            } else {
                // Still parked: back into position `i`, so the list — and
                // with it the release order — is as it was.
                self.gated.push((from, msg));
                let last = self.gated.len() - 1;
                self.gated.swap(i, last);
                i += 1;
            }
        }
    }

    fn submit_event(&mut self, req: pws_clbft::Request, ctx: &mut Context<'_>) {
        let id = req.id();
        if crate::event::is_traced_origin(id.origin) {
            ctx.obs_phase(self.cfg.group.0, id.origin, id.counter, Phase::Queued);
        }
        self.validated.insert(req.digest());
        self.drain_gate(ctx);
        let actions = self.bft.on_request(req);
        self.process_actions(actions, ctx);
    }

    // ---------------------------------------------------------------- voter

    fn handle_out_request(&mut self, from: NodeId, ev: Event, ctx: &mut Context<'_>) {
        let &Event::External {
            caller,
            caller_n,
            req_no,
            target_seq,
            responder,
            ..
        } = &ev
        else {
            return;
        };
        if !self.cfg.topology.contains(caller) || self.cfg.topology.n(caller) != caller_n {
            return;
        }
        // Identify which calling driver sent this.
        let Some(driver_idx) = self
            .cfg
            .topology
            .nodes(caller)
            .iter()
            .position(|&n| n == from)
        else {
            return;
        };
        let key = (caller, req_no);
        let req = ev.to_request();
        // A copy equal to one already hashed takes its digest.
        let candidates = self.candidates.entry(key).or_default();
        let at = match candidates.iter().position(|(c, _)| req.adopt_digest(c)) {
            Some(at) => at,
            None => {
                req.digest(); // hashed before the kept copy is taken
                candidates.push((req.clone(), HashSet::new()));
                candidates.len() - 1
            }
        };
        let voters = &mut candidates[at].1;
        voters.insert(driver_idx as u32);
        let threshold = self.cfg.topology.f(caller) as usize + 1;
        if voters.len() < threshold {
            return;
        }
        let digest = req.digest();
        if self
            .delivered_external
            .contains(&delivered_key(caller, target_seq))
        {
            // A retransmit of an already-executed request: the caller is
            // still waiting for the reply (e.g. the original responder is
            // faulty). Honour the rotated responder choice and re-send our
            // share.
            let responder = responder.min(self.n - 1);
            self.record_reply_route(caller, req_no, responder);
            self.candidates.remove(&key);
            let retained = self
                .callers
                .get(&caller)
                .and_then(|t| t.replies.get(&req_no))
                .cloned();
            if let Some(payload) = retained {
                ctx.metrics().incr("perpetual.shares_retransmitted");
                self.send_share(caller, req_no, responder, payload, ctx);
            }
            return;
        }
        if !self.validated.contains(&digest) {
            ctx.metrics().incr("perpetual.external_requests_validated");
            self.submit_event(req, ctx);
        }
    }

    /// MACs this replica's share vouching for `payload` as the reply to
    /// `(caller, req_no)`, one MAC per calling driver (charged here), and
    /// returns it with that MAC count.
    fn build_share(
        &mut self,
        caller: GroupId,
        req_no: u64,
        payload: &Bytes,
        ctx: &mut Context<'_>,
    ) -> (BundleShare, usize) {
        let caller_principals = self.cfg.topology.principals(caller);
        let me = self.cfg.topology.principal(self.cfg.group, self.cfg.index);
        let tag = request_tag(caller, req_no);
        let macs = caller_principals.len();
        ctx.spend(self.cfg.cost.mac.saturating_mul(macs as u64));
        let digest = reply_digest(payload);
        let share = BundleShare::build(&mut self.keys, me, &tag, digest, &caller_principals);
        (share, macs)
    }

    /// Builds this replica's bundle share for a reply and routes it to the
    /// responder (possibly ourselves).
    fn send_share(
        &mut self,
        caller: GroupId,
        req_no: u64,
        responder: u32,
        payload: Bytes,
        ctx: &mut Context<'_>,
    ) {
        let (share, macs) = self.build_share(caller, req_no, &payload, ctx);
        if responder == self.cfg.index {
            // Built over this very payload: consistent without a re-hash.
            self.tally_share(self.my_node(), caller, req_no, payload, share, ctx);
        } else {
            let node = self.cfg.topology.node(self.cfg.group, responder);
            self.send_pmsg(
                node,
                &PMsg::ReplyShare {
                    caller,
                    req_no,
                    payload,
                    share,
                },
                macs,
                ctx,
            );
        }
    }

    fn handle_bft_bytes(&mut self, from: NodeId, inner: &[u8], ctx: &mut Context<'_>) {
        // Only accept intra-group traffic.
        let Some(idx) = self
            .cfg
            .topology
            .nodes(self.cfg.group)
            .iter()
            .position(|&n| n == from)
        else {
            return;
        };
        let Ok(msg) = bft_wire::decode_msg(inner) else {
            return;
        };
        let from = ReplicaId(idx as u32);
        if !self.gate_ok(&msg) {
            ctx.metrics().incr("perpetual.proposals_gated");
            self.gated.push((from, msg));
            return;
        }
        let actions = self.bft.on_message(from, msg);
        self.process_actions(actions, ctx);
    }

    // ------------------------------------------------------- read fast path

    /// A caller replica asks us to answer a read from committed state. The
    /// voter's read gate decides admissibility (not in a view change, not
    /// mid-state-transfer); a closed gate drops the request silently and
    /// the caller's quorum falls short until it retries or falls back to
    /// the ordered path.
    fn handle_read_request(
        &mut self,
        from: NodeId,
        caller: GroupId,
        caller_n: u32,
        req_no: u64,
        payload: Bytes,
        ctx: &mut Context<'_>,
    ) {
        if !self.cfg.topology.contains(caller)
            || self.cfg.topology.n(caller) != caller_n
            || !self.cfg.topology.nodes(caller).contains(&from)
        {
            return;
        }
        if self.bft.can_serve_reads() {
            self.serve_read(from, caller, req_no, payload, ctx);
        } else {
            ctx.metrics().incr("clbft.ro.refused");
        }
    }

    /// Executes a gate-approved read against a scratch copy of the
    /// committed application state and sends the asking node our vouched
    /// reply. The execution must prove itself side-effect free: anything
    /// beyond one reply to the asking handle (plus CPU spends) means the
    /// operation was not actually read-only, and the request is dropped —
    /// the caller's quorum fails and it falls back to the ordered path.
    fn serve_read(
        &mut self,
        from: NodeId,
        caller: GroupId,
        req_no: u64,
        payload: Bytes,
        ctx: &mut Context<'_>,
    ) {
        let scratch = self.executor.snapshot();
        let handle = RequestHandle { caller, req_no };
        let mut out = AppOutput::new(self.next_call, self.next_token);
        self.executor
            .on_event(AppEvent::Request { handle, payload }, &mut out);
        self.executor.restore(&scratch);
        let mut reply: Option<Bytes> = None;
        let mut clean = true;
        for cmd in out.cmds() {
            match cmd {
                AppCmd::Reply { to, payload } if *to == handle && reply.is_none() => {
                    reply = Some(payload.clone());
                }
                AppCmd::Spend(d) => ctx.spend(*d),
                _ => clean = false,
            }
        }
        let Some(mut payload) = reply.filter(|_| clean) else {
            ctx.metrics().incr("clbft.ro.unservable");
            ctx.obs_flight(FlightKind::RoRefused, 0, 0);
            return;
        };
        ctx.spend(self.cfg.cost.ro_serve);
        if self.cfg.fault == FaultMode::CorruptReplies {
            payload = corrupt(&payload, 0xff);
        }
        let (share, macs) = self.build_share(caller, req_no, &payload, ctx);
        ctx.metrics().incr("clbft.ro.served");
        let (origin, counter) = crate::event::read_span_id(caller, req_no);
        ctx.obs_phase(self.cfg.group.0, origin, counter, Phase::RoServed);
        self.send_pmsg(
            from,
            &PMsg::ReadReply {
                req_no,
                payload,
                share,
            },
            macs,
            ctx,
        );
    }

    /// One target replica's fast-path read answer. Votes are counted once
    /// per replica (the reply-flood rule), shares must verify individually,
    /// and only `2f_t + 1` matching payloads promote the result into this
    /// group's own ordered stream as a share-proven [`Event::Result`] — the
    /// same shape the ordered reply path produces, so the gate and the
    /// executor cannot tell the two paths apart.
    fn handle_read_reply(
        &mut self,
        from: NodeId,
        req_no: u64,
        payload: Bytes,
        share: BundleShare,
        ctx: &mut Context<'_>,
    ) {
        // The sender must be the very replica the share claims to be from.
        // Only a live call is known to name a registered target.
        let live = self.calls.get(req_no).filter(|c| c.live.is_some());
        let named = live.and_then(|c| {
            let nodes = self.cfg.topology.nodes(c.target);
            nodes.get(share.from.replica as usize)
        });
        if named != Some(&from) {
            return;
        }
        let (keys, mac) = (&mut self.keys, self.cfg.cost.mac);
        let quorum = self.calls.read_vote(keys, mac, req_no, payload, share, ctx);
        if let Some((digest, payload, shares)) = quorum {
            ctx.metrics().incr("clbft.ro.accepted");
            self.submit_result(req_no, digest, payload, shares, ctx);
        }
    }

    /// A reply this driver validated itself — a bundle with `f_t + 1` good
    /// shares, or a fast-path read quorum — enters our own ordered stream
    /// as a share-proven [`Event::Result`], remembered so the gate passes
    /// it and so it can be withdrawn if the call resolves another way.
    fn submit_result(
        &mut self,
        call_no: u64,
        digest: Digest32,
        payload: Bytes,
        shares: Vec<BundleShare>,
        ctx: &mut Context<'_>,
    ) {
        let ev = Event::Result {
            call_no,
            digest,
            payload: payload.clone(),
            shares,
        };
        if let Some(live) = self.calls.live_mut(call_no) {
            live.validated.push((digest, payload));
            live.submitted.push(ev.request_id());
        }
        self.submit_event(ev.to_request(), ctx);
    }

    // ------------------------------------------------------------ responder

    /// One replica's share for a request this replica is responder for
    /// (`from` is our own node for the co-located driver's share).
    fn handle_reply_share(
        &mut self,
        from: NodeId,
        caller: GroupId,
        req_no: u64,
        payload: Bytes,
        share: BundleShare,
        ctx: &mut Context<'_>,
    ) {
        // A payload equal to one already filed under the share's digest is
        // consistent with it without hashing the same bytes again.
        let filed = matches!(
            self.responder_state.get(&(caller, req_no)),
            Some(Some(votes)) if votes.holds(&share.reply_digest, &payload)
        );
        if !filed && share.reply_digest != reply_digest(&payload) {
            return; // internally inconsistent share
        }
        self.tally_share(from, caller, req_no, payload, share, ctx);
    }

    /// Counts a share whose digest is known to match `payload` toward the
    /// responder's `2f + 1` quorum, and sends the bundle once it is met.
    fn tally_share(
        &mut self,
        from: NodeId,
        caller: GroupId,
        req_no: u64,
        payload: Bytes,
        share: BundleShare,
        ctx: &mut Context<'_>,
    ) {
        // The share must name a replica of this group and arrive from that
        // very replica: the responder cannot check a share's MACs (they are
        // keyed to the calling drivers), so a member must not be able to
        // vote in another member's name.
        let named = self.cfg.topology.nodes(self.cfg.group);
        if share.from.group != self.cfg.group.0
            || named.get(share.from.replica as usize) != Some(&from)
        {
            return;
        }
        let Some(votes) = self
            .responder_state
            .entry((caller, req_no))
            .or_insert_with(|| Some(ShareVotes::default()))
        else {
            return; // bundle already sent
        };
        if !votes.vote(share.from.replica) {
            return;
        }
        let digest = share.reply_digest;
        // Wait for 2f+1 matching shares so at least f+1 come from correct
        // replicas: then every correct calling driver can validate the
        // bundle even if f shares carry bad MACs.
        let threshold = (2 * self.f + 1).min(self.n) as usize;
        if votes.add(payload, share) >= threshold {
            let (payload, shares) = self
                .responder_state
                .insert((caller, req_no), None)
                .flatten()
                .and_then(|votes| votes.take(&digest))
                .expect("quorum digest present");
            self.send_bundle(caller, req_no, payload, shares, ctx);
        }
    }

    fn send_bundle(
        &mut self,
        caller: GroupId,
        req_no: u64,
        payload: Bytes,
        shares: Vec<BundleShare>,
        ctx: &mut Context<'_>,
    ) {
        ctx.metrics().incr("perpetual.bundles_sent");
        let caller_nodes: Vec<NodeId> = self.cfg.topology.nodes(caller).to_vec();
        let equivocate = self.cfg.fault == FaultMode::EquivocatingResponder;
        for (i, node) in caller_nodes.into_iter().enumerate() {
            let payload = if equivocate && i % 2 == 1 {
                // Corrupt the payload for half of the drivers; MACs no
                // longer match, so these drivers must reject the bundle.
                corrupt(&payload, 0xff)
            } else {
                payload.clone()
            };
            let shares = shares.clone();
            let msg = PMsg::ReplyBundle {
                req_no,
                payload,
                shares,
            };
            self.send_pmsg(node, &msg, 0, ctx);
        }
    }

    // --------------------------------------------------------------- driver

    fn handle_reply_bundle(
        &mut self,
        req_no: u64,
        payload: Bytes,
        shares: Vec<BundleShare>,
        ctx: &mut Context<'_>,
    ) {
        let keys = &mut self.keys;
        let Some((digest, ok)) = self.calls.bundle_ok(keys, req_no, &payload, &shares) else {
            return;
        };
        ctx.spend(self.cfg.cost.mac.saturating_mul(shares.len() as u64));
        if !ok {
            ctx.metrics().incr("perpetual.bundles_rejected");
            return;
        }
        ctx.metrics().incr("perpetual.bundles_validated");
        self.submit_result(req_no, digest, payload, shares, ctx);
    }

    fn handle_ordered(&mut self, payload: Bytes, ctx: &mut Context<'_>) {
        let Ok(ev) = Event::decode(&payload) else {
            return;
        };
        match ev {
            Event::External {
                caller,
                req_no,
                target_seq,
                responder,
                payload,
                ..
            } => {
                let key = (caller, req_no);
                if !self
                    .delivered_external
                    .insert(delivered_key(caller, target_seq))
                {
                    return;
                }
                ctx.obs_audit(
                    self.cfg.group.0,
                    AuditEvent::Executed {
                        origin: caller.0 as u64,
                        target_seq,
                    },
                );
                self.candidates.remove(&key);
                self.record_reply_route(caller, req_no, responder.min(self.n - 1));
                ctx.metrics().incr("perpetual.requests_delivered");
                if ctx.trace_level().spans_enabled() {
                    let rid = crate::event::external_span_id(caller, target_seq);
                    ctx.obs_phase(self.cfg.group.0, rid.0, rid.1, Phase::Executed);
                    // The reply may be produced now (inline service) or much
                    // later (after an outcall round-trip); either way the
                    // route back to this span survives until then.
                    insert_bounded(
                        &mut self.callers.entry(caller).or_default().traced,
                        req_no,
                        rid,
                        self.cfg.reply_retention,
                    );
                }
                self.deliver(
                    AppEvent::Request {
                        handle: RequestHandle { caller, req_no },
                        payload,
                    },
                    ctx,
                );
            }
            Event::Result {
                call_no, payload, ..
            } => {
                if !self.mark_call_done(call_no, ctx) {
                    return;
                }
                ctx.metrics().incr("perpetual.calls_completed");
                let now_s = ctx.now().as_secs_f64();
                ctx.metrics()
                    .record_hist("perpetual.completion_time_s", now_s);
                self.deliver(
                    AppEvent::Reply {
                        call: CallId(call_no),
                        payload,
                    },
                    ctx,
                );
            }
            Event::Abort { call_no } => {
                if !self.mark_call_done(call_no, ctx) {
                    return;
                }
                ctx.metrics().incr("perpetual.calls_aborted");
                self.deliver(
                    AppEvent::Aborted {
                        call: CallId(call_no),
                    },
                    ctx,
                );
            }
            Event::TimeVote { token, millis } => {
                if !self.resolved_tokens.insert(token) {
                    return;
                }
                self.deliver(AppEvent::Time { token, millis }, ctx);
            }
        }
    }

    /// Marks a call resolved (first resolution wins). Cancels its timers and
    /// withdraws now-obsolete proposals from agreement. Returns whether this
    /// was the first resolution.
    fn mark_call_done(&mut self, call_no: u64, ctx: &mut Context<'_>) -> bool {
        let Some(mut live) = self.calls.resolve(call_no) else {
            return false;
        };
        for t in live.timers() {
            ctx.cancel_timer(t);
        }
        live.submitted.push(Event::Abort { call_no }.request_id());
        for id in live.submitted {
            let actions = self.bft.drop_request(id);
            self.process_actions(actions, ctx);
        }
        // The gate may be holding proposals that are now releasable
        // (aborts gate-open once the call is done).
        self.drain_gate(ctx);
        true
    }

    /// Puts a live call's request on the wire — every target replica gets
    /// it — and arms its timers: the abort timeout when `timeout` is given
    /// (the first transmission, which also carries it to the target), and
    /// the next retry.
    fn transmit(&mut self, call_no: u64, timeout: Option<SimDuration>, ctx: &mut Context<'_>) {
        let timeout_ms = timeout.map_or(0, |d| d.as_millis());
        let Some((target, msg)) = self.calls.request(call_no, timeout_ms) else {
            return;
        };
        for node in self.cfg.topology.nodes(target).to_vec() {
            self.send_pmsg(node, &msg, 0, ctx);
        }
        if let Some(d) = timeout {
            self.calls.arm(call_no, TimerKind::Abort, ctx.set_timer(d));
        }
        let rt = ctx.set_timer(RETRY_INTERVAL);
        self.calls.arm(call_no, TimerKind::Retry, rt);
    }

    fn deliver(&mut self, ev: AppEvent, ctx: &mut Context<'_>) {
        let mut out = AppOutput::new(self.next_call, self.next_token);
        self.executor.on_event(ev, &mut out);
        let (nc, nt) = out.counters();
        self.next_call = nc;
        self.next_token = nt;
        let (mut txn_decided, mut reshard_step) = (false, false);
        for name in out.take_metrics() {
            txn_decided |= name == "clbft.txn.committed" || name == "clbft.txn.aborted";
            reshard_step |= name.starts_with("clbft.reshard.");
            ctx.metrics().incr(&name);
        }
        // At most one flight record per delivered event: the ring is for
        // rare protocol milestones, not per-key accounting.
        if txn_decided {
            ctx.obs_flight(FlightKind::TxnRecord, 0, 0);
        }
        if reshard_step {
            ctx.obs_flight(FlightKind::ReshardRecord, 0, 0);
        }
        self.apply_app_obs(out.take_obs(), ctx);
        let cmds = std::mem::take(&mut out.cmds);
        for cmd in cmds {
            self.run_cmd(cmd, ctx);
        }
    }

    /// Applies application-layer observability emissions, qualifying each
    /// with this replica's group and the current sim-time.
    fn apply_app_obs(&mut self, obs: Vec<AppObs>, ctx: &mut Context<'_>) {
        for o in obs {
            match o {
                AppObs::Proto {
                    family,
                    id,
                    phase,
                    count,
                } => {
                    let key = ProtoKey {
                        group: self.cfg.group.0,
                        family,
                        id,
                    };
                    ctx.obs_proto(key, phase, count);
                }
                AppObs::Audit(ev) => ctx.obs_audit(self.cfg.group.0, ev),
                AppObs::Gauge { name, value } => {
                    if ctx.trace_level().spans_enabled() {
                        ctx.gauge(&name, value);
                    }
                }
            }
        }
    }

    fn run_cmd(&mut self, cmd: AppCmd, ctx: &mut Context<'_>) {
        match cmd {
            AppCmd::Call {
                call,
                target,
                payload,
                timeout,
                read_only,
            } => {
                if !self.calls.issue(call.0, target, read_only, payload) {
                    // Unknown target or self-call: abort immediately and
                    // deterministically (every replica does the same).
                    self.deliver(AppEvent::Aborted { call }, ctx);
                    return;
                }
                // A read takes the fast path: it never enters the target's
                // agreement stream.
                ctx.metrics().incr(if read_only {
                    "perpetual.reads_issued"
                } else {
                    "perpetual.calls_issued"
                });
                self.transmit(call.0, timeout, ctx);
            }
            AppCmd::Reply { to, payload } => {
                // The recorded route is an optimization (it tracks the
                // caller's rotated responder preference); a missing entry
                // — e.g. evicted around a straggler delivery — falls back
                // to the deterministic default responder, which every
                // replica derives identically from the agreed request
                // number and a retrying caller rotates past if faulty.
                let table = self.callers.entry(to.caller).or_default();
                let responder = table
                    .routes
                    .get(&to.req_no)
                    .copied()
                    .unwrap_or((to.req_no % self.n as u64) as u32);
                let mut payload = payload;
                if self.cfg.fault == FaultMode::CorruptReplies {
                    payload = corrupt(&payload, 0xff);
                }
                // Bounded retention: the oldest reply goes once the caller
                // can no longer be waiting on it (see
                // DEFAULT_REPLY_RETENTION for the contract).
                insert_bounded(
                    &mut table.replies,
                    to.req_no,
                    payload.clone(),
                    self.cfg.reply_retention,
                );
                ctx.metrics().incr("perpetual.replies_produced");
                if let Some((origin, counter)) = table.traced.remove(&to.req_no) {
                    ctx.obs_phase(self.cfg.group.0, origin, counter, Phase::Replied);
                }
                self.send_share(to.caller, to.req_no, responder, payload, ctx);
            }
            AppCmd::QueryTime { token } => {
                let millis = ctx.now().as_millis() + EPOCH_OFFSET_MS;
                let ev = Event::TimeVote { token, millis };
                // Every replica proposes its own local reading; CLBFT's
                // request-id dedup makes the primary's suggestion win (§4.2).
                let actions = self.bft.on_request(ev.to_request());
                self.process_actions(actions, ctx);
            }
            AppCmd::Spend(d) => ctx.spend(d),
        }
    }
}

impl Node for PerpetualReplica {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.cfg.fault.is_silent() {
            return;
        }
        debug_assert_eq!(ctx.id(), self.my_node(), "topology/node mismatch");
        if let Some(after_ms) = self.cfg.fault.stale_drop_after_ms() {
            self.stale_timer = Some(ctx.set_timer(SimDuration::from_millis(after_ms)));
        }
        // A singleton group has no peers to transfer state back from: a
        // wipe would be an irrecoverable crash, so proactive recovery only
        // engages for replicated groups.
        if self.n > 1 {
            if let Some(window) = self.cfg.recovery_interval {
                // Staggered by index: exactly one replica per group
                // recovers per window, round-robin.
                self.recovery_timer =
                    Some(ctx.set_timer(window.saturating_mul(self.cfg.index as u64 + 1)));
            }
        }
        let seed = group_seed(self.cfg.master_seed, self.cfg.group);
        self.deliver(AppEvent::Init { seed }, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if self.cfg.fault.is_silent() {
            return;
        }
        ctx.spend(self.cfg.cost.recv_cost(msg.len(), 0));
        let Ok(pmsg) = decode_pmsg(&msg) else {
            ctx.metrics().incr("perpetual.malformed_messages");
            return;
        };
        match pmsg {
            PMsg::Bft(inner) => self.handle_bft_bytes(from, &inner, ctx),
            PMsg::OutRequest(ev) => self.handle_out_request(from, ev, ctx),
            PMsg::ReplyShare {
                caller,
                req_no,
                payload,
                share,
            } => self.handle_reply_share(from, caller, req_no, payload, share, ctx),
            PMsg::ReplyBundle {
                req_no,
                payload,
                shares,
            } => self.handle_reply_bundle(req_no, payload, shares, ctx),
            PMsg::ReadRequest {
                caller,
                caller_n,
                req_no,
                payload,
            } => self.handle_read_request(from, caller, caller_n, req_no, payload, ctx),
            PMsg::ReadReply {
                req_no,
                payload,
                share,
            } => self.handle_read_reply(from, req_no, payload, share, ctx),
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        if self.cfg.fault.is_silent() {
            return;
        }
        if self.stale_timer == Some(timer) {
            self.stale_timer = None;
            ctx.metrics().incr("clbft.recovery.stale_drops");
            // Churny fault: silently drop to a blank state — no fetch, no
            // announcement. Only the peers' checkpoint-vote lag evidence
            // can bring this replica back. The warm variant keeps the
            // on-disk page cache; the cold variant loses it too.
            let cold = matches!(self.cfg.fault, FaultMode::StaleDropCold { .. });
            self.wipe(ctx, cold);
            return;
        }
        if self.recovery_timer == Some(timer) {
            let period = self
                .cfg
                .recovery_interval
                .expect("recovery timer implies an interval")
                .saturating_mul(self.n as u64);
            self.recovery_timer = Some(ctx.set_timer(period));
            self.proactive_recover(ctx);
            return;
        }
        if self.view_timer == Some(timer) {
            self.view_timer = None;
            ctx.metrics().incr("perpetual.view_timeouts");
            let actions = self.bft.on_view_timer();
            self.process_actions(actions, ctx);
            return;
        }
        if self.batch_timer == Some(timer) {
            self.batch_timer = None;
            ctx.metrics().incr("clbft.batch_timeouts");
            let actions = self.bft.on_batch_timer();
            self.process_actions(actions, ctx);
            return;
        }
        match self.calls.on_timer(timer) {
            Some((call_no, TimerKind::Abort)) => {
                ctx.metrics().incr("perpetual.call_timeouts");
                self.drain_gate(ctx);
                let ev = Event::Abort { call_no };
                let actions = self.bft.on_request(ev.to_request());
                self.process_actions(actions, ctx);
            }
            Some((call_no, TimerKind::Retry)) => {
                // Retransmit to every target voter with the responder
                // rotated; already-executed requests only re-trigger the
                // reply path on the target side. A replicated caller must
                // never demote a read to the ordered path here: retries
                // fire at non-deterministic moments, and consuming a
                // target_seq then would diverge the replicas.
                // Re-broadcasting the read is idempotent; persistent
                // quorum failure surfaces as the call's abort timeout.
                ctx.metrics().incr("perpetual.call_retries");
                if self.calls.get(call_no).is_some_and(|c| c.read_only) {
                    ctx.metrics().incr("clbft.ro.retries");
                }
                self.transmit(call_no, None, ctx);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_simnet::{SimTime, Simulation};

    struct Idle;
    impl Executor for Idle {
        fn on_event(&mut self, _ev: AppEvent, _out: &mut AppOutput) {}
    }

    /// Stands in for the (unreplicated) caller: keeps what it is sent.
    #[derive(Default)]
    struct Inbox(Vec<PMsg>);
    impl Node for Inbox {
        fn on_message(&mut self, _from: NodeId, msg: Bytes, _ctx: &mut Context<'_>) {
            self.0.push(decode_pmsg(&msg).expect("well-formed"));
        }
    }

    /// Four replicas of `group` on nodes 0..4, each hosting an [`Idle`]
    /// executor, and the unreplicated `caller`'s node 4 — for the test to
    /// add, or to speak for.
    fn group_of_four(seed: u64, group: GroupId, caller: GroupId) -> (Simulation, Arc<Topology>) {
        group_of_four_hosting(seed, group, caller, || Box::new(Idle))
    }

    fn group_of_four_hosting(
        seed: u64,
        group: GroupId,
        caller: GroupId,
        executor: fn() -> Box<dyn Executor>,
    ) -> (Simulation, Arc<Topology>) {
        let mut topo = Topology::new();
        topo.register(group, (0..4).map(NodeId::from_raw).collect());
        topo.register(caller, vec![NodeId::from_raw(4)]);
        let topo = Arc::new(topo);
        let mut sim = Simulation::new(seed);
        for idx in 0..4 {
            let mut cfg = ReplicaConfig::new(group, idx, topo.clone(), seed);
            cfg.cost = CostModel::FREE;
            sim.add_node(Box::new(PerpetualReplica::new(cfg, executor())));
        }
        (sim, topo)
    }

    #[test]
    fn voter_knobs_default_to_clbfts_and_reach_the_voter() {
        let mut topo = Topology::new();
        topo.register(GroupId(0), (0..4).map(NodeId::from_raw).collect());
        let cfg = ReplicaConfig::new(GroupId(0), 0, Arc::new(topo), 1);
        let clbft = Config::new(4);
        let voter = cfg.bft_config(4);
        assert_eq!(cfg.max_batch_size, clbft.max_batch_size);
        assert_eq!(cfg.checkpoint_interval, clbft.checkpoint_interval);
        assert_eq!(cfg.page_size, clbft.page_size);
        assert_eq!(voter.max_batch_size, clbft.max_batch_size);
        assert_eq!(voter.checkpoint_interval, clbft.checkpoint_interval);
        assert_eq!(voter.page_size, clbft.page_size);
    }

    #[test]
    fn responder_counts_one_vote_per_replica_and_drops_spoofed_shares() {
        let (seed, group, caller, req_no) = (11, GroupId(0), GroupId(1), 7);
        let (mut sim, topo) = group_of_four(seed, group, caller);
        let inbox = sim.add_node(Box::new(Inbox::default()));
        let responder = topo.node(group, 0);
        let mut keys = KeyTable::new(seed);
        // A `ReplyShare` for the one request, in replica `named`'s name.
        let mut share_msg = |named: u32, payload: &[u8]| {
            let (tag, digest) = (request_tag(caller, req_no), reply_digest(payload));
            let from = topo.principal(group, named);
            let share = BundleShare::build(&mut keys, from, &tag, digest, &topo.principals(caller));
            let payload = Bytes::copy_from_slice(payload);
            encode_pmsg(&PMsg::ReplyShare {
                caller,
                req_no,
                payload,
                share,
            })
        };
        // Replica 3 floods the responder with distinct-digest shares:
        // under its own name, and under replicas 1 and 2's.
        for k in 0..30u32 {
            let bogus = format!("bogus-{k}");
            sim.inject(
                topo.node(group, 3),
                responder,
                share_msg(1 + k % 3, bogus.as_bytes()),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let r0 = sim.node_mut::<PerpetualReplica>(responder).unwrap();
        let votes = r0.responder_state[&(caller, req_no)].as_ref().unwrap();
        assert_eq!(
            votes.voters(),
            [3],
            "its own one vote; none in another's name"
        );
        // The honest 2f + 1 — the responder's own driver and replicas 1
        // and 2, whose names the flood tried to burn — still make a bundle.
        for idx in 0..3 {
            sim.inject(topo.node(group, idx), responder, share_msg(idx, b"honest"));
        }
        sim.run_until(SimTime::from_secs(2));
        let got = &sim.node_mut::<Inbox>(inbox).unwrap().0;
        let [PMsg::ReplyBundle {
            payload, shares, ..
        }] = &got[..]
        else {
            panic!("one bundle for the caller, got {got:?}");
        };
        assert_eq!(&payload[..], b"honest");
        let mut from: Vec<u32> = shares.iter().map(|s| s.from.replica).collect();
        from.sort_unstable();
        assert_eq!(from, [0, 1, 2]);
    }

    #[test]
    fn a_read_reply_for_a_call_to_an_unregistered_group_is_ignored() {
        /// Reads from a group nobody registered, first thing.
        struct CallsNobody;
        impl Executor for CallsNobody {
            fn on_event(&mut self, ev: AppEvent, out: &mut AppOutput) {
                if let AppEvent::Init { .. } = ev {
                    out.call_read_only(GroupId(9), Bytes::from_static(b"read"), None);
                }
            }
        }
        let (seed, group, other) = (13, GroupId(0), GroupId(1));
        let (mut sim, topo) = group_of_four_hosting(seed, group, other, || Box::new(CallsNobody));
        sim.run_until(SimTime::from_millis(10));
        // Call 0 was aborted on the spot, but its record — naming a group
        // the topology cannot look up — stays. Anyone may claim to answer it.
        let payload = Bytes::from_static(b"answer");
        let share = BundleShare::build(
            &mut KeyTable::new(seed),
            topo.principal(other, 0),
            &request_tag(group, 0),
            reply_digest(&payload),
            &topo.principals(group),
        );
        let reply = encode_pmsg(&PMsg::ReadReply {
            req_no: 0,
            payload,
            share,
        });
        for idx in 0..4 {
            sim.inject(topo.node(other, 0), topo.node(group, idx), reply.clone());
        }
        sim.run_until(SimTime::from_millis(20));
        let r0 = sim
            .node_mut::<PerpetualReplica>(topo.node(group, 0))
            .unwrap();
        let call = r0.calls.get(0).expect("recorded");
        assert!(call.live.is_none() && call.target == GroupId(9));
        assert_eq!(sim.metrics().counter("clbft.ro.accepted"), 0);
    }

    #[test]
    fn a_parked_proposal_from_a_superseded_view_is_dropped_not_retested() {
        let (group, caller) = (GroupId(0), GroupId(1));
        let (mut sim, topo) = group_of_four(12, group, caller);
        let request = |req_no: u64| Event::External {
            caller,
            caller_n: 1,
            req_no,
            target_seq: req_no,
            responder: 0,
            timeout_ms: 0,
            payload: Bytes::from_static(b"op"),
        };
        let to_all = |sim: &mut Simulation, req_no: u64| {
            let msg = encode_pmsg(&PMsg::OutRequest(request(req_no)));
            for idx in 0..4 {
                sim.inject(topo.node(caller, 0), topo.node(group, idx), msg.clone());
            }
        };
        // The view-0 primary proposes a request no caller ever sent: the
        // gate refuses it, now and for good, and replica 2 parks it.
        let batch = pws_clbft::Batch::of(request(99).to_request());
        let forged = Msg::PrePrepare(pws_clbft::PrePrepareMsg {
            view: pws_clbft::View(0),
            seq: pws_clbft::Seq(1),
            digest: batch.digest(),
            batch,
        });
        let wire = encode_pmsg(&PMsg::Bft(bft_wire::encode_msg(&forged)));
        sim.inject(topo.node(group, 0), topo.node(group, 2), wire);
        sim.run_until(SimTime::from_millis(10));
        let parked = |sim: &mut Simulation| {
            let r2 = sim
                .node_mut::<PerpetualReplica>(topo.node(group, 2))
                .unwrap();
            (r2.bft_view().0, r2.gated.len(), r2.gate_ok(&forged))
        };
        assert_eq!(parked(&mut sim), (0, 1, false));
        // The primary dies; a real request times the backups out into
        // view 1. Its own drain, still in view 0, re-tested the proposal.
        sim.net_mut().crash(topo.node(group, 0));
        to_all(&mut sim, 0);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(parked(&mut sim), (1, 1, false));
        // The next drain — every newly validated request runs one — finds
        // the proposal's view gone. Still refused, so dropped, not released.
        to_all(&mut sim, 1);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(parked(&mut sim), (1, 0, false));
        let gated = sim.metrics().counter("perpetual.proposals_gated");
        assert_eq!(gated, 1, "counted at parking, once");
    }
}
