//! Cross-shard transactions and live resharding: the elastic coordination
//! layer over sharded CLBFT groups.
//!
//! Sharding (see [`crate::router`]) made multi-key requests whose keys span
//! shards a typed error. This module turns them into **two-phase commits**
//! instead: the shard owning the request's *first* key becomes the
//! **coordinator**, every other owning shard a **participant**, and the
//! protocol's records — `TxnPrepare`, `TxnCommit`, `TxnAbort` — travel as
//! *config-flagged* ordered requests, so each record seals a CLBFT
//! agreement slot of its own at the shard that executes it (see
//! `pws_clbft::messages::Request::config`). Votes and acknowledgements
//! ride the ordinary Perpetual outcall path: they come back `f_t + 1`
//! matched and are agreed into the coordinator's own log before the
//! coordinator's state machine consumes them, so a recovering coordinator
//! replica replays the identical decision every correct peer took — a
//! coordinator never forgets an outcome.
//!
//! The same shim hosts **live resharding**: an ordered `reshardExport`
//! config record fences the keys that rendezvous routing reassigns at the
//! grown shard count (requests for fenced keys get a typed
//! [`WRONG_SHARD_FAULT`] redirect), and ordered `reshardImport` records
//! install the migrated entries at the new shard, which holds client
//! traffic until every source shard's import has arrived. The epoch flip
//! is therefore anchored *per group* by an ordered config record; the
//! client-visible epoch atomic ([`crate::RouterEpoch`]) is advisory
//! routing on top.
//!
//! Everything here is deterministic: all state lives in `BTreeMap`s /
//! `BTreeSet`s, all records have count-capped decoders, and the whole shim
//! snapshot-encodes in sorted order so checkpoint digests converge.

use crate::api::{Poll, Service, WsEvent};
use crate::host::ServiceCtx;
use crate::router::{routing_key, split_keys, RendezvousRouter, Router};
use pws_perpetual::snapshot::{counted, Decoder, Encoder, WireError};
use pws_simnet::{AuditEvent, ProtoFamily};
use pws_soap::{Envelope, Fault, MessageContext, XmlNode};
use std::collections::{BTreeMap, BTreeSet};

/// Operation name of a prepare record request.
pub(crate) const OP_TXN_PREPARE: &str = "txnPrepare";
/// Operation name of a commit decision record request.
pub(crate) const OP_TXN_COMMIT: &str = "txnCommit";
/// Operation name of an abort decision record request.
pub(crate) const OP_TXN_ABORT: &str = "txnAbort";
/// Operation name of the reshard fence-and-export record.
pub(crate) const OP_RESHARD_EXPORT: &str = "reshardExport";
/// Operation name of the reshard state-install record.
pub(crate) const OP_RESHARD_IMPORT: &str = "reshardImport";

/// Fault code a shard replies with when a request names a key it no longer
/// owns after an epoch flip. Clients treat it as *retry guidance* (re-route
/// at the current epoch), not as an application failure.
pub const WRONG_SHARD_FAULT: &str = "pws:WrongShard";
/// Fault code the coordinator replies with when a cross-shard transaction
/// aborts (lock conflict, failed validation, or a participant timeout).
pub const TXN_ABORTED_FAULT: &str = "pws:TxnAborted";

/// Wire tag of a [`TxnRecord::Prepare`].
pub(crate) const TXN_PREPARE: u8 = 1;
/// Wire tag of a [`TxnRecord::Commit`].
pub(crate) const TXN_COMMIT: u8 = 2;
/// Wire tag of a [`TxnRecord::Abort`].
pub(crate) const TXN_ABORT: u8 = 3;

/// Most entity keys one transaction record may carry; decode rejects more
/// before allocating.
pub(crate) const MAX_TXN_KEYS: usize = 1024;
/// Most `(key, value)` entries one reshard export/import may carry.
pub(crate) const MAX_RESHARD_ENTRIES: usize = 1 << 16;

/// How long the coordinator waits for a participant's vote before counting
/// it as a NO (the deterministic Perpetual abort timeout on the prepare).
pub(crate) const PREPARE_TIMEOUT_MS: u64 = 4000;
/// Abort timeout on decision records; a timed-out decision is re-sent until
/// acknowledged, so no participant is left holding locks.
pub(crate) const DECISION_TIMEOUT_MS: u64 = 4000;

// ------------------------------------------------------------------ codecs

/// Lowercase hex encoding — transaction records travel inside SOAP body
/// text, which is a string.
pub(crate) fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    s
}

/// Inverse of [`to_hex`]; `None` for odd lengths or non-hex digits.
pub(crate) fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits: Vec<u8> = s
        .chars()
        .map(|c| c.to_digit(16).map(|d| d as u8))
        .collect::<Option<_>>()?;
    Some(digits.chunks(2).map(|p| (p[0] << 4) | p[1]).collect())
}

fn txn_err() -> WireError {
    WireError::malformed("malformed transaction record")
}

/// Folds a transaction's `wsa:MessageID` into the 64-bit protocol-span id
/// space (FNV-1a over the id string). Observability needs a stable,
/// deterministic identity shared by coordinator and participants — not
/// collision resistance.
fn txn_span_id(txn: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in txn.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A durable two-phase-commit record, ordered in a shard's CLBFT log as a
/// config-flagged request (own sequence slot, digest-covered flags byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRecord {
    /// Phase 1: the coordinator asks a participant to lock `keys` and vote.
    Prepare {
        /// Transaction id: the originating request's `wsa:MessageID` —
        /// agreed content, so every coordinator replica derives the same id.
        txn: String,
        /// The coordinator's shard index (where the decision is replayable).
        coordinator: u32,
        /// The application operation to apply at commit.
        op: String,
        /// The participant-owned entity keys, locked for the 2PC window.
        keys: Vec<String>,
    },
    /// Phase 2: all participants voted YES; apply and release.
    Commit {
        /// Transaction id.
        txn: String,
    },
    /// Phase 2: some participant voted NO (or timed out); release only.
    Abort {
        /// Transaction id.
        txn: String,
    },
}

impl TxnRecord {
    /// Serializes the record with the shared length-prefixed codec.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            TxnRecord::Prepare {
                txn,
                coordinator,
                op,
                keys,
            } => {
                e.put_u8(TXN_PREPARE);
                e.put_str(txn);
                e.put_u32(*coordinator);
                e.put_str(op);
                e.put_u32(keys.len() as u32);
                for k in keys {
                    e.put_str(k);
                }
            }
            TxnRecord::Commit { txn } => {
                e.put_u8(TXN_COMMIT);
                e.put_str(txn);
            }
            TxnRecord::Abort { txn } => {
                e.put_u8(TXN_ABORT);
                e.put_str(txn);
            }
        }
        e.finish().to_vec()
    }

    /// Decodes a record, rejecting junk tags and key counts past
    /// `MAX_TXN_KEYS` (1 024) before allocating.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for truncated, oversized, or trailing input.
    pub(crate) fn decode(buf: &[u8]) -> Result<TxnRecord, WireError> {
        let mut d = Decoder::new(buf);
        let rec = match d.u8()? {
            TXN_PREPARE => {
                let txn = d.str()?;
                let coordinator = d.u32()?;
                let op = d.str()?;
                let keys = counted(&mut d, MAX_TXN_KEYS, txn_err, |d| d.str())?;
                TxnRecord::Prepare {
                    txn,
                    coordinator,
                    op,
                    keys,
                }
            }
            TXN_COMMIT => TxnRecord::Commit { txn: d.str()? },
            TXN_ABORT => TxnRecord::Abort { txn: d.str()? },
            _ => return Err(txn_err()),
        };
        d.finish()?;
        Ok(rec)
    }
}

/// The ordered record that fences and extracts the keys a grown shard
/// count reassigns away from the receiving shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReshardExport {
    /// The new (post-flip) active shard count.
    pub(crate) new_count: u32,
}

impl ReshardExport {
    /// Serializes the record.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(self.new_count);
        e.finish().to_vec()
    }

    /// Decodes the record.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for truncated or trailing input.
    pub(crate) fn decode(buf: &[u8]) -> Result<ReshardExport, WireError> {
        let mut d = Decoder::new(buf);
        let new_count = d.u32()?;
        d.finish()?;
        Ok(ReshardExport { new_count })
    }
}

/// The ordered record that installs one source shard's migrated entries at
/// the new shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReshardImport {
    /// The shard the entries were exported from.
    pub(crate) from_shard: u32,
    /// The shard count before the flip (entries must route to `from_shard`
    /// at this count — the range bound on the source side).
    pub(crate) old_count: u32,
    /// The shard count after the flip (entries must route to the receiving
    /// shard at this count — the range bound on the destination side).
    pub(crate) new_count: u32,
    /// How many source shards will send imports; the new shard holds
    /// client traffic until all of them have arrived.
    pub(crate) sources: u32,
    /// The migrated `(key, opaque state)` entries.
    pub(crate) entries: Vec<(String, Vec<u8>)>,
}

impl ReshardImport {
    /// Serializes the record (entries in the order given; senders sort).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(self.from_shard);
        e.put_u32(self.old_count);
        e.put_u32(self.new_count);
        e.put_u32(self.sources);
        put_entries(&mut e, &self.entries);
        e.finish().to_vec()
    }

    /// Decodes the record, rejecting entry counts past
    /// [`MAX_RESHARD_ENTRIES`] before allocating.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for truncated, oversized, or trailing input.
    pub(crate) fn decode(buf: &[u8]) -> Result<ReshardImport, WireError> {
        let mut d = Decoder::new(buf);
        let rec = ReshardImport {
            from_shard: d.u32()?,
            old_count: d.u32()?,
            new_count: d.u32()?,
            sources: d.u32()?,
            entries: get_entries(&mut d)?,
        };
        d.finish()?;
        Ok(rec)
    }
}

fn put_entries(e: &mut Encoder, entries: &[(String, Vec<u8>)]) {
    e.put_u32(entries.len() as u32);
    for (k, v) in entries {
        e.put_str(k);
        e.put_bytes(v);
    }
}

fn get_entries(d: &mut Decoder<'_>) -> Result<Vec<(String, Vec<u8>)>, WireError> {
    counted(d, MAX_RESHARD_ENTRIES, txn_err, |d| {
        Ok((d.str()?, d.bytes()?.to_vec()))
    })
}

/// Page size the reshard-export integrity envelope chunks its payload at.
/// Exports reuse the checkpoint subsystem's page index
/// ([`pws_perpetual::PageManifest`]) rather than inventing a second
/// digesting scheme.
const RESHARD_PAGE_SIZE: u32 = pws_perpetual::DEFAULT_PAGE_SIZE;

/// Serializes exported `(key, state)` entries for a `reshardExport` reply,
/// sealed under the Merkle root of the payload's page table — the same
/// page index checkpoints use. The importer recomputes the root over the
/// received bytes ([`decode_entries`]) and rejects a corrupted or spliced
/// export before anything installs.
pub(crate) fn encode_entries(entries: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut body = Encoder::new();
    put_entries(&mut body, entries);
    let body = body.finish();
    let manifest = pws_perpetual::PageManifest::compute(&body, RESHARD_PAGE_SIZE);
    let mut e = Encoder::new();
    e.put_digest(&manifest.root());
    e.put_bytes(&body);
    e.finish().to_vec()
}

/// Inverse of [`encode_entries`]: verifies the payload's page-tree root
/// before decoding the entries.
///
/// # Errors
///
/// Returns [`WireError`] for truncated, oversized, or trailing input, or
/// when the payload does not hash to the sealed root.
pub(crate) fn decode_entries(buf: &[u8]) -> Result<Vec<(String, Vec<u8>)>, WireError> {
    let mut d = Decoder::new(buf);
    let root = d.digest()?;
    let body = d.bytes()?;
    d.finish()?;
    let manifest = pws_perpetual::PageManifest::compute(&body, RESHARD_PAGE_SIZE);
    if manifest.root() != root {
        return Err(WireError::malformed("reshard export root mismatch"));
    }
    let mut d = Decoder::new(&body);
    let entries = get_entries(&mut d)?;
    d.finish()?;
    Ok(entries)
}

// --------------------------------------------------------- decision machine

/// The pure coordinator decision function: given the votes received so far
/// and the full participant set, `Some(true)` once every participant voted
/// YES, `Some(false)` as soon as any vote is NO, `None` while undecided.
///
/// Replay-stable by construction: the outcome depends only on the vote
/// *values*, never on arrival order, so every coordinator replica — and a
/// recovering one replaying agreed votes from its checkpointed log —
/// reaches the identical decision.
pub(crate) fn decide(votes: &BTreeMap<u32, bool>, participants: &BTreeSet<u32>) -> Option<bool> {
    if votes
        .iter()
        .any(|(s, yes)| participants.contains(s) && !yes)
    {
        return Some(false);
    }
    if participants.iter().all(|s| votes.contains_key(s)) {
        Some(true)
    } else {
        None
    }
}

// ------------------------------------------------------------------- locks

/// Per-shard entity-key lock table: each key is held by at most one
/// transaction from prepare to decision. Deterministic (sorted map) and
/// snapshot-encodable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LockTable {
    locks: BTreeMap<String, String>,
}

impl LockTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        LockTable::default()
    }

    /// Atomically locks every key for `txn`: either all keys are free (or
    /// already held by `txn` itself) and all become held, or nothing
    /// changes and `false` comes back.
    pub(crate) fn try_lock(&mut self, txn: &str, keys: &[String]) -> bool {
        if keys
            .iter()
            .any(|k| self.locks.get(k).is_some_and(|h| h != txn))
        {
            return false;
        }
        for k in keys {
            self.locks.insert(k.clone(), txn.to_owned());
        }
        true
    }

    /// Releases every key held by `txn`; returns how many were freed.
    pub(crate) fn release(&mut self, txn: &str) -> usize {
        let before = self.locks.len();
        self.locks.retain(|_, h| h != txn);
        before - self.locks.len()
    }

    /// Whether `key` is currently locked.
    pub(crate) fn is_locked(&self, key: &str) -> bool {
        self.locks.contains_key(key)
    }

    /// Number of held keys.
    pub(crate) fn len(&self) -> usize {
        self.locks.len()
    }
}

// ----------------------------------------------------------------- service

/// A [`Service`] that can take part in cross-shard transactions and live
/// resharding. The shim drives these hooks; `on_event` keeps serving
/// ordinary single-shard requests unchanged.
///
/// Implementations must follow the *always-ready* idiom (`on_event`
/// returns [`Poll::Next`]): the shim delivers every event and defers
/// conflicting requests itself, so a narrowing wait set underneath it
/// would be ignored.
pub trait TxnService: Service {
    /// Phase-1 validation: may `op` be applied to `keys` here? Runs with no
    /// side effects; the default accepts everything.
    fn txn_validate(&mut self, op: &str, keys: &[String]) -> bool {
        let _ = (op, keys);
        true
    }

    /// Phase-2 application: apply `op` to this shard's `keys` and return a
    /// human-readable result detail (folded into the coordinator's
    /// composite reply). Must be deterministic.
    fn txn_execute(&mut self, op: &str, keys: &[String]) -> String;

    /// Extracts (and removes) every entity whose key satisfies `moved`,
    /// as opaque `(key, state)` entries. The default owns nothing.
    fn export_keys(&mut self, moved: &dyn Fn(&str) -> bool) -> Vec<(String, Vec<u8>)> {
        let _ = moved;
        Vec::new()
    }

    /// Installs entries previously produced by [`TxnService::export_keys`]
    /// on another shard. The default drops them.
    fn import_keys(&mut self, entries: &[(String, Vec<u8>)]) {
        let _ = entries;
    }
}

// -------------------------------------------------------------------- shim

/// One in-flight transaction this shard coordinates.
#[derive(Debug, Clone)]
struct Coord {
    op: String,
    /// The original client request, kept so the composite reply (or abort
    /// fault) correlates through its reply handle.
    orig: MessageContext,
    local_keys: Vec<String>,
    /// Participant shard → the keys it owns, at the coordinator's epoch.
    remote: BTreeMap<u32, Vec<String>>,
    votes: BTreeMap<u32, bool>,
    decided: Option<bool>,
    /// Per-shard commit result details (coordinator's own under its index).
    results: BTreeMap<u32, String>,
    acked: BTreeSet<u32>,
}

/// A participant-side prepared (locked, not yet decided) transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Prep {
    op: String,
    keys: Vec<String>,
}

/// The transaction/resharding shim: wraps a [`TxnService`] and hosts the
/// two-phase-commit coordinator and participant state machines plus the
/// resharding fence/import gates, entirely out of agreed events — so every
/// replica of the shard runs the identical machine.
///
/// Built by `SystemBuilder::sharded_txn`; not normally constructed by hand.
pub struct TxnShim {
    inner: Box<dyn TxnService>,
    name: String,
    shard: u32,
    /// The shard count this shard *has ordered*: updated only by ordered
    /// reshard records, never by the client-side epoch atomic, so replay
    /// after recovery re-derives identical routing decisions.
    epoch_shards: u32,
    locks: LockTable,
    /// Participant state: prepared transactions awaiting a decision.
    prepared: BTreeMap<String, Prep>,
    /// Participant idempotency memo: decided transaction → the ack text
    /// already sent (re-sent verbatim for replayed decisions).
    finished: BTreeMap<String, String>,
    /// Coordinator state for in-flight transactions.
    coord: BTreeMap<String, Coord>,
    /// The coordinator's durable outcome memory: every decision ever taken.
    decided: BTreeMap<String, bool>,
    /// Outstanding prepare calls: raw token → (txn, participant shard).
    prepare_calls: BTreeMap<u64, (String, u32)>,
    /// Outstanding decision calls: raw token → (txn, participant shard).
    decision_calls: BTreeMap<u64, (String, u32)>,
    /// Ordinary requests deferred behind a lock, in arrival order.
    deferred: Vec<MessageContext>,
    /// Keys fenced away by a reshard export: requests naming them redirect.
    fenced: BTreeSet<String>,
    /// A new (spare) shard holds client traffic until every source shard's
    /// import has arrived.
    gate_closed: bool,
    imported_sources: BTreeSet<u32>,
    /// Requests held while the gate is closed, in arrival order.
    held: Vec<MessageContext>,
    /// Reshard-export idempotency memo: `(new_count, reply text)`.
    last_export: Option<(u32, String)>,
    /// Re-entrancy guard for deferred/held drains (transient, not
    /// snapshotted — both queues drain again at the next release).
    draining: bool,
}

impl std::fmt::Debug for TxnShim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnShim")
            .field("shard", &self.shard)
            .field("epoch_shards", &self.epoch_shards)
            .field("locks", &self.locks.len())
            .field("coordinating", &self.coord.len())
            .field("prepared", &self.prepared.len())
            .field("gate_closed", &self.gate_closed)
            .finish_non_exhaustive()
    }
}

impl TxnShim {
    /// Wraps `inner` as shard `shard` of sharded service `name`, routing
    /// with the [`RendezvousRouter`] over `active_shards` shards. A
    /// `dormant` shard (a pre-provisioned spare) holds all client traffic
    /// until resharding imports open its gate.
    pub(crate) fn new(
        inner: Box<dyn TxnService>,
        name: impl Into<String>,
        shard: u32,
        active_shards: u32,
        dormant: bool,
    ) -> Self {
        TxnShim {
            inner,
            name: name.into(),
            shard,
            epoch_shards: active_shards.max(1),
            locks: LockTable::new(),
            prepared: BTreeMap::new(),
            finished: BTreeMap::new(),
            coord: BTreeMap::new(),
            decided: BTreeMap::new(),
            prepare_calls: BTreeMap::new(),
            decision_calls: BTreeMap::new(),
            deferred: Vec::new(),
            fenced: BTreeSet::new(),
            gate_closed: dormant,
            imported_sources: BTreeSet::new(),
            held: Vec::new(),
            last_export: None,
            draining: false,
        }
    }

    /// Typed access to the wrapped service (for assertions after a run).
    pub fn inner_mut<T: TxnService>(&mut self) -> Option<&mut T> {
        let any: &mut dyn std::any::Any = self.inner.as_mut();
        any.downcast_mut::<T>()
    }

    /// The shard count this shard has ordered (its reshard epoch).
    pub fn epoch_shards(&self) -> u32 {
        self.epoch_shards
    }

    /// Keys fenced away by resharding (still owned nowhere on this shard).
    pub fn fenced_keys(&self) -> impl Iterator<Item = &str> {
        self.fenced.iter().map(String::as_str)
    }

    /// Number of keys currently locked by in-flight transactions.
    pub fn locked_keys(&self) -> usize {
        self.locks.len()
    }

    fn participant_uri(&self, shard: u32) -> String {
        format!("urn:svc:{}#{}", self.name, shard)
    }

    /// Samples the lock-table size gauge after a lock-table transition
    /// (acquire, release, decision). Sampling at mutation points rather
    /// than on a timer keeps the series deterministic and proportional to
    /// transaction activity. A no-op downstream when tracing is off.
    fn gauge_locks(&mut self, ctx: &mut ServiceCtx<'_>) {
        let name = format!("ts.lock_table.{}.{}", self.name, self.shard);
        ctx.gauge(name, self.locks.len() as f64);
    }

    fn send_record(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        shard: u32,
        op: &str,
        record: &[u8],
        timeout_ms: u64,
    ) -> u64 {
        let mut mc = MessageContext::request(self.participant_uri(shard), op);
        mc.body_mut().name = op.to_owned();
        mc.body_mut().text = to_hex(record);
        mc.options_mut().set_timeout_millis(timeout_ms);
        ctx.send_config(mc).raw()
    }

    fn reply_text(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        request: &MessageContext,
        name: &str,
        text: impl Into<String>,
    ) {
        let reply = request.reply_with("", XmlNode::new(name).with_text(text));
        ctx.reply(reply, request);
    }

    fn reply_fault(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        request: &MessageContext,
        code: &str,
        reason: String,
    ) {
        let mc = MessageContext::from_envelope(Envelope::fault(&Fault {
            code: code.to_owned(),
            reason,
        }));
        ctx.reply(mc, request);
    }

    /// Groups `keys` by owning shard at this shard's ordered epoch.
    fn partition(&self, keys: &[String]) -> BTreeMap<u32, Vec<String>> {
        let mut by_shard: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for k in keys {
            let owner = RendezvousRouter.shard(k, self.epoch_shards);
            let bucket = by_shard.entry(owner).or_default();
            if !bucket.contains(k) {
                bucket.push(k.clone());
            }
        }
        by_shard
    }

    // ------------------------------------------------------------ ordinary

    fn handle_ordinary(&mut self, request: MessageContext, ctx: &mut ServiceCtx<'_>) {
        if self.gate_closed {
            self.held.push(request);
            return;
        }
        let keys: Vec<String> = split_keys(routing_key(&request))
            .map(str::to_owned)
            .collect();
        if keys.iter().any(|k| self.fenced.contains(k)) {
            ctx.incr_metric("clbft.reshard.redirects");
            self.reply_fault(
                ctx,
                &request,
                WRONG_SHARD_FAULT,
                format!(
                    "shard {} no longer owns the key at epoch {}; re-route",
                    self.shard, self.epoch_shards
                ),
            );
            return;
        }
        let by_shard = self.partition(&keys);
        if by_shard.keys().any(|s| *s != self.shard) && by_shard.len() >= 2 {
            self.coordinate(request, by_shard, ctx);
            return;
        }
        if keys.iter().any(|k| self.locks.is_locked(k)) {
            self.deferred.push(request);
            return;
        }
        self.inner.on_event(WsEvent::Request { request }, ctx);
    }

    /// Re-runs deferred (lock-conflicted) requests after a release. Guarded
    /// against re-entry: a request re-deferred during the drain waits for
    /// the next release.
    fn drain_deferred(&mut self, ctx: &mut ServiceCtx<'_>) {
        if self.draining || self.deferred.is_empty() {
            return;
        }
        self.draining = true;
        let pending = std::mem::take(&mut self.deferred);
        for mc in pending {
            self.handle_ordinary(mc, ctx);
        }
        self.draining = false;
    }

    // --------------------------------------------------------- coordinator

    fn coordinate(
        &mut self,
        request: MessageContext,
        mut by_shard: BTreeMap<u32, Vec<String>>,
        ctx: &mut ServiceCtx<'_>,
    ) {
        let txn = request.addressing().message_id.clone().unwrap_or_default();
        if self.decided.contains_key(&txn) || self.coord.contains_key(&txn) {
            return; // replayed agreed request; the outcome is already owned
        }
        let op = request.body().name.clone();
        let local_keys = by_shard.remove(&self.shard).unwrap_or_default();
        if !self.locks.try_lock(&txn, &local_keys) || !self.inner.txn_validate(&op, &local_keys) {
            self.locks.release(&txn);
            ctx.obs_audit(AuditEvent::TxnDecision {
                txn: txn_span_id(&txn),
                commit: false,
                coordinator: true,
            });
            self.decided.insert(txn, false);
            ctx.incr_metric("clbft.txn.vote_no");
            ctx.incr_metric("clbft.txn.aborted");
            self.reply_fault(
                ctx,
                &request,
                TXN_ABORTED_FAULT,
                "coordinator shard rejected the transaction locally".to_owned(),
            );
            return;
        }
        let mut c = Coord {
            op: op.clone(),
            orig: request,
            local_keys,
            remote: by_shard,
            votes: BTreeMap::new(),
            decided: None,
            results: BTreeMap::new(),
            acked: BTreeSet::new(),
        };
        let remote = std::mem::take(&mut c.remote);
        for (shard, keys) in &remote {
            let rec = TxnRecord::Prepare {
                txn: txn.clone(),
                coordinator: self.shard,
                op: op.clone(),
                keys: keys.clone(),
            }
            .encode();
            let token = self.send_record(ctx, *shard, OP_TXN_PREPARE, &rec, PREPARE_TIMEOUT_MS);
            self.prepare_calls.insert(token, (txn.clone(), *shard));
        }
        ctx.obs_proto(ProtoFamily::Txn, txn_span_id(&txn), 0, remote.len() as u64);
        self.gauge_locks(ctx);
        c.remote = remote;
        self.coord.insert(txn, c);
    }

    fn maybe_decide(&mut self, txn: &str, ctx: &mut ServiceCtx<'_>) {
        let Some(c) = self.coord.get(txn) else { return };
        if c.decided.is_some() {
            return;
        }
        let participants: BTreeSet<u32> = c.remote.keys().copied().collect();
        let Some(commit) = decide(&c.votes, &participants) else {
            return;
        };
        let (op, local_keys) = (c.op.clone(), c.local_keys.clone());
        let detail = if commit {
            self.inner.txn_execute(&op, &local_keys)
        } else {
            String::new()
        };
        self.locks.release(txn);
        self.decided.insert(txn.to_owned(), commit);
        ctx.incr_metric(if commit {
            "clbft.txn.committed"
        } else {
            "clbft.txn.aborted"
        });
        ctx.obs_proto(ProtoFamily::Txn, txn_span_id(txn), 2, u64::from(commit));
        ctx.obs_audit(AuditEvent::TxnDecision {
            txn: txn_span_id(txn),
            commit,
            coordinator: true,
        });
        self.gauge_locks(ctx);
        let c = self.coord.get_mut(txn).expect("coord entry checked above");
        c.decided = Some(commit);
        if commit {
            c.results.insert(self.shard, detail);
        }
        let (dec_op, rec) = if commit {
            (
                OP_TXN_COMMIT,
                TxnRecord::Commit {
                    txn: txn.to_owned(),
                }
                .encode(),
            )
        } else {
            (
                OP_TXN_ABORT,
                TxnRecord::Abort {
                    txn: txn.to_owned(),
                }
                .encode(),
            )
        };
        for shard in participants {
            let token = self.send_record(ctx, shard, dec_op, &rec, DECISION_TIMEOUT_MS);
            self.decision_calls.insert(token, (txn.to_owned(), shard));
        }
        self.drain_deferred(ctx);
    }

    fn maybe_finish(&mut self, txn: &str, ctx: &mut ServiceCtx<'_>) {
        let Some(c) = self.coord.get(txn) else { return };
        let Some(commit) = c.decided else { return };
        if !c.remote.keys().all(|s| c.acked.contains(s)) {
            return;
        }
        let c = self.coord.remove(txn).expect("coord entry checked above");
        ctx.obs_proto(ProtoFamily::Txn, txn_span_id(txn), 3, c.acked.len() as u64);
        if commit {
            let joined: Vec<String> = c.results.iter().map(|(s, d)| format!("{s}={d}")).collect();
            let text = format!("txn=commit;{}", joined.join(";"));
            self.reply_text(ctx, &c.orig, &format!("{}Result", c.op), text);
        } else {
            self.reply_fault(
                ctx,
                &c.orig,
                TXN_ABORTED_FAULT,
                "cross-shard transaction aborted".to_owned(),
            );
        }
    }

    /// Routes a reply to the coordinator machine; `false` if the token is
    /// not a transaction call (the reply belongs to the inner service).
    fn on_reply(&mut self, raw: u64, reply: &MessageContext, ctx: &mut ServiceCtx<'_>) -> bool {
        if let Some((txn, shard)) = self.prepare_calls.remove(&raw) {
            let yes = reply.envelope().as_fault().is_none() && reply.body().text.starts_with("yes");
            if let Some(c) = self.coord.get_mut(&txn) {
                if c.decided.is_none() {
                    c.votes.insert(shard, yes);
                    let votes = c.votes.len() as u64;
                    ctx.obs_proto(ProtoFamily::Txn, txn_span_id(&txn), 1, votes);
                    self.maybe_decide(&txn, ctx);
                }
            }
            return true;
        }
        if let Some((txn, shard)) = self.decision_calls.remove(&raw) {
            if reply.envelope().as_fault().is_some() {
                // The participant may not have ordered the decision; re-send
                // until acknowledged so no shard is left holding locks.
                ctx.incr_metric("clbft.txn.decision_retries");
                let commit = self.decided.get(&txn).copied().unwrap_or(false);
                let (dec_op, rec) = if commit {
                    (
                        OP_TXN_COMMIT,
                        TxnRecord::Commit { txn: txn.clone() }.encode(),
                    )
                } else {
                    (OP_TXN_ABORT, TxnRecord::Abort { txn: txn.clone() }.encode())
                };
                let token = self.send_record(ctx, shard, dec_op, &rec, DECISION_TIMEOUT_MS);
                self.decision_calls.insert(token, (txn, shard));
                return true;
            }
            if let Some(c) = self.coord.get_mut(&txn) {
                c.acked.insert(shard);
                if let Some(detail) = reply.body().text.strip_prefix("ack;") {
                    c.results.insert(shard, detail.to_owned());
                }
                self.maybe_finish(&txn, ctx);
            }
            return true;
        }
        false
    }

    // --------------------------------------------------------- participant

    fn participant_prepare(&mut self, request: MessageContext, ctx: &mut ServiceCtx<'_>) {
        let rec = from_hex(routing_key(&request)).and_then(|b| TxnRecord::decode(&b).ok());
        let Some(TxnRecord::Prepare { txn, op, keys, .. }) = rec else {
            self.reply_fault(
                ctx,
                &request,
                "soap:Sender",
                "malformed txnPrepare record".to_owned(),
            );
            return;
        };
        let yes = if self.finished.contains_key(&txn) {
            // The decision overtook this prepare (it can only be an abort):
            // vote NO without touching locks.
            false
        } else if self.prepared.contains_key(&txn) {
            true
        } else if !self.locks.try_lock(&txn, &keys) {
            ctx.incr_metric("clbft.txn.vote_no");
            false
        } else if !self.inner.txn_validate(&op, &keys) {
            self.locks.release(&txn);
            ctx.incr_metric("clbft.txn.vote_no");
            false
        } else {
            self.prepared.insert(txn.clone(), Prep { op, keys });
            ctx.incr_metric("clbft.txn.prepared");
            true
        };
        self.reply_text(
            ctx,
            &request,
            "txnPrepareResult",
            if yes { "yes" } else { "no" },
        );
        self.gauge_locks(ctx);
    }

    fn participant_decision(
        &mut self,
        request: MessageContext,
        commit: bool,
        ctx: &mut ServiceCtx<'_>,
    ) {
        let rec = from_hex(routing_key(&request)).and_then(|b| TxnRecord::decode(&b).ok());
        let txn = match rec {
            Some(TxnRecord::Commit { txn }) if commit => txn,
            Some(TxnRecord::Abort { txn }) if !commit => txn,
            _ => {
                self.reply_fault(
                    ctx,
                    &request,
                    "soap:Sender",
                    "malformed decision record".to_owned(),
                );
                return;
            }
        };
        let name = if commit {
            "txnCommitResult"
        } else {
            "txnAbortResult"
        };
        if let Some(prev) = self.finished.get(&txn) {
            let prev = prev.clone();
            self.reply_text(ctx, &request, name, prev);
            return;
        }
        let text = match self.prepared.remove(&txn) {
            Some(p) => {
                self.locks.release(&txn);
                if commit {
                    format!("ack;{}", self.inner.txn_execute(&p.op, &p.keys))
                } else {
                    "ack".to_owned()
                }
            }
            // A decision for a never-prepared transaction: record it so a
            // late prepare votes NO instead of locking forever.
            None => "ack".to_owned(),
        };
        ctx.obs_audit(AuditEvent::TxnDecision {
            txn: txn_span_id(&txn),
            commit,
            coordinator: false,
        });
        self.finished.insert(txn, text.clone());
        self.reply_text(ctx, &request, name, text);
        self.gauge_locks(ctx);
        self.drain_deferred(ctx);
    }

    // ---------------------------------------------------------- resharding

    fn reshard_export(&mut self, request: MessageContext, ctx: &mut ServiceCtx<'_>) {
        let rec = from_hex(routing_key(&request)).and_then(|b| ReshardExport::decode(&b).ok());
        let Some(ReshardExport { new_count }) = rec else {
            self.reply_fault(
                ctx,
                &request,
                "soap:Sender",
                "malformed reshardExport record".to_owned(),
            );
            return;
        };
        if let Some((n, cached)) = &self.last_export {
            if *n == new_count {
                let cached = cached.clone();
                self.reply_text(ctx, &request, "reshardExportResult", cached);
                return;
            }
        }
        let shard = self.shard;
        let mut entries = self
            .inner
            .export_keys(&|k| RendezvousRouter.shard(k, new_count) != shard);
        entries.sort();
        for (k, _) in &entries {
            self.fenced.insert(k.clone());
            ctx.incr_metric("clbft.reshard.exported_keys");
        }
        self.epoch_shards = new_count;
        // One reshard span per epoch: "fenced" counts the keys this shard
        // gave up, "exported" stamps the entries leaving in the reply.
        ctx.obs_proto(
            ProtoFamily::Reshard,
            u64::from(new_count),
            1,
            entries.len() as u64,
        );
        ctx.obs_proto(
            ProtoFamily::Reshard,
            u64::from(new_count),
            2,
            entries.len() as u64,
        );
        let text = to_hex(&encode_entries(&entries));
        self.last_export = Some((new_count, text.clone()));
        self.reply_text(ctx, &request, "reshardExportResult", text);
        // Deferred requests naming now-fenced keys must redirect, not wait.
        self.drain_deferred(ctx);
    }

    fn reshard_import(&mut self, request: MessageContext, ctx: &mut ServiceCtx<'_>) {
        let rec = from_hex(routing_key(&request)).and_then(|b| ReshardImport::decode(&b).ok());
        let Some(imp) = rec else {
            self.reply_fault(
                ctx,
                &request,
                "soap:Sender",
                "malformed reshardImport record".to_owned(),
            );
            return;
        };
        if self.imported_sources.contains(&imp.from_shard) {
            self.reply_text(ctx, &request, "reshardImportResult", "ack;duplicate");
            return;
        }
        self.epoch_shards = imp.new_count;
        let mut accepted = Vec::new();
        for (k, v) in imp.entries {
            // Range-bounded install: the key must route *here* at the new
            // count and to the claimed source at the old count; anything
            // else is a mis-addressed (or forged) entry and is dropped.
            let in_range = RendezvousRouter.shard(&k, imp.new_count) == self.shard
                && RendezvousRouter.shard(&k, imp.old_count) == imp.from_shard;
            if in_range {
                ctx.incr_metric("clbft.reshard.imported_keys");
                accepted.push((k, v));
            } else {
                ctx.incr_metric("clbft.reshard.rejected_keys");
            }
        }
        self.inner.import_keys(&accepted);
        self.imported_sources.insert(imp.from_shard);
        ctx.obs_proto(
            ProtoFamily::Reshard,
            u64::from(imp.new_count),
            3,
            accepted.len() as u64,
        );
        let text = format!("ack;accepted={}", accepted.len());
        self.reply_text(ctx, &request, "reshardImportResult", text);
        if self.gate_closed && self.imported_sources.len() as u32 >= imp.sources {
            self.gate_closed = false;
            let held = std::mem::take(&mut self.held);
            for mc in held {
                self.handle_ordinary(mc, ctx);
            }
        }
    }
}

impl Service for TxnShim {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        match ev {
            WsEvent::Request { request } => match request.body().name.as_str() {
                OP_TXN_PREPARE => self.participant_prepare(request, ctx),
                OP_TXN_COMMIT => self.participant_decision(request, true, ctx),
                OP_TXN_ABORT => self.participant_decision(request, false, ctx),
                OP_RESHARD_EXPORT => self.reshard_export(request, ctx),
                OP_RESHARD_IMPORT => self.reshard_import(request, ctx),
                _ => self.handle_ordinary(request, ctx),
            },
            WsEvent::Reply { token, reply } => {
                if !self.on_reply(token.raw(), &reply, ctx) {
                    self.inner.on_event(WsEvent::Reply { token, reply }, ctx);
                }
            }
            other => {
                self.inner.on_event(other, ctx);
            }
        }
        Poll::Next
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(1); // shim snapshot version
        e.put_bytes(&self.inner.snapshot());
        e.put_u32(self.epoch_shards);
        e.put_u32(self.locks.locks.len() as u32);
        for (k, t) in &self.locks.locks {
            e.put_str(k);
            e.put_str(t);
        }
        e.put_u32(self.prepared.len() as u32);
        for (txn, p) in &self.prepared {
            e.put_str(txn);
            e.put_str(&p.op);
            e.put_u32(p.keys.len() as u32);
            for k in &p.keys {
                e.put_str(k);
            }
        }
        e.put_u32(self.finished.len() as u32);
        for (txn, text) in &self.finished {
            e.put_str(txn);
            e.put_str(text);
        }
        e.put_u32(self.decided.len() as u32);
        for (txn, commit) in &self.decided {
            e.put_str(txn);
            e.put_u8(u8::from(*commit));
        }
        e.put_u32(self.coord.len() as u32);
        for (txn, c) in &self.coord {
            e.put_str(txn);
            e.put_str(&c.op);
            e.put_bytes(&c.orig.to_bytes().expect("agreed request re-marshals"));
            e.put_u32(c.local_keys.len() as u32);
            for k in &c.local_keys {
                e.put_str(k);
            }
            e.put_u32(c.remote.len() as u32);
            for (s, keys) in &c.remote {
                e.put_u32(*s);
                e.put_u32(keys.len() as u32);
                for k in keys {
                    e.put_str(k);
                }
            }
            e.put_u32(c.votes.len() as u32);
            for (s, v) in &c.votes {
                e.put_u32(*s);
                e.put_u8(u8::from(*v));
            }
            e.put_u8(match c.decided {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            e.put_u32(c.results.len() as u32);
            for (s, d) in &c.results {
                e.put_u32(*s);
                e.put_str(d);
            }
            e.put_u32(c.acked.len() as u32);
            for s in &c.acked {
                e.put_u32(*s);
            }
        }
        for calls in [&self.prepare_calls, &self.decision_calls] {
            e.put_u32(calls.len() as u32);
            for (raw, (txn, shard)) in calls {
                e.put_u64(*raw);
                e.put_str(txn);
                e.put_u32(*shard);
            }
        }
        for queue in [&self.deferred, &self.held] {
            e.put_u32(queue.len() as u32);
            for mc in queue {
                e.put_bytes(&mc.to_bytes().expect("agreed request re-marshals"));
            }
        }
        e.put_u32(self.fenced.len() as u32);
        for k in &self.fenced {
            e.put_str(k);
        }
        e.put_u8(u8::from(self.gate_closed));
        e.put_u32(self.imported_sources.len() as u32);
        for s in &self.imported_sources {
            e.put_u32(*s);
        }
        match &self.last_export {
            None => e.put_u8(0),
            Some((n, text)) => {
                e.put_u8(1);
                e.put_u32(*n);
                e.put_str(text);
            }
        }
        e.finish().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        if let Err(err) = self.decode_shim(snapshot) {
            // The snapshot was vouched for by f+1 replicas before install;
            // failing loudly beats silent divergence.
            panic!("verified txn shim snapshot failed to decode: {err}");
        }
    }
}

impl TxnShim {
    fn decode_shim(&mut self, snapshot: &[u8]) -> Result<(), WireError> {
        const CAP: usize = 1 << 20;
        let mut d = Decoder::new(snapshot);
        if d.u8()? != 1 {
            return Err(txn_err());
        }
        let inner_snap = d.bytes()?;
        let epoch_shards = d.u32()?;
        let locks: BTreeMap<String, String> =
            counted(&mut d, CAP, txn_err, |d| Ok((d.str()?, d.str()?)))?
                .into_iter()
                .collect();
        let prepared: BTreeMap<String, Prep> = counted(&mut d, CAP, txn_err, |d| {
            let txn = d.str()?;
            let op = d.str()?;
            let keys = counted(d, MAX_TXN_KEYS, txn_err, |d| d.str())?;
            Ok((txn, Prep { op, keys }))
        })?
        .into_iter()
        .collect();
        let finished: BTreeMap<String, String> =
            counted(&mut d, CAP, txn_err, |d| Ok((d.str()?, d.str()?)))?
                .into_iter()
                .collect();
        let decided: BTreeMap<String, bool> =
            counted(&mut d, CAP, txn_err, |d| Ok((d.str()?, d.u8()? != 0)))?
                .into_iter()
                .collect();
        let coord: BTreeMap<String, Coord> = counted(&mut d, CAP, txn_err, |d| {
            let txn = d.str()?;
            let op = d.str()?;
            let orig = MessageContext::from_bytes(&d.bytes()?).map_err(|_| txn_err())?;
            let local_keys = counted(d, MAX_TXN_KEYS, txn_err, |d| d.str())?;
            let remote: BTreeMap<u32, Vec<String>> = counted(d, CAP, txn_err, |d| {
                let s = d.u32()?;
                let keys = counted(d, MAX_TXN_KEYS, txn_err, |d| d.str())?;
                Ok((s, keys))
            })?
            .into_iter()
            .collect();
            let votes: BTreeMap<u32, bool> =
                counted(d, CAP, txn_err, |d| Ok((d.u32()?, d.u8()? != 0)))?
                    .into_iter()
                    .collect();
            let decided = match d.u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                _ => return Err(txn_err()),
            };
            let results: BTreeMap<u32, String> =
                counted(d, CAP, txn_err, |d| Ok((d.u32()?, d.str()?)))?
                    .into_iter()
                    .collect();
            let acked: BTreeSet<u32> = counted(d, CAP, txn_err, |d| d.u32())?.into_iter().collect();
            Ok((
                txn,
                Coord {
                    op,
                    orig,
                    local_keys,
                    remote,
                    votes,
                    decided,
                    results,
                    acked,
                },
            ))
        })?
        .into_iter()
        .collect();
        let mut call_maps = Vec::with_capacity(2);
        for _ in 0..2 {
            let m: BTreeMap<u64, (String, u32)> = counted(&mut d, CAP, txn_err, |d| {
                let raw = d.u64()?;
                let txn = d.str()?;
                let shard = d.u32()?;
                Ok((raw, (txn, shard)))
            })?
            .into_iter()
            .collect();
            call_maps.push(m);
        }
        let mut queues = Vec::with_capacity(2);
        for _ in 0..2 {
            queues.push(counted(&mut d, CAP, txn_err, |d| {
                MessageContext::from_bytes(&d.bytes()?).map_err(|_| txn_err())
            })?);
        }
        let fenced: BTreeSet<String> = counted(&mut d, CAP, txn_err, |d| d.str())?
            .into_iter()
            .collect();
        let gate_closed = d.u8()? != 0;
        let imported_sources: BTreeSet<u32> = counted(&mut d, CAP, txn_err, |d| d.u32())?
            .into_iter()
            .collect();
        let last_export = match d.u8()? {
            0 => None,
            1 => Some((d.u32()?, d.str()?)),
            _ => return Err(txn_err()),
        };
        d.finish()?;

        // Everything parsed; commit.
        self.inner.restore(&inner_snap);
        self.epoch_shards = epoch_shards;
        self.locks = LockTable { locks };
        self.prepared = prepared;
        self.finished = finished;
        self.decided = decided;
        self.coord = coord;
        self.decision_calls = call_maps.pop().expect("two call maps");
        self.prepare_calls = call_maps.pop().expect("two call maps");
        self.held = queues.pop().expect("two queues");
        self.deferred = queues.pop().expect("two queues");
        self.fenced = fenced;
        self.gate_closed = gate_closed;
        self.imported_sources = imported_sources;
        self.last_export = last_export;
        self.draining = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hex_roundtrips_and_rejects_junk() {
        for bytes in [vec![], vec![0u8], vec![0xAB, 0x00, 0xFF, 0x7E]] {
            assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        }
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex digit");
    }

    #[test]
    fn txn_record_roundtrips() {
        let records = [
            TxnRecord::Prepare {
                txn: "urn:pws:anon:7:3".into(),
                coordinator: 2,
                op: "increment".into(),
                keys: vec!["a".into(), "b".into()],
            },
            TxnRecord::Commit { txn: "t".into() },
            TxnRecord::Abort { txn: "t".into() },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(TxnRecord::decode(&bytes).unwrap(), rec);
            for cut in 0..bytes.len() {
                assert!(TxnRecord::decode(&bytes[..cut]).is_err(), "cut={cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(TxnRecord::decode(&long).is_err(), "trailing junk");
        }
        assert!(TxnRecord::decode(&[9]).is_err(), "junk tag");
    }

    #[test]
    fn txn_record_key_count_is_capped() {
        // Hand-build a prepare whose key count claims more than the cap;
        // the decoder must reject before allocating.
        let mut e = Encoder::new();
        e.put_u8(TXN_PREPARE);
        e.put_str("t");
        e.put_u32(0);
        e.put_str("op");
        e.put_u32(MAX_TXN_KEYS as u32 + 1);
        assert!(TxnRecord::decode(&e.finish()).is_err());
    }

    #[test]
    fn reshard_records_roundtrip() {
        let exp = ReshardExport { new_count: 3 };
        assert_eq!(ReshardExport::decode(&exp.encode()).unwrap(), exp);
        let imp = ReshardImport {
            from_shard: 1,
            old_count: 2,
            new_count: 3,
            sources: 2,
            entries: vec![("k1".into(), vec![1, 2]), ("k2".into(), vec![])],
        };
        let bytes = imp.encode();
        assert_eq!(ReshardImport::decode(&bytes).unwrap(), imp);
        for cut in 0..bytes.len() {
            assert!(ReshardImport::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let entries = vec![("x".to_owned(), vec![9u8; 4])];
        assert_eq!(decode_entries(&encode_entries(&entries)).unwrap(), entries);
    }

    #[test]
    fn reshard_entry_count_is_capped() {
        // A correctly-sealed frame whose body claims an absurd entry count
        // must still be rejected by the cap, after the root verifies.
        let mut body = Encoder::new();
        body.put_u32(MAX_RESHARD_ENTRIES as u32 + 1);
        let body = body.finish();
        let manifest = pws_perpetual::PageManifest::compute(&body, 1024);
        let mut e = Encoder::new();
        e.put_digest(&manifest.root());
        e.put_bytes(&body);
        assert!(decode_entries(&e.finish()).is_err());
    }

    #[test]
    fn corrupted_reshard_export_fails_the_root_check() {
        let entries = vec![("k".to_owned(), vec![7u8; 16])];
        let sealed = encode_entries(&entries);
        // Flip one payload byte (past the 32-byte root and length prefix):
        // the page-tree root no longer matches and nothing decodes.
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decode_entries(&bad).is_err());
        // Truncations die too, at every prefix.
        for cut in 0..sealed.len() {
            assert!(decode_entries(&sealed[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn lock_table_is_atomic_and_reentrant() {
        let mut t = LockTable::new();
        let ab: Vec<String> = vec!["a".into(), "b".into()];
        let bc: Vec<String> = vec!["b".into(), "c".into()];
        assert!(t.try_lock("t1", &ab));
        assert!(t.try_lock("t1", &ab), "same holder may re-lock");
        assert!(!t.try_lock("t2", &bc), "conflict on b");
        assert!(!t.is_locked("c"), "failed lock must not leak partial locks");
        assert_eq!(t.locks.get("a").map(String::as_str), Some("t1"));
        assert_eq!(t.release("t1"), 2);
        assert_eq!(t.len(), 0);
        assert!(t.try_lock("t2", &bc));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn decision_logic() {
        let parts: BTreeSet<u32> = [1, 2].into();
        let mut votes = BTreeMap::new();
        assert_eq!(decide(&votes, &parts), None);
        votes.insert(1, true);
        assert_eq!(decide(&votes, &parts), None, "still waiting on shard 2");
        votes.insert(2, false);
        assert_eq!(decide(&votes, &parts), Some(false), "any NO aborts");
        let all_yes: BTreeMap<u32, bool> = [(1, true), (2, true)].into();
        assert_eq!(decide(&all_yes, &parts), Some(true));
        assert_eq!(
            decide(&BTreeMap::new(), &BTreeSet::new()),
            Some(true),
            "no participants commits vacuously"
        );
    }

    proptest! {
        /// The decision is a pure function of the vote *set*: every arrival
        /// order reaches the same final outcome, and any prefix that
        /// decides early decides the same way.
        #[test]
        fn decide_is_order_independent(
            raw_votes in proptest::collection::vec(any::<bool>(), 1..6),
            order in proptest::collection::vec(0usize..6, 0..6),
        ) {
            let votes: BTreeMap<u32, bool> = raw_votes
                .iter()
                .enumerate()
                .map(|(s, v)| (s as u32, *v))
                .collect();
            let participants: BTreeSet<u32> = votes.keys().copied().collect();
            let expected = decide(&votes, &participants);
            prop_assert!(expected.is_some(), "full vote set always decides");

            // Replay the votes in a permuted arrival order; the first
            // decided prefix must agree with the full-set outcome.
            let mut keys: Vec<u32> = votes.keys().copied().collect();
            for (i, swap) in order.iter().enumerate() {
                if i < keys.len() {
                    let j = swap % keys.len();
                    keys.swap(i, j);
                }
            }
            let mut partial = BTreeMap::new();
            let mut early: Option<bool> = None;
            for k in keys {
                partial.insert(k, votes[&k]);
                if let Some(outcome) = decide(&partial, &participants) {
                    early = Some(outcome);
                    if !outcome {
                        break; // an early abort never un-aborts
                    }
                }
            }
            prop_assert_eq!(early, expected);
        }

        /// Record codecs never panic on arbitrary bytes — they reject.
        #[test]
        fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = TxnRecord::decode(&bytes);
            let _ = ReshardExport::decode(&bytes);
            let _ = ReshardImport::decode(&bytes);
            let _ = decode_entries(&bytes);
        }
    }
}
