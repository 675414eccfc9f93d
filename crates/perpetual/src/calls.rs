//! The driver's outcall table: one record per call (lifecycle in
//! `docs/ARCHITECTURE.md`, "Driver outcalls").
//!
//! A [`Call`] has a **durable** half that every correct replica holds
//! identically and that travels in the [`crate::snapshot::DriverSnapshot`],
//! and a **transient** half, [`Live`], that exists exactly while the call
//! is unresolved. Resolving a call is `live.take()`.
//!
//! The table owns no clock, voter, keys or executor. The replica sets and
//! cancels the simulator timers and tells the table their ids; the table
//! keeps the one `TimerId → call` index and says which ids to cancel.
//! Reply validation lives here too ([`Calls::bundle_ok`],
//! [`Calls::read_vote`]), on keys the caller lends.

use crate::event::Event;
use crate::group::{GroupId, Topology};
use crate::messages::{reply_digest, request_tag, PMsg, ShareVotes};
use crate::snapshot::CallSnap;
use bytes::Bytes;
use pws_clbft::RequestId;
use pws_crypto::auth::{verify_bundle, BundleShare};
use pws_crypto::keys::KeyTable;
use pws_crypto::sha256::Digest32;
use pws_simnet::{Context, SimDuration, TimerId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which of a live call's two timers an id names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// The caller's deterministic abort timeout (§4.2).
    Abort,
    /// Retransmit with the responder rotated (masks a faulty responder).
    Retry,
}

/// One outcall. The fields above `live` are the durable half.
#[derive(Debug)]
pub(crate) struct Call {
    pub(crate) target: GroupId,
    /// Dense per-target dedup sequence (see `Event::External::target_seq`).
    /// Read-only calls never consume one and store `0`.
    pub(crate) target_seq: u64,
    /// Travels the read-only fast path: retransmits re-broadcast the read.
    pub(crate) read_only: bool,
    /// Original request payload, kept for retransmission.
    pub(crate) payload: Bytes,
    /// `None` once the call resolved (reply or abort delivered). Boxed: the
    /// table keeps every call ever issued, and a resolved one should not
    /// carry the room for a `Live` it will never have again.
    pub(crate) live: Option<Box<Live>>,
}

/// The transient half of an unresolved call. Never snapshot-covered: a
/// recovering replica re-derives it from retransmissions.
#[derive(Debug, Default)]
pub(crate) struct Live {
    /// Private with `Calls::timers`: the index holds exactly these ids.
    abort_timer: Option<TimerId>,
    retry_timer: Option<TimerId>,
    /// Retransmissions so far; rotates the responder.
    retries: u32,
    /// The local abort timer fired: the gate admits an `Abort` proposal.
    pub(crate) abort_fired: bool,
    /// Result proposals submitted into agreement, withdrawn at resolution.
    pub(crate) submitted: Vec<RequestId>,
    /// Replies the co-located driver (or the gate) has validated, with
    /// their digests.
    pub(crate) validated: Vec<(Digest32, Bytes)>,
    /// Fast-path read replies tallied toward the `2f_t + 1` quorum.
    pub(crate) ro_votes: ShareVotes,
}

impl Live {
    /// The timers still pending, abort first.
    pub(crate) fn timers(&self) -> impl Iterator<Item = TimerId> {
        self.abort_timer.into_iter().chain(self.retry_timer)
    }
}

/// Consumes `target`'s next dense sequence number.
fn take_seq(next_target_seq: &mut BTreeMap<u32, u64>, target: GroupId) -> u64 {
    let next = next_target_seq.entry(target.0).or_insert(0);
    *next += 1;
    *next - 1
}

/// The outcall table of one replica of `group`.
#[derive(Debug)]
pub(crate) struct Calls {
    group: GroupId,
    /// This replica's index in `group`: whom reply shares must be MACed for.
    index: u32,
    topology: Arc<Topology>,
    calls: BTreeMap<u64, Call>,
    /// Every pending timer of every live call.
    timers: BTreeMap<TimerId, (u64, TimerKind)>,
    /// Dense per-target sequence counters: the dedup key space of our own
    /// outcalls (see `Event::External::target_seq`).
    next_target_seq: BTreeMap<u32, u64>,
}

impl Calls {
    pub(crate) fn new(group: GroupId, index: u32, topology: Arc<Topology>) -> Self {
        Calls {
            group,
            index,
            topology,
            calls: BTreeMap::new(),
            timers: BTreeMap::new(),
            next_target_seq: BTreeMap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.calls.len()
    }

    pub(crate) fn get(&self, call_no: u64) -> Option<&Call> {
        self.calls.get(&call_no)
    }

    /// The transient half of a call that is still live.
    pub(crate) fn live_mut(&mut self, call_no: u64) -> Option<&mut Live> {
        self.calls.get_mut(&call_no)?.live.as_deref_mut()
    }

    /// Records a freshly issued call. An ordered call consumes the next
    /// `target_seq`; a read never enters the target's agreement stream and
    /// consumes none. An unreachable target (unknown, or ourselves) is
    /// recorded already resolved and `false` returned — the caller aborts
    /// it on the spot.
    pub(crate) fn issue(
        &mut self,
        call_no: u64,
        target: GroupId,
        read_only: bool,
        payload: Bytes,
    ) -> bool {
        let live = self.topology.contains(target) && target != self.group;
        let mut target_seq = 0;
        if live && !read_only {
            target_seq = take_seq(&mut self.next_target_seq, target);
        }
        let call = Call {
            target,
            target_seq,
            read_only,
            payload,
            live: live.then(Box::default),
        };
        self.calls.insert(call_no, call);
        live
    }

    /// An unreplicated caller's retry of a live call: a fast-path read
    /// moves to the ordered path (`Some(true)`), taking its `target_seq`
    /// only now and dropping its tally; an ordered call rotates its
    /// responder (`Some(false)`). `None` if the call is not live. Only a
    /// caller that is alone may demote — it decides when, and there is
    /// nobody to diverge from. A replicated driver's retries fire at
    /// non-deterministic moments, and consuming a sequence then would split
    /// the replicas: its retry timer re-broadcasts the read instead.
    pub(crate) fn demote_or_rotate(&mut self, call_no: u64) -> Option<bool> {
        let call = self.calls.get_mut(&call_no)?;
        let live = call.live.as_mut()?;
        let demoted = call.read_only;
        if demoted {
            live.ro_votes = ShareVotes::default();
            call.read_only = false;
            call.target_seq = take_seq(&mut self.next_target_seq, call.target);
        } else {
            live.retries += 1;
        }
        Some(demoted)
    }

    /// The request to put on the wire for a live call, with the group to
    /// broadcast it to: the read for a fast-path call, otherwise the
    /// ordered request naming responder `(call_no + retries) % n_t`.
    pub(crate) fn request(&self, call_no: u64, timeout_ms: u64) -> Option<(GroupId, PMsg)> {
        let call = self.calls.get(&call_no)?;
        let live = call.live.as_ref()?;
        let (caller, caller_n) = (self.group, self.topology.n(self.group));
        let payload = call.payload.clone();
        let msg = if call.read_only {
            PMsg::ReadRequest {
                caller,
                caller_n,
                req_no: call_no,
                payload,
            }
        } else {
            let target_n = self.topology.n(call.target) as u64;
            PMsg::OutRequest(Event::External {
                caller,
                caller_n,
                req_no: call_no,
                target_seq: call.target_seq,
                responder: ((call_no + live.retries as u64) % target_n) as u32,
                timeout_ms,
                payload,
            })
        };
        Some((call.target, msg))
    }

    /// Files `timer` as a live call's pending `kind` timer.
    pub(crate) fn arm(&mut self, call_no: u64, kind: TimerKind, timer: TimerId) {
        let Some(live) = self.live_mut(call_no) else {
            return;
        };
        let slot = match kind {
            TimerKind::Abort => &mut live.abort_timer,
            TimerKind::Retry => &mut live.retry_timer,
        };
        if let Some(old) = slot.replace(timer) {
            self.timers.remove(&old);
        }
        self.timers.insert(timer, (call_no, kind));
    }

    /// A timer fired: which live call it belonged to, if any. An abort
    /// timer opens the gate for the call's `Abort`; a retry timer on an
    /// ordered call rotates the responder (a read has none to rotate).
    pub(crate) fn on_timer(&mut self, timer: TimerId) -> Option<(u64, TimerKind)> {
        let (call_no, kind) = self.timers.remove(&timer)?;
        let call = self.calls.get_mut(&call_no)?;
        let live = call.live.as_mut()?;
        match kind {
            TimerKind::Abort => {
                live.abort_timer = None;
                live.abort_fired = true;
            }
            TimerKind::Retry => {
                live.retry_timer = None;
                live.retries += u32::from(!call.read_only);
            }
        }
        Some((call_no, kind))
    }

    /// Marks a call resolved — first resolution wins, later ones get
    /// `None` — and hands back its transient half: the timers to cancel
    /// (already out of the index) and the proposals to withdraw.
    pub(crate) fn resolve(&mut self, call_no: u64) -> Option<Box<Live>> {
        let live = self.calls.get_mut(&call_no)?.live.take()?;
        for t in live.timers() {
            self.timers.remove(&t);
        }
        Some(live)
    }

    /// Resolves a call and drops its record; `false` if there is none. For
    /// an unreplicated caller only, which has no snapshot to keep resolved
    /// calls for: a late reply finds no call, as it would find a resolved
    /// one.
    pub(crate) fn remove(&mut self, call_no: u64) -> bool {
        self.resolve(call_no);
        self.calls.remove(&call_no).is_some()
    }

    /// Whether `shares` prove `payload` to be the target's reply to live
    /// call `call_no`: with the payload's digest, whether `f_t + 1` of them
    /// carry a good MAC over it for this replica. `None` — before any MAC
    /// work, so there is none to charge — when there is no such live call
    /// or a share names a group other than its target.
    pub(crate) fn bundle_ok(
        &self,
        keys: &mut KeyTable,
        call_no: u64,
        payload: &[u8],
        shares: &[BundleShare],
    ) -> Option<(Digest32, bool)> {
        let call = self.calls.get(&call_no).filter(|c| c.live.is_some())?;
        if shares.iter().any(|s| s.from.group != call.target.0) {
            return None;
        }
        // A reply this call already hashed — validated, or tallied as a
        // read vote — lends its digest to an equal payload.
        let live = call.live.as_ref()?;
        let digest = live
            .validated
            .iter()
            .find(|(_, p)| p.as_ref() == payload)
            .map(|(d, _)| *d)
            .or_else(|| {
                shares
                    .iter()
                    .map(|s| s.reply_digest)
                    .find(|d| live.ro_votes.holds(d, payload))
            })
            .unwrap_or_else(|| reply_digest(payload));
        let me = self.topology.principal(self.group, self.index);
        let tag = request_tag(self.group, call_no);
        let need = self.topology.f(call.target) as usize + 1;
        Some((digest, verify_bundle(keys, shares, &tag, &digest, me, need)))
    }

    /// Tallies one target replica's answer to live fast-path read
    /// `call_no`; once `2f_t + 1` agree, hands back their digest, the
    /// payload and the shares that prove it. One counted vote per target
    /// replica, taken before any MAC work: a Byzantine replica spraying
    /// conflicting replies burns its single vote and costs the receiver
    /// nothing. The share must vouch for the payload it came with and
    /// carry a good MAC for this replica, whose check is charged `mac` on
    /// the caller's clock — the one thing `ctx` is lent for, besides the
    /// two `clbft.ro.*` counters both kinds of caller keep.
    pub(crate) fn read_vote(
        &mut self,
        keys: &mut KeyTable,
        mac: SimDuration,
        call_no: u64,
        payload: Bytes,
        share: BundleShare,
        ctx: &mut Context<'_>,
    ) -> Option<(Digest32, Bytes, Vec<BundleShare>)> {
        let call = self.calls.get_mut(&call_no).filter(|c| c.read_only)?;
        let live = call.live.as_mut()?;
        let (target, digest) = (call.target, share.reply_digest);
        let (target_f, target_n) = (self.topology.f(target), self.topology.n(target));
        if share.from.group != target.0
            || share.from.replica >= target_n
            || !(live.ro_votes.holds(&digest, &payload) || digest == reply_digest(&payload))
        {
            return None;
        }
        if !live.ro_votes.vote(share.from.replica) {
            ctx.metrics().incr("clbft.ro.duplicate_votes");
            return None;
        }
        let me = self.topology.principal(self.group, self.index);
        ctx.spend(mac);
        if !share.verify(keys, &request_tag(self.group, call_no), me) {
            ctx.metrics().incr("clbft.ro.shares_rejected");
            return None;
        }
        if live.ro_votes.add(payload, share) < (2 * target_f + 1).min(target_n) as usize {
            return None;
        }
        let votes = std::mem::take(&mut live.ro_votes);
        let (payload, shares) = votes.take(&digest).expect("quorum digest present");
        Some((digest, payload, shares))
    }

    /// The durable half, ascending by call number and target group.
    pub(crate) fn snapshot(&self) -> (Vec<CallSnap>, Vec<(u32, u64)>) {
        let calls = self
            .calls
            .iter()
            .map(|(no, c)| CallSnap {
                call_no: *no,
                target: c.target.0,
                target_seq: c.target_seq,
                done: c.live.is_none(),
                read_only: c.read_only,
                payload: c.payload.clone(),
            })
            .collect();
        let seqs = self.next_target_seq.iter().map(|(g, s)| (*g, *s)).collect();
        (calls, seqs)
    }

    /// Overwrites the durable half with a certified snapshot. A call live
    /// both here and there keeps its [`Live`] half (timers included).
    /// Returns the timers of calls that are no longer live, to cancel, and
    /// — ascending, so every run arms them in the same order — the live
    /// calls with no retry timer pending, which need one so responder
    /// rotation keeps masking faulty responders after recovery.
    pub(crate) fn restore(
        &mut self,
        calls: &[CallSnap],
        next_target_seq: &[(u32, u64)],
    ) -> (Vec<TimerId>, Vec<u64>) {
        self.next_target_seq = next_target_seq.iter().copied().collect();
        let mut old = std::mem::take(&mut self.calls);
        let mut unarmed = Vec::new();
        for c in calls {
            let live = (!c.done).then(|| {
                let kept = old.remove(&c.call_no).and_then(|o| o.live);
                kept.unwrap_or_default()
            });
            if live.as_ref().is_some_and(|l| l.retry_timer.is_none()) {
                unarmed.push(c.call_no);
            }
            let call = Call {
                target: GroupId(c.target),
                target_seq: c.target_seq,
                read_only: c.read_only,
                payload: c.payload.clone(),
                live,
            };
            self.calls.insert(c.call_no, call);
        }
        // What is left in `old` is resolved in the snapshot, or unknown to it.
        let orphaned = old.values().filter_map(|c| c.live.as_ref());
        let cancel: Vec<TimerId> = orphaned.flat_map(|live| live.timers()).collect();
        for t in &cancel {
            self.timers.remove(t);
        }
        (cancel, unarmed)
    }

    /// Forgets everything (a reboot); returns every pending timer.
    pub(crate) fn wipe(&mut self) -> Vec<TimerId> {
        self.calls.clear();
        self.next_target_seq.clear();
        std::mem::take(&mut self.timers).into_keys().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::DriverSnapshot;
    use pws_simnet::{Node, NodeId, SimTime, Simulation};

    const ME: GroupId = GroupId(0);
    const TARGET: GroupId = GroupId(1);

    /// A table for a 4-replica caller facing a 4-replica target.
    fn calls() -> Calls {
        let mut topo = Topology::new();
        topo.register(ME, (0..4).map(NodeId::from_raw).collect());
        topo.register(TARGET, (4..8).map(NodeId::from_raw).collect());
        Calls::new(ME, 0, Arc::new(topo))
    }

    /// `k` real timer ids. A `TimerId` only comes out of the simulator, so
    /// a lone node sets `k` timers — no replica, no group.
    fn timer_ids(k: usize) -> Vec<TimerId> {
        struct Setter(usize, Vec<TimerId>);
        impl Node for Setter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.1 = (0..self.0)
                    .map(|_| ctx.set_timer(SimDuration::from_secs(1)))
                    .collect();
            }
            fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut Context<'_>) {}
        }
        let mut sim = Simulation::new(0);
        let node = sim.add_node(Box::new(Setter(k, Vec::new())));
        sim.run_until(SimTime::ZERO);
        sim.node_mut::<Setter>(node).unwrap().1.clone()
    }

    fn responder_of(calls: &Calls, call_no: u64) -> u32 {
        match calls.request(call_no, 0) {
            Some((TARGET, PMsg::OutRequest(Event::External { responder, .. }))) => responder,
            other => panic!("an ordered request for the target, got {other:?}"),
        }
    }

    fn payload(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn retry_rotates_the_responder_and_keeps_one_retry_timer() {
        let (mut c, t) = (calls(), timer_ids(3));
        assert!(c.issue(6, TARGET, false, payload("req")));
        assert_eq!(responder_of(&c, 6), 2, "6 % 4");
        c.arm(6, TimerKind::Retry, t[0]);
        assert_eq!(c.on_timer(t[0]), Some((6, TimerKind::Retry)));
        assert!(c.timers.is_empty(), "a fired timer leaves the index");
        assert_eq!(responder_of(&c, 6), 3, "(6 + 1) % 4");
        c.arm(6, TimerKind::Retry, t[1]);
        c.arm(6, TimerKind::Retry, t[2]); // a second arm replaces the first
        assert_eq!(c.timers.keys().collect::<Vec<_>>(), [&t[2]]);
        assert_eq!(c.on_timer(t[1]), None, "the replaced timer is forgotten");
        assert_eq!(c.on_timer(t[2]), Some((6, TimerKind::Retry)));
        assert_eq!(responder_of(&c, 6), 0, "(6 + 2) % 4 wraps");
    }

    #[test]
    fn abort_timer_opens_the_gate_and_a_later_result_still_resolves_once() {
        let (mut c, t) = (calls(), timer_ids(2));
        c.issue(0, TARGET, false, payload("req"));
        c.arm(0, TimerKind::Abort, t[0]);
        c.arm(0, TimerKind::Retry, t[1]);
        assert!(!c.get(0).unwrap().live.as_ref().unwrap().abort_fired);
        assert_eq!(c.on_timer(t[0]), Some((0, TimerKind::Abort)));
        assert!(c.get(0).unwrap().live.as_ref().unwrap().abort_fired);
        // The result is ordered before the abort: it resolves the call, and
        // the abort that follows finds nothing left to resolve.
        let first = c.resolve(0).expect("first resolution");
        assert_eq!(first.timers().collect::<Vec<_>>(), [t[1]], "the retry");
        assert!(c.resolve(0).is_none(), "first resolution wins");
        assert!(c.get(0).unwrap().live.is_none());
    }

    #[test]
    fn resolve_hands_back_submitted_ids_and_empties_the_timer_index() {
        let (mut c, t) = (calls(), timer_ids(4));
        c.issue(0, TARGET, false, payload("a"));
        c.issue(1, TARGET, false, payload("b"));
        for (i, (call_no, kind)) in [
            (0, TimerKind::Abort),
            (0, TimerKind::Retry),
            (1, TimerKind::Abort),
            (1, TimerKind::Retry),
        ]
        .into_iter()
        .enumerate()
        {
            c.arm(call_no, kind, t[i]);
        }
        let ids = [RequestId::new(7, 0), RequestId::new(7, 1)];
        c.live_mut(0).unwrap().submitted = ids.to_vec();
        let resolved = c.resolve(0).unwrap();
        assert_eq!(resolved.submitted, ids);
        assert_eq!(resolved.timers().collect::<Vec<_>>(), [t[0], t[1]]);
        assert_eq!(
            c.timers.keys().collect::<Vec<_>>(),
            [&t[2], &t[3]],
            "only the other call's timers remain"
        );
        assert_eq!(c.on_timer(t[0]), None, "a resolved call's timer is ignored");
    }

    #[test]
    fn read_only_retry_rebroadcasts_without_consuming_a_target_seq() {
        let (mut c, t) = (calls(), timer_ids(1));
        c.issue(0, TARGET, true, payload("read"));
        let read = c.request(0, 0).unwrap();
        let want = PMsg::ReadRequest {
            caller: ME,
            caller_n: 4,
            req_no: 0,
            payload: payload("read"),
        };
        assert_eq!(read, (TARGET, want));
        c.arm(0, TimerKind::Retry, t[0]);
        assert_eq!(c.on_timer(t[0]), Some((0, TimerKind::Retry)));
        assert_eq!(c.request(0, 0).unwrap(), read, "the same read again");
        // The ordered call that follows gets the target's first sequence.
        c.issue(1, TARGET, false, payload("write"));
        assert_eq!(c.get(1).unwrap().target_seq, 0);
        assert_eq!(c.snapshot().1, [(TARGET.0, 1)]);
    }

    #[test]
    fn demoting_a_read_takes_its_target_seq_then_and_retries_rotate_it() {
        let mut c = calls();
        c.issue(0, TARGET, true, payload("read"));
        c.issue(1, TARGET, false, payload("write"));
        assert_eq!(c.demote_or_rotate(0), Some(true));
        assert_eq!(c.get(0).unwrap().target_seq, 1, "after the write's 0");
        assert_eq!(responder_of(&c, 0), 0, "demoting rotated nothing");
        assert_eq!(c.demote_or_rotate(0), Some(false), "ordered by now");
        assert_eq!(responder_of(&c, 0), 1);
        assert_eq!(c.demote_or_rotate(1), Some(false));
        assert_eq!(responder_of(&c, 1), 2, "(1 + 1) % 4");
        assert_eq!(c.snapshot().1, [(TARGET.0, 2)]);
        assert!(c.remove(0) && !c.remove(0));
        assert_eq!(c.demote_or_rotate(0), None, "gone");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unreachable_targets_are_recorded_resolved() {
        let mut c = calls();
        assert!(!c.issue(0, ME, false, payload("self")));
        assert!(!c.issue(1, GroupId(9), true, payload("nobody")));
        assert_eq!(c.request(0, 0), None);
        assert!(c.resolve(1).is_none());
        assert!(c.snapshot().0.iter().all(|s| s.done && s.target_seq == 0));
        assert!(c.snapshot().1.is_empty(), "no sequence consumed");
    }

    #[test]
    fn restore_round_trips_the_durable_half_and_keeps_live_calls_live() {
        let (mut c, t) = (calls(), timer_ids(3));
        c.issue(0, TARGET, false, payload("done-there"));
        c.issue(1, TARGET, true, payload("live-both"));
        c.issue(2, TARGET, false, payload("live-both-unarmed"));
        c.arm(0, TimerKind::Retry, t[0]);
        c.arm(1, TimerKind::Abort, t[1]);
        c.arm(1, TimerKind::Retry, t[2]);
        c.live_mut(1).unwrap().abort_fired = true;

        // A peer two calls ahead: it resolved call 0 and issued 3 and 4.
        let mut peer = calls();
        for (no, read_only) in [(0, false), (1, true), (2, false), (3, false), (4, true)] {
            let p = c
                .get(no)
                .map_or(payload("new"), |call| call.payload.clone());
            peer.issue(no, TARGET, read_only, p);
        }
        peer.resolve(0);
        let encode = |calls: &Calls| {
            let (calls, next_target_seq) = calls.snapshot();
            let snap = DriverSnapshot {
                calls,
                next_target_seq,
                ..DriverSnapshot::default()
            };
            snap.encode()
        };
        let certified = encode(&peer);
        let snap = DriverSnapshot::decode(&certified).unwrap();

        let (cancel, unarmed) = c.restore(&snap.calls, &snap.next_target_seq);
        assert_eq!(encode(&c), certified, "byte-for-byte the peer's table");
        assert_eq!(cancel, [t[0]], "call 0 resolved there: its timer goes");
        assert_eq!(unarmed, [2, 3, 4], "ascending, and not the armed call 1");
        let live = c.get(1).unwrap().live.as_ref().unwrap();
        assert!(live.abort_fired, "a call live on both sides keeps `Live`");
        assert_eq!(c.timers.keys().collect::<Vec<_>>(), [&t[1], &t[2]]);
        assert_eq!(c.on_timer(t[0]), None);
        assert_eq!(c.on_timer(t[2]), Some((1, TimerKind::Retry)));

        // A reboot forgets everything and hands back what is pending.
        assert_eq!(c.wipe(), [t[1]]);
        assert_eq!(c.len(), 0);
        assert_eq!(encode(&c), encode(&calls()));
    }

    #[test]
    fn a_timer_never_indexed_is_ignored() {
        let (mut c, t) = (calls(), timer_ids(2));
        c.issue(0, TARGET, false, payload("req"));
        c.arm(0, TimerKind::Retry, t[0]);
        assert_eq!(c.on_timer(t[1]), None);
        c.arm(5, TimerKind::Retry, t[1]); // no such call: nothing is filed
        assert_eq!(c.on_timer(t[1]), None);
        assert_eq!(c.timers.len(), 1, "the live call's timer is untouched");
    }
}
