//! Unreplicated client endpoints.
//!
//! The paper's endpoints "may be other Web Services or client applications"
//! (§1, footnote 3); an unreplicated client is the degenerate case of a
//! group with `n = 1, f = 0`. [`ClientCore`] implements just the calling
//! half of a driver — issue `OutRequest`s, validate reply bundles — without
//! a voter, so plain simulation nodes (such as the TPC-W remote browser
//! emulators) can invoke replicated services cheaply.

use crate::cost::CostModel;
use crate::event::Event;
use crate::executor::CallId;
use crate::group::{GroupId, Topology};
use crate::messages::{decode_pmsg, encode_pmsg, reply_digest, request_tag, PMsg, ShareVotes};
use bytes::Bytes;
use pws_crypto::auth::verify_bundle;
use pws_crypto::keys::KeyTable;
use pws_simnet::Context;
use std::collections::HashMap;
use std::sync::Arc;

/// What a client observes about one of its calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A validated reply arrived.
    Reply {
        /// The completed call.
        call: CallId,
        /// Reply payload.
        payload: Bytes,
    },
}

#[derive(Debug)]
struct Pending {
    target: GroupId,
    /// Dense per-target dedup sequence (see `Event::External::target_seq`).
    /// A read-only call holds `0` until (and unless) it falls back to the
    /// ordered path, which assigns the sequence lazily.
    target_seq: u64,
    done: bool,
    /// Still on the read-only fast path. Cleared when the call falls back.
    read_only: bool,
    payload: Bytes,
    retries: u64,
}

/// The calling half of a Perpetual driver, for unreplicated endpoints.
#[derive(Debug)]
pub struct ClientCore {
    group: GroupId,
    topology: Arc<Topology>,
    keys: KeyTable,
    cost: CostModel,
    next_call: u64,
    /// Dense per-target sequence counters (the dedup key space; a sharded
    /// target's shards each see a contiguous stream).
    next_target_seq: HashMap<GroupId, u64>,
    pending: HashMap<u64, Pending>,
    /// Read-reply tallies for outstanding fast-path reads.
    read_tallies: HashMap<u64, ShareVotes>,
}

impl ClientCore {
    /// Creates a client for the (size-1) `group` registered in `topology`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not registered or not of size 1.
    pub fn new(group: GroupId, topology: Arc<Topology>, master_seed: u64, cost: CostModel) -> Self {
        assert_eq!(topology.n(group), 1, "client groups have exactly 1 member");
        ClientCore {
            group,
            topology,
            keys: KeyTable::new(master_seed),
            cost,
            next_call: 0,
            next_target_seq: HashMap::new(),
            pending: HashMap::new(),
            read_tallies: HashMap::new(),
        }
    }

    /// The client's group id.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Number of calls still awaiting replies.
    pub fn outstanding(&self) -> usize {
        self.pending.values().filter(|p| !p.done).count()
    }

    /// Issues an asynchronous call to `target`; the reply arrives later via
    /// [`ClientCore::on_message`].
    pub fn call(&mut self, ctx: &mut Context<'_>, target: GroupId, payload: Bytes) -> CallId {
        let call_no = self.next_call;
        self.next_call += 1;
        let seq = self.next_target_seq.entry(target).or_insert(0);
        let target_seq = *seq;
        *seq += 1;
        self.pending.insert(
            call_no,
            Pending {
                target,
                target_seq,
                done: false,
                read_only: false,
                payload: payload.clone(),
                retries: 0,
            },
        );
        self.transmit(ctx, call_no, target, target_seq, 0, payload);
        ctx.metrics().incr("client.calls_issued");
        CallId(call_no)
    }

    /// Issues an ordered *configuration* call: the payload is wrapped with
    /// the [`crate::event::CONFIG_PREFIX`] marker so the target group
    /// orders it as a CLBFT config record — digest-covered like any
    /// request, but sealing a sequence slot of its own. Used for
    /// transaction decisions and reshard steps, where the slot boundary is
    /// the atomic configuration point.
    pub fn call_config(
        &mut self,
        ctx: &mut Context<'_>,
        target: GroupId,
        payload: Bytes,
    ) -> CallId {
        let call = self.call(ctx, target, crate::event::config_payload(&payload));
        ctx.metrics().incr("client.config_calls");
        call
    }

    /// Issues a *read-only* call on the fast path: every target replica is
    /// asked to answer from committed state, and the reply is accepted once
    /// `2f_t + 1` matching copies arrive — no agreement slot is consumed at
    /// the target. A [`ClientCore::retry`] on a still-read call falls back
    /// to the ordered path (consuming the per-target sequence then), so
    /// liveness never depends on the optimization.
    pub fn call_read_only(
        &mut self,
        ctx: &mut Context<'_>,
        target: GroupId,
        payload: Bytes,
    ) -> CallId {
        let call_no = self.next_call;
        self.next_call += 1;
        self.pending.insert(
            call_no,
            Pending {
                target,
                target_seq: 0,
                done: false,
                read_only: true,
                payload: payload.clone(),
                retries: 0,
            },
        );
        self.transmit_read(ctx, call_no, target, payload);
        ctx.metrics().incr("client.calls_issued");
        ctx.metrics().incr("client.reads_issued");
        CallId(call_no)
    }

    /// Retransmits an outstanding call, rotating the responder to the next
    /// target replica — the client half of Perpetual's fault handling for
    /// an unresponsive responder. A read-only call that failed to reach its
    /// reply quorum in time falls back to the ordered path here instead.
    /// No-op for completed or unknown calls.
    pub fn retry(&mut self, ctx: &mut Context<'_>, call: CallId) {
        let Some(p) = self.pending.get_mut(&call.0) else {
            return;
        };
        if p.done {
            return;
        }
        if p.read_only {
            // Quorum failure (slow replicas, view change, or > f lying
            // responders): demote to the ordered path. The per-target
            // sequence is consumed only now — pure-read workloads that
            // never time out leave the dedup space untouched.
            let target = p.target;
            let payload = p.payload.clone();
            let seq = self.next_target_seq.entry(target).or_insert(0);
            let target_seq = *seq;
            *seq += 1;
            let p = self.pending.get_mut(&call.0).expect("still pending");
            p.read_only = false;
            p.target_seq = target_seq;
            self.read_tallies.remove(&call.0);
            ctx.metrics().incr("clbft.ro.fallbacks");
            ctx.metrics().incr("client.call_retries");
            self.transmit(ctx, call.0, target, target_seq, 0, payload);
            return;
        }
        p.retries += 1;
        let (target, target_seq, retries, payload) =
            (p.target, p.target_seq, p.retries, p.payload.clone());
        ctx.metrics().incr("client.call_retries");
        self.transmit(ctx, call.0, target, target_seq, retries, payload);
    }

    fn transmit(
        &mut self,
        ctx: &mut Context<'_>,
        call_no: u64,
        target: GroupId,
        target_seq: u64,
        retries: u64,
        payload: Bytes,
    ) {
        let target_n = self.topology.n(target);
        let ev = Event::External {
            caller: self.group,
            caller_n: 1,
            req_no: call_no,
            target_seq,
            responder: ((call_no + retries) % target_n as u64) as u32,
            timeout_ms: 0,
            payload,
        };
        let msg = encode_pmsg(&PMsg::OutRequest(ev));
        for &node in self.topology.nodes(target) {
            ctx.spend(self.cost.send_cost(msg.len(), 0));
            ctx.send(node, msg.clone());
        }
    }

    fn transmit_read(
        &mut self,
        ctx: &mut Context<'_>,
        call_no: u64,
        target: GroupId,
        payload: Bytes,
    ) {
        let msg = encode_pmsg(&PMsg::ReadRequest {
            caller: self.group,
            caller_n: 1,
            req_no: call_no,
            payload,
        });
        for &node in self.topology.nodes(target) {
            ctx.spend(self.cost.send_cost(msg.len(), 0));
            ctx.send(node, msg.clone());
        }
    }

    /// Abandons a call locally (e.g. after a client-side timeout); later
    /// replies for it are ignored.
    pub fn abandon(&mut self, call: CallId) {
        if let Some(p) = self.pending.get_mut(&call.0) {
            p.done = true;
        }
    }

    /// Processes an incoming message; returns the validated reply if this
    /// message completed one of our calls.
    pub fn on_message(&mut self, msg: &[u8], ctx: &mut Context<'_>) -> Option<ClientEvent> {
        ctx.spend(self.cost.recv_cost(msg.len(), 0));
        let decoded = decode_pmsg(msg);
        if let Ok(PMsg::ReadReply {
            req_no,
            payload,
            share,
        }) = decoded
        {
            return self.on_read_reply(req_no, payload, share, ctx);
        }
        let Ok(PMsg::ReplyBundle {
            req_no,
            payload,
            shares,
        }) = decoded
        else {
            return None;
        };
        let p = self.pending.get_mut(&req_no)?;
        if p.done {
            return None;
        }
        let target_f = self.topology.f(p.target) as usize;
        if shares.iter().any(|s| s.from.group != p.target.0) {
            return None;
        }
        let digest = reply_digest(&payload);
        let me = self.topology.principal(self.group, 0);
        let tag = request_tag(self.group, req_no);
        ctx.spend(self.cost.mac.saturating_mul(shares.len() as u64));
        if !verify_bundle(&mut self.keys, &shares, &tag, &digest, me, target_f + 1) {
            ctx.metrics().incr("client.bundles_rejected");
            return None;
        }
        p.done = true;
        ctx.metrics().incr("client.calls_completed");
        Some(ClientEvent::Reply {
            call: CallId(req_no),
            payload,
        })
    }

    /// Tallies one replica's fast-path read answer; completes the call once
    /// `2f_t + 1` target replicas returned byte-identical payloads. The
    /// share MAC authenticates the claimed replica (pairwise keys), and one
    /// vote is counted per replica regardless of how many replies it sends.
    fn on_read_reply(
        &mut self,
        req_no: u64,
        payload: Bytes,
        share: pws_crypto::auth::BundleShare,
        ctx: &mut Context<'_>,
    ) -> Option<ClientEvent> {
        let p = self.pending.get(&req_no)?;
        if p.done || !p.read_only {
            return None;
        }
        let target = p.target;
        if share.from.group != target.0 || share.from.replica >= self.topology.n(target) {
            return None;
        }
        if share.reply_digest != reply_digest(&payload) {
            return None;
        }
        if !self
            .read_tallies
            .entry(req_no)
            .or_default()
            .vote(share.from.replica)
        {
            ctx.metrics().incr("clbft.ro.duplicate_votes");
            return None;
        }
        let me = self.topology.principal(self.group, 0);
        let tag = request_tag(self.group, req_no);
        ctx.spend(self.cost.mac);
        if !share.verify(&mut self.keys, &tag, me) {
            ctx.metrics().incr("clbft.ro.shares_rejected");
            return None;
        }
        let digest = share.reply_digest;
        let tally = self.read_tallies.get_mut(&req_no).expect("vote counted");
        let agreeing = tally.add(payload, share);
        let target_f = self.topology.f(target) as usize;
        let target_n = self.topology.n(target) as usize;
        let threshold = (2 * target_f + 1).min(target_n);
        if agreeing < threshold {
            return None;
        }
        let (payload, _) = self
            .read_tallies
            .remove(&req_no)
            .and_then(|tally| tally.take(&digest))
            .expect("quorum digest present");
        self.pending.get_mut(&req_no).expect("pending read").done = true;
        ctx.metrics().incr("client.calls_completed");
        ctx.metrics().incr("clbft.ro.accepted");
        Some(ClientEvent::Reply {
            call: CallId(req_no),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_simnet::NodeId;

    fn topo() -> Arc<Topology> {
        let mut t = Topology::new();
        t.register(GroupId(0), (0..4).map(NodeId::from_raw).collect());
        t.register(GroupId(1), vec![NodeId::from_raw(4)]);
        Arc::new(t)
    }

    #[test]
    #[should_panic(expected = "exactly 1 member")]
    fn rejects_replicated_group() {
        let t = topo();
        let _ = ClientCore::new(GroupId(0), t, 1, CostModel::FREE);
    }

    #[test]
    fn bookkeeping() {
        let t = topo();
        let mut c = ClientCore::new(GroupId(1), t, 1, CostModel::FREE);
        assert_eq!(c.group(), GroupId(1));
        assert_eq!(c.outstanding(), 0);
        c.pending.insert(
            0,
            Pending {
                target: GroupId(0),
                target_seq: 0,
                done: false,
                read_only: false,
                payload: Bytes::new(),
                retries: 0,
            },
        );
        assert_eq!(c.outstanding(), 1);
        c.abandon(CallId(0));
        assert_eq!(c.outstanding(), 0);
    }
}
