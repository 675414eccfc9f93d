//! Unreplicated client endpoints.
//!
//! The paper's endpoints "may be other Web Services or client applications"
//! (§1, footnote 3); an unreplicated client is the degenerate case of a
//! group with `n = 1, f = 0`. [`ClientCore`] implements just the calling
//! half of a driver — issue `OutRequest`s, validate reply bundles — without
//! a voter, so plain simulation nodes (such as the TPC-W remote browser
//! emulators) can invoke replicated services cheaply.

use crate::calls::Calls;
use crate::cost::CostModel;
use crate::executor::CallId;
use crate::group::{GroupId, Topology};
use crate::messages::{decode_pmsg, encode_pmsg, PMsg};
use bytes::Bytes;
use pws_crypto::keys::KeyTable;
use pws_simnet::Context;
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

/// The calling half of a Perpetual driver, for unreplicated endpoints.
#[derive(Debug)]
pub struct ClientCore {
    topology: Arc<Topology>,
    keys: KeyTable,
    cost: CostModel,
    next_call: u64,
    /// The driver's outcall table at `n = 1`, holding the outstanding
    /// calls only: a client takes no snapshot, so a call that resolves or
    /// is abandoned is removed, not kept resolved.
    calls: Calls,
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
            calls: Calls::new(group, 0, topology.clone()),
            topology,
            keys: KeyTable::new(master_seed),
            cost,
            next_call: 0,
        }
    }

    /// Number of calls still awaiting replies.
    pub fn outstanding(&self) -> usize {
        self.calls.len()
    }

    /// Issues an asynchronous call to `target`; the reply arrives later via
    /// [`ClientCore::on_message`].
    ///
    /// # Panics
    ///
    /// Panics if `target` is not registered, or is the client itself.
    pub fn call(&mut self, ctx: &mut Context<'_>, target: GroupId, payload: Bytes) -> CallId {
        self.issue(ctx, target, false, payload)
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
        let call = self.issue(ctx, target, true, payload);
        ctx.metrics().incr("client.reads_issued");
        call
    }

    fn issue(
        &mut self,
        ctx: &mut Context<'_>,
        target: GroupId,
        read_only: bool,
        payload: Bytes,
    ) -> CallId {
        let call_no = self.next_call;
        self.next_call += 1;
        let reachable = self.calls.issue(call_no, target, read_only, payload);
        assert!(reachable, "client call to unreachable group {target:?}");
        self.transmit(ctx, call_no);
        ctx.metrics().incr("client.calls_issued");
        CallId(call_no)
    }

    /// Retransmits an outstanding call, rotating the responder to the next
    /// target replica — the client half of Perpetual's fault handling for
    /// an unresponsive responder. A read-only call that failed to reach its
    /// reply quorum in time (slow replicas, a view change, or more than `f`
    /// lying responders) falls back to the ordered path here instead; its
    /// per-target sequence is consumed only now, so pure-read workloads
    /// that never time out leave the dedup space untouched. No-op for
    /// completed or unknown calls.
    pub fn retry(&mut self, ctx: &mut Context<'_>, call: CallId) {
        let Some(demoted) = self.calls.demote_or_rotate(call.0) else {
            return;
        };
        if demoted {
            ctx.metrics().incr("clbft.ro.fallbacks");
        }
        ctx.metrics().incr("client.call_retries");
        self.transmit(ctx, call.0);
    }

    fn transmit(&mut self, ctx: &mut Context<'_>, call_no: u64) {
        let Some((target, msg)) = self.calls.request(call_no, 0) else {
            return;
        };
        let msg = encode_pmsg(&msg);
        for &node in self.topology.nodes(target) {
            ctx.spend(self.cost.send_cost(msg.len(), 0));
            ctx.send(node, msg.clone());
        }
    }

    /// Abandons a call locally (e.g. after a client-side timeout); later
    /// replies for it are ignored.
    pub fn abandon(&mut self, call: CallId) {
        self.calls.remove(call.0);
    }

    /// Processes an incoming message; returns the validated reply if this
    /// message completed one of our calls: a bundle with `f_t + 1` good
    /// shares, or the fast-path answer that brought a read's tally to
    /// `2f_t + 1` byte-identical payloads.
    pub fn on_message(&mut self, msg: &[u8], ctx: &mut Context<'_>) -> Option<ClientEvent> {
        ctx.spend(self.cost.recv_cost(msg.len(), 0));
        let (req_no, payload, read) = match decode_pmsg(msg).ok()? {
            PMsg::ReadReply {
                req_no,
                payload,
                share,
            } => {
                let (keys, mac) = (&mut self.keys, self.cost.mac);
                let quorum = self.calls.read_vote(keys, mac, req_no, payload, share, ctx);
                (req_no, quorum?.1, true)
            }
            PMsg::ReplyBundle {
                req_no,
                payload,
                shares,
            } => {
                let keys = &mut self.keys;
                let (_, ok) = self.calls.bundle_ok(keys, req_no, &payload, &shares)?;
                ctx.spend(self.cost.mac.saturating_mul(shares.len() as u64));
                if !ok {
                    ctx.metrics().incr("client.bundles_rejected");
                    return None;
                }
                (req_no, payload, false)
            }
            _ => return None,
        };
        self.calls.remove(req_no);
        ctx.metrics().incr("client.calls_completed");
        if read {
            ctx.metrics().incr("clbft.ro.accepted");
        }
        Some(ClientEvent::Reply {
            call: CallId(req_no),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{reply_digest, request_tag};
    use pws_crypto::auth::BundleShare;
    use pws_simnet::{Node, NodeId, Simulation};

    const SERVICE: GroupId = GroupId(0);
    const CLIENT: GroupId = GroupId(1);
    const SEED: u64 = 1;

    /// The client on node 0, facing a 4-replica service on nodes 1..5 that
    /// no simulation below hosts: what the client sends there vanishes.
    fn topo() -> Arc<Topology> {
        let mut t = Topology::new();
        t.register(SERVICE, (1..5).map(NodeId::from_raw).collect());
        t.register(CLIENT, vec![NodeId::from_raw(0)]);
        Arc::new(t)
    }

    /// A lone client node: issues `script` at start (`true` is a read) and
    /// keeps every reply its core validates.
    struct Lone {
        core: ClientCore,
        script: Vec<bool>,
        replies: Vec<(CallId, Bytes)>,
    }
    impl Node for Lone {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for (k, &read) in self.script.iter().enumerate() {
                let payload = Bytes::from(format!("request-{k}"));
                let call = if read {
                    self.core.call_read_only(ctx, SERVICE, payload)
                } else {
                    self.core.call(ctx, SERVICE, payload)
                };
                assert_eq!(call, CallId(k as u64));
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
            if let Some(ClientEvent::Reply { call, payload }) = self.core.on_message(&msg, ctx) {
                self.replies.push((call, payload));
            }
        }
    }

    /// A one-node simulation whose client has issued `script`.
    fn started(script: Vec<bool>) -> Simulation {
        let mut sim = Simulation::new(SEED);
        sim.add_node(Box::new(Lone {
            core: ClientCore::new(CLIENT, topo(), SEED, CostModel::FREE),
            script,
            replies: Vec::new(),
        }));
        sim.run();
        sim
    }

    fn lone(sim: &mut Simulation) -> &mut Lone {
        sim.node_mut(NodeId::from_raw(0)).expect("the client node")
    }

    #[test]
    #[should_panic(expected = "exactly 1 member")]
    fn rejects_replicated_group() {
        let _ = ClientCore::new(SERVICE, topo(), SEED, CostModel::FREE);
    }

    #[test]
    fn bookkeeping() {
        let mut c = ClientCore::new(CLIENT, topo(), SEED, CostModel::FREE);
        assert_eq!(c.outstanding(), 0);
        c.abandon(CallId(0)); // nothing issued yet: a no-op
        let mut sim = started(vec![false, true]);
        assert_eq!(lone(&mut sim).core.outstanding(), 2);
        lone(&mut sim).core.abandon(CallId(0));
        assert_eq!(lone(&mut sim).core.outstanding(), 1);
        lone(&mut sim).core.abandon(CallId(0)); // already gone
        lone(&mut sim).core.abandon(CallId(1));
        assert_eq!(lone(&mut sim).core.outstanding(), 0);
    }

    #[test]
    fn a_resolved_or_abandoned_call_leaves_the_table() {
        let total = 300u64;
        let mut sim = started((0..total).map(|k| k % 3 == 1).collect());
        let (topo, me) = (topo(), NodeId::from_raw(0));
        let mut keys = KeyTable::new(SEED);
        // What the service's `replica` sends to resolve `call_no`: its read
        // reply if the call is a read, else a bundle of `f_t + 1 = 2` shares.
        let mut answer = |replica: u32, call_no: u64| {
            let payload = Bytes::from(format!("reply-{call_no}"));
            let mut share = |from: u32| {
                let (tag, digest) = (request_tag(CLIENT, call_no), reply_digest(&payload));
                let from = topo.principal(SERVICE, from);
                BundleShare::build(&mut keys, from, &tag, digest, &topo.principals(CLIENT))
            };
            let (req_no, payload) = (call_no, payload.clone());
            encode_pmsg(&if call_no % 3 == 1 {
                let share = share(replica);
                PMsg::ReadReply {
                    req_no,
                    payload,
                    share,
                }
            } else {
                let shares = vec![share(replica), share(replica + 1)];
                PMsg::ReplyBundle {
                    req_no,
                    payload,
                    shares,
                }
            })
        };
        for call_no in 0..total {
            match call_no % 3 {
                0 => sim.inject(topo.node(SERVICE, 0), me, answer(0, call_no)),
                // A read needs 2f_t + 1 = 3 matching answers.
                1 => (0..3).for_each(|r| sim.inject(topo.node(SERVICE, r), me, answer(r, call_no))),
                _ => lone(&mut sim).core.abandon(CallId(call_no)),
            }
            sim.run();
            let live = (total - 1 - call_no) as usize;
            let core = &lone(&mut sim).core;
            assert_eq!((core.outstanding(), core.calls.len()), (live, live));
        }
        assert_eq!(lone(&mut sim).replies.len(), 200, "all but the abandoned");
        // Late copies — of a bundle, a read answer, an abandoned call's
        // reply — find no call and complete nothing.
        for call_no in 0..3 {
            sim.inject(topo.node(SERVICE, 2), me, answer(2, call_no));
        }
        sim.run();
        let client = lone(&mut sim);
        assert_eq!((client.replies.len(), client.core.calls.len()), (200, 0));
        let (call, payload) = &client.replies[1];
        assert_eq!((call.0, &payload[..]), (1, &b"reply-1"[..]));
    }
}
