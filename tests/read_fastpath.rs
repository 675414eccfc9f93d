//! End-to-end read-only fast-path tests.
//!
//! The acceptance bar (ISSUE 6): read-only requests are answered from
//! committed state without consuming an agreement slot (`clbft.ro.served`
//! grows while the target's executed sequence does not), clients accept a
//! read only on `2f + 1` matching replies, reads never observe stale
//! state, and a recovering replica refuses the fast path until it has
//! replayed the committed suffix.

use perpetual_ws::{GroupId, PassiveService, PassiveUtils, SystemBuilder};
use pws_perpetual::{CallId, ClientCore, ClientEvent, FaultMode};
use pws_simnet::{Context, Node, NodeId, SimDuration, SimTime, TimerId};
use pws_soap::engine::Engine;
use pws_soap::{MessageContext, XmlNode};

/// A counter with `add` (mutating) and `get` (pure read) operations — the
/// minimal service whose reads can expose stale state.
struct Ctr {
    total: u64,
}

impl PassiveService for Ctr {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        if req.body().name == "add" {
            self.total += req.body().text.trim().parse::<u64>().unwrap_or(0);
        }
        req.reply_with("", XmlNode::new("sum").with_text(self.total.to_string()))
    }

    fn snapshot(&self) -> Vec<u8> {
        self.total.to_be_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let mut b = [0u8; 8];
        b.copy_from_slice(snapshot);
        self.total = u64::from_be_bytes(b);
    }
}

/// A closed-loop client alternating ordered writes with fast-path reads
/// (or issuing pure reads), recording for every read the counter value it
/// observed together with the writes known-completed when it was issued.
struct RwClient {
    core: ClientCore,
    target: GroupId,
    engine: Engine,
    /// `(write, read)` rounds to run; `0` writes per round = pure reads.
    rounds: u64,
    writes_per_round: u64,
    start_delay: SimDuration,
    /// Idle gap between operations, so a script can span fault windows.
    pace: SimDuration,
    rounds_done: u64,
    writes_done: u64,
    /// `(call, is_read, writes completed when issued)`.
    outstanding: Option<(CallId, bool, u64)>,
    /// Per read: `(writes completed at issue, value observed)`.
    reads: Vec<(u64, u64)>,
    start_timer: Option<TimerId>,
    sweep_timer: Option<TimerId>,
}

const SWEEP: SimDuration = SimDuration::from_millis(1_500);

impl RwClient {
    fn new(
        core: ClientCore,
        target: GroupId,
        rounds: u64,
        writes_per_round: u64,
        start_delay: SimDuration,
        pace: SimDuration,
    ) -> Self {
        RwClient {
            core,
            target,
            engine: Engine::with_id_prefix("rw".to_owned()),
            rounds,
            writes_per_round,
            start_delay,
            pace,
            rounds_done: 0,
            writes_done: 0,
            outstanding: None,
            reads: Vec::new(),
            start_timer: None,
            sweep_timer: None,
        }
    }

    fn encode(&mut self, op: &str, text: &str) -> Option<bytes::Bytes> {
        let mut mc = MessageContext::request("urn:svc:ctr", op);
        mc.body_mut().name = op.to_owned();
        mc.body_mut().text = text.to_owned();
        mc.addressing_mut().reply_to = Some("urn:rw".to_owned());
        self.engine.prepare_out(&mut mc).ok()?;
        mc.to_bytes().ok()
    }

    fn fire_next(&mut self, ctx: &mut Context<'_>) {
        if self.rounds_done >= self.rounds {
            return;
        }
        // Each round: `writes_per_round` ordered adds, then one fast read.
        let writes_target = (self.rounds_done + 1) * self.writes_per_round;
        let (call, is_read) = if self.writes_done < writes_target {
            let bytes = self.encode("add", "1").expect("marshal");
            (self.core.call(ctx, self.target, bytes), false)
        } else {
            let bytes = self.encode("get", "").expect("marshal");
            (self.core.call_read_only(ctx, self.target, bytes), true)
        };
        self.outstanding = Some((call, is_read, self.writes_done));
        if self.sweep_timer.is_none() {
            self.sweep_timer = Some(ctx.set_timer(SWEEP));
        }
    }
}

impl Node for RwClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.start_timer = Some(ctx.set_timer(self.start_delay));
    }

    fn on_message(&mut self, _from: NodeId, msg: bytes::Bytes, ctx: &mut Context<'_>) {
        let Some(ClientEvent::Reply { call, payload }) = self.core.on_message(&msg, ctx) else {
            return;
        };
        let Some((expect, is_read, writes_at_issue)) = self.outstanding else {
            return;
        };
        if call != expect {
            return;
        }
        self.outstanding = None;
        if is_read {
            let value = MessageContext::from_bytes(&payload)
                .ok()
                .and_then(|mc| mc.body().text.trim().parse::<u64>().ok())
                .expect("read reply carries the counter value");
            self.reads.push((writes_at_issue, value));
            self.rounds_done += 1;
        } else {
            self.writes_done += 1;
        }
        if self.pace == SimDuration::ZERO {
            self.fire_next(ctx);
        } else {
            self.start_timer = Some(ctx.set_timer(self.pace));
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        if Some(timer) == self.start_timer {
            self.start_timer = None;
            self.fire_next(ctx);
            return;
        }
        if Some(timer) == self.sweep_timer {
            self.sweep_timer = None;
            if let Some((call, _, _)) = self.outstanding {
                self.core.retry(ctx, call);
                self.sweep_timer = Some(ctx.set_timer(SWEEP));
            }
        }
    }
}

fn add_rw_client(
    b: &mut SystemBuilder,
    name: &str,
    rounds: u64,
    writes_per_round: u64,
    start_delay: SimDuration,
    pace: SimDuration,
) {
    b.custom_client(name, move |core, uris| {
        let (_, target) = uris.route("urn:svc:ctr", "0").expect("ctr routes");
        Box::new(RwClient::new(
            core,
            target,
            rounds,
            writes_per_round,
            start_delay,
            pace,
        ))
    });
}

fn client_state(sys: &mut perpetual_ws::System, name: &str) -> (u64, Vec<(u64, u64)>) {
    let node = sys.client_node(name);
    let c = sys.sim_mut().node_mut::<RwClient>(node).expect("rw client");
    (c.rounds_done, c.reads.clone())
}

/// Last executed agreement sequence of every replica in the group.
fn last_execs(sys: &mut perpetual_ws::System, service: &str, n: u32) -> Vec<u64> {
    (0..n)
        .map(|i| {
            sys.replica_mut(service, i)
                .expect("replica exists")
                .bft_last_executed()
                .0
        })
        .collect()
}

fn exec_chains(sys: &mut perpetual_ws::System, service: &str, n: u32) -> Vec<[u8; 32]> {
    (0..n)
        .map(|i| {
            sys.replica_mut(service, i)
                .expect("replica exists")
                .bft_execution_chain()
                .0
        })
        .collect()
}

#[test]
fn pure_read_load_consumes_no_agreement_slots() {
    // A client hammering only reads: every read must be answered from
    // committed state on the fast path, and the target group must never
    // open an agreement slot for them.
    let reads = 40u64;
    let mut b = SystemBuilder::new(6_001);
    b.passive_service("ctr", 4, |_| Box::new(Ctr { total: 0 }));
    add_rw_client(
        &mut b,
        "reader",
        reads,
        0,
        SimDuration::from_secs(5),
        SimDuration::ZERO,
    );
    let mut sys = b.build();

    sys.run_until(SimTime::from_secs(4));
    let before = last_execs(&mut sys, "ctr", 4);
    sys.run_until(SimTime::from_secs(120));

    let (done, read_values) = client_state(&mut sys, "reader");
    assert_eq!(done, reads, "every read answered");
    assert!(
        read_values.iter().all(|&(_, v)| v == 0),
        "counter untouched"
    );

    let m = sys.metrics();
    assert!(
        m.counter("clbft.ro.served") >= reads,
        "fast path served the reads: {}",
        m.counter("clbft.ro.served")
    );
    assert_eq!(m.counter("clbft.ro.fallbacks"), 0, "no ordered demotions");
    assert_eq!(m.counter("client.reads_issued"), reads);
    assert_eq!(
        m.counter("clbft.exec.requests"),
        0,
        "pure-read load must not execute agreement slots"
    );
    let after = last_execs(&mut sys, "ctr", 4);
    assert_eq!(before, after, "reads consumed agreement sequence numbers");
}

#[test]
fn reads_observe_every_completed_write_exactly() {
    // Read-your-writes linearizability for a single caller: a read issued
    // after `k` writes completed must observe exactly `k` — never a stale
    // value.
    let rounds = 25u64;
    let mut b = SystemBuilder::new(6_002);
    b.passive_service("ctr", 4, |_| Box::new(Ctr { total: 0 }));
    add_rw_client(
        &mut b,
        "rw",
        rounds,
        2,
        SimDuration::from_millis(100),
        SimDuration::ZERO,
    );
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(180));

    let (done, read_values) = client_state(&mut sys, "rw");
    assert_eq!(done, rounds, "every round done");
    for (i, &(writes, value)) in read_values.iter().enumerate() {
        assert_eq!(
            value, writes,
            "read {i} observed {value} after {writes} writes"
        );
    }
    let m = sys.metrics();
    assert!(m.counter("clbft.ro.served") > 0);
}

#[test]
fn reads_survive_a_primary_crash_without_anomalies() {
    // Crash the target primary mid-run under a read/write mix: the view
    // change closes the read gate on the survivors, yet every read still
    // observes exactly the completed writes and the surviving replicas
    // end digest-identical.
    let rounds = 15u64;
    let mut b = SystemBuilder::new(6_003);
    b.passive_service("ctr", 4, |_| Box::new(Ctr { total: 0 }));
    add_rw_client(
        &mut b,
        "rw",
        rounds,
        2,
        SimDuration::from_millis(100),
        SimDuration::from_millis(100),
    );
    let mut sys = b.build();

    // Let traffic flow, then crash the initial primary (replica 0 of the
    // first-registered service is simnet node 0).
    sys.run_until(SimTime::from_secs(3));
    sys.sim_mut().net_mut().crash(NodeId::from_raw(0));
    sys.run_until(SimTime::from_secs(240));

    let (done, read_values) = client_state(&mut sys, "rw");
    assert_eq!(done, rounds, "every round completed despite the crash");
    for (i, &(writes, value)) in read_values.iter().enumerate() {
        assert_eq!(value, writes, "read {i} observed {value} after {writes}");
    }
    let m = sys.metrics();
    assert!(
        m.counter("perpetual.view_changes") > 0,
        "the crash forced a view change"
    );
    // Surviving replicas converge (the crashed node is frozen mid-flight).
    let chains = exec_chains(&mut sys, "ctr", 4);
    let execs = last_execs(&mut sys, "ctr", 4);
    for i in 2..4 {
        assert_eq!(execs[1], execs[i], "last_exec diverges at replica {i}");
        assert_eq!(chains[1], chains[i], "exec chain diverges at replica {i}");
    }
}

#[test]
fn recovering_replica_refuses_reads_until_caught_up() {
    // Satellite 3: a replica wiped to a stale state must gate the fast
    // path until state transfer replays the committed suffix — its frozen
    // counter must never corrupt a read quorum, and while recovering it
    // refuses rather than serves.
    let rounds = 30u64;
    let mut b = SystemBuilder::new(6_004);
    b.checkpoint_interval(8);
    b.max_batch_size(1);
    b.passive_service("ctr", 4, |_| Box::new(Ctr { total: 0 }));
    b.fault("ctr", 3, FaultMode::StaleDrop { after_ms: 2_000 });
    add_rw_client(
        &mut b,
        "rw",
        rounds,
        2,
        SimDuration::from_millis(100),
        SimDuration::from_millis(100),
    );
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(300));

    let (done, read_values) = client_state(&mut sys, "rw");
    assert_eq!(done, rounds, "every round completed through the recovery");
    for (i, &(writes, value)) in read_values.iter().enumerate() {
        assert_eq!(
            value, writes,
            "read {i} observed {value} after {writes} writes — a stale \
             replica leaked into a read quorum"
        );
    }
    let m = sys.metrics();
    assert!(m.counter("clbft.ro.served") > 0);
    assert!(
        m.counter("clbft.recovery.installs") >= 1,
        "the wiped replica must recover via state transfer"
    );
    // Digest-checked convergence after recovery.
    let chains = exec_chains(&mut sys, "ctr", 4);
    for i in 1..4 {
        assert_eq!(chains[0], chains[i], "exec chain diverges at replica {i}");
    }
}
