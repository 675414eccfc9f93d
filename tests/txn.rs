//! Cross-shard transactions and live resharding end-to-end (ISSUE 7).
//!
//! The acceptance bar: a cross-shard transaction under a flapping
//! partition — and under a coordinator-primary crash between prepare and
//! commit — commits or aborts atomically on every participant with zero
//! duplicate executions; `System::add_shard` under a 600-request load
//! completes with zero client-visible errors while migrating exactly the
//! keys rendezvous routing reassigns; and same-seed runs of the whole
//! elastic scenario are byte-identical.

use bytes::Bytes;
use perpetual_ws::{
    Poll, RendezvousRouter, Router, Service, ServiceCtx, ServiceExecutor, System, SystemBuilder,
    TxnService, TxnShim, UriMap, WsEvent, TXN_ABORTED_FAULT, WRONG_SHARD_FAULT,
};
use proptest::prelude::*;
use pws_perpetual::{CallId, ClientCore, ClientEvent};
use pws_simnet::{Context, Node, NodeId, SimDuration, SimTime, TimerId};
use pws_soap::engine::Engine;
use pws_soap::{MessageContext, XmlNode};
use std::collections::BTreeMap;
use std::sync::Arc;

// ------------------------------------------------------------------ fixture

/// A transactional KV fixture: every applied operation increments a
/// per-key counter, so "exactly once" is directly auditable — a key's
/// count must equal the number of committed operations that named it.
struct TxnKv {
    shard: u32,
    counts: BTreeMap<String, u64>,
}

impl TxnKv {
    fn new(shard: u32) -> Self {
        TxnKv {
            shard,
            counts: BTreeMap::new(),
        }
    }

    fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl Service for TxnKv {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        if let WsEvent::Request { request } = ev {
            let key = request.body().text.clone();
            let n = self.counts.entry(key.clone()).or_insert(0);
            *n += 1;
            let reply = request.reply_with(
                "",
                XmlNode::new("putResult").with_text(format!("{}:{key}={n}", self.shard)),
            );
            ctx.reply(reply, &request);
        }
        Poll::Next
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend((self.counts.len() as u32).to_be_bytes());
        for (k, n) in &self.counts {
            v.extend((k.len() as u32).to_be_bytes());
            v.extend(k.as_bytes());
            v.extend(n.to_be_bytes());
        }
        v
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.counts.clear();
        let mut at = 4usize;
        let len = u32::from_be_bytes(snapshot[0..4].try_into().unwrap()) as usize;
        for _ in 0..len {
            let kl = u32::from_be_bytes(snapshot[at..at + 4].try_into().unwrap()) as usize;
            at += 4;
            let k = String::from_utf8(snapshot[at..at + kl].to_vec()).unwrap();
            at += kl;
            let n = u64::from_be_bytes(snapshot[at..at + 8].try_into().unwrap());
            at += 8;
            self.counts.insert(k, n);
        }
    }
}

impl TxnService for TxnKv {
    fn txn_execute(&mut self, _op: &str, keys: &[String]) -> String {
        let mut details = Vec::new();
        for k in keys {
            let n = self.counts.entry(k.clone()).or_insert(0);
            *n += 1;
            details.push(format!("{}:{k}={n}", self.shard));
        }
        details.join(",")
    }

    fn export_keys(&mut self, moved: &dyn Fn(&str) -> bool) -> Vec<(String, Vec<u8>)> {
        let gone: Vec<String> = self.counts.keys().filter(|k| moved(k)).cloned().collect();
        gone.iter()
            .map(|k| {
                let n = self.counts.remove(k).unwrap();
                (k.clone(), n.to_be_bytes().to_vec())
            })
            .collect()
    }

    fn import_keys(&mut self, entries: &[(String, Vec<u8>)]) {
        for (k, v) in entries {
            let n = u64::from_be_bytes(v.as_slice().try_into().unwrap());
            *self.counts.entry(k.clone()).or_insert(0) += n;
        }
    }
}

// ------------------------------------------------------------------- driver

/// A closed-loop client that fires multi-key (cross-shard) requests one at
/// a time and tallies commit replies vs. typed abort faults.
struct TxnDriver {
    core: ClientCore,
    uris: Arc<UriMap>,
    engine: Engine,
    pairs: Vec<String>,
    next: usize,
    outstanding: Option<(CallId, SimTime)>,
    inflight: Option<String>,
    retried: bool,
    commits: u64,
    aborts: u64,
    redirect_retries: u64,
    other_faults: u64,
    sweep: Option<TimerId>,
}

const DRIVER_SWEEP: SimDuration = SimDuration::from_millis(900);

impl TxnDriver {
    fn new(core: ClientCore, uris: Arc<UriMap>, pairs: Vec<String>) -> Self {
        TxnDriver {
            core,
            uris,
            engine: Engine::with_id_prefix("txn-driver".to_owned()),
            pairs,
            next: 0,
            outstanding: None,
            inflight: None,
            retried: false,
            commits: 0,
            aborts: 0,
            redirect_retries: 0,
            other_faults: 0,
            sweep: None,
        }
    }

    fn fire(&mut self, ctx: &mut Context<'_>) {
        let Some(keys) = self.pairs.get(self.next).cloned() else {
            return;
        };
        self.next += 1;
        self.retried = false;
        self.fire_keys(keys, ctx);
    }

    /// Re-routes at the *current* epoch and fires: the typed WrongShard
    /// guidance is "re-resolve and retry once", and re-routing is what
    /// makes the bounded retry land on the key's new owner.
    fn fire_keys(&mut self, keys: String, ctx: &mut Context<'_>) {
        let mut mc = MessageContext::request("urn:svc:kv", "put");
        mc.body_mut().name = "put".into();
        mc.body_mut().text = keys.clone();
        self.inflight = Some(keys);
        mc.addressing_mut().reply_to = Some("urn:txn-driver".to_owned());
        let (_, target) = self
            .uris
            .route("urn:svc:kv", &mc.body().text)
            .expect("cross-shard keys route to the coordinator");
        if self.engine.prepare_out(&mut mc).is_err() {
            return;
        }
        let Ok(bytes) = mc.to_bytes() else { return };
        let call = self.core.call(ctx, target, bytes);
        self.outstanding = Some((call, ctx.now()));
        if self.sweep.is_none() {
            self.sweep = Some(ctx.set_timer(DRIVER_SWEEP));
        }
    }
}

impl std::fmt::Debug for TxnDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnDriver")
            .field("next", &self.next)
            .field("commits", &self.commits)
            .field("aborts", &self.aborts)
            .finish_non_exhaustive()
    }
}

impl Node for TxnDriver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.fire(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if let Some(ClientEvent::Reply { call, payload }) = self.core.on_message(&msg, ctx) {
            if self.outstanding.map(|(c, _)| c) != Some(call) {
                return;
            }
            self.outstanding = None;
            if let Ok(mc) = MessageContext::from_bytes(&payload) {
                match mc.envelope().as_fault() {
                    Some(f) if f.code == TXN_ABORTED_FAULT => self.aborts += 1,
                    Some(f) if f.code == WRONG_SHARD_FAULT && !self.retried => {
                        // Typed retry guidance: one bounded re-route.
                        self.retried = true;
                        self.redirect_retries += 1;
                        if let Some(keys) = self.inflight.take() {
                            self.fire_keys(keys, ctx);
                        }
                        return;
                    }
                    Some(_) => self.other_faults += 1,
                    None if mc.body().text.starts_with("txn=commit") => self.commits += 1,
                    None => self.other_faults += 1,
                }
            }
            self.fire(ctx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        if Some(timer) != self.sweep {
            return;
        }
        self.sweep = None;
        if let Some((call, sent)) = self.outstanding {
            if ctx.now() - sent >= DRIVER_SWEEP {
                self.core.retry(ctx, call);
            }
            self.sweep = Some(ctx.set_timer(DRIVER_SWEEP));
        }
    }
}

// ------------------------------------------------------------------ helpers

/// `count` key pairs `a|b` where `a` is owned by shard 0 and `b` by
/// shard 1 (of 2), all keys distinct — so sequential transactions never
/// conflict on locks and the coordinator is always shard 0.
fn cross_pairs(count: usize) -> Vec<String> {
    let router = RendezvousRouter::new();
    let mut on0 = Vec::new();
    let mut on1 = Vec::new();
    let mut i = 0u64;
    while on0.len() < count || on1.len() < count {
        let k = format!("x{i}");
        if router.shard(&k, 2) == 0 {
            on0.push(k);
        } else {
            on1.push(k);
        }
        i += 1;
    }
    (0..count)
        .map(|j| format!("{}|{}", on0[j], on1[j]))
        .collect()
}

fn kv_state(sys: &mut System, shard: u32, idx: u32) -> (u64, usize, usize) {
    let name = format!("kv#{shard}");
    let shim = sys
        .replica_mut(&name, idx)
        .expect("replica exists")
        .executor_mut::<ServiceExecutor>()
        .expect("service executor")
        .service_mut::<TxnShim>()
        .expect("txn shim");
    let locked = shim.locked_keys();
    let fenced = shim.fenced_keys().count();
    let kv = shim.inner_mut::<TxnKv>().expect("kv inner");
    (kv.total(), locked, fenced)
}

fn build_txn_system(seed: u64, pairs: Vec<String>) -> System {
    let mut b = SystemBuilder::new(seed);
    b.checkpoint_interval(16);
    b.sharded_txn("kv", 2, 4, |shard, _| Box::new(TxnKv::new(shard)));
    b.custom_client("driver", move |core, uris| {
        Box::new(TxnDriver::new(core, uris, pairs))
    });
    b.build()
}

fn driver_tally(sys: &mut System) -> (u64, u64, u64) {
    let node = sys.client_node("driver");
    let d = sys
        .sim_mut()
        .node_mut::<TxnDriver>(node)
        .expect("txn driver");
    (d.commits, d.aborts, d.other_faults)
}

// -------------------------------------------------------------------- tests

#[test]
fn cross_shard_transactions_are_atomic_under_flapping_partitions() {
    // Flap one backup of each shard against all its peers (40 ms down /
    // 60 ms up) through the first stretch of a 60-transaction stream:
    // links that come back just long enough to leak partial quorums are
    // the churniest schedule the simnet offers. The load runs well past
    // the heal so checkpoint boundaries pull the stragglers forward.
    // Every transaction must still resolve, and each shard's per-key
    // counters must equal the commit count exactly — no duplicate, no
    // lost, no half-applied txn.
    let total = 60usize;
    let mut sys = build_txn_system(7_001, cross_pairs(total));
    // kv#0 = nodes 0..4, kv#1 = nodes 4..8 (services register first).
    for (flappy, peers) in [(3u32, 0u32..3), (7u32, 4u32..7)] {
        for peer in peers {
            sys.sim_mut().net_mut().flap_partition_both(
                NodeId::from_raw(flappy),
                NodeId::from_raw(peer),
                SimTime::from_millis(50),
                SimDuration::from_millis(40),
                SimDuration::from_millis(60),
            );
        }
    }
    sys.run_until(SimTime::from_millis(400));
    sys.sim_mut().net_mut().clear_flaps();
    sys.run_until(SimTime::from_secs(240));

    let (commits, aborts, other) = driver_tally(&mut sys);
    assert_eq!(other, 0, "no untyped failures");
    assert_eq!(commits + aborts, total as u64, "every transaction resolved");
    assert!(commits > 0, "some transactions must commit");

    // Atomic and exactly-once at every replica of both shards: each
    // committed pair incremented exactly one key on each shard.
    for shard in 0..2 {
        for idx in 0..4 {
            let (applied, locked, _) = kv_state(&mut sys, shard, idx);
            assert_eq!(
                applied, commits,
                "shard {shard} replica {idx} applied {applied} != {commits} commits"
            );
            assert_eq!(locked, 0, "shard {shard} replica {idx} holds locks");
        }
        // Replica convergence: identical execution chains per shard.
        let name = format!("kv#{shard}");
        let chain0 = sys.replica_mut(&name, 0).unwrap().bft_execution_chain();
        for idx in 1..4 {
            let r = sys.replica_mut(&name, idx).unwrap();
            assert_eq!(r.bft_execution_chain(), chain0, "shard {shard} diverged");
        }
    }
    // Every coordinator replica that *executed* the decision counted it;
    // a straggler that caught up through checkpoint state transfer
    // installs the result without replaying, so the quorum bound is the
    // floor and full replication the ceiling.
    let committed_metric = sys.metrics().counter("clbft.txn.committed");
    assert!(
        (3 * commits..=4 * commits).contains(&committed_metric),
        "decision ordering count {committed_metric} out of band for {commits} commits"
    );
}

#[test]
fn coordinator_primary_crash_between_prepare_and_commit_converges() {
    // Drive cross-shard transactions and crash the coordinator shard's
    // primary at the precise window where a participant has ordered a
    // prepare (clbft.txn.prepared moved) but no coordinator replica has
    // ordered the decision yet (clbft.txn.committed still behind). The
    // surviving three replicas must view-change, finish the in-flight
    // 2PC from their replicated coordinator state, and keep serving —
    // with zero duplicate executions anywhere.
    let total = 12usize;
    let mut sys = build_txn_system(7_002, cross_pairs(total));
    let mut crashed = false;
    for _ in 0..4_000 {
        sys.run_for(SimDuration::from_millis(1));
        let prepared = sys.metrics().counter("clbft.txn.prepared");
        let committed = sys.metrics().counter("clbft.txn.committed");
        let aborted = sys.metrics().counter("clbft.txn.aborted");
        if prepared > 0 && committed + aborted < prepared {
            // Between prepare and commit: kill the coordinator primary.
            sys.sim_mut().net_mut().crash(NodeId::from_raw(0));
            crashed = true;
            break;
        }
    }
    assert!(crashed, "never caught a transaction between phases");
    sys.run_until(SimTime::from_secs(300));

    let (commits, aborts, other) = driver_tally(&mut sys);
    assert_eq!(other, 0, "no untyped failures");
    assert_eq!(commits + aborts, total as u64, "every transaction resolved");
    assert!(
        commits > 0,
        "the group must keep committing after the crash"
    );
    assert!(
        sys.metrics().counter("perpetual.view_changes") > 0,
        "the crash must force a view change"
    );

    // Zero duplicates on every *surviving* replica (replica 0 of shard 0
    // is frozen mid-flight by the crash), and full participant agreement.
    for idx in 1..4 {
        let (applied, locked, _) = kv_state(&mut sys, 0, idx);
        assert_eq!(applied, commits, "coordinator replica {idx} duplicated");
        assert_eq!(locked, 0, "coordinator replica {idx} holds locks");
    }
    for idx in 0..4 {
        let (applied, locked, _) = kv_state(&mut sys, 1, idx);
        assert_eq!(applied, commits, "participant replica {idx} duplicated");
        assert_eq!(locked, 0, "participant replica {idx} holds locks");
    }
    let chain0 = sys.replica_mut("kv#0", 1).unwrap().bft_execution_chain();
    for idx in 2..4 {
        let r = sys.replica_mut("kv#0", idx).unwrap();
        assert_eq!(r.bft_execution_chain(), chain0, "survivors diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash-timing sweep: whatever instant the coordinator primary dies
    /// at — before, between, or after the 2PC phases — and whatever the
    /// network schedule (seed), both shards apply exactly the committed
    /// transactions: equal totals on every surviving replica, zero
    /// duplicates, no stuck locks.
    #[test]
    fn coordinator_crash_at_any_instant_never_duplicates(
        seed in 1u64..10_000,
        crash_ms in 5u64..160,
    ) {
        let total = 6usize;
        let mut sys = build_txn_system(seed, cross_pairs(total));
        sys.run_for(SimDuration::from_millis(crash_ms));
        sys.sim_mut().net_mut().crash(NodeId::from_raw(0));
        sys.run_until(SimTime::from_secs(300));

        let (commits, aborts, other) = driver_tally(&mut sys);
        prop_assert_eq!(other, 0);
        prop_assert_eq!(commits + aborts, total as u64);
        for idx in 1..4 {
            let (applied, locked, _) = kv_state(&mut sys, 0, idx);
            prop_assert_eq!(applied, commits);
            prop_assert_eq!(locked, 0);
        }
        for idx in 0..4 {
            let (applied, locked, _) = kv_state(&mut sys, 1, idx);
            prop_assert_eq!(applied, commits);
            prop_assert_eq!(locked, 0);
        }
    }
}

// --------------------------------------------------------------- resharding

/// Runs the full elastic scenario: 2 shards + 1 provisioned spare under a
/// 600-request scripted load, `add_shard` fired mid-load, run to
/// completion. Returns the trace digest plus the observables the
/// assertions need, so the same-seed determinism check reuses one body.
fn elastic_run(seed: u64) -> (u64, u64, u64, u64) {
    let per_client = 300u64;
    let mut b = SystemBuilder::new(seed);
    b.checkpoint_interval(16);
    b.sharded_txn("kv", 2, 4, |shard, _| Box::new(TxnKv::new(shard)));
    b.add_shard("kv"); // provision one dormant spare (kv#2)
    b.scripted_client_windowed("alice", "kv", per_client, 8);
    b.scripted_client_windowed("bob", "kv", per_client, 8);
    let mut sys = b.build();

    // Let part of the load land, then grow the deployment online. To
    // exercise the typed redirect deterministically, make alice's links
    // *to* the old shards slow just before the flip: she keeps firing
    // old-epoch requests into an 800 ms pipe, the flip and the export
    // fences land within ~100 ms, and her slow requests then arrive
    // post-fence — any moved key among them draws `pws:WrongShard` and
    // must follow the guidance with one bounded retry at the new epoch.
    let alice = sys.client_node("alice");
    let default_link = sys.sim_mut().net_mut().default_link();
    let slow_link = pws_simnet::LinkConfig {
        base: SimDuration::from_millis(800),
        ..default_link
    };
    let mut flipped = false;
    for _ in 0..2_000 {
        sys.run_for(SimDuration::from_millis(5));
        if sys.metrics().counter("client.web_interactions") >= 150 {
            for raw in 0..8u32 {
                sys.sim_mut()
                    .net_mut()
                    .set_link(alice, NodeId::from_raw(raw), slow_link);
            }
            sys.run_for(SimDuration::from_millis(100));
            let active = sys.add_shard("kv");
            assert_eq!(active, 3, "epoch flips 2 -> 3");
            flipped = true;
            break;
        }
    }
    assert!(flipped, "the load never reached the flip point");
    sys.run_for(SimDuration::from_secs(2));
    assert_eq!(
        sys.metrics().counter("clbft.reshard.completed"),
        1,
        "migration must finish while alice's old-epoch requests crawl"
    );
    for raw in 0..8u32 {
        sys.sim_mut()
            .net_mut()
            .set_link(alice, NodeId::from_raw(raw), default_link);
    }
    sys.run_until(SimTime::from_secs(300));

    // Zero client-visible errors under the flip: every request answered,
    // no faults, nothing abandoned or unroutable.
    for client in ["alice", "bob"] {
        let replies = sys.client_replies(client);
        assert_eq!(replies.len(), per_client as usize, "{client} completed");
        for r in &replies {
            assert!(
                r.envelope().as_fault().is_none(),
                "{client} saw a fault during resharding"
            );
        }
    }
    assert_eq!(sys.metrics().counter("client.route_errors"), 0);
    assert_eq!(sys.metrics().counter("client.abandoned"), 0);

    // The migration ran to completion and rejected nothing.
    let m = sys.metrics();
    assert_eq!(m.counter("clbft.reshard.epoch_flips"), 1);
    assert_eq!(
        m.counter("clbft.reshard.completed"),
        1,
        "migration finished"
    );
    assert_eq!(m.counter("clbft.reshard.rejected_keys"), 0);
    let redirects = m.counter("clbft.reshard.redirects");
    let retries = m.counter("client.route_retries");

    // Only reassigned keys migrated: at the final epoch (3 shards) every
    // key any shard holds must be a key the router assigns to it, the new
    // shard actually owns data, and no fences or locks linger.
    let router = RendezvousRouter::new();
    let mut grand_total = 0u64;
    for shard in 0..3u32 {
        let (applied, locked, _) = kv_state(&mut sys, shard, 0);
        assert_eq!(locked, 0, "shard {shard} holds locks after resharding");
        grand_total += applied;
        let name = format!("kv#{shard}");
        let shim = sys
            .replica_mut(&name, 0)
            .unwrap()
            .executor_mut::<ServiceExecutor>()
            .unwrap()
            .service_mut::<TxnShim>()
            .unwrap();
        assert_eq!(shim.epoch_shards(), 3, "shard {shard} missed the epoch");
        // Fences are the shard's redirect memory for the keys it gave
        // away — every fenced key must indeed belong elsewhere now.
        let fenced: Vec<String> = shim.fenced_keys().map(str::to_owned).collect();
        for key in &fenced {
            assert_ne!(
                router.shard(key, 3),
                shard,
                "shard {shard} fences key {key} it still owns"
            );
        }
        let kv = shim.inner_mut::<TxnKv>().unwrap();
        for key in kv.counts.keys() {
            assert_eq!(
                router.shard(key, 3),
                shard,
                "shard {shard} holds foreign key {key} after the reshard"
            );
        }
        assert!(kv.total() > 0, "shard {shard} owns nothing at epoch 3");
    }
    // Exactly-once across the whole flip: 600 requests, 600 applications
    // (alice and bob share the numeric key space; counts sum over keys).
    assert_eq!(grand_total, 2 * per_client, "lost or duplicated under flip");

    let digest = sys.sim_mut().trace_digest().value();
    (digest, redirects, retries, grand_total)
}

#[test]
fn add_shard_under_load_migrates_exactly_the_reassigned_keys() {
    let (_, redirects, retries, _) = elastic_run(88_001);
    // The flip landed mid-load with ~16 requests in flight, so some
    // old-epoch request must have hit a fence and been redirected — and
    // the client followed each redirect with exactly one bounded retry.
    assert!(redirects > 0, "no in-flight request exercised the fence");
    assert!(retries > 0, "no client followed the typed retry guidance");
    assert!(retries <= redirects, "more retries than redirect faults");
}

#[test]
fn same_seed_elastic_runs_are_byte_identical() {
    let (a, ar, art, _) = elastic_run(88_002);
    let (b, br, brt, _) = elastic_run(88_002);
    assert_eq!(a, b, "same-seed elastic traces must be byte-identical");
    assert_eq!((ar, art), (br, brt), "same-seed metrics must agree");
    let (c, _, _, _) = elastic_run(88_003);
    assert_ne!(a, c, "different seeds must diverge");
}

/// Extended transaction smoke: one run stacking everything this subsystem
/// must survive at once —
/// an 80-transaction cross-shard stream through flapping partitions, a
/// coordinator-primary crash mid-stream, and a live `add_shard` that
/// migrates keys out from under in-flight transactions. Exactly-once must
/// hold across all of it.
#[test]
fn txn_smoke_extended() {
    let total = 80usize;
    let mut b = SystemBuilder::new(9_701);
    b.checkpoint_interval(16);
    b.sharded_txn("kv", 2, 4, |shard, _| Box::new(TxnKv::new(shard)));
    b.add_shard("kv");
    let pairs = cross_pairs(total);
    b.custom_client("driver", move |core, uris| {
        Box::new(TxnDriver::new(core, uris, pairs))
    });
    let mut sys = b.build();

    // Phase 1: flap one backup of each original shard against its peers
    // (kv#0 = nodes 0..4, kv#1 = 4..8; the spare kv#2 sits at 8..12).
    for (flappy, peers) in [(3u32, 0u32..3), (7u32, 4u32..7)] {
        for peer in peers {
            sys.sim_mut().net_mut().flap_partition_both(
                NodeId::from_raw(flappy),
                NodeId::from_raw(peer),
                SimTime::from_millis(50),
                SimDuration::from_millis(40),
                SimDuration::from_millis(60),
            );
        }
    }
    sys.run_until(SimTime::from_millis(400));
    sys.sim_mut().net_mut().clear_flaps();

    // Phase 2: kill the coordinator shard's primary mid-stream.
    sys.run_until(SimTime::from_secs(2));
    sys.sim_mut().net_mut().crash(NodeId::from_raw(0));

    // Phase 3: scale out while transactions are still flowing.
    sys.run_until(SimTime::from_secs(6));
    assert_eq!(sys.add_shard("kv"), 3, "flip must land epoch 3");
    sys.run_until(SimTime::from_secs(600));

    let (commits, aborts, other) = driver_tally(&mut sys);
    assert_eq!(other, 0, "no untyped failures");
    assert_eq!(commits + aborts, total as u64, "every transaction resolved");
    assert!(commits > 0, "some transactions must commit");
    assert!(
        sys.metrics().counter("perpetual.view_changes") > 0,
        "the primary crash must force a view change"
    );
    assert_eq!(sys.metrics().counter("clbft.reshard.epoch_flips"), 1);
    assert_eq!(sys.metrics().counter("clbft.reshard.completed"), 1);
    assert_eq!(sys.metrics().counter("clbft.reshard.rejected_keys"), 0);

    // Exactly-once across crash + flap + reshard: each commit incremented
    // one key per side, wherever those keys live at epoch 3. Survivors of
    // each shard must agree byte-for-byte.
    let mut grand_total = 0u64;
    for shard in 0..3u32 {
        let first = if shard == 0 { 1 } else { 0 };
        let (applied, locked, _) = kv_state(&mut sys, shard, first);
        assert_eq!(locked, 0, "shard {shard} holds locks at the end");
        grand_total += applied;
        let name = format!("kv#{shard}");
        let chain0 = sys.replica_mut(&name, first).unwrap().bft_execution_chain();
        for idx in (first + 1)..4 {
            let (a, l, _) = kv_state(&mut sys, shard, idx);
            assert_eq!(a, applied, "shard {shard} replica {idx} diverges");
            assert_eq!(l, 0, "shard {shard} replica {idx} holds locks");
            let r = sys.replica_mut(&name, idx).unwrap();
            assert_eq!(r.bft_execution_chain(), chain0, "shard {shard} diverged");
        }
    }
    assert_eq!(
        grand_total,
        2 * commits,
        "lost or duplicated applications across crash + reshard"
    );
}
