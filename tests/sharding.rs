//! Sharded service groups end-to-end.
//!
//! The acceptance bar (ISSUE 5): every request lands on exactly its owning
//! shard (zero cross-shard leakage, audited *at the shards*), per-shard
//! replica state digests converge, same-seed runs are byte-identical, and
//! cross-shard requests are rejected with the typed error. The extended
//! smoke additionally runs checkpointing,
//! proactive recovery, and a churny stale-drop inside a sharded topology —
//! every per-group subsystem multiplied across the shard fan-out.

use perpetual_ws::{
    Poll, RendezvousRouter, Router, Service, ServiceCtx, ServiceExecutor, System, SystemBuilder,
    WsEvent,
};
use pws_perpetual::{FaultMode, PerpetualReplica};
use pws_simnet::SimTime;
use pws_soap::{MessageContext, XmlNode};

const SHARDS: u32 = 4;

/// A keyed service that answers with its own shard id and *audits*
/// ownership: any request whose key the router assigns elsewhere counts as
/// leakage.
struct ShardEcho {
    shard: u32,
    shards: u32,
    served: u64,
    leaked: u64,
}

impl ShardEcho {
    fn new(shard: u32, shards: u32) -> Self {
        ShardEcho {
            shard,
            shards,
            served: 0,
            leaked: 0,
        }
    }
}

impl Service for ShardEcho {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        if let WsEvent::Request { request } = ev {
            let key = request.body().text.clone();
            self.served += 1;
            if RendezvousRouter::new().shard(&key, self.shards) != self.shard {
                self.leaked += 1;
            }
            let reply = request.reply_with(
                "",
                XmlNode::new("shardResult").with_text(format!("{}:{}", self.shard, key)),
            );
            ctx.reply(reply, &request);
        }
        Poll::request()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut v = self.shard.to_be_bytes().to_vec();
        v.extend(self.served.to_be_bytes());
        v.extend(self.leaked.to_be_bytes());
        v
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.shard = u32::from_be_bytes(snapshot[0..4].try_into().unwrap());
        self.served = u64::from_be_bytes(snapshot[4..12].try_into().unwrap());
        self.leaked = u64::from_be_bytes(snapshot[12..20].try_into().unwrap());
    }
}

fn build_sharded(seed: u64, per_client: u64) -> System {
    let mut b = SystemBuilder::new(seed);
    b.sharded("kv", SHARDS, 4, |shard, _| {
        Box::new(ShardEcho::new(shard, SHARDS))
    });
    b.scripted_client_windowed("alice", "kv", per_client, 8);
    b.scripted_client_windowed("bob", "kv", per_client, 8);
    b.build()
}

fn shard_service(sys: &mut System, shard: u32, idx: u32) -> &mut ShardEcho {
    let name = format!("kv#{shard}");
    let replica: &mut PerpetualReplica = sys.replica_mut(&name, idx).expect("replica exists");
    replica
        .executor_mut::<ServiceExecutor>()
        .expect("service executor")
        .service_mut::<ShardEcho>()
        .expect("shard echo")
}

#[test]
fn every_request_lands_on_exactly_its_owning_shard() {
    let per_client = 40u64;
    let mut sys = build_sharded(501, per_client);
    sys.run_until(SimTime::from_secs(120));
    let router = RendezvousRouter::new();

    // Client view: each reply names the shard that served it, and it must
    // be the shard the router assigns the key.
    for client in ["alice", "bob"] {
        let replies = sys.client_replies(client);
        assert_eq!(replies.len(), per_client as usize, "{client} completed");
        for r in &replies {
            let text = r.body().text.clone();
            let (shard, key) = text.split_once(':').expect("shard:key reply");
            assert_eq!(
                shard.parse::<u32>().unwrap(),
                router.shard(key, SHARDS),
                "key {key} answered by the wrong shard"
            );
        }
    }

    // Shard view: zero leakage, every shard engaged, nothing lost or
    // duplicated across the partition.
    let mut served_total = 0;
    for shard in 0..SHARDS {
        let mut shard_served = 0;
        for idx in 0..4 {
            let svc = shard_service(&mut sys, shard, idx);
            assert_eq!(
                svc.leaked, 0,
                "shard {shard} replica {idx} saw foreign keys"
            );
            shard_served = svc.served;
        }
        assert!(shard_served > 0, "shard {shard} never served");
        served_total += shard_served;
    }
    assert_eq!(served_total, 2 * per_client, "exactly-once across shards");

    // Dedup compaction survives sharding: external events dedup on a
    // dense per-(caller, target) sequence number, so scattering each
    // client's global request stream across four shards leaves no
    // permanent holes — every shard's executed set stays O(callers), not
    // O(history).
    for shard in 0..SHARDS {
        let name = format!("kv#{shard}");
        let (ids, entries) = sys.replica_mut(&name, 0).unwrap().bft_dedup_footprint();
        assert!(ids > 0, "shard {shard} executed something");
        assert!(
            entries <= 8,
            "shard {shard} dedup degenerated: {entries} wire entries for {ids} ids"
        );
    }

    // Routing observability: one routed count per fired request, spread
    // over all four per-shard counters, and no rejects.
    let m = sys.metrics();
    assert_eq!(m.counter("clbft.shard.routed"), 2 * per_client);
    assert_eq!(m.counter("clbft.shard.cross_rejected"), 0);
    let per_shard: u64 = (0..SHARDS)
        .map(|k| {
            let gid = sys.group(&format!("kv#{k}"));
            sys.metrics().counter(&format!("clbft.shard.route.{gid}"))
        })
        .sum();
    assert_eq!(per_shard, 2 * per_client, "per-shard counters sum to total");
}

#[test]
fn per_shard_state_digests_converge_and_same_seed_runs_are_byte_identical() {
    let fingerprint = |seed: u64| {
        let mut sys = build_sharded(seed, 30);
        sys.run_until(SimTime::from_secs(120));
        // Within each shard every replica must hold identical state: same
        // execution chain, same application snapshot bytes.
        for shard in 0..SHARDS {
            let name = format!("kv#{shard}");
            let (chain0, snap0) = {
                let r = sys.replica_mut(&name, 0).unwrap();
                (r.bft_execution_chain(), r.service_snapshot())
            };
            for idx in 1..4 {
                let r = sys.replica_mut(&name, idx).unwrap();
                assert_eq!(
                    r.bft_execution_chain(),
                    chain0,
                    "shard {shard} replica {idx} chain diverged"
                );
                assert_eq!(
                    r.service_snapshot(),
                    snap0,
                    "shard {shard} replica {idx} snapshot diverged"
                );
            }
        }
        sys.sim_mut().trace_digest().value()
    };
    let a = fingerprint(777);
    let b = fingerprint(777);
    assert_eq!(a, b, "same seed must reproduce the identical event stream");
    assert_ne!(a, fingerprint(778), "different seeds must diverge");
}

/// A service that issues one cross-shard request (keys owned by different
/// shards, joined with `|`) and one single-key request, recording what
/// came back.
struct CrossCaller {
    cross_key: String,
    good_key: String,
    cross_fault: Option<String>,
    good_ok: bool,
}

impl Service for CrossCaller {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        match ev {
            WsEvent::Init { .. } => {
                let mut bad = MessageContext::request("urn:svc:kv", "get");
                bad.body_mut().name = "get".into();
                bad.body_mut().text = self.cross_key.clone();
                let _ = ctx.send(bad);
                let mut good = MessageContext::request("urn:svc:kv", "get");
                good.body_mut().name = "get".into();
                good.body_mut().text = self.good_key.clone();
                let _ = ctx.send(good);
                Poll::any_reply()
            }
            WsEvent::Reply { reply, .. } => {
                match reply.envelope().as_fault() {
                    Some(f) => self.cross_fault = Some(f.reason.clone()),
                    None => self.good_ok = true,
                }
                if self.cross_fault.is_some() && self.good_ok {
                    Poll::Done
                } else {
                    Poll::any_reply()
                }
            }
            _ => Poll::Next,
        }
    }
}

#[test]
fn cross_shard_requests_are_rejected_with_the_typed_error() {
    // Find two keys owned by different shards (the first two distinct
    // owners in a numeric probe).
    let router = RendezvousRouter::new();
    let good_key = "0".to_owned();
    let good_shard = router.shard(&good_key, SHARDS);
    let other = (1..100)
        .map(|i| i.to_string())
        .find(|k| router.shard(k, SHARDS) != good_shard)
        .expect("some key lands elsewhere");
    let cross_key = format!("{good_key}|{other}");

    let mut b = SystemBuilder::new(91);
    b.sharded("kv", SHARDS, 4, |shard, _| {
        Box::new(ShardEcho::new(shard, SHARDS))
    });
    let (ck, gk) = (cross_key.clone(), good_key.clone());
    b.service("caller", 1, move |_| {
        Box::new(CrossCaller {
            cross_key: ck.clone(),
            good_key: gk.clone(),
            cross_fault: None,
            good_ok: false,
        })
    });
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(60));

    let caller = sys.replica_mut("caller", 0).unwrap();
    let svc = caller
        .executor_mut::<ServiceExecutor>()
        .unwrap()
        .service_mut::<CrossCaller>()
        .unwrap();
    assert!(svc.good_ok, "the single-key request must succeed");
    let reason = svc.cross_fault.clone().expect("cross-shard send faulted");
    assert!(
        reason.contains("cross-shard"),
        "typed rejection reason, got: {reason}"
    );
    let m = sys.metrics();
    assert_eq!(m.counter("clbft.shard.cross_rejected"), 1);
    assert!(m.counter("clbft.shard.routed") >= 1, "good key was routed");
}

/// Extended sharded smoke: checkpointing, a proactive-recovery rotation, and a churny
/// stale-drop all running *inside* a sharded topology under client load —
/// the per-group subsystems of PRs 2–4 multiplied across shards.
#[test]
fn sharding_smoke_extended() {
    let per_client = 400u64;
    let mut b = SystemBuilder::new(9_105);
    b.checkpoint_interval(16);
    b.proactive_recovery(pws_simnet::SimDuration::from_millis(900));
    b.sharded("kv", SHARDS, 4, |shard, _| {
        Box::new(ShardEcho::new(shard, SHARDS))
    });
    // A churny wipe inside one shard: only lag evidence brings it back.
    b.fault("kv#1", 2, FaultMode::StaleDrop { after_ms: 1_500 });
    b.scripted_client_windowed("alice", "kv", per_client, 8);
    b.scripted_client_windowed("bob", "kv", per_client, 8);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(120));

    assert_eq!(sys.client_replies("alice").len(), per_client as usize);
    assert_eq!(sys.client_replies("bob").len(), per_client as usize);
    let m = sys.metrics();
    assert!(
        m.counter("clbft.recovery.stale_drops") >= 1,
        "fault engaged"
    );
    assert!(
        m.counter("clbft.recovery.installs") >= 1,
        "state transfer ran"
    );
    assert!(
        m.counter("clbft.recovery.proactive_restarts") >= SHARDS as u64,
        "every shard rotated at least one replica"
    );
    for shard in 0..SHARDS {
        let name = format!("kv#{shard}");
        let chain0 = sys.replica_mut(&name, 0).unwrap().bft_execution_chain();
        for idx in 1..4 {
            let r = sys.replica_mut(&name, idx).unwrap();
            assert_eq!(r.bft_execution_chain(), chain0, "shard {shard} diverged");
        }
        for idx in 0..4 {
            let svc = shard_service(&mut sys, shard, idx);
            assert_eq!(svc.leaked, 0, "leakage under churn at shard {shard}");
        }
    }
}
