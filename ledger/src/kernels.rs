//! Per-layer kernels on the host clock: each calls a layer's public
//! function directly, from outside, and reports the median of
//! [`BATCHES`] batches in ns per operation. Every kernel gets a
//! bench-side span.
//!
//! Batches are tens of milliseconds, below the CPU clock's tick, so these
//! use `Instant`; the median over batches discards the ones a neighbour
//! preempted.

use crate::clock::CpuClock;
use crate::spans::Spans;
use crate::stats::median;
use bytes::Bytes;
use perpetual_ws::runtime::UriMap;
use perpetual_ws::{
    PassiveHost, PassiveService, PassiveUtils, RendezvousRouter, Router, ServiceExecutor,
    SystemBuilder, TraceLevel, WsCostModel,
};
use pws_clbft::wire::{decode_msg, encode_msg};
use pws_clbft::{
    Action, Batch, Config, ExecutedSet, Msg, PageManifest, PrePrepareMsg, Replica, ReplicaId,
    Request, RequestId, Seq, View,
};
use pws_crypto::auth::{verify_bundle, BundleShare};
use pws_crypto::keys::{KeyTable, Principal};
use pws_crypto::{sha256, MacKey};
use pws_perpetual::{
    decode_pmsg, encode_pmsg, AppEvent, AppOutput, Event, Executor, GroupId, PMsg, RequestHandle,
};
use pws_simnet::metrics::Metrics;
use pws_simnet::{Context, Node, NodeId, SimDuration, Simulation, TimerId};
use pws_soap::{MessageContext, XmlNode};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per kernel; the reported value is their median.
pub const BATCHES: usize = 15;

pub struct Kernels<'a> {
    spans: &'a mut Spans,
    /// Minimum timed work per batch.
    batch: Duration,
    results: Vec<(&'static str, f64)>,
}

impl<'a> Kernels<'a> {
    pub fn new(spans: &'a mut Spans, batch: Duration) -> Self {
        Kernels {
            spans,
            batch,
            results: Vec::new(),
        }
    }

    /// Times `op` back to back: the iteration count is doubled until one
    /// batch fills the target, then held for every batch.
    fn per_op(&mut self, name: &'static str, mut op: impl FnMut()) {
        let span = self.spans.open(name);
        let mut iters = 1u64;
        let time = |iters: u64, op: &mut dyn FnMut()| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed()
        };
        while time(iters, &mut op) < self.batch {
            iters *= 2;
        }
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| time(iters, &mut op).as_nanos() as f64 / iters as f64)
            .collect();
        self.results.push((name, median(&samples)));
        self.spans.close(span);
    }

    /// Times `routine` on a fresh `setup()` value per call (set-up is not
    /// timed); each call performs `ops_per_call` operations.
    fn per_call<T>(
        &mut self,
        name: &'static str,
        ops_per_call: u64,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T),
    ) {
        let span = self.spans.open(name);
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let (mut spent, mut calls) = (Duration::ZERO, 0u64);
                while spent < self.batch {
                    let input = setup();
                    let t = Instant::now();
                    routine(input);
                    spent += t.elapsed();
                    calls += 1;
                }
                spent.as_nanos() as f64 / (calls * ops_per_call) as f64
            })
            .collect();
        self.results.push((name, median(&samples)));
        self.spans.close(span);
    }

    /// Runs every kernel and returns `(metric, value)` pairs. `seed` only
    /// varies key material and payloads.
    pub fn run_all(mut self, seed: u64) -> Vec<(&'static str, f64)> {
        self.crypto(seed);
        self.soap();
        self.clbft();
        self.perpetual(seed);
        self.core();
        self.simnet(seed);
        self.obs_and_tpcw(seed);
        self.results
    }

    fn crypto(&mut self, seed: u64) {
        let key = MacKey::derive_from_label(seed, b"ledger");
        let small = vec![0xabu8; 64];
        let msg = vec![0xabu8; 1024];
        self.per_op("crypto.sha256_64b_ns", || {
            black_box(sha256(black_box(&small)));
        });
        self.per_op("crypto.sha256_1k_ns", || {
            black_box(sha256(black_box(&msg)));
        });
        self.per_op("crypto.mac_compute_1k_ns", || {
            black_box(key.compute(black_box(&msg)));
        });
        let mac = key.compute(&msg);
        self.per_op("crypto.mac_verify_1k_ns", || {
            black_box(key.verify(black_box(&msg), &mac));
        });
        for (name, n) in [
            ("crypto.bundle_verify_n4_ns", 4u32),
            ("crypto.bundle_verify_n10_ns", 10),
        ] {
            let mut keys = KeyTable::new(seed);
            let callers: Vec<Principal> = (0..n).map(|i| Principal::new(1, i)).collect();
            let digest = sha256(b"reply");
            let f = (n - 1) / 3;
            let shares: Vec<BundleShare> = (0..2 * f + 1)
                .map(|i| {
                    BundleShare::build(&mut keys, Principal::new(2, i), b"tag", digest, &callers)
                })
                .collect();
            self.per_op(name, || {
                assert!(verify_bundle(
                    &mut keys,
                    black_box(&shares),
                    b"tag",
                    &digest,
                    callers[0],
                    f as usize + 1,
                ));
            });
        }
    }

    fn soap(&mut self) {
        let mut null = MessageContext::request("urn:svc:target", "increment");
        null.addressing_mut().message_id = Some("urn:uuid:ledger-1".into());
        null.addressing_mut().reply_to = Some("urn:svc:caller".into());
        null.body_mut().name = "increment".into();
        null.body_mut().text = "4199".into();
        let mut page = null.clone();
        page.body_mut().name = "homeResult".into();
        for i in 0..32 {
            page.body_mut().children.push(
                XmlNode::new("item")
                    .with_text(format!("book {i:04}: a title long enough to fill a row"))
                    .attr("id", i.to_string()),
            );
        }
        for (marshal, demarshal, mc) in [
            ("soap.marshal_null_ns", "soap.demarshal_null_ns", &null),
            ("soap.marshal_page_ns", "soap.demarshal_page_ns", &page),
        ] {
            let bytes = mc.to_bytes().expect("marshals");
            self.per_op(marshal, || {
                black_box(mc.to_bytes().expect("marshals"));
            });
            self.per_op(demarshal, || {
                black_box(MessageContext::from_bytes(black_box(&bytes)).expect("demarshals"));
            });
        }
    }

    fn clbft(&mut self) {
        let batch = Batch::new(
            (0..16)
                .map(|i| Request::new(RequestId::new(1, i), Bytes::from(vec![b'x'; 256])))
                .collect(),
        );
        let pp = Msg::PrePrepare(PrePrepareMsg {
            view: View(0),
            seq: Seq(7),
            digest: batch.digest(),
            batch,
        });
        let wire = encode_msg(&pp);
        self.per_op("clbft.encode_preprepare16_ns", || {
            black_box(encode_msg(black_box(&pp)));
        });
        self.per_op("clbft.decode_preprepare16_ns", || {
            black_box(decode_msg(black_box(&wire)).expect("decodes"));
        });

        self.per_call(
            "clbft.round_n4_ns",
            1,
            || group(16),
            |mut rs| assert_eq!(order(&mut rs, 0..1), 4),
        );
        for (name, cap) in [
            ("clbft.order_cap1_ns_per_req", 1),
            ("clbft.order_cap16_ns_per_req", 16),
        ] {
            self.per_call(
                name,
                1024,
                || group(cap),
                |mut rs| assert_eq!(order(&mut rs, 0..1024), 1024 * 4),
            );
        }

        let mut state: Vec<u8> = (0..64 * 1024).map(|i| (i * 31 % 251) as u8).collect();
        self.per_op("clbft.manifest_full_64k_ns", || {
            black_box(PageManifest::compute(black_box(&state), 1024));
        });
        let prev_state = state.clone();
        let prev = PageManifest::compute(&prev_state, 1024);
        let last = state.len() - 1;
        state[last] ^= 0xff; // one dirty page
        self.per_op("clbft.manifest_incr_64k_ns", || {
            let (m, hashed, _) = PageManifest::compute_incremental(
                black_box(&state),
                1024,
                Some((&prev_state, &prev)),
            );
            assert_eq!(hashed, 1);
            black_box(m);
        });

        let mut set = ExecutedSet::new();
        let mut next = 0u64;
        self.per_op("clbft.dedup_insert_ns", || {
            // Four origins, each a dense stream: the shape the per-origin
            // compaction is built for.
            black_box(set.insert(RequestId::new(next % 4, next / 4)));
            next += 1;
        });
    }

    fn perpetual(&mut self, seed: u64) {
        let payload = Bytes::from(vec![b'p'; 300]);
        let event = Event::External {
            caller: GroupId(1),
            caller_n: 4,
            req_no: 42,
            target_seq: 42,
            responder: 2,
            timeout_ms: 0,
            payload: payload.clone(),
        };
        let wire = event.encode();
        self.per_op("perpetual.event_encode_ns", || {
            black_box(black_box(&event).encode());
        });
        self.per_op("perpetual.event_decode_ns", || {
            black_box(Event::decode(black_box(&wire)).expect("decodes"));
        });

        let mut keys = KeyTable::new(seed);
        let callers: Vec<Principal> = (0..4).map(|i| Principal::new(1, i)).collect();
        let digest = sha256(&payload);
        let bundle = PMsg::ReplyBundle {
            req_no: 42,
            payload,
            shares: (0..2)
                .map(|i| {
                    BundleShare::build(&mut keys, Principal::new(2, i), b"tag", digest, &callers)
                })
                .collect(),
        };
        let wire = encode_pmsg(&bundle);
        self.per_op("perpetual.pmsg_encode_ns", || {
            black_box(encode_pmsg(black_box(&bundle)));
        });
        self.per_op("perpetual.pmsg_decode_ns", || {
            black_box(decode_pmsg(black_box(&wire)).expect("decodes"));
        });
    }

    fn core(&mut self) {
        // Whole-deployment assembly and teardown at the Fig. 7 top scale
        // (12 groups × 4 replicas + 12 clients), no traffic.
        self.per_op("core.deploy_12x4_setup_ns", || {
            let mut b = SystemBuilder::new(7);
            for i in 0..12 {
                b.passive_service(&format!("svc{i}"), 4, |_| Box::new(Null));
                b.scripted_client(&format!("c{i}"), &format!("svc{i}"), 1);
            }
            drop(black_box(b.build()));
        });

        let router = RendezvousRouter::new();
        let route_keys: Vec<String> = (0..1024).map(|i| format!("c3-{i}")).collect();
        let mut i = 0usize;
        self.per_op("core.route_4shards_ns", || {
            black_box(router.shard(black_box(&route_keys[i % 1024]), 4));
            i += 1;
        });

        // One request → reply through the service host on a null passive
        // service: demarshal, dispatch, marshal.
        let mut exec = ServiceExecutor::new(
            Box::new(PassiveHost::new(Box::new(Null))),
            "svc",
            Arc::new(UriMap::default()),
            WsCostModel::FREE,
        );
        exec.on_event(AppEvent::Init { seed: 1 }, &mut AppOutput::new(0, 0));
        let mut req = MessageContext::request("urn:svc:svc", "increment");
        req.body_mut().name = "increment".into();
        req.body_mut().text = "1".into();
        let payload = req.to_bytes().expect("marshals");
        let mut req_no = 0u64;
        self.per_op("core.host_request_ns", || {
            let mut out = AppOutput::new(0, 0);
            let handle = RequestHandle {
                caller: GroupId(9),
                req_no,
            };
            req_no += 1;
            exec.on_event(
                AppEvent::Request {
                    handle,
                    payload: payload.clone(),
                },
                &mut out,
            );
            assert!(!out.cmds().is_empty(), "the host replied");
            black_box(out);
        });
    }

    fn simnet(&mut self, seed: u64) {
        const EVENTS: u64 = 4096;
        self.per_call(
            "simnet.deliver_ns",
            EVENTS,
            || {
                let mut sim = Simulation::new(seed);
                let a = sim.add_node(Box::new(PingPong {
                    peer: NodeId::from_raw(1),
                    left: EVENTS / 2,
                    serve: true,
                }));
                sim.add_node(Box::new(PingPong {
                    peer: a,
                    left: EVENTS / 2,
                    serve: false,
                }));
                sim
            },
            |mut sim| {
                sim.run();
                assert_eq!(sim.metrics().counter("net.messages_delivered"), EVENTS);
            },
        );
        self.per_call(
            "simnet.timer_ns",
            EVENTS,
            || {
                let mut sim = Simulation::new(seed);
                sim.add_node(Box::new(Ticker { left: EVENTS }));
                sim
            },
            |mut sim| {
                sim.run();
                assert_eq!(sim.trace_digest().events(), EVENTS);
            },
        );

        // The registry as the hot paths hit it: by name, among the few
        // dozen keys a run populates.
        let mut m = Metrics::new();
        for i in 0..40 {
            m.incr(&format!("clbft.filler.{i}"));
            m.record_hist(&format!("obs.filler.{i}_ms"), 1.0);
        }
        self.per_op("simnet.metrics_incr_ns", || {
            m.incr(black_box("net.messages_delivered"));
        });
        let mut v = 0.5f64;
        self.per_op("simnet.metrics_hist_ns", || {
            m.record_hist(black_box("obs.phase.committed_ms"), v);
            v = v * 1.01 % 50.0 + 0.1;
        });
    }

    fn obs_and_tpcw(&mut self, seed: u64) {
        let mut h = pws_obs::Histogram::new();
        let mut v = 0.5f64;
        self.per_op("obs.hist_record_ns", || {
            h.record(black_box(v));
            v = v * 1.01 % 50.0 + 0.1;
        });

        // The observability tax on a small two-tier cell: CPU at `Phases`
        // and `Full` over CPU at `Off`, levels interleaved, median of 3.
        let span = self.spans.open("obs.overhead");
        let clock = CpuClock::new();
        let cell = |level: TraceLevel| {
            let t = clock.now_s();
            let (r, _) =
                pws_bench::run_two_tier_traced(4, 4, 400, 16, SimDuration::ZERO, seed, 16, level);
            assert_eq!(r.completed, 400);
            clock.now_s() - t
        };
        let (mut phases, mut full) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let off = cell(TraceLevel::Off);
            phases.push(cell(TraceLevel::Phases) / off);
            full.push(cell(TraceLevel::Full) / off);
        }
        self.results
            .push(("obs.overhead_phases_x", median(&phases)));
        self.results.push(("obs.overhead_full_x", median(&full)));
        self.spans.close(span);

        // Place and settle one order against a 1 000-order book.
        const ORDERS: u64 = 256;
        self.per_call(
            "tpcw.db_order_ns",
            ORDERS,
            || {
                let mut db = pws_tpcw::db::Db::new(1000);
                for s in 0..1000 {
                    db.place_order(s);
                }
                db
            },
            |mut db| {
                for s in 0..ORDERS {
                    db.add_to_cart(s, s as u32 * 7, 2);
                    let (id, _) = db.place_order(s);
                    assert!(db.authorize_order(id));
                }
                black_box(db);
            },
        );

        // Fig. 8's relative overhead of replication on the null request:
        // window-1 ms per request at 4×4 over the unreplicated 1×1 cell.
        let span = self.spans.open("sim_overhead");
        let window1 = |n: u32| {
            let r = pws_bench::run_two_tier(n, n, 1000, 1, SimDuration::ZERO, seed);
            assert_eq!(r.completed, 1000);
            r.completion_ms
        };
        let (replicated, single) = (window1(4), window1(1));
        self.results.extend([
            ("sim_overhead_x", replicated / single),
            ("sim_window1_4x4_ms", replicated),
            ("sim_window1_1x1_ms", single),
        ]);
        self.spans.close(span);
    }
}

struct Null;

impl PassiveService for Null {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        req.reply_with("", XmlNode::new("ok"))
    }
}

/// A 4-replica in-memory CLBFT group with batching cap `max_batch`.
fn group(max_batch: usize) -> Vec<Replica> {
    let mut cfg = Config::new(4);
    cfg.max_batch_size = max_batch;
    (0..4)
        .map(|i| Replica::new(ReplicaId(i), cfg.clone()))
        .collect()
}

/// Performs `actions` of replica `at`: messages go to the in-memory
/// inbox, and a checkpoint request is answered on the spot with a tiny
/// constant snapshot so the log window keeps sliding.
fn apply(
    replicas: &mut [Replica],
    at: usize,
    actions: Vec<Action>,
    inbox: &mut VecDeque<(usize, ReplicaId, Msg)>,
    executed: &mut usize,
) {
    let mut pending = VecDeque::from(actions);
    while let Some(a) = pending.pop_front() {
        match a {
            Action::Broadcast(m) => {
                for i in (0..replicas.len()).filter(|&i| i != at) {
                    inbox.push_back((i, ReplicaId(at as u32), m.clone()));
                }
            }
            Action::Send(d, m) => inbox.push_back((d.0 as usize, ReplicaId(at as u32), m)),
            Action::Execute { batch, .. } => *executed += batch.len(),
            Action::TakeCheckpoint(seq) => {
                pending.extend(replicas[at].on_snapshot(seq, Bytes::from_static(b"state")));
            }
            _ => {}
        }
    }
}

/// Pushes `counters` requests into the primary and runs the group to
/// quiescence, messages delivered in memory; the batch timer is fired by
/// hand for whatever the full pipeline left queued. Returns executed
/// request deliveries summed over the replicas.
fn order(replicas: &mut [Replica], counters: std::ops::Range<u64>) -> usize {
    let mut inbox = VecDeque::new();
    let mut executed = 0usize;
    for counter in counters {
        let req = Request::new(RequestId::new(1, counter), Bytes::from(counter.to_string()));
        let first = replicas[0].on_request(req);
        apply(replicas, 0, first, &mut inbox, &mut executed);
    }
    loop {
        while let Some((to, from, m)) = inbox.pop_front() {
            let actions = replicas[to].on_message(from, m);
            apply(replicas, to, actions, &mut inbox, &mut executed);
        }
        let sealed = replicas[0].on_batch_timer();
        if sealed.is_empty() {
            return executed;
        }
        apply(replicas, 0, sealed, &mut inbox, &mut executed);
    }
}

/// Bounces one message between two nodes until both budgets are spent.
struct PingPong {
    peer: NodeId,
    left: u64,
    serve: bool,
}

impl Node for PingPong {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.serve {
            self.left -= 1;
            ctx.send(self.peer, Bytes::from_static(b"ping"));
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(self.peer, msg);
        }
    }
}

/// Re-arms a 1 ms timer until its budget is spent.
struct Ticker {
    left: u64,
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(1));
    }

    fn on_message(&mut self, _from: NodeId, _msg: Bytes, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_>) {
        self.left -= 1;
        if self.left > 0 {
            ctx.set_timer(SimDuration::from_millis(1));
        }
    }
}
