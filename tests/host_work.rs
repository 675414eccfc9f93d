//! Host work per protocol step, counted exactly.
//!
//! A small 4 × 4 sharded cell with 10 % two-shard transactions (the
//! `sharded_mix` workload in miniature) runs to completion, and two
//! counters bound what the host did for it: SHA-256 compressions per
//! completed request, and binary-heap operations per dispatched event.
//! Unlike the host clock, both are exact and the same on every machine, so
//! a bound here catches work that no simulated number shows — re-hashing
//! an input a replica has hashed before, or re-heaping every event of a
//! busy node after each dispatch.
//!
//! Run with `--nocapture` to print the counts.

use perpetual_ws::{ServiceExecutor, SystemBuilder, TxnShim};
use pws_bench::{MixedCaller, TxnIncrement};
use pws_simnet::SimTime;

const SHARDS: u32 = 4;
const REPLICAS: u32 = 4;
const CLIENTS: u32 = 6;
const PER_CLIENT: u64 = 80;
const WINDOW: u64 = 16;
const CROSS_EVERY: u64 = 10;
const SEED: u64 = 2007;

/// Upper bound on SHA-256 compressions per completed request: request and
/// reply digests once per distinct input per replica, MACs from kept HMAC
/// midstates, and the checkpoint page digests. This cell takes 180.5;
/// hashing every copy as it arrives, with HMAC pads absorbed per MAC,
/// takes 383.6.
const MAX_COMPRESSIONS_PER_REQUEST: f64 = 200.0;
/// Upper bound on binary-heap operations per dispatched event: a push and
/// a pop per scheduled event, with deferrals kept out of the heap. This
/// cell takes 2.39; re-pushing each deferred event into the heap takes
/// 44.5.
const MAX_HEAP_OPS_PER_DISPATCH: f64 = 3.0;

#[test]
fn host_work_per_request_and_per_dispatch_is_bounded() {
    let start = pws_crypto::sha256::compressions();
    let mut b = SystemBuilder::new(SEED);
    b.sharded_txn("target", SHARDS, REPLICAS, |_, _| {
        Box::<TxnIncrement>::default()
    });
    for c in 0..CLIENTS {
        b.service(&format!("load{c}"), 1, move |_| {
            Box::new(MixedCaller::new(
                "target",
                PER_CLIENT,
                WINDOW,
                CROSS_EVERY,
                SHARDS,
                c,
            ))
        });
    }
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(3_600));
    let compressions = pws_crypto::sha256::compressions() - start;

    let mut completed = 0;
    for c in 0..CLIENTS {
        completed += sys
            .replica_mut(&format!("load{c}"), 0)
            .and_then(|r| r.executor_mut::<ServiceExecutor>())
            .and_then(|e| e.service_mut::<MixedCaller>())
            .expect("mixed caller")
            .done;
    }
    assert_eq!(
        completed,
        u64::from(CLIENTS) * PER_CLIENT,
        "the cell completes"
    );
    for shard in 0..SHARDS {
        let shim = sys
            .replica_mut(&format!("target#{shard}"), 0)
            .and_then(|r| r.executor_mut::<ServiceExecutor>())
            .and_then(|e| e.service_mut::<TxnShim>())
            .expect("txn shim");
        assert!(shim.inner_mut::<TxnIncrement>().expect("inner").applied > 0);
    }

    let sim = sys.sim_mut();
    let (dispatched, heap_ops) = (sim.dispatched_events(), sim.heap_ops());
    let per_request = compressions as f64 / completed as f64;
    let per_dispatch = heap_ops as f64 / dispatched as f64;
    println!(
        "host work: {completed} requests, {compressions} SHA-256 compressions \
         ({per_request:.1} per request); {dispatched} dispatched events, \
         {heap_ops} heap operations ({per_dispatch:.2} per dispatch)"
    );
    assert!(
        per_request <= MAX_COMPRESSIONS_PER_REQUEST,
        "{per_request:.1} SHA-256 compressions per request (bound {MAX_COMPRESSIONS_PER_REQUEST})"
    );
    assert!(
        per_dispatch <= MAX_HEAP_OPS_PER_DISPATCH,
        "{per_dispatch:.2} heap operations per dispatched event (bound {MAX_HEAP_OPS_PER_DISPATCH})"
    );
}
