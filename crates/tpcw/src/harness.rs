//! Assembles the full TPC-W deployment of Fig. 5 and measures WIPS.

use crate::bank::Bank;
use crate::bookstore::Bookstore;
use crate::pge::Pge;
use crate::rbe::Rbe;
use perpetual_ws::SystemBuilder;
use pws_simnet::SimDuration;

/// Parameters of one TPC-W run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcwConfig {
    /// Bookstore replica count (paper: 1, an unreplicated Tomcat-like
    /// front tier; replicating it makes the read-only fast path earn its
    /// keep — a browse page then needs a `2f + 1` reply quorum instead of
    /// full agreement).
    pub n_bookstore: u32,
    /// PGE replica count (paper: 1, 4, 7, 10).
    pub n_pge: u32,
    /// Bank replica count (paper keeps `n_bank = n_pge`).
    pub n_bank: u32,
    /// Number of remote browser emulators.
    pub rbes: u32,
    /// Measurement window (after warm-up).
    pub duration: SimDuration,
    /// Warm-up time excluded from WIPS.
    pub warmup: SimDuration,
    /// Use the synchronous PGE/Bank variants (§6.4 comparison).
    pub sync_pge: bool,
    /// Mean think time (TPC-W uses 7 s).
    pub think_mean: SimDuration,
    /// Bookstore shard count: 1 is the paper's single front tier; more
    /// partitions the store by customer (RBE session) key across
    /// independently-agreeing groups, so the whole TPC-W mix fans out.
    pub bookstore_shards: u32,
    /// Route browse pages down the read-only fast path (mutating pages —
    /// cart updates and order placement — always stay ordered).
    pub read_only: bool,
    /// Make buy-confirm and shopping-cart interactions *multi-customer*:
    /// each names the browser's own session plus a partner session owned
    /// by a different shard, so the sharded store must run them as
    /// cross-shard two-phase commits (requires `bookstore_shards >= 2`).
    pub cross_shard_buys: bool,
    /// Divisor on the emulated DB page costs (1 = paper calibration).
    /// Large values emulate an in-memory front tier where protocol
    /// overhead, not page rendering, dominates interaction latency.
    pub page_cost_scale: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for TpcwConfig {
    fn default() -> Self {
        TpcwConfig {
            n_bookstore: 1,
            n_pge: 4,
            n_bank: 4,
            rbes: 28,
            duration: SimDuration::from_secs(120),
            warmup: SimDuration::from_secs(20),
            sync_pge: false,
            think_mean: SimDuration::from_secs(7),
            bookstore_shards: 1,
            read_only: false,
            cross_shard_buys: false,
            page_cost_scale: 1,
            seed: 2007,
        }
    }
}

/// Results of one TPC-W run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpcwResult {
    /// Web interactions per second over the measurement window.
    pub wips: f64,
    /// Total interactions measured.
    pub interactions: u64,
    /// Interactions that triggered PGE calls.
    pub(crate) pge_interactions: u64,
    /// Fraction of traffic hitting the PGE.
    pub pge_share: f64,
    /// Read-only requests served on the fast path (`clbft.ro.served`).
    pub ro_served: u64,
    /// Read-only calls demoted to the ordered path (`clbft.ro.fallbacks`).
    pub ro_fallbacks: u64,
    /// Cross-shard transactions committed (`clbft.txn.committed`).
    pub(crate) txn_committed: u64,
    /// Cross-shard transactions aborted (`clbft.txn.aborted`).
    pub(crate) txn_aborted: u64,
}

/// Runs the TPC-W benchmark once.
pub fn run_tpcw(cfg: TpcwConfig) -> TpcwResult {
    let mut b = SystemBuilder::new(cfg.seed);
    let shards = cfg.bookstore_shards.max(1);
    let n_store = cfg.n_bookstore.max(1);
    let page_scale = cfg.page_cost_scale.max(1);
    let cross = cfg.cross_shard_buys && shards > 1;
    if cross {
        // Transactional sharded front tier: multi-customer buy pages
        // become two-phase commits coordinated through the shards' own
        // agreement logs.
        b.sharded_txn("bookstore", shards, n_store, move |_, _| {
            Box::new(Bookstore::new(1000, "pge").with_page_cost_scale(page_scale))
        });
    } else if shards > 1 {
        // Sharded front tier: the store is partitioned by customer
        // (session) key, each shard an independently-agreeing group
        // running its own order book — the scale-out topology.
        b.sharded("bookstore", shards, n_store, move |_, _| {
            Box::new(Bookstore::new(1000, "pge").with_page_cost_scale(page_scale))
        });
    } else {
        // Bookstore front tier (paper: unreplicated, Tomcat-like).
        b.service("bookstore", n_store, move |_| {
            Box::new(Bookstore::new(1000, "pge").with_page_cost_scale(page_scale))
        });
    }
    let sync_pge = cfg.sync_pge;
    b.service("pge", cfg.n_pge, move |_| {
        if sync_pge {
            Box::new(Pge::synchronous("bank"))
        } else {
            Box::new(Pge::new("bank"))
        }
    });
    b.passive_service("bank", cfg.n_bank, |_| Box::new(Bank::new()));
    for i in 0..cfg.rbes {
        let think = cfg.think_mean;
        let read_only = cfg.read_only;
        b.custom_client(&format!("rbe{i}"), move |core, uris| {
            // An RBE's whole session keys on its session id, so its owning
            // shard is fixed for the session (unsharded stores route to
            // their single group).
            let (_, bookstore) = uris
                .route("urn:svc:bookstore", &i.to_string())
                .expect("bookstore routes");
            let mut rbe = Rbe::new(core, bookstore, i as u64, think).with_read_only(read_only);
            if cross {
                rbe = rbe.with_cross_shard(shards);
            }
            Box::new(rbe)
        });
    }
    let mut sys = b.build();
    sys.run_for(cfg.warmup);
    sys.sim_mut().metrics_mut().reset();
    sys.run_for(cfg.duration);
    let interactions = sys.metrics().counter("tpcw.web_interactions");
    let pge_interactions = sys.metrics().counter("tpcw.pge_interactions");
    TpcwResult {
        wips: interactions as f64 / cfg.duration.as_secs_f64(),
        interactions,
        pge_interactions,
        pge_share: if interactions == 0 {
            0.0
        } else {
            pge_interactions as f64 / interactions as f64
        },
        ro_served: sys.metrics().counter("clbft.ro.served"),
        ro_fallbacks: sys.metrics().counter("clbft.ro.fallbacks"),
        txn_committed: sys.metrics().counter("clbft.txn.committed"),
        txn_aborted: sys.metrics().counter("clbft.txn.aborted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: u32, sync_pge: bool, rbes: u32) -> TpcwConfig {
        TpcwConfig {
            n_bookstore: 1,
            n_pge: n,
            n_bank: n,
            rbes,
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(10),
            sync_pge,
            think_mean: SimDuration::from_secs(7),
            bookstore_shards: 1,
            read_only: false,
            cross_shard_buys: false,
            page_cost_scale: 1,
            seed: 7,
        }
    }

    #[test]
    fn smoke_run_produces_interactions() {
        let r = run_tpcw(small(1, false, 7));
        assert!(r.interactions > 20, "got {}", r.interactions);
        assert!(r.wips > 0.3, "wips={}", r.wips);
    }

    #[test]
    fn replicated_pge_still_serves() {
        let r = run_tpcw(small(4, false, 7));
        assert!(r.interactions > 20, "got {}", r.interactions);
    }

    #[test]
    fn pge_share_is_in_band_over_long_runs() {
        let mut cfg = small(1, false, 14);
        cfg.duration = SimDuration::from_secs(400);
        let r = run_tpcw(cfg);
        assert!(
            (0.02..=0.13).contains(&r.pge_share),
            "pge share {} out of band ({} of {})",
            r.pge_share,
            r.pge_interactions,
            r.interactions
        );
    }

    #[test]
    fn read_only_browse_pages_take_the_fast_path() {
        let mut cfg = small(1, false, 7);
        cfg.read_only = true;
        let r = run_tpcw(cfg);
        assert!(r.interactions > 20, "got {}", r.interactions);
        assert!(r.ro_served > 0, "no fast-path reads served");
    }

    #[test]
    fn read_only_against_a_replicated_bookstore() {
        // A 4-replica store must assemble a 2f+1 = 3 matching-reply quorum
        // for every browse page.
        let mut cfg = small(1, false, 7);
        cfg.n_bookstore = 4;
        cfg.read_only = true;
        let r = run_tpcw(cfg);
        assert!(r.interactions > 20, "got {}", r.interactions);
        assert!(
            r.ro_served > 0,
            "replicated store never served a fast-path read"
        );
    }

    #[test]
    fn sync_variant_also_completes() {
        let r = run_tpcw(small(4, true, 7));
        assert!(r.interactions > 20, "got {}", r.interactions);
    }

    #[test]
    fn sharded_bookstore_drives_every_shard() {
        // Partition the store by customer key across two shards; with
        // enough concurrent sessions the rendezvous router must land
        // traffic on both, and the mix still completes end to end.
        let mut cfg = small(1, false, 10);
        cfg.bookstore_shards = 2;
        let mut b = SystemBuilder::new(cfg.seed);
        b.sharded("bookstore", 2, 1, |_, _| {
            Box::new(Bookstore::new(1000, "pge"))
        });
        b.service("pge", 1, |_| Box::new(Pge::new("bank")));
        b.passive_service("bank", 1, |_| Box::new(Bank::new()));
        for i in 0..cfg.rbes {
            let think = cfg.think_mean;
            b.custom_client(&format!("rbe{i}"), move |core, uris| {
                let (_, bookstore) = uris
                    .route("urn:svc:bookstore", &i.to_string())
                    .expect("bookstore routes");
                Box::new(Rbe::new(core, bookstore, i as u64, think))
            });
        }
        let mut sys = b.build();
        sys.run_for(SimDuration::from_secs(90));
        let interactions = sys.metrics().counter("tpcw.web_interactions");
        assert!(interactions > 20, "got {interactions}");
        // Bookstore shards registered first: groups g0 and g1. Both must
        // have executed agreed requests (the per-group exec metrics).
        for g in 0..2 {
            let served = sys.metrics().counter(&format!("clbft.exec.g{g}.requests"));
            assert!(served > 0, "shard g{g} never served");
        }

        // The harness-level config reaches the same topology.
        let r = run_tpcw(cfg);
        assert!(r.interactions > 20, "harness run got {}", r.interactions);
    }

    #[test]
    fn cross_shard_buys_update_inventory_exactly_once() {
        use perpetual_ws::{ServiceExecutor, TxnShim};

        // Two store shards, multi-customer buys: every buy-confirm and
        // shopping-cart page names the browser's session plus a partner on
        // the other shard, so each one runs as a two-phase commit.
        let rbes = 10u32;
        let mut b = SystemBuilder::new(4242);
        b.sharded_txn("bookstore", 2, 1, |_, _| {
            Box::new(Bookstore::new(1000, "pge"))
        });
        b.service("pge", 1, |_| Box::new(Pge::new("bank")));
        b.passive_service("bank", 1, |_| Box::new(Bank::new()));
        for i in 0..rbes {
            b.custom_client(&format!("rbe{i}"), move |core, uris| {
                let (_, bookstore) = uris
                    .route("urn:svc:bookstore", &i.to_string())
                    .expect("bookstore routes");
                let rbe = Rbe::new(core, bookstore, i as u64, SimDuration::from_secs(7));
                Box::new(rbe.with_cross_shard(2))
            });
        }
        let mut sys = b.build();
        sys.run_for(SimDuration::from_secs(300));
        let committed = sys.metrics().counter("clbft.txn.committed");
        assert!(committed > 0, "no cross-shard transactions committed");

        // Exactly-once inventory audit: a committed cross-shard buy places
        // one settled order on each of its two shards, and a committed
        // cross-shard cart page adds one line per shard. Sum the per-shard
        // transactional counters and square them against what the browsers
        // observed (each browser has at most one interaction still in
        // flight at the end of the run).
        let mut orders = 0u64;
        let mut cart_lines = 0u64;
        for shard in 0..2u32 {
            let shim = sys
                .replica_mut(&format!("bookstore#{shard}"), 0)
                .expect("shard replica")
                .executor_mut::<ServiceExecutor>()
                .expect("service executor")
                .service_mut::<TxnShim>()
                .expect("txn shim");
            let store = shim.inner_mut::<Bookstore>().expect("bookstore inner");
            orders += store.txn_orders;
            cart_lines += store.txn_cart_lines;
        }
        let mut seen = 0u64;
        for i in 0..rbes {
            let node = sys.client_node(&format!("rbe{i}"));
            seen += sys
                .sim_mut()
                .node_mut::<Rbe>(node)
                .expect("rbe node")
                .cross_buy_commits;
        }
        assert!(seen > 0, "no browser observed a committed cross-shard buy");
        assert!(
            orders >= 2 * seen,
            "lost updates: {orders} orders for {seen} observed commits"
        );
        assert!(
            orders <= 2 * (seen + u64::from(rbes)),
            "duplicate updates: {orders} orders for {seen} observed commits"
        );
        assert!(cart_lines > 0, "no cross-shard cart lines committed");

        // And the harness-level switch reaches the same topology.
        let mut cfg = small(1, false, 8);
        cfg.bookstore_shards = 2;
        cfg.cross_shard_buys = true;
        let r = run_tpcw(cfg);
        assert!(r.interactions > 20, "harness run got {}", r.interactions);
        assert!(r.txn_committed > 0, "harness run committed no txns");
    }
}
