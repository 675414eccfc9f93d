//! **Figure 6** — TPC-W benchmark results.
//!
//! Paper: WIPS vs the number of remote browser emulators (7–70), with the
//! PGE and Bank replicated at `n ∈ {1, 4, 7, 10}` (§6.1, Fig. 6). Expected
//! shape: WIPS grows almost linearly with RBE count and "the effects of
//! replicating the PGE and Bank layers is minimal" (§6.4) because only
//! 5–10 % of interactions reach the PGE. A `--sync`-style series reproduces
//! the §6.4 claim that asynchronous PGE/Bank implementations perform up to
//! ~4 % better.

use pws_bench::{emit_table, quick_mode};
use pws_simnet::SimDuration;
use pws_tpcw::{run_tpcw, TpcwConfig};

fn main() {
    let (replicas, rbe_counts, duration): (&[u32], Vec<u32>, u64) = if quick_mode() {
        (&[1, 4], vec![14, 28], 40)
    } else {
        (&[1, 4, 7, 10], (1..=10).map(|i| i * 7).collect(), 90)
    };

    println!("Figure 6: TPC-W WIPS vs RBE count (duration {duration}s simulated per cell)");
    let mut rows = Vec::new();
    for &n in replicas {
        for &rbes in &rbe_counts {
            let r = run_tpcw(TpcwConfig {
                n_bookstore: 1,
                n_pge: n,
                n_bank: n,
                rbes,
                duration: SimDuration::from_secs(duration),
                warmup: SimDuration::from_secs(15),
                sync_pge: false,
                think_mean: SimDuration::from_secs(7),
                bookstore_shards: 1,
                read_only: false,
                page_cost_scale: 1,
                cross_shard_buys: false,
                seed: 2007,
            });
            rows.push(vec![
                n.to_string(),
                rbes.to_string(),
                format!("{:.2}", r.wips),
                format!("{:.1}%", r.pge_share * 100.0),
            ]);
        }
    }
    emit_table(
        "fig6_tpcw",
        &["n_pge=n_bank", "rbes", "wips", "pge_share"],
        &rows,
    );

    let wips = |n: u32, rbes: u32| -> f64 {
        rows.iter()
            .find(|r| r[0] == n.to_string() && r[1] == rbes.to_string())
            .map(|r| r[2].parse().unwrap())
            .unwrap()
    };
    let max_rbe = *rbe_counts.last().unwrap();
    let min_rbe = rbe_counts[0];
    // Shape: WIPS grows with RBE count; replication cost is minimal.
    for &n in replicas {
        assert!(
            wips(n, max_rbe) > wips(n, min_rbe) * 1.5,
            "n={n}: WIPS should grow with load"
        );
    }
    let n_max = *replicas.last().unwrap();
    let penalty = 1.0 - wips(n_max, max_rbe) / wips(1, max_rbe);
    println!(
        "\nshape check: replicating PGE+Bank at n={n_max} costs {:.1}% WIPS \
         (paper: 'minimal')",
        penalty * 100.0
    );
    assert!(
        penalty < 0.15,
        "replication penalty should be minimal, got {:.1}%",
        penalty * 100.0
    );

    // §6.4 sync-vs-async comparison at a mid-size configuration.
    let cfg = TpcwConfig {
        n_bookstore: 1,
        n_pge: 4,
        n_bank: 4,
        rbes: *rbe_counts.last().unwrap(),
        duration: SimDuration::from_secs(duration),
        warmup: SimDuration::from_secs(15),
        sync_pge: false,
        think_mean: SimDuration::from_secs(7),
        bookstore_shards: 1,
        read_only: false,
        page_cost_scale: 1,
        cross_shard_buys: false,
        seed: 2007,
    };
    let async_r = run_tpcw(cfg);
    let sync_r = run_tpcw(TpcwConfig {
        sync_pge: true,
        ..cfg
    });
    let gain = (async_r.wips / sync_r.wips - 1.0) * 100.0;
    emit_table(
        "fig6_sync_vs_async",
        &["variant", "wips"],
        &[
            vec!["async".into(), format!("{:.2}", async_r.wips)],
            vec!["sync".into(), format!("{:.2}", sync_r.wips)],
        ],
    );
    println!("async vs sync PGE/Bank: {gain:+.1}% WIPS (paper: up to ~4% better)");

    // Read-only fast path: a browse-heavy closed loop against a 4-replica
    // store with near-zero think time, so WIPS tracks interaction latency
    // instead of the 7 s think clock. Page costs are scaled down to an
    // in-memory front tier — at paper calibration DB emulation dominates
    // both paths (the §6.4 "replication is minimal" observation) and would
    // mask the agreement savings. Browse pages (~78 % of the mix) skip
    // agreement entirely when `read_only` is on.
    let ro_cfg = TpcwConfig {
        n_bookstore: 4,
        n_pge: 1,
        n_bank: 1,
        rbes: if quick_mode() { 7 } else { 14 },
        duration: SimDuration::from_secs(if quick_mode() { 30 } else { 60 }),
        warmup: SimDuration::from_secs(5),
        sync_pge: false,
        think_mean: SimDuration::from_millis(1),
        bookstore_shards: 1,
        read_only: false,
        page_cost_scale: 100,
        cross_shard_buys: false,
        seed: 2007,
    };
    let ordered = run_tpcw(ro_cfg);
    let fast = run_tpcw(TpcwConfig {
        read_only: true,
        ..ro_cfg
    });
    let speedup = fast.wips / ordered.wips;
    emit_table(
        "fig6_readonly",
        &["variant", "wips", "ro_served", "ro_fallbacks"],
        &[
            vec![
                "ordered".into(),
                format!("{:.2}", ordered.wips),
                "0".into(),
                "0".into(),
            ],
            vec![
                "read-only".into(),
                format!("{:.2}", fast.wips),
                fast.ro_served.to_string(),
                fast.ro_fallbacks.to_string(),
            ],
        ],
    );
    println!("read-only fast path on a 4-replica store: {speedup:.2}x WIPS");
    assert!(
        fast.ro_served > 0,
        "fast path never served a read (ro_served = 0)"
    );
    assert!(
        speedup >= 1.3,
        "read-only fast path should win >= 1.3x on a browse-heavy mix, got {speedup:.2}x"
    );
}
