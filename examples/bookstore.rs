//! The paper's TPC-W scenario (Fig. 5): browser emulators drive an online
//! bookstore, whose Buy Confirm pages authorize payments through a
//! replicated Payment Gateway Emulator that in turn calls a replicated
//! bank — three tiers across two organizational boundaries.
//!
//! ```sh
//! cargo run --release --example bookstore
//! ```

use pws_simnet::SimDuration;
use pws_tpcw::{run_tpcw, TpcwConfig};

fn main() {
    for n in [1u32, 4] {
        let cfg = TpcwConfig {
            n_bookstore: 1,
            n_pge: n,
            n_bank: n,
            rbes: 28,
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(10),
            sync_pge: false,
            think_mean: SimDuration::from_secs(7),
            bookstore_shards: 1,
            read_only: false,
            page_cost_scale: 1,
            cross_shard_buys: false,
            seed: 2007,
        };
        let r = run_tpcw(cfg);
        println!(
            "PGE/Bank x{n}: {:.2} WIPS over {}s ({} interactions, {:.1}% hit the PGE)",
            r.wips,
            cfg.duration.as_millis() / 1000,
            r.interactions,
            r.pge_share * 100.0
        );
    }
    println!(
        "\nReplicating the payment tiers 4-way costs almost nothing end-to-end,\n\
         because only ~1 in 14 web interactions reaches them — the paper's §6.4\n\
         observation."
    );
}
