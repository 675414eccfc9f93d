//! The ledger's metric names, units, directions and regression bounds: the
//! one table `BENCHMARK.json`, the printed output and `--compare` share.
//! Every later performance claim is made against these names.

use crate::run::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 15;

/// The end-to-end metrics, defined (and never zero) on every workload.
///
/// `sim_*` are on the simulated clock: for one seed they repeat exactly, so
/// a same-seed comparison of two commits is exact. Every bound is sized to
/// at least three times the spread over ten runs that each draw a fresh
/// seed, which is how the acceptance runs are made (README.md,
/// baseline/STEADINESS.md): that spread is seed-to-seed variation for the
/// `sim_*` metrics, and seed plus shared-box noise for the host ones.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "sim_throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_lat_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "host_ops_per_cpu_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The end-to-end metrics that live on the simulated clock.
pub const SIM_END_TO_END: [&str; 4] = [
    "sim_throughput_rps",
    "sim_cpu_ms_per_op",
    "sim_lat_p50_ms",
    "sim_lat_p99_ms",
];

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
    }
}

const fn count_lower(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
    }
}

const fn ms_lower(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: Better::Lower,
    }
}

const fn ratio_lower(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "x",
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Kernels: host clock, the layer's public function called directly,
/// median of 15 batches, ns per operation.
pub const KERNELS: [PerLayer; 36] = [
    ns("crypto.sha256_64b_ns"),
    ns("crypto.sha256_1k_ns"),
    ns("crypto.mac_compute_1k_ns"),
    ns("crypto.mac_verify_1k_ns"),
    ns("crypto.bundle_verify_n4_ns"),
    ns("crypto.bundle_verify_n10_ns"),
    ns("soap.marshal_null_ns"),
    ns("soap.demarshal_null_ns"),
    ns("soap.marshal_page_ns"),
    ns("soap.demarshal_page_ns"),
    ns("clbft.encode_preprepare16_ns"),
    ns("clbft.decode_preprepare16_ns"),
    ns("clbft.round_n4_ns"),
    ns("clbft.order_cap1_ns_per_req"),
    ns("clbft.order_cap16_ns_per_req"),
    ns("clbft.manifest_full_64k_ns"),
    ns("clbft.manifest_incr_64k_ns"),
    ns("clbft.dedup_insert_ns"),
    ns("perpetual.event_encode_ns"),
    ns("perpetual.event_decode_ns"),
    ns("perpetual.pmsg_encode_ns"),
    ns("perpetual.pmsg_decode_ns"),
    ns("core.deploy_12x4_setup_ns"),
    ns("core.route_4shards_ns"),
    ns("core.host_request_ns"),
    ns("simnet.deliver_ns"),
    ns("simnet.timer_ns"),
    ns("simnet.metrics_incr_ns"),
    ns("simnet.metrics_hist_ns"),
    ns("obs.hist_record_ns"),
    ratio_lower("obs.overhead_phases_x"),
    ratio_lower("obs.overhead_full_x"),
    ns("tpcw.db_order_ns"),
    // The null-request cost of replication (Fig. 8): window-1 ms/request
    // at 4×4 over the same at 1×1. Sim clock; workload-independent.
    ratio_lower("sim_overhead_x"),
    ms_lower("sim_window1_4x4_ms"),
    ms_lower("sim_window1_1x1_ms"),
];

/// Per workload: counts and sim-clock values from the traced repetition
/// (exact for a seed), except the two host-clock ones noted.
pub const PER_WORKLOAD: [PerLayer; 40] = [
    count_lower("simnet.msgs_per_op"),
    PerLayer {
        name: "simnet.bytes_per_op",
        unit: "B",
        better: Better::Lower,
    },
    // Host clock.
    higher("simnet.events_per_cpu_s", "1/s"),
    higher("clbft.reqs_per_batch", "count"),
    count_lower("clbft.batch_timeouts"),
    count_lower("clbft.view_changes"),
    higher("clbft.ckpts", "count"),
    count_lower("clbft.pages_hashed"),
    count_lower("clbft.pages_fetched"),
    count_lower("clbft.pages_rejected"),
    higher("clbft.ro_served", "count"),
    count_lower("clbft.ro_fallbacks"),
    higher("clbft.txn_committed", "count"),
    count_lower("clbft.txn_aborted"),
    count_lower("clbft.queue_depth_p95"),
    higher("clbft.inflight_p95", "count"),
    higher("clbft.occupancy_p95", "count"),
    count_lower("perpetual.bundles_per_op"),
    count_lower("perpetual.retransmits"),
    count_lower("perpetual.gated"),
    count_lower("core.route_retries"),
    ms_lower("lat.batched_p50_ms"),
    ms_lower("lat.batched_p99_ms"),
    ms_lower("lat.prepared_p50_ms"),
    ms_lower("lat.prepared_p99_ms"),
    ms_lower("lat.committed_p50_ms"),
    ms_lower("lat.committed_p99_ms"),
    ms_lower("lat.executed_p50_ms"),
    ms_lower("lat.executed_p99_ms"),
    ms_lower("lat.total_p50_ms"),
    ms_lower("lat.total_p99_ms"),
    ms_lower("proto.viewchange_ms"),
    ms_lower("proto.transfer_ms"),
    ms_lower("proto.ckpt_stable_ms"),
    ms_lower("proto.twopc_ms"),
    // Host clock: traced CPU over untraced CPU for the same window.
    ratio_lower("obs.trace_overhead_x"),
    // `fault_recovery` only (0 elsewhere): what a user sees of the faults.
    ms_lower("sim_outage_ms"),
    ms_lower("sim_recovery_ms"),
    PerLayer {
        name: "sim_slo_miss_share",
        unit: "share",
        better: Better::Lower,
    },
    ms_lower("gen.late_ms"),
];

/// Every per-layer metric, kernels first.
pub fn per_layer() -> impl Iterator<Item = PerLayer> {
    KERNELS.into_iter().chain(PER_WORKLOAD)
}

/// Why each workload is in the benchmark, one line each.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::NullRpc => {
            "Fig. 7/8 two-tier null request, all ordered writes: clbft, perpetual, crypto and \
             simnet do the work; codec, clone, MAC and metrics-map gains must show here"
        }
        Workload::TpcwBrowse => {
            "Fig. 6 TPC-W, browse-heavy with the read-only fast path: large SOAP pages and \
             nested bookstore-PGE-bank calls; soap, tpcw and the core host dominate"
        }
        Workload::ShardedMix => {
            "4 shards x 4 replicas saturated, 10% two-shard 2PC: core router and txn plus a \
             40-node event loop; where batching changes must move throughput and p99"
        }
        Workload::FaultRecovery => {
            "open-loop 600 rps through a primary crash, restart and a cold replica wipe: \
             view change, checkpoints and Merkle paged transfer, timed from each call's due time"
        }
    }
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"-q\", \
         \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"ledger\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name(),
            why(w)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers: Vec<PerLayer> = per_layer().collect();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()), "{}", w.name());
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in per_layer() {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        assert!(per_layer().count() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for name in SIM_END_TO_END {
            assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// The committed `BENCHMARK.json` is exactly what the tables render.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --benchmark-json"
        );
        assert!(committed.len() <= 64 * 1024);
        let v = json::parse(&committed).expect("valid json");
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
