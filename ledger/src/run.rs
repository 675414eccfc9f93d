//! The one runner: a [`RunSpec`] (workload, seed, trace level, warm-up,
//! window) goes in, a [`RunResult`] carrying both clocks comes out.
//!
//! Run shape, identical for every workload: build the deployment, run the
//! warm-up, reset the metrics registry, run the measured window with the
//! load still running at its end, read the results from outside through
//! `Metrics`, the obs exporters and the bench-owned load nodes.

use crate::clock::CpuClock;
use crate::spans::Spans;
use crate::stats;
use crate::workloads;
use perpetual_ws::{System, SystemBuilder, TraceLevel};
use pws_simnet::metrics::Metrics;
use pws_simnet::SimDuration;

/// The four workloads of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NullRpc,
    TpcwBrowse,
    ShardedMix,
    FaultRecovery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NullRpc,
        Workload::TpcwBrowse,
        Workload::ShardedMix,
        Workload::FaultRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NullRpc => "null_rpc",
            Workload::TpcwBrowse => "tpcw_browse",
            Workload::ShardedMix => "sharded_mix",
            Workload::FaultRecovery => "fault_recovery",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `(warm-up, measured window)` in simulated time. Sized so one
    /// repetition costs about 5 CPU-seconds on the 2-core reference box:
    /// host cost per request grows with run length, so shorter cells
    /// under-report it.
    fn timing(self) -> (SimDuration, SimDuration) {
        let ms = SimDuration::from_millis;
        match self {
            Workload::NullRpc => (ms(1_000), ms(6_000)),
            Workload::TpcwBrowse => (ms(3_000), ms(11_000)),
            Workload::ShardedMix => (ms(300), ms(2_000)),
            Workload::FaultRecovery => (ms(2_000), ms(22_000)),
        }
    }
}

/// Everything that defines one repetition.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    /// Feeds `SystemBuilder::new` and every generated arrival and key.
    pub seed: u64,
    pub trace: TraceLevel,
    pub warmup: SimDuration,
    pub window: SimDuration,
}

impl RunSpec {
    /// The workload at its benchmark size.
    pub fn standard(workload: Workload, seed: u64, trace: TraceLevel) -> Self {
        let (warmup, window) = workload.timing();
        RunSpec {
            workload,
            seed,
            trace,
            warmup,
            window,
        }
    }

    /// The same shape shrunk by `divisor`.
    #[cfg(test)]
    pub fn shrunk(mut self, divisor: u64) -> Self {
        self.warmup = SimDuration::from_micros(self.warmup.as_micros() / divisor);
        self.window = SimDuration::from_micros(self.window.as_micros() / divisor);
        self
    }
}

/// What a workload reads off its own load generators after the window.
#[derive(Debug, Default)]
pub struct Observed {
    /// Operations completed inside the measured window.
    pub ops: u64,
    /// Operations the load asked for in the window (closed loops: the
    /// completed ones; the open loop: every call due in it).
    pub attempted: u64,
    pub failed: u64,
    /// Client-observed latencies of the window's operations, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Workload-specific sim-clock values and counts, by metric name.
    pub extra: Vec<(&'static str, f64)>,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
}

/// One workload's deployment and probes. `build` registers services and
/// load on the builder; the other hooks run against the built system.
pub trait Scenario {
    fn build(&mut self, b: &mut SystemBuilder, spec: &RunSpec);
    /// Called at the end of the warm-up, before the metrics reset.
    fn mark(&mut self, sys: &mut System);
    /// Runs the measured window. Fault schedules override this.
    fn measure(&mut self, sys: &mut System, spec: &RunSpec) {
        sys.run_for(spec.window);
    }
    /// Called right after the window, before anything else runs.
    fn collect(&mut self, sys: &mut System, spec: &RunSpec) -> Observed;
    /// Called last; may run the system on (a drain) and amend `seen`.
    fn settle(&mut self, sys: &mut System, seen: &mut Observed) {
        let _ = (sys, seen);
    }
}

/// Both clocks' view of one repetition.
#[derive(Debug)]
pub struct RunResult {
    /// CPU-seconds of `build()` plus the warm-up.
    pub setup_cpu_s: f64,
    /// CPU-seconds of the measured window.
    pub measure_cpu_s: f64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Client-observed latencies in the window, sorted ascending, ms.
    pub latencies_ms: Vec<f64>,
    /// Rolling digest of every delivery and timer of the whole run.
    pub digest: u64,
    /// Sim events (deliveries + timers) processed inside the window.
    pub window_events: u64,
    /// Sim-clock values and counts by metric name: the `sim_*` end-to-end
    /// metrics, then the per-layer ones.
    pub sim: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
    /// `export_trace_json` of the run (traced repetitions only).
    pub trace_json: Option<String>,
}

impl RunResult {
    pub fn sim_value(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
    }

    /// What must be identical across repetitions of one spec, whatever the
    /// trace level: the op counts and the sim-clock end-to-end values.
    pub fn identity(&self) -> (u64, u64, u64, Vec<u64>) {
        let e2e = crate::names::SIM_END_TO_END
            .iter()
            .map(|name| self.sim_value(name).unwrap_or(f64::NAN).to_bits())
            .collect();
        (self.ops, self.attempted, self.failed, e2e)
    }

    /// Whether the event digest must repeat as well. A view change breaks
    /// that without changing the schedule: `NewView` carries its votes in
    /// `HashMap` order, so the message bytes the digest covers differ
    /// between two builds of the same deployment.
    pub fn digest_repeats(&self) -> bool {
        self.sim_value("clbft.view_changes") == Some(0.0)
    }
}

/// Runs one repetition of `spec`, recording bench-side spans.
pub fn run(spec: &RunSpec, spans: &mut Spans) -> RunResult {
    let clock = CpuClock::new();
    let mut scenario = workloads::scenario(spec);

    let t_setup = clock.now_s();
    let span = spans.open("build");
    let mut b = SystemBuilder::new(spec.seed);
    b.tracing(spec.trace);
    scenario.build(&mut b, spec);
    let mut sys = b.build();
    spans.close(span);
    let span = spans.open("warmup");
    sys.run_for(spec.warmup);
    scenario.mark(&mut sys);
    sys.sim_mut().metrics_mut().reset();
    spans.close(span);
    let setup_cpu_s = clock.now_s() - t_setup;

    let events_before = sys.sim_mut().trace_digest().events();
    let t_measure = clock.now_s();
    let span = spans.open("measure");
    scenario.measure(&mut sys, spec);
    spans.close(span);
    let measure_cpu_s = clock.now_s() - t_measure;
    let window_events = sys.sim_mut().trace_digest().events() - events_before;

    let span = spans.open("collect");
    let mut seen = scenario.collect(&mut sys, spec);
    let ops = seen.ops.max(1) as f64;
    let mut sim = vec![
        (
            "sim_throughput_rps",
            seen.ops as f64 / spec.window.as_secs_f64(),
        ),
        (
            "sim_cpu_ms_per_op",
            sys.metrics().counter("cpu.busy_us") as f64 / 1e3 / ops,
        ),
    ];
    let layers = layer_metrics(sys.metrics(), ops);
    scenario.settle(&mut sys, &mut seen);
    let latencies_ms = stats::sorted(std::mem::take(&mut seen.latencies_ms));
    if latencies_ms.is_empty() {
        seen.failures
            .push("no client-observed latency samples".into());
    } else {
        sim.push(("sim_lat_p50_ms", stats::percentile(&latencies_ms, 0.5)));
        sim.push(("sim_lat_p99_ms", stats::percentile(&latencies_ms, 0.99)));
    }
    sim.extend(layers);
    sim.extend(std::mem::take(&mut seen.extra));
    if seen.ops == 0 {
        seen.failures.push("no operation completed".into());
    }
    let digest = sys.sim_mut().trace_digest().value();
    let trace_json = spec.trace.spans_enabled().then(|| sys.export_trace_json());
    spans.close(span);

    RunResult {
        setup_cpu_s,
        measure_cpu_s,
        ops: seen.ops,
        attempted: seen.attempted,
        failed: seen.failed,
        latencies_ms,
        digest,
        window_events,
        sim,
        failures: seen.failures,
        trace_json,
    }
}

/// The window's per-layer counts and sim-clock values, read from the
/// public metrics registry. Histogram- and gauge-derived entries exist
/// only on traced runs (they read 0 otherwise).
fn layer_metrics(m: &Metrics, ops: f64) -> Vec<(&'static str, f64)> {
    let c = |name: &str| m.counter(name) as f64;
    let hist = |key: &str, q: f64| m.histogram(key).map_or(0.0, |h| h.quantile(q));
    let gauges = pws_bench::timeseries_fields(m);
    let gauge_p95 = |label: &str| {
        gauges
            .iter()
            .find(|(k, _)| k == label)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut out = vec![
        ("simnet.msgs_per_op", c("net.messages_sent") / ops),
        ("simnet.bytes_per_op", c("net.bytes_sent") / ops),
        (
            "perpetual.bundles_per_op",
            c("perpetual.bundles_sent") / ops,
        ),
        ("clbft.reqs_per_batch", m.mean_batch_occupancy("clbft.exec")),
        ("clbft.batch_timeouts", c("clbft.batch_timeouts")),
        ("clbft.view_changes", c("perpetual.view_changes")),
        ("clbft.ckpts", c("clbft.ckpt.stable")),
        ("clbft.pages_hashed", c("clbft.pages.hashed")),
        ("clbft.pages_fetched", c("clbft.pages.fetched")),
        ("clbft.pages_rejected", c("clbft.pages.rejected")),
        ("clbft.ro_served", c("clbft.ro.served")),
        ("clbft.ro_fallbacks", c("clbft.ro.fallbacks")),
        ("clbft.txn_committed", c("clbft.txn.committed")),
        ("clbft.txn_aborted", c("clbft.txn.aborted")),
        ("clbft.queue_depth_p95", gauge_p95("ts_queue_depth_p95")),
        ("clbft.inflight_p95", gauge_p95("ts_inflight_p95")),
        ("clbft.occupancy_p95", gauge_p95("ts_occupancy_p95")),
        (
            "perpetual.retransmits",
            c("perpetual.shares_retransmitted")
                + c("perpetual.call_retries")
                + c("client.call_retries"),
        ),
        ("perpetual.gated", c("perpetual.proposals_gated")),
        ("core.route_retries", c("client.route_retries")),
    ];
    for (p50, p99, key) in [
        (
            "lat.batched_p50_ms",
            "lat.batched_p99_ms",
            "obs.phase.batched_ms",
        ),
        (
            "lat.prepared_p50_ms",
            "lat.prepared_p99_ms",
            "obs.phase.prepared_ms",
        ),
        (
            "lat.committed_p50_ms",
            "lat.committed_p99_ms",
            "obs.phase.committed_ms",
        ),
        (
            "lat.executed_p50_ms",
            "lat.executed_p99_ms",
            "obs.phase.executed_ms",
        ),
        (
            "lat.total_p50_ms",
            "lat.total_p99_ms",
            pws_obs::TOTAL_LATENCY_KEY,
        ),
    ] {
        out.push((p50, hist(key, 0.5)));
        out.push((p99, hist(key, 0.99)));
    }
    out.extend([
        (
            "proto.viewchange_ms",
            hist("obs.proto.vc.installed_ms", 0.5),
        ),
        (
            "proto.transfer_ms",
            hist("obs.proto.xfer.installed_ms", 0.5),
        ),
        (
            "proto.ckpt_stable_ms",
            hist("obs.proto.ckpt.stable_ms", 0.5),
        ),
        ("proto.twopc_ms", hist("obs.proto.txn.acked_ms", 0.5)),
    ]);
    out
}
