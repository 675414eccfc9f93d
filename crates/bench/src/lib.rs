//! # pws-bench
//!
//! Shared machinery for the benchmark targets that regenerate the paper's
//! evaluation (one bench per table/figure):
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table2_features` | Fig. 2 (property matrix) |
//! | `fig6_tpcw` | Fig. 6 (TPC-W WIPS vs RBE count) |
//! | `fig7_scalability` | Fig. 7 (null-request throughput vs replicas) |
//! | `fig8_processing` | Fig. 8 (completion time & overhead vs CPU time) |
//! | `fig9_async` | Fig. 9 (throughput vs parallel async requests) |
//! | `ablation_crypto` | §3/§6.4 (MAC vs signature authentication, Fig. 7 sweep) |
//!
//! Absolute numbers come from the simulation's calibrated cost model, so
//! they are not comparable to the paper's testbed; the *shapes* (who wins,
//! scaling direction, crossovers) are the reproduction target. Each bench
//! prints a table and writes a CSV under `target/figures/`.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the crate map and
//! the wire formats the cost model charges for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use perpetual_ws::{
    PassiveService, PassiveUtils, Phase, Poll, RendezvousRouter, Router, Service, ServiceCtx,
    ServiceExecutor, SystemBuilder, TraceLevel, TxnService, TxnShim, WsEvent, TXN_ABORTED_FAULT,
};
use pws_simnet::metrics::{Metrics, Summary};
use pws_simnet::{SimDuration, SimTime};
use pws_soap::{MessageContext, XmlNode};
use std::io::Write as _;
use std::path::PathBuf;

/// Whether `PWS_BENCH_QUICK=1` trims sweeps for smoke runs.
pub fn quick_mode() -> bool {
    std::env::var("PWS_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// The `increment` null-op service of §6.2, with configurable per-request
/// processing cost (0 for the null benchmark, >0 for Fig. 8).
#[derive(Debug)]
pub struct Increment {
    counter: u64,
    processing: SimDuration,
}

impl Increment {
    /// A null-op service.
    pub fn null() -> Self {
        Increment::with_processing(SimDuration::ZERO)
    }

    /// A service that burns `processing` CPU per request (the paper used
    /// message-digest calculations of the required length).
    pub(crate) fn with_processing(processing: SimDuration) -> Self {
        Increment {
            counter: 0,
            processing,
        }
    }
}

impl PassiveService for Increment {
    fn handle(&mut self, req: MessageContext, utils: &mut PassiveUtils) -> MessageContext {
        if self.processing > SimDuration::ZERO {
            utils.spend(self.processing);
        }
        let old = self.counter;
        self.counter += 1;
        req.reply_with(
            "",
            XmlNode::new("incrementResult").with_text(old.to_string()),
        )
    }
}

/// A replicated *calling* Web Service that drives `total` requests at a
/// target, keeping `window` in flight (window 1 ≈ the paper's synchronous
/// micro-benchmark loop; >1 ≈ the parallel asynchronous requests of
/// Fig. 9). Measurements are taken at the calling service, as in §6.2.
#[derive(Debug)]
pub struct LoadCaller {
    target_uri: String,
    total: u64,
    window: u64,
    sent: u64,
    done: u64,
}

impl LoadCaller {
    /// Creates a caller of service `target`.
    pub fn new(target: &str, total: u64, window: u64) -> Self {
        LoadCaller {
            target_uri: format!("urn:svc:{target}"),
            total,
            window: window.max(1),
            sent: 0,
            done: 0,
        }
    }

    fn request(&self, seq: u64) -> MessageContext {
        let mut mc = MessageContext::request(&self.target_uri, "increment");
        mc.body_mut().name = "increment".into();
        mc.body_mut().text = seq.to_string();
        mc
    }

    fn fire(&mut self, ctx: &mut ServiceCtx<'_>) {
        let req = self.request(self.sent);
        let _ = ctx.send(req);
        self.sent += 1;
    }
}

impl Service for LoadCaller {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        match ev {
            WsEvent::Init { .. } => {
                while self.sent < self.window.min(self.total) {
                    self.fire(ctx);
                }
            }
            WsEvent::Reply { .. } => {
                self.done += 1;
                if self.sent < self.total {
                    self.fire(ctx);
                }
            }
            WsEvent::Request { .. } | WsEvent::Time { .. } => {}
        }
        if self.done >= self.total {
            Poll::Done
        } else {
            Poll::any_reply()
        }
    }
}

/// Result of one two-tier micro-benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoTierResult {
    /// Requests per second observed at the calling service.
    pub throughput: f64,
    /// Mean request completion time in milliseconds.
    pub completion_ms: f64,
    /// Requests completed.
    pub completed: u64,
    /// Agreement batches executed across all voter groups.
    pub batches: u64,
    /// Mean requests per executed agreement batch (1.0 = batching never
    /// engaged).
    pub mean_batch: f64,
}

/// Runs the two-tier setting of §6.2: a calling service of `nc` replicas
/// issuing `total` requests (window `window`) at a target of `nt` replicas
/// whose per-request processing cost is `processing`, with the default
/// CLBFT batching cap.
pub fn run_two_tier(
    nc: u32,
    nt: u32,
    total: u64,
    window: u64,
    processing: SimDuration,
    seed: u64,
) -> TwoTierResult {
    run_two_tier_batched(nc, nt, total, window, processing, seed, 16)
}

/// [`run_two_tier`] with an explicit CLBFT batching cap (`max_batch = 1`
/// disables batching). Drives the fig8 batch-size sweep.
#[allow(clippy::too_many_arguments)]
pub fn run_two_tier_batched(
    nc: u32,
    nt: u32,
    total: u64,
    window: u64,
    processing: SimDuration,
    seed: u64,
    max_batch: usize,
) -> TwoTierResult {
    run_two_tier_traced(
        nc,
        nt,
        total,
        window,
        processing,
        seed,
        max_batch,
        TraceLevel::Off,
    )
    .0
}

/// [`run_two_tier_batched`] with request-lifecycle tracing at `trace`,
/// additionally returning the per-phase latency percentiles and
/// time-series gauge summaries ([`timeseries_fields`]) of the run for the
/// headline JSON artifacts.
#[allow(clippy::too_many_arguments)]
pub fn run_two_tier_traced(
    nc: u32,
    nt: u32,
    total: u64,
    window: u64,
    processing: SimDuration,
    seed: u64,
    max_batch: usize,
    trace: TraceLevel,
) -> (TwoTierResult, Vec<(String, f64)>) {
    let mut b = SystemBuilder::new(seed);
    b.tracing(trace);
    b.max_batch_size(max_batch);
    b.service("caller", nc, move |_| {
        Box::new(LoadCaller::new("target", total, window))
    });
    b.passive_service("target", nt, move |_| {
        Box::new(Increment::with_processing(processing))
    });
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(3_600));
    let completed = sys.metrics().counter("perpetual.calls_completed") / nc as u64;
    // Elapsed = time of the last completed call (the sim clock jumps to the
    // deadline once the event queue drains).
    let elapsed = sys
        .metrics()
        .summary("perpetual.completion_time_s")
        .map_or(0.0, |s| s.max);
    let throughput = if elapsed > 0.0 {
        completed as f64 / elapsed
    } else {
        0.0
    };
    let result = TwoTierResult {
        throughput,
        completion_ms: if completed > 0 {
            elapsed * 1000.0 / completed as f64
        } else {
            f64::NAN
        },
        completed,
        batches: sys.metrics().batches("clbft.exec"),
        mean_batch: sys.metrics().mean_batch_occupancy("clbft.exec"),
    };
    let mut fields = latency_fields(sys.metrics());
    fields.extend(timeseries_fields(sys.metrics()));
    (result, fields)
}

/// Flattens a finished run's latency histograms into `(field, value)`
/// pairs for [`emit_bench_json`]: p50/p95/p99 of every recorded lifecycle
/// phase (tracing-enabled runs only), of the whole span, and of the
/// client-observed round trip.
pub(crate) fn latency_fields(m: &Metrics) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut push = |label: String, p50: f64, p95: f64, p99: f64| {
        out.push((format!("lat_{label}_p50_ms"), p50));
        out.push((format!("lat_{label}_p95_ms"), p95));
        out.push((format!("lat_{label}_p99_ms"), p99));
    };
    for phase in Phase::ALL {
        if let Some(h) = m.histogram(phase.metric_key()) {
            push(phase.name().replace('-', "_"), h.p50(), h.p95(), h.p99());
        }
    }
    if let Some(h) = m.histogram("obs.lat.total_ms") {
        push("total".into(), h.p50(), h.p95(), h.p99());
    }
    if let Some(h) = m.histogram("client.latency_ms") {
        push("client".into(), h.p50(), h.p95(), h.p99());
    }
    out
}

/// Flattens a finished run's time-series gauge rings into `(field, value)`
/// pairs for [`emit_bench_json`]: p50/p95 over the retained samples of the
/// per-group queue-depth, in-flight, and batch-occupancy gauges,
/// aggregated across groups. Gauges record only on traced runs
/// ([`SystemBuilder::tracing`]), so untraced runs contribute nothing —
/// callers feed the traced companion run's metrics here.
pub fn timeseries_fields(m: &Metrics) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (label, prefix) in [
        ("ts_queue_depth", "ts.queue_depth."),
        ("ts_inflight", "ts.inflight."),
        ("ts_occupancy", "ts.batch_occupancy."),
    ] {
        let mut values: Vec<f64> = Vec::new();
        for (name, ring) in m.gauges() {
            if name.starts_with(prefix) {
                values.extend(ring.iter().map(|(_, v)| v));
            }
        }
        if let Some(s) = Summary::of(&values) {
            out.push((format!("{label}_p50"), s.p50));
            out.push((format!("{label}_p95"), s.p95));
        }
    }
    out
}

/// Result of one sharded-throughput run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedResult {
    /// Aggregate requests per second across every client, measured from
    /// the first send to the last completion deployment-wide.
    pub throughput: f64,
    /// Requests completed across all clients.
    pub completed: u64,
    /// Agreed requests executed per shard, in shard order, **summed over
    /// the shard's replicas** (the per-group `clbft.exec.<g>.requests`
    /// counter is bumped at every replica, so divide by the replica count
    /// for per-request numbers) — the balance evidence.
    pub per_shard_requests: Vec<u64>,
}

/// Runs one cell of the sharded scale-out sweep: one logical null-op
/// service partitioned across `shards` voter groups of `n_per_shard`
/// replicas, saturated by `clients` scripted clients firing `per_client`
/// keyed requests each with `window` outstanding. Keys are the request
/// sequence numbers, so the rendezvous router spreads them uniformly and
/// every shard orders its own independent log — throughput scales *out*
/// with the shard count instead of asymptoting at one group's agreement
/// rate.
pub fn run_sharded(
    shards: u32,
    n_per_shard: u32,
    clients: u32,
    per_client: u64,
    window: u64,
    seed: u64,
) -> ShardedResult {
    run_sharded_traced(
        shards,
        n_per_shard,
        clients,
        per_client,
        window,
        seed,
        TraceLevel::Off,
    )
    .0
}

/// [`run_sharded`] with request-lifecycle tracing at `trace`, additionally
/// returning the run's latency percentiles and time-series gauge
/// summaries ([`timeseries_fields`]).
pub fn run_sharded_traced(
    shards: u32,
    n_per_shard: u32,
    clients: u32,
    per_client: u64,
    window: u64,
    seed: u64,
    trace: TraceLevel,
) -> (ShardedResult, Vec<(String, f64)>) {
    let mut b = SystemBuilder::new(seed);
    b.tracing(trace);
    b.sharded_passive("target", shards, n_per_shard, |_, _| {
        Box::new(Increment::null())
    });
    for c in 0..clients {
        b.scripted_client_windowed(&format!("load{c}"), "target", per_client, window);
    }
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(3_600));
    let mut completed = 0u64;
    let mut first: Option<SimTime> = None;
    let mut last: Option<SimTime> = None;
    for c in 0..clients {
        let name = format!("load{c}");
        completed += sys.client_replies(&name).len() as u64;
        if let Some((f, l)) = sys.client_span(&name) {
            first = Some(first.map_or(f, |x| x.min(f)));
            last = Some(last.map_or(l, |x| x.max(l)));
        }
    }
    let span = match (first, last) {
        (Some(f), Some(l)) if l > f => (l - f).as_secs_f64(),
        _ => 0.0,
    };
    let per_shard_requests = (0..shards)
        .map(|k| {
            let gid = sys.group(&format!("target#{k}"));
            sys.metrics().counter(&format!("clbft.exec.{gid}.requests"))
        })
        .collect();
    let result = ShardedResult {
        throughput: if span > 0.0 {
            completed as f64 / span
        } else {
            0.0
        },
        completed,
        per_shard_requests,
    };
    let mut fields = latency_fields(sys.metrics());
    fields.extend(timeseries_fields(sys.metrics()));
    (result, fields)
}

/// A transactional null-op for the cross-shard mix sweep: counts
/// applications (single-key requests and committed transaction keys
/// alike), so exactly-once is auditable as a plain sum.
#[derive(Debug, Default)]
pub struct TxnIncrement {
    /// Applications on this shard.
    pub applied: u64,
}

impl Service for TxnIncrement {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        if let WsEvent::Request { request } = ev {
            self.applied += 1;
            let reply = request.reply_with(
                "",
                XmlNode::new("incrementResult").with_text(self.applied.to_string()),
            );
            ctx.reply(reply, &request);
        }
        Poll::Next
    }

    fn snapshot(&self) -> Vec<u8> {
        self.applied.to_be_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let mut b = [0u8; 8];
        if snapshot.len() == 8 {
            b.copy_from_slice(snapshot);
        }
        self.applied = u64::from_be_bytes(b);
    }
}

impl TxnService for TxnIncrement {
    fn txn_execute(&mut self, _op: &str, keys: &[String]) -> String {
        self.applied += keys.len() as u64;
        format!("n={}", keys.len())
    }
}

/// A [`LoadCaller`] variant that marks every `cross_every`-th request as
/// *cross-shard*: its body names two keys owned by different shards, so a
/// transactional sharded target must run it as a two-phase commit. All
/// keys are unique per caller, so concurrent transactions never contend
/// on locks.
#[derive(Debug)]
pub struct MixedCaller {
    target_uri: String,
    total: u64,
    window: u64,
    cross_every: u64,
    shards: u32,
    tag: u32,
    sent: u64,
    /// Requests completed (commits, aborts, and single-key replies).
    pub done: u64,
    /// Cross-shard transactions this caller saw commit.
    pub commits: u64,
    /// Cross-shard transactions this caller saw abort.
    pub aborts: u64,
}

impl MixedCaller {
    /// Creates a caller of sharded service `target` (over `shards`
    /// shards); `tag` disambiguates this caller's key space.
    pub fn new(
        target: &str,
        total: u64,
        window: u64,
        cross_every: u64,
        shards: u32,
        tag: u32,
    ) -> Self {
        MixedCaller {
            target_uri: format!("urn:svc:{target}"),
            total,
            window: window.max(1),
            cross_every,
            shards,
            tag,
            sent: 0,
            done: 0,
            commits: 0,
            aborts: 0,
        }
    }

    fn key_for(&self, seq: u64) -> String {
        let key = format!("c{}-{seq}", self.tag);
        if self.shards < 2 || self.cross_every == 0 || !seq.is_multiple_of(self.cross_every) {
            return key;
        }
        let router = RendezvousRouter::new();
        let own = router.shard(&key, self.shards);
        let partner = (0..64)
            .map(|j| format!("c{}-{seq}-p{j}", self.tag))
            .find(|p| router.shard(p, self.shards) != own);
        match partner {
            Some(p) => format!("{key}|{p}"),
            None => key,
        }
    }

    fn fire(&mut self, ctx: &mut ServiceCtx<'_>) {
        let mut mc = MessageContext::request(&self.target_uri, "increment");
        mc.body_mut().name = "increment".into();
        mc.body_mut().text = self.key_for(self.sent);
        let _ = ctx.send(mc);
        self.sent += 1;
    }
}

impl Service for MixedCaller {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        match ev {
            WsEvent::Init { .. } => {
                while self.sent < self.window.min(self.total) {
                    self.fire(ctx);
                }
            }
            WsEvent::Reply { reply, .. } => {
                self.done += 1;
                match reply.envelope().as_fault() {
                    Some(f) if f.code == TXN_ABORTED_FAULT => self.aborts += 1,
                    Some(_) => {}
                    None if reply.body().text.starts_with("txn=commit") => self.commits += 1,
                    None => {}
                }
                if self.sent < self.total {
                    self.fire(ctx);
                }
            }
            WsEvent::Request { .. } | WsEvent::Time { .. } => {}
        }
        if self.done >= self.total {
            Poll::Done
        } else {
            Poll::any_reply()
        }
    }
}

/// Result of one mixed (cross-shard transaction) sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedResult {
    /// Requests completed across all callers.
    pub completed: u64,
    /// Cross-shard commits observed at the callers.
    pub commits: u64,
    /// Cross-shard aborts observed at the callers.
    pub aborts: u64,
    /// Applications summed over all shards (replica 0 of each): for an
    /// exactly-once run this equals single-key requests + 2 × commits.
    pub applied: u64,
}

/// Runs the cross-shard transaction mix: a transactional sharded null-op
/// target under `clients` callers firing `per_client` keyed requests each
/// (window `window`), every `cross_every`-th of which spans two shards
/// and runs as a 2PC. `cross_every = 10` is the 10 % mix of the CI smoke.
pub fn run_sharded_mixed(
    shards: u32,
    n_per_shard: u32,
    clients: u32,
    per_client: u64,
    window: u64,
    cross_every: u64,
    seed: u64,
) -> MixedResult {
    let mut b = SystemBuilder::new(seed);
    b.sharded_txn("target", shards, n_per_shard, |_, _| {
        Box::<TxnIncrement>::default()
    });
    for c in 0..clients {
        b.service(&format!("load{c}"), 1, move |_| {
            Box::new(MixedCaller::new(
                "target",
                per_client,
                window,
                cross_every,
                shards,
                c,
            ))
        });
    }
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(3_600));
    let (mut completed, mut commits, mut aborts) = (0u64, 0u64, 0u64);
    for c in 0..clients {
        let caller = sys
            .replica_mut(&format!("load{c}"), 0)
            .expect("caller group")
            .executor_mut::<ServiceExecutor>()
            .expect("service executor")
            .service_mut::<MixedCaller>()
            .expect("mixed caller");
        completed += caller.done;
        commits += caller.commits;
        aborts += caller.aborts;
    }
    let mut applied = 0u64;
    for shard in 0..shards {
        let shim = sys
            .replica_mut(&format!("target#{shard}"), 0)
            .expect("shard replica")
            .executor_mut::<ServiceExecutor>()
            .expect("service executor")
            .service_mut::<TxnShim>()
            .expect("txn shim");
        applied += shim.inner_mut::<TxnIncrement>().expect("inner").applied;
    }
    MixedResult {
        completed,
        commits,
        aborts,
        applied,
    }
}

/// Prints an aligned table and writes it as CSV under `target/figures/`.
pub fn emit_table(name: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {name} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        s
    };
    println!(
        "{}",
        line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", line(row));
    }
    if let Err(e) = write_csv(name, header, rows) {
        eprintln!("(csv not written: {e})");
    }
}

/// Writes a flat JSON object of headline numbers to
/// `target/figures/BENCH_<name>.json`, so CI (and humans) can diff a
/// run's key results without parsing the printed tables. Values are
/// emitted with enough precision to round-trip `f64` exactly.
pub fn emit_bench_json(name: &str, fields: &[(&str, f64)]) {
    let mut body = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        body.push_str(&format!("  \"{key}\": {value}{comma}\n"));
    }
    body.push('}');
    body.push('\n');
    let dir = target_root().join("figures");
    let path = dir.join(format!("BENCH_{name}.json"));
    let write = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &body));
    match write {
        Ok(()) => println!("(json -> {})", path.display()),
        Err(e) => eprintln!("(json not written: {e})"),
    }
}

/// The cargo target dir this executable was built into. Bench executables
/// run with cwd = the package dir (not the workspace root), so a relative
/// path would scatter CSVs under crates/bench/; instead walk up from the
/// binary itself (<target>/<profile>/deps/...) to the directory cargo marks
/// with CACHEDIR.TAG, which honors CARGO_TARGET_DIR exactly. Falls back to
/// the build-time workspace target for unusual layouts.
fn target_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|a| a.join("CACHEDIR.TAG").is_file())
                .map(std::path::Path::to_path_buf)
        })
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")))
}

fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut path = target_root();
    path.push("figures");
    std::fs::create_dir_all(&path)?;
    path.push(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    println!("(csv: {})", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tier_null_run_completes() {
        let r = run_two_tier(1, 1, 50, 1, SimDuration::ZERO, 3);
        assert_eq!(r.completed, 50);
        assert!(r.throughput > 0.0);
        assert!(r.completion_ms > 0.0);
    }

    #[test]
    fn replication_reduces_null_throughput() {
        let base = run_two_tier(1, 1, 60, 1, SimDuration::ZERO, 3);
        let repl = run_two_tier(4, 4, 60, 1, SimDuration::ZERO, 3);
        assert_eq!(repl.completed, 60);
        assert!(
            repl.throughput < base.throughput,
            "replication must cost something: {} vs {}",
            repl.throughput,
            base.throughput
        );
    }

    #[test]
    fn async_window_raises_throughput() {
        let sync = run_two_tier(4, 4, 60, 1, SimDuration::ZERO, 3);
        let parallel = run_two_tier(4, 4, 60, 10, SimDuration::ZERO, 3);
        assert_eq!(parallel.completed, 60);
        assert!(
            parallel.throughput > sync.throughput * 1.5,
            "pipelining should raise throughput substantially: {} vs {}",
            parallel.throughput,
            sync.throughput
        );
    }

    #[test]
    fn batching_engages_and_raises_windowed_throughput() {
        // Window 16 keeps the agreement pipeline saturated, so the primary
        // accumulates: with the cap at 16 the mean occupancy must rise
        // above 1 and throughput must beat the unbatched (cap 1) run.
        let unbatched = run_two_tier_batched(4, 4, 60, 16, SimDuration::ZERO, 3, 1);
        let batched = run_two_tier_batched(4, 4, 60, 16, SimDuration::ZERO, 3, 16);
        assert_eq!(batched.completed, 60);
        assert_eq!(unbatched.completed, 60);
        assert!(
            (unbatched.mean_batch - 1.0).abs() < 1e-9,
            "cap 1 disables batching, occupancy {}",
            unbatched.mean_batch
        );
        assert!(
            batched.mean_batch > 1.5,
            "batching engaged via metrics, occupancy {}",
            batched.mean_batch
        );
        assert!(
            batched.throughput > unbatched.throughput,
            "batch 16 must out-run batch 1: {} vs {}",
            batched.throughput,
            unbatched.throughput
        );
    }

    #[test]
    fn processing_time_shrinks_relative_overhead() {
        // The heart of Fig. 8: as request processing grows, the *relative*
        // cost of replication falls.
        let t = SimDuration::from_millis(6);
        let base_null = run_two_tier(1, 1, 40, 1, SimDuration::ZERO, 3);
        let repl_null = run_two_tier(4, 4, 40, 1, SimDuration::ZERO, 3);
        let base_busy = run_two_tier(1, 1, 40, 1, t, 3);
        let repl_busy = run_two_tier(4, 4, 40, 1, t, 3);
        let overhead_null = repl_null.completion_ms / base_null.completion_ms;
        let overhead_busy = repl_busy.completion_ms / base_busy.completion_ms;
        assert!(
            overhead_busy < overhead_null,
            "overhead must fall with processing time: {overhead_busy} vs {overhead_null}"
        );
    }
}
