//! Observability invariants: tracing is a *pure side channel*. Enabling it
//! at any level leaves the same-seed trace digest byte-identical, every
//! client request maps to exactly one span that opens and closes with
//! lifecycle-ordered phases, the flight recorder stays bounded, and a node
//! panic leaves a readable dump behind.

use perpetual_ws::{
    AuditMode, FaultMode, PassiveService, PassiveUtils, Phase, ProtoFamily, System, SystemBuilder,
    TraceLevel, AUDIT_VIOLATIONS_KEY,
};
use pws_simnet::{RunOutcome, SimTime};
use pws_soap::{MessageContext, XmlNode};

/// Same topology and constants as `tests/determinism.rs`: one counter
/// group of 4 replicas, one windowed client, 10 calls, master seed 42. If
/// the digest is ever intentionally re-pinned there, re-pin it here too.
const QUICKSTART_SEED: u64 = 42;
const QUICKSTART_GOLDEN_DIGEST: u64 = 0x643f_5817_e03b_2f09;
const QUICKSTART_REQUESTS: u64 = 10;

struct Counter(u64);
impl PassiveService for Counter {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        let old = self.0;
        self.0 += 1;
        req.reply_with(
            "",
            XmlNode::new("incrementResult").with_text(old.to_string()),
        )
    }
}

fn run_quickstart(level: TraceLevel) -> System {
    let mut b = SystemBuilder::new(QUICKSTART_SEED);
    b.tracing(level);
    b.passive_service("counter", 4, |_| Box::new(Counter(0)));
    b.scripted_client_windowed("client", "counter", QUICKSTART_REQUESTS, 1);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(30));
    sys
}

/// The headline guarantee: the golden quickstart digest is byte-identical
/// at every trace level. The recorder observes the event stream; it never
/// perturbs scheduling, time, or randomness.
#[test]
fn tracing_never_perturbs_the_golden_digest() {
    for level in TraceLevel::ALL {
        let mut sys = run_quickstart(level);
        assert_eq!(
            sys.client_replies("client").len(),
            QUICKSTART_REQUESTS as usize,
            "workload completes at {level:?}"
        );
        let digest = sys.sim_mut().trace_digest();
        assert_eq!(
            digest.value(),
            QUICKSTART_GOLDEN_DIGEST,
            "trace digest drifted with tracing at {level:?} \
             (got {:#018x} over {} events)",
            digest.value(),
            digest.events(),
        );
    }
}

/// At `Full`, every client request opens exactly one span, every span
/// closes with a reply, and the first-seen phase times respect lifecycle
/// order.
#[test]
fn full_tracing_covers_every_request() {
    let mut sys = run_quickstart(TraceLevel::Full);
    let obs = sys.sim_mut().obs();
    assert_eq!(
        obs.spans_opened(),
        QUICKSTART_REQUESTS,
        "one span per request"
    );
    assert_eq!(
        obs.spans_closed(),
        QUICKSTART_REQUESTS,
        "every span replied"
    );
    for (key, span) in obs.spans() {
        assert!(span.is_closed(), "span {key:?} never closed");
        assert!(
            span.first(Phase::Queued).is_some(),
            "span {key:?} missing queued"
        );
        assert!(
            span.first(Phase::Executed).is_some(),
            "span {key:?} missing executed"
        );
        assert!(
            span.first(Phase::Replied).is_some(),
            "span {key:?} missing replied"
        );
        // `Span::phases()` yields in lifecycle order; first-seen times
        // must be non-decreasing along it.
        let times: Vec<u64> = span.phases().map(|(_, t)| t).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "span {key:?} phases out of order: {times:?}"
        );
    }
    assert!(!obs.events().is_empty(), "Full keeps per-sighting events");

    // The per-phase and whole-span histograms were fed as spans advanced.
    let m = sys.metrics();
    let total = m
        .histogram(pws_obs_total_key())
        .expect("total-latency histogram present");
    assert_eq!(total.count(), QUICKSTART_REQUESTS);
    assert!(total.p50() > 0.0 && total.p99() >= total.p50());
    let replied = m
        .histogram(Phase::Replied.metric_key())
        .expect("replied-phase histogram present");
    assert_eq!(replied.count(), QUICKSTART_REQUESTS);
}

fn pws_obs_total_key() -> &'static str {
    // Re-exported constant lives in pws-obs; spelled out here so the test
    // also pins the public metric name.
    "obs.lat.total_ms"
}

/// With tracing off the span machinery is fully dormant — no spans, no
/// per-phase histograms — while client-side latency is still measured.
#[test]
fn off_level_records_no_spans() {
    let mut sys = run_quickstart(TraceLevel::Off);
    assert_eq!(sys.sim_mut().obs().spans_opened(), 0);
    assert_eq!(sys.sim_mut().obs().span_count(), 0);
    let m = sys.metrics();
    assert!(m.histogram(pws_obs_total_key()).is_none());
    assert!(m.histogram(Phase::Replied.metric_key()).is_none());
    let client = m
        .histogram("client.latency_ms")
        .expect("client latency is always measured");
    assert_eq!(client.count(), QUICKSTART_REQUESTS);
}

/// The chrome-trace export is machine-checkable: span accounting in the
/// document matches the recorder, and no span is left open.
#[test]
fn trace_export_is_complete_and_closed() {
    let sys = {
        let mut b = SystemBuilder::new(QUICKSTART_SEED);
        b.tracing(TraceLevel::Full);
        b.passive_service("counter", 4, |_| Box::new(Counter(0)));
        b.scripted_client_windowed("client", "counter", QUICKSTART_REQUESTS, 1);
        let mut sys = b.build();
        sys.run_until(SimTime::from_secs(30));
        sys
    };
    let json = sys.export_trace_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains(&format!("\"spanCount\": {QUICKSTART_REQUESTS}")));
    assert!(json.contains(&format!("\"spansOpened\": {QUICKSTART_REQUESTS}")));
    assert!(json.contains(&format!("\"spansClosed\": {QUICKSTART_REQUESTS}")));
    assert!(json.contains("\"closed\":true"));
    assert!(!json.contains("\"closed\":false"), "no span left open");
    assert!(json.contains("\"queued\"") && json.contains("\"replied\""));

    let obs_json = sys.export_obs_json();
    assert!(obs_json.contains("\"counters\""));
    assert!(obs_json.contains("\"histograms\""));
    assert!(obs_json.contains("obs.lat.total_ms"));
}

/// The flight recorder honours its configured capacity: a checkpoint-heavy
/// run records far more events than the ring holds, and every ring stays
/// at or under the cap while remembering how much it dropped.
#[test]
fn flight_ring_is_bounded() {
    const CAP: usize = 4;
    let mut b = SystemBuilder::new(7);
    b.flight_capacity(CAP);
    b.checkpoint_interval(1); // a checkpoint per sequence → lots of events
    b.passive_service("counter", 4, |_| Box::new(Counter(0)));
    b.scripted_client_windowed("client", "counter", 60, 1);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(120));
    assert_eq!(sys.client_replies("client").len(), 60);

    let obs = sys.sim_mut().obs();
    let mut rings = 0;
    let mut evicted_somewhere = false;
    for node in 0..64u64 {
        if let Some(ring) = obs.flight_ring(node) {
            rings += 1;
            assert!(
                ring.events().count() <= CAP,
                "node {node} ring over capacity"
            );
            assert_eq!(ring.capacity(), CAP);
            if ring.total_recorded() > CAP as u64 {
                evicted_somewhere = true;
            }
        }
    }
    assert!(rings >= 4, "every replica records flight events");
    assert!(
        evicted_somewhere,
        "a checkpoint-per-seq run must overflow a {CAP}-entry ring"
    );
    let dump = obs.dump_all_flight();
    assert!(dump.contains("evicted"), "dump reports dropped history");
    assert!(dump.contains("checkpoint-taken"));
}

/// A service that panics while handling its `boom`-th request — the
/// "event nobody planned for" the flight recorder exists for.
struct Grenade {
    handled: u64,
    boom: u64,
}
impl PassiveService for Grenade {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        self.handled += 1;
        if self.handled == self.boom {
            panic!("grenade went off on request {}", self.handled);
        }
        req.reply_with("", XmlNode::new("ok"))
    }
}

/// A node panic surfaces as `RunOutcome::NodePanicked` and leaves the
/// panicking node's flight dump behind, ending in the node-panic marker
/// and showing the protocol activity (checkpoints) that preceded it.
#[test]
fn node_panic_dumps_the_flight_recorder() {
    let mut b = SystemBuilder::new(11);
    b.checkpoint_interval(1);
    b.passive_service("bomb", 4, |_| {
        Box::new(Grenade {
            handled: 0,
            boom: 3,
        })
    });
    b.scripted_client_windowed("client", "bomb", 10, 1);
    let mut sys = b.build();
    let outcome = sys.run_until(SimTime::from_secs(60));
    assert!(
        matches!(outcome, RunOutcome::NodePanicked { .. }),
        "expected a node panic, got {outcome:?}"
    );
    let dump = sys
        .sim_mut()
        .flight_dump()
        .expect("panic captures a flight dump")
        .to_string();
    assert!(
        dump.contains("node-panic"),
        "dump ends with the panic marker"
    );
    assert!(
        dump.contains("checkpoint-taken"),
        "dump shows pre-panic protocol activity:\n{dump}"
    );
    // The on-demand dump covers every node, the panicking one included.
    let all = sys.dump_flight_recorder();
    assert!(all.contains("node-panic"));
}

/// The auditor is a pure side channel too: enabling it — in either mode,
/// at every trace level — leaves the golden digest byte-identical, and a
/// fault-free run reports a clean audit with zero violations.
#[test]
fn auditing_never_perturbs_the_golden_digest() {
    for level in TraceLevel::ALL {
        for mode in [AuditMode::Record, AuditMode::Strict] {
            let mut b = SystemBuilder::new(QUICKSTART_SEED);
            b.tracing(level);
            b.audit(mode);
            b.passive_service("counter", 4, |_| Box::new(Counter(0)));
            b.scripted_client_windowed("client", "counter", QUICKSTART_REQUESTS, 1);
            let mut sys = b.build();
            sys.run_until(SimTime::from_secs(30));
            assert_eq!(
                sys.client_replies("client").len(),
                QUICKSTART_REQUESTS as usize,
                "workload completes at {level:?}/{mode:?}"
            );
            let digest = sys.sim_mut().trace_digest();
            assert_eq!(
                digest.value(),
                QUICKSTART_GOLDEN_DIGEST,
                "trace digest drifted with auditing at {level:?}/{mode:?}"
            );
            assert_eq!(sys.audit_violations(), 0, "clean run at {level:?}/{mode:?}");
            let report = sys.audit_report().expect("auditor was enabled");
            assert!(
                report.contains("audit clean"),
                "unexpected report:\n{report}"
            );
            assert_eq!(sys.metrics().counter(AUDIT_VIOLATIONS_KEY), 0);
        }
    }
}

/// The auditor catches a real protocol violation: a primary that sends
/// conflicting pre-prepares for the same (view, seq) to different
/// replicas. The honest quorum still completes the workload — which is
/// exactly why the equivocation is invisible to clients and needs an
/// auditor to surface.
#[test]
fn auditor_flags_an_equivocating_primary() {
    let mut b = SystemBuilder::new(QUICKSTART_SEED);
    b.audit(AuditMode::Record); // Record, not env-derived: assert, don't panic
    b.passive_service("counter", 4, |_| Box::new(Counter(0)));
    b.fault("counter", 0, FaultMode::EquivocatingPrimary);
    b.scripted_client_windowed("client", "counter", QUICKSTART_REQUESTS, 1);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(60));
    assert_eq!(
        sys.client_replies("client").len(),
        QUICKSTART_REQUESTS as usize,
        "honest quorum masks the equivocation for clients"
    );
    assert!(
        sys.audit_violations() > 0,
        "auditor must flag the equivocating primary"
    );
    let report = sys.audit_report().expect("auditor was enabled");
    assert!(
        report.contains("pre-prepare-equivocation"),
        "wrong invariant fired:\n{report}"
    );
    assert!(
        sys.metrics().counter(AUDIT_VIOLATIONS_KEY) > 0,
        "violations are mirrored into the metrics counter"
    );
}

/// Protocol spans cover the checkpoint machinery: a checkpoint-per-seq
/// traced run opens one `ckpt.<seq>` span per stabilised checkpoint,
/// closes every one, and feeds the `obs.proto.ckpt.stable_ms` histogram.
#[test]
fn protocol_spans_cover_checkpoints() {
    let mut b = SystemBuilder::new(QUICKSTART_SEED);
    b.tracing(TraceLevel::Full);
    b.checkpoint_interval(1);
    b.passive_service("counter", 4, |_| Box::new(Counter(0)));
    b.scripted_client_windowed("client", "counter", QUICKSTART_REQUESTS, 1);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(30));
    assert_eq!(
        sys.client_replies("client").len(),
        QUICKSTART_REQUESTS as usize
    );

    let obs = sys.sim_mut().obs();
    let ckpt: Vec<_> = obs
        .proto_spans()
        .filter(|(k, _)| k.family == ProtoFamily::Ckpt)
        .collect();
    assert!(!ckpt.is_empty(), "checkpoint spans were recorded");
    for (key, span) in &ckpt {
        assert!(span.is_closed(), "ckpt span {key:?} never stabilised");
    }
    assert!(obs.proto_spans_opened() >= ckpt.len() as u64);

    let json = sys.export_trace_json();
    assert!(json.contains("\"protoSpans\""));
    assert!(json.contains("\"stable\""));

    let h = sys
        .metrics()
        .histogram("obs.proto.ckpt.stable_ms")
        .expect("checkpoint-stability histogram present");
    assert!(h.count() >= 1 && h.p50() >= 0.0);
}

/// Time-series gauges record on traced runs (queue depth, in-flight,
/// batch occupancy) and export through `export_timeseries_json`; with
/// tracing off the gauge rings stay fully dormant.
#[test]
fn timeseries_gauges_record_on_traced_runs() {
    let sys = run_quickstart(TraceLevel::Full);
    let m = sys.metrics();
    let names: Vec<&str> = m.gauges().map(|(name, _)| name).collect();
    assert!(
        names.iter().any(|n| n.starts_with("ts.queue_depth.")),
        "queue-depth gauge present, got {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("ts.inflight.")),
        "in-flight gauge present, got {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("ts.batch_occupancy.")),
        "batch-occupancy gauge present, got {names:?}"
    );
    for (name, ring) in m.gauges() {
        assert!(ring.total_recorded() > 0, "gauge {name} never sampled");
        let s = ring.summary().expect("non-empty ring summarises");
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
    }
    let json = sys.export_timeseries_json();
    assert!(json.contains("ts.queue_depth."));
    assert!(json.contains("\"samples\""));

    // Dormant with tracing off: no rings, empty export.
    let off = run_quickstart(TraceLevel::Off);
    assert_eq!(off.metrics().gauges().count(), 0, "gauges gated on tracing");
    assert!(!off.export_timeseries_json().contains("ts."));
}

/// Artifact smoke: runs the quickstart at `Full`, re-checks the export
/// invariants, and writes the
/// `target/figures/TRACE_smoke.json` / `OBS_smoke.json` artifacts.
#[test]
fn obs_smoke_artifacts() {
    let mut sys = run_quickstart(TraceLevel::Full);
    assert_eq!(
        sys.client_replies("client").len(),
        QUICKSTART_REQUESTS as usize
    );
    assert_eq!(
        sys.sim_mut().trace_digest().value(),
        QUICKSTART_GOLDEN_DIGEST,
        "golden digest must hold in the smoke run"
    );
    let json = sys.export_trace_json();
    assert!(json.contains(&format!("\"spanCount\": {QUICKSTART_REQUESTS}")));
    assert!(!json.contains("\"closed\":false"));
    let (trace_path, obs_path) = sys
        .write_obs_artifacts("smoke")
        .expect("artifact write succeeds");
    assert!(trace_path.exists() && obs_path.exists());
    println!(
        "obs smoke artifacts: {} {}",
        trace_path.display(),
        obs_path.display()
    );
}
