//! The span recorder: first-seen phase times per request, the per-node
//! flight rings, and the chrome-trace exporter.

use crate::flight::{FlightEvent, FlightKind, FlightRing, DEFAULT_FLIGHT_CAPACITY};
use crate::json::escape_json;
use crate::proto::{ProtoDeltas, ProtoFamily, ProtoKey, ProtoSpan};
use crate::{Phase, TraceLevel, PHASE_COUNT};
use std::collections::BTreeMap;

/// Identity of a request-lifecycle span: the CLBFT request id (`origin`,
/// `counter`) qualified by the *executing* group — `(origin, counter)`
/// alone can collide across groups because a caller's per-target counters
/// each start at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanKey {
    /// The executing (target) group.
    pub group: u32,
    /// CLBFT request-id origin (encodes the event family and caller).
    pub origin: u64,
    /// CLBFT request-id counter.
    pub counter: u64,
}

const UNSEEN: u64 = u64::MAX;

/// One request's lifecycle: the sim-time (µs) each phase was *first* seen
/// at any node. First-seen semantics make the span a deployment-global
/// view — e.g. `prepared` is the instant the earliest replica reached a
/// prepared certificate.
#[derive(Debug, Clone)]
pub struct Span {
    first_seen: [u64; PHASE_COUNT],
}

impl Span {
    fn new() -> Self {
        Span {
            first_seen: [UNSEEN; PHASE_COUNT],
        }
    }

    /// First-seen time of `phase` in microseconds, if ever recorded.
    pub fn first(&self, phase: Phase) -> Option<u64> {
        let t = self.first_seen[phase.index()];
        (t != UNSEEN).then_some(t)
    }

    /// The recorded phases in lifecycle order with their first-seen times.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL
            .iter()
            .filter_map(|&p| self.first(p).map(|t| (p, t)))
    }

    /// Whether a terminal phase (`Replied` or `RoServed`) was recorded.
    pub fn is_closed(&self) -> bool {
        Phase::ALL
            .iter()
            .any(|&p| p.is_terminal() && self.first(p).is_some())
    }

    /// Earliest recorded phase time (µs).
    pub(crate) fn start_us(&self) -> Option<u64> {
        self.phases().map(|(_, t)| t).min()
    }

    /// Latest recorded phase time (µs).
    pub(crate) fn end_us(&self) -> Option<u64> {
        self.phases().map(|(_, t)| t).max()
    }
}

/// One phase sighting, kept only at [`TraceLevel::Full`] for export.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// The span this sighting belongs to.
    pub(crate) key: SpanKey,
    /// The phase seen.
    pub(crate) phase: Phase,
    /// Sim-time, microseconds.
    pub(crate) at_us: u64,
    /// The node that saw it.
    pub(crate) node: u64,
}

/// Latency deltas produced by a first-seen phase recording, for the
/// caller to feed into its metrics histograms (the recorder itself stays
/// metrics-agnostic).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseDeltas {
    /// Milliseconds from the previous recorded phase of the same span to
    /// this one (`None` when this is the span's first phase, or a repeat
    /// sighting).
    pub phase_ms: Option<f64>,
    /// Whole-span milliseconds (first phase → terminal), reported once
    /// when a terminal phase first closes the span.
    pub total_ms: Option<f64>,
    /// True when this first sighting landed *before* an already-recorded
    /// later lifecycle phase, or *after* an already-recorded earlier one —
    /// i.e. the span's first-seen times are no longer monotone along the
    /// ordered path. The auditor turns this into a violation; honest runs
    /// never set it (first-seen semantics make the earliest sighting win).
    /// Only the ordered-path phases (queued → … → replied) participate;
    /// the read-only phase interleaves legally.
    pub regressed: bool,
}

/// The ordered-path phases whose first-seen times must be monotone. The
/// read-only phase (`RoServed`) interleaves with the ordered path legally
/// and is excluded.
const ORDERED_PATH: [Phase; 7] = [
    Phase::Queued,
    Phase::Batched,
    Phase::PrePrepared,
    Phase::Prepared,
    Phase::Committed,
    Phase::Executed,
    Phase::Replied,
];

/// Bound on concurrently tracked *open* spans; exceeding it evicts the
/// smallest key deterministically (a safety valve for runs that never
/// close spans, not something a healthy workload hits).
const OPEN_SPAN_CAP: usize = 1 << 16;

/// The observability recorder: span tracking plus the per-node flight
/// rings. Lives beside the simulation state; every method is a pure state
/// update with no effect on scheduling, time, or randomness.
#[derive(Debug)]
pub struct Recorder {
    level: TraceLevel,
    flight_cap: usize,
    rings: BTreeMap<u64, FlightRing>,
    open: BTreeMap<SpanKey, Span>,
    closed: BTreeMap<SpanKey, Span>,
    events: Vec<SpanEvent>,
    spans_opened: u64,
    spans_closed: u64,
    protos: BTreeMap<ProtoKey, ProtoSpan>,
    proto_spans_opened: u64,
    proto_spans_closed: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with tracing off and the default flight capacity.
    pub fn new() -> Self {
        Recorder {
            level: TraceLevel::Off,
            flight_cap: DEFAULT_FLIGHT_CAPACITY,
            rings: BTreeMap::new(),
            open: BTreeMap::new(),
            closed: BTreeMap::new(),
            events: Vec::new(),
            spans_opened: 0,
            spans_closed: 0,
            protos: BTreeMap::new(),
            proto_spans_opened: 0,
            proto_spans_closed: 0,
        }
    }

    /// Current trace level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Sets the trace level.
    pub fn set_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    /// Sets the per-node flight-ring capacity (existing rings keep their
    /// capacity; applies to rings created afterwards).
    pub fn set_flight_capacity(&mut self, cap: usize) {
        self.flight_cap = cap.max(1);
    }

    // ------------------------------------------------------------- spans

    /// Records a phase sighting for span `key` at sim-time `at_us` on
    /// `node`. Returns the latency deltas this first sighting produced
    /// (all-`None` on repeats or when tracing is off).
    pub fn phase(&mut self, key: SpanKey, phase: Phase, at_us: u64, node: u64) -> PhaseDeltas {
        if !self.level.spans_enabled() {
            return PhaseDeltas::default();
        }
        if self.level.events_enabled() {
            self.events.push(SpanEvent {
                key,
                phase,
                at_us,
                node,
            });
        }
        let in_closed = self.closed.contains_key(&key);
        let span = if in_closed {
            self.closed.get_mut(&key).expect("present")
        } else {
            if !self.open.contains_key(&key) {
                if self.open.len() >= OPEN_SPAN_CAP {
                    self.open.pop_first();
                }
                self.open.insert(key, Span::new());
                self.spans_opened += 1;
            }
            self.open.get_mut(&key).expect("just inserted")
        };
        let idx = phase.index();
        if span.first_seen[idx] != UNSEEN {
            return PhaseDeltas::default(); // repeat sighting
        }
        span.first_seen[idx] = at_us;
        let regressed = ORDERED_PATH.contains(&phase)
            && ORDERED_PATH.iter().any(|&p| {
                let t = span.first_seen[p.index()];
                t != UNSEEN && ((p < phase && t > at_us) || (p > phase && t < at_us))
            });
        let prev = span.first_seen[..idx]
            .iter()
            .filter(|&&t| t != UNSEEN)
            .max()
            .copied();
        let phase_ms = prev.map(|p| (at_us.saturating_sub(p)) as f64 / 1000.0);
        let mut total_ms = None;
        if phase.is_terminal() && !in_closed {
            let start = span.start_us().expect("phase just recorded");
            total_ms = Some((at_us.saturating_sub(start)) as f64 / 1000.0);
            self.spans_closed += 1;
            let span = self.open.remove(&key).expect("span was open");
            // `Full` keeps every closed span for export; `Phases` keeps a
            // bounded recent window purely to absorb late sightings from
            // other replicas without re-opening the span.
            if self.closed.len() >= OPEN_SPAN_CAP && !self.level.events_enabled() {
                self.closed.pop_first();
            }
            self.closed.insert(key, span);
        }
        PhaseDeltas {
            phase_ms,
            total_ms,
            regressed,
        }
    }

    /// Total spans ever opened.
    pub fn spans_opened(&self) -> u64 {
        self.spans_opened
    }

    /// Total spans closed by a terminal phase.
    pub fn spans_closed(&self) -> u64 {
        self.spans_closed
    }

    /// Number of spans currently tracked (open + retained closed).
    pub fn span_count(&self) -> usize {
        self.open.len() + self.closed.len()
    }

    /// Iterates over every tracked span (open and closed), key-ordered.
    pub fn spans(&self) -> impl Iterator<Item = (&SpanKey, &Span)> {
        self.open.iter().chain(self.closed.iter())
    }

    /// Looks up one span.
    #[cfg(test)]
    pub(crate) fn span(&self, key: &SpanKey) -> Option<&Span> {
        self.open.get(key).or_else(|| self.closed.get(key))
    }

    /// The raw per-sighting event log ([`TraceLevel::Full`] only).
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    // ------------------------------------------------------- proto spans

    /// Records a protocol-span phase sighting (first-seen semantics, like
    /// request spans). `count` is an optional payload surfaced in the
    /// export (e.g. pages fetched); pass 0 when meaningless.
    ///
    /// Installing a view change (`vc` phase 1) auto-closes every older
    /// still-open `vc` span of the same group as `abandoned` — a replica
    /// set that moves to view `w` has, by construction, given up on every
    /// view change below `w`.
    pub fn proto(&mut self, key: ProtoKey, phase: usize, at_us: u64, count: u64) -> ProtoDeltas {
        if !self.level.spans_enabled() {
            return ProtoDeltas::default();
        }
        let mut deltas = ProtoDeltas::default();
        if !self.protos.contains_key(&key) {
            if self.protos.len() >= OPEN_SPAN_CAP {
                self.protos.pop_first();
            }
            self.protos.insert(key, ProtoSpan::new(key.family));
            self.proto_spans_opened += 1;
            deltas.opened = true;
        }
        let span = self.protos.get_mut(&key).expect("just ensured");
        let was_closed = span.is_closed();
        let (recorded, since_open) = span.record(phase, at_us, count);
        if recorded {
            if let (Some(ms), Some(mk)) = (since_open, key.family.metric_key(phase)) {
                deltas.metric = Some((mk, ms));
            }
            if span.is_closed() && !was_closed {
                self.proto_spans_closed += 1;
                deltas.closed = span.closed_phase();
            }
        }
        if key.family == ProtoFamily::Vc && phase == 1 && recorded {
            let stale: Vec<ProtoKey> = self
                .protos
                .iter()
                .filter(|(k, s)| {
                    k.group == key.group
                        && k.family == ProtoFamily::Vc
                        && k.id < key.id
                        && !s.is_closed()
                })
                .map(|(k, _)| *k)
                .collect();
            for k in stale {
                let s = self.protos.get_mut(&k).expect("just listed");
                if let Some(ms) = s.close_as(2, at_us) {
                    self.proto_spans_closed += 1;
                    deltas.abandoned.push((k.id, ms));
                }
            }
        }
        deltas
    }

    /// Total protocol spans ever opened.
    pub fn proto_spans_opened(&self) -> u64 {
        self.proto_spans_opened
    }

    /// Iterates over every tracked protocol span, key-ordered.
    pub fn proto_spans(&self) -> impl Iterator<Item = (&ProtoKey, &ProtoSpan)> {
        self.protos.iter()
    }

    // ------------------------------------------------------------ flight

    /// Records a flight event for `node` at sim-time `at_us`.
    pub fn flight(&mut self, node: u64, at_us: u64, kind: FlightKind, a: u64, b: u64) {
        let cap = self.flight_cap;
        self.rings
            .entry(node)
            .or_insert_with(|| FlightRing::new(cap))
            .push(FlightEvent {
                at_us,
                node,
                kind,
                a,
                b,
            });
    }

    /// The flight ring of `node`, if it ever recorded anything.
    pub fn flight_ring(&self, node: u64) -> Option<&FlightRing> {
        self.rings.get(&node)
    }

    /// Dumps one node's flight ring as a readable timeline (`None` if the
    /// node never recorded an event).
    pub fn dump_flight(&self, node: u64) -> Option<String> {
        let ring = self.rings.get(&node)?;
        let mut out = format!(
            "flight recorder, node {node} ({} of {} event(s) retained):\n",
            ring.len(),
            ring.total_recorded()
        );
        ring.dump(&mut out);
        Some(out)
    }

    /// Dumps every node's flight ring, node-ordered.
    pub fn dump_all_flight(&self) -> String {
        let mut out = String::new();
        for node in self.rings.keys() {
            out.push_str(&self.dump_flight(*node).expect("ring exists"));
        }
        if out.is_empty() {
            out.push_str("flight recorder: no events recorded\n");
        }
        out
    }

    // ------------------------------------------------------------ export

    /// Exports the recorded spans as chrome://tracing-compatible JSON
    /// (open `chrome://tracing` or <https://ui.perfetto.dev> and load the
    /// file). `pid` is the executing group, `tid` the sighting node.
    ///
    /// The document also carries a machine-checkable `spans` array (every
    /// span's phase timeline and closed flag) that the observability
    /// smoke test validates; chrome ignores the extra keys. Per-sighting
    /// instant events require [`TraceLevel::Full`]; at `Phases` only the
    /// per-span summary events are present.
    pub fn export_trace_json(&self) -> String {
        let mut out = String::from("{\n\"traceEvents\": [");
        let mut first = true;
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"origin\":{},\"counter\":{}}}}}",
                ev.phase.name(),
                ev.at_us,
                ev.key.group,
                ev.node,
                ev.key.origin,
                ev.key.counter
            ));
        }
        for (key, span) in self.spans() {
            let (Some(start), Some(end)) = (span.start_us(), span.end_us()) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0}}",
                escape_json(&format!("req {:#x}/{}", key.origin, key.counter)),
                start,
                end - start,
                key.group
            ));
        }
        for (key, span) in self.proto_spans() {
            let (Some(start), Some(end)) = (span.start_us(), span.end_us()) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"proto\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0}}",
                escape_json(&key.display()),
                start,
                end - start,
                key.group
            ));
        }
        out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n\"spans\": [");
        let mut first = true;
        for (key, span) in self.spans() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"group\":{},\"origin\":{},\"counter\":{},\"closed\":{},\"phases\":[",
                key.group,
                key.origin,
                key.counter,
                span.is_closed()
            ));
            let mut fp = true;
            for (p, t) in span.phases() {
                if !fp {
                    out.push(',');
                }
                fp = false;
                out.push_str(&format!("{{\"phase\":\"{}\",\"ts_us\":{t}}}", p.name()));
            }
            out.push_str("]}");
        }
        out.push_str("\n],\n\"protoSpans\": [");
        let mut first = true;
        for (key, span) in self.proto_spans() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"group\":{},\"family\":\"{}\",\"id\":{},\"closed\":{},\"closedPhase\":{},\"phases\":[",
                escape_json(&key.display()),
                key.group,
                key.family.name(),
                key.id,
                span.is_closed(),
                match span.closed_phase() {
                    Some(p) => format!("\"{p}\""),
                    None => "null".to_string(),
                }
            ));
            let mut fp = true;
            for (p, t, c) in span.phases() {
                if !fp {
                    out.push(',');
                }
                fp = false;
                out.push_str(&format!(
                    "{{\"phase\":\"{p}\",\"ts_us\":{t},\"count\":{c}}}"
                ));
            }
            out.push_str("]}");
        }
        // Accounting: never-closed spans are classified as open, not
        // silently dropped — `opened == open + closed` must always hold.
        out.push_str(&format!(
            "\n],\n\"spanCount\": {},\n\"spansOpened\": {},\n\"spansOpen\": {},\n\"spansClosed\": {},\n\"protoSpanCount\": {},\n\"protoSpansOpened\": {},\n\"protoSpansOpen\": {},\n\"protoSpansClosed\": {}\n}}\n",
            self.span_count(),
            self.spans_opened,
            self.spans_opened - self.spans_closed,
            self.spans_closed,
            self.protos.len(),
            self.proto_spans_opened,
            self.proto_spans_opened - self.proto_spans_closed,
            self.proto_spans_closed
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(counter: u64) -> SpanKey {
        SpanKey {
            group: 1,
            origin: 0x4558_5400_0000_0002,
            counter,
        }
    }

    #[test]
    fn off_level_records_nothing() {
        let mut r = Recorder::new();
        let d = r.phase(key(0), Phase::Queued, 10, 0);
        assert!(d.phase_ms.is_none() && d.total_ms.is_none());
        assert_eq!(r.span_count(), 0);
        assert_eq!(r.spans_opened(), 0);
    }

    #[test]
    fn first_seen_semantics_and_deltas() {
        let mut r = Recorder::new();
        r.set_level(TraceLevel::Phases);
        assert!(r.phase(key(0), Phase::Queued, 1000, 0).phase_ms.is_none());
        // Repeat sighting from another node: ignored.
        let d = r.phase(key(0), Phase::Queued, 1500, 1);
        assert!(d.phase_ms.is_none());
        let d = r.phase(key(0), Phase::Batched, 3000, 0);
        assert_eq!(d.phase_ms, Some(2.0));
        let d = r.phase(key(0), Phase::Executed, 9000, 2);
        assert_eq!(d.phase_ms, Some(6.0));
        let d = r.phase(key(0), Phase::Replied, 10_000, 2);
        assert_eq!(d.phase_ms, Some(1.0));
        assert_eq!(d.total_ms, Some(9.0));
        assert_eq!(r.spans_closed(), 1);
        let span = r.span(&key(0)).unwrap();
        assert!(span.is_closed());
        assert_eq!(span.first(Phase::Queued), Some(1000));
        // A late sighting after close does not re-open or re-count.
        let d = r.phase(key(0), Phase::Replied, 20_000, 3);
        assert!(d.total_ms.is_none());
        assert_eq!(r.spans_opened(), 1);
        assert_eq!(r.spans_closed(), 1);
    }

    #[test]
    fn full_level_keeps_events_and_exports_chrome_trace() {
        let mut r = Recorder::new();
        r.set_level(TraceLevel::Full);
        r.phase(key(7), Phase::Queued, 100, 0);
        r.phase(key(7), Phase::Executed, 400, 1);
        r.phase(key(7), Phase::Replied, 500, 1);
        assert_eq!(r.events().len(), 3);
        let json = r.export_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"queued\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"spanCount\": 1"));
        assert!(json.contains("\"closed\":true"));
    }

    #[test]
    fn ro_only_span_is_closed() {
        let mut r = Recorder::new();
        r.set_level(TraceLevel::Phases);
        let d = r.phase(key(3), Phase::RoServed, 2000, 5);
        assert!(d.phase_ms.is_none(), "no predecessor phase");
        assert_eq!(d.total_ms, Some(0.0));
        assert!(r.span(&key(3)).unwrap().is_closed());
    }

    #[test]
    fn proto_spans_first_seen_metrics_and_vc_abandonment() {
        let mut r = Recorder::new();
        r.set_level(TraceLevel::Phases);
        let vc = |id| ProtoKey {
            group: 2,
            family: ProtoFamily::Vc,
            id,
        };
        // View change to 1 starts but never installs; view change to 2
        // wins. Installing 2 abandons 1.
        let d = r.proto(vc(1), 0, 1000, 0);
        assert!(d.opened && d.metric.is_none() && d.closed.is_none());
        let d = r.proto(vc(2), 0, 2000, 0);
        assert!(d.opened);
        let d = r.proto(vc(2), 1, 5000, 0);
        assert_eq!(d.metric, Some(("obs.proto.vc.installed_ms", 3.0)));
        assert_eq!(d.closed, Some("installed"));
        assert_eq!(d.abandoned, vec![(1, 4.0)]);
        assert_eq!(r.proto_spans_opened(), 2);
        assert_eq!(r.proto_spans_closed, 2);
        assert_eq!(
            r.protos.get(&vc(1)).unwrap().closed_phase(),
            Some("abandoned")
        );
        // Repeat sighting from another replica: no new deltas.
        let d = r.proto(vc(2), 1, 9000, 0);
        assert!(!d.opened && d.metric.is_none() && d.closed.is_none());
    }

    #[test]
    fn proto_spans_respect_trace_level_and_carry_counts() {
        let mut r = Recorder::new();
        let xfer = ProtoKey {
            group: 1,
            family: ProtoFamily::Xfer,
            id: 64,
        };
        let d = r.proto(xfer, 0, 100, 0);
        assert!(!d.opened, "off level records nothing");
        assert_eq!(r.proto_spans().count(), 0);

        r.set_level(TraceLevel::Phases);
        r.proto(xfer, 0, 100, 0);
        r.proto(xfer, 1, 300, 128); // manifest verified: 128 pages differ
        let d = r.proto(xfer, 2, 700, 128);
        assert_eq!(d.metric, Some(("obs.proto.xfer.pages_fetched_ms", 0.6)));
        r.proto(xfer, 3, 900, 0);
        let span = r.protos.get(&xfer).unwrap();
        assert!(span.is_closed());
        assert_eq!(span.count(1), 128);
        let json = r.export_trace_json();
        assert!(json.contains("\"protoSpans\""));
        assert!(json.contains("\"name\":\"xfer.64\""));
        assert!(json.contains("\"phase\":\"manifest-verified\",\"ts_us\":300,\"count\":128"));
        assert!(json.contains("\"protoSpansClosed\": 1"));
    }

    #[test]
    fn accounting_classifies_never_closed_spans_as_open() {
        let mut r = Recorder::new();
        r.set_level(TraceLevel::Phases);
        // A request span that closes, one that never does, and an
        // in-flight view change at run end.
        r.phase(key(0), Phase::Queued, 100, 0);
        r.phase(key(0), Phase::Replied, 900, 0);
        r.phase(key(1), Phase::Queued, 500, 0);
        r.proto(
            ProtoKey {
                group: 1,
                family: ProtoFamily::Vc,
                id: 3,
            },
            0,
            600,
            0,
        );
        let json = r.export_trace_json();
        assert!(json.contains("\"spansOpened\": 2"));
        assert!(json.contains("\"spansOpen\": 1"), "open span accounted");
        assert!(json.contains("\"spansClosed\": 1"));
        assert!(json.contains("\"protoSpansOpen\": 1"));
        assert!(json.contains("\"closed\":false"), "open span exported");
    }

    #[test]
    fn ordered_path_regression_is_flagged() {
        let mut r = Recorder::new();
        r.set_level(TraceLevel::Phases);
        assert!(!r.phase(key(4), Phase::Prepared, 5000, 0).regressed);
        // Committed first seen *before* prepared's first sighting: broken.
        assert!(r.phase(key(4), Phase::Committed, 4000, 1).regressed);
    }

    #[test]
    fn flight_rings_are_per_node_and_dumpable() {
        let mut r = Recorder::new();
        r.set_flight_capacity(2);
        r.flight(4, 100, FlightKind::EnteredView, 1, 0);
        r.flight(4, 200, FlightKind::CheckpointTaken, 64, 4096);
        r.flight(4, 300, FlightKind::CheckpointStable, 64, 0);
        r.flight(9, 400, FlightKind::Wiped, 1, 0);
        assert_eq!(r.flight_ring(4).unwrap().len(), 2, "capacity bound");
        assert_eq!(r.flight_ring(4).unwrap().total_recorded(), 3);
        let dump = r.dump_flight(4).unwrap();
        assert!(dump.contains("checkpoint-stable seq=64"));
        assert!(!dump.contains("entered-view"), "oldest evicted");
        let all = r.dump_all_flight();
        assert!(all.contains("node 4") && all.contains("node 9"));
        assert!(r.dump_flight(77).is_none());
    }
}
