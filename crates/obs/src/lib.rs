//! Deterministic observability for the Perpetual-WS stack.
//!
//! This crate is a *pure side channel*: nothing in it touches simulation
//! time, randomness, or message scheduling, so enabling any of it leaves a
//! same-seed run's trace digest byte-identical. It provides:
//!
//! * [`TraceLevel`] — the tracing knob (`Off` / `Phases` / `Full`).
//! * [`Phase`] / [`SpanKey`] / [`Recorder`] — request-lifecycle spans:
//!   every ordered request is tracked through
//!   `queued → batched → pre-prepared → prepared → committed → executed →
//!   replied` (plus the `ro-served` fast-path phase), each phase stamped
//!   with sim-time at first sighting, so per-phase latency breakdowns fall
//!   out as deltas.
//! * [`Histogram`] — fixed-bucket log-scale latency histograms with a
//!   deterministic bucket layout: identical samples in any insertion order
//!   produce identical percentile reads.
//! * [`FlightRing`] / [`FlightEvent`] — a bounded per-node flight recorder
//!   of recent protocol events (view changes, checkpoint boundaries,
//!   state-transfer verdicts, rejections), dumped on node panic or on
//!   demand to turn "the soak wedged" into a readable timeline.
//! * [`ProtoFamily`] / [`ProtoKey`] — *protocol-plane* spans, keyed per
//!   group: view changes (`vc.<view>`), checkpoint certification
//!   (`ckpt.<seq>`), Merkle state transfer (`xfer.<seq>`), cross-shard
//!   2PC (`txn.<id>`), and live resharding (`reshard.<epoch>`), with
//!   per-phase latencies under `obs.proto.<family>.<phase>_ms`.
//! * [`Auditor`] / [`AuditEvent`] — an opt-in online invariant auditor
//!   that consumes the same event stream and cross-checks protocol
//!   safety: exactly-once execution, commit-covered-by-prepare, one
//!   batch per slot, checkpoint vote bars, and 2PC decision agreement.
//! * chrome://tracing-compatible JSON export ([`Recorder::export_trace_json`]).
//!
//! The crate is dependency-free and knows nothing about the simulator;
//! times are plain `u64` microseconds supplied by the caller.

mod audit;
mod flight;
mod hist;
mod json;
mod proto;
mod recorder;

pub use audit::{AuditEvent, AuditMode, Auditor, Violation, AUDIT_VIOLATIONS_KEY};
pub use flight::{FlightEvent, FlightKind, FlightRing};
pub use hist::Histogram;
pub use json::{escape_json, fmt_f64};
pub use proto::{ProtoDeltas, ProtoFamily, ProtoKey, ProtoSpan};
pub use recorder::{PhaseDeltas, Recorder, Span, SpanKey};

/// How much request-lifecycle tracing the simulation records.
///
/// The flight recorder is *always* on (its events are rare and its memory
/// bounded); this level only gates the per-request span machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No span recording at all. The per-event cost is one branch.
    #[default]
    Off,
    /// Track first-seen phase times per request and feed the per-phase
    /// latency histograms; spans are dropped once they close, so memory
    /// stays bounded by the number of *open* requests.
    Phases,
    /// Everything in `Phases`, plus every individual phase sighting (per
    /// node) is kept for chrome-trace export. Memory grows with the run;
    /// meant for bounded export runs, not soaks.
    Full,
}

impl TraceLevel {
    /// Whether span recording is on at all.
    #[inline]
    pub fn spans_enabled(self) -> bool {
        self != TraceLevel::Off
    }

    /// Whether the full per-sighting event log is kept for export.
    #[inline]
    pub fn events_enabled(self) -> bool {
        self == TraceLevel::Full
    }

    /// Parses a level from a `PWS_TRACE`-style environment value:
    /// `0`/`off` → `Off`, `1`/`phases` → `Phases`, `2`/`full` → `Full`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "0" | "off" | "" => Some(TraceLevel::Off),
            "1" | "phases" | "on" => Some(TraceLevel::Phases),
            "2" | "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    /// Every level, for exhaustive invariance tests.
    pub const ALL: [TraceLevel; 3] = [TraceLevel::Off, TraceLevel::Phases, TraceLevel::Full];
}

/// A request-lifecycle phase. The discriminant order is the canonical
/// lifecycle order: a later phase's first sighting never precedes an
/// earlier phase's in a correct run, which is what the span-monotonicity
/// smoke check asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Admitted into a voter's request queue.
    Queued = 0,
    /// Sealed into an agreement batch by the primary.
    Batched = 1,
    /// Accepted a pre-prepare for the slot holding it.
    PrePrepared = 2,
    /// Prepared certificate reached.
    Prepared = 3,
    /// Commit certificate reached.
    Committed = 4,
    /// Executed against committed application state.
    Executed = 5,
    /// A reply was produced for the caller.
    Replied = 6,
    /// Served on the read-only fast path (never ordered).
    RoServed = 7,
}

/// Number of distinct [`Phase`] values.
pub(crate) const PHASE_COUNT: usize = 8;

impl Phase {
    /// All phases in lifecycle order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Queued,
        Phase::Batched,
        Phase::PrePrepared,
        Phase::Prepared,
        Phase::Committed,
        Phase::Executed,
        Phase::Replied,
        Phase::RoServed,
    ];

    /// The phase's index in lifecycle order.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The phase's wire/export name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Batched => "batched",
            Phase::PrePrepared => "pre-prepared",
            Phase::Prepared => "prepared",
            Phase::Committed => "committed",
            Phase::Executed => "executed",
            Phase::Replied => "replied",
            Phase::RoServed => "ro-served",
        }
    }

    /// The metrics-histogram key for the latency *into* this phase (delta
    /// from the previous recorded phase of the same span).
    pub fn metric_key(self) -> &'static str {
        match self {
            Phase::Queued => "obs.phase.queued_ms",
            Phase::Batched => "obs.phase.batched_ms",
            Phase::PrePrepared => "obs.phase.pre_prepared_ms",
            Phase::Prepared => "obs.phase.prepared_ms",
            Phase::Committed => "obs.phase.committed_ms",
            Phase::Executed => "obs.phase.executed_ms",
            Phase::Replied => "obs.phase.replied_ms",
            Phase::RoServed => "obs.phase.ro_served_ms",
        }
    }

    /// Whether this phase closes a span (the request's lifecycle is over
    /// from the caller's point of view).
    #[inline]
    pub(crate) fn is_terminal(self) -> bool {
        matches!(self, Phase::Replied | Phase::RoServed)
    }
}

/// The metrics-histogram key for whole-span latency (first phase →
/// terminal phase).
pub const TOTAL_LATENCY_KEY: &str = "obs.lat.total_ms";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_order_is_lifecycle_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert!(Phase::Queued < Phase::Batched);
        assert!(Phase::Committed < Phase::Executed);
        assert!(Phase::Executed < Phase::Replied);
    }

    #[test]
    fn trace_level_parses() {
        assert_eq!(TraceLevel::parse("0"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("1"), Some(TraceLevel::Phases));
        assert_eq!(TraceLevel::parse(" full "), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("2"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("bogus"), None);
        assert!(!TraceLevel::Off.spans_enabled());
        assert!(TraceLevel::Phases.spans_enabled());
        assert!(!TraceLevel::Phases.events_enabled());
        assert!(TraceLevel::Full.events_enabled());
    }

    #[test]
    fn terminal_phases() {
        assert!(Phase::Replied.is_terminal());
        assert!(Phase::RoServed.is_terminal());
        assert!(!Phase::Executed.is_terminal());
    }
}
