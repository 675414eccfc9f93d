//! The flight recorder: a bounded per-node ring buffer of recent protocol
//! events.
//!
//! Unlike spans, the flight recorder is always on — its events are rare
//! (view changes, checkpoint boundaries, state-transfer verdicts,
//! rejections) and its memory bounded, and it must already be populated
//! when the event nobody planned for happens. On a node panic the
//! simulation dumps the panicking node's ring, turning a dead soak into a
//! readable timeline of what the replica was doing in its last moments.
//!
//! **Trust note:** flight events are a *local* debugging aid, recorded by
//! each replica about itself with no quorum behind them. A Byzantine
//! replica's ring describes whatever it wants; never feed flight-recorder
//! content back into protocol decisions.

use std::collections::VecDeque;
use std::fmt;

/// Default per-node ring capacity.
pub(crate) const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What kind of protocol event a flight record describes. The two payload
/// slots `a`/`b` of [`FlightEvent`] are interpreted per kind (see
/// [`FlightEvent`]'s `Display`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A view change started (`a` = the view being abandoned, `b` = the
    /// proposed new view).
    ViewChangeStarted,
    /// The replica entered a view (`a` = view).
    EnteredView,
    /// A checkpoint snapshot was taken (`a` = seq, `b` = snapshot bytes).
    CheckpointTaken,
    /// A checkpoint became stable (`a` = seq).
    CheckpointStable,
    /// The replica began fetching state (`a` = its last stable seq).
    StateFetchStarted,
    /// A fetched checkpoint was installed (`a` = seq, `b` = pages fetched).
    StateInstalled,
    /// A state-transfer response failed verification (`a` = seq).
    StateRejected,
    /// A transferred page failed verification against the certified
    /// manifest root (`a` = page index).
    PageRejected,
    /// The replica wiped its state (`a` = 1 for cold — page cache lost).
    Wiped,
    /// A proactive-recovery restart began.
    ProactiveRestart,
    /// A read-only fast-path request was refused by the gate.
    RoRefused,
    /// A cross-shard transaction record was ordered (`a` = txn id).
    TxnRecord,
    /// A reshard record was ordered (`a` = shard, `b` = new shard count).
    ReshardRecord,
    /// The node panicked (recorded by the simulation as the final entry).
    NodePanic,
}

impl FlightKind {
    /// The event's dump/export name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FlightKind::ViewChangeStarted => "view-change-started",
            FlightKind::EnteredView => "entered-view",
            FlightKind::CheckpointTaken => "checkpoint-taken",
            FlightKind::CheckpointStable => "checkpoint-stable",
            FlightKind::StateFetchStarted => "state-fetch-started",
            FlightKind::StateInstalled => "state-installed",
            FlightKind::StateRejected => "state-rejected",
            FlightKind::PageRejected => "page-rejected",
            FlightKind::Wiped => "wiped",
            FlightKind::ProactiveRestart => "proactive-restart",
            FlightKind::RoRefused => "ro-refused",
            FlightKind::TxnRecord => "txn-record",
            FlightKind::ReshardRecord => "reshard-record",
            FlightKind::NodePanic => "node-panic",
        }
    }

    /// Names for the two payload slots, for rendering (`None` = unused).
    fn slots(self) -> (Option<&'static str>, Option<&'static str>) {
        match self {
            FlightKind::ViewChangeStarted => (Some("from_view"), Some("to_view")),
            FlightKind::EnteredView => (Some("view"), None),
            FlightKind::CheckpointTaken => (Some("seq"), Some("bytes")),
            FlightKind::CheckpointStable => (Some("seq"), None),
            FlightKind::StateFetchStarted => (Some("stable_seq"), None),
            FlightKind::StateInstalled => (Some("seq"), Some("pages")),
            FlightKind::StateRejected => (Some("seq"), None),
            FlightKind::PageRejected => (Some("page"), None),
            FlightKind::Wiped => (Some("cold"), None),
            FlightKind::ProactiveRestart => (None, None),
            FlightKind::RoRefused => (None, None),
            FlightKind::TxnRecord => (Some("txn"), None),
            FlightKind::ReshardRecord => (Some("shard"), Some("new_count")),
            FlightKind::NodePanic => (None, None),
        }
    }
}

/// One recorded protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Sim-time of the event, microseconds.
    pub at_us: u64,
    /// The recording node.
    pub(crate) node: u64,
    /// What happened.
    pub kind: FlightKind,
    /// First payload slot (kind-specific, see [`FlightKind`]).
    pub(crate) a: u64,
    /// Second payload slot.
    pub(crate) b: u64,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={}.{:06}s node={} {}",
            self.at_us / 1_000_000,
            self.at_us % 1_000_000,
            self.node,
            self.kind.name()
        )?;
        let (sa, sb) = self.kind.slots();
        if let Some(n) = sa {
            write!(f, " {n}={}", self.a)?;
        }
        if let Some(n) = sb {
            write!(f, " {n}={}", self.b)?;
        }
        Ok(())
    }
}

/// A bounded ring of [`FlightEvent`]s: pushing beyond capacity evicts the
/// oldest entry. Tracks the total ever pushed so a dump can say how much
/// history was dropped.
#[derive(Debug, Clone)]
pub struct FlightRing {
    cap: usize,
    buf: VecDeque<FlightEvent>,
    total: u64,
}

impl FlightRing {
    /// An empty ring holding at most `cap` events (min 1).
    pub(crate) fn new(cap: usize) -> Self {
        FlightRing {
            cap: cap.max(1),
            buf: VecDeque::new(),
            total: 0,
        }
    }

    /// Appends an event, evicting the oldest if full.
    pub(crate) fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
        self.total += 1;
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.buf.iter()
    }

    /// Number of events currently retained.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever pushed (≥ `len()`; the difference was evicted).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Renders the ring as a human-readable timeline, oldest first.
    pub(crate) fn dump(&self, out: &mut String) {
        let dropped = self.total - self.buf.len() as u64;
        if dropped > 0 {
            out.push_str(&format!("  ... {dropped} earlier event(s) evicted\n"));
        }
        for ev in &self.buf {
            out.push_str("  ");
            out.push_str(&ev.to_string());
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: FlightKind, a: u64) -> FlightEvent {
        FlightEvent {
            at_us,
            node: 3,
            kind,
            a,
            b: 0,
        }
    }

    #[test]
    fn ring_bounds_and_tracks_evictions() {
        let mut r = FlightRing::new(4);
        for i in 0..10 {
            r.push(ev(i, FlightKind::EnteredView, i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.total_recorded(), 10);
        let views: Vec<u64> = r.events().map(|e| e.a).collect();
        assert_eq!(views, vec![6, 7, 8, 9], "oldest evicted first");
        let mut s = String::new();
        r.dump(&mut s);
        assert!(s.contains("6 earlier event(s) evicted"));
        assert!(s.contains("entered-view view=9"));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRing::new(0);
        r.push(ev(1, FlightKind::Wiped, 1));
        r.push(ev(2, FlightKind::Wiped, 0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events().next().unwrap().at_us, 2);
    }

    #[test]
    fn display_names_slots_per_kind() {
        let e = FlightEvent {
            at_us: 1_500_000,
            node: 7,
            kind: FlightKind::ViewChangeStarted,
            a: 2,
            b: 3,
        };
        assert_eq!(
            e.to_string(),
            "t=1.500000s node=7 view-change-started from_view=2 to_view=3"
        );
        let e = FlightEvent {
            at_us: 0,
            node: 0,
            kind: FlightKind::ProactiveRestart,
            a: 9,
            b: 9,
        };
        assert_eq!(e.to_string(), "t=0.000000s node=0 proactive-restart");
    }
}
