//! Protocol-plane spans: the consensus/recovery/coordination machinery's
//! lifecycle, keyed per group rather than per request.
//!
//! Request spans (see [`crate::Phase`]) cover the *request* plane; these
//! families cover the protocol work underneath it:
//!
//! * `vc.<view>` — a view change: `started → installed`, or `abandoned`
//!   when a higher view installs first.
//! * `ckpt.<seq>` — a checkpoint: boundary `taken → stable` (2f+1 votes).
//! * `xfer.<seq>` — a state transfer: `triggered → manifest-verified →
//!   pages-fetched → installed`, with per-phase page counts.
//! * `txn.<id>` — a cross-shard two-phase commit:
//!   `prepare-sent → voted → decided → acked`.
//! * `reshard.<epoch>` — a live reshard:
//!   `flipped → fenced → exported → imported`.
//!
//! Like request spans, protocol spans have **first-seen semantics across
//! nodes**: every replica of a group emits the same milestones, and the
//! span records the earliest sighting of each phase, making it the
//! group-global timeline. Phase latencies are measured from the span's
//! opening phase and recorded under `obs.proto.<family>.<phase>_ms`.

/// A protocol-span family. The discriminant doubles as the phase-table
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ProtoFamily {
    /// View change (`vc.<target view>`).
    Vc = 0,
    /// Checkpoint certification (`ckpt.<seq>`).
    Ckpt = 1,
    /// Merkle state transfer (`xfer.<installed seq>`).
    Xfer = 2,
    /// Cross-shard two-phase commit (`txn.<id hash>`).
    Txn = 3,
    /// Live reshard (`reshard.<new shard count>`).
    Reshard = 4,
}

/// Number of distinct [`ProtoFamily`] values.
pub(crate) const PROTO_FAMILY_COUNT: usize = 5;

/// Most phases any family has; spans store fixed-size arrays of this.
pub(crate) const MAX_PROTO_PHASES: usize = 4;

/// Per-family phase-name tables, in lifecycle order. Index 0 opens the
/// span.
const PHASES: [&[&str]; PROTO_FAMILY_COUNT] = [
    &["started", "installed", "abandoned"],
    &["taken", "stable"],
    &[
        "triggered",
        "manifest-verified",
        "pages-fetched",
        "installed",
    ],
    &["prepare-sent", "voted", "decided", "acked"],
    &["flipped", "fenced", "exported", "imported"],
];

/// Per-family metric keys for the latency from the opening phase into each
/// later phase (index 0 is the opening phase and has no latency).
const METRIC_KEYS: [&[&str]; PROTO_FAMILY_COUNT] = [
    &["", "obs.proto.vc.installed_ms", "obs.proto.vc.abandoned_ms"],
    &["", "obs.proto.ckpt.stable_ms"],
    &[
        "",
        "obs.proto.xfer.manifest_verified_ms",
        "obs.proto.xfer.pages_fetched_ms",
        "obs.proto.xfer.installed_ms",
    ],
    &[
        "",
        "obs.proto.txn.voted_ms",
        "obs.proto.txn.decided_ms",
        "obs.proto.txn.acked_ms",
    ],
    &[
        "",
        "obs.proto.reshard.fenced_ms",
        "obs.proto.reshard.exported_ms",
        "obs.proto.reshard.imported_ms",
    ],
];

impl ProtoFamily {
    /// Every family, in discriminant order.
    #[cfg(test)]
    pub(crate) const ALL: [ProtoFamily; PROTO_FAMILY_COUNT] = [
        ProtoFamily::Vc,
        ProtoFamily::Ckpt,
        ProtoFamily::Xfer,
        ProtoFamily::Txn,
        ProtoFamily::Reshard,
    ];

    /// The family's export name (`vc`, `ckpt`, `xfer`, `txn`, `reshard`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ProtoFamily::Vc => "vc",
            ProtoFamily::Ckpt => "ckpt",
            ProtoFamily::Xfer => "xfer",
            ProtoFamily::Txn => "txn",
            ProtoFamily::Reshard => "reshard",
        }
    }

    /// The family's phase names, in lifecycle order. Index 0 opens a span.
    pub(crate) fn phases(self) -> &'static [&'static str] {
        PHASES[self as usize]
    }

    /// Number of phases in this family.
    pub(crate) fn phase_count(self) -> usize {
        self.phases().len()
    }

    /// The metrics-histogram key for the latency from the opening phase
    /// into `phase` (`None` for the opening phase itself).
    pub(crate) fn metric_key(self, phase: usize) -> Option<&'static str> {
        let keys = METRIC_KEYS[self as usize];
        match keys.get(phase) {
            Some(&"") | None => None,
            Some(&k) => Some(k),
        }
    }

    /// Whether `phase` closes a span of this family.
    pub(crate) fn is_terminal(self, phase: usize) -> bool {
        match self {
            // Both `installed` and `abandoned` are terminal for a view
            // change; every other family's terminal is its last phase.
            ProtoFamily::Vc => phase == 1 || phase == 2,
            _ => phase + 1 == self.phase_count(),
        }
    }
}

/// Identity of a protocol span: the family and id, qualified by the group
/// whose protocol machinery the span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProtoKey {
    /// The group whose protocol instance this is.
    pub group: u32,
    /// The span family.
    pub family: ProtoFamily,
    /// The per-family id: view / seq / seq / txn-id hash / shard count.
    pub id: u64,
}

impl ProtoKey {
    /// The span's display name (`vc.5`, `ckpt.128`, …).
    pub(crate) fn display(&self) -> String {
        format!("{}.{}", self.family.name(), self.id)
    }
}

const UNSEEN: u64 = u64::MAX;

/// One protocol span: the first-seen time of each phase plus an optional
/// per-phase count payload (e.g. pages fetched).
#[derive(Debug, Clone)]
pub struct ProtoSpan {
    family: ProtoFamily,
    first_seen: [u64; MAX_PROTO_PHASES],
    counts: [u64; MAX_PROTO_PHASES],
    closed_at: Option<usize>,
}

impl ProtoSpan {
    pub(crate) fn new(family: ProtoFamily) -> Self {
        ProtoSpan {
            family,
            first_seen: [UNSEEN; MAX_PROTO_PHASES],
            counts: [0; MAX_PROTO_PHASES],
            closed_at: None,
        }
    }

    /// First-seen time of phase index `phase` in microseconds, if recorded.
    pub(crate) fn first(&self, phase: usize) -> Option<u64> {
        let t = *self.first_seen.get(phase)?;
        (t != UNSEEN).then_some(t)
    }

    /// The count payload recorded with phase `phase` (0 when absent).
    pub(crate) fn count(&self, phase: usize) -> u64 {
        self.counts.get(phase).copied().unwrap_or(0)
    }

    /// Recorded phases in lifecycle order: `(name, first-seen µs, count)`.
    pub(crate) fn phases(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        (0..self.family.phase_count()).filter_map(|i| {
            self.first(i)
                .map(|t| (self.family.phases()[i], t, self.count(i)))
        })
    }

    /// Whether a terminal phase closed this span, and which one.
    pub(crate) fn closed_phase(&self) -> Option<&'static str> {
        self.closed_at.map(|i| self.family.phases()[i])
    }

    /// Whether a terminal phase was recorded.
    pub fn is_closed(&self) -> bool {
        self.closed_at.is_some()
    }

    /// Earliest recorded phase time (µs).
    pub(crate) fn start_us(&self) -> Option<u64> {
        self.phases().map(|(_, t, _)| t).min()
    }

    /// Latest recorded phase time (µs).
    pub(crate) fn end_us(&self) -> Option<u64> {
        self.phases().map(|(_, t, _)| t).max()
    }

    /// Records a phase; returns `(newly recorded, ms since span open)`.
    pub(crate) fn record(&mut self, phase: usize, at_us: u64, count: u64) -> (bool, Option<f64>) {
        if phase >= self.family.phase_count() || self.first_seen[phase] != UNSEEN {
            return (false, None);
        }
        self.first_seen[phase] = at_us;
        self.counts[phase] = count;
        if self.closed_at.is_none() && self.family.is_terminal(phase) {
            self.closed_at = Some(phase);
        }
        let since_open = self
            .first(0)
            .filter(|_| phase > 0)
            .map(|t0| (at_us.saturating_sub(t0)) as f64 / 1000.0);
        (true, since_open)
    }

    /// Force-closes the span as `phase` at `at_us` (used for view-change
    /// abandonment). No-op when already closed.
    pub(crate) fn close_as(&mut self, phase: usize, at_us: u64) -> Option<f64> {
        if self.closed_at.is_some() || phase >= self.family.phase_count() {
            return None;
        }
        let (recorded, since_open) = self.record(phase, at_us, 0);
        if recorded {
            self.closed_at = Some(phase);
        }
        since_open.or(Some(0.0))
    }
}

/// What one protocol-phase recording produced, for the caller to feed into
/// metrics (the recorder itself stays metrics-agnostic).
#[derive(Debug, Clone, Default)]
pub struct ProtoDeltas {
    /// `Some((histogram key, ms since span open))` when this sighting was
    /// the phase's first and the phase is not the span's opening phase.
    pub metric: Option<(&'static str, f64)>,
    /// Whether this sighting opened the span.
    pub opened: bool,
    /// The terminal phase name when this sighting closed the span.
    pub closed: Option<&'static str>,
    /// View-change spans auto-abandoned by this sighting (a newer view
    /// installed): `(abandoned view id, ms the span was open)`.
    pub abandoned: Vec<(u64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_tables_are_consistent() {
        for f in ProtoFamily::ALL {
            assert!(f.phase_count() <= MAX_PROTO_PHASES);
            assert_eq!(METRIC_KEYS[f as usize].len(), f.phase_count());
            assert!(f.metric_key(0).is_none(), "opening phase has no latency");
            for p in 1..f.phase_count() {
                let key = f.metric_key(p).expect("later phases have keys");
                assert!(key.starts_with(&format!("obs.proto.{}.", f.name())));
            }
            assert!(
                (0..f.phase_count()).any(|p| f.is_terminal(p)),
                "{f:?} needs a terminal phase"
            );
        }
        assert!(ProtoFamily::Vc.is_terminal(1) && ProtoFamily::Vc.is_terminal(2));
        assert!(!ProtoFamily::Xfer.is_terminal(1));
    }

    #[test]
    fn span_records_first_seen_and_counts() {
        let mut s = ProtoSpan::new(ProtoFamily::Xfer);
        assert_eq!(s.record(0, 1000, 0), (true, None));
        assert_eq!(s.record(1, 3000, 64), (true, Some(2.0)));
        assert_eq!(s.record(1, 9000, 99), (false, None), "repeat ignored");
        assert_eq!(s.count(1), 64);
        assert!(!s.is_closed());
        assert_eq!(s.record(3, 11_000, 0), (true, Some(10.0)));
        assert!(s.is_closed());
        assert_eq!(s.closed_phase(), Some("installed"));
        assert_eq!(s.phases().count(), 3);
    }

    #[test]
    fn vc_close_as_abandoned() {
        let mut s = ProtoSpan::new(ProtoFamily::Vc);
        s.record(0, 500, 0);
        assert_eq!(s.close_as(2, 2500), Some(2.0));
        assert_eq!(s.closed_phase(), Some("abandoned"));
        assert_eq!(s.close_as(1, 9000), None, "already closed");
    }

    #[test]
    fn key_display() {
        let k = ProtoKey {
            group: 3,
            family: ProtoFamily::Ckpt,
            id: 128,
        };
        assert_eq!(k.display(), "ckpt.128");
    }
}
