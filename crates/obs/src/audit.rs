//! Online protocol invariant auditor.
//!
//! The auditor is an opt-in consumer of the observability event stream: it
//! never touches protocol state, so (like the recorder) it is a pure side
//! channel that cannot perturb scheduling, time, or randomness. Replicas
//! emit [`AuditEvent`]s describing what they just did; the auditor
//! cross-checks them against the protocol's safety invariants and records
//! a structured [`Violation`] when one breaks.
//!
//! Invariants checked (see ARCHITECTURE.md for provenance):
//!
//! 1. **Span phase monotonicity** — a request's ordered-path phases are
//!    first seen in lifecycle order (reported by the recorder, counted
//!    here).
//! 2. **Exactly-once execution** — per node incarnation, no
//!    `(origin, target_seq)` is delivered to the service twice.
//! 3. **Commit covered by a prepare certificate** — no batch commits in a
//!    group unless some replica first assembled a prepare certificate for
//!    that exact digest.
//! 4. **One batch per slot** — across all views and replicas of a group,
//!    a sequence number commits at most one batch digest. The same check
//!    on *accepted pre-prepares per view* detects an equivocating primary
//!    before any divergence can commit.
//! 5. **Checkpoint stability implies f+1 matching votes** — a replica may
//!    declare a checkpoint stable only after at least f+1 distinct
//!    replicas voted for that exact digest.
//! 6. **2PC decision agreement** — every participant's recorded decision
//!    for a transaction matches the coordinator's.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Counter key bumped once per recorded violation.
pub const AUDIT_VIOLATIONS_KEY: &str = "obs.audit.violations";

/// How the auditor reacts to a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Record violations (counter + report) and keep running.
    Record,
    /// Record, then panic on the first violation — under the simulator's
    /// panic trap this surfaces as a node panic plus a flight dump, so
    /// test suites fail loudly.
    Strict,
}

/// One protocol observation, emitted by a replica as it acts. Events carry
/// no group id — the drain point qualifies them with the emitting node's
/// group (and digests are folded to 64 bits; auditing needs inequality
/// detection, not collision resistance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvent {
    /// A replica accepted (or, as primary, proposed) a pre-prepare.
    PrePrepare { view: u64, seq: u64, digest: u64 },
    /// A replica assembled a prepare certificate (2f matching prepares).
    Prepared { view: u64, seq: u64, digest: u64 },
    /// A replica committed a batch into its execution order.
    /// `via_transfer` marks slots installed by state transfer, which carry
    /// a checkpoint certificate instead of a local prepare certificate.
    Committed {
        seq: u64,
        digest: u64,
        via_transfer: bool,
    },
    /// A replica delivered an external request to the service
    /// (the exactly-once point).
    Executed { origin: u64, target_seq: u64 },
    /// A replica recorded a checkpoint vote from `voter`.
    CheckpointVote { seq: u64, digest: u64, voter: u64 },
    /// A replica declared a checkpoint stable.
    CheckpointStable { seq: u64, digest: u64 },
    /// A 2PC role recorded its decision for a transaction.
    TxnDecision {
        txn: u64,
        commit: bool,
        coordinator: bool,
    },
    /// The node discarded execution state (wipe, state install):
    /// its exactly-once tracking starts a new incarnation.
    NodeReset,
    /// The recorder saw a request-span phase recorded out of lifecycle
    /// order (reported by the span machinery, judged here).
    PhaseRegression { origin: u64, counter: u64 },
}

/// A recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulated time of the offending event, in microseconds.
    pub(crate) at_us: u64,
    /// Group the event belonged to.
    pub(crate) group: u32,
    /// Node that emitted the offending event.
    pub(crate) node: u64,
    /// Which invariant broke (stable short name, e.g. `slot-divergence`).
    pub(crate) invariant: &'static str,
    /// Human-readable specifics.
    pub(crate) detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}us] g{} n{} {}: {}",
            self.at_us, self.group, self.node, self.invariant, self.detail
        )
    }
}

#[derive(Debug, Default)]
struct GroupState {
    /// Fault bound `f`, when registered.
    f: Option<u64>,
    /// First accepted pre-prepare digest per (view, seq).
    pre_prepares: BTreeMap<(u64, u64), u64>,
    /// Prepare certificates seen: digests per seq (any view, any node).
    prepared: BTreeMap<u64, BTreeSet<u64>>,
    /// First committed digest per seq.
    committed: BTreeMap<u64, u64>,
    /// Distinct checkpoint voters per (seq, digest).
    ckpt_votes: BTreeMap<(u64, u64), BTreeSet<u64>>,
    /// Highest stable checkpoint seq the group reached. Everything at or
    /// below it is certified by 2f+1 matching votes, so late sightings
    /// from lagging replicas (a commit whose prepare ledger was pruned, a
    /// stale stability declaration) are covered, not violations.
    stable_floor: u64,
}

/// The auditor: per-group protocol ledgers plus global 2PC and
/// exactly-once ledgers, fed from the obs event stream.
#[derive(Debug)]
pub struct Auditor {
    mode: AuditMode,
    groups: BTreeMap<u32, GroupState>,
    /// Exactly-once ledger: (node, incarnation) → delivered
    /// (origin, target_seq) pairs.
    delivered: BTreeMap<(u64, u64), BTreeSet<(u64, u64)>>,
    /// Node incarnation counters (bumped by `NodeReset`).
    incarnations: BTreeMap<u64, u64>,
    /// Coordinator decision per transaction hash.
    txn_decisions: BTreeMap<u64, bool>,
    violations: Vec<Violation>,
    events_seen: u64,
}

/// Violations kept with full detail; later ones only counted.
const VIOLATION_DETAIL_CAP: usize = 256;

impl Auditor {
    /// A new auditor in the given mode.
    pub fn new(mode: AuditMode) -> Self {
        Auditor {
            mode,
            groups: BTreeMap::new(),
            delivered: BTreeMap::new(),
            incarnations: BTreeMap::new(),
            txn_decisions: BTreeMap::new(),
            violations: Vec::new(),
            events_seen: 0,
        }
    }

    /// The configured reaction mode.
    pub fn mode(&self) -> AuditMode {
        self.mode
    }

    /// Registers a group's fault bound `f` (needed by the checkpoint
    /// stability check; groups without a registered bound skip it).
    pub fn register_group(&mut self, group: u32, f: u64) {
        self.groups.entry(group).or_default().f = Some(f);
    }

    /// Total violations recorded (including ones past the detail cap).
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64
    }

    /// The recorded violations (detail capped).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Ingests one event. Returns `true` when it violated an invariant
    /// (the caller bumps [`AUDIT_VIOLATIONS_KEY`] and panics in
    /// [`AuditMode::Strict`]).
    pub fn ingest(&mut self, group: u32, node: u64, at_us: u64, ev: AuditEvent) -> bool {
        self.events_seen += 1;
        let fail = match ev {
            AuditEvent::PrePrepare { view, seq, digest } => {
                let g = self.groups.entry(group).or_default();
                match g.pre_prepares.get(&(view, seq)) {
                    Some(&first) if first != digest => Some((
                        "pre-prepare-equivocation",
                        format!(
                            "view {view} seq {seq}: accepted digest {digest:#x} \
                             conflicts with {first:#x} — primary equivocated"
                        ),
                    )),
                    Some(_) => None,
                    None => {
                        g.pre_prepares.insert((view, seq), digest);
                        None
                    }
                }
            }
            AuditEvent::Prepared {
                view: _,
                seq,
                digest,
            } => {
                let g = self.groups.entry(group).or_default();
                g.prepared.entry(seq).or_default().insert(digest);
                None
            }
            AuditEvent::Committed {
                seq,
                digest,
                via_transfer,
            } => {
                let g = self.groups.entry(group).or_default();
                let mut v = None;
                if !via_transfer
                    && seq > g.stable_floor
                    && !g.prepared.get(&seq).is_some_and(|d| d.contains(&digest))
                {
                    v = Some((
                        "commit-without-prepare",
                        format!(
                            "seq {seq} committed digest {digest:#x} with no \
                             prepare certificate seen for it"
                        ),
                    ));
                }
                match g.committed.get(&seq) {
                    Some(&first) if first != digest => {
                        v = Some((
                            "slot-divergence",
                            format!(
                                "seq {seq}: committed digest {digest:#x} \
                                 conflicts with {first:#x}"
                            ),
                        ));
                    }
                    Some(_) => {}
                    None => {
                        g.committed.insert(seq, digest);
                    }
                }
                v
            }
            AuditEvent::Executed { origin, target_seq } => {
                let inc = self.incarnations.get(&node).copied().unwrap_or(0);
                let ledger = self.delivered.entry((node, inc)).or_default();
                if !ledger.insert((origin, target_seq)) {
                    Some((
                        "double-delivery",
                        format!(
                            "origin {origin} target_seq {target_seq} delivered \
                             twice in one incarnation"
                        ),
                    ))
                } else {
                    None
                }
            }
            AuditEvent::CheckpointVote { seq, digest, voter } => {
                let g = self.groups.entry(group).or_default();
                g.ckpt_votes.entry((seq, digest)).or_default().insert(voter);
                None
            }
            AuditEvent::CheckpointStable { seq, digest } => {
                let g = self.groups.entry(group).or_default();
                if seq < g.stable_floor {
                    // A lagging replica catching up to an already-certified
                    // boundary: its votes were pruned when the group moved
                    // past it, not evidence of under-voted stability.
                    return false;
                }
                let votes = g
                    .ckpt_votes
                    .get(&(seq, digest))
                    .map(|v| v.len() as u64)
                    .unwrap_or(0);
                let need = g.f.map(|f| f + 1).unwrap_or(1);
                let fired = (votes < need).then(|| {
                    (
                        "understable-checkpoint",
                        format!(
                            "seq {seq} declared stable on {votes} matching \
                             votes for {digest:#x}; need {need}"
                        ),
                    )
                });
                // Stability is a group-global floor: everything at or
                // below it is certified, so prune the per-seq ledgers.
                if fired.is_none() {
                    g.stable_floor = g.stable_floor.max(seq);
                    g.pre_prepares.retain(|&(_, s), _| s > seq);
                    g.prepared.retain(|&s, _| s > seq);
                    g.committed.retain(|&s, _| s > seq);
                    g.ckpt_votes.retain(|&(s, _), _| s >= seq);
                }
                fired
            }
            AuditEvent::TxnDecision {
                txn,
                commit,
                coordinator,
            } => {
                if coordinator {
                    match self.txn_decisions.get(&txn) {
                        Some(&first) if first != commit => Some((
                            "txn-coordinator-flip",
                            format!(
                                "txn {txn:#x}: coordinator decided \
                                 commit={commit} after commit={first}"
                            ),
                        )),
                        Some(_) => None,
                        None => {
                            self.txn_decisions.insert(txn, commit);
                            None
                        }
                    }
                } else {
                    match self.txn_decisions.get(&txn) {
                        Some(&coord) if coord != commit => Some((
                            "txn-decision-mismatch",
                            format!(
                                "txn {txn:#x}: participant decided \
                                 commit={commit}, coordinator decided \
                                 commit={coord}"
                            ),
                        )),
                        _ => None,
                    }
                }
            }
            AuditEvent::NodeReset => {
                let inc = self.incarnations.get(&node).copied().unwrap_or(0);
                // The old incarnation's ledger can never fire again.
                self.delivered.remove(&(node, inc));
                self.incarnations.insert(node, inc + 1);
                None
            }
            AuditEvent::PhaseRegression { origin, counter } => Some((
                "span-phase-regression",
                format!(
                    "request span origin {origin} counter {counter} recorded \
                     an ordered-path phase out of lifecycle order"
                ),
            )),
        };
        match fail {
            Some((invariant, detail)) => {
                if self.violations.len() < VIOLATION_DETAIL_CAP {
                    self.violations.push(Violation {
                        at_us,
                        group,
                        node,
                        invariant,
                        detail,
                    });
                } else {
                    // Past the cap, keep counting without the detail.
                    self.violations.push(Violation {
                        at_us,
                        group,
                        node,
                        invariant,
                        detail: String::new(),
                    });
                }
                true
            }
            None => false,
        }
    }

    /// The structured report: one line per violation plus a summary
    /// header. Empty report ⇒ "audit clean".
    pub fn report(&self) -> String {
        let mut out = format!(
            "== protocol audit: {} events, {} violation(s) ==\n",
            self.events_seen,
            self.violations.len()
        );
        if self.violations.is_empty() {
            out.push_str("audit clean\n");
            return out;
        }
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for v in &self.violations {
            *by_kind.entry(v.invariant).or_insert(0) += 1;
        }
        for (kind, n) in &by_kind {
            out.push_str(&format!("  {kind}: {n}\n"));
        }
        for v in self.violations.iter().take(VIOLATION_DETAIL_CAP) {
            out.push_str(&format!("{v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auditor() -> Auditor {
        let mut a = Auditor::new(AuditMode::Record);
        a.register_group(1, 1);
        a
    }

    #[test]
    fn clean_ordered_flow_passes() {
        let mut a = auditor();
        assert!(!a.ingest(
            1,
            0,
            10,
            AuditEvent::PrePrepare {
                view: 0,
                seq: 1,
                digest: 0xAA
            }
        ));
        assert!(!a.ingest(
            1,
            1,
            11,
            AuditEvent::PrePrepare {
                view: 0,
                seq: 1,
                digest: 0xAA
            }
        ));
        assert!(!a.ingest(
            1,
            0,
            12,
            AuditEvent::Prepared {
                view: 0,
                seq: 1,
                digest: 0xAA
            }
        ));
        assert!(!a.ingest(
            1,
            0,
            13,
            AuditEvent::Committed {
                seq: 1,
                digest: 0xAA,
                via_transfer: false
            }
        ));
        assert!(!a.ingest(
            1,
            0,
            14,
            AuditEvent::Executed {
                origin: 7,
                target_seq: 1
            }
        ));
        assert_eq!(a.violation_count(), 0);
        assert!(a.report().contains("audit clean"));
    }

    #[test]
    fn equivocating_pre_prepare_fires() {
        let mut a = auditor();
        a.ingest(
            1,
            0,
            10,
            AuditEvent::PrePrepare {
                view: 0,
                seq: 3,
                digest: 0xAA,
            },
        );
        assert!(a.ingest(
            1,
            2,
            11,
            AuditEvent::PrePrepare {
                view: 0,
                seq: 3,
                digest: 0xBB
            }
        ));
        assert_eq!(a.violations()[0].invariant, "pre-prepare-equivocation");
    }

    #[test]
    fn commit_without_prepare_fires_but_transfer_is_exempt() {
        let mut a = auditor();
        assert!(a.ingest(
            1,
            0,
            10,
            AuditEvent::Committed {
                seq: 5,
                digest: 0xCC,
                via_transfer: false
            }
        ));
        assert!(!a.ingest(
            1,
            1,
            11,
            AuditEvent::Committed {
                seq: 6,
                digest: 0xDD,
                via_transfer: true
            }
        ));
    }

    #[test]
    fn slot_divergence_fires_across_views() {
        let mut a = auditor();
        a.ingest(
            1,
            0,
            10,
            AuditEvent::Prepared {
                view: 0,
                seq: 9,
                digest: 0xAA,
            },
        );
        a.ingest(
            1,
            0,
            11,
            AuditEvent::Prepared {
                view: 1,
                seq: 9,
                digest: 0xBB,
            },
        );
        a.ingest(
            1,
            0,
            12,
            AuditEvent::Committed {
                seq: 9,
                digest: 0xAA,
                via_transfer: false,
            },
        );
        assert!(a.ingest(
            1,
            3,
            13,
            AuditEvent::Committed {
                seq: 9,
                digest: 0xBB,
                via_transfer: false
            }
        ));
        assert_eq!(a.violations()[0].invariant, "slot-divergence");
    }

    #[test]
    fn double_delivery_fires_until_node_reset() {
        let mut a = auditor();
        assert!(!a.ingest(
            1,
            0,
            10,
            AuditEvent::Executed {
                origin: 7,
                target_seq: 4
            }
        ));
        assert!(a.ingest(
            1,
            0,
            11,
            AuditEvent::Executed {
                origin: 7,
                target_seq: 4
            }
        ));
        // A wipe/rollback starts a new incarnation: re-delivery is legal.
        a.ingest(1, 0, 12, AuditEvent::NodeReset);
        assert!(!a.ingest(
            1,
            0,
            13,
            AuditEvent::Executed {
                origin: 7,
                target_seq: 4
            }
        ));
        // …but only for the node that reset.
        assert!(!a.ingest(
            1,
            1,
            14,
            AuditEvent::Executed {
                origin: 7,
                target_seq: 4
            }
        ));
        assert!(a.ingest(
            1,
            1,
            15,
            AuditEvent::Executed {
                origin: 7,
                target_seq: 4
            }
        ));
    }

    #[test]
    fn checkpoint_stability_needs_f_plus_one_votes() {
        let mut a = auditor();
        a.ingest(
            1,
            0,
            10,
            AuditEvent::CheckpointVote {
                seq: 8,
                digest: 0xEE,
                voter: 0,
            },
        );
        assert!(a.ingest(
            1,
            0,
            11,
            AuditEvent::CheckpointStable {
                seq: 8,
                digest: 0xEE
            }
        ));
        a.ingest(
            1,
            0,
            12,
            AuditEvent::CheckpointVote {
                seq: 8,
                digest: 0xEE,
                voter: 1,
            },
        );
        assert!(!a.ingest(
            1,
            0,
            13,
            AuditEvent::CheckpointStable {
                seq: 8,
                digest: 0xEE
            }
        ));
    }

    #[test]
    fn stable_checkpoint_prunes_ledgers_below_it() {
        let mut a = auditor();
        a.ingest(
            1,
            0,
            1,
            AuditEvent::PrePrepare {
                view: 0,
                seq: 2,
                digest: 0xAA,
            },
        );
        a.ingest(
            1,
            0,
            2,
            AuditEvent::Prepared {
                view: 0,
                seq: 2,
                digest: 0xAA,
            },
        );
        a.ingest(
            1,
            0,
            3,
            AuditEvent::Committed {
                seq: 2,
                digest: 0xAA,
                via_transfer: false,
            },
        );
        for voter in 0..2 {
            a.ingest(
                1,
                0,
                4,
                AuditEvent::CheckpointVote {
                    seq: 10,
                    digest: 0xFF,
                    voter,
                },
            );
        }
        a.ingest(
            1,
            0,
            5,
            AuditEvent::CheckpointStable {
                seq: 10,
                digest: 0xFF,
            },
        );
        let g = a.groups.get(&1).unwrap();
        assert!(g.pre_prepares.is_empty() && g.prepared.is_empty() && g.committed.is_empty());
    }

    #[test]
    fn lagging_replica_below_the_stable_floor_is_clean() {
        let mut a = auditor();
        a.ingest(
            1,
            0,
            1,
            AuditEvent::Prepared {
                view: 0,
                seq: 32,
                digest: 0xAA,
            },
        );
        for voter in 0..2 {
            a.ingest(
                1,
                0,
                2,
                AuditEvent::CheckpointVote {
                    seq: 32,
                    digest: 0xFF,
                    voter,
                },
            );
        }
        a.ingest(
            1,
            0,
            3,
            AuditEvent::CheckpointStable {
                seq: 32,
                digest: 0xFF,
            },
        );
        // A straggler commits seq 32 after the group moved past it: the
        // prepare ledger is pruned, but the stable floor certifies it.
        assert!(!a.ingest(
            1,
            3,
            4,
            AuditEvent::Committed {
                seq: 32,
                digest: 0xAA,
                via_transfer: false
            }
        ));
        // The straggler's own stale stability declaration below the floor
        // is equally covered (its votes are long pruned).
        for voter in 0..2 {
            a.ingest(
                1,
                0,
                5,
                AuditEvent::CheckpointVote {
                    seq: 48,
                    digest: 0xEE,
                    voter,
                },
            );
        }
        a.ingest(
            1,
            0,
            6,
            AuditEvent::CheckpointStable {
                seq: 48,
                digest: 0xEE,
            },
        );
        assert!(!a.ingest(
            1,
            3,
            7,
            AuditEvent::CheckpointStable {
                seq: 32,
                digest: 0xFF
            }
        ));
        // Above the floor the invariant still bites.
        assert!(a.ingest(
            1,
            2,
            8,
            AuditEvent::Committed {
                seq: 60,
                digest: 0xDD,
                via_transfer: false
            }
        ));
        assert_eq!(a.violations()[0].invariant, "commit-without-prepare");
    }

    #[test]
    fn txn_participant_must_match_coordinator() {
        let mut a = auditor();
        a.ingest(
            1,
            0,
            10,
            AuditEvent::TxnDecision {
                txn: 0x99,
                commit: true,
                coordinator: true,
            },
        );
        assert!(!a.ingest(
            2,
            4,
            11,
            AuditEvent::TxnDecision {
                txn: 0x99,
                commit: true,
                coordinator: false
            }
        ));
        assert!(a.ingest(
            2,
            5,
            12,
            AuditEvent::TxnDecision {
                txn: 0x99,
                commit: false,
                coordinator: false
            }
        ));
        assert_eq!(a.violations()[0].invariant, "txn-decision-mismatch");
    }

    #[test]
    fn report_groups_by_kind() {
        let mut a = auditor();
        a.ingest(
            1,
            0,
            10,
            AuditEvent::Executed {
                origin: 1,
                target_seq: 1,
            },
        );
        a.ingest(
            1,
            0,
            11,
            AuditEvent::Executed {
                origin: 1,
                target_seq: 1,
            },
        );
        a.ingest(
            1,
            0,
            12,
            AuditEvent::PhaseRegression {
                origin: 3,
                counter: 9,
            },
        );
        let r = a.report();
        assert!(r.contains("2 violation(s)"));
        assert!(r.contains("double-delivery: 1"));
        assert!(r.contains("span-phase-regression: 1"));
    }
}
