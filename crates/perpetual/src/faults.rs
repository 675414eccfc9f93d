//! Byzantine fault injection modes for replicas, used by tests and the
//! fault-isolation experiments.

use bytes::Bytes;

/// The corruption every payload-tampering mode applies: a copy of `payload`
/// with its first byte XORed with `mask`, or the one byte `mask` if it was
/// empty — never equal to the original for a non-zero mask.
pub(crate) fn corrupt(payload: &Bytes, mask: u8) -> Bytes {
    let mut bad = payload.to_vec();
    match bad.first_mut() {
        Some(b) => *b ^= mask,
        None => bad.push(mask),
    }
    Bytes::from(bad)
}

/// How a replica misbehaves (if at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Drops every input and sends nothing (crash-like, but the node is
    /// still "up" from the network's point of view).
    Silent,
    /// Participates in agreement but produces corrupted reply shares, as a
    /// compromised executor would.
    CorruptReplies,
    /// When serving as responder, sends a valid bundle to some calling
    /// drivers and a corrupted one to others (tests fault isolation on the
    /// calling side).
    EquivocatingResponder,
    /// Churny mode: after `after_ms` of virtual time the replica silently
    /// drops to a stale state — its voter log and driver bookkeeping are
    /// wiped (the hosted application is left frozen: nothing executes
    /// below the fresh watermark, and the install overwrites it wholesale)
    /// as if the process rebooted from an empty disk without telling
    /// anyone. The replica keeps participating from that stale state; only
    /// checkpoint-vote lag evidence and state transfer (never retransmit
    /// storms) can bring it back.
    StaleDrop {
        /// Virtual milliseconds after start at which the drop happens.
        after_ms: u64,
    },
    /// Like [`FaultMode::StaleDrop`], but the reboot also loses the local
    /// page store: the replica comes back *cold* and state transfer must
    /// ship every page instead of only the ones that changed. The
    /// warm/cold pair is what the delta-recovery experiments compare.
    StaleDropCold {
        /// Virtual milliseconds after start at which the drop happens.
        after_ms: u64,
    },
    /// Serves state transfer like a correct replica but corrupts the page
    /// bytes in every `PageResponse` it sends. A fetcher must reject each
    /// such page against the certified Merkle manifest (counting it) and
    /// converge through honest responders — this mode can stall a
    /// transfer, never poison it.
    CorruptPages,
    /// A Byzantine primary that equivocates: each pre-prepare it broadcasts
    /// is delivered intact to most backups, but one backup receives a
    /// variant carrying a different batch (and therefore digest) for the
    /// same `(view, seq)` slot. Honest backups keep the first pre-prepare
    /// they accept, so agreement is safe; the online invariant auditor must
    /// flag the conflicting digests (`pre-prepare-equivocation`).
    EquivocatingPrimary,
}

impl FaultMode {
    /// Whether the replica participates at all.
    pub(crate) fn is_silent(self) -> bool {
        matches!(self, FaultMode::Silent)
    }

    /// The virtual time (ms) at which this mode wipes the replica, if any.
    pub(crate) fn stale_drop_after_ms(self) -> Option<u64> {
        match self {
            FaultMode::StaleDrop { after_ms } | FaultMode::StaleDropCold { after_ms } => {
                Some(after_ms)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_correct() {
        assert_eq!(FaultMode::default(), FaultMode::Correct);
        assert!(!FaultMode::Correct.is_silent());
        assert!(FaultMode::Silent.is_silent());
        assert!(!FaultMode::CorruptReplies.is_silent());
        assert!(!FaultMode::CorruptPages.is_silent());
    }

    #[test]
    fn both_stale_drops_expose_their_deadline() {
        assert_eq!(
            FaultMode::StaleDrop { after_ms: 5 }.stale_drop_after_ms(),
            Some(5)
        );
        assert_eq!(
            FaultMode::StaleDropCold { after_ms: 7 }.stale_drop_after_ms(),
            Some(7)
        );
        assert_eq!(FaultMode::Correct.stale_drop_after_ms(), None);
    }
}
