//! The CPU cost model.
//!
//! The paper's micro-benchmarks concluded that "the cost of authentication
//! and encryption at the ChannelAdapter layer dwarfs the cost of marshaling
//! and demarshaling XML requests at the Axis2 layer" (§6.4). The simulation
//! reproduces that structure by charging each node CPU time per
//! sent/received message for MAC + encryption work, plus per-byte costs.
//! Defaults are calibrated for a 2 GHz Opteron-class core.

use pws_simnet::SimDuration;

/// Per-node CPU costs charged by the Perpetual replica and client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost to MAC-authenticate and encrypt an outgoing message.
    pub send_crypto: SimDuration,
    /// Additional per-byte cost on send (stream cipher + framing).
    pub(crate) send_per_kb: SimDuration,
    /// Cost to verify and decrypt an incoming message.
    pub recv_crypto: SimDuration,
    /// Additional per-byte cost on receive.
    pub(crate) recv_per_kb: SimDuration,
    /// Cost to compute one extra MAC (authenticator entries, bundle shares).
    pub mac: SimDuration,
    /// Fixed protocol bookkeeping per delivered batch (authenticator
    /// bookkeeping, ordering-table updates). Charged once per agreement
    /// slot, however many requests the slot's batch carries.
    pub(crate) event_overhead: SimDuration,
    /// Marginal bookkeeping per additional request in a batch beyond the
    /// first (demarshal + dispatch; the authenticator work is amortized
    /// across the whole batch, which is the point of batching).
    pub(crate) batch_item: SimDuration,
    /// Fixed cost to serialize (or install) one application snapshot at a
    /// checkpoint boundary.
    pub(crate) snapshot_fixed: SimDuration,
    /// Additional per-kilobyte cost of snapshot serialization/installation.
    pub(crate) snapshot_per_kb: SimDuration,
    /// Cost to hash one snapshot page (incremental checkpoints charge this
    /// only for dirty pages; state transfer charges it per verified page).
    pub(crate) page_hash: SimDuration,
    /// Cost of answering one read-only request on the fast path (scratch
    /// execution against committed state, no agreement slot). Roughly the
    /// per-request share of `batch_item` — what a read pays instead of the
    /// full ordered `event_overhead` + three protocol rounds.
    pub(crate) ro_serve: SimDuration,
}

impl CostModel {
    /// The calibrated default. Values model the paper's JVM + JSSE
    /// (RSA/RC4/MD5 suite) stack on a 2 GHz Opteron: ~70 µs to authenticate
    /// and encrypt a message, a few µs per extra MAC. With these values the
    /// unreplicated two-tier null-request benchmark lands near the paper's
    /// Fig. 7 scale (~550 req/s).
    pub const DEFAULT: CostModel = CostModel {
        send_crypto: SimDuration::from_micros(45),
        send_per_kb: SimDuration::from_micros(20),
        recv_crypto: SimDuration::from_micros(45),
        recv_per_kb: SimDuration::from_micros(20),
        mac: SimDuration::from_micros(3),
        event_overhead: SimDuration::from_micros(260),
        batch_item: SimDuration::from_micros(90),
        snapshot_fixed: SimDuration::from_micros(120),
        snapshot_per_kb: SimDuration::from_micros(15),
        page_hash: SimDuration::from_micros(2),
        ro_serve: SimDuration::from_micros(90),
    };

    /// A zero-cost model (for protocol unit tests where CPU time is noise).
    pub const FREE: CostModel = CostModel {
        send_crypto: SimDuration::ZERO,
        send_per_kb: SimDuration::ZERO,
        recv_crypto: SimDuration::ZERO,
        recv_per_kb: SimDuration::ZERO,
        mac: SimDuration::ZERO,
        event_overhead: SimDuration::ZERO,
        batch_item: SimDuration::ZERO,
        snapshot_fixed: SimDuration::ZERO,
        snapshot_per_kb: SimDuration::ZERO,
        page_hash: SimDuration::ZERO,
        ro_serve: SimDuration::ZERO,
    };

    /// Total CPU cost of delivering one ordered batch of `len` requests:
    /// the fixed per-slot overhead plus the marginal per-request cost for
    /// every request beyond the first. `batch_cost(1)` equals the cost one
    /// unbatched event used to pay, so batching is free for singletons and
    /// strictly amortizing beyond.
    pub(crate) fn batch_cost(&self, len: usize) -> SimDuration {
        self.event_overhead + self.batch_item.saturating_mul(len.saturating_sub(1) as u64)
    }

    /// CPU cost of serializing or installing an application snapshot of
    /// `len` bytes (charged at checkpoint boundaries and state installs).
    pub(crate) fn snapshot_cost(&self, len: usize) -> SimDuration {
        self.snapshot_fixed + self.snapshot_per_kb.saturating_mul(len as u64 / 1024)
    }

    /// CPU cost of hashing (or verifying) `pages` snapshot pages. This is
    /// what an incremental checkpoint pays instead of `snapshot_cost` over
    /// the whole state: only dirty pages are re-hashed, so the charge stops
    /// scaling with total state size.
    pub(crate) fn page_cost(&self, pages: u64) -> SimDuration {
        self.page_hash.saturating_mul(pages)
    }

    /// Total CPU cost of sending a message of `len` bytes with `extra_macs`
    /// additional authenticator entries.
    pub fn send_cost(&self, len: usize, extra_macs: usize) -> SimDuration {
        self.send_crypto
            + self.send_per_kb.saturating_mul(len as u64 / 1024)
            + self.mac.saturating_mul(extra_macs as u64)
    }

    /// Total CPU cost of receiving and authenticating a message of `len`
    /// bytes with `extra_macs` verifications.
    pub fn recv_cost(&self, len: usize, extra_macs: usize) -> SimDuration {
        self.recv_crypto
            + self.recv_per_kb.saturating_mul(len as u64 / 1024)
            + self.mac.saturating_mul(extra_macs as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_microseconds_scale() {
        let c = CostModel::default();
        assert!(c.send_cost(256, 0) >= SimDuration::from_micros(18));
        assert!(c.send_cost(256, 0) < SimDuration::from_millis(1));
    }

    #[test]
    fn per_kb_scaling() {
        let c = CostModel::DEFAULT;
        let small = c.send_cost(100, 0);
        let big = c.send_cost(10 * 1024, 0);
        assert!(big > small);
        assert_eq!((big - small).as_micros(), c.send_per_kb.as_micros() * 10);
    }

    #[test]
    fn extra_macs_add_cost() {
        let c = CostModel::DEFAULT;
        assert_eq!(
            (c.recv_cost(0, 10) - c.recv_cost(0, 0)).as_micros(),
            c.mac.as_micros() * 10
        );
    }

    #[test]
    fn free_model_is_zero() {
        let c = CostModel::FREE;
        assert_eq!(c.send_cost(1 << 20, 100), SimDuration::ZERO);
        assert_eq!(c.recv_cost(1 << 20, 100), SimDuration::ZERO);
        assert_eq!(c.batch_cost(16), SimDuration::ZERO);
        assert_eq!(c.snapshot_cost(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn snapshot_cost_scales_with_size() {
        let c = CostModel::DEFAULT;
        let small = c.snapshot_cost(100);
        let big = c.snapshot_cost(10 * 1024);
        assert_eq!(small, c.snapshot_fixed);
        assert_eq!(
            (big - small).as_micros(),
            c.snapshot_per_kb.as_micros() * 10
        );
    }

    #[test]
    fn page_cost_scales_with_dirty_pages_only() {
        let c = CostModel::DEFAULT;
        assert_eq!(c.page_cost(0), SimDuration::ZERO);
        assert_eq!(c.page_cost(10), c.page_hash.saturating_mul(10));
        // Re-hashing a handful of dirty pages must undercut a full
        // snapshot serialization of even a modest state.
        assert!(c.page_cost(4) < c.snapshot_cost(64 * 1024));
        assert_eq!(CostModel::FREE.page_cost(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn read_only_serve_undercuts_an_ordered_slot() {
        let c = CostModel::DEFAULT;
        assert!(
            c.ro_serve < c.batch_cost(1),
            "the fast path must beat even a singleton ordered slot"
        );
        assert_eq!(CostModel::FREE.ro_serve, SimDuration::ZERO);
    }

    #[test]
    fn batch_cost_amortizes() {
        let c = CostModel::DEFAULT;
        assert_eq!(c.batch_cost(0), c.event_overhead);
        assert_eq!(c.batch_cost(1), c.event_overhead, "singletons pay no extra");
        let sixteen = c.batch_cost(16);
        let one_by_one = c.event_overhead.saturating_mul(16);
        assert!(
            sixteen < one_by_one,
            "a 16-batch must be cheaper than 16 singletons: {sixteen:?} vs {one_by_one:?}"
        );
        assert_eq!(sixteen, c.event_overhead + c.batch_item.saturating_mul(15));
    }
}
