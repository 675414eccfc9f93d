//! Execution tracing.
//!
//! The primary consumer is the determinism test suite: a [`TraceDigest`]
//! folds every observable scheduling decision (delivery time, recipient,
//! payload bytes) into a single hash, so two runs can be compared cheaply
//! and any divergence — even a one-byte payload difference — is detected.

use crate::node::NodeId;
use crate::time::SimTime;

/// An order-sensitive rolling hash over simulation events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    hash: u64,
    events: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            events: 0,
        }
    }
}

impl TraceDigest {
    /// A fresh digest.
    pub(crate) fn new() -> Self {
        TraceDigest::default()
    }

    fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x1000_0000_01b3); // FNV prime
        }
    }

    fn mix_u64(&mut self, v: u64) {
        self.mix_bytes(&v.to_le_bytes());
    }

    /// Folds a message delivery into the digest.
    pub(crate) fn record_delivery(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
    ) {
        self.mix_u64(1);
        self.mix_u64(at.as_micros());
        self.mix_u64(from.raw() as u64);
        self.mix_u64(to.raw() as u64);
        self.mix_u64(payload.len() as u64);
        self.mix_bytes(payload);
        self.events += 1;
    }

    /// Folds a timer firing into the digest.
    pub(crate) fn record_timer(&mut self, at: SimTime, node: NodeId, timer: u64) {
        self.mix_u64(2);
        self.mix_u64(at.as_micros());
        self.mix_u64(node.raw() as u64);
        self.mix_u64(timer);
        self.events += 1;
    }

    /// The digest value. Equal digests mean (with overwhelming probability)
    /// identical event sequences.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// Number of events folded in.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_agree() {
        let mut a = TraceDigest::new();
        let mut b = TraceDigest::new();
        for d in [&mut a, &mut b] {
            d.record_delivery(SimTime::from_micros(5), NodeId(0), NodeId(1), b"hello");
            d.record_timer(SimTime::from_micros(9), NodeId(1), 3);
        }
        assert_eq!(a, b);
        assert_eq!(a.events(), 2);
    }

    #[test]
    fn payload_differences_are_detected() {
        let mut a = TraceDigest::new();
        let mut b = TraceDigest::new();
        a.record_delivery(SimTime::ZERO, NodeId(0), NodeId(1), b"aaaa");
        b.record_delivery(SimTime::ZERO, NodeId(0), NodeId(1), b"aaab");
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn order_matters() {
        let mut a = TraceDigest::new();
        let mut b = TraceDigest::new();
        a.record_timer(SimTime::ZERO, NodeId(0), 1);
        a.record_timer(SimTime::ZERO, NodeId(0), 2);
        b.record_timer(SimTime::ZERO, NodeId(0), 2);
        b.record_timer(SimTime::ZERO, NodeId(0), 1);
        assert_ne!(a.value(), b.value());
    }
}
