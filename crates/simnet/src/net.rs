//! The network model.
//!
//! Latency of a message of `len` bytes from `a` to `b` is
//! `base + len * per_byte + U[0, jitter)`, where the jitter draw comes from
//! the simulation's dedicated network RNG stream. Defaults approximate the
//! paper's testbed: a Gigabit Ethernet with 78 µs pairwise ping RTTs, i.e.
//! 39 µs one-way.

use crate::node::NodeId;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// A scheduled *flapping* partition between two nodes: starting at
/// `start`, the (bidirectional) link is severed for `down`, healed for
/// `up`, severed again, and so on. The schedule is purely a function of
/// virtual time, so fault injection stays deterministic — the same seed
/// sees the same messages lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flap {
    a: NodeId,
    b: NodeId,
    start: SimTime,
    down: SimDuration,
    up: SimDuration,
}

impl Flap {
    /// Whether the link is in a severed phase at `now`.
    fn severed_at(&self, now: SimTime) -> bool {
        if now < self.start {
            return false;
        }
        let period = (self.down + self.up).as_micros().max(1);
        (now.as_micros() - self.start.as_micros()) % period < self.down.as_micros()
    }

    fn covers(&self, from: NodeId, to: NodeId) -> bool {
        (self.a == from && self.b == to) || (self.a == to && self.b == from)
    }
}

/// Latency/reliability parameters for a single directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Fixed one-way latency.
    pub base: SimDuration,
    /// Serialization cost per payload byte, in microseconds.
    pub per_byte_us: f64,
    /// Maximum uniform jitter added to each message.
    pub jitter: SimDuration,
    /// Probability in `[0,1]` that a message is silently dropped.
    pub drop_probability: f64,
}

impl Default for LinkConfig {
    /// The paper's LAN: 39 µs one-way, ~1 Gbit/s (0.008 µs/byte), small
    /// jitter, no losses.
    fn default() -> Self {
        LinkConfig {
            base: SimDuration::from_micros(39),
            per_byte_us: 0.008,
            jitter: SimDuration::from_micros(6),
            drop_probability: 0.0,
        }
    }
}

/// Network-wide configuration: a default link plus per-pair overrides,
/// partitions, and crashed nodes.
#[derive(Debug, Default)]
pub struct NetConfig {
    default_link: LinkConfig,
    overrides: HashMap<(NodeId, NodeId), LinkConfig>,
    /// Loopback delivery latency (co-located voter/driver messages and
    /// self-sends); models a local queue hand-off.
    local: SimDuration,
    partitioned: HashSet<(NodeId, NodeId)>,
    flaps: Vec<Flap>,
    crashed: HashSet<NodeId>,
}

impl NetConfig {
    /// Creates a network with the given default link for every pair.
    pub fn new(default_link: LinkConfig) -> Self {
        NetConfig {
            default_link,
            overrides: HashMap::new(),
            local: SimDuration::from_micros(1),
            partitioned: HashSet::new(),
            flaps: Vec::new(),
            crashed: HashSet::new(),
        }
    }

    /// The default link parameters.
    pub fn default_link(&self) -> LinkConfig {
        self.default_link
    }

    /// Overrides the link parameters for the directed pair `(from, to)`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, link: LinkConfig) {
        self.overrides.insert((from, to), link);
    }

    /// Severs the directed pair `(from, to)` (messages are dropped).
    pub(crate) fn partition(&mut self, from: NodeId, to: NodeId) {
        self.partitioned.insert((from, to));
    }

    /// Severs both directions between `a` and `b`.
    pub fn partition_both(&mut self, a: NodeId, b: NodeId) {
        self.partition(a, b);
        self.partition(b, a);
    }

    /// Heals the directed pair `(from, to)`.
    #[cfg(test)]
    pub(crate) fn heal(&mut self, from: NodeId, to: NodeId) {
        self.partitioned.remove(&(from, to));
    }

    /// Heals every partition and cancels every flap schedule.
    pub fn heal_all(&mut self) {
        self.partitioned.clear();
        self.flaps.clear();
    }

    /// Schedules a *flapping* partition between `a` and `b` (both
    /// directions): from `start`, the link is severed for `down`, healed
    /// for `up`, severed again, and so on until [`NetConfig::clear_flaps`]
    /// (or [`NetConfig::heal_all`]). Deterministic: purely a function of
    /// virtual time. This is the churniest partition fault — protocols
    /// must survive links that come back just long enough to leak partial
    /// quorums.
    pub fn flap_partition_both(
        &mut self,
        a: NodeId,
        b: NodeId,
        start: SimTime,
        down: SimDuration,
        up: SimDuration,
    ) {
        self.flaps.push(Flap {
            a,
            b,
            start,
            down,
            up,
        });
    }

    /// Cancels every flap schedule (static partitions stay).
    pub fn clear_flaps(&mut self) {
        self.flaps.clear();
    }

    /// Whether any flap schedule currently severs `from → to` at `now`.
    pub(crate) fn flap_severed(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        self.flaps
            .iter()
            .any(|f| f.covers(from, to) && f.severed_at(now))
    }

    /// Marks a node as crashed: it receives nothing and its messages vanish.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Restarts a crashed node (state is whatever the `Node` value holds).
    pub fn restart(&mut self, node: NodeId) {
        self.crashed.remove(&node);
    }

    /// Whether `node` is currently crashed.
    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// Computes the delivery latency for a message, or `None` if the message
    /// is lost (drop, partition, or crash).
    pub(crate) fn latency(
        &self,
        from: NodeId,
        to: NodeId,
        len: usize,
        now: SimTime,
        rng: &mut DetRng,
    ) -> Option<SimDuration> {
        if self.crashed.contains(&from) || self.crashed.contains(&to) {
            return None;
        }
        if from == to {
            return Some(self.local);
        }
        if self.partitioned.contains(&(from, to)) {
            return None;
        }
        if !self.flaps.is_empty() && self.flap_severed(from, to, now) {
            return None;
        }
        let link = self
            .overrides
            .get(&(from, to))
            .unwrap_or(&self.default_link);
        if link.drop_probability > 0.0 && rng.unit() < link.drop_probability {
            return None;
        }
        let bytes_us = (len as f64 * link.per_byte_us).round() as u64;
        let jitter = SimDuration::from_micros(rng.below(link.jitter.as_micros().max(1)));
        let jitter = if link.jitter == SimDuration::ZERO {
            SimDuration::ZERO
        } else {
            jitter
        };
        Some(link.base + SimDuration::from_micros(bytes_us) + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LinkConfig {
        /// A perfectly reliable zero-latency link (useful in unit tests).
        const IDEAL: LinkConfig = LinkConfig {
            base: SimDuration::ZERO,
            per_byte_us: 0.0,
            jitter: SimDuration::ZERO,
            drop_probability: 0.0,
        };
    }

    fn ids() -> (NodeId, NodeId) {
        (NodeId(0), NodeId(1))
    }

    #[test]
    fn ideal_link_has_zero_latency() {
        let net = NetConfig::new(LinkConfig::IDEAL);
        let mut rng = DetRng::derive(0, 0);
        let (a, b) = ids();
        assert_eq!(
            net.latency(a, b, 100, SimTime::ZERO, &mut rng),
            Some(SimDuration::ZERO)
        );
    }

    #[test]
    fn default_link_matches_paper_lan() {
        let link = LinkConfig::default();
        assert_eq!(link.base.as_micros(), 39, "one-way = RTT/2 = 39us");
    }

    #[test]
    fn per_byte_cost_applies() {
        let mut link = LinkConfig::IDEAL;
        link.per_byte_us = 0.5;
        let net = NetConfig::new(link);
        let mut rng = DetRng::derive(0, 0);
        let (a, b) = ids();
        assert_eq!(
            net.latency(a, b, 100, SimTime::ZERO, &mut rng),
            Some(SimDuration::from_micros(50))
        );
    }

    #[test]
    fn partition_blocks_one_direction() {
        let mut net = NetConfig::new(LinkConfig::IDEAL);
        let (a, b) = ids();
        net.partition(a, b);
        let mut rng = DetRng::derive(0, 0);
        assert!(net.latency(a, b, 0, SimTime::ZERO, &mut rng).is_none());
        assert!(net.latency(b, a, 0, SimTime::ZERO, &mut rng).is_some());
        net.heal(a, b);
        assert!(net.latency(a, b, 0, SimTime::ZERO, &mut rng).is_some());
    }

    #[test]
    fn crash_blocks_both_directions() {
        let mut net = NetConfig::new(LinkConfig::IDEAL);
        let (a, b) = ids();
        net.crash(b);
        assert!(net.is_crashed(b));
        let mut rng = DetRng::derive(0, 0);
        assert!(net.latency(a, b, 0, SimTime::ZERO, &mut rng).is_none());
        assert!(net.latency(b, a, 0, SimTime::ZERO, &mut rng).is_none());
        net.restart(b);
        assert!(net.latency(a, b, 0, SimTime::ZERO, &mut rng).is_some());
    }

    #[test]
    fn drops_follow_probability() {
        let mut link = LinkConfig::IDEAL;
        link.drop_probability = 0.5;
        let net = NetConfig::new(link);
        let mut rng = DetRng::derive(1, 2);
        let (a, b) = ids();
        let delivered = (0..2000)
            .filter(|_| net.latency(a, b, 0, SimTime::ZERO, &mut rng).is_some())
            .count();
        assert!((800..1200).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    fn self_send_uses_local_latency() {
        let net = NetConfig::new(LinkConfig::default());
        let mut rng = DetRng::derive(0, 0);
        let a = NodeId(5);
        assert_eq!(
            net.latency(a, a, 10_000, SimTime::ZERO, &mut rng),
            Some(SimDuration::from_micros(1))
        );
    }

    #[test]
    fn link_override_applies() {
        let mut net = NetConfig::new(LinkConfig::IDEAL);
        let (a, b) = ids();
        net.set_link(
            a,
            b,
            LinkConfig {
                base: SimDuration::from_millis(10),
                per_byte_us: 0.0,
                jitter: SimDuration::ZERO,
                drop_probability: 0.0,
            },
        );
        let mut rng = DetRng::derive(0, 0);
        assert_eq!(
            net.latency(a, b, 0, SimTime::ZERO, &mut rng),
            Some(SimDuration::from_millis(10))
        );
        assert_eq!(
            net.latency(b, a, 0, SimTime::ZERO, &mut rng),
            Some(SimDuration::ZERO)
        );
    }

    #[test]
    fn flap_schedule_alternates_down_and_up_phases() {
        let mut net = NetConfig::new(LinkConfig::IDEAL);
        let (a, b) = ids();
        // From t=1ms: down 2ms, up 3ms, period 5ms.
        net.flap_partition_both(
            a,
            b,
            SimTime::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
        );
        let mut rng = DetRng::derive(0, 0);
        let up = |net: &NetConfig, t_ms: u64, rng: &mut DetRng| {
            net.latency(a, b, 0, SimTime::from_millis(t_ms), rng)
                .is_some()
        };
        assert!(up(&net, 0, &mut rng), "before start the link is healthy");
        assert!(!up(&net, 1, &mut rng), "down phase begins at start");
        assert!(!up(&net, 2, &mut rng));
        assert!(up(&net, 3, &mut rng), "up phase after `down` elapses");
        assert!(up(&net, 5, &mut rng));
        assert!(!up(&net, 6, &mut rng), "next period severs again");
        assert!(up(&net, 8, &mut rng));
        // Both directions flap; unrelated pairs are untouched.
        assert!(net
            .latency(b, a, 0, SimTime::from_millis(1), &mut rng)
            .is_none());
        assert!(net
            .latency(a, NodeId(9), 0, SimTime::from_millis(1), &mut rng)
            .is_some());
        assert!(net.flap_severed(a, b, SimTime::from_millis(1)));
        net.clear_flaps();
        assert!(up(&net, 1, &mut rng), "cleared flaps heal the link");
    }

    #[test]
    fn heal_all_cancels_flaps_too() {
        let mut net = NetConfig::new(LinkConfig::IDEAL);
        let (a, b) = ids();
        net.flap_partition_both(
            a,
            b,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
        );
        let mut rng = DetRng::derive(0, 0);
        assert!(net.latency(a, b, 0, SimTime::ZERO, &mut rng).is_none());
        net.heal_all();
        assert!(net.latency(a, b, 0, SimTime::ZERO, &mut rng).is_some());
    }
}
