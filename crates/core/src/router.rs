//! Sharded service groups: deterministic key→shard routing.
//!
//! One CLBFT voter group orders one log, so a single replicated service
//! tops out at one group's agreement rate. Sharding splits a *logical*
//! service across `S` independently-agreeing voter groups and routes each
//! request to the shard that owns its key, multiplying every per-group
//! subsystem (batching, checkpointing, recovery) by `S`.
//!
//! The [`Router`] decides ownership. It must be:
//!
//! * **deterministic and seed-independent** — every client, every calling
//!   replica, and every shard replica derives the same owner for a key
//!   from the key alone, with no shared state and no RNG;
//! * **stable under growth** — going from `S` to `S + 1` shards moves only
//!   the keys the new shard wins (≈ `1/(S+1)` of them), never reshuffling
//!   keys between existing shards;
//! * **balanced** — keys spread across shards within a documented bound
//!   (see [`RendezvousRouter`]).
//!
//! The default [`RendezvousRouter`] implements highest-random-weight
//! (rendezvous) hashing: each shard's claim on a key is a hash of
//! `(key, shard)` and the highest claim wins, which gives all three
//! properties by construction.
//!
//! The **routing key** of a request is its SOAP body text (the entity id
//! idiom used throughout this workspace: the TPC-W session, the bench
//! sequence number). A request may name several entity keys joined with
//! `|`; if they all map to one shard it routes there. Keys spanning shards
//! are rejected with the typed [`RouteError::CrossShard`] for plain
//! sharded services, or routed to the first key's owner — the
//! **coordinator** of a two-phase commit — for transactional ones (see
//! [`crate::txn`]). [`RouterEpoch`] versions the active shard count so
//! live resharding can grow a deployment without rebuilding it.

use pws_soap::MessageContext;
use std::fmt;

/// Deterministic key→shard assignment over `shards` shards (`0..shards`).
///
/// Implementations must be pure functions of `(key, shards)`: no seeds, no
/// interior mutability, identical answers at every node of a deployment.
/// (`Send + Sync` so the deployment-wide `UriMap` holding the router stays
/// shareable.)
pub trait Router: Send + Sync {
    /// The shard (in `0..shards`) that owns `key`.
    ///
    /// Must return the same value for the same `(key, shards)` forever;
    /// callers (clients, calling replicas, and the shards themselves when
    /// they audit ownership) all rely on agreeing without coordination.
    fn shard(&self, key: &str, shards: u32) -> u32;
}

use pws_simnet::splitmix64 as mix64;

/// FNV-1a over the key bytes: a seedless, allocation-free string hash; the
/// shared SplitMix64 finalizer ([`pws_simnet::splitmix64`]) supplies the
/// avalanche FNV lacks and decorrelates the shard index from the key hash,
/// so rendezvous claims behave like independent uniform draws.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Highest-random-weight (rendezvous) hashing over the shard indices.
///
/// Every shard computes a claim `mix(hash(key) ^ mix(shard))` and the
/// highest claim owns the key (ties break toward the lower index, though a
/// tie needs a 64-bit hash collision). Growing the shard count from `S` to
/// `S + 1` can only move keys whose new highest claim *is* shard `S` —
/// about `1/(S + 1)` of the key space — which is the minimal possible
/// movement; keys never migrate between pre-existing shards.
///
/// **Balance bound** (asserted by the router property tests): over any
/// corpus of at least 1 000 distinct keys, every shard receives between
/// 0.5× and 2× the fair share `keys/shards` for shard counts up to 16.
/// The expected deviation is `O(sqrt(keys/shards))`, so real corpora sit
/// far inside the bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RendezvousRouter;

impl RendezvousRouter {
    /// The canonical router instance.
    pub const fn new() -> Self {
        RendezvousRouter
    }
}

impl Router for RendezvousRouter {
    fn shard(&self, key: &str, shards: u32) -> u32 {
        if shards <= 1 {
            return 0;
        }
        let kh = fnv1a(key.as_bytes());
        let mut best = (0u32, mix64(kh ^ mix64(0)));
        for s in 1..shards {
            let claim = mix64(kh ^ mix64(s as u64));
            if claim > best.1 {
                best = (s, claim);
            }
        }
        best.0
    }
}

/// Extracts a request's routing key: the SOAP body text, the workspace's
/// entity-id idiom. An empty body routes on the empty key — still
/// deterministic, every such request landing on one shard.
pub(crate) fn routing_key(request: &MessageContext) -> &str {
    request.body().text.as_str()
}

/// Splits a routing key into the entity keys it names (`|`-separated).
/// Single-key requests — the overwhelmingly common case — yield themselves.
pub(crate) fn split_keys(key: &str) -> impl Iterator<Item = &str> {
    key.split('|')
}

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// An epoch-versioned view over the [`RendezvousRouter`]: the pure
/// key→shard function paired with the deployment's current **active shard
/// count**, which live resharding advances at the flip point.
///
/// The epoch is advisory routing for *clients and callers*: shards
/// themselves never read it for agreed-execution decisions (they track the
/// shard count through ordered reshard records — see [`crate::txn`]), so a
/// replica replaying its log after recovery re-derives identical routing
/// no matter when the atomic advanced. Epochs only grow; routing within
/// one epoch is a pure function of the key (property-tested in
/// `router_prop.rs`), and advancing from `S` to `S + 1` re-routes exactly
/// the keys whose rendezvous winner is the new shard.
#[derive(Clone, Debug)]
pub struct RouterEpoch {
    active: Arc<AtomicU32>,
}

impl RouterEpoch {
    /// An epoch starting at `active_shards` active shards.
    pub fn new(active_shards: u32) -> Self {
        RouterEpoch {
            active: Arc::new(AtomicU32::new(active_shards.max(1))),
        }
    }

    /// The current active shard count (the epoch).
    pub fn epoch(&self) -> u32 {
        self.active.load(Ordering::SeqCst)
    }

    /// Advances the epoch to `new_count`. Epochs only grow; a stale (lower)
    /// value is ignored so racing flips cannot regress routing.
    pub fn advance(&self, new_count: u32) {
        self.active.fetch_max(new_count, Ordering::SeqCst);
    }

    /// Routes `key` at the current epoch.
    pub fn shard(&self, key: &str) -> u32 {
        RendezvousRouter.shard(key, self.epoch())
    }
}

/// Why a request could not be routed to a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The URI names no registered service (sharded or not).
    UnknownService {
        /// The unresolvable URI.
        uri: String,
    },
    /// The request names entity keys owned by different shards. Perpetual
    /// sharding supports single-shard operations only (cross-shard
    /// transactions would need a coordination layer on top); callers see
    /// this as a deterministic abort fault.
    CrossShard {
        /// The target service URI.
        uri: String,
        /// The distinct owning shards the request's keys map to.
        shards: Vec<u32>,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownService { uri } => write!(f, "unknown service '{uri}'"),
            RouteError::CrossShard { uri, shards } => write!(
                f,
                "cross-shard request to '{uri}' (keys span shards {shards:?}); \
                 single-shard operations only"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_is_trivial() {
        let r = RendezvousRouter::new();
        for key in ["", "a", "42", "customer-9"] {
            assert_eq!(r.shard(key, 1), 0);
            assert_eq!(r.shard(key, 0), 0, "degenerate count clamps to 0");
        }
    }

    #[test]
    fn assignment_is_deterministic_and_instance_independent() {
        let a = RendezvousRouter::new();
        let b = RendezvousRouter;
        for i in 0..500u32 {
            let key = format!("key-{i}");
            let s = a.shard(&key, 4);
            assert!(s < 4);
            assert_eq!(s, b.shard(&key, 4), "instances must agree");
            assert_eq!(s, a.shard(&key, 4), "repeat calls must agree");
        }
    }

    #[test]
    fn growth_moves_only_keys_claimed_by_the_new_shard() {
        let r = RendezvousRouter::new();
        for grown in 2..=8u32 {
            let old = grown - 1;
            let mut moved = 0u32;
            for i in 0..2_000u32 {
                let key = format!("entity:{i}");
                let before = r.shard(&key, old);
                let after = r.shard(&key, grown);
                if after != before {
                    assert_eq!(
                        after,
                        grown - 1,
                        "a moved key may only move to the new shard"
                    );
                    moved += 1;
                }
            }
            // Expect ~2000/grown moves; allow a generous band.
            let expect = 2_000 / grown;
            assert!(
                moved > expect / 3 && moved < expect * 3,
                "{old}->{grown}: moved {moved}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn balance_within_documented_bound() {
        let r = RendezvousRouter::new();
        for shards in [2u32, 4, 8, 16] {
            let keys = 4_000u32;
            let mut counts = vec![0u32; shards as usize];
            for i in 0..keys {
                counts[r.shard(&format!("k{i}"), shards) as usize] += 1;
            }
            let fair = keys / shards;
            for (s, c) in counts.iter().enumerate() {
                assert!(
                    *c * 2 >= fair && *c <= fair * 2,
                    "shard {s}/{shards}: {c} keys vs fair {fair}"
                );
            }
        }
    }

    #[test]
    fn routing_key_is_the_body_text() {
        let mut mc = MessageContext::request("urn:svc:x", "op");
        mc.body_mut().text = "customer-7".into();
        assert_eq!(routing_key(&mc), "customer-7");
        assert_eq!(split_keys("a|b|a").collect::<Vec<_>>(), vec!["a", "b", "a"]);
        assert_eq!(split_keys("solo").collect::<Vec<_>>(), vec!["solo"]);
    }

    #[test]
    fn router_epoch_only_grows_and_routes_at_current_count() {
        let e = RouterEpoch::new(2);
        assert_eq!(e.epoch(), 2);
        for i in 0..64 {
            let key = format!("k{i}");
            assert_eq!(e.shard(&key), RendezvousRouter.shard(&key, 2));
        }
        e.advance(3);
        assert_eq!(e.epoch(), 3);
        e.advance(2); // stale flips are ignored
        assert_eq!(e.epoch(), 3);
        for i in 0..64 {
            let key = format!("k{i}");
            assert_eq!(e.shard(&key), RendezvousRouter.shard(&key, 3));
        }
        let degenerate = RouterEpoch::new(0);
        assert_eq!(degenerate.epoch(), 1, "zero clamps to one shard");
    }

    #[test]
    fn route_errors_display() {
        let e = RouteError::UnknownService {
            uri: "urn:svc:ghost".into(),
        };
        assert!(e.to_string().contains("unknown service"));
        let e = RouteError::CrossShard {
            uri: "urn:svc:acc".into(),
            shards: vec![0, 2],
        };
        assert!(e.to_string().contains("cross-shard"));
        assert!(e.to_string().contains("[0, 2]"));
    }
}
