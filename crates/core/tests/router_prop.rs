//! Router determinism properties (ISSUE 5 satellite).
//!
//! The rendezvous router is the coordination-free contract between every
//! client, calling replica, and shard in a deployment: these properties
//! pin down the three guarantees everything else leans on — identical
//! assignment everywhere (no seed, no instance state), minimal movement
//! under shard-count growth, and balance within the documented bound.

use perpetual_ws::{RendezvousRouter, Router, RouterEpoch, SystemBuilder};
use proptest::prelude::*;
use pws_simnet::SimTime;

proptest! {
    /// Seed/instance independence: two separately constructed routers —
    /// and repeat calls on one — agree on every key, for every shard
    /// count. There is nothing to configure, so there is nothing to skew.
    #[test]
    fn assignment_is_identical_across_instances_and_calls(
        keys in proptest::collection::vec("[a-z0-9:._-]{0,16}", 1..40),
        shards in 1u32..17,
    ) {
        let a = RendezvousRouter::new();
        let b = RendezvousRouter::new();
        for key in &keys {
            let s = a.shard(key, shards);
            prop_assert!(s < shards);
            prop_assert_eq!(s, b.shard(key, shards));
            prop_assert_eq!(s, a.shard(key, shards));
        }
    }

    /// Stability under growth: adding shard `S` to an `S`-shard layout may
    /// move a key only *to* the new shard — keys never migrate between
    /// pre-existing shards, so a scale-out touches the minimum of state.
    #[test]
    fn growth_only_moves_keys_to_the_new_shard(
        key in "[ -~]{0,24}",
        shards in 1u32..12,
    ) {
        let r = RendezvousRouter::new();
        let before = r.shard(&key, shards);
        let after = r.shard(&key, shards + 1);
        prop_assert!(
            after == before || after == shards,
            "key {:?} moved {} -> {} when shard {} was added",
            key, before, after, shards
        );
    }

    /// Epoch transitions (ISSUE 7): flipping a `RouterEpoch` from `S` to
    /// `S + 1` moves exactly the keys whose rendezvous winner changed —
    /// and every one of those lands on the new shard. Routing before and
    /// after the flip is the pure per-epoch function of the underlying
    /// router; the epoch wrapper adds no state of its own.
    #[test]
    fn epoch_flip_moves_only_keys_whose_winner_changed(
        keys in proptest::collection::vec("[a-z0-9:._-]{0,16}", 1..50),
        shards in 1u32..10,
    ) {
        let raw = RendezvousRouter::new();
        let epoch = RouterEpoch::new(shards);
        prop_assert_eq!(epoch.epoch(), shards);
        let before: Vec<u32> = keys.iter().map(|k| epoch.shard(k)).collect();
        for (k, s) in keys.iter().zip(&before) {
            prop_assert_eq!(*s, raw.shard(k, shards));
        }
        epoch.advance(shards + 1);
        prop_assert_eq!(epoch.epoch(), shards + 1);
        for (k, old) in keys.iter().zip(&before) {
            let new = epoch.shard(k);
            // A moved key moved because its rendezvous winner changed, and
            // the only legal destination is the newly added shard.
            prop_assert_eq!(new, raw.shard(k, shards + 1));
            prop_assert!(
                new == *old || new == shards,
                "key {:?} moved {} -> {} on epoch flip {} -> {}",
                k, old, new, shards, shards + 1
            );
        }
        // Epochs only grow: a stale advance is a no-op.
        epoch.advance(shards);
        prop_assert_eq!(epoch.epoch(), shards + 1);
    }

    /// Movement volume on a flip stays near the fair share: growing from
    /// `S` to `S + 1` shards reassigns roughly `1 / (S + 1)` of a large
    /// corpus (within 2x either way), so a reshard migrates the minimum of
    /// state rather than reshuffling the world.
    #[test]
    fn epoch_flip_moves_about_a_fair_share_of_keys(
        base in any::<u32>(),
        shards in 1u32..8,
    ) {
        let epoch = RouterEpoch::new(shards);
        let keys = 2_000u32;
        let before: Vec<u32> = (0..keys)
            .map(|i| epoch.shard(&format!("k{base}-{i}")))
            .collect();
        epoch.advance(shards + 1);
        let moved = (0..keys)
            .filter(|i| epoch.shard(&format!("k{base}-{i}")) != before[*i as usize])
            .count() as u32;
        let fair = keys / (shards + 1);
        prop_assert!(
            moved * 2 >= fair && moved <= fair * 2,
            "{} of {} keys moved on {} -> {} (fair share {})",
            moved, keys, shards, shards + 1, fair
        );
    }

    /// Balance: over any reasonably sized corpus of distinct keys, every
    /// shard owns between half and twice the fair share (the bound
    /// documented on `RendezvousRouter`).
    #[test]
    fn balance_stays_within_the_documented_bound(
        base in any::<u32>(),
        shards in 2u32..9,
    ) {
        let r = RendezvousRouter::new();
        let keys = 2_000u32;
        let mut counts = vec![0u32; shards as usize];
        for i in 0..keys {
            let key = format!("k{}-{i}", base);
            counts[r.shard(&key, shards) as usize] += 1;
        }
        let fair = keys / shards;
        for (s, c) in counts.iter().enumerate() {
            prop_assert!(
                *c * 2 >= fair && *c <= fair * 2,
                "shard {}/{} owns {} keys vs fair {}",
                s, shards, c, fair
            );
        }
    }
}

/// Replica-side agreement, end to end: the shard a *deployment* routes a
/// key to is the shard the standalone router predicts, independent of the
/// system seed — clients and shards agree without ever exchanging routing
/// state.
#[test]
fn deployment_routing_matches_the_standalone_router_across_seeds() {
    for seed in [1u64, 42, 9_999] {
        let mut b = SystemBuilder::new(seed);
        b.sharded_passive("echo", 4, 1, |shard, _| {
            Box::new(
                move |req: pws_soap::MessageContext, _u: &mut perpetual_ws::PassiveUtils| {
                    req.reply_with(
                        "",
                        pws_soap::XmlNode::new("owner").with_text(shard.to_string()),
                    )
                },
            )
        });
        b.scripted_client_windowed("probe", "echo", 24, 4);
        let mut sys = b.build();
        sys.run_until(SimTime::from_secs(60));
        let replies = sys.client_replies("probe");
        assert_eq!(replies.len(), 24);
        let router = RendezvousRouter::new();
        for (i, r) in replies.iter().enumerate() {
            let owner: u32 = r.body().text.parse().expect("owner shard");
            // Scripted clients key request i on its sequence number; the
            // reply's RelatesTo proves which request this answers, but
            // seq->key is 1:1 here so the owner set must match exactly.
            let _ = i;
            assert!(owner < 4);
        }
        // Every reply must come from the shard the router predicts for
        // some probe key, and each key's prediction must be represented
        // the right number of times.
        let mut expected = std::collections::HashMap::new();
        for i in 0..24u64 {
            *expected
                .entry(router.shard(&i.to_string(), 4))
                .or_insert(0u32) += 1;
        }
        let mut observed = std::collections::HashMap::new();
        for r in &replies {
            *observed
                .entry(r.body().text.parse::<u32>().unwrap())
                .or_insert(0u32) += 1;
        }
        assert_eq!(expected, observed, "seed {seed} skewed the routing");
    }
}
