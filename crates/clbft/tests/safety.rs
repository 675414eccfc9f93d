//! Property-based safety tests for CLBFT.
//!
//! The central invariant: no two correct replicas execute different requests
//! at the same sequence number, no matter how the network reorders,
//! duplicates, or delays messages, and regardless of which ≤ f replicas are
//! silenced.

use bytes::Bytes;
use proptest::prelude::*;
use pws_clbft::{Action, Config, Msg, Replica, ReplicaId, Request, RequestId, Seq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Harness {
    replicas: Vec<Replica>,
    /// Pending messages: (to, from, msg).
    pending: Vec<(usize, ReplicaId, Msg)>,
    executed: Vec<Vec<(Seq, RequestId)>>,
    silenced: Vec<usize>,
}

impl Harness {
    fn new(n: u32, silenced: Vec<usize>) -> Self {
        Harness::with_config(Config::new(n), silenced)
    }

    /// A group with batching disabled (one request per slot).
    fn new_unbatched(n: u32, silenced: Vec<usize>) -> Self {
        let mut cfg = Config::new(n);
        cfg.max_batch_size = 1;
        Harness::with_config(cfg, silenced)
    }

    fn with_config(cfg: Config, silenced: Vec<usize>) -> Self {
        let n = cfg.n;
        Harness {
            replicas: (0..n)
                .map(|i| Replica::new(ReplicaId(i), cfg.clone()))
                .collect(),
            pending: Vec::new(),
            executed: vec![Vec::new(); n as usize],
            silenced,
        }
    }

    fn apply(&mut self, at: usize, actions: Vec<Action>) {
        let me = self.replicas[at].id();
        for a in actions {
            match a {
                Action::Broadcast(m) => {
                    for i in 0..self.replicas.len() {
                        if i != at {
                            self.pending.push((i, me, m.clone()));
                        }
                    }
                }
                Action::Send(dest, m) => self.pending.push((dest.0 as usize, me, m)),
                Action::Execute { seq, batch } => {
                    for request in batch {
                        self.executed[at].push((seq, request.id()));
                    }
                }
                Action::TakeCheckpoint(seq) => {
                    // Answer with a deterministic application snapshot, as
                    // the real (deterministic) harness would.
                    let actions =
                        self.replicas[at].on_snapshot(seq, Bytes::from(format!("app@{}", seq.0)));
                    self.apply(at, actions);
                }
                _ => {}
            }
        }
    }

    fn submit(&mut self, at: usize, req: Request) {
        let actions = self.replicas[at].on_request(req);
        self.apply(at, actions);
    }

    /// Delivers messages in a random order, sometimes duplicating them,
    /// until none remain (messages to silenced replicas are dropped).
    fn run_randomized(&mut self, rng: &mut StdRng) {
        let mut steps = 0usize;
        while !self.pending.is_empty() {
            steps += 1;
            assert!(steps < 2_000_000, "livelock in randomized run");
            let idx = rng.gen_range(0..self.pending.len());
            let (to, from, msg) = self.pending.swap_remove(idx);
            if self.silenced.contains(&to) {
                continue;
            }
            // 5% duplication.
            if rng.gen_bool(0.05) {
                self.pending.push((to, from, msg.clone()));
            }
            let actions = self.replicas[to].on_message(from, msg);
            self.apply(to, actions);
        }
    }
}

fn check_agreement(h: &Harness) {
    // Safety: for each sequence slot, all correct replicas that executed it
    // executed the same batch — same requests, same internal order. Slots
    // execute in increasing order at every replica (a slot may carry
    // several requests, and null gap-filler slots deliver nothing, so the
    // observed slot numbers are non-decreasing rather than gap-free).
    use std::collections::HashMap;
    let mut by_seq: HashMap<Seq, Vec<RequestId>> = HashMap::new();
    for (i, log) in h.executed.iter().enumerate() {
        if h.silenced.contains(&i) {
            continue;
        }
        let mut per_slot: Vec<(Seq, Vec<RequestId>)> = Vec::new();
        for (seq, id) in log {
            match per_slot.last_mut() {
                Some((s, ids)) if s == seq => ids.push(*id),
                _ => per_slot.push((*seq, vec![*id])),
            }
        }
        for w in per_slot.windows(2) {
            assert!(w[0].0 < w[1].0, "replica {i} executed slots out of order");
        }
        for (seq, ids) in per_slot {
            match by_seq.get(&seq) {
                Some(existing) => {
                    assert_eq!(existing, &ids, "batch divergence at {seq:?} (replica {i})")
                }
                None => {
                    by_seq.insert(seq, ids);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_schedules_preserve_safety(seed in any::<u64>(), req_count in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Harness::new(4, vec![]);
        for c in 0..req_count {
            let submit_at = rng.gen_range(0..4);
            h.submit(submit_at, Request::new(
                RequestId::new(7, c as u64),
                Bytes::from(format!("op{c}")),
            ));
            if rng.gen_bool(0.5) {
                h.run_randomized(&mut rng);
            }
        }
        h.run_randomized(&mut rng);
        check_agreement(&h);
        // Liveness in the fault-free case: everyone executed everything.
        for log in &h.executed {
            prop_assert_eq!(log.len(), req_count);
        }
    }

    #[test]
    fn random_schedules_with_f_silent_replicas(seed in any::<u64>(), req_count in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Silence one non-primary replica (f = 1 for n = 4).
        let silenced = 1 + rng.gen_range(0..3usize);
        let mut h = Harness::new(4, vec![silenced]);
        for c in 0..req_count {
            let mut at = rng.gen_range(0..4usize);
            if at == silenced { at = 0; }
            h.submit(at, Request::new(
                RequestId::new(9, c as u64),
                Bytes::from(format!("op{c}")),
            ));
        }
        h.run_randomized(&mut rng);
        check_agreement(&h);
        for (i, log) in h.executed.iter().enumerate() {
            if i != silenced {
                prop_assert_eq!(log.len(), req_count, "replica {} stalled", i);
            }
        }
    }

    #[test]
    fn larger_groups_agree(seed in any::<u64>(), n in prop::sample::select(vec![7u32, 10])) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Harness::new(n, vec![]);
        for c in 0..5u64 {
            h.submit((c % n as u64) as usize, Request::new(
                RequestId::new(1, c),
                Bytes::from(format!("op{c}")),
            ));
        }
        h.run_randomized(&mut rng);
        check_agreement(&h);
        for log in &h.executed {
            prop_assert_eq!(log.len(), 5);
        }
    }
}

/// Builds a 4-replica group where the primary accumulates (pipeline depth
/// 0: nothing proposes until the batch timer fires), seals one batch of
/// `k` requests, and returns the group plus the sealed pre-prepare.
fn group_with_sealed_batch(k: u64) -> (Vec<Replica>, pws_clbft::PrePrepareMsg) {
    let mut cfg = Config::new(4);
    cfg.pipeline_depth = 0;
    let mut rs: Vec<Replica> = (0..4)
        .map(|i| Replica::new(ReplicaId(i), cfg.clone()))
        .collect();
    for c in 0..k {
        let actions = rs[0].on_request(Request::new(
            RequestId::new(7, c),
            Bytes::from(format!("op{c}")),
        ));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, Action::Broadcast(Msg::PrePrepare(_)))),
            "pipeline depth 0 must hold proposals for the batch timer"
        );
    }
    let actions = rs[0].on_batch_timer();
    let pp = actions
        .iter()
        .find_map(|a| match a {
            Action::Broadcast(Msg::PrePrepare(pp)) => Some(pp.clone()),
            _ => None,
        })
        .expect("batch timer seals the accumulated batch");
    assert_eq!(pp.batch.len(), k as usize, "one batch carries all requests");
    (rs, pp)
}

#[test]
fn config_records_seal_their_own_slot() {
    // Accumulate plain, config, plain around a held pipeline; the batch
    // timer must seal three slots: [r0 r1], [config], [r3 r4] — the config
    // record never shares a batch in either direction.
    let mut cfg = Config::new(4);
    cfg.pipeline_depth = 0;
    let mut r0 = Replica::new(ReplicaId(0), cfg);
    for c in 0..5u64 {
        let req = if c == 2 {
            Request::config_record(RequestId::new(7, c), Bytes::from_static(b"cfg"))
        } else {
            Request::new(RequestId::new(7, c), Bytes::from(format!("op{c}")))
        };
        r0.on_request(req);
    }
    let pps: Vec<pws_clbft::PrePrepareMsg> = r0
        .on_batch_timer()
        .into_iter()
        .filter_map(|a| match a {
            Action::Broadcast(Msg::PrePrepare(pp)) => Some(pp),
            _ => None,
        })
        .collect();
    let shape: Vec<usize> = pps.iter().map(|pp| pp.batch.len()).collect();
    assert_eq!(shape, vec![2, 1, 2], "config slot stands alone");
    assert!(pps[1].batch.requests[0].is_config());
    assert!(pps[0].batch.requests.iter().all(|r| !r.is_config()));
    assert!(pps[2].batch.requests.iter().all(|r| !r.is_config()));
}

/// Runs a view change to view 1 by firing timers at replicas 1..3 and
/// letting them exchange messages (replica 0, the old primary, stays
/// silent). Returns the NewView the new primary broadcast.
fn view_change_to_v1(rs: &mut [Replica]) -> pws_clbft::NewViewMsg {
    let mut inbox: Vec<(usize, ReplicaId, Msg)> = Vec::new();
    let mut nv = None;
    for (i, r) in rs.iter_mut().enumerate().take(4).skip(1) {
        let actions = r.on_view_timer();
        let me = r.id();
        for a in actions {
            if let Action::Broadcast(m) = a {
                for to in 1..4 {
                    if to != i {
                        inbox.push((to, me, m.clone()));
                    }
                }
            }
        }
    }
    while let Some((to, from, msg)) = inbox.pop() {
        let me = rs[to].id();
        for a in rs[to].on_message(from, msg) {
            if let Action::Broadcast(m) = a {
                if let Msg::NewView(n) = &m {
                    nv = Some(n.clone());
                }
                for peer in 1..4 {
                    if peer != to {
                        inbox.push((peer, me, m.clone()));
                    }
                }
            }
        }
    }
    nv.expect("quorum of view changes installs view 1")
}

#[test]
fn mid_view_change_prepared_batch_is_reproposed_whole_in_order() {
    let (mut rs, pp) = group_with_sealed_batch(3);
    // Backups 1 and 2 accept the pre-prepare and see each other's
    // prepares, so the batch is *prepared* at both when the view changes.
    let mut prepares = Vec::new();
    for i in [1usize, 2] {
        for a in rs[i].on_message(ReplicaId(0), Msg::PrePrepare(pp.clone())) {
            if let Action::Broadcast(m @ Msg::Prepare(_)) = a {
                prepares.push((i, m));
            }
        }
    }
    for (from, m) in prepares {
        for i in [1usize, 2] {
            if i != from {
                let _ = rs[i].on_message(ReplicaId(from as u32), m.clone());
            }
        }
    }
    let nv = view_change_to_v1(&mut rs);
    // The new primary must re-propose the batch whole: same slot, same
    // digest, same requests in the same internal order.
    let reproposed = nv
        .pre_prepares
        .iter()
        .find(|p| p.seq == pp.seq)
        .expect("prepared slot re-proposed in the new view");
    assert_eq!(reproposed.digest, pp.digest, "batch digest preserved");
    assert_eq!(
        reproposed.batch, pp.batch,
        "batch re-proposed intact, in the same internal order"
    );
}

#[test]
fn mid_view_change_unprepared_batch_is_dropped_whole_then_rebatched() {
    let (mut rs, pp) = group_with_sealed_batch(3);
    // Only backup 1 ever sees the pre-prepare and no prepares reach
    // anyone: the batch is not prepared at any correct replica.
    let _ = rs[1].on_message(ReplicaId(0), Msg::PrePrepare(pp.clone()));
    let nv = view_change_to_v1(&mut rs);
    // No slot carries any *subset* of the batch: it is dropped whole.
    assert!(
        nv.pre_prepares.iter().all(|p| p
            .batch
            .requests
            .iter()
            .all(|r| { !pp.batch.requests.iter().any(|orig| orig.id() == r.id()) })),
        "no partial re-proposal of the dropped batch: {:?}",
        nv.pre_prepares
    );
    // The requests themselves survive: replica 1 knew them from the
    // pre-prepare, demoted them to pending on view entry, and the new
    // primary (replica 1) re-proposes them as a fresh batch.
    let known: usize = rs[1].outstanding();
    assert_eq!(known, 3, "requests still outstanding at the new primary");
    assert_eq!(rs[1].view(), pws_clbft::View(1));
    assert!(rs[1].is_primary());
    // Sealing the accumulator (pipeline depth is 0 in this group, so the
    // timer does it) re-proposes all three in one fresh batch.
    let actions = rs[1].on_batch_timer();
    let fresh = actions
        .iter()
        .find_map(|a| match a {
            Action::Broadcast(Msg::PrePrepare(p)) => Some(p.clone()),
            _ => None,
        })
        .expect("new primary re-batches the surviving requests");
    assert_eq!(fresh.batch.len(), 3);
    let mut ids: Vec<_> = fresh.batch.requests.iter().map(|r| r.id()).collect();
    ids.sort();
    let mut orig: Vec<_> = pp.batch.requests.iter().map(|r| r.id()).collect();
    orig.sort();
    assert_eq!(ids, orig, "same request set rides the new batch");
}

#[test]
fn execution_chains_match_across_replicas() {
    // One request per slot (batching off) so 70 requests cross the
    // 64-execution checkpoint interval.
    let mut h = Harness::new_unbatched(4, vec![]);
    let mut rng = StdRng::seed_from_u64(42);
    for c in 0..70u64 {
        h.submit(
            (c % 4) as usize,
            Request::new(RequestId::new(3, c), Bytes::from(vec![c as u8])),
        );
    }
    h.run_randomized(&mut rng);
    check_agreement(&h);
    let chains: std::collections::HashSet<_> =
        h.replicas.iter().map(|r| r.execution_chain()).collect();
    assert_eq!(chains.len(), 1);
    // 70 requests crossed the checkpoint interval (64): logs must be GCed
    // and all replicas stable at 64.
    for r in &h.replicas {
        assert_eq!(r.stable_seq(), Seq(64));
    }
}
