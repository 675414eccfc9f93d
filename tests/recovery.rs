//! End-to-end checkpointing, state-transfer, and proactive-recovery tests.
//!
//! The acceptance bar (ISSUE 4): a replica wiped at sequence `N` rejoins
//! via `FetchState`/`StateResponse` and executes requests `≥ N + 1` with
//! state identical to its peers (digest-checked), and a full
//! proactive-recovery rotation completes under client load with zero
//! client-visible errors.

use perpetual_ws::{
    PassiveService, PassiveUtils, Poll, Service, ServiceCtx, SystemBuilder, WsEvent,
};
use pws_perpetual::FaultMode;
use pws_simnet::{SimDuration, SimTime};
use pws_soap::{MessageContext, XmlNode};

/// A stateful accumulator with a real snapshot/restore implementation: the
/// running total is exactly the state a recovered replica must not lose.
struct Counter {
    total: u64,
}

impl PassiveService for Counter {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        let n: u64 = req.body().text.trim().parse().unwrap_or(0);
        self.total += n;
        req.reply_with("", XmlNode::new("sum").with_text(self.total.to_string()))
    }

    fn snapshot(&self) -> Vec<u8> {
        self.total.to_be_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let mut b = [0u8; 8];
        b.copy_from_slice(snapshot);
        self.total = u64::from_be_bytes(b);
    }
}

/// Collects each replica's recovery-relevant fingerprint: last executed
/// seq, execution chain, stable checkpoint, and the application snapshot.
fn fingerprints(
    sys: &mut perpetual_ws::System,
    service: &str,
    n: u32,
) -> Vec<(u64, [u8; 32], u64, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let r = sys.replica_mut(service, i).expect("replica exists");
            let (stable, _) = r.bft_stable_checkpoint();
            (
                r.bft_last_executed().0,
                r.bft_execution_chain().0,
                stable.0,
                r.service_snapshot(),
            )
        })
        .collect()
}

#[test]
fn wiped_replica_recovers_via_state_transfer() {
    // Replica 3 silently drops to a blank state mid-run (the churny
    // StaleDrop fault). State transfer — not retransmit storms — must
    // restore it: it rejoins at a fetched checkpoint, replays the
    // committed suffix, and then tracks live traffic, ending bit-identical
    // to its peers.
    let mut b = SystemBuilder::new(9_001);
    b.checkpoint_interval(8);
    b.max_batch_size(1); // one slot per request: boundaries cross quickly
    b.passive_service("ctr", 4, |_| Box::new(Counter { total: 0 }));
    b.fault("ctr", 3, FaultMode::StaleDrop { after_ms: 150 });
    b.scripted_client_windowed("user", "ctr", 240, 2);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(120));

    // Zero client-visible errors: every request answered.
    assert_eq!(sys.client_replies("user").len(), 240);

    let m = sys.metrics();
    assert_eq!(m.counter("clbft.recovery.stale_drops"), 1);
    assert!(
        m.counter("clbft.recovery.fetches_sent") >= 1,
        "lag evidence must trigger a fetch"
    );
    assert!(
        m.counter("clbft.recovery.installs") >= 1,
        "the wiped replica must install fetched state"
    );
    assert!(m.counter("clbft.ckpt.taken") > 0);
    assert!(m.counter("clbft.ckpt.stable") > 0);
    // State transfer, not retransmit storms: the recovery must not lean on
    // client retries or share retransmissions, and lag evidence must not
    // spam fetches.
    assert!(
        m.counter("client.call_retries") <= 2,
        "retransmit storm: {} client retries",
        m.counter("client.call_retries")
    );
    assert!(
        m.counter("perpetual.shares_retransmitted") <= 2,
        "retransmit storm: {} share retransmits",
        m.counter("perpetual.shares_retransmitted")
    );
    assert!(
        m.counter("clbft.recovery.fetches_sent") <= 3,
        "fetch spam: {}",
        m.counter("clbft.recovery.fetches_sent")
    );

    // Digest-checked convergence: the wiped replica executed past its wipe
    // point and holds state identical to its peers — execution chain,
    // stable checkpoint, and application snapshot.
    let fps = fingerprints(&mut sys, "ctr", 4);
    assert!(
        fps[3].0 > 8,
        "replica 3 executed past its wipe point: {:?}",
        fps[3].0
    );
    for i in 1..4 {
        assert_eq!(fps[0].0, fps[i].0, "last_exec diverges at replica {i}");
        assert_eq!(fps[0].1, fps[i].1, "exec chain diverges at replica {i}");
        assert_eq!(fps[0].2, fps[i].2, "stable seq diverges at replica {i}");
        assert_eq!(fps[0].3, fps[i].3, "app snapshot diverges at replica {i}");
    }
}

#[test]
fn stale_drop_recovery_is_deterministic() {
    // The whole crash-wipe-fetch-install path must be a deterministic
    // function of the seed: same seed, same trace digest.
    let run = |seed: u64| {
        let mut b = SystemBuilder::new(seed);
        b.checkpoint_interval(8);
        b.max_batch_size(1);
        b.passive_service("ctr", 4, |_| Box::new(Counter { total: 0 }));
        b.fault("ctr", 3, FaultMode::StaleDrop { after_ms: 300 });
        b.scripted_client_windowed("user", "ctr", 120, 2);
        let mut sys = b.build();
        sys.run_until(SimTime::from_secs(120));
        assert_eq!(sys.client_replies("user").len(), 120);
        sys.sim_mut().trace_digest().value()
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78));
}

/// A replicated caller that keeps `WINDOW` outcalls in flight at a slow
/// target for the whole run, with the snapshot a restored replica needs.
struct WindowCaller {
    sent: u64,
    done: u64,
}

const WINDOW: u64 = 12;

impl Service for WindowCaller {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        if let WsEvent::Reply { .. } = ev {
            self.done += 1;
        }
        while self.sent < self.done + WINDOW {
            let mut call = MessageContext::request("urn:svc:slow", "add");
            call.body_mut().text = "1".into();
            let _ = ctx.send(call);
            self.sent += 1;
        }
        Poll::any_reply()
    }

    fn snapshot(&self) -> Vec<u8> {
        [self.sent.to_be_bytes(), self.done.to_be_bytes()].concat()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let word = |i: usize| u64::from_be_bytes(snapshot[i..i + 8].try_into().unwrap());
        (self.sent, self.done) = (word(0), word(8));
    }
}

/// A [`Counter`] that takes 150 ms per request: with `WINDOW` calls queued
/// at it each outcall stays unanswered well past the 700 ms retry interval.
struct SlowCounter(Counter);

impl PassiveService for SlowCounter {
    fn handle(&mut self, req: MessageContext, u: &mut PassiveUtils) -> MessageContext {
        u.spend(SimDuration::from_millis(150));
        self.0.handle(req, u)
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.0.restore(snapshot)
    }
}

#[test]
fn restored_outcalls_are_rearmed_in_the_same_order_every_run() {
    // A wiped caller replica installs a snapshot holding `WINDOW`
    // unresolved outcalls and arms one retry timer for each, all at the
    // same instant; 700 ms on they fire in the order they were set, and
    // each retransmits its call. That order must come from the call table,
    // not from a hasher's per-process random state: two runs at one seed,
    // in one process, must produce the same trace.
    let run = || {
        let mut b = SystemBuilder::new(9_006);
        b.checkpoint_interval(8);
        b.max_batch_size(1);
        b.service("front", 4, |_| Box::new(WindowCaller { sent: 0, done: 0 }));
        b.passive_service("slow", 4, |_| Box::new(SlowCounter(Counter { total: 0 })));
        b.fault("front", 3, FaultMode::StaleDrop { after_ms: 4_000 });
        let mut sys = b.build();
        sys.run_until(SimTime::from_secs(12));
        let m = sys.metrics();
        assert_eq!(m.counter("clbft.recovery.stale_drops"), 1);
        assert!(m.counter("clbft.recovery.installs") >= 1, "state installed");
        let (issued, completed) = (
            m.counter("perpetual.calls_issued"),
            m.counter("perpetual.calls_completed"),
        );
        assert!(
            issued - completed >= 3 * WINDOW,
            "the window stayed full to the end: {issued} issued, {completed} completed"
        );
        assert!(
            m.counter("perpetual.call_retries") >= 8,
            "restored calls outlived their retry timers"
        );
        sys.sim_mut().trace_digest().value()
    };
    assert_eq!(run(), run(), "same seed, same process, same trace");
}

#[test]
fn proactive_rotation_completes_under_load() {
    // One replica per group per 500 ms window reboots from nothing and
    // rejoins via state transfer; a full rotation covers all four replicas
    // by 2 s. The client must see zero errors throughout, and at the end
    // every replica holds the identical digest-checked state.
    let mut b = SystemBuilder::new(9_002);
    b.checkpoint_interval(8);
    b.max_batch_size(1);
    b.proactive_recovery(SimDuration::from_millis(500));
    b.passive_service("ctr", 4, |_| Box::new(Counter { total: 0 }));
    b.scripted_client_windowed("user", "ctr", 600, 1);
    let mut sys = b.build();
    // Stop mid-window (rotation period 2 s, fires at k*500 ms): no replica
    // is mid-recovery at the deadline.
    sys.run_until(SimTime::from_millis(60_250));

    assert_eq!(
        sys.client_replies("user").len(),
        600,
        "zero client-visible errors under rotation"
    );
    let m = sys.metrics();
    assert!(
        m.counter("clbft.recovery.proactive_restarts") >= 4,
        "a full rotation covers every replica: {}",
        m.counter("clbft.recovery.proactive_restarts")
    );
    assert!(m.counter("clbft.recovery.installs") >= 3);

    let fps = fingerprints(&mut sys, "ctr", 4);
    for i in 1..4 {
        assert_eq!(fps[0].0, fps[i].0, "last_exec diverges at replica {i}");
        assert_eq!(fps[0].1, fps[i].1, "exec chain diverges at replica {i}");
        assert_eq!(fps[0].3, fps[i].3, "app snapshot diverges at replica {i}");
    }
}

#[test]
fn healthy_runs_checkpoint_without_state_transfer() {
    // Checkpoint certificates must not perturb a healthy run: no fetches,
    // no installs, and two identical runs produce identical traces.
    let run = |seed: u64| {
        let mut b = SystemBuilder::new(seed);
        b.checkpoint_interval(8);
        b.max_batch_size(1);
        b.passive_service("ctr", 4, |_| Box::new(Counter { total: 0 }));
        b.scripted_client_windowed("user", "ctr", 60, 2);
        let mut sys = b.build();
        sys.run_until(SimTime::from_secs(60));
        assert_eq!(sys.client_replies("user").len(), 60);
        let m = sys.metrics();
        assert!(m.counter("clbft.ckpt.taken") > 0, "checkpoints engaged");
        assert!(m.counter("clbft.ckpt.stable") > 0, "checkpoints stabilized");
        assert_eq!(m.counter("clbft.recovery.installs"), 0, "no installs");
        assert_eq!(m.counter("clbft.recovery.wipes"), 0, "no wipes");
        sys.sim_mut().trace_digest().value()
    };
    assert_eq!(run(55), run(55), "checkpointing is deterministic");
}

#[test]
fn batch_occupancy_is_reported_per_group() {
    // Two replicated services under load: occupancy must be keyed per
    // group (clbft.exec.<group>.*) so sweeps can spot straggler groups,
    // and the per-group counters must add up to the global ones.
    let mut b = SystemBuilder::new(9_003);
    b.passive_service("alpha", 4, |_| Box::new(Counter { total: 0 }));
    b.passive_service("beta", 4, |_| Box::new(Counter { total: 0 }));
    b.scripted_client_windowed("ua", "alpha", 40, 8);
    b.scripted_client_windowed("ub", "beta", 40, 8);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(60));
    assert_eq!(sys.client_replies("ua").len(), 40);
    assert_eq!(sys.client_replies("ub").len(), 40);

    let ga = sys.group("alpha");
    let gb = sys.group("beta");
    let m = sys.metrics();
    let a_batches = m.batches(&format!("clbft.exec.{ga}"));
    let b_batches = m.batches(&format!("clbft.exec.{gb}"));
    assert!(a_batches > 0, "group {ga} occupancy recorded");
    assert!(b_batches > 0, "group {gb} occupancy recorded");
    assert_eq!(
        a_batches + b_batches,
        m.batches("clbft.exec"),
        "per-group batches sum to the global counter"
    );
    assert_eq!(
        m.counter(&format!("clbft.exec.{ga}.requests"))
            + m.counter(&format!("clbft.exec.{gb}.requests")),
        m.counter("clbft.exec.requests"),
        "per-group requests sum to the global counter"
    );
    assert!(m.mean_batch_occupancy(&format!("clbft.exec.{ga}")) >= 1.0);
}

/// The dedup-compaction satellite (ISSUE 5): checkpoints used to carry the
/// executed-id dedup set as a flat list (16 B per executed request,
/// forever) and the driver retained every produced reply — so
/// `clbft.ckpt.snapshot_bytes` grew linearly with request history. With
/// per-origin compaction and bounded reply retention, snapshots must
/// *plateau*: late boundaries may not be meaningfully larger than
/// mid-run ones, even as the covered request count keeps growing.
#[test]
fn compacted_dedup_keeps_checkpoint_snapshots_bounded() {
    let total = 480u64;
    let mut b = SystemBuilder::new(77);
    b.checkpoint_interval(16);
    // A tight retransmit cache makes the plateau visible inside a short
    // run; it is safe because the single client keeps only 4 calls
    // outstanding and retries every 900 ms — far inside the contract.
    b.reply_retention(64);
    b.passive_service("ctr", 4, |_| Box::new(Counter { total: 0 }));
    b.scripted_client_windowed("user", "ctr", total, 4);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(240));
    assert_eq!(sys.client_replies("user").len(), total as usize);

    // The voter's dedup set covers the whole history in O(origins):
    // hundreds of request ids, a handful of wire entries.
    let (ids, entries) = sys.replica_mut("ctr", 0).unwrap().bft_dedup_footprint();
    assert!(ids >= total, "dedup set covers the history: {ids}");
    assert!(
        entries <= 16,
        "compaction failed: {entries} wire entries for {ids} ids"
    );

    // Snapshot sizes plateau: the biggest boundary snapshot of the run
    // stays within a small factor of the median, where the uncompacted
    // encoding grew without bound (~16 B/request dedup + every reply
    // retained). The absolute ceiling makes regressions loud.
    let s = sys
        .metrics()
        .summary("clbft.ckpt.snapshot_bytes")
        .expect("boundaries sampled");
    assert!(s.count >= 40, "enough samples: {}", s.count);
    assert!(
        s.max <= s.p50 * 1.5,
        "snapshot bytes must plateau (p50 {} max {})",
        s.p50,
        s.max
    );
    assert!(
        s.max < 120_000.0,
        "absolute snapshot ceiling blown: {}",
        s.max
    );
}

// --------------------------- Merkle page transfer (ISSUE 8) ---------------

/// Bytes of mostly-static application state in [`BigStateCounter`]. Large
/// enough that the page set (at the 256-byte test page size) exceeds
/// `MAX_PAGES_PER_FETCH`, so a transfer spans several solicitation rounds
/// and several responders.
const BLOB_LEN: usize = 32 * 1024;

/// A service whose state is a large static blob plus a small mutating
/// counter — the shape that makes page-granular transfer and incremental
/// hashing pay off. The blob is a deterministic pseudo-random fill, so
/// every replica snapshots identical bytes.
struct BigStateCounter {
    blob: Vec<u8>,
    total: u64,
}

impl BigStateCounter {
    fn new() -> Self {
        let mut blob = vec![0u8; BLOB_LEN];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for b in blob.iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        BigStateCounter { blob, total: 0 }
    }
}

impl PassiveService for BigStateCounter {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        let n: u64 = req.body().text.trim().parse().unwrap_or(0);
        self.total += n;
        req.reply_with("", XmlNode::new("sum").with_text(self.total.to_string()))
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut s = self.blob.clone();
        s.extend_from_slice(&self.total.to_be_bytes());
        s
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let (blob, tail) = snapshot.split_at(snapshot.len() - 8);
        self.blob = blob.to_vec();
        let mut b = [0u8; 8];
        b.copy_from_slice(tail);
        self.total = u64::from_be_bytes(b);
    }
}

/// Runs the stale-drop workload over the big-state service and returns the
/// page metrics `(fetched, verified, rejected, hashed)` plus the trace
/// digest.
fn delta_run(seed: u64, fault: FaultMode) -> (u64, u64, u64, u64, u64) {
    let mut b = SystemBuilder::new(seed);
    b.checkpoint_interval(8);
    b.max_batch_size(1);
    b.page_size(256);
    b.reply_retention(4);
    b.passive_service("big", 4, |_| Box::new(BigStateCounter::new()));
    b.fault("big", 3, fault);
    b.scripted_client_windowed("user", "big", 240, 2);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(120));
    assert_eq!(
        sys.client_replies("user").len(),
        240,
        "zero client-visible errors"
    );
    let m = sys.metrics();
    assert!(m.counter("clbft.recovery.installs") >= 1, "state installed");
    let out = (
        m.counter("clbft.pages.fetched"),
        m.counter("clbft.pages.verified"),
        m.counter("clbft.pages.rejected"),
        m.counter("clbft.pages.hashed"),
        sys.sim_mut().trace_digest().value(),
    );
    let fps = fingerprints(&mut sys, "big", 4);
    for i in 1..4 {
        assert_eq!(fps[0].1, fps[i].1, "exec chain diverges at replica {i}");
        assert_eq!(fps[0].3, fps[i].3, "app snapshot diverges at replica {i}");
    }
    out
}

/// The delta-recovery satellite: a warm StaleDrop keeps its (untrusted,
/// re-verified) page store across the wipe, so rejoining ships only the
/// pages that actually changed; a cold drop of the same workload re-fetches
/// everything. O(k) for a k-page diff, not O(state).
#[test]
fn warm_restart_fetches_strictly_fewer_pages_than_cold() {
    let warm = delta_run(4_242, FaultMode::StaleDrop { after_ms: 150 });
    let cold = delta_run(4_242, FaultMode::StaleDropCold { after_ms: 150 });
    let total_pages = (BLOB_LEN / 256) as u64; // blob pages alone, floor
    assert!(
        cold.0 >= total_pages,
        "a cold restart must fetch at least the whole blob: {} < {total_pages}",
        cold.0
    );
    assert!(
        warm.0 < cold.0,
        "warm restart must fetch strictly fewer pages: warm {} vs cold {}",
        warm.0,
        cold.0
    );
    assert!(
        warm.0 <= cold.0 / 2,
        "the static blob must not travel on a warm restart: warm {} vs cold {}",
        warm.0,
        cold.0
    );
    // Every fetched page passed Merkle verification; honest peers sent
    // nothing bogus.
    assert_eq!(warm.0, warm.1);
    assert_eq!(cold.0, cold.1);
    assert_eq!(warm.2, 0, "no rejects in a fault-free transfer");
    // Same seed, same trace: the whole delta-transfer path is
    // deterministic.
    let again = delta_run(4_242, FaultMode::StaleDrop { after_ms: 150 });
    assert_eq!(warm, again, "delta recovery must be seed-deterministic");
}

/// The incremental-checkpoint satellite: with a mostly-static state, each
/// boundary after the first re-hashes only the pages the small write
/// actually dirtied — `clbft.pages.hashed` stays far below
/// `boundaries × total_pages` — while the certified digests keep
/// converging (checkpoints stabilize all run long).
#[test]
fn incremental_checkpoints_rehash_only_dirty_pages() {
    let mut b = SystemBuilder::new(4_343);
    b.checkpoint_interval(8);
    b.max_batch_size(1);
    b.page_size(256);
    b.reply_retention(4);
    b.passive_service("big", 4, |_| Box::new(BigStateCounter::new()));
    b.scripted_client_windowed("user", "big", 240, 2);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(120));
    assert_eq!(sys.client_replies("user").len(), 240);
    let m = sys.metrics();
    let boundaries = m.counter("clbft.ckpt.taken");
    let hashed = m.counter("clbft.pages.hashed");
    let dirty = m.counter("clbft.pages.dirty");
    let blob_pages = (BLOB_LEN / 256) as u64;
    assert!(boundaries >= 40, "checkpoints engaged: {boundaries}");
    assert!(
        m.counter("clbft.ckpt.stable") > 0,
        "certified digests converge at every boundary"
    );
    // Full re-hashing would cost at least boundaries × blob_pages; the
    // incremental path must land far under it (first boundaries per
    // replica hash everything, later ones only the dirty tail).
    assert!(
        hashed < boundaries * blob_pages / 4,
        "incremental hashing regressed: {hashed} hashed over {boundaries} \
         boundaries of ≥{blob_pages} pages"
    );
    assert_eq!(hashed, dirty, "exactly the dirty pages are re-hashed");
    assert_eq!(m.counter("clbft.pages.fetched"), 0, "no transfer happened");
}

/// The adversarial-transfer satellite at system scale: a responder that
/// corrupts every page it serves can stall a transfer but never poison it.
/// The wiped replica rejects the bogus pages against the certified root
/// (counting them), converges through honest peers, and the client sees
/// zero errors. Replica 0 is the responder the fetcher solicits first at
/// this seed, so the corrupt pages sit directly on the recovery path.
#[test]
fn corrupt_page_responder_cannot_poison_recovery() {
    let mut b = SystemBuilder::new(4_444);
    b.checkpoint_interval(8);
    b.max_batch_size(1);
    b.page_size(256);
    b.reply_retention(4);
    b.passive_service("big", 4, |_| Box::new(BigStateCounter::new()));
    b.fault("big", 0, FaultMode::CorruptPages);
    b.fault("big", 3, FaultMode::StaleDropCold { after_ms: 150 });
    b.scripted_client_windowed("user", "big", 240, 2);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(120));
    assert_eq!(
        sys.client_replies("user").len(),
        240,
        "zero client-visible errors despite the corrupt responder"
    );
    let m = sys.metrics();
    assert!(m.counter("clbft.recovery.installs") >= 1);
    assert!(
        m.counter("clbft.pages.verified") > 0,
        "honest pages got through"
    );
    assert!(
        m.counter("clbft.pages.rejected") > 0,
        "the corrupt responder's pages must be rejected and counted"
    );
    // Nothing corrupt ever installed: the peers all hold identical state.
    let fps = fingerprints(&mut sys, "big", 4);
    for i in [0usize, 2, 3] {
        assert_eq!(fps[2].1, fps[i].1, "exec chain diverges at replica {i}");
        assert_eq!(fps[2].3, fps[i].3, "app snapshot diverges at replica {i}");
    }
}

/// Extended crash-wipe-recover smoke: a longer load with both a churny
/// stale-drop *and* a proactive rotation in the same deployment.
///
/// Known finding (CHANGES.md, PR 23): under `PWS_AUDIT=strict` this run reports
/// a `pre-prepare-equivocation` — the view-0 primary, proactively wiped at
/// 800 ms, re-proposes seq 721 with a different batch after state transfer
/// — so CI's strict-audit job skips this one test.
#[test]
fn recovery_smoke_extended() {
    let mut b = SystemBuilder::new(9_004);
    b.checkpoint_interval(16);
    b.proactive_recovery(SimDuration::from_millis(800));
    b.passive_service("ctr", 4, |_| Box::new(Counter { total: 0 }));
    b.fault("ctr", 2, FaultMode::StaleDrop { after_ms: 1_100 });
    b.scripted_client_windowed("user", "ctr", 1_500, 4);
    let mut sys = b.build();
    sys.run_until(SimTime::from_millis(120_400));
    assert_eq!(sys.client_replies("user").len(), 1_500);
    let m = sys.metrics();
    assert!(m.counter("clbft.recovery.proactive_restarts") >= 4);
    assert!(m.counter("clbft.recovery.stale_drops") >= 1);
    assert!(m.counter("clbft.recovery.installs") >= 4);
    let fps = fingerprints(&mut sys, "ctr", 4);
    for i in 1..4 {
        assert_eq!(fps[0].1, fps[i].1, "exec chain diverges at replica {i}");
        assert_eq!(fps[0].3, fps[i].3, "app snapshot diverges at replica {i}");
    }
}

/// Extended page-transfer smoke: the delta-recovery and adversarial suites
/// at a longer load — a cold-wiped
/// replica re-fetches the whole big state page by page while a corrupt
/// responder keeps serving poisoned ranges, and incremental hashing holds
/// across hundreds of checkpoint boundaries.
#[test]
fn recovery_smoke_page_transfer() {
    let mut b = SystemBuilder::new(9_005);
    b.checkpoint_interval(16);
    b.max_batch_size(1);
    b.page_size(256);
    b.reply_retention(4);
    b.passive_service("big", 4, |_| Box::new(BigStateCounter::new()));
    b.fault("big", 1, FaultMode::CorruptPages);
    b.fault("big", 3, FaultMode::StaleDropCold { after_ms: 600 });
    b.scripted_client_windowed("user", "big", 2_500, 4);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(300));
    assert_eq!(sys.client_replies("user").len(), 2_500);
    let m = sys.metrics();
    let blob_pages = (BLOB_LEN / 256) as u64;
    assert!(m.counter("clbft.recovery.installs") >= 1);
    assert!(
        m.counter("clbft.pages.fetched") >= blob_pages,
        "a cold wipe re-fetches the whole blob"
    );
    assert_eq!(
        m.counter("clbft.pages.fetched"),
        m.counter("clbft.pages.verified"),
        "every installed page passed Merkle verification"
    );
    assert!(
        m.counter("clbft.pages.rejected") > 0,
        "the corrupt responder left a trace"
    );
    assert!(
        m.counter("clbft.pages.hashed") < m.counter("clbft.ckpt.taken") * blob_pages / 4,
        "incremental hashing holds at smoke scale"
    );
    let fps = fingerprints(&mut sys, "big", 4);
    for i in [0usize, 2, 3] {
        assert_eq!(fps[2].1, fps[i].1, "exec chain diverges at replica {i}");
        assert_eq!(fps[2].3, fps[i].3, "app snapshot diverges at replica {i}");
    }
}
