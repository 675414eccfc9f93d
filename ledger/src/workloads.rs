//! The four workloads. Each stresses different layers (see README.md for
//! the rationale and the predicted interactions); each is a [`Scenario`]
//! the one runner in `run` drives.

use crate::load::{poisson_schedule, OpenLoopClient, TimedRbe};
use crate::run::{Observed, RunSpec, Scenario, Workload};
use perpetual_ws::{
    FaultMode, PassiveService, PassiveUtils, ServiceExecutor, System, SystemBuilder, TxnShim,
};
use pws_bench::{Increment, LoadCaller, MixedCaller, TxnIncrement};
use pws_obs::FlightKind;
use pws_perpetual::PerpetualReplica;
use pws_simnet::{NodeId, SimDuration, SimTime};
use pws_soap::{MessageContext, XmlNode};
use pws_tpcw::bank::Bank;
use pws_tpcw::bookstore::Bookstore;
use pws_tpcw::pge::Pge;
use pws_tpcw::rbe::Rbe;

/// Effectively unbounded request budget: closed-loop load keeps running
/// past the end of every window.
const ENDLESS: u64 = u64::MAX;

pub fn scenario(spec: &RunSpec) -> Box<dyn Scenario> {
    match spec.workload {
        Workload::NullRpc => Box::<NullRpc>::default(),
        Workload::TpcwBrowse => Box::<TpcwBrowse>::default(),
        Workload::ShardedMix => Box::<ShardedMix>::default(),
        Workload::FaultRecovery => Box::<FaultRecovery>::default(),
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A scripted client's latencies recorded since `from` completions, ms.
fn probe_latencies(sys: &mut System, name: &str, from: usize) -> Vec<f64> {
    sys.client_latencies(name)[from..]
        .iter()
        .map(|&d| ms(d))
        .collect()
}

// ---------------------------------------------------------------------------

/// The paper's two-tier cell (Fig. 7/8): a 4-replica calling service keeps
/// 16 null requests in flight at a 4-replica `Increment`; one unreplicated
/// probe client (window 4) carries the client-observed latency, since a
/// replicated service cannot read the clock.
#[derive(Default)]
struct NullRpc {
    probe_warm: usize,
}

const NULL_CALLERS: u32 = 4;

impl Scenario for NullRpc {
    fn build(&mut self, b: &mut SystemBuilder, _spec: &RunSpec) {
        b.max_batch_size(16);
        b.service("caller", NULL_CALLERS, |_| {
            Box::new(LoadCaller::new("target", ENDLESS, 16))
        });
        b.passive_service("target", 4, |_| Box::new(Increment::null()));
        b.scripted_client_windowed("probe", "target", ENDLESS, 4);
    }

    fn mark(&mut self, sys: &mut System) {
        self.probe_warm = sys.client_latencies("probe").len();
    }

    fn collect(&mut self, sys: &mut System, _spec: &RunSpec) -> Observed {
        let m = sys.metrics();
        // Every caller replica counts each completed call once.
        let ops = m.counter("perpetual.calls_completed") / u64::from(NULL_CALLERS)
            + m.counter("client.web_interactions");
        let failed = m.counter("client.abandoned") + m.counter("perpetual.calls_aborted");
        let mut failures = Vec::new();
        if m.counter("perpetual.view_changes") != 0 {
            failures.push("null_rpc is fault-free but a view changed".into());
        }
        Observed {
            ops,
            attempted: ops + failed,
            failed,
            latencies_ms: probe_latencies(sys, "probe", self.probe_warm),
            failures,
            ..Observed::default()
        }
    }
}

// ---------------------------------------------------------------------------

/// Fig. 6 in browse-heavy form: 14 browsers with 1 ms think time against a
/// 4-replica bookstore with the read-only fast path on; buys chain
/// bookstore → PGE → bank (4 replicas each).
#[derive(Default)]
struct TpcwBrowse {
    window_start: SimTime,
}

const RBES: u32 = 14;

impl Scenario for TpcwBrowse {
    fn build(&mut self, b: &mut SystemBuilder, _spec: &RunSpec) {
        b.service("bookstore", 4, |_| {
            Box::new(Bookstore::new(1000, "pge").with_page_cost_scale(100))
        });
        b.service("pge", 4, |_| Box::new(Pge::new("bank")));
        b.passive_service("bank", 4, |_| Box::new(Bank::new()));
        for i in 0..RBES {
            b.custom_client(&format!("rbe{i}"), move |core, uris| {
                let (_, bookstore) = uris
                    .route("urn:svc:bookstore", &i.to_string())
                    .expect("bookstore routes");
                let rbe = Rbe::new(core, bookstore, u64::from(i), SimDuration::from_millis(1))
                    .with_read_only(true);
                Box::new(TimedRbe::new(rbe))
            });
        }
    }

    fn mark(&mut self, sys: &mut System) {
        self.window_start = sys.now();
    }

    fn collect(&mut self, sys: &mut System, _spec: &RunSpec) -> Observed {
        let mut latencies_ms = Vec::new();
        for i in 0..RBES {
            let node = sys.client_node(&format!("rbe{i}"));
            let rbe = sys
                .sim_mut()
                .node_mut::<TimedRbe>(node)
                .expect("timed browser");
            latencies_ms.extend(
                rbe.interactions
                    .iter()
                    .filter(|(done, _)| *done > self.window_start)
                    .map(|&(_, rt)| ms(rt)),
            );
        }
        let m = sys.metrics();
        let ops = m.counter("tpcw.web_interactions");
        let mut failures = Vec::new();
        if m.counter("clbft.ro.served") == 0 {
            failures.push("the read-only fast path never served a read".into());
        }
        if latencies_ms.len() as u64 != ops {
            failures.push(format!(
                "timed {} interactions but the browsers counted {ops}",
                latencies_ms.len()
            ));
        }
        Observed {
            ops,
            attempted: ops,
            failed: 0,
            latencies_ms,
            failures,
            ..Observed::default()
        }
    }
}

// ---------------------------------------------------------------------------

/// 4 shards × 4 replicas of a transactional null-op under saturation: six
/// single-replica calling services (every 10th request a two-shard 2PC)
/// plus two scripted single-key clients that carry the latency.
#[derive(Default)]
struct ShardedMix {
    /// `(done, commits, aborts)` summed over the callers at the mark.
    callers_warm: (u64, u64, u64),
    probes_warm: [usize; MIX_PROBES],
    applied_warm: u64,
}

const MIX_SHARDS: u32 = 4;
const MIX_CALLERS: u32 = 6;
const MIX_PROBES: usize = 2;
const MIX_WINDOW: u64 = 16;

impl ShardedMix {
    fn callers(sys: &mut System) -> (u64, u64, u64) {
        let mut sum = (0, 0, 0);
        for c in 0..MIX_CALLERS {
            let caller = sys
                .replica_mut(&format!("mix{c}"), 0)
                .expect("caller group")
                .executor_mut::<ServiceExecutor>()
                .expect("service executor")
                .service_mut::<MixedCaller>()
                .expect("mixed caller");
            sum = (
                sum.0 + caller.done,
                sum.1 + caller.commits,
                sum.2 + caller.aborts,
            );
        }
        sum
    }

    /// Applications summed over the shards (replica 0 of each).
    fn applied(sys: &mut System) -> u64 {
        (0..MIX_SHARDS)
            .map(|shard| {
                sys.replica_mut(&format!("target#{shard}"), 0)
                    .expect("shard replica")
                    .executor_mut::<ServiceExecutor>()
                    .expect("service executor")
                    .service_mut::<TxnShim>()
                    .expect("txn shim")
                    .inner_mut::<TxnIncrement>()
                    .expect("inner")
                    .applied
            })
            .sum()
    }
}

impl Scenario for ShardedMix {
    fn build(&mut self, b: &mut SystemBuilder, _spec: &RunSpec) {
        b.sharded_txn("target", MIX_SHARDS, 4, |_, _| {
            Box::<TxnIncrement>::default()
        });
        for c in 0..MIX_CALLERS {
            b.service(&format!("mix{c}"), 1, move |_| {
                Box::new(MixedCaller::new(
                    "target", ENDLESS, MIX_WINDOW, 10, MIX_SHARDS, c,
                ))
            });
        }
        for p in 0..MIX_PROBES {
            b.scripted_client_windowed(&format!("probe{p}"), "target", ENDLESS, MIX_WINDOW);
        }
    }

    fn mark(&mut self, sys: &mut System) {
        self.callers_warm = Self::callers(sys);
        for p in 0..MIX_PROBES {
            self.probes_warm[p] = sys.client_latencies(&format!("probe{p}")).len();
        }
        self.applied_warm = Self::applied(sys);
    }

    fn collect(&mut self, sys: &mut System, _spec: &RunSpec) -> Observed {
        let (done, commits, aborts) = Self::callers(sys);
        let (done, commits, aborts) = (
            done - self.callers_warm.0,
            commits - self.callers_warm.1,
            aborts - self.callers_warm.2,
        );
        let mut latencies_ms = Vec::new();
        for p in 0..MIX_PROBES {
            latencies_ms.extend(probe_latencies(
                sys,
                &format!("probe{p}"),
                self.probes_warm[p],
            ));
        }
        let ops = done + latencies_ms.len() as u64;
        let applied = Self::applied(sys) - self.applied_warm;

        // Exactly-once over a window whose load is still running: every
        // acknowledged operation is applied (a commit applies two keys),
        // and nothing beyond what can still be in flight at either edge —
        // each of the 8 generators has at most 16 requests of at most 2
        // keys outstanding. The exact form (applied = singles + 2·commits
        // at quiescence) is checked on a finite side run in `main`.
        let acked = ops + commits;
        let in_flight = (u64::from(MIX_CALLERS) + MIX_PROBES as u64) * MIX_WINDOW * 2;
        let mut failures = Vec::new();
        if applied + in_flight < acked || applied > acked + in_flight {
            failures.push(format!(
                "exactly-once audit: {applied} applied for {acked} acknowledged key \
                 applications (±{in_flight} in flight)"
            ));
        }
        if aborts != 0 {
            failures.push(format!("{aborts} aborts on disjoint key sets"));
        }
        if commits == 0 {
            failures.push("the 10% mix committed no cross-shard transaction".into());
        }
        Observed {
            ops,
            attempted: ops,
            failed: aborts,
            latencies_ms,
            failures,
            ..Observed::default()
        }
    }
}

// ---------------------------------------------------------------------------

/// A 64 KB mostly-static state with a counter at its tail: big enough that
/// checkpoints page it and a cold restart must fetch every page.
struct BigState {
    blob: Vec<u8>,
    total: u64,
}

const BLOB_LEN: usize = 64 * 1024;

impl BigState {
    fn new() -> Self {
        BigState {
            blob: (0..BLOB_LEN).map(|i| (i * 31 % 251) as u8).collect(),
            total: 0,
        }
    }
}

impl PassiveService for BigState {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        self.total += req.body().text.trim().parse::<u64>().unwrap_or(0);
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
        self.total = u64::from_be_bytes(tail.try_into().expect("8-byte tail"));
    }
}

/// The only workload with faults and a schedule-driven client: an
/// open-loop Poisson client at 600 rps against one big-state group whose
/// primary crashes and restarts, and whose replica 3 later reboots cold.
#[derive(Default)]
struct FaultRecovery {
    window_start: SimTime,
    crash_at: SimTime,
    restart_at: SimTime,
    wipe_at: SimTime,
    recovery: Option<SimDuration>,
}

const OPEN_RATE_RPS: f64 = 600.0;
/// How long a call stays unanswered before the client re-sends it to the
/// next responder. The interval has to sit inside a window the program
/// leaves open at this rate:
///
/// * above the ~450 ms a view change takes, or every call caught in the
///   outage is re-sent during it. Retransmits of executed requests rewrite
///   `reply_routes`, which is checkpointed state, at instants that differ
///   per replica; a burst of them stops checkpoints from stabilising, the
///   log window (256 slots) fills and the group wedges for good;
/// * below `reply_retention` (512 replies) ÷ rate = 853 ms, or the reply a
///   retransmit asks for has been evicted and the call never completes.
///
/// Both are robustness defects this workload found; the benchmark sits
/// between them and `ops_failed` will show a later fix or a regression.
const RETRANSMIT: SimDuration = SimDuration::from_millis(600);
/// A call later than this from its due time misses the service level.
const SLO: SimDuration = SimDuration::from_millis(50);
/// A call still unanswered this long after the window has failed.
const DRAIN: SimDuration = SimDuration::from_secs(5);
/// Fault instants as offsets into the window: the primary crashes at 2/11
/// (4 s of the 22 s window), restarts at 3/11 (6 s), and replica 3 reboots
/// cold at 7/11 (14 s).
fn fault_offsets(window: SimDuration) -> (SimDuration, SimDuration, SimDuration) {
    let us = window.as_micros();
    (
        SimDuration::from_micros(us * 2 / 11),
        SimDuration::from_micros(us * 3 / 11),
        SimDuration::from_micros(us * 7 / 11),
    )
}

impl FaultRecovery {
    fn client(sys: &mut System) -> &mut OpenLoopClient {
        let node = sys.client_node("open");
        sys.sim_mut()
            .node_mut::<OpenLoopClient>(node)
            .expect("open-loop client")
    }
}

impl Scenario for FaultRecovery {
    fn build(&mut self, b: &mut SystemBuilder, spec: &RunSpec) {
        let start = SimTime::ZERO + spec.warmup;
        let (_, _, wipe) = fault_offsets(spec.window);
        self.wipe_at = start + wipe;
        b.page_size(1024);
        b.checkpoint_interval(32);
        b.passive_service("big", 4, |_| Box::new(BigState::new()));
        b.fault(
            "big",
            3,
            FaultMode::StaleDropCold {
                after_ms: self.wipe_at.as_millis(),
            },
        );
        // The schedule covers warm-up and window and then stops, so the
        // drain that follows sees no new arrivals.
        let due = poisson_schedule(spec.seed, OPEN_RATE_RPS, SimTime::ZERO, start + spec.window);
        b.custom_client("open", move |core, uris| {
            let target = uris.group("urn:svc:big").expect("big is registered");
            Box::new(OpenLoopClient::new(
                core,
                target,
                "urn:svc:big",
                due,
                RETRANSMIT,
            ))
        });
    }

    fn mark(&mut self, sys: &mut System) {
        self.window_start = sys.now();
    }

    fn measure(&mut self, sys: &mut System, spec: &RunSpec) {
        let end = self.window_start + spec.window;
        let (crash, restart, _) = fault_offsets(spec.window);
        self.crash_at = self.window_start + crash;

        // The builder numbers nodes densely in registration order and
        // `big` is the first service, so replica i is node i.
        let view = sys.replica_mut("big", 0).expect("replica 0").bft_view();
        let primary = NodeId::from_raw(view.primary(4).0);
        let hosted = sys
            .sim_mut()
            .node_mut::<PerpetualReplica>(primary)
            .expect("primary node");
        assert_eq!(hosted.index(), primary.raw(), "replica i is node i");

        sys.run_until(self.crash_at);
        sys.sim_mut().net_mut().crash(primary);
        self.restart_at = self.window_start + restart;
        sys.run_until(self.restart_at);
        sys.sim_mut().net_mut().restart(primary);
        sys.run_until(self.wipe_at);
        // Recovery time: poll in 10 ms sim steps until the wiped replica has
        // installed fetched state, then read the exact instants off its
        // flight recorder (the ring is bounded, so read it right away).
        let installs = sys.metrics().counter("clbft.recovery.installs");
        while sys.now() < end && self.recovery.is_none() {
            sys.run_for(SimDuration::from_millis(10));
            if sys.metrics().counter("clbft.recovery.installs") > installs {
                let ring = sys.sim_mut().obs().flight_ring(3).expect("replica 3 ring");
                let at = |kind| {
                    ring.events()
                        .filter(|e| e.kind == kind)
                        .map(|e| e.at_us)
                        .last()
                };
                self.recovery = at(FlightKind::Wiped)
                    .zip(at(FlightKind::StateInstalled))
                    .map(|(wiped, installed)| SimDuration::from_micros(installed - wiped));
            }
        }
        sys.run_until(end);
    }

    fn collect(&mut self, sys: &mut System, spec: &RunSpec) -> Observed {
        let (start, end) = (self.window_start, self.window_start + spec.window);
        let client = Self::client(sys);
        let in_window = |t: SimTime| t > start && t <= end;
        let ops = client
            .calls
            .iter()
            .filter(|c| c.done.is_some_and(in_window))
            .count() as u64;
        let m = sys.metrics();
        let mut failures = Vec::new();
        if m.counter("perpetual.view_changes") == 0 {
            failures.push("the primary crash caused no view change".into());
        }
        if m.counter("clbft.recovery.installs") == 0 || self.recovery.is_none() {
            failures.push("the wiped replica installed no state inside the window".into());
        }
        Observed {
            ops,
            failures,
            ..Observed::default()
        }
    }

    fn settle(&mut self, sys: &mut System, seen: &mut Observed) {
        sys.run_for(DRAIN);
        let start = self.window_start;
        let (crash_at, restart_at) = (self.crash_at, self.restart_at);
        let client = Self::client(sys);
        if client.calls.len() != client.scheduled() {
            seen.failures.push(format!(
                "the generator sent {} of {} scheduled calls",
                client.calls.len(),
                client.scheduled()
            ));
        }
        let due_in_window: Vec<_> = client.calls.iter().filter(|c| c.due >= start).collect();
        seen.attempted = due_in_window.len() as u64;
        seen.failed = due_in_window.iter().filter(|c| c.done.is_none()).count() as u64;
        seen.latencies_ms = due_in_window
            .iter()
            .filter_map(|c| c.latency())
            .map(ms)
            .collect();
        let slo_missed = due_in_window
            .iter()
            .filter(|c| c.latency().is_none_or(|l| l > SLO))
            .count();
        // Time without service: the longest stretch while the primary was
        // down in which the client saw no reply at all.
        let mut replies: Vec<SimTime> = client
            .calls
            .iter()
            .filter_map(|c| c.done)
            .filter(|&t| t >= crash_at && t < restart_at)
            .collect();
        replies.sort_unstable();
        replies.push(restart_at);
        let (outage, _) = replies
            .iter()
            .fold((SimDuration::ZERO, crash_at), |(worst, prev), &t| {
                (worst.max(t - prev), t)
            });
        let late_ms = ms(client.max_late);
        let retransmits = client.retransmits;

        // The generator's node has a modelled CPU (~0.2 ms per call, more
        // in a retransmit burst), so a due time inside its own busy period
        // leaves when the CPU frees. Latency is timed from the due time and
        // so includes this; past a tenth of the service level the
        // generator, not the system, would be the queue being measured.
        if late_ms >= ms(SLO) / 10.0 {
            seen.failures
                .push(format!("the load generator ran {late_ms} ms late"));
        }
        if retransmits == 0 {
            seen.failures
                .push("a 2 s primary outage caused no client retransmit".into());
        }
        seen.extra.extend([
            ("sim_outage_ms", ms(outage)),
            ("sim_recovery_ms", self.recovery.map_or(0.0, ms)),
            (
                "sim_slo_miss_share",
                slo_missed as f64 / seen.attempted.max(1) as f64,
            ),
            ("gen.late_ms", late_ms),
        ]);

        // With the load stopped and drained, every replica — the restarted
        // primary and the wiped one included — must hold the same history
        // and the same application state.
        let prints: Vec<_> = (0..4)
            .map(|i| {
                let r = sys.replica_mut("big", i).expect("replica");
                (r.bft_execution_chain(), r.service_snapshot())
            })
            .collect();
        for (i, p) in prints.iter().enumerate().skip(1) {
            if p.0 != prints[0].0 {
                seen.failures
                    .push(format!("exec chain diverges at replica {i}"));
            }
            if p.1 != prints[0].1 {
                seen.failures
                    .push(format!("app state diverges at replica {i}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run;
    use crate::spans::Spans;
    use perpetual_ws::TraceLevel;

    fn shrunk(workload: Workload, seed: u64, trace: TraceLevel, divisor: u64) -> RunSpec {
        RunSpec::standard(workload, seed, trace).shrunk(divisor)
    }

    #[test]
    fn fault_offsets_land_on_whole_seconds_at_benchmark_size() {
        let spec = RunSpec::standard(Workload::FaultRecovery, 1, TraceLevel::Off);
        let s = SimDuration::from_secs;
        assert_eq!(fault_offsets(spec.window), (s(4), s(6), s(14)));
    }

    /// Same seed, same sim-clock numbers — at any trace level; another
    /// seed, other numbers.
    #[test]
    fn sim_clock_values_are_a_function_of_the_seed() {
        let mut spans = Spans::new();
        let a = run(
            &shrunk(Workload::NullRpc, 2007, TraceLevel::Off, 12),
            &mut spans,
        );
        let b = run(
            &shrunk(Workload::NullRpc, 2007, TraceLevel::Off, 12),
            &mut spans,
        );
        let traced = run(
            &shrunk(Workload::NullRpc, 2007, TraceLevel::Phases, 12),
            &mut spans,
        );
        let other = run(
            &shrunk(Workload::NullRpc, 2008, TraceLevel::Off, 12),
            &mut spans,
        );
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert!(a.ops > 300, "{} ops", a.ops);
        assert_eq!(a.sim, b.sim);
        assert_eq!((a.digest, a.identity()), (b.digest, b.identity()));
        assert_eq!((a.digest, a.identity()), (traced.digest, traced.identity()));
        assert!(traced.sim_value("lat.total_p50_ms").unwrap() > 0.0);
        assert!(traced.trace_json.is_some() && a.trace_json.is_none());
        assert_ne!(a.digest, other.digest);
        assert_ne!(a.identity(), other.identity());
    }

    #[test]
    fn tpcw_browse_serves_reads_on_the_fast_path() {
        let r = run(
            &shrunk(Workload::TpcwBrowse, 5, TraceLevel::Off, 20),
            &mut Spans::new(),
        );
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.sim_value("clbft.ro_served").unwrap() > 0.0);
        assert_eq!(r.sim_value("clbft.txn_committed"), Some(0.0));
        assert_eq!(r.latencies_ms.len() as u64, r.ops);
    }

    #[test]
    fn sharded_mix_commits_transactions_and_passes_its_audit() {
        let r = run(
            &shrunk(Workload::ShardedMix, 5, TraceLevel::Off, 8),
            &mut Spans::new(),
        );
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.sim_value("clbft.txn_committed").unwrap() > 0.0);
        assert_eq!(r.sim_value("clbft.ro_served"), Some(0.0));
        assert_eq!(r.failed, 0);
    }

    /// The fault schedule at a quarter of its size still crosses every
    /// mechanism: the crash outlasts the view-change timeout, the restarted
    /// primary and the cold-wiped replica both catch up, nothing fails.
    #[test]
    fn fault_recovery_survives_its_schedule() {
        let r = run(
            &shrunk(Workload::FaultRecovery, 5, TraceLevel::Off, 4),
            &mut Spans::new(),
        );
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.failed, 0);
        assert!(r.attempted > 2_500, "{} attempted", r.attempted);
        assert!(r.sim_value("clbft.view_changes").unwrap() >= 1.0);
        assert!(r.sim_value("clbft.pages_fetched").unwrap() >= 64.0);
        let outage = r.sim_value("sim_outage_ms").unwrap();
        assert!((400.0..500.0).contains(&outage), "outage {outage} ms");
        assert!(r.sim_value("sim_recovery_ms").unwrap() > 0.0);
        assert!(r.sim_value("sim_slo_miss_share").unwrap() > 0.0);
        assert!(!r.digest_repeats(), "a view change exempts the digest");
    }
}
