//! The simulation engine.

use crate::context::{Context, TimerId};
use crate::event::{Event, EventKind, EventQueue};
use crate::metrics::Metrics;
use crate::net::NetConfig;
use crate::node::{Node, NodeId};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceDigest;
use bytes::Bytes;
use pws_obs::{AuditMode, Auditor, FlightKind, Recorder, TraceLevel};
use std::any::Any;
use std::collections::HashSet;

/// Why a call to [`Simulation::run`]/[`Simulation::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent,
    /// The deadline passed (only from [`Simulation::run_until`] /
    /// [`Simulation::run_for`]).
    DeadlineReached,
    /// A node handler panicked. The simulation is poisoned: the panicking
    /// node is dropped and every subsequent `run_*` call returns this same
    /// outcome. [`Simulation::panic_message`] carries the payload. A bug in
    /// deterministic application code would hit every replica identically,
    /// so it surfaces as a simulation failure instead of Byzantine noise —
    /// and never as a hang.
    NodePanicked {
        /// The node whose handler panicked.
        node: NodeId,
    },
}

/// Mutable simulation state shared with running handlers via [`Context`].
pub(crate) struct SimState {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) net: NetConfig,
    node_rngs: Vec<DetRng>,
    net_rng: DetRng,
    pub(crate) metrics: Metrics,
    next_timer: u64,
    cancelled: HashSet<u64>,
    master_seed: u64,
    pub(crate) trace: TraceDigest,
    /// Observability side channel (spans + flight recorder). Never consulted
    /// by the scheduler: recording cannot perturb the trace digest.
    pub(crate) obs: Recorder,
    /// Opt-in online protocol invariant auditor — like the recorder, a
    /// pure consumer of the event stream.
    pub(crate) audit: Option<Auditor>,
}

impl SimState {
    pub(crate) fn send_message(&mut self, from: NodeId, to: NodeId, msg: Bytes, depart: SimTime) {
        self.metrics.add("net.bytes_sent", msg.len() as u64);
        self.metrics.incr("net.messages_sent");
        match self
            .net
            .latency(from, to, msg.len(), depart, &mut self.net_rng)
        {
            Some(lat) => {
                self.queue
                    .push(depart + lat, to, EventKind::Deliver { from, msg });
            }
            None => {
                self.metrics.incr("net.messages_lost");
            }
        }
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, at: SimTime) -> TimerId {
        let id = self.next_timer;
        self.next_timer += 1;
        self.queue.push(at, node, EventKind::Timer { id });
        TimerId(id)
    }

    pub(crate) fn cancel_timer(&mut self, timer: TimerId) {
        self.cancelled.insert(timer.0);
    }

    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut DetRng {
        &mut self.node_rngs[node.0 as usize]
    }
}

/// A deterministic discrete-event simulation.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulation {
    nodes: Vec<Option<Box<dyn Node>>>,
    busy_until: Vec<SimTime>,
    state: SimState,
    /// Events handed to a node handler so far.
    dispatched: u64,
    /// Set once a node handler panics; poisons all subsequent runs.
    panicked: Option<(NodeId, String)>,
    /// The panicking node's flight-recorder dump, captured at panic time.
    flight_dump: Option<String>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.nodes.len())
            .field("now", &self.state.now)
            .field("pending_events", &self.state.queue.len())
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation with the default (paper-LAN) network and the
    /// given master seed.
    pub fn new(master_seed: u64) -> Self {
        Simulation::with_net(master_seed, NetConfig::new(Default::default()))
    }

    /// Creates a simulation with an explicit network configuration.
    pub fn with_net(master_seed: u64, net: NetConfig) -> Self {
        Simulation {
            nodes: Vec::new(),
            busy_until: Vec::new(),
            state: SimState {
                now: SimTime::ZERO,
                queue: EventQueue::default(),
                net,
                node_rngs: Vec::new(),
                net_rng: DetRng::derive(master_seed, u64::MAX),
                metrics: Metrics::new(),
                next_timer: 0,
                cancelled: HashSet::new(),
                master_seed,
                trace: TraceDigest::new(),
                obs: Recorder::new(),
                audit: None,
            },
            dispatched: 0,
            panicked: None,
            flight_dump: None,
        }
    }

    /// Sets the request-lifecycle tracing level (default
    /// [`TraceLevel::Off`]). The flight recorder is always on.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.state.obs.set_level(level);
    }

    /// The current tracing level.
    pub fn trace_level(&self) -> TraceLevel {
        self.state.obs.level()
    }

    /// The observability recorder (spans, per-phase timings, flight rings).
    pub fn obs(&self) -> &Recorder {
        &self.state.obs
    }

    /// Mutable access to the observability recorder (e.g. to resize flight
    /// rings or export traces).
    pub fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.state.obs
    }

    /// Enables the online protocol auditor in the given mode (or disables
    /// it with `None`). Like the recorder, the auditor only observes — it
    /// cannot perturb the trace digest ([`AuditMode::Strict`] panics on a
    /// violation, but a violation means the protocol already broke).
    pub fn set_auditor(&mut self, mode: Option<AuditMode>) {
        self.state.audit = mode.map(Auditor::new);
    }

    /// The protocol auditor, if enabled.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.state.audit.as_ref()
    }

    /// Mutable access to the auditor (e.g. to register group fault
    /// bounds).
    pub fn auditor_mut(&mut self) -> Option<&mut Auditor> {
        self.state.audit.as_mut()
    }

    /// The flight-recorder dump captured when a node panicked, if any.
    pub fn flight_dump(&self) -> Option<&str> {
        self.flight_dump.as_deref()
    }

    /// The payload of the node panic that poisoned this simulation, if any.
    pub fn panic_message(&self) -> Option<&str> {
        self.panicked.as_ref().map(|(_, m)| m.as_str())
    }

    /// Registers a node and schedules its `on_start` at the current time.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.busy_until.push(SimTime::ZERO);
        self.state
            .node_rngs
            .push(DetRng::derive(self.state.master_seed, id.0 as u64));
        self.state.queue.push(self.state.now, id, EventKind::Start);
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// The network configuration (for partitions/crashes mid-run).
    pub fn net_mut(&mut self) -> &mut NetConfig {
        &mut self.state.net
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Mutable access to the metrics registry (e.g. to reset after warm-up).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.state.metrics
    }

    /// Events handed to a node handler so far: starts, deliveries and
    /// timers that were neither dropped nor deferred.
    pub fn dispatched_events(&self) -> u64 {
        self.dispatched
    }

    /// Binary-heap pushes and pops the event queue has made so far. An
    /// event the serial-CPU model defers moves between FIFO lanes instead,
    /// so it adds none.
    pub fn heap_ops(&self) -> u64 {
        self.state.queue.heap_ops()
    }

    /// The rolling digest of every delivery and timer processed so far.
    pub fn trace_digest(&self) -> TraceDigest {
        self.state.trace
    }

    /// Typed access to a node, for assertions in tests and harvesting
    /// results after a run. Returns `None` if the id is unknown or the
    /// concrete type does not match.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.nodes.get_mut(id.0 as usize)?.as_mut()?;
        let any: &mut dyn Any = slot.as_mut();
        any.downcast_mut::<T>()
    }

    /// Injects a message from `from` to `to` as if `from` had sent it now.
    /// Useful for driving protocols from test code without a dedicated node.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: Bytes) {
        let now = self.state.now;
        self.state.send_message(from, to, msg, now);
    }

    /// Runs until the queue is empty.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs for an additional `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> RunOutcome {
        let deadline = self.state.now + d;
        self.run_until(deadline)
    }

    /// Runs until `deadline` (inclusive) or the queue drains. On deadline
    /// return, `now()` equals `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            if let Some((node, _)) = self.panicked {
                return RunOutcome::NodePanicked { node };
            }
            // Serial-server CPU model: an event for a node still busy is
            // deferred to the instant it frees up. Messages to
            // unregistered nodes (e.g. replies to a synthetic sender used
            // by `inject`) and to crashed nodes come back, to be dropped.
            let (busy_until, net) = (&self.busy_until, &self.state.net);
            let busy = |ev: &Event| {
                let until = *busy_until.get(ev.to.0 as usize)?;
                (until > ev.at && !net.is_crashed(ev.to)).then_some(until)
            };
            let Some(ev) = self.state.queue.pop_due(deadline, busy) else {
                if self.state.queue.peek_time().is_some() {
                    self.state.now = deadline;
                    return RunOutcome::DeadlineReached;
                }
                if deadline != SimTime::MAX {
                    self.state.now = deadline;
                }
                return RunOutcome::Quiescent;
            };
            let to = ev.to;
            let idx = to.0 as usize;
            if idx >= self.nodes.len() || self.state.net.is_crashed(to) {
                continue;
            }
            self.state.now = ev.at;

            // Dropped cancelled timers.
            if let EventKind::Timer { id } = ev.kind {
                if self.state.cancelled.remove(&id) {
                    continue;
                }
            }

            let mut node = match self.nodes[idx].take() {
                Some(n) => n,
                None => continue, // node currently running?? (impossible: serial)
            };
            self.dispatched += 1;
            let mut ctx = Context {
                node: to,
                state: &mut self.state,
                elapsed: SimDuration::ZERO,
            };
            // A panicking handler surfaces as a simulation failure (never a
            // hang): the node is dropped and the run poisoned.
            let dispatch =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match ev.kind {
                    EventKind::Start => node.on_start(&mut ctx),
                    EventKind::Deliver { from, msg } => {
                        ctx.state.trace.record_delivery(ev.at, from, to, &msg);
                        ctx.state.metrics.incr("net.messages_delivered");
                        node.on_message(from, msg, &mut ctx);
                    }
                    EventKind::Timer { id } => {
                        ctx.state.trace.record_timer(ev.at, to, id);
                        node.on_timer(TimerId(id), &mut ctx);
                    }
                }));
            let spent = ctx.elapsed;
            if let Err(payload) = dispatch {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                drop(node); // the node's state is broken; leave the slot empty
                            // Black-box moment: record the panic in the node's flight
                            // ring and capture its dump so the post-mortem has the
                            // replica's last protocol events alongside the payload.
                let at_us = (ev.at + spent).as_micros();
                self.state
                    .obs
                    .flight(to.0 as u64, at_us, FlightKind::NodePanic, 0, 0);
                let dump = self.state.obs.dump_flight(to.0 as u64).unwrap_or_default();
                eprintln!("node {} panicked: {msg}\n{dump}", to.0);
                self.flight_dump = Some(dump);
                self.panicked = Some((to, msg));
                return RunOutcome::NodePanicked { node: to };
            }
            self.nodes[idx] = Some(node);
            if spent > SimDuration::ZERO {
                self.state.metrics.add("cpu.busy_us", spent.as_micros());
                self.busy_until[idx] = ev.at + spent;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts messages; replies `reply` times to each, spending `cost` CPU.
    struct Worker {
        received: u32,
        cost: SimDuration,
    }
    impl Node for Worker {
        fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
            self.received += 1;
            ctx.spend(self.cost);
            ctx.send(from, msg);
        }
    }

    /// Sends `count` messages to `peer` at start; records reply times.
    struct Blaster {
        peer: NodeId,
        count: u32,
        replies: Vec<SimTime>,
    }
    impl Node for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.count {
                ctx.send(self.peer, Bytes::from_static(b"x"));
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Bytes, ctx: &mut Context<'_>) {
            self.replies.push(ctx.now());
        }
    }

    #[test]
    fn request_reply_latency_is_deterministic() {
        let run = || {
            let mut sim = Simulation::new(11);
            let w = sim.add_node(Box::new(Worker {
                received: 0,
                cost: SimDuration::ZERO,
            }));
            let b = sim.add_node(Box::new(Blaster {
                peer: w,
                count: 1,
                replies: Vec::new(),
            }));
            assert_eq!(sim.run(), RunOutcome::Quiescent);
            let t = sim.node_mut::<Blaster>(b).unwrap().replies[0];
            (t, sim.trace_digest())
        };
        let (t1, d1) = run();
        let (t2, d2) = run();
        assert_eq!(t1, t2);
        assert_eq!(d1, d2);
        // one-way 39us + jitter(<6us) each way
        assert!(t1.as_micros() >= 78 && t1.as_micros() < 100, "t={t1:?}");
    }

    #[test]
    fn cpu_model_serializes_work() {
        // 10 requests, each costing 1ms of CPU at the worker: the last reply
        // cannot arrive before 10ms of worker busy time.
        let mut sim = Simulation::new(5);
        let w = sim.add_node(Box::new(Worker {
            received: 0,
            cost: SimDuration::from_millis(1),
        }));
        let b = sim.add_node(Box::new(Blaster {
            peer: w,
            count: 10,
            replies: Vec::new(),
        }));
        sim.run();
        let replies = &sim.node_mut::<Blaster>(b).unwrap().replies;
        assert_eq!(replies.len(), 10);
        let last = *replies.last().unwrap();
        assert!(last.as_micros() >= 10_000, "last={last:?}");
        // And they are spaced ~1ms apart (serialized, not parallel).
        let spacing = replies[9] - replies[1];
        assert!(spacing.as_micros() >= 7_500, "spacing={spacing:?}");
    }

    #[test]
    fn crashed_nodes_receive_nothing() {
        let mut sim = Simulation::new(5);
        let w = sim.add_node(Box::new(Worker {
            received: 0,
            cost: SimDuration::ZERO,
        }));
        let _b = sim.add_node(Box::new(Blaster {
            peer: w,
            count: 5,
            replies: Vec::new(),
        }));
        sim.net_mut().crash(w);
        sim.run();
        assert_eq!(sim.node_mut::<Worker>(w).unwrap().received, 0);
    }

    struct TimerNode {
        fired: Vec<TimerId>,
        cancel_second: bool,
        pending: Vec<TimerId>,
    }
    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let a = ctx.set_timer(SimDuration::from_millis(1));
            let b = ctx.set_timer(SimDuration::from_millis(2));
            self.pending = vec![a, b];
            if self.cancel_second {
                ctx.cancel_timer(b);
            }
        }
        fn on_timer(&mut self, timer: TimerId, _ctx: &mut Context<'_>) {
            self.fired.push(timer);
        }
        fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut Context<'_>) {}
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut sim = Simulation::new(1);
        let n = sim.add_node(Box::new(TimerNode {
            fired: vec![],
            cancel_second: true,
            pending: vec![],
        }));
        sim.run();
        let node = sim.node_mut::<TimerNode>(n).unwrap();
        assert_eq!(node.fired.len(), 1);
        assert_eq!(node.fired[0], node.pending[0]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(1);
        sim.add_node(Box::new(TimerNode {
            fired: vec![],
            cancel_second: false,
            pending: vec![],
        }));
        let out = sim.run_until(SimTime::from_micros(1500));
        assert_eq!(out, RunOutcome::DeadlineReached);
        assert_eq!(sim.now(), SimTime::from_micros(1500));
        let out = sim.run();
        assert_eq!(out, RunOutcome::Quiescent);
    }

    #[test]
    fn node_panic_surfaces_as_failed_outcome_and_poisons_the_run() {
        struct Bomb;
        impl Node for Bomb {
            fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut Context<'_>) {
                panic!("service bug: boom");
            }
        }
        let mut sim = Simulation::new(3);
        let b = sim.add_node(Box::new(Bomb));
        let fake = NodeId::from_raw(999);
        sim.inject(fake, b, Bytes::from_static(b"x"));
        assert_eq!(sim.run(), RunOutcome::NodePanicked { node: b });
        assert!(sim.panic_message().unwrap().contains("boom"));
        // Poisoned: later runs report the same failure instead of hanging.
        assert_eq!(sim.run(), RunOutcome::NodePanicked { node: b });
        // The broken node is gone; typed access returns None.
        assert!(sim.node_mut::<Bomb>(b).is_none());
    }

    #[test]
    fn inject_drives_a_node() {
        let mut sim = Simulation::new(2);
        let w = sim.add_node(Box::new(Worker {
            received: 0,
            cost: SimDuration::ZERO,
        }));
        let fake = NodeId::from_raw(999); // nonexistent sender is fine
        sim.inject(fake, w, Bytes::from_static(b"hello"));
        sim.run();
        assert_eq!(sim.node_mut::<Worker>(w).unwrap().received, 1);
        assert!(sim.metrics().counter("net.messages_delivered") >= 1);
    }
}
