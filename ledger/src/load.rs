//! Bench-owned load generation: the open-loop client of `fault_recovery`,
//! the response-time probe around the TPC-W browsers, and the seeded
//! arrival schedule. The program under test sees only what these send.

use bytes::Bytes;
use perpetual_ws::GroupId;
use pws_perpetual::{CallId, ClientCore, ClientEvent};
use pws_simnet::{Context, DetRng, Node, NodeId, SimDuration, SimTime, TimerId};
use pws_soap::MessageContext;
use pws_tpcw::rbe::Rbe;
use std::collections::VecDeque;

/// RNG stream label of the arrival schedule (node streams use small
/// labels, the network `u64::MAX`).
const ARRIVAL_STREAM: u64 = 0x4c45_4447_4552_0001;

/// Poisson arrivals at `rate_rps` over `[start, end)`: absolute due times,
/// ascending, a pure function of `seed`.
pub fn poisson_schedule(seed: u64, rate_rps: f64, start: SimTime, end: SimTime) -> Vec<SimTime> {
    let mut rng = DetRng::derive(seed, ARRIVAL_STREAM);
    let mean_gap_us = 1e6 / rate_rps;
    let mut t = start.as_micros() as f64;
    let mut due = Vec::new();
    loop {
        t += rng.exponential(mean_gap_us);
        let at = SimTime::from_micros(t as u64);
        if at >= end {
            return due;
        }
        due.push(at);
    }
}

/// One scheduled call of the open-loop client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// When the schedule said to send it. Latency is timed from here, so a
    /// stall charges every request that was due during it.
    pub due: SimTime,
    /// When the validated reply arrived, if it has.
    pub done: Option<SimTime>,
}

impl Call {
    /// Latency from the due time, for a completed call.
    pub fn latency(&self) -> Option<SimDuration> {
        self.done.map(|d| d - self.due)
    }
}

/// An **open-loop** client: it sends call `i` at `due[i]` whether or not
/// earlier calls have completed, and retransmits (rotating the responder)
/// any call still unanswered `retransmit` after its last transmission.
pub struct OpenLoopClient {
    core: ClientCore,
    target: GroupId,
    target_uri: String,
    due: Vec<SimTime>,
    retransmit: SimDuration,
    /// One entry per call issued so far, indexed by the call's id (the
    /// core numbers calls densely from 0 and this node makes no others).
    pub calls: Vec<Call>,
    /// `(retransmit deadline, call)`, in deadline order.
    unanswered: VecDeque<(SimTime, CallId)>,
    arrival_timer: Option<TimerId>,
    retransmit_timer: Option<TimerId>,
    /// Worst lateness of the generator itself: how long after a due time
    /// its call actually left (the node's modelled CPU can be busy).
    pub max_late: SimDuration,
    /// Retransmissions sent.
    pub retransmits: u64,
}

impl OpenLoopClient {
    /// A client of `target` (addressed as `target_uri` in the SOAP
    /// envelope) following the `due` schedule.
    pub fn new(
        core: ClientCore,
        target: GroupId,
        target_uri: &str,
        due: Vec<SimTime>,
        retransmit: SimDuration,
    ) -> Self {
        OpenLoopClient {
            core,
            target,
            target_uri: target_uri.to_owned(),
            calls: Vec::with_capacity(due.len()),
            due,
            retransmit,
            unanswered: VecDeque::new(),
            arrival_timer: None,
            retransmit_timer: None,
            max_late: SimDuration::ZERO,
            retransmits: 0,
        }
    }

    /// Calls scheduled in total (issued or not yet due).
    pub fn scheduled(&self) -> usize {
        self.due.len()
    }

    fn arm_arrival(&mut self, ctx: &mut Context<'_>) {
        self.arrival_timer = self
            .due
            .get(self.calls.len())
            .map(|&next| ctx.set_timer(next - ctx.now()));
    }

    fn arm_retransmit(&mut self, ctx: &mut Context<'_>) {
        if self.retransmit_timer.is_none() {
            if let Some(&(deadline, _)) = self.unanswered.front() {
                self.retransmit_timer = Some(ctx.set_timer(deadline - ctx.now()));
            }
        }
    }

    fn send_due(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        while let Some(&due) = self.due.get(self.calls.len()) {
            if due > now {
                break;
            }
            let seq = self.calls.len();
            let mut mc = MessageContext::request(&self.target_uri, "add");
            mc.body_mut().name = "add".into();
            mc.body_mut().text = "1".into();
            mc.addressing_mut().message_id = Some(format!("urn:uuid:open-{seq}"));
            mc.addressing_mut().reply_to = Some("urn:client".to_owned());
            let bytes = mc.to_bytes().expect("a request envelope always marshals");
            let call = self.core.call(ctx, self.target, bytes);
            assert_eq!(call.0 as usize, seq, "call ids are dense");
            self.calls.push(Call { due, done: None });
            self.max_late = self.max_late.max(now - due);
            self.unanswered.push_back((now + self.retransmit, call));
        }
    }
}

impl Node for OpenLoopClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.send_due(ctx);
        self.arm_arrival(ctx);
        self.arm_retransmit(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if let Some(ClientEvent::Reply { call, .. }) = self.core.on_message(&msg, ctx) {
            self.calls[call.0 as usize].done = Some(ctx.now());
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        if Some(timer) == self.arrival_timer {
            self.send_due(ctx);
            self.arm_arrival(ctx);
        } else if Some(timer) == self.retransmit_timer {
            self.retransmit_timer = None;
            let now = ctx.now();
            while let Some(&(deadline, call)) = self.unanswered.front() {
                if deadline > now {
                    break;
                }
                self.unanswered.pop_front();
                if self.calls[call.0 as usize].done.is_none() {
                    self.core.retry(ctx, call);
                    self.retransmits += 1;
                    self.unanswered.push_back((now + self.retransmit, call));
                }
            }
        }
        self.arm_retransmit(ctx);
    }
}

/// Wraps a TPC-W browser to time each web interaction from outside: the
/// browser keeps no per-call latency, so the wrapper watches the issue
/// counter and the browser's completion count around each handler.
pub struct TimedRbe {
    inner: Rbe,
    sent_at: Option<SimTime>,
    /// `(completion time, response time)` of every interaction.
    pub interactions: Vec<(SimTime, SimDuration)>,
}

impl TimedRbe {
    pub fn new(inner: Rbe) -> Self {
        TimedRbe {
            inner,
            sent_at: None,
            interactions: Vec::new(),
        }
    }
}

impl Node for TimedRbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        let before = self.inner.completed;
        self.inner.on_message(from, msg, ctx);
        if self.inner.completed > before {
            if let Some(sent) = self.sent_at.take() {
                self.interactions.push((ctx.now(), ctx.now() - sent));
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        // Retries bump `client.call_retries`, not this counter, so a rise
        // within this handler is this browser issuing its next page.
        let before = ctx.metrics().counter("client.calls_issued");
        self.inner.on_timer(timer, ctx);
        if ctx.metrics().counter("client.calls_issued") > before {
            self.sent_at = Some(ctx.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetual_ws::{PassiveService, PassiveUtils, System, SystemBuilder};
    use pws_soap::XmlNode;

    struct Echo;
    impl PassiveService for Echo {
        fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
            req.reply_with("", XmlNode::new("ok"))
        }
    }

    const RETRANSMIT: SimDuration = SimDuration::from_millis(250);

    /// A 4-replica echo service under a 500 rps open-loop client for 1 s.
    fn deployment(seed: u64) -> (System, usize) {
        let due = poisson_schedule(seed, 500.0, SimTime::ZERO, SimTime::from_secs(1));
        let scheduled = due.len();
        let mut b = SystemBuilder::new(seed);
        b.passive_service("echo", 4, |_| Box::new(Echo));
        b.custom_client("open", move |core, uris| {
            let target = uris.group("urn:svc:echo").expect("registered");
            Box::new(OpenLoopClient::new(
                core,
                target,
                "urn:svc:echo",
                due,
                RETRANSMIT,
            ))
        });
        (b.build(), scheduled)
    }

    fn client(sys: &mut System) -> &mut OpenLoopClient {
        let node = sys.client_node("open");
        sys.sim_mut()
            .node_mut::<OpenLoopClient>(node)
            .expect("client")
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let end = SimTime::from_secs(2);
        let a = poisson_schedule(7, 600.0, SimTime::ZERO, end);
        assert_eq!(a, poisson_schedule(7, 600.0, SimTime::ZERO, end));
        assert_ne!(a, poisson_schedule(8, 600.0, SimTime::ZERO, end));
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && *a.last().unwrap() < end);
        // 1 200 expected; Poisson spread is ±35 at one sigma.
        assert!((1_050..1_350).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn healthy_target_answers_every_call_promptly() {
        let (mut sys, scheduled) = deployment(11);
        sys.run_until(SimTime::from_secs(2));
        let c = client(&mut sys);
        assert_eq!(c.calls.len(), scheduled);
        assert!(c.calls.iter().all(|call| call.done.is_some()));
        let worst = c.calls.iter().filter_map(Call::latency).max().unwrap();
        assert!(worst < RETRANSMIT, "worst latency {worst:?}");
        assert_eq!(c.retransmits, 0);
        assert!(c.max_late < SimDuration::from_millis(1), "{:?}", c.max_late);
    }

    /// The defining property of the open loop: a stalled target changes
    /// what the calls observe, not how many are sent or when.
    #[test]
    fn stalled_target_grows_latency_not_the_send_count() {
        let (mut healthy, scheduled) = deployment(11);
        healthy.run_until(SimTime::from_secs(1));
        let sent_healthy: Vec<SimTime> = client(&mut healthy).calls.iter().map(|c| c.due).collect();

        let (mut stalled, _) = deployment(11);
        for replica in 0..4 {
            stalled.sim_mut().net_mut().crash(NodeId::from_raw(replica));
        }
        stalled.run_until(SimTime::from_secs(1));
        let now = stalled.now();
        let c = client(&mut stalled);
        let sent_stalled: Vec<SimTime> = c.calls.iter().map(|c| c.due).collect();
        assert_eq!(
            sent_stalled, sent_healthy,
            "same calls at the same due times"
        );
        assert_eq!(sent_stalled.len(), scheduled);
        assert!(c.calls.iter().all(|call| call.done.is_none()));
        // The oldest call has been waiting the whole second: the backlog
        // shows up as latency-in-progress, not as missing sends.
        assert!(now - c.calls[0].due > SimDuration::from_millis(900));
        // Retransmits fire: each of the early calls several times.
        assert!(
            c.retransmits as usize > scheduled,
            "{} retransmits for {scheduled} calls",
            c.retransmits
        );
        let retransmits = c.retransmits;
        assert!(stalled.metrics().counter("client.call_retries") >= retransmits);
    }

    #[test]
    fn a_late_reply_is_timed_from_the_due_time() {
        let (mut sys, scheduled) = deployment(11);
        // Cut the service off for the first 300 ms, then let it answer.
        for replica in 0..4 {
            sys.sim_mut().net_mut().crash(NodeId::from_raw(replica));
        }
        sys.run_until(SimTime::from_millis(300));
        for replica in 0..4 {
            sys.sim_mut().net_mut().restart(NodeId::from_raw(replica));
        }
        sys.run_until(SimTime::from_secs(3));
        let c = client(&mut sys);
        assert_eq!(c.calls.len(), scheduled);
        assert!(
            c.calls.iter().all(|call| call.done.is_some()),
            "retransmits recover every call"
        );
        let first = c.calls[0];
        assert!(first.due < SimTime::from_millis(20));
        assert!(
            first.latency().unwrap() >= SimDuration::from_millis(280),
            "the stall is charged to the call: {:?}",
            first.latency()
        );
    }
}
