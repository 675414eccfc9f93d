//! The [`Context`] handed to node handlers.

use crate::metrics::Metrics;
use crate::node::NodeId;
use crate::rng::DetRng;
use crate::sim::SimState;
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use pws_obs::{
    AuditEvent, AuditMode, FlightKind, Phase, ProtoFamily, ProtoKey, SpanKey, TraceLevel,
    AUDIT_VIOLATIONS_KEY, TOTAL_LATENCY_KEY,
};
use std::fmt;

/// Identifies a timer set with [`Context::set_timer`], scoped to one node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl fmt::Debug for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// The capabilities a [`crate::Node`] handler has while it runs: sending
/// messages, setting timers, spending simulated CPU time, deterministic
/// randomness, and metrics.
pub struct Context<'a> {
    pub(crate) node: NodeId,
    pub(crate) state: &'a mut SimState,
    /// CPU time consumed so far within this handler invocation.
    pub(crate) elapsed: SimDuration,
}

impl<'a> Context<'a> {
    /// The current virtual time, including CPU time already spent in this
    /// handler invocation.
    pub fn now(&self) -> SimTime {
        self.state.now + self.elapsed
    }

    /// The id of the node whose handler is running.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `to`. Delivery time follows the network model; the
    /// message may be lost if links are lossy, partitioned, or either end is
    /// crashed.
    pub fn send(&mut self, to: NodeId, msg: Bytes) {
        let depart = self.state.now + self.elapsed;
        self.state.send_message(self.node, to, msg, depart);
    }

    /// Consumes `d` of simulated CPU time. Subsequent deliveries to this
    /// node are deferred until the node is free again, so heavy handlers
    /// reduce the node's throughput exactly as a busy server would.
    pub fn spend(&mut self, d: SimDuration) {
        self.elapsed += d;
    }

    /// Sets a one-shot timer that fires after `delay` of virtual time.
    pub fn set_timer(&mut self, delay: SimDuration) -> TimerId {
        let at = self.state.now + self.elapsed + delay;
        self.state.set_timer(self.node, at)
    }

    /// Cancels a timer if it has not fired yet. Cancelling an already-fired
    /// or foreign timer is a no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.state.cancel_timer(timer);
    }

    /// This node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.state.node_rng(self.node)
    }

    /// The shared metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.state.metrics
    }

    /// The simulation's request-lifecycle tracing level. Protocol layers
    /// check this before assembling span identities so the disabled path
    /// costs one branch.
    pub fn trace_level(&self) -> TraceLevel {
        self.state.obs.level()
    }

    /// Records a request-lifecycle phase sighting for the span identified
    /// by `(group, origin, counter)`, stamped with the current sim-time.
    /// First sightings feed the per-phase latency histograms
    /// (`obs.phase.*_ms`) and, on a terminal phase, the whole-span
    /// histogram (`obs.lat.total_ms`). No-op when tracing is off.
    pub fn obs_phase(&mut self, group: u32, origin: u64, counter: u64, phase: Phase) {
        if !self.state.obs.level().spans_enabled() {
            return;
        }
        let at_us = (self.state.now + self.elapsed).as_micros();
        let key = SpanKey {
            group,
            origin,
            counter,
        };
        let deltas = self
            .state
            .obs
            .phase(key, phase, at_us, self.node.raw() as u64);
        if let Some(ms) = deltas.phase_ms {
            self.state.metrics.record_hist(phase.metric_key(), ms);
        }
        if let Some(ms) = deltas.total_ms {
            self.state.metrics.record_hist(TOTAL_LATENCY_KEY, ms);
        }
        if deltas.regressed {
            self.obs_audit(group, AuditEvent::PhaseRegression { origin, counter });
        }
    }

    /// Records a protocol-plane span phase (view change / checkpoint /
    /// state transfer / 2PC / reshard) for the span `(group, family, id)`,
    /// stamped with the current sim-time. `count` is an optional payload
    /// (e.g. pages fetched). First sightings feed the
    /// `obs.proto.<family>.<phase>_ms` histograms; view-change spans also
    /// maintain the `clbft.vc.{started,completed,abandoned}` counters.
    /// No-op when tracing is off.
    pub fn obs_proto(&mut self, key: ProtoKey, phase: usize, count: u64) {
        if !self.state.obs.level().spans_enabled() {
            return;
        }
        let at_us = (self.state.now + self.elapsed).as_micros();
        let deltas = self.state.obs.proto(key, phase, at_us, count);
        if let Some((mk, ms)) = deltas.metric {
            self.state.metrics.record_hist(mk, ms);
        }
        if key.family == ProtoFamily::Vc {
            if deltas.opened {
                self.state.metrics.incr("clbft.vc.started");
            }
            match deltas.closed {
                Some("installed") => self.state.metrics.incr("clbft.vc.completed"),
                Some("abandoned") => self.state.metrics.incr("clbft.vc.abandoned"),
                _ => {}
            }
            for &(_, ms) in &deltas.abandoned {
                self.state.metrics.incr("clbft.vc.abandoned");
                self.state
                    .metrics
                    .record_hist("obs.proto.vc.abandoned_ms", ms);
            }
        }
    }

    /// Feeds one protocol observation to the auditor (no-op when auditing
    /// is off). A violation bumps `obs.audit.violations` and — in strict
    /// mode — panics, which the simulator surfaces as a node panic (with
    /// its flight dump) so test suites fail loudly.
    pub fn obs_audit(&mut self, group: u32, ev: AuditEvent) {
        let at_us = (self.state.now + self.elapsed).as_micros();
        let node = self.node.raw() as u64;
        let fired = match self.state.audit.as_mut() {
            Some(aud) => aud.ingest(group, node, at_us, ev),
            None => return,
        };
        if fired {
            self.state.metrics.incr(AUDIT_VIOLATIONS_KEY);
            let aud = self.state.audit.as_ref().expect("just ingested");
            if aud.mode() == AuditMode::Strict {
                let last = aud
                    .violations()
                    .last()
                    .map(|v| v.to_string())
                    .unwrap_or_default();
                panic!("protocol audit violation: {last}");
            }
        }
    }

    /// Records a time-series gauge sample under `name`, stamped with the
    /// current sim-time; [`Metrics::gauges`] reads the rings back.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let t_us = (self.state.now + self.elapsed).as_micros();
        self.state.metrics.gauge(name, t_us, value);
    }

    /// Records a protocol event into this node's flight ring. Always on
    /// (flight events are rare and the ring bounded).
    pub fn obs_flight(&mut self, kind: FlightKind, a: u64, b: u64) {
        let at_us = (self.state.now + self.elapsed).as_micros();
        self.state
            .obs
            .flight(self.node.raw() as u64, at_us, kind, a, b);
    }
}

impl fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("node", &self.node)
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}
