//! The executor interface: the "black box capturing application behavior"
//! hosted by each driver (paper §2.1.1).
//!
//! Executors are deterministic state machines: the voter group delivers an
//! identical event sequence to every replica's executor, and executors may
//! only affect the world through [`AppOutput`] commands, so all correct
//! replicas produce identical behaviour.

use crate::group::GroupId;
use bytes::Bytes;
use pws_simnet::{AuditEvent, ProtoFamily, SimDuration};
use std::fmt;

/// Identifies one of this service's own outcalls.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u64);

impl fmt::Debug for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "call#{}", self.0)
    }
}

/// Identifies an incoming request, for addressing the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle {
    /// The calling group.
    pub caller: GroupId,
    /// The caller's call number.
    pub req_no: u64,
}

/// An event delivered to the executor, in the group-agreed total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// Delivered exactly once, before any other event. Carries the
    /// group-agreed seed for deterministic randomness (§4.2: `random()`).
    Init {
        /// Group-agreed random seed.
        seed: u64,
    },
    /// An external request to execute (the service acts as target).
    Request {
        /// Handle for replying.
        handle: RequestHandle,
        /// Application payload.
        payload: Bytes,
    },
    /// A reply to one of our own outcalls (the service acts as caller).
    Reply {
        /// The completed call.
        call: CallId,
        /// Reply payload.
        payload: Bytes,
    },
    /// One of our outcalls was deterministically aborted after its timeout.
    Aborted {
        /// The aborted call.
        call: CallId,
    },
    /// The agreed answer to a time query (§4.2).
    Time {
        /// The token returned by [`AppOutput::query_time`].
        token: u64,
        /// Agreed milliseconds since the epoch.
        millis: u64,
    },
}

/// Commands an executor may issue; collected per event delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppCmd {
    /// Issue an asynchronous request to another service.
    Call {
        /// The call id assigned.
        call: CallId,
        /// The target group.
        target: GroupId,
        /// Payload.
        payload: Bytes,
        /// Abort timeout; `None` means never abort (the paper's default).
        timeout: Option<SimDuration>,
        /// Read-only hint: the call must not mutate target state, so the
        /// driver may route it over the unordered fast path (answered from
        /// the target's committed state, no agreement slot).
        read_only: bool,
    },
    /// Send a reply to an external request.
    Reply {
        /// The request being answered.
        to: RequestHandle,
        /// Reply payload.
        payload: Bytes,
    },
    /// Ask the voter group to agree on the current time.
    QueryTime {
        /// Token that will come back in [`AppEvent::Time`].
        token: u64,
    },
    /// Consume simulated CPU time (models the application's computation).
    Spend(SimDuration),
}

/// An observability emission queued by the application layer during one
/// event delivery and applied by the hosting replica afterwards (executors
/// own no clock, metrics registry, or auditor handle). Purely
/// observational: no protocol decision may read these.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AppObs {
    /// A protocol-plane span phase sighting (transaction / reshard spans;
    /// see `pws_simnet::ProtoKey`). The hosting replica supplies the group.
    Proto {
        /// Span family (`Txn`, `Reshard`, ...).
        family: ProtoFamily,
        /// Span id within the family (folded txn id, reshard epoch, ...).
        id: u64,
        /// Phase index into the family's phase table.
        phase: usize,
        /// Optional payload (participant count, entries moved, ...).
        count: u64,
    },
    /// An observation for the online protocol auditor.
    Audit(AuditEvent),
    /// A time-series gauge sample (e.g. the transaction lock-table size).
    Gauge {
        /// Gauge name (`ts.*` convention).
        name: String,
        /// Sampled value.
        value: f64,
    },
}

/// Collects an executor's commands during one event delivery.
///
/// Call and token ids are assigned deterministically from counters that the
/// driver persists across deliveries, so all replicas assign identical ids.
#[derive(Debug)]
pub struct AppOutput {
    pub(crate) cmds: Vec<AppCmd>,
    pub(crate) metrics: Vec<String>,
    pub(crate) obs: Vec<AppObs>,
    next_call: u64,
    next_token: u64,
}

impl AppOutput {
    /// Creates an output collector starting from the driver's counters.
    pub fn new(next_call: u64, next_token: u64) -> Self {
        AppOutput {
            cmds: Vec::new(),
            metrics: Vec::new(),
            obs: Vec::new(),
            next_call,
            next_token,
        }
    }

    /// Queues a counter increment the hosting replica applies after this
    /// delivery (executors have no metrics registry of their own). Used by
    /// the Web-Services layer for routing observability (`clbft.shard.*`).
    pub fn incr_metric(&mut self, name: impl Into<String>) {
        self.metrics.push(name.into());
    }

    /// Drains the queued metric increments.
    pub(crate) fn take_metrics(&mut self) -> Vec<String> {
        std::mem::take(&mut self.metrics)
    }

    /// Queues a protocol-plane span phase sighting; the hosting replica
    /// timestamps it and attaches its group id.
    pub fn proto(&mut self, family: ProtoFamily, id: u64, phase: usize, count: u64) {
        self.obs.push(AppObs::Proto {
            family,
            id,
            phase,
            count,
        });
    }

    /// Queues an observation for the online protocol auditor.
    pub fn audit(&mut self, ev: AuditEvent) {
        self.obs.push(AppObs::Audit(ev));
    }

    /// Queues a time-series gauge sample.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.obs.push(AppObs::Gauge {
            name: name.into(),
            value,
        });
    }

    /// Drains the queued observability emissions.
    pub(crate) fn take_obs(&mut self) -> Vec<AppObs> {
        std::mem::take(&mut self.obs)
    }

    /// Issues an asynchronous call to `target`; returns its id. The reply
    /// (or abort) arrives later as an [`AppEvent`]. This is the paper's
    /// non-blocking `send()` (Fig. 3).
    pub fn call(
        &mut self,
        target: GroupId,
        payload: Bytes,
        timeout: Option<SimDuration>,
    ) -> CallId {
        self.call_inner(target, payload, timeout, false)
    }

    /// Issues an asynchronous *read-only* call: the application promises the
    /// request does not mutate target state, letting the driver serve it on
    /// the unordered fast path (2f+1 matching replies against committed
    /// state, no agreement slot). Semantics otherwise match [`Self::call`];
    /// the reply or abort still arrives as an [`AppEvent`].
    #[cfg(test)]
    pub(crate) fn call_read_only(
        &mut self,
        target: GroupId,
        payload: Bytes,
        timeout: Option<SimDuration>,
    ) -> CallId {
        self.call_inner(target, payload, timeout, true)
    }

    fn call_inner(
        &mut self,
        target: GroupId,
        payload: Bytes,
        timeout: Option<SimDuration>,
        read_only: bool,
    ) -> CallId {
        let call = CallId(self.next_call);
        self.next_call += 1;
        self.cmds.push(AppCmd::Call {
            call,
            target,
            payload,
            timeout,
            read_only,
        });
        call
    }

    /// Replies to an external request (the paper's `sendReply()`).
    pub fn reply(&mut self, to: RequestHandle, payload: Bytes) {
        self.cmds.push(AppCmd::Reply { to, payload });
    }

    /// Requests an agreed clock reading; the answer arrives as
    /// [`AppEvent::Time`] with the returned token (the paper's
    /// `currentTimeMillis()`/`timestamp()`).
    pub fn query_time(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.cmds.push(AppCmd::QueryTime { token });
        token
    }

    /// Burns simulated CPU time at this replica (models computation; drives
    /// the Fig. 8 experiment).
    pub fn spend(&mut self, d: SimDuration) {
        self.cmds.push(AppCmd::Spend(d));
    }

    /// The counters after this delivery, to persist in the driver.
    pub fn counters(&self) -> (u64, u64) {
        (self.next_call, self.next_token)
    }

    /// The collected commands.
    pub fn cmds(&self) -> &[AppCmd] {
        &self.cmds
    }
}

/// A deterministic application hosted by a driver.
///
/// Implementations must be deterministic functions of the event sequence:
/// no wall clocks, no OS randomness, no thread timing. Use
/// [`AppOutput::query_time`] and the [`AppEvent::Init`] seed instead, which
/// is exactly the discipline the Perpetual-WS `Utils` API enforces (§4.2).
/// The `Any` supertrait enables typed access after a run via
/// [`crate::PerpetualReplica::executor_mut`].
pub trait Executor: std::any::Any {
    /// Handles the next event in the agreed order.
    fn on_event(&mut self, ev: AppEvent, out: &mut AppOutput);

    /// Captures the executor's application state at a sequence boundary,
    /// for checkpoint certificates and state transfer. Must be a
    /// deterministic function of the delivered event sequence (the bytes
    /// feed the checkpoint digest replicas vote on). The default captures
    /// nothing — correct only for stateless executors.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores a previously captured [`Executor::snapshot`] during state
    /// transfer or proactive recovery.
    fn restore(&mut self, _snapshot: &[u8]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_ids_are_sequential_and_persisted() {
        let mut out = AppOutput::new(5, 2);
        let a = out.call(GroupId(1), Bytes::from_static(b"x"), None);
        let b = out.call(
            GroupId(2),
            Bytes::from_static(b"y"),
            Some(SimDuration::from_millis(10)),
        );
        assert_eq!(a, CallId(5));
        assert_eq!(b, CallId(6));
        let t = out.query_time();
        assert_eq!(t, 2);
        assert_eq!(out.counters(), (7, 3));
        assert_eq!(out.cmds().len(), 3);
    }

    #[test]
    fn read_only_calls_share_the_id_space_and_set_the_flag() {
        let mut out = AppOutput::new(0, 0);
        let a = out.call(GroupId(1), Bytes::from_static(b"w"), None);
        let b = out.call_read_only(GroupId(1), Bytes::from_static(b"r"), None);
        assert_eq!((a, b), (CallId(0), CallId(1)));
        match (&out.cmds()[0], &out.cmds()[1]) {
            (
                AppCmd::Call {
                    read_only: false, ..
                },
                AppCmd::Call {
                    read_only: true, ..
                },
            ) => {}
            other => panic!("unexpected cmds: {other:?}"),
        }
    }

    #[test]
    fn reply_and_spend_record_cmds() {
        let mut out = AppOutput::new(0, 0);
        let h = RequestHandle {
            caller: GroupId(9),
            req_no: 4,
        };
        out.reply(h, Bytes::from_static(b"r"));
        out.spend(SimDuration::from_millis(3));
        assert_eq!(
            out.cmds()[0],
            AppCmd::Reply {
                to: h,
                payload: Bytes::from_static(b"r")
            }
        );
        assert_eq!(out.cmds()[1], AppCmd::Spend(SimDuration::from_millis(3)));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", CallId(3)), "call#3");
    }
}
