//! The Perpetual-WS application API (paper Fig. 3) as a sans-IO,
//! poll-driven state machine.
//!
//! A [`Service`] is *polled* with agreed events and *returns* what it is
//! waiting on; it never blocks. The runtime calls
//! [`Service::on_event`] with one [`WsEvent`] at a time, the service emits
//! commands through the [`ServiceCtx`] (`send`, `reply`, `spend`,
//! `query_time`) and answers with a [`Poll`]: take anything
//! ([`Poll::Next`]), take only events matching a typed [`WaitSet`]
//! ([`Poll::Wait`]) while everything else stays queued in agreed order, or
//! stop ([`Poll::Done`]).
//!
//! Determinism is structural: the whole deployment runs on one thread, and
//! a service's execution is a pure function of the agreed event order plus
//! its own (deterministic) wait-set evolution. Nothing depends on thread
//! scheduling, because there are no threads — which is exactly the property
//! Perpetual needs from executors (§4.1), now by construction rather than
//! by a lock-step channel protocol.
//!
//! ## Multi-outcall support (§5 asynchronous invocation)
//!
//! [`ServiceCtx::send`] is non-blocking and returns a [`CallToken`]. The
//! reply — or, for timed-out and unroutable calls, a synthesized SOAP
//! fault — arrives later as [`WsEvent::Reply`] carrying that token. A
//! service may keep any number of calls in flight and use a `select`-like
//! [`WaitSet`] to resume exactly the continuations it cares about:
//!
//! ```
//! use perpetual_ws::{CallToken, Poll, Service, ServiceCtx, WaitSet, WsEvent};
//!
//! /// Fans out two backend calls per request, replies when both are back.
//! struct FanOut {
//!     inflight: Vec<CallToken>,
//! }
//!
//! impl Service for FanOut {
//!     fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
//!         if let WsEvent::Reply { token, .. } = &ev {
//!             self.inflight.retain(|t| t != token);
//!         }
//!         // ... issue calls with ctx.send(...), collect tokens ...
//!         if self.inflight.is_empty() {
//!             Poll::Next // idle: accept whatever comes
//!         } else {
//!             // select: requests may interleave, but only *our* replies wake us
//!             Poll::Wait(WaitSet::new().requests().replies(self.inflight.iter().copied()))
//!         }
//!     }
//! }
//! ```

use pws_soap::MessageContext;
use std::collections::BTreeSet;
use std::fmt;

/// Identifies one of this service's own outcalls.
///
/// Tokens are assigned densely from a deterministic per-replica counter, so
/// every replica of a group assigns identical tokens to identical calls.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallToken(pub(crate) u64);

impl CallToken {
    /// Creates a token from its raw index.
    ///
    /// Normally tokens are obtained from `ServiceCtx::send`; this
    /// constructor exists for tests and for tables keyed by token that must
    /// be built beforehand. Tokens count up from 0 per replica.
    pub const fn from_raw(raw: u64) -> Self {
        CallToken(raw)
    }

    /// The raw index of this token.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for CallToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "out#{}", self.0)
    }
}

/// Identifies one agreed-time query issued with [`ServiceCtx::query_time`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeToken(pub(crate) u64);

impl fmt::Debug for TimeToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "time#{}", self.0)
    }
}

/// Agreed events, translated to the Web-Services level.
///
/// Events are delivered in the group-agreed total order, filtered by the
/// service's current wait set (events not admitted stay queued, in order).
#[derive(Debug)]
pub enum WsEvent {
    /// Delivered first; carries the group-agreed random seed (which also
    /// seeds [`ServiceCtx::random_u64`] before this event is delivered).
    Init {
        /// The group-agreed seed.
        seed: u64,
    },
    /// An external SOAP request to serve. Answer it — now or after any
    /// number of intervening events — with [`ServiceCtx::reply`].
    Request {
        /// The decoded request.
        request: MessageContext,
    },
    /// The outcome of one of our own calls: the reply, or a synthesized
    /// SOAP fault if the call was deterministically aborted (§5 timeout
    /// vote) or addressed to an unknown endpoint.
    Reply {
        /// The call this resolves.
        token: CallToken,
        /// The decoded reply; `reply.envelope().as_fault()` is `Some` for
        /// aborts.
        reply: MessageContext,
    },
    /// The agreed answer to a [`ServiceCtx::query_time`] query (§4.2).
    Time {
        /// The query this answers.
        token: TimeToken,
        /// Agreed milliseconds since the epoch.
        millis: u64,
    },
}

/// A typed, `select`-like set of continuations a service is waiting on.
///
/// Build one with the chainable constructors; an empty set admits nothing
/// (the service sleeps until it widens its interest — which it can only do
/// when an admitted event wakes it, so an empty set on a service with no
/// queued interest is effectively permanent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitSet {
    pub(crate) requests: bool,
    pub(crate) any_reply: bool,
    pub(crate) replies: BTreeSet<CallToken>,
    pub(crate) times: bool,
}

impl WaitSet {
    /// An empty wait set.
    pub fn new() -> Self {
        WaitSet::default()
    }

    /// Also wake on the next external request.
    pub fn requests(mut self) -> Self {
        self.requests = true;
        self
    }

    /// Also wake on the reply (or abort fault) for `token`.
    pub(crate) fn reply(mut self, token: CallToken) -> Self {
        self.replies.insert(token);
        self
    }

    /// Also wake on the replies for every token in `tokens`.
    pub fn replies(mut self, tokens: impl IntoIterator<Item = CallToken>) -> Self {
        self.replies.extend(tokens);
        self
    }

    /// Also wake on *any* reply.
    pub(crate) fn any_reply(mut self) -> Self {
        self.any_reply = true;
        self
    }

    /// Also wake on agreed-time answers.
    pub(crate) fn times(mut self) -> Self {
        self.times = true;
        self
    }

    /// Whether `ev` matches this wait set. `Init` is always admitted.
    pub(crate) fn admits(&self, ev: &WsEvent) -> bool {
        match ev {
            WsEvent::Init { .. } => true,
            WsEvent::Request { .. } => self.requests,
            WsEvent::Reply { token, .. } => self.any_reply || self.replies.contains(token),
            WsEvent::Time { .. } => self.times,
        }
    }
}

/// What a service declares after handling an event: its continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Poll {
    /// Deliver the next agreed event, whatever it is.
    Next,
    /// Deliver only events admitted by the wait set; queue the rest in
    /// agreed order until the service widens its interest.
    Wait(WaitSet),
    /// The service is finished; discard queued and future events.
    Done,
}

impl Poll {
    /// Wait for the next external request only (the passive idiom).
    pub fn request() -> Poll {
        Poll::Wait(WaitSet::new().requests())
    }

    /// Wait for the reply to one specific call only (the synchronous
    /// `send_receive` idiom: requests arriving meanwhile stay queued).
    pub fn reply(token: CallToken) -> Poll {
        Poll::Wait(WaitSet::new().reply(token))
    }

    /// Wait for any reply (the windowed-pipeline idiom).
    pub fn any_reply() -> Poll {
        Poll::Wait(WaitSet::new().any_reply())
    }

    /// Wait for an agreed-time answer only.
    pub fn time() -> Poll {
        Poll::Wait(WaitSet::new().times())
    }
}

/// A deterministic, poll-driven Web Service.
///
/// Implementations must be deterministic functions of the delivered event
/// sequence: no wall clocks, no OS randomness, no I/O — use
/// [`ServiceCtx::query_time`] and [`ServiceCtx::random_u64`] instead
/// (§4.2). The `Any` supertrait enables typed access after a run.
pub trait Service: std::any::Any {
    /// Handles one agreed event and declares the continuation.
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll;

    /// Captures the service's application state at a sequence boundary, for
    /// checkpointing and state transfer.
    ///
    /// The contract: `snapshot` must be a **deterministic** function of the
    /// delivered event sequence (no iteration over unordered containers,
    /// no addresses, no wall-clock), so every correct replica produces
    /// byte-identical snapshots at the same agreed boundary — the snapshot
    /// bytes feed the checkpoint digest that replicas vote on. `restore`
    /// must rebuild exactly the state `snapshot` captured; a recovered
    /// replica resumes execution from the boundary with this state.
    ///
    /// The default captures nothing, which is correct for stateless
    /// services only. A stateful service that keeps the default can still
    /// be hosted, but a recovered replica of it restarts from the initial
    /// state and will diverge — implement both methods or neither.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Replaces the service's state with a previously captured
    /// [`Service::snapshot`]. See there for the contract.
    fn restore(&mut self, _snapshot: &[u8]) {}
}

impl<F> Service for F
where
    F: FnMut(WsEvent, &mut ServiceCtx<'_>) -> Poll + 'static,
{
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        self(ev, ctx)
    }
}

pub(crate) use crate::host::ServiceCtx;

#[cfg(test)]
mod tests {
    use super::*;

    fn req_ev() -> WsEvent {
        WsEvent::Request {
            request: MessageContext::request("urn:svc:x", "op"),
        }
    }

    #[test]
    fn wait_set_admission_rules() {
        let ws = WaitSet::new().requests();
        assert!(ws.admits(&req_ev()));
        assert!(
            ws.admits(&WsEvent::Init { seed: 1 }),
            "Init always admitted"
        );
        assert!(!ws.admits(&WsEvent::Time {
            token: TimeToken(0),
            millis: 5
        }));
        let reply = WsEvent::Reply {
            token: CallToken(3),
            reply: MessageContext::request("urn:x", "r"),
        };
        assert!(!ws.admits(&reply));
        assert!(WaitSet::new().reply(CallToken(3)).admits(&reply));
        assert!(!WaitSet::new().reply(CallToken(4)).admits(&reply));
        assert!(WaitSet::new().any_reply().admits(&reply));
        assert!(WaitSet::new().times().admits(&WsEvent::Time {
            token: TimeToken(9),
            millis: 5
        }));
        assert!(
            !WaitSet::new().admits(&req_ev()),
            "empty set admits nothing"
        );
    }

    #[test]
    fn poll_shorthands() {
        assert_eq!(Poll::request(), Poll::Wait(WaitSet::new().requests()));
        assert_eq!(
            Poll::reply(CallToken(7)),
            Poll::Wait(WaitSet::new().reply(CallToken(7)))
        );
        assert_eq!(Poll::any_reply(), Poll::Wait(WaitSet::new().any_reply()));
        assert_eq!(Poll::time(), Poll::Wait(WaitSet::new().times()));
    }

    #[test]
    fn wait_set_replies_bulk_constructor() {
        let ws = WaitSet::new().replies([CallToken(1), CallToken(2)]);
        for t in [1, 2] {
            assert!(ws.admits(&WsEvent::Reply {
                token: CallToken(t),
                reply: MessageContext::request("urn:x", "r"),
            }));
        }
        assert!(!ws.admits(&WsEvent::Reply {
            token: CallToken(3),
            reply: MessageContext::request("urn:x", "r"),
        }));
    }

    #[test]
    fn tokens_format_compactly() {
        assert_eq!(format!("{:?}", CallToken(4)), "out#4");
        assert_eq!(format!("{:?}", TimeToken(2)), "time#2");
    }
}
