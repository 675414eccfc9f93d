//! # Perpetual-WS
//!
//! Byzantine fault-tolerant middleware for n-Tier and Service Oriented
//! Architecture Web Services — a Rust reproduction of Pallemulle & Goldman,
//! *"Byzantine Fault-Tolerant Web Services for n-Tier and Service Oriented
//! Architectures"* (WUCSE-2007-53 / ICDCS 2008).
//!
//! Perpetual-WS lets replicated Web Services call other replicated Web
//! Services while guaranteeing the safety and liveness of every correct
//! service, even when peers are compromised. It layers a SOAP /
//! WS-Addressing engine ([`pws_soap`]) over the Perpetual replica-group
//! protocol ([`pws_perpetual`]), which in turn runs Castro–Liskov BFT
//! (`pws-clbft`) inside each voter group.
//!
//! ## The programming model (paper §4, poll-driven)
//!
//! Applications are **deterministic, sans-IO state machines** written
//! against the [`Service`] trait — the paper's Fig. 3 API recast so the
//! runtime *polls* the service with agreed [`WsEvent`]s and the service
//! *returns* what it waits on:
//!
//! * [`Service::on_event`] receives one agreed event, issues commands
//!   through the [`ServiceCtx`] ([`ServiceCtx::send`],
//!   [`ServiceCtx::reply`], [`ServiceCtx::spend`],
//!   [`ServiceCtx::query_time`], [`ServiceCtx::random_u64`]) and answers
//!   with a [`Poll`] continuation: [`Poll::Next`] for anything,
//!   [`Poll::Wait`] with a `select`-like [`WaitSet`] (reply-for-token,
//!   next-request, agreed-time), or [`Poll::Done`].
//! * [`ServiceCtx::send`] returns a [`CallToken`]; any number of calls may
//!   be in flight, which makes the paper's §5 asynchronous invocation (and
//!   SOA/BPEL-style orchestration *inside* a replicated service) first
//!   class.
//! * [`PassiveService`] — the classic request→reply function, the model to
//!   which Thema/BFT-WS/SWS are limited; existing services of this shape
//!   run unmodified as the trivial one-shot case ([`PassiveHost`]).
//!
//! The whole deployment — every replica of every group — runs on the
//! simulation thread. Determinism does not depend on a thread-alternation
//! protocol; it is structural.
//!
//! ### Migrating from the thread API
//!
//! Earlier revisions ran each replica's service on a dedicated OS thread
//! with blocking `receive_request()` / `receive_reply_for()` calls. The
//! mapping to the poll model is mechanical:
//!
//! | thread API (old) | poll API (new) |
//! |---|---|
//! | `fn run(self, api)` loop | [`Service::on_event`] per event |
//! | `api.receive_request()` | return [`Poll::request`], handle [`WsEvent::Request`] |
//! | `api.receive_reply_for(id)` | return [`Poll::reply`]`(token)`, handle [`WsEvent::Reply`] |
//! | `api.send_receive(req)` | [`ServiceCtx::send`] + [`Poll::reply`] (requests queue meanwhile) |
//! | `api.receive_any()` | return [`Poll::Next`] |
//! | `api.current_time_millis()` | [`ServiceCtx::query_time`] + [`Poll::time`], handle [`WsEvent::Time`] |
//! | `api.send_reply(rep, &req)` | [`ServiceCtx::reply`] |
//! | returning from `run` | return [`Poll::Done`] |
//!
//! Blocked-state bookkeeping that used to live on the thread's stack
//! becomes explicit service state — and in exchange a deployment of G
//! groups × (3f+1) replicas costs zero threads instead of G·(3f+1).
//!
//! ## Quickstart
//!
//! ```
//! use perpetual_ws::{SystemBuilder, PassiveService, PassiveUtils};
//! use pws_soap::MessageContext;
//! use pws_simnet::SimTime;
//!
//! struct Counter(u64);
//! impl PassiveService for Counter {
//!     fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
//!         self.0 += 1;
//!         let mut body = pws_soap::XmlNode::new("incrementResult");
//!         body.text = (self.0 - 1).to_string(); // return the old value
//!         req.reply_with("", body)
//!     }
//! }
//!
//! let mut b = SystemBuilder::new(42);
//! b.passive_service("counter", 4, |_| Box::new(Counter(0)));
//! b.scripted_client("rbe", "counter", 3); // fire 3 increments
//! let mut sys = b.build();
//! sys.run_until(SimTime::from_secs(10));
//! let replies = sys.client_replies("rbe");
//! assert_eq!(replies.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// As in `pws-perpetual`: hash-map order must not reach a message, a timer or
// a snapshot byte. The lint sees only `for` loops; `.iter()`/`.keys()`
// chains are covered by keeping such state in ordered maps, not by this.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod api;
pub mod deployment;
pub mod features;
pub mod host;
pub mod passive;
pub mod router;
pub mod runtime;
pub mod txn;
pub mod wscost;

pub use api::{CallToken, Poll, Service, TimeToken, WaitSet, WsEvent};
pub use deployment::{parse_replicas_xml, DeploymentError, ReplicasConfig, ServiceEntry};
pub use features::{feature_matrix, Approach, FeatureRow};
pub use host::{ServiceCtx, ServiceExecutor};
pub use passive::{PassiveHost, PassiveService, PassiveUtils};
pub use pws_perpetual::{CostModel, FaultMode, GroupId};
pub use pws_simnet::{
    AuditEvent, AuditMode, FlightKind, Phase, ProtoFamily, ProtoKey, TraceLevel, Violation,
    AUDIT_VIOLATIONS_KEY,
};
pub use router::{RendezvousRouter, RouteError, Router, RouterEpoch};
pub use runtime::{System, SystemBuilder, UriMap};
pub use txn::{TxnService, TxnShim, TXN_ABORTED_FAULT, WRONG_SHARD_FAULT};
pub use wscost::WsCostModel;
