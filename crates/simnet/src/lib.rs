//! # pws-simnet
//!
//! A deterministic discrete-event simulator used as the execution substrate
//! for the Perpetual-WS reproduction. It stands in for the paper's physical
//! testbed (2 GHz Opterons on a Gigabit Ethernet with 78 µs pairwise RTTs).
//!
//! The simulator provides:
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) with microsecond
//!   resolution.
//! * **Nodes** ([`Node`]) that exchange opaque byte messages and set timers
//!   through a [`Context`].
//! * A **CPU cost model**: each node is a serial server; calling
//!   [`Context::spend`] occupies the node, deferring later deliveries. This
//!   is what makes simulated throughput saturate realistically.
//! * A **network model** ([`NetConfig`]): per-link base latency, per-byte
//!   cost, bounded deterministic jitter, message drop probability,
//!   partitions, and node crashes for fault-injection tests.
//! * **Metrics** ([`metrics::Metrics`]): counters, histograms and gauge
//!   rings used by the benchmark harnesses.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for how the
//! simulator slots into the full Perpetual-WS stack.
//!
//! Determinism: given the same master seed and the same sequence of API
//! calls, a simulation run is bit-for-bit reproducible. Event ties at equal
//! timestamps are broken by insertion sequence number.
//!
//! # Example
//!
//! ```
//! use pws_simnet::{Context, Node, NodeId, RunOutcome, Simulation};
//! use bytes::Bytes;
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
//!         ctx.send(from, msg); // echo back
//!     }
//! }
//!
//! struct Pinger { peer: NodeId, got: usize }
//! impl Node for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(self.peer, Bytes::from_static(b"ping"));
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: Bytes, _ctx: &mut Context<'_>) {
//!         self.got += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(7);
//! let echo = sim.add_node(Box::new(Echo));
//! sim.add_node(Box::new(Pinger { peer: echo, got: 0 }));
//! assert_eq!(sim.run(), RunOutcome::Quiescent); // one ping, one echo
//! assert!(sim.now().as_micros() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod event;
pub mod metrics;
mod net;
mod node;
mod rng;
mod sim;
mod time;
pub mod trace;

pub use context::{Context, TimerId};
pub use net::{LinkConfig, NetConfig};
pub use node::{Node, NodeId};
pub use rng::{splitmix64, DetRng};
pub use sim::{RunOutcome, Simulation};
pub use time::{SimDuration, SimTime};

// Observability vocabulary, re-exported so protocol crates and tests can
// speak it without depending on `pws-obs` directly.
pub use pws_obs::{
    escape_json, fmt_f64, AuditEvent, AuditMode, Auditor, FlightEvent, FlightKind, FlightRing,
    Histogram, Phase, ProtoFamily, ProtoKey, ProtoSpan, Recorder, Span, SpanKey, TraceLevel,
    Violation, AUDIT_VIOLATIONS_KEY,
};
