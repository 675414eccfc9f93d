//! # pws-perpetual
//!
//! A from-scratch implementation of the **Perpetual** algorithm
//! (Pallemulle, Thorvaldsson & Goldman, WUCSE-2007-50), the protocol layer
//! of Perpetual-WS: Byzantine fault-tolerant interaction between replicated
//! service groups with strict fault isolation.
//!
//! Each service is a group of `3f + 1` replicas; each replica is a
//! co-located **voter** (a [`pws_clbft`] instance ordering the group's
//! [`Event`] stream) and **driver** (hosting a deterministic [`Executor`]).
//! An outcall flows through the nine stages of the paper's Fig. 1:
//!
//! 1. calling drivers send the request to the target voters,
//! 2. the target group validates `f_c + 1` matching copies and runs CLBFT,
//! 3. voters hand the agreed request to their co-located drivers,
//! 4. executors compute the reply,
//! 5. each voter sends a MAC-authenticated *share* to the **responder**,
//! 6. the responder forwards the reply *bundle* to every calling driver,
//! 7. calling drivers validate `f_t + 1` matching shares and forward the
//!    result into their own voter group,
//! 8. the calling voters agree on the result,
//! 9. each calling executor consumes the result from its event queue.
//!
//! Deterministic aborts (timeout votes), agreed time values, and seeded
//! randomness (§4.2 of the Perpetual-WS paper) ride the same ordered event
//! stream.
//!
//! The crate runs on [`pws_simnet`]; see `perpetual-ws` (the `crates/core`
//! crate) for the Web-Services layer and a builder that assembles whole
//! deployments, and `docs/ARCHITECTURE.md` at the repository root for the
//! full request lifecycle and wire-format tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A `for` loop over a `HashMap`/`HashSet` visits in `RandomState` order; if
// that order reaches a message, a timer or a snapshot byte, two runs at one
// seed diverge. The lint sees only `for` loops: `.iter()`/`.keys()` chains
// are covered by keeping such state in ordered maps, not by this.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod calls;
pub mod client;
pub mod cost;
pub mod event;
pub mod executor;
pub mod faults;
pub mod group;
pub mod messages;
pub mod replica;
pub mod snapshot;

pub use client::{ClientCore, ClientEvent};
pub use cost::CostModel;
pub use event::{config_payload, strip_config_payload, Event, CONFIG_PREFIX};
pub use executor::{AppCmd, AppEvent, AppOutput, CallId, Executor, RequestHandle};
pub use faults::FaultMode;
pub use group::{GroupId, Topology};
pub use messages::{decode_pmsg, encode_pmsg, PMsg};
pub use pws_clbft::{PageManifest, DEFAULT_PAGE_SIZE};
pub use replica::{PerpetualReplica, ReplicaConfig};
