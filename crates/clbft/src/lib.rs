//! # pws-clbft
//!
//! A from-scratch implementation of the Castro–Liskov practical Byzantine
//! fault tolerance algorithm (**CLBFT**, OSDI '99) — the agreement substrate
//! the Perpetual algorithm runs inside each voter group (paper §2.1.1).
//!
//! The implementation is **sans-io**: a [`Replica`] consumes protocol
//! messages and emits [`Action`]s (sends, broadcasts, executions, timer
//! requests) that a transport harness — in this repository,
//! `pws-perpetual`'s voter running on `pws-simnet` — turns into real
//! messages and timers. This keeps the protocol purely deterministic and
//! directly property-testable.
//!
//! Behind that one boundary sit two state machines. The agreement core
//! (`replica.rs`) orders requests: batching, the three phases, the log
//! and its watermarks, view changes. The checkpoint and state-transfer
//! sub-machine (`checkpoint.rs`, crate-private) owns the stable
//! checkpoint and everything that produces or fetches one; it holds no
//! reference to the core and hands back what the core must apply — a
//! newly stable sequence number, a checkpoint to install, suffix slots to
//! replay, a view to adopt. Reads are not requests: a harness that wants
//! to answer one from committed state asks [`Replica::can_serve_reads`]
//! and never submits it.
//!
//! Implemented: the normal three-phase case (pre-prepare / prepare /
//! commit), Castro–Liskov request **batching** with pipelined proposals
//! (the primary seals queued requests into a [`Batch`] per slot; see
//! [`Config::max_batch_size`] and [`Config::pipeline_depth`]), request
//! deduplication, periodic **checkpoint certificates** over the application
//! snapshot (the harness supplies the snapshot bytes in answer to
//! [`Action::TakeCheckpoint`]; `2f + 1` matching digests stabilize the
//! checkpoint and garbage-collect the log below the low watermark),
//! **Merkle-partitioned state transfer** (`FetchState`/`StateResponse`
//! ships the [`PageManifest`] of the latest stable snapshot — verified
//! against `f + 1` matching checkpoint votes, whose digest covers the
//! manifest's Merkle root — then the fetcher pulls only pages whose
//! digests it does not already hold via range-bounded
//! `FetchPages`/`PageResponse` frames, verifying every page against the
//! certified manifest before installing, and replays the committed log
//! suffix, each slot only once `f + 1` distinct responders sent an
//! identical copy), **incremental checkpoints** (between boundaries only
//! dirty pages are re-hashed; see [`pages`]),
//! sequence-number watermarks, and view changes with new-view re-proposals
//! (including null-batch gap filling). A batch is ordered or dropped
//! atomically — never split — including across view changes, because
//! prepares and commits cover the batch digest.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for how this crate
//! slots into the full Perpetual-WS stack and for the wire-format tables.
//!
//! ## Trust boundary
//!
//! Channels are assumed point-to-point authenticated (MACs are applied by
//! the transport layer, `pws-perpetual`, using `pws-crypto`); therefore a
//! faulty replica can lie about its *own* state but cannot impersonate
//! others. View-change messages carry prepared-set claims whose digest
//! consistency is checked structurally; the nested MAC chains of the
//! original paper's proofs are elided.
//!
//! # Example: a four-replica group reaching agreement in memory
//!
//! ```
//! use pws_clbft::{Config, Replica, Request, RequestId, Action, Msg, ReplicaId};
//! use bytes::Bytes;
//!
//! let cfg = Config::new(4);
//! let mut replicas: Vec<Replica> =
//!     (0..4).map(|i| Replica::new(ReplicaId(i), cfg.clone())).collect();
//!
//! // Inject a request at the primary (replica 0 in view 0) and run all
//! // resulting actions to quiescence.
//! let req = Request::new(RequestId::new(7, 1), Bytes::from_static(b"op"));
//! let mut inbox: Vec<(usize, Option<usize>, Msg)> = vec![]; // (to, from, msg)
//! for a in replicas[0].on_request(req) {
//!     if let Action::Broadcast(m) = a {
//!         for to in 1..4 { inbox.push((to, Some(0), m.clone())); }
//!     }
//! }
//! let mut executed = 0;
//! while let Some((to, from, msg)) = inbox.pop() {
//!     let from = ReplicaId(from.unwrap() as u32);
//!     for a in replicas[to].on_message(from, msg) {
//!         match a {
//!             Action::Broadcast(m) => {
//!                 for peer in 0..4 {
//!                     if peer != to { inbox.push((peer, Some(to), m.clone())); }
//!                 }
//!             }
//!             Action::Send(dest, m) => inbox.push((dest.0 as usize, Some(to), m)),
//!             Action::Execute { .. } => executed += 1,
//!             _ => {}
//!         }
//!     }
//! }
//! assert!(executed >= 3, "at least the backups execute; got {executed}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A `for` loop over a `HashMap`/`HashSet` visits in `RandomState` order; if
// that order reaches a message, a timer or a snapshot byte, two runs at one
// seed diverge. The lint sees only `for` loops: `.iter()`/`.keys()` chains
// are covered by keeping such state in ordered maps, not by this.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod checkpoint;
mod config;
mod dedup;
mod log;
mod messages;
pub mod pages;
mod replica;
pub mod wire;

pub use config::Config;
pub use dedup::ExecutedSet;
pub use messages::{
    Batch, CheckpointMsg, CommitMsg, FetchPagesMsg, FetchStateMsg, Msg, NewViewMsg,
    PageResponseMsg, PrePrepareMsg, PrepareMsg, PreparedClaim, Request, RequestId,
    StateResponseMsg, SuffixSlot, ViewChangeMsg,
};
pub use pages::{PageCounters, PageManifest, DEFAULT_PAGE_SIZE, MAX_PAGES_PER_FETCH};
pub use replica::{Action, ObsEvent, Replica, TimerCmd};

/// A replica index within one group: `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId(pub u32);

impl std::fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A protocol view number. The primary of view `v` is replica `v mod n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct View(pub u64);

impl View {
    /// The primary replica for this view in a group of `n`.
    pub fn primary(self, n: u32) -> ReplicaId {
        ReplicaId((self.0 % n as u64) as u32)
    }

    /// The next view.
    pub(crate) fn next(self) -> View {
        View(self.0 + 1)
    }
}

impl std::fmt::Debug for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A sequence number in the total order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Seq(pub u64);

impl Seq {
    /// The sequence number before the first real one.
    pub(crate) const ZERO: Seq = Seq(0);

    /// The next sequence number.
    pub(crate) fn next(self) -> Seq {
        Seq(self.0 + 1)
    }
}

impl std::fmt::Debug for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod id_tests {
    use super::*;

    #[test]
    fn primary_rotates() {
        assert_eq!(View(0).primary(4), ReplicaId(0));
        assert_eq!(View(1).primary(4), ReplicaId(1));
        assert_eq!(View(5).primary(4), ReplicaId(1));
        assert_eq!(View(0).primary(1), ReplicaId(0));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", ReplicaId(2)), "r2");
        assert_eq!(format!("{:?}", View(3)), "v3");
        assert_eq!(format!("{:?}", Seq(4)), "s4");
        assert_eq!(Seq::ZERO.next(), Seq(1));
        assert_eq!(View(1).next(), View(2));
    }
}
