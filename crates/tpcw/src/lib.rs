//! # pws-tpcw
//!
//! The TPC-W e-commerce macro-benchmark of the paper's §6.1, rebuilt on
//! Perpetual-WS. The deployment mirrors the paper's Fig. 5:
//!
//! ```text
//! RBEs --"HTTP"--> Bookstore(+DB) --Perpetual-WS--> PGE --Perpetual-WS--> Bank
//! ```
//!
//! * [`model`] — the twelve TPC-W web interactions and a TPC-W-derived
//!   Markov transition matrix whose steady state sends 5–10 % of traffic to
//!   the payment gateway, as the paper reports.
//! * [`db`] — the bookstore's in-memory database (items, carts, orders)
//!   with a per-query latency model standing in for MySQL.
//! * [`bookstore`] — the bookstore as an *active* Perpetual-WS service
//!   (unreplicated, n = 1, like the paper's Tomcat servlet) that issues
//!   asynchronous `authorize` calls to the PGE on Buy Confirm.
//! * [`pge`] / [`bank`] — the replicated Payment Gateway Emulator and the
//!   credit-card bank; the PGE exists in asynchronous (default) and
//!   synchronous variants for the §6.4 comparison.
//! * [`rbe`] — remote browser emulators with exponential think times.
//! * [`harness`] — assembles a full deployment and measures WIPS (web
//!   interactions per second), regenerating Fig. 6.

//!
//! See `docs/ARCHITECTURE.md` at the repository root for how this crate
//! slots into the full Perpetual-WS stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod bookstore;
pub mod db;
pub mod harness;
pub mod model;
pub mod pge;
pub mod rbe;

pub use harness::{run_tpcw, TpcwConfig, TpcwResult};
