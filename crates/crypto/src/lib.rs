//! # pws-crypto
//!
//! The authentication substrate for the Perpetual-WS reproduction.
//!
//! The paper authenticates all communication with Message Authentication
//! Codes (MACs, §2.1.2), arguing that MAC computation is three orders of
//! magnitude cheaper than digital signatures and therefore scales to large
//! replica groups (§3, "Cryptographic overhead"). This crate provides:
//!
//! * [`sha256`](mod@sha256) — a from-scratch FIPS 180-4 SHA-256
//!   implementation.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), tested against RFC 4231 vectors.
//! * [`mac`] — [`MacKey`]/[`Mac`] newtypes with constant-shape verification.
//! * [`keys`] — pairwise session-key tables between principals, as the
//!   Perpetual `ChannelAdapter` would negotiate over SSL.
//! * [`auth`] — PBFT-style *authenticators*: a vector of MACs, one per
//!   receiving replica, plus reply-bundle share verification used by
//!   Perpetual stage 6.
//! * [`sig`] — the **cost-model** constants of the digital-signature
//!   baselines (SWS/BFT-WS sign replies); see module docs for the
//!   substitution rationale.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for how this crate
//! slots into the full Perpetual-WS stack.
//!
//! # Example
//!
//! ```
//! use pws_crypto::{MacKey, hmac::hmac_sha256};
//!
//! let key = MacKey::derive_from_label(42, b"replica-0<->replica-1");
//! let mac = key.compute(b"pre-prepare");
//! assert!(key.verify(b"pre-prepare", &mac));
//! assert!(!key.verify(b"pre-prepared", &mac));
//! let raw = hmac_sha256(key.as_bytes(), b"pre-prepare");
//! assert_eq!(raw, *mac.as_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod hmac;
pub mod keys;
pub mod mac;
pub mod sha256;
pub mod sig;

pub use auth::{Authenticator, BundleShare};
pub use keys::{KeyTable, Principal};
pub use mac::{Mac, MacKey};
pub use sha256::{sha256, Digest32};
