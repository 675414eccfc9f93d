//! # pws-soap
//!
//! A minimal SOAP 1.2 / WS-Addressing substrate: the stand-in for Apache
//! Axis2 in the Perpetual-WS reproduction (paper §2.2–2.3, §5).
//!
//! Provides:
//!
//! * [`xml`] — a small, dependency-free XML writer and pull parser
//!   (elements, attributes, text, escaping) sufficient for SOAP envelopes
//!   and `replicas.xml` deployment descriptors.
//! * [`envelope`] — SOAP envelopes with headers, bodies, and faults.
//! * [`addressing`] — WS-Addressing headers: `wsa:To`, `wsa:ReplyTo`,
//!   `wsa:MessageID`, `wsa:RelatesTo`, `wsa:Action` (§5.1).
//! * [`context`] — [`MessageContext`], the unit that flows through the
//!   engine, with per-message [`Options`] (including the abort timeout of
//!   §4.2).
//! * [`engine`] — the out-step of an Axis2-style stack (§2.3): it rejects
//!   a message without a destination and assigns its `wsa:MessageID`. The
//!   Perpetual transport sits beside the engine rather than in a handler
//!   chain.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for how this crate
//! slots into the full Perpetual-WS stack.
//!
//! # Example
//!
//! ```
//! use pws_soap::{MessageContext, Envelope, engine::Engine};
//!
//! let mut engine = Engine::with_id_prefix("engine");
//! let mut ctx = MessageContext::request("urn:svc:payment", "authorize");
//! ctx.body_mut().text = "42".to_owned();
//! engine.prepare_out(&mut ctx).expect("has a destination");
//! assert!(ctx.addressing().message_id.is_some(), "engine assigned an id");
//! let bytes = ctx.to_bytes().expect("serialize");
//! let back = MessageContext::from_bytes(&bytes).expect("parse");
//! assert_eq!(back.addressing().to.as_deref(), Some("urn:svc:payment"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addressing;
pub mod context;
pub mod engine;
pub mod envelope;
pub mod xml;

pub use addressing::Addressing;
pub use context::{MessageContext, Options};
pub use envelope::{Envelope, Fault};
pub use xml::{XmlError, XmlNode};
