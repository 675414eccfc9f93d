//! The engine: the outgoing half of an Axis2-style stack (§2.3, §5.1).
//!
//! Axis2 runs every outgoing message through an OUT-PIPE of handlers. This
//! reproduction needs exactly two fixed out-steps, so the engine performs
//! them itself: reject a message without a `wsa:To` destination, then
//! assign a `wsa:MessageID` if the message has none (stage (1) of §5.1).
//! The Perpetual transport sits beside the engine, not in a chain: the
//! caller hands the addressed bytes to it.

use crate::context::MessageContext;
use std::fmt;

/// Why [`Engine::prepare_out`] refused a message: it names no `wsa:To`
/// destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoDestination;

impl fmt::Display for NoDestination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("message has no wsa:To destination")
    }
}

impl std::error::Error for NoDestination {}

/// Validates and addresses outgoing messages. Assigned ids look like
/// `urn:uuid:<prefix>-<n>`.
///
/// The id counter is part of a replica's deterministic state: a recovered
/// replica must resume the agreed id sequence, not restart it, so the
/// owner checkpoints it through [`Engine::id_counter`] and
/// [`Engine::set_id_counter`].
#[derive(Debug)]
pub struct Engine {
    prefix: String,
    id_counter: u64,
}

impl Engine {
    /// An engine whose assigned message ids carry `prefix` — replicas of a
    /// group must share the prefix (not a per-host one) so ids agree
    /// across replicas.
    pub fn with_id_prefix(prefix: impl Into<String>) -> Self {
        Engine {
            prefix: prefix.into(),
            id_counter: 0,
        }
    }

    /// The number of message ids assigned so far (checkpoint state).
    pub fn id_counter(&self) -> u64 {
        self.id_counter
    }

    /// Restores the id-assignment counter from a checkpoint, so a
    /// recovered replica resumes the group-agreed id sequence.
    pub fn set_id_counter(&mut self, n: u64) {
        self.id_counter = n;
    }

    /// Prepares an outgoing message: checks its destination, then assigns
    /// the next message id unless it already carries one.
    ///
    /// # Errors
    ///
    /// [`NoDestination`] if `wsa:To` is missing or empty; no id is
    /// assigned then.
    pub fn prepare_out(&mut self, ctx: &mut MessageContext) -> Result<(), NoDestination> {
        if ctx.addressing().to.as_deref().unwrap_or("").is_empty() {
            return Err(NoDestination);
        }
        if ctx.addressing().message_id.is_none() {
            self.id_counter += 1;
            ctx.addressing_mut().message_id =
                Some(format!("urn:uuid:{}-{}", self.prefix, self.id_counter));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(e: &mut Engine) -> Option<String> {
        let mut ctx = MessageContext::request("urn:x", "op");
        e.prepare_out(&mut ctx).unwrap();
        ctx.addressing().message_id.clone()
    }

    #[test]
    fn out_pipe_assigns_ids_and_validates() {
        let mut e = Engine::with_id_prefix("g7");
        let mut ctx = MessageContext::request("urn:svc", "op");
        e.prepare_out(&mut ctx).unwrap();
        assert!(ctx
            .addressing()
            .message_id
            .as_deref()
            .unwrap()
            .starts_with("urn:uuid:g7-"));
        let mut bad = MessageContext::request("", "op");
        assert!(e.prepare_out(&mut bad).is_err());
    }

    #[test]
    fn addressing_out_assigns_sequential_ids() {
        let mut e = Engine::with_id_prefix("g1");
        assert_eq!(send(&mut e).as_deref(), Some("urn:uuid:g1-1"));
        assert_eq!(send(&mut e).as_deref(), Some("urn:uuid:g1-2"));
        // Existing ids are preserved and consume no number.
        let mut c3 = MessageContext::request("urn:x", "op");
        c3.addressing_mut().message_id = Some("keep".into());
        e.prepare_out(&mut c3).unwrap();
        assert_eq!(c3.addressing().message_id.as_deref(), Some("keep"));
        assert_eq!(e.id_counter(), 2);
    }

    #[test]
    fn validate_to_rejects_missing_destination() {
        let mut e = Engine::with_id_prefix("g1");
        let mut bad = MessageContext::request("", "op");
        let err = e.prepare_out(&mut bad).unwrap_err();
        assert!(err.to_string().contains("wsa:To"));
        assert_eq!(bad.addressing().message_id, None);
        assert_eq!(e.id_counter(), 0, "a refused message takes no id");
    }

    #[test]
    fn replicas_with_same_prefix_assign_same_ids() {
        let mut e1 = Engine::with_id_prefix("group3");
        let mut e2 = Engine::with_id_prefix("group3");
        assert_eq!(send(&mut e1), send(&mut e2));
    }

    #[test]
    fn restored_counter_resumes_the_id_sequence() {
        let k = 5;
        let mut sent = Engine::with_id_prefix("g2");
        for _ in 0..k {
            send(&mut sent);
        }
        let mut restored = Engine::with_id_prefix("g2");
        restored.set_id_counter(sent.id_counter());
        assert_eq!(restored.id_counter(), k);
        assert_eq!(send(&mut restored), send(&mut sent));
    }
}
