//! The message context: the unit flowing through the engine, mirroring
//! `org.apache.axis2.context.MessageContext` (paper §4.2, §5.1).

use crate::addressing::Addressing;
use crate::envelope::Envelope;
use crate::xml::{XmlError, XmlNode};
use bytes::Bytes;

/// Per-message options, mirroring the Axis2 `Options` object. The paper's
/// abort mechanism is driven by `setTimeOutInMilliSeconds` (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Options {
    /// Abort timeout in milliseconds; `None` (the default) never aborts.
    pub timeout_ms: Option<u64>,
}

impl Options {
    /// Sets the request abort timeout, like
    /// `Options.setTimeOutInMilliSeconds`.
    pub fn set_timeout_millis(&mut self, ms: u64) {
        self.timeout_ms = Some(ms);
    }
}

/// A SOAP message together with its addressing properties and options.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageContext {
    envelope: Envelope,
    addressing: Addressing,
    options: Options,
}

impl MessageContext {
    /// Creates a request context addressed to `to` with the given action.
    pub fn request(to: impl Into<String>, action: impl Into<String>) -> Self {
        MessageContext {
            envelope: Envelope::new(),
            addressing: Addressing {
                to: Some(to.into()),
                action: Some(action.into()),
                ..Default::default()
            },
            options: Options::default(),
        }
    }

    /// Wraps an envelope (addressing extracted from its headers).
    pub fn from_envelope(envelope: Envelope) -> Self {
        let addressing = Addressing::from_envelope(&envelope);
        MessageContext {
            envelope,
            addressing,
            options: Options::default(),
        }
    }

    /// The envelope.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// The addressing properties.
    pub fn addressing(&self) -> &Addressing {
        &self.addressing
    }

    /// Mutable access to the addressing properties.
    pub fn addressing_mut(&mut self) -> &mut Addressing {
        &mut self.addressing
    }

    /// The per-message options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Mutable access to the options.
    pub fn options_mut(&mut self) -> &mut Options {
        &mut self.options
    }

    /// Shorthand: the body payload element.
    pub fn body(&self) -> &XmlNode {
        self.envelope.body()
    }

    /// Shorthand: mutable body payload element.
    pub fn body_mut(&mut self) -> &mut XmlNode {
        self.envelope.body_mut()
    }

    /// Builds a reply context to this message: addressing mirrored per
    /// WS-Addressing, with the given reply message id and body.
    pub fn reply_with(&self, reply_message_id: impl Into<String>, body: XmlNode) -> Self {
        MessageContext {
            envelope: Envelope::with_body(body),
            addressing: self.addressing.reply_addressing(reply_message_id),
            options: Options::default(),
        }
    }

    /// Serializes: addressing is written into the headers, then the
    /// envelope to XML bytes.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` to keep the signature
    /// stable when schema validation is added.
    pub fn to_bytes(&self) -> Result<Bytes, XmlError> {
        let mut env = self.envelope.clone();
        self.addressing.apply_to(&mut env);
        Ok(Bytes::from(env.to_xml()))
    }

    /// Parses a serialized message context.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] if the bytes are not a valid SOAP envelope.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, XmlError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| XmlNode::parse("<invalid-utf8").unwrap_err())?;
        let envelope = Envelope::parse(text)?;
        Ok(MessageContext::from_envelope(envelope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_sets_addressing() {
        let mut ctx = MessageContext::request("urn:svc:bank", "validate");
        ctx.options_mut().set_timeout_millis(2500);
        assert_eq!(ctx.addressing().to.as_deref(), Some("urn:svc:bank"));
        assert_eq!(ctx.addressing().action.as_deref(), Some("validate"));
        assert_eq!(ctx.options().timeout_ms, Some(2500));
    }

    #[test]
    fn wire_roundtrip_preserves_addressing_and_body() {
        let mut ctx = MessageContext::request("urn:svc:pge", "authorize");
        ctx.addressing_mut().message_id = Some("urn:uuid:9".into());
        ctx.addressing_mut().reply_to = Some("urn:svc:store".into());
        ctx.body_mut().name = "authorize".into();
        ctx.body_mut().text = "77.00".into();
        let bytes = ctx.to_bytes().unwrap();
        let back = MessageContext::from_bytes(&bytes).unwrap();
        assert_eq!(back.addressing(), ctx.addressing());
        assert_eq!(back.body().name, "authorize");
        assert_eq!(back.body().text, "77.00");
    }

    #[test]
    fn reply_with_correlates() {
        let mut req = MessageContext::request("urn:svc:pge", "authorize");
        req.addressing_mut().message_id = Some("m1".into());
        req.addressing_mut().reply_to = Some("urn:svc:store".into());
        let rep = req.reply_with("m2", XmlNode::new("authorizeResult").with_text("ok"));
        assert_eq!(rep.addressing().to.as_deref(), Some("urn:svc:store"));
        assert_eq!(rep.addressing().relates_to.as_deref(), Some("m1"));
        assert_eq!(rep.body().text, "ok");
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(MessageContext::from_bytes(b"\xff\xfe").is_err());
        assert!(MessageContext::from_bytes(b"<foo/>").is_err());
    }
}
