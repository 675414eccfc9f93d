//! WS-Addressing header properties (paper §5.1).
//!
//! The Perpetual-WS `MessageHandler` correlates asynchronous replies with
//! requests through `wsa:MessageID` / `wsa:RelatesTo`, and routes replies
//! through `wsa:ReplyTo`.

use crate::envelope::Envelope;
use crate::xml::XmlNode;

/// Parsed WS-Addressing properties of a message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Addressing {
    /// Destination endpoint URI (`wsa:To`).
    pub to: Option<String>,
    /// Reply endpoint URI (`wsa:ReplyTo/wsa:Address`).
    pub reply_to: Option<String>,
    /// Unique message id (`wsa:MessageID`).
    pub message_id: Option<String>,
    /// Id of the message this one replies to (`wsa:RelatesTo`).
    pub relates_to: Option<String>,
    /// SOAP action (`wsa:Action`).
    pub action: Option<String>,
}

impl Addressing {
    /// Extracts addressing properties from an envelope's headers.
    pub(crate) fn from_envelope(env: &Envelope) -> Addressing {
        let text = |local: &str| env.header(local).map(|h| h.text.clone());
        let reply_to = env.header("ReplyTo").map(|h| {
            h.find("Address")
                .map(|a| a.text.clone())
                .unwrap_or_else(|| h.text.clone())
        });
        Addressing {
            to: text("To"),
            reply_to,
            message_id: text("MessageID"),
            relates_to: text("RelatesTo"),
            action: text("Action"),
        }
    }

    /// Writes these properties into an envelope's headers (replacing any
    /// existing addressing headers).
    pub(crate) fn apply_to(&self, env: &mut Envelope) {
        for local in ["To", "ReplyTo", "MessageID", "RelatesTo", "Action"] {
            env.remove_headers(local);
        }
        if let Some(v) = &self.to {
            env.add_header(XmlNode::new("wsa:To").with_text(v.clone()));
        }
        if let Some(v) = &self.reply_to {
            env.add_header(
                XmlNode::new("wsa:ReplyTo").child(XmlNode::new("wsa:Address").with_text(v.clone())),
            );
        }
        if let Some(v) = &self.message_id {
            env.add_header(XmlNode::new("wsa:MessageID").with_text(v.clone()));
        }
        if let Some(v) = &self.relates_to {
            env.add_header(XmlNode::new("wsa:RelatesTo").with_text(v.clone()));
        }
        if let Some(v) = &self.action {
            env.add_header(XmlNode::new("wsa:Action").with_text(v.clone()));
        }
    }

    /// Builds the addressing block of a reply to a message with these
    /// properties, as the Perpetual-WS `MessageHandler` does in stage (7):
    /// `to` ← request's `replyTo`, `relatesTo` ← request's `messageID`.
    pub(crate) fn reply_addressing(&self, reply_message_id: impl Into<String>) -> Addressing {
        Addressing {
            to: self.reply_to.clone(),
            reply_to: None,
            message_id: Some(reply_message_id.into()),
            relates_to: self.message_id.clone(),
            action: self.action.as_ref().map(|a| format!("{a}Response")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_envelope() {
        let addr = Addressing {
            to: Some("urn:svc:pge".into()),
            reply_to: Some("urn:svc:store".into()),
            message_id: Some("urn:uuid:7".into()),
            relates_to: None,
            action: Some("authorize".into()),
        };
        let mut env = Envelope::new();
        addr.apply_to(&mut env);
        let parsed = Addressing::from_envelope(&env);
        assert_eq!(parsed, addr);
        // Wire roundtrip too.
        let back = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(Addressing::from_envelope(&back), addr);
    }

    #[test]
    fn apply_replaces_existing() {
        let mut env = Envelope::new();
        Addressing {
            to: Some("a".into()),
            ..Default::default()
        }
        .apply_to(&mut env);
        Addressing {
            to: Some("b".into()),
            ..Default::default()
        }
        .apply_to(&mut env);
        assert_eq!(env.headers().len(), 1);
        assert_eq!(Addressing::from_envelope(&env).to.as_deref(), Some("b"));
    }

    #[test]
    fn reply_addressing_mirrors_request() {
        let req = Addressing {
            to: Some("urn:svc:pge".into()),
            reply_to: Some("urn:svc:store".into()),
            message_id: Some("urn:uuid:42".into()),
            relates_to: None,
            action: Some("authorize".into()),
        };
        let rep = req.reply_addressing("urn:uuid:43");
        assert_eq!(rep.to.as_deref(), Some("urn:svc:store"));
        assert_eq!(rep.relates_to.as_deref(), Some("urn:uuid:42"));
        assert_eq!(rep.message_id.as_deref(), Some("urn:uuid:43"));
        assert_eq!(rep.action.as_deref(), Some("authorizeResponse"));
    }

    #[test]
    fn missing_headers_are_none() {
        let env = Envelope::new();
        let addr = Addressing::from_envelope(&env);
        assert_eq!(addr, Addressing::default());
    }
}
