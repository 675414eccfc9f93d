//! SOAP 1.2 envelopes.

use crate::xml::{XmlError, XmlNode};
use std::fmt;

/// The SOAP 1.2 envelope namespace.
pub(crate) const SOAP_NS: &str = "http://www.w3.org/2003/05/soap-envelope";
/// The WS-Addressing namespace (paper §5.1 uses WS-Addressing for
/// asynchronous message correlation).
pub(crate) const WSA_NS: &str = "http://www.w3.org/2005/08/addressing";

/// A SOAP fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Fault code (e.g. `soap:Receiver`).
    pub code: String,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "soap fault {}: {}", self.code, self.reason)
    }
}

impl std::error::Error for Fault {}

/// A SOAP envelope: header blocks plus one body element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    header: Vec<XmlNode>,
    body: XmlNode,
}

impl Default for Envelope {
    fn default() -> Self {
        Envelope::new()
    }
}

impl Envelope {
    /// An empty envelope with an empty body payload.
    pub(crate) fn new() -> Self {
        Envelope {
            header: Vec::new(),
            body: XmlNode::new("Payload"),
        }
    }

    /// An envelope whose body is `body`.
    pub(crate) fn with_body(body: XmlNode) -> Self {
        Envelope {
            header: Vec::new(),
            body,
        }
    }

    /// Appends a header block.
    pub(crate) fn add_header(&mut self, node: XmlNode) {
        self.header.push(node);
    }

    /// The header blocks.
    #[cfg(test)]
    pub(crate) fn headers(&self) -> &[XmlNode] {
        &self.header
    }

    /// The first header with the given local name.
    pub(crate) fn header(&self, local: &str) -> Option<&XmlNode> {
        self.header
            .iter()
            .find(|h| crate::xml::local_name(&h.name) == local)
    }

    /// Removes every header with the given local name.
    pub(crate) fn remove_headers(&mut self, local: &str) {
        self.header
            .retain(|h| crate::xml::local_name(&h.name) != local);
    }

    /// The body payload element.
    pub(crate) fn body(&self) -> &XmlNode {
        &self.body
    }

    /// Mutable access to the body payload element.
    pub(crate) fn body_mut(&mut self) -> &mut XmlNode {
        &mut self.body
    }

    /// Builds a fault envelope.
    pub fn fault(fault: &Fault) -> Envelope {
        let body = XmlNode::new("soap:Fault")
            .child(
                XmlNode::new("soap:Code")
                    .child(XmlNode::new("soap:Value").with_text(fault.code.clone())),
            )
            .child(
                XmlNode::new("soap:Reason")
                    .child(XmlNode::new("soap:Text").with_text(fault.reason.clone())),
            );
        Envelope::with_body(body)
    }

    /// If the body is a fault, extracts it.
    pub fn as_fault(&self) -> Option<Fault> {
        if crate::xml::local_name(&self.body.name) != "Fault" {
            return None;
        }
        let code = self
            .body
            .find("Code")
            .and_then(|c| c.find("Value"))
            .map(|v| v.text.clone())
            .unwrap_or_default();
        let reason = self
            .body
            .find("Reason")
            .and_then(|r| r.find("Text"))
            .map(|t| t.text.clone())
            .unwrap_or_default();
        Some(Fault { code, reason })
    }

    /// Serializes to a SOAP document.
    pub(crate) fn to_xml(&self) -> String {
        let mut env = XmlNode::new("soap:Envelope")
            .attr("xmlns:soap", SOAP_NS)
            .attr("xmlns:wsa", WSA_NS);
        let mut header = XmlNode::new("soap:Header");
        header.children = self.header.clone();
        env = env.child(header);
        let mut body = XmlNode::new("soap:Body");
        body.children = vec![self.body.clone()];
        env = env.child(body);
        env.to_document()
    }

    /// Parses a SOAP document.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] if the XML is malformed or not an envelope.
    pub(crate) fn parse(xml: &str) -> Result<Envelope, XmlError> {
        let root = XmlNode::parse(xml)?;
        if crate::xml::local_name(&root.name) != "Envelope" {
            // Reuse the error shape from the XML layer.
            return Err(XmlNode::parse("<not-an-envelope").unwrap_err());
        }
        let header = root
            .find("Header")
            .map(|h| h.children.clone())
            .unwrap_or_default();
        let body = root
            .find("Body")
            .and_then(|b| b.children.first().cloned())
            .unwrap_or_else(|| XmlNode::new("Payload"));
        Ok(Envelope { header, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_headers_and_body() {
        let mut env = Envelope::new();
        env.add_header(XmlNode::new("wsa:To").with_text("urn:svc:bank"));
        env.add_header(XmlNode::new("wsa:MessageID").with_text("urn:uuid:42"));
        *env.body_mut() = XmlNode::new("authorize")
            .attr("card", "1234")
            .with_text("99.50");
        let xml = env.to_xml();
        assert!(xml.contains("soap:Envelope"));
        let back = Envelope::parse(&xml).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.header("To").unwrap().text, "urn:svc:bank");
        assert_eq!(back.body().attribute("card"), Some("1234"));
    }

    #[test]
    fn fault_roundtrip() {
        let f = Fault {
            code: "soap:Receiver".into(),
            reason: "service aborted the request".into(),
        };
        let env = Envelope::fault(&f);
        let back = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(back.as_fault(), Some(f.clone()));
        assert!(f.to_string().contains("aborted"));
        assert!(Envelope::new().as_fault().is_none());
    }

    #[test]
    fn remove_headers() {
        let mut env = Envelope::new();
        env.add_header(XmlNode::new("wsa:To").with_text("a"));
        env.add_header(XmlNode::new("wsa:To").with_text("b"));
        env.add_header(XmlNode::new("wsa:Action").with_text("c"));
        env.remove_headers("To");
        assert!(env.header("To").is_none());
        assert_eq!(env.headers().len(), 1);
    }

    #[test]
    fn rejects_non_envelope() {
        assert!(Envelope::parse("<foo/>").is_err());
        assert!(Envelope::parse("not xml").is_err());
    }

    #[test]
    fn empty_envelope_parses() {
        let env = Envelope::new();
        let back = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(back.body().name, "Payload");
    }
}
