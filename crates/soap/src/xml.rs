//! A small XML document model with writer and parser.
//!
//! Supports what SOAP envelopes and deployment descriptors need: nested
//! elements, attributes, text content, standard entity escaping, and
//! self-closing tags. Not supported (not needed): processing instructions,
//! CDATA, comments inside content, DTDs, mixed text-and-element content
//! (text is kept per-element, before children).

use std::fmt;

/// An XML element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    /// Tag name (possibly prefixed, e.g. `soap:Envelope`).
    pub name: String,
    /// Attributes in document order.
    pub(crate) attrs: Vec<(String, String)>,
    /// Text content (appears before any children when serialized).
    pub text: String,
    /// Child elements.
    pub children: Vec<XmlNode>,
}

/// Error from parsing malformed XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    msg: String,
    pos: usize,
}

impl XmlError {
    fn new(msg: impl Into<String>, pos: usize) -> Self {
        XmlError {
            msg: msg.into(),
            pos,
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for XmlError {}

impl XmlNode {
    /// Creates an element with no attributes, text, or children.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode {
            name: name.into(),
            attrs: Vec::new(),
            text: String::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: adds an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Builder-style: sets the text content.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Builder-style: appends a child element.
    pub fn child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// The value of attribute `name`, if present.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first child with tag `name` (local-name match: `a:Foo` matches
    /// lookup `Foo`).
    pub fn find(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| local_name(&c.name) == name)
    }

    /// All children with tag `name` (local-name match).
    pub fn find_all(&self, name: &str) -> impl Iterator<Item = &XmlNode> {
        let name = name.to_owned();
        self.children
            .iter()
            .filter(move |c| local_name(&c.name) == name)
    }

    /// Serializes the document with an XML declaration.
    pub fn to_document(&self) -> String {
        let mut s = String::from("<?xml version=\"1.0\" encoding=\"utf-8\"?>");
        self.write(&mut s);
        s
    }

    /// Serializes this element (no declaration).
    #[cfg(test)]
    pub(crate) fn to_xml(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attrs {
            out.push(' ');
            out.push_str(n);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.text.is_empty() && self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escape_into(&self.text, out);
        for c in &self.children {
            c.write(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Parses a document (optionally starting with an XML declaration).
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] on malformed input.
    pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
        let mut p = Parser {
            s: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.skip_declaration()?;
        p.skip_ws();
        let node = p.parse_element()?;
        p.skip_ws();
        if p.pos != p.s.len() {
            return Err(XmlError::new("trailing content", p.pos));
        }
        Ok(node)
    }
}

/// The local part of a possibly-prefixed tag name.
pub(crate) fn local_name(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
}

/// Escapes text for inclusion in XML content or attributes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(XmlError::new(format!("expected '{}'", c as char), self.pos))
        }
    }

    fn skip_declaration(&mut self) -> Result<(), XmlError> {
        if self.s[self.pos..].starts_with(b"<?xml") {
            while let Some(c) = self.bump() {
                if c == b'?' && self.peek() == Some(b'>') {
                    self.pos += 1;
                    return Ok(());
                }
            }
            return Err(XmlError::new("unterminated declaration", self.pos));
        }
        Ok(())
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b':' | b'_' | b'-' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::new("expected name", self.pos));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn parse_element(&mut self) -> Result<XmlNode, XmlError> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut node = XmlNode::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(node);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = self
                        .bump()
                        .filter(|c| *c == b'"' || *c == b'\'')
                        .ok_or_else(|| XmlError::new("expected quote", self.pos))?;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
                    self.expect(quote)?;
                    node.attrs.push((attr_name, unescape(&raw, start)?));
                }
                None => return Err(XmlError::new("unexpected end in tag", self.pos)),
            }
        }
        // Content: text, then child elements (repeating; text folded).
        let mut text = String::new();
        loop {
            match self.peek() {
                Some(b'<') => {
                    if self.s[self.pos..].starts_with(b"</") {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        if close != node.name {
                            return Err(XmlError::new(
                                format!("mismatched close: <{}> vs </{close}>", node.name),
                                self.pos,
                            ));
                        }
                        self.skip_ws();
                        self.expect(b'>')?;
                        node.text = text.trim().to_owned();
                        return Ok(node);
                    }
                    node.children.push(self.parse_element()?);
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b'<') {
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
                    text.push_str(&unescape(&raw, start)?);
                }
                None => return Err(XmlError::new("unexpected end in content", self.pos)),
            }
        }
    }
}

fn unescape(s: &str, pos: usize) -> Result<String, XmlError> {
    if !s.contains('&') {
        return Ok(s.to_owned());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let end = rest
            .find(';')
            .ok_or_else(|| XmlError::new("unterminated entity", pos))?;
        match &rest[..=end] {
            "&amp;" => out.push('&'),
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            other => return Err(XmlError::new(format!("unknown entity {other}"), pos)),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_and_serialize() {
        let doc = XmlNode::new("root")
            .attr("id", "1")
            .child(XmlNode::new("a").with_text("hello"))
            .child(XmlNode::new("b"));
        assert_eq!(doc.to_xml(), r#"<root id="1"><a>hello</a><b/></root>"#);
        assert!(doc.to_document().starts_with("<?xml"));
    }

    #[test]
    fn parse_roundtrip() {
        let src = r#"<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">
            <env:Header><wsa:To>urn:x</wsa:To></env:Header>
            <env:Body><op amount="4 &amp; 5">text &lt;here&gt;</op></env:Body>
        </env:Envelope>"#;
        let node = XmlNode::parse(src).unwrap();
        assert_eq!(node.name, "env:Envelope");
        let body = node.find("Body").unwrap();
        let op = body.find("op").unwrap();
        assert_eq!(op.text, "text <here>");
        assert_eq!(op.attribute("amount"), Some("4 & 5"));
        let header = node.find("Header").unwrap();
        assert_eq!(header.find("To").unwrap().text, "urn:x");
        // Reserialize and reparse: stable.
        let again = XmlNode::parse(&node.to_xml()).unwrap();
        assert_eq!(node, again);
    }

    #[test]
    fn parse_with_declaration() {
        let node = XmlNode::parse("<?xml version=\"1.0\"?><a/>").unwrap();
        assert_eq!(node.name, "a");
    }

    #[test]
    fn escaping_roundtrip() {
        let node = XmlNode::new("t").with_text("a<b>&\"'c").attr("k", "x&y\"z");
        let parsed = XmlNode::parse(&node.to_xml()).unwrap();
        assert_eq!(parsed.text, "a<b>&\"'c");
        assert_eq!(parsed.attribute("k"), Some("x&y\"z"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "<a>",
            "<a></b>",
            "no tags",
            "<a attr></a>",
            "<a>&unknown;</a>",
            "<a/><b/>",
            "",
            "<a x='1' x2=>",
        ] {
            assert!(XmlNode::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn local_name_strips_prefix() {
        assert_eq!(local_name("wsa:To"), "To");
        assert_eq!(local_name("To"), "To");
    }

    #[test]
    fn find_all_and_find() {
        let doc = XmlNode::new("r")
            .child(XmlNode::new("x").with_text("1"))
            .child(XmlNode::new("x").with_text("2"));
        assert_eq!(doc.find_all("x").count(), 2);
        assert_eq!(doc.find("x").unwrap().text, "1", "the first match");
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // Printable text without control chars; parser trims whitespace.
        "[a-zA-Z0-9 <>&'\"_.-]{0,40}".prop_map(|s| s.trim().to_owned())
    }

    proptest! {
        #[test]
        fn text_roundtrips(text in arb_text(), attr in arb_text()) {
            let node = XmlNode::new("n").with_text(text.clone()).attr("a", attr.clone());
            let parsed = XmlNode::parse(&node.to_xml()).unwrap();
            // Whitespace at the edges is trimmed by the parser; inner
            // whitespace is preserved.
            prop_assert_eq!(parsed.text.as_str(), node.text.trim());
            prop_assert_eq!(parsed.attribute("a").unwrap(), attr.as_str());
        }

        #[test]
        fn parser_never_panics(input in "[ -~]{0,200}") {
            let _ = XmlNode::parse(&input);
        }
    }
}
