//! `replicas.xml` deployment descriptors (paper §5.2).
//!
//! Perpetual-WS has no dynamic discovery (Fig. 2), so endpoint references
//! are resolved through a static mapping shipped alongside the service:
//!
//! ```xml
//! <replicas>
//!   <service name="pge" uri="urn:svc:pge">
//!     <replica host="10.0.0.1" port="8080"/>
//!     <replica host="10.0.0.2" port="8080"/>
//!     <replica host="10.0.0.3" port="8080"/>
//!     <replica host="10.0.0.4" port="8080"/>
//!   </service>
//! </replicas>
//! ```

use pws_soap::xml::XmlNode;
use std::fmt;

/// One service's replica endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEntry {
    /// Service name.
    pub name: String,
    /// Endpoint URI callers use (defaults to `urn:svc:<name>`).
    pub(crate) uri: String,
    /// Replica endpoints in index order.
    pub(crate) endpoints: Vec<(String, u16)>,
}

impl ServiceEntry {
    /// Number of replicas.
    pub fn n(&self) -> u32 {
        self.endpoints.len() as u32
    }

    /// Tolerated faults: `f = (n-1)/3`.
    #[cfg(test)]
    pub(crate) fn f(&self) -> u32 {
        (self.n().saturating_sub(1)) / 3
    }
}

/// A parsed `replicas.xml`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplicasConfig {
    /// All declared services.
    pub services: Vec<ServiceEntry>,
}

impl ReplicasConfig {
    /// Finds a service by name.
    #[cfg(test)]
    pub(crate) fn service(&self, name: &str) -> Option<&ServiceEntry> {
        self.services.iter().find(|s| s.name == name)
    }

    /// Serializes back to `replicas.xml` form.
    pub(crate) fn to_xml(&self) -> String {
        let mut root = XmlNode::new("replicas");
        for s in &self.services {
            let mut node = XmlNode::new("service")
                .attr("name", s.name.clone())
                .attr("uri", s.uri.clone());
            for (host, port) in &s.endpoints {
                node = node.child(
                    XmlNode::new("replica")
                        .attr("host", host.clone())
                        .attr("port", port.to_string()),
                );
            }
            root = root.child(node);
        }
        root.to_document()
    }
}

/// Error from parsing a deployment descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentError {
    what: String,
}

impl DeploymentError {
    fn new(what: impl Into<String>) -> Self {
        DeploymentError { what: what.into() }
    }
}

impl fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid replicas.xml: {}", self.what)
    }
}

impl std::error::Error for DeploymentError {}

/// Parses a `replicas.xml` document.
///
/// # Errors
///
/// Returns [`DeploymentError`] on malformed XML, missing attributes,
/// duplicate services, or group sizes that are not `3f + 1`.
pub fn parse_replicas_xml(xml: &str) -> Result<ReplicasConfig, DeploymentError> {
    let root = XmlNode::parse(xml).map_err(|e| DeploymentError::new(format!("xml: {e}")))?;
    if root.name != "replicas" {
        return Err(DeploymentError::new("root element must be <replicas>"));
    }
    let mut services = Vec::new();
    for svc in root.find_all("service") {
        let name = svc
            .attribute("name")
            .ok_or_else(|| DeploymentError::new("service missing name"))?
            .to_owned();
        if services.iter().any(|s: &ServiceEntry| s.name == name) {
            return Err(DeploymentError::new(format!("duplicate service '{name}'")));
        }
        let uri = svc
            .attribute("uri")
            .map(str::to_owned)
            .unwrap_or_else(|| format!("urn:svc:{name}"));
        let mut endpoints = Vec::new();
        for rep in svc.find_all("replica") {
            let host = rep
                .attribute("host")
                .ok_or_else(|| DeploymentError::new("replica missing host"))?
                .to_owned();
            let port: u16 = rep
                .attribute("port")
                .unwrap_or("8080")
                .parse()
                .map_err(|_| DeploymentError::new("bad port"))?;
            endpoints.push((host, port));
        }
        let n = endpoints.len() as u32;
        if n == 0 || !(n - 1).is_multiple_of(3) {
            return Err(DeploymentError::new(format!(
                "service '{name}' has {n} replicas; must be 3f+1"
            )));
        }
        services.push(ServiceEntry {
            name,
            uri,
            endpoints,
        });
    }
    Ok(ReplicasConfig { services })
}

/// A sample descriptor matching the paper's TPC-W deployment (Fig. 5).
pub fn sample_replicas_xml() -> String {
    let mk = |name: &str, n: u32| ServiceEntry {
        name: name.to_owned(),
        uri: format!("urn:svc:{name}"),
        endpoints: (0..n).map(|i| (format!("10.0.{name}.{i}"), 8080)).collect(),
    };
    ReplicasConfig {
        services: vec![mk("bookstore", 1), mk("pge", 4), mk("bank", 4)],
    }
    .to_xml()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_roundtrips() {
        let xml = sample_replicas_xml();
        let cfg = parse_replicas_xml(&xml).unwrap();
        assert_eq!(cfg.services.len(), 3);
        let pge = cfg.service("pge").unwrap();
        assert_eq!(pge.n(), 4);
        assert_eq!(pge.f(), 1);
        assert_eq!(pge.uri, "urn:svc:pge");
        let again = parse_replicas_xml(&cfg.to_xml()).unwrap();
        assert_eq!(cfg, again);
    }

    #[test]
    fn rejects_bad_sizes_and_duplicates() {
        let bad_size = r#"<replicas><service name="x" uri="u">
            <replica host="a"/><replica host="b"/></service></replicas>"#;
        assert!(parse_replicas_xml(bad_size).is_err());

        let dup = r#"<replicas>
            <service name="x"><replica host="a"/></service>
            <service name="x"><replica host="b"/></service>
        </replicas>"#;
        let err = parse_replicas_xml(dup).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_replicas_xml("<wrong/>").is_err());
        assert!(parse_replicas_xml("not xml").is_err());
        assert!(parse_replicas_xml(
            r#"<replicas><service><replica host="a"/></service></replicas>"#
        )
        .is_err());
        assert!(parse_replicas_xml(
            r#"<replicas><service name="x"><replica host="a" port="notnum"/></service></replicas>"#
        )
        .is_err());
    }

    #[test]
    fn default_uri_and_port() {
        let cfg = parse_replicas_xml(
            r#"<replicas><service name="svc"><replica host="h"/></service></replicas>"#,
        )
        .unwrap();
        let s = cfg.service("svc").unwrap();
        assert_eq!(s.uri, "urn:svc:svc");
        assert_eq!(s.endpoints[0], ("h".to_owned(), 8080));
    }
}
