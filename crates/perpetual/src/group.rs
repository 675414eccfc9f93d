//! Replica groups and deployment topology.

use pws_crypto::keys::Principal;
use pws_simnet::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one replicated service (or an unreplicated endpoint, which is
/// a degenerate group of size 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct GroupInfo {
    nodes: Vec<NodeId>,
}

/// The static deployment map: which simnet nodes host which replica of
/// which group. The Perpetual-WS paper stores this in `replicas.xml`
/// (§5.2); `perpetual-ws::deployment` parses that format into this struct.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    groups: BTreeMap<GroupId, GroupInfo>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Registers a group and the nodes hosting its replicas, in replica-index
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the group was already registered or `nodes` is not a legal
    /// BFT group size (`3f + 1`).
    pub fn register(&mut self, group: GroupId, nodes: Vec<NodeId>) {
        assert!(
            !self.groups.contains_key(&group),
            "group {group:?} registered twice"
        );
        let n = nodes.len() as u32;
        assert!(
            n >= 1 && (n - 1).is_multiple_of(3),
            "group size must be 3f+1, got {n}"
        );
        self.groups.insert(group, GroupInfo { nodes });
    }

    /// Number of replicas in `group`.
    ///
    /// # Panics
    ///
    /// Panics if the group is unknown.
    pub(crate) fn n(&self, group: GroupId) -> u32 {
        self.info(group).nodes.len() as u32
    }

    /// Fault tolerance of `group`: `f = (n-1)/3`.
    pub(crate) fn f(&self, group: GroupId) -> u32 {
        (self.n(group) - 1) / 3
    }

    /// The simnet node hosting replica `idx` of `group`.
    ///
    /// # Panics
    ///
    /// Panics if the group or index is unknown.
    pub fn node(&self, group: GroupId, idx: u32) -> NodeId {
        self.info(group).nodes[idx as usize]
    }

    /// All nodes of `group`, in replica order.
    pub(crate) fn nodes(&self, group: GroupId) -> &[NodeId] {
        &self.info(group).nodes
    }

    /// The crypto principal of replica `idx` of `group`.
    pub(crate) fn principal(&self, group: GroupId, idx: u32) -> Principal {
        Principal::new(group.0, idx)
    }

    /// Principals of every replica of `group`.
    pub(crate) fn principals(&self, group: GroupId) -> Vec<Principal> {
        (0..self.n(group))
            .map(|i| Principal::new(group.0, i))
            .collect()
    }

    /// Whether `group` is registered.
    pub(crate) fn contains(&self, group: GroupId) -> bool {
        self.groups.contains_key(&group)
    }

    fn info(&self, group: GroupId) -> &GroupInfo {
        self.groups
            .get(&group)
            .unwrap_or_else(|| panic!("unknown group {group:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId::from_raw).collect()
    }

    #[test]
    fn register_and_query() {
        let mut t = Topology::new();
        t.register(GroupId(0), nodes(0..4));
        t.register(GroupId(1), nodes(4..5));
        assert_eq!(t.n(GroupId(0)), 4);
        assert_eq!(t.f(GroupId(0)), 1);
        assert_eq!(t.n(GroupId(1)), 1);
        assert_eq!(t.f(GroupId(1)), 0);
        assert_eq!(t.node(GroupId(0), 2), NodeId::from_raw(2));
        assert!(t.contains(GroupId(1)));
        assert!(!t.contains(GroupId(9)));
        assert_eq!(t.groups.len(), 2);
        assert_eq!(t.principals(GroupId(0)).len(), 4);
        assert_eq!(t.principal(GroupId(1), 0), Principal::new(1, 0));
        assert_eq!(t.nodes(GroupId(0)).len(), 4);
    }

    #[test]
    #[should_panic(expected = "3f+1")]
    fn rejects_bad_group_size() {
        let mut t = Topology::new();
        t.register(GroupId(0), nodes(0..3));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn rejects_duplicate_group() {
        let mut t = Topology::new();
        t.register(GroupId(0), nodes(0..1));
        t.register(GroupId(0), nodes(1..2));
    }

    #[test]
    #[should_panic(expected = "unknown group")]
    fn unknown_group_panics() {
        let t = Topology::new();
        t.n(GroupId(3));
    }
}
