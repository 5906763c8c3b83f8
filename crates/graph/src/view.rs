//! Partial, *claimed* topology knowledge.
//!
//! Algorithm 1 of the paper has every node `u` maintain an approximation
//! `B̂(u, i)` of its `i`-hop neighbourhood, built from whatever its
//! neighbours (honest or Byzantine) broadcast. [`TopologyView`] is that
//! object: a set of nodes each of which may have *announced* its full
//! incident edge list, plus the frontier of nodes that are merely mentioned
//! as someone's neighbour.
//!
//! The view enforces the two write-time consistency rules that the paper's
//! `inconsistent` predicate (Algorithm 1, lines 16–18) relies on:
//!
//! 1. a node's edge list, once announced, can never change
//!    ("`I` contains a set of incident edges for some node `v`, but already
//!    `v ∈ B̂(u, j)` for some `j ⩽ i−1`"), and
//! 2. announced edge lists must be mutually symmetric — if `v` and `w` have
//!    both announced, either both list each other or neither does.
//!
//! Degree bounds (`degree > Δ`) are checked by the protocol, which knows Δ.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use crate::{Graph, GraphBuilder, NodeId};

/// A conflict detected while merging claimed topology information.
///
/// Observing an inconsistency is a *decision trigger* in Algorithm 1, not a
/// failure: the receiving node decides on its current radius.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ViewInconsistency<I> {
    /// A node's incident edge list was re-announced with different content.
    ConflictingAnnouncement {
        /// The node whose edge list conflicted.
        node: I,
    },
    /// Two announced nodes disagree about the edge between them.
    AsymmetricEdge {
        /// Endpoint claiming the edge.
        from: I,
        /// Endpoint denying the edge.
        to: I,
    },
}

impl<I: fmt::Debug> fmt::Display for ViewInconsistency<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewInconsistency::ConflictingAnnouncement { node } => {
                write!(f, "conflicting edge-list announcement for node {node:?}")
            }
            ViewInconsistency::AsymmetricEdge { from, to } => {
                write!(f, "asymmetric edge claim {from:?} -> {to:?}")
            }
        }
    }
}

impl<I: fmt::Debug> Error for ViewInconsistency<I> {}

/// Claimed knowledge of part of the network topology.
///
/// Generic over the identifier type `I` so that the simulation layer can use
/// opaque protocol-level identities; analysis code converts to a dense
/// [`Graph`] via [`TopologyView::to_graph`].
///
/// # Example
///
/// ```
/// use bcount_graph::TopologyView;
///
/// let mut view: TopologyView<u64> = TopologyView::new();
/// view.announce(1, [2, 3])?;
/// assert_eq!(view.announced_count(), 1);
/// // 2 and 3 are mentioned but have not announced their own edges yet.
/// assert_eq!(view.frontier().count(), 2);
/// # Ok::<(), bcount_graph::view::ViewInconsistency<u64>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyView<I: Ord> {
    /// Announced full edge lists.
    adj: BTreeMap<I, BTreeSet<I>>,
    /// Every node ever mentioned (announced or named as a neighbour).
    mentioned: BTreeSet<I>,
    /// Reverse index: which *announced* nodes name each node as a
    /// neighbour. Keeps announcement-time symmetry checks and
    /// [`TopologyView::claimed_degree`] linear in the announcement size
    /// instead of the view size.
    namers: BTreeMap<I, BTreeSet<I>>,
}

impl<I: Ord> Default for TopologyView<I> {
    fn default() -> Self {
        TopologyView {
            adj: BTreeMap::new(),
            mentioned: BTreeSet::new(),
            namers: BTreeMap::new(),
        }
    }
}

impl<I: Copy + Ord> TopologyView<I> {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `node` announced `edges` as its complete incident list.
    ///
    /// Re-announcing an identical list is a no-op. Self-loops in the claimed
    /// list are preserved (an honest node never sends them, so they surface
    /// as degree anomalies for the protocol's Δ-check).
    ///
    /// # Errors
    ///
    /// Returns a [`ViewInconsistency`] if `node` already announced a
    /// different list, or if the announcement is asymmetric with respect to
    /// an already-announced neighbour.
    pub fn announce(
        &mut self,
        node: I,
        edges: impl IntoIterator<Item = I>,
    ) -> Result<(), ViewInconsistency<I>> {
        let set: BTreeSet<I> = edges.into_iter().collect();
        if let Some(existing) = self.adj.get(&node) {
            if *existing != set {
                return Err(ViewInconsistency::ConflictingAnnouncement { node });
            }
            return Ok(());
        }
        self.insert_new(node, set)
    }

    /// Records the announcement of a node that has not announced yet,
    /// after the symmetry checks against the already-announced peers.
    fn insert_new(&mut self, node: I, set: BTreeSet<I>) -> Result<(), ViewInconsistency<I>> {
        // Symmetry against already-announced peers, in O(|set| log + |namers|):
        // (a) every announced node in the new list must name us back;
        // (b) every announced node already naming us must be in the list.
        for peer in &set {
            if *peer == node {
                continue;
            }
            if let Some(peer_edges) = self.adj.get(peer) {
                if !peer_edges.contains(&node) {
                    return Err(ViewInconsistency::AsymmetricEdge {
                        from: node,
                        to: *peer,
                    });
                }
            }
        }
        if let Some(namers) = self.namers.get(&node) {
            for namer in namers {
                if *namer != node && !set.contains(namer) {
                    return Err(ViewInconsistency::AsymmetricEdge {
                        from: *namer,
                        to: node,
                    });
                }
            }
        }
        self.mentioned.insert(node);
        self.mentioned.extend(set.iter().copied());
        for peer in &set {
            self.namers.entry(*peer).or_default().insert(node);
        }
        self.adj.insert(node, set);
        Ok(())
    }

    /// Merges all announcements of `other` into `self`.
    ///
    /// Returns `true` if anything new was learned.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ViewInconsistency`] encountered; the view may
    /// have absorbed earlier announcements from `other` at that point (the
    /// protocol decides immediately on inconsistency, so partial merges are
    /// harmless).
    pub fn merge(&mut self, other: &TopologyView<I>) -> Result<bool, ViewInconsistency<I>> {
        let mut changed = false;
        for (node, edges) in &other.adj {
            // The same outcome as `announce`, without building a fresh set
            // for a node this view already holds: most of a received view
            // repeats what the receiver learned in earlier rounds.
            match self.adj.get(node) {
                Some(existing) if existing == edges => {}
                Some(_) => return Err(ViewInconsistency::ConflictingAnnouncement { node: *node }),
                None => {
                    self.insert_new(*node, edges.clone())?;
                    changed = true;
                }
            }
        }
        Ok(changed)
    }

    /// Whether `node` has announced its edge list.
    pub fn is_announced(&self, node: I) -> bool {
        self.adj.contains_key(&node)
    }

    /// The announced edge list of `node`, if any.
    pub fn announced_edges(&self, node: I) -> Option<&BTreeSet<I>> {
        self.adj.get(&node)
    }

    /// Number of nodes with announced edge lists.
    pub fn announced_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of nodes mentioned anywhere in the view.
    pub fn mentioned_count(&self) -> usize {
        self.mentioned.len()
    }

    /// Iterator over nodes with announced edge lists.
    pub fn announced(&self) -> impl Iterator<Item = I> + '_ {
        self.adj.keys().copied()
    }

    /// Iterator over every mentioned node.
    pub fn nodes(&self) -> impl Iterator<Item = I> + '_ {
        self.mentioned.iter().copied()
    }

    /// Nodes mentioned as neighbours but not yet announced — the knowledge
    /// frontier of the view.
    pub fn frontier(&self) -> impl Iterator<Item = I> + '_ {
        self.mentioned
            .iter()
            .copied()
            .filter(move |v| !self.adj.contains_key(v))
    }

    /// Claimed degree of `node`: announced list size if announced, otherwise
    /// the number of announced nodes naming it.
    pub fn claimed_degree(&self, node: I) -> usize {
        match self.adj.get(&node) {
            Some(set) => set.len(),
            None => self.namers.get(&node).map_or(0, |s| s.len()),
        }
    }

    /// Maximum claimed degree over *all* mentioned nodes — announced lists
    /// for announced nodes, namer counts for frontier nodes. Used for the
    /// `degree > Δ` inconsistency trigger of Algorithm 1.
    pub fn max_claimed_degree(&self) -> usize {
        let frontier_max = self
            .namers
            .iter()
            .filter(|(node, _)| !self.adj.contains_key(node))
            .map(|(_, s)| s.len())
            .max()
            .unwrap_or(0);
        self.max_announced_degree().max(frontier_max)
    }

    /// Maximum claimed degree over announced nodes (0 if none).
    pub fn max_announced_degree(&self) -> usize {
        self.adj.values().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Materializes the view as a dense [`Graph`] over all mentioned nodes.
    ///
    /// Returns the graph and the identifier of each dense index. An edge is
    /// included if either endpoint announced it (symmetry between announced
    /// endpoints is already enforced at write time, so no edge is counted
    /// twice).
    pub fn to_graph(&self) -> (Graph, Vec<I>) {
        let order: Vec<I> = self.mentioned.iter().copied().collect();
        let index: BTreeMap<I, u32> = order
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        let mut b = GraphBuilder::new(order.len());
        let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (&u, edges) in &self.adj {
            let ui = index[&u];
            for &v in edges {
                let vi = index[&v];
                let key = (ui.min(vi), ui.max(vi));
                if seen.insert(key) {
                    b.add_edge(NodeId(key.0), NodeId(key.1));
                }
            }
        }
        (b.build(), order)
    }
}

impl<I: Copy + Ord> FromIterator<(I, Vec<I>)> for TopologyView<I> {
    /// Builds a view from `(node, edge list)` announcements.
    ///
    /// # Panics
    ///
    /// Panics if the announcements are mutually inconsistent; use
    /// [`TopologyView::announce`] to handle inconsistency as data.
    fn from_iter<T: IntoIterator<Item = (I, Vec<I>)>>(iter: T) -> Self {
        let mut view = TopologyView::new();
        for (node, edges) in iter {
            view.announce(node, edges)
                .unwrap_or_else(|_| panic!("inconsistent announcements in FromIterator"));
        }
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_and_frontier() {
        let mut v: TopologyView<u32> = TopologyView::new();
        v.announce(0, [1, 2]).unwrap();
        assert!(v.is_announced(0));
        assert!(!v.is_announced(1));
        assert_eq!(v.mentioned_count(), 3);
        let mut f: Vec<_> = v.frontier().collect();
        f.sort();
        assert_eq!(f, vec![1, 2]);
    }

    #[test]
    fn reannouncement_must_match() {
        let mut v: TopologyView<u32> = TopologyView::new();
        v.announce(0, [1]).unwrap();
        assert!(v.announce(0, [1]).is_ok());
        let err = v.announce(0, [1, 2]).unwrap_err();
        assert_eq!(err, ViewInconsistency::ConflictingAnnouncement { node: 0 });
    }

    #[test]
    fn asymmetric_claims_detected() {
        let mut v: TopologyView<u32> = TopologyView::new();
        v.announce(0, [1]).unwrap();
        // 1 announces but denies the edge to 0.
        let err = v.announce(1, [2]).unwrap_err();
        assert!(matches!(err, ViewInconsistency::AsymmetricEdge { .. }));
        // Claiming an edge the peer never announced is also asymmetric.
        let mut v: TopologyView<u32> = TopologyView::new();
        v.announce(0, [1]).unwrap();
        let err = v.announce(2, [0]).unwrap_err();
        assert_eq!(err, ViewInconsistency::AsymmetricEdge { from: 2, to: 0 });
    }

    #[test]
    fn merge_accumulates_and_reports_change() {
        let mut a: TopologyView<u32> = TopologyView::new();
        a.announce(0, [1]).unwrap();
        let mut b: TopologyView<u32> = TopologyView::new();
        b.announce(1, [0, 2]).unwrap();
        assert!(a.merge(&b).unwrap());
        assert!(!a.merge(&b).unwrap());
        assert_eq!(a.announced_count(), 2);
        assert_eq!(a.mentioned_count(), 3);
    }

    #[test]
    fn remerging_an_identical_view_learns_nothing() {
        let mut a: TopologyView<u32> = TopologyView::new();
        a.announce(0, [1, 2]).unwrap();
        a.announce(1, [0]).unwrap();
        let copy = a.clone();
        assert!(!a.merge(&copy).unwrap());
        assert_eq!(a, copy);
    }

    #[test]
    fn merge_reports_a_conflict_past_the_first_node() {
        let mut a: TopologyView<u32> = TopologyView::new();
        a.announce(0, [1]).unwrap();
        a.announce(5, [6]).unwrap();
        // Node 0 agrees, node 5 does not: the conflict sits after an
        // announcement the receiver already holds.
        let mut b: TopologyView<u32> = TopologyView::new();
        b.announce(0, [1]).unwrap();
        b.announce(5, [6, 7]).unwrap();
        assert_eq!(
            a.merge(&b).unwrap_err(),
            ViewInconsistency::ConflictingAnnouncement { node: 5 }
        );
    }

    #[test]
    fn merge_is_commutative_on_consistent_views() {
        let mut a: TopologyView<u32> = TopologyView::new();
        a.announce(0, [1]).unwrap();
        let mut b: TopologyView<u32> = TopologyView::new();
        b.announce(1, [0]).unwrap();
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn claimed_degree_counts_mentions_for_frontier() {
        let mut v: TopologyView<u32> = TopologyView::new();
        v.announce(0, [5]).unwrap();
        v.announce(1, [5]).unwrap();
        assert_eq!(v.claimed_degree(5), 2);
        assert_eq!(v.claimed_degree(0), 1);
        assert_eq!(v.max_announced_degree(), 1);
    }

    #[test]
    fn to_graph_materializes_mentioned_nodes() {
        let mut v: TopologyView<u64> = TopologyView::new();
        v.announce(10, [20, 30]).unwrap();
        v.announce(20, [10]).unwrap();
        let (g, order) = v.to_graph();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(order, vec![10, 20, 30]);
        // Edge listed by both endpoints must appear once.
        let i10 = 0;
        let i20 = 1;
        assert!(g.has_edge(NodeId(i10), NodeId(i20)));
    }

    #[test]
    fn from_iterator_builds_consistent_view() {
        let v: TopologyView<u32> = vec![(0, vec![1]), (1, vec![0])].into_iter().collect();
        assert_eq!(v.announced_count(), 2);
    }
}
