use crate::{GraphError, NodeId};
use std::fmt;

/// A directed edge `source -> destination`.
///
/// During aggregation the destination node reads the source node's feature,
/// so an edge `(u, v)` means "v aggregates from u".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source node (feature producer).
    pub src: NodeId,
    /// Destination node (feature consumer / aggregator).
    pub dst: NodeId,
}

impl Edge {
    /// Creates a new edge.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Self { src, dst }
    }

    /// Returns the edge with source and destination swapped.
    pub fn reversed(self) -> Self {
        Edge {
            src: self.dst,
            dst: self.src,
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

impl From<(NodeId, NodeId)> for Edge {
    fn from((src, dst): (NodeId, NodeId)) -> Self {
        Edge { src, dst }
    }
}

/// An edge-list representation of a directed graph.
///
/// The edge list is the representation consumed by the 2-D sharding algorithm
/// (the paper shards "a graph's edge list ... into shards such that each shard
/// contains a maximum of n² edges"). It is also the natural input format for
/// synthetic generators.
///
/// The list tracks whether its edges are currently sorted by `(src, dst)`.
/// The canonicalising operations ([`EdgeList::dedup`],
/// [`EdgeList::symmetrize`], [`EdgeList::add_self_loops`]) exploit the
/// invariant: on an already-sorted list they run as single merge passes
/// instead of re-sorting the whole edge vector, which is what makes repeated
/// pipeline stages (dedup → symmetrize → self-loops) linear instead of
/// `O(E log E)` each.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::EdgeList;
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let edges = EdgeList::from_pairs(3, &[(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(edges.num_edges(), 3);
/// assert_eq!(edges.num_nodes(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EdgeList {
    num_nodes: usize,
    edges: Vec<Edge>,
    /// Whether `edges` is sorted ascending by `(src, dst)`. Maintained
    /// incrementally by `push`/`extend` and restored by the canonicalising
    /// operations; lets no-op sorts be skipped.
    sorted: bool,
}

/// Equality ignores the internal sortedness flag: two lists holding the same
/// edges in the same order are equal however they were built.
impl PartialEq for EdgeList {
    fn eq(&self, other: &Self) -> bool {
        self.num_nodes == other.num_nodes && self.edges == other.edges
    }
}

impl Eq for EdgeList {}

impl EdgeList {
    /// Creates an empty edge list over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
            sorted: true,
        }
    }

    /// Builds an edge list from `(src, dst)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= num_nodes`.
    pub fn from_pairs(num_nodes: usize, pairs: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut list = Self::new(num_nodes);
        for &(src, dst) in pairs {
            list.push(Edge::new(src, dst))?;
        }
        Ok(list)
    }

    /// Builds an edge list from already-validated edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        for e in &edges {
            Self::validate(num_nodes, *e)?;
        }
        let sorted = edges.windows(2).all(|w| w[0] <= w[1]);
        Ok(Self {
            num_nodes,
            edges,
            sorted,
        })
    }

    /// Builds an edge list from edges known to be validated and sorted by
    /// `(src, dst)` — the chunked builder and the artifact cache's merge
    /// paths use this to skip the `O(E)` re-checks.
    pub(crate) fn from_sorted_edges_unchecked(num_nodes: usize, edges: Vec<Edge>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(edges
            .iter()
            .all(|e| (e.src as usize) < num_nodes && (e.dst as usize) < num_nodes));
        Self {
            num_nodes,
            edges,
            sorted: true,
        }
    }

    /// Builds an edge list from edges whose endpoints the caller has
    /// already checked against `num_nodes`, and whose sortedness it has
    /// already determined — the artifact cache's streaming load does both as
    /// it decodes, so nothing is scanned twice.
    pub(crate) fn from_checked_edges(num_nodes: usize, edges: Vec<Edge>, sorted: bool) -> Self {
        debug_assert_eq!(sorted, edges.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(edges
            .iter()
            .all(|e| (e.src as usize) < num_nodes && (e.dst as usize) < num_nodes));
        Self {
            num_nodes,
            edges,
            sorted,
        }
    }

    fn validate(num_nodes: usize, edge: Edge) -> Result<(), GraphError> {
        for node in [edge.src, edge.dst] {
            if node as usize >= num_nodes {
                return Err(GraphError::NodeOutOfRange { node, num_nodes });
            }
        }
        Ok(())
    }

    /// Appends an edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range.
    pub fn push(&mut self, edge: Edge) -> Result<(), GraphError> {
        Self::validate(self.num_nodes, edge)?;
        self.sorted = self.sorted && self.edges.last().is_none_or(|last| *last <= edge);
        self.edges.push(edge);
        Ok(())
    }

    /// Number of nodes in the graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the edge list contains no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Returns `true` if the edges are known to be sorted by `(src, dst)`.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Iterates over the edges in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Edge> {
        self.edges.iter()
    }

    /// Returns the edges as a slice.
    pub fn as_slice(&self) -> &[Edge] {
        &self.edges
    }

    /// Consumes the list, returning its edge vector without a copy.
    pub(crate) fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Sorts edges by `(src, dst)` and removes duplicates and self-loops.
    ///
    /// Citation graphs are simple graphs; the synthetic generators may emit
    /// duplicates which are removed here so the statistics stay faithful.
    /// Already-sorted lists skip the sort and run a single linear pass.
    pub fn dedup(&mut self) {
        // `retain` preserves order, so sortedness survives the filter.
        self.edges.retain(|e| e.src != e.dst);
        if !self.sorted {
            self.edges.sort_unstable();
            self.sorted = true;
        }
        self.edges.dedup();
    }

    /// Adds the reverse of every edge and deduplicates, making the graph
    /// symmetric (undirected semantics, as used by the citation datasets).
    ///
    /// On a sorted list this is one sort of the *reversed* half plus a single
    /// merge pass; the original edges are never re-sorted.
    pub fn symmetrize(&mut self) {
        if !self.sorted {
            let reversed: Vec<Edge> = self.edges.iter().map(|e| e.reversed()).collect();
            self.edges.extend(reversed);
            self.dedup();
            return;
        }
        let mut reversed: Vec<Edge> = self
            .edges
            .iter()
            .filter(|e| e.src != e.dst)
            .map(|e| e.reversed())
            .collect();
        reversed.sort_unstable();
        let forward = std::mem::take(&mut self.edges);
        self.edges = merge_sorted_unique(
            forward.into_iter().filter(|e| e.src != e.dst),
            reversed.into_iter(),
        )
        .collect();
        self.sorted = true;
    }

    /// Adds a self-loop `v -> v` for every node that the GNN formulation
    /// includes in its own neighbourhood (`N(u) ∪ u` in Eq. 1).
    ///
    /// The result is sorted and deduplicated; a sorted input takes a single
    /// merge pass with the (already sorted) loop sequence instead of a full
    /// re-sort.
    pub fn add_self_loops(&mut self) {
        let loops = (0..self.num_nodes as NodeId).map(|v| Edge::new(v, v));
        if !self.sorted {
            self.edges.extend(loops);
            self.edges.sort_unstable();
            self.sorted = true;
            self.edges.dedup();
            return;
        }
        let existing = std::mem::take(&mut self.edges);
        self.edges = merge_sorted_unique(existing.into_iter(), loops).collect();
        self.sorted = true;
    }

    /// Out-degree of every node.
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes];
        for e in &self.edges {
            deg[e.src as usize] += 1;
        }
        deg
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes];
        for e in &self.edges {
            deg[e.dst as usize] += 1;
        }
        deg
    }
}

/// Merges two individually sorted edge sequences into one sorted sequence,
/// dropping duplicates (within and across the inputs), lazily.
pub(crate) fn merge_sorted_unique(
    a: impl Iterator<Item = Edge>,
    b: impl Iterator<Item = Edge>,
) -> impl Iterator<Item = Edge> {
    let mut a = a.peekable();
    let mut b = b.peekable();
    let mut last: Option<Edge> = None;
    std::iter::from_fn(move || loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) if x <= y => a.next(),
            (Some(_), Some(_)) => b.next(),
            (Some(_), None) => a.next(),
            (None, _) => b.next(),
        }?;
        if last != Some(next) {
            last = Some(next);
            return Some(next);
        }
    })
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

impl Extend<Edge> for EdgeList {
    /// Extends the list with edges, silently clamping out-of-range endpoints
    /// is **not** done; out-of-range edges are skipped. Prefer [`EdgeList::push`]
    /// when error reporting matters.
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        for edge in iter {
            if Self::validate(self.num_nodes, edge).is_ok() {
                self.sorted = self.sorted && self.edges.last().is_none_or(|last| *last <= edge);
                self.edges.push(edge);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_validates_endpoints() {
        assert!(EdgeList::from_pairs(3, &[(0, 1), (1, 2)]).is_ok());
        assert!(matches!(
            EdgeList::from_pairs(3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, .. })
        ));
    }

    #[test]
    fn push_appends_and_counts() {
        let mut list = EdgeList::new(4);
        assert!(list.is_empty());
        list.push(Edge::new(0, 1)).unwrap();
        list.push(Edge::new(1, 0)).unwrap();
        assert_eq!(list.num_edges(), 2);
        assert!(!list.is_empty());
    }

    #[test]
    fn dedup_removes_duplicates_and_self_loops() {
        let mut list = EdgeList::from_pairs(3, &[(0, 1), (0, 1), (1, 1), (2, 0)]).unwrap();
        list.dedup();
        assert_eq!(list.num_edges(), 2);
        assert!(list.iter().all(|e| e.src != e.dst));
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let mut list = EdgeList::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        list.symmetrize();
        assert_eq!(list.num_edges(), 4);
        assert!(list.as_slice().contains(&Edge::new(1, 0)));
        assert!(list.as_slice().contains(&Edge::new(2, 1)));
    }

    #[test]
    fn add_self_loops_covers_every_node() {
        let mut list = EdgeList::from_pairs(3, &[(0, 1)]).unwrap();
        list.add_self_loops();
        for v in 0..3 {
            assert!(list.as_slice().contains(&Edge::new(v, v)));
        }
        assert_eq!(list.num_edges(), 4);
    }

    #[test]
    fn degree_counts() {
        let list = EdgeList::from_pairs(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        assert_eq!(list.out_degrees(), vec![2, 1, 0]);
        assert_eq!(list.in_degrees(), vec![0, 1, 2]);
    }

    #[test]
    fn reversed_edge_swaps_endpoints() {
        let e = Edge::new(3, 7);
        assert_eq!(e.reversed(), Edge::new(7, 3));
        assert_eq!(Edge::from((1, 2)), Edge::new(1, 2));
    }

    #[test]
    fn extend_skips_invalid_edges() {
        let mut list = EdgeList::new(2);
        list.extend(vec![Edge::new(0, 1), Edge::new(0, 5)]);
        assert_eq!(list.num_edges(), 1);
    }

    #[test]
    fn display_edge() {
        assert_eq!(Edge::new(1, 2).to_string(), "1 -> 2");
    }

    #[test]
    fn iterate_edges() {
        let list = EdgeList::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        let collected: Vec<Edge> = list.iter().copied().collect();
        assert_eq!(collected.len(), 2);
        let borrowed: Vec<&Edge> = (&list).into_iter().collect();
        assert_eq!(borrowed.len(), 2);
    }

    #[test]
    fn sortedness_is_tracked_incrementally() {
        let mut list = EdgeList::new(5);
        assert!(list.is_sorted(), "empty list is trivially sorted");
        list.push(Edge::new(0, 1)).unwrap();
        list.push(Edge::new(0, 1)).unwrap(); // duplicate keeps sortedness
        list.push(Edge::new(2, 3)).unwrap();
        assert!(list.is_sorted());
        list.push(Edge::new(1, 0)).unwrap();
        assert!(!list.is_sorted());
        // Canonicalising restores the invariant.
        list.dedup();
        assert!(list.is_sorted());
        assert_eq!(
            list.as_slice(),
            &[Edge::new(0, 1), Edge::new(1, 0), Edge::new(2, 3)]
        );
    }

    #[test]
    fn from_edges_detects_sortedness() {
        let sorted = EdgeList::from_edges(4, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        assert!(sorted.is_sorted());
        let unsorted = EdgeList::from_edges(4, vec![Edge::new(1, 2), Edge::new(0, 1)]).unwrap();
        assert!(!unsorted.is_sorted());
    }

    /// Reference implementations of the canonicalising operations, the way
    /// they worked before sortedness tracking: always a full sort + dedup.
    fn reference_dedup(pairs: &[(NodeId, NodeId)], n: usize) -> Vec<Edge> {
        let mut edges: Vec<Edge> = pairs
            .iter()
            .map(|&(s, d)| Edge::new(s, d))
            .filter(|e| e.src != e.dst && (e.src as usize) < n && (e.dst as usize) < n)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    #[test]
    fn merge_based_ops_match_the_resort_reference() {
        let pairs: &[(NodeId, NodeId)] = &[(0, 1), (3, 2), (0, 1), (2, 2), (1, 0), (3, 0), (2, 3)];
        let n = 4;

        // dedup on sorted and unsorted inputs.
        for presort in [false, true] {
            let mut list = EdgeList::from_pairs(n, pairs).unwrap();
            if presort {
                list.dedup(); // canonicalise first so the second call is the fast path
            }
            list.dedup();
            assert_eq!(list.as_slice(), reference_dedup(pairs, n).as_slice());
            assert!(list.is_sorted());
        }

        // symmetrize: sorted fast path against the extend-then-sort reference.
        let mut fast = EdgeList::from_pairs(n, pairs).unwrap();
        fast.dedup();
        fast.symmetrize();
        let mut reference: Vec<Edge> = reference_dedup(pairs, n);
        reference.extend(
            reference_dedup(pairs, n)
                .iter()
                .map(|e| e.reversed())
                .collect::<Vec<_>>(),
        );
        reference.sort_unstable();
        reference.dedup();
        assert_eq!(fast.as_slice(), reference.as_slice());
        assert!(fast.is_sorted());

        // add_self_loops: sorted fast path against sort+dedup semantics.
        let mut fast = EdgeList::from_pairs(n, pairs).unwrap();
        fast.dedup();
        fast.add_self_loops();
        let mut reference = reference_dedup(pairs, n);
        reference.extend((0..n as NodeId).map(|v| Edge::new(v, v)));
        reference.sort_unstable();
        reference.dedup();
        assert_eq!(fast.as_slice(), reference.as_slice());
        assert!(fast.is_sorted());
    }

    #[test]
    fn add_self_loops_does_not_duplicate_existing_loops() {
        let mut list = EdgeList::from_pairs(3, &[(0, 0), (0, 1)]).unwrap();
        list.add_self_loops();
        assert_eq!(list.num_edges(), 4); // (0,0) once, (0,1), (1,1), (2,2)
        assert!(list.is_sorted());
    }

    #[test]
    fn equality_ignores_the_sortedness_flag() {
        let a = EdgeList::from_edges(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        let mut b = EdgeList::new(3);
        b.push(Edge::new(0, 1)).unwrap();
        b.push(Edge::new(1, 2)).unwrap();
        assert_eq!(a, b);
    }
}
