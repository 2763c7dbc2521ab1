use crate::{Edge, EdgeList, GraphError, NodeId};

/// A directed graph in compressed-sparse-row (CSR) form, indexed by
/// destination node.
///
/// `neighbors(v)` returns the *in-neighbourhood* of `v` — the set of source
/// nodes whose features `v` aggregates — because the aggregation stage of a
/// GNN is a gather over incoming edges. The reference executor, the
/// functional accelerator model and the statistics module all consume this
/// form; the timing model consumes the sharded edge list instead.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{CsrGraph, EdgeList};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let edges = EdgeList::from_pairs(3, &[(0, 2), (1, 2), (2, 0)])?;
/// let graph = CsrGraph::from_edge_list(&edges);
/// assert_eq!(graph.neighbors(2), &[0, 1]);
/// assert_eq!(graph.in_degree(2), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    num_nodes: usize,
    /// Offset of node `v`'s neighbour slice in `sources`; length `num_nodes + 1`.
    offsets: Vec<usize>,
    /// Concatenated, per-destination sorted source-node lists.
    sources: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list, grouping edges by destination.
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        let num_nodes = edges.num_nodes();
        let mut counts = vec![0usize; num_nodes + 1];
        for e in edges.iter() {
            counts[e.dst as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut sources = vec![0 as NodeId; edges.num_edges()];
        for e in edges.iter() {
            let slot = cursor[e.dst as usize];
            sources[slot] = e.src;
            cursor[e.dst as usize] += 1;
        }
        // Sort each neighbour list for deterministic iteration.
        let mut graph = Self {
            num_nodes,
            offsets,
            sources,
        };
        for v in 0..num_nodes {
            let (start, end) = (graph.offsets[v], graph.offsets[v + 1]);
            graph.sources[start..end].sort_unstable();
        }
        graph
    }

    /// Builds a CSR graph directly from `(src, dst)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is out of range.
    pub fn from_pairs(num_nodes: usize, pairs: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let edges = EdgeList::from_pairs(num_nodes, pairs)?;
        Ok(Self::from_edge_list(&edges))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.sources.len()
    }

    /// In-neighbours (sources aggregated by) of node `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        assert!(v < self.num_nodes, "node {v} out of range");
        &self.sources[self.offsets[v]..self.offsets[v + 1]]
    }

    /// In-degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Average in-degree over all nodes.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes as f64
        }
    }

    /// Maximum in-degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes as NodeId)
            .map(|v| self.in_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all edges as `Edge { src, dst }` in destination-major order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_nodes as NodeId).flat_map(move |dst| {
            self.neighbors(dst)
                .iter()
                .map(move |&src| Edge::new(src, dst))
        })
    }

    /// Converts back to an edge list (destination-major order).
    pub fn to_edge_list(&self) -> EdgeList {
        let edges: Vec<Edge> = self.iter_edges().collect();
        EdgeList::from_edges(self.num_nodes, edges).expect("CSR edges are in range by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_pairs(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]).unwrap()
    }

    #[test]
    fn neighbors_are_grouped_by_destination() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn counts_match_edge_list() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn from_pairs_rejects_out_of_range() {
        assert!(CsrGraph::from_pairs(2, &[(0, 2)]).is_err());
    }

    #[test]
    fn roundtrip_through_edge_list() {
        let g = triangle();
        let list = g.to_edge_list();
        assert_eq!(list.num_edges(), g.num_edges());
        let g2 = CsrGraph::from_edge_list(&list);
        assert_eq!(g, g2);
    }

    #[test]
    fn iter_edges_yields_every_edge() {
        let g = triangle();
        let edges: Vec<Edge> = g.iter_edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&Edge::new(0, 2)));
        assert!(edges.contains(&Edge::new(1, 2)));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_pairs(0, &[]).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_neighbourhoods() {
        let g = CsrGraph::from_pairs(4, &[(0, 1)]).unwrap();
        assert!(g.neighbors(2).is_empty());
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbors_panics_out_of_range() {
        let g = triangle();
        let _ = g.neighbors(3);
    }
}
