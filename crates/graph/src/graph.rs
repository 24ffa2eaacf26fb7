//! The [`Graph`] type: an edge-list graph with an on-demand adjacency view.

use crate::ids::{Edge, VertexId, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An undirected graph on the fixed vertex set `{0, …, n−1}`.
///
/// Graphs are stored as normalized edge lists, matching the MPC setting where
/// the input is a bag of edges scattered across machines (§2 of the paper).
/// Self-loops are rejected; parallel edges are deduplicated on construction
/// (keeping the lightest copy, consistent with MST semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
}

impl Graph {
    /// Builds a graph from an edge list.
    ///
    /// Endpoints are normalized, self-loops dropped, and parallel edges
    /// deduplicated keeping the copy with the smallest [`crate::WeightKey`].
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn new(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut es: Vec<Edge> = edges
            .into_iter()
            .filter(|e| !e.is_loop())
            .map(Edge::normalized)
            .collect();
        for e in &es {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "edge {e:?} out of range for n={n}"
            );
        }
        es.sort_by_key(|e| (e.u, e.v, e.w));
        es.dedup_by_key(|e| (e.u, e.v));
        Graph { n, edges: es }
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The normalized, deduplicated edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Consumes the graph, returning its edge list.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Iterates over vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n as VertexId
    }

    /// Average degree `2m/n` (the paper's `d`), or 0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n as f64
        }
    }

    /// Edge density `m/n` (the paper's recurring parameter `m/n`).
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m() as f64 / self.n as f64
        }
    }

    /// Per-vertex degrees.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Builds the adjacency view (CSR layout) for traversal algorithms.
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::from_edges(self.n, &self.edges)
    }

    /// Returns the same graph with every weight replaced by a fresh uniform
    /// sample from `1..=max_weight`, deterministically derived from `seed`.
    ///
    /// Weights need not be unique — all algorithms in the workspace break
    /// ties with [`crate::WeightKey`].
    pub fn with_random_weights(mut self, max_weight: Weight, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        for e in &mut self.edges {
            e.w = rng.random_range(1..=max_weight.max(1));
        }
        self
    }

    /// Returns the subgraph containing only edges accepted by `keep`.
    pub fn filter_edges(&self, mut keep: impl FnMut(&Edge) -> bool) -> Graph {
        Graph {
            n: self.n,
            edges: self.edges.iter().copied().filter(|e| keep(e)).collect(),
        }
    }

    /// Returns the subgraph induced by the vertex set `verts`
    /// (vertex ids are preserved; the vertex count stays `n`).
    pub fn induced(&self, verts: &[bool]) -> Graph {
        assert_eq!(verts.len(), self.n, "induced(): mask length must equal n");
        self.filter_edges(|e| verts[e.u as usize] && verts[e.v as usize])
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> u128 {
        self.edges.iter().map(|e| e.w as u128).sum()
    }
}

/// Compressed-sparse-row adjacency view over a [`Graph`].
///
/// Borrow-free (owns its arrays) so it can outlive temporary graphs and be
/// shipped to worker threads by the bench harness.
#[derive(Clone, Debug)]
pub struct Adjacency {
    offsets: Vec<usize>,
    /// `(neighbor, weight)` pairs, grouped by source vertex.
    targets: Vec<(VertexId, Weight)>,
}

impl Adjacency {
    /// The adjacency of `edges` over vertices `0..n`, each vertex's pairs
    /// in edge order (both directions of every edge, parallel edges and
    /// self-loops included).
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut counts = vec![0usize; n + 1];
        for e in edges {
            counts[e.u as usize + 1] += 1;
            counts[e.v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![(0 as VertexId, 0 as Weight); 2 * edges.len()];
        for e in edges {
            targets[cursor[e.u as usize]] = (e.v, e.w);
            cursor[e.u as usize] += 1;
            targets[cursor[e.v as usize]] = (e.u, e.w);
            cursor[e.v as usize] += 1;
        }
        Adjacency { offsets, targets }
    }

    /// The same adjacency with every vertex's pairs in ascending order.
    pub fn sorted(mut self) -> Self {
        for v in 0..self.n() {
            self.targets[self.offsets[v]..self.offsets[v + 1]].sort_unstable();
        }
        self
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(neighbor, weight)` list of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, Weight)] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::new(
            3,
            [Edge::new(0, 1, 5), Edge::new(1, 2, 3), Edge::new(2, 0, 4)],
        )
    }

    #[test]
    fn dedup_keeps_lightest_parallel_edge() {
        let g = Graph::new(
            2,
            [Edge::new(0, 1, 9), Edge::new(1, 0, 4), Edge::new(0, 1, 7)],
        );
        assert_eq!(g.m(), 1);
        assert_eq!(g.edges()[0].w, 4);
    }

    #[test]
    fn drops_self_loops() {
        let g = Graph::new(2, [Edge::new(0, 0, 1), Edge::new(0, 1, 1)]);
        assert_eq!(g.m(), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        Graph::new(2, [Edge::new(0, 2, 1)]);
    }

    #[test]
    fn degrees_and_max_degree() {
        let g = triangle();
        assert_eq!(g.degrees(), vec![2, 2, 2]);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.average_degree(), 2.0);
    }

    #[test]
    fn adjacency_roundtrip() {
        let g = triangle();
        let adj = g.adjacency();
        assert_eq!(adj.degree(0), 2);
        let mut ns: Vec<_> = adj.neighbors(1).iter().map(|&(v, _)| v).collect();
        ns.sort();
        assert_eq!(ns, vec![0, 2]);
    }

    #[test]
    fn random_weights_in_range_and_deterministic() {
        let g = triangle().with_random_weights(10, 3);
        let h = triangle().with_random_weights(10, 3);
        assert_eq!(g, h);
        assert!(g.edges().iter().all(|e| (1..=10).contains(&e.w)));
    }

    #[test]
    fn induced_subgraph() {
        let g = triangle();
        let sub = g.induced(&[true, true, false]);
        assert_eq!(sub.m(), 1);
        assert_eq!(sub.edges()[0], Edge::new(0, 1, 5));
    }
}
