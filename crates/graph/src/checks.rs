//! Structural validators: subgraphs, spanners, spanning forests.
//!
//! The registry's output certificates and the benchmark's validity checks
//! are built from these: a claimed `t`-spanner is *verified*, not assumed.

use crate::graph::Graph;
use crate::ids::{Edge, VertexId};
use crate::traversal::{bfs, dijkstra, UNREACHABLE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outcome of a spanner verification.
#[derive(Clone, Debug, PartialEq)]
pub struct SpannerReport {
    /// Worst stretch observed over the checked pairs (1.0 for identical
    /// distances). `f64::INFINITY` if some connected pair became disconnected.
    pub max_stretch: f64,
    /// Number of vertex pairs checked.
    pub pairs_checked: usize,
    /// Spanner edge count.
    pub spanner_edges: usize,
}

impl SpannerReport {
    /// Whether every checked pair had stretch at most `t`.
    pub fn within(&self, t: f64) -> bool {
        self.max_stretch <= t + 1e-9
    }
}

/// Verifies that `h` is a subgraph of `g` and measures its stretch.
///
/// For `sources = None` all vertices are used as BFS/Dijkstra sources (exact
/// verification, `O(n·m)`); otherwise `k` random sources are sampled — every
/// pair `(source, v)` is still checked exactly for those sources.
///
/// Distances are weighted iff the graph has any weight ≠ 1.
///
/// # Panics
///
/// Panics if `h` contains an edge absent from `g` (not a subgraph) — a
/// spanner must be a subgraph (§4).
pub fn verify_spanner(g: &Graph, h: &Graph, sources: Option<usize>, seed: u64) -> SpannerReport {
    if let Err(e) = is_subgraph(g, h.edges()) {
        panic!("spanner edge {e:?} does not appear in the base graph");
    }
    let weighted = g.edges().iter().any(|e| e.w != 1);
    let adj_g = g.adjacency();
    let adj_h = h.adjacency();
    let n = g.n();
    let source_list: Vec<VertexId> = match sources {
        None => (0..n as VertexId).collect(),
        Some(k) => {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..k.min(n))
                .map(|_| rng.random_range(0..n as VertexId))
                .collect()
        }
    };
    let mut max_stretch: f64 = 1.0;
    let mut pairs = 0usize;
    for &s in &source_list {
        let (dg, dh) = if weighted {
            (dijkstra(&adj_g, s), dijkstra(&adj_h, s))
        } else {
            (bfs(&adj_g, s), bfs(&adj_h, s))
        };
        for v in 0..n {
            if v as VertexId == s || dg[v] == UNREACHABLE {
                continue;
            }
            pairs += 1;
            if dh[v] == UNREACHABLE {
                max_stretch = f64::INFINITY;
            } else {
                debug_assert!(dh[v] >= dg[v], "subgraph distances cannot shrink");
                max_stretch = max_stretch.max(dh[v] as f64 / dg[v] as f64);
            }
        }
    }
    SpannerReport {
        max_stretch,
        pairs_checked: pairs,
        spanner_edges: h.m(),
    }
}

/// Whether every edge of `edges` joins two vertices that `g` joins, in
/// either orientation; weights are not compared. `Err` carries the first
/// edge `g` lacks.
pub fn is_subgraph(g: &Graph, edges: &[Edge]) -> Result<(), Edge> {
    use std::collections::HashSet;
    let g_set: HashSet<(VertexId, VertexId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    match edges.iter().find(|e| {
        let ne = e.normalized();
        !g_set.contains(&(ne.u, ne.v))
    }) {
        Some(&missing) => Err(missing),
        None => Ok(()),
    }
}

/// Whether `forest_edges` form a spanning forest of `g`:
/// acyclic, subgraph of `g`, and connecting exactly `g`'s components.
pub fn is_spanning_forest(g: &Graph, forest_edges: &[Edge]) -> bool {
    if is_subgraph(g, forest_edges).is_err() {
        return false;
    }
    let mut dsu = crate::dsu::DisjointSets::new(g.n());
    for e in forest_edges {
        if !dsu.union(e.u, e.v) {
            return false; // cycle
        }
    }
    let g_components = crate::traversal::connected_components(g).count;
    dsu.component_count() == g_components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::mst::kruskal;

    #[test]
    fn graph_is_a_1_spanner_of_itself() {
        let g = generators::gnm(40, 120, 1);
        let r = verify_spanner(&g, &g, None, 0);
        assert_eq!(r.max_stretch, 1.0);
        assert!(r.within(1.0));
    }

    #[test]
    fn spanning_tree_of_cycle_has_stretch_n_minus_1() {
        let n = 10;
        let g = generators::cycle(n, 0);
        let t = Graph::new(n, kruskal(&g).edges.clone());
        let r = verify_spanner(&g, &t, None, 0);
        assert!((r.max_stretch - (n as f64 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn missing_connectivity_is_infinite_stretch() {
        let g = generators::path(3);
        let h = Graph::new(3, [Edge::unweighted(0, 1)]);
        let r = verify_spanner(&g, &h, None, 0);
        assert!(r.max_stretch.is_infinite());
    }

    #[test]
    #[should_panic]
    fn non_subgraph_panics() {
        let g = generators::path(3);
        let h = Graph::new(3, [Edge::unweighted(0, 2)]);
        verify_spanner(&g, &h, None, 0);
    }

    #[test]
    fn spanning_forest_checks() {
        let g = generators::gnm(30, 90, 2);
        let f = kruskal(&g);
        assert!(is_spanning_forest(&g, &f.edges));
        // Dropping an edge breaks the component count.
        assert!(!is_spanning_forest(&g, &f.edges[..f.edges.len() - 1]));
        // A cycle is not a forest.
        let c = generators::cycle(5, 1);
        let all: Vec<Edge> = c.edges().to_vec();
        assert!(!is_spanning_forest(&c, &all));
        // Orientation and weight do not matter to the subgraph test; a
        // missing pair does, in the forest check too.
        let p = generators::path(4);
        assert_eq!(is_subgraph(&p, &[Edge::new(2, 1, 99)]), Ok(()));
        let chord = Edge::unweighted(0, 2);
        assert_eq!(is_subgraph(&p, &[p.edges()[0], chord]), Err(chord));
        assert!(!is_spanning_forest(&p, &[chord, Edge::unweighted(2, 3)]));
    }

    #[test]
    fn sampled_sources_subsample_pairs() {
        let g = generators::gnm(50, 150, 3);
        let full = verify_spanner(&g, &g, None, 0);
        let sampled = verify_spanner(&g, &g, Some(5), 0);
        assert!(sampled.pairs_checked < full.pairs_checked);
    }
}
