//! `O(log n)`-approximate all-pairs shortest paths (Corollary 4.2).
//!
//! With `k = ⌈log₂ n⌉` the spanner has `Õ(n)` edges and fits on the large
//! machine, which then answers arbitrary distance queries locally with no
//! further communication — an APSP *oracle* with multiplicative error
//! `O(log n)` (6k−1 unweighted, 12k−1 weighted).

use mpc_graph::{traversal, Graph, VertexId};

/// A distance oracle resident on the large machine.
#[derive(Clone, Debug)]
pub struct ApspOracle {
    spanner: Graph,
    adj: mpc_graph::Adjacency,
    /// The stretch guarantee of the underlying spanner.
    pub stretch_bound: usize,
}

impl ApspOracle {
    /// Wraps an already-computed spanner as a distance oracle (the engine
    /// registry's `apsp` entry computes the spanner through the executor
    /// and only needs the local indexing step done here).
    pub fn from_spanner(spanner: Graph, stretch_bound: usize) -> Self {
        let adj = spanner.adjacency();
        ApspOracle {
            spanner,
            adj,
            stretch_bound,
        }
    }

    /// The stretch parameter `k = ⌈log₂ n⌉` (floored at 2) Corollary 4.2
    /// instantiates the spanner with, shared by every APSP entry point.
    pub fn stretch_parameter(n: usize) -> usize {
        ((n.max(4) as f64).log2().ceil() as usize).max(2)
    }

    /// Approximate distance from `u` to `v` (`u64::MAX` if disconnected).
    ///
    /// One Dijkstra per call — batch with [`distances_from`](Self::distances_from)
    /// when querying many targets.
    pub fn distance(&self, u: VertexId, v: VertexId) -> u64 {
        traversal::dijkstra(&self.adj, u)[v as usize]
    }

    /// Approximate distances from `source` to every vertex.
    pub fn distances_from(&self, source: VertexId) -> Vec<u64> {
        traversal::dijkstra(&self.adj, source)
    }

    /// The spanner backing the oracle.
    pub fn spanner(&self) -> &Graph {
        &self.spanner
    }
}

/// Measures the worst observed stretch of `oracle` against exact distances
/// over `sources` BFS/Dijkstra sources (diagnostics for experiment E9).
pub fn measured_stretch(g: &Graph, oracle: &ApspOracle, sources: usize) -> f64 {
    let adj = g.adjacency();
    let mut worst: f64 = 1.0;
    let step = (g.n() / sources.max(1)).max(1);
    for s in (0..g.n()).step_by(step) {
        let exact = traversal::dijkstra(&adj, s as VertexId);
        let approx = oracle.distances_from(s as VertexId);
        for v in 0..g.n() {
            if v == s || exact[v] == traversal::UNREACHABLE {
                continue;
            }
            if approx[v] == traversal::UNREACHABLE {
                return f64::INFINITY;
            }
            worst = worst.max(approx[v] as f64 / exact[v] as f64);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::generators;

    #[test]
    fn oracle_distances_match_dijkstra_on_its_own_spanner() {
        let g = generators::gnm(64, 256, 7);
        let oracle = ApspOracle::from_spanner(g.clone(), 1);
        let d = oracle.distances_from(0);
        assert_eq!(d[0], 0);
        assert_eq!(oracle.distance(0, 5), d[5]);
        assert_eq!(d, traversal::dijkstra(&g.adjacency(), 0));
        // The graph is its own 1-spanner.
        assert_eq!(measured_stretch(&g, &oracle, 8), 1.0);
    }

    /// The engine's `apsp` on `g`: the oracle over its spanner, and the
    /// rounds the run took.
    fn engine_oracle(g: &Graph, seed: u64) -> (ApspOracle, u64) {
        let config = mpc_runtime::ClusterConfig::new(g.n(), g.m())
            .seed(seed)
            .polylog_exponent(1.6);
        let (out, rounds) = crate::run_program("apsp", g, config, Default::default());
        let (oracle, _) = out.into_apsp().unwrap();
        let spanner = oracle.spanner().clone();
        (
            ApspOracle::from_spanner(spanner, oracle.stretch_bound),
            rounds,
        )
    }

    #[test]
    fn oracle_stretch_is_within_the_log_bound() {
        let g = generators::gnm(128, 512, 3);
        let (oracle, rounds) = engine_oracle(&g, 3);
        let stretch = measured_stretch(&g, &oracle, 16);
        assert!(
            stretch <= oracle.stretch_bound as f64,
            "stretch {stretch} exceeds bound {}",
            oracle.stretch_bound
        );
        assert!(rounds > 0);
    }

    #[test]
    fn weighted_oracle_works() {
        let g = generators::gnm(96, 400, 5).with_random_weights(32, 5);
        let (oracle, _) = engine_oracle(&g, 5);
        let stretch = measured_stretch(&g, &oracle, 12);
        assert!(stretch <= oracle.stretch_bound as f64, "stretch {stretch}");
    }
}
