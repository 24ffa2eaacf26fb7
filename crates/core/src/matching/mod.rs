//! Maximal matching in the heterogeneous model (§5).
//!
//! The paper's three-phase algorithm (Theorem 5.1), whose round complexity
//! depends only on the **average** degree `d = 2m/n` — not on `n` or on the
//! maximum degree Δ — runs as the engine's matching program in `mpc-exec`,
//! from the steps here:
//!
//! * **Phase 1** — a maximal matching `M₁` of the subgraph induced by the
//!   low-degree vertices (`deg ≤ d²`), computed on the small machines alone
//!   ([`peeling`]; substitution for Ghaffari–Uitto recorded in DESIGN.md).
//! * **Phase 2** — there are at most `n/d` high-degree vertices; the large
//!   machine collects `2d·log n` *random* incident edges of each
//!   (`O(n log n)` words total) and greedily extends to `M₂`. Lemma 5.4:
//!   w.h.p. at most `2n` edges remain with both endpoints unmatched.
//! * **Phase 3** — those edges are counted and shipped to the large
//!   machine, which completes the matching (`M₃`).
//!
//! [`filtering::filtering_matching`] is the `O(1/f)`-round algorithm for a
//! `n^(1+f)`-memory large machine (Theorem 5.5, after Lattanzi et al. \[44\]).

pub mod filtering;
pub mod peeling;

use mpc_graph::matching::Matching;
use mpc_graph::{Edge, VertexId};
use mpc_runtime::ModelViolation;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Errors of the matching algorithms.
#[derive(Clone, Debug)]
pub enum MatchingError {
    /// Capacity violation under strict enforcement.
    Model(ModelViolation),
    /// Phase 3 found more residual edges than the `O(n)` bound allows
    /// (probability `1/n` per Lemma 5.4; rerun with another seed).
    ResidualOverflow {
        /// Residual edges observed.
        found: u64,
        /// The abort threshold that was exceeded.
        threshold: u64,
    },
}

impl fmt::Display for MatchingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchingError::Model(v) => write!(f, "model violation: {v}"),
            MatchingError::ResidualOverflow { found, threshold } => write!(
                f,
                "phase 3 found {found} residual edges, above the abort threshold {threshold}"
            ),
        }
    }
}

impl Error for MatchingError {}

impl From<ModelViolation> for MatchingError {
    fn from(v: ModelViolation) -> Self {
        MatchingError::Model(v)
    }
}

/// Statistics of a three-phase run.
#[derive(Clone, Debug, Default)]
pub struct MatchingStats {
    /// Average degree `d` used for the low/high split.
    pub average_degree: f64,
    /// The degree threshold `d²`.
    pub threshold: usize,
    /// Peeling iterations of Phase 1.
    pub phase1_iterations: usize,
    /// Matching edges found in Phase 1.
    pub m1: usize,
    /// Matching edges added by the large machine in Phase 2.
    pub m2: usize,
    /// Matching edges added in Phase 3.
    pub m3: usize,
    /// Number of high-degree vertices.
    pub high_vertices: usize,
    /// Residual edges shipped in Phase 3.
    pub residual_edges: u64,
}

/// Output of the matching algorithms.
#[derive(Clone, Debug)]
pub struct MatchingResult {
    /// The maximal matching.
    pub matching: Matching,
    /// Execution statistics.
    pub stats: MatchingStats,
}

/// The average degree `d` and the low/high threshold `d²` (Theorem 5.1) —
/// shared with the engine's `MatchingProgram` coordinator.
pub fn degree_split(n: usize, m: usize) -> (f64, usize) {
    let d = (2.0 * m as f64 / n.max(1) as f64).max(1.0);
    let threshold = ((d * d).ceil() as usize).max(1);
    (d, threshold)
}

/// Phase-2 per-vertex sample size `t ≈ 2d·log n`, capped by the large
/// machine's item budget spread over the high-degree vertices.
pub fn phase2_t(large_capacity: usize, n: usize, d: f64, high_count: usize) -> usize {
    let ln_n = (n.max(2) as f64).ln();
    let budget_items = large_capacity / 8;
    let t_target = (2.0 * d * ln_n).ceil() as usize;
    t_target.min(budget_items / high_count.max(1)).max(1)
}

/// The large machine's greedy Phase-2 extension over the per-vertex sampled
/// candidate lists (ascending vertex id, candidates ascending by rank).
/// Marks both endpoints of every chosen edge in `used`.
pub fn greedy_extend(
    sampled: &[(VertexId, Vec<(u64, Edge)>)],
    used: &mut HashSet<VertexId>,
) -> Vec<Edge> {
    let mut m2_edges: Vec<Edge> = Vec::new();
    for (u, candidates) in sampled {
        if used.contains(u) {
            continue;
        }
        if let Some((_r, e)) = candidates
            .iter()
            .find(|(_r, e)| !used.contains(&e.other(*u)))
        {
            used.insert(*u);
            used.insert(e.other(*u));
            m2_edges.push(*e);
        }
    }
    m2_edges
}

#[cfg(test)]
mod tests {
    use mpc_exec::{AlgoOutput, JobParams};
    use mpc_graph::{generators, Graph};
    use mpc_runtime::ClusterConfig;

    /// The engine's matching program, which runs this module's steps,
    /// certified maximal.
    fn run(g: &Graph, seed: u64) -> AlgoOutput {
        let config = ClusterConfig::new(g.n(), g.m().max(1)).seed(seed);
        crate::run_program("matching", g, config, JobParams::default()).0
    }

    #[test]
    fn matching_is_maximal_on_random_graphs() {
        for seed in 0..4 {
            run(&generators::gnm(120, 700, seed), seed);
        }
    }

    #[test]
    fn skewed_graphs_exercise_the_high_degree_path() {
        // Power-law graph: a few very high degree vertices, low average.
        let g = generators::chung_lu(300, 1800, 2.3, 5);
        let r = run(&g, 5).into_matching().unwrap();
        assert!(r.stats.high_vertices > 0, "stats = {:?}", r.stats);
    }

    #[test]
    fn star_graph_is_fully_high_degree_at_center() {
        let g = generators::star(200);
        let r = run(&g, 2).into_matching().unwrap();
        assert_eq!(r.matching.len(), 1); // a star admits one matched edge
    }

    #[test]
    fn empty_graph() {
        let r = run(&Graph::empty(10), 0).into_matching().unwrap();
        assert!(r.matching.is_empty());
    }

    #[test]
    fn stats_add_up() {
        let g = generators::gnm(150, 2000, 8);
        let r = run(&g, 8).into_matching().unwrap();
        assert_eq!(r.matching.len(), r.stats.m1 + r.stats.m2 + r.stats.m3);
        assert!(r.stats.average_degree > 1.0);
    }
}
