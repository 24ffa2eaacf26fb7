//! The correctness gate: every registry run, service job and verification
//! check is counted as attempted, and every `Err`, failed job, serial≠pool
//! digest, invalid output or golden mismatch as failed.

use mpc_exec::AlgoOutput;
use mpc_graph::coloring::is_proper_coloring;
use mpc_graph::matching::is_maximal_matching;
use mpc_graph::mis::is_maximal_independent_set;
use mpc_graph::mst::{kruskal, Forest};
use mpc_graph::traversal::connected_components;
use mpc_graph::{is_spanning_forest, verify_spanner, Edge, Graph};

/// Sources sampled per spanner stretch check (every pair from each source
/// is checked exactly).
const SPANNER_SOURCES: usize = 4;

/// Attempted/failed counts plus one line per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` is only rendered for a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn unweighted(g: &Graph) -> Graph {
    Graph::new(g.n(), g.edges().iter().map(|e| Edge::unweighted(e.u, e.v)))
}

/// `verify_spanner` panics on a non-subgraph; that is an invalid output
/// here, not a crash of the harness.
fn stretch_within(g: &Graph, h: &Graph, bound: usize, seed: u64) -> bool {
    std::panic::catch_unwind(|| {
        verify_spanner(g, h, Some(SPANNER_SOURCES), seed).within(bound as f64)
    })
    .unwrap_or(false)
}

/// Checks `output` of registry algorithm `name` against `g` with the
/// sequential validators of `mpc-graph`. The two sketch estimators
/// (`mst-approx`, `mincut-approx`) hold only with high probability, so for
/// them the gate is serial == pool plus the golden digest, not a bound.
pub fn validate(name: &str, g: &Graph, output: &AlgoOutput, seed: u64, checks: &mut Checks) {
    let minimum = |forest: &Forest| {
        is_spanning_forest(g, &forest.edges) && forest.total_weight == kruskal(g).total_weight
    };
    let ok = match output {
        AlgoOutput::Components(c) => *c == connected_components(g),
        AlgoOutput::Forest(f) => minimum(f),
        AlgoOutput::Mst(r) => minimum(&r.forest),
        AlgoOutput::Matching(r) => is_maximal_matching(g, &r.matching),
        AlgoOutput::Spanner(r) if name == "spanner" => {
            // The unweighted algorithm: stretch 6k − 1 in hops, k = 3.
            stretch_within(&unweighted(g), &unweighted(&r.spanner), 17, seed)
        }
        // Weight classes double the stretch: 12k − 1, k = 3.
        AlgoOutput::Spanner(r) => stretch_within(g, &r.spanner, 35, seed),
        AlgoOutput::Apsp { oracle, .. } => {
            stretch_within(g, oracle.spanner(), oracle.stretch_bound, seed)
        }
        AlgoOutput::MinCut(r) => {
            // Exact min cut at these sizes is out of reach of a sequential
            // check; a cut can never exceed the minimum degree.
            g.degrees()
                .into_iter()
                .min()
                .map_or(r.value == 0, |d| r.value <= d as u128)
        }
        AlgoOutput::Mis(r) => is_maximal_independent_set(g, &r.mis),
        AlgoOutput::Coloring(r) => {
            is_proper_coloring(g, &r.colors)
                && r.colors.iter().all(|&c| (c as usize) <= g.max_degree())
        }
        AlgoOutput::MstApprox(_) | AlgoOutput::MinCutApprox(_) => return,
    };
    checks.check(ok, || format!("{name}: output failed its validity check"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::generators;

    #[test]
    fn fail_share_counts_failed_over_attempted() {
        let mut checks = Checks::default();
        assert_eq!(checks.fail_share(), 0.0);
        assert!(checks.correct());
        checks.check(true, || unreachable!("a pass renders nothing"));
        checks.check(false, || "digest mismatch".to_string());
        checks.check(true, String::new);
        checks.check(false, || "invalid matching".to_string());
        assert_eq!((checks.attempted, checks.failed), (4, 2));
        assert_eq!(checks.fail_share(), 0.5);
        assert!(!checks.correct());
        assert_eq!(checks.failures, ["digest mismatch", "invalid matching"]);
    }

    #[test]
    fn validate_accepts_kruskal_and_rejects_a_broken_forest() {
        let g = generators::gnm(40, 160, 3).with_random_weights(64, 3);
        let good = kruskal(&g);
        let mut checks = Checks::default();
        validate(
            "boruvka-msf",
            &g,
            &AlgoOutput::Forest(good.clone()),
            3,
            &mut checks,
        );
        assert!(checks.correct());
        let mut edges = good.edges;
        edges.pop();
        validate(
            "boruvka-msf",
            &g,
            &AlgoOutput::Forest(Forest::from_edges(edges)),
            3,
            &mut checks,
        );
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }
}
