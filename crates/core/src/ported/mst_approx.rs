//! (1+ε)-approximate MST weight in `O(1)` rounds (Theorem C.2).
//!
//! The Chazelle–Rubinfeld–Trevisan / AGM estimator: for integer weights in
//! `[1, W]`,
//!
//! ```text
//! MSF(G) = n − W·c_W + Σ_{i=1}^{W−1} c_i
//! ```
//!
//! where `c_i` is the number of components of the subgraph with edges of
//! weight `≤ i` (and `c_W` the overall component count). Evaluating `c` at
//! geometrically spaced thresholds `τ_j = (1+ε)^j` over-counts each interval
//! by at most a `(1+ε)` factor, giving a `(1+ε)`-approximation from
//! `O(log_{1+ε} W)` connectivity instances — each the `O(1)`-round sketch
//! connectivity of Theorem C.1, run **in parallel** as in the paper: the
//! engine's `mst-approx` runs every threshold as one instance of the
//! `connectivity` program, with that threshold and a sketch seed drawn up
//! front, as a lane of one wave.

/// Result of the MST-weight estimator.
#[derive(Clone, Debug, PartialEq)]
pub struct MstApprox {
    /// The weight estimate.
    pub estimate: f64,
    /// Thresholds evaluated.
    pub thresholds: Vec<u64>,
    /// Component count at each threshold.
    pub component_counts: Vec<usize>,
    /// Rounds a parallel execution would need (max over instances).
    pub parallel_rounds: u64,
}

/// Geometric thresholds `1 = τ_0 < τ_1 < … ≥ W` on the `(1+ε)` grid.
pub fn geometric_thresholds(w_max: u64, epsilon: f64) -> Vec<u64> {
    let mut thresholds: Vec<u64> = vec![1];
    loop {
        let last = *thresholds.last().unwrap();
        if last >= w_max {
            break;
        }
        let next = (((last as f64) * (1.0 + epsilon)).ceil() as u64).max(last + 1);
        thresholds.push(next.min(w_max));
    }
    thresholds
}

/// The estimator formula on the geometric grid: each interval
/// `[τ_j, τ_{j+1})` contributes `(τ_{j+1} − τ_j) · c_{τ_j}`, and the whole
/// estimate is `n − W·c_W + Σ intervals`.
pub fn estimate_from_counts(
    n: usize,
    w_max: u64,
    thresholds: &[u64],
    component_counts: &[usize],
) -> f64 {
    let c_last = *component_counts.last().expect("at least one threshold");
    let mut sum = 0f64;
    for j in 0..thresholds.len() {
        let lo = thresholds[j];
        let hi = if j + 1 < thresholds.len() {
            thresholds[j + 1]
        } else {
            w_max
        };
        if hi > lo {
            sum += (hi - lo) as f64 * component_counts[j] as f64;
        }
    }
    n as f64 - (w_max as f64) * c_last as f64 + sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::traversal::connected_components;
    use mpc_graph::{generators, mst::kruskal, Graph};

    /// The estimator on exact threshold counts — what the sketches
    /// recover w.h.p. — with the thresholds it evaluated.
    fn estimate(g: &Graph, epsilon: f64) -> (f64, Vec<u64>) {
        let w_max = g.edges().iter().map(|e| e.w).max().unwrap_or(1).max(1);
        let thresholds = geometric_thresholds(w_max, epsilon);
        let counts: Vec<usize> = (thresholds.iter())
            .map(|&t| {
                let light = g.edges().iter().filter(|e| e.w <= t).copied();
                connected_components(&Graph::new(g.n(), light)).count
            })
            .collect();
        let est = estimate_from_counts(g.n(), w_max, &thresholds, &counts);
        (est, thresholds)
    }

    #[test]
    fn estimate_is_close_to_exact_mst() {
        let g = generators::gnm(80, 400, 2).with_random_weights(32, 2);
        let exact = kruskal(&g).total_weight as f64;
        let (est, _) = estimate(&g, 0.25);
        // Only the geometric grid errs: within (1+ε) above, never below
        // by more than the grid slack.
        assert!(
            est >= exact * 0.95 && est <= exact * 1.35,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn unweighted_graph_estimate_equals_spanning_forest_size() {
        let g = generators::gnm(60, 150, 3); // all weights 1
        let exact = kruskal(&g).total_weight as f64;
        let (est, _) = estimate(&g, 0.5);
        assert!((est - exact).abs() < 1e-9, "{est} vs {exact}");
    }

    #[test]
    fn finer_epsilon_means_more_thresholds() {
        assert!(geometric_thresholds(64, 0.1).len() > geometric_thresholds(64, 1.0).len());
    }

    #[test]
    fn parallel_rounds_are_constant() {
        let g = generators::gnm(64, 200, 5).with_random_weights(16, 5);
        let config = crate::ported::connectivity::sketch_friendly_config(g.n(), g.m(), 5);
        let params = mpc_exec::JobParams::default().epsilon(0.5);
        let (out, rounds) = crate::run_program("mst-approx", &g, config, params);
        let r = out.into_mst_approx().unwrap();
        assert_eq!(r.parallel_rounds, rounds);
        assert!(rounds <= 12, "parallel rounds {rounds}");
    }
}
