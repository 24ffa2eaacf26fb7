//! (1±ε)-approximate weighted minimum cut in `O(1)` rounds (Theorem C.4,
//! after Ghaffari–Nowicki \[31\]).
//!
//! Karger-style skeleton sampling: with sampling probability
//! `p = Θ(log n / (ε²·λ))` every cut of the skeleton concentrates within
//! `(1±ε)` of `p` times its true weight, so `min-cut(skeleton)/p` is a
//! `(1±ε)` estimate. Since `λ` is unknown, all `O(log W·n)` geometric
//! guesses run in parallel (the engine's `mincut-approx` runs every guess
//! as a lane of one wave, and gathers the whole graph if every guess
//! fails); the right guess is the sparsest skeleton that is still
//! connected and has `Ω(log n/ε²)` min degree — coarser guesses
//! under-sample and disconnect, finer ones only waste memory. As the paper
//! notes, the whole procedure reduces to connectivity plus one local
//! min-cut computation on the large machine.

use mpc_graph::{Edge, VertexId};
use rand::Rng;

/// Result of the approximate min-cut.
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxMinCut {
    /// The (1±ε) estimate of the minimum cut weight.
    pub estimate: f64,
    /// The guess `λ̂` that produced the estimate.
    pub lambda_guess: u64,
    /// Skeleton edge count at the chosen guess.
    pub skeleton_edges: usize,
    /// Rounds a parallel execution would need (max over guesses).
    pub parallel_rounds: u64,
}

/// The sampling constant `c = 3·ln n / ε²` (`p = c/λ̂` per guess).
pub fn c_sample_for(n: usize, epsilon: f64) -> f64 {
    (n.max(2) as f64).ln() * 3.0 / (epsilon * epsilon)
}

/// Geometric guesses for `λ`, largest first (sparsest skeleton first).
pub fn lambda_guesses(total_weight: u64) -> Vec<u64> {
    let mut guesses: Vec<u64> = Vec::new();
    let mut g = total_weight.max(1);
    while g >= 1 {
        guesses.push(g);
        if g == 1 {
            break;
        }
        g /= 2;
    }
    guesses
}

/// The large machine's skeleton budget: a sixth of its capacity.
pub fn skeleton_budget(large_capacity: usize) -> u64 {
    (large_capacity / 6) as u64
}

/// What one guess's gathered skeleton implies.
#[derive(Clone, Debug, PartialEq)]
pub enum SkeletonVerdict {
    /// Isolated vertices or a disconnected skeleton: `λ̂` too large.
    Disconnected,
    /// Connected, but too little sampled weight crosses the min cut for
    /// the concentration bound to apply: try a finer guess.
    NotConcentrated,
    /// A usable `(1±ε)` estimate: `min-cut(skeleton)/p`.
    Estimate(f64),
}

/// The large machine's local computation on a gathered skeleton: the skeleton's minimum cut value
/// ([`mpc_graph::mincut::min_cut_weight`], which also reports a skeleton
/// that does not connect all `n` vertices) and the concentration threshold.
/// Skeleton endpoints are vertices of the input graph, `< n`, and the value
/// does not depend on how they are numbered, so they go in as they are.
pub fn evaluate_skeleton(n: usize, sk: &[(Edge, u32)], c_sample: f64, p: f64) -> SkeletonVerdict {
    let cut_edges: Vec<(VertexId, VertexId, u64)> =
        sk.iter().map(|(e, c)| (e.u, e.v, u64::from(*c))).collect();
    let Some(weight) = mpc_graph::mincut::min_cut_weight(n, &cut_edges) else {
        return SkeletonVerdict::Disconnected; // λ̂ too large, try finer
    };
    // Require enough sampled weight across the cut for concentration.
    if (weight as f64) < c_sample / 4.0 {
        return SkeletonVerdict::NotConcentrated;
    }
    SkeletonVerdict::Estimate(weight as f64 / p)
}

/// Samples Binomial(w, p) with the per-machine RNG (w is small in practice;
/// the loop is local computation and therefore free in the model).
pub fn sample_binomial(rng: &mut rand::rngs::SmallRng, w: u64, p: f64) -> u32 {
    if p >= 1.0 {
        return w.min(u32::MAX as u64) as u32;
    }
    let mut c = 0u32;
    // For large w, use a normal approximation to keep simulation fast.
    if w > 64 {
        let mean = w as f64 * p;
        let sd = (w as f64 * p * (1.0 - p)).sqrt();
        let z: f64 = standard_normal(rng);
        return (mean + sd * z).round().clamp(0.0, w as f64) as u32;
    }
    for _ in 0..w {
        if rng.random_bool(p) {
            c += 1;
        }
    }
    c
}

fn standard_normal(rng: &mut rand::rngs::SmallRng) -> f64 {
    // Box–Muller.
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::generators;

    #[test]
    fn disconnected_graph_estimates_zero() {
        // A forest has cut 0: even its densest skeleton (every edge kept)
        // is disconnected, so no guess estimates and the whole-graph
        // fallback's cut is 0.
        let g = generators::random_forest(40, 2, 2);
        let sk: Vec<(Edge, u32)> = g.edges().iter().map(|&e| (e, 1)).collect();
        let verdict = evaluate_skeleton(g.n(), &sk, c_sample_for(g.n(), 0.4), 1.0);
        assert_eq!(verdict, SkeletonVerdict::Disconnected);
        assert!(mpc_graph::mincut::min_cut(&g).is_none_or(|m| m.weight == 0));
    }

    /// The engine's `mincut-approx` on `g`, certified within `(1±ε)` of the
    /// exact cut.
    fn estimate(g: &mpc_graph::Graph, eps: f64, seed: u64) {
        let config = mpc_runtime::ClusterConfig::new(g.n(), g.m())
            .seed(seed)
            .polylog_exponent(1.6);
        let params = mpc_exec::JobParams::default().epsilon(eps);
        crate::run_program("mincut-approx", g, config, params);
    }

    #[test]
    fn estimates_weighted_planted_cuts() {
        let g = generators::planted_cut(20, 0.8, 4, 1).with_random_weights(8, 1);
        estimate(&g, 0.3, 1);
    }

    #[test]
    fn dense_unweighted_graph() {
        estimate(&generators::gnm(48, 700, 3), 0.3, 3);
    }
}
