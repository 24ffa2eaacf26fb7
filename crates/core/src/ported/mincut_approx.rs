//! (1±ε)-approximate weighted minimum cut in `O(1)` rounds (Theorem C.4,
//! after Ghaffari–Nowicki \[31\]).
//!
//! Karger-style skeleton sampling: with sampling probability
//! `p = Θ(log n / (ε²·λ))` every cut of the skeleton concentrates within
//! `(1±ε)` of `p` times its true weight, so `min-cut(skeleton)/p` is a
//! `(1±ε)` estimate. Since `λ` is unknown, all `O(log W·n)` geometric
//! guesses run in parallel (here: sequentially, with the parallel round
//! figure reported — this legacy loop survives as the equivalence oracle
//! for the engine's batched path in `mpc_exec`, which runs every guess as
//! a lane of one wave and achieves the parallel figure for real); the
//! right guess is the sparsest skeleton that is still
//! connected and has `Ω(log n/ε²)` min degree — coarser guesses
//! under-sample and disconnect, finer ones only waste memory. As the paper
//! notes, the whole procedure reduces to connectivity plus one local
//! min-cut computation on the large machine.

use mpc_graph::{Edge, VertexId};
use mpc_runtime::primitives::{gather_to, sum_to};
use mpc_runtime::{Cluster, ModelViolation, ShardedVec};
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

/// The local computation on a gathered skeleton, shared by the legacy loop
/// body and the engine program: the skeleton's minimum cut value
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

/// Estimates the weighted minimum cut within `(1±ε)` w.h.p.
///
/// # Errors
///
/// Propagates capacity violations in strict mode. Returns an estimate of 0
/// for disconnected inputs.
pub fn approximate_min_cut(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    epsilon: f64,
) -> Result<ApproxMinCut, ModelViolation> {
    assert!(
        (0.0..1.0).contains(&epsilon) && epsilon > 0.0,
        "epsilon in (0,1)"
    );
    let large = cluster.large().expect("min cut requires a large machine");
    let total_weight: u64 = edges.iter().map(|(_, e)| e.w).sum();
    let c_sample = c_sample_for(n, epsilon);
    let guesses = lambda_guesses(total_weight);

    let participants: Vec<usize> = (0..cluster.machines()).collect();
    let mut parallel_rounds = 0u64;
    for guess in guesses {
        let before = cluster.rounds();
        let p = (c_sample / guess as f64).min(1.0);
        // Weighted skeleton: an edge of weight w contributes Binomial(w, p)
        // unweighted copies.
        let mut skeleton: ShardedVec<(Edge, u32)> = ShardedVec::new(cluster);
        for mid in 0..edges.machines() {
            let shard = skeleton.shard_mut(mid);
            for e in edges.shard(mid) {
                let copies = sample_binomial(cluster.rng(mid), e.w, p);
                if copies > 0 {
                    shard.push((*e, copies));
                }
            }
        }
        // Volume check before gathering (abort this guess if oversampled).
        let counts: Vec<u64> = (0..cluster.machines())
            .map(|mid| skeleton.shard(mid).len() as u64)
            .collect();
        let total = sum_to(cluster, "xcut.count", &participants, counts, large)?;
        let budget = skeleton_budget(cluster.capacity(large));
        if total > budget {
            // Finer guesses only get denser; the current estimate stands.
            parallel_rounds = parallel_rounds.max(cluster.rounds() - before);
            break;
        }
        let sk = gather_to(cluster, "xcut.gather", &skeleton, large)?;
        cluster.account("xcut.large", large, sk.len() * 3)?;
        parallel_rounds = parallel_rounds.max(cluster.rounds() - before);
        // Local: connectivity + minimum cut value of the skeleton multigraph.
        let verdict = evaluate_skeleton(n, &sk, c_sample, p);
        cluster.release("xcut.large");
        match verdict {
            SkeletonVerdict::Disconnected | SkeletonVerdict::NotConcentrated => continue,
            SkeletonVerdict::Estimate(estimate) => {
                return Ok(ApproxMinCut {
                    estimate,
                    lambda_guess: guess,
                    skeleton_edges: sk.len(),
                    parallel_rounds,
                });
            }
        }
    }
    // All guesses failed to produce a connected, concentrated skeleton:
    // either the graph is disconnected (estimate 0) or tiny — fall back to
    // gathering everything if it fits.
    let all = gather_to(cluster, "xcut.fallback", edges, large)?;
    let g = mpc_graph::Graph::new(n, all);
    let est = mpc_graph::mincut::min_cut(&g).map_or(0.0, |m| m.weight as f64);
    Ok(ApproxMinCut {
        estimate: est,
        lambda_guess: 1,
        skeleton_edges: g.m(),
        parallel_rounds,
    })
}

/// Samples Binomial(w, p) with the per-machine RNG (w is small in practice;
/// the loop is local computation and therefore free in the model). Public
/// so the engine program draws the identical per-edge sequence.
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
    use crate::common;
    use mpc_graph::generators;
    use mpc_runtime::ClusterConfig;

    fn run(g: &mpc_graph::Graph, eps: f64, seed: u64) -> ApproxMinCut {
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(seed)
                .polylog_exponent(1.6),
        );
        let input = common::distribute_edges(&cluster, g);
        approximate_min_cut(&mut cluster, g.n(), &input, eps).unwrap()
    }

    #[test]
    fn estimates_weighted_planted_cuts() {
        let g = generators::planted_cut(20, 0.8, 4, 1).with_random_weights(8, 1);
        let exact = mpc_graph::mincut::min_cut(&g).unwrap().weight as f64;
        let r = run(&g, 0.3, 1);
        assert!(
            r.estimate >= exact * 0.5 && r.estimate <= exact * 1.7,
            "estimate {} vs exact {exact}",
            r.estimate
        );
    }

    #[test]
    fn dense_unweighted_graph() {
        let g = generators::gnm(48, 700, 3);
        let exact = mpc_graph::mincut::min_cut(&g).unwrap().weight as f64;
        let r = run(&g, 0.3, 3);
        assert!(
            (r.estimate - exact).abs() <= exact * 0.7 + 3.0,
            "estimate {} vs exact {exact}",
            r.estimate
        );
    }

    #[test]
    fn disconnected_graph_estimates_zero() {
        let g = generators::random_forest(40, 2, 2); // a forest has cut 0
        let r = run(&g, 0.4, 2);
        assert_eq!(r.estimate, 0.0);
    }
}
