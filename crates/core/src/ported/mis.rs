//! Maximal independent set in `O(log log Δ)` rounds (Theorem C.6, after
//! Ghaffari, Gouleakis, Konrad, Mitrović & Rubinfeld \[26\]).
//!
//! The large machine draws a uniform permutation `π` and disseminates
//! ranks. Iteration `i` processes the vertices with rank up to
//! `n/Δ^(αⁱ⁺¹)` (α = 3/4): the residual edges among this still-small prefix
//! number `Õ(n)` w.h.p., so the large machine can collect them and extend
//! the greedy-by-`π` MIS locally; newly dominated vertices are pruned on
//! the small machines before the next, geometrically larger prefix. After
//! `O(log log Δ)` iterations the whole residual graph fits and the run
//! finishes.
//!
//! Greedy-by-`π` is sequentially consistent across batches, so the output
//! equals the sequential greedy MIS under `π` — always a correct MIS, with
//! the round bound being the probabilistic part.

use mpc_graph::{Edge, VertexId};
use rand::seq::SliceRandom;

/// Result of the MIS port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MisResult {
    /// The maximal independent set.
    pub mis: Vec<VertexId>,
    /// Prefix-processing iterations executed (the `O(log log Δ)` quantity).
    pub iterations: usize,
    /// Residual edge count before each iteration's gather.
    pub batch_edges: Vec<usize>,
}

/// Draws the uniform permutation `π` and its rank array — the algorithm's
/// single random draw, from the large machine's RNG stream.
pub fn permutation_ranks(rng: &mut rand::rngs::SmallRng, n: usize) -> (Vec<VertexId>, Vec<u32>) {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    perm.shuffle(rng);
    let mut rank: Vec<u32> = vec![0; n];
    for (r, &v) in perm.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    (perm, rank)
}

/// Prefix thresholds `t_i = n / Δ^(αⁱ)` (α = 3/4), capped at `n`.
pub fn prefix_thresholds(n: usize, delta: u32) -> Vec<u32> {
    let alpha = 0.75f64;
    let mut thresholds: Vec<u32> = Vec::new();
    let mut exp = 1.0f64;
    loop {
        let t = (n as f64 / (delta as f64).powf(exp)).ceil() as u32;
        thresholds.push(t.min(n as u32));
        if t as usize >= n {
            break;
        }
        exp *= alpha;
        if thresholds.len() > 64 {
            thresholds.push(n as u32);
            break;
        }
    }
    thresholds
}

/// The large machine's residual-edge budget: an eighth of its capacity.
pub fn mis_budget(large_capacity: usize) -> usize {
    large_capacity / 8
}

/// The undirected adjacency of an edge slice — both greedy sweeps walk it
/// the same way, so they must build it the same way.
fn adjacency(edges: &[Edge]) -> std::collections::HashMap<VertexId, Vec<VertexId>> {
    let mut adj: std::collections::HashMap<VertexId, Vec<VertexId>> =
        std::collections::HashMap::new();
    for e in edges {
        adj.entry(e.u).or_default().push(e.v);
        adj.entry(e.v).or_default().push(e.u);
    }
    adj
}

/// Extends the greedy-by-`π` MIS over the prefix of ranks `< t`, given the
/// batch of surviving conflicts among the prefix. Returns the vertices that
/// joined.
pub fn greedy_extend_prefix(
    perm: &[VertexId],
    rank: &[u32],
    t: u32,
    decided_upto: u32,
    dominated_flag: &[bool],
    in_mis: &mut [bool],
    batch: &[Edge],
) -> Vec<VertexId> {
    let adj = adjacency(batch);
    let mut newly: Vec<VertexId> = Vec::new();
    for &v in perm {
        if rank[v as usize] >= t {
            break;
        }
        if rank[v as usize] < decided_upto {
            continue; // decided in an earlier batch
        }
        if dominated_flag[v as usize] {
            continue; // covered by an earlier batch's choice
        }
        // v joins iff no already-chosen neighbor (batch edges cover all
        // surviving conflicts among the prefix).
        let blocked = adj
            .get(&v)
            .is_some_and(|ns| ns.iter().any(|&u| in_mis[u as usize]));
        if !blocked {
            in_mis[v as usize] = true;
            newly.push(v);
        }
    }
    newly
}

/// The final sweep: the greedy over all still-undecided, non-dominated
/// vertices, with `rest` being the surviving live edges. Sequentially
/// consistent with the batched greedy.
pub fn final_sweep(
    perm: &[VertexId],
    rank: &[u32],
    decided_upto: u32,
    dominated_flag: &[bool],
    in_mis: &mut [bool],
    rest: &[Edge],
) {
    let adj = adjacency(rest);
    for &v in perm {
        if in_mis[v as usize] || dominated_flag[v as usize] || rank[v as usize] < decided_upto {
            continue;
        }
        let blocked = adj
            .get(&v)
            .is_some_and(|ns| ns.iter().any(|&u| in_mis[u as usize]));
        if !blocked {
            in_mis[v as usize] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::mis::{greedy_mis, is_maximal_independent_set};
    use mpc_graph::{generators, Graph};
    use rand::SeedableRng;

    /// The large machine's steps over the whole prefix schedule, the small
    /// machines' pruning done in place: each prefix ships the live edges
    /// inside it, and the final sweep takes what stays live.
    fn mis(g: &Graph, seed: u64) -> (Vec<VertexId>, Vec<VertexId>) {
        let n = g.n();
        let (perm, rank) = permutation_ranks(&mut rand::rngs::SmallRng::seed_from_u64(seed), n);
        let (mut in_mis, mut dominated) = (vec![false; n], vec![false; n]);
        let mut live = g.edges().to_vec();
        let mut decided_upto = 0;
        for t in prefix_thresholds(n, (g.max_degree() as u32).max(2)) {
            let inside = |e: &&Edge| rank[e.u as usize] < t && rank[e.v as usize] < t;
            let batch: Vec<Edge> = live.iter().filter(inside).copied().collect();
            greedy_extend_prefix(
                &perm,
                &rank,
                t,
                decided_upto,
                &dominated,
                &mut in_mis,
                &batch,
            );
            decided_upto = t;
            for e in &live {
                if in_mis[e.u as usize] || in_mis[e.v as usize] {
                    (dominated[e.u as usize], dominated[e.v as usize]) = (true, true);
                }
            }
            live.retain(|e| !dominated[e.u as usize] && !dominated[e.v as usize]);
        }
        final_sweep(&perm, &rank, decided_upto, &dominated, &mut in_mis, &live);
        let set = (0..n as VertexId).filter(|&v| in_mis[v as usize]).collect();
        (set, perm)
    }

    /// Batched greedy-by-`π` equals the sequential greedy under `π`.
    fn check(g: &Graph, seed: u64) -> Vec<VertexId> {
        let (set, perm) = mis(g, seed);
        let mut greedy = greedy_mis(g, &perm);
        greedy.sort_unstable();
        assert_eq!(set, greedy, "seed {seed}");
        assert!(is_maximal_independent_set(g, &set), "seed {seed}");
        set
    }

    #[test]
    fn produces_maximal_independent_sets() {
        for seed in 0..4 {
            check(&generators::gnm(120, 900, seed), seed);
        }
    }

    #[test]
    fn handles_high_degree_graphs() {
        check(&generators::star(300), 1);
    }

    #[test]
    fn empty_graph_mis_is_everything() {
        assert_eq!(check(&Graph::empty(8), 0).len(), 8);
    }

    #[test]
    fn iteration_count_is_doubly_logarithmic() {
        let g = generators::gnm(256, 8000, 3); // Δ ≈ 60+
        let config = mpc_runtime::ClusterConfig::new(g.n(), g.m())
            .seed(3)
            .polylog_exponent(1.6);
        let (out, _) = crate::run_program("mis", &g, config, Default::default());
        let r = out.into_mis().unwrap();
        assert!(
            r.iterations <= 12,
            "expected O(log log Δ) iterations, got {}",
            r.iterations
        );
    }
}
