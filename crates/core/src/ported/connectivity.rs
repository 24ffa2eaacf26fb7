//! Connectivity in `O(1)` rounds (Theorem C.1, after AGM \[1\]).
//!
//! Flow:
//! 1. the large machine draws the hash seeds for the sketch family
//!    (`O(polylog n)` bits) and broadcasts them — this replaces the shared
//!    randomness of \[36\], as the paper prescribes;
//! 2. every small machine builds a *partial* sparse sketch per
//!    `(phase, vertex)` from its local edges (Property 1: sketches are
//!    linear, so partial sketches sum to the true vertex sketch) — the
//!    engine's sender kernel, its one batch split into per-key pairs for
//!    the call-style primitives;
//! 3. one aggregation merges partials at hash-owners, one gather ships the
//!    per-vertex sketches to the large machine (`Õ(n)` words);
//! 4. the large machine runs sketch-Borůvka **locally** — all `O(log n)`
//!    contraction phases happen inside one machine, which is the entire
//!    point of the port: rounds stay `O(1)` while the work that was
//!    `Ω(log n)` rounds in sublinear MPC becomes free local computation.

use crate::common;
use mpc_graph::traversal::Components;
use mpc_graph::Edge;
use mpc_runtime::primitives::{aggregate_by_key, broadcast, gather_to};
use mpc_runtime::{Cluster, ModelViolation, ShardedVec};
use mpc_sketch::{sketch_connectivity_batches, PartialBatch, SketchFamily, SparseSketch};
use rand::Rng;

/// Tuning for the connectivity port.
#[derive(Clone, Debug)]
pub struct ConnectivityConfig {
    /// Sketch-Borůvka phases (`≈ 2·log₂ n` for w.h.p. exactness).
    pub phases: usize,
}

impl ConnectivityConfig {
    /// Default: `2⌈log₂ n⌉ + 2` phases.
    pub fn for_n(n: usize) -> Self {
        ConnectivityConfig {
            phases: 2 * ((n.max(2) as f64).log2().ceil() as usize) + 2,
        }
    }
}

/// Computes connected components in `O(1)` rounds.
///
/// Returns min-id-labeled components (exact w.h.p.; decoded edges are
/// fingerprint-verified, so errors can only *under*-merge, never corrupt).
///
/// # Errors
///
/// Propagates capacity violations in strict mode — the sketch volume is
/// `Θ(n·log³ n)` bits, so clusters for this algorithm need a generous
/// polylog budget (`polylog_exponent ≥ 2.5`; see EXPERIMENTS.md).
pub fn heterogeneous_connectivity(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    config: &ConnectivityConfig,
) -> Result<Components, ModelViolation> {
    let large = cluster
        .large()
        .expect("connectivity requires a large machine");
    let owners = common::owners(cluster);

    // Round(s) 1: broadcast the family seed.
    let seed: u64 = cluster.rng(large).random();
    let targets = cluster.small_ids();
    broadcast(cluster, "conn.seed", large, &seed, &targets)?;
    let family = SketchFamily::new(n, config.phases, seed);

    // Local: partial sparse sketches per (phase, vertex) key.
    let mut partials: ShardedVec<(u64, SparseSketch)> = ShardedVec::new(cluster);
    for mid in 0..edges.machines() {
        let local: Vec<_> = edges.shard(mid).iter().map(|e| (e.u, e.v)).collect();
        *partials.shard_mut(mid) = family
            .partial_batches(&local, 1)
            .iter()
            .flat_map(PartialBatch::iter)
            .map(|(key, cells)| (key, SparseSketch::from_sorted_cells(cells)))
            .collect();
    }
    partials.account(cluster, "conn.partials")?;

    // Rounds 2–3: merge partials at owners (aggregation = sketch sum).
    let merged = aggregate_by_key(cluster, "conn.merge", &partials, &owners, |a, b| {
        let mut c = a.clone();
        c.merge(b);
        c
    })?;
    cluster.release("conn.partials");

    // Round 4: ship per-vertex sketches to the large machine.
    let mut gathered = gather_to(cluster, "conn.gather", &merged, large)?;
    let words: usize = gathered
        .iter()
        .map(|(_, s)| mpc_runtime::Payload::words(s))
        .sum();
    cluster.account("conn.large", large, words)?;

    // Local sketch-Borůvka on the large machine.
    gathered.sort_unstable_by_key(|&(key, _)| key);
    let mut batch = PartialBatch::default();
    for (key, sketch) in &gathered {
        batch.push(*key, sketch.cells().iter().copied());
    }
    let components = sketch_connectivity_batches(&family, &[batch], n);
    cluster.release("conn.large");
    Ok(components)
}

/// Decides the paper's motivating "1-vs-2 cycles" problem in `O(1)` rounds:
/// `true` iff the input (a disjoint union of cycles covering all `n`
/// vertices) is a single cycle.
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn one_vs_two_cycles(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
) -> Result<bool, ModelViolation> {
    let comps = heterogeneous_connectivity(cluster, n, edges, &ConnectivityConfig::for_n(n))?;
    Ok(comps.count == 1)
}

/// Counts components of the subgraph of weight `≤ threshold` — the
/// building block of the (1+ε)-MST estimator (Appendix C.1.1).
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn components_below_threshold(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    threshold: u64,
    config: &ConnectivityConfig,
) -> Result<usize, ModelViolation> {
    let filtered: ShardedVec<Edge> = ShardedVec::from_shards(
        (0..edges.machines())
            .map(|mid| {
                edges
                    .shard(mid)
                    .iter()
                    .filter(|e| e.w <= threshold)
                    .copied()
                    .collect()
            })
            .collect(),
    );
    Ok(heterogeneous_connectivity(cluster, n, &filtered, config)?.count)
}

/// A cluster configuration suitable for sketch-based algorithms: the sketch
/// volume is honestly `Θ(n log³ n)` bits, so the polylog budget must cover
/// it (the paper's `Õ(·)` hides the same factor).
pub fn sketch_friendly_config(n: usize, m: usize, seed: u64) -> mpc_runtime::ClusterConfig {
    mpc_runtime::ClusterConfig::new(n, m)
        .seed(seed)
        .polylog_exponent(2.6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::{generators, traversal::connected_components};
    use mpc_runtime::Cluster;

    fn run(g: &mpc_graph::Graph, seed: u64) -> (Components, u64) {
        let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m().max(1), seed));
        let input = common::distribute_edges(&cluster, g);
        let c = heterogeneous_connectivity(
            &mut cluster,
            g.n(),
            &input,
            &ConnectivityConfig::for_n(g.n()),
        )
        .unwrap();
        (c, cluster.rounds())
    }

    #[test]
    fn matches_reference_components() {
        for seed in 0..3 {
            let g = generators::gnm(96, 220, seed);
            let (got, _) = run(&g, seed);
            assert_eq!(got, connected_components(&g), "seed {seed}");
        }
    }

    #[test]
    fn constant_rounds_across_sizes() {
        let (_, r1) = run(&generators::gnm(64, 160, 1), 1);
        let (_, r2) = run(&generators::gnm(256, 640, 1), 1);
        assert!(r2 <= r1 + 4, "rounds should not grow with n: {r1} -> {r2}");
    }

    #[test]
    fn solves_one_vs_two_cycles() {
        let one = generators::cycle(120, 7);
        let two = generators::two_cycles(120, 7);
        let mut c1 = Cluster::new(sketch_friendly_config(120, 120, 3));
        let i1 = common::distribute_edges(&c1, &one);
        assert!(one_vs_two_cycles(&mut c1, 120, &i1).unwrap());
        let mut c2 = Cluster::new(sketch_friendly_config(120, 120, 3));
        let i2 = common::distribute_edges(&c2, &two);
        assert!(!one_vs_two_cycles(&mut c2, 120, &i2).unwrap());
    }

    #[test]
    fn threshold_counting() {
        // Path with increasing weights: threshold cuts the tail.
        let edges: Vec<Edge> = (0..9)
            .map(|i| Edge::new(i, i + 1, (i + 1) as u64))
            .collect();
        let g = mpc_graph::Graph::new(10, edges);
        let mut cluster = Cluster::new(sketch_friendly_config(10, 9, 5));
        let input = common::distribute_edges(&cluster, &g);
        let c =
            components_below_threshold(&mut cluster, 10, &input, 5, &ConnectivityConfig::for_n(10))
                .unwrap();
        // Edges 1..=5 survive: vertices 0-5 connected, 6,7,8,9 isolated.
        assert_eq!(c, 5);
    }
}
