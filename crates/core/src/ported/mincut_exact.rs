//! Exact unweighted minimum cut in `O(1)` rounds (Theorem C.3, after
//! Ghaffari–Nowicki–Thorup \[32\]).
//!
//! One trial:
//! 1. **2-out contraction** — every vertex samples 2 incident edges
//!    (random-rank top-2 selection, Claim-4 style); the large machine
//!    contracts the sampled graph's components;
//! 2. **random-sampling contraction** — each surviving inter-component edge
//!    is sampled with probability `1/(2δ)` (`δ` = min degree) and contracted
//!    too, leaving `O(n/δ)` vertices and `O(n)` edges w.h.p.;
//! 3. the contracted **multigraph** (parallel edges = summed multiplicity)
//!    is shipped to the large machine, which computes its minimum cut value
//!    (`mpc_graph::mincut::min_cut_weight`) and compares against the best
//!    singleton cut (min degree).
//!
//! A non-singleton minimum cut survives a trial with constant probability;
//! trials amplify. Every trial's answer is a real cut, so the minimum over
//! trials is an upper bound that equals the true min cut w.h.p.

use crate::common;
use mpc_graph::{DisjointSets, Edge, VertexId};
use mpc_runtime::primitives::{aggregate_by_key, gather_to, top_t_per_key};
use mpc_runtime::{Cluster, ModelViolation, ShardedVec};
use rand::Rng;
use std::collections::HashMap;

/// Result of the exact min-cut port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCutResult {
    /// The minimum cut value found.
    pub value: u128,
    /// Whether the winner was a singleton cut (min degree).
    pub singleton: bool,
    /// Per-trial contracted sizes `(vertices, distinct edge pairs)`.
    pub trial_sizes: Vec<(usize, usize)>,
}

/// The random-sampling contraction probability of step 2: `1/(2δ)`.
pub fn step2_probability(delta: u32) -> f64 {
    1.0 / (2.0 * f64::from(delta))
}

/// What one trial's contracted multigraph implies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrialOutcome {
    /// Fewer than 2 contracted vertices: nothing left to cut.
    TooSmall,
    /// The contracted multigraph's minimum cut value.
    Cut(u128),
    /// The contracted graph is disconnected ⇒ the input is disconnected.
    Disconnected,
}

/// Step 3's local computation, shared by the legacy loop body and the
/// engine program: index the contracted multigraph `(pair → multiplicity)`
/// and take its minimum cut value. `components` is the contracted vertex
/// count (the component count after both contraction steps) — a contracted
/// vertex with no incident crossing edge is an isolated component, so
/// `ids < components` certifies the *input* graph disconnected (cut 0),
/// which the pair list alone cannot see. Returns the
/// `(vertices, distinct pairs)` size statistic and the trial's outcome.
pub fn evaluate_contraction(
    components: usize,
    pairs: &[((VertexId, VertexId), u64)],
) -> ((usize, usize), TrialOutcome) {
    let sizes = (components, pairs.len());
    if components < 2 {
        return (sizes, TrialOutcome::TooSmall);
    }
    let mut ids: Vec<VertexId> = pairs.iter().flat_map(|((a, b), _)| [*a, *b]).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() < components {
        return (sizes, TrialOutcome::Disconnected);
    }
    let slot = |v: &VertexId| ids.binary_search(v).expect("every endpoint is in ids") as u32;
    let cut_edges: Vec<(u32, u32, u64)> = pairs
        .iter()
        .map(|((a, b), c)| (slot(a), slot(b), *c))
        .collect();
    match mpc_graph::mincut::min_cut_weight(ids.len(), &cut_edges) {
        Some(weight) => (sizes, TrialOutcome::Cut(weight)),
        None => (sizes, TrialOutcome::Disconnected),
    }
}

/// Runs `trials` independent contraction trials and returns the best cut.
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn heterogeneous_min_cut(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    trials: usize,
) -> Result<MinCutResult, ModelViolation> {
    let large = cluster.large().expect("min cut requires a large machine");
    let owners = common::owners(cluster);

    // Degrees → min degree δ (singleton cuts are exact and free to check).
    let mut deg_items: ShardedVec<(VertexId, u32)> = ShardedVec::new(cluster);
    for mid in 0..edges.machines() {
        let shard = deg_items.shard_mut(mid);
        for e in edges.shard(mid) {
            shard.push((e.u, 1));
            shard.push((e.v, 1));
        }
    }
    let deg_at_owner = aggregate_by_key(cluster, "cut.degree", &deg_items, &owners, |a, b| a + b)?;
    let deg_pairs = gather_to(cluster, "cut.degree-up", &deg_at_owner, large)?;
    let delta = deg_pairs.iter().map(|&(_, d)| d).min().unwrap_or(0).max(1);
    let mut best = u128::from(delta);
    let mut singleton = true;
    let mut trial_sizes = Vec::new();

    for _trial in 0..trials {
        // Step 1: 2-out — random-rank top-2 incident edges per vertex.
        let mut items: ShardedVec<(VertexId, (u64, Edge))> = ShardedVec::new(cluster);
        for mid in 0..edges.machines() {
            let shard = items.shard_mut(mid);
            for e in edges.shard(mid) {
                let r1 = cluster.rng(mid).random::<u64>();
                let r2 = cluster.rng(mid).random::<u64>();
                shard.push((e.u, (r1, *e)));
                shard.push((e.v, (r2, *e)));
            }
        }
        let two_out = top_t_per_key(cluster, "cut.2out", &items, &owners, large, |_| 2, |x| x.0)?;
        let mut dsu = DisjointSets::new(n);
        for (_v, es) in &two_out {
            for (_r, e) in es {
                dsu.union(e.u, e.v);
            }
        }

        // Step 2: disseminate labels; sample surviving edges w.p. 1/(2δ).
        let p = step2_probability(delta);
        let labels = mpc_graph::traversal::components_from_dsu(&mut dsu);
        let label_pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
            .map(|v| (v, labels.label[v as usize]))
            .collect();
        let requests = common::endpoint_requests(cluster, edges, |e| (e.u, e.v));
        let delivered = mpc_runtime::primitives::disseminate(
            cluster,
            "cut.labels",
            &label_pairs,
            large,
            &requests,
            &owners,
        )?;
        let mut extra: ShardedVec<Edge> = ShardedVec::new(cluster);
        for mid in 0..edges.machines() {
            let lab: HashMap<VertexId, VertexId> = delivered.shard(mid).iter().copied().collect();
            let shard = extra.shard_mut(mid);
            for e in edges.shard(mid) {
                if lab[&e.u] != lab[&e.v] && cluster.rng(mid).random_bool(p) {
                    shard.push(*e);
                }
            }
        }
        let extra_edges = gather_to(cluster, "cut.sample", &extra, large)?;
        for e in &extra_edges {
            dsu.union(e.u, e.v);
        }
        let labels = mpc_graph::traversal::components_from_dsu(&mut dsu);

        // Step 3: contracted multigraph with multiplicities via aggregation.
        let label_pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
            .map(|v| (v, labels.label[v as usize]))
            .collect();
        let delivered = mpc_runtime::primitives::disseminate(
            cluster,
            "cut.labels2",
            &label_pairs,
            large,
            &requests,
            &owners,
        )?;
        let mut multi: ShardedVec<((u32, u32), u64)> = ShardedVec::new(cluster);
        for mid in 0..edges.machines() {
            let lab: HashMap<VertexId, VertexId> = delivered.shard(mid).iter().copied().collect();
            let shard = multi.shard_mut(mid);
            for e in edges.shard(mid) {
                let (a, b) = (lab[&e.u], lab[&e.v]);
                if a != b {
                    shard.push(((a.min(b), a.max(b)), 1));
                }
            }
        }
        let agg = aggregate_by_key(cluster, "cut.multi", &multi, &owners, |a, b| a + b)?;
        let pairs = gather_to(cluster, "cut.multi-up", &agg, large)?;
        cluster.account("cut.large", large, pairs.len() * 3)?;

        // Local minimum cut of the contracted multigraph.
        let (sizes, outcome) = evaluate_contraction(labels.count, &pairs);
        trial_sizes.push(sizes);
        match outcome {
            TrialOutcome::TooSmall => {}
            TrialOutcome::Cut(w) => {
                if w < best {
                    best = w;
                    singleton = false;
                }
            }
            TrialOutcome::Disconnected => {
                // Contracted graph disconnected ⇒ the input is disconnected.
                best = 0;
                singleton = false;
            }
        }
        cluster.release("cut.large");
    }
    Ok(MinCutResult {
        value: best,
        singleton,
        trial_sizes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::generators;
    use mpc_runtime::ClusterConfig;

    fn run(g: &mpc_graph::Graph, trials: usize, seed: u64) -> (MinCutResult, u64) {
        let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(seed));
        let input = common::distribute_edges(&cluster, g);
        let r = heterogeneous_min_cut(&mut cluster, g.n(), &input, trials).unwrap();
        (r, cluster.rounds())
    }

    #[test]
    fn finds_planted_cuts() {
        for (bridge, seed) in [(2usize, 1u64), (3, 2), (4, 3)] {
            let g = generators::planted_cut(24, 0.7, bridge, seed);
            let (r, _) = run(&g, 8, seed);
            let want = mpc_graph::mincut::min_cut(&g).unwrap().weight;
            assert_eq!(r.value, want, "bridge {bridge} seed {seed}");
        }
    }

    #[test]
    fn singleton_cut_is_immediate() {
        // A pendant vertex: min cut 1 via the degree check alone.
        let mut edges: Vec<Edge> = generators::complete(8).edges().to_vec();
        edges.push(Edge::unweighted(0, 8));
        let g = mpc_graph::Graph::new(9, edges);
        let (r, _) = run(&g, 4, 5);
        assert_eq!(r.value, 1);
    }

    #[test]
    fn never_underestimates() {
        // Every reported value is a real cut, so value >= true min cut.
        for seed in 0..4 {
            let g = generators::gnm(40, 160, seed);
            let (r, _) = run(&g, 3, seed);
            let want = mpc_graph::mincut::min_cut(&g).map_or(0, |m| m.weight);
            assert!(r.value >= want, "seed {seed}: {} < {want}", r.value);
        }
    }

    #[test]
    fn contraction_shrinks_the_graph() {
        let g = generators::gnm(120, 2000, 9);
        let (r, _) = run(&g, 2, 9);
        for &(nv, _ne) in &r.trial_sizes {
            assert!(nv < 120 / 4, "contraction left {nv} vertices");
        }
    }
}
