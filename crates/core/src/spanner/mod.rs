//! `O(k)`-spanners of size `O(n^(1+1/k))` in `O(1)` rounds (§4, Thm 4.1).
//!
//! Pipeline (unweighted; the engine's spanner program in `mpc-exec` runs
//! it from the steps here):
//!
//! 1. [`clustering`]'s steps build the clustering graphs
//!    `A_0 … A_{logΔ−1}` (Algorithm 5); star edges join the spanner
//!    immediately.
//! 2. For every level `i`, a `(2k−1)`-spanner `H_i` of `A_i` is computed
//!    (Algorithm 6): levels with `p_i = min(1, 2k·i^(1+1/k)/2^i) = 1` ship
//!    all of `E_i` to the large machine, which spans them exactly (original
//!    Baswana–Sen); the remaining levels ship `k−1` subsamples and run the
//!    paper's **modified** Baswana–Sen ([`baswana_sen`]): phase 1 on the
//!    large machine, removal edges found by the small machines against the
//!    full `E_i` via the disseminated cluster-center histories.
//! 3. Lemma A.2 combines: `H = stars ∪ ⋃ᵢ E_G(H_i)` is a `(6k−1)`-spanner
//!    of `G` with expected `O(n^(1+1/k))` edges.
//!
//! The weighted case reduces to `O(log W)` unweighted instances by weight
//! class (factor-2 buckets), giving a `(12k−1)`-spanner of size
//! `O(n^(1+1/k) log n)` — the reduction the paper cites from \[22\].

pub mod apsp;
pub mod baswana_sen;
pub mod clustering;

use crate::common;
use clustering::{level_edge_key, unpack_level_edge, LevelEdgeKey};
use mpc_graph::{Adjacency, Edge, Graph, VertexId, Weight};
use mpc_runtime::ShardedVec;
use std::collections::HashMap;

/// Statistics of a spanner run.
#[derive(Clone, Debug, Default)]
pub struct SpannerStats {
    /// Number of clustering-graph levels.
    pub levels: usize,
    /// Levels shipped in full (`p_i = 1` or `i = 0`).
    pub full_levels: Vec<usize>,
    /// Levels spanned through modified Baswana–Sen with their `p_i`.
    pub sampled_levels: Vec<(usize, f64)>,
    /// Star edges contributed by the clustering structure.
    pub star_edges: usize,
    /// Phase-1 (re-clustering) edges added by the large machine.
    pub phase1_edges: usize,
    /// Removal edges added by the small machines.
    pub removal_edges: usize,
    /// Per-level `|E_i|`.
    pub level_edge_counts: Vec<usize>,
    /// Weight classes processed (1 for unweighted input).
    pub weight_classes: usize,
}

/// Output of the spanner algorithms.
#[derive(Clone, Debug)]
pub struct SpannerResult {
    /// The spanner (a subgraph of the input).
    pub spanner: Graph,
    /// Execution statistics.
    pub stats: SpannerStats,
}

/// The per-level sampling probability
/// `p_i = min(1, 2k·i^(1+1/k)/2^i)` (level 0 ships in full).
pub fn sampling_probability(k: usize, i: usize) -> f64 {
    if i == 0 {
        return 1.0;
    }
    let k_f = k as f64;
    (2.0 * k_f * (i as f64).powf(1.0 + 1.0 / k_f) / (1u64 << i) as f64).min(1.0)
}

/// Output of the large machine's local per-level spanning step.
pub struct LevelSpans {
    /// Witness-mapped phase-1 spanner edges (full levels exact, sampled
    /// levels re-clustering edges).
    pub edges: Vec<Edge>,
    /// Phase-1 clustering traces of the sampled levels (for history
    /// dissemination), keyed by level.
    pub phase1: std::collections::BTreeMap<usize, baswana_sen::BsPhase1>,
    /// `(level, σ_u, σ_v)` → smallest original witness edge.
    pub witness: HashMap<LevelEdgeKey, Edge>,
    /// Phase-1 edge count (for [`SpannerStats::phase1_edges`]).
    pub phase1_edges: usize,
}

/// The large machine's local step: span every level from the gathered
/// `(tag, cluster-edge key, witness)` triples — full levels via original
/// Baswana–Sen (phases 1+2), sampled levels via the modified phase 1 only.
pub fn span_levels(n: usize, k: usize, received: &[(u32, LevelEdgeKey, Edge)]) -> LevelSpans {
    let mut witness: HashMap<LevelEdgeKey, Edge> = HashMap::new();
    let mut full_edges: HashMap<usize, Vec<Edge>> = HashMap::new();
    let mut sampled_edges: HashMap<usize, Vec<Vec<Edge>>> = HashMap::new();
    for (tag, key, orig) in received {
        let (i, a, b) = unpack_level_edge(key);
        witness.insert(*key, *orig);
        let j = (tag & 0xFF) as usize;
        if j == 0 {
            full_edges
                .entry(i)
                .or_default()
                .push(Edge::unweighted(a, b));
        } else {
            // BS levels 1..k−1 re-cluster over subsamples j = 1..k−1.
            let slot = sampled_edges
                .entry(i)
                .or_insert_with(|| vec![Vec::new(); k - 1]);
            slot[j - 1].push(Edge::unweighted(a, b));
        }
    }
    let mut spanner_edges: Vec<Edge> = Vec::new();
    let mut phase1_edges = 0usize;
    // Full levels: exact (2k−1)-spanner via original Baswana–Sen.
    let mut full_levels: Vec<usize> = full_edges.keys().copied().collect();
    full_levels.sort_unstable();
    for i in full_levels {
        let level_edges = &full_edges[&i];
        let a_i = Graph::new(n, level_edges.iter().copied());
        let n_i = distinct_endpoints(level_edges).max(2);
        let adj = a_i.adjacency().sorted();
        let p1 = baswana_sen::phase1(n, &vec![&adj; k - 1], k, 0xF011 + i as u64, n_i);
        let mut h_i = p1.edges.clone();
        h_i.extend(baswana_sen::phase2(&a_i, &p1));
        phase1_edges += h_i.len();
        for e in h_i {
            spanner_edges.push(witness[&level_edge_key(i, e.u, e.v)]);
        }
    }
    // Sampled levels: phase 1 only; remember histories for dissemination.
    let mut phase1_by_level: std::collections::BTreeMap<usize, baswana_sen::BsPhase1> =
        std::collections::BTreeMap::new();
    let mut sampled_levels: Vec<usize> = sampled_edges.keys().copied().collect();
    sampled_levels.sort_unstable();
    for i in sampled_levels {
        let subs = &sampled_edges[&i];
        let n_i = distinct_endpoints(subs.iter().flatten()).max(2);
        let adjs: Vec<Adjacency> = (subs.iter())
            .map(|sub| Adjacency::from_edges(n, sub).sorted())
            .collect();
        let levels: Vec<&Adjacency> = adjs.iter().collect();
        let p1 = baswana_sen::phase1(n, &levels, k, 0x5AAD + i as u64, n_i);
        phase1_edges += p1.edges.len();
        for e in &p1.edges {
            spanner_edges.push(witness[&level_edge_key(i, e.u, e.v)]);
        }
        phase1_by_level.insert(i, p1);
    }
    LevelSpans {
        edges: spanner_edges,
        phase1: phase1_by_level,
        witness,
        phase1_edges,
    }
}

/// Per-edge removal-candidate step (Algorithm 6 lines 21–29): vertex `x`
/// removed at level `t`, neighbor cluster `c` at level `t−1` reached
/// through `y` — the owners keep the smallest `y` per `(level, x, c)`.
/// Own-cluster candidates are skipped (the in-cluster path already
/// certifies the stretch, as in classic Baswana–Sen).
pub fn removal_candidates_for(
    level: usize,
    a: VertexId,
    b: VertexId,
    ha: &[u32],
    hb: &[u32],
    orig: Edge,
) -> Vec<((u64, u64), (u32, Edge))> {
    let mut out = Vec::new();
    for ((x, hx), (y, hy)) in [((a, ha), (b, hb)), ((b, hb), (a, ha))] {
        let t = hx.len();
        // x was removed at level t; y must still be clustered at t−1.
        if t >= 1 && hy.len() >= t {
            let c = hy[t - 1];
            if hx[t - 1] != c {
                out.push(((((level as u64) << 32) | x as u64, c as u64), (y, orig)));
            }
        }
    }
    out
}

/// The factor-2 weight classes of a sharded edge set: `total` is the class
/// count of the weight range (`⌊log₂ W⌋ + 1`, including empty classes —
/// the figure `SpannerStats::weight_classes` reports), `shards` the
/// non-empty classes (with their class index) in ascending weight order —
/// the order of the weighted spanner's instances.
pub struct WeightClasses {
    /// `⌊log₂ W⌋ + 1` — factor-2 classes covering the weight range.
    pub total: usize,
    /// `(class index, class-filtered shards)` for every non-empty class.
    pub shards: Vec<(usize, ShardedVec<Edge>)>,
}

/// The factor-2 weight class of `w`: `⌊log₂ max(w, 1)⌋`, in integers — the
/// one classifier behind [`weight_class_shards`] and the registry's share
/// count, so a zero-weight edge lands in class 0 for both and weights up
/// to `u64::MAX` neither round nor overflow.
pub fn weight_class(w: Weight) -> usize {
    (63 - w.max(1).leading_zeros()) as usize
}

/// Splits `edges` into factor-2 weight classes (see [`WeightClasses`]).
pub fn weight_class_shards(edges: &ShardedVec<Edge>) -> WeightClasses {
    let max_w = edges.iter().map(|(_, e)| e.w).max().unwrap_or(1);
    let total = weight_class(max_w) + 1;
    let mut shards = Vec::new();
    for c in 0..total {
        let class_edges: ShardedVec<Edge> = ShardedVec::from_shards(
            (0..edges.machines())
                .map(|mid| {
                    edges
                        .shard(mid)
                        .iter()
                        .filter(|e| weight_class(e.w) == c)
                        .copied()
                        .collect()
                })
                .collect(),
        );
        if class_edges.total_len() > 0 {
            shards.push((c, class_edges));
        }
    }
    WeightClasses { total, shards }
}

/// Merges the per-class spanners back into one weighted result: restores
/// each class's true weights on its witness edges and folds the
/// statistics — the tail of the \[22\] reduction (`results[i]` belongs to
/// `classes.shards[i]`).
pub fn merge_class_results(
    n: usize,
    classes: &WeightClasses,
    results: Vec<SpannerResult>,
) -> SpannerResult {
    assert_eq!(classes.shards.len(), results.len(), "one result per class");
    let mut all_edges: Vec<Edge> = Vec::new();
    let mut stats = SpannerStats {
        weight_classes: classes.total,
        ..Default::default()
    };
    for ((_c, class_edges), r) in classes.shards.iter().zip(results) {
        stats.levels = stats.levels.max(r.stats.levels);
        stats.star_edges += r.stats.star_edges;
        stats.phase1_edges += r.stats.phase1_edges;
        stats.removal_edges += r.stats.removal_edges;
        // Restore true weights on the witness edges of this class.
        let class_graph = common::collect_graph(n, class_edges);
        let weight_of: HashMap<(VertexId, VertexId), u64> = class_graph
            .edges()
            .iter()
            .map(|e| ((e.u, e.v), e.w))
            .collect();
        for e in r.spanner.edges() {
            let w = weight_of.get(&(e.u, e.v)).copied().unwrap_or(e.w);
            all_edges.push(Edge::new(e.u, e.v, w));
        }
    }
    SpannerResult {
        spanner: Graph::new(n, all_edges),
        stats,
    }
}

fn distinct_endpoints<'e>(edges: impl IntoIterator<Item = &'e Edge>) -> usize {
    let mut v: Vec<VertexId> = edges.into_iter().flat_map(|e| [e.u, e.v]).collect();
    v.sort_unstable();
    v.dedup();
    v.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_classes_are_integer_and_cover_every_edge() {
        for (w, class) in [
            (0u64, 0usize),
            (1, 0),
            (2, 1),
            (3, 1),
            (8, 3),
            ((1 << 53) - 1, 52),
            (1 << 63, 63),
            (u64::MAX, 63),
        ] {
            assert_eq!(weight_class(w), class, "w = {w}");
        }
        let weights = [0u64, 1, 8, 9, u64::MAX];
        let edges: Vec<Edge> = (weights.iter().enumerate())
            .map(|(i, &w)| Edge::new(i as u32, i as u32 + 1, w))
            .collect();
        let classes = weight_class_shards(&ShardedVec::from_shards(vec![Vec::new(), edges]));
        assert_eq!(classes.total, 64);
        let sizes: Vec<(usize, usize)> = (classes.shards.iter())
            .map(|(c, shard)| (*c, shard.total_len()))
            .collect();
        assert_eq!(sizes, [(0, 2), (3, 2), (63, 1)]);
    }

    /// The engine's spanner program `name` with parameter `k` on `g`.
    fn run(name: &str, g: &Graph, k: usize, seed: u64) -> (mpc_exec::AlgoOutput, u64) {
        let config = mpc_runtime::ClusterConfig::new(g.n(), g.m())
            .seed(seed)
            .polylog_exponent(1.6);
        let params = mpc_exec::JobParams::default().spanner_k(k);
        crate::run_program(name, g, config, params)
    }

    #[test]
    fn unweighted_stretch_is_at_most_6k_minus_1() {
        for (k, seed) in [(2usize, 1u64), (3, 2)] {
            let g = mpc_graph::generators::gnm(120, 1000, seed);
            let r = run("spanner", &g, k, seed).0.into_spanner().unwrap();
            let rep = mpc_graph::verify_spanner(&g, &r.spanner, None, 0);
            assert!(
                rep.within((6 * k - 1) as f64),
                "k={k}: stretch {} > {}",
                rep.max_stretch,
                6 * k - 1
            );
        }
    }

    #[test]
    fn spanner_is_sparser_than_input_on_dense_graphs() {
        let g = mpc_graph::generators::gnm(150, 4000, 4);
        let r = run("spanner", &g, 3, 4).0.into_spanner().unwrap();
        assert!(
            r.spanner.m() < g.m() / 2,
            "spanner has {} of {} edges",
            r.spanner.m(),
            g.m()
        );
    }

    #[test]
    fn rounds_are_constant_in_n() {
        let mut rounds = Vec::new();
        for exp in [7usize, 8, 9] {
            let n = 1 << exp;
            let g = mpc_graph::generators::gnm(n, n * 8, 9);
            rounds.push(run("spanner", &g, 3, 9).1);
        }
        // O(1) rounds: no growth trend beyond small jitter.
        let max = *rounds.iter().max().unwrap();
        let min = *rounds.iter().min().unwrap();
        assert!(
            max <= min + 8,
            "rounds should be ~constant in n, got {rounds:?}"
        );
    }

    #[test]
    fn weighted_stretch_is_at_most_12k_minus_1() {
        let g = mpc_graph::generators::gnm(100, 800, 6).with_random_weights(64, 6);
        let r = run("spanner-weighted", &g, 2, 6).0.into_spanner().unwrap();
        let rep = mpc_graph::verify_spanner(&g, &r.spanner, None, 0);
        assert!(rep.within(23.0), "stretch {} > 23", rep.max_stretch);
        assert!(r.stats.weight_classes >= 2);
    }

    #[test]
    fn stats_are_populated() {
        let g = mpc_graph::generators::gnm(100, 1200, 3);
        let r = run("spanner", &g, 3, 3).0.into_spanner().unwrap();
        let s = &r.stats;
        assert!(s.levels >= 2);
        assert_eq!(s.full_levels.len() + s.sampled_levels.len(), s.levels);
        assert!(s.star_edges > 0);
    }
}
