//! Distributed construction of the clustering graphs `A_0 … A_{logΔ−1}`
//! (Algorithm 5 / Lemma A.1, after Dory–Fischer–Khoury–Leitersdorf \[22\]).
//!
//! The pipeline the engine's spanner program runs from the steps here (all
//! `O(1)` rounds, levels and trials batched into shared exchanges):
//!
//! 1. degrees via aggregation (Claim 2);
//! 2. the large machine samples the candidate hitting sets `D^j_i`
//!    (probability `i/2^i`, `trials` independent trials per level) and
//!    disseminates per-vertex membership bitmasks (Claim 3);
//! 3. coverage aggregation adds every uncovered vertex of degree `≥ 2^i` to
//!    `D^j_i`; the large machine keeps the smallest trial per level
//!    (`D_i`) and forms `B_i = ∪_{j≥i} D_j`;
//! 4. star centers: `i_u = max{i : u ∈ B_i or N(u) ∩ B_i ≠ ∅}`,
//!    `σ_u = u` if `u ∈ B_{i_u}`, else `u`'s smallest neighbor in `B_{i_u}`
//!    (the paper picks a random neighbor; any works). Star edges `(u, σ_u)`
//!    join the spanner directly;
//! 5. cluster edges: an edge `{u,v}` with `⌊log₂ min(deg u, deg v)⌋ = i` and
//!    `σ_u ≠ σ_v` contributes `(σ_u, σ_v)` to `E_i`, carrying its smallest
//!    original witness edge (`E_G`, Lemma A.2).

use mpc_graph::{Edge, VertexId};
use rand::Rng;

/// Number of independent hitting-set trials per level.
///
/// The paper uses `log n` parallel trials to make the size bound hold w.h.p.
/// (Algorithm 5, line 3); a small constant suffices at simulator scale and
/// keeps the bitmasks one word wide (substitution recorded in DESIGN.md §4).
pub const HITTING_SET_TRIALS: usize = 4;

/// Key of a cluster edge: `((level << 32) | σ_u, σ_v)` with `σ_u < σ_v`.
pub type LevelEdgeKey = (u64, u64);

/// Packs a cluster-edge key.
pub fn level_edge_key(level: usize, cu: VertexId, cv: VertexId) -> LevelEdgeKey {
    let (a, b) = if cu <= cv { (cu, cv) } else { (cv, cu) };
    (((level as u64) << 32) | a as u64, b as u64)
}

/// Unpacks a cluster-edge key into `(level, σ_u, σ_v)`.
pub fn unpack_level_edge(key: &LevelEdgeKey) -> (usize, VertexId, VertexId) {
    (
        (key.0 >> 32) as usize,
        (key.0 & 0xFFFF_FFFF) as VertexId,
        key.1 as VertexId,
    )
}

/// Number of clustering levels for maximum degree `delta`
/// (`⌊log₂ Δ⌋`, at least 1).
pub fn levels_for_delta(delta: u32) -> usize {
    ((delta.max(1) as f64).log2().floor() as usize).max(1)
}

/// Bit index of trial `j` of level `i` in the packed hitting-set masks.
pub fn hitting_bit(i: usize, j: usize) -> u64 {
    1u64 << ((i - 1) * HITTING_SET_TRIALS + j)
}

/// The large machine's hitting-set sampling (Algorithm 5 line 3): one
/// membership mask per vertex, levels `1..levels`, [`HITTING_SET_TRIALS`]
/// trials each with probability `i/2^i`. The nested draw order is part of
/// the contract — the engine's `SpannerProgram` replays it bit-for-bit on
/// the same RNG stream.
pub fn sample_hitting_masks(rng: &mut rand::rngs::SmallRng, n: usize, levels: usize) -> Vec<u64> {
    let mut sampled: Vec<u64> = vec![0; n];
    for mask in sampled.iter_mut() {
        for i in 1..levels {
            let p = (i as f64 / (1u64 << i) as f64).min(1.0);
            for j in 0..HITTING_SET_TRIALS {
                if rng.random_bool(p) {
                    *mask |= hitting_bit(i, j);
                }
            }
        }
    }
    sampled
}

/// The large machine's local finish of the hitting sets: add uncovered
/// high-degree vertices, keep the smallest trial per level, and fold into
/// per-vertex `B_i = ∪_{lvl ≥ i} D_lvl` level masks.
pub fn finalize_b_masks(deg: &[u32], sampled: &[u64], covered: &[u64], levels: usize) -> Vec<u64> {
    let n = deg.len();
    let mut final_mask: Vec<u64> = vec![0; n];
    for v in 0..n {
        let mut m = sampled[v];
        for i in 1..levels {
            for j in 0..HITTING_SET_TRIALS {
                let b = hitting_bit(i, j);
                if deg[v] as u64 >= (1u64 << i) && sampled[v] & b == 0 && covered[v] & b == 0 {
                    m |= b;
                }
            }
        }
        final_mask[v] = m;
    }
    // D_0 = V (every vertex with an edge). Pick the smallest trial per level.
    let mut best_trial: Vec<usize> = vec![0; levels];
    for i in 1..levels {
        let mut best = usize::MAX;
        for j in 0..HITTING_SET_TRIALS {
            let size = (0..n)
                .filter(|&v| final_mask[v] & hitting_bit(i, j) != 0)
                .count();
            if size < best {
                best = size;
                best_trial[i] = j;
            }
        }
    }
    // B_i = ∪_{lvl >= i} D_lvl; encode as a per-vertex level mask.
    let mut b_mask: Vec<u64> = vec![0; n];
    for v in 0..n {
        let mut in_level = vec![false; levels];
        in_level[0] = deg[v] > 0; // D_0 = V
        for i in 1..levels {
            in_level[i] = final_mask[v] & hitting_bit(i, best_trial[i]) != 0;
        }
        let mut acc = false;
        for i in (0..levels).rev() {
            acc |= in_level[i];
            if acc {
                b_mask[v] |= 1 << i;
            }
        }
    }
    b_mask
}

/// Per-machine step: for every endpoint of the machine's edges, the
/// smallest neighbor inside `B_i` per level (`u32::MAX` = none) — the
/// candidate lists the vertex owners aggregate by elementwise minimum,
/// ascending by vertex. `bmasks_of(i)` is the B-masks of `edges[i]`'s
/// `(u, v)` endpoints.
pub fn min_neighbor_candidates(
    levels: usize,
    edges: &[Edge],
    bmasks_of: impl Fn(usize) -> (u64, u64),
) -> Vec<(VertexId, Vec<u32>)> {
    // One `(vertex, neighbor, neighbor's mask)` per edge side, grouped by
    // vertex; the minimum is order-independent, so the sort need not be
    // stable.
    let mut sides: Vec<(VertexId, VertexId, u64)> = Vec::with_capacity(2 * edges.len());
    for (i, e) in edges.iter().enumerate() {
        let (mu, mv) = bmasks_of(i);
        sides.push((e.u, e.v, mv));
        sides.push((e.v, e.u, mu));
    }
    sides.sort_unstable_by_key(|&(x, _, _)| x);
    let mut per_vertex: Vec<(VertexId, Vec<u32>)> = Vec::new();
    for run in sides.chunk_by(|a, b| a.0 == b.0) {
        let mut mins = vec![u32::MAX; levels];
        for &(_, y, ym) in run {
            for (i, m) in mins.iter_mut().enumerate() {
                if ym & (1 << i) != 0 {
                    *m = (*m).min(y);
                }
            }
        }
        per_vertex.push((run[0].0, mins));
    }
    per_vertex
}

/// Owner-side step: the star center `σ_v` of a vertex from its own B-mask
/// and its aggregated neighbor candidates (Algorithm 5 line 9: `i_v` is the
/// highest level where `v ∈ B_i` or a neighbor is; `σ_v = v` if `v` itself
/// qualifies, else the smallest qualifying neighbor).
pub fn sigma_for(
    v: VertexId,
    bmask: u64,
    cand: Option<&[u32]>,
    levels: usize,
) -> (VertexId, usize) {
    let mut iu = 0usize;
    for i in (0..levels).rev() {
        let self_in = bmask & (1 << i) != 0;
        let nbr_in = cand.is_some_and(|c| c[i] != u32::MAX);
        if self_in || nbr_in {
            iu = i;
            break;
        }
    }
    let sigma = if bmask & (1 << iu) != 0 {
        v
    } else {
        cand.expect("i_u > 0 implies a neighbor candidate")[iu]
    };
    (sigma, iu)
}

/// The clustering level of an edge: `⌊log₂ min(deg u, deg v)⌋`, clamped.
pub fn edge_level(du: u32, dv: u32, levels: usize) -> usize {
    let min_deg = du.min(dv).max(1);
    let level = (min_deg as f64).log2().floor() as usize;
    level.min(levels - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::generators;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, HashMap, HashSet};

    /// The `BTreeMap` form [`min_neighbor_candidates`] replaced, kept as
    /// oracle.
    fn min_neighbor_candidates_tree(
        levels: usize,
        edges: &[Edge],
        bmask_of: impl Fn(VertexId) -> u64,
    ) -> BTreeMap<VertexId, Vec<u32>> {
        let mut per_vertex: BTreeMap<VertexId, Vec<u32>> = BTreeMap::new();
        for e in edges {
            for (x, y) in [(e.u, e.v), (e.v, e.u)] {
                let ym = bmask_of(y);
                let entry = per_vertex
                    .entry(x)
                    .or_insert_with(|| vec![u32::MAX; levels]);
                for i in 0..levels {
                    if ym & (1 << i) != 0 {
                        entry[i] = entry[i].min(y);
                    }
                }
            }
        }
        per_vertex
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Empty shards, single vertices, self-loops, parallel edges and
        /// all-zero masks included.
        #[test]
        fn min_neighbor_candidates_match_the_tree_form(
            pairs in collection::vec((0u32..12, 0u32..12), 0..50),
            masks in collection::vec(0u64..32, 12..13),
            levels in 0usize..6,
        ) {
            let edges: Vec<Edge> = pairs.iter().map(|&(u, v)| Edge::unweighted(u, v)).collect();
            let mask = |v: VertexId| masks[v as usize];
            let want: Vec<(VertexId, Vec<u32>)> =
                min_neighbor_candidates_tree(levels, &edges, mask).into_iter().collect();
            let got = min_neighbor_candidates(levels, &edges, |i| {
                (mask(edges[i].u), mask(edges[i].v))
            });
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn key_packing_roundtrips() {
        let k = level_edge_key(5, 70, 3);
        assert_eq!(unpack_level_edge(&k), (5, 3, 70));
    }

    /// Steps 1–4 on one machine: `(v, σ_v)` for every vertex with an edge.
    fn sigmas(g: &mpc_graph::Graph, seed: u64) -> Vec<(VertexId, VertexId)> {
        let deg: Vec<u32> = g.degrees().into_iter().map(|d| d as u32).collect();
        let levels = levels_for_delta(deg.iter().copied().max().unwrap_or(1));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let sampled = sample_hitting_masks(&mut rng, g.n(), levels);
        let mut covered = vec![0u64; g.n()];
        for e in g.edges() {
            covered[e.u as usize] |= sampled[e.v as usize];
            covered[e.v as usize] |= sampled[e.u as usize];
        }
        let b = finalize_b_masks(&deg, &sampled, &covered, levels);
        let edges = g.edges();
        let cands = min_neighbor_candidates(levels, edges, |i| {
            (b[edges[i].u as usize], b[edges[i].v as usize])
        });
        (cands.iter())
            .map(|(v, c)| (*v, sigma_for(*v, b[*v as usize], Some(c), levels).0))
            .collect()
    }

    #[test]
    fn sigma_is_self_or_neighbor() {
        let g = generators::gnm(60, 240, 5);
        let adj = g.adjacency();
        for (v, s) in sigmas(&g, 5) {
            assert!(
                v == s || adj.neighbors(v).iter().any(|&(u, _)| u == s),
                "sigma({v}) = {s} is not a neighbor"
            );
        }
    }

    /// Step 5 on one machine after [`sigmas`]: `σ` per vertex, and each
    /// cluster edge with the first witness that names it.
    fn cluster_edges(
        g: &mpc_graph::Graph,
        seed: u64,
    ) -> (HashMap<VertexId, VertexId>, BTreeMap<LevelEdgeKey, Edge>) {
        let sigma: HashMap<VertexId, VertexId> = sigmas(g, seed).into_iter().collect();
        let deg = g.degrees();
        let levels = levels_for_delta(g.max_degree() as u32);
        let mut edges = BTreeMap::new();
        for e in g.edges() {
            let (su, sv) = (sigma[&e.u], sigma[&e.v]);
            if su != sv {
                let (du, dv) = (deg[e.u as usize] as u32, deg[e.v as usize] as u32);
                let key = level_edge_key(edge_level(du, dv, levels), su, sv);
                edges.entry(key).or_insert(*e);
            }
        }
        (sigma, edges)
    }

    #[test]
    fn every_edge_is_covered_by_star_or_cluster_edge() {
        // Lemma A.1 property 2: each edge lies in a star or yields a
        // cluster edge — equivalently (σ_u = σ_v) ∨ ((σ_u, σ_v) ∈ E_i).
        let g = generators::gnm(80, 400, 3);
        let (sigma, cluster_edges) = cluster_edges(&g, 3);
        let pairs: HashSet<(VertexId, VertexId)> = (cluster_edges.keys())
            .map(|k| {
                let (_, a, b) = unpack_level_edge(k);
                (a, b)
            })
            .collect();
        for e in g.edges() {
            let (su, sv) = (sigma[&e.u], sigma[&e.v]);
            assert!(
                su == sv || pairs.contains(&(su.min(sv), su.max(sv))),
                "edge {e:?} not represented: sigma=({su},{sv})"
            );
        }
    }

    #[test]
    fn witness_edges_connect_the_right_clusters() {
        let g = generators::gnm(70, 300, 7);
        let (sigma, cluster_edges) = cluster_edges(&g, 7);
        let deg = g.degrees();
        let levels = levels_for_delta(g.max_degree() as u32);
        for (key, orig) in &cluster_edges {
            let (level, a, b) = unpack_level_edge(key);
            let (su, sv) = (sigma[&orig.u], sigma[&orig.v]);
            assert_eq!(
                (su.min(sv), su.max(sv)),
                (a, b),
                "witness {orig:?} does not connect clusters {a},{b}"
            );
            let (du, dv) = (deg[orig.u as usize] as u32, deg[orig.v as usize] as u32);
            assert_eq!(level, edge_level(du, dv, levels), "witness {orig:?}");
        }
    }
}
