//! Sequential Baswana–Sen spanners: the original Algorithm 1 and the
//! paper's *modified* Algorithm 2 (§4).
//!
//! The modified version replaces the neighborhood examined during
//! re-clustering with a subsampled one (`N_i(v)` over `G_i`, each edge kept
//! with probability `p`), which is what lets the large machine run the
//! clustering phase (lines 1–15) from `Õ(n)` sampled edges while the small
//! machines finish the removal edges (lines 16–18) against the full graph.
//! Lemma 4.3: the result is still a `(2k−1)`-spanner, of expected size
//! `O(k·n^(1+1/k)/p)`.
//!
//! Both variants are exposed sequentially here so that:
//!
//! * the distributed algorithm can run phase 1 on the large machine,
//! * the Figure-1 / Lemma-4.3 experiments can compare the two directly.

use mpc_graph::{Adjacency, Edge, Graph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-level clustering trace of a Baswana–Sen run.
#[derive(Clone, Debug, Default)]
pub struct BsLevelStats {
    /// Vertices whose center survived into this level.
    pub retained: usize,
    /// Vertices re-clustered to a neighboring surviving cluster.
    pub reclustered: usize,
    /// Vertices removed at this level (they add edges in phase 2).
    pub removed: usize,
    /// Edges added during re-clustering at this level (phase-1 edges).
    pub recluster_edges: usize,
}

/// Output of phase 1 (lines 1–15): clusters and re-clustering edges.
#[derive(Clone, Debug)]
pub struct BsPhase1 {
    /// Edges added while re-clustering (already spanner edges).
    pub edges: Vec<Edge>,
    /// `centers[i][v]` = center of `v`'s level-`i` cluster (`None` = ⊥),
    /// for `i = 0..=k`.
    pub centers: Vec<Vec<Option<VertexId>>>,
    /// Level at which each vertex became unclustered
    /// (`c_{t-1}(v) ≠ ⊥, c_t(v) = ⊥`); `None` if never (only possible for
    /// vertices missing from the graph).
    pub removal_level: Vec<Option<usize>>,
    /// Per-level statistics (index 0 = BS level 1).
    pub stats: Vec<BsLevelStats>,
}

impl BsPhase1 {
    /// The center history `(c_0(v), …, c_{t−1}(v))` of `v`, where `t` is
    /// `v`'s removal level — exactly the label `l_v` the large machine
    /// disseminates in Algorithm 6.
    pub fn history(&self, v: VertexId) -> Vec<VertexId> {
        let t = self.removal_level[v as usize].unwrap_or(self.centers.len() - 1);
        (0..t)
            .map(|i| self.centers[i][v as usize].expect("clustered below removal level"))
            .collect()
    }
}

/// Runs phase 1 (lines 1–15 of Algorithm 2) over per-level neighborhood
/// graphs.
///
/// `level_adj[i]` is the neighborhood graph re-clustered over at BS level
/// `i+1` (`i = 0..k-1`; level `k` samples no center, so nobody re-clusters
/// there), with every vertex's pairs in ascending order
/// ([`Adjacency::sorted`]): the full graph at every level for the original
/// Algorithm 1, so one adjacency serves them all, or the sampled `G_i` for
/// the modified version. Center sampling uses probability
/// `center_universe^{−1/k}` derived from `seed` (`center_universe` is the
/// true vertex count of the graph being spanned — for clustering graphs
/// `A_i` this is `|V_i|`, not the id-space size `n`).
pub fn phase1(
    n: usize,
    level_adj: &[&Adjacency],
    k: usize,
    seed: u64,
    center_universe: usize,
) -> BsPhase1 {
    assert!(k >= 1, "spanner parameter k must be >= 1");
    assert_eq!(
        level_adj.len(),
        k - 1,
        "need one neighborhood graph per re-clustering level"
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA5A_0A5E);
    let p_center = (center_universe.max(2) as f64).powf(-1.0 / k as f64);

    let mut centers: Vec<Vec<Option<VertexId>>> = Vec::with_capacity(k + 1);
    centers.push((0..n as VertexId).map(Some).collect()); // c_0(v) = v
    let mut alive: Vec<bool> = vec![true; n]; // v ∈ C_i (is a live center)
    let mut removal_level: Vec<Option<usize>> = vec![None; n];
    let mut edges_out: Vec<Edge> = Vec::new();
    let mut stats: Vec<BsLevelStats> = Vec::new();

    for i in 1..=k {
        // Sample C_i from C_{i-1} (empty at level k).
        let next_alive: Vec<bool> = if i == k {
            vec![false; n]
        } else {
            alive
                .iter()
                .map(|&a| a && rng.random_bool(p_center))
                .collect()
        };
        let prev = &centers[i - 1];
        let mut cur: Vec<Option<VertexId>> = vec![None; n];
        let mut st = BsLevelStats::default();
        for v in 0..n as VertexId {
            let Some(cv) = prev[v as usize] else { continue };
            if next_alive[cv as usize] {
                cur[v as usize] = Some(cv);
                st.retained += 1;
                continue;
            }
            // Try re-clustering through a (sampled) neighbor with a live
            // center; scan in neighbor order for determinism.
            let adopted = level_adj.get(i - 1).and_then(|adj| {
                adj.neighbors(v).iter().find_map(|&(u, w)| {
                    let cu = prev[u as usize]?;
                    next_alive[cu as usize].then_some((cu, u, w))
                })
            });
            match adopted {
                Some((c, u, w)) => {
                    cur[v as usize] = Some(c);
                    st.reclustered += 1;
                    st.recluster_edges += 1;
                    edges_out.push(Edge::new(u.min(v), u.max(v), w));
                }
                None => {
                    removal_level[v as usize] = Some(i);
                    st.removed += 1;
                }
            }
        }
        centers.push(cur);
        alive = next_alive;
        stats.push(st);
    }
    BsPhase1 {
        edges: edges_out,
        centers,
        removal_level,
        stats,
    }
}

/// Phase 2 (lines 16–18): for every removed vertex `v`, add one edge to each
/// adjacent cluster of the level *before* removal, scanning the **full**
/// neighborhood. Returns the removal edges.
pub fn phase2(g: &Graph, p1: &BsPhase1) -> Vec<Edge> {
    let adj = g.adjacency();
    let mut out: Vec<Edge> = Vec::new();
    for v in 0..g.n() as VertexId {
        let Some(t) = p1.removal_level[v as usize] else {
            continue;
        };
        // One edge per adjacent level-(t-1) cluster: choose the minimum
        // (cluster, neighbor) representative.
        let mut best: std::collections::BTreeMap<VertexId, (VertexId, u64)> =
            std::collections::BTreeMap::new();
        for &(u, w) in adj.neighbors(v) {
            if let Some(cu) = p1.centers[t - 1][u as usize] {
                // Skip v's own previous cluster (it no longer helps).
                if p1.centers[t - 1][v as usize] == Some(cu) {
                    continue;
                }
                best.entry(cu).or_insert((u, w));
            }
        }
        for (_c, (u, w)) in best {
            out.push(Edge::new(v.min(u), v.max(u), w));
        }
    }
    out
}

/// The original Baswana–Sen `(2k−1)`-spanner (Algorithm 1): phase 1 over the
/// full graph plus phase 2.
pub fn baswana_sen(g: &Graph, k: usize, seed: u64) -> (Graph, BsPhase1) {
    let adj = g.adjacency().sorted();
    let p1 = phase1(g.n(), &vec![&adj; k.saturating_sub(1)], k, seed, g.n());
    let mut edges = p1.edges.clone();
    edges.extend(phase2(g, &p1));
    (Graph::new(g.n(), edges), p1)
}

/// The paper's modified Baswana–Sen (Algorithm 2): phase 1 over per-level
/// subsamples (each edge kept independently with probability `p`), phase 2
/// over the full graph. Lemma 4.3: `(2k−1)`-spanner of expected size
/// `O(k·n^(1+1/k)/p)`.
pub fn modified_baswana_sen(g: &Graph, k: usize, p: f64, seed: u64) -> (Graph, BsPhase1) {
    assert!(
        (0.0..=1.0).contains(&p),
        "sampling probability must be in [0,1]"
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x90D1F1ED);
    let levels: Vec<Adjacency> = (1..k)
        .map(|_| {
            let sample: Vec<Edge> = g
                .edges()
                .iter()
                .filter(|_| rng.random_bool(p))
                .copied()
                .collect();
            Adjacency::from_edges(g.n(), &sample).sorted()
        })
        .collect();
    let p1 = phase1(g.n(), &levels.iter().collect::<Vec<_>>(), k, seed, g.n());
    let mut edges = p1.edges.clone();
    edges.extend(phase2(g, &p1));
    (Graph::new(g.n(), edges), p1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::{generators, verify_spanner};

    #[test]
    fn original_is_a_2k_minus_1_spanner() {
        for (k, seed) in [(2usize, 1u64), (3, 2), (4, 3)] {
            let g = generators::gnm(120, 900, seed);
            let (h, _) = baswana_sen(&g, k, seed);
            let r = verify_spanner(&g, &h, None, 0);
            assert!(
                r.within((2 * k - 1) as f64),
                "k={k}: stretch {} > {}",
                r.max_stretch,
                2 * k - 1
            );
        }
    }

    #[test]
    fn modified_is_a_2k_minus_1_spanner_for_any_p() {
        for p in [0.1f64, 0.3, 0.7] {
            let g = generators::gnm(100, 800, 7);
            let k = 3;
            let (h, _) = modified_baswana_sen(&g, k, p, 11);
            let r = verify_spanner(&g, &h, None, 0);
            assert!(
                r.within((2 * k - 1) as f64),
                "p={p}: stretch {} > {}",
                r.max_stretch,
                2 * k - 1
            );
        }
    }

    #[test]
    fn modified_size_grows_as_p_shrinks() {
        // Lemma 4.3: expected size O(k n^{1+1/k} / p) — halving p should
        // not *shrink* the spanner; across a wide p range the growth shows.
        let g = generators::gnm(200, 4000, 5);
        let k = 3;
        let size_at = |p: f64| {
            // Average over seeds to tame variance.
            (0..5)
                .map(|s| modified_baswana_sen(&g, k, p, 100 + s).0.m())
                .sum::<usize>() as f64
                / 5.0
        };
        let big_p = size_at(0.9);
        let small_p = size_at(0.15);
        assert!(
            small_p > 1.2 * big_p,
            "expected 1/p growth: size(p=0.15)={small_p} vs size(p=0.9)={big_p}"
        );
    }

    #[test]
    fn modified_with_p_one_matches_original_structure() {
        let g = generators::gnm(80, 400, 3);
        let (h_orig, _) = baswana_sen(&g, 3, 42);
        let (h_mod, _) = modified_baswana_sen(&g, 3, 1.0, 42);
        // Same seed, p=1 → same center sampling; sizes should be close
        // (sampling RNG draw order differs, so exact equality is not
        // guaranteed — but both must be valid spanners of similar size).
        assert!(h_mod.m() <= 2 * h_orig.m() + g.n());
        assert!(verify_spanner(&g, &h_mod, None, 0).within(5.0));
    }

    #[test]
    fn histories_have_length_equal_to_removal_level() {
        let g = generators::gnm(60, 300, 9);
        let (_, p1) = baswana_sen(&g, 3, 9);
        for v in 0..60 {
            let h = p1.history(v);
            if let Some(t) = p1.removal_level[v as usize] {
                assert_eq!(h.len(), t);
            }
            // History entries are the recorded centers.
            for (i, c) in h.iter().enumerate() {
                assert_eq!(p1.centers[i][v as usize], Some(*c));
            }
        }
    }

    #[test]
    fn every_vertex_eventually_removed() {
        let g = generators::gnm(50, 200, 4);
        let (_, p1) = baswana_sen(&g, 2, 4);
        for v in 0..50 {
            assert!(
                p1.removal_level[v as usize].is_some(),
                "vertex {v} never removed"
            );
        }
    }

    #[test]
    fn stats_account_for_all_vertices() {
        let g = generators::gnm(90, 500, 6);
        let (_, p1) = baswana_sen(&g, 3, 6);
        let s = &p1.stats[0];
        assert_eq!(s.retained + s.reclustered + s.removed, 90);
    }
}
