//! Global minimum cut: Stoer–Wagner reference implementation and helpers.
//!
//! The ported min-cut algorithms (Appendix C.2, C.3) contract the input down
//! to a small multigraph on the large machine and finish with a local
//! min-cut computation; this module provides that local computation plus the
//! validation oracle used in tests.

use crate::graph::Graph;
use crate::ids::{VertexId, Weight};

/// Weight of the cut `(S, V∖S)` where `side[v]` marks membership in `S`.
///
/// # Panics
///
/// Panics if `side.len() != g.n()` or the cut is trivial (all/none).
pub fn cut_value(g: &Graph, side: &[bool]) -> u128 {
    assert_eq!(side.len(), g.n());
    let s = side.iter().filter(|&&b| b).count();
    assert!(s > 0 && s < g.n(), "cut must be non-trivial");
    g.edges()
        .iter()
        .filter(|e| side[e.u as usize] != side[e.v as usize])
        .map(|e| e.w as u128)
        .sum()
}

/// Minimum weighted degree and its vertex — the best *singleton* cut.
/// Returns `None` for graphs with no vertices.
pub fn min_weighted_degree(g: &Graph) -> Option<(VertexId, u128)> {
    if g.n() == 0 {
        return None;
    }
    let mut wdeg = vec![0u128; g.n()];
    for e in g.edges() {
        wdeg[e.u as usize] += e.w as u128;
        wdeg[e.v as usize] += e.w as u128;
    }
    wdeg.into_iter()
        .enumerate()
        .min_by_key(|&(_, w)| w)
        .map(|(v, w)| (v as VertexId, w))
}

/// Result of a global min-cut computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCut {
    /// Total weight of the cut.
    pub weight: u128,
    /// One side of the cut (original vertex ids).
    pub side: Vec<VertexId>,
}

/// Stoer–Wagner global minimum cut on a weighted (multi)graph.
///
/// Parallel edges are merged by weight summation, matching multigraph
/// semantics of the contraction algorithms. `O(n³)` time — intended for the
/// large machine's *contracted* graphs, which have few vertices.
///
/// Returns `None` if the graph is disconnected (min cut 0 with an empty edge
/// set across it) — callers treat disconnection separately — or has < 2
/// vertices.
///
/// Ties are part of the contract, because `side` depends on them: each
/// maximum-adjacency step takes the **highest-numbered** vertex among the
/// most tightly connected ones, and among phases of equal cut weight the
/// **first** one wins.
pub fn stoer_wagner(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> Option<MinCut> {
    // A disconnected graph has min cut 0, which is reported as `None`.
    if n < 2 || !is_connected_edge_list(n, edges) {
        return None;
    }
    // Dense row-major weight matrix with parallel edges summed.
    let mut w = vec![0u128; n * n];
    for &(u, v, wt) in edges {
        if u == v {
            continue;
        }
        w[u as usize * n + v as usize] += wt as u128;
        w[v as usize * n + u as usize] += wt as u128;
    }
    // merged[v] = original vertices currently fused into v.
    let mut merged: Vec<Vec<VertexId>> = (0..n as VertexId).map(|v| vec![v]).collect();
    // Vertices not yet fused away, ascending.
    let mut active: Vec<usize> = (0..n).collect();
    let mut best: Option<MinCut> = None;
    let mut weights = vec![0u128; n];
    let mut rest: Vec<usize> = Vec::with_capacity(n);

    while active.len() > 1 {
        // Maximum-adjacency search. `rest` holds the vertices not yet
        // selected, in `active` order; `pick` is the position of the last
        // maximum of `weights` among them (all zero at first).
        weights.fill(0);
        rest.clone_from(&active);
        let mut pick = rest.len() - 1;
        let (mut s, mut t) = (usize::MAX, usize::MAX);
        while !rest.is_empty() {
            (s, t) = (t, rest.remove(pick));
            // One pass: add the selected vertex's row and find the next
            // selection; `>=` keeps the last of equal maxima.
            let row = &w[t * n..(t + 1) * n];
            let mut max = 0;
            for (pos, &v) in rest.iter().enumerate() {
                weights[v] += row[v];
                if weights[v] >= max {
                    max = weights[v];
                    pick = pos;
                }
            }
        }
        let cut_of_phase = weights[t];
        if best.as_ref().is_none_or(|b| cut_of_phase < b.weight) {
            best = Some(MinCut {
                weight: cut_of_phase,
                side: merged[t].clone(),
            });
        }
        // Merge t into s.
        let t_merged = std::mem::take(&mut merged[t]);
        merged[s].extend(t_merged);
        for &v in &active {
            if v != s && v != t {
                w[s * n + v] += w[t * n + v];
                w[v * n + s] = w[s * n + v];
            }
        }
        active.retain(|&v| v != t);
    }
    best
}

fn is_connected_edge_list(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> bool {
    let mut dsu = crate::dsu::DisjointSets::new(n);
    for &(u, v, _) in edges {
        dsu.union(u, v);
    }
    dsu.component_count() == 1
}

/// Convenience wrapper: Stoer–Wagner over a [`Graph`].
pub fn min_cut(g: &Graph) -> Option<MinCut> {
    let edges: Vec<(VertexId, VertexId, Weight)> =
        g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    stoer_wagner(g.n(), &edges)
}

/// Exhaustive minimum cut (2^(n−1) subsets); oracle for tiny graphs.
pub fn min_cut_bruteforce(g: &Graph) -> Option<u128> {
    let n = g.n();
    if !(2..=20).contains(&n) {
        return None;
    }
    let mut best = u128::MAX;
    for mask in 1u32..(1u32 << (n - 1)) {
        let side: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
        best = best.min(cut_value(g, &side));
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn matches_bruteforce_on_small_graphs() {
        for seed in 0..6 {
            let g = generators::gnm(9, 18, seed).with_random_weights(20, seed);
            let brute = min_cut_bruteforce(&g).unwrap();
            match min_cut(&g) {
                Some(mc) => assert_eq!(mc.weight, brute, "seed {seed}"),
                None => assert_eq!(brute, 0, "seed {seed}"),
            }
        }
    }

    #[test]
    fn planted_cut_is_found() {
        let g = generators::planted_cut(12, 0.8, 2, 3);
        let mc = min_cut(&g).unwrap();
        assert_eq!(mc.weight, 2);
        assert_eq!(mc.side.len(), 12);
    }

    #[test]
    fn parallel_edges_sum() {
        let mc = stoer_wagner(2, &[(0, 1, 3), (0, 1, 4)]).unwrap();
        assert_eq!(mc.weight, 7);
    }

    #[test]
    fn disconnected_returns_none() {
        assert!(stoer_wagner(3, &[(0, 1, 5)]).is_none());
        assert!(stoer_wagner(1, &[]).is_none());
    }

    /// Stoer–Wagner as it was before the single-pass rewrite (nested
    /// vectors, `max_by_key` selection, a second scan to update, buffers
    /// allocated per phase). Kept as the oracle for `weight` **and** `side`.
    fn stoer_wagner_reference(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> Option<MinCut> {
        if n < 2 {
            return None;
        }
        let mut w = vec![vec![0u128; n]; n];
        for &(u, v, wt) in edges {
            if u == v {
                continue;
            }
            w[u as usize][v as usize] += wt as u128;
            w[v as usize][u as usize] += wt as u128;
        }
        let mut merged: Vec<Vec<VertexId>> = (0..n as VertexId).map(|v| vec![v]).collect();
        let mut active: Vec<usize> = (0..n).collect();
        let mut best: Option<MinCut> = None;
        while active.len() > 1 {
            let mut weights = vec![0u128; n];
            let mut in_a = vec![false; n];
            let mut order = Vec::with_capacity(active.len());
            for _ in 0..active.len() {
                let &next = active
                    .iter()
                    .filter(|&&v| !in_a[v])
                    .max_by_key(|&&v| weights[v])
                    .expect("active vertex exists");
                in_a[next] = true;
                order.push(next);
                for &v in &active {
                    if !in_a[v] {
                        weights[v] += w[next][v];
                    }
                }
            }
            let t = *order.last().unwrap();
            let s = order[order.len() - 2];
            let candidate = MinCut {
                weight: weights[t],
                side: merged[t].clone(),
            };
            if best.as_ref().is_none_or(|b| candidate.weight < b.weight) {
                best = Some(candidate);
            }
            let t_merged = std::mem::take(&mut merged[t]);
            merged[s].extend(t_merged);
            for &v in &active {
                if v != s && v != t {
                    w[s][v] += w[t][v];
                    w[v][s] = w[s][v];
                }
            }
            active.retain(|&v| v != t);
        }
        let best = best.expect("n >= 2 yields at least one phase");
        if best.weight == 0 && !is_connected_edge_list(n, edges) {
            None
        } else {
            Some(best)
        }
    }

    /// Random multigraphs with everything the contraction algorithms can
    /// hand over: parallel edges, self-loops, zero and near-`u64::MAX / n`
    /// weights, many ties (small weight ranges), disconnected inputs.
    #[test]
    fn matches_reference_weight_and_side_on_random_multigraphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5707E2);
        let (mut connected, mut disconnected) = (0, 0);
        for case in 0..400 {
            let n = rng.random_range(2..=24usize);
            let m = rng.random_range(0..=4 * n);
            let max_w = match case % 4 {
                0 => 1,
                1 => 3,
                2 => 1 << 20,
                _ => u64::MAX / n as u64,
            };
            let edges: Vec<(VertexId, VertexId, Weight)> = (0..m)
                .map(|_| {
                    let u = rng.random_range(0..n) as VertexId;
                    let v = rng.random_range(0..n) as VertexId;
                    (u, v, rng.random_range(0..=max_w))
                })
                .collect();
            let got = stoer_wagner(n, &edges);
            assert_eq!(got, stoer_wagner_reference(n, &edges), "case {case}");
            let Some(mc) = got else {
                disconnected += 1;
                continue;
            };
            connected += 1;
            let mut side = vec![false; n];
            for &v in &mc.side {
                side[v as usize] = true;
            }
            let crossing: u128 = edges
                .iter()
                .filter(|e| side[e.0 as usize] != side[e.1 as usize])
                .map(|e| e.2 as u128)
                .sum();
            assert_eq!(crossing, mc.weight, "case {case}");
            // `Graph` keeps one copy of a parallel edge, so hand the
            // brute-force oracle the summed weights — when they fit.
            let mut summed = std::collections::BTreeMap::new();
            for &(u, v, w) in &edges {
                *summed.entry((u.min(v), u.max(v))).or_insert(0u128) += w as u128;
            }
            if n <= 9 && summed.values().all(|&w| w <= u64::MAX as u128) {
                let g = Graph::new(
                    n,
                    summed
                        .iter()
                        .map(|(&(u, v), &w)| crate::Edge::new(u, v, w as u64)),
                );
                assert_eq!(cut_value(&g, &side), mc.weight, "case {case}");
                assert_eq!(min_cut_bruteforce(&g), Some(mc.weight), "case {case}");
            }
        }
        assert!(
            connected > 100 && disconnected > 50,
            "both kinds are exercised"
        );
    }

    #[test]
    fn singleton_cut_helper() {
        let g = generators::star(4); // center 0, degree 3; leaves degree 1
        let (v, w) = min_weighted_degree(&g).unwrap();
        assert!(v >= 1);
        assert_eq!(w, 1);
    }

    #[test]
    fn cut_value_counts_crossing_edges() {
        let g = generators::path(4);
        assert_eq!(cut_value(&g, &[true, true, false, false]), 1);
        assert_eq!(cut_value(&g, &[true, false, true, false]), 3);
    }
}
