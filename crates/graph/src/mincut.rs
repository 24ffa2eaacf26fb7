//! Global minimum cut: the large machine's local solvers and their oracles.
//!
//! The ported min-cut algorithms (Appendix C.2, C.3) contract the input down
//! to a small multigraph on the large machine and finish with a local
//! min-cut computation. They need only the cut's *value*, which
//! [`min_cut_weight`] (Nagamochi–Ono–Ibaraki contraction, near-linear on
//! their sparse inputs) provides; [`stoer_wagner`] is the `O(n³)` routine
//! that also returns one side of the cut, used by [`min_cut`], by validation
//! and as the test oracle.

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

/// Weight of a global minimum cut, without a side: Nagamochi–Ono–Ibaraki
/// contraction. Same contract as [`stoer_wagner`] — `None` for `n < 2` or an
/// edge list that does not connect the graph (zero-weight edges connect),
/// parallel edges summed, self-loops ignored, `u128` sums — and the same
/// value, but no tie-breaking contract: nothing here depends on the order
/// in which equally attached vertices are scanned.
///
/// `best` is the smallest weighted degree seen so far; each is a real cut.
/// A phase is one maximum-adjacency scan, as in Stoer–Wagner, with `r[y]`
/// the weight between `y` and the vertices scanned so far. A vertex
/// selected with `r ≥ best` is `r`-connected to the vertex selected just
/// before it (Stoer–Wagner's cut-of-the-phase lemma on the scanned prefix),
/// so no cut lighter than `best` separates the two and they are contracted.
/// While an unscanned `y` has `r[y] ≥ best`, every selection up to `y` has
/// too, so this contracts every edge `(x, y)` whose NOI label `q = r[y]`
/// after scanning `x` reaches `best` — whole runs of the scan order per
/// phase instead of Stoer–Wagner's last pair. The last vertex of a scan has
/// `r` = its degree `≥ best`, so every phase contracts.
///
/// A phase costs `O(m + k²)` on `k` live vertices (adjacency arrays, a
/// linear arg-max over a compact `r`), `O(n + m)` memory. On the sparse
/// multigraphs the min-cut programs hand over, the first phase leaves a
/// handful of vertices: n = 288, m = 1440 takes ≈ 0.1 ms against
/// Stoer–Wagner's ≈ 10 ms. Inputs on which few vertices reach `best` per
/// scan still take `Θ(n)` phases: a cycle is on par with Stoer–Wagner, and
/// a near-complete unit-weight graph (n = 64, m = 2000) takes ≈ 0.5 ms,
/// 3.5× Stoer–Wagner's time. There is deliberately no switch for them.
pub fn min_cut_weight(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> Option<u128> {
    if n < 2 || !is_connected_edge_list(n, edges) {
        return None;
    }
    // Live edges over vertices `0..k`; parallel edges stay separate entries.
    let mut live: Vec<(VertexId, VertexId, Weight)> =
        edges.iter().copied().filter(|&(u, v, _)| u != v).collect();
    let mut k = n;
    let mut best = min_degree(k, &live);
    // Adjacency arrays of the phase: `adj[start[v]..start[v + 1]]`.
    let mut start: Vec<usize> = Vec::new();
    let mut adj: Vec<(VertexId, Weight)> = Vec::new();
    // Unscanned vertices and their `r`, position-parallel; `pos[v]` is
    // `v`'s position in both, `SCANNED` once selected.
    const SCANNED: u32 = u32::MAX;
    let mut rest: Vec<VertexId> = Vec::new();
    let mut r: Vec<u128> = Vec::new();
    let mut pos: Vec<u32> = Vec::new();
    let mut group: Vec<VertexId> = vec![0; n];

    while k > 1 && best > 0 {
        // Counting sort by endpoint. Counts go two slots up, so after the
        // prefix sums `start[v + 1]` is where `v`'s range begins; filling
        // advances it to where the range ends, i.e. where `v + 1`'s begins.
        start.clear();
        start.resize(k + 2, 0);
        for &(u, v, _) in &live {
            start[u as usize + 2] += 1;
            start[v as usize + 2] += 1;
        }
        for v in 2..k + 2 {
            start[v] += start[v - 1];
        }
        adj.clear();
        adj.resize(2 * live.len(), (0, 0));
        for &(u, v, w) in &live {
            for (a, b) in [(u, v), (v, u)] {
                adj[start[a as usize + 1]] = (b, w);
                start[a as usize + 1] += 1;
            }
        }

        rest.clear();
        rest.extend(0..k as VertexId);
        pos.clear();
        pos.extend(0..k as u32);
        r.clear();
        r.resize(k, 0);
        let mut groups = 0;
        let mut pick = 0;
        while !rest.is_empty() {
            let x = rest.swap_remove(pick) as usize;
            // The first selection has `r = 0 < best`.
            if r.swap_remove(pick) < best {
                groups += 1;
            }
            group[x] = groups - 1;
            pos[x] = SCANNED;
            if let Some(&moved) = rest.get(pick) {
                pos[moved as usize] = pick as u32;
            }
            for &(y, w) in &adj[start[x]..start[x + 1]] {
                if pos[y as usize] != SCANNED {
                    r[pos[y as usize] as usize] += w as u128;
                }
            }
            let mut max = 0;
            pick = 0;
            for (at, &ry) in r.iter().enumerate() {
                if ry > max {
                    (max, pick) = (ry, at);
                }
            }
        }
        debug_assert!(
            (groups as usize) < k,
            "the last vertex of a scan has r = its degree >= best"
        );

        live.retain_mut(|e| {
            (e.0, e.1) = (group[e.0 as usize], group[e.1 as usize]);
            e.0 != e.1
        });
        k = groups as usize;
        if k > 1 {
            best = best.min(min_degree(k, &live));
        }
    }
    Some(best)
}

/// Smallest weighted degree over vertices `0..k` (`k ≥ 1`) of a loop-free
/// edge list.
fn min_degree(k: usize, edges: &[(VertexId, VertexId, Weight)]) -> u128 {
    let mut degree = vec![0u128; k];
    for &(u, v, w) in edges {
        degree[u as usize] += w as u128;
        degree[v as usize] += w as u128;
    }
    degree.into_iter().min().expect("k >= 1")
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
    stoer_wagner(g.n(), &edge_triples(g))
}

fn edge_triples(g: &Graph) -> Vec<(VertexId, VertexId, Weight)> {
    g.edges().iter().map(|e| (e.u, e.v, e.w)).collect()
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
    /// weights, many ties (small weight ranges), disconnected inputs, and
    /// every fifth one dense (many phases for `min_cut_weight`).
    #[test]
    fn matches_reference_weight_and_side_on_random_multigraphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5707E2);
        let (mut connected, mut disconnected) = (0, 0);
        for case in 0..400 {
            let n = rng.random_range(2..=40usize);
            let m = rng.random_range(0..=if case % 5 == 4 { n * n / 2 } else { 4 * n });
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
            assert_eq!(
                min_cut_weight(n, &edges),
                got.as_ref().map(|mc| mc.weight),
                "case {case}"
            );
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
    fn min_cut_weight_on_named_shapes() {
        assert_eq!(min_cut_weight(1, &[]), None);
        assert_eq!(min_cut_weight(2, &[]), None);
        assert_eq!(min_cut_weight(2, &[(0, 1, 9)]), Some(9));
        assert_eq!(
            min_cut_weight(2, &[(0, 1, 3), (1, 0, 4), (1, 1, 50)]),
            Some(7)
        );
        assert_eq!(min_cut_weight(3, &[(0, 1, 5)]), None);
        // The cycle contracts once per phase: the Θ(n)-phase shape.
        for (g, want) in [
            (generators::path(12), 1),
            (generators::star(12), 1),
            (generators::cycle(12, 1), 2),
            (generators::complete(8), 7),
        ] {
            assert_eq!(min_cut_weight(g.n(), &edge_triples(&g)), Some(want));
        }
        // Two 6-cliques of heavy edges joined by a light bridge — lighter
        // than every degree, so only contraction finds it — then by a
        // zero-weight one, which still connects.
        for (bridge, want) in [(3, Some(3)), (0, Some(0))] {
            let mut edges = vec![(0, 6, bridge)];
            for base in [0, 6] {
                for u in 0..6 {
                    for v in u + 1..6 {
                        edges.push((base + u, base + v, 10));
                    }
                }
            }
            assert_eq!(min_cut_weight(12, &edges), want);
            assert_eq!(stoer_wagner(12, &edges).map(|mc| mc.weight), want);
        }
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
