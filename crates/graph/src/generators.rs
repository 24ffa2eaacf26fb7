//! Deterministic (seeded) workload generators.
//!
//! Every generator is a pure function of its parameters and a `seed`, so all
//! experiments of `DESIGN.md` §4 are reproducible bit-for-bit. Weights
//! default to 1 (unweighted); compose with
//! [`Graph::with_random_weights`](crate::Graph::with_random_weights) for
//! weighted workloads.

use crate::graph::Graph;
use crate::ids::{Edge, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

fn rng_for(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

/// Uniform random graph with exactly `m` distinct edges (no loops).
///
/// # Panics
///
/// Panics if `m > n(n-1)/2`.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max, "gnm: m={m} exceeds max {max} for n={n}");
    let mut rng = rng_for(seed, 0xA11CE);
    // Dense instances sample by shuffling the full edge universe; sparse ones
    // by rejection.
    if m * 3 > max {
        let mut all = Vec::with_capacity(max);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                all.push((u, v));
            }
        }
        all.shuffle(&mut rng);
        return Graph::new(n, all[..m].iter().map(|&(u, v)| Edge::unweighted(u, v)));
    }
    let mut seen = HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.random_range(0..n as VertexId);
        let v = rng.random_range(0..n as VertexId);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            edges.push(Edge::unweighted(key.0, key.1));
        }
    }
    Graph::new(n, edges)
}

/// Erdős–Rényi `G(n, p)`: each pair independently with probability `p`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "gnp: p must be in [0,1]");
    let mut rng = rng_for(seed, 0x6E9);
    let mut edges = Vec::new();
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.random_bool(p) {
                edges.push(Edge::unweighted(u, v));
            }
        }
    }
    Graph::new(n, edges)
}

/// A single cycle through all `n` vertices, in a seeded random vertex order.
///
/// The "1" side of the 1-vs-2 cycle problem from the paper's introduction.
pub fn cycle(n: usize, seed: u64) -> Graph {
    assert!(n >= 3, "cycle: need n >= 3");
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(&mut rng_for(seed, 0xC1C1E));
    let mut edges = Vec::with_capacity(n);
    for i in 0..n {
        edges.push(Edge::unweighted(order[i], order[(i + 1) % n]));
    }
    Graph::new(n, edges)
}

/// Two vertex-disjoint cycles covering all `n` vertices (sizes `n/2`, `n−n/2`).
///
/// The "2" side of the 1-vs-2 cycle problem; distinguishing this from
/// [`cycle`] is conjectured to need `Ω(log n)` rounds in sublinear MPC but is
/// trivial with one near-linear machine (§1).
pub fn two_cycles(n: usize, seed: u64) -> Graph {
    assert!(n >= 6, "two_cycles: need n >= 6");
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(&mut rng_for(seed, 0x2C1C1E));
    let half = n / 2;
    let mut edges = Vec::with_capacity(n);
    for i in 0..half {
        edges.push(Edge::unweighted(order[i], order[(i + 1) % half]));
    }
    for i in half..n {
        let next = if i + 1 == n { half } else { i + 1 };
        edges.push(Edge::unweighted(order[i], order[next]));
    }
    Graph::new(n, edges)
}

/// Simple path `0-1-…-(n−1)`.
pub fn path(n: usize) -> Graph {
    let edges = (1..n as VertexId).map(|v| Edge::unweighted(v - 1, v));
    Graph::new(n, edges)
}

/// Star with center 0 and `n−1` leaves.
pub fn star(n: usize) -> Graph {
    let edges = (1..n as VertexId).map(|v| Edge::unweighted(0, v));
    Graph::new(n, edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            edges.push(Edge::unweighted(u, v));
        }
    }
    Graph::new(n, edges)
}

/// `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push(Edge::unweighted(id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push(Edge::unweighted(id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::new(rows * cols, edges)
}

/// Uniform random spanning tree on `n` vertices (random Prüfer sequence).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n >= 1);
    if n == 1 {
        return Graph::empty(1);
    }
    if n == 2 {
        return Graph::new(2, [Edge::unweighted(0, 1)]);
    }
    let mut rng = rng_for(seed, 0x7EE);
    let prufer: Vec<VertexId> = (0..n - 2)
        .map(|_| rng.random_range(0..n as VertexId))
        .collect();
    let mut degree = vec![1u32; n];
    for &x in &prufer {
        degree[x as usize] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Standard O(n log n) Prüfer decoding with a min-heap of leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<VertexId>> = (0..n as VertexId)
        .filter(|&v| degree[v as usize] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &x in &prufer {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("prufer decoding invariant");
        edges.push(Edge::unweighted(leaf, x));
        degree[x as usize] -= 1;
        if degree[x as usize] == 1 {
            leaves.push(std::cmp::Reverse(x));
        }
    }
    let std::cmp::Reverse(a) = leaves.pop().unwrap();
    let std::cmp::Reverse(b) = leaves.pop().unwrap();
    edges.push(Edge::unweighted(a, b));
    Graph::new(n, edges)
}

/// A forest: `trees` independent random trees of roughly equal size.
pub fn random_forest(n: usize, trees: usize, seed: u64) -> Graph {
    assert!(trees >= 1 && trees <= n.max(1));
    let mut edges = Vec::new();
    let base = n / trees;
    let mut start = 0usize;
    for t in 0..trees {
        let size = if t + 1 == trees { n - start } else { base };
        if size >= 2 {
            let sub = random_tree(size, seed.wrapping_add(t as u64));
            edges.extend(
                sub.edges()
                    .iter()
                    .map(|e| Edge::unweighted(e.u + start as VertexId, e.v + start as VertexId)),
            );
        }
        start += size;
    }
    Graph::new(n, edges)
}

/// Chung–Lu power-law graph: vertex `i` gets expected degree
/// `∝ (i+1)^(−1/(β−1))`, scaled so the expected edge count is ≈ `target_m`.
///
/// Produces skewed degree distributions (a few very high-degree vertices),
/// the regime where the paper's maximal-matching algorithm shines: average
/// degree `d ≪ Δ`.
pub fn chung_lu(n: usize, target_m: usize, beta: f64, seed: u64) -> Graph {
    assert!(beta > 2.0, "chung_lu: beta must exceed 2");
    let mut rng = rng_for(seed, 0xC41);
    let exp = -1.0 / (beta - 1.0);
    let w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exp)).collect();
    let total: f64 = w.iter().sum();
    // Scale so sum of expected degrees = 2 * target_m.
    let scale = (2.0 * target_m as f64) / total;
    let w: Vec<f64> = w.iter().map(|x| x * scale).collect();
    let s: f64 = w.iter().sum();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (w[u] * w[v] / s).min(1.0);
            if p > 0.0 && rng.random_bool(p) {
                edges.push(Edge::unweighted(u as VertexId, v as VertexId));
            }
        }
    }
    Graph::new(n, edges)
}

/// Approximately `d`-regular graph via the configuration model
/// (loops/multi-edges dropped, so degrees can be slightly below `d`).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d < n, "random_regular: need d < n");
    let mut rng = rng_for(seed, 0x2E6);
    let mut stubs: Vec<VertexId> = Vec::with_capacity(n * d);
    for v in 0..n as VertexId {
        for _ in 0..d {
            stubs.push(v);
        }
    }
    stubs.shuffle(&mut rng);
    let mut edges = Vec::with_capacity(n * d / 2);
    for pair in stubs.chunks_exact(2) {
        if pair[0] != pair[1] {
            edges.push(Edge::unweighted(pair[0], pair[1]));
        }
    }
    Graph::new(n, edges)
}

/// Two `G(k, p_in)` clusters joined by exactly `bridge` random edges.
///
/// The planted minimum cut is (w.h.p.) the `bridge` edges; used by the
/// min-cut experiments (E10c).
pub fn planted_cut(k: usize, p_in: f64, bridge: usize, seed: u64) -> Graph {
    let n = 2 * k;
    let mut rng = rng_for(seed, 0x9D7);
    let mut edges = Vec::new();
    for side in 0..2u32 {
        let off = (side as usize * k) as VertexId;
        for u in 0..k as VertexId {
            for v in (u + 1)..k as VertexId {
                if rng.random_bool(p_in) {
                    edges.push(Edge::unweighted(off + u, off + v));
                }
            }
        }
    }
    let mut used = HashSet::new();
    while used.len() < bridge {
        let u = rng.random_range(0..k as VertexId);
        let v = rng.random_range(0..k as VertexId) + k as VertexId;
        if used.insert((u, v)) {
            edges.push(Edge::unweighted(u, v));
        }
    }
    Graph::new(n, edges)
}

/// Barbell: two cliques of size `k` joined by a path of length `bridge_len`.
pub fn barbell(k: usize, bridge_len: usize, seed: u64) -> Graph {
    let _ = seed;
    let n = 2 * k + bridge_len.saturating_sub(1);
    let mut edges = Vec::new();
    let clique = |off: usize, edges: &mut Vec<Edge>| {
        for u in 0..k {
            for v in (u + 1)..k {
                edges.push(Edge::unweighted(
                    (off + u) as VertexId,
                    (off + v) as VertexId,
                ));
            }
        }
    };
    clique(0, &mut edges);
    clique(k + bridge_len.saturating_sub(1), &mut edges);
    // Path from vertex k-1 through the bridge vertices to the second clique.
    let mut prev = (k - 1) as VertexId;
    for i in 0..bridge_len {
        let next = (k + i) as VertexId;
        edges.push(Edge::unweighted(prev, next));
        prev = next;
    }
    Graph::new(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::connected_components;

    #[test]
    fn gnm_exact_edge_count_and_deterministic() {
        let g = gnm(50, 200, 1);
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 200);
        assert_eq!(g, gnm(50, 200, 1));
        assert_ne!(g, gnm(50, 200, 2));
    }

    #[test]
    fn gnm_dense_path() {
        let g = gnm(10, 40, 3); // 40 > (45)/3, triggers shuffle path
        assert_eq!(g.m(), 40);
    }

    #[test]
    fn cycle_is_one_component_two_cycles_are_two() {
        let c1 = cycle(100, 5);
        let c2 = two_cycles(100, 5);
        assert_eq!(c1.m(), 100);
        assert_eq!(c2.m(), 100);
        assert_eq!(connected_components(&c1).count, 1);
        assert_eq!(connected_components(&c2).count, 2);
        assert!(c1.degrees().iter().all(|&d| d == 2));
        assert!(c2.degrees().iter().all(|&d| d == 2));
    }

    #[test]
    fn tree_generators_are_spanning() {
        let t = random_tree(200, 9);
        assert_eq!(t.m(), 199);
        assert_eq!(connected_components(&t).count, 1);
        let f = random_forest(100, 4, 9);
        assert_eq!(connected_components(&f).count, 4);
    }

    #[test]
    fn grid_and_complete_shapes() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(complete(6).m(), 15);
        assert_eq!(star(5).max_degree(), 4);
        assert_eq!(path(5).m(), 4);
    }

    #[test]
    fn chung_lu_is_skewed() {
        let g = chung_lu(300, 900, 2.5, 11);
        assert!(
            g.m() > 100,
            "expected a non-trivial edge count, got {}",
            g.m()
        );
        let degs = g.degrees();
        let max = *degs.iter().max().unwrap();
        let avg = g.average_degree();
        assert!(
            (max as f64) > 3.0 * avg,
            "power-law graph should have max degree ≫ average ({max} vs {avg})"
        );
    }

    #[test]
    fn regular_has_bounded_degree() {
        let g = random_regular(100, 6, 2);
        assert!(g.max_degree() <= 6);
        assert!(g.average_degree() > 4.0);
    }

    #[test]
    fn planted_cut_is_connected_with_bridges() {
        let g = planted_cut(30, 0.4, 3, 4);
        assert_eq!(connected_components(&g).count, 1);
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 3, 0);
        assert_eq!(connected_components(&g).count, 1);
        assert_eq!(g.n(), 12);
    }
}
