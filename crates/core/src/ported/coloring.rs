//! (Δ+1)-vertex coloring in `O(1)` rounds (Theorem C.7, after
//! Assadi–Chen–Khanna \[6\]).
//!
//! Palette sampling: every vertex independently samples `Θ(log n)` colors
//! from `{0, …, Δ}`. Lemma C.8 guarantees (w.h.p.) a proper coloring exists
//! in which every vertex uses a sampled color, and only *conflicting* edges
//! (endpoints with intersecting palettes) can ever be monochromatic — and
//! there are only `Õ(n)` of them w.h.p. So: ship the conflict edges to the
//! large machine, list-color them there, done.
//!
//! Implementation notes (substitutions recorded in DESIGN.md §4):
//!
//! * palettes are derived from one broadcast seed via the deterministic
//!   per-vertex PRF — `O(1)` words of communication instead of
//!   `Θ(n log n)`, with the `O(log n)`-wise-independence justification the
//!   paper itself uses elsewhere;
//! * the large machine realizes the existential Lemma C.8 constructively by
//!   randomized-greedy list coloring with restarts (fresh seed per restart,
//!   each restart costing one extra broadcast + gather round).

use mpc_graph::coloring::Color;
use mpc_graph::{Edge, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of the coloring port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColoringResult {
    /// A proper coloring with colors in `{0, …, Δ}`.
    pub colors: Vec<Color>,
    /// Conflict edges shipped to the large machine.
    pub conflict_edges: usize,
    /// Restarts needed by the constructive list-coloring step.
    pub restarts: usize,
}

/// Palette of vertex `v` under `seed`: `size` colors from `{0, …, Δ}` —
/// the deterministic per-vertex PRF every machine evaluates locally.
pub fn palette(seed: u64, v: VertexId, delta: u32, size: usize) -> Vec<Color> {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (v as u64).wrapping_mul(0xff51_afd7_ed55_8ccd),
    );
    let mut p: Vec<Color> = (0..size).map(|_| rng.random_range(0..=delta)).collect();
    p.sort_unstable();
    p.dedup();
    p
}

/// The `Θ(log n)` palette size the sampling lemma (Lemma C.8) needs.
pub fn palette_size_for(n: usize) -> usize {
    (2.0 * (n.max(2) as f64).ln()).ceil() as usize + 2
}

/// Whether `e` is a *conflict edge* under `seed`: its endpoints' palettes
/// intersect, so it could be monochromatic.
pub fn edge_conflicts(seed: u64, e: &Edge, delta: u32, palette_size: usize) -> bool {
    let pu = palette(seed, e.u, delta, palette_size);
    let pv = palette(seed, e.v, delta, palette_size);
    intersects(&pu, &pv)
}

/// One constructive list-coloring attempt on the conflict graph, in the
/// given vertex order. `None` means the sampled palettes admitted no greedy
/// completion and the caller should restart with a fresh seed.
pub fn attempt_coloring(
    n: usize,
    conflict_edges: &[Edge],
    seed: u64,
    delta: u32,
    palette_size: usize,
    order: &[VertexId],
) -> Option<Vec<Color>> {
    let conflict_graph = mpc_graph::Graph::new(n, conflict_edges.iter().copied());
    let palettes: Vec<Vec<Color>> = (0..n as VertexId)
        .map(|v| palette(seed, v, delta, palette_size))
        .collect();
    mpc_graph::coloring::greedy_list_coloring(&conflict_graph, order, &palettes)
}

/// Restarts before the whole-graph gather fallback kicks in.
pub const MAX_RESTARTS: usize = 16;

fn intersects(a: &[Color], b: &[Color]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::coloring::{color_count, is_proper_coloring};
    use mpc_graph::{generators, Graph};

    /// The large machine's steps: conflict edges under a palette seed, one
    /// list-coloring attempt per seed until one completes.
    fn color(g: &Graph) -> (Vec<Color>, usize) {
        let delta = g.max_degree() as u32;
        let size = palette_size_for(g.n());
        let order: Vec<VertexId> = (0..g.n() as VertexId).collect();
        (0..=MAX_RESTARTS as u64)
            .find_map(|seed| {
                let conflicts: Vec<Edge> = (g.edges().iter())
                    .filter(|e| edge_conflicts(seed, e, delta, size))
                    .copied()
                    .collect();
                let colors = attempt_coloring(g.n(), &conflicts, seed, delta, size, &order)?;
                Some((colors, conflicts.len()))
            })
            .expect("a restart completes")
    }

    #[test]
    fn colorings_are_proper_and_within_delta_plus_one() {
        for seed in 0..4 {
            let g = generators::gnm(100, 900, seed);
            let (colors, _) = color(&g);
            // Non-conflict edges have disjoint palettes: proper on all of G.
            assert!(is_proper_coloring(&g, &colors), "seed {seed}");
            assert!(color_count(&colors) <= g.max_degree() + 1, "seed {seed}");
            assert!(
                colors.iter().all(|&c| c as usize <= g.max_degree()),
                "colors must come from {{0..Δ}}"
            );
        }
    }

    #[test]
    fn dense_graphs_have_few_conflicts_relative_to_m() {
        let g = generators::gnm(128, 4000, 7);
        let (colors, conflicts) = color(&g);
        assert!(is_proper_coloring(&g, &colors));
        assert!(
            conflicts < g.m(),
            "conflict graph ({conflicts}) should be sparser than G ({})",
            g.m()
        );
    }

    #[test]
    fn empty_graph_gets_one_color() {
        assert_eq!(color(&Graph::empty(5)).0, vec![0; 5]);
    }

    #[test]
    fn star_graph_colors_center_differently() {
        let g = generators::star(64);
        assert!(is_proper_coloring(&g, &color(&g).0));
    }
}
