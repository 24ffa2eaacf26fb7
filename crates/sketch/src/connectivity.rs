//! The local kernels of sketch connectivity (paper Theorem C.1).
//!
//! The ported algorithm is three local computations glued by `O(1)` rounds,
//! and this module owns all three so the engine program, the legacy
//! call-style port and the tests run the same code:
//!
//! * [`SketchFamily::partial_sketches`] — a *small machine* sketches its
//!   local edges, one sparse partial per `(phase, endpoint)` key;
//! * [`merge_partials`] — a *hash-owner* sums the partials of each key
//!   (sketches are linear);
//! * [`sketch_connectivity_sparse`] / [`sketch_connectivity`] — the *large
//!   machine* runs sequential sketch-Borůvka: given one sketch per vertex
//!   per phase, repeatedly sample an outgoing edge of every current
//!   component (by summing member sketches — linearity!) and contract.
//!   After `O(log n)` phases the components are exactly the connected
//!   components, w.h.p. The graph itself is never consulted.

use crate::l0::{SketchFamily, SparseSketch, VertexSketch};
use mpc_graph::{traversal::Components, DisjointSets, VertexId};

/// Key of vertex `v`'s partial sketch for `phase`: `(phase << 32) | v`, so
/// ascending keys run phase by phase, vertex by vertex.
pub fn partial_key(phase: usize, v: VertexId) -> u64 {
    (phase as u64) << 32 | u64::from(v)
}

/// The `(phase, vertex)` a [`partial_key`] packs.
fn split_key(key: u64) -> (usize, VertexId) {
    ((key >> 32) as usize, key as VertexId)
}

impl SketchFamily {
    /// Sketches a machine's local edges: one sparse partial per
    /// `(phase, endpoint)` [`partial_key`], in ascending key order.
    ///
    /// Each edge-phase is [prepared](SketchFamily::prepare) once and applied
    /// to both endpoints. Endpoints are renumbered to local indices up
    /// front, so the per-phase rows are plain vectors.
    pub fn partial_sketches(&self, edges: &[(VertexId, VertexId)]) -> Vec<(u64, SparseSketch)> {
        let mut endpoints: Vec<VertexId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let local = |v: VertexId| endpoints.binary_search(&v).expect("endpoint was collected");
        let local_edges: Vec<(usize, usize)> =
            edges.iter().map(|&(u, v)| (local(u), local(v))).collect();

        let mut out = Vec::with_capacity(self.phases() * endpoints.len());
        for phase in 0..self.phases() {
            let mut row = vec![SparseSketch::new(); endpoints.len()];
            for (&(u, v), &(iu, iv)) in edges.iter().zip(&local_edges) {
                let update = self.prepare(phase, u, v);
                row[iu].apply(&update, u);
                row[iv].apply(&update, v);
            }
            out.extend(
                endpoints
                    .iter()
                    .zip(row)
                    .map(|(&v, s)| (partial_key(phase, v), s)),
            );
        }
        out
    }
}

/// Sums the partial sketches of each key: the hash-owner's step. Returns
/// one sketch per distinct key, in ascending key order.
///
/// The first partial of a key becomes its accumulator; the others only
/// hand over their cells, and the sum is formed once per key. Any merge
/// order gives the same sketch — cell addition is commutative and
/// associative and the sparse form is canonical.
pub fn merge_partials(mut partials: Vec<(u64, SparseSketch)>) -> Vec<(u64, SparseSketch)> {
    // An inbox is a concatenation of ascending runs, one per sender, which
    // the stable sort merges without comparing within a run.
    partials.sort_by_key(|&(key, _)| key);
    let mut merged: Vec<(u64, SparseSketch)> = Vec::new();
    for (key, partial) in partials {
        match merged.last_mut() {
            Some((last, sum)) if *last == key => sum.append_cells(&partial),
            _ => merged.push((key, partial)),
        }
    }
    for (_, sum) in &mut merged {
        sum.canonicalize();
    }
    merged
}

/// Sketch-Borůvka over `rows_of(phase)`, the `(vertex, sketch)` rows of each
/// phase, which `add` sums into a dense sketch; a vertex without a row has
/// the zero sketch.
///
/// Each phase sums its rows into one dense accumulator per current
/// component, decodes an outgoing edge from every sum and contracts. A
/// phase is only read once the loop reaches it, and the loop stops at one
/// component.
fn boruvka<'a, R, I>(
    family: &SketchFamily,
    n: usize,
    phases: usize,
    rows_of: impl Fn(usize) -> I,
    add: impl Fn(&mut VertexSketch, &R),
) -> Components
where
    R: 'a,
    I: Iterator<Item = (VertexId, &'a R)>,
{
    const NO_SUM: usize = usize::MAX;
    let mut dsu = DisjointSets::new(n);
    // Dense accumulators, reused across phases; `sum_of[root]` indexes the
    // one of the component rooted there while a phase is being summed.
    let mut sums: Vec<VertexSketch> = Vec::new();
    let mut sum_of = vec![NO_SUM; n];
    let mut roots: Vec<VertexId> = Vec::new();
    for phase in 0..phases {
        if dsu.component_count() <= 1 {
            break;
        }
        for (v, row) in rows_of(phase) {
            let root = dsu.find(v);
            if sum_of[root as usize] == NO_SUM {
                sum_of[root as usize] = roots.len();
                match sums.get_mut(roots.len()) {
                    Some(sum) => sum.clear(),
                    None => sums.push(family.empty(phase)),
                }
                roots.push(root);
            }
            add(&mut sums[sum_of[root as usize]], row);
        }
        for (root, sum) in roots.drain(..).zip(&sums) {
            sum_of[root as usize] = NO_SUM;
            if let Some((u, v)) = family.decode_phase(sum, phase) {
                // Fingerprint-verified: (u, v) is a real edge leaving the
                // component, so the union is always safe. A phase in which
                // nothing decodes is retried by the next one with fresh
                // randomness.
                dsu.union(u, v);
            }
        }
    }
    mpc_graph::traversal::components_from_dsu(&mut dsu)
}

/// Runs sketch-Borůvka over `sketches[phase][v]`.
///
/// Returns min-id-labeled components. With `phases ≈ 2·log₂ n` the result
/// equals the true components w.h.p.; fewer phases can leave components
/// under-merged (never over-merged — decoded edges are fingerprint-verified
/// real edges).
///
/// # Panics
///
/// Panics if `sketches` is empty or its rows disagree on `n`.
pub fn sketch_connectivity(
    family: &SketchFamily,
    sketches: &[Vec<VertexSketch>],
    n: usize,
) -> Components {
    assert!(!sketches.is_empty(), "need at least one phase of sketches");
    for row in sketches {
        assert_eq!(row.len(), n, "one sketch per vertex per phase");
    }
    boruvka(
        family,
        n,
        sketches.len(),
        |phase| (0..).zip(&sketches[phase]),
        VertexSketch::merge,
    )
}

/// [`sketch_connectivity`] over the merged sparse partials as the large
/// machine receives them: `(partial_key, sketch)` in any order, absent keys
/// meaning zero sketches. Nothing is densified per vertex — sparse cells go
/// straight into the per-component sums of the phases Borůvka reaches.
///
/// # Panics
///
/// Panics if a key names a phase outside the family or a vertex `≥ n`.
pub fn sketch_connectivity_sparse(
    family: &SketchFamily,
    mut partials: Vec<(u64, SparseSketch)>,
    n: usize,
) -> Components {
    partials.sort_unstable_by_key(|&(key, _)| key);
    if let Some(&(key, _)) = partials.last() {
        assert!(split_key(key).0 < family.phases(), "phase out of range");
    }
    let partials = partials.as_slice();
    let rows_of = move |phase| {
        let from = partials.partition_point(|&(key, _)| key < partial_key(phase, 0));
        let to = partials.partition_point(|&(key, _)| key < partial_key(phase + 1, 0));
        partials[from..to]
            .iter()
            .map(|(key, sketch)| (split_key(*key).1, sketch))
    };
    boruvka(
        family,
        n,
        family.phases(),
        rows_of,
        VertexSketch::merge_sparse,
    )
}

/// Builds per-phase vertex sketches of a whole graph sequentially
/// (testing / single-machine use; the distributed path builds partial
/// sketches per machine and merges them with aggregation).
pub fn sketch_graph(
    family: &SketchFamily,
    n: usize,
    edges: impl IntoIterator<Item = (u32, u32)> + Clone,
) -> Vec<Vec<VertexSketch>> {
    (0..family.phases())
        .map(|phase| {
            let mut row: Vec<VertexSketch> = (0..n).map(|_| family.empty(phase)).collect();
            for (u, v) in edges.clone() {
                let update = family.prepare(phase, u, v);
                row[u as usize].apply(&update, u);
                row[v as usize].apply(&update, v);
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::{generators, traversal::connected_components};

    fn phases_for(n: usize) -> usize {
        2 * ((n.max(2) as f64).log2().ceil() as usize) + 2
    }

    fn check_graph(g: &mpc_graph::Graph, seed: u64) {
        let n = g.n();
        let fam = SketchFamily::new(n, phases_for(n), seed);
        let sketches = sketch_graph(
            &fam,
            n,
            g.edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>(),
        );
        let got = sketch_connectivity(&fam, &sketches, n);
        let want = connected_components(g);
        assert_eq!(got, want);
    }

    #[test]
    fn identifies_components_of_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm(60, 90, seed);
            check_graph(&g, seed);
        }
    }

    #[test]
    fn distinguishes_one_vs_two_cycles() {
        let one = generators::cycle(64, 3);
        let two = generators::two_cycles(64, 3);
        check_graph(&one, 11);
        check_graph(&two, 11);
    }

    #[test]
    fn handles_forests_and_isolated_vertices() {
        let f = generators::random_forest(50, 5, 2);
        check_graph(&f, 7);
        let empty = mpc_graph::Graph::empty(10);
        check_graph(&empty, 1);
    }

    #[test]
    fn merged_sketches_never_produce_fake_edges() {
        // Even with too few phases, unions only happen on real edges, so the
        // partition is always a refinement coarsening consistent with G.
        let g = generators::gnm(80, 120, 9);
        let fam = SketchFamily::new(80, 2, 13); // deliberately few phases
        let sketches = sketch_graph(
            &fam,
            80,
            g.edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>(),
        );
        let got = sketch_connectivity(&fam, &sketches, 80);
        let want = connected_components(&g);
        // Every merged pair must be truly connected.
        for u in 0..80u32 {
            for v in 0..80u32 {
                if got.same(u, v) {
                    assert!(want.same(u, v), "sketch over-merged {u},{v}");
                }
            }
        }
    }
}
