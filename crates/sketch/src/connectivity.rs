//! The local kernels of sketch connectivity (paper Theorem C.1).
//!
//! The ported algorithm is three local computations glued by `O(1)` rounds,
//! and this module owns all three so the engine program, the legacy
//! call-style port and the tests run the same code:
//!
//! * [`SketchFamily::partial_batches`] — a *small machine* sketches its
//!   local edges into one flat [`PartialBatch`] per hash-owner, a sparse
//!   partial per `(phase, endpoint)` key;
//! * [`merge_batches`] — a *hash-owner* sums the partials of each key
//!   (sketches are linear) into one batch;
//! * [`sketch_connectivity_batches`] / [`sketch_connectivity`] — the *large
//!   machine* runs sequential sketch-Borůvka: given one sketch per vertex
//!   per phase, repeatedly sample an outgoing edge of every current
//!   component (by summing member sketches — linearity!) and contract.
//!   After `O(log n)` phases the components are exactly the connected
//!   components, w.h.p. The graph itself is never consulted.

use crate::l0::{EdgeUpdate, SketchFamily, SparseCell, VertexSketch};
use crate::onesparse::OneSparse;
use mpc_graph::{traversal::Components, DisjointSets, VertexId};
use mpc_runtime::Payload;

/// Key of vertex `v`'s partial sketch for `phase`: `(phase << 32) | v`, so
/// ascending keys run phase by phase, vertex by vertex.
pub fn partial_key(phase: usize, v: VertexId) -> u64 {
    (phase as u64) << 32 | u64::from(v)
}

/// The `(phase, vertex)` a [`partial_key`] packs.
fn split_key(key: u64) -> (usize, VertexId) {
    ((key >> 32) as usize, key as VertexId)
}

/// The sparse partial sketches of many keys as one message: what a sender
/// ships to one hash-owner, and an owner to the large machine. It costs one
/// word per key (also one whose cells all cancelled) plus four per cell —
/// what its partials cost as one `(key, SparseSketch)` message each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialBatch {
    /// `(partial_key, cell count)`, ascending by key.
    keys: Vec<(u64, u32)>,
    /// The keys' cells back to back; per key ascending by index, nonzero.
    cells: Vec<SparseCell>,
}

impl PartialBatch {
    /// Whether the batch holds no key.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends `key` with its cells (strictly ascending by index, nonzero).
    pub fn push(&mut self, key: u64, cells: impl IntoIterator<Item = SparseCell>) {
        debug_assert!(self.keys.last().is_none_or(|&(last, _)| last < key));
        let before = self.cells.len();
        self.cells.extend(cells);
        self.keys.push((key, (self.cells.len() - before) as u32));
    }

    /// The `(key, cells)` partials, in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[SparseCell])> {
        let mut rest = self.cells.as_slice();
        self.keys.iter().map(move |&(key, count)| {
            let (cells, tail) = rest.split_at(count as usize);
            rest = tail;
            (key, cells)
        })
    }
}

impl Payload for PartialBatch {
    fn words(&self) -> usize {
        self.keys.len() + 4 * self.cells.len()
    }
}

/// Sums sparse cells into a dense accumulator that remembers which indices
/// it touched, so a sum costs its cells, not the sketch size.
#[derive(Default)]
struct CellSum {
    acc: Vec<OneSparse>,
    /// Bit `i` is set if `acc[i]` was added to since the last `finish`.
    touched: Vec<u64>,
}

impl CellSum {
    fn add(&mut self, (idx, cell): SparseCell) {
        let i = idx as usize;
        if self.acc.len() <= i {
            self.acc.resize(i + 1, OneSparse::new());
            self.touched.resize(i / 64 + 1, 0);
        }
        self.touched[i / 64] |= 1 << (i % 64);
        self.acc[i].merge(&cell);
    }

    /// Closes `key` in `batch` with the nonzero sums, ascending by index,
    /// and resets.
    fn finish(&mut self, key: u64, batch: &mut PartialBatch) {
        let before = batch.cells.len();
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let sum = std::mem::take(&mut self.acc[i]);
                if !sum.is_zero() {
                    batch.cells.push((i as u32, sum));
                }
            }
        }
        batch.keys.push((key, (batch.cells.len() - before) as u32));
    }
}

impl SketchFamily {
    /// Sketches a machine's local edges: one sparse partial per
    /// `(phase, endpoint)` [`partial_key`], that of `key` in batch
    /// `key % owners` of the `owners` returned (some may be empty). Each
    /// phase [prepares](SketchFamily::prepare_slice) the edges once for both
    /// endpoints; only an endpoint with several local edges needs a sum.
    pub fn partial_batches(
        &self,
        edges: &[(VertexId, VertexId)],
        owners: usize,
    ) -> Vec<PartialBatch> {
        // Endpoint → incident edges, shared by every phase.
        let mut incident: Vec<(VertexId, u32)> = (0..)
            .zip(edges)
            .flat_map(|(e, &(u, v))| [(u, e), (v, e)])
            .collect();
        incident.sort_unstable();

        let mut batches = vec![PartialBatch::default(); owners];
        let mut sum = CellSum::default();
        let mut updates = vec![EdgeUpdate::EMPTY; edges.len()];
        for phase in 0..self.phases() {
            self.prepare_slice(phase, edges, &mut updates);
            for of_v in incident.chunk_by(|a, b| a.0 == b.0) {
                let v = of_v[0].0;
                let key = partial_key(phase, v);
                let batch = &mut batches[(key % owners as u64) as usize];
                if let [(_, e)] = of_v {
                    batch.push(key, updates[*e as usize].sparse_cells(v));
                } else {
                    for &(_, e) in of_v {
                        updates[e as usize].sparse_cells(v).for_each(|c| sum.add(c));
                    }
                    sum.finish(key, batch);
                }
            }
        }
        // A batch lives on beside every other batch of its round.
        batches.iter_mut().for_each(|b| b.cells.shrink_to_fit());
        batches
    }
}

/// The partials of `batches` as `(key, cells)` rows, ascending by key (the
/// rows of one key in no particular order: sums do not depend on it).
fn sorted_rows(batches: &[PartialBatch]) -> Vec<(u64, &[SparseCell])> {
    let mut rows: Vec<_> = batches.iter().flat_map(PartialBatch::iter).collect();
    rows.sort_unstable_by_key(|&(key, _)| key);
    rows
}

/// Sums the partial sketches of each key into one batch: the hash-owner's
/// step. Any merge order gives the same batch — cell addition is commutative
/// and associative and the sparse form is canonical.
pub fn merge_batches(batches: &[PartialBatch]) -> PartialBatch {
    let mut merged = PartialBatch::default();
    let mut sum = CellSum::default();
    for of_key in sorted_rows(batches).chunk_by(|a, b| a.0 == b.0) {
        for &cell in of_key.iter().flat_map(|(_, cells)| *cells) {
            sum.add(cell);
        }
        sum.finish(of_key[0].0, &mut merged);
    }
    merged.cells.shrink_to_fit();
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
    R: ?Sized + 'a,
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

/// [`sketch_connectivity`] over the merged partials as the large machine
/// receives them: one batch per owner, absent keys meaning zero sketches.
/// Nothing is densified per vertex — sparse cells go straight into the
/// per-component sums of the phases Borůvka reaches.
///
/// # Panics
///
/// Panics if a key names a phase outside the family or a vertex `≥ n`.
pub fn sketch_connectivity_batches(
    family: &SketchFamily,
    batches: &[PartialBatch],
    n: usize,
) -> Components {
    let rows = sorted_rows(batches);
    if let Some(&(key, _)) = rows.last() {
        assert!(split_key(key).0 < family.phases(), "phase out of range");
    }
    let rows = rows.as_slice();
    let rows_of = move |phase| {
        let from = rows.partition_point(|&(key, _)| key < partial_key(phase, 0));
        let to = rows.partition_point(|&(key, _)| key < partial_key(phase + 1, 0));
        rows[from..to]
            .iter()
            .map(|&(key, cells)| (split_key(key).1, cells))
    };
    boruvka(
        family,
        n,
        family.phases(),
        rows_of,
        VertexSketch::merge_cells,
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
    let edges: Vec<_> = edges.into_iter().collect();
    let mut updates = vec![EdgeUpdate::EMPTY; edges.len()];
    (0..family.phases())
        .map(|phase| {
            let mut row: Vec<VertexSketch> = (0..n).map(|_| family.empty(phase)).collect();
            family.prepare_slice(phase, &edges, &mut updates);
            for (&(u, v), update) in edges.iter().zip(&updates) {
                row[u as usize].apply(update, u);
                row[v as usize].apply(update, v);
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
