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

/// The header of one key's row in a [`PartialBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RowHead {
    key: u64,
    /// Cells in the row: at most 256, the `u8` index range.
    cells: u16,
    /// One value stands for every cell of the row, rather than one each.
    one_value: bool,
}

impl RowHead {
    fn values(self) -> usize {
        if self.one_value {
            1
        } else {
            usize::from(self.cells)
        }
    }
}

/// The sparse partial sketches of many keys as one message: what a sender
/// ships to one hash-owner, and an owner to the large machine. It costs one
/// word per key (also one whose cells all cancelled) plus four per cell —
/// what its partials cost as one `(key, SparseSketch)` message each.
///
/// The host layout is three flat vectors, none per key: row headers, the
/// rows' cell indices back to back, and their values. A row whose cells
/// all hold the same value — a one-edge partial, most of a sender's rows —
/// stores that value once. The layout is canonical (a row has one value iff
/// it has a cell and all its cells are equal), so equal batches compare
/// equal whatever built them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialBatch {
    /// Ascending by key.
    rows: Vec<RowHead>,
    /// Per row, its cell indices, strictly ascending.
    idx: Vec<u8>,
    /// Per row, one value (a one-value row) or one per cell; never zero.
    values: Vec<OneSparse>,
}

/// One key's partial as a [`PartialBatch`] holds it.
#[derive(Clone, Copy, Debug)]
pub struct PartialRow<'a> {
    /// The row's [`partial_key`].
    pub key: u64,
    idx: &'a [u8],
    /// One value for every index, or one per index (a one-cell row is both).
    values: &'a [OneSparse],
}

impl<'a> PartialRow<'a> {
    /// The nonzero cells, strictly ascending by index: a one-value row's
    /// value at each of its indices.
    pub fn cells(self) -> impl Iterator<Item = SparseCell> + 'a {
        let values = self.values.iter().cycle();
        self.idx.iter().zip(values).map(|(&i, &value)| (i, value))
    }
}

impl PartialBatch {
    /// Whether the batch holds no key.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends `key` with its cells (strictly ascending by index, nonzero).
    pub fn push(&mut self, key: u64, cells: impl IntoIterator<Item = SparseCell>) {
        let (idx_from, values_from) = (self.idx.len(), self.values.len());
        for (i, value) in cells {
            self.idx.push(i);
            self.values.push(value);
        }
        self.close_row(key, idx_from, values_from);
    }

    /// Appends `key` with `value` (nonzero) at each of `idx` (nonempty,
    /// strictly ascending).
    pub fn push_one_value(&mut self, key: u64, idx: &[u8], value: OneSparse) {
        // The senders' hot path: `close_row` without the equality scan.
        debug_assert!(!idx.is_empty() && !value.is_zero());
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self.rows.last().is_none_or(|r| r.key < key));
        self.idx.extend_from_slice(idx);
        self.values.push(value);
        let cells = u16::try_from(idx.len()).expect("at most 256 indices");
        self.rows.push(RowHead {
            key,
            cells,
            one_value: true,
        });
    }

    /// Closes row `key` over the cells pushed since `idx_from`, one value
    /// each since `values_from`, keeping one value if they are all equal.
    fn close_row(&mut self, key: u64, idx_from: usize, values_from: usize) {
        debug_assert!(self.rows.last().is_none_or(|r| r.key < key));
        debug_assert!(self.idx[idx_from..].windows(2).all(|w| w[0] < w[1]));
        let values = &self.values[values_from..];
        debug_assert!(values.iter().all(|v| !v.is_zero()));
        let one_value = values
            .first()
            .is_some_and(|v| values.iter().all(|w| w == v));
        if one_value {
            self.values.truncate(values_from + 1);
        }
        let cells = u16::try_from(self.idx.len() - idx_from).expect("at most 256 indices");
        self.rows.push(RowHead {
            key,
            cells,
            one_value,
        });
    }

    /// The rows, in ascending key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PartialRow<'_>> {
        let (mut idx, mut values) = (0, 0);
        self.rows.iter().map(move |&head| {
            let (cells, n_values) = (usize::from(head.cells), head.values());
            let row = PartialRow {
                key: head.key,
                idx: &self.idx[idx..idx + cells],
                values: &self.values[values..values + n_values],
            };
            (idx, values) = (idx + cells, values + n_values);
            row
        })
    }

    /// The rows dealt out by `key % owners` into `owners` batches, each
    /// allocated at its exact size: a batch lives until its receiver's
    /// step, beside every other batch of the round, so it carries no
    /// growth slack.
    fn deal(&self, owners: usize) -> Vec<PartialBatch> {
        let owner_of: Vec<usize> = (self.rows.iter())
            .map(|head| (head.key % owners as u64) as usize)
            .collect();
        let mut sizes = vec![(0, 0, 0); owners];
        for (head, &owner) in self.rows.iter().zip(&owner_of) {
            let size = &mut sizes[owner];
            *size = (
                size.0 + 1,
                size.1 + usize::from(head.cells),
                size.2 + head.values(),
            );
        }
        let mut dealt: Vec<_> = (sizes.into_iter())
            .map(|(rows, idx, values)| PartialBatch {
                rows: Vec::with_capacity(rows),
                idx: Vec::with_capacity(idx),
                values: Vec::with_capacity(values),
            })
            .collect();
        for ((&head, row), owner) in self.rows.iter().zip(self.iter()).zip(owner_of) {
            let batch = &mut dealt[owner];
            batch.rows.push(head);
            batch.idx.extend_from_slice(row.idx);
            batch.values.extend_from_slice(row.values);
        }
        dealt
    }
}

impl Payload for PartialBatch {
    fn words(&self) -> usize {
        self.rows.len() + 4 * self.idx.len()
    }
}

/// Sums sparse cells into a dense accumulator that remembers which indices
/// it touched, so a sum costs its cells, not the sketch size.
struct CellSum {
    /// One sum per `u8` cell index.
    acc: [OneSparse; 256],
    /// Bit `i` is set if `acc[i]` was added to since the last `finish`.
    touched: [u64; 4],
}

impl Default for CellSum {
    fn default() -> Self {
        CellSum {
            acc: [OneSparse::new(); 256],
            touched: [0; 4],
        }
    }
}

impl CellSum {
    fn add(&mut self, cells: impl IntoIterator<Item = SparseCell>) {
        for (i, value) in cells {
            let i = usize::from(i);
            self.touched[i / 64] |= 1 << (i % 64);
            self.acc[i].merge(&value);
        }
    }

    /// Closes `key` in `batch` with the nonzero sums, ascending by index,
    /// and resets.
    fn finish(&mut self, key: u64, batch: &mut PartialBatch) {
        let (idx_from, values_from) = (batch.idx.len(), batch.values.len());
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let sum = std::mem::take(&mut self.acc[i]);
                if !sum.is_zero() {
                    batch.idx.push(i as u8);
                    batch.values.push(sum);
                }
            }
        }
        batch.close_row(key, idx_from, values_from);
    }
}

impl SketchFamily {
    /// Sketches a machine's local edges: one sparse partial per
    /// `(phase, endpoint)` [`partial_key`], that of `key` in batch
    /// `key % owners` of the `owners` returned (some may be empty). Each
    /// phase [prepares](SketchFamily::prepare_slice) the edges once for both
    /// endpoints; an endpoint with one local edge is a one-value row of that
    /// edge's cells, only one with several needs a sum.
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

        // Every owner's rows in key order, dealt out once complete.
        let mut rows = PartialBatch::default();
        let mut sum = CellSum::default();
        let mut updates = vec![EdgeUpdate::EMPTY; edges.len()];
        for phase in 0..self.phases() {
            self.prepare_slice(phase, edges, &mut updates);
            for of_v in incident.chunk_by(|a, b| a.0 == b.0) {
                let v = of_v[0].0;
                let key = partial_key(phase, v);
                if let [(_, e)] = of_v {
                    let update = &updates[*e as usize];
                    rows.push_one_value(key, update.hits(), update.value(v));
                } else {
                    for &(_, e) in of_v {
                        sum.add(updates[e as usize].sparse_cells(v));
                    }
                    sum.finish(key, &mut rows);
                }
            }
        }
        rows.deal(owners)
    }
}

/// The rows of `batches`, ascending by key (the rows of one key in no
/// particular order: sums do not depend on it).
fn sorted_rows(batches: &[PartialBatch]) -> Vec<PartialRow<'_>> {
    let mut rows = Vec::with_capacity(batches.iter().map(|b| b.rows.len()).sum());
    batches.iter().for_each(|batch| rows.extend(batch.iter()));
    // Each batch is ascending already: a stable sort merges the runs.
    rows.sort_by_key(|row| row.key);
    rows
}

/// Sums the partial sketches of each key into one batch: the hash-owner's
/// step. Any merge order gives the same batch — cell addition is commutative
/// and associative and the layout is canonical.
pub fn merge_batches(batches: &[PartialBatch]) -> PartialBatch {
    let mut merged = PartialBatch::default();
    let mut sum = CellSum::default();
    for of_key in sorted_rows(batches).chunk_by(|a, b| a.key == b.key) {
        for row in of_key {
            sum.add(row.cells());
        }
        sum.finish(of_key[0].key, &mut merged);
    }
    merged.deal(1).remove(0)
}

/// Sketch-Borůvka over the `(vertex, sketch)` rows `rows_of(phase, rows)`
/// appends for each phase, which `add` sums into a dense sketch; a vertex
/// without a row has the zero sketch.
///
/// Each phase sums its rows into one dense accumulator per current
/// component, decodes an outgoing edge from every sum and contracts.
/// Phases are read in ascending order, each only once the loop reaches it,
/// and the loop stops at one component.
fn boruvka<R>(
    family: &SketchFamily,
    n: usize,
    phases: usize,
    mut rows_of: impl FnMut(usize, &mut Vec<(VertexId, R)>),
    add: impl Fn(&mut VertexSketch, R),
) -> Components {
    const NO_SUM: usize = usize::MAX;
    let mut dsu = DisjointSets::new(n);
    // Dense accumulators, reused across phases; `sum_of[root]` indexes the
    // one of the component rooted there while a phase is being summed.
    let mut sums: Vec<VertexSketch> = Vec::new();
    let mut sum_of = vec![NO_SUM; n];
    let mut roots: Vec<VertexId> = Vec::new();
    let mut rows = Vec::new();
    for phase in 0..phases {
        if dsu.component_count() <= 1 {
            break;
        }
        rows_of(phase, &mut rows);
        for (v, row) in rows.drain(..) {
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
        |phase, rows| rows.extend((0..).zip(&sketches[phase])),
        VertexSketch::merge,
    )
}

/// [`sketch_connectivity`] over the merged partials as the large machine
/// receives them: one batch per owner, absent keys meaning zero sketches.
/// Nothing is densified per vertex and nothing is sorted — each batch is
/// ascending by key, so one cursor per batch hands Borůvka each phase's
/// rows in turn, and their cells go straight into the per-component sums
/// of the phases it reaches.
///
/// # Panics
///
/// Panics if a key names a phase outside the family or a vertex `≥ n`.
pub fn sketch_connectivity_batches(
    family: &SketchFamily,
    batches: &[PartialBatch],
    n: usize,
) -> Components {
    for batch in batches {
        if let Some(row) = batch.rows.last() {
            assert!(split_key(row.key).0 < family.phases(), "phase out of range");
        }
    }
    let mut cursors: Vec<_> = batches.iter().map(|b| b.iter().peekable()).collect();
    let rows_of = |phase, rows: &mut Vec<_>| {
        let end = partial_key(phase + 1, 0);
        for cursor in &mut cursors {
            while let Some(row) = cursor.next_if(|row| row.key < end) {
                rows.push((split_key(row.key).1, row));
            }
        }
    };
    boruvka(
        family,
        n,
        family.phases(),
        rows_of,
        |sum, row: PartialRow| sum.merge_cells(row.cells()),
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

    /// The benchmark's sender round: `gnm(1536, 9216)` round-robin over 73
    /// senders, every phase of a 24-phase family. The batches cost the
    /// per-cell formula in words, and hold at most 6 host bytes per wire
    /// word (one `(u32, OneSparse)` per cell held about 10.6).
    #[test]
    fn sender_batches_hold_at_most_six_bytes_per_word() {
        const SENDERS: usize = 73;
        let fam = SketchFamily::new(1536, 24, 7);
        let g = generators::gnm(1536, 9216, 7);
        let (mut words, mut per_cell_words, mut bytes) = (0, 0, 0);
        for s in 0..SENDERS {
            let local: Vec<_> = (g.edges().iter().skip(s).step_by(SENDERS))
                .map(|e| (e.u, e.v))
                .collect();
            for batch in fam.partial_batches(&local, SENDERS) {
                words += batch.words();
                per_cell_words += (batch.iter())
                    .map(|row| 1 + 4 * row.cells().count())
                    .sum::<usize>();
                bytes += batch.rows.capacity() * size_of::<RowHead>()
                    + batch.idx.capacity()
                    + batch.values.capacity() * size_of::<OneSparse>();
            }
        }
        assert_eq!(words, per_cell_words);
        let per_word = bytes as f64 / words as f64;
        assert!(per_word <= 6.0, "{per_word:.2} host bytes per wire word");
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
