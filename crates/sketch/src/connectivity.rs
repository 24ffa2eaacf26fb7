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
    #[inline]
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

    /// An empty batch with room for exactly `rows` rows, `idx` cell indices
    /// and `values` values: a batch lives until its receiver's step, beside
    /// every other batch of the round, so it carries no growth slack.
    fn with_capacity(rows: usize, idx: usize, values: usize) -> Self {
        PartialBatch {
            rows: Vec::with_capacity(rows),
            idx: Vec::with_capacity(idx),
            values: Vec::with_capacity(values),
        }
    }

    /// Appends a row of another canonical batch as it is.
    fn push_row(&mut self, row: PartialRow) {
        debug_assert!(self.rows.last().is_none_or(|r| r.key < row.key));
        self.idx.extend_from_slice(row.idx);
        self.values.extend_from_slice(row.values);
        self.rows.push(RowHead {
            key: row.key,
            cells: u16::try_from(row.idx.len()).expect("at most 256 indices"),
            // Canonical rows hold one value iff they have a cell and all
            // their cells are equal: one value or one per cell otherwise.
            one_value: row.values.len() == 1,
        });
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
    /// The sum at index `i`, marked touched.
    #[inline]
    fn at(&mut self, i: u8) -> &mut OneSparse {
        let i = usize::from(i);
        self.touched[i / 64] |= 1 << (i % 64);
        &mut self.acc[i]
    }

    /// Adds `value` at each of `idx`.
    #[inline]
    fn add_one_value(&mut self, idx: &[u8], value: OneSparse) {
        for &i in idx {
            self.at(i).merge(&value);
        }
    }

    /// Adds a row's cells: a one-value row's value at each of its indices.
    #[inline]
    fn add_row(&mut self, row: PartialRow) {
        match row.values {
            &[value] => self.add_one_value(row.idx, value),
            values => {
                for (&i, value) in row.idx.iter().zip(values) {
                    self.at(i).merge(value);
                }
            }
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

/// The phase-dependent part of each prepared edge-phase — its fingerprint
/// term and its hit cells — as [`SketchFamily::partial_batches`] keeps it
/// between its two passes: about 14 bytes an edge-phase, where the one or
/// two rows the edge-phase feeds hold about 100.
struct KeptUpdates {
    /// Per edge-phase, phase-major: `z^slot`.
    terms: Vec<u64>,
    /// Where each edge-phase's hits start in `hits`, and where the last
    /// one's end.
    starts: Vec<u32>,
    /// The hit cells of every edge-phase, back to back.
    hits: Vec<u8>,
}

impl KeptUpdates {
    fn with_capacity(edge_phases: usize) -> Self {
        let mut starts = Vec::with_capacity(edge_phases + 1);
        starts.push(0);
        KeptUpdates {
            terms: Vec::with_capacity(edge_phases),
            starts,
            hits: Vec::new(),
        }
    }

    /// Keeps one phase's updates.
    fn keep(&mut self, updates: &[EdgeUpdate]) {
        for update in updates {
            self.terms.push(update.term());
            self.hits.extend_from_slice(update.hits());
            self.starts
                .push(u32::try_from(self.hits.len()).expect("hits fit u32"));
        }
    }

    /// Edge-phase `i`'s term and hits.
    fn get(&self, i: usize) -> (u64, &[u8]) {
        let hits = self.starts[i] as usize..self.starts[i + 1] as usize;
        (self.terms[i], &self.hits[hits])
    }
}

impl SketchFamily {
    /// Sketches a machine's local edges: one sparse partial per
    /// `(phase, endpoint)` [`partial_key`], that of `key` in batch
    /// `key % owners` of the `owners` returned (some may be empty). Each
    /// phase [prepares](SketchFamily::prepare_slice) the edges once for both
    /// endpoints; an endpoint with one local edge is a one-value row of that
    /// edge's cells, only one with several needs a sum.
    ///
    /// Two passes write each batch at its exact size with no intermediate
    /// batch: the first prepares every phase, sums the endpoints with
    /// several edges and counts each owner's rows, cells and values; the
    /// second writes the rows straight into their owners' batches from
    /// what the first kept of each edge-phase (its term and hits).
    pub fn partial_batches(
        &self,
        edges: &[(VertexId, VertexId)],
        owners: usize,
    ) -> Vec<PartialBatch> {
        // Endpoint → incident edges, shared by every phase, with the share
        // `v % owners` of its keys' owner (the phase adds its own share).
        let mut incident: Vec<(VertexId, u32)> = (0..)
            .zip(edges)
            .flat_map(|(e, &(u, v))| [(u, e), (v, e)])
            .collect();
        incident.sort_unstable();
        let endpoints: Vec<(usize, &[(VertexId, u32)])> = (incident.chunk_by(|a, b| a.0 == b.0))
            .map(|of_v| (of_v[0].0 as usize % owners, of_v))
            .collect();
        let phase_share = |phase| (partial_key(phase, 0) % owners as u64) as usize;
        let owner = |phase_share: usize, v_share: usize| match phase_share + v_share {
            o if o >= owners => o - owners,
            o => o,
        };

        // Pass 1: each owner's rows, cells and values.
        let mut sizes = vec![(0, 0, 0); owners];
        let mut kept = KeptUpdates::with_capacity(self.phases() * edges.len());
        let mut summed = PartialBatch::default();
        let mut sum = CellSum::default();
        let mut updates = vec![EdgeUpdate::EMPTY; edges.len()];
        for phase in 0..self.phases() {
            self.prepare_slice(phase, edges, &mut updates);
            kept.keep(&updates);
            let share = phase_share(phase);
            for &(v_share, of_v) in &endpoints {
                let (cells, values) = if let [(_, e)] = of_v {
                    (updates[*e as usize].hits().len(), 1)
                } else {
                    let v = of_v[0].0;
                    for &(_, e) in of_v {
                        let update = &updates[e as usize];
                        sum.add_one_value(update.hits(), update.value(v));
                    }
                    sum.finish(partial_key(phase, v), &mut summed);
                    let head = summed.rows.last().expect("just closed");
                    (usize::from(head.cells), head.values())
                };
                let size = &mut sizes[owner(share, v_share)];
                *size = (size.0 + 1, size.1 + cells, size.2 + values);
            }
        }

        // Pass 2: the rows, in key order, straight into their batches.
        let mut batches: Vec<_> = (sizes.iter())
            .map(|&(rows, idx, values)| PartialBatch::with_capacity(rows, idx, values))
            .collect();
        let mut summed = summed.iter();
        for phase in 0..self.phases() {
            let share = phase_share(phase);
            for &(v_share, of_v) in &endpoints {
                let batch = &mut batches[owner(share, v_share)];
                if let [(v, e)] = of_v {
                    let (term, hits) = kept.get(phase * edges.len() + *e as usize);
                    let value = updates[*e as usize].value_with_term(*v, term);
                    batch.push_one_value(partial_key(phase, *v), hits, value);
                } else {
                    batch.push_row(summed.next().expect("summed in pass 1"));
                }
            }
        }
        debug_assert!(
            (batches.iter().zip(&sizes)).all(|(b, &(rows, idx, values))| {
                (b.rows.capacity(), b.idx.capacity(), b.values.capacity()) == (rows, idx, values)
            })
        );
        batches
    }
}

/// The `(key, batch)` pair of every row of `batches`, ascending by key and,
/// within a key, by batch.
///
/// A least-significant-digit radix sort of the pairs in batch order: one
/// stable counting pass per digit of the key bits that are not the same in
/// every key, starting at the lowest such bit, with digits of about
/// `log₂(pairs)` bits and at most 11. `connectivity`'s owners at n = 1536
/// take two passes: one over the vertex bits, one over the phase bits.
fn key_order(batches: &[PartialBatch]) -> Vec<(u64, usize)> {
    let mut pairs = Vec::with_capacity(batches.iter().map(|b| b.rows.len()).sum());
    for (b, batch) in batches.iter().enumerate() {
        pairs.extend(batch.rows.iter().map(|head| (head.key, b)));
    }
    let (any, all) = (pairs.iter()).fold((0, u64::MAX), |(any, all), &(key, _)| {
        (any | key, all & key)
    });
    let mut varying = any ^ all;
    // About as many counters as pairs, and at most 2¹¹ (16 KiB).
    let bits = (usize::BITS - pairs.len().leading_zeros()).clamp(1, 11);
    let mut sorted = vec![(0, 0); pairs.len()];
    let mut next = vec![0usize; 1 << bits];
    while varying != 0 {
        let shift = varying.trailing_zeros();
        let digit = |key: u64| (key >> shift) as usize & ((1 << bits) - 1);
        next.fill(0);
        pairs.iter().for_each(|&(key, _)| next[digit(key)] += 1);
        let mut at = 0;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        for &pair in &pairs {
            sorted[next[digit(pair.0)]] = pair;
            next[digit(pair.0)] += 1;
        }
        std::mem::swap(&mut pairs, &mut sorted);
        varying &= u64::MAX.checked_shl(shift + bits).unwrap_or(0);
    }
    pairs
}

/// Sums the partial sketches of each key into one batch: the hash-owner's
/// step. Any merge order gives the same batch — cell addition is commutative
/// and associative and the layout is canonical.
pub fn merge_batches(batches: &[PartialBatch]) -> PartialBatch {
    // A batch's rows come in its own (ascending) order, so one cursor per
    // batch finds each row `key_order` names.
    let mut cursors: Vec<_> = batches.iter().map(PartialBatch::iter).collect();
    let mut merged = PartialBatch::default();
    let mut sum = CellSum::default();
    for of_key in key_order(batches).chunk_by(|a, b| a.0 == b.0) {
        for &(_, b) in of_key {
            sum.add_row(cursors[b].next().expect("one pair per row"));
        }
        sum.finish(of_key[0].0, &mut merged);
    }
    // A clone allocates each vector at its length: the merged batch, too,
    // waits for the large machine's step with no growth slack.
    merged.clone()
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

    proptest::proptest! {
        /// The radix order is the `(key, batch)` sort order for any keys:
        /// every bit may vary, runs of equal bits may be long or short.
        #[test]
        fn key_order_sorts_any_keys(
            keys in proptest::collection::vec(
                proptest::collection::btree_set(proptest::any::<u64>(), 0..40),
                0..6,
            ),
            mask in proptest::any::<u64>(),
        ) {
            let batches: Vec<PartialBatch> = (keys.iter())
                .map(|keys| {
                    let mut batch = PartialBatch::default();
                    let masked: std::collections::BTreeSet<u64> =
                        keys.iter().map(|k| k & mask).collect();
                    masked.into_iter().for_each(|key| batch.push(key, []));
                    batch
                })
                .collect();
            let mut want: Vec<(u64, usize)> = (batches.iter().enumerate())
                .flat_map(|(b, batch)| batch.iter().map(move |row| (row.key, b)))
                .collect();
            want.sort_unstable();
            proptest::prop_assert_eq!(key_order(&batches), want);
        }
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
