//! Property tests for the sketch stack: linearity, cancellation, and the
//! "decoded edges are always real" guarantee that makes sketch-Borůvka
//! unions safe.

use mpc_graph::generators;
use mpc_runtime::Payload;
use mpc_sketch::field::{self, PowTable};
use mpc_sketch::{
    merge_batches, partial_key, sketch_connectivity, sketch_connectivity_batches, OneSparse,
    PartialBatch, SketchFamily, SparseCell, SparseSketch,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The sender kernel as it was before partials were batched: one
/// [`SparseSketch`] per `(phase, endpoint)` key, every edge applied to both
/// endpoints' sketches. Kept as the oracle `partial_batches` is held to.
fn old_partial_sketches(fam: &SketchFamily, edges: &[(u32, u32)]) -> BTreeMap<u64, SparseSketch> {
    let mut out: BTreeMap<u64, SparseSketch> = BTreeMap::new();
    for phase in 0..fam.phases() {
        for &(u, v) in edges {
            let update = fam.prepare(phase, u, v);
            for x in [u, v] {
                out.entry(partial_key(phase, x))
                    .or_default()
                    .apply(&update, x);
            }
        }
    }
    out
}

/// The owner kernel as it was: the per-key sum of `(key, sketch)` messages.
fn old_merge_partials<'a>(
    partials: impl IntoIterator<Item = (&'a u64, &'a SparseSketch)>,
) -> BTreeMap<u64, SparseSketch> {
    let mut out: BTreeMap<u64, SparseSketch> = BTreeMap::new();
    for (key, sketch) in partials {
        out.entry(*key).or_default().merge(sketch);
    }
    out
}

/// A batch as the `(key, cells)` map the oracles produce.
fn keyed(batch: &PartialBatch) -> BTreeMap<u64, SparseSketch> {
    batch
        .iter()
        .map(|row| (row.key, SparseSketch::from_sorted_cells(row.cells())))
        .collect()
}

/// `batch` rebuilt row by row from its cells, one value per cell: equal to
/// `batch` iff its layout is the canonical one (a row whose cells are all
/// equal holds its value once).
fn repushed(batch: &PartialBatch) -> PartialBatch {
    let mut out = PartialBatch::default();
    for row in batch.iter() {
        out.push(row.key, row.cells());
    }
    out
}

/// What the per-key messages of `partials` cost on the wire.
fn old_words(partials: &BTreeMap<u64, SparseSketch>) -> usize {
    partials.values().map(|s| 1 + s.words()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merging all vertex sketches of a component cancels its internal
    /// edges exactly: for a whole connected graph the sum is zero.
    #[test]
    fn full_graph_sum_is_zero(n in 4usize..60, seed in any::<u64>(), extra in 0usize..40) {
        let g = generators::gnm(n, (n - 1 + extra).min(n * (n - 1) / 2), seed);
        let fam = SketchFamily::new(n, 1, seed);
        let mut total = fam.empty(0);
        for e in g.edges() {
            let mut su = fam.empty(0);
            let mut sv = fam.empty(0);
            fam.add_edge(&mut su, e.u, e.v);
            fam.add_edge(&mut sv, e.v, e.u);
            total.merge(&su);
            total.merge(&sv);
        }
        prop_assert!(total.is_zero());
    }

    /// Decoded edges are always real edges of the sketched graph —
    /// fingerprints make false positives (which would corrupt Borůvka)
    /// effectively impossible.
    #[test]
    fn decodes_are_always_real_edges(n in 6usize..80, m_factor in 1usize..4, seed in any::<u64>()) {
        let g = generators::gnm(n, (n * m_factor).min(n * (n - 1) / 2), seed);
        let real: BTreeSet<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let fam = SketchFamily::new(n, 1, seed ^ 0xF00D);
        for v in 0..n as u32 {
            let mut s = fam.empty(0);
            for e in g.edges() {
                if e.u == v {
                    fam.add_edge(&mut s, e.u, e.v);
                } else if e.v == v {
                    fam.add_edge(&mut s, e.v, e.u);
                }
            }
            if let Some((a, b)) = fam.decode(&s) {
                let key = (a.min(b), a.max(b));
                prop_assert!(real.contains(&key), "decoded fake edge {:?}", key);
            }
        }
    }

    /// Sparse and dense sketch construction agree regardless of edge order.
    #[test]
    fn sparse_equals_dense_under_permutation(
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..80),
        seed in any::<u64>(),
    ) {
        let fam = SketchFamily::new(40, 1, seed);
        let mut dense = fam.empty(0);
        let mut sparse = SparseSketch::default();
        for &(u, v) in &edges {
            if u == v { continue; }
            fam.add_edge(&mut dense, u, v);
            sparse.apply(&fam.prepare(0, u, v), u);
        }
        let mut densified = fam.empty(0);
        densified.merge_cells(sparse.cells().iter().copied());
        prop_assert_eq!(densified, dense);
    }

    /// The fixed-base window table agrees with square-and-multiply on the
    /// boundary exponents and on random ones.
    #[test]
    fn pow_table_matches_pow(
        z in 1u64..field::P,
        n in 1u64..(1 << 24),
        picks in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let domain = n * n;
        let table = PowTable::new(z, domain);
        let powers_of_two = (0..48).map(|k| 1u64 << k);
        let random = picks.iter().map(|r| r % domain);
        for e in [0, 1, domain - 1].into_iter().chain(powers_of_two).chain(random) {
            if e < domain {
                prop_assert_eq!(table.pow(e), field::pow(z, e), "z = {}, e = {}", z, e);
            }
        }
    }

    /// Batched sender and owner kernels == the per-key path they replaced,
    /// key for key and cell for cell, on multigraphs with parallel edges,
    /// reversed duplicates and self-loops, however the edges are split over
    /// senders and the keys over owners; a batch costs exactly the words
    /// of the per-key messages it stands for, per (sender, owner) and per
    /// owner; and both kernels write the canonical layout.
    #[test]
    fn batches_match_the_per_key_path(
        edges in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
        machines in 1usize..6,
        owners in 1usize..8,
        seed in any::<u64>(),
    ) {
        let fam = SketchFamily::new(24, 3, seed);
        let shares: Vec<Vec<(u32, u32)>> = (0..machines)
            .map(|m| edges.iter().copied().skip(m).step_by(machines).collect())
            .collect();
        let old_sent: Vec<_> = shares.iter().map(|s| old_partial_sketches(&fam, s)).collect();
        let sent: Vec<_> = shares.iter().map(|s| fam.partial_batches(s, owners)).collect();
        for o in 0..owners {
            // What each sender's per-key messages to owner `o` were.
            let old_inbox: Vec<BTreeMap<u64, SparseSketch>> = old_sent
                .iter()
                .map(|old| {
                    let mine = old.iter().filter(|(key, _)| **key % owners as u64 == o as u64);
                    mine.map(|(key, s)| (*key, s.clone())).collect()
                })
                .collect();
            for (want, new) in old_inbox.iter().zip(&sent) {
                prop_assert_eq!(new.len(), owners);
                prop_assert_eq!(new[o].is_empty(), want.is_empty());
                prop_assert_eq!(new[o].words(), old_words(want));
                prop_assert_eq!(&keyed(&new[o]), want);
                prop_assert_eq!(&repushed(&new[o]), &new[o]);
            }
            let inbox: Vec<PartialBatch> = sent.iter().map(|b| b[o].clone()).collect();
            let merged = merge_batches(&inbox);
            let want = old_merge_partials(old_inbox.iter().flatten());
            let keys: Vec<u64> = merged.iter().map(|row| row.key).collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "one partial per key, ascending");
            prop_assert_eq!(merged.words(), old_words(&want));
            prop_assert_eq!(keyed(&merged), want);
            prop_assert_eq!(&repushed(&merged), &merged);
        }
    }

    /// The owner merge depends only on the rows it is given: it returns the
    /// same batch (`==`) with its inputs in another order, with one input
    /// split in two at any row, and with an empty batch added anywhere.
    #[test]
    fn merge_is_invariant_under_permutation_split_and_empty_batches(
        edges in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
        machines in 1usize..6,
        owners in 1usize..4,
        (shuffle, which, at) in (any::<u64>(), any::<u64>(), any::<u64>()),
        seed in any::<u64>(),
    ) {
        let fam = SketchFamily::new(24, 3, seed);
        let sent: Vec<Vec<PartialBatch>> = (0..machines)
            .map(|m| {
                let share: Vec<_> = edges.iter().copied().skip(m).step_by(machines).collect();
                fam.partial_batches(&share, owners)
            })
            .collect();
        for o in 0..owners {
            let inbox: Vec<PartialBatch> = sent.iter().map(|b| b[o].clone()).collect();
            let want = merge_batches(&inbox);

            let mut permuted = inbox.clone();
            permuted.sort_by_key(|b| {
                let first = b.iter().next().map_or(0, |row| row.key);
                (first ^ shuffle).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            permuted.reverse();
            prop_assert_eq!(&merge_batches(&permuted), &want);

            let b = which as usize % inbox.len();
            let at = at as usize % (inbox[b].iter().len() + 1);
            let (mut head, mut tail) = (PartialBatch::default(), PartialBatch::default());
            for (r, row) in inbox[b].iter().enumerate() {
                let half = if r < at { &mut head } else { &mut tail };
                half.push(row.key, row.cells());
            }
            let mut split = inbox.clone();
            split[b] = head;
            split.insert(b + 1, tail);
            prop_assert_eq!(&merge_batches(&split), &want);

            let mut padded = inbox.clone();
            padded.insert(which as usize % (inbox.len() + 1), PartialBatch::default());
            prop_assert_eq!(&merge_batches(&padded), &want);
        }
    }

    /// One edge at a time (every endpoint a one-value row) and all edges at
    /// once (shared endpoints go through the accumulator) merge to the same
    /// batch, and a lone edge's rows are its cells.
    #[test]
    fn one_edge_path_agrees_with_the_accumulator(
        edges in proptest::collection::vec((0u32..12, 0u32..12), 1..30),
        seed in any::<u64>(),
    ) {
        let fam = SketchFamily::new(12, 2, seed);
        let singly: Vec<PartialBatch> =
            edges.iter().flat_map(|&e| fam.partial_batches(&[e], 1)).collect();
        let at_once = fam.partial_batches(&edges, 1);
        prop_assert_eq!(merge_batches(&singly), merge_batches(&at_once));
        for (&e, batch) in edges.iter().zip(&singly) {
            prop_assert_eq!(keyed(batch), old_partial_sketches(&fam, &[e]));
        }
    }

    /// Cells that cancel at the owner leave their key behind with no
    /// cells — the one-word message the per-key path sent — and cells
    /// that cancel only in part leave the rest, whether a side's rows
    /// hold one value per cell or one for all.
    #[test]
    fn cancelled_keys_keep_their_word(
        picks in proptest::collection::vec((0u64..6, 0u8..9, 1u64..50, any::<bool>()), 1..40),
        same_slots in any::<bool>(),
    ) {
        let cell = |slot: u64, sign: i64| {
            let mut c = OneSparse::new();
            c.update_term(slot, sign, if sign > 0 { slot } else { mpc_sketch::field::sub(0, slot) });
            c
        };
        // Per key, per cell index: the slots added; `mirror` removes the
        // slots flagged for it. With `same_slots` every cell of a key gets
        // the key's first slot, so its rows are one-value rows.
        let mut plus: BTreeMap<u64, BTreeMap<u8, Vec<u64>>> = BTreeMap::new();
        let mut minus = plus.clone();
        let first_slot: BTreeMap<u64, u64> = picks.iter().rev().map(|p| (p.0, p.2)).collect();
        for &(key, idx, slot, cancel) in &picks {
            let slot = if same_slots { first_slot[&key] } else { slot };
            plus.entry(key).or_default().entry(idx).or_default().push(slot);
            if cancel {
                minus.entry(key).or_default().entry(idx).or_default().push(slot);
            }
        }
        // Each key's row pushed as it is, or as one value where it can be;
        // both are the same batch.
        let batch_of = |side: &BTreeMap<u64, BTreeMap<u8, Vec<u64>>>, sign: i64| {
            let (mut batch, mut compact) = (PartialBatch::default(), PartialBatch::default());
            for (&key, by_idx) in side {
                let cells: Vec<SparseCell> = by_idx
                    .iter()
                    .map(|(&idx, slots)| {
                        let mut sum = OneSparse::new();
                        slots.iter().for_each(|&s| sum.merge(&cell(s, sign)));
                        (idx, sum)
                    })
                    .collect();
                batch.push(key, cells.iter().copied());
                match cells.as_slice() {
                    [(_, first), ..] if cells.iter().all(|c| c.1 == *first) => {
                        let idx: Vec<u8> = cells.iter().map(|c| c.0).collect();
                        compact.push_one_value(key, &idx, *first);
                    }
                    _ => compact.push(key, cells),
                }
            }
            assert_eq!(batch, compact);
            batch
        };
        let (sender, mirror) = (batch_of(&plus, 1), batch_of(&minus, -1));
        let merged = merge_batches(&[sender.clone(), mirror.clone()]);
        let want = old_merge_partials(keyed(&sender).iter().chain(keyed(&mirror).iter()));
        prop_assert_eq!(merged.words(), old_words(&want));
        prop_assert_eq!(keyed(&merged), want);
        let all_cancelled = picks.iter().all(|p| p.3);
        if all_cancelled {
            prop_assert_eq!(merged.words(), plus.len());
        }
    }

    /// The distributed pipeline's kernels — per-machine batches, owner
    /// merge, sparse-row Borůvka — give the same `Components` as dense
    /// sketch-Borůvka over whole-graph sketches, however the edges are
    /// split across machines and the keys across owners.
    #[test]
    fn sparse_pipeline_matches_dense_boruvka(
        shape in 0usize..4,
        n in 8usize..48,
        machines in 1usize..6,
        owners in 1usize..4,
        seed in 0u64..500,
    ) {
        let g = match shape {
            0 => generators::gnm(n, (2 * n).min(n * (n - 1) / 2), seed),
            1 => generators::two_cycles(2 * (n / 2), seed),
            2 => generators::random_forest(n, 3, seed),
            _ => mpc_graph::Graph::empty(n),
        };
        let n = g.n();
        let pairs: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let phases = 2 * ((n as f64).log2().ceil() as usize) + 2;
        let fam = SketchFamily::new(n, phases, seed ^ 0xC0FFEE);

        let dense_rows = mpc_sketch::connectivity::sketch_graph(&fam, n, pairs.clone());
        let want = sketch_connectivity(&fam, &dense_rows, n);

        // Round-robin the edges over `machines`; every machine sketches
        // its share, every owner sums what it is sent.
        let sent: Vec<Vec<PartialBatch>> = (0..machines)
            .map(|m| {
                let share: Vec<_> = pairs.iter().copied().skip(m).step_by(machines).collect();
                fam.partial_batches(&share, owners)
            })
            .collect();
        let mut arrived: Vec<PartialBatch> = (0..owners)
            .map(|o| merge_batches(&sent.iter().map(|b| b[o].clone()).collect::<Vec<_>>()))
            .collect();
        // A merged partial is the vertex's whole-graph sketch.
        for row in arrived.iter().flat_map(PartialBatch::iter) {
            let (phase, v) = ((row.key >> 32) as usize, (row.key & 0xFFFF_FFFF) as usize);
            let mut dense = fam.empty(phase);
            dense.merge_cells(row.cells());
            prop_assert_eq!(&dense, &dense_rows[phase][v]);
        }
        // Arrival order at the large machine is not owner order.
        arrived.reverse();
        prop_assert_eq!(sketch_connectivity_batches(&fam, &arrived, n), want);
    }

    /// End-to-end: sketch connectivity equals true components w.h.p.
    /// (fixed seeds keep this deterministic; the phase count is the
    /// standard 2·log n + 2).
    #[test]
    fn connectivity_matches_reference(n in 8usize..60, density in 1usize..4, seed in 0u64..500) {
        let g = generators::gnm(n, (n * density).min(n * (n - 1) / 2), seed);
        let phases = 2 * ((n as f64).log2().ceil() as usize) + 2;
        let fam = SketchFamily::new(n, phases, seed ^ 0xAB);
        let rows = mpc_sketch::connectivity::sketch_graph(
            &fam,
            n,
            g.edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>(),
        );
        let got = sketch_connectivity(&fam, &rows, n);
        let want = mpc_graph::traversal::connected_components(&g);
        prop_assert_eq!(got, want);
    }
}
