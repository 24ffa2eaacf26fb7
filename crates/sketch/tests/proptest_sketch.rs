//! Property tests for the sketch stack: linearity, cancellation, and the
//! "decoded edges are always real" guarantee that makes sketch-Borůvka
//! unions safe.

use mpc_graph::generators;
use mpc_sketch::field::{self, PowTable};
use mpc_sketch::{
    merge_partials, sketch_connectivity, sketch_connectivity_sparse, SketchFamily, SparseSketch,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

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
        let mut sparse = SparseSketch::new();
        for &(u, v) in &edges {
            if u == v { continue; }
            fam.add_edge(&mut dense, u, v);
            sparse.apply(&fam.prepare(0, u, v), u);
        }
        let mut densified = fam.empty(0);
        densified.merge_sparse(&sparse);
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

    /// The distributed pipeline's kernels — per-machine partials, owner
    /// merge, sparse-row Borůvka — give the same `Components` as dense
    /// sketch-Borůvka over whole-graph sketches, however the edges are
    /// split across machines.
    #[test]
    fn sparse_pipeline_matches_dense_boruvka(
        shape in 0usize..4,
        n in 8usize..48,
        machines in 1usize..6,
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
        // its share, one owner sums everything.
        let inbox: Vec<(u64, SparseSketch)> = (0..machines)
            .flat_map(|m| {
                let share: Vec<_> = pairs.iter().copied().skip(m).step_by(machines).collect();
                fam.partial_sketches(&share)
            })
            .collect();
        let merged = merge_partials(inbox);
        prop_assert!(merged.windows(2).all(|w| w[0].0 < w[1].0), "one sketch per key, ascending");
        // A merged partial is the vertex's whole-graph sketch.
        for (key, sparse) in &merged {
            let (phase, v) = ((key >> 32) as usize, (key & 0xFFFF_FFFF) as usize);
            let mut dense = fam.empty(phase);
            dense.merge_sparse(sparse);
            prop_assert_eq!(&dense, &dense_rows[phase][v]);
        }
        // Arrival order at the large machine is not key order.
        let mut arrived = merged;
        arrived.reverse();
        prop_assert_eq!(sketch_connectivity_sparse(&fam, arrived, n), want);
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
