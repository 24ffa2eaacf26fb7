//! The multi-program scheduler contract: for the three sequentialized-
//! parallel workloads (`spanner-weighted`, `mst-approx`, `mincut-approx`),
//! the batched (interleaved-instance) runs are
//!
//! * **bit-identical per instance** to the PR 4 sequential compositions —
//!   same results and statistics, and for the workloads without an early
//!   exit (`mst-approx`, `spanner-weighted`) the same per-machine RNG
//!   stream positions;
//! * **schedule-independent** — serial and pooled execution at worker
//!   counts {1, 3, 16} produce identical results, round counts, round
//!   logs (labels, traffic, work, makespans), and RNG positions;
//! * an order of magnitude cheaper in rounds: one wave for all instances
//!   instead of one wave per instance.

use mpc_core::common;
use mpc_exec::{registry, AlgoInput, ExecMode};
use mpc_graph::{generators, Edge, Graph};
use mpc_runtime::{Cluster, ClusterConfig, Enforcement, Topology};
use rand::RngCore;

/// Draws one value from every machine's RNG — equal vectors mean equal
/// stream positions.
fn rng_positions(cluster: &mut Cluster) -> Vec<u64> {
    (0..cluster.machines())
        .map(|mid| cluster.rng(mid).next_u64())
        .collect()
}

fn cluster_for(g: &Graph, seed: u64, polylog: f64) -> Cluster {
    Cluster::new(
        ClusterConfig::new(g.n(), g.m().max(1))
            .seed(seed)
            .polylog_exponent(polylog),
    )
}

// ------------------------------------------- batched == sequential --

#[test]
fn batched_mst_approx_matches_sequential_bit_for_bit() {
    for (eps, seed) in [(0.25f64, 2u64), (0.5, 3)] {
        let g = generators::gnm(80, 400, seed).with_random_weights(32, seed);

        let mut seq_cluster = cluster_for(&g, seed, 2.6);
        let seq_input = common::distribute_edges(&seq_cluster, &g);
        let seq = registry::run(
            "mst-approx",
            &mut seq_cluster,
            &AlgoInput::new(g.n(), &seq_input)
                .epsilon(eps)
                .sequential_instances(),
            ExecMode::Serial,
        )
        .unwrap()
        .into_mst_approx()
        .unwrap();
        let seq_rounds = seq_cluster.rounds();
        let seq_rng = rng_positions(&mut seq_cluster);

        let mut bat_cluster = cluster_for(&g, seed, 2.6);
        let bat_input = common::distribute_edges(&bat_cluster, &g);
        let bat = registry::run(
            "mst-approx",
            &mut bat_cluster,
            &AlgoInput::new(g.n(), &bat_input).epsilon(eps),
            ExecMode::Parallel,
        )
        .unwrap()
        .into_mst_approx()
        .unwrap();
        let bat_rounds = bat_cluster.rounds();
        let bat_rng = rng_positions(&mut bat_cluster);

        assert_eq!(
            (bat.estimate, &bat.thresholds, &bat.component_counts),
            (seq.estimate, &seq.thresholds, &seq.component_counts),
            "eps {eps} seed {seed}: batched estimator diverged from sequential"
        );
        assert_eq!(
            bat_rng, seq_rng,
            "eps {eps} seed {seed}: RNG stream positions diverged"
        );
        // The collapse: one 2-round wave for ~Θ(log_{1+ε} W) thresholds.
        assert!(
            bat_rounds * 5 <= seq_rounds,
            "eps {eps} seed {seed}: expected ≥5× round collapse, got {bat_rounds} vs {seq_rounds}"
        );
    }
}

#[test]
fn batched_weighted_spanner_matches_sequential_bit_for_bit() {
    let g = generators::gnm(100, 800, 6).with_random_weights(64, 6);
    let k = 2;

    let mut seq_cluster = cluster_for(&g, 6, 1.6);
    let seq_input = common::distribute_edges(&seq_cluster, &g);
    let seq = registry::run(
        "spanner-weighted",
        &mut seq_cluster,
        &AlgoInput::new(g.n(), &seq_input)
            .spanner_k(k)
            .sequential_instances(),
        ExecMode::Serial,
    )
    .unwrap()
    .into_spanner()
    .unwrap();
    let seq_rounds = seq_cluster.rounds();
    let seq_rng = rng_positions(&mut seq_cluster);

    let mut bat_cluster = cluster_for(&g, 6, 1.6);
    let bat_input = common::distribute_edges(&bat_cluster, &g);
    let bat = registry::run(
        "spanner-weighted",
        &mut bat_cluster,
        &AlgoInput::new(g.n(), &bat_input).spanner_k(k),
        ExecMode::Parallel,
    )
    .unwrap()
    .into_spanner()
    .unwrap();
    let bat_rounds = bat_cluster.rounds();
    let bat_rng = rng_positions(&mut bat_cluster);

    let sorted = |graph: &Graph| {
        let mut v: Vec<Edge> = graph.edges().to_vec();
        v.sort_by_key(Edge::weight_key);
        v
    };
    assert_eq!(sorted(&bat.spanner), sorted(&seq.spanner));
    assert_eq!(bat.stats.weight_classes, seq.stats.weight_classes);
    assert_eq!(bat.stats.star_edges, seq.stats.star_edges);
    assert_eq!(bat.stats.phase1_edges, seq.stats.phase1_edges);
    assert_eq!(bat.stats.removal_edges, seq.stats.removal_edges);
    assert_eq!(bat_rng, seq_rng, "RNG stream positions diverged");
    assert!(
        bat_rounds * 5 <= seq_rounds,
        "expected ≥5× round collapse, got {bat_rounds} vs {seq_rounds}"
    );
}

#[test]
fn batched_mincut_approx_matches_sequential_results() {
    // Per-instance skeletons are bit-identical (the batched run samples the
    // guesses in the legacy order), so the chosen estimate must match; RNG
    // positions legitimately differ when the sequential early exit skipped
    // later guesses, so they are not compared here.
    for (g, eps, seed) in [
        (
            generators::planted_cut(20, 0.8, 4, 1).with_random_weights(8, 1),
            0.3f64,
            1u64,
        ),
        (generators::gnm(48, 700, 3), 0.3, 3),
    ] {
        let mut seq_cluster = cluster_for(&g, seed, 1.6);
        let seq_input = common::distribute_edges(&seq_cluster, &g);
        let seq = registry::run(
            "mincut-approx",
            &mut seq_cluster,
            &AlgoInput::new(g.n(), &seq_input)
                .epsilon(eps)
                .sequential_instances(),
            ExecMode::Serial,
        )
        .unwrap()
        .into_mincut_approx()
        .unwrap();
        let seq_rounds = seq_cluster.rounds();

        let mut bat_cluster = cluster_for(&g, seed, 1.6);
        let bat_input = common::distribute_edges(&bat_cluster, &g);
        let bat = registry::run(
            "mincut-approx",
            &mut bat_cluster,
            &AlgoInput::new(g.n(), &bat_input).epsilon(eps),
            ExecMode::Parallel,
        )
        .unwrap()
        .into_mincut_approx()
        .unwrap();
        let bat_rounds = bat_cluster.rounds();

        assert_eq!(
            (bat.estimate, bat.lambda_guess, bat.skeleton_edges),
            (seq.estimate, seq.lambda_guess, seq.skeleton_edges),
            "seed {seed}: batched min cut diverged from sequential"
        );
        assert!(
            bat_rounds * 5 <= seq_rounds,
            "seed {seed}: expected ≥5× round collapse, got {bat_rounds} vs {seq_rounds}"
        );
    }
}

// --------------------------------------- early exit / retirement --

/// A starved large machine forces the budget abort mid-grid: the batched
/// run must retire every finer guess (their skeletons never ship) and land
/// on the same whole-graph fallback as the sequential composition, in
/// O(1) combined rounds.
#[test]
fn budget_abort_retires_finer_guesses_and_matches_sequential_fallback() {
    let g = generators::gnm(40, 400, 11).with_random_weights(1 << 10, 11);
    // Record mode: the tiny large machine is the *point* (its skeleton
    // budget trips), and the fallback gather legitimately exceeds it.
    let make = || {
        Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(11)
                .enforcement(Enforcement::Record)
                .topology(Topology::Custom {
                    capacities: vec![600, 4000, 4000, 4000, 4000],
                    large: Some(0),
                }),
        )
    };

    let mut seq_cluster = make();
    let seq_input = common::distribute_edges(&seq_cluster, &g);
    let seq = registry::run(
        "mincut-approx",
        &mut seq_cluster,
        &AlgoInput::new(g.n(), &seq_input)
            .epsilon(0.3)
            .sequential_instances(),
        ExecMode::Serial,
    )
    .unwrap()
    .into_mincut_approx()
    .unwrap();
    let seq_rounds = seq_cluster.rounds();

    let mut bat_cluster = make();
    let bat_input = common::distribute_edges(&bat_cluster, &g);
    let bat = registry::run(
        "mincut-approx",
        &mut bat_cluster,
        &AlgoInput::new(g.n(), &bat_input).epsilon(0.3),
        ExecMode::Serial,
    )
    .unwrap()
    .into_mincut_approx()
    .unwrap();
    let bat_rounds = bat_cluster.rounds();

    // Both paths must have aborted to the fallback (λ̂ = 1 marker) with the
    // same estimate over the same gathered graph.
    assert_eq!(bat.lambda_guess, 1, "expected the fallback path");
    assert_eq!(
        (bat.estimate, bat.lambda_guess, bat.skeleton_edges),
        (seq.estimate, seq.lambda_guess, seq.skeleton_edges),
    );
    // Batched: 3 rounds of guess waves + the 1-round fallback gather. The
    // ship round may only carry the guesses at or before the abort —
    // retired guesses contribute nothing (the denser skeletons all sit
    // behind the abort, so the combined ship volume stays near the solo
    // budget instead of the full grid's sum).
    assert!(
        bat_rounds <= 5,
        "batched run should stay O(1) rounds, took {bat_rounds}"
    );
    // (No ≥5× assertion here: with the abort tripping at the very first
    // over-budget guess, the sequential run is short too — the collapse is
    // asserted on the uncontrived workloads above.)
    assert!(seq_rounds >= bat_rounds);
    // On this input the very first guess already overflows the budget, so
    // *every* guess is retired before shipping: the batched log holds just
    // the count report and the fallback gather — no ship round exists, and
    // the retired guesses' skeletons (the dense end of the grid) moved
    // zero words.
    assert_eq!(
        bat_cluster.round_log().len(),
        2,
        "retired guesses leaked a ship round into the log"
    );
}

// --------------------------------- schedule independence (pool) --

/// Batched runs must be bit-identical across Serial / Parallel at worker
/// counts {1, 3, 16}: results, round counts, full round logs (labels,
/// traffic, work, makespans), and RNG positions. (The twelve-name sweep in
/// `registry_equivalence.rs` runs the default ε = 0.3; this one runs the
/// coarser ε = 0.5 grid.)
#[test]
fn batched_workloads_are_schedule_independent_at_threads_1_3_16() {
    let g = generators::gnm(140, 1100, 9).with_random_weights(1 << 16, 9);
    for name in registry::BATCHED_NAMES {
        let polylog = registry::get(name).unwrap().polylog_exponent;
        let run = |mode: ExecMode, threads: usize| {
            let mut cluster = cluster_for(&g, 9, polylog);
            let edges = common::distribute_edges(&cluster, &g);
            let input = AlgoInput::new(g.n(), &edges).epsilon(0.5);
            let out = registry::run_threads(name, &mut cluster, &input, mode, threads).unwrap();
            let log = cluster.round_log().to_vec();
            let rng = rng_positions(&mut cluster);
            (out.digest(), cluster.rounds(), log, rng)
        };
        let reference = run(ExecMode::Serial, 1);
        for threads in [1usize, 3, 16] {
            let got = run(ExecMode::Parallel, threads);
            assert_eq!(
                got, reference,
                "{name}: parallel (threads={threads}) diverged from serial"
            );
        }
    }
}
