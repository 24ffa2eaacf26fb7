//! The registry contract: every engine-ported flagship algorithm is
//! **bit-identical** to its legacy call-style twin — same results, same
//! statistics, same per-machine RNG stream positions — and the engine
//! itself is schedule-independent: serial and pooled execution at any
//! thread count produce identical results, round logs (labels, traffic,
//! makespans), and round counts.
//!
//! Legacy round counts differ from engine round counts by design (the
//! engine trades the legacy primitives' fused collector waves for explicit
//! per-phase exchanges); what must *not* differ is everything the paper's
//! theorems speak about: outputs, trajectories (MST contraction traces,
//! peeling iteration counts), and randomness consumption.

use mpc_core::common;
use mpc_exec::{registry, AlgoInput, ExecMode};
use mpc_graph::{generators, Edge, Graph};
use mpc_runtime::{Cluster, ClusterConfig, Topology};
use rand::RngCore;

/// Draws one value from every machine's RNG — equal vectors mean equal
/// stream positions (SmallRng has no public position accessor).
fn rng_positions(cluster: &mut Cluster) -> Vec<u64> {
    (0..cluster.machines())
        .map(|mid| cluster.rng(mid).next_u64())
        .collect()
}

fn cluster_for(g: &Graph, seed: u64) -> Cluster {
    Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed))
}

/// A denser topology that forces MST contraction waves before KKT.
fn dense_cluster_for(g: &Graph, seed: u64) -> Cluster {
    Cluster::new(
        ClusterConfig::new(g.n(), g.m().max(1))
            .topology(Topology::Heterogeneous {
                gamma: 0.5,
                large_exponent: 1.0,
            })
            .seed(seed),
    )
}

// ---------------------------------------------------------------- MST --

fn mst_graph(seed: u64) -> Graph {
    generators::gnm(200, 2400, seed).with_random_weights(1 << 20, seed)
}

#[test]
fn mst_program_is_bit_identical_to_legacy() {
    for seed in [3u64, 11] {
        for dense in [false, true] {
            let g = if dense {
                generators::gnm(256, 8000, seed).with_random_weights(1 << 20, seed)
            } else {
                mst_graph(seed)
            };
            let make = |s| {
                if dense {
                    dense_cluster_for(&g, s)
                } else {
                    cluster_for(&g, s)
                }
            };

            let mut legacy_cluster = make(seed);
            let legacy_input = common::distribute_edges(&legacy_cluster, &g);
            let legacy =
                mpc_core::mst::heterogeneous_mst(&mut legacy_cluster, g.n(), legacy_input).unwrap();
            let legacy_rng = rng_positions(&mut legacy_cluster);

            for mode in [ExecMode::Serial, ExecMode::Parallel] {
                let mut engine_cluster = make(seed);
                let engine_input = common::distribute_edges(&engine_cluster, &g);
                let engine = registry::run(
                    "mst",
                    &mut engine_cluster,
                    &AlgoInput::new(g.n(), &engine_input),
                    mode,
                )
                .unwrap()
                .into_mst()
                .unwrap();
                let engine_rng = rng_positions(&mut engine_cluster);

                assert_eq!(
                    engine.forest, legacy.forest,
                    "seed {seed} dense {dense} {mode:?}: forests differ"
                );
                assert_eq!(
                    engine.stats.boruvka_steps, legacy.stats.boruvka_steps,
                    "seed {seed} dense {dense} {mode:?}: wave counts differ"
                );
                assert_eq!(
                    engine.stats.contraction_trace, legacy.stats.contraction_trace,
                    "seed {seed} dense {dense} {mode:?}: contraction traces differ"
                );
                assert_eq!(
                    engine.stats.finished_by_direct_gather, legacy.stats.finished_by_direct_gather,
                    "seed {seed} dense {dense} {mode:?}: finish paths differ"
                );
                assert_eq!(
                    engine.stats.kkt_rep_used, legacy.stats.kkt_rep_used,
                    "seed {seed} dense {dense} {mode:?}: KKT repetitions differ"
                );
                assert_eq!(
                    engine.stats.f_light_edges, legacy.stats.f_light_edges,
                    "seed {seed} dense {dense} {mode:?}: F-light counts differ"
                );
                assert_eq!(
                    engine_rng, legacy_rng,
                    "seed {seed} dense {dense} {mode:?}: RNG positions differ"
                );
                assert!(mpc_core::mst::is_minimum_spanning_forest(
                    &g,
                    &engine.forest
                ));
            }
        }
    }
}

// ----------------------------------------------------------- matching --

#[test]
fn matching_program_is_bit_identical_to_legacy() {
    for (g, seed) in [
        (generators::gnm(120, 700, 4), 4u64),
        (generators::chung_lu(300, 1800, 2.3, 5), 5u64),
        (generators::star(200), 2u64),
    ] {
        let mut legacy_cluster = cluster_for(&g, seed);
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy =
            mpc_core::matching::heterogeneous_matching(&mut legacy_cluster, g.n(), &legacy_input)
                .unwrap();
        let legacy_rng = rng_positions(&mut legacy_cluster);

        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let mut engine_cluster = cluster_for(&g, seed);
            let engine_input = common::distribute_edges(&engine_cluster, &g);
            let engine = registry::run(
                "matching",
                &mut engine_cluster,
                &AlgoInput::new(g.n(), &engine_input),
                mode,
            )
            .unwrap()
            .into_matching()
            .unwrap();
            let engine_rng = rng_positions(&mut engine_cluster);

            assert_eq!(
                engine.matching.edges, legacy.matching.edges,
                "seed {seed} {mode:?}: matchings differ"
            );
            assert_eq!(
                (
                    engine.stats.phase1_iterations,
                    engine.stats.m1,
                    engine.stats.m2,
                    engine.stats.m3,
                    engine.stats.high_vertices,
                    engine.stats.residual_edges,
                ),
                (
                    legacy.stats.phase1_iterations,
                    legacy.stats.m1,
                    legacy.stats.m2,
                    legacy.stats.m3,
                    legacy.stats.high_vertices,
                    legacy.stats.residual_edges,
                ),
                "seed {seed} {mode:?}: stats differ"
            );
            assert_eq!(
                engine_rng, legacy_rng,
                "seed {seed} {mode:?}: RNG positions differ"
            );
            assert!(mpc_graph::matching::is_maximal_matching(
                &g,
                &engine.matching
            ));
        }
    }
}

// ------------------------------------------------------------ spanner --

fn sorted_edges(g: &Graph) -> Vec<Edge> {
    let mut v: Vec<Edge> = g.edges().to_vec();
    v.sort_by_key(Edge::weight_key);
    v
}

#[test]
fn spanner_program_is_bit_identical_to_legacy() {
    for (k, seed) in [(2usize, 1u64), (3, 7)] {
        let g = generators::gnm(150, 1600, seed);
        let make = |s| {
            Cluster::new(
                ClusterConfig::new(g.n(), g.m())
                    .seed(s)
                    .polylog_exponent(1.6),
            )
        };

        let mut legacy_cluster = make(seed);
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy =
            mpc_core::spanner::heterogeneous_spanner(&mut legacy_cluster, g.n(), &legacy_input, k)
                .unwrap();
        let legacy_rng = rng_positions(&mut legacy_cluster);

        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let mut engine_cluster = make(seed);
            let engine_input = common::distribute_edges(&engine_cluster, &g);
            let engine = registry::run(
                "spanner",
                &mut engine_cluster,
                &AlgoInput::new(g.n(), &engine_input).spanner_k(k),
                mode,
            )
            .unwrap()
            .into_spanner()
            .unwrap();
            let engine_rng = rng_positions(&mut engine_cluster);

            assert_eq!(
                sorted_edges(&engine.spanner),
                sorted_edges(&legacy.spanner),
                "k {k} seed {seed} {mode:?}: spanner edges differ"
            );
            assert_eq!(
                (
                    engine.stats.levels,
                    engine.stats.full_levels.clone(),
                    engine.stats.star_edges,
                    engine.stats.phase1_edges,
                    engine.stats.removal_edges,
                    engine.stats.level_edge_counts.clone(),
                ),
                (
                    legacy.stats.levels,
                    legacy.stats.full_levels.clone(),
                    legacy.stats.star_edges,
                    legacy.stats.phase1_edges,
                    legacy.stats.removal_edges,
                    legacy.stats.level_edge_counts.clone(),
                ),
                "k {k} seed {seed} {mode:?}: stats differ"
            );
            assert_eq!(
                engine_rng, legacy_rng,
                "k {k} seed {seed} {mode:?}: RNG positions differ"
            );
            let rep = mpc_graph::verify_spanner(&g, &engine.spanner, None, 0);
            assert!(rep.within((6 * k - 1) as f64));
        }
    }
}

/// The registry default is the *batched* weighted spanner (all weight
/// classes interleaved by the multi-program scheduler); it must still be
/// bit-identical to the legacy sequential class loop — including RNG
/// stream positions, because the scheduler consumes each machine's stream
/// in class order, exactly as the loop did.
#[test]
fn weighted_spanner_matches_legacy() {
    let g = generators::gnm(100, 800, 6).with_random_weights(64, 6);
    let k = 2;
    let make = || {
        Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(6)
                .polylog_exponent(1.6),
        )
    };
    let mut legacy_cluster = make();
    let legacy_input = common::distribute_edges(&legacy_cluster, &g);
    let legacy = mpc_core::spanner::heterogeneous_spanner_weighted(
        &mut legacy_cluster,
        g.n(),
        &legacy_input,
        k,
    )
    .unwrap();
    let legacy_rng = rng_positions(&mut legacy_cluster);

    let mut engine_cluster = make();
    let engine_input = common::distribute_edges(&engine_cluster, &g);
    let engine = registry::run(
        "spanner-weighted",
        &mut engine_cluster,
        &AlgoInput::new(g.n(), &engine_input).spanner_k(k),
        ExecMode::Parallel,
    )
    .unwrap()
    .into_spanner()
    .unwrap();
    let engine_rng = rng_positions(&mut engine_cluster);

    assert_eq!(sorted_edges(&engine.spanner), sorted_edges(&legacy.spanner));
    assert_eq!(engine.stats.weight_classes, legacy.stats.weight_classes);
    assert_eq!(engine_rng, legacy_rng);
}

/// A zero-weight edge is in weight class 0 — for the class shards both
/// paths run on *and* for the service's share count (one classifier,
/// `mpc_core::spanner::weight_class`). It used to fall outside every
/// class and vanish from the spanner, while still reserving a share.
#[test]
fn zero_weight_bridge_stays_in_the_weighted_spanner() {
    let n = 16u32;
    let bridge = Edge::new(7, 8, 0);
    let path = (0..n - 1).map(|v| Edge::new(v, v + 1, if v == 7 { 0 } else { 8 }));
    let g = Graph::new(n as usize, path);
    let make = || {
        Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(4)
                .polylog_exponent(1.6),
        )
    };
    let mut legacy_cluster = make();
    let legacy_input = common::distribute_edges(&legacy_cluster, &g);
    let legacy = mpc_core::spanner::heterogeneous_spanner_weighted(
        &mut legacy_cluster,
        g.n(),
        &legacy_input,
        2,
    )
    .unwrap();

    let mut engine_cluster = make();
    let engine_input = common::distribute_edges(&engine_cluster, &g);
    let engine = registry::run(
        "spanner-weighted",
        &mut engine_cluster,
        &AlgoInput::new(g.n(), &engine_input).spanner_k(2),
        ExecMode::Serial,
    )
    .unwrap()
    .into_spanner()
    .unwrap();

    // A spanner of a path is the path.
    assert_eq!(sorted_edges(&engine.spanner), sorted_edges(&g));
    assert!(engine.spanner.edges().contains(&bridge));
    assert_eq!(sorted_edges(&engine.spanner), sorted_edges(&legacy.spanner));
    assert_eq!(engine.stats.weight_classes, legacy.stats.weight_classes);
}

// ---------------------------------------------------------------- MIS --

#[test]
fn mis_program_is_bit_identical_to_legacy() {
    for (g, seed) in [
        (generators::gnm(120, 900, 4), 4u64),
        (generators::gnm(256, 8000, 3), 3u64),
        (generators::star(300), 1u64),
    ] {
        let make = |s| {
            Cluster::new(
                ClusterConfig::new(g.n(), g.m().max(1))
                    .seed(s)
                    .polylog_exponent(1.6),
            )
        };
        let mut legacy_cluster = make(seed);
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy =
            mpc_core::ported::heterogeneous_mis(&mut legacy_cluster, g.n(), &legacy_input).unwrap();
        let legacy_rng = rng_positions(&mut legacy_cluster);

        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let mut engine_cluster = make(seed);
            let engine_input = common::distribute_edges(&engine_cluster, &g);
            let engine = registry::run(
                "mis",
                &mut engine_cluster,
                &AlgoInput::new(g.n(), &engine_input),
                mode,
            )
            .unwrap()
            .into_mis()
            .unwrap();
            let engine_rng = rng_positions(&mut engine_cluster);

            assert_eq!(engine, legacy, "seed {seed} {mode:?}: MIS results differ");
            assert_eq!(
                engine_rng, legacy_rng,
                "seed {seed} {mode:?}: RNG positions differ"
            );
            assert!(mpc_graph::mis::is_maximal_independent_set(&g, &engine.mis));
        }
    }
}

// ----------------------------------------------------------- coloring --

#[test]
fn coloring_program_is_bit_identical_to_legacy() {
    for (g, seed) in [
        (generators::gnm(100, 900, 2), 2u64),
        (generators::gnm(128, 4000, 7), 7u64),
        (generators::star(64), 3u64),
    ] {
        let make = |s| {
            Cluster::new(
                ClusterConfig::new(g.n(), g.m().max(1))
                    .seed(s)
                    .polylog_exponent(2.0),
            )
        };
        let mut legacy_cluster = make(seed);
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy =
            mpc_core::ported::heterogeneous_coloring(&mut legacy_cluster, g.n(), &legacy_input)
                .unwrap();
        let legacy_rng = rng_positions(&mut legacy_cluster);

        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let mut engine_cluster = make(seed);
            let engine_input = common::distribute_edges(&engine_cluster, &g);
            let engine = registry::run(
                "coloring",
                &mut engine_cluster,
                &AlgoInput::new(g.n(), &engine_input),
                mode,
            )
            .unwrap()
            .into_coloring()
            .unwrap();
            let engine_rng = rng_positions(&mut engine_cluster);

            assert_eq!(
                engine, legacy,
                "seed {seed} {mode:?}: coloring results differ"
            );
            assert_eq!(
                engine_rng, legacy_rng,
                "seed {seed} {mode:?}: RNG positions differ"
            );
            assert!(mpc_graph::coloring::is_proper_coloring(&g, &engine.colors));
        }
    }
}

// ----------------------------------------------------------- min cuts --

#[test]
fn mincut_program_is_bit_identical_to_legacy() {
    for (bridge, seed) in [(2usize, 1u64), (4, 3)] {
        let g = generators::planted_cut(24, 0.7, bridge, seed);
        let trials = 8;

        let mut legacy_cluster = cluster_for(&g, seed);
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy = mpc_core::ported::heterogeneous_min_cut(
            &mut legacy_cluster,
            g.n(),
            &legacy_input,
            trials,
        )
        .unwrap();
        let legacy_rng = rng_positions(&mut legacy_cluster);
        let want = mpc_graph::mincut::min_cut(&g).unwrap().weight;
        assert_eq!(legacy.value, want, "legacy must find the planted cut");

        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let mut engine_cluster = cluster_for(&g, seed);
            let engine_input = common::distribute_edges(&engine_cluster, &g);
            let engine = registry::run(
                "mincut",
                &mut engine_cluster,
                &AlgoInput::new(g.n(), &engine_input).mincut_trials(trials),
                mode,
            )
            .unwrap()
            .into_mincut()
            .unwrap();
            let engine_rng = rng_positions(&mut engine_cluster);

            assert_eq!(
                engine, legacy,
                "bridge {bridge} seed {seed} {mode:?}: min-cut results differ"
            );
            assert_eq!(
                engine_rng, legacy_rng,
                "bridge {bridge} seed {seed} {mode:?}: RNG positions differ"
            );
        }
    }
}

/// The registry samples every λ̂ guess up front, while the legacy loop
/// stops drawing at a winning or over-budget guess: results must always
/// agree, RNG stream positions only where the loop sampled every guess
/// too. On these inputs it does — no guess overflows its budget, and none
/// wins before the last (the forest's cut is 0, so every guess fails).
#[test]
fn mincut_approx_program_is_bit_identical_to_legacy() {
    for (g, eps, seed) in [
        (
            generators::planted_cut(20, 0.8, 4, 1).with_random_weights(8, 1),
            0.3f64,
            1u64,
        ),
        (generators::gnm(48, 700, 3), 0.3, 3),
        (generators::random_forest(40, 2, 2), 0.4, 2),
    ] {
        let make = |s| {
            Cluster::new(
                ClusterConfig::new(g.n(), g.m())
                    .seed(s)
                    .polylog_exponent(1.6),
            )
        };
        let mut legacy_cluster = make(seed);
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy =
            mpc_core::ported::approximate_min_cut(&mut legacy_cluster, g.n(), &legacy_input, eps)
                .unwrap();
        let legacy_rng = rng_positions(&mut legacy_cluster);

        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let mut engine_cluster = make(seed);
            let engine_input = common::distribute_edges(&engine_cluster, &g);
            let engine = registry::run(
                "mincut-approx",
                &mut engine_cluster,
                &AlgoInput::new(g.n(), &engine_input).epsilon(eps),
                mode,
            )
            .unwrap()
            .into_mincut_approx()
            .unwrap();
            let engine_rng = rng_positions(&mut engine_cluster);

            // `parallel_rounds` counts rounds and so is engine-geometry by
            // design (see the module header); everything the theorem
            // speaks about must match bit-for-bit.
            assert_eq!(
                (engine.estimate, engine.lambda_guess, engine.skeleton_edges),
                (legacy.estimate, legacy.lambda_guess, legacy.skeleton_edges),
                "seed {seed} {mode:?}: approx min-cut results differ"
            );
            assert_eq!(
                engine_rng, legacy_rng,
                "seed {seed} {mode:?}: RNG positions differ"
            );
        }
    }
}

// --------------------------------------------------------- mst-approx --

/// The registry default is the *batched* estimator (all threshold waves
/// interleaved by the multi-program scheduler, sketch seeds pre-drawn in
/// the legacy threshold order); it must still be bit-identical to the
/// legacy sequential loop — including RNG stream positions.
#[test]
fn mst_approx_program_is_bit_identical_to_legacy() {
    for (eps, seed) in [(0.25f64, 2u64), (0.5, 3)] {
        let g = generators::gnm(80, 400, seed).with_random_weights(32, seed);
        let make = |s| {
            Cluster::new(
                ClusterConfig::new(g.n(), g.m())
                    .seed(s)
                    .polylog_exponent(2.6),
            )
        };
        let mut legacy_cluster = make(seed);
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy = mpc_core::ported::approximate_mst_weight(
            &mut legacy_cluster,
            g.n(),
            &legacy_input,
            eps,
        )
        .unwrap();
        let legacy_rng = rng_positions(&mut legacy_cluster);

        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let mut engine_cluster = make(seed);
            let engine_input = common::distribute_edges(&engine_cluster, &g);
            let engine = registry::run(
                "mst-approx",
                &mut engine_cluster,
                &AlgoInput::new(g.n(), &engine_input).epsilon(eps),
                mode,
            )
            .unwrap()
            .into_mst_approx()
            .unwrap();
            let engine_rng = rng_positions(&mut engine_cluster);

            assert_eq!(
                (
                    engine.estimate,
                    engine.thresholds.clone(),
                    engine.component_counts.clone()
                ),
                (
                    legacy.estimate,
                    legacy.thresholds.clone(),
                    legacy.component_counts.clone()
                ),
                "eps {eps} seed {seed} {mode:?}: MST estimates differ"
            );
            assert_eq!(
                engine_rng, legacy_rng,
                "eps {eps} seed {seed} {mode:?}: RNG positions differ"
            );
        }
    }
}

// ------------------------------------------------- min-cut edge cases --

/// Empty, disconnected, and single-edge graphs through *both* paths: the
/// legacy loop and the engine program must agree (and be right).
#[test]
fn mincut_edge_cases_agree_across_paths() {
    let two_cliques = {
        let mut edges: Vec<Edge> = generators::complete(5).edges().to_vec();
        for e in generators::complete(5).edges() {
            edges.push(Edge::new(e.u + 5, e.v + 5, e.w));
        }
        Graph::new(10, edges)
    };
    let cases: Vec<(&str, Graph, u128)> = vec![
        ("empty", Graph::empty(8), 0),
        ("disconnected", two_cliques, 0),
        (
            "single-edge",
            Graph::new(2, vec![Edge::unweighted(0, 1)]),
            1,
        ),
    ];
    for (name, g, want) in cases {
        let make = || Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(9));
        let mut legacy_cluster = make();
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy =
            mpc_core::ported::heterogeneous_min_cut(&mut legacy_cluster, g.n(), &legacy_input, 4)
                .unwrap();
        assert_eq!(legacy.value, want, "{name}: legacy value");

        let mut engine_cluster = make();
        let engine_input = common::distribute_edges(&engine_cluster, &g);
        let engine = registry::run(
            "mincut",
            &mut engine_cluster,
            &AlgoInput::new(g.n(), &engine_input).mincut_trials(4),
            ExecMode::Parallel,
        )
        .unwrap()
        .into_mincut()
        .unwrap();
        assert_eq!(engine, legacy, "{name}: engine diverged from legacy");
    }

    // The approximate path on a disconnected input: estimate 0, again on
    // both paths.
    let forest = generators::random_forest(40, 2, 2);
    let make = || {
        Cluster::new(
            ClusterConfig::new(forest.n(), forest.m())
                .seed(2)
                .polylog_exponent(1.6),
        )
    };
    let mut legacy_cluster = make();
    let legacy_input = common::distribute_edges(&legacy_cluster, &forest);
    let legacy =
        mpc_core::ported::approximate_min_cut(&mut legacy_cluster, forest.n(), &legacy_input, 0.4)
            .unwrap();
    assert_eq!(legacy.estimate, 0.0);
    let mut engine_cluster = make();
    let engine_input = common::distribute_edges(&engine_cluster, &forest);
    let engine = registry::run(
        "mincut-approx",
        &mut engine_cluster,
        &AlgoInput::new(forest.n(), &engine_input).epsilon(0.4),
        ExecMode::Parallel,
    )
    .unwrap()
    .into_mincut_approx()
    .unwrap();
    assert_eq!(engine.estimate, 0.0);
}

// --------------------------------------- schedule independence (pool) --

/// Engine runs must be bit-identical across Serial / Parallel at worker
/// counts {1, 3, 16}: result digests, round counts, full round logs
/// (labels, traffic, work, makespans), and RNG positions — for all twelve
/// names, the multiplexed ones included, through the one registry entry.
#[test]
fn engine_algorithms_are_schedule_independent_at_threads_1_3_16() {
    let g = generators::gnm(140, 1100, 9).with_random_weights(1 << 16, 9);
    for name in registry::CANONICAL_NAMES {
        let polylog = registry::get(name).unwrap().polylog_exponent;
        let run = |mode: ExecMode, threads: usize| {
            let mut cluster = Cluster::new(
                ClusterConfig::new(g.n(), g.m())
                    .seed(9)
                    .polylog_exponent(polylog),
            );
            let edges = common::distribute_edges(&cluster, &g);
            let input = AlgoInput::new(g.n(), &edges);
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
