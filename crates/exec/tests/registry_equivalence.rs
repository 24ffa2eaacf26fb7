//! The registry contract against the cluster-owning `mpc-core` loops.
//!
//! `mst` still has its live twin: the engine program is **bit-identical**
//! to the legacy call-style loop — same forest, same statistics, same
//! per-machine RNG stream positions. MST keeps its loop because the
//! engine's `mst` does not yet hold strict capacity on the superlinear
//! inputs the loop handles (ROADMAP item 1).
//!
//! Every other name's loop is gone. [`LEGACY_CASES`] pins every input
//! those loops were compared on, with the trajectories and statistics the
//! comparisons checked; its rows were taken while the comparisons still
//! ran, so each row is the loop's own result. Each name's test below runs
//! its rows under `Serial` and `Parallel` against that certificate and
//! checks the output is right on its own terms (maximal, within stretch,
//! the exact cut, ...).
//!
//! The engine itself is schedule-independent: serial and pooled execution
//! at any thread count produce identical results, round logs (labels,
//! traffic, makespans), and round counts.
//!
//! Legacy round counts differ from engine round counts by design (the
//! engine trades the legacy primitives' fused collector waves for explicit
//! per-phase exchanges); what must *not* differ is everything the paper's
//! theorems speak about: outputs, trajectories (MST contraction traces),
//! and randomness consumption.

mod fingerprint;

use fingerprint::{bridge_path, fnv, fold, Fingerprint};
use mpc_core::common;
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_exec::{registry, AlgoInput, AlgoOutput, ExecMode, JobParams, JobSpec};
use mpc_graph::{generators, mincut::min_cut, Edge, Graph};
use mpc_runtime::{Cluster, ClusterConfig, Topology};
use rand::RngCore;
use std::sync::Arc;

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

            // The row pins the round log the live comparison leaves out.
            legacy_case(&format!("mst-{seed}{}", if dense { "-dense" } else { "" }));

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

// ------------------------------------------------------- legacy rows --

/// The inputs the legacy-loop comparisons checked: every input of
/// `registry_equivalence.rs`, its `mincut` edge cases, and the
/// connectivity seeds of `equivalence.rs`, each on the cluster those
/// comparisons built.
fn legacy_input(case: &str) -> (&'static str, JobSpec, ClusterConfig) {
    let plain = |g: &Graph, seed: u64| ClusterConfig::new(g.n(), g.m().max(1)).seed(seed);
    let polylog = |g: &Graph, seed: u64, exponent: f64| plain(g, seed).polylog_exponent(exponent);
    // MST contraction waves before KKT.
    let dense = |g: &Graph, seed: u64| {
        plain(g, seed).topology(Topology::Heterogeneous {
            gamma: 0.5,
            large_exponent: 1.0,
        })
    };
    let weighted = |n, m, seed, w| generators::gnm(n, m, seed).with_random_weights(w, seed);
    let two_cliques = || {
        let k5 = generators::complete(5);
        let shifted = k5.edges().iter().map(|e| Edge::new(e.u + 5, e.v + 5, e.w));
        Graph::new(10, k5.edges().iter().copied().chain(shifted))
    };
    let params = JobParams::default();
    let (name, config, g, params) = match case {
        "mst-3" | "mst-11" => {
            let seed = if case == "mst-3" { 3 } else { 11 };
            let g = weighted(200, 2400, seed, 1 << 20);
            ("mst", plain(&g, seed), g, params)
        }
        "mst-3-dense" | "mst-11-dense" => {
            let seed = if case == "mst-3-dense" { 3 } else { 11 };
            let g = weighted(256, 8000, seed, 1 << 20);
            ("mst", dense(&g, seed), g, params)
        }
        "matching-gnm" => {
            let g = generators::gnm(120, 700, 4);
            ("matching", plain(&g, 4), g, params)
        }
        "matching-chung-lu" => {
            let g = generators::chung_lu(300, 1800, 2.3, 5);
            ("matching", plain(&g, 5), g, params)
        }
        "matching-star" => {
            let g = generators::star(200);
            ("matching", plain(&g, 2), g, params)
        }
        "spanner-k2" | "spanner-k3" => {
            let (k, seed) = if case == "spanner-k2" { (2, 1) } else { (3, 7) };
            let g = generators::gnm(150, 1600, seed);
            ("spanner", polylog(&g, seed, 1.6), g, params.spanner_k(k))
        }
        "spanner-weighted" => {
            let g = weighted(100, 800, 6, 64);
            (
                "spanner-weighted",
                polylog(&g, 6, 1.6),
                g,
                params.spanner_k(2),
            )
        }
        "bridge-classes" => {
            let g = bridge_path();
            (
                "spanner-weighted",
                polylog(&g, 4, 1.6),
                g,
                params.spanner_k(2),
            )
        }
        "mis-gnm" => {
            let g = generators::gnm(120, 900, 4);
            ("mis", polylog(&g, 4, 1.6), g, params)
        }
        "mis-dense" => {
            let g = generators::gnm(256, 8000, 3);
            ("mis", polylog(&g, 3, 1.6), g, params)
        }
        "mis-star" => {
            let g = generators::star(300);
            ("mis", polylog(&g, 1, 1.6), g, params)
        }
        "coloring-gnm" => {
            let g = generators::gnm(100, 900, 2);
            ("coloring", polylog(&g, 2, 2.0), g, params)
        }
        "coloring-dense" => {
            let g = generators::gnm(128, 4000, 7);
            ("coloring", polylog(&g, 7, 2.0), g, params)
        }
        "coloring-star" => {
            let g = generators::star(64);
            ("coloring", polylog(&g, 3, 2.0), g, params)
        }
        "mincut-bridge-2" | "mincut-bridge-4" => {
            let (bridge, seed) = if case == "mincut-bridge-2" {
                (2, 1)
            } else {
                (4, 3)
            };
            let g = generators::planted_cut(24, 0.7, bridge, seed);
            ("mincut", plain(&g, seed), g, params.mincut_trials(8))
        }
        "mincut-empty" => {
            let g = Graph::empty(8);
            ("mincut", plain(&g, 9), g, params.mincut_trials(4))
        }
        "mincut-disconnected" => {
            let g = two_cliques();
            ("mincut", plain(&g, 9), g, params.mincut_trials(4))
        }
        "mincut-single-edge" => {
            let g = Graph::new(2, vec![Edge::unweighted(0, 1)]);
            ("mincut", plain(&g, 9), g, params.mincut_trials(4))
        }
        "mincut-approx-planted" => {
            let g = generators::planted_cut(20, 0.8, 4, 1).with_random_weights(8, 1);
            ("mincut-approx", polylog(&g, 1, 1.6), g, params.epsilon(0.3))
        }
        "mincut-approx-gnm" => {
            let g = generators::gnm(48, 700, 3);
            ("mincut-approx", polylog(&g, 3, 1.6), g, params.epsilon(0.3))
        }
        "mincut-approx-forest" => {
            let g = generators::random_forest(40, 2, 2);
            ("mincut-approx", polylog(&g, 2, 1.6), g, params.epsilon(0.4))
        }
        "mst-approx-0.25" | "mst-approx-0.5" => {
            let (eps, seed) = if case == "mst-approx-0.25" {
                (0.25, 2)
            } else {
                (0.5, 3)
            };
            let g = weighted(80, 400, seed, 32);
            ("mst-approx", polylog(&g, seed, 2.6), g, params.epsilon(eps))
        }
        "connectivity-1" | "connectivity-5" | "connectivity-11" => {
            let seed = case["connectivity-".len()..].parse().expect("a seed");
            let g = generators::gnm(96, 240, seed);
            let config = sketch_friendly_config(g.n(), g.m(), seed);
            ("connectivity", config, g, params)
        }
        other => panic!("unknown case {other}"),
    };
    (name, JobSpec::new(name, g).params(params), config)
}

/// Folds what the legacy comparisons checked beyond [`AlgoOutput::digest`]:
/// component labels, result edges in output order, and every statistic.
fn detail(out: &AlgoOutput) -> u64 {
    let mut w: Vec<u64> = Vec::new();
    // Lists are length-prefixed, so field boundaries are part of the fold.
    let list = |w: &mut Vec<u64>, items: Vec<u64>| {
        w.push(items.len() as u64);
        w.extend(items);
    };
    let edges = |es: &[Edge]| -> Vec<u64> {
        (es.iter())
            .flat_map(|e| [u64::from(e.u), u64::from(e.v), e.w])
            .collect()
    };
    let pairs = |ps: &[(usize, usize)]| -> Vec<u64> {
        ps.iter().flat_map(|&(a, b)| [a as u64, b as u64]).collect()
    };
    let wide = |xs: &[usize]| -> Vec<u64> { xs.iter().map(|&x| x as u64).collect() };
    match out {
        AlgoOutput::Components(c) => {
            w.push(c.count as u64);
            list(&mut w, c.label.iter().map(|&l| u64::from(l)).collect());
        }
        AlgoOutput::Mst(r) => {
            let s = &r.stats;
            list(&mut w, edges(&r.forest.edges));
            list(&mut w, pairs(&s.contraction_trace));
            w.extend([
                s.boruvka_steps as u64,
                u64::from(s.finished_by_direct_gather),
                s.kkt_rep_used.map_or(u64::MAX, |rep| rep as u64),
                s.f_light_edges as u64,
            ]);
        }
        AlgoOutput::Matching(r) => {
            let s = &r.stats;
            list(&mut w, edges(&r.matching.edges));
            w.extend([
                s.phase1_iterations as u64,
                s.m1 as u64,
                s.m2 as u64,
                s.m3 as u64,
                s.high_vertices as u64,
                s.residual_edges,
            ]);
        }
        AlgoOutput::Spanner(r) => {
            let s = &r.stats;
            list(&mut w, wide(&s.full_levels));
            list(&mut w, wide(&s.level_edge_counts));
            w.extend([
                s.levels as u64,
                s.star_edges as u64,
                s.phase1_edges as u64,
                s.removal_edges as u64,
                s.weight_classes as u64,
            ]);
        }
        AlgoOutput::MstApprox(r) => list(&mut w, r.thresholds.clone()),
        AlgoOutput::MinCut(r) => {
            list(&mut w, pairs(&r.trial_sizes));
            w.extend([
                r.value as u64,
                (r.value >> 64) as u64,
                u64::from(r.singleton),
            ]);
        }
        AlgoOutput::MinCutApprox(r) => w.extend([
            r.estimate.to_bits(),
            r.lambda_guess,
            r.skeleton_edges as u64,
            r.parallel_rounds,
        ]),
        AlgoOutput::Mis(r) => {
            list(&mut w, r.mis.iter().map(|&v| u64::from(v)).collect());
            list(&mut w, wide(&r.batch_edges));
            w.push(r.iterations as u64);
        }
        AlgoOutput::Coloring(r) => {
            list(&mut w, r.colors.iter().map(|&c| u64::from(c)).collect());
            w.extend([r.conflict_edges as u64, r.restarts as u64]);
        }
        other => panic!("no legacy comparison covers {other:?}"),
    }
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for word in w {
        fnv(&mut acc, word);
    }
    acc
}

/// `(case, name, rounds, round-log fold, result digest, RNG fold, detail
/// fold)` for every input a legacy-loop comparison checked. Taken while
/// those comparisons still ran — each row's engine run was bit-identical
/// to the cluster-owning `mpc-core` loop on the same input (results,
/// statistics, RNG positions) — so the rows carry that certificate after
/// the loops are gone. `detail` folds what [`AlgoOutput::digest`] leaves
/// out ([`detail`]).
#[rustfmt::skip]
const LEGACY_CASES: [(&str, &str, u64, u64, u128, u64, u64); 30] = [
    ("mst-3", "mst", 13, 0x6b54cbb1bb5a56d5, 0xb8ce0d049a4c7059b907c780d535d2f1, 0xd46bffd847e90a54, 0x2df208c43f650dba),
    ("mst-3-dense", "mst", 13, 0x5e275531be94ef7a, 0xbec58738c6d0f235279a211e93eda99b, 0x8e6feed344de91f9, 0x9466da40578ff7b3),
    ("mst-11", "mst", 13, 0x2a3cd2943e0cf38c, 0x65a8533c970340288587440528e4b40e, 0x040cd16afc152f54, 0xd49f52cbe915f633),
    ("mst-11-dense", "mst", 13, 0x8257a225a7701c34, 0x9ce6993bada89a895bb149612c0afc54, 0x6b48ab91bc09e406, 0xc76499bcfdcfee1b),
    ("matching-gnm", "matching", 40, 0xbf6880df38ce23e9, 0xdaefe78f9779478db236309bf301be97, 0xa1209afc6540a9e3, 0x0ac6a0348dd43017),
    ("matching-chung-lu", "matching", 46, 0x866297805d0cd85d, 0x7e3d749424e77f5e41049041095244ff, 0x4c26fb78b7a10449, 0xe864a9b17a98e3e5),
    ("matching-star", "matching", 16, 0x55b460866ff7e74f, 0xf3cc2c136ecab460d0a2d6186725e918, 0x3c6aa59c092c068b, 0xfe4c56e8a5713e7e),
    ("spanner-k2", "spanner", 17, 0x2d817606c671009d, 0xb7d6f44afbc4b096e9aa140d8b58984d, 0x3c9091dce75f6041, 0x6d125dcc4296d64c),
    ("spanner-k3", "spanner", 17, 0x880fa0bca1811801, 0x26a6662549261d438f8e20e4972adaca, 0xca1aaaacb3619437, 0xd13c52f978afccd7),
    ("spanner-weighted", "spanner-weighted", 17, 0xf59f6361b5add10c, 0x589af6e3edcba77e2c54f004975367bd, 0x6ed665dee6f01d82, 0xdc821f561a201fdf),
    ("bridge-classes", "spanner-weighted", 17, 0x8525e71680ce05c3, 0x5a87a901f38e6aa09a1164536c4bb289, 0x6fcf3dd97a16c4d6, 0x0f7053ea966fe029),
    ("mis-gnm", "mis", 15, 0xfdaa84bfd1c6223b, 0x3c0c78ddf20b1b657f5f81ee0ff67e40, 0xaa36efe39611ef42, 0x844d6b9db5ba3fbd),
    ("mis-dense", "mis", 15, 0x1c7faa83ede69f76, 0x8e8ddf106e94dd395cbf1baf3454682f, 0x833a487b86cff51e, 0xd8bd59667b3067c2),
    ("mis-star", "mis", 15, 0xaddd99835897d6e2, 0xdc6436bd0dcb1b20def3fcd6728b1dd0, 0xf513a74bb50f012a, 0xa9ddd5f610bf0b4a),
    ("coloring-gnm", "coloring", 5, 0x3573ecd7a6493f1c, 0x39a4908a5c911fd91a5d3f515b0ecefb, 0x67f463ced659d434, 0x1e8ed70aa93b4a77),
    ("coloring-dense", "coloring", 5, 0xcef234f91a54368e, 0x32cba9dc7b01f9eff1f9d3d8c660a34d, 0xdf7e4fbeebb3f1db, 0x25726ef677924e65),
    ("coloring-star", "coloring", 5, 0x42e1f1dcb4a158e2, 0x2bf9e570f537ea54600201263c049857, 0xd13b004b3fe5f65c, 0xcc98f71f965babe5),
    ("mincut-bridge-2", "mincut", 99, 0xf1ea0c5c95299f42, 0xaf16ebcccb116b6fdf5e724de4002697, 0x2b106630ea1e61f5, 0xa23a3b53239b420f),
    ("mincut-bridge-4", "mincut", 99, 0xfcf2e4409d0b94a9, 0x50c981988b34bda5fe282bd4d1e47d30, 0x8c9bcd9ddefd8fd0, 0x7ecf0a71bc91d5bd),
    ("mincut-empty", "mincut", 51, 0xc3c9597fcd8eb93a, 0x9b2346847e3a0940262a773f9dce13f5, 0x391f01b28ebb5198, 0xafac7e311ac5d4fd),
    ("mincut-disconnected", "mincut", 51, 0xd08f60fd6371fd07, 0x765b460e67992d0defbb28939dce13f5, 0xb34d6e6a004a0d5a, 0x529e83e8315ac13d),
    ("mincut-single-edge", "mincut", 51, 0x8148d3c09a601fd2, 0x287f45fad04b63059e704f899dce13f4, 0xfba40633b72c28db, 0x9fe7aee28d8678b5),
    ("mincut-approx-planted", "mincut-approx", 4, 0x38653e518fdded06, 0x9ce7393ca456e5ea48081407b4ea27fa, 0x46f045760be4b957, 0x9090137f9b38e714),
    ("mincut-approx-gnm", "mincut-approx", 4, 0xe82b6378b6374019, 0x9ce7393ca456e5ea48198607b4e5d0b0, 0xb90770795c77b960, 0x95c6477f93fb3a42),
    ("mincut-approx-forest", "mincut-approx", 4, 0x2f62ca8c7c7843bd, 0x9ce7393ca456e5ea082f0007b4e852fe, 0xc0edc84585d8e3cb, 0x4416037f988f6fb0),
    ("mst-approx-0.25", "mst-approx", 2, 0x6d60208050c9d7d5, 0x5d70ff1fe1041c1e9074664f61df8775, 0x83bfd759963db976, 0xba750166b8e06657),
    ("mst-approx-0.5", "mst-approx", 2, 0xbfac5fc9c1314ba3, 0x2880c3962a53cc7c73a8cfbd81c2f7e7, 0x1ce924e6b9d3c610, 0x1a3b8583792df6dc),
    ("connectivity-1", "connectivity", 3, 0x118113954d7421e9, 0x00000000000000000000000000000001, 0x844126a25d7d10ae, 0xa6c65b19240b7924),
    ("connectivity-5", "connectivity", 3, 0x505519b87cf9dc3c, 0x00000000000000000000000000000001, 0x84e3a1d273652929, 0xa6c65b19240b7924),
    ("connectivity-11", "connectivity", 3, 0x6a522787a9a55d2b, 0x00000000000000000000000000000002, 0xad37c20691274df5, 0x9be41fdd6f7622eb),
];

/// Runs the [`LEGACY_CASES`] input `case` solo under `Serial` and
/// `Parallel`, asserts both runs match the row the legacy loop certified,
/// and returns the input graph with the serial run's output.
fn legacy_case(case: &str) -> (Arc<Graph>, AlgoOutput) {
    let &(_, name, rounds, round_log, digest, rng, detail_fold) = (LEGACY_CASES.iter())
        .find(|row| row.0 == case)
        .unwrap_or_else(|| panic!("no LEGACY_CASES row {case}"));
    let mut serial = None;
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let want = Fingerprint {
            rounds,
            round_log,
            digest,
            rng,
        };
        let (got_name, spec, config) = legacy_input(case);
        let mut cluster = Cluster::new(config);
        let out = registry::run_job(&spec, &mut cluster, mode)
            .unwrap_or_else(|e| panic!("{case} {mode:?}: {e}"));
        let got = (got_name, fold(got_name, &mut cluster, &out), detail(&out));
        assert_eq!(got, (name, want, detail_fold), "{case} {mode:?}");
        serial.get_or_insert((spec.graph, out));
    }
    serial.expect("both modes ran")
}

fn sorted_edges(g: &Graph) -> Vec<Edge> {
    let mut edges = g.edges().to_vec();
    edges.sort_unstable_by_key(|e| (e.u, e.v, e.w));
    edges
}

#[test]
fn matching_program_is_bit_identical_to_legacy() {
    for case in ["matching-gnm", "matching-chung-lu", "matching-star"] {
        let (g, out) = legacy_case(case);
        let r = out.into_matching().expect("matching output");
        assert!(
            mpc_graph::matching::is_maximal_matching(&g, &r.matching),
            "{case}"
        );
    }
}

#[test]
fn spanner_program_is_bit_identical_to_legacy() {
    for (case, k) in [("spanner-k2", 2usize), ("spanner-k3", 3)] {
        let (g, out) = legacy_case(case);
        let r = out.into_spanner().expect("spanner output");
        let rep = mpc_graph::verify_spanner(&g, &r.spanner, None, 0);
        assert!(
            rep.within((6 * k - 1) as f64),
            "{case}: {}",
            rep.max_stretch
        );
    }
}

#[test]
fn weighted_spanner_matches_legacy() {
    let (g, out) = legacy_case("spanner-weighted");
    let r = out.into_spanner().expect("spanner output");
    let rep = mpc_graph::verify_spanner(&g, &r.spanner, None, 0);
    assert!(rep.within(23.0), "stretch {}", rep.max_stretch);
    assert!(r.stats.weight_classes >= 2);
}

/// A zero-weight edge is in weight class 0 — for the class shards the
/// program runs on *and* for the service's share count (one classifier,
/// `weight_class`). On a path every edge is a bridge, so the spanner is
/// the whole path.
#[test]
fn zero_weight_bridge_stays_in_the_weighted_spanner() {
    let (g, out) = legacy_case("bridge-classes");
    let r = out.into_spanner().expect("spanner output");
    assert_eq!(sorted_edges(&r.spanner), sorted_edges(&g));
    assert!(r.spanner.edges().contains(&Edge::new(7, 8, 0)));
}

#[test]
fn mis_program_is_bit_identical_to_legacy() {
    for case in ["mis-gnm", "mis-dense", "mis-star"] {
        let (g, out) = legacy_case(case);
        let r = out.into_mis().expect("MIS output");
        assert!(
            mpc_graph::mis::is_maximal_independent_set(&g, &r.mis),
            "{case}"
        );
    }
}

#[test]
fn coloring_program_is_bit_identical_to_legacy() {
    for case in ["coloring-gnm", "coloring-dense", "coloring-star"] {
        let (g, out) = legacy_case(case);
        let r = out.into_coloring().expect("coloring output");
        assert!(
            mpc_graph::coloring::is_proper_coloring(&g, &r.colors),
            "{case}"
        );
    }
}

#[test]
fn mincut_program_is_bit_identical_to_legacy() {
    for case in ["mincut-bridge-2", "mincut-bridge-4"] {
        let (g, out) = legacy_case(case);
        let got = out.into_mincut().expect("min-cut output").value;
        assert_eq!(got, min_cut(&g).unwrap().weight, "{case}: the planted cut");
    }
}

/// Empty, disconnected and single-edge graphs, and a forest through the
/// approximate path: the certified rows, and the right values.
#[test]
fn mincut_edge_cases_agree_across_paths() {
    for (case, want) in [
        ("mincut-empty", 0u128),
        ("mincut-disconnected", 0),
        ("mincut-single-edge", 1),
    ] {
        let (_, out) = legacy_case(case);
        assert_eq!(
            out.into_mincut().expect("min-cut output").value,
            want,
            "{case}"
        );
    }
    let (_, out) = legacy_case("mincut-approx-forest");
    let est = out.into_mincut_approx().expect("estimator output").estimate;
    assert_eq!(est, 0.0);
}

#[test]
fn mincut_approx_program_is_bit_identical_to_legacy() {
    for case in [
        "mincut-approx-planted",
        "mincut-approx-gnm",
        "mincut-approx-forest",
    ] {
        let (g, out) = legacy_case(case);
        let est = out.into_mincut_approx().expect("estimator output").estimate;
        let exact = min_cut(&g).map_or(0, |c| c.weight) as f64;
        assert!(
            (est - exact).abs() <= exact * 0.7 + 3.0,
            "{case}: {est} vs {exact}"
        );
    }
}

#[test]
fn mst_approx_program_is_bit_identical_to_legacy() {
    for (case, eps) in [("mst-approx-0.25", 0.25), ("mst-approx-0.5", 0.5)] {
        let (g, out) = legacy_case(case);
        let est = out.into_mst_approx().expect("estimator output").estimate;
        let exact = mpc_graph::mst::kruskal(&g).total_weight as f64;
        assert!(
            est >= exact * 0.95 && est <= exact * (1.0 + eps),
            "{case}: {est} vs {exact}"
        );
    }
}

#[test]
fn connectivity_program_is_bit_identical_to_legacy() {
    for case in ["connectivity-1", "connectivity-5", "connectivity-11"] {
        let (g, out) = legacy_case(case);
        let got = out.into_components().expect("components output");
        assert_eq!(
            got,
            mpc_graph::traversal::connected_components(&g),
            "{case}"
        );
    }
}

#[test]
#[ignore = "prints the rows to paste into LEGACY_CASES"]
fn print_legacy_cases() {
    for &(case, ..) in &LEGACY_CASES {
        let (name, spec, config) = legacy_input(case);
        let mut cluster = Cluster::new(config);
        let out = registry::run_job(&spec, &mut cluster, ExecMode::Serial)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let f = fold(name, &mut cluster, &out);
        println!(
            "    ({case:?}, {name:?}, {}, {:#018x}, {:#034x}, {:#018x}, {:#018x}),",
            f.rounds,
            f.round_log,
            f.digest,
            f.rng,
            detail(&out)
        );
    }
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
