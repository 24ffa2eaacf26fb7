//! The sketch and Borůvka programs against sequential references: the
//! same components as union–find, the same forest as Kruskal. The legacy
//! connectivity loop's components on the seeds below are the
//! `connectivity-*` rows of `LEGACY_CASES` in `registry_equivalence.rs`.

use mpc_core::ported::connectivity::{sketch_friendly_config, ConnectivityConfig};
use mpc_core::{common, mst};
use mpc_exec::{registry, AlgoInput, ExecMode, JobParams};
use mpc_graph::mst::{kruskal, Forest};
use mpc_graph::traversal::{connected_components, Components};
use mpc_graph::{generators, Edge};
use mpc_runtime::{Cluster, ClusterConfig, ShardedVec};

fn connectivity(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    config: &ConnectivityConfig,
    mode: ExecMode,
) -> Components {
    let input = AlgoInput {
        n,
        edges,
        params: JobParams::default().connectivity(config.clone()),
    };
    registry::run("connectivity", cluster, &input, mode)
        .unwrap()
        .into_components()
        .unwrap()
}

fn boruvka_msf(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    mode: ExecMode,
) -> Forest {
    registry::run("boruvka-msf", cluster, &AlgoInput::new(n, edges), mode)
        .unwrap()
        .into_forest()
        .unwrap()
}

#[test]
fn connectivity_program_equals_legacy_exactly() {
    for seed in [1u64, 5, 11] {
        let g = generators::gnm(96, 240, seed);
        let config = ConnectivityConfig::for_n(g.n());
        let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
        let input = common::distribute_edges(&cluster, &g);
        let engine = connectivity(&mut cluster, g.n(), &input, &config, ExecMode::Parallel);
        // Exact: sketch decoding is fingerprint-verified, and these seeds
        // decode every component.
        assert_eq!(engine, connected_components(&g), "seed {seed}");
    }
}

#[test]
fn boruvka_program_matches_legacy_mst() {
    for seed in [2u64, 7, 13] {
        // Unique weights => the MSF is unique => edge sets must agree.
        let base = generators::gnm(100, 420, seed);
        let edges: Vec<Edge> = base
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, 1_000 + i as u64))
            .collect();
        let g = mpc_graph::Graph::new(100, edges);

        let want = kruskal(&g);

        let mut engine_cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed));
        let engine_input = common::distribute_edges(&engine_cluster, &g);
        let engine = boruvka_msf(
            &mut engine_cluster,
            g.n(),
            &engine_input,
            ExecMode::Parallel,
        );

        assert_eq!(engine.keys(), want.keys(), "seed {seed}");
        assert_eq!(engine.total_weight, want.total_weight, "seed {seed}");
        assert!(mst::is_minimum_spanning_forest(&g, &engine), "seed {seed}");
    }
}

#[test]
fn boruvka_handles_disconnected_and_tiny_inputs() {
    // Disconnected forest input.
    let g = generators::random_forest(80, 5, 3).with_random_weights(500, 3);
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(9));
    let input = common::distribute_edges(&cluster, &g);
    let forest = boruvka_msf(&mut cluster, g.n(), &input, ExecMode::Parallel);
    assert!(mst::is_minimum_spanning_forest(&g, &forest));

    // Empty graph: engine must terminate with an empty forest.
    let empty = mpc_graph::Graph::empty(10);
    let mut cluster = Cluster::new(ClusterConfig::new(10, 1).seed(1));
    let input = common::distribute_edges(&cluster, &empty);
    let forest = boruvka_msf(&mut cluster, 10, &input, ExecMode::Serial);
    assert!(forest.is_empty());
}

/// A machine with nothing to sketch — an empty shard, or a threshold that
/// filters every edge — sends no batch, its owners get no mail and stay
/// idle, and the large machine still counts the singletons.
#[test]
fn machines_with_nothing_to_sketch_send_nothing() {
    let n = 64;
    let g = generators::gnm(n, 160, 3).with_random_weights(50, 3);
    let config = ConnectivityConfig::for_n(n);
    let words_and_messages = |cluster: &Cluster| -> Vec<(usize, usize)> {
        (cluster.round_log().iter())
            .map(|r| (r.total_words, r.messages))
            .collect()
    };

    // No edges anywhere: only the seed broadcast moves.
    let mut cluster = Cluster::new(sketch_friendly_config(n, g.m(), 3));
    let smalls = cluster.small_ids().len();
    let empty = ShardedVec::new(&cluster);
    let got = connectivity(&mut cluster, n, &empty, &config, ExecMode::Serial);
    assert_eq!(got.count, n);
    assert_eq!(
        words_and_messages(&cluster),
        [(smalls, smalls), (0, 0), (0, 0)]
    );

    // A few edges, all on one machine: one sender, at most one batch per
    // owner, and one batch from each owner that got one.
    let few = mpc_graph::Graph::new(n, g.edges()[..20].iter().copied());
    let mut cluster = Cluster::new(sketch_friendly_config(n, g.m(), 3));
    let mut one_shard: ShardedVec<Edge> = ShardedVec::new(&cluster);
    *one_shard.shard_mut(cluster.small_ids()[0]) = few.edges().to_vec();
    let got = connectivity(&mut cluster, n, &one_shard, &config, ExecMode::Serial);
    assert_eq!(got, connected_components(&few));
    let log = words_and_messages(&cluster);
    assert!((1..=smalls).contains(&log[1].1), "sender round: {log:?}");
    assert_eq!(log[2].1, log[1].1, "owner round: {log:?}");

    // Weights ≥ 2: the first threshold (τ = 1) filters every edge on every
    // machine, so that wave sends nothing and counts n singletons.
    let heavier = g.edges().iter().map(|e| Edge::new(e.u, e.v, e.w + 1));
    let heavy = mpc_graph::Graph::new(n, heavier);
    let mut cluster = Cluster::new(sketch_friendly_config(n, g.m(), 3));
    let input = common::distribute_edges(&cluster, &heavy);
    let algo_input = AlgoInput::new(n, &input).epsilon(0.5);
    let got = registry::run("mst-approx", &mut cluster, &algo_input, ExecMode::Serial)
        .unwrap()
        .into_mst_approx()
        .unwrap();
    assert_eq!((got.thresholds[0], got.component_counts[0]), (1, n));
}
