//! The sketch and Borůvka programs against sequential references: the
//! same components as union–find, the same forest as Kruskal, each checked
//! by the name's [`registry::certify`]. The legacy connectivity loop's
//! components on the seeds below are the `connectivity-*` rows of
//! `LEGACY_CASES` in `registry_equivalence.rs`.

use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_exec::{registry, AlgoOutput, ConnectivityProgram, ExecMode, Executor, JobSpec};
use mpc_graph::mst::Forest;
use mpc_graph::traversal::Components;
use mpc_graph::{generators, Edge, Graph};
use mpc_runtime::{Cluster, ClusterConfig, ShardedVec};

/// Runs registry `name` on `g` and asserts the output passes its
/// certificate.
fn certified(name: &str, cluster: &mut Cluster, g: &Graph, mode: ExecMode) -> AlgoOutput {
    let spec = JobSpec::new(name, g.clone());
    let out = registry::run_job(&spec, cluster, mode).unwrap();
    assert_eq!(registry::certify(&spec, &out), Ok(()), "{name}");
    out
}

fn connectivity(cluster: &mut Cluster, g: &Graph, mode: ExecMode) -> Components {
    let out = certified("connectivity", cluster, g, mode);
    out.into_components().unwrap()
}

fn boruvka_msf(cluster: &mut Cluster, g: &Graph, mode: ExecMode) -> Forest {
    certified("boruvka-msf", cluster, g, mode)
        .into_forest()
        .unwrap()
}

#[test]
fn connectivity_program_equals_legacy_exactly() {
    for seed in [1u64, 5, 11] {
        let g = generators::gnm(96, 240, seed);
        let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
        // Exact: sketch decoding is fingerprint-verified, and these seeds
        // decode every component — the certificate compares with a
        // traversal's.
        connectivity(&mut cluster, &g, ExecMode::Parallel);
    }
}

#[test]
fn boruvka_program_matches_legacy_mst() {
    for seed in [2u64, 7, 13] {
        // Unique weights => the MSF is unique => a spanning forest whose
        // edges, at their weights in g, sum to Kruskal's weight — what the
        // certificate checks — is Kruskal's edge set.
        let base = generators::gnm(100, 420, seed);
        let edges: Vec<Edge> = base
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, 1_000 + i as u64))
            .collect();
        let g = Graph::new(100, edges);

        let mut engine_cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed));
        boruvka_msf(&mut engine_cluster, &g, ExecMode::Parallel);
    }
}

#[test]
fn boruvka_handles_disconnected_and_tiny_inputs() {
    // Disconnected forest input.
    let g = generators::random_forest(80, 5, 3).with_random_weights(500, 3);
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(9));
    boruvka_msf(&mut cluster, &g, ExecMode::Parallel);

    // Empty graph: engine must terminate with an empty forest.
    let empty = Graph::empty(10);
    let mut cluster = Cluster::new(ClusterConfig::new(10, 1).seed(1));
    let forest = boruvka_msf(&mut cluster, &empty, ExecMode::Serial);
    assert!(forest.is_empty());
}

/// A machine with nothing to sketch — an empty shard, or a threshold that
/// filters every edge — sends no batch, its owners get no mail and halt
/// at the merge round, and the large machine still counts the singletons.
#[test]
fn machines_with_nothing_to_sketch_send_nothing() {
    let n = 64;
    let g = generators::gnm(n, 160, 3).with_random_weights(50, 3);
    let words_and_messages = |cluster: &Cluster| -> Vec<(usize, usize)> {
        (cluster.round_log().iter())
            .map(|r| (r.total_words, r.messages))
            .collect()
    };

    // No edges anywhere: only the seed broadcast moves.
    let mut cluster = Cluster::new(sketch_friendly_config(n, g.m(), 3));
    let smalls = cluster.small_ids().len();
    let got = connectivity(&mut cluster, &Graph::empty(n), ExecMode::Serial);
    assert_eq!(got.count, n);
    assert_eq!(
        words_and_messages(&cluster),
        [(smalls, smalls), (0, 0), (0, 0)]
    );

    // A few edges, all on one machine: one sender, at most one batch per
    // owner, and one batch from each owner that got one. The registry
    // spreads edges round-robin, so this layout runs the program directly.
    let few = Graph::new(n, g.edges()[..20].iter().copied());
    let mut cluster = Cluster::new(sketch_friendly_config(n, g.m(), 3));
    let mut one_shard: ShardedVec<Edge> = ShardedVec::new(&cluster);
    *one_shard.shard_mut(cluster.small_ids()[0]) = few.edges().to_vec();
    let programs = ConnectivityProgram::for_cluster(&cluster, n, &one_shard);
    let exec = Executor::new("conn", ExecMode::Serial);
    let mut outcome = exec.run(&mut cluster, programs).unwrap();
    let large = cluster.large().unwrap();
    let got = outcome.programs.swap_remove(large).result.unwrap();
    let spec = JobSpec::new("connectivity", few);
    let out = AlgoOutput::Components(got);
    assert_eq!(registry::certify(&spec, &out), Ok(()));
    let log = words_and_messages(&cluster);
    assert!((1..=smalls).contains(&log[1].1), "sender round: {log:?}");
    assert_eq!(log[2].1, log[1].1, "owner round: {log:?}");

    // Weights ≥ 2: the first threshold (τ = 1) filters every edge on every
    // machine, so that wave sends nothing and counts n singletons.
    let heavier = g.edges().iter().map(|e| Edge::new(e.u, e.v, e.w + 1));
    let heavy = Graph::new(n, heavier);
    let mut cluster = Cluster::new(sketch_friendly_config(n, g.m(), 3));
    let spec = JobSpec::new("mst-approx", heavy).epsilon(0.5);
    let got = registry::run_job(&spec, &mut cluster, ExecMode::Serial)
        .unwrap()
        .into_mst_approx()
        .unwrap();
    assert_eq!((got.thresholds[0], got.component_counts[0]), (1, n));
}
