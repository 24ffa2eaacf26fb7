//! The engine's core guarantee: parallel execution is **bit-identical** to
//! serial execution — same results, same round logs (labels, word counts,
//! work charges, makespans), same per-machine RNG streams — for every
//! ported program, across seeds and topologies.

use mpc_core::common;
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_exec::{registry, ExecMode, JobSpec};
use mpc_graph::generators;
use mpc_runtime::{Cluster, ClusterConfig, Enforcement, Topology};
use rand::RngCore;

const SEEDS: [u64; 3] = [3, 17, 9001];

/// The two cluster shapes every determinism test runs on.
fn conn_topologies(n: usize, m: usize, seed: u64) -> Vec<Cluster> {
    vec![
        // Default heterogeneous topology with a sketch-sized polylog budget.
        Cluster::new(sketch_friendly_config(n, m.max(1), seed)),
        // Coarser small machines; record violations instead of failing so
        // the comparison also covers the violation log.
        Cluster::new(
            ClusterConfig::new(n, m.max(1))
                .topology(Topology::Heterogeneous {
                    gamma: 0.5,
                    large_exponent: 1.0,
                })
                .polylog_exponent(2.6)
                .enforcement(Enforcement::Record)
                .seed(seed),
        ),
    ]
}

fn mst_topologies(n: usize, m: usize, seed: u64) -> Vec<Cluster> {
    vec![
        Cluster::new(ClusterConfig::new(n, m.max(1)).seed(seed)),
        Cluster::new(
            ClusterConfig::new(n, m.max(1))
                .topology(Topology::Custom {
                    capacities: [vec![500_000], vec![20_000; 9]].concat(),
                    large: Some(0),
                })
                .seed(seed),
        ),
    ]
}

/// Asserts full observable equality of two clusters after identical runs.
fn assert_clusters_identical(a: &mut Cluster, b: &mut Cluster, what: &str) {
    assert_eq!(a.rounds(), b.rounds(), "{what}: round counts differ");
    assert_eq!(a.round_log(), b.round_log(), "{what}: round logs differ");
    assert_eq!(
        a.violations(),
        b.violations(),
        "{what}: violation logs differ"
    );
    let eps = 1e-12;
    assert!(
        (a.critical_path_seconds() - b.critical_path_seconds()).abs() < eps,
        "{what}: critical paths differ"
    );
    // The RNG streams must be in the same position on every machine: the
    // next draw of each must agree.
    for mid in 0..a.machines() {
        assert_eq!(
            a.rng(mid).next_u64(),
            b.rng(mid).next_u64(),
            "{what}: RNG stream of machine {mid} diverged"
        );
    }
}

#[test]
fn connectivity_parallel_matches_serial() {
    for &seed in &SEEDS {
        let g = generators::gnm(96, 220, seed);
        for (ti, (mut serial, mut parallel)) in conn_topologies(g.n(), g.m(), seed)
            .into_iter()
            .zip(conn_topologies(g.n(), g.m(), seed))
            .enumerate()
        {
            // Default parameters: `ConnectivityConfig::for_n(n)`.
            let spec = JobSpec::new("connectivity", g.clone());
            let r_serial = registry::run_job(&spec, &mut serial, ExecMode::Serial)
                .unwrap()
                .into_components()
                .unwrap();
            let r_parallel = registry::run_job(&spec, &mut parallel, ExecMode::Parallel)
                .unwrap()
                .into_components()
                .unwrap();
            let what = format!("connectivity seed {seed} topology {ti}");
            assert_eq!(r_serial, r_parallel, "{what}: results differ");
            assert_clusters_identical(&mut serial, &mut parallel, &what);
        }
    }
}

#[test]
fn boruvka_parallel_matches_serial() {
    for &seed in &SEEDS {
        let g = generators::gnm(120, 700, seed).with_random_weights(1 << 16, seed);
        for (ti, (mut serial, mut parallel)) in mst_topologies(g.n(), g.m(), seed)
            .into_iter()
            .zip(mst_topologies(g.n(), g.m(), seed))
            .enumerate()
        {
            let spec = JobSpec::new("boruvka-msf", g.clone());
            let f_serial = registry::run_job(&spec, &mut serial, ExecMode::Serial)
                .unwrap()
                .into_forest()
                .unwrap();
            let f_parallel = registry::run_job(&spec, &mut parallel, ExecMode::Parallel)
                .unwrap()
                .into_forest()
                .unwrap();
            let what = format!("boruvka seed {seed} topology {ti}");
            assert_eq!(f_serial.keys(), f_parallel.keys(), "{what}: forests differ");
            assert_eq!(
                f_serial.total_weight, f_parallel.total_weight,
                "{what}: weights differ"
            );
            assert_clusters_identical(&mut serial, &mut parallel, &what);
        }
    }
}

#[test]
fn parallel_thread_count_does_not_change_results() {
    // 1, 2, and many worker threads must all match the serial schedule.
    use mpc_exec::{ConnectivityProgram, Executor};
    let seed = 42;
    let g = generators::gnm(80, 200, seed);
    let mut reference: Option<(Vec<mpc_runtime::RoundRecord>, _)> = None;
    for threads in [1usize, 2, 8] {
        let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
        let edges = common::distribute_edges(&cluster, &g);
        let programs = ConnectivityProgram::for_cluster(&cluster, g.n(), &edges);
        let outcome = Executor::parallel("conn")
            .threads(threads)
            .run(&mut cluster, programs)
            .unwrap();
        let large = cluster.large().unwrap();
        let result = outcome.programs[large].result.clone().unwrap();
        let log = cluster.round_log().to_vec();
        match &reference {
            None => reference = Some((log, result)),
            Some((ref_log, ref_result)) => {
                assert_eq!(&log, ref_log, "threads={threads}: round log diverged");
                assert_eq!(&result, ref_result, "threads={threads}: result diverged");
            }
        }
    }
}
