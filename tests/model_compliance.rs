//! Model-compliance audit: the paper's resource bounds hold on every run.
//!
//! All algorithms execute under `Enforcement::Strict`, so merely finishing
//! proves no machine ever exceeded its send/receive/memory budget. These
//! tests additionally sweep γ and densities, and check the audit trail
//! (round log, peak memory) that the experiments of DESIGN.md §4 report.

use het_mpc::prelude::*;
use mpc_graph::mst::kruskal;

#[test]
fn mst_respects_capacities_across_gamma() {
    for &gamma in &[0.4f64, 0.5, 0.66, 0.8] {
        let g = generators::gnm(256, 256 * 16, 9).with_random_weights(1 << 16, 9);
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .topology(Topology::Heterogeneous {
                    gamma,
                    large_exponent: 1.0,
                })
                .enforcement(Enforcement::Strict)
                .seed(9),
        );
        let spec = JobSpec::new("mst", g.clone());
        let r = registry::run_job(&spec, &mut cluster, ExecMode::Serial)
            .unwrap_or_else(|e| panic!("gamma {gamma}: {e}"))
            .into_mst()
            .unwrap();
        assert_eq!(r.forest.total_weight, kruskal(&g).total_weight);
        assert!(cluster.violations().is_empty());
        // Peak resident memory stayed within every machine's capacity.
        for mid in 0..cluster.machines() {
            assert!(
                cluster.peak_resident()[mid] <= cluster.capacity(mid),
                "gamma {gamma}: machine {mid} peaked at {} of {}",
                cluster.peak_resident()[mid],
                cluster.capacity(mid)
            );
        }
    }
}

#[test]
fn round_log_labels_every_exchange() {
    let g = generators::gnm(128, 1024, 3).with_random_weights(100, 3);
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(3));
    registry::run_job(
        &JobSpec::new("mst", g.clone()),
        &mut cluster,
        ExecMode::Serial,
    )
    .unwrap();
    assert_eq!(cluster.round_log().len() as u64, cluster.rounds());
    for rec in cluster.round_log() {
        assert!(!rec.label.is_empty());
        assert!(rec.max_sent <= cluster.capacity(cluster.large().unwrap()));
    }
}

#[test]
fn per_round_traffic_never_exceeds_the_largest_capacity() {
    let g = generators::gnm(200, 3000, 5);
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(5)
            .polylog_exponent(1.6),
    );
    let spec = JobSpec::new("spanner", g.clone()).spanner_k(3);
    registry::run_job(&spec, &mut cluster, ExecMode::Serial).unwrap();
    let large_cap = cluster.capacity(cluster.large().unwrap());
    assert!(cluster.max_round_traffic() <= large_cap);
}

#[test]
fn record_mode_agrees_with_strict_mode_results() {
    let g = generators::gnm(150, 1500, 7).with_random_weights(500, 7);
    let run = |enforcement| {
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .enforcement(enforcement)
                .seed(7),
        );
        let r = registry::run_job(
            &JobSpec::new("mst", g.clone()),
            &mut cluster,
            ExecMode::Serial,
        )
        .unwrap()
        .into_mst()
        .unwrap();
        (r.forest.total_weight, cluster.rounds())
    };
    assert_eq!(run(Enforcement::Strict), run(Enforcement::Record));
}

#[test]
fn sublinear_baseline_is_capacity_clean_too() {
    use mpc_baselines::sublinear::{distribute_all, sublinear_config, sublinear_mst};
    let g = generators::gnm(128, 1024, 11).with_random_weights(1 << 12, 11);
    let mut cluster = Cluster::new(sublinear_config(g.n(), g.m(), 11));
    let input = distribute_all(&cluster, &g);
    let r = sublinear_mst(&mut cluster, g.n(), &input).unwrap();
    let edges: Vec<Edge> = r.forest.iter().map(|(_, e)| *e).collect();
    assert_eq!(
        mpc_graph::mst::Forest::from_edges(edges).total_weight,
        kruskal(&g).total_weight
    );
    assert!(cluster.violations().is_empty());
}
