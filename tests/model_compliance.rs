//! Model-compliance audit: the paper's resource bounds hold on every run.
//!
//! All algorithms execute under `Enforcement::Strict`, so merely finishing
//! proves no machine ever exceeded its send/receive/memory budget. These
//! tests additionally sweep γ and densities, and check the audit trail
//! (round log, peak memory) that the experiments of DESIGN.md §4 report.

use het_mpc::prelude::*;
use mpc_graph::mst::kruskal;

/// A heterogeneous cluster for `g`: small machines of memory `n^gamma`,
/// a large one of memory `n^(1+f)`, memory constant `c`, strict capacity.
fn regime(g: &Graph, gamma: f64, f: f64, c: f64, seed: u64) -> ClusterConfig {
    ClusterConfig::new(g.n(), g.m())
        .topology(Topology::Heterogeneous {
            gamma,
            large_exponent: 1.0 + f,
        })
        .mem_constant(c)
        .enforcement(Enforcement::Strict)
        .seed(seed)
}

/// Runs `mst` on `g` under `config` and checks the model: the output
/// passes its certificate (a minimum spanning forest), no machine ever
/// overflowed (strict mode, so finishing proves it; the peaks are checked
/// on top), and the run took at most the registry's round budget. Returns
/// the cluster afterwards.
fn check_mst(label: &str, g: &Graph, config: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(config);
    let spec = JobSpec::new("mst", g.clone());
    let out = registry::run_job(&spec, &mut cluster, ExecMode::Serial)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(registry::certify(&spec, &out), Ok(()), "{label}");
    assert!(cluster.violations().is_empty(), "{label}");
    for mid in 0..cluster.machines() {
        assert!(
            cluster.peak_resident()[mid] <= cluster.capacity(mid),
            "{label}: machine {mid} peaked at {} of {}",
            cluster.peak_resident()[mid],
            cluster.capacity(mid)
        );
    }
    let budget = (registry::get("mst").unwrap().round_budget)(g.n());
    assert!(
        cluster.rounds() <= budget,
        "{label}: {} rounds, budget {budget}",
        cluster.rounds()
    );
    cluster
}

#[test]
fn mst_respects_capacities_across_gamma() {
    // γ at a near-linear large machine.
    let g = generators::gnm(256, 256 * 16, 9).with_random_weights(1 << 16, 9);
    for &gamma in &[0.4f64, 0.5, 0.66, 0.8] {
        check_mst(
            &format!("gamma {gamma}"),
            &g,
            regime(&g, gamma, 0.0, 6.0, 9),
        );
    }
    // A superlinear large machine (memory n^(1+f)): the regime cells in
    // which the label answer (KKT straight away), the owners' lightest-list
    // intake or the pair combine once overflowed a small machine.
    for (d, gamma, f, c) in [
        (32, 0.5, 0.2, 6.0),
        (32, 0.5, 0.4, 4.0),
        (32, 0.66, 0.2, 6.0),
        (32, 0.66, 0.4, 4.0),
        (64, 0.5, 0.2, 4.0),
        (64, 0.5, 0.4, 4.0),
        (64, 0.5, 0.4, 6.0),
        (64, 0.66, 0.4, 4.0),
        (64, 0.66, 0.4, 6.0),
    ] {
        let g = generators::gnm(512, 512 * d, 5).with_random_weights(1 << 16, 5);
        let label = format!("n 512 d {d} gamma {gamma} f {f} c {c}");
        check_mst(&label, &g, regime(&g, gamma, f, c, 5));
    }
    // The inputs of `experiments -- mst_superlinear` and of
    // `end_to_end.rs`'s superlinear test.
    let e3 = generators::gnm(512, 512 * 64, 5).with_random_weights(1 << 20, 5);
    let e2e = generators::gnm(256, 256 * 40, 4).with_random_weights(1 << 18, 4);
    for f in [0.1, 0.2, 0.4] {
        check_mst(&format!("E3 f {f}"), &e3, regime(&e3, 0.5, f, 4.0, 5));
        check_mst(&format!("e2e f {f}"), &e2e, regime(&e2e, 0.5, f, 3.0, 4));
    }
    // A deeper collector tree (f 0.2) and a label relay (f 0.4) are
    // schedule-independent, and run in a service lane as they run solo.
    let spec = JobSpec::new("mst", e2e.clone());
    for f in [0.2, 0.4] {
        let config = regime(&e2e, 0.5, f, 3.0, 4);
        let run = |mode, threads| {
            let mut cluster = Cluster::new(config.clone());
            let out = registry::run_threads(&spec, &mut cluster, mode, threads).unwrap();
            (out.digest(), cluster.round_log().to_vec())
        };
        let serial = run(ExecMode::Serial, 1);
        for threads in [1, 3] {
            assert!(
                run(ExecMode::Parallel, threads) == serial,
                "f {f}: pool at {threads} threads"
            );
        }
        let mut service = Service::new(config);
        let job = service.submit(spec.clone().seed(4)).unwrap();
        service.run(ExecMode::Serial).unwrap();
        let lane = job.take_result().unwrap().unwrap().digest();
        assert_eq!(lane, serial.0, "f {f}: service lane");
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
