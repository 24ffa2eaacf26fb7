//! Cross-crate integration: every algorithm of the paper on shared
//! workload families, each output checked by its registry certificate.
//! All runs go through the Algorithm registry on the parallel engine — the
//! sole consumer-facing entry point.

use het_mpc::prelude::*;
use mpc_graph::matching::is_maximal_matching;

fn workload(seed: u64) -> Graph {
    generators::gnm(200, 2400, seed).with_random_weights(1 << 18, seed)
}

/// Runs `spec` through the registry on a cluster from `config`, asserts
/// the output passes its certificate, and returns the round count.
fn certified(spec: JobSpec, config: ClusterConfig) -> u64 {
    let mut cluster = Cluster::new(config);
    let out = registry::run_job(&spec, &mut cluster, ExecMode::Parallel)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    assert_eq!(registry::certify(&spec, &out), Ok(()), "{}", spec.name);
    cluster.rounds()
}

#[test]
fn mst_spanner_matching_on_the_same_graph() {
    let g = workload(1);
    let config = ClusterConfig::new(g.n(), g.m()).seed(1);

    let mst_rounds = certified(JobSpec::new("mst", g.clone()), config.clone());
    // Spanner (unweighted view of the same topology).
    let unweighted = generators::gnm(200, 2400, 1);
    let spanner = JobSpec::new("spanner", unweighted).spanner_k(3);
    certified(spanner, config.clone().polylog_exponent(1.6));
    certified(JobSpec::new("matching", g.clone()), config);

    assert!(
        mst_rounds < 60,
        "MST rounds unexpectedly high: {mst_rounds}"
    );
}

#[test]
fn ported_algorithms_cover_appendix_c() {
    let g = generators::gnm(120, 1000, 2);
    let config = |exponent| {
        ClusterConfig::new(g.n(), g.m())
            .seed(2)
            .polylog_exponent(exponent)
    };

    // Connectivity (C.1), MIS (C.6), coloring (C.7).
    certified(JobSpec::new("connectivity", g.clone()), config(2.6));
    certified(JobSpec::new("mis", g.clone()), config(1.6));
    certified(JobSpec::new("coloring", g.clone()), config(2.0));

    // Exact min cut (C.3) on a planted instance.
    let pc = generators::planted_cut(30, 0.6, 3, 2);
    let config = ClusterConfig::new(pc.n(), pc.m()).seed(2);
    certified(JobSpec::new("mincut", pc).mincut_trials(8), config);
}

#[test]
fn filtering_matching_respects_superlinear_memory() {
    let g = generators::gnm(128, 5000, 3);
    let f = 0.25;
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .topology(Topology::Heterogeneous {
                gamma: 0.66,
                large_exponent: 1.0 + f,
            })
            .seed(3),
    );
    let input = common::distribute_edges(&cluster, &g);
    let (m, stats) =
        matching::filtering::filtering_matching(&mut cluster, g.n(), &input, f).unwrap();
    assert!(is_maximal_matching(&g, &m));
    assert!(stats.levels >= 1);
}

#[test]
fn general_mst_theorem_3_1_with_superlinear_machine() {
    // A bigger large machine must not hurt (usually: fewer Borůvka steps).
    let g = generators::gnm(256, 256 * 40, 4).with_random_weights(1 << 18, 4);
    let budget = (registry::get("mst").unwrap().round_budget)(g.n());
    let run = |f: f64| {
        // Deliberately tight memory (mem_constant 3.0) to expose the
        // Borůvka schedule, under strict capacity.
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .topology(Topology::Heterogeneous {
                    gamma: 0.5,
                    large_exponent: 1.0 + f,
                })
                .mem_constant(3.0)
                .enforcement(Enforcement::Strict)
                .seed(4),
        );
        let spec = JobSpec::new("mst", g.clone());
        let out = registry::run_job(&spec, &mut cluster, ExecMode::Parallel)
            .unwrap_or_else(|e| panic!("f {f}: {e}"));
        assert_eq!(registry::certify(&spec, &out), Ok(()), "f {f}");
        let r = out.into_mst().unwrap();
        assert!(
            cluster.rounds() <= budget,
            "f {f}: {} rounds",
            cluster.rounds()
        );
        r.stats.boruvka_steps
    };
    let steps_near = run(0.0);
    let steps_super = run(0.4);
    assert!(
        steps_super <= steps_near,
        "superlinear memory should not need more steps ({steps_super} vs {steps_near})"
    );
}
