//! Cross-crate integration: every algorithm of the paper on shared
//! workload families, validated by the sequential oracles. All runs go
//! through the Algorithm registry on the parallel engine — the sole
//! consumer-facing entry point.

use het_mpc::prelude::*;
use mpc_graph::coloring::is_proper_coloring;
use mpc_graph::matching::is_maximal_matching;
use mpc_graph::mis::is_maximal_independent_set;
use mpc_graph::mst::kruskal;
use mpc_graph::verify_spanner;

fn workload(seed: u64) -> Graph {
    generators::gnm(200, 2400, seed).with_random_weights(1 << 18, seed)
}

#[test]
fn mst_spanner_matching_on_the_same_graph() {
    let g = workload(1);

    // MST.
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(1));
    let mst_result = registry::run_job(
        &JobSpec::new("mst", g.clone()),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_mst()
    .unwrap();
    assert_eq!(mst_result.forest.total_weight, kruskal(&g).total_weight);
    let mst_rounds = cluster.rounds();

    // Spanner (unweighted view of the same topology).
    let unweighted = generators::gnm(200, 2400, 1);
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(1)
            .polylog_exponent(1.6),
    );
    let sp = registry::run_job(
        &JobSpec::new("spanner", unweighted.clone()).spanner_k(3),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_spanner()
    .unwrap();
    assert!(verify_spanner(&unweighted, &sp.spanner, Some(24), 0).within(17.0));

    // Matching.
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(1));
    let m = registry::run_job(
        &JobSpec::new("matching", g.clone()),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_matching()
    .unwrap();
    assert!(is_maximal_matching(&g, &m.matching));

    assert!(
        mst_rounds < 60,
        "MST rounds unexpectedly high: {mst_rounds}"
    );
}

#[test]
fn ported_algorithms_cover_appendix_c() {
    let g = generators::gnm(120, 1000, 2);

    // Connectivity (C.1).
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(2)
            .polylog_exponent(2.6),
    );
    let comps = registry::run_job(
        &JobSpec::new("connectivity", g.clone()),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_components()
    .unwrap();
    assert_eq!(comps, mpc_graph::traversal::connected_components(&g));

    // MIS (C.6).
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(2)
            .polylog_exponent(1.6),
    );
    let mis = registry::run_job(
        &JobSpec::new("mis", g.clone()),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_mis()
    .unwrap();
    assert!(is_maximal_independent_set(&g, &mis.mis));

    // Coloring (C.7).
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(2)
            .polylog_exponent(2.0),
    );
    let col = registry::run_job(
        &JobSpec::new("coloring", g.clone()),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_coloring()
    .unwrap();
    assert!(is_proper_coloring(&g, &col.colors));

    // Exact min cut (C.3) on a planted instance.
    let pc = generators::planted_cut(30, 0.6, 3, 2);
    let mut cluster = Cluster::new(ClusterConfig::new(pc.n(), pc.m()).seed(2));
    let mc = registry::run_job(
        &JobSpec::new("mincut", pc.clone()).mincut_trials(8),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_mincut()
    .unwrap();
    assert_eq!(mc.value, mpc_graph::mincut::min_cut(&pc).unwrap().weight);
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
        let r = registry::run_job(&spec, &mut cluster, ExecMode::Parallel)
            .unwrap_or_else(|e| panic!("f {f}: {e}"))
            .into_mst()
            .unwrap();
        assert!(mst::is_minimum_spanning_forest(&g, &r.forest));
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
