//! Edge-case sweep across the public API: degenerate graphs, extreme
//! topologies, and boundary parameters that unit tests tend to miss. All
//! runs go through the Algorithm registry on the parallel engine — the
//! sole consumer-facing entry point.

use het_mpc::prelude::*;
use mpc_graph::matching::is_maximal_matching;
use mpc_graph::mst::kruskal;

fn registry_on(name: &str, g: &Graph, cluster: &mut Cluster) -> AlgoOutput {
    registry::run_job(&JobSpec::new(name, g.clone()), cluster, ExecMode::Parallel).unwrap()
}

fn run_mst(g: &Graph, seed: u64) -> mpc_core::mst::MstResult {
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed));
    registry_on("mst", g, &mut cluster).into_mst().unwrap()
}

#[test]
fn single_edge_graph() {
    let g = Graph::new(2, [Edge::new(0, 1, 5)]);
    let r = run_mst(&g, 1);
    assert_eq!(r.forest.len(), 1);
    assert_eq!(r.forest.total_weight, 5);
}

#[test]
fn all_equal_weights_still_yield_a_minimum_forest() {
    // Ties everywhere: the WeightKey total order must keep things exact.
    let g = generators::gnm(100, 800, 3); // every weight = 1
    let r = run_mst(&g, 3);
    assert_eq!(r.forest.total_weight, kruskal(&g).total_weight);
    assert!(mpc_graph::is_spanning_forest(&g, &r.forest.edges));
}

#[test]
fn extreme_weights_do_not_overflow() {
    let edges = (0..50u32).map(|i| Edge::new(i, i + 1, u64::MAX / 128));
    let g = Graph::new(51, edges);
    let r = run_mst(&g, 4);
    assert_eq!(r.forest.total_weight, kruskal(&g).total_weight);
}

#[test]
fn star_graph_mst_and_matching() {
    let g = generators::star(300).with_random_weights(1000, 5);
    let r = run_mst(&g, 5);
    assert_eq!(r.forest.len(), 299);
    assert_eq!(r.forest.total_weight, kruskal(&g).total_weight);

    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(5));
    let m = registry_on("matching", &g, &mut cluster)
        .into_matching()
        .unwrap();
    assert!(is_maximal_matching(&g, &m.matching));
}

#[test]
fn grid_graph_spanner() {
    // Grids have girth 4 and no dense clusters — a stress case for the
    // clustering-graph construction (every degree is 2..4 ⇒ few levels).
    let g = generators::grid(16, 16);
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(6)
            .polylog_exponent(1.6),
    );
    let r = registry::run_job(
        &JobSpec::new("spanner", g.clone()).spanner_k(2),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_spanner()
    .unwrap();
    let rep = mpc_graph::verify_spanner(&g, &r.spanner, Some(20), 0);
    assert!(rep.within(11.0), "stretch {} on grid", rep.max_stretch);
}

#[test]
fn two_machine_minimum_cluster() {
    // The smallest legal cluster: one large + two small machines.
    let g = generators::gnm(32, 64, 7).with_random_weights(100, 7);
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(7).topology(
        Topology::Custom {
            capacities: vec![100_000, 2_000, 2_000],
            large: Some(0),
        },
    ));
    let r = registry_on("mst", &g, &mut cluster).into_mst().unwrap();
    assert_eq!(r.forest.total_weight, kruskal(&g).total_weight);
}

#[test]
fn gamma_extremes() {
    let g = generators::gnm(128, 2048, 8).with_random_weights(1 << 12, 8);
    for gamma in [0.3f64, 0.9] {
        // Extra polylog headroom: at γ = 0.3 the small machines are tiny,
        // and the engine's explicit per-phase exchanges peak higher than
        // the legacy primitives' fused collector waves.
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .topology(Topology::Heterogeneous {
                    gamma,
                    large_exponent: 1.0,
                })
                .polylog_exponent(2.6)
                .seed(8),
        );
        let r = registry::run_job(
            &JobSpec::new("mst", g.clone()),
            &mut cluster,
            ExecMode::Parallel,
        )
        .unwrap_or_else(|e| panic!("gamma {gamma}: {e}"))
        .into_mst()
        .unwrap();
        assert_eq!(r.forest.total_weight, kruskal(&g).total_weight);
    }
}

#[test]
fn disconnected_many_components() {
    let g = generators::random_forest(120, 12, 9).with_random_weights(50, 9);
    let r = run_mst(&g, 9);
    assert_eq!(r.forest.len(), 120 - 12);

    // Matching and spanner on disconnected inputs.
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(9));
    let m = registry_on("matching", &g, &mut cluster)
        .into_matching()
        .unwrap();
    assert!(is_maximal_matching(&g, &m.matching));
}

#[test]
fn spanner_on_already_sparse_graph_keeps_connectivity() {
    let g = generators::random_tree(200, 10);
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(10)
            .polylog_exponent(1.6),
    );
    let r = registry::run_job(
        &JobSpec::new("spanner", g.clone()).spanner_k(3),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_spanner()
    .unwrap();
    // A spanner of a tree must be the tree.
    assert_eq!(r.spanner.m(), g.m());
}

#[test]
fn mis_on_complete_graph_is_a_single_vertex() {
    let g = generators::complete(64);
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(11)
            .polylog_exponent(1.6),
    );
    let r = registry_on("mis", &g, &mut cluster).into_mis().unwrap();
    assert_eq!(r.mis.len(), 1);
}

#[test]
fn coloring_on_bipartite_graph_is_proper() {
    let g = generators::grid(12, 12);
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(12)
            .polylog_exponent(2.0),
    );
    let r = registry_on("coloring", &g, &mut cluster)
        .into_coloring()
        .unwrap();
    assert!(mpc_graph::coloring::is_proper_coloring(&g, &r.colors));
    assert!(mpc_graph::coloring::color_count(&r.colors) <= g.max_degree() + 1);
}
