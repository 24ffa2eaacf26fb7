//! Edge-case sweep across the public API: degenerate graphs, extreme
//! topologies, and boundary parameters that unit tests tend to miss. All
//! runs go through the Algorithm registry on the parallel engine — the
//! sole consumer-facing entry point — and every output passes its
//! registry certificate.

use het_mpc::prelude::*;

/// Runs `spec` on `cluster` and asserts the output passes its certificate.
fn certified(spec: &JobSpec, cluster: &mut Cluster) -> AlgoOutput {
    let out = registry::run_job(spec, cluster, ExecMode::Parallel)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    assert_eq!(registry::certify(spec, &out), Ok(()), "{}", spec.name);
    out
}

fn registry_on(name: &str, g: &Graph, cluster: &mut Cluster) -> AlgoOutput {
    certified(&JobSpec::new(name, g.clone()), cluster)
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
    run_mst(&g, 3);
}

#[test]
fn extreme_weights_do_not_overflow() {
    let edges = (0..50u32).map(|i| Edge::new(i, i + 1, u64::MAX / 128));
    let g = Graph::new(51, edges);
    run_mst(&g, 4);
}

#[test]
fn star_graph_mst_and_matching() {
    let g = generators::star(300).with_random_weights(1000, 5);
    let r = run_mst(&g, 5);
    assert_eq!(r.forest.len(), 299);

    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(5));
    registry_on("matching", &g, &mut cluster);
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
    certified(&JobSpec::new("spanner", g).spanner_k(2), &mut cluster);
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
    registry_on("mst", &g, &mut cluster);
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
        registry_on("mst", &g, &mut cluster);
    }
}

#[test]
fn disconnected_many_components() {
    let g = generators::random_forest(120, 12, 9).with_random_weights(50, 9);
    let r = run_mst(&g, 9);
    assert_eq!(r.forest.len(), 120 - 12);

    // Matching and spanner on disconnected inputs.
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(9));
    registry_on("matching", &g, &mut cluster);
}

#[test]
fn spanner_on_already_sparse_graph_keeps_connectivity() {
    let g = generators::random_tree(200, 10);
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(10)
            .polylog_exponent(1.6),
    );
    let spec = JobSpec::new("spanner", g.clone()).spanner_k(3);
    let r = certified(&spec, &mut cluster).into_spanner().unwrap();
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
    registry_on("coloring", &g, &mut cluster);
}
