//! Property-based end-to-end tests: random graphs, every invariant.

use het_mpc::prelude::*;
use mpc_graph::matching::is_maximal_matching;
use mpc_graph::mst::kruskal;
use mpc_graph::verify_spanner;
use proptest::prelude::*;

fn arbitrary_graph() -> impl Strategy<Value = (Graph, u64)> {
    (20usize..150, 1usize..12, any::<u64>()).prop_map(|(n, density, seed)| {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = generators::gnm(n, m, seed).with_random_weights(1 << 16, seed);
        (g, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn het_mst_weight_always_matches_kruskal((g, seed) in arbitrary_graph()) {
        let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed));
        let spec = JobSpec::new("mst", g.clone());
        let r = registry::run_job(&spec, &mut cluster, ExecMode::Serial).unwrap().into_mst().unwrap();
        prop_assert!(mpc_graph::is_spanning_forest(&g, &r.forest.edges));
        prop_assert_eq!(r.forest.total_weight, kruskal(&g).total_weight);
    }

    #[test]
    fn het_matching_is_always_maximal((g, seed) in arbitrary_graph()) {
        let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed));
        let spec = JobSpec::new("matching", g.clone());
        let r = registry::run_job(&spec, &mut cluster, ExecMode::Serial).unwrap();
        let r = r.into_matching().unwrap();
        prop_assert!(is_maximal_matching(&g, &r.matching));
    }

    #[test]
    fn het_spanner_respects_stretch_bound((g, seed) in arbitrary_graph()) {
        // Spanners are for unweighted inputs here; reuse the topology.
        let unweighted = g.filter_edges(|_| true);
        let unweighted = Graph::new(
            unweighted.n(),
            unweighted.edges().iter().map(|e| Edge::unweighted(e.u, e.v)),
        );
        let k = 2 + (seed % 3) as usize;
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m().max(1)).seed(seed).polylog_exponent(1.7),
        );
        let spec = JobSpec::new("spanner", unweighted.clone()).spanner_k(k);
        let r = registry::run_job(&spec, &mut cluster, ExecMode::Serial).unwrap();
        let r = r.into_spanner().unwrap();
        let rep = verify_spanner(&unweighted, &r.spanner, Some(12), seed);
        prop_assert!(
            rep.within((6 * k - 1) as f64),
            "stretch {} exceeds {}", rep.max_stretch, 6 * k - 1
        );
    }
}
