//! Property-based end-to-end tests: random graphs, every output checked
//! by its registry certificate.

use het_mpc::prelude::*;
use proptest::prelude::*;

fn arbitrary_graph() -> impl Strategy<Value = (Graph, u64)> {
    (20usize..150, 1usize..12, any::<u64>()).prop_map(|(n, density, seed)| {
        let m = (n * density).min(n * (n - 1) / 2);
        let g = generators::gnm(n, m, seed).with_random_weights(1 << 16, seed);
        (g, seed)
    })
}

fn config(g: &Graph, seed: u64) -> ClusterConfig {
    ClusterConfig::new(g.n(), g.m().max(1)).seed(seed)
}

/// Runs `spec` serially on a fresh cluster and returns its certificate's
/// verdict.
fn certify_run(spec: JobSpec, config: ClusterConfig) -> Result<(), String> {
    let out = registry::run_job(&spec, &mut Cluster::new(config), ExecMode::Serial).unwrap();
    registry::certify(&spec, &out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn het_mst_weight_always_matches_kruskal((g, seed) in arbitrary_graph()) {
        let spec = JobSpec::new("mst", g.clone());
        prop_assert_eq!(certify_run(spec, config(&g, seed)), Ok(()));
    }

    #[test]
    fn het_matching_is_always_maximal((g, seed) in arbitrary_graph()) {
        let spec = JobSpec::new("matching", g.clone());
        prop_assert_eq!(certify_run(spec, config(&g, seed)), Ok(()));
    }

    #[test]
    fn het_spanner_respects_stretch_bound((g, seed) in arbitrary_graph()) {
        // Spanners are for unweighted inputs here; reuse the topology. The
        // certificate checks hop stretch 6k − 1 and the size bound.
        let unweighted = Graph::new(
            g.n(),
            g.edges().iter().map(|e| Edge::unweighted(e.u, e.v)),
        );
        let k = 2 + (seed % 3) as usize;
        let spec = JobSpec::new("spanner", unweighted).spanner_k(k);
        prop_assert_eq!(certify_run(spec, config(&g, seed).polylog_exponent(1.7)), Ok(()));
    }
}
