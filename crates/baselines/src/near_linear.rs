//! The near-linear column of Table 1.
//!
//! In the near-linear regime *every* machine has `Õ(n)` words. The paper's
//! observation is that its ported algorithms (Appendix C) and the
//! heterogeneous MST/spanner/matching need only **one** such machine — so
//! running the very same implementations on an all-near-linear cluster
//! reproduces the near-linear column: rounds can only improve because the
//! non-large machines are bigger (e.g. the MST's collection budget makes
//! `k₀` huge, collapsing the Borůvka schedule to one step — the `O(1)` of
//! \[1\]'s column, by the substitution recorded in DESIGN.md §4).

use mpc_runtime::{ClusterConfig, Topology};

/// Cluster configuration for the near-linear regime on an `(n, m)` input:
/// machine 0 remains the coordinator ("large") but every machine gets
/// near-linear capacity, and the machine count is `max(2, m/n)`.
pub fn near_linear_config(n: usize, m: usize, seed: u64) -> ClusterConfig {
    let base = ClusterConfig::new(n, m).seed(seed);
    let cap = base.capacity_for_exponent(1.0);
    let machines = (m / n.max(1)).max(2) + 1;
    base.topology(Topology::Custom {
        capacities: vec![cap; machines],
        large: Some(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_core::mst;
    use mpc_exec::{registry, ExecMode, JobSpec};
    use mpc_graph::generators;
    use mpc_runtime::Cluster;

    #[test]
    fn near_linear_mst_uses_fewer_rounds_than_heterogeneous() {
        let g = generators::gnm(256, 256 * 24, 3).with_random_weights(1 << 20, 3);
        let spec = JobSpec::new("mst", g.clone());

        let mut het = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(3));
        registry::run_job(&spec, &mut het, ExecMode::Serial).unwrap();

        let mut nl = Cluster::new(near_linear_config(g.n(), g.m(), 3));
        let r = registry::run_job(&spec, &mut nl, ExecMode::Serial).unwrap();
        let r = r.into_mst().unwrap();
        assert!(mst::is_minimum_spanning_forest(&g, &r.forest));
        assert!(
            nl.rounds() <= het.rounds(),
            "near-linear ({}) should not exceed heterogeneous ({})",
            nl.rounds(),
            het.rounds()
        );
    }

    #[test]
    fn near_linear_cluster_has_uniform_large_capacities() {
        let cfg = near_linear_config(1000, 16_000, 1);
        let (caps, large) = cfg.resolve();
        assert_eq!(large, Some(0));
        assert!(caps.iter().all(|&c| c == caps[0]));
        assert!(caps[0] >= 1000);
    }
}
