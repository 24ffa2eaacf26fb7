//! The KKT sampling finish (§3), its local steps: the sampling
//! probability, the sampled MSF with its max-edge labeling and the final
//! MST over sample ∪ F-light, all on the large machine. The engine's `mst`
//! program runs the rounds between them (sample, disseminate labels, keep
//! F-light edges).

use mpc_graph::{Edge, Graph, VertexId};
use mpc_labeling::MaxEdgeLabeling;
use mpc_runtime::payload::TaggedEdge;
use std::collections::HashMap;

/// The KKT sampling probability `p = budget/(4m')`, capped at 1.
pub fn sample_probability(budget_edges: usize, m_cur: usize) -> f64 {
    ((budget_edges as f64) / (4.0 * m_cur.max(1) as f64)).min(1.0)
}

/// Large-local step: MSF `F` of the sampled subgraph (current ids) plus its
/// max-edge labeling.
pub fn span_sample(n: usize, sampled: &[TaggedEdge]) -> (mpc_graph::mst::Forest, MaxEdgeLabeling) {
    let sample_graph = Graph::new(n, sampled.iter().map(|te| te.cur));
    let msf = mpc_graph::mst::kruskal(&sample_graph);
    let forest_graph = Graph::new(n, msf.edges.iter().copied());
    let labeling = MaxEdgeLabeling::build(&forest_graph).expect("MSF is a forest");
    (msf, labeling)
}

/// Large-local finish: MST over the pooled `sampled ∪ F-light` edges in
/// current ids, mapped back to the original edges they tag.
pub fn finish_pool(n: usize, pool: &[TaggedEdge]) -> Vec<Edge> {
    let mut orig_of: HashMap<(VertexId, VertexId), Edge> = HashMap::new();
    for te in pool {
        let k = (te.cur.u.min(te.cur.v), te.cur.u.max(te.cur.v));
        orig_of.entry(k).or_insert(te.orig);
    }
    let final_graph = Graph::new(n, pool.iter().map(|te| te.cur));
    let msf_final = mpc_graph::mst::kruskal(&final_graph);
    msf_final
        .edges
        .iter()
        .map(|e| orig_of[&(e.u.min(e.v), e.u.max(e.v))])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::generators;
    use mpc_runtime::{ClusterConfig, Enforcement, Topology};

    /// A cluster whose large machine has memory `n^exponent`: superlinear
    /// enough that the coordinator skips Borůvka and goes straight to KKT.
    fn straight_to_kkt(g: &Graph, seed: u64, exponent: f64) -> ClusterConfig {
        ClusterConfig::new(g.n(), g.m())
            .topology(Topology::Heterogeneous {
                gamma: 0.66,
                large_exponent: exponent,
            })
            .seed(seed)
            .enforcement(Enforcement::Strict)
    }

    #[test]
    fn kkt_alone_computes_msf_of_moderate_graphs() {
        for seed in 0..3 {
            let g = generators::gnm(200, 2000, seed).with_random_weights(1 << 20, seed);
            let config = straight_to_kkt(&g, seed, 1.2);
            let (out, _) = crate::run_program("mst", &g, config, Default::default());
            let r = out.into_mst().expect("an MST output");
            assert_eq!(r.stats.boruvka_steps, 0, "seed {seed}");
            assert!(r.stats.kkt_rep_used.is_some(), "seed {seed}");
        }
    }

    #[test]
    fn f_light_volume_is_near_theory() {
        let g = generators::gnm(150, 3000, 9).with_random_weights(1 << 20, 9);
        let config = straight_to_kkt(&g, 9, 1.3);
        let budget = super::super::collection_budget(config.capacity_for_exponent(1.3));
        let p = sample_probability(budget, g.m());
        let (out, _) = crate::run_program("mst", &g, config, Default::default());
        let r = out.into_mst().expect("an MST output");
        assert!(r.stats.kkt_rep_used.is_some());
        // E[light] ≤ n/p (Lemma 3.2); Markov-style sanity margin of 4×.
        let bound = 4.0 * g.n() as f64 / p;
        assert!(
            (r.stats.f_light_edges as f64) <= bound,
            "light = {}, bound {bound}",
            r.stats.f_light_edges
        );
    }
}
