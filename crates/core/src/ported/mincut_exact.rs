//! Exact unweighted minimum cut in `O(1)` rounds (Theorem C.3, after
//! Ghaffari–Nowicki–Thorup \[32\]).
//!
//! One trial:
//! 1. **2-out contraction** — every vertex samples 2 incident edges
//!    (random-rank top-2 selection, Claim-4 style); the large machine
//!    contracts the sampled graph's components;
//! 2. **random-sampling contraction** — each surviving inter-component edge
//!    is sampled with probability `1/(2δ)` (`δ` = min degree) and contracted
//!    too, leaving `O(n/δ)` vertices and `O(n)` edges w.h.p.;
//! 3. the contracted **multigraph** (parallel edges = summed multiplicity)
//!    is shipped to the large machine, which computes its minimum cut value
//!    (`mpc_graph::mincut::min_cut_weight`) and compares against the best
//!    singleton cut (min degree).
//!
//! A non-singleton minimum cut survives a trial with constant probability;
//! trials amplify. Every trial's answer is a real cut, so the minimum over
//! trials is an upper bound that equals the true min cut w.h.p.

use mpc_graph::VertexId;

/// Result of the exact min-cut port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCutResult {
    /// The minimum cut value found.
    pub value: u128,
    /// Whether the winner was a singleton cut (min degree).
    pub singleton: bool,
    /// Per-trial contracted sizes `(vertices, distinct edge pairs)`.
    pub trial_sizes: Vec<(usize, usize)>,
}

/// The random-sampling contraction probability of step 2: `1/(2δ)`.
pub fn step2_probability(delta: u32) -> f64 {
    1.0 / (2.0 * f64::from(delta))
}

/// What one trial's contracted multigraph implies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrialOutcome {
    /// Fewer than 2 contracted vertices: nothing left to cut.
    TooSmall,
    /// The contracted multigraph's minimum cut value.
    Cut(u128),
    /// The contracted graph is disconnected ⇒ the input is disconnected.
    Disconnected,
}

/// Step 3's local computation on the large machine: index the contracted multigraph `(pair → multiplicity)`
/// and take its minimum cut value. `components` is the contracted vertex
/// count (the component count after both contraction steps) — a contracted
/// vertex with no incident crossing edge is an isolated component, so
/// `ids < components` certifies the *input* graph disconnected (cut 0),
/// which the pair list alone cannot see. Returns the
/// `(vertices, distinct pairs)` size statistic and the trial's outcome.
pub fn evaluate_contraction(
    components: usize,
    pairs: &[((VertexId, VertexId), u64)],
) -> ((usize, usize), TrialOutcome) {
    let sizes = (components, pairs.len());
    if components < 2 {
        return (sizes, TrialOutcome::TooSmall);
    }
    let mut ids: Vec<VertexId> = pairs.iter().flat_map(|((a, b), _)| [*a, *b]).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() < components {
        return (sizes, TrialOutcome::Disconnected);
    }
    let slot = |v: &VertexId| ids.binary_search(v).expect("every endpoint is in ids") as u32;
    let cut_edges: Vec<(u32, u32, u64)> = pairs
        .iter()
        .map(|((a, b), c)| (slot(a), slot(b), *c))
        .collect();
    match mpc_graph::mincut::min_cut_weight(ids.len(), &cut_edges) {
        Some(weight) => (sizes, TrialOutcome::Cut(weight)),
        None => (sizes, TrialOutcome::Disconnected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::{generators, DisjointSets, Edge, Graph};

    /// Step 3 on `g` with the edges `merged` contracted: the contracted
    /// multigraph over component labels, as the owners aggregate it.
    fn contracted(g: &Graph, merged: &[Edge]) -> TrialOutcome {
        let mut dsu = DisjointSets::new(g.n());
        for e in merged {
            dsu.union(e.u, e.v);
        }
        let labels = mpc_graph::traversal::components_from_dsu(&mut dsu);
        let label = |v: VertexId| labels.label[v as usize];
        let mut pairs: Vec<((VertexId, VertexId), u64)> = Vec::new();
        for e in g.edges() {
            let (a, b) = (label(e.u), label(e.v));
            if a != b {
                pairs.push(((a.min(b), a.max(b)), 1));
            }
        }
        pairs.sort_unstable();
        pairs.dedup_by(|next, kept| {
            next.0 == kept.0 && {
                kept.1 += next.1;
                true
            }
        });
        evaluate_contraction(labels.count, &pairs).1
    }

    #[test]
    fn finds_planted_cuts() {
        for (bridge, seed) in [(2usize, 1u64), (3, 2), (4, 3)] {
            let g = generators::planted_cut(24, 0.7, bridge, seed);
            let want = mpc_graph::mincut::min_cut(&g).unwrap().weight;
            assert_eq!(
                contracted(&g, &[]),
                TrialOutcome::Cut(want),
                "bridge {bridge}"
            );
        }
    }

    #[test]
    fn singleton_cut_is_immediate() {
        // A pendant vertex: min cut 1.
        let mut edges: Vec<Edge> = generators::complete(8).edges().to_vec();
        edges.push(Edge::unweighted(0, 8));
        assert_eq!(contracted(&Graph::new(9, edges), &[]), TrialOutcome::Cut(1));
    }

    #[test]
    fn never_underestimates() {
        // Contraction only merges sides, so every trial's cut is a real
        // cut of the input: value >= true min cut.
        for seed in 0..4 {
            let g = generators::gnm(40, 160, seed);
            let want = mpc_graph::mincut::min_cut(&g).map_or(0, |m| m.weight);
            let merged: Vec<Edge> = g.edges().iter().step_by(5).copied().collect();
            match contracted(&g, &merged) {
                TrialOutcome::Cut(w) => assert!(w >= want, "seed {seed}: {w} < {want}"),
                TrialOutcome::Disconnected => assert_eq!(want, 0, "seed {seed}"),
                TrialOutcome::TooSmall => {}
            }
        }
    }

    #[test]
    fn contraction_shrinks_the_graph() {
        let g = generators::gnm(120, 2000, 9);
        let config = mpc_runtime::ClusterConfig::new(g.n(), g.m()).seed(9);
        let params = mpc_exec::JobParams::default().mincut_trials(2);
        let (out, _) = crate::run_program("mincut", &g, config, params);
        for &(nv, _ne) in &out.into_mincut().unwrap().trial_sizes {
            assert!(nv < 120 / 4, "contraction left {nv} vertices");
        }
    }
}
