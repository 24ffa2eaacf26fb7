//! Exact minimum spanning tree / forest in `O(log log(m/n))` rounds (§3).
//!
//! The algorithm has two parts:
//!
//! 1. **Doubly-exponential Borůvka** (Lotker et al. \[45\], adapted): in
//!    each step the large machine collects, per current vertex `v`, its
//!    `min(kᵢ, deg(v))` lightest outgoing edges and contracts locally along
//!    provably-minimum outgoing edges (see [`contract_lightest_lists`] for
//!    the saturation-safe variant), then disseminates the rename map so the
//!    small machines relabel and deduplicate their edges. With a collection
//!    budget of `Θ(n)` edges, `kᵢ` squares every step — the
//!    doubly-exponential schedule of the paper — so `O(log log(m/n))` steps
//!    contract the graph to `≈ n²/m` vertices. A large machine with
//!    `n^(1+f)` memory gets a proportionally larger budget, yielding the
//!    generalized Theorem 3.1 schedule.
//! 2. **KKT sampling**: sample each remaining edge with
//!    probability `p`, compute the sampled MSF `F` on the large machine,
//!    disseminate max-edge labels (`mpc-labeling`), keep only F-light edges
//!    (expected `n'/p`, Lemma 3.2), and finish the MST locally.
//!
//! The output forest is reported in terms of *original* input edges, which
//! every contracted edge carries along (the paper's "original graph edge
//! attached to it").

mod contract;
pub mod kkt;

pub use contract::{contract_lightest_lists, ContractionOutcome};

use mpc_graph::{mst::Forest, Edge, VertexId};
use mpc_runtime::payload::TaggedEdge;
use std::error::Error;
use std::fmt;

/// Words of a [`TaggedEdge`] (for budget arithmetic).
pub const TAGGED_WORDS: usize = 4;

/// Errors of the MST algorithm.
#[derive(Clone, Debug)]
pub enum MstError {
    /// All KKT sampling repetitions exceeded their volume bounds
    /// (probability `2^{-reps}`; rerun with a different seed).
    SamplingFailed,
}

impl fmt::Display for MstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MstError::SamplingFailed => {
                write!(
                    f,
                    "all KKT sampling repetitions exceeded their volume bounds"
                )
            }
        }
    }
}

impl Error for MstError {}

/// Parallel repetitions of the KKT sampling step (the paper uses
/// `O(log n)` for high probability; they share rounds).
pub const KKT_REPETITIONS: usize = 5;

/// Cap on Borůvka steps (safety net; the adaptive schedule terminates in
/// `O(log log(m/n))` steps by itself).
const MAX_BORUVKA_STEPS: usize = 12;

/// Statistics reported alongside the MST.
#[derive(Clone, Debug, Default)]
pub struct MstStats {
    /// Borůvka steps executed.
    pub boruvka_steps: usize,
    /// `(vertices, edges)` of the contracted graph after each step.
    pub contraction_trace: Vec<(usize, usize)>,
    /// Whether the final gather path (tiny remainder) was taken instead of
    /// KKT sampling.
    pub finished_by_direct_gather: bool,
    /// KKT repetition index that succeeded (if sampling ran).
    pub kkt_rep_used: Option<usize>,
    /// Number of F-light edges shipped to the large machine.
    pub f_light_edges: usize,
}

/// Output of the MST algorithm.
#[derive(Clone, Debug)]
pub struct MstResult {
    /// The minimum spanning forest, in original-graph edges.
    pub forest: Forest,
    /// Execution statistics.
    pub stats: MstStats,
}

/// The large machine's collection budget: a quarter of its memory, in
/// edges ([`TAGGED_WORDS`] words each).
pub fn collection_budget(large_capacity: usize) -> usize {
    (large_capacity / (4 * TAGGED_WORDS)).max(8)
}

/// One decision of the MST coordinator (the engine's `MstProgram` large
/// machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MstMove {
    /// Remainder fits the large machine: gather everything, finish locally.
    FinishGather,
    /// KKT sampling applies: sample, label, keep F-light, finish locally.
    Kkt,
    /// Run one doubly-exponential Borůvka step with list length `k`.
    Wave {
        /// Lightest-list length for this contraction step.
        k: usize,
    },
}

/// The next move of the MST coordinator given the current contracted
/// size, the steps taken so far, and the collection budget: gather a
/// remainder that fits, run KKT once `E[F-light] = n'/p` with
/// `p = budget/(4m')` fits (or the step cap tripped), else one Borůvka step
/// with `k = budget/n'` (which squares step over step).
pub fn next_move(m_cur: usize, n_cur: usize, steps: usize, budget_edges: usize) -> MstMove {
    if m_cur * TAGGED_WORDS <= 2 * budget_edges {
        return MstMove::FinishGather;
    }
    if n_cur.saturating_mul(m_cur) <= (budget_edges * budget_edges) / 16 {
        return MstMove::Kkt;
    }
    if steps >= MAX_BORUVKA_STEPS {
        return MstMove::Kkt;
    }
    MstMove::Wave {
        k: (budget_edges / n_cur.max(1)).max(2),
    }
}

/// Applies a rename (`rename(v)` is `v` itself where nothing was delivered)
/// to one machine's tagged edges, dropping edges that became internal: the
/// per-machine half of the relabel round (Claim 2). Returns `(normalized
/// current pair, original edge)` partials, which the pair's hash-owner
/// deduplicates keeping the lightest.
pub fn relabel_pairs(
    shard: &[TaggedEdge],
    rename: impl Fn(VertexId) -> VertexId,
) -> Vec<((u32, u32), Edge)> {
    let mut out = Vec::with_capacity(shard.len());
    for te in shard {
        let u = rename(te.cur.u);
        let v = rename(te.cur.v);
        if u == v {
            continue; // became internal
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        out.push(((a, b), te.orig));
    }
    out
}

/// Rebuilds a [`TaggedEdge`] from a deduplicated `(pair, original)` partial.
pub fn pair_to_tagged(pair: (u32, u32), orig: Edge) -> TaggedEdge {
    TaggedEdge {
        cur: Edge::new(pair.0, pair.1, orig.w),
        orig,
    }
}

/// The large machine's local finish for a tiny remainder: exact MSF over
/// the current edges, mapped back to the original edges they tag.
pub fn local_msf_finish(n: usize, rest: &[TaggedEdge]) -> Vec<Edge> {
    let local = mpc_graph::Graph::new(n, rest.iter().map(|te| te.cur));
    let msf = mpc_graph::mst::kruskal(&local);
    let orig_of = orig_lookup(rest);
    msf.edges.iter().map(orig_of).collect()
}

/// A closure mapping a *current* edge back to the original edge it tags.
fn orig_lookup(tagged: &[TaggedEdge]) -> impl Fn(&Edge) -> Edge + '_ {
    let map: std::collections::HashMap<(VertexId, VertexId), Edge> = tagged
        .iter()
        .map(|te| ((te.cur.u.min(te.cur.v), te.cur.u.max(te.cur.v)), te.orig))
        .collect();
    move |e: &Edge| map[&(e.u.min(e.v), e.u.max(e.v))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::generators;
    use mpc_runtime::{ClusterConfig, Enforcement, Topology};

    /// The engine `mst` on `g` under `config`, certified a minimum
    /// spanning forest: forest, Borůvka steps, rounds.
    fn run(g: &mpc_graph::Graph, config: ClusterConfig) -> (Forest, usize, u64) {
        let (out, rounds) = crate::run_program("mst", g, config, Default::default());
        let r = out.into_mst().expect("an MST output");
        (r.forest, r.stats.boruvka_steps, rounds)
    }

    fn run_mst(g: &mpc_graph::Graph, seed: u64) -> Forest {
        let config = ClusterConfig::new(g.n(), g.m().max(1))
            .seed(seed)
            .enforcement(Enforcement::Strict);
        run(g, config).0
    }

    #[test]
    fn mst_matches_kruskal_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm(120, 900, seed).with_random_weights(100_000, seed);
            run_mst(&g, seed);
        }
    }

    #[test]
    fn mst_on_disconnected_graphs_is_msf() {
        let g = generators::random_forest(100, 4, 3).with_random_weights(50, 3);
        assert_eq!(run_mst(&g, 1).len(), 96);
    }

    #[test]
    fn dense_inputs_trigger_boruvka_steps() {
        // Density high enough that the contraction phase must run.
        let g = generators::gnm(256, 8000, 2).with_random_weights(1 << 20, 2);
        let config = ClusterConfig::new(g.n(), g.m())
            .topology(Topology::Heterogeneous {
                gamma: 0.5,
                large_exponent: 1.0,
            })
            .seed(4);
        let (_, steps, _) = run(&g, config);
        assert!(steps >= 1, "expected contraction steps");
    }

    #[test]
    fn unique_weights_reproduce_kruskal_edge_set_exactly() {
        // With unique weights the MSF is unique, so the certified forest
        // (spanning, its edges at their weights in g summing to Kruskal's
        // weight) is Kruskal's edge set.
        let mut g = generators::gnm(80, 400, 7);
        let edges: Vec<Edge> = g
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, 1000 + i as u64))
            .collect();
        g = mpc_graph::Graph::new(80, edges);
        run_mst(&g, 5);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = mpc_graph::Graph::empty(10);
        let (forest, _, _) = run(&g, ClusterConfig::new(10, 1));
        assert!(forest.is_empty());

        let g = generators::path(2).with_random_weights(5, 1);
        assert_eq!(run_mst(&g, 2).len(), 1);
    }
}
