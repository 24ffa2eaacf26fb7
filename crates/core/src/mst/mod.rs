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

use crate::common;
use mpc_graph::{mst::Forest, Edge, VertexId};
use mpc_runtime::payload::TaggedEdge;
use mpc_runtime::primitives::{aggregate_by_key, gather_to, top_t_per_key};
use mpc_runtime::{Cluster, ModelViolation, Payload, ShardedVec};
use std::error::Error;
use std::fmt;

/// Words of a [`TaggedEdge`] (for budget arithmetic).
pub const TAGGED_WORDS: usize = 4;

/// Errors of the MST algorithm.
#[derive(Clone, Debug)]
pub enum MstError {
    /// A capacity violation under strict enforcement.
    Model(ModelViolation),
    /// All KKT sampling repetitions exceeded their volume bounds
    /// (probability `2^{-reps}`; rerun with a different seed or more
    /// repetitions).
    SamplingFailed,
}

impl fmt::Display for MstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MstError::Model(v) => write!(f, "model violation: {v}"),
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

impl From<ModelViolation> for MstError {
    fn from(v: ModelViolation) -> Self {
        MstError::Model(v)
    }
}

/// Tuning knobs for [`heterogeneous_mst_with`].
#[derive(Clone, Debug)]
pub struct MstConfig {
    /// Parallel repetitions of the KKT sampling step (the paper uses
    /// `O(log n)` for high probability; they share rounds).
    pub kkt_repetitions: usize,
    /// Hard cap on Borůvka steps (safety net; the adaptive schedule
    /// terminates in `O(log log(m/n))` steps by itself).
    pub max_boruvka_steps: usize,
}

impl Default for MstConfig {
    fn default() -> Self {
        MstConfig {
            kkt_repetitions: 5,
            max_boruvka_steps: 12,
        }
    }
}

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

/// One decision of the MST orchestration loop (shared by the legacy
/// call-style loop and the engine's `MstProgram` coordinator, so both take
/// bit-identical trajectories).
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

/// The next move of the MST loop given the current contracted size, the
/// steps taken so far, and the collection budget — exactly the stop rules
/// of [`heterogeneous_mst_with`].
pub fn next_move(
    m_cur: usize,
    n_cur: usize,
    steps: usize,
    budget_edges: usize,
    config: &MstConfig,
) -> MstMove {
    if m_cur * TAGGED_WORDS <= 2 * budget_edges {
        return MstMove::FinishGather;
    }
    if n_cur.saturating_mul(m_cur) <= (budget_edges * budget_edges) / 16 {
        return MstMove::Kkt;
    }
    if steps >= config.max_boruvka_steps {
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

/// Runs the heterogeneous MST algorithm with default configuration.
///
/// `edges` must be the input edge list sharded over the small machines
/// (see [`common::distribute_edges`]).
///
/// # Errors
///
/// Returns [`MstError::Model`] on capacity violations (strict mode) and
/// [`MstError::SamplingFailed`] if every KKT repetition was unlucky.
pub fn heterogeneous_mst(
    cluster: &mut Cluster,
    n: usize,
    edges: ShardedVec<Edge>,
) -> Result<MstResult, MstError> {
    heterogeneous_mst_with(cluster, n, edges, &MstConfig::default())
}

/// [`heterogeneous_mst`] with explicit configuration.
///
/// # Errors
///
/// See [`heterogeneous_mst`].
pub fn heterogeneous_mst_with(
    cluster: &mut Cluster,
    n: usize,
    edges: ShardedVec<Edge>,
    config: &MstConfig,
) -> Result<MstResult, MstError> {
    let large = cluster
        .large()
        .expect("heterogeneous MST requires a large machine");
    let owners = common::owners(cluster);
    // The large machine devotes a quarter of its memory to edge collection.
    let budget_edges = collection_budget(cluster.capacity(large));

    // Lift input edges into tagged form (cur == orig initially).
    let mut cur: ShardedVec<TaggedEdge> = ShardedVec::from_shards(
        (0..edges.machines())
            .map(|mid| {
                edges
                    .shard(mid)
                    .iter()
                    .map(|&e| TaggedEdge::identity(e.normalized()))
                    .collect()
            })
            .collect(),
    );
    cur.account(cluster, "mst.edges")?;

    let mut m_cur = cur.total_len();
    let mut n_cur = n;
    let mut chosen: Vec<Edge> = Vec::new(); // MST edges (original ids), on large
    let mut stats = MstStats::default();

    // Part 1: doubly-exponential Borůvka until the KKT step fits. Every
    // decision goes through the shared [`next_move`] rule so the engine's
    // `MstProgram` coordinator replays the identical trajectory.
    loop {
        match next_move(m_cur, n_cur, stats.boruvka_steps, budget_edges, config) {
            // Tiny remainder: ship everything and finish locally.
            MstMove::FinishGather => {
                let rest = gather_to(cluster, "mst.final-gather", &cur, large)?;
                chosen.extend(local_msf_finish(n, &rest));
                stats.finished_by_direct_gather = true;
                break;
            }
            // KKT applicability: E[F-light] = n'/p with p = budget/(4m')
            // fits — or the step safety net tripped (same fallback).
            MstMove::Kkt => {
                let kkt_out = kkt::kkt_finish(
                    cluster,
                    n,
                    n_cur,
                    &cur,
                    budget_edges,
                    config.kkt_repetitions,
                )?;
                chosen.extend(kkt_out.mst_edges);
                stats.kkt_rep_used = Some(kkt_out.rep_used);
                stats.f_light_edges = kkt_out.f_light_count;
                break;
            }
            // One Borůvka step with k = budget/n' (squares step over step).
            MstMove::Wave { k } => {
                let step = boruvka_step(cluster, &owners, large, &cur, k)?;
                stats.boruvka_steps += 1;
                chosen.extend(step.chosen);

                // Relabel + dedup on the small machines (aggregation, Claim 2).
                cur = relabel_and_dedup(cluster, &owners, cur, &step.rename)?;
                cur.account(cluster, "mst.edges")?;
                m_cur = cur.total_len();
                n_cur = step.new_vertex_count.max(1);
                stats.contraction_trace.push((n_cur, m_cur));
                if m_cur == 0 {
                    stats.finished_by_direct_gather = true;
                    break;
                }
            }
        }
    }

    cluster.release("mst.edges");
    chosen.sort_by_key(Edge::weight_key);
    chosen.dedup();
    Ok(MstResult {
        forest: Forest::from_edges(chosen),
        stats,
    })
}

/// A closure mapping a *current* edge back to the original edge it tags.
fn orig_lookup(tagged: &[TaggedEdge]) -> impl Fn(&Edge) -> Edge + '_ {
    let map: std::collections::HashMap<(VertexId, VertexId), Edge> = tagged
        .iter()
        .map(|te| ((te.cur.u.min(te.cur.v), te.cur.u.max(te.cur.v)), te.orig))
        .collect();
    move |e: &Edge| map[&(e.u.min(e.v), e.u.max(e.v))]
}

struct BoruvkaStepOutcome {
    chosen: Vec<Edge>,
    rename: Vec<(VertexId, VertexId)>,
    new_vertex_count: usize,
}

/// One doubly-exponential Borůvka step: collect per-vertex lightest lists at
/// the large machine, contract locally, disseminate the rename map
/// (Claim 3, ≤4 rounds).
///
/// Two collection paths, chosen by the list length `k`:
/// * small `k` — hash-owner `top_t_per_key` (3 rounds);
/// * large `k` (a list would not fit a small machine) — the paper's actual
///   Claim 1 + Claim 4 mechanism: sort directed copies by (vertex, weight),
///   report per-machine run lengths to the large machine, which computes
///   exactly how many of each vertex's lightest edges sit on each machine
///   and queries them directly. No small machine ever holds more than its
///   sorted shard.
fn boruvka_step(
    cluster: &mut Cluster,
    owners: &[usize],
    large: usize,
    cur: &ShardedVec<TaggedEdge>,
    k: usize,
) -> Result<BoruvkaStepOutcome, ModelViolation> {
    // Directed copies: each edge appears under both endpoints.
    let mut items: ShardedVec<(VertexId, TaggedEdge)> = ShardedVec::new(cluster);
    for mid in 0..cur.machines() {
        let shard = items.shard_mut(mid);
        for te in cur.shard(mid) {
            shard.push((te.cur.u, *te));
            shard.push((te.cur.v, *te));
        }
    }
    items.account(cluster, "mst.directed")?;
    // Hash-owner collection concentrates up to ~√K·k items of one vertex on
    // its owner (collector stage); take the sorted path before that nears
    // the small-machine budget.
    let sqrt_k = (cluster.machines() as f64).sqrt().ceil() as usize;
    let owner_load_words = 5 * k * sqrt_k;
    let lists = if owner_load_words <= cluster.min_small_capacity() / 4 {
        top_t_per_key(
            cluster,
            "mst.collect-lightest",
            &items,
            owners,
            large,
            |_| k,
            |te| te.orig.weight_key(),
        )?
    } else {
        collect_lightest_sorted(cluster, owners, large, items.clone(), k)?
    };
    cluster.release("mst.directed");
    let lists_words: usize = lists.iter().map(|(_, v)| 1 + v.words()).sum();
    cluster.account("mst.large.lists", large, lists_words)?;

    let outcome = contract_lightest_lists(lists, k);
    cluster.release("mst.large.lists");
    cluster.account("mst.large.rename", large, 2 * outcome.rename.len())?;

    // Disseminate the rename map to machines holding affected endpoints.
    let requests = common::endpoint_requests(cluster, cur, |te| (te.cur.u, te.cur.v));
    let delivered = mpc_runtime::primitives::disseminate(
        cluster,
        "mst.rename",
        &outcome.rename,
        large,
        &requests,
        owners,
    )?;
    cluster.release("mst.large.rename");
    // The relabel step rebuilds per-machine maps from one deduplicated list
    // (each machine only ever uses keys it requested).
    let mut rename: Vec<(VertexId, VertexId)> = delivered.iter().map(|(_, kv)| *kv).collect();
    rename.sort_unstable();
    rename.dedup();
    Ok(BoruvkaStepOutcome {
        chosen: outcome.chosen,
        rename,
        new_vertex_count: outcome.new_vertex_count,
    })
}

/// The paper's Claim-1 + Claim-4 collection path for large `k`:
/// sort → run-length report → targeted queries → replies.
fn collect_lightest_sorted(
    cluster: &mut Cluster,
    owners: &[usize],
    large: usize,
    items: ShardedVec<(VertexId, TaggedEdge)>,
    k: usize,
) -> Result<Vec<(VertexId, Vec<TaggedEdge>)>, ModelViolation> {
    use std::collections::BTreeMap;
    // Claim 1: sort directed copies by (vertex, weight key); afterwards each
    // vertex's edges form a run over consecutive machines, lightest first.
    let sorted =
        mpc_runtime::primitives::sample_sort(cluster, "mst.arrange", items, owners, |(v, te)| {
            (*v, te.orig.weight_key())
        })?;
    // Claim 4: per-machine run lengths to the large machine. Sorted runs
    // mean at most (n' + K) pairs in total.
    let mut out = cluster.empty_outboxes::<(VertexId, u64)>();
    for &mid in owners {
        let mut counts: BTreeMap<VertexId, u64> = BTreeMap::new();
        for (v, _) in sorted.shard(mid) {
            *counts.entry(*v).or_default() += 1;
        }
        for (v, c) in counts {
            out[mid].push((large, (v, c)));
        }
    }
    let inboxes = cluster.exchange("mst.arrange.counts", out)?;
    // The large machine walks machines in ascending order (= sorted order)
    // and assigns each vertex's first-k quota across the run.
    let mut remaining: BTreeMap<VertexId, u64> = BTreeMap::new();
    let mut queries: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); cluster.machines()];
    let mut by_machine: BTreeMap<usize, Vec<(VertexId, u64)>> = BTreeMap::new();
    for (src, (v, c)) in &inboxes[large] {
        by_machine.entry(*src).or_default().push((*v, *c));
    }
    for (&mid, counts) in &by_machine {
        for &(v, c) in counts {
            let rem = remaining.entry(v).or_insert(k as u64);
            let take = c.min(*rem);
            if take > 0 {
                queries[mid].push((v, take));
                *rem -= take;
            }
        }
    }
    let mut out = cluster.empty_outboxes::<(VertexId, u64)>();
    for (mid, qs) in queries.iter().enumerate() {
        for &(v, take) in qs {
            out[large].push((mid, (v, take)));
        }
    }
    let inboxes = cluster.exchange("mst.arrange.queries", out)?;
    // Machines answer with the first `take` edges of each queried run.
    let mut out = cluster.empty_outboxes::<(VertexId, TaggedEdge)>();
    for (mid, inbox) in inboxes.into_iter().enumerate() {
        if inbox.is_empty() {
            continue;
        }
        let mut runs: BTreeMap<VertexId, Vec<TaggedEdge>> = BTreeMap::new();
        for (v, te) in sorted.shard(mid) {
            runs.entry(*v).or_default().push(*te); // already sorted
        }
        for (_src, (v, take)) in inbox {
            if let Some(run) = runs.get(&v) {
                for te in run.iter().take(take as usize) {
                    out[mid].push((large, (v, *te)));
                }
            }
        }
    }
    let inboxes = cluster.exchange("mst.arrange.replies", out)?;
    let mut lists: BTreeMap<VertexId, Vec<TaggedEdge>> = BTreeMap::new();
    for (_src, (v, te)) in inboxes[large].iter() {
        lists.entry(*v).or_default().push(*te);
    }
    Ok(lists
        .into_iter()
        .map(|(v, mut tes)| {
            tes.sort_by_key(|te| te.orig.weight_key());
            tes.truncate(k);
            (v, tes)
        })
        .collect())
}

/// Applies the rename map on the small machines, drops internal edges, and
/// deduplicates parallel edges keeping the lightest (aggregation round).
fn relabel_and_dedup(
    cluster: &mut Cluster,
    owners: &[usize],
    cur: ShardedVec<TaggedEdge>,
    rename: &[(VertexId, VertexId)],
) -> Result<ShardedVec<TaggedEdge>, ModelViolation> {
    let map: std::collections::HashMap<VertexId, VertexId> = rename.iter().copied().collect();
    // Route (pair, original edge) — the current edge is reconstructed from
    // the pair key plus the original weight, keeping partials at 4 words.
    let mut relabeled: ShardedVec<((u32, u32), Edge)> = ShardedVec::new(cluster);
    for mid in 0..cur.machines() {
        *relabeled.shard_mut(mid) =
            relabel_pairs(cur.shard(mid), |v| map.get(&v).copied().unwrap_or(v));
    }
    let deduped = aggregate_by_key(cluster, "mst.dedup", &relabeled, owners, |a, b| {
        if a.weight_key() <= b.weight_key() {
            *a
        } else {
            *b
        }
    })?;
    Ok(ShardedVec::from_shards(
        (0..deduped.machines())
            .map(|mid| {
                deduped
                    .shard(mid)
                    .iter()
                    .map(|&((a, b), orig)| pair_to_tagged((a, b), orig))
                    .collect()
            })
            .collect(),
    ))
}

/// Convenience for tests: checks that `result` is a minimum spanning forest
/// of `g` (valid spanning forest + weight equal to Kruskal's).
pub fn is_minimum_spanning_forest(g: &mpc_graph::Graph, result: &Forest) -> bool {
    mpc_graph::is_spanning_forest(g, &result.edges)
        && result.total_weight == mpc_graph::mst::kruskal(g).total_weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::generators;
    use mpc_runtime::{ClusterConfig, Enforcement, Topology};

    fn run_mst(g: &mpc_graph::Graph, seed: u64) -> (MstResult, u64) {
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m().max(1))
                .seed(seed)
                .enforcement(Enforcement::Strict),
        );
        let input = common::distribute_edges(&cluster, g);
        let r = heterogeneous_mst(&mut cluster, g.n(), input).unwrap();
        (r, cluster.rounds())
    }

    #[test]
    fn mst_matches_kruskal_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm(120, 900, seed).with_random_weights(100_000, seed);
            let (r, _) = run_mst(&g, seed);
            assert!(is_minimum_spanning_forest(&g, &r.forest), "seed {seed}");
        }
    }

    #[test]
    fn mst_on_disconnected_graphs_is_msf() {
        let g = generators::random_forest(100, 4, 3).with_random_weights(50, 3);
        let (r, _) = run_mst(&g, 1);
        assert_eq!(r.forest.len(), 96);
        assert!(is_minimum_spanning_forest(&g, &r.forest));
    }

    #[test]
    fn dense_inputs_trigger_boruvka_steps() {
        // Density high enough that the contraction phase must run.
        let g = generators::gnm(256, 8000, 2).with_random_weights(1 << 20, 2);
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .topology(Topology::Heterogeneous {
                    gamma: 0.5,
                    large_exponent: 1.0,
                })
                .seed(4),
        );
        let input = common::distribute_edges(&cluster, &g);
        let r = heterogeneous_mst(&mut cluster, g.n(), input).unwrap();
        assert!(is_minimum_spanning_forest(&g, &r.forest));
        assert!(
            r.stats.boruvka_steps >= 1,
            "expected contraction steps, stats = {:?}",
            r.stats
        );
    }

    #[test]
    fn unique_weights_reproduce_kruskal_edge_set_exactly() {
        // With unique weights the MSF is unique, so edge sets must agree.
        let mut g = generators::gnm(80, 400, 7);
        let edges: Vec<Edge> = g
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, 1000 + i as u64))
            .collect();
        g = mpc_graph::Graph::new(80, edges);
        let (r, _) = run_mst(&g, 5);
        let want = mpc_graph::mst::kruskal(&g);
        assert_eq!(r.forest.keys(), want.keys());
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = mpc_graph::Graph::empty(10);
        let mut cluster = Cluster::new(ClusterConfig::new(10, 1));
        let input = common::distribute_edges(&cluster, &g);
        let r = heterogeneous_mst(&mut cluster, 10, input).unwrap();
        assert!(r.forest.is_empty());

        let g = generators::path(2).with_random_weights(5, 1);
        let (r, _) = run_mst(&g, 2);
        assert_eq!(r.forest.len(), 1);
    }
}
