//! The large machine's local contraction step (§3, "doubly-exponential
//! Borůvka"), in the *saturation-safe* variant of Lotker et al. \[45\].
//!
//! Input: for each current vertex `v`, its `min(k, deg(v))` lightest
//! outgoing edges, sorted ascending. The step repeatedly contracts every
//! cluster along its **provably minimum outgoing edge** (cut rule ⇒ an MST
//! edge):
//!
//! * a cluster's candidate is the lightest unused, non-internal edge over
//!   its constituents' lists;
//! * a constituent whose (possibly truncated) list is used up *may* have
//!   lighter edges we never saw, so its cluster turns **passive** and stops
//!   proposing — but a passive cluster already absorbed `k+1` distinct
//!   phase-start vertices (all `k` list edges became internal), so the
//!   phase still shrinks the vertex count by a factor `≥ k`, which is what
//!   the doubly-exponential schedule needs;
//! * clusters whose lists were complete (`deg(v) < k`) and are exhausted
//!   simply have no outgoing edges left (their component is done).
//!
//! Every contracted edge is a true minimum outgoing edge of some cluster at
//! the moment of contraction, so the output is exact — no edge ever needs
//! to be revoked.

use mpc_graph::{DisjointSets, Edge, VertexId, WeightKey};
use mpc_runtime::payload::TaggedEdge;
use std::collections::HashMap;

/// Result of one local contraction step.
#[derive(Clone, Debug)]
pub struct ContractionOutcome {
    /// Original-graph edges along which clusters merged (MST edges).
    pub chosen: Vec<Edge>,
    /// Rename pairs `(old current-id, new current-id)`; new ids are the
    /// minimum old id of the merged cluster.
    pub rename: Vec<(VertexId, VertexId)>,
    /// Number of clusters after the step (vertices of the next graph that
    /// still carry edges or were merged).
    pub new_vertex_count: usize,
}

struct VertexLists {
    edges: Vec<TaggedEdge>, // sorted ascending by orig weight key
    cursor: usize,
    complete: bool, // list holds ALL incident edges (deg < k)
}

/// Contracts along lightest-edge lists; see the module docs.
///
/// `lists[v]` must be sorted ascending by original weight key and truncated
/// to at most `k` entries (the shape the `mst` program's collector tree
/// delivers to the large machine).
pub fn contract_lightest_lists(
    lists: Vec<(VertexId, Vec<TaggedEdge>)>,
    k: usize,
) -> ContractionOutcome {
    // Dense-index the participating vertices.
    let mut index: HashMap<VertexId, usize> = HashMap::new();
    let mut ids: Vec<VertexId> = Vec::new();
    let intern = |v: VertexId, ids: &mut Vec<VertexId>, index: &mut HashMap<VertexId, usize>| {
        *index.entry(v).or_insert_with(|| {
            ids.push(v);
            ids.len() - 1
        })
    };
    for (v, es) in &lists {
        intern(*v, &mut ids, &mut index);
        for te in es {
            intern(te.cur.u, &mut ids, &mut index);
            intern(te.cur.v, &mut ids, &mut index);
        }
    }
    let nv = ids.len();
    let mut vls: Vec<VertexLists> = (0..nv)
        .map(|_| VertexLists {
            edges: Vec::new(),
            cursor: 0,
            complete: true,
        })
        .collect();
    for (v, es) in lists {
        let i = index[&v];
        vls[i] = VertexLists {
            complete: es.len() < k,
            edges: es,
            cursor: 0,
        };
    }

    let mut dsu = DisjointSets::new(nv);
    // members[root] = dense vertices currently merged into root.
    let mut members: Vec<Vec<u32>> = (0..nv as u32).map(|i| vec![i]).collect();
    let mut passive = vec![false; nv];
    let mut chosen: Vec<Edge> = Vec::new();

    loop {
        // Collect one proposal per active cluster.
        let mut roots: Vec<u32> = (0..nv as u32).filter(|&i| dsu.find(i) == i).collect();
        roots.sort_unstable();
        let mut proposals: Vec<(u32, TaggedEdge, WeightKey)> = Vec::new();
        for &root in &roots {
            if passive[root as usize] {
                continue;
            }
            let mut best: Option<(TaggedEdge, WeightKey)> = None;
            let mut became_passive = false;
            let member_list = std::mem::take(&mut members[root as usize]);
            for &c in &member_list {
                let vl = &mut vls[c as usize];
                // Skip internal edges permanently.
                while vl.cursor < vl.edges.len() {
                    let te = vl.edges[vl.cursor];
                    let iu = index[&te.cur.u] as u32;
                    let iv = index[&te.cur.v] as u32;
                    if dsu.find(iu) == dsu.find(iv) {
                        vl.cursor += 1;
                    } else {
                        break;
                    }
                }
                if vl.cursor == vl.edges.len() {
                    if !vl.complete {
                        became_passive = true;
                        break;
                    }
                    continue; // genuinely no outgoing edges from c
                }
                let te = vl.edges[vl.cursor];
                let key = te.orig.weight_key();
                if best.as_ref().is_none_or(|(_, bk)| key < *bk) {
                    best = Some((te, key));
                }
            }
            members[root as usize] = member_list;
            if became_passive {
                passive[root as usize] = true;
            } else if let Some((te, key)) = best {
                proposals.push((root, te, key));
            }
        }
        if proposals.is_empty() {
            break;
        }
        // Contract along all proposals (each is a minimum outgoing edge of
        // its cluster ⇒ cut rule ⇒ MST edge; symmetric proposals dedup via
        // the union check).
        for (_root, te, _key) in proposals {
            let iu = index[&te.cur.u] as u32;
            let iv = index[&te.cur.v] as u32;
            let (ru, rv) = (dsu.find(iu), dsu.find(iv));
            if ru == rv {
                continue;
            }
            let was_passive = passive[ru as usize] || passive[rv as usize];
            let moved = std::mem::take(&mut members[rv as usize]);
            let moved_u = std::mem::take(&mut members[ru as usize]);
            dsu.union(ru, rv);
            let nr = dsu.find(ru) as usize;
            members[nr] = moved_u;
            members[nr].extend(moved);
            passive[nr] = was_passive;
            chosen.push(te.orig);
        }
    }

    // Rename: every dense vertex maps to the min original id of its cluster.
    let mut min_id: Vec<VertexId> = vec![VertexId::MAX; nv];
    for i in 0..nv as u32 {
        let r = dsu.find(i) as usize;
        min_id[r] = min_id[r].min(ids[i as usize]);
    }
    let rename: Vec<(VertexId, VertexId)> = (0..nv as u32)
        .map(|i| (ids[i as usize], min_id[dsu.find(i) as usize]))
        .collect();
    ContractionOutcome {
        chosen,
        rename,
        new_vertex_count: dsu.component_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(u: VertexId, v: VertexId, w: u64) -> TaggedEdge {
        TaggedEdge::identity(Edge::new(u, v, w).normalized())
    }

    /// Builds truncated lightest-lists for an edge set, as the Claim-4
    /// top-t selection delivers them.
    fn lists_of(n: VertexId, edges: &[TaggedEdge], k: usize) -> Vec<(VertexId, Vec<TaggedEdge>)> {
        let mut out = Vec::new();
        for v in 0..n {
            let mut mine: Vec<TaggedEdge> = edges
                .iter()
                .filter(|t| t.cur.u == v || t.cur.v == v)
                .copied()
                .collect();
            mine.sort_by_key(|t| t.orig.weight_key());
            mine.truncate(k);
            if !mine.is_empty() {
                out.push((v, mine));
            }
        }
        out
    }

    #[test]
    fn contracts_path_fully_with_large_k() {
        let edges = [te(0, 1, 5), te(1, 2, 3), te(2, 3, 9)];
        let out = contract_lightest_lists(lists_of(4, &edges, 10), 10);
        assert_eq!(out.new_vertex_count, 1);
        assert_eq!(out.chosen.len(), 3);
        // Everyone renamed to 0.
        assert!(out.rename.iter().all(|&(_, new)| new == 0));
    }

    #[test]
    fn all_chosen_edges_are_mst_edges() {
        use mpc_graph::generators;
        for seed in 0..6 {
            let g = generators::gnm(40, 200, seed).with_random_weights(10_000, seed + 50);
            let tagged: Vec<TaggedEdge> =
                g.edges().iter().map(|&e| TaggedEdge::identity(e)).collect();
            for k in [2usize, 3, 8] {
                let out = contract_lightest_lists(lists_of(40, &tagged, k), k);
                let mst = mpc_graph::mst::kruskal(&g);
                let mst_keys: std::collections::HashSet<_> =
                    mst.edges.iter().map(Edge::weight_key).collect();
                for e in &out.chosen {
                    assert!(
                        mst_keys.contains(&e.weight_key()),
                        "seed {seed} k {k}: contracted non-MST edge {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn progress_shrinks_vertex_count_by_factor_k() {
        use mpc_graph::generators;
        let g = generators::gnm(100, 2000, 1).with_random_weights(1 << 20, 9);
        let tagged: Vec<TaggedEdge> = g.edges().iter().map(|&e| TaggedEdge::identity(e)).collect();
        let k = 4;
        let out = contract_lightest_lists(lists_of(100, &tagged, k), k);
        // Connected-ish graph: every final cluster is passive (k+1 members)
        // or fully merged; either way count <= n/k + components.
        assert!(
            out.new_vertex_count <= 100 / k + 1,
            "only contracted to {} clusters",
            out.new_vertex_count
        );
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let edges = [te(0, 1, 1), te(2, 3, 2)];
        let out = contract_lightest_lists(lists_of(4, &edges, 5), 5);
        assert_eq!(out.new_vertex_count, 2);
        assert_eq!(out.chosen.len(), 2);
    }

    #[test]
    fn empty_input() {
        let out = contract_lightest_lists(Vec::new(), 4);
        assert_eq!(out.new_vertex_count, 0);
        assert!(out.chosen.is_empty());
        assert!(out.rename.is_empty());
    }
}
