//! [`BoruvkaProgram`]: the MST contraction phase (§3's Borůvka building
//! block) as a per-machine state machine, iterated to a full MSF.
//!
//! Each Borůvka wave is four synchronized rounds, phased by
//! `ctx.round % 4`:
//!
//! | phase | who    | does |
//! |------:|--------|------|
//! | A     | smalls | apply last wave's renames, drop internal edges, dedup parallel edges locally, announce each current vertex's locally-lightest edge to the vertex's hash-owner |
//! | B     | owners | keep the globally-lightest announcement per vertex (remembering who announced), forward the per-vertex minima to the large machine |
//! | C     | large  | contract along the minimum outgoing edges ([`contract_lightest_lists`] with `k = 1`), collect the chosen MST edges, send each rename pair to its vertex's owner |
//! | D     | owners | forward every rename to exactly the machines that announced its vertex |
//!
//! Ties break on the full [`weight_key`](Edge::weight_key) (weight, then
//! endpoints), a total order, so the chosen edge set is the unique MSF of
//! the perturbed weights — the same tie-breaking the `mst` program
//! ([`MstProgram`](crate::programs::MstProgram)) uses, which is why the
//! equivalence tests can compare edge sets, not just weights.
//!
//! Unlike the legacy doubly-exponential schedule this is plain Borůvka
//! (`O(log n)` waves, not `O(log log (m/n))`): the point here is the
//! execution model, and a 4-round wave whose every step is per-machine
//! state exercises it far harder than a monolithic loop.

use crate::combinators::{fold_by_key, keep_last, sorted_get, Announcers};
use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use mpc_core::mst::contract_lightest_lists;
use mpc_graph::mst::Forest;
use mpc_graph::{Edge, VertexId};
use mpc_runtime::payload::TaggedEdge;
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};

/// Messages of the Borůvka program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MstMsg {
    /// `(vertex, lightest incident edge known to the sender)`.
    Announce(VertexId, TaggedEdge),
    /// `(old current-id, new current-id)` from the contraction.
    Rename(VertexId, VertexId),
}

impl Payload for MstMsg {
    fn words(&self) -> usize {
        match self {
            MstMsg::Announce(_, te) => 1 + te.words(),
            MstMsg::Rename(_, _) => 2,
        }
    }
}

/// Per-machine state of the Borůvka MSF program.
#[derive(Clone)]
pub struct BoruvkaProgram {
    owners: Vec<MachineId>,
    /// Current contracted edges on this (small) machine.
    local: Vec<TaggedEdge>,
    /// Owner role: vertex -> machines that announced it this wave.
    announcers: Announcers<VertexId>,
    /// Large machine only: MST edges chosen so far (original ids).
    chosen: Vec<Edge>,
    /// Set on the large machine when it halts.
    pub forest: Option<Forest>,
}

impl BoruvkaProgram {
    /// Builds one program per machine, lifting `edges` into tagged form
    /// exactly like the legacy MST entry point.
    pub fn for_cluster(cluster: &Cluster, edges: &ShardedVec<Edge>) -> Vec<Self> {
        let owners = cluster.small_ids();
        assert!(
            cluster.large().is_some(),
            "Borůvka MSF requires a large machine"
        );
        (0..cluster.machines())
            .map(|mid| BoruvkaProgram {
                owners: owners.clone(),
                local: edges
                    .shard(mid)
                    .iter()
                    .map(|&e| TaggedEdge::identity(e.normalized()))
                    .collect(),
                announcers: Announcers::default(),
                chosen: Vec::new(),
                forest: None,
            })
            .collect()
    }

    fn owner_of(&self, v: VertexId) -> MachineId {
        self.owners[v as usize % self.owners.len()]
    }

    /// Phase A on a small machine: relabel along `renames` (ascending by
    /// old id), drop edges that became internal, keep only the lightest of
    /// parallel edges, announce.
    fn relabel_and_announce(&mut self, renames: &[(VertexId, VertexId)]) -> StepOutcome<MstMsg> {
        if !renames.is_empty() {
            let rename = |v: VertexId| sorted_get(renames, v).copied().unwrap_or(v);
            let mut dedup: Vec<((VertexId, VertexId), TaggedEdge)> =
                Vec::with_capacity(self.local.len());
            for te in self.local.drain(..) {
                let (u, v) = (rename(te.cur.u), rename(te.cur.v));
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                let cand = TaggedEdge {
                    cur: Edge::new(key.0, key.1, te.orig.w),
                    orig: te.orig,
                };
                dedup.push((key, cand));
            }
            fold_by_key(&mut dedup, keep_lighter);
            self.local.extend(dedup.into_iter().map(|(_, te)| te));
        }
        if self.local.is_empty() {
            return StepOutcome::Halt;
        }
        // Locally-lightest edge per current vertex.
        let mut best: Vec<(VertexId, TaggedEdge)> = self
            .local
            .iter()
            .flat_map(|te| [(te.cur.u, *te), (te.cur.v, *te)])
            .collect();
        fold_by_key(&mut best, keep_lighter);
        let out = best
            .into_iter()
            .map(|(v, te)| (self.owner_of(v), MstMsg::Announce(v, te)))
            .collect();
        StepOutcome::Send(out)
    }
}

/// The [`fold_by_key`] step that keeps the lighter original edge (ties
/// keep the earlier one).
fn keep_lighter(best: &mut TaggedEdge, te: &TaggedEdge) {
    if te.orig.weight_key() < best.orig.weight_key() {
        *best = *te;
    }
}

impl MachineProgram for BoruvkaProgram {
    type Message = MstMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstMsg)>,
    ) -> StepOutcome<MstMsg> {
        let phase = ctx.round % 4;
        if ctx.is_large() {
            // Phase C: contract; other phases are idle until the lists dry up.
            if phase != 2 {
                return if self.forest.is_some() {
                    StepOutcome::Halt
                } else {
                    StepOutcome::idle()
                };
            }
            if inbox.is_empty() {
                let mut chosen = std::mem::take(&mut self.chosen);
                chosen.sort_by_key(Edge::weight_key);
                chosen.dedup();
                self.forest = Some(Forest::from_edges(chosen));
                return StepOutcome::Halt;
            }
            let lists: Vec<(VertexId, Vec<TaggedEdge>)> = inbox
                .into_iter()
                .filter_map(|(_, msg)| match msg {
                    MstMsg::Announce(v, te) => Some((v, vec![te])),
                    MstMsg::Rename(_, _) => None,
                })
                .collect();
            ctx.charge(lists.len() as u64);
            let outcome = contract_lightest_lists(lists, 1);
            self.chosen.extend(outcome.chosen);
            let out = outcome
                .rename
                .into_iter()
                .filter(|(old, new)| old != new)
                .map(|(old, new)| (self.owner_of(old), MstMsg::Rename(old, new)))
                .collect();
            return StepOutcome::Send(out);
        }

        match phase {
            // Phase A — relabel with incoming renames, announce minima.
            0 => {
                let mut renames: Vec<(VertexId, VertexId)> = inbox
                    .into_iter()
                    .filter_map(|(_, msg)| match msg {
                        MstMsg::Rename(old, new) => Some((old, new)),
                        MstMsg::Announce(_, _) => None,
                    })
                    .collect();
                fold_by_key(&mut renames, keep_last);
                self.relabel_and_announce(&renames)
            }
            // Phase B — owner keeps the lightest announcement per vertex.
            1 => {
                if inbox.is_empty() {
                    return if self.local.is_empty() {
                        StepOutcome::Halt
                    } else {
                        StepOutcome::idle()
                    };
                }
                let large = ctx.large.expect("checked in for_cluster");
                let mut best: Vec<(VertexId, TaggedEdge)> = Vec::with_capacity(inbox.len());
                self.announcers.clear();
                for (src, msg) in inbox {
                    let MstMsg::Announce(v, te) = msg else {
                        continue;
                    };
                    self.announcers.note(v, src);
                    best.push((v, te));
                }
                fold_by_key(&mut best, keep_lighter);
                let out = best
                    .into_iter()
                    .map(|(v, te)| (large, MstMsg::Announce(v, te)))
                    .collect();
                StepOutcome::Send(out)
            }
            // Phase C — smalls wait while the large machine contracts.
            2 => {
                if self.local.is_empty() && self.announcers.is_empty() {
                    StepOutcome::Halt
                } else {
                    StepOutcome::idle()
                }
            }
            // Phase D — owner routes each rename to that vertex's announcers.
            _ => {
                if inbox.is_empty() {
                    return if self.local.is_empty() && self.announcers.is_empty() {
                        StepOutcome::Halt
                    } else {
                        StepOutcome::idle()
                    };
                }
                let mut out: Vec<(MachineId, MstMsg)> = Vec::new();
                for (_, msg) in inbox {
                    let MstMsg::Rename(old, new) = msg else {
                        continue;
                    };
                    for m in self.announcers.get(old) {
                        out.push((m, MstMsg::Rename(old, new)));
                    }
                }
                self.announcers.clear();
                StepOutcome::Send(out)
            }
        }
    }
}
