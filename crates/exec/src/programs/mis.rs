//! [`MisProgram`]: the `O(log log Δ)`-round maximal independent set
//! (Theorem C.6 — greedy-by-`π` over geometrically growing rank prefixes)
//! as a per-machine state machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::ported::heterogeneous_mis`], in the coordinator shape of the
//! [`combinators`](crate::combinators) layer. The large machine draws the
//! permutation (its **only** RNG draw, mirroring the legacy order), owns
//! the prefix schedule, and replays every legacy orchestrator decision
//! (batch-budget skips, the early-stop rule) from the same aggregated
//! counts; the small machines double as workers over their live-edge
//! shards and as hash-owners of per-vertex ranks, chosen flags, and
//! domination flags. Small machines draw no randomness at all, so results,
//! statistics, and RNG stream positions are bit-identical to the legacy
//! path (asserted by the registry equivalence tests).
//!
//! One prefix iteration (`Batch` issued at round `R`):
//!
//! | round | who | does |
//! |------:|-----|------|
//! | R+1   | smalls | select the rank-prefix batch from live edges, report counts |
//! | R+2   | large  | skip (over budget) or request the batch (`ShipBatch`) |
//! | R+4   | large  | greedy extension; chosen flags → owners; `Mark` broadcast |
//! | R+5–7 | smalls/owners | chosen lookups → domination partials → domination flags up + lookups |
//! | R+9   | smalls | prune live edges, report live counts |
//! | R+10  | large  | early-stop or next prefix |

use crate::combinators::{
    announce_degrees, fold_by_key, keep_last, sorted_get, EndpointIndex, Outbox, Owners,
    RoleProgram,
};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::ported::mis::{
    final_sweep, greedy_extend_prefix, mis_budget, permutation_ranks, prefix_thresholds, MisResult,
};
use mpc_graph::{Edge, VertexId};
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use std::sync::Arc;

/// Phase commands broadcast by the large machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MisCmd {
    /// Select the batch of live edges with both endpoint ranks `< t`,
    /// report its size.
    Batch {
        /// The prefix threshold.
        t: u32,
    },
    /// The batch fits: ship it to the large machine.
    ShipBatch,
    /// Chosen flags are at the owners: run the domination/prune wave.
    Mark,
    /// Ship the remaining live edges for the final sweep.
    Final,
    /// The run is over; halt.
    Finish,
}

/// Messages of the MIS program.
#[derive(Clone, Copy, Debug)]
pub enum MisNetMsg {
    /// Large → smalls: phase command.
    Cmd(MisCmd),
    /// Small → owner: partial degree count of a vertex.
    DegPartial(VertexId, u32),
    /// Owner → large: final degree of a vertex.
    DegUp(VertexId, u32),
    /// Large → owner: the permutation rank of a vertex.
    RankInfo(VertexId, u32),
    /// Small → owner: this machine needs the rank of `v`.
    RankAsk(VertexId),
    /// Owner → asker: the rank of `v`.
    RankAns(VertexId, u32),
    /// Small → large: a count (batch size or live size, by phase).
    Count(u64),
    /// Small → large: a batch edge.
    BatchEdge(Edge),
    /// Large → owner: `v` joined the MIS this iteration.
    Chosen(VertexId),
    /// Small → owner: did `v` join this iteration?
    ChosenAsk(VertexId),
    /// Owner → asker: whether `v` joined this iteration.
    ChosenAns(VertexId, bool),
    /// Small → owner: `v` is dominated this iteration (partial).
    DomPartial(VertexId),
    /// Owner → large: `v` is dominated.
    DomUp(VertexId),
    /// Small → owner: is `v` dominated this iteration?
    DomAsk(VertexId),
    /// Owner → asker: whether `v` is dominated.
    DomAns(VertexId, bool),
    /// Small → large: a surviving live edge (final sweep).
    FinalEdge(Edge),
}

impl Payload for MisNetMsg {
    fn words(&self) -> usize {
        match self {
            MisNetMsg::Cmd(MisCmd::Batch { .. }) => 2,
            MisNetMsg::Cmd(_) => 1,
            MisNetMsg::DegPartial(_, _)
            | MisNetMsg::DegUp(_, _)
            | MisNetMsg::RankInfo(_, _)
            | MisNetMsg::RankAns(_, _)
            | MisNetMsg::ChosenAns(_, _)
            | MisNetMsg::DomAns(_, _) => 2,
            MisNetMsg::RankAsk(_)
            | MisNetMsg::Count(_)
            | MisNetMsg::Chosen(_)
            | MisNetMsg::ChosenAsk(_)
            | MisNetMsg::DomPartial(_)
            | MisNetMsg::DomUp(_)
            | MisNetMsg::DomAsk(_) => 1,
            MisNetMsg::BatchEdge(e) | MisNetMsg::FinalEdge(e) => e.words(),
        }
    }
}

/// What the large machine is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LPhase {
    /// Round 0: draw the permutation, push ranks to the owners.
    Boot,
    /// Degree reports arrive at round 2.
    Degrees,
    /// `Batch` issued: counts arrive at `issued + 2`.
    BatchCount { issued: u64 },
    /// `ShipBatch` issued: the batch arrives at `issued + 2`.
    Batch { issued: u64 },
    /// `Mark` issued: domination flags arrive at `issued + 5`.
    DomWait { issued: u64 },
    /// Live counts arrive at `issued + 6`.
    LiveCount { issued: u64 },
    /// `Final` issued: the residual graph arrives at `issued + 2`.
    Final { issued: u64 },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the MIS program.
#[derive(Clone)]
pub struct MisProgram {
    n: usize,
    owners: Owners,
    // ---- small-machine state ----
    /// Endpoint index of the input shard; the worker tables are parallel
    /// to its endpoints.
    index: Arc<EndpointIndex>,
    /// Live edges with their endpoint slots: the input shard at first,
    /// pruned in place as the MIS grows.
    live: Vec<(Edge, [u32; 2])>,
    /// Endpoint ranks delivered by the owners.
    rank_local: Vec<u32>,
    /// The held batch (selected on `Batch`, shipped on `ShipBatch`).
    batch: Vec<Edge>,
    /// Round the `Mark` command arrived (drives the domination wave).
    mark_round: Option<u64>,
    /// Live endpoints captured at `Mark`, reused by the DomAsk wave.
    mark_endpoints: Vec<VertexId>,
    /// Owner role: ranks of owned vertices, ascending by vertex.
    rank_store: Vec<(VertexId, u32)>,
    /// Owner role: this iteration's chosen vertices.
    chosen: Vec<VertexId>,
    // ---- large-machine state ----
    phase: LPhase,
    perm: Vec<VertexId>,
    rank: Vec<u32>,
    in_mis: Vec<bool>,
    dominated_flag: Vec<bool>,
    thresholds: Vec<u32>,
    t_idx: usize,
    decided_upto: u32,
    iterations: usize,
    batch_edges: Vec<usize>,
    budget: usize,
    /// Set on the large machine when it halts.
    pub result: Option<MisResult>,
}

impl MisProgram {
    /// Builds one program per machine over the sharded input edges.
    pub fn for_cluster(cluster: &Cluster, n: usize, edges: &ShardedVec<Edge>) -> Vec<Self> {
        let owners = Owners::of_cluster(cluster);
        let large = cluster.large().expect("MIS requires a large machine");
        assert!(!owners.ids().is_empty(), "MIS requires small machines");
        assert!(
            edges.shard(large).is_empty(),
            "engine programs expect the input on the small machines only \
             (see common::distribute_edges); the large machine's shard would \
             be silently ignored"
        );
        (0..cluster.machines())
            .map(|mid| {
                let shard = edges.shard(mid);
                let index = EndpointIndex::build(shard);
                MisProgram {
                    n,
                    owners: owners.clone(),
                    live: shard
                        .iter()
                        .copied()
                        .zip(index.slots().iter().copied())
                        .collect(),
                    rank_local: index.table(0),
                    index: Arc::new(index),
                    batch: Vec::new(),
                    mark_round: None,
                    mark_endpoints: Vec::new(),
                    rank_store: Vec::new(),
                    chosen: Vec::new(),
                    phase: LPhase::Boot,
                    perm: Vec::new(),
                    rank: Vec::new(),
                    in_mis: Vec::new(),
                    dominated_flag: Vec::new(),
                    thresholds: Vec::new(),
                    t_idx: 0,
                    decided_upto: 0,
                    iterations: 0,
                    batch_edges: Vec::new(),
                    budget: 0,
                    result: None,
                }
            })
            .collect()
    }

    /// The endpoints whose `marked` table entry is set, ascending.
    fn marked_endpoints<'a>(&'a self, marked: &'a [bool]) -> impl Iterator<Item = VertexId> + 'a {
        let endpoints = self.index.endpoints().iter();
        endpoints.zip(marked).filter(|(_, &m)| m).map(|(&v, _)| v)
    }

    /// Issues the next prefix iteration, the final sweep, or nothing more —
    /// the legacy loop's control flow, replayed by the coordinator.
    fn advance(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MisNetMsg>) {
        self.t_idx += 1;
        if self.t_idx >= self.thresholds.len() || self.decided_upto as usize >= self.n {
            self.issue_final(ctx, out);
        } else {
            self.issue_batch(ctx, out);
        }
    }

    fn issue_batch(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MisNetMsg>) {
        self.iterations += 1;
        let t = self.thresholds[self.t_idx];
        out.broadcast(ctx.small_ids_iter(), MisNetMsg::Cmd(MisCmd::Batch { t }));
        self.phase = LPhase::BatchCount { issued: ctx.round };
    }

    fn issue_final(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MisNetMsg>) {
        out.broadcast(ctx.small_ids_iter(), MisNetMsg::Cmd(MisCmd::Final));
        self.phase = LPhase::Final { issued: ctx.round };
    }
}

impl RoleProgram for MisProgram {
    type Message = MisNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MisNetMsg)>,
    ) -> StepOutcome<MisNetMsg> {
        let mut out = Outbox::new();
        match self.phase {
            LPhase::Boot => {
                // The permutation is the algorithm's single random draw —
                // first thing the legacy path does.
                let (perm, rank) = permutation_ranks(&mut ctx.rng(), self.n);
                ctx.charge(self.n as u64);
                for v in 0..self.n {
                    out.send(
                        self.owners.of(&(v as VertexId)),
                        MisNetMsg::RankInfo(v as VertexId, rank[v]),
                    );
                }
                self.perm = perm;
                self.rank = rank;
                self.in_mis = vec![false; self.n];
                self.dominated_flag = vec![false; self.n];
                self.phase = LPhase::Degrees;
            }
            LPhase::Degrees => {
                if ctx.round == 2 {
                    let delta = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MisNetMsg::DegUp(_, d) => Some(*d),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(1)
                        .max(2);
                    self.thresholds = prefix_thresholds(self.n, delta);
                    self.budget = mis_budget(ctx.capacity);
                    self.issue_batch(ctx, &mut out);
                }
            }
            LPhase::BatchCount { issued } => {
                if ctx.round == issued + 2 {
                    let total: u64 = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MisNetMsg::Count(c) => Some(*c),
                            _ => None,
                        })
                        .sum();
                    self.batch_edges.push(total as usize);
                    if total as usize * 2 > self.budget {
                        // Residual prefix unexpectedly dense: skip to a
                        // smaller growth step (the legacy `continue`).
                        self.advance(ctx, &mut out);
                    } else {
                        out.broadcast(ctx.small_ids_iter(), MisNetMsg::Cmd(MisCmd::ShipBatch));
                        self.phase = LPhase::Batch { issued: ctx.round };
                    }
                }
            }
            LPhase::Batch { issued } => {
                if ctx.round == issued + 2 {
                    let batch: Vec<Edge> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            MisNetMsg::BatchEdge(e) => Some(e),
                            _ => None,
                        })
                        .collect();
                    ctx.charge(batch.len() as u64 * 2);
                    let t = self.thresholds[self.t_idx];
                    let newly = greedy_extend_prefix(
                        &self.perm,
                        &self.rank,
                        t,
                        self.decided_upto,
                        &self.dominated_flag,
                        &mut self.in_mis,
                        &batch,
                    );
                    self.decided_upto = t;
                    for &v in &newly {
                        out.send(self.owners.of(&v), MisNetMsg::Chosen(v));
                    }
                    out.broadcast(ctx.small_ids_iter(), MisNetMsg::Cmd(MisCmd::Mark));
                    self.phase = LPhase::DomWait { issued: ctx.round };
                }
            }
            LPhase::DomWait { issued } => {
                if ctx.round == issued + 5 {
                    for (_src, m) in inbox {
                        if let MisNetMsg::DomUp(v) = m {
                            self.dominated_flag[v as usize] = true;
                        }
                    }
                    self.phase = LPhase::LiveCount { issued };
                }
            }
            LPhase::LiveCount { issued } => {
                if ctx.round == issued + 6 {
                    let live_total: u64 = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MisNetMsg::Count(c) => Some(*c),
                            _ => None,
                        })
                        .sum();
                    // The paper's stop rule: once the residual graph fits
                    // the large machine, the final sweep gathers it whole.
                    if live_total as usize * 2 <= self.budget {
                        self.issue_final(ctx, &mut out);
                    } else {
                        self.advance(ctx, &mut out);
                    }
                }
            }
            LPhase::Final { issued } => {
                if ctx.round == issued + 2 {
                    let rest: Vec<Edge> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            MisNetMsg::FinalEdge(e) => Some(e),
                            _ => None,
                        })
                        .collect();
                    ctx.charge(rest.len() as u64 * 2);
                    final_sweep(
                        &self.perm,
                        &self.rank,
                        self.decided_upto,
                        &self.dominated_flag,
                        &mut self.in_mis,
                        &rest,
                    );
                    let mis: Vec<VertexId> = (0..self.n as VertexId)
                        .filter(|&v| self.in_mis[v as usize])
                        .collect();
                    self.result = Some(MisResult {
                        mis,
                        iterations: self.iterations,
                        batch_edges: std::mem::take(&mut self.batch_edges),
                    });
                    out.broadcast(ctx.small_ids_iter(), MisNetMsg::Cmd(MisCmd::Finish));
                    self.phase = LPhase::Done;
                }
            }
            LPhase::Done => return StepOutcome::Halt,
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MisNetMsg)>,
    ) -> StepOutcome<MisNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        // Round 0: kick off degrees and rank lookups from the input shard.
        if ctx.round == 0 {
            announce_degrees(&mut out, &self.owners, &self.index, MisNetMsg::DegPartial);
            for &v in self.index.endpoints() {
                out.send(self.owners.of(&v), MisNetMsg::RankAsk(v));
            }
        }

        // Two-pass inbox handling: stores/partials first, then lookups, so
        // owner answers always reflect this round's pushed state.
        let mut cmd: Option<MisCmd> = None;
        let mut deg_sum: Vec<(VertexId, u32)> = Vec::new();
        let mut got_rank_info = false;
        let mut rank_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut chosen_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut chosen_local = self.index.table(false);
        let mut dom_partials: Vec<VertexId> = Vec::new();
        let mut dom_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut dead = self.index.table(false);
        let mut got_dom_answers = false;

        for (src, msg) in inbox {
            match msg {
                MisNetMsg::Cmd(c) => cmd = Some(c),
                MisNetMsg::DegPartial(v, c) => deg_sum.push((v, c)),
                MisNetMsg::RankInfo(v, r) => {
                    got_rank_info = true;
                    self.rank_store.push((v, r));
                }
                MisNetMsg::RankAsk(v) => rank_asks.push((src, v)),
                MisNetMsg::RankAns(v, r) => self.rank_local[self.index.slot_of(v)] = r,
                MisNetMsg::Chosen(v) => self.chosen.push(v),
                MisNetMsg::ChosenAsk(v) => chosen_asks.push((src, v)),
                MisNetMsg::ChosenAns(v, true) => chosen_local[self.index.slot_of(v)] = true,
                MisNetMsg::DomPartial(v) => dom_partials.push(v),
                MisNetMsg::DomUp(_) => {}
                MisNetMsg::DomAsk(v) => dom_asks.push((src, v)),
                MisNetMsg::DomAns(v, f) => {
                    got_dom_answers = true;
                    dead[self.index.slot_of(v)] = f;
                }
                _ => {}
            }
        }

        // ---- owner role ----
        fold_by_key(&mut deg_sum, |a, b| *a += *b);
        for (v, d) in deg_sum {
            out.send(large, MisNetMsg::DegUp(v, d));
        }
        if got_rank_info {
            fold_by_key(&mut self.rank_store, keep_last);
        }
        for (src, v) in rank_asks {
            let r = sorted_get(&self.rank_store, v).copied().unwrap_or(0);
            out.send(src, MisNetMsg::RankAns(v, r));
        }
        if !chosen_asks.is_empty() {
            self.chosen.sort_unstable();
            for (src, v) in chosen_asks {
                let chosen = self.chosen.binary_search(&v).is_ok();
                out.send(src, MisNetMsg::ChosenAns(v, chosen));
            }
            self.chosen.clear();
        }
        dom_partials.sort_unstable();
        dom_partials.dedup();
        for &v in &dom_partials {
            out.send(large, MisNetMsg::DomUp(v));
        }
        for (src, v) in dom_asks {
            let dominated = dom_partials.binary_search(&v).is_ok();
            out.send(src, MisNetMsg::DomAns(v, dominated));
        }

        // ---- worker role: command handling ----
        match cmd {
            Some(MisCmd::Finish) => return StepOutcome::Halt,
            Some(MisCmd::Batch { t }) => {
                let rank = &self.rank_local;
                self.batch = self
                    .live
                    .iter()
                    .filter(|(_, [a, b])| rank[*a as usize] < t && rank[*b as usize] < t)
                    .map(|&(e, _)| e)
                    .collect();
                out.send(large, MisNetMsg::Count(self.batch.len() as u64));
            }
            Some(MisCmd::ShipBatch) => {
                for e in &self.batch {
                    out.send(large, MisNetMsg::BatchEdge(*e));
                }
            }
            Some(MisCmd::Mark) => {
                self.mark_round = Some(ctx.round);
                // `live` only changes at mark+4, so this endpoint list is
                // reused for the DomAsk wave at mark+2.
                let mut is_live = self.index.table(false);
                for &(_, [a, b]) in &self.live {
                    is_live[a as usize] = true;
                    is_live[b as usize] = true;
                }
                self.mark_endpoints = self.marked_endpoints(&is_live).collect();
                for &v in &self.mark_endpoints {
                    out.send(self.owners.of(&v), MisNetMsg::ChosenAsk(v));
                }
            }
            Some(MisCmd::Final) => {
                for &(e, _) in &self.live {
                    out.send(large, MisNetMsg::FinalEdge(e));
                }
            }
            None => {}
        }

        // ---- worker role: the domination wave, on the Mark clock ----
        if let Some(mark) = self.mark_round {
            if ctx.round == mark + 2 {
                // Chosen answers are in: dominated candidates are the
                // chosen endpoints and their live neighbors.
                let mut dominated = self.index.table(false);
                for &(_, [a, b]) in &self.live {
                    if chosen_local[a as usize] || chosen_local[b as usize] {
                        dominated[a as usize] = true;
                        dominated[b as usize] = true;
                    }
                }
                for v in self.marked_endpoints(&dominated) {
                    out.send(self.owners.of(&v), MisNetMsg::DomPartial(v));
                }
                for v in std::mem::take(&mut self.mark_endpoints) {
                    out.send(self.owners.of(&v), MisNetMsg::DomAsk(v));
                }
            }
            if ctx.round == mark + 4 {
                debug_assert!(got_dom_answers || self.live.is_empty());
                self.live
                    .retain(|&(_, [a, b])| !dead[a as usize] && !dead[b as usize]);
                out.send(large, MisNetMsg::Count(self.live.len() as u64));
                self.mark_round = None;
            }
        }

        out.into_step()
    }
}
