//! [`MatchingProgram`]: the three-phase maximal-matching algorithm (§5,
//! Theorem 5.1 — low-degree peeling, high-degree sampling, residual finish)
//! as a per-machine state machine.
//!
//! Same algorithm as the legacy cluster-owning loop it replaced, in the
//! coordinator shape of the [`combinators`](crate::combinators) layer, on
//! the steps of [`mpc_core::matching`]. Every random draw a small machine
//! makes — the peeling edge ranks over the low-degree subgraph, then the
//! Phase-2 sampling ranks over the high-degree incidences — happens in
//! exactly the legacy per-machine order, so the matching *and* the RNG
//! stream positions are bit-identical to the legacy path (the loop is
//! gone; the golden `LEGACY_CASES` rows pin what it produced).
//!
//! Flow (numbers are rounds; peeling iterates the middle block):
//!
//! | round | who    | does |
//! |------:|--------|------|
//! | 0     | smalls | per-vertex degree partials + degree lookups to the vertex owners |
//! | 1     | owners | sum to true degrees, answer lookups, report to the large machine |
//! | 2     | large  | `d`, threshold `d²`, high set; broadcast `Classify` |
//! | 3     | smalls | build the low subgraph, draw the one-time edge ranks, report live counts |
//! | iter  | all    | announce per-vertex minimum ranks → owners reply global minima → winners matched, flags to owners → prune via flag lookups → live counts |
//! | ...   | large  | `PeelDone` → gather `M₁` → broadcast `Phase2{t}` |
//! | ...   | smalls | draw a rank per high-degree incidence, top-`t` per vertex via owners to the large machine |
//! | ...   | large  | greedy `M₂`; matched flags to owners; smalls filter the residual; counted, shipped, finished greedily as `M₃` |

use crate::combinators::{
    announce_degrees, fold_by_key, grouped, sorted_get, top_by_key, Announcers, EndpointIndex,
    Outbox, Owners, RoleProgram,
};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::matching::peeling::{local_vertex_minima, winning_edges};
use mpc_core::matching::{
    degree_split, greedy_extend, phase2_t, MatchingError, MatchingResult, MatchingStats,
};
use mpc_graph::matching::{greedy_matching_over, Matching};
use mpc_graph::{Edge, VertexId};
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Phase commands broadcast by the large machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchCmd {
    /// Degrees are known: classify edges against `threshold`, draw the
    /// peeling ranks, report live counts.
    Classify {
        /// The low/high degree threshold `d²`.
        threshold: u64,
    },
    /// Run one peeling iteration.
    PeelIter,
    /// Peeling converged: ship the Phase-1 matching.
    PeelDone,
    /// Sample `t` random incident edges per high-degree vertex.
    Phase2 {
        /// Per-vertex sample size.
        t: u64,
    },
    /// Matched flags are at the owners: filter and count the residual.
    Phase3,
    /// Ship the residual edges.
    SendResidual,
    /// The run is over; halt.
    Finish,
}

/// Messages of the matching program.
#[derive(Clone, Copy, Debug)]
pub enum MatchNetMsg {
    /// Large → smalls: phase command.
    Cmd(MatchCmd),
    /// Small → owner: partial degree count of a vertex.
    DegPartial(VertexId, u32),
    /// Owner → large: final degree of a vertex.
    DegUp(VertexId, u32),
    /// Small → owner: this machine needs the degree of `v`.
    DegAsk(VertexId),
    /// Owner → asker: the degree of `v`.
    DegAns(VertexId, u32),
    /// Small → owner: local minimum `(rank, edge)` at vertex `v`.
    MinAnn(VertexId, u64, Edge),
    /// Owner → announcers: global minimum `(rank, edge)` at vertex `v`.
    MinAns(VertexId, u64, Edge),
    /// Small → owner: `v` was matched this iteration.
    MatchedFlag(VertexId),
    /// Small → owner: is `v` matched? (peeling prune)
    FlagAsk(VertexId),
    /// Owner → asker: whether `v` is matched (peeling).
    FlagAns(VertexId, bool),
    /// Large → owner: `v` is matched after Phases 1–2.
    P3Flag(VertexId),
    /// Small → owner: is `v` matched? (Phase 3)
    P3Ask(VertexId),
    /// Owner → asker: whether `v` is matched (Phase 3).
    P3Ans(VertexId, bool),
    /// Small → large: a count (live edges or residual edges).
    Count(u64),
    /// Small → large: a Phase-1 matching edge.
    MatchEdge(Edge),
    /// Small → owner: a Phase-2 candidate `(vertex, rank, edge)`.
    Cand(VertexId, u64, Edge),
    /// Owner → large: a surviving Phase-2 candidate.
    CandUp(VertexId, u64, Edge),
    /// Small → large: a residual edge.
    Residual(Edge),
}

impl Payload for MatchNetMsg {
    fn words(&self) -> usize {
        match self {
            MatchNetMsg::Cmd(MatchCmd::Classify { .. })
            | MatchNetMsg::Cmd(MatchCmd::Phase2 { .. }) => 2,
            MatchNetMsg::Cmd(_) => 1,
            MatchNetMsg::DegPartial(_, _)
            | MatchNetMsg::DegUp(_, _)
            | MatchNetMsg::DegAns(_, _)
            | MatchNetMsg::FlagAns(_, _)
            | MatchNetMsg::P3Ans(_, _) => 2,
            MatchNetMsg::DegAsk(_)
            | MatchNetMsg::MatchedFlag(_)
            | MatchNetMsg::FlagAsk(_)
            | MatchNetMsg::P3Flag(_)
            | MatchNetMsg::P3Ask(_)
            | MatchNetMsg::Count(_) => 1,
            MatchNetMsg::MinAnn(_, _, e) | MatchNetMsg::MinAns(_, _, e) => 2 + e.words(),
            MatchNetMsg::Cand(_, _, e) | MatchNetMsg::CandUp(_, _, e) => 2 + e.words(),
            MatchNetMsg::MatchEdge(e) | MatchNetMsg::Residual(e) => e.words(),
        }
    }
}

/// What the large machine is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LPhase {
    /// Round 0: handle the empty graph, otherwise wait for degrees.
    Boot,
    /// Degree reports arrive at round 2.
    Degrees,
    /// Live-edge counts arrive (initially and after every iteration).
    PeelCounts,
    /// `PeelDone` issued: the Phase-1 matching arrives at `issued + 2`.
    M1 { issued: u64 },
    /// `Phase2` issued with sample size `t`: candidates arrive at
    /// `issued + 3`.
    Cands { issued: u64, t: usize },
    /// `Phase3` issued: the residual count arrives at `issued + 4`.
    ResidCount { issued: u64 },
    /// `SendResidual` issued: the residual arrives at `issued + 2`.
    Residual { issued: u64 },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the three-phase matching program.
#[derive(Clone)]
pub struct MatchingProgram {
    n: usize,
    owners: Owners,
    // ---- small-machine state ----
    /// The input shard (immutable throughout, like the legacy `edges`).
    input: Vec<Edge>,
    /// Endpoint index of `input`.
    index: Arc<EndpointIndex>,
    /// Endpoint degrees delivered by the owners (parallel to
    /// `index.endpoints()`).
    deg_local: Vec<u32>,
    /// The low/high threshold, from `Classify`.
    threshold: usize,
    /// Live low-degree edges with their one-time ranks.
    live: Vec<(u64, Edge)>,
    /// Phase-1 matching edges discovered by this machine.
    matched_here: Vec<Edge>,
    /// Residual edges (Phase 3), kept until `SendResidual`.
    residual: Vec<Edge>,
    /// Owner role: matched vertices accumulated over the peeling (sorted
    /// before each round of lookups).
    peel_flags: Vec<VertexId>,
    /// Owner role: matched vertices for Phase 3 (likewise).
    p3_flags: Vec<VertexId>,
    /// Owner role: who announced each vertex this peeling iteration.
    announcers: Announcers<VertexId>,
    /// Owner role: Phase-2 truncation size, from the `Phase2` broadcast.
    t: usize,
    // ---- large-machine state ----
    phase: LPhase,
    m_total: usize,
    deg: HashMap<VertexId, u32>,
    high: HashSet<VertexId>,
    d: f64,
    used: HashSet<VertexId>,
    m1: Vec<Edge>,
    m2: Vec<Edge>,
    stats: MatchingStats,
    /// Set on the large machine when it halts.
    pub result: Option<Result<MatchingResult, MatchingError>>,
}

impl MatchingProgram {
    /// Builds one program per machine over the sharded input edges.
    pub fn for_cluster(cluster: &Cluster, n: usize, edges: &ShardedVec<Edge>) -> Vec<Self> {
        let owners = Owners::of_cluster(cluster);
        assert!(
            cluster.large().is_some() && !owners.ids().is_empty(),
            "matching requires a large machine and small machines"
        );
        let m_total = edges.total_len();
        (0..cluster.machines())
            .map(|mid| {
                let index = EndpointIndex::build(edges.shard(mid));
                MatchingProgram {
                    n,
                    owners: owners.clone(),
                    input: edges.shard(mid).to_vec(),
                    deg_local: index.table(0),
                    index: Arc::new(index),
                    threshold: 0,
                    live: Vec::new(),
                    matched_here: Vec::new(),
                    residual: Vec::new(),
                    peel_flags: Vec::new(),
                    p3_flags: Vec::new(),
                    announcers: Announcers::default(),
                    t: 1,
                    phase: LPhase::Boot,
                    m_total,
                    deg: HashMap::new(),
                    high: HashSet::new(),
                    d: 0.0,
                    used: HashSet::new(),
                    m1: Vec::new(),
                    m2: Vec::new(),
                    stats: MatchingStats::default(),
                    result: None,
                }
            })
            .collect()
    }

    fn finish_ok(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MatchNetMsg>, edges: Vec<Edge>) {
        self.result = Some(Ok(MatchingResult {
            matching: Matching { edges },
            stats: std::mem::take(&mut self.stats),
        }));
        self.phase = LPhase::Done;
        out.broadcast(ctx.small_ids_iter(), MatchNetMsg::Cmd(MatchCmd::Finish));
    }
}

impl RoleProgram for MatchingProgram {
    type Message = MatchNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MatchNetMsg)>,
    ) -> StepOutcome<MatchNetMsg> {
        let mut out = Outbox::new();
        match self.phase {
            LPhase::Boot => {
                if self.m_total == 0 {
                    self.finish_ok(ctx, &mut out, Vec::new());
                } else {
                    self.phase = LPhase::Degrees;
                }
            }
            LPhase::Degrees => {
                if !inbox.is_empty() {
                    for (_src, msg) in inbox {
                        if let MatchNetMsg::DegUp(v, dv) = msg {
                            self.deg.insert(v, dv);
                        }
                    }
                    let (d, threshold) = degree_split(self.n, self.m_total);
                    self.d = d;
                    self.stats.average_degree = d;
                    self.stats.threshold = threshold;
                    self.high = self
                        .deg
                        .iter()
                        .filter(|(_, &dv)| dv as usize > threshold)
                        .map(|(&v, _)| v)
                        .collect();
                    self.stats.high_vertices = self.high.len();
                    self.phase = LPhase::PeelCounts;
                    out.broadcast(
                        ctx.small_ids_iter(),
                        MatchNetMsg::Cmd(MatchCmd::Classify {
                            threshold: threshold as u64,
                        }),
                    );
                }
            }
            LPhase::PeelCounts => {
                let counts: Vec<u64> = inbox
                    .iter()
                    .filter_map(|(_, m)| match m {
                        MatchNetMsg::Count(c) => Some(*c),
                        _ => None,
                    })
                    .collect();
                if !counts.is_empty() {
                    let total: u64 = counts.iter().sum();
                    if total > 0 {
                        self.stats.phase1_iterations += 1;
                        out.broadcast(ctx.small_ids_iter(), MatchNetMsg::Cmd(MatchCmd::PeelIter));
                    } else {
                        self.phase = LPhase::M1 { issued: ctx.round };
                        out.broadcast(ctx.small_ids_iter(), MatchNetMsg::Cmd(MatchCmd::PeelDone));
                    }
                }
            }
            LPhase::M1 { issued } => {
                if ctx.round == issued + 2 {
                    self.m1 = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            MatchNetMsg::MatchEdge(e) => Some(e),
                            _ => None,
                        })
                        .collect();
                    self.stats.m1 = self.m1.len();
                    for e in &self.m1 {
                        self.used.insert(e.u);
                        self.used.insert(e.v);
                    }
                    let t = phase2_t(ctx.capacity, self.n, self.d, self.high.len());
                    self.phase = LPhase::Cands {
                        issued: ctx.round,
                        t,
                    };
                    out.broadcast(
                        ctx.small_ids_iter(),
                        MatchNetMsg::Cmd(MatchCmd::Phase2 { t: t as u64 }),
                    );
                }
            }
            LPhase::Cands { issued, t } => {
                if ctx.round == issued + 3 {
                    let mut cands: Vec<(VertexId, (u64, Edge))> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            MatchNetMsg::CandUp(v, r, e) => Some((v, (r, e))),
                            _ => None,
                        })
                        .collect();
                    top_by_key(&mut cands, t, |re| re.0);
                    let sampled = grouped(&cands);
                    self.m2 = greedy_extend(&sampled, &mut self.used);
                    self.stats.m2 = self.m2.len();
                    // Phase 3: push the matched flags to the vertex owners.
                    let mut flags: Vec<VertexId> = self.used.iter().copied().collect();
                    flags.sort_unstable();
                    for v in flags {
                        out.send(self.owners.of(&v), MatchNetMsg::P3Flag(v));
                    }
                    self.phase = LPhase::ResidCount { issued: ctx.round };
                    out.broadcast(ctx.small_ids_iter(), MatchNetMsg::Cmd(MatchCmd::Phase3));
                }
            }
            LPhase::ResidCount { issued } => {
                if ctx.round == issued + 4 {
                    let total: u64 = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MatchNetMsg::Count(c) => Some(*c),
                            _ => None,
                        })
                        .sum();
                    self.stats.residual_edges = total;
                    let abort_threshold = (ctx.capacity / 4) as u64;
                    if total > abort_threshold {
                        self.result = Some(Err(MatchingError::ResidualOverflow {
                            found: total,
                            threshold: abort_threshold,
                        }));
                        self.phase = LPhase::Done;
                        out.broadcast(ctx.small_ids_iter(), MatchNetMsg::Cmd(MatchCmd::Finish));
                    } else {
                        self.phase = LPhase::Residual { issued: ctx.round };
                        out.broadcast(
                            ctx.small_ids_iter(),
                            MatchNetMsg::Cmd(MatchCmd::SendResidual),
                        );
                    }
                }
            }
            LPhase::Residual { issued } => {
                if ctx.round == issued + 2 {
                    let residual: Vec<Edge> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            MatchNetMsg::Residual(e) => Some(e),
                            _ => None,
                        })
                        .collect();
                    ctx.charge(residual.len() as u64);
                    let pre: Vec<VertexId> = self.used.iter().copied().collect();
                    let m3 = greedy_matching_over(self.n, residual, &pre);
                    self.stats.m3 = m3.len();
                    let mut all = std::mem::take(&mut self.m1);
                    all.extend(std::mem::take(&mut self.m2));
                    all.extend(m3.edges);
                    self.finish_ok(ctx, &mut out, all);
                }
            }
            LPhase::Done => return StepOutcome::Halt,
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MatchNetMsg)>,
    ) -> StepOutcome<MatchNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        // Round 0: kick off the degree phase from the input shard.
        if ctx.round == 0 {
            announce_degrees(&mut out, &self.owners, &self.index, MatchNetMsg::DegPartial);
            for &v in self.index.endpoints() {
                out.send(self.owners.of(&v), MatchNetMsg::DegAsk(v));
            }
        }

        // Two-pass inbox handling: data/flags first, then lookups/replies,
        // so owner answers always reflect this round's updates.
        let mut cmd: Option<MatchCmd> = None;
        let mut deg_sum: Vec<(VertexId, u32)> = Vec::new();
        let mut deg_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut minima: Vec<(VertexId, (u64, Edge))> = Vec::new();
        let mut min_answers: Vec<(VertexId, u64)> = Vec::new();
        let mut flag_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut dead: Vec<VertexId> = Vec::new();
        let mut got_flag_answers = false;
        let mut p3_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut p3_matched = self.index.table(false);
        let mut got_p3_answers = false;
        let mut cands: Vec<(VertexId, (u64, Edge))> = Vec::new();

        for (src, msg) in inbox {
            match msg {
                MatchNetMsg::Cmd(c) => cmd = Some(c),
                MatchNetMsg::DegPartial(v, c) => deg_sum.push((v, c)),
                MatchNetMsg::DegAsk(v) => deg_asks.push((src, v)),
                MatchNetMsg::DegAns(v, dv) => self.deg_local[self.index.slot_of(v)] = dv,
                MatchNetMsg::MinAnn(v, r, e) => {
                    self.announcers.note(v, src);
                    minima.push((v, (r, e)));
                }
                MatchNetMsg::MinAns(v, r, _e) => min_answers.push((v, r)),
                MatchNetMsg::MatchedFlag(v) => self.peel_flags.push(v),
                MatchNetMsg::FlagAsk(v) => flag_asks.push((src, v)),
                MatchNetMsg::FlagAns(v, f) => {
                    got_flag_answers = true;
                    if f {
                        dead.push(v);
                    }
                }
                MatchNetMsg::P3Flag(v) => self.p3_flags.push(v),
                MatchNetMsg::P3Ask(v) => p3_asks.push((src, v)),
                MatchNetMsg::P3Ans(v, f) => {
                    got_p3_answers = true;
                    p3_matched[self.index.slot_of(v)] = f;
                }
                MatchNetMsg::Cand(v, r, e) => cands.push((v, (r, e))),
                _ => {}
            }
        }

        // ---- owner role ----
        fold_by_key(&mut deg_sum, |a, b| *a += *b);
        for &(v, dv) in &deg_sum {
            out.send(large, MatchNetMsg::DegUp(v, dv));
        }
        for (src, v) in deg_asks {
            let dv = sorted_get(&deg_sum, v).copied().unwrap_or(0);
            out.send(src, MatchNetMsg::DegAns(v, dv));
        }
        if !minima.is_empty() {
            fold_by_key(&mut minima, |acc, m| {
                if m.0 < acc.0 {
                    *acc = *m;
                }
            });
            for (v, (r, e)) in minima {
                for m in self.announcers.get(v) {
                    out.send(m, MatchNetMsg::MinAns(v, r, e));
                }
            }
            self.announcers.clear();
        }
        if !flag_asks.is_empty() {
            self.peel_flags.sort_unstable();
        }
        for (src, v) in flag_asks {
            let matched = self.peel_flags.binary_search(&v).is_ok();
            out.send(src, MatchNetMsg::FlagAns(v, matched));
        }
        if !p3_asks.is_empty() {
            self.p3_flags.sort_unstable();
        }
        for (src, v) in p3_asks {
            let matched = self.p3_flags.binary_search(&v).is_ok();
            out.send(src, MatchNetMsg::P3Ans(v, matched));
        }
        top_by_key(&mut cands, self.t, |re| re.0);
        for (v, (r, e)) in cands {
            out.send(large, MatchNetMsg::CandUp(v, r, e));
        }

        // ---- worker role: command handling ----
        match cmd {
            Some(MatchCmd::Finish) => return StepOutcome::Halt,
            Some(MatchCmd::Classify { threshold }) => {
                self.threshold = threshold as usize;
                // Low subgraph in shard order, then the one-time ranks —
                // the legacy draw order.
                let mut rng = ctx.rng();
                for (e, &[a, b]) in self.input.iter().zip(self.index.slots()) {
                    let du = self.deg_local[a as usize] as usize;
                    let dv = self.deg_local[b as usize] as usize;
                    if du <= self.threshold && dv <= self.threshold {
                        self.live.push((rng.random::<u64>(), *e));
                    }
                }
                out.send(large, MatchNetMsg::Count(self.live.len() as u64));
            }
            Some(MatchCmd::PeelIter) => {
                for (v, (r, e)) in local_vertex_minima(&self.live) {
                    out.send(self.owners.of(&v), MatchNetMsg::MinAnn(v, r, e));
                }
            }
            Some(MatchCmd::PeelDone) => {
                for e in &self.matched_here {
                    out.send(large, MatchNetMsg::MatchEdge(*e));
                }
            }
            Some(MatchCmd::Phase2 { t }) => {
                self.t = t as usize;
                // One rank per high-degree incidence, in shard order — the
                // legacy draw order.
                let mut groups: Vec<(VertexId, (u64, Edge))> = Vec::new();
                let mut rng = ctx.rng();
                for (e, &[a, b]) in self.input.iter().zip(self.index.slots()) {
                    for (v, slot) in [(e.u, a), (e.v, b)] {
                        if self.deg_local[slot as usize] as usize > self.threshold {
                            groups.push((v, (rng.random::<u64>(), *e)));
                        }
                    }
                }
                top_by_key(&mut groups, self.t, |re| re.0);
                for (v, (r, e)) in groups {
                    out.send(self.owners.of(&v), MatchNetMsg::Cand(v, r, e));
                }
            }
            Some(MatchCmd::Phase3) => {
                for &v in self.index.endpoints() {
                    out.send(self.owners.of(&v), MatchNetMsg::P3Ask(v));
                }
            }
            Some(MatchCmd::SendResidual) => {
                for e in self.residual.drain(..) {
                    out.send(large, MatchNetMsg::Residual(e));
                }
            }
            None => {}
        }

        // ---- worker role: inbox-triggered steps ----
        if !min_answers.is_empty() {
            // Winners matched; flags to the owners, prune lookups out.
            min_answers.sort_by_key(|&(v, _)| v);
            let won = winning_edges(&self.live, |v| sorted_get(&min_answers, v).copied());
            for e in &won {
                self.matched_here.push(*e);
                out.send(self.owners.of(&e.u), MatchNetMsg::MatchedFlag(e.u));
                out.send(self.owners.of(&e.v), MatchNetMsg::MatchedFlag(e.v));
            }
            let mut endpoints: Vec<VertexId> =
                self.live.iter().flat_map(|(_, e)| [e.u, e.v]).collect();
            endpoints.sort_unstable();
            endpoints.dedup();
            for v in endpoints {
                out.send(self.owners.of(&v), MatchNetMsg::FlagAsk(v));
            }
        }
        if got_flag_answers {
            dead.sort_unstable();
            let is_dead = |v: VertexId| dead.binary_search(&v).is_ok();
            self.live.retain(|(_, e)| !is_dead(e.u) && !is_dead(e.v));
            out.send(large, MatchNetMsg::Count(self.live.len() as u64));
        }
        if got_p3_answers {
            for (e, &[a, b]) in self.input.iter().zip(self.index.slots()) {
                if !p3_matched[a as usize] && !p3_matched[b as usize] {
                    self.residual.push(*e);
                }
            }
            out.send(large, MatchNetMsg::Count(self.residual.len() as u64));
        }

        out.into_step()
    }
}
