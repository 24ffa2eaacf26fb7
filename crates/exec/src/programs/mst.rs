//! [`MstProgram`]: the full heterogeneous MST algorithm (§3, Theorem 3.1 —
//! doubly-exponential Borůvka + KKT sampling finish) as a per-machine state
//! machine.
//!
//! This is the *same algorithm* as the legacy call-style
//! [`mpc_core::mst::heterogeneous_mst`], re-expressed in the coordinator
//! shape of the [`combinators`](crate::combinators) layer: the large
//! machine replays the legacy orchestrator's decisions through the shared
//! [`next_move`](mpc_core::mst::next_move) rule, and every small machine
//! draws its KKT sampling coins in exactly the legacy per-machine order —
//! so the resulting forest, the statistics, *and* the per-machine RNG
//! stream positions are bit-identical to the legacy path (asserted by the
//! registry equivalence tests). The forest itself is additionally forced
//! by the workspace's total edge order: the MSF is unique, so any exact
//! schedule must produce it.
//!
//! One contraction wave spans nine rounds, clocked from the round `W` at
//! which the smalls receive [`MstCmd::Wave`]. Collection and dedup go
//! through *group collectors* (the legacy Claim-2/Claim-4 two-stage
//! trees), so a hot vertex never concentrates its full multiplicity on one
//! machine:
//!
//! | round | who        | does |
//! |------:|------------|------|
//! | W     | smalls     | announce each current vertex's `k` locally-lightest edges to the vertex's group collector |
//! | W+1   | collectors | keep the `k` lightest per vertex, forward to the vertex's hash-owner |
//! | W+2   | owners     | keep the `k` globally-lightest per vertex, forward to the large machine |
//! | W+3   | large      | [`contract_lightest_lists`], send rename pairs to the owners |
//! | W+4   | owners     | route each rename to the collectors that forwarded its vertex |
//! | W+5   | collectors | route each rename to exactly the machines that announced its vertex |
//! | W+6   | smalls     | relabel, drop internals, send `(pair, original)` partials to the pair's collector |
//! | W+7   | collectors | pre-combine parallel pairs, forward to the pair's hash-owner |
//! | W+8   | owners     | dedup keeping the lightest — the new owner-sorted shards — report counts |
//! | W+9   | large      | update `(n', m')`, pick the next move via the shared rule |
//!
//! The KKT finish (sample → count → choose repetition → labels → F-light →
//! local MST) and the tiny-remainder direct gather mirror
//! [`mpc_core::mst::kkt`] step for step through the shared
//! `sample_probability` / `span_sample` / `finish_pool` functions.

use crate::combinators::{
    fold_by_key, grouped, keep_last, sender_group, sorted_get, top_by_key, Announcers, Outbox,
    Owners, RoleProgram,
};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::mst::{
    collection_budget, contract_lightest_lists, kkt, local_msf_finish, next_move, pair_to_tagged,
    relabel_pairs, MstConfig, MstError, MstMove, MstResult, MstStats,
};
use mpc_graph::mst::Forest;
use mpc_graph::{Edge, VertexId};
use mpc_labeling::{Label, MaxEdgeLabeling};
use mpc_runtime::payload::TaggedEdge;
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use rand::Rng;

/// Phase commands broadcast by the large machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MstCmd {
    /// Run one contraction wave with lightest-list length `k`.
    Wave {
        /// List length for this wave.
        k: u32,
    },
    /// Ship everything to the large machine (tiny remainder).
    Gather,
    /// Draw the KKT samples: `reps` repetitions at probability `p`.
    Sample {
        /// Sampling probability as `f64` bits (exact transport).
        p_bits: u64,
        /// Number of repetitions.
        reps: u32,
    },
    /// Ship the chosen repetition's sample and request labels.
    ChooseRep {
        /// The repetition that fit the budget.
        rep: u32,
    },
    /// The run is over; halt.
    Finish,
}

/// Messages of the MST program.
#[derive(Clone, Debug)]
pub enum MstNetMsg {
    /// Large → smalls: phase command.
    Cmd(MstCmd),
    /// Small → large: current local edge count after a relabel.
    Count(u64),
    /// Small → group collector: one entry of a vertex's locally-lightest
    /// list.
    Announce(VertexId, TaggedEdge),
    /// Collector → owner: a surviving lightest-list entry.
    AnnounceFwd(VertexId, TaggedEdge),
    /// Owner → large: one entry of a vertex's globally-lightest list.
    Collected(VertexId, TaggedEdge),
    /// Large → owner: a rename pair from the contraction.
    Rename(VertexId, VertexId),
    /// Owner → collectors: a rename pair, one routing hop down.
    RenameToC(VertexId, VertexId),
    /// Collector → announcers: a rename pair for a vertex this machine holds.
    RenameFwd(VertexId, VertexId),
    /// Small → group collector: relabeled `(pair, original)` dedup partial.
    Pair(u32, u32, Edge),
    /// Collector → owner: a combined `(pair, original)` partial.
    PairFwd(u32, u32, Edge),
    /// Small → large: a tagged edge (gather / sample / F-light shipment).
    Ship(TaggedEdge),
    /// Small → large: per-repetition KKT sample counts.
    SampleCounts(Vec<u64>),
    /// Small → owner: this machine needs the label of `v`.
    Need(VertexId),
    /// Owner → large: some machine needs the label of `v`.
    NeedUp(VertexId),
    /// Large → owner: the label of `v`.
    LabelPush(VertexId, Label),
    /// Owner → needers: the label of `v`.
    LabelAns(VertexId, Label),
}

impl Payload for MstNetMsg {
    fn words(&self) -> usize {
        match self {
            MstNetMsg::Cmd(MstCmd::Sample { .. }) => 3,
            MstNetMsg::Cmd(MstCmd::Wave { .. }) | MstNetMsg::Cmd(MstCmd::ChooseRep { .. }) => 2,
            MstNetMsg::Cmd(MstCmd::Gather) | MstNetMsg::Cmd(MstCmd::Finish) => 1,
            MstNetMsg::Count(_) | MstNetMsg::Need(_) | MstNetMsg::NeedUp(_) => 1,
            MstNetMsg::Announce(_, te)
            | MstNetMsg::AnnounceFwd(_, te)
            | MstNetMsg::Collected(_, te) => 1 + te.words(),
            MstNetMsg::Rename(_, _) | MstNetMsg::RenameToC(_, _) | MstNetMsg::RenameFwd(_, _) => 2,
            MstNetMsg::Pair(_, _, e) | MstNetMsg::PairFwd(_, _, e) => 2 + e.words(),
            MstNetMsg::Ship(te) => te.words(),
            MstNetMsg::SampleCounts(v) => v.words(),
            MstNetMsg::LabelPush(_, l) | MstNetMsg::LabelAns(_, l) => 1 + l.words(),
        }
    }
}

/// What the large machine is currently waiting for. Variants carry the
/// round at which their command was broadcast; every follow-up is a fixed
/// offset from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LargePhase {
    /// Round 0: issue the first command.
    Boot,
    /// Contract at `issued + 4`, post-relabel counts at `issued + 10`.
    Wave { issued: u64, k: usize },
    /// Remainder arrives at `issued + 2`.
    Gather { issued: u64 },
    /// Per-repetition sample counts arrive at `issued + 2`.
    SampleCounts { issued: u64 },
    /// Sample at `issued + 2`, needs at `+3`, F-light edges at `+6`.
    Kkt { issued: u64, rep: usize },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the heterogeneous MST program.
#[derive(Clone)]
pub struct MstProgram {
    n: usize,
    config: MstConfig,
    owners: Owners,
    // ---- small-machine state ----
    /// Current contracted edges: initially the input shard, after each wave
    /// the owner-sorted deduplicated pairs — exactly the legacy shard
    /// content and order, which is what makes the KKT coin flips align.
    local: Vec<TaggedEdge>,
    /// Collector role: which machines announced each vertex this wave.
    announcers: Announcers<VertexId>,
    /// Owner role: which collectors forwarded each vertex this wave.
    collectors_of: Announcers<VertexId>,
    /// Owner role: who needs each label (KKT).
    needers: Announcers<VertexId>,
    /// Worker clock: round at which `Wave` was received, plus its `k`.
    wave: Option<(u64, usize)>,
    /// KKT samples, one per repetition, until a repetition is chosen.
    samples: Vec<Vec<TaggedEdge>>,
    // ---- large-machine state ----
    phase: LargePhase,
    budget: usize,
    m_cur: usize,
    n_cur: usize,
    chosen: Vec<Edge>,
    stats: MstStats,
    /// KKT pool: the gathered sample, later extended with F-light edges.
    pool: Vec<TaggedEdge>,
    /// Set on the large machine when it halts.
    pub result: Option<Result<MstResult, MstError>>,
}

impl MstProgram {
    /// Builds one program per machine, lifting `edges` into tagged form
    /// exactly like the legacy entry point.
    pub fn for_cluster_with(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        config: &MstConfig,
    ) -> Vec<Self> {
        let large = cluster.large().expect("MST requires a large machine");
        let owners = Owners::of_cluster(cluster);
        assert!(!owners.ids().is_empty(), "MST requires small machines");
        let budget = collection_budget(cluster.capacity(large));
        let m0 = edges.total_len();
        (0..cluster.machines())
            .map(|mid| MstProgram {
                n,
                config: config.clone(),
                owners: owners.clone(),
                local: edges
                    .shard(mid)
                    .iter()
                    .map(|&e| TaggedEdge::identity(e.normalized()))
                    .collect(),
                announcers: Announcers::default(),
                collectors_of: Announcers::default(),
                needers: Announcers::default(),
                wave: None,
                samples: Vec::new(),
                phase: LargePhase::Boot,
                budget,
                m_cur: m0,
                n_cur: n,
                chosen: Vec::new(),
                stats: MstStats::default(),
                pool: Vec::new(),
                result: None,
            })
            .collect()
    }

    /// Issues the next orchestration move — the shared legacy decision rule.
    fn issue_next(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MstNetMsg>) {
        match next_move(
            self.m_cur,
            self.n_cur,
            self.stats.boruvka_steps,
            self.budget,
            &self.config,
        ) {
            MstMove::FinishGather => {
                self.phase = LargePhase::Gather { issued: ctx.round };
                out.broadcast(ctx.small_ids_iter(), MstNetMsg::Cmd(MstCmd::Gather));
            }
            MstMove::Kkt => {
                let p = kkt::sample_probability(self.budget, self.m_cur.max(1));
                self.phase = LargePhase::SampleCounts { issued: ctx.round };
                out.broadcast(
                    ctx.small_ids_iter(),
                    MstNetMsg::Cmd(MstCmd::Sample {
                        p_bits: p.to_bits(),
                        reps: self.config.kkt_repetitions as u32,
                    }),
                );
            }
            MstMove::Wave { k } => {
                self.phase = LargePhase::Wave {
                    issued: ctx.round,
                    k,
                };
                out.broadcast(
                    ctx.small_ids_iter(),
                    MstNetMsg::Cmd(MstCmd::Wave { k: k as u32 }),
                );
            }
        }
    }

    /// Finalizes the run on the large machine and broadcasts `Finish`.
    fn finish(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MstNetMsg>) {
        let mut chosen = std::mem::take(&mut self.chosen);
        chosen.sort_by_key(Edge::weight_key);
        chosen.dedup();
        self.result = Some(Ok(MstResult {
            forest: Forest::from_edges(chosen),
            stats: std::mem::take(&mut self.stats),
        }));
        self.phase = LargePhase::Done;
        out.broadcast(ctx.small_ids_iter(), MstNetMsg::Cmd(MstCmd::Finish));
    }

    /// Extracts the `Ship`ped tagged edges of an inbox, in arrival order
    /// (ascending source, then send order — the legacy gather order).
    fn shipped(inbox: Vec<(MachineId, MstNetMsg)>) -> Vec<TaggedEdge> {
        inbox
            .into_iter()
            .filter_map(|(_, m)| match m {
                MstNetMsg::Ship(te) => Some(te),
                _ => None,
            })
            .collect()
    }
}

impl RoleProgram for MstProgram {
    type Message = MstNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstNetMsg)>,
    ) -> StepOutcome<MstNetMsg> {
        let mut out = Outbox::new();
        match self.phase {
            LargePhase::Boot => self.issue_next(ctx, &mut out),
            LargePhase::Wave { issued, k } => {
                if ctx.round == issued + 4 {
                    // Collected lists are in: contract locally.
                    let mut entries: Vec<(VertexId, TaggedEdge)> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            MstNetMsg::Collected(v, te) => Some((v, te)),
                            _ => None,
                        })
                        .collect();
                    top_by_key(&mut entries, k, |te| te.orig.weight_key());
                    let lists = grouped(&entries);
                    ctx.charge(lists.len() as u64);
                    let outcome = contract_lightest_lists(lists, k);
                    self.stats.boruvka_steps += 1;
                    self.chosen.extend(outcome.chosen);
                    self.n_cur = outcome.new_vertex_count.max(1);
                    for (old, new) in outcome.rename {
                        if old != new {
                            out.send(self.owners.of(&old), MstNetMsg::Rename(old, new));
                        }
                    }
                } else if ctx.round == issued + 10 {
                    // Post-relabel counts are in: update m' and decide.
                    self.m_cur = inbox
                        .iter()
                        .map(|(_, m)| match m {
                            MstNetMsg::Count(c) => *c as usize,
                            _ => 0,
                        })
                        .sum();
                    self.stats.contraction_trace.push((self.n_cur, self.m_cur));
                    if self.m_cur == 0 {
                        self.stats.finished_by_direct_gather = true;
                        self.finish(ctx, &mut out);
                    } else {
                        self.issue_next(ctx, &mut out);
                    }
                }
            }
            LargePhase::Gather { issued } => {
                if ctx.round == issued + 2 {
                    let rest = Self::shipped(inbox);
                    ctx.charge(rest.len() as u64);
                    self.chosen.extend(local_msf_finish(self.n, &rest));
                    self.stats.finished_by_direct_gather = true;
                    self.finish(ctx, &mut out);
                }
            }
            LargePhase::SampleCounts { issued } => {
                if ctx.round == issued + 2 {
                    let reps = self.config.kkt_repetitions;
                    let mut totals = vec![0u64; reps];
                    for (_src, msg) in inbox {
                        if let MstNetMsg::SampleCounts(counts) = msg {
                            for (t, c) in totals.iter_mut().zip(counts) {
                                *t += c;
                            }
                        }
                    }
                    match totals.iter().position(|&c| (c as usize) <= self.budget) {
                        Some(rep) => {
                            self.phase = LargePhase::Kkt {
                                issued: ctx.round,
                                rep,
                            };
                            out.broadcast(
                                ctx.small_ids_iter(),
                                MstNetMsg::Cmd(MstCmd::ChooseRep { rep: rep as u32 }),
                            );
                        }
                        None => {
                            self.result = Some(Err(MstError::SamplingFailed));
                            self.phase = LargePhase::Done;
                            out.broadcast(ctx.small_ids_iter(), MstNetMsg::Cmd(MstCmd::Finish));
                        }
                    }
                }
            }
            LargePhase::Kkt { issued, rep } => {
                if ctx.round == issued + 2 {
                    // The chosen sample arrives (gather order).
                    self.pool = Self::shipped(inbox);
                } else if ctx.round == issued + 3 {
                    // Distinct label needs arrive; span the sample, push
                    // the needed labels to their owners.
                    let mut needed: Vec<VertexId> = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MstNetMsg::NeedUp(v) => Some(*v),
                            _ => None,
                        })
                        .collect();
                    needed.sort_unstable();
                    needed.dedup();
                    let (_msf, labeling) = kkt::span_sample(self.n, &self.pool);
                    ctx.charge((self.pool.len() + self.n) as u64);
                    for v in needed {
                        out.send(
                            self.owners.of(&v),
                            MstNetMsg::LabelPush(v, labeling.label(v).clone()),
                        );
                    }
                } else if ctx.round == issued + 6 {
                    // The F-light edges arrive; finish locally.
                    let lights = Self::shipped(inbox);
                    self.stats.kkt_rep_used = Some(rep);
                    self.stats.f_light_edges = lights.len();
                    self.pool.extend(lights);
                    ctx.charge(self.pool.len() as u64);
                    let pool = std::mem::take(&mut self.pool);
                    self.chosen.extend(kkt::finish_pool(self.n, &pool));
                    self.finish(ctx, &mut out);
                }
            }
            LargePhase::Done => return StepOutcome::Halt,
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstNetMsg)>,
    ) -> StepOutcome<MstNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");
        // Owner-side scratch filled from this round's inbox.
        let mut cmd: Option<MstCmd> = None;
        let mut renames: Vec<(VertexId, VertexId)> = Vec::new();
        let mut pair_dedup: Vec<((u32, u32), Edge)> = Vec::new();
        let mut announce_lists: Vec<(VertexId, TaggedEdge)> = Vec::new();
        let mut needs: Vec<VertexId> = Vec::new();
        let mut labels: Vec<(VertexId, Label)> = Vec::new();
        let mut routed_labels = false;

        let mut fwd_lists: Vec<(VertexId, TaggedEdge)> = Vec::new();
        let mut pair_combine: Vec<((u32, u32), Edge)> = Vec::new();
        for (src, msg) in inbox {
            match msg {
                MstNetMsg::Cmd(c) => cmd = Some(c),
                // Collector role: group announces per vertex.
                MstNetMsg::Announce(v, te) => {
                    self.announcers.note(v, src);
                    announce_lists.push((v, te));
                }
                // Owner role: group the collectors' survivors per vertex.
                MstNetMsg::AnnounceFwd(v, te) => {
                    self.collectors_of.note(v, src);
                    fwd_lists.push((v, te));
                }
                // Owner role: route each rename one hop down the tree.
                MstNetMsg::Rename(old, new) => {
                    for m in self.collectors_of.get(old) {
                        out.send(m, MstNetMsg::RenameToC(old, new));
                    }
                }
                // Collector role: route each rename to the announcers.
                MstNetMsg::RenameToC(old, new) => {
                    for m in self.announcers.get(old) {
                        out.send(m, MstNetMsg::RenameFwd(old, new));
                    }
                }
                // Worker role: collect the renames for this round's relabel.
                MstNetMsg::RenameFwd(old, new) => renames.push((old, new)),
                // Collector role: pre-combine pair partials.
                MstNetMsg::Pair(a, b, orig) => pair_combine.push(((a, b), orig)),
                // Owner role: final pair dedup (the new shard).
                MstNetMsg::PairFwd(a, b, orig) => pair_dedup.push(((a, b), orig)),
                MstNetMsg::Need(v) => {
                    self.needers.note(v, src);
                    needs.push(v);
                }
                MstNetMsg::LabelPush(v, l) => {
                    routed_labels = true;
                    for m in self.needers.get(v) {
                        out.send(m, MstNetMsg::LabelAns(v, l.clone()));
                    }
                }
                MstNetMsg::LabelAns(v, l) => labels.push((v, l)),
                _ => {}
            }
        }

        let k = self.wave.map_or(1, |(_, k)| k);
        let keep_lighter = |best: &mut Edge, orig: &Edge| {
            if orig.weight_key() < best.weight_key() {
                *best = *orig;
            }
        };
        // Collector role: truncate each vertex's list to the k survivors
        // and forward them to the vertex's hash-owner.
        top_by_key(&mut announce_lists, k, |te| te.orig.weight_key());
        for (v, te) in announce_lists {
            out.send(self.owners.of(&v), MstNetMsg::AnnounceFwd(v, te));
        }
        // Owner role: forward each vertex's globally-lightest list.
        top_by_key(&mut fwd_lists, k, |te| te.orig.weight_key());
        for (v, te) in fwd_lists {
            out.send(large, MstNetMsg::Collected(v, te));
        }
        // Collector role: forward the combined pair partials to the owners.
        fold_by_key(&mut pair_combine, keep_lighter);
        for ((a, b), orig) in pair_combine {
            out.send(self.owners.of(&(a, b)), MstNetMsg::PairFwd(a, b, orig));
        }
        // Owner role: forward distinct label needs to the large machine.
        needs.sort_unstable();
        needs.dedup();
        for v in needs {
            out.send(large, MstNetMsg::NeedUp(v));
        }
        if routed_labels {
            self.needers.clear();
        }

        // Worker role: command handling.
        match cmd {
            Some(MstCmd::Finish) => return StepOutcome::Halt,
            Some(MstCmd::Wave { k }) => {
                self.wave = Some((ctx.round, k as usize));
                self.announcers.clear();
                self.collectors_of.clear();
                // Announce each current vertex's k locally-lightest edges
                // to the vertex's group collector (Claim-4 tree, stage 1).
                let group = sender_group(ctx.mid, ctx.machines);
                let mut lists: Vec<(VertexId, TaggedEdge)> = self
                    .local
                    .iter()
                    .flat_map(|te| [(te.cur.u, *te), (te.cur.v, *te)])
                    .collect();
                top_by_key(&mut lists, k as usize, |te| te.orig.weight_key());
                ctx.charge(self.local.len() as u64);
                for (v, te) in lists {
                    out.send(
                        self.owners.collector_of(&v, group),
                        MstNetMsg::Announce(v, te),
                    );
                }
            }
            Some(MstCmd::Gather) => {
                for te in self.local.drain(..) {
                    out.send(large, MstNetMsg::Ship(te));
                }
                self.wave = None;
            }
            Some(MstCmd::Sample { p_bits, reps }) => {
                // The legacy per-machine draw order: repetition-major over
                // the shard — bit-identical RNG consumption.
                let p = f64::from_bits(p_bits);
                let mut rng = ctx.rng();
                self.samples = (0..reps as usize)
                    .map(|_| {
                        let mut keep = Vec::new();
                        for te in &self.local {
                            if rng.random_bool(p) {
                                keep.push(*te);
                            }
                        }
                        keep
                    })
                    .collect();
                let counts: Vec<u64> = self.samples.iter().map(|s| s.len() as u64).collect();
                out.send(large, MstNetMsg::SampleCounts(counts));
            }
            Some(MstCmd::ChooseRep { rep }) => {
                let samples = std::mem::take(&mut self.samples);
                for te in &samples[rep as usize] {
                    out.send(large, MstNetMsg::Ship(*te));
                }
                // Request labels for this machine's current endpoints
                // (sorted and deduplicated, the legacy request shape).
                let mut endpoints: Vec<VertexId> = self
                    .local
                    .iter()
                    .flat_map(|te| [te.cur.u, te.cur.v])
                    .collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                for v in endpoints {
                    out.send(self.owners.of(&v), MstNetMsg::Need(v));
                }
            }
            None => {}
        }

        // Worker clock: relabel at wave+6 (renames took two routing hops),
        // rebuild the shard and report counts at wave+8 (pairs took two).
        if let Some((w, _k)) = self.wave {
            if ctx.round == w + 6 {
                let local = std::mem::take(&mut self.local);
                let group = sender_group(ctx.mid, ctx.machines);
                fold_by_key(&mut renames, keep_last);
                let rename = |v: VertexId| sorted_get(&renames, v).copied().unwrap_or(v);
                for ((a, b), orig) in relabel_pairs(&local, rename) {
                    out.send(
                        self.owners.collector_of(&(a, b), group),
                        MstNetMsg::Pair(a, b, orig),
                    );
                }
                ctx.charge(local.len() as u64);
            } else if ctx.round == w + 8 {
                // Owner role: the deduplicated pairs become the new shard
                // (sorted by pair key — the legacy owner-shard order).
                fold_by_key(&mut pair_dedup, keep_lighter);
                self.local = pair_dedup
                    .into_iter()
                    .map(|(pair, orig)| pair_to_tagged(pair, orig))
                    .collect();
                self.wave = None;
                out.send(large, MstNetMsg::Count(self.local.len() as u64));
            }
        }

        // KKT F-light filtering: triggered by label answers arriving.
        if !labels.is_empty() {
            labels.sort_by_key(|&(v, _)| v);
            for te in &self.local {
                let (Some(lu), Some(lv)) =
                    (sorted_get(&labels, te.cur.u), sorted_get(&labels, te.cur.v))
                else {
                    out.send(large, MstNetMsg::Ship(*te));
                    continue;
                };
                if MaxEdgeLabeling::is_f_light(lu, lv, &te.cur) {
                    out.send(large, MstNetMsg::Ship(*te));
                }
            }
            ctx.charge(self.local.len() as u64);
        }

        out.into_step()
    }
}
