//! [`MinCutProgram`]: the `O(1)`-round exact unweighted minimum cut
//! (Theorem C.3 — 2-out contraction + random-sampling contraction + a local
//! minimum cut of the contracted multigraph) as a per-machine state
//! machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::ported::heterogeneous_min_cut`], in the coordinator shape of
//! the [`combinators`](crate::combinators) layer. All randomness lives on
//! the *small* machines (two edge ranks per local edge, then one
//! `Bernoulli(1/(2δ))` draw per surviving inter-component edge — the legacy
//! per-machine order); the large machine draws nothing, contracts, and takes
//! the contracted multigraph's minimum cut value locally
//! (`mpc_graph::mincut::min_cut_weight`; only the value is read, never a
//! side). Top-2 rank selection and pair-multiplicity
//! aggregation route through the legacy primitives' group-collector trees
//! ([`Owners::collector_of`]), so no machine ever receives a hot key's full
//! multiplicity. Results, statistics, and RNG stream positions are
//! bit-identical to the legacy path.
//!
//! One trial (`Trial` broadcast at round `R`):
//!
//! | round | who | does |
//! |------:|-----|------|
//! | R+1   | smalls | rank every edge twice, local top-2 per vertex → collectors |
//! | R+2/3 | collectors/owners | re-truncate top-2, owners → large |
//! | R+4   | large  | contract 2-out; labels → owners |
//! | R+5   | owners | labels → registered announcers |
//! | R+6   | smalls | sample crossing edges w.p. `1/(2δ)` → large |
//! | R+7/8 | large/owners | second contraction; labels back out |
//! | R+9–11| smalls/collectors/owners | pair multiplicities aggregate up |
//! | R+12  | large  | min-cut value of the multigraph; next trial or finish |

use crate::combinators::{
    announce_degrees, fold_by_key, sender_group, top_by_key, Announcers, EndpointIndex, Outbox,
    Owners, RoleProgram,
};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::ported::mincut_exact::{
    evaluate_contraction, step2_probability, MinCutResult, TrialOutcome,
};
use mpc_graph::{DisjointSets, Edge, VertexId};
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use rand::Rng;
use std::sync::Arc;

/// Phase commands broadcast by the large machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MinCutCmd {
    /// Start one contraction trial (`delta` = min degree, for the sampling
    /// probability).
    Trial {
        /// The minimum degree δ.
        delta: u32,
    },
    /// The run is over; halt.
    Finish,
}

/// Messages of the exact min-cut program.
#[derive(Clone, Copy, Debug)]
pub enum MinCutNetMsg {
    /// Large → smalls: phase command.
    Cmd(MinCutCmd),
    /// Small → owner: partial degree count of a vertex.
    DegPartial(VertexId, u32),
    /// Owner → large: final degree of a vertex.
    DegUp(VertexId, u32),
    /// Small → owner: this machine stores edges of `v` (label routing).
    Register(VertexId),
    /// Small → collector: a locally-top-2 ranked incident edge of `v`.
    TwoOutC(VertexId, u64, Edge),
    /// Collector → owner: a group-top-2 ranked incident edge of `v`.
    TwoOutO(VertexId, u64, Edge),
    /// Owner → large: a globally-top-2 incident edge of `v`.
    TwoOutUp(VertexId, u64, Edge),
    /// First-wave component label of `v` (large → owner → announcers).
    LabelA(VertexId, VertexId),
    /// Small → large: a sampled surviving inter-component edge.
    Sampled(Edge),
    /// Second-wave component label of `v` (large → owner → announcers).
    LabelB(VertexId, VertexId),
    /// Small → collector: partial multiplicity of a contracted pair.
    PairC((u32, u32), u64),
    /// Collector → owner: partial multiplicity of a contracted pair.
    PairO((u32, u32), u64),
    /// Owner → large: final multiplicity of a contracted pair.
    PairUp((u32, u32), u64),
}

impl Payload for MinCutNetMsg {
    fn words(&self) -> usize {
        match self {
            MinCutNetMsg::Cmd(MinCutCmd::Trial { .. }) => 2,
            MinCutNetMsg::Cmd(_) | MinCutNetMsg::Register(_) => 1,
            MinCutNetMsg::DegPartial(_, _)
            | MinCutNetMsg::DegUp(_, _)
            | MinCutNetMsg::LabelA(_, _)
            | MinCutNetMsg::LabelB(_, _) => 2,
            MinCutNetMsg::TwoOutC(_, _, e)
            | MinCutNetMsg::TwoOutO(_, _, e)
            | MinCutNetMsg::TwoOutUp(_, _, e) => 2 + e.words(),
            MinCutNetMsg::Sampled(e) => e.words(),
            MinCutNetMsg::PairC(_, _) | MinCutNetMsg::PairO(_, _) | MinCutNetMsg::PairUp(_, _) => 3,
        }
    }
}

/// What the large machine is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LPhase {
    /// Degree reports arrive at round 2.
    Degrees,
    /// `Trial` issued at `issued`: the 2-out edges arrive at `issued + 4`,
    /// sampled edges at `issued + 7`, pair multiplicities at `issued + 12`.
    Trial { issued: u64 },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the exact min-cut program.
#[derive(Clone)]
pub struct MinCutProgram {
    n: usize,
    trials: usize,
    owners: Owners,
    // ---- small-machine state ----
    /// The input shard.
    input: Vec<Edge>,
    /// Endpoint index of `input`.
    index: Arc<EndpointIndex>,
    /// Labels of this shard's endpoints (parallel to `index.endpoints()`),
    /// refreshed each dissemination wave.
    labels: Vec<VertexId>,
    /// δ from the trial command (drives the sampling probability).
    delta: u32,
    /// Round the `Trial` command arrived (drives the worker clock).
    trial_round: Option<u64>,
    /// Owner role: which machines hold edges of each owned vertex.
    announcers: Announcers<VertexId>,
    // ---- large-machine state ----
    phase: LPhase,
    dsu: Option<DisjointSets>,
    /// Contracted component count after both steps of the current trial.
    contracted: usize,
    best: u128,
    singleton: bool,
    trial_sizes: Vec<(usize, usize)>,
    trial_idx: usize,
    /// Set on the large machine when it halts.
    pub result: Option<MinCutResult>,
}

impl MinCutProgram {
    /// Builds one program per machine over the sharded input edges.
    pub fn for_cluster(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        trials: usize,
    ) -> Vec<Self> {
        let owners = Owners::of_cluster(cluster);
        let large = cluster.large().expect("min cut requires a large machine");
        assert!(!owners.ids().is_empty(), "min cut requires small machines");
        assert!(
            edges.shard(large).is_empty(),
            "engine programs expect the input on the small machines only \
             (see common::distribute_edges); the large machine's shard would \
             be silently ignored"
        );
        (0..cluster.machines())
            .map(|mid| {
                let index = EndpointIndex::build(edges.shard(mid));
                MinCutProgram {
                    n,
                    trials,
                    owners: owners.clone(),
                    input: edges.shard(mid).to_vec(),
                    labels: index.table(0),
                    index: Arc::new(index),
                    delta: 0,
                    trial_round: None,
                    announcers: Announcers::default(),
                    phase: LPhase::Degrees,
                    dsu: None,
                    contracted: 0,
                    best: 0,
                    singleton: true,
                    trial_sizes: Vec::new(),
                    trial_idx: 0,
                    result: None,
                }
            })
            .collect()
    }

    /// Broadcasts the next trial or finishes — the legacy `for _trial in
    /// 0..trials` loop head, replayed by the coordinator.
    fn advance(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MinCutNetMsg>) {
        if self.trial_idx < self.trials {
            self.trial_idx += 1;
            out.broadcast(
                ctx.small_ids_iter(),
                MinCutNetMsg::Cmd(MinCutCmd::Trial { delta: self.delta }),
            );
            self.phase = LPhase::Trial { issued: ctx.round };
        } else {
            self.result = Some(MinCutResult {
                value: self.best,
                singleton: self.singleton,
                trial_sizes: std::mem::take(&mut self.trial_sizes),
            });
            out.broadcast(ctx.small_ids_iter(), MinCutNetMsg::Cmd(MinCutCmd::Finish));
            self.phase = LPhase::Done;
        }
    }

    /// Routes the fresh component labels to the owners of every vertex.
    fn push_labels(
        &mut self,
        out: &mut Outbox<MinCutNetMsg>,
        make: impl Fn(VertexId, VertexId) -> MinCutNetMsg,
    ) {
        let dsu = self.dsu.as_mut().expect("dsu built this trial");
        let labels = mpc_graph::traversal::components_from_dsu(dsu);
        self.contracted = labels.count;
        for v in 0..self.n as VertexId {
            out.send(self.owners.of(&v), make(v, labels.label[v as usize]));
        }
    }
}

impl RoleProgram for MinCutProgram {
    type Message = MinCutNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MinCutNetMsg)>,
    ) -> StepOutcome<MinCutNetMsg> {
        let mut out = Outbox::new();
        match self.phase {
            LPhase::Degrees => {
                if ctx.round == 2 {
                    self.delta = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MinCutNetMsg::DegUp(_, d) => Some(*d),
                            _ => None,
                        })
                        .min()
                        .unwrap_or(0)
                        .max(1);
                    self.best = u128::from(self.delta);
                    self.singleton = true;
                    self.advance(ctx, &mut out);
                }
            }
            LPhase::Trial { issued } => {
                if ctx.round == issued + 4 {
                    // Step 1: contract the 2-out sample.
                    let mut dsu = DisjointSets::new(self.n);
                    for (_src, m) in &inbox {
                        if let MinCutNetMsg::TwoOutUp(_, _, e) = m {
                            dsu.union(e.u, e.v);
                        }
                    }
                    self.dsu = Some(dsu);
                    self.push_labels(&mut out, MinCutNetMsg::LabelA);
                } else if ctx.round == issued + 7 {
                    // Step 2: contract the sampled surviving edges.
                    let dsu = self.dsu.as_mut().expect("dsu built this trial");
                    for (_src, m) in &inbox {
                        if let MinCutNetMsg::Sampled(e) = m {
                            dsu.union(e.u, e.v);
                        }
                    }
                    self.push_labels(&mut out, MinCutNetMsg::LabelB);
                } else if ctx.round == issued + 12 {
                    // Step 3: minimum cut of the contracted multigraph.
                    let mut pairs: Vec<((u32, u32), u64)> = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MinCutNetMsg::PairUp(p, c) => Some((*p, *c)),
                            _ => None,
                        })
                        .collect();
                    fold_by_key(&mut pairs, |a, b| *a += *b);
                    ctx.charge(pairs.len() as u64 * 3);
                    let (sizes, outcome) = evaluate_contraction(self.contracted, &pairs);
                    self.trial_sizes.push(sizes);
                    match outcome {
                        TrialOutcome::TooSmall => {}
                        TrialOutcome::Cut(w) => {
                            if w < self.best {
                                self.best = w;
                                self.singleton = false;
                            }
                        }
                        TrialOutcome::Disconnected => {
                            self.best = 0;
                            self.singleton = false;
                        }
                    }
                    self.advance(ctx, &mut out);
                }
            }
            LPhase::Done => return StepOutcome::Halt,
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MinCutNetMsg)>,
    ) -> StepOutcome<MinCutNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        // Round 0: kick off degrees and register as an announcer of every
        // endpoint, so owners can route label waves back without per-wave
        // request rounds.
        if ctx.round == 0 {
            announce_degrees(
                &mut out,
                &self.owners,
                &self.index,
                MinCutNetMsg::DegPartial,
            );
            for &v in self.index.endpoints() {
                out.send(self.owners.of(&v), MinCutNetMsg::Register(v));
            }
        }

        // Two-pass inbox handling: stores first, then routing, so owner
        // forwards always reflect this round's pushed state.
        let mut cmd: Option<MinCutCmd> = None;
        let mut deg_sum: Vec<(VertexId, u32)> = Vec::new();
        let mut two_out_c: Vec<(VertexId, (u64, Edge))> = Vec::new();
        let mut two_out_o: Vec<(VertexId, (u64, Edge))> = Vec::new();
        let mut label_a_fwd: Vec<(VertexId, VertexId)> = Vec::new();
        let mut label_b_fwd: Vec<(VertexId, VertexId)> = Vec::new();
        let mut pair_c: Vec<((u32, u32), u64)> = Vec::new();
        let mut pair_o: Vec<((u32, u32), u64)> = Vec::new();

        for (src, msg) in inbox {
            match msg {
                MinCutNetMsg::Cmd(c) => cmd = Some(c),
                MinCutNetMsg::DegPartial(v, c) => deg_sum.push((v, c)),
                MinCutNetMsg::Register(v) => self.announcers.note(v, src),
                MinCutNetMsg::TwoOutC(v, r, e) => two_out_c.push((v, (r, e))),
                MinCutNetMsg::TwoOutO(v, r, e) => two_out_o.push((v, (r, e))),
                MinCutNetMsg::LabelA(v, l) | MinCutNetMsg::LabelB(v, l) if src != large => {
                    self.labels[self.index.slot_of(v)] = l;
                }
                MinCutNetMsg::LabelA(v, l) => label_a_fwd.push((v, l)),
                MinCutNetMsg::LabelB(v, l) => label_b_fwd.push((v, l)),
                MinCutNetMsg::PairC(p, c) => pair_c.push((p, c)),
                MinCutNetMsg::PairO(p, c) => pair_o.push((p, c)),
                _ => {}
            }
        }

        // ---- owner/collector roles ----
        fold_by_key(&mut deg_sum, |a, b| *a += *b);
        for (v, d) in deg_sum {
            out.send(large, MinCutNetMsg::DegUp(v, d));
        }
        top_by_key(&mut two_out_c, 2, |x| x.0);
        for (v, (r, e)) in two_out_c {
            out.send(self.owners.of(&v), MinCutNetMsg::TwoOutO(v, r, e));
        }
        top_by_key(&mut two_out_o, 2, |x| x.0);
        for (v, (r, e)) in two_out_o {
            out.send(large, MinCutNetMsg::TwoOutUp(v, r, e));
        }
        for (v, l) in label_a_fwd {
            for m in self.announcers.get(v) {
                out.send(m, MinCutNetMsg::LabelA(v, l));
            }
        }
        for (v, l) in label_b_fwd {
            for m in self.announcers.get(v) {
                out.send(m, MinCutNetMsg::LabelB(v, l));
            }
        }
        fold_by_key(&mut pair_c, |a, b| *a += *b);
        for (p, c) in pair_c {
            out.send(self.owners.of(&p), MinCutNetMsg::PairO(p, c));
        }
        fold_by_key(&mut pair_o, |a, b| *a += *b);
        for (p, c) in pair_o {
            out.send(large, MinCutNetMsg::PairUp(p, c));
        }

        // ---- worker role: command handling ----
        match cmd {
            Some(MinCutCmd::Finish) => return StepOutcome::Halt,
            Some(MinCutCmd::Trial { delta }) => {
                self.delta = delta;
                self.trial_round = Some(ctx.round);
                // Step 1: two random ranks per local edge, in shard order —
                // the legacy per-machine draw order — then local top-2 per
                // incident vertex toward the collector tree.
                let mut items: Vec<(VertexId, (u64, Edge))> =
                    Vec::with_capacity(2 * self.input.len());
                {
                    let mut rng = ctx.rng();
                    for e in &self.input {
                        let r1 = rng.random::<u64>();
                        let r2 = rng.random::<u64>();
                        items.push((e.u, (r1, *e)));
                        items.push((e.v, (r2, *e)));
                    }
                }
                top_by_key(&mut items, 2, |x| x.0);
                let group = sender_group(ctx.mid, ctx.machines);
                for (v, (r, e)) in items {
                    out.send(
                        self.owners.collector_of(&v, group),
                        MinCutNetMsg::TwoOutC(v, r, e),
                    );
                }
                ctx.charge(self.input.len() as u64 * 2);
            }
            None => {}
        }

        // ---- worker role: the label-wave clock ----
        if let Some(t) = self.trial_round {
            if ctx.round == t + 5 {
                // First-wave labels are in: sample each surviving
                // inter-component edge w.p. 1/(2δ), in shard order (the
                // legacy draw order).
                let p = step2_probability(self.delta);
                let mut rng = ctx.rng();
                for (e, &[a, b]) in self.input.iter().zip(self.index.slots()) {
                    if self.labels[a as usize] != self.labels[b as usize] && rng.random_bool(p) {
                        out.send(large, MinCutNetMsg::Sampled(*e));
                    }
                }
            }
            if ctx.round == t + 8 {
                // Second-wave labels are in: aggregate the contracted
                // multigraph's pair multiplicities toward the collectors.
                let mut partial: Vec<((u32, u32), u64)> = Vec::with_capacity(self.input.len());
                for &[a, b] in self.index.slots() {
                    let (a, b) = (self.labels[a as usize], self.labels[b as usize]);
                    if a != b {
                        partial.push(((a.min(b), a.max(b)), 1));
                    }
                }
                fold_by_key(&mut partial, |a, b| *a += *b);
                let group = sender_group(ctx.mid, ctx.machines);
                for (p, c) in partial {
                    out.send(
                        self.owners.collector_of(&p, group),
                        MinCutNetMsg::PairC(p, c),
                    );
                }
                self.trial_round = None;
            }
        }

        out.into_step()
    }
}
