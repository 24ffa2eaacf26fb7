//! [`ColoringProgram`]: the `O(1)`-round (Δ+1)-coloring (Theorem C.7 —
//! palette sampling + conflict-graph list coloring) as a per-machine state
//! machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::ported::heterogeneous_coloring`], in the coordinator shape
//! of the [`combinators`](crate::combinators) layer. All randomness lives
//! on the large machine (the palette seed, then the list-coloring order per
//! attempt — the legacy draw order); the small machines derive palettes
//! from the broadcast seed via the deterministic per-vertex PRF
//! ([`palette`](mpc_core::ported::coloring::palette)) and ship only the
//! conflict edges, so results, statistics, and RNG stream positions are
//! bit-identical to the legacy path.
//!
//! Flow: degrees up (rounds 0–2), then per attempt: `Attempt{seed}`
//! broadcast → conflict edges gathered two rounds later → local list
//! coloring. A failed attempt restarts with a fresh seed; after
//! [`MAX_RESTARTS`](mpc_core::ported::coloring::MAX_RESTARTS) the whole
//! graph is gathered and greedy-colored (the legacy fallback).

use crate::combinators::{
    announce_degrees, fold_by_key, EndpointIndex, Outbox, Owners, RoleProgram,
};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::ported::coloring::{
    attempt_coloring, edge_conflicts, palette_size_for, ColoringResult, MAX_RESTARTS,
};
use mpc_graph::{Edge, VertexId};
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use rand::seq::SliceRandom;
use rand::Rng;

/// Phase commands broadcast by the large machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorCmd {
    /// Derive palettes under `seed`, ship the conflict edges.
    Attempt {
        /// The palette seed of this attempt.
        seed: u64,
        /// The maximum degree Δ (palettes sample from `{0, …, Δ}`).
        delta: u32,
    },
    /// Too many restarts: ship the whole shard (fallback).
    SendAll,
    /// The run is over; halt.
    Finish,
}

/// Messages of the coloring program.
#[derive(Clone, Copy, Debug)]
pub enum ColorNetMsg {
    /// Large → smalls: phase command.
    Cmd(ColorCmd),
    /// Small → owner: partial degree count of a vertex.
    DegPartial(VertexId, u32),
    /// Owner → large: final degree of a vertex.
    DegUp(VertexId, u32),
    /// Small → large: a conflict edge.
    Conflict(Edge),
    /// Small → large: a raw input edge (fallback).
    AllEdge(Edge),
}

impl Payload for ColorNetMsg {
    fn words(&self) -> usize {
        match self {
            ColorNetMsg::Cmd(ColorCmd::Attempt { .. }) => 3,
            ColorNetMsg::Cmd(_) => 1,
            ColorNetMsg::DegPartial(_, _) | ColorNetMsg::DegUp(_, _) => 2,
            ColorNetMsg::Conflict(e) | ColorNetMsg::AllEdge(e) => e.words(),
        }
    }
}

/// What the large machine is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LPhase {
    /// Degree reports arrive at round 2.
    Degrees,
    /// `Attempt` issued: conflict edges arrive at `issued + 2`.
    Conflicts { issued: u64 },
    /// `SendAll` issued: the whole graph arrives at `issued + 2`.
    AllEdges { issued: u64 },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the coloring program.
#[derive(Clone)]
pub struct ColoringProgram {
    n: usize,
    owners: Owners,
    // ---- small-machine state ----
    input: Vec<Edge>,
    // ---- large-machine state ----
    phase: LPhase,
    delta: u32,
    palette_size: usize,
    seed: u64,
    restarts: usize,
    /// Set on the large machine when it halts.
    pub result: Option<ColoringResult>,
}

impl ColoringProgram {
    /// Builds one program per machine over the sharded input edges.
    pub fn for_cluster(cluster: &Cluster, n: usize, edges: &ShardedVec<Edge>) -> Vec<Self> {
        let owners = Owners::of_cluster(cluster);
        let large = cluster.large().expect("coloring requires a large machine");
        assert!(!owners.ids().is_empty(), "coloring requires small machines");
        assert!(
            edges.shard(large).is_empty(),
            "engine programs expect the input on the small machines only \
             (see common::distribute_edges); the large machine's shard would \
             be silently ignored"
        );
        (0..cluster.machines())
            .map(|mid| ColoringProgram {
                n,
                owners: owners.clone(),
                input: edges.shard(mid).to_vec(),
                phase: LPhase::Degrees,
                delta: 0,
                palette_size: 0,
                seed: 0,
                restarts: 0,
                result: None,
            })
            .collect()
    }

    fn finish(
        &mut self,
        ctx: &MachineCtx<'_>,
        out: &mut Outbox<ColorNetMsg>,
        result: ColoringResult,
    ) {
        self.result = Some(result);
        self.phase = LPhase::Done;
        out.broadcast(ctx.small_ids_iter(), ColorNetMsg::Cmd(ColorCmd::Finish));
    }

    /// Draws a fresh palette seed and broadcasts the next attempt — the
    /// legacy loop head (`seed = rng.random()` then the broadcast).
    fn issue_attempt(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<ColorNetMsg>) {
        self.seed = ctx.rng().random();
        out.broadcast(
            ctx.small_ids_iter(),
            ColorNetMsg::Cmd(ColorCmd::Attempt {
                seed: self.seed,
                delta: self.delta,
            }),
        );
        self.phase = LPhase::Conflicts { issued: ctx.round };
    }
}

impl RoleProgram for ColoringProgram {
    type Message = ColorNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, ColorNetMsg)>,
    ) -> StepOutcome<ColorNetMsg> {
        let mut out = Outbox::new();
        match self.phase {
            LPhase::Degrees => {
                if ctx.round == 2 {
                    self.delta = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            ColorNetMsg::DegUp(_, d) => Some(*d),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(0);
                    if self.delta == 0 {
                        // Edgeless graph: one color, no randomness consumed
                        // (the legacy early return).
                        let result = ColoringResult {
                            colors: vec![0; self.n],
                            conflict_edges: 0,
                            restarts: 0,
                        };
                        self.finish(ctx, &mut out, result);
                    } else {
                        self.palette_size = palette_size_for(self.n);
                        self.issue_attempt(ctx, &mut out);
                    }
                }
            }
            LPhase::Conflicts { issued } => {
                if ctx.round == issued + 2 {
                    let conflict_edges: Vec<Edge> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            ColorNetMsg::Conflict(e) => Some(e),
                            _ => None,
                        })
                        .collect();
                    ctx.charge(conflict_edges.len() as u64 * 2);
                    let mut order: Vec<VertexId> = (0..self.n as VertexId).collect();
                    order.shuffle(&mut *ctx.rng());
                    if let Some(colors) = attempt_coloring(
                        self.n,
                        &conflict_edges,
                        self.seed,
                        self.delta,
                        self.palette_size,
                        &order,
                    ) {
                        let result = ColoringResult {
                            colors,
                            conflict_edges: conflict_edges.len(),
                            restarts: self.restarts,
                        };
                        self.finish(ctx, &mut out, result);
                    } else {
                        self.restarts += 1;
                        if self.restarts > MAX_RESTARTS {
                            // Degenerate instance: gather the whole graph.
                            out.broadcast(
                                ctx.small_ids_iter(),
                                ColorNetMsg::Cmd(ColorCmd::SendAll),
                            );
                            self.phase = LPhase::AllEdges { issued: ctx.round };
                        } else {
                            self.issue_attempt(ctx, &mut out);
                        }
                    }
                }
            }
            LPhase::AllEdges { issued } => {
                if ctx.round == issued + 2 {
                    let all: Vec<Edge> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            ColorNetMsg::AllEdge(e) => Some(e),
                            _ => None,
                        })
                        .collect();
                    ctx.charge(all.len() as u64 * 2);
                    let g = mpc_graph::Graph::new(self.n, all);
                    let colors = mpc_graph::coloring::greedy_coloring(&g, &[]);
                    let result = ColoringResult {
                        colors,
                        conflict_edges: g.m(),
                        restarts: self.restarts,
                    };
                    self.finish(ctx, &mut out, result);
                }
            }
            LPhase::Done => return StepOutcome::Halt,
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, ColorNetMsg)>,
    ) -> StepOutcome<ColorNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        if ctx.round == 0 {
            let index = EndpointIndex::build(&self.input);
            announce_degrees(&mut out, &self.owners, &index, ColorNetMsg::DegPartial);
        }

        let mut cmd: Option<ColorCmd> = None;
        let mut deg_sum: Vec<(VertexId, u32)> = Vec::new();
        for (_src, msg) in inbox {
            match msg {
                ColorNetMsg::Cmd(c) => cmd = Some(c),
                ColorNetMsg::DegPartial(v, c) => deg_sum.push((v, c)),
                _ => {}
            }
        }

        // ---- owner role ----
        fold_by_key(&mut deg_sum, |a, b| *a += *b);
        for (v, d) in deg_sum {
            out.send(large, ColorNetMsg::DegUp(v, d));
        }

        // ---- worker role ----
        match cmd {
            Some(ColorCmd::Finish) => return StepOutcome::Halt,
            Some(ColorCmd::Attempt { seed, delta }) => {
                let palette_size = palette_size_for(self.n);
                for e in &self.input {
                    if edge_conflicts(seed, e, delta, palette_size) {
                        out.send(large, ColorNetMsg::Conflict(*e));
                    }
                }
                ctx.charge(self.input.len() as u64);
            }
            Some(ColorCmd::SendAll) => {
                for e in &self.input {
                    out.send(large, ColorNetMsg::AllEdge(*e));
                }
            }
            None => {}
        }

        out.into_step()
    }
}
