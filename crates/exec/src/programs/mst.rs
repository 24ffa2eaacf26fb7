//! [`MstProgram`]: the full heterogeneous MST algorithm (§3, Theorem 3.1 —
//! doubly-exponential Borůvka + KKT sampling finish, general `n^(1+f)`
//! large machine included) as a per-machine state machine.
//!
//! The large machine is the coordinator: it picks every move through the
//! shared [`next_move`] rule, and every small machine draws its KKT
//! sampling coins repetition-major over its shard. The forest itself is
//! forced by the workspace's total edge order: the MSF is unique, so any
//! exact schedule must produce it.
//!
//! **Contraction wave.** Collection, renames and dedup travel through a
//! *collector tree* of depth `L` (the paper's Claim-2/Claim-4 aggregation
//! trees), so a hot vertex never concentrates its full multiplicity on one
//! machine. A leaf is a small machine holding edges; level `i < L` has one
//! node per `(key, sender group)`, a group being `F^i` consecutive machines
//! with `F = ⌈machines^(1/L)⌉`; level `L` is the key's hash-owner. One wave
//! spans `3L + 4` rounds, clocked from the round `W` at which the smalls
//! receive [`MstCmd::Wave`]:
//!
//! | round | who | does |
//! |------:|-----|------|
//! | W | leaves | announce each current vertex's `k` locally-lightest edges to its level-1 node |
//! | W+i | level `i < L` | keep the `k` lightest per vertex, forward them one level up |
//! | W+L | owners | keep the `k` globally-lightest per vertex, forward to the large machine |
//! | W+L+1 | large | [`contract_lightest_lists`], send rename pairs to the owners |
//! | W+L+2 … W+2L+1 | owners, then each level down | route each rename to the nodes (at level 1: the leaves) that forwarded its vertex |
//! | W+2L+2 | leaves | relabel, drop internals, send `(pair, original)` partials to the pair's level-1 node |
//! | W+2L+2+i | level `i < L` | combine parallel pairs keeping the lightest, forward one level up |
//! | W+3L+2 | owners | dedup keeping the lightest — the new owner-sorted shards — report counts |
//! | W+3L+3 | large | update `(n', m')`, pick the next move via the shared rule |
//!
//! The large machine picks `L` per wave (`tree_depth`): `L = 2` (one
//! collector level, then the owner) while a vertex's worst owner intake —
//! `k` entries from each of `⌈√machines⌉` collectors, 5 words each — fits
//! half a small machine, and the shallowest deeper tree whose intake fits
//! otherwise. A deeper tree also has each leaf combine its parallel pairs
//! before sending them. Only a superlinear large machine (large `k`) or a
//! very tight small one needs `L > 2`.
//!
//! **KKT finish.** Sample → count → choose repetition → labels → F-light →
//! local MST through the shared `sample_probability` / `span_sample` /
//! `finish_pool` steps of [`mpc_core::mst::kkt`]. A label reaches every
//! machine holding an edge of its vertex from the vertex's owner. An owner
//! (or relay) whose direct answers would not fit a small machine sends
//! each label instead to the heads of a few requester subtrees, which pass
//! it on the same way (the paper's dissemination trees), and tells the
//! large machine, which then waits one round longer for the F-light
//! edges. A small machine filters once every label it asked for is in.
//! The tiny remainder finishes by a direct gather.

use crate::combinators::{
    fold_by_key, grouped, keep_last, sorted_get, top_by_key, Announcers, Outbox, Owners,
    RoleProgram,
};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::mst::{
    collection_budget, contract_lightest_lists, kkt, local_msf_finish, next_move, pair_to_tagged,
    relabel_pairs, MstError, MstMove, MstResult, MstStats, KKT_REPETITIONS,
};
use mpc_graph::mst::Forest;
use mpc_graph::{Edge, VertexId};
use mpc_labeling::{Label, MaxEdgeLabeling};
use mpc_runtime::payload::TaggedEdge;
use mpc_runtime::primitives::HashKey;
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use rand::Rng;

/// Phase commands broadcast by the large machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MstCmd {
    /// Run one contraction wave with lightest-list length `k` through a
    /// collector tree of depth `depth`.
    Wave {
        /// List length for this wave.
        k: u32,
        /// Levels of the collector tree, the owners included (≥ 2).
        depth: u32,
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
    /// Leaf → level-1 node: one entry of a vertex's locally-lightest list.
    Announce(VertexId, TaggedEdge),
    /// Level `i` → level `i + 1` node (the owner at `L`): a surviving
    /// lightest-list entry.
    AnnounceFwd(VertexId, TaggedEdge),
    /// Owner → large: one entry of a vertex's globally-lightest list.
    Collected(VertexId, TaggedEdge),
    /// Large → owner: a rename pair from the contraction.
    Rename(VertexId, VertexId),
    /// Owner or collector → the collectors one level down: a rename pair.
    RenameToC(VertexId, VertexId),
    /// Level-1 node → leaves: a rename pair for a vertex this machine holds.
    RenameFwd(VertexId, VertexId),
    /// Leaf → level-1 node: relabeled `(pair, original)` dedup partial.
    Pair(u32, u32, Edge),
    /// Level `i` → level `i + 1` node (the owner at `L`): a combined
    /// `(pair, original)` partial.
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
    /// Owner or relay → needer: the label of `v`.
    LabelAns(VertexId, Label),
    /// Owner or relay → subtree head: the label of `v`, for the head and
    /// for the rest of its subtree of needers.
    LabelRelay(VertexId, Box<(Label, Vec<MachineId>)>),
    /// Owner or relay → large: labels went down a relay subtree this round,
    /// so the F-light edges arrive one round later.
    Relayed,
}

impl Payload for MstNetMsg {
    fn words(&self) -> usize {
        match self {
            MstNetMsg::Cmd(MstCmd::Sample { .. }) => 3,
            // A wave's `k` and depth share one word.
            MstNetMsg::Cmd(MstCmd::Wave { .. }) | MstNetMsg::Cmd(MstCmd::ChooseRep { .. }) => 2,
            MstNetMsg::Cmd(MstCmd::Gather) | MstNetMsg::Cmd(MstCmd::Finish) => 1,
            MstNetMsg::Count(_) | MstNetMsg::Need(_) | MstNetMsg::NeedUp(_) => 1,
            MstNetMsg::Relayed => 1,
            MstNetMsg::Announce(_, te)
            | MstNetMsg::AnnounceFwd(_, te)
            | MstNetMsg::Collected(_, te) => 1 + te.words(),
            MstNetMsg::Rename(_, _) | MstNetMsg::RenameToC(_, _) | MstNetMsg::RenameFwd(_, _) => 2,
            MstNetMsg::Pair(_, _, e) | MstNetMsg::PairFwd(_, _, e) => 2 + e.words(),
            MstNetMsg::Ship(te) => te.words(),
            MstNetMsg::SampleCounts(v) => v.words(),
            MstNetMsg::LabelPush(_, l) | MstNetMsg::LabelAns(_, l) => 1 + l.words(),
            MstNetMsg::LabelRelay(_, relay) => 1 + relay.0.words() + relay.1.len(),
        }
    }
}

/// Words of one lightest-list entry on the wire (vertex + tagged edge).
const ENTRY_WORDS: usize = 5;

/// The collector-tree depth of a wave with list length `k` on a cluster of
/// `machines` machines whose small machines hold `small_cap` words: the
/// smallest `L ≥ 2` at which one vertex's worst owner intake — `k` entries
/// from each of the `⌈machines^(1/L)⌉` nodes below it — fits half a small
/// machine, capped where the fan-in reaches 2.
fn tree_depth(k: usize, machines: usize, small_cap: usize) -> usize {
    let deepest = (2..)
        .find(|&l| fan_in(machines, l) <= 2)
        .expect("fan-in falls to 2");
    (2..deepest)
        .find(|&l| ENTRY_WORDS * k * fan_in(machines, l) <= small_cap / 2)
        .unwrap_or(deepest)
}

/// `⌈machines^(1/depth)⌉`: the smallest fan-in `F` with `F^depth ≥
/// machines`, so `depth` levels of groups cover every machine. At depth 2
/// it is `⌈√machines⌉`, the group size of
/// [`sender_group`](crate::combinators::sender_group).
fn fan_in(machines: usize, depth: usize) -> usize {
    let covers = |f: usize| {
        (0..depth)
            .try_fold(1usize, |p, _| p.checked_mul(f))
            .is_none_or(|p| p >= machines)
    };
    (1..).find(|&f| covers(f)).expect("some fan-in covers")
}

/// One contraction wave as a small machine sees it.
#[derive(Clone, Copy, Debug)]
struct WaveClock {
    /// The round at which the smalls received [`MstCmd::Wave`].
    start: u64,
    /// Lightest-list length.
    k: usize,
    /// Collector-tree depth `L`.
    depth: usize,
    /// Sender-group fan-in `F = ⌈machines^(1/L)⌉`.
    fan_in: u64,
}

impl WaveClock {
    /// Machines per level-`level` sender group: `F^level`.
    fn span(&self, level: usize) -> u64 {
        self.fan_in.saturating_pow(level as u32)
    }

    /// The level a machine acts at in `round` of an upward pass whose
    /// leaves sent at `start + first`.
    fn level(&self, round: u64, first: u64) -> usize {
        (round - self.start - first) as usize
    }

    /// The level a machine routes renames at in `round` (owners at
    /// `W + L + 2`, one level down per round).
    fn rename_level(&self, round: u64) -> usize {
        self.depth - (round - (self.start + self.depth as u64 + 2)) as usize
    }

    /// The group of the next node up from a level-`level` node of group
    /// `g` — 0 when that node is the owner, whose placement ignores it.
    fn parent_group(&self, level: usize, g: u64) -> u64 {
        if level + 1 >= self.depth {
            0
        } else {
            g / self.fan_in
        }
    }

    /// The group a level-`level` node serves, read off its own id (levels
    /// above the first sit inside their group's id range).
    fn own_group(&self, mid: MachineId, level: usize) -> u64 {
        mid as u64 / self.span(level)
    }

    /// The level-`level` node of `key` for sender group `g`: the group
    /// collector of [`Owners::collector_of`] at level 1, a machine inside
    /// the group's own id range above it (so the node knows its group
    /// without being told), the key's hash-owner at level `L`.
    fn node<K: HashKey>(
        &self,
        owners: &Owners,
        level: usize,
        key: &K,
        g: u64,
        ctx: &MachineCtx<'_>,
    ) -> MachineId {
        if level == self.depth {
            return owners.of(key);
        }
        if level == 1 {
            return owners.collector_of(key, g);
        }
        let lo = g * self.span(level);
        let len = self.span(level).min(ctx.machines as u64 - lo);
        let mut at = key.hash64() % len;
        if Some((lo + at) as MachineId) == ctx.large {
            at = (at + 1) % len;
        }
        (lo + at) as MachineId
    }
}

/// What the large machine is currently waiting for. Variants carry the
/// round at which their command was broadcast; every follow-up is a fixed
/// offset from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LargePhase {
    /// Round 0: issue the first command.
    Boot,
    /// Contract at `issued + L + 2`, post-relabel counts at
    /// `issued + 3L + 4`.
    Wave { issued: u64, k: usize, depth: usize },
    /// Remainder arrives at `issued + 2`.
    Gather { issued: u64 },
    /// Per-repetition sample counts arrive at `issued + 2`.
    SampleCounts { issued: u64 },
    /// Sample at `issued + 2`, needs at `+3`, the last F-light edges at
    /// `lights_at` (`+6`, one round later per relay level).
    Kkt {
        issued: u64,
        rep: usize,
        lights_at: u64,
    },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the heterogeneous MST program.
#[derive(Clone)]
pub struct MstProgram {
    n: usize,
    owners: Owners,
    /// The smallest small-machine capacity, snapshotted at build time: the
    /// budget of the label relay and of the tree-depth rule.
    small_cap: usize,
    // ---- small-machine state ----
    /// Current contracted edges: initially the input shard, after each wave
    /// the owner-sorted deduplicated pairs — the shard order the KKT coin
    /// flips run over.
    local: Vec<TaggedEdge>,
    /// Tree roles: `tree[i]` records, per vertex, which machines forwarded
    /// it to this machine's level-`i + 1` node this wave.
    tree: Vec<Announcers<VertexId>>,
    /// Owner role: who needs each label (KKT).
    needers: Announcers<VertexId>,
    /// Worker clock of the current wave.
    wave: Option<WaveClock>,
    /// KKT samples, one per repetition, until a repetition is chosen.
    samples: Vec<Vec<TaggedEdge>>,
    /// KKT labels received so far, and how many this machine asked for.
    labels: Vec<(VertexId, Label)>,
    awaiting: usize,
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
    /// Builds one program per machine, lifting `edges` into tagged form.
    pub fn for_cluster(cluster: &Cluster, n: usize, edges: &ShardedVec<Edge>) -> Vec<Self> {
        let large = cluster.large().expect("MST requires a large machine");
        let owners = Owners::of_cluster(cluster);
        assert!(!owners.ids().is_empty(), "MST requires small machines");
        let budget = collection_budget(cluster.capacity(large));
        let small_cap = cluster.min_small_capacity();
        let m0 = edges.total_len();
        (0..cluster.machines())
            .map(|mid| MstProgram {
                n,
                owners: owners.clone(),
                small_cap,
                local: edges
                    .shard(mid)
                    .iter()
                    .map(|&e| TaggedEdge::identity(e.normalized()))
                    .collect(),
                tree: Vec::new(),
                needers: Announcers::default(),
                wave: None,
                samples: Vec::new(),
                labels: Vec::new(),
                awaiting: 0,
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

    /// Issues the next orchestration move by the shared decision rule.
    fn issue_next(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MstNetMsg>) {
        match next_move(
            self.m_cur,
            self.n_cur,
            self.stats.boruvka_steps,
            self.budget,
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
                        reps: KKT_REPETITIONS as u32,
                    }),
                );
            }
            MstMove::Wave { k } => {
                let depth = tree_depth(k, ctx.machines, self.small_cap);
                self.phase = LargePhase::Wave {
                    issued: ctx.round,
                    k,
                    depth,
                };
                out.broadcast(
                    ctx.small_ids_iter(),
                    MstNetMsg::Cmd(MstCmd::Wave {
                        k: k as u32,
                        depth: depth as u32,
                    }),
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
    /// (ascending source, then send order).
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

/// Sends each `(vertex, label, needers)` task's label to its needers:
/// directly when those answers fit `budget` words, otherwise to the heads
/// of as many subtrees per task as `budget` pays for (at least two), each
/// head receiving the rest of its subtree to serve in turn — and then
/// tells the large machine a relay level was added.
fn answer_labels(
    out: &mut Outbox<MstNetMsg>,
    tasks: Vec<(VertexId, Label, Vec<MachineId>)>,
    budget: usize,
    large: MachineId,
) {
    let direct: usize = (tasks.iter())
        .map(|(_, l, to)| to.len() * (1 + l.words()))
        .sum();
    if direct <= budget {
        for (v, l, to) in tasks {
            for m in to {
                out.send(m, MstNetMsg::LabelAns(v, l.clone()));
            }
        }
        return;
    }
    // A head costs its message header and the label; every other needer
    // one id word.
    let ids: usize = tasks.iter().map(|(_, _, to)| to.len()).sum();
    let per_head: usize = tasks.iter().map(|(_, l, _)| 1 + l.words()).sum();
    let heads = (budget.saturating_sub(ids) / per_head.max(1)).max(2);
    for (v, l, mut to) in tasks {
        // Rotate by the key so different labels' trees have different heads.
        let turn = (v.hash64() >> 32) as usize % to.len().max(1);
        to.rotate_left(turn);
        for part in to.chunks(to.len().div_ceil(heads).max(1)) {
            out.send(
                part[0],
                MstNetMsg::LabelRelay(v, Box::new((l.clone(), part[1..].to_vec()))),
            );
        }
    }
    out.send(large, MstNetMsg::Relayed);
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
            LargePhase::Wave { issued, k, depth } => {
                let depth = depth as u64;
                if ctx.round == issued + depth + 2 {
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
                } else if ctx.round == issued + 3 * depth + 4 {
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
                    let mut totals = [0u64; KKT_REPETITIONS];
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
                                lights_at: ctx.round + 6,
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
            LargePhase::Kkt {
                issued,
                rep,
                lights_at,
            } => {
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
                } else if ctx.round > issued + 3 {
                    // F-light edges arrive, from issued + 6 on; a relay
                    // note pushes the last arrival one round later.
                    let relayed = inbox.iter().any(|(_, m)| matches!(m, MstNetMsg::Relayed));
                    let lights = Self::shipped(inbox);
                    self.stats.f_light_edges += lights.len();
                    self.pool.extend(lights);
                    let lights_at = if relayed {
                        lights_at.max(ctx.round + 2)
                    } else {
                        lights_at
                    };
                    self.phase = LargePhase::Kkt {
                        issued,
                        rep,
                        lights_at,
                    };
                    if ctx.round == lights_at {
                        self.stats.kkt_rep_used = Some(rep);
                        ctx.charge(self.pool.len() as u64);
                        let pool = std::mem::take(&mut self.pool);
                        self.chosen.extend(kkt::finish_pool(self.n, &pool));
                        self.finish(ctx, &mut out);
                    }
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
        let machines = ctx.machines;
        let wave = self.wave;
        // Role scratch filled from this round's inbox. Tree entries are
        // keyed by `(key, group of the next node up)`.
        let mut cmd: Option<MstCmd> = None;
        let mut renames: Vec<(VertexId, VertexId)> = Vec::new();
        let mut pair_dedup: Vec<((u32, u32), Edge)> = Vec::new();
        let mut lists: Vec<((VertexId, u64), TaggedEdge)> = Vec::new();
        let mut owner_lists: Vec<(VertexId, TaggedEdge)> = Vec::new();
        let mut pair_combine: Vec<(((u32, u32), u64), Edge)> = Vec::new();
        let mut needs: Vec<VertexId> = Vec::new();
        let mut tasks: Vec<(VertexId, Label, Vec<MachineId>)> = Vec::new();
        let mut routed_labels = false;
        // This machine's tree level in this round's upward pass: announces
        // leave the leaves at W, pairs at W + 2L + 2.
        let (mut list_level, mut pair_level) = (1, 1);
        let clock = || wave.expect("tree messages arrive during a wave");
        let pair_start = || 2 * clock().depth as u64 + 2;

        for (src, msg) in inbox {
            match msg {
                MstNetMsg::Cmd(c) => cmd = Some(c),
                // Level 1: group announces per vertex and parent group.
                MstNetMsg::Announce(v, te) => {
                    self.tree[0].note(v, src);
                    let g = src as u64 / clock().fan_in;
                    lists.push(((v, clock().parent_group(1, g)), te));
                }
                // Level i > 1: the same below the top; the owner groups
                // the survivors per vertex.
                MstNetMsg::AnnounceFwd(v, te) => {
                    list_level = clock().level(ctx.round, 0);
                    self.tree[list_level - 1].note(v, src);
                    if list_level == clock().depth {
                        owner_lists.push((v, te));
                    } else {
                        let g = clock().own_group(ctx.mid, list_level);
                        lists.push(((v, clock().parent_group(list_level, g)), te));
                    }
                }
                // Owner: route each rename one level down the tree.
                MstNetMsg::Rename(old, new) => {
                    for m in self.tree[clock().depth - 1].get(old) {
                        out.send(m, MstNetMsg::RenameToC(old, new));
                    }
                }
                // Collector: route each rename one level down, to the
                // leaves from level 1.
                MstNetMsg::RenameToC(old, new) => {
                    let level = clock().rename_level(ctx.round);
                    for m in self.tree[level - 1].get(old) {
                        let msg = if level == 1 {
                            MstNetMsg::RenameFwd(old, new)
                        } else {
                            MstNetMsg::RenameToC(old, new)
                        };
                        out.send(m, msg);
                    }
                }
                // Leaf: collect the renames for this round's relabel.
                MstNetMsg::RenameFwd(old, new) => renames.push((old, new)),
                // Collectors: combine pair partials; the owner dedups
                // them into the new shard.
                MstNetMsg::Pair(a, b, orig) => {
                    let g = src as u64 / clock().fan_in;
                    pair_combine.push((((a, b), clock().parent_group(1, g)), orig));
                }
                MstNetMsg::PairFwd(a, b, orig) => {
                    pair_level = clock().level(ctx.round, pair_start());
                    if pair_level == clock().depth {
                        pair_dedup.push(((a, b), orig));
                    } else {
                        let g = clock().own_group(ctx.mid, pair_level);
                        pair_combine.push((((a, b), clock().parent_group(pair_level, g)), orig));
                    }
                }
                MstNetMsg::Need(v) => {
                    self.needers.note(v, src);
                    needs.push(v);
                }
                MstNetMsg::LabelPush(v, l) => {
                    routed_labels = true;
                    tasks.push((v, l, self.needers.get(v).collect()));
                }
                MstNetMsg::LabelRelay(v, relay) => {
                    let (l, rest) = *relay;
                    self.labels.push((v, l.clone()));
                    tasks.push((v, l, rest));
                }
                MstNetMsg::LabelAns(v, l) => self.labels.push((v, l)),
                _ => {}
            }
        }

        let keep_lighter = |best: &mut Edge, orig: &Edge| {
            if orig.weight_key() < best.weight_key() {
                *best = *orig;
            }
        };
        if let Some(clock) = wave {
            // Collector: truncate each vertex's list to the k survivors and
            // forward them one level up.
            top_by_key(&mut lists, clock.k, |te| te.orig.weight_key());
            for ((v, g), te) in lists {
                let to = clock.node(&self.owners, list_level + 1, &v, g, ctx);
                out.send(to, MstNetMsg::AnnounceFwd(v, te));
            }
            // Owner: forward each vertex's globally-lightest list.
            top_by_key(&mut owner_lists, clock.k, |te| te.orig.weight_key());
            for (v, te) in owner_lists {
                out.send(large, MstNetMsg::Collected(v, te));
            }
            // Collector: forward the combined pair partials one level up.
            fold_by_key(&mut pair_combine, keep_lighter);
            for (((a, b), g), orig) in pair_combine {
                let to = clock.node(&self.owners, pair_level + 1, &(a, b), g, ctx);
                out.send(to, MstNetMsg::PairFwd(a, b, orig));
            }
        }
        // Owner role: forward distinct label needs to the large machine.
        needs.sort_unstable();
        needs.dedup();
        for v in needs {
            out.send(large, MstNetMsg::NeedUp(v));
        }

        // Worker role: command handling.
        match cmd {
            Some(MstCmd::Finish) => return StepOutcome::Halt,
            Some(MstCmd::Wave { k, depth }) => {
                let depth = depth as usize;
                let clock = WaveClock {
                    start: ctx.round,
                    k: k as usize,
                    depth,
                    fan_in: fan_in(machines, depth) as u64,
                };
                self.wave = Some(clock);
                self.tree = vec![Announcers::default(); depth];
                // Announce each current vertex's k locally-lightest edges
                // to the vertex's level-1 node (Claim-4 tree, stage 1).
                let group = ctx.mid as u64 / clock.fan_in;
                let mut lists: Vec<(VertexId, TaggedEdge)> = self
                    .local
                    .iter()
                    .flat_map(|te| [(te.cur.u, *te), (te.cur.v, *te)])
                    .collect();
                top_by_key(&mut lists, clock.k, |te| te.orig.weight_key());
                ctx.charge(self.local.len() as u64);
                for (v, te) in lists {
                    let to = clock.node(&self.owners, 1, &v, group, ctx);
                    out.send(to, MstNetMsg::Announce(v, te));
                }
            }
            Some(MstCmd::Gather) => {
                for te in self.local.drain(..) {
                    out.send(large, MstNetMsg::Ship(te));
                }
                self.wave = None;
            }
            Some(MstCmd::Sample { p_bits, reps }) => {
                // Repetition-major over the shard: the draw order every
                // run reproduces.
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
                // Request labels for this machine's current endpoints,
                // sorted and deduplicated.
                let mut endpoints: Vec<VertexId> = self
                    .local
                    .iter()
                    .flat_map(|te| [te.cur.u, te.cur.v])
                    .collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                self.awaiting = endpoints.len();
                for v in endpoints {
                    out.send(self.owners.of(&v), MstNetMsg::Need(v));
                }
            }
            None => {}
        }

        // Worker clock: relabel once the renames came down the tree, rebuild
        // the shard and report counts once the pairs went up it.
        if let Some(clock) = wave {
            let depth = clock.depth as u64;
            if ctx.round == clock.start + 2 * depth + 2 {
                let local = std::mem::take(&mut self.local);
                let group = ctx.mid as u64 / clock.fan_in;
                fold_by_key(&mut renames, keep_last);
                let rename = |v: VertexId| sorted_get(&renames, v).copied().unwrap_or(v);
                let mut partials = relabel_pairs(&local, rename);
                if clock.depth > 2 {
                    // A deeper tree's leaves combine their own parallel
                    // pairs first, so a hot pair costs one partial per leaf.
                    fold_by_key(&mut partials, keep_lighter);
                }
                for ((a, b), orig) in partials {
                    let to = clock.node(&self.owners, 1, &(a, b), group, ctx);
                    out.send(to, MstNetMsg::Pair(a, b, orig));
                }
                ctx.charge(local.len() as u64);
            } else if ctx.round == clock.start + 3 * depth + 2 {
                // Owner: the deduplicated pairs become the new shard
                // (sorted by pair key).
                fold_by_key(&mut pair_dedup, keep_lighter);
                self.local = pair_dedup
                    .into_iter()
                    .map(|(pair, orig)| pair_to_tagged(pair, orig))
                    .collect();
                self.wave = None;
                out.send(large, MstNetMsg::Count(self.local.len() as u64));
            }
        }

        // KKT F-light filtering, once every label this machine asked for
        // has arrived.
        let mut shipped = 0;
        if self.awaiting > 0 && self.labels.len() == self.awaiting {
            let mut labels = std::mem::take(&mut self.labels);
            self.awaiting = 0;
            labels.sort_by_key(|&(v, _)| v);
            for te in &self.local {
                let (Some(lu), Some(lv)) =
                    (sorted_get(&labels, te.cur.u), sorted_get(&labels, te.cur.v))
                else {
                    out.send(large, MstNetMsg::Ship(*te));
                    shipped += te.words();
                    continue;
                };
                if MaxEdgeLabeling::is_f_light(lu, lv, &te.cur) {
                    out.send(large, MstNetMsg::Ship(*te));
                    shipped += te.words();
                }
            }
            ctx.charge(self.local.len() as u64);
        }
        // Owner or relay: pass labels on within what this round's sends
        // leave of a small machine.
        if !tasks.is_empty() {
            let budget = self.small_cap.saturating_sub(shipped);
            answer_labels(&mut out, tasks, budget, large);
        }
        if routed_labels {
            self.needers.clear();
        }

        out.into_step()
    }
}
