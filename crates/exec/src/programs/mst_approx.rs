//! [`MstApproxProgram`]: the `O(1)`-round (1+ε)-approximate MST weight
//! (Theorem C.2 — the CRT/AGM estimator over geometric weight thresholds)
//! as a per-machine state machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::ported::approximate_mst_weight`]: one sketch-connectivity
//! instance (Theorem C.1) per threshold `τ_j = (1+ε)^j`, each the exact
//! 3-round wave of [`ConnectivityProgram`](crate::programs::ConnectivityProgram)
//! re-keyed onto a per-wave clock — the large machine draws one sketch seed
//! per threshold (the legacy draw order; small machines draw nothing), the
//! smalls sketch their weight-filtered shards, hash-owners merge by
//! linearity, and the large machine runs sketch-Borůvka locally.
//!
//! Two execution shapes share that wave:
//!
//! * [`MstApproxWave`] — one threshold as a standalone instance for the
//!   [multi-program scheduler](crate::multiplex): the **default** path runs
//!   all waves interleaved in one engine run (`O(1)` combined rounds, the
//!   paper's parallel figure), with the per-wave seeds pre-drawn by
//!   `batched` in the legacy threshold order so results *and* RNG
//!   stream positions stay bit-identical to the sequential composition;
//! * [`MstApproxProgram`] — the PR 4 sequential composition (one wave
//!   after another inside a single program), kept as the equivalence
//!   oracle the batched path is tested against.
//!
//! One wave (`Wave` broadcast at round `W`):
//!
//! | round | who | does |
//! |------:|-----|------|
//! | W+1   | smalls | sketch edges of weight `≤ τ`, one [`PartialBatch`] → each hash-owner |
//! | W+2   | owners | sum partials per `(phase, vertex)` key, one batch → large |
//! | W+3   | large  | sketch-Borůvka; record `c_τ`; next wave or estimate |
//!
//! A machine with nothing to send sends no batch, and one with nothing to
//! sketch or decode builds no sketch family.

use crate::combinators::{Driven, Outbox, RoleProgram};
use crate::driver::{ExecError, ExecMode, Executor};
use crate::machine::{MachineCtx, StepOutcome};
use crate::multiplex::{CapacityFactor, Multiplexed};
use mpc_core::ported::mst_approx::{estimate_from_counts, geometric_thresholds, MstApprox};
use mpc_graph::Edge;
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use mpc_sketch::{merge_batches, sketch_connectivity_batches, PartialBatch, SketchFamily};
use rand::Rng;
use std::sync::Arc;

/// Messages of the MST-weight estimator program.
#[derive(Clone, Debug)]
pub enum MstApproxNetMsg {
    /// Small → large: maximum edge weight of this machine's shard.
    MaxW(u64),
    /// Large → smalls: run one connectivity wave at this threshold with
    /// this sketch-family seed.
    Wave(u64, u64),
    /// The (partial or merged) sparse sketches of the
    /// [`partial_key`](mpc_sketch::partial_key)s the receiver owns.
    Partial(PartialBatch),
    /// Large → smalls: the run is over; halt.
    Finish,
}

impl Payload for MstApproxNetMsg {
    fn words(&self) -> usize {
        match self {
            MstApproxNetMsg::MaxW(_) | MstApproxNetMsg::Finish => 1,
            MstApproxNetMsg::Wave(_, _) => 2,
            MstApproxNetMsg::Partial(batch) => batch.words(),
        }
    }
}

/// The batches of an inbox, in arrival order.
fn partials_of(inbox: Vec<(MachineId, MstApproxNetMsg)>) -> Vec<PartialBatch> {
    inbox
        .into_iter()
        .filter_map(|(_, msg)| match msg {
            MstApproxNetMsg::Partial(batch) => Some(batch),
            _ => None,
        })
        .collect()
}

/// The worker step of one wave: sketches the edges of `input` of weight
/// `≤ threshold` with the `(n, phases, seed)` family — built only if there
/// is one — charges the work and sends each hash-owner its partials.
fn sketch_wave(
    ctx: &MachineCtx<'_>,
    (n, phases, seed): (usize, usize, u64),
    input: &[Edge],
    threshold: u64,
    owners: &[MachineId],
    out: &mut Outbox<MstApproxNetMsg>,
) {
    let filtered: Vec<_> = input
        .iter()
        .filter(|e| e.w <= threshold)
        .map(|e| (e.u, e.v))
        .collect();
    ctx.charge((filtered.len() * phases) as u64);
    if filtered.is_empty() {
        return;
    }
    let family = SketchFamily::new(n, phases, seed);
    for (&owner, batch) in owners
        .iter()
        .zip(family.partial_batches(&filtered, owners.len()))
    {
        if !batch.is_empty() {
            out.send(owner, MstApproxNetMsg::Partial(batch));
        }
    }
}

/// The owner step of one wave: sums partials per key (linearity), forwards.
fn merge_wave(batches: &[PartialBatch], large: MachineId, out: &mut Outbox<MstApproxNetMsg>) {
    let merged = merge_batches(batches);
    debug_assert!(!merged.is_empty());
    out.send(large, MstApproxNetMsg::Partial(merged));
}

/// The large machine's step of one wave: charges the work and returns `c_τ`
/// (with no batch, no edge is `≤ τ`: `n` singletons, no family to build).
fn count_wave(
    ctx: &MachineCtx<'_>,
    (n, phases, seed): (usize, usize, u64),
    batches: &[PartialBatch],
) -> usize {
    ctx.charge((n * phases) as u64);
    if batches.is_empty() {
        return n;
    }
    let family = SketchFamily::new(n, phases, seed);
    sketch_connectivity_batches(&family, batches, n).count
}

/// What the large machine is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LPhase {
    /// Shard weight maxima arrive at round 1.
    MaxW,
    /// `Wave` issued: merged sketches arrive at `issued + 3`.
    Wave { issued: u64 },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the MST-weight estimator program.
#[derive(Clone)]
pub struct MstApproxProgram {
    n: usize,
    /// Sketch-Borůvka phases (`ConnectivityConfig::for_n`, both paths).
    phases: usize,
    /// The estimator's ε (the geometric grid's spacing).
    epsilon: f64,
    owners: Vec<MachineId>,
    // ---- small-machine state ----
    input: Vec<Edge>,
    // ---- large-machine state ----
    phase: LPhase,
    w_max: u64,
    thresholds: Vec<u64>,
    t_idx: usize,
    /// The seed drawn for the current wave (for the dense decode).
    seed: u64,
    component_counts: Vec<usize>,
    parallel_rounds: u64,
    /// Set on the large machine when it halts.
    pub result: Option<MstApprox>,
}

impl MstApproxProgram {
    /// Builds one program per machine over the sharded input edges.
    pub fn for_cluster(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        epsilon: f64,
    ) -> Vec<Self> {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let owners = cluster.small_ids();
        let large = cluster
            .large()
            .expect("MST estimation requires a large machine");
        assert!(!owners.is_empty(), "MST estimation requires small machines");
        assert!(
            edges.shard(large).is_empty(),
            "engine programs expect the input on the small machines only \
             (see common::distribute_edges); the large machine's shard would \
             be silently ignored"
        );
        let phases = mpc_core::ported::connectivity::ConnectivityConfig::for_n(n).phases;
        (0..cluster.machines())
            .map(|mid| MstApproxProgram {
                n,
                phases,
                epsilon,
                owners: owners.clone(),
                input: edges.shard(mid).to_vec(),
                phase: LPhase::MaxW,
                w_max: 1,
                thresholds: Vec::new(),
                t_idx: 0,
                seed: 0,
                component_counts: Vec::new(),
                parallel_rounds: 0,
                result: None,
            })
            .collect()
    }

    /// Issues the next threshold wave, drawing its sketch seed — the legacy
    /// per-instance seed draw, in threshold order.
    fn issue_wave(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MstApproxNetMsg>) {
        let t = self.thresholds[self.t_idx];
        self.seed = ctx.rng().random();
        out.broadcast(ctx.small_ids_iter(), MstApproxNetMsg::Wave(t, self.seed));
        self.phase = LPhase::Wave { issued: ctx.round };
    }
}

/// One threshold wave of the Theorem C.2 estimator as a standalone
/// instance for the [multi-program scheduler](crate::multiplex): sketch
/// the weight-filtered shard, merge at owners, count components on the
/// large machine — three combined rounds for *every* threshold at once.
///
/// The sketch seed is baked in at construction (pre-drawn by `batched`
/// from the large machine's stream, one per threshold in ascending
/// threshold order — exactly the legacy draw order), so the instance draws
/// nothing at run time and the per-machine RNG positions after the batched
/// run equal the sequential composition's.
#[derive(Clone)]
pub struct MstApproxWave {
    n: usize,
    phases: usize,
    threshold: u64,
    seed: u64,
    owners: Arc<[MachineId]>,
    /// This machine's input shard, shared across the instances multiplexed
    /// onto the machine.
    input: Arc<[Edge]>,
    /// Set on the large machine when the wave completes: `c_τ`.
    pub count: Option<usize>,
}

impl MstApproxWave {
    /// One machine's half of a single threshold wave.
    pub fn new(
        n: usize,
        phases: usize,
        threshold: u64,
        seed: u64,
        owners: Arc<[MachineId]>,
        input: Arc<[Edge]>,
    ) -> Self {
        MstApproxWave {
            n,
            phases,
            threshold,
            seed,
            owners,
            input,
            count: None,
        }
    }
}

impl RoleProgram for MstApproxWave {
    type Message = MstApproxNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstApproxNetMsg)>,
    ) -> StepOutcome<MstApproxNetMsg> {
        // The wave runs a fixed clock (workers at round 0, owners at round
        // 1, this machine at round 2), so wait for the clock rather than
        // for mail — a threshold that filters out every edge still counts
        // its (all-singleton) components, like the sequential wave does.
        if ctx.round < 2 {
            return StepOutcome::idle();
        }
        if self.count.is_some() {
            return StepOutcome::Halt;
        }
        // Sketch-Borůvka over the merged sketches — identical to the
        // sequential program's wave-final step.
        let batches = partials_of(inbox);
        self.count = Some(count_wave(ctx, (self.n, self.phases, self.seed), &batches));
        StepOutcome::Halt
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstApproxNetMsg)>,
    ) -> StepOutcome<MstApproxNetMsg> {
        let mut out = Outbox::new();
        let large = ctx
            .large
            .expect("batched estimator requires a large machine");

        if ctx.round == 0 {
            // Worker role: sketch the weight-filtered shard (no seed
            // broadcast — the seed is baked in).
            sketch_wave(
                ctx,
                (self.n, self.phases, self.seed),
                &self.input,
                self.threshold,
                &self.owners,
                &mut out,
            );
            return out.into_step();
        }

        if inbox.is_empty() {
            return StepOutcome::Halt;
        }
        merge_wave(&partials_of(inbox), large, &mut out);
        out.into_step()
    }
}

/// The default `mst-approx` run: every `(1+ε)^j` threshold as one
/// [`MstApproxWave`] instance of the [multi-program
/// scheduler](crate::multiplex), with the per-wave sketch seeds pre-drawn
/// from the large machine's stream in ascending threshold order (see the
/// module docs: results *and* RNG stream positions equal
/// [`MstApproxProgram`]'s). `threads` caps the pool's workers (0 =
/// executor default).
///
/// # Errors
///
/// Propagates capacity violations in strict mode; see [`ExecError`].
pub(crate) fn batched(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    epsilon: f64,
    mode: ExecMode,
    threads: usize,
) -> Result<MstApprox, ExecError> {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let large = cluster
        .large()
        .expect("MST estimation requires a large machine");
    assert!(
        edges.shard(large).is_empty(),
        "engine programs expect the input on the small machines only"
    );
    let owners: Arc<[MachineId]> = cluster.small_ids().into();
    assert!(!owners.is_empty(), "MST estimation requires small machines");
    // Threshold grid host-side (the legacy derivation), then one sketch
    // seed per threshold from the large machine's stream — the legacy
    // per-wave draws, performed up front in the legacy order.
    let w_max = edges.iter().map(|(_, e)| e.w).max().unwrap_or(1).max(1);
    let thresholds = geometric_thresholds(w_max, epsilon);
    let phases = mpc_core::ported::connectivity::ConnectivityConfig::for_n(n).phases;
    let seeds: Vec<u64> = thresholds
        .iter()
        .map(|_| cluster.rng(large).random())
        .collect();
    let shards: Vec<Arc<[Edge]>> = (0..cluster.machines())
        .map(|mid| Arc::from(edges.shard(mid)))
        .collect();
    let per_instance: Vec<Vec<Driven<MstApproxWave>>> = thresholds
        .iter()
        .zip(&seeds)
        .map(|(&t, &seed)| {
            shards
                .iter()
                .map(|shard| {
                    Driven(MstApproxWave::new(
                        n,
                        phases,
                        t,
                        seed,
                        owners.clone(),
                        shard.clone(),
                    ))
                })
                .collect()
        })
        .collect();
    let muxed = Multiplexed::build(cluster, per_instance);
    let outcome = {
        let mut scaled = CapacityFactor::scale(cluster, thresholds.len());
        Executor::new("xmst", mode)
            .threads(threads)
            .run(scaled.cluster(), muxed)
    }?;
    let coordinator = &outcome.programs[large];
    let component_counts: Vec<usize> = (0..thresholds.len())
        .map(|i| {
            coordinator
                .instance(i)
                .0
                .count
                .expect("large machine halts with a per-wave count")
        })
        .collect();
    let estimate = estimate_from_counts(n, w_max, &thresholds, &component_counts);
    Ok(MstApprox {
        estimate,
        thresholds,
        component_counts,
        parallel_rounds: outcome.rounds,
    })
}

impl RoleProgram for MstApproxProgram {
    type Message = MstApproxNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstApproxNetMsg)>,
    ) -> StepOutcome<MstApproxNetMsg> {
        let mut out = Outbox::new();
        match self.phase {
            LPhase::MaxW => {
                if ctx.round == 1 {
                    self.w_max = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MstApproxNetMsg::MaxW(w) => Some(*w),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(1)
                        .max(1);
                    self.thresholds = geometric_thresholds(self.w_max, self.epsilon);
                    self.issue_wave(ctx, &mut out);
                }
            }
            LPhase::Wave { issued } => {
                if ctx.round == issued + 3 {
                    // Sketch-Borůvka over the merged sketches — the
                    // connectivity wave's final step.
                    let batches = partials_of(inbox);
                    let count = count_wave(ctx, (self.n, self.phases, self.seed), &batches);
                    self.component_counts.push(count);
                    self.parallel_rounds = self.parallel_rounds.max(ctx.round - issued);
                    self.t_idx += 1;
                    if self.t_idx < self.thresholds.len() {
                        self.issue_wave(ctx, &mut out);
                    } else {
                        let estimate = estimate_from_counts(
                            self.n,
                            self.w_max,
                            &self.thresholds,
                            &self.component_counts,
                        );
                        self.result = Some(MstApprox {
                            estimate,
                            thresholds: std::mem::take(&mut self.thresholds),
                            component_counts: std::mem::take(&mut self.component_counts),
                            parallel_rounds: self.parallel_rounds,
                        });
                        out.broadcast(ctx.small_ids_iter(), MstApproxNetMsg::Finish);
                        self.phase = LPhase::Done;
                    }
                }
            }
            LPhase::Done => return StepOutcome::Halt,
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstApproxNetMsg)>,
    ) -> StepOutcome<MstApproxNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        if ctx.round == 0 {
            let max_w = self.input.iter().map(|e| e.w).max().unwrap_or(0);
            out.send(large, MstApproxNetMsg::MaxW(max_w));
        }

        let mut wave: Option<(u64, u64)> = None;
        let mut partials: Vec<PartialBatch> = Vec::new();
        for (_src, msg) in inbox {
            match msg {
                MstApproxNetMsg::Finish => return StepOutcome::Halt,
                MstApproxNetMsg::Wave(t, seed) => wave = Some((t, seed)),
                MstApproxNetMsg::Partial(batch) => partials.push(batch),
                MstApproxNetMsg::MaxW(_) => {}
            }
        }

        // ---- owner role ----
        if !partials.is_empty() {
            merge_wave(&partials, large, &mut out);
        }

        // ---- worker role: sketch the weight-filtered shard. ----
        if let Some((t, seed)) = wave {
            let family = (self.n, self.phases, seed);
            sketch_wave(ctx, family, &self.input, t, &self.owners, &mut out);
        }

        out.into_step()
    }
}
