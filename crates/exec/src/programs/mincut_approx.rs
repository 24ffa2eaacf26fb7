//! [`MinCutGuessWave`]: one λ̂ guess of the `O(1)`-round (1±ε)-approximate
//! weighted minimum cut (Theorem C.4 — Karger-style skeleton sampling over
//! geometric `λ` guesses) as a per-machine state machine, and — with no
//! guess — its whole-graph fallback.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::ported::approximate_min_cut`]. All randomness lives on the
//! *small* machines (one `Binomial(w, p)` draw per local edge per guess, in
//! shard order — the legacy per-machine order, via the shared
//! [`sample_binomial`]); the large machine draws nothing.
//!
//! The `mincut-approx` description of the [registry](crate::registry) is a
//! chain of two waves, in a solo run and a service lane alike:
//!
//! 1. every guess as one instance — one lane of a single
//!    [`MixedWave`](crate::MixedWave) job — `O(1)` combined rounds, the
//!    paper's parallel figure. Small machines sample all guesses in guess
//!    order inside the first combined round, so each guess's skeleton is
//!    bit-identical to the legacy loop's, and the large machine keeps the
//!    legacy early exit: the first guess to overflow its skeleton budget
//!    [retires](MachineCtx::retire_later_instances) every finer guess
//!    (finer guesses only get denser) before they step, so retired guesses
//!    ship nothing. `scan` picks the verdict by the legacy largest-first
//!    scan. Results equal the legacy loop's; its RNG
//!    consumption stops at a winning or over-budget guess, whereas the
//!    wave samples every guess up front, so stream positions agree only
//!    when the loop sampled every guess too;
//! 2. only when every guess failed, the `xcut-fb` wave: the legacy
//!    fallback's whole-graph gather, solved on the large machine.
//!
//! One guess:
//!
//! | round | who | does |
//! |------:|-----|------|
//! | 0     | smalls | sample the skeleton shard, report its size |
//! | 1     | large  | over budget: retire finer guesses, halt; else `Ship` |
//! | 2     | smalls | ship `(edge, multiplicity)` pairs |
//! | 3     | large  | connectivity + min-cut-value verdict (`min_cut_weight`) |
//!
//! The fallback: smalls ship their whole shard at round 0, the large
//! machine solves at round 1.

use crate::combinators::{Driven, Outbox, RoleProgram};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::ported::mincut_approx::{
    c_sample_for, evaluate_skeleton, sample_binomial, skeleton_budget, ApproxMinCut,
    SkeletonVerdict,
};
use mpc_graph::Edge;
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use std::sync::Arc;

/// Messages of the approximate min-cut waves.
#[derive(Clone, Copy, Debug)]
pub enum XCutNetMsg {
    /// Large → smalls: the skeleton fits, ship it.
    Ship,
    /// Small → large: skeleton shard size under the instance's guess.
    Count(u64),
    /// Small → large: a skeleton edge with its sampled multiplicity.
    Skel(Edge, u32),
    /// Small → large: a raw input edge (fallback).
    AllEdge(Edge),
}

impl Payload for XCutNetMsg {
    fn words(&self) -> usize {
        match self {
            XCutNetMsg::Ship | XCutNetMsg::Count(_) => 1,
            XCutNetMsg::Skel(e, _) => 1 + e.words(),
            XCutNetMsg::AllEdge(e) => e.words(),
        }
    }
}

/// What one instance concluded on the large machine.
#[derive(Clone, Debug, PartialEq)]
pub enum GuessOutcome {
    /// The sampled skeleton overflowed the (solo-capacity) budget before
    /// shipping — the legacy abort: every finer guess is pointless.
    OverBudget,
    /// The skeleton was shipped and judged.
    Judged {
        /// The min-cut-value / connectivity verdict on the skeleton.
        verdict: SkeletonVerdict,
        /// Skeleton edge count (the figure the result reports).
        skeleton_edges: usize,
    },
    /// The fallback gathered the whole graph and solved it exactly.
    Gathered {
        /// The graph's minimum cut weight (0 when disconnected).
        estimate: f64,
        /// Gathered edge count.
        edges: usize,
    },
}

/// One λ̂ guess of the Theorem C.4 estimator — or, with no guess, the
/// whole-graph fallback — as one instance of its wave.
///
/// Small machines halt whenever they have nothing in flight, so a guess
/// that is never shipped costs zero traffic after its count report.
#[derive(Clone)]
pub struct MinCutGuessWave {
    n: usize,
    c_sample: f64,
    /// The λ̂ guess; `None` for the fallback.
    guess: Option<u64>,
    input: Arc<[Edge]>,
    skeleton: Vec<(Edge, u32)>,
    /// Rounds tracked by the large machine: the round `Ship` was issued.
    ship_issued: Option<u64>,
    /// Set on the large machine when the instance resolves: the round it
    /// resolved at, and what it concluded.
    pub outcome: Option<(u64, GuessOutcome)>,
}

impl MinCutGuessWave {
    /// Records the large machine's conclusion and halts.
    fn resolve(&mut self, ctx: &MachineCtx<'_>, outcome: GuessOutcome) -> StepOutcome<XCutNetMsg> {
        self.outcome = Some((ctx.round, outcome));
        StepOutcome::Halt
    }
}

impl RoleProgram for MinCutGuessWave {
    type Message = XCutNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, XCutNetMsg)>,
    ) -> StepOutcome<XCutNetMsg> {
        if self.outcome.is_some() {
            return StepOutcome::Halt;
        }
        if ctx.round == 0 {
            // Counts (or the whole graph) land next round.
            return StepOutcome::idle();
        }
        let Some(guess) = self.guess else {
            let all: Vec<Edge> = inbox
                .into_iter()
                .filter_map(|(_, m)| match m {
                    XCutNetMsg::AllEdge(e) => Some(e),
                    _ => None,
                })
                .collect();
            ctx.charge(all.len() as u64 * 2);
            let g = mpc_graph::Graph::new(self.n, all);
            let estimate = mpc_graph::mincut::min_cut(&g).map_or(0.0, |m| m.weight as f64);
            return self.resolve(
                ctx,
                GuessOutcome::Gathered {
                    estimate,
                    edges: g.m(),
                },
            );
        };
        match self.ship_issued {
            None => {
                let total: u64 = inbox
                    .iter()
                    .filter_map(|(_, m)| match m {
                        XCutNetMsg::Count(c) => Some(*c),
                        _ => None,
                    })
                    .sum();
                // `ctx.capacity` is the solo capacity (the wave snapshots
                // it before the combined-run factor is applied), so the
                // budget rule is bit-identical to a solo run.
                if total > skeleton_budget(ctx.capacity) {
                    ctx.retire_later_instances();
                    return self.resolve(ctx, GuessOutcome::OverBudget);
                }
                let mut out = Outbox::new();
                out.broadcast(ctx.small_ids_iter(), XCutNetMsg::Ship);
                self.ship_issued = Some(ctx.round);
                out.into_step()
            }
            Some(issued) => {
                if ctx.round < issued + 2 {
                    // The skeleton is still in flight (possibly empty, so
                    // stay on the clock rather than waiting for mail).
                    return StepOutcome::idle();
                }
                let sk: Vec<(Edge, u32)> = inbox
                    .into_iter()
                    .filter_map(|(_, m)| match m {
                        XCutNetMsg::Skel(e, c) => Some((e, c)),
                        _ => None,
                    })
                    .collect();
                ctx.charge(sk.len() as u64 * 3);
                let p = (self.c_sample / guess as f64).min(1.0);
                let verdict = evaluate_skeleton(self.n, &sk, self.c_sample, p);
                let skeleton_edges = sk.len();
                self.resolve(
                    ctx,
                    GuessOutcome::Judged {
                        verdict,
                        skeleton_edges,
                    },
                )
            }
        }
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, XCutNetMsg)>,
    ) -> StepOutcome<XCutNetMsg> {
        let large = ctx.large.expect("min cut requires a large machine");
        let mut out = Outbox::new();
        if ctx.round == 0 {
            let Some(guess) = self.guess else {
                for e in self.input.iter() {
                    out.send(large, XCutNetMsg::AllEdge(*e));
                }
                return out.into_step();
            };
            // One Binomial(w, p) draw per edge in shard order; the wave
            // steps instances in guess order, so the machine's stream is
            // consumed guess-major — the legacy order.
            let p = (self.c_sample / guess as f64).min(1.0);
            for e in self.input.iter() {
                let copies = sample_binomial(&mut ctx.rng(), e.w, p);
                if copies > 0 {
                    self.skeleton.push((*e, copies));
                }
            }
            ctx.charge(self.input.len() as u64);
            out.send(large, XCutNetMsg::Count(self.skeleton.len() as u64));
            return out.into_step();
        }
        if inbox.iter().any(|(_, m)| matches!(m, XCutNetMsg::Ship)) {
            for &(e, c) in &self.skeleton {
                out.send(large, XCutNetMsg::Skel(e, c));
            }
            return out.into_step();
        }
        // Nothing in flight for this instance on this machine: sleep (a
        // later `Ship` would reactivate, a retired guess never will).
        StepOutcome::Halt
    }
}

/// The programs of the `mincut-approx` description, instance-major: one
/// [`MinCutGuessWave`] instance per λ̂ guess — the guess link — then the
/// fallback's, the one instance with no guess.
pub(crate) fn waves(
    cluster: &Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    guesses: &[u64],
    epsilon: f64,
) -> Vec<Vec<Driven<MinCutGuessWave>>> {
    let large = cluster.large().expect("min cut requires a large machine");
    assert!(
        edges.shard(large).is_empty(),
        "engine programs expect the input on the small machines only"
    );
    let c_sample = c_sample_for(n, epsilon);
    let shards: Vec<Arc<[Edge]>> = (0..cluster.machines())
        .map(|mid| Arc::from(edges.shard(mid)))
        .collect();
    let instance = |guess: Option<u64>| -> Vec<_> {
        (shards.iter())
            .map(|input| {
                Driven(MinCutGuessWave {
                    n,
                    c_sample,
                    guess,
                    input: input.clone(),
                    skeleton: Vec::new(),
                    ship_issued: None,
                    outcome: None,
                })
            })
            .collect()
    };
    let guesses = guesses.iter().map(|&guess| Some(guess));
    guesses.chain([None]).map(instance).collect()
}

/// The legacy largest-first scan over the guess link's verdicts on the
/// large machine: the first over-budget guess aborts to the fallback, the
/// first concentrated estimate wins, anything else keeps scanning.
/// `Err(rounds)` — the rounds the guess link took — when the whole graph
/// must be gathered.
pub(crate) fn scan(waves: Vec<Driven<MinCutGuessWave>>) -> Result<ApproxMinCut, u64> {
    // The link ends when the last guess resolves on the large machine.
    let parallel_rounds = (waves.iter())
        .filter_map(|wave| wave.0.outcome.as_ref().map(|&(round, _)| round))
        .max()
        .unwrap_or(0);
    for wave in &waves {
        match &wave.0.outcome {
            None | Some((_, GuessOutcome::OverBudget)) => break,
            Some((
                _,
                GuessOutcome::Judged {
                    verdict: SkeletonVerdict::Estimate(estimate),
                    skeleton_edges,
                },
            )) => {
                return Ok(ApproxMinCut {
                    estimate: *estimate,
                    lambda_guess: wave.0.guess.expect("a guess link instance"),
                    skeleton_edges: *skeleton_edges,
                    parallel_rounds,
                });
            }
            Some(_) => continue,
        }
    }
    Err(parallel_rounds)
}

/// The fallback link's result, `rounds` after the guess link's start.
pub(crate) fn gathered(wave: Driven<MinCutGuessWave>, rounds: u64) -> ApproxMinCut {
    let Some((round, GuessOutcome::Gathered { estimate, edges })) = wave.0.outcome else {
        panic!("large machine halts with the fallback result");
    };
    ApproxMinCut {
        estimate,
        lambda_guess: 1,
        skeleton_edges: edges,
        parallel_rounds: rounds + round,
    }
}
