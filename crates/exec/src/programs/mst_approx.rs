//! [`MstApproxWave`]: one threshold of the `O(1)`-round (1+ε)-approximate
//! MST weight (Theorem C.2 — the CRT/AGM estimator over geometric weight
//! thresholds) as a per-machine state machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::ported::approximate_mst_weight`]: one sketch-connectivity
//! instance (Theorem C.1) per threshold `τ_j = (1+ε)^j`, each the exact
//! 3-round wave of [`ConnectivityProgram`](crate::programs::ConnectivityProgram)
//! — the smalls sketch their weight-filtered shards, hash-owners merge by
//! linearity, and the large machine runs sketch-Borůvka locally.
//!
//! The `mst-approx` description of the [registry](crate::registry) runs
//! every threshold as one instance — one lane of a single
//! [`MixedWave`](crate::MixedWave) job: `O(1)` combined rounds, the paper's
//! parallel figure. `threshold_waves` draws the per-wave sketch seeds from
//! the large machine's stream in ascending threshold order — the legacy
//! per-wave draws, made up front — so a solo run and a service lane alike
//! reproduce the legacy results *and* RNG stream positions.
//!
//! One wave, on a fixed clock:
//!
//! | round | who | does |
//! |------:|-----|------|
//! | 0     | smalls | sketch edges of weight `≤ τ`, one [`PartialBatch`] → each hash-owner |
//! | 1     | owners | sum partials per `(phase, vertex)` key, one batch → large |
//! | 2     | large  | sketch-Borůvka; record `c_τ` |
//!
//! A machine with nothing to send sends no batch, and one with nothing to
//! sketch or decode builds no sketch family.

use crate::combinators::{Driven, Outbox, RoleProgram};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::ported::connectivity::ConnectivityConfig;
use mpc_graph::Edge;
use mpc_runtime::{Cluster, MachineId, ShardedVec};
use mpc_sketch::{merge_batches, sketch_connectivity_batches, PartialBatch, SketchFamily};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;

/// One threshold wave of the Theorem C.2 estimator as one instance of the
/// `mst-approx` wave: sketch
/// the weight-filtered shard, merge at owners, count components on the
/// large machine — three combined rounds for *every* threshold at once.
///
/// The sketch seed is baked in at construction, so the instance draws
/// nothing at run time.
#[derive(Clone)]
pub struct MstApproxWave {
    n: usize,
    /// Sketch-Borůvka phases (`ConnectivityConfig::for_n`, as the legacy
    /// path).
    phases: usize,
    threshold: u64,
    seed: u64,
    owners: Arc<[MachineId]>,
    /// This machine's input shard, shared across the instances on the
    /// machine.
    input: Arc<[Edge]>,
    /// Set on the large machine when the wave completes: `c_τ`.
    pub count: Option<usize>,
}

impl MstApproxWave {
    /// Rounds one wave takes: the large machine counts at round 2.
    pub const ROUNDS: u64 = 2;
}

impl RoleProgram for MstApproxWave {
    type Message = PartialBatch;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, PartialBatch)>,
    ) -> StepOutcome<PartialBatch> {
        // The wave runs a fixed clock (workers at round 0, owners at round
        // 1, this machine at round 2), so wait for the clock rather than
        // for mail — a threshold that filters out every edge still counts
        // its (all-singleton) components.
        if ctx.round < Self::ROUNDS {
            return StepOutcome::idle();
        }
        if self.count.is_some() {
            return StepOutcome::Halt;
        }
        // Sketch-Borůvka over the merged sketches (with no batch, no edge
        // is `≤ τ`: `n` singletons, no family to build).
        ctx.charge((self.n * self.phases) as u64);
        let batches: Vec<PartialBatch> = inbox.into_iter().map(|(_, batch)| batch).collect();
        self.count = Some(if batches.is_empty() {
            self.n
        } else {
            let family = SketchFamily::new(self.n, self.phases, self.seed);
            sketch_connectivity_batches(&family, &batches, self.n).count
        });
        StepOutcome::Halt
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, PartialBatch)>,
    ) -> StepOutcome<PartialBatch> {
        let mut out = Outbox::new();
        if ctx.round == 0 {
            // Worker role: sketch the edges of weight `≤ τ` with the wave's
            // family — built only if there is something to sketch — and
            // send each hash-owner its partials.
            let filtered: Vec<_> = (self.input.iter())
                .filter(|e| e.w <= self.threshold)
                .map(|e| (e.u, e.v))
                .collect();
            ctx.charge((filtered.len() * self.phases) as u64);
            if !filtered.is_empty() {
                let family = SketchFamily::new(self.n, self.phases, self.seed);
                let batches = family.partial_batches(&filtered, self.owners.len());
                for (&owner, batch) in self.owners.iter().zip(batches) {
                    if !batch.is_empty() {
                        out.send(owner, batch);
                    }
                }
            }
            return out.into_step();
        }
        if inbox.is_empty() {
            return StepOutcome::Halt;
        }
        // Owner role: sum partials per key (linearity), forward.
        let batches: Vec<PartialBatch> = inbox.into_iter().map(|(_, batch)| batch).collect();
        let large = ctx.large.expect("MST estimation requires a large machine");
        out.send(large, merge_batches(&batches));
        out.into_step()
    }
}

/// The instances of the `mst-approx` description: one [`MstApproxWave`]
/// per threshold, on every machine. Each wave's sketch seed is drawn from
/// `rng` — the large machine's stream — in ascending threshold order.
pub(crate) fn threshold_waves(
    cluster: &Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    thresholds: &[u64],
    rng: &mut SmallRng,
) -> Vec<Vec<Driven<MstApproxWave>>> {
    let large = cluster
        .large()
        .expect("MST estimation requires a large machine");
    assert!(
        edges.shard(large).is_empty(),
        "engine programs expect the input on the small machines only"
    );
    let owners: Arc<[MachineId]> = cluster.small_ids().into();
    assert!(!owners.is_empty(), "MST estimation requires small machines");
    let phases = ConnectivityConfig::for_n(n).phases;
    let shards: Vec<Arc<[Edge]>> = (0..cluster.machines())
        .map(|mid| Arc::from(edges.shard(mid)))
        .collect();
    (thresholds.iter())
        .map(|&threshold| {
            let seed = rng.random();
            (shards.iter())
                .map(|input| {
                    Driven(MstApproxWave {
                        n,
                        phases,
                        threshold,
                        seed,
                        owners: owners.clone(),
                        input: input.clone(),
                        count: None,
                    })
                })
                .collect()
        })
        .collect()
}
