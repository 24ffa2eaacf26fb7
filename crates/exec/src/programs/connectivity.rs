//! [`ConnectivityProgram`]: the paper's `O(1)`-round sketch connectivity
//! (Theorem C.1) expressed as a per-machine state machine — the one sketch
//! program, run by both `connectivity` and `mst-approx`.
//!
//! Same mathematics as the legacy cluster-owning loop it replaced,
//! re-phased onto the program clock (`ctx.round`):
//!
//! | round | who    | does |
//! |------:|--------|------|
//! | 0     | large  | draws the sketch-family seed from its private RNG, sends it to every machine |
//! | 1     | smalls | build partial sparse sketches of their local edges of weight `≤ τ`, send each hash-owner its `(phase, vertex)` partials as one [`PartialBatch`] |
//! | 2     | owners | sum partials per key (sketches are linear), forward one batch to the large machine |
//! | 3     | large  | runs sketch-Borůvka locally over the merged sparse sketches, halts with the [`Components`] |
//!
//! A batch costs one word per key and four per cell, whatever it is split
//! into and however its host layout stores the cells (a one-edge partial
//! keeps its one value once, not once per cell); a machine with nothing to
//! send sends no batch, an owner with no mail halts at round 2, and a
//! machine with nothing to sketch or decode builds no sketch family.
//! The family depends only on `(n, phases, seed)`, so an instance builds
//! it once: the first machine to need it fills the instance's shared cell
//! and every other machine of the instance reads it.
//!
//! The three local steps are the kernels of [`mpc_sketch::connectivity`].
//! `connectivity` runs one instance with `τ = Weight::MAX`, its seed the
//! large machine's **first** RNG draw — exactly what the legacy loop drew.
//! `mst-approx` (Theorem C.2) runs one instance per threshold `τ_j` as the
//! lanes of one wave, each seed drawn by the builder from the large
//! machine's stream in ascending threshold order and baked in — the legacy
//! per-threshold draws, made up front — so its instances skip round 0 and
//! the large machine counts `c_τ` at round 2. Sketch merging is field
//! addition (commutative and associative), so both reproduce the legacy
//! results and RNG stream positions (the loops are gone; the golden
//! `LEGACY_CASES` rows pin what they produced).

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use mpc_core::ported::connectivity::ConnectivityConfig;
use mpc_graph::traversal::Components;
use mpc_graph::{Edge, VertexId, Weight};
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use mpc_sketch::{merge_batches, sketch_connectivity_batches, PartialBatch, SketchFamily};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::{Arc, OnceLock};

/// Messages of the connectivity program.
#[derive(Clone, Debug)]
pub enum ConnMsg {
    /// The sketch-family seed, broadcast by the large machine.
    Seed(u64),
    /// The (partial or merged) sparse sketches of the
    /// [`partial_key`](mpc_sketch::partial_key)s the receiver owns.
    Partial(PartialBatch),
}

/// The batches of an inbox, in arrival order.
fn partials_of(inbox: Vec<(MachineId, ConnMsg)>) -> Vec<PartialBatch> {
    inbox
        .into_iter()
        .filter_map(|(_, msg)| match msg {
            ConnMsg::Partial(batch) => Some(batch),
            ConnMsg::Seed(_) => None,
        })
        .collect()
}

impl Payload for ConnMsg {
    fn words(&self) -> usize {
        match self {
            ConnMsg::Seed(_) => 1,
            ConnMsg::Partial(batch) => batch.words(),
        }
    }
}

/// Per-machine state of one sketch-connectivity instance.
#[derive(Clone)]
pub struct ConnectivityProgram {
    n: usize,
    phases: usize,
    /// Only edges of weight `≤ threshold` are sketched.
    threshold: Weight,
    /// The hash-owners, shared by the instances on the machine.
    owners: Arc<[MachineId]>,
    /// This machine's input shard, shared by the instances on the machine.
    local_edges: Arc<[Edge]>,
    /// The family seed: baked in by the builder, or drawn in round 0 on
    /// the large machine and received in round 1 on the smalls.
    seed: Option<u64>,
    /// Whether the seed was baked in, so the instance starts at round 1.
    baked: bool,
    /// The instance's sketch family beside the seed it was built from,
    /// shared by every machine of the instance.
    family: Arc<OnceLock<(u64, SketchFamily)>>,
    /// Set on the large machine when it halts.
    pub result: Option<Components>,
}

impl ConnectivityProgram {
    /// Exchanges an instance with a baked-in seed takes: partials to the
    /// owners, merged batches to the large machine.
    pub const SEEDED_ROUNDS: u64 = 2;

    /// Builds one program per machine of `cluster`, with the input edges
    /// sharded as `edges` (typically
    /// [`common::distribute_edges`](mpc_core::common::distribute_edges)).
    pub fn for_cluster(cluster: &Cluster, n: usize, edges: &ShardedVec<Edge>) -> Vec<Self> {
        let mut instances = Self::instances(cluster, n, edges, &[Weight::MAX], None);
        instances.pop().expect("one threshold, one instance")
    }

    /// One instance per threshold, one program per machine each, sharing
    /// one sketch-family cell. With `rng` — the large machine's stream —
    /// each instance's seed is drawn from it in threshold order and baked
    /// in; without, the large machine draws it at round 0 and broadcasts it.
    pub fn instances(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        thresholds: &[Weight],
        mut rng: Option<&mut SmallRng>,
    ) -> Vec<Vec<Self>> {
        let large = cluster
            .large()
            .expect("sketch connectivity requires a large machine");
        assert!(
            edges.shard(large).is_empty(),
            "engine programs expect the input on the small machines only"
        );
        let owners: Arc<[MachineId]> = cluster.small_ids().into();
        let phases = ConnectivityConfig::for_n(n).phases;
        let shards: Vec<Arc<[Edge]>> = (0..cluster.machines())
            .map(|mid| Arc::from(edges.shard(mid)))
            .collect();
        (thresholds.iter())
            .map(|&threshold| {
                let seed = rng.as_deref_mut().map(|rng| rng.random());
                let family = Arc::new(OnceLock::new());
                (shards.iter())
                    .map(|local_edges| ConnectivityProgram {
                        n,
                        phases,
                        threshold,
                        owners: owners.clone(),
                        local_edges: local_edges.clone(),
                        seed,
                        baked: seed.is_some(),
                        family: Arc::clone(&family),
                        result: None,
                    })
                    .collect()
            })
            .collect()
    }

    /// The instance's sketch family, built from this machine's seed by the
    /// first machine of the instance that asks.
    fn family(&self) -> &SketchFamily {
        let seed = self.seed.expect("seed baked in, received or drawn");
        let (built_from, family) =
            (self.family).get_or_init(|| (seed, SketchFamily::new(self.n, self.phases, seed)));
        debug_assert_eq!(*built_from, seed, "the shared family has another seed");
        family
    }
}

impl MachineProgram for ConnectivityProgram {
    type Message = ConnMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, ConnMsg)>,
    ) -> StepOutcome<ConnMsg> {
        match ctx.round + u64::from(self.baked) {
            // Round 0 — the large machine distributes shared randomness.
            0 => {
                if !ctx.is_large() {
                    return StepOutcome::idle();
                }
                let seed: u64 = ctx.rng().random();
                self.seed = Some(seed);
                let out = ctx
                    .small_ids_iter()
                    .map(|mid| (mid, ConnMsg::Seed(seed)))
                    .collect();
                StepOutcome::Send(out)
            }
            // Round 1 — small machines sketch their local edges.
            1 => {
                if ctx.is_large() {
                    return StepOutcome::idle();
                }
                if let Some((_, ConnMsg::Seed(seed))) = inbox.into_iter().next() {
                    self.seed = Some(seed);
                }
                let local: Vec<_> = (self.local_edges.iter())
                    .filter(|e| e.w <= self.threshold)
                    .map(|e| (e.u, e.v))
                    .collect();
                // Sketch construction is the dominant local computation;
                // report it so the cost model sees the skew.
                ctx.charge((local.len() * self.phases) as u64);
                if local.is_empty() {
                    return StepOutcome::idle(); // nothing to sketch
                }
                let batches = self.family().partial_batches(&local, self.owners.len());
                let out = (self.owners.iter().copied().zip(batches))
                    .filter(|(_, batch)| !batch.is_empty())
                    .map(|(owner, batch)| (owner, ConnMsg::Partial(batch)))
                    .collect();
                StepOutcome::Send(out)
            }
            // Round 2 — owners sum partials per key (linearity).
            2 => {
                if inbox.is_empty() {
                    // The large machine waits for round 3 whatever comes.
                    return if ctx.is_large() {
                        StepOutcome::idle()
                    } else {
                        StepOutcome::Halt
                    };
                }
                let large = ctx.large.expect("checked in instances");
                let merged = merge_batches(&partials_of(inbox));
                debug_assert!(!merged.is_empty());
                StepOutcome::Send(vec![(large, ConnMsg::Partial(merged))])
            }
            // Round 3 — the large machine runs sketch-Borůvka locally.
            _ => {
                if !ctx.is_large() {
                    return StepOutcome::Halt;
                }
                ctx.charge((self.n * self.phases) as u64);
                let batches = partials_of(inbox);
                self.result = Some(if batches.is_empty() {
                    // No edge was sketched: `n` singletons.
                    let label = (0..self.n as VertexId).collect();
                    Components {
                        label,
                        count: self.n,
                    }
                } else {
                    sketch_connectivity_batches(self.family(), &batches, self.n)
                });
                StepOutcome::Halt
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, Executor};
    use mpc_core::common::distribute_edges;
    use mpc_core::ported::connectivity::sketch_friendly_config;
    use mpc_graph::generators;
    use rand::SeedableRng;

    #[test]
    fn an_instance_builds_one_shared_family() {
        let g = generators::gnm(96, 400, 3).with_random_weights(8, 3);
        let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), 3));
        let edges = distribute_edges(&cluster, &g);
        let mut rng = SmallRng::seed_from_u64(9);
        let baked = ConnectivityProgram::instances(&cluster, g.n(), &edges, &[4], Some(&mut rng));
        let drawn = ConnectivityProgram::for_cluster(&cluster, g.n(), &edges);
        let exec = Executor::new("conn", ExecMode::Serial);
        let mut cells = Vec::new();
        for programs in baked.into_iter().chain([drawn]) {
            let outcome = exec.run(&mut cluster, programs).unwrap();
            let first = &outcome.programs[0].family;
            let seed = outcome.programs[cluster.large().unwrap()].seed;
            assert_eq!(first.get().map(|(built_from, _)| *built_from), seed);
            for p in &outcome.programs {
                assert!(Arc::ptr_eq(&p.family, first), "one cell per instance");
            }
            cells.push(Arc::clone(first));
        }
        assert!(
            !Arc::ptr_eq(&cells[0], &cells[1]),
            "instances share no cell"
        );
    }
}
