//! [`ConnectivityProgram`]: the paper's `O(1)`-round connectivity port
//! (Theorem C.1) expressed as a per-machine state machine.
//!
//! Same mathematics as [`mpc_core::ported::heterogeneous_connectivity`],
//! re-phased onto the program clock (`ctx.round`):
//!
//! | round | who    | does |
//! |------:|--------|------|
//! | 0     | large  | draws the sketch-family seed from its private RNG, sends it to every machine |
//! | 1     | smalls | build partial sparse sketches of their local edges, send each hash-owner its `(phase, vertex)` partials as one [`PartialBatch`] |
//! | 2     | owners | sum partials per key (sketches are linear), forward one batch to the large machine |
//! | 3     | large  | runs sketch-Borůvka locally over the merged sparse sketches, halts with the [`Components`] |
//!
//! A batch costs one word per key and four per cell, whatever it is split
//! into; a machine with nothing to send sends no batch, and a small machine
//! with no local edge builds no sketch family.
//!
//! The three local steps are the kernels of [`mpc_sketch::connectivity`],
//! shared with the legacy implementation. The seed is the large machine's
//! **first** RNG draw — exactly what the legacy implementation draws — and
//! sketch merging is field addition (commutative and associative), so the
//! resulting components are *identical* to the legacy path on the same
//! cluster seed, which the equivalence tests assert.

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use mpc_core::ported::connectivity::ConnectivityConfig;
use mpc_graph::traversal::Components;
use mpc_graph::Edge;
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use mpc_sketch::{merge_batches, sketch_connectivity_batches, PartialBatch, SketchFamily};
use rand::Rng;

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

/// Per-machine state of the connectivity port.
#[derive(Clone)]
pub struct ConnectivityProgram {
    n: usize,
    phases: usize,
    owners: Vec<MachineId>,
    local_edges: Vec<Edge>,
    /// The family seed: drawn in round 0 on the large machine, received in
    /// round 1 on the smalls.
    seed: Option<u64>,
    /// Set on the large machine when it halts.
    pub result: Option<Components>,
}

impl ConnectivityProgram {
    /// Builds one program per machine of `cluster`, with the input edges
    /// sharded as `edges` (typically
    /// [`common::distribute_edges`](mpc_core::common::distribute_edges)).
    pub fn for_cluster(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        config: &ConnectivityConfig,
    ) -> Vec<Self> {
        let owners = cluster.small_ids();
        assert!(
            cluster.large().is_some(),
            "connectivity requires a large machine"
        );
        (0..cluster.machines())
            .map(|mid| ConnectivityProgram {
                n,
                phases: config.phases,
                owners: owners.clone(),
                local_edges: edges.shard(mid).to_vec(),
                seed: None,
                result: None,
            })
            .collect()
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
        match ctx.round {
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
                let Some((_, ConnMsg::Seed(seed))) = inbox.into_iter().next() else {
                    return StepOutcome::idle(); // the large machine
                };
                self.seed = Some(seed);
                // Sketch construction is the dominant local computation;
                // report it so the cost model sees the skew.
                ctx.charge((self.local_edges.len() * self.phases) as u64);
                if self.local_edges.is_empty() {
                    return StepOutcome::idle(); // nothing to sketch
                }
                let family = SketchFamily::new(self.n, self.phases, seed);
                let local: Vec<_> = self.local_edges.iter().map(|e| (e.u, e.v)).collect();
                let batches = family.partial_batches(&local, self.owners.len());
                let out = (self.owners.iter().copied().zip(batches))
                    .filter(|(_, batch)| !batch.is_empty())
                    .map(|(owner, batch)| (owner, ConnMsg::Partial(batch)))
                    .collect();
                StepOutcome::Send(out)
            }
            // Round 2 — owners sum partials per key (linearity).
            2 => {
                if inbox.is_empty() {
                    return StepOutcome::idle();
                }
                let large = ctx.large.expect("checked in for_cluster");
                let merged = merge_batches(&partials_of(inbox));
                debug_assert!(!merged.is_empty());
                StepOutcome::Send(vec![(large, ConnMsg::Partial(merged))])
            }
            // Round 3 — the large machine runs sketch-Borůvka locally.
            _ => {
                if !ctx.is_large() {
                    return StepOutcome::Halt;
                }
                let seed = self.seed.expect("seed drawn in round 0");
                let family = SketchFamily::new(self.n, self.phases, seed);
                ctx.charge((self.n * self.phases) as u64);
                self.result = Some(sketch_connectivity_batches(
                    &family,
                    &partials_of(inbox),
                    self.n,
                ));
                StepOutcome::Halt
            }
        }
    }
}
