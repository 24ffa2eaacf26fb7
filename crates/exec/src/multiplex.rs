//! The multi-program scheduler: N independent [`MachineProgram`] instances
//! interleaved into **one** bulk-synchronous engine run.
//!
//! The paper's Theorem C.2 estimator, the C.4 approximate min cut, and the
//! weighted-spanner reduction all consist of many *independent* MPC
//! instances (threshold waves, λ̂ guesses, weight classes) that the paper
//! runs in parallel. PR 4 ported each per-wave state machine but executed
//! the waves one after another, so measured round counts were
//! `O(waves · per-wave rounds)` instead of the theorems' parallel figure.
//! [`Multiplexed`] closes that gap:
//!
//! * each machine holds one sub-program **per instance**; every combined
//!   round it steps each live instance once, in instance order, against a
//!   sub-context that shares the machine's private RNG stream and the
//!   global round clock but reports the **solo** (single-instance)
//!   capacity — so per-instance decisions (e.g. the C.4 skeleton budget)
//!   are bit-identical to a solo run;
//! * outgoing messages are tagged with their instance id ([`Mux`]) and the
//!   union of all instances' outboxes moves through a single
//!   [`exchange_into`](mpc_runtime::Cluster::exchange_into), so the cost
//!   model is charged once per *combined* round. The tag itself is free
//!   (addressing metadata of the scheduler, like the `(src, dst)` routing
//!   words the model never charges); the combined round's word count is
//!   exactly the sum of the live instances' traffic. Callers pair the run
//!   with [`Cluster::set_capacity_factor`](mpc_runtime::Cluster::set_capacity_factor)
//!   so strict enforcement checks that sum against the aggregate budget of
//!   the interleaved instances;
//! * a per-instance halt flag mirrors the engine's machine-level
//!   halt/reactivate protocol: a halted instance is skipped (zero work,
//!   zero RNG draws, zero traffic) until a tagged message reactivates it,
//!   and the machine as a whole halts only when every instance has;
//! * an optional [`MuxController`] runs after the instances step and may
//!   **retire** instances — force-halt them and discard their pending
//!   outboxes — which is how cross-instance early exit works: when the C.4
//!   coordinator sees a guess overflow its skeleton budget, every finer
//!   guess is retired before its `Ship` command leaves the machine, so a
//!   retired instance contributes zero traffic to all later combined
//!   rounds (its small-machine halves are never reactivated).
//!
//! Determinism: the combined inbox arrives in the engine's canonical order
//! (ascending source, then send order); demultiplexing preserves that
//! order per instance, and instances step in instance-id order, so each
//! machine's RNG consumption is the instance-major order the sequential
//! composition used — which is exactly why the batched `mst-approx` and
//! `spanner-weighted` runs reproduce the legacy draws bit-for-bit.

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use mpc_runtime::telemetry::TraceEvent;
use mpc_runtime::{Cluster, MachineId, Payload};
use std::sync::Arc;

/// An instance-tagged message: `(instance id, inner message)`.
///
/// The tag costs zero words — it is scheduler addressing metadata, so the
/// combined round's accounted traffic equals the sum of the instances'
/// solo traffic (the quantity the paper's parallel composition budgets).
#[derive(Clone, Debug, PartialEq)]
pub struct Mux<M>(pub u32, pub M);

impl<M: Payload> Payload for Mux<M> {
    fn words(&self) -> usize {
        self.1.words()
    }
}

/// One instance's slot on one machine: the sub-program plus its lifecycle
/// flags and the outbox staged this round (visible to the controller
/// before it is merged and exchanged).
pub struct MuxSlot<P: MachineProgram> {
    /// The instance's sub-program on this machine.
    pub program: P,
    halted: bool,
    retired: bool,
    outbox: Vec<(MachineId, P::Message)>,
}

impl<P: MachineProgram> MuxSlot<P> {
    /// Whether this instance has voted to halt on this machine.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether this instance was retired by the controller.
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Retires the instance: discards its staged outbox and prevents any
    /// further steps. Mail addressed to a retired instance is dropped, so
    /// it contributes zero traffic and zero work to later combined rounds.
    pub fn retire(&mut self) {
        self.retired = true;
        self.halted = true;
        self.outbox.clear();
    }
}

/// Cross-instance coordination, run on a machine after all of its live
/// instances stepped in a round — the hook that implements early exit
/// across instances (typically installed on the large machine only).
/// Shared and stateless (`Arc<dyn Fn>`) so a checkpoint snapshot can carry
/// the controller along: coordinator failover (DESIGN.md §2.9) must be
/// able to restore the large machine, controller included.
pub type MuxController<P> = Arc<dyn Fn(&MachineCtx<'_>, &mut [MuxSlot<P>]) + Send + Sync>;

/// RAII wrapper for [`Cluster::set_capacity_factor`]: scales the cluster's
/// capacities for a combined (multiplexed) run and restores the solo
/// factor of 1 on drop — including when the run panics, so a caller that
/// catches the panic never observes a cluster with silently-disabled
/// strict enforcement.
pub struct CapacityFactor<'a> {
    cluster: &'a mut Cluster,
}

impl<'a> CapacityFactor<'a> {
    /// Applies `factor` (clamped to ≥ 1) for the guard's lifetime.
    pub fn scale(cluster: &'a mut Cluster, factor: usize) -> Self {
        cluster.set_capacity_factor(factor.max(1));
        CapacityFactor { cluster }
    }

    /// The scaled cluster (borrow this for the combined run).
    pub fn cluster(&mut self) -> &mut Cluster {
        self.cluster
    }
}

impl Drop for CapacityFactor<'_> {
    fn drop(&mut self) {
        self.cluster.set_capacity_factor(1);
    }
}

/// N independent program instances multiplexed onto one machine — itself a
/// [`MachineProgram`], so the ordinary [`Executor`](crate::Executor)
/// drives the combined run (serial or pooled, bit-identical either way).
pub struct Multiplexed<P: MachineProgram> {
    slots: Vec<MuxSlot<P>>,
    /// The capacity sub-programs observe: this machine's solo (factor-1)
    /// capacity, snapshotted before the combined-run capacity factor is
    /// applied to the cluster.
    solo_capacity: usize,
    controller: Option<MuxController<P>>,
    /// Per-instance inbox scratch, reused across rounds.
    inboxes: Vec<Vec<(MachineId, P::Message)>>,
}

impl<P: MachineProgram> Multiplexed<P> {
    /// Builds the per-machine multiplexed programs from per-instance
    /// program vectors: `per_instance[i][mid]` is instance `i`'s program on
    /// machine `mid` (the shape every `for_cluster` constructor produces).
    /// Capacities are snapshotted from `cluster` now, so call this *before*
    /// [`Cluster::set_capacity_factor`].
    ///
    /// # Panics
    ///
    /// Panics if the instance vectors disagree on the machine count or no
    /// instance is supplied.
    pub fn build(cluster: &Cluster, per_instance: Vec<Vec<P>>) -> Vec<Multiplexed<P>> {
        assert!(!per_instance.is_empty(), "need at least one instance");
        let machines = cluster.machines();
        for (i, progs) in per_instance.iter().enumerate() {
            assert_eq!(
                progs.len(),
                machines,
                "instance {i}: one program per machine required"
            );
        }
        let instances = per_instance.len();
        let mut columns: Vec<Multiplexed<P>> = (0..machines)
            .map(|mid| Multiplexed {
                slots: Vec::with_capacity(instances),
                solo_capacity: cluster.capacity(mid),
                controller: None,
                inboxes: (0..instances).map(|_| Vec::new()).collect(),
            })
            .collect();
        for progs in per_instance {
            for (mid, program) in progs.into_iter().enumerate() {
                columns[mid].slots.push(MuxSlot {
                    program,
                    halted: false,
                    retired: false,
                    outbox: Vec::new(),
                });
            }
        }
        columns
    }

    /// Installs the cross-instance controller on this machine.
    pub fn with_controller(mut self, controller: MuxController<P>) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Instance `i`'s sub-program on this machine.
    pub fn instance(&self, i: usize) -> &P {
        &self.slots[i].program
    }

    /// Whether instance `i` was retired on this machine.
    pub fn retired(&self, i: usize) -> bool {
        self.slots[i].retired
    }

    /// Consumes the wrapper, yielding the sub-programs in instance order.
    pub fn into_programs(self) -> Vec<P> {
        self.slots.into_iter().map(|s| s.program).collect()
    }
}

impl<P: MachineProgram> MachineProgram for Multiplexed<P> {
    type Message = Mux<P::Message>;

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, Mux<P::Message>)>,
    ) -> StepOutcome<Mux<P::Message>> {
        // Demultiplex: the combined inbox is in canonical order (ascending
        // source, send order), so each instance's slice of it is too.
        for (src, Mux(instance, msg)) in inbox {
            let i = instance as usize;
            assert!(i < self.slots.len(), "message for unknown instance {i}");
            self.inboxes[i].push((src, msg));
        }

        let mut live = 0usize;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let mail = std::mem::take(&mut self.inboxes[i]);
            if slot.retired {
                continue; // retired: mail (if any) is dropped, no step
            }
            if slot.halted && mail.is_empty() {
                continue; // idle-instance skip: zero work, zero RNG draws
            }
            live += 1;
            // The sub-context reborrows this machine's private RNG, so the
            // instances consume one stream in instance-major order, and
            // reports the solo capacity so per-instance decisions match a
            // single-instance run bit-for-bit.
            let (outcome, extra) = {
                let mut rng = ctx.rng();
                let sub = MachineCtx::new(
                    ctx.mid,
                    ctx.machines,
                    ctx.large,
                    self.solo_capacity,
                    ctx.round,
                    &mut rng,
                    ctx.sink(),
                );
                let outcome = slot.program.step(&sub, mail);
                (outcome, sub.charged())
            };
            ctx.charge(extra);
            match outcome {
                StepOutcome::Halt => slot.halted = true,
                StepOutcome::Send(msgs) => {
                    slot.halted = false;
                    slot.outbox = msgs;
                }
            }
        }

        if let Some(controller) = self.controller.clone() {
            // Snapshot retired flags (allocating only when a sink listens)
            // so controller-driven retirements become discrete events.
            let before: Vec<bool> = if ctx.tracing() {
                self.slots.iter().map(|s| s.retired).collect()
            } else {
                Vec::new()
            };
            controller(ctx, &mut self.slots);
            if ctx.tracing() {
                for (i, (slot, was)) in self.slots.iter().zip(&before).enumerate() {
                    if slot.retired && !was {
                        ctx.trace(|| TraceEvent::InstanceRetired {
                            round: ctx.round,
                            machine: ctx.mid,
                            instance: i as u32,
                        });
                    }
                }
            }
        }
        ctx.trace(|| TraceEvent::MuxRound {
            round: ctx.round,
            machine: ctx.mid,
            live,
            retired: self.slots.iter().filter(|s| s.retired).count(),
        });

        let mut all_halted = true;
        let mut out: Vec<(MachineId, Mux<P::Message>)> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            all_halted &= slot.halted;
            for (dst, msg) in slot.outbox.drain(..) {
                out.push((dst, Mux(i as u32, msg)));
            }
        }
        if all_halted && out.is_empty() {
            StepOutcome::Halt
        } else {
            StepOutcome::Send(out)
        }
    }

    /// A multiplexed machine checkpoints iff every instance's sub-program
    /// does. Controllers are shared, stateless closures, so the snapshot
    /// carries the same controller — a restored coordinator keeps making
    /// the same cross-instance decisions during replay.
    fn snapshot(&self) -> Option<Self> {
        let mut slots = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            slots.push(MuxSlot {
                program: slot.program.snapshot()?,
                halted: slot.halted,
                retired: slot.retired,
                outbox: slot.outbox.clone(),
            });
        }
        Some(Multiplexed {
            slots,
            solo_capacity: self.solo_capacity,
            controller: self.controller.clone(),
            inboxes: self.inboxes.clone(),
        })
    }

    fn state_words(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| slot.program.state_words())
            .sum::<usize>()
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Executor;
    use mpc_runtime::{ClusterConfig, Topology};

    /// A two-machine ping-pong: machine 0 sends `budget` tokens to machine
    /// 1, one per round; machine 1 echoes each. Tracks everything received.
    struct PingPong {
        budget: u64,
        received: u64,
    }

    impl MachineProgram for PingPong {
        type Message = u64;

        fn step(&mut self, ctx: &MachineCtx<'_>, inbox: Vec<(MachineId, u64)>) -> StepOutcome<u64> {
            self.received += inbox.iter().map(|(_, m)| m).sum::<u64>();
            if ctx.mid == 0 {
                if ctx.round < self.budget {
                    return StepOutcome::Send(vec![(1, ctx.round + 1)]);
                }
                return StepOutcome::Halt;
            }
            if inbox.is_empty() {
                return StepOutcome::Halt;
            }
            StepOutcome::Send(inbox.into_iter().map(|(src, m)| (src, m * 10)).collect())
        }
    }

    fn two_machine_cluster() -> Cluster {
        Cluster::new(ClusterConfig::new(16, 16).topology(Topology::Custom {
            capacities: vec![1000, 1000],
            large: Some(0),
        }))
    }

    #[test]
    fn multiplexed_instances_match_solo_runs() {
        // Three instances with different budgets, interleaved.
        let budgets = [1u64, 3, 2];
        let solo: Vec<(u64, u64)> = budgets
            .iter()
            .map(|&b| {
                let mut cluster = two_machine_cluster();
                let programs = vec![
                    PingPong {
                        budget: b,
                        received: 0,
                    },
                    PingPong {
                        budget: b,
                        received: 0,
                    },
                ];
                let out = Executor::serial("solo")
                    .run(&mut cluster, programs)
                    .unwrap();
                (out.programs[0].received, out.programs[1].received)
            })
            .collect();

        let mut cluster = two_machine_cluster();
        let per_instance: Vec<Vec<PingPong>> = budgets
            .iter()
            .map(|&b| {
                vec![
                    PingPong {
                        budget: b,
                        received: 0,
                    },
                    PingPong {
                        budget: b,
                        received: 0,
                    },
                ]
            })
            .collect();
        let muxed = Multiplexed::build(&cluster, per_instance);
        let out = {
            let mut scaled = CapacityFactor::scale(&mut cluster, budgets.len());
            Executor::serial("mux")
                .run(scaled.cluster(), muxed)
                .unwrap()
        };

        // The combined run takes max(solo rounds) — budget b finishes in
        // b + 1 rounds (last echo lands at round b + 1) — not the sum.
        assert_eq!(out.rounds, 3 + 1, "combined rounds = slowest instance");
        let m0 = &out.programs[0];
        let m1 = &out.programs[1];
        for (i, &(s0, s1)) in solo.iter().enumerate() {
            assert_eq!(m0.instance(i).received, s0, "instance {i} on machine 0");
            assert_eq!(m1.instance(i).received, s1, "instance {i} on machine 1");
        }
    }

    #[test]
    fn retired_instances_contribute_zero_traffic_to_later_rounds() {
        // Two instances; the controller on machine 0 retires instance 1
        // after round 1, discarding its staged outbox — so rounds ≥ 1 carry
        // only instance 0's traffic and instance 1's peer is never
        // reactivated.
        let mut cluster = two_machine_cluster();
        let per_instance: Vec<Vec<PingPong>> = (0..2)
            .map(|_| {
                vec![
                    PingPong {
                        budget: 6,
                        received: 0,
                    },
                    PingPong {
                        budget: 6,
                        received: 0,
                    },
                ]
            })
            .collect();
        let mut muxed = Multiplexed::build(&cluster, per_instance);
        let coordinator = muxed.remove(0);
        let coordinator = coordinator.with_controller(Arc::new(
            |ctx: &MachineCtx<'_>, slots: &mut [MuxSlot<PingPong>]| {
                if ctx.round == 1 {
                    slots[1].retire();
                }
            },
        ));
        muxed.insert(0, coordinator);
        let out = {
            let mut scaled = CapacityFactor::scale(&mut cluster, 2);
            Executor::serial("retire")
                .run(scaled.cluster(), muxed)
                .unwrap()
        };

        assert!(out.programs[0].retired(1));
        // Rounds 0–1 carry both instances; from round 2 on, only instance
        // 0's token + echo (2 words) are in flight — instance 1's machine-1
        // half was never reactivated, so the retired instance contributes
        // zero words to every later combined round.
        let log = cluster.round_log();
        assert!(log[1].total_words >= 3, "both instances live at round 1");
        for rec in &log[2..] {
            assert!(
                rec.total_words <= 2,
                "retired instance leaked traffic into {}: {} words",
                rec.label,
                rec.total_words
            );
        }
        // Instance 1's machine-1 half stopped at the retirement point;
        // instance 0 ran to completion.
        assert!(out.programs[1].instance(1).received < out.programs[1].instance(0).received);
    }

    #[test]
    fn halted_instances_reactivate_on_tagged_mail() {
        // Instance 0 finishes long before instance 1; the machine as a
        // whole must stay live and instance 1's late mail must still be
        // delivered (per-instance halt mirrors machine-level halt).
        let mut cluster = two_machine_cluster();
        let per_instance = vec![
            vec![
                PingPong {
                    budget: 1,
                    received: 0,
                },
                PingPong {
                    budget: 1,
                    received: 0,
                },
            ],
            vec![
                PingPong {
                    budget: 5,
                    received: 0,
                },
                PingPong {
                    budget: 5,
                    received: 0,
                },
            ],
        ];
        let muxed = Multiplexed::build(&cluster, per_instance);
        let out = {
            let mut scaled = CapacityFactor::scale(&mut cluster, 2);
            Executor::serial("late")
                .run(scaled.cluster(), muxed)
                .unwrap()
        };
        // Instance 1 exchanged all 5 tokens even though instance 0's halves
        // halted rounds earlier.
        assert_eq!(
            out.programs[0].instance(1).received,
            (10 + 20 + 30 + 40 + 50)
        );
        assert_eq!(out.programs[1].instance(1).received, 1 + 2 + 3 + 4 + 5);
    }
}
