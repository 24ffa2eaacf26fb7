//! Deterministic, seeded fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a list of scheduled [`Fault`]s attached to a
//! [`Cluster`](crate::Cluster) with
//! [`set_fault_plan`](crate::Cluster::set_fault_plan). Faults fire inside
//! [`exchange_into`](crate::Cluster::exchange_into) — the single choke
//! point every execution mode (serial and worker pool alike) funnels
//! through — so a plan produces the *identical* fault sequence regardless
//! of how the round loop is driven. With no plan attached the exchange hot
//! path pays exactly one branch per round (same contract as tracing).
//!
//! Faults come in four flavors:
//!
//! * [`Fault::Crash`] — the machine loses its local state, its RNG
//!   position, and every message of the crashing exchange (outbound *and*
//!   inbound). Recovery is the execution engine's job (DESIGN.md §2.7,
//!   §2.9): the driver restores a small machine's shard from a peer
//!   replica and the large machine's from its durable-host checkpoint,
//!   then replays the lost rounds — any machine may be a victim. Every
//!   machine's replica is charged to the model, but the driver keeps a
//!   host copy only of the machines some crash in the plan names, so it
//!   reads the plan for *which* machines crash, never *when*. A plan
//!   naming a machine the cluster does not have is refused before round
//!   0.
//! * [`Fault::DropExchange`] — transient network fault: the machine's
//!   outbound messages for one exchange are lost, but its state survives.
//! * [`Fault::DelayRound`] — one round's makespan is stretched by a fixed
//!   number of simulated seconds (a transient stall).
//! * [`Fault::Slowdown`] — the machine's speed and bandwidth drop
//!   permanently from the fault round onward (a degrading host).
//!
//! Crash and drop faults are **armed**: they only fire on exchanges the
//! driver has marked fault-eligible (see
//! [`arm_faults`](crate::Cluster::arm_faults)), deferring past setup and
//! recovery-infrastructure exchanges to the next armed round. Delay and
//! slowdown faults fire on schedule regardless of arming — they model the
//! environment, not the protocol.
//!
//! The exchange does not deliver the messages a crash or a drop loses; it
//! leaves them in the caller's outboxes, per source and in send order, and
//! the execution engine resends exactly those in its recovery exchange.
//! Which messages a fault loses is decided in the exchange and nowhere else.

use crate::payload::{MachineId, Payload};

/// One scheduled fault. Rounds are 1-based cluster exchange counts (the
/// value [`Cluster::rounds`](crate::Cluster::rounds) reports *after* the
/// exchange); a fault scheduled for a round that has already passed, or
/// for a disarmed exchange (crash/drop only), defers to the next eligible
/// exchange.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Machine `machine` crashes during exchange `round`: local state, RNG
    /// position, and all of its messages that round are lost.
    Crash {
        /// The crashing machine.
        machine: MachineId,
        /// Earliest exchange round the crash can fire on.
        round: u64,
    },
    /// Machine `machine`'s outbound messages for exchange `round` are
    /// lost in transit; its state and inbound mail survive.
    DropExchange {
        /// The machine whose outbox is dropped.
        machine: MachineId,
        /// Earliest exchange round the drop can fire on.
        round: u64,
    },
    /// Exchange `round` stalls for `seconds` of extra simulated makespan.
    DelayRound {
        /// Earliest exchange round the delay can fire on.
        round: u64,
        /// Extra simulated seconds added to that round's makespan.
        seconds: f64,
    },
    /// Machine `machine` permanently slows to `factor` of its configured
    /// speed and bandwidth from exchange `round` onward.
    Slowdown {
        /// The degrading machine.
        machine: MachineId,
        /// Earliest exchange round the slowdown takes effect.
        round: u64,
        /// Multiplier in `(0, 1]` applied to speed and bandwidth.
        factor: f64,
    },
}

impl Fault {
    /// The earliest exchange round this fault can fire on.
    pub fn round(&self) -> u64 {
        match self {
            Fault::Crash { round, .. }
            | Fault::DropExchange { round, .. }
            | Fault::DelayRound { round, .. }
            | Fault::Slowdown { round, .. } => *round,
        }
    }

    /// Whether this fault only fires on armed (fault-eligible) exchanges.
    pub fn needs_arming(&self) -> bool {
        matches!(self, Fault::Crash { .. } | Fault::DropExchange { .. })
    }

    /// The machine this fault strikes, if it strikes one (a delay stalls
    /// the whole round).
    pub fn machine(&self) -> Option<MachineId> {
        match *self {
            Fault::Crash { machine, .. }
            | Fault::DropExchange { machine, .. }
            | Fault::Slowdown { machine, .. } => Some(machine),
            Fault::DelayRound { .. } => None,
        }
    }

    /// Whether this fault, unfired, fires on exchange `round` given the
    /// arming state.
    fn is_due(&self, round: u64, armed: bool) -> bool {
        self.round() <= round && (armed || !self.needs_arming())
    }

    /// Short static name for telemetry (`kind` field of
    /// [`TraceEvent::FaultInjected`](crate::TraceEvent::FaultInjected)).
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::Crash { .. } => "crash",
            Fault::DropExchange { .. } => "drop_exchange",
            Fault::DelayRound { .. } => "delay_round",
            Fault::Slowdown { .. } => "slowdown",
        }
    }

    /// Human-readable detail string for telemetry.
    pub fn detail(&self) -> String {
        match self {
            Fault::Crash { machine, round } => {
                format!("machine {machine} crashes (scheduled round {round})")
            }
            Fault::DropExchange { machine, round } => {
                format!("machine {machine} outbox dropped (scheduled round {round})")
            }
            Fault::DelayRound { round, seconds } => {
                format!("round stalled {seconds}s (scheduled round {round})")
            }
            Fault::Slowdown {
                machine,
                round,
                factor,
            } => {
                format!("machine {machine} slowed to {factor}x (scheduled round {round})")
            }
        }
    }
}

/// How the execution engine checkpoints and recovers (DESIGN.md §2.7).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Number of peer replicas each small machine's shard state is copied
    /// to at every checkpoint (ring successors among the small machines).
    pub replicas: usize,
    /// Checkpoint every `cadence` driver rounds (1 = every round).
    pub cadence: u64,
    /// Recovery attempts per disrupted round before the driver surfaces
    /// `ExecError::Unrecoverable`.
    pub max_retries: usize,
    /// Simulated seconds of backoff added per retry attempt (linear).
    pub backoff_seconds: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            replicas: 1,
            cadence: 1,
            max_retries: 3,
            backoff_seconds: 1.0,
        }
    }
}

/// A fault that actually fired, as reported by
/// [`Cluster::take_fired_faults`](crate::Cluster::take_fired_faults).
#[derive(Clone, Debug, PartialEq)]
pub struct FiredFault {
    /// The fault as scheduled.
    pub fault: Fault,
    /// The exchange round it actually fired on (≥ the scheduled round when
    /// deferred past disarmed exchanges).
    pub round: u64,
}

/// A deterministic schedule of faults plus the recovery policy the
/// execution engine should apply. Attach with
/// [`Cluster::set_fault_plan`](crate::Cluster::set_fault_plan).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    fired: Vec<bool>,
    policy: RecoveryPolicy,
}

impl FaultPlan {
    /// An empty plan (no faults, default [`RecoveryPolicy`]).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a scheduled fault (builder style).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self.fired.push(false);
        self
    }

    /// Replaces the recovery policy (builder style).
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The canonical chaos-matrix plan: crash exactly one small machine
    /// (chosen by `seed`) halfway through a run expected to take
    /// `total_rounds` exchanges. Deterministic in `(seed, small_ids,
    /// total_rounds)`. The execution engine recovers the large machine too
    /// (its checkpoint lives on the durable host, DESIGN.md §2.9) — use
    /// [`seeded_single_crash_among`](FaultPlan::seeded_single_crash_among)
    /// to put it in the victim pool.
    ///
    /// # Panics
    ///
    /// Panics if `small_ids` is empty.
    pub fn seeded_single_crash(seed: u64, small_ids: &[MachineId], total_rounds: u64) -> Self {
        Self::seeded_single_crash_among(seed, small_ids, total_rounds)
    }

    /// [`seeded_single_crash`](FaultPlan::seeded_single_crash) over an
    /// arbitrary victim pool — pass every machine id (large included) to
    /// exercise coordinator failover in the chaos matrix.
    ///
    /// # Panics
    ///
    /// Panics if `victims` is empty.
    pub fn seeded_single_crash_among(seed: u64, victims: &[MachineId], total_rounds: u64) -> Self {
        assert!(
            !victims.is_empty(),
            "seeded_single_crash needs at least one victim machine"
        );
        let victim = victims[(seed % victims.len() as u64) as usize];
        let round = (total_rounds / 2).max(1);
        FaultPlan::new().with_fault(Fault::Crash {
            machine: victim,
            round,
        })
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The plan's recovery policy.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Fires the faults due on exchange round `round` given the arming
    /// state and marks them fired: each fault fires at most once per run.
    /// Crash/drop faults additionally require `armed`; every fault defers
    /// past its scheduled round if earlier exchanges were ineligible.
    pub fn fire_due(&mut self, round: u64, armed: bool) -> Vec<FiredFault> {
        let mut out = Vec::new();
        for (f, fired) in self.faults.iter().zip(self.fired.iter_mut()) {
            if !*fired && f.is_due(round, armed) {
                *fired = true;
                out.push(FiredFault {
                    fault: f.clone(),
                    round,
                });
            }
        }
        out
    }

    /// The faults [`fire_due`](FaultPlan::fire_due) would fire on exchange
    /// `round` given the arming state, without firing them.
    pub(crate) fn due(&self, round: u64, armed: bool) -> impl Iterator<Item = &Fault> {
        (self.faults.iter().zip(&self.fired))
            .filter(move |&(f, &fired)| !fired && f.is_due(round, armed))
            .map(|(f, _)| f)
    }

    /// Whether any fault is still pending (unfired).
    pub fn pending(&self) -> bool {
        self.fired.iter().any(|&f| !f)
    }
}

/// Opaque replication payload: `words()` is the declared shard-state size
/// being copied, so checkpoint traffic is charged to the cost model and
/// the capacity checks exactly like algorithm traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicaChunk(pub usize);

impl Payload for ReplicaChunk {
    fn words(&self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_single_crash_is_deterministic_and_picks_small_machines() {
        let smalls = [1, 2, 3, 4];
        let a = FaultPlan::seeded_single_crash(7, &smalls, 40);
        let b = FaultPlan::seeded_single_crash(7, &smalls, 40);
        assert_eq!(a.faults(), b.faults());
        match a.faults()[0] {
            Fault::Crash { machine, round } => {
                assert_eq!(machine, smalls[(7 % 4) as usize]);
                assert_eq!(round, 20);
            }
            ref other => panic!("expected a crash, got {other:?}"),
        }
        // Different seeds cycle through victims.
        let victims: Vec<MachineId> = (0..4)
            .map(
                |s| match FaultPlan::seeded_single_crash(s, &smalls, 40).faults()[0] {
                    Fault::Crash { machine, .. } => machine,
                    _ => unreachable!(),
                },
            )
            .collect();
        assert_eq!(victims, smalls);
    }

    #[test]
    fn crash_round_floors_at_one() {
        let plan = FaultPlan::seeded_single_crash(0, &[1], 1);
        assert_eq!(plan.faults()[0].round(), 1);
    }

    #[test]
    fn crash_defers_until_armed_and_fires_once() {
        let mut plan = FaultPlan::new().with_fault(Fault::Crash {
            machine: 2,
            round: 3,
        });
        assert!(plan.fire_due(2, true).is_empty(), "not yet due");
        assert!(plan.fire_due(3, false).is_empty(), "due but disarmed");
        assert!(plan.pending());
        let fired = plan.fire_due(5, true);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].round, 5, "fires on the deferred round");
        assert_eq!(fired[0].fault.round(), 3, "schedule preserved");
        assert!(plan.fire_due(6, true).is_empty(), "at most once");
        assert!(!plan.pending());
    }

    #[test]
    fn delay_and_slowdown_ignore_arming() {
        let mut plan = FaultPlan::new()
            .with_fault(Fault::DelayRound {
                round: 1,
                seconds: 2.5,
            })
            .with_fault(Fault::Slowdown {
                machine: 1,
                round: 1,
                factor: 0.5,
            });
        let fired = plan.fire_due(1, false);
        assert_eq!(fired.len(), 2);
    }

    #[test]
    fn due_peeks_without_firing() {
        let mut plan = FaultPlan::new().with_fault(Fault::DropExchange {
            machine: 1,
            round: 1,
        });
        assert!(plan.fire_due(1, false).is_empty(), "drop respects arming");
        assert!(plan.pending(), "a disarmed exchange does not consume");
        assert_eq!(plan.fire_due(2, true).len(), 1);
        assert!(!plan.pending());
    }

    #[test]
    fn due_lists_what_would_fire() {
        let plan = FaultPlan::new()
            .with_fault(Fault::DropExchange {
                machine: 1,
                round: 1,
            })
            .with_fault(Fault::DelayRound {
                round: 2,
                seconds: 1.0,
            });
        let machines = |round, armed| {
            plan.due(round, armed)
                .map(Fault::machine)
                .collect::<Vec<_>>()
        };
        assert_eq!(machines(1, false), vec![]);
        assert_eq!(machines(1, true), vec![Some(1)]);
        assert_eq!(machines(2, true), vec![Some(1), None]);
        assert!(plan.pending(), "peeking fires nothing");
    }

    #[test]
    fn replica_chunk_words_are_the_declared_size() {
        assert_eq!(ReplicaChunk(17).words(), 17);
    }
}
