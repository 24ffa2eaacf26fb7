//! Fault tolerance end to end: a deterministic fault plan crashing,
//! dropping, delaying, or slowing machines mid-run must leave every result
//! bit-identical to the fault-free execution, replication must be charged
//! as real traffic and resident memory, and unrecoverable situations must
//! surface as typed errors — never as silent corruption.

use mpc_exec::{
    registry, ExecError, ExecMode, Executor, JobSpec, MachineProgram, RunReport, StepOutcome,
};
use mpc_graph::generators;
use mpc_runtime::fault::{Fault, FaultPlan, RecoveryPolicy};
use mpc_runtime::telemetry::{RingSink, TraceEvent};
use mpc_runtime::{Cluster, ClusterConfig, CostModel, MachineId, ModelViolation, Topology};
use proptest::prelude::Strategy;
use rand::RngCore;
use std::sync::Arc;

/// Runs one registry algorithm with an optional fault plan and returns the
/// result digest plus each machine's post-run RNG draw (the RNG-position
/// fingerprint recovery must restore exactly).
fn run_registry(
    name: &str,
    seed: u64,
    plan: Option<FaultPlan>,
    mode: ExecMode,
) -> (u128, Vec<u64>, Cluster) {
    run_registry_sized(name, seed, plan, mode, 220, 2600)
}

/// [`run_registry`] with a caller-chosen graph size, for sweeps that cover
/// every registry name and need a smaller instance per run.
fn run_registry_sized(
    name: &str,
    seed: u64,
    plan: Option<FaultPlan>,
    mode: ExecMode,
    n: usize,
    m: usize,
) -> (u128, Vec<u64>, Cluster) {
    let g = generators::gnm(n, m, seed).with_random_weights(1 << 16, seed);
    let polylog = registry::get(name).expect("registered").polylog_exponent;
    let mut c = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(seed)
            .polylog_exponent(polylog),
    );
    c.set_fault_plan(plan);
    let out = registry::run_job(&JobSpec::new(name, g), &mut c, mode).expect("registry run");
    let digest = out.digest();
    let draws: Vec<u64> = c.rngs_mut().iter_mut().map(RngCore::next_u64).collect();
    (digest, draws, c)
}

#[test]
fn mid_run_crash_of_any_small_machine_is_bit_identical_to_fault_free() {
    let (clean_digest, clean_draws, clean) = run_registry("mst", 11, None, ExecMode::Serial);
    let total = clean.rounds();
    let victims = clean.small_ids();
    for &victim in &victims {
        let plan = FaultPlan::new().with_fault(Fault::Crash {
            machine: victim,
            round: (total / 2).max(1),
        });
        let (digest, draws, faulted) = run_registry("mst", 11, Some(plan), ExecMode::Serial);
        assert_eq!(
            digest, clean_digest,
            "crashing machine {victim} changed the MST result"
        );
        assert_eq!(
            draws, clean_draws,
            "crashing machine {victim} left an RNG stream at the wrong position"
        );
        assert!(
            faulted.rounds() > total,
            "recovery must have added checkpoint/recovery exchanges"
        );
    }
}

/// Runs every registry name fault-free and under the crash `plan` picks
/// from its clean cluster, serially and pooled: the digest, the RNG
/// positions and the algorithm's round labels must match the clean run,
/// and recovery must add rounds.
fn every_registry_algorithm_recovers(plan: impl Fn(&str, &Cluster) -> FaultPlan) {
    for name in registry::CANONICAL_NAMES {
        let (clean_digest, clean_draws, clean) =
            run_registry_sized(name, 13, None, ExecMode::Serial, 128, 768);
        let plan = plan(name, &clean);
        let clean_labels: Vec<String> = clean
            .round_log()
            .iter()
            .map(|r| r.label.to_string())
            .collect();
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let (digest, draws, faulted) =
                run_registry_sized(name, 13, Some(plan.clone()), mode, 128, 768);
            assert_eq!(
                digest,
                clean_digest,
                "{name}: {:?} changed the result under {mode:?}",
                plan.faults()
            );
            assert_eq!(
                draws, clean_draws,
                "{name}: RNG positions diverged under {mode:?}"
            );
            // The algorithm's round sequence survives intact; only
            // checkpoint/recovery infrastructure rounds are added.
            let algo_labels: Vec<String> = faulted
                .round_log()
                .iter()
                .map(|r| r.label.to_string())
                .filter(|l| !l.contains(".ckpt.") && !l.contains(".recover."))
                .collect();
            assert_eq!(algo_labels, clean_labels, "{name}: round log diverged");
            assert!(faulted.rounds() > clean.rounds());
        }
    }
}

#[test]
fn large_machine_crash_recovers_every_registry_algorithm() {
    every_registry_algorithm_recovers(|_, clean| {
        let large = clean.large().expect("topology has a large machine");
        FaultPlan::new().with_fault(Fault::Crash {
            machine: large,
            round: (clean.rounds() / 2).max(1),
        })
    });
}

/// One seeded small-machine crash per name, the victim varying with the
/// name, recovered from peer replicas.
#[test]
fn small_machine_crash_recovers_every_registry_algorithm() {
    every_registry_algorithm_recovers(|name, clean| {
        let name_seed =
            (name.bytes()).fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(b.into()));
        FaultPlan::seeded_single_crash(name_seed, &clean.small_ids(), clean.rounds())
    });
}

#[test]
fn crash_recovery_is_mode_independent() {
    let (clean_digest, clean_draws, clean) = run_registry("mis", 5, None, ExecMode::Serial);
    let plan = FaultPlan::seeded_single_crash(5, &clean.small_ids(), clean.rounds());
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let (digest, draws, _) = run_registry("mis", 5, Some(plan.clone()), mode);
        assert_eq!(digest, clean_digest, "{mode:?} diverged under recovery");
        assert_eq!(draws, clean_draws, "{mode:?} RNG positions diverged");
    }
}

#[test]
fn transient_drop_delay_and_slowdown_recover_bit_identical() {
    let (clean_digest, clean_draws, clean) =
        run_registry("connectivity", 3, None, ExecMode::Serial);
    let mid = (clean.rounds() / 2).max(1);
    let victim = clean.small_ids()[0];
    let plan = FaultPlan::new()
        .with_fault(Fault::DropExchange {
            machine: victim,
            round: mid,
        })
        .with_fault(Fault::DelayRound {
            round: mid,
            seconds: 4.0,
        })
        .with_fault(Fault::Slowdown {
            machine: victim,
            round: mid,
            factor: 0.25,
        });
    let (digest, draws, faulted) = run_registry("connectivity", 3, Some(plan), ExecMode::Serial);
    assert_eq!(digest, clean_digest);
    assert_eq!(draws, clean_draws);
    // A drop is transient: nobody is quarantined afterwards.
    for m in 0..faulted.machines() {
        assert!(!faulted.cost_model().is_quarantined(m));
    }
}

#[test]
fn fault_free_run_without_a_plan_has_zero_overhead() {
    let (_, _, c) = run_registry("mst", 7, None, ExecMode::Serial);
    assert!(
        c.round_log().iter().all(|r| {
            let label = r.label.to_string();
            !label.contains(".ckpt.") && !label.contains(".recover.")
        }),
        "no plan attached must mean no recovery infrastructure rounds"
    );
}

#[test]
fn an_attached_plan_with_unfired_faults_changes_no_result() {
    let (clean_digest, clean_draws, _) = run_registry("coloring", 9, None, ExecMode::Serial);
    // Scheduled far beyond the run: the crash never fires, but checkpoints
    // still happen — results and RNG positions must not move.
    let plan = FaultPlan::new().with_fault(Fault::Crash {
        machine: 1,
        round: 1_000_000,
    });
    let (digest, draws, c) = run_registry("coloring", 9, Some(plan), ExecMode::Serial);
    assert_eq!(digest, clean_digest);
    assert_eq!(draws, clean_draws);
    let ckpt_rounds: Vec<_> = c
        .round_log()
        .iter()
        .filter(|r| r.label.to_string().contains(".ckpt."))
        .collect();
    assert!(
        !ckpt_rounds.is_empty(),
        "an attached plan must produce replication exchanges"
    );
    assert!(
        ckpt_rounds.iter().all(|r| r.total_words > 0),
        "replication traffic must be charged words"
    );
}

// --- Direct-executor coverage with a program whose state size we control ---

/// A ring-counting program: each machine draws from its RNG every step,
/// mixes the draw and the inbox into `sum`, and passes `sum` to its ring
/// successor for `rounds` driver rounds. Exercises state, RNG position,
/// and message flow under recovery.
#[derive(Clone, Debug)]
struct RingSum {
    rounds: u64,
    sum: u64,
    state_words: usize,
}

impl RingSum {
    fn fleet(machines: usize, rounds: u64, state_words: usize) -> Vec<RingSum> {
        (0..machines)
            .map(|_| RingSum {
                rounds,
                sum: 0,
                state_words,
            })
            .collect()
    }
}

impl MachineProgram for RingSum {
    type Message = u64;

    fn step(
        &mut self,
        ctx: &mpc_exec::MachineCtx<'_>,
        inbox: Vec<(MachineId, u64)>,
    ) -> StepOutcome<u64> {
        let draw = ctx.rng().next_u64() >> 32;
        self.sum = self
            .sum
            .wrapping_add(draw)
            .wrapping_add(inbox.iter().map(|(_, w)| *w).sum::<u64>());
        if ctx.round >= self.rounds {
            return StepOutcome::Halt;
        }
        let next = (ctx.mid + 1) % ctx.machines;
        StepOutcome::Send(vec![(next, self.sum)])
    }

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn state_words(&self) -> usize {
        self.state_words
    }
}

fn ring_cluster(caps: Vec<usize>, large: Option<MachineId>) -> Cluster {
    Cluster::new(
        ClusterConfig::new(64, 64)
            .topology(Topology::Custom {
                capacities: caps,
                large,
            })
            .seed(42),
    )
}

/// Runs a RingSum fleet and returns the final sums plus post-run RNG draws.
fn run_ring(cluster: &mut Cluster, rounds: u64, state_words: usize) -> (Vec<u64>, Vec<u64>) {
    let k = cluster.machines();
    let out = Executor::serial("ring")
        .run(cluster, RingSum::fleet(k, rounds, state_words))
        .expect("ring run");
    let sums = out.programs.iter().map(|p| p.sum).collect();
    let draws = cluster
        .rngs_mut()
        .iter_mut()
        .map(RngCore::next_u64)
        .collect();
    (sums, draws)
}

#[test]
fn replica_state_within_capacity_is_accounted_and_released() {
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(FaultPlan::new()));
    let (_, _) = run_ring(&mut c, 6, 50);
    // Each small machine held one 50-word peer replica during the run; the
    // slot is released when the run ends but stays in the peak.
    assert!(c.peak_resident()[1] >= 50);
    assert!(c.account("probe", 1, 200).is_ok(), "replica slot released");
}

#[test]
fn excess_redundancy_trips_memory_overflow() {
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(FaultPlan::new().with_policy(RecoveryPolicy {
        replicas: 2,
        ..RecoveryPolicy::default()
    })));
    // Each small machine already holds 150 resident words of its own; two
    // peer replicas of 60 words each fit down the wire (120 ≤ 200) but
    // push the resident total to 270 > 200.
    for m in 1..4 {
        c.account("app", m, 150).expect("within capacity");
    }
    let err = Executor::serial("ring")
        .run(&mut c, RingSum::fleet(4, 6, 60))
        .expect_err("replication must overflow the budget");
    match err {
        ExecError::Model(ModelViolation::MemoryOverflow { slot, .. }) => {
            assert_eq!(slot, "replica");
        }
        other => panic!("expected a replica memory overflow, got {other}"),
    }
}

#[test]
fn oversized_replica_chunks_trip_the_wire_capacity() {
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(FaultPlan::new().with_policy(RecoveryPolicy {
        replicas: 2,
        ..RecoveryPolicy::default()
    })));
    // Two 150-word chunks = 300 words sent in the replication exchange,
    // over the 200-word cap: replication is real, capacity-checked
    // traffic, not free bookkeeping.
    let err = Executor::serial("ring")
        .run(&mut c, RingSum::fleet(4, 6, 150))
        .expect_err("replication traffic must respect wire capacity");
    match err {
        ExecError::Model(ModelViolation::SendOverflow { .. }) => {}
        other => panic!("expected a send overflow, got {other}"),
    }
}

#[test]
fn crash_of_the_large_machine_recovers_from_the_durable_host_checkpoint() {
    let (clean_sums, clean_draws) = {
        let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
        run_ring(&mut c, 6, 2)
    };
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(FaultPlan::new().with_fault(Fault::Crash {
        machine: 0,
        round: 2,
    })));
    let (sums, draws) = run_ring(&mut c, 6, 2);
    assert_eq!(sums, clean_sums, "coordinator failover must be transparent");
    assert_eq!(draws, clean_draws);
    // The durable-host staging copy is charged to the large machine's own
    // resident memory at checkpoint time (2 state words here).
    assert!(c.peak_resident()[0] >= 2);
}

#[test]
fn large_machine_recovers_even_with_zero_peer_replicas() {
    // replicas = 0 leaves small machines with no recovery path, but the
    // large machine's checkpoint lives on the durable host, not a peer.
    let (clean_sums, clean_draws) = {
        let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
        run_ring(&mut c, 6, 2)
    };
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(
        FaultPlan::new()
            .with_fault(Fault::Crash {
                machine: 0,
                round: 2,
            })
            .with_policy(RecoveryPolicy {
                replicas: 0,
                ..RecoveryPolicy::default()
            }),
    ));
    let (sums, draws) = run_ring(&mut c, 6, 2);
    assert_eq!(sums, clean_sums);
    assert_eq!(draws, clean_draws);
}

#[test]
fn a_lone_small_machine_has_no_replica_peer() {
    let mut c = ring_cluster(vec![4000, 200], Some(0));
    c.set_fault_plan(Some(FaultPlan::new().with_fault(Fault::Crash {
        machine: 1,
        round: 2,
    })));
    let err = Executor::serial("ring")
        .run(&mut c, RingSum::fleet(2, 6, 2))
        .expect_err("no peer small machine to hold the replica");
    assert!(
        matches!(err, ExecError::Unrecoverable { machine: 1, .. }),
        "got {err}"
    );
}

#[test]
fn recovery_retries_with_backoff_when_the_recovery_exchange_is_disrupted() {
    let (clean_sums, clean_draws) = {
        let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
        run_ring(&mut c, 8, 2)
    };
    // Checkpoint cadence 100: one checkpoint exchange (cluster round 1),
    // main exchanges at cluster rounds 2.. — the crash fires at round 4,
    // the first recovery attempt (round 5) is wiped by the drop, the
    // retry (round 6) commits.
    let policy = RecoveryPolicy {
        cadence: 100,
        backoff_seconds: 2.5,
        ..RecoveryPolicy::default()
    };
    let plan = FaultPlan::new()
        .with_fault(Fault::Crash {
            machine: 2,
            round: 4,
        })
        .with_fault(Fault::DropExchange {
            machine: 1,
            round: 5,
        })
        .with_policy(policy);
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(plan));
    let ring = Arc::new(RingSink::unbounded());
    c.set_trace_sink(Some(ring.clone()));
    let (sums, draws) = run_ring(&mut c, 8, 2);
    assert_eq!(sums, clean_sums);
    assert_eq!(draws, clean_draws);
    let recover_rounds: Vec<_> = c
        .round_log()
        .iter()
        .filter(|r| r.label.to_string().contains(".recover."))
        .collect();
    assert_eq!(recover_rounds.len(), 2, "one wiped attempt + one commit");
    assert!(
        recover_rounds[1].makespan >= 2.5,
        "the retry must carry the backoff delay, got {}",
        recover_rounds[1].makespan
    );
    let attempts: Vec<usize> = ring
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RecoveryRound { attempt, .. } => Some(*attempt),
            _ => None,
        })
        .collect();
    assert_eq!(attempts, vec![2], "the commit happened on attempt 2");
}

#[test]
fn exhausted_retries_surface_as_unrecoverable() {
    let policy = RecoveryPolicy {
        cadence: 100,
        max_retries: 2,
        ..RecoveryPolicy::default()
    };
    // The crash fires at round 4; drops wipe recovery attempts at rounds
    // 5 and 6, exhausting max_retries = 2.
    let plan = FaultPlan::new()
        .with_fault(Fault::Crash {
            machine: 2,
            round: 4,
        })
        .with_fault(Fault::DropExchange {
            machine: 1,
            round: 5,
        })
        .with_fault(Fault::DropExchange {
            machine: 3,
            round: 6,
        })
        .with_policy(policy);
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(plan));
    let err = Executor::serial("ring")
        .run(&mut c, RingSum::fleet(4, 8, 2))
        .expect_err("two wiped attempts must exhaust max_retries = 2");
    match err {
        ExecError::Unrecoverable { reason, .. } => {
            assert!(reason.contains("retries exhausted"), "reason: {reason}");
        }
        other => panic!("expected retries-exhausted, got {other}"),
    }
}

#[test]
fn exhausted_drop_only_retries_blame_a_dropped_machine() {
    // Machine 1's outbox is dropped in the main exchange (round 4); drops
    // of machines 2 and 3 wipe both recovery attempts (rounds 5 and 6).
    // Nothing crashed, so the error names the dropped machine, not the
    // large machine that never faulted.
    let plan = (1..4)
        .map(|machine| Fault::DropExchange {
            machine,
            round: 3 + machine as u64,
        })
        .fold(FaultPlan::new(), FaultPlan::with_fault)
        .with_policy(RecoveryPolicy {
            cadence: 100,
            max_retries: 2,
            ..RecoveryPolicy::default()
        });
    match ring_outcome(Some(plan), &Executor::serial("ring")) {
        Err(ExecError::Unrecoverable {
            machine, reason, ..
        }) => {
            assert_eq!(machine, 1, "blame the machine whose outbox was dropped");
            assert!(reason.contains("retries exhausted"), "reason: {reason}");
        }
        other => panic!("expected retries-exhausted, got {other:?}"),
    }
}

#[test]
fn a_crash_and_a_drop_of_one_machine_resend_its_mail_once() {
    let plan = FaultPlan::new()
        .with_fault(Fault::Crash {
            machine: 2,
            round: 4,
        })
        .with_fault(Fault::DropExchange {
            machine: 2,
            round: 4,
        })
        .with_policy(RecoveryPolicy {
            cadence: 100,
            ..RecoveryPolicy::default()
        });
    let serial = Executor::serial("ring");
    assert_eq!(
        ring_outcome(Some(plan), &serial),
        ring_outcome(None, &serial),
        "machine 2's lost mail must arrive exactly once"
    );
}

/// The final sums and post-run RNG draws of an 8-round [`RingSum`] ring
/// under `plan`, or the run's error.
fn ring_outcome(
    plan: Option<FaultPlan>,
    executor: &Executor,
) -> Result<(Vec<u64>, Vec<u64>), ExecError> {
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(plan);
    let out = executor.run(&mut c, RingSum::fleet(4, 8, 2))?;
    let sums = out.programs.iter().map(|p| p.sum).collect();
    let draws = c.rngs_mut().iter_mut().map(RngCore::next_u64).collect();
    Ok((sums, draws))
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    /// Any mix of crashes, drops, delays and slowdowns either recovers the
    /// fault-free sums and RNG positions exactly or fails with
    /// `Unrecoverable`, and every execution mode ends the same way.
    #[test]
    fn generated_fault_plans_recover_exactly_or_fail_typed(
        faults in proptest::collection::vec(
            (0u8..4, 0usize..4, 1u64..20).prop_map(|(kind, machine, round)| match kind {
                0 => Fault::Crash { machine, round },
                1 => Fault::DropExchange { machine, round },
                2 => Fault::DelayRound { round, seconds: 1.5 },
                _ => Fault::Slowdown { machine, round, factor: 0.5 },
            }),
            1..5,
        ),
        cadence in (0usize..3).prop_map(|i| [1, 2, 100][i]),
        max_retries in 1usize..=3,
    ) {
        let clean = ring_outcome(None, &Executor::serial("ring")).expect("fault-free run");
        let plan = (faults.iter().cloned())
            .fold(FaultPlan::new(), FaultPlan::with_fault)
            .with_policy(RecoveryPolicy {
                cadence,
                max_retries,
                ..RecoveryPolicy::default()
            });
        let serial = ring_outcome(Some(plan.clone()), &Executor::serial("ring"));
        match &serial {
            Ok(run) => proptest::prop_assert_eq!(run, &clean, "{:?}", faults),
            Err(e) => proptest::prop_assert!(
                matches!(e, ExecError::Unrecoverable { .. }),
                "{faults:?}: {e}"
            ),
        }
        for threads in [1, 3] {
            let pool = Executor::parallel("ring").threads(threads);
            let run = ring_outcome(Some(plan.clone()), &pool);
            proptest::prop_assert_eq!(&run, &serial, "{:?} at {} threads", faults, threads);
        }
    }
}

#[test]
fn a_crash_during_recovery_is_replayed_on_the_retry() {
    let (clean_sums, clean_draws) = {
        let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
        run_ring(&mut c, 8, 2)
    };
    // Machine 2 crashes in the main exchange (round 4); machine 3 crashes
    // *during* the first recovery exchange (round 5). The retry replays
    // both and commits.
    let plan = FaultPlan::new()
        .with_fault(Fault::Crash {
            machine: 2,
            round: 4,
        })
        .with_fault(Fault::Crash {
            machine: 3,
            round: 5,
        })
        .with_policy(RecoveryPolicy {
            cadence: 100,
            ..RecoveryPolicy::default()
        });
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(plan));
    let (sums, draws) = run_ring(&mut c, 8, 2);
    assert_eq!(sums, clean_sums, "double crash must still recover exactly");
    assert_eq!(draws, clean_draws);
}

#[test]
fn run_report_breaks_out_recovery_overhead() {
    let g = generators::gnm(220, 2600, 13).with_random_weights(1 << 16, 13);
    let spec = JobSpec::new("mst", g);
    let polylog = registry::get("mst").expect("registered").polylog_exponent;
    // The report is folded from a ring sink's events, the way `mpc-trace`
    // builds its own.
    let reported = |crash_within: Option<u64>| {
        let mut cluster = Cluster::new(
            ClusterConfig::new(spec.graph.n(), spec.graph.m())
                .seed(13)
                .polylog_exponent(polylog),
        );
        let plan = crash_within
            .map(|rounds| FaultPlan::seeded_single_crash(13, &cluster.small_ids(), rounds));
        cluster.set_fault_plan(plan);
        let ring = Arc::new(RingSink::unbounded());
        cluster.set_trace_sink(Some(ring.clone()));
        registry::run_job(&spec, &mut cluster, ExecMode::Serial).expect("mst run");
        let report = RunReport::from_events("mst", ring.take(), cluster.cost_model());
        (report, cluster.rounds())
    };
    let (clean_report, clean_rounds) = reported(None);
    assert!(clean_report.recovery.is_empty());
    assert_eq!(clean_report.recovery.overhead_ratio(1.0), 0.0);

    let (report, _) = reported(Some(clean_rounds));
    let r = &report.recovery;
    assert_eq!(r.faults_injected, 1);
    assert_eq!(r.machines_quarantined, 1);
    assert_eq!(r.recovery_rounds, 1);
    assert!(r.replay_rounds >= 1);
    assert!(r.checkpoint_rounds >= 1);
    assert!(r.checkpoint_makespan > 0.0);
    assert!(r.recovery_makespan > 0.0);
    let ratio = r.overhead_ratio(report.critical_path.total_seconds);
    assert!(ratio > 0.0 && ratio < 1.0, "overhead ratio {ratio}");
    let text = report.render();
    assert!(text.contains("recovery:"), "render: {text}");
}

/// The report's four critical-path parts — latency, wire, compute and
/// delay — sum to the simulated total under a delay fault, a slowdown and
/// a crash, and the delay part holds exactly the injected delay when that
/// is the only extra time.
#[test]
fn critical_path_parts_sum_to_the_total_under_faults() {
    let g = generators::gnm(256, 1536, 5);
    let spec = JobSpec::new("mis", g);
    let polylog = registry::get("mis").expect("registered").polylog_exponent;
    let reported = |plan: Option<FaultPlan>| {
        let mut cluster = Cluster::new(
            ClusterConfig::new(spec.graph.n(), spec.graph.m())
                .seed(5)
                .polylog_exponent(polylog),
        );
        cluster.set_cost_model(CostModel::uniform(cluster.machines(), 1.0, 1.0, 0.5));
        cluster.set_fault_plan(plan);
        let ring = Arc::new(RingSink::unbounded());
        cluster.set_trace_sink(Some(ring.clone()));
        registry::run_job(&spec, &mut cluster, ExecMode::Serial).expect("mis run");
        RunReport::from_events("mis", ring.take(), cluster.cost_model())
    };
    let delay = Fault::DelayRound {
        round: 3,
        seconds: 100.0,
    };
    let slowdown = Fault::Slowdown {
        machine: 1,
        round: 3,
        factor: 0.1,
    };
    let crash = Fault::Crash {
        machine: 1,
        round: 3,
    };
    let clean = reported(None);
    assert_eq!(clean.critical_path.delay_seconds, 0.0);
    assert!(!clean.render().contains("delay"), "{}", clean.render());
    for faults in [
        vec![delay.clone()],
        vec![slowdown.clone()],
        vec![delay, slowdown],
        vec![crash],
    ] {
        let plan = (faults.iter().cloned()).fold(FaultPlan::new(), FaultPlan::with_fault);
        let report = reported(Some(plan));
        let cp = &report.critical_path;
        let parts = cp.latency_seconds + cp.wire_seconds + cp.cpu_seconds + cp.delay_seconds;
        assert!(
            (parts - cp.total_seconds).abs() <= 1e-9 * cp.total_seconds,
            "{faults:?}: parts {parts} against total {}: {cp:?}",
            cp.total_seconds
        );
        if let [Fault::DelayRound { seconds, .. }] = faults[..] {
            assert!((cp.delay_seconds - seconds).abs() < 1e-9, "{cp:?}");
            assert!(report.render().contains(" + 100.00s delay"));
        }
    }
}

/// A plan naming a machine the cluster does not have is refused before
/// round 0 with a typed error — solo through the registry and on the
/// executor directly — instead of panicking mid-run (crash, slowdown) or
/// firing silently (drop).
#[test]
fn a_plan_naming_an_unknown_machine_is_refused_up_front() {
    let faults = [
        Fault::Crash {
            machine: 999,
            round: 2,
        },
        Fault::Slowdown {
            machine: 999,
            round: 2,
            factor: 0.5,
        },
        Fault::DropExchange {
            machine: 999,
            round: 2,
        },
    ];
    let refused = |result: Result<(), ExecError>, what: &str| match result {
        Err(ExecError::Algorithm { message }) => {
            assert!(message.contains("machine 999"), "{what}: {message}")
        }
        other => panic!("{what}: expected ExecError::Algorithm, got {other:?}"),
    };
    let g = generators::gnm(64, 256, 1);
    for fault in &faults {
        let plan = FaultPlan::new().with_fault(fault.clone());
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let what = format!("mis {mode:?} {fault:?}");
            let mut c = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(1));
            c.set_fault_plan(Some(plan.clone()));
            let spec = JobSpec::new("mis", Arc::new(g.clone()));
            refused(registry::run_job(&spec, &mut c, mode).map(|_| ()), &what);
            assert_eq!(c.rounds(), 0, "{what}: the refused run exchanged");
        }
        let executor = Executor::parallel("ring").threads(3);
        refused(
            ring_outcome(Some(plan), &executor).map(|_| ()),
            &format!("ring {fault:?}"),
        );
    }
}

/// Everything a test compares between two faulted runs: the round log
/// (labels, words, work, makespans), the result digest, every machine's
/// post-run RNG draw and the report's recovery breakdown.
type Figures = (
    Vec<mpc_runtime::RoundRecord>,
    u128,
    Vec<u64>,
    mpc_exec::RecoveryBreakdown,
);

/// Which machines the host copies is a host matter: adding crashes that
/// never fire — one per machine the seeded crash spares — makes every
/// machine a copied one and changes no simulated figure, serially or on
/// the pool. `spanner-weighted` runs its weight classes as `MixedWave`
/// lanes.
#[test]
fn naming_more_crash_victims_changes_no_figure() {
    let never = u64::MAX;
    let with_bystanders = |plan: &FaultPlan, machines: usize| {
        let named: Vec<MachineId> = (plan.faults().iter())
            .filter_map(|f| match f {
                Fault::Crash { machine, .. } => Some(*machine),
                _ => None,
            })
            .collect();
        (0..machines)
            .filter(|m| !named.contains(m))
            .map(|machine| Fault::Crash {
                machine,
                round: never,
            })
            .fold(plan.clone(), FaultPlan::with_fault)
    };
    // The pool runs at 3 threads; `Serial` ignores the width.
    let modes = [ExecMode::Serial, ExecMode::Parallel];

    // RingSum on the executor directly.
    let ring = |plan: &FaultPlan, mode: ExecMode| -> Figures {
        let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
        c.set_fault_plan(Some(plan.clone()));
        let sink = Arc::new(RingSink::unbounded());
        c.set_trace_sink(Some(sink.clone()));
        let out = Executor::new("ring", mode)
            .threads(3)
            .run(&mut c, RingSum::fleet(4, 8, 2))
            .expect("ring run");
        let digest = (out.programs.iter()).fold(0u128, |d, p| (d << 7) ^ u128::from(p.sum));
        let report = RunReport::from_events("ring", sink.take(), c.cost_model());
        let draws = c.rngs_mut().iter_mut().map(RngCore::next_u64).collect();
        (c.round_log().to_vec(), digest, draws, report.recovery)
    };
    let plan = FaultPlan::new().with_fault(Fault::Crash {
        machine: 2,
        round: 4,
    });
    for mode in modes {
        let one = ring(&plan, mode);
        assert_eq!(one.3.machines_quarantined, 1, "ring {mode:?}: no crash");
        assert_eq!(one, ring(&with_bystanders(&plan, 4), mode), "ring {mode:?}");
    }

    // Registry runs, solo and as one-job mixed waves.
    for name in ["mst", "spanner-weighted"] {
        let g = generators::gnm(128, 768, 17).with_random_weights(1 << 16, 17);
        let spec = JobSpec::new(name, g);
        let polylog = registry::get(name).expect("registered").polylog_exponent;
        let cluster = || {
            Cluster::new(
                ClusterConfig::new(spec.graph.n(), spec.graph.m())
                    .seed(17)
                    .polylog_exponent(polylog),
            )
        };
        let run = |plan: &FaultPlan, mode: ExecMode| -> Figures {
            let mut c = cluster();
            c.set_fault_plan(Some(plan.clone()));
            let sink = Arc::new(RingSink::unbounded());
            c.set_trace_sink(Some(sink.clone()));
            let out = registry::run_threads(&spec, &mut c, mode, 3).expect("registry run");
            let report = RunReport::from_events(name, sink.take(), c.cost_model());
            let draws = c.rngs_mut().iter_mut().map(RngCore::next_u64).collect();
            (c.round_log().to_vec(), out.digest(), draws, report.recovery)
        };
        let mut clean = cluster();
        registry::run_job(&spec, &mut clean, ExecMode::Serial).expect("clean run");
        let plan = FaultPlan::seeded_single_crash(17, &clean.small_ids(), clean.rounds());
        for mode in modes {
            let one = run(&plan, mode);
            assert_eq!(one.3.machines_quarantined, 1, "{name} {mode:?}: no crash");
            let all = with_bystanders(&plan, clean.machines());
            assert_eq!(one, run(&all, mode), "{name} {mode:?}");
        }
    }
}

/// [`RingSum`] without snapshot support.
#[derive(Clone, Debug)]
struct OptedOut(RingSum);

impl MachineProgram for OptedOut {
    type Message = u64;

    fn step(
        &mut self,
        ctx: &mpc_exec::MachineCtx<'_>,
        inbox: Vec<(MachineId, u64)>,
    ) -> StepOutcome<u64> {
        self.0.step(ctx, inbox)
    }

    fn state_words(&self) -> usize {
        self.0.state_words()
    }
}

/// Every machine is charged its replica at every checkpoint, whether or
/// not its program can be snapshotted; a crash of a program that cannot
/// stays a typed `Unrecoverable`.
#[test]
fn an_opted_out_program_is_charged_its_replica_and_fails_typed_on_a_crash() {
    let fleet = || RingSum::fleet(4, 8, 5).into_iter().map(OptedOut).collect();
    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(FaultPlan::new()));
    Executor::serial("ring")
        .run(&mut c, fleet())
        .expect("no crash, no replay needed");
    let ckpt: Vec<_> = (c.round_log().iter())
        .filter(|r| r.label.to_string().contains(".ckpt."))
        .collect();
    assert!(!ckpt.is_empty(), "an attached plan checkpoints");
    for r in &ckpt {
        // Three small machines, one replica each, five words a replica.
        assert_eq!(r.total_words, 3 * 5, "{}", r.label);
        assert_eq!(r.messages, 3, "{}", r.label);
    }
    assert!(
        c.peak_resident()[0] >= 5,
        "the durable-host copy is charged"
    );
    assert!(c.peak_resident()[1] >= 5, "the peer replica is charged");

    let mut c = ring_cluster(vec![4000, 200, 200, 200], Some(0));
    c.set_fault_plan(Some(FaultPlan::new().with_fault(Fault::Crash {
        machine: 2,
        round: 4,
    })));
    match Executor::serial("ring").run(&mut c, fleet()) {
        Err(ExecError::Unrecoverable {
            machine, reason, ..
        }) => {
            assert_eq!(machine, 2);
            assert!(reason.contains("opts out"), "reason: {reason}");
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
}
