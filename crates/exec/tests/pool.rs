//! The persistent pool's contract: pooled execution is **bit-identical**
//! to the serial reference — results, round log (labels, word counts,
//! makespans), RNG stream positions — at every thread count, and a
//! panicking program propagates instead of deadlocking the barrier. The
//! driver reaches its machine slots in two forms (owned in `Serial`,
//! lock-guarded for workers); the hooked-run and buffer tests below hold
//! both forms to the same behaviour.

use mpc_core::common;
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_exec::{
    ConnectivityProgram, ExecError, ExecMode, Executor, MachineCtx, MachineProgram, StepOutcome,
    WaveRound,
};
use mpc_graph::generators;
use mpc_runtime::fault::{Fault, FaultPlan, RecoveryPolicy};
use mpc_runtime::{Cluster, ClusterConfig, MachineId, RoundRecord, Topology};
use rand::RngCore;
use std::sync::Arc;

/// `machines` equal machines of 1000 words, machine 0 the large one.
fn flat_cluster(machines: usize) -> Cluster {
    Cluster::new(ClusterConfig::new(64, 256).topology(Topology::Custom {
        capacities: vec![1000; machines],
        large: Some(0),
    }))
}

/// One full connectivity run; returns (components, round log, RNG draws).
fn run_connectivity(
    mode: ExecMode,
    threads: usize,
    seed: u64,
) -> (
    mpc_graph::traversal::Components,
    Vec<mpc_runtime::RoundRecord>,
    Vec<u64>,
) {
    let g = generators::gnm(90, 260, seed);
    let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
    let edges = common::distribute_edges(&cluster, &g);
    let programs = ConnectivityProgram::for_cluster(&cluster, g.n(), &edges);
    let outcome = Executor::new("conn", mode)
        .threads(threads)
        .run(&mut cluster, programs)
        .unwrap();
    let large = cluster.large().unwrap();
    let result = outcome.programs[large].result.clone().unwrap();
    let log = cluster.round_log().to_vec();
    let draws = (0..cluster.machines())
        .map(|mid| cluster.rng(mid).next_u64())
        .collect();
    (result, log, draws)
}

#[test]
fn pooled_is_bit_identical_to_serial_across_thread_counts() {
    for seed in [5u64, 77] {
        let (r_ref, log_ref, rng_ref) = run_connectivity(ExecMode::Serial, 1, seed);
        assert!(
            log_ref.iter().all(|rec| rec.makespan.is_finite()),
            "reference log must carry makespans"
        );
        for threads in [1usize, 3, 16] {
            let (r, log, rng) = run_connectivity(ExecMode::Parallel, threads, seed);
            assert_eq!(r, r_ref, "threads={threads} seed={seed}: results differ");
            // Full log equality covers labels, traffic, work, AND makespans.
            assert_eq!(
                log, log_ref,
                "threads={threads} seed={seed}: round logs differ"
            );
            assert_eq!(
                rng, rng_ref,
                "threads={threads} seed={seed}: RNG positions differ"
            );
        }
    }
}

/// A program whose designated machine panics at round 1.
#[derive(Debug)]
struct PanicsAtRound1 {
    bomb: bool,
    /// Shared with the test, which counts the programs still alive.
    _alive: Arc<()>,
}

impl MachineProgram for PanicsAtRound1 {
    type Message = u64;

    fn step(&mut self, ctx: &MachineCtx<'_>, _inbox: Vec<(MachineId, u64)>) -> StepOutcome<u64> {
        // Work on every step, so whatever was folded before the panic left
        // a charge behind.
        ctx.charge(5);
        if ctx.round >= 1 {
            if self.bomb {
                panic!("bomb machine detonated");
            }
            return StepOutcome::Halt;
        }
        // Keep everyone active into round 1 with a ring message.
        StepOutcome::Send(vec![((ctx.mid + 1) % ctx.machines, ctx.round)])
    }
}

/// The bomb sits on a *middle* machine: `Serial` steps and folds in one
/// pass, so machines 0–3 are already folded (halt votes taken, work
/// charged) when machine 4 panics, while the pool steps everything else
/// and folds nothing. Either way the caller sees the
/// program's payload, every RNG stream back in place and every program
/// dropped; the cluster's `pending_work` of the aborted round is
/// unspecified — it differs between the modes and is never logged.
#[test]
fn panicking_step_propagates_instead_of_deadlocking() {
    for mode in [ExecMode::Parallel, ExecMode::Serial] {
        let mut cluster = flat_cluster(9);
        let alive = Arc::new(());
        let programs: Vec<PanicsAtRound1> = (0..cluster.machines())
            .map(|mid| PanicsAtRound1 {
                bomb: mid == 4,
                _alive: Arc::clone(&alive),
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::new("bomb", mode)
                .threads(3)
                .run(&mut cluster, programs)
        }))
        .expect_err("the step panic must propagate to the caller");
        // The per-machine RNG streams were restored before the re-raise —
        // a leaked placeholder would leave every machine on the same
        // seed-0 stream. The programs never draw, so every stream sits
        // where an untouched cluster's does.
        let mut fresh = flat_cluster(9);
        for mid in 0..9 {
            assert_eq!(
                cluster.rng(mid).next_u64(),
                fresh.rng(mid).next_u64(),
                "mode {mode:?}: machine {mid}'s RNG was not restored after the panic"
            );
        }
        assert_ne!(fresh.rng(1).next_u64(), fresh.rng(2).next_u64());
        assert_eq!(
            Arc::strong_count(&alive),
            1,
            "mode {mode:?}: programs outlived the aborted run"
        );
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("detonated"),
            "mode {mode:?}: expected the program's payload, got {msg:?}"
        );
    }
}

/// A round hook that panics reaches the caller in every mode. The pool's
/// workers wait at the round barrier while the hook runs; unless the
/// unwind releases them, the scope's implicit join never returns — so each
/// run happens on a thread of its own, and the test waits 10 s at most.
#[test]
fn panicking_round_hook_propagates_instead_of_hanging() {
    let runs = [
        (ExecMode::Serial, 1),
        (ExecMode::Parallel, 1),
        (ExecMode::Parallel, 3),
    ];
    for (mode, threads) in runs {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                let mut cluster = flat_cluster(4);
                let programs = (0..4)
                    .map(|_| BufferRing {
                        rounds: 6,
                        sent: Vec::new(),
                        checked: 0,
                    })
                    .collect();
                let mut hook = |_: &mut Cluster, view: &mut WaveRound<'_, BufferRing>| {
                    if view.round() == 2 {
                        panic!("hook detonated");
                    }
                    Ok(false)
                };
                Executor::new("hook", mode)
                    .threads(threads)
                    .run_hooked(&mut cluster, programs, &mut hook)
                    .map(|_| ())
            });
            let message = run.map_err(|err| {
                let text = err.downcast_ref::<&str>().map(|s| s.to_string());
                text.or_else(|| err.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            done.send(message).ok();
        });
        let got = outcome
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{mode:?} at {threads} threads: the run hung"));
        let message = got.expect_err("the hook panic must propagate to the caller");
        assert!(
            message.contains("hook detonated"),
            "{mode:?} at {threads} threads: expected the hook's payload, got {message:?}"
        );
    }
}

/// A ring whose one-message outbox has a recognisable capacity, and which
/// checks where its mail arrives.
struct BufferRing {
    rounds: u64,
    /// Address of the outbox returned in round `i`.
    sent: Vec<usize>,
    checked: u64,
}

impl MachineProgram for BufferRing {
    type Message = u64;

    fn step(&mut self, ctx: &MachineCtx<'_>, inbox: Vec<(MachineId, u64)>) -> StepOutcome<u64> {
        assert_eq!(inbox.len(), usize::from(ctx.round > 0));
        if ctx.round >= 2 {
            // Exchange r-2 drained the outbox of round r-2; the machine took
            // it as the buffer exchange r-1 delivered this inbox into.
            assert_eq!(inbox.capacity(), 37, "round {}", ctx.round);
            assert_eq!(
                inbox.as_ptr() as usize,
                self.sent[ctx.round as usize - 2],
                "round {}",
                ctx.round
            );
            self.checked += 1;
        }
        if ctx.round + 1 >= self.rounds {
            return StepOutcome::Halt;
        }
        let mut outbox = Vec::with_capacity(37);
        outbox.push(((ctx.mid + 1) % ctx.machines, ctx.round));
        self.sent.push(outbox.as_ptr() as usize);
        StepOutcome::Send(outbox)
    }
}

/// The buffer hand-on is invisible to every digest and round log, so it is
/// pinned here: a stepped machine's drained outbox is the buffer its next
/// mail is delivered into, in both slot forms. (Without it the inbox is a
/// fresh `reserve(1)` allocation every round.)
#[test]
fn stepped_machines_receive_into_their_drained_outbox() {
    for (mode, threads) in [
        (ExecMode::Serial, 1),
        (ExecMode::Parallel, 1),
        (ExecMode::Parallel, 3),
    ] {
        let mut cluster = flat_cluster(7);
        let programs = (0..7)
            .map(|_| BufferRing {
                rounds: 12,
                sent: Vec::new(),
                checked: 0,
            })
            .collect();
        let out = Executor::new("buf", mode)
            .threads(threads)
            .run(&mut cluster, programs)
            .unwrap();
        assert_eq!(out.rounds, 11);
        for p in &out.programs {
            assert_eq!(p.checked, 10, "{mode:?} at {threads} threads");
        }
    }
}

/// A ring courier with a per-machine send budget: folds its mail and one
/// RNG draw into `acc` every step, sends while the budget lasts, halts
/// after. Messages are `(job tag, value)`.
#[derive(Clone, Debug, PartialEq)]
struct Courier {
    budget: u64,
    acc: u64,
    purged: usize,
}

impl MachineProgram for Courier {
    type Message = (u64, u64);

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, (u64, u64))>,
    ) -> StepOutcome<(u64, u64)> {
        for (src, (job, value)) in inbox {
            self.acc = self.acc.rotate_left(7) ^ value ^ ((src as u64) << 32) ^ job;
        }
        self.acc ^= ctx.rng().next_u64();
        if self.budget == 0 {
            return StepOutcome::Halt;
        }
        self.budget -= 1;
        let tag = ctx.mid as u64 % 2;
        StepOutcome::Send(vec![((ctx.mid + 1) % ctx.machines, (tag, self.acc))])
    }

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn state_words(&self) -> usize {
        3
    }
}

/// One hooked courier run: at round 3 the hook purges job 1's mail from
/// machine 2, refills machine 4's budget and wakes it (it has been halted
/// with an empty inbox since round 2).
fn run_couriers(
    mode: ExecMode,
    threads: usize,
    plan: Option<FaultPlan>,
) -> (Vec<Courier>, Vec<RoundRecord>, Vec<u64>) {
    let mut cluster = flat_cluster(7);
    cluster.set_fault_plan(plan);
    let programs = [9u64, 9, 9, 1, 1, 9, 9]
        .into_iter()
        .map(|budget| Courier {
            budget,
            acc: budget,
            purged: 0,
        })
        .collect();
    let mut hook =
        |_: &mut Cluster, view: &mut WaveRound<'_, Courier>| -> Result<bool, ExecError> {
            if view.round() == 3 {
                assert_eq!(view.machines(), 7);
                view.peek(4, |p, inbox| assert!(p.budget == 0 && inbox.is_empty()));
                view.with_mail(2, |p, inbox| {
                    let before = inbox.len();
                    inbox.retain(|(_, (job, _))| *job != 1);
                    p.purged += before - inbox.len();
                });
                view.with(4, |p| p.budget += 3);
                view.wake(4);
            }
            Ok(false)
        };
    let out = Executor::new("courier", mode)
        .threads(threads)
        .run_hooked(&mut cluster, programs, &mut hook)
        .unwrap();
    let log = cluster.round_log().to_vec();
    let draws = cluster
        .rngs_mut()
        .iter_mut()
        .map(RngCore::next_u64)
        .collect();
    (out.programs, log, draws)
}

/// Everything a hook can do to a round — purge mail, wake a halted
/// machine, mutate a program — lands identically in both slot forms, and
/// the checkpoint the dirty round forces is what machine 4 is replayed
/// from when it crashes a round later.
#[test]
fn hooked_runs_agree_across_access_forms() {
    let policy = RecoveryPolicy {
        cadence: 100,
        ..RecoveryPolicy::default()
    };
    // Cluster rounds: ckpt 1, r0-r2 2-4, the forced ckpt 5, r3 6, r4 7.
    let plan = FaultPlan::new()
        .with_policy(policy)
        .with_fault(Fault::Crash {
            machine: 4,
            round: 7,
        });
    let (programs, log, draws) = run_couriers(ExecMode::Serial, 1, Some(plan.clone()));
    assert_eq!(programs[2].purged, 1, "machine 1's mail carries tag 1");
    assert!(programs.iter().all(|p| p.budget == 0));
    let labels: Vec<String> = log.iter().map(|r| r.label.to_string()).collect();
    assert_eq!(
        labels.iter().filter(|l| l.contains(".ckpt.")).count(),
        2,
        "round 0 by cadence, round 3 because the hook dirtied it: {labels:?}"
    );
    assert!(labels.iter().any(|l| l.contains(".recover.")));

    for threads in [1usize, 3, 16] {
        let pooled = run_couriers(ExecMode::Parallel, threads, Some(plan.clone()));
        assert_eq!(pooled.0, programs, "threads={threads}: programs differ");
        assert_eq!(pooled.1, log, "threads={threads}: round logs differ");
        assert_eq!(pooled.2, draws, "threads={threads}: RNG positions differ");
    }

    // Recovered == fault-free: replay from the forced checkpoint carries
    // the hook's refill; a replay from round 0 would not.
    let (clean_programs, clean_log, clean_draws) = run_couriers(ExecMode::Serial, 1, None);
    assert_eq!((&clean_programs, &clean_draws), (&programs, &draws));
    assert!(clean_log.len() < log.len());
    let pooled_clean = run_couriers(ExecMode::Parallel, 3, None);
    assert_eq!(pooled_clean, (clean_programs, clean_log, clean_draws));
}
