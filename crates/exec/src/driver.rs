//! The round driver: steps every machine, serially or concurrently, with
//! bit-identical results either way.
//!
//! Determinism argument: each machine's step consumes only (a) its own
//! program state, (b) its own private RNG stream, and (c) its inbox, whose
//! order [`Cluster::exchange`](mpc_runtime::Cluster::exchange) fixes
//! (ascending source id, then send order). Machines share nothing mutable,
//! so the *schedule* of steps cannot influence any machine's output;
//! running them on one thread, or on sixteen that claim them off the
//! worker pool in any order, produces the same outboxes, the same round
//! log, and the same RNG streams. The
//! `parallel_matches_serial` tests and `crates/exec/tests/pool.rs` assert
//! this bit-for-bit.
//!
//! The round loop is the engine's host-side hot path: round labels share
//! one interned prefix ([`RoundLabel`]), the
//! outbox list and the cluster's accounting scratch are reused through
//! [`Cluster::exchange_into`](mpc_runtime::Cluster::exchange_into), and in
//! [`ExecMode::Parallel`] the worker threads are spawned **once per run**
//! ([`pool`](crate::pool)) instead of once per round. The loop reaches the
//! machines through `Slots`: in [`ExecMode::Serial`] the driving thread
//! owns them outright and steps and folds each machine in one pass; only
//! the pool puts them behind (uncontended) locks, steps behind a barrier
//! and folds afterwards in machine-id order — the same fold, on the same
//! values, so the argument above does not change.
//!
//! It is **not** allocation-free: `step` consumes its inbox by value and
//! builds its outbox, one free and one allocation per machine-round that
//! belong to the program. The driver adds none where send and receive
//! volumes are alike: a stepped machine's drained outbox buffer is the
//! buffer the next exchange delivers its mail into.
//!
//! Where a cheap round goes (the benchmark's `ring`, 257 machines ×
//! 10 000 rounds, one 1-word message per machine-round, `Serial`; minima
//! of a scratch-instrumented driver, DESIGN.md §2.2): 100 ms — the fused
//! step-and-fold pass 53 (≈ 33 of it the program's own `vec!`, inbox drop
//! and checksum), `exchange_into` 35, hand-on and inbox swap 9.3,
//! activation 1.7.

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use crate::pool::{PanicPayload, PoolCore, PoolStats};
use mpc_runtime::fault::{Fault, FiredFault, RecoveryPolicy, ReplicaChunk};
use mpc_runtime::telemetry::{TraceEvent, TraceSink};
use mpc_runtime::{Cluster, MachineId, ModelViolation, RoundLabel};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How the driver schedules machine steps within a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One machine after another on the calling thread.
    Serial,
    /// All machines concurrently on a persistent worker pool (spawned once
    /// per run; machines are claimed dynamically so a straggler machine
    /// never serializes anyone else's work). Std-only — the environment
    /// has no crates.io access, hence no rayon.
    #[default]
    Parallel,
}

/// Errors of a program execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A capacity violation surfaced by the cluster in strict mode.
    Model(ModelViolation),
    /// The program did not terminate within the round limit.
    RoundLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// An algorithm-level failure reported by a program (e.g. KKT sampling
    /// exceeded its volume bound, or a residual overflow in matching) — the
    /// engine twins of the legacy `MstError`/`MatchingError` variants. Also
    /// a run refused before round 0 because its setup cannot work: a fault
    /// plan naming a machine the cluster does not have, or a registry run
    /// on a cluster with no large machine.
    Algorithm {
        /// Human-readable failure description.
        message: String,
    },
    /// A crashed machine could not be brought back: no replica peer holds
    /// its shard (`replicas = 0`, a lone small machine, a program without
    /// snapshot support), or the recovery protocol itself kept getting
    /// disrupted past the retry budget. The large machine is *not* on this
    /// list: its shard checkpoints to the durable host on the same cadence
    /// as small-machine replicas, so a coordinator crash replays like any
    /// other (DESIGN.md §2.9).
    Unrecoverable {
        /// The machine that stayed down.
        machine: MachineId,
        /// Driver round of the disrupted exchange.
        round: u64,
        /// Why recovery was impossible.
        reason: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Model(v) => write!(f, "model violation: {v}"),
            ExecError::RoundLimit { limit } => {
                write!(f, "program exceeded the round limit of {limit}")
            }
            ExecError::Algorithm { message } => write!(f, "algorithm failure: {message}"),
            ExecError::Unrecoverable {
                machine,
                round,
                reason,
            } => write!(
                f,
                "machine {machine} unrecoverable at driver round {round}: {reason}"
            ),
        }
    }
}

impl Error for ExecError {}

impl From<ModelViolation> for ExecError {
    fn from(v: ModelViolation) -> Self {
        ExecError::Model(v)
    }
}

/// What a finished run returns.
#[derive(Debug)]
pub struct ExecOutcome<P> {
    /// Final per-machine program states (extract results from these).
    pub programs: Vec<P>,
    /// Exchange rounds this run consumed.
    pub rounds: u64,
    /// Host wall-clock time of the run (the quantity the serial-vs-parallel
    /// bench compares; simulated time lives in the cluster's round log).
    pub wall: Duration,
    /// Per-worker pool accounting (claims, steps, barrier waits). Populated
    /// only for [`ExecMode::Parallel`] runs with a trace sink attached to
    /// the cluster; `None` otherwise — the uninstrumented pool reads no
    /// clocks.
    pub pool: Option<PoolStats>,
}

/// Drives a [`MachineProgram`] over a cluster.
#[derive(Clone, Debug)]
pub struct Executor {
    label: String,
    mode: ExecMode,
    max_rounds: u64,
    threads: usize,
}

/// Result of stepping one machine.
struct StepSlot<M> {
    outbox: Vec<(MachineId, M)>,
    halt: bool,
    work: u64,
}

/// One machine's run-long state: program, private RNG, and the per-round
/// inbox/outcome mailboxes.
struct MachineSlot<P: MachineProgram> {
    program: P,
    rng: SmallRng,
    inbox: Vec<(MachineId, P::Message)>,
    halted: bool,
    /// Whether this machine steps this round (active, or reactivated by a
    /// message). Set by the driving thread before any machine steps.
    stepping: bool,
    /// A worker's step outcome, parked until the driving thread folds it
    /// back in machine-id order after the barrier (unused when owned).
    outcome: Option<StepSlot<P::Message>>,
}

impl<P: MachineProgram> MachineSlot<P> {
    fn new(program: P, rng: SmallRng, halted: bool) -> Self {
        MachineSlot {
            program,
            rng,
            inbox: Vec::new(),
            halted,
            stepping: false,
            outcome: None,
        }
    }

    /// Flags the machine for this round: active, or woken by mail.
    fn activate(&mut self) -> bool {
        self.stepping = !self.halted || !self.inbox.is_empty();
        self.stepping
    }
}

/// How the round loop reaches the machine slots — the one place
/// [`ExecMode`] shows in it.
enum Slots<'a, P: MachineProgram> {
    /// [`ExecMode::Serial`]: the driving thread owns the slots and steps
    /// and folds each machine in one pass.
    Owned(&'a mut [MachineSlot<P>]),
    /// [`ExecMode::Parallel`]: pool workers claim machines in any order,
    /// so each slot sits behind a lock that never contends (every index
    /// is handed to exactly one thread, and the driving thread only looks
    /// between barriers).
    Shared {
        slots: &'a [Mutex<MachineSlot<P>>],
        /// Publishes a machine's activity flag, so pool workers skip idle
        /// machines (halted, nothing in the inbox) without a lock cycle.
        mark_active: &'a dyn Fn(MachineId, bool),
        /// Steps every flagged machine and returns once all are done.
        step_all: &'a mut dyn FnMut(u64) -> Result<(), PanicPayload>,
    },
}

/// Locks a shared slot. A panicking step poisons its lock; the poison is
/// ignored so the *original* payload (not a `PoisonError`) reaches the
/// caller once programs and RNGs are back in place.
fn lock<P: MachineProgram>(slot: &Mutex<MachineSlot<P>>) -> MutexGuard<'_, MachineSlot<P>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shuts the pool down when dropped, so the workers are released on every
/// exit from the scope that spawned them — unwinding included.
struct Release<'a>(&'a PoolCore);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

impl<P: MachineProgram> Slots<'_, P> {
    fn len(&self) -> usize {
        match self {
            Slots::Owned(slots) => slots.len(),
            Slots::Shared { slots, .. } => slots.len(),
        }
    }

    fn with<R>(&mut self, mid: MachineId, f: impl FnOnce(&mut MachineSlot<P>) -> R) -> R {
        match self {
            Slots::Owned(slots) => f(&mut slots[mid]),
            Slots::Shared { slots, .. } => f(&mut lock(&slots[mid])),
        }
    }

    /// One pass over every slot, in machine-id order.
    fn for_each(&mut self, mut f: impl FnMut(MachineId, &mut MachineSlot<P>)) {
        match self {
            Slots::Owned(slots) => slots.iter_mut().enumerate().for_each(|(mid, s)| f(mid, s)),
            Slots::Shared { slots, .. } => {
                (slots.iter().enumerate()).for_each(|(mid, s)| f(mid, &mut lock(s)))
            }
        }
    }
}

/// Immutable cluster shape shared with the step job.
struct StepCtx {
    caps: Vec<usize>,
    large: Option<MachineId>,
    machines: usize,
    /// The cluster's telemetry sink at run start, shared with every step's
    /// [`MachineCtx`] (workers record concurrently; sinks are `Sync`).
    sink: Option<Arc<dyn TraceSink>>,
}

/// How one `run` ended, before panic payloads are re-raised.
enum DriveEnd {
    Done(u64),
    Failed(ExecError),
    Panicked(PanicPayload),
}

/// The between-rounds view a [`run_hooked`](Executor::run_hooked) hook
/// gets: the machines' programs and pending inboxes at the top of a round,
/// before any machine steps. The hook always runs on the driving thread —
/// in every [`ExecMode`] — so whatever it does is bit-identical between
/// serial and pool runs.
///
/// Mutating access ([`with`](WaveRound::with), [`wake`](WaveRound::wake))
/// marks the round *dirty*; with a fault plan attached, a dirty round
/// forces a checkpoint before stepping, because hook-time mutations happen
/// outside [`MachineProgram::step`] and replay-from-checkpoint could not
/// otherwise reproduce them.
pub struct WaveRound<'a, P: MachineProgram> {
    slots: Slots<'a, P>,
    round: u64,
    dirty: bool,
}

impl<P: MachineProgram> WaveRound<'_, P> {
    /// The driver round about to execute (0-based program clock).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.slots.len()
    }

    /// Read-only access to one machine's program and pending inbox (does
    /// not mark the round dirty — completion scans stay checkpoint-free).
    pub fn peek<R>(
        &self,
        mid: MachineId,
        f: impl FnOnce(&P, &[(MachineId, P::Message)]) -> R,
    ) -> R {
        match &self.slots {
            Slots::Owned(slots) => f(&slots[mid].program, &slots[mid].inbox),
            Slots::Shared { slots, .. } => {
                let s = lock(&slots[mid]);
                f(&s.program, &s.inbox)
            }
        }
    }

    /// Mutable access to one machine's program; marks the round dirty.
    pub fn with<R>(&mut self, mid: MachineId, f: impl FnOnce(&mut P) -> R) -> R {
        self.with_mail(mid, |program, _| f(program))
    }

    /// Mutable access to one machine's program *and* its pending inbox;
    /// marks the round dirty. This is the quarantine primitive: cancelling
    /// a job mid-wave must purge its in-flight mail along with its lane,
    /// or the next step would deliver messages to a lane that no longer
    /// exists (DESIGN.md §2.9).
    pub fn with_mail<R>(
        &mut self,
        mid: MachineId,
        f: impl FnOnce(&mut P, &mut Vec<(MachineId, P::Message)>) -> R,
    ) -> R {
        self.dirty = true;
        self.slots.with(mid, |s| f(&mut s.program, &mut s.inbox))
    }

    /// Clears a machine's halt vote so it steps this round (admission into
    /// an otherwise-idle wave); marks the round dirty.
    pub fn wake(&mut self, mid: MachineId) {
        self.dirty = true;
        self.slots.with(mid, |s| s.halted = false);
    }
}

/// A [`run_hooked`](Executor::run_hooked) coordinator callback: runs at
/// the top of every round, may mutate programs through the [`WaveRound`],
/// and returns whether work is still *queued* beyond what is running (so
/// the driver keeps the round loop alive across full drains instead of
/// ending the run).
pub type RoundHook<'h, P> =
    &'h mut dyn FnMut(&mut Cluster, &mut WaveRound<'_, P>) -> Result<bool, ExecError>;

impl Executor {
    /// An executor labeling its exchanges `{label}.r{round}`.
    pub fn new(label: &str, mode: ExecMode) -> Self {
        Executor {
            label: label.to_string(),
            mode,
            max_rounds: 100_000,
            threads: 0,
        }
    }

    /// Serial executor (reference schedule).
    pub fn serial(label: &str) -> Self {
        Executor::new(label, ExecMode::Serial)
    }

    /// Parallel executor (persistent worker pool, dynamic claiming).
    pub fn parallel(label: &str) -> Self {
        Executor::new(label, ExecMode::Parallel)
    }

    /// Overrides the termination safety net (default 100 000 rounds).
    pub fn max_rounds(mut self, limit: u64) -> Self {
        self.max_rounds = limit.max(1);
        self
    }

    /// Caps worker threads in parallel mode (0 = one per available core,
    /// overridable via the `MPC_POOL_THREADS` environment variable — the
    /// knob CI's pool-thread matrix turns without touching call sites).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    fn worker_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = std::env::var("MPC_POOL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(4, |n| n.get())
    }

    /// Runs `programs` (one per machine) to completion.
    ///
    /// Every round: step all active machines, charge each machine's message
    /// volume plus [`MachineCtx::charge`]d extra as local work, then move
    /// the union of outboxes through one capacity-checked
    /// [`exchange`](Cluster::exchange). Ends when all machines have halted
    /// with nothing in flight.
    ///
    /// # Errors
    ///
    /// [`ExecError::Model`] on a capacity violation in strict mode;
    /// [`ExecError::RoundLimit`] if the program fails to terminate.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the cluster's machine count,
    /// or if a [`MachineProgram::step`] panics (the panic is re-raised on
    /// the calling thread in every mode).
    pub fn run<P: MachineProgram>(
        &self,
        cluster: &mut Cluster,
        programs: Vec<P>,
    ) -> Result<ExecOutcome<P>, ExecError> {
        self.run_inner(cluster, programs, None)
    }

    /// [`run`](Executor::run) with a coordinator hook called at the top of
    /// every round, before any machine steps — the service scheduler's
    /// admission point. The hook runs on the driving thread in every mode
    /// (so serial == pool bit-equality extends to hooked runs), may mutate
    /// machine programs through the [`WaveRound`], and reports whether
    /// more work is queued; while it does, the driver keeps the loop alive
    /// through fully-drained rounds (empty exchanges) instead of ending
    /// the run.
    ///
    /// # Errors
    ///
    /// Everything [`run`](Executor::run) returns, plus any error the hook
    /// itself raises (which aborts the run).
    pub fn run_hooked<P: MachineProgram>(
        &self,
        cluster: &mut Cluster,
        programs: Vec<P>,
        hook: RoundHook<'_, P>,
    ) -> Result<ExecOutcome<P>, ExecError> {
        self.run_inner(cluster, programs, Some(hook))
    }

    fn run_inner<P: MachineProgram>(
        &self,
        cluster: &mut Cluster,
        programs: Vec<P>,
        hook: Option<RoundHook<'_, P>>,
    ) -> Result<ExecOutcome<P>, ExecError> {
        let k = cluster.machines();
        assert_eq!(programs.len(), k, "need exactly one program per machine");
        let start = Instant::now();
        let ctx = StepCtx {
            caps: (0..k).map(|m| cluster.capacity(m)).collect(),
            large: cluster.large(),
            machines: k,
            sink: cluster.trace_sink(),
        };

        // Move each machine's program and private RNG into its slot for the
        // duration of the run (the RNGs go back below, stream positions
        // intact, so the cluster observes exactly a serial execution).
        let mut slots: Vec<MachineSlot<P>> = programs
            .into_iter()
            .zip(cluster.rngs_mut().iter_mut())
            .map(|(program, rng)| {
                let rng = std::mem::replace(rng, SmallRng::seed_from_u64(0));
                MachineSlot::new(program, rng, false)
            })
            .collect();

        let tracing = ctx.sink.is_some();
        let mut pool_stats: Option<PoolStats> = None;

        // Every mode catches a step panic (here, in `drive`, or on the pool
        // workers) and reports it as `DriveEnd::Panicked`, so the
        // RNG/program restoration below runs before the payload is
        // re-raised — post-panic cluster state is identical in every mode.
        let end = match self.mode {
            ExecMode::Serial => self.drive(cluster, Slots::Owned(&mut slots), &ctx, hook),
            ExecMode::Parallel => {
                // Workers need the slots shared: lock-guard them for the run.
                let shared: Vec<Mutex<MachineSlot<P>>> = slots.drain(..).map(Mutex::new).collect();
                let (shared_ref, ctx) = (&shared[..], &ctx);
                let job = move |mid: usize, round: u64| {
                    let s = &mut *lock(&shared_ref[mid]);
                    s.outcome = s.stepping.then(|| step_machine(s, mid, ctx, round));
                };
                let pool =
                    PoolCore::new(k, self.worker_threads().min(k).max(1)).with_stats(tracing);
                let sink = ctx.sink.clone();
                let stats = &mut pool_stats;
                let end = std::thread::scope(|scope| {
                    pool.spawn_workers(scope, &job);
                    let slots = Slots::Shared {
                        slots: shared_ref,
                        mark_active: &|mid, on| pool.set_active(mid, on),
                        step_all: &mut |round| {
                            let result = pool.run_round(round);
                            if result.is_ok() && tracing {
                                // Drain this round's per-worker counters
                                // into the run totals and the event stream.
                                let round_stats = pool.take_round_stats();
                                if let Some(sink) = &sink {
                                    for (worker, s) in round_stats.iter().enumerate() {
                                        sink.record(&TraceEvent::WorkerRound {
                                            round,
                                            worker,
                                            claimed: s.claimed as usize,
                                            stepped: s.stepped as usize,
                                            idle_skips: s.idle_skips as usize,
                                            wait_ns: s.wait_ns,
                                            busy_ns: s.busy_ns,
                                        });
                                    }
                                }
                                stats
                                    .get_or_insert_with(PoolStats::default)
                                    .add_round(&round_stats);
                            }
                            result
                        },
                    };
                    // Every exit path — a panicking round hook included —
                    // must release the workers, or the scope's implicit
                    // join would wait on them forever.
                    let _release = Release(&pool);
                    self.drive(cluster, slots, ctx, hook)
                });
                let unlocked = shared.into_iter().map(Mutex::into_inner);
                slots.extend(unlocked.map(|s| s.unwrap_or_else(PoisonError::into_inner)));
                end
            }
        };

        // Replica shards live only as long as the run that placed them.
        if cluster.fault_plan().is_some() {
            cluster.release("replica");
        }

        // Hand the programs and the advanced RNG streams back.
        let mut programs = Vec::with_capacity(k);
        for (slot, rng) in slots.into_iter().zip(cluster.rngs_mut().iter_mut()) {
            *rng = slot.rng;
            programs.push(slot.program);
        }

        match end {
            DriveEnd::Done(rounds) => Ok(ExecOutcome {
                programs,
                rounds,
                wall: start.elapsed(),
                pool: pool_stats,
            }),
            DriveEnd::Failed(e) => Err(e),
            DriveEnd::Panicked(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// The round loop: hook, activation flags, step and fold-back (one
    /// pass over owned slots; a barrier, then a machine-order pass over
    /// shared ones), and the exchange — with the outbox/inbox buffers
    /// reused across rounds.
    fn drive<P: MachineProgram>(
        &self,
        cluster: &mut Cluster,
        mut slots: Slots<'_, P>,
        ctx: &StepCtx,
        mut hook: Option<RoundHook<'_, P>>,
    ) -> DriveEnd {
        let k = slots.len();
        let prefix: Arc<str> = Arc::from(self.label.as_str());
        let mut outgoing: Vec<Vec<(MachineId, P::Message)>> = (0..k).map(|_| Vec::new()).collect();
        let mut inboxes: Vec<Vec<(MachineId, P::Message)>> = Vec::new();
        let mut round: u64 = 0;
        // Fault tolerance engages only when a plan is attached; a plain run
        // takes none of the branches below and stays bit-identical.
        let mut recovery: Option<RecoveryState<P>> = match cluster.fault_plan() {
            None => None,
            Some(_) => match RecoveryState::new(cluster, &self.label) {
                Ok(rec) => Some(rec),
                Err(e) => return DriveEnd::Failed(e),
            },
        };

        loop {
            // Coordinator hook first: admissions/retirements land before
            // activation flags, the forced checkpoint, and any stepping,
            // so every mode sees the identical post-hook state. The view
            // holds the slots for the duration of the call.
            let mut hook_pending = false;
            let mut hook_dirty = false;
            if let Some(h) = hook.as_mut() {
                let mut view = WaveRound {
                    slots,
                    round,
                    dirty: false,
                };
                match h(cluster, &mut view) {
                    Ok(pending) => hook_pending = pending,
                    Err(e) => return DriveEnd::Failed(e),
                }
                hook_dirty = view.dirty;
                slots = view.slots;
            }
            let publish = match &slots {
                Slots::Owned(_) => None,
                Slots::Shared { mark_active, .. } => Some(*mark_active),
            };
            let mut any_stepping = false;
            slots.for_each(|mid, s| {
                let on = s.activate();
                any_stepping |= on;
                if let Some(publish) = publish {
                    publish(mid, on);
                }
            });
            if !any_stepping {
                break;
            }
            if round >= self.max_rounds {
                return DriveEnd::Failed(ExecError::RoundLimit {
                    limit: self.max_rounds,
                });
            }
            if let Some(rec) = &mut recovery {
                // Checkpoint *before* stepping: a snapshot of the state the
                // round starts from, so a crash at any later round replays
                // forward from here. A hook-dirtied round forces one — the
                // hook's mutations happen outside `step`, so a replay from
                // any earlier checkpoint could not reproduce them.
                if hook_dirty || rec.is_cadence_round(round) {
                    if let Err(e) = rec.checkpoint(cluster, &mut slots, round) {
                        return DriveEnd::Failed(e);
                    }
                }
            }

            // Fold every outcome in machine order — deterministic whichever
            // thread ran which machine. A machine that sat the round out
            // has nothing to fold: it is halted, and the last exchange left
            // its outbox empty. A step panic abandons the round part-folded
            // (owned slots fold as they go): the work charged so far is
            // dropped with the run, never logged.
            debug_assert!(outgoing.iter().all(Vec::is_empty));
            let mut any_messages = false;
            let mut all_halted = true;
            let mut fold = |mid: MachineId, s: &mut MachineSlot<P>, step: StepSlot<P::Message>| {
                s.halted = step.halt;
                all_halted &= step.halt;
                any_messages |= !step.outbox.is_empty();
                if step.work > 0 {
                    cluster.charge_work(mid, step.work);
                }
                outgoing[mid] = step.outbox;
            };
            let stepped = match &mut slots {
                Slots::Owned(slots) => {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        for (mid, s) in slots.iter_mut().enumerate() {
                            if s.stepping {
                                let step = step_machine(s, mid, ctx, round);
                                fold(mid, s, step);
                            }
                        }
                    }))
                }
                Slots::Shared {
                    slots, step_all, ..
                } => step_all(round).map(|()| {
                    for (mid, slot) in slots.iter().enumerate() {
                        let s = &mut *lock(slot);
                        if let Some(step) = s.outcome.take() {
                            fold(mid, s, step);
                        }
                    }
                }),
            };
            if let Err(payload) = stepped {
                return DriveEnd::Panicked(payload);
            }

            if !any_messages && all_halted && !hook_pending {
                // Everyone is done and nothing is in flight: no final
                // exchange, the round was pure local wind-down. With work
                // still queued behind a hook, fall through instead — the
                // (empty) exchange keeps the round clock monotone and the
                // next iteration's hook admits from the queue.
                break;
            }
            // With a plan attached, arm the exchange: crashes and drops may
            // hit only algorithm exchanges.
            cluster.arm_faults(recovery.is_some());
            let exchanged = cluster.exchange_into(
                RoundLabel::with_seq(&prefix, round),
                &mut outgoing,
                &mut inboxes,
            );
            cluster.arm_faults(false);
            if let Err(v) = exchanged {
                return DriveEnd::Failed(v.into());
            }
            if let Some(rec) = &mut recovery {
                let disruptive: Vec<FiredFault> = cluster
                    .take_fired_faults()
                    .into_iter()
                    .filter(|f| f.fault.needs_arming())
                    .collect();
                if !disruptive.is_empty() {
                    // The exchange kept back the mail the faults destroyed.
                    let lost = outgoing.iter_mut().map(std::mem::take).collect();
                    if let Err(e) =
                        rec.recover(cluster, &mut slots, lost, disruptive, round, &mut inboxes)
                    {
                        return DriveEnd::Failed(e);
                    }
                }
                rec.log_inboxes(round + 1, &inboxes);
            }
            round += 1;
            slots.for_each(|mid, s| {
                // A stepped machine's inbox was consumed by value: its
                // just-drained outbox becomes the buffer the next exchange
                // delivers into, so neither is reallocated where a machine
                // sends about as much as it receives.
                if s.inbox.capacity() == 0 {
                    s.inbox = std::mem::take(&mut outgoing[mid]);
                }
                std::mem::swap(&mut s.inbox, &mut inboxes[mid]);
            });
        }

        DriveEnd::Done(round)
    }
}

/// Steps one machine flagged for this round — live or replayed: builds its
/// context, runs the program, and returns the outcome with the
/// deterministic work charge (inbox + outbox words + any explicitly
/// charged computation).
fn step_machine<P: MachineProgram>(
    slot: &mut MachineSlot<P>,
    mid: MachineId,
    ctx: &StepCtx,
    round: u64,
) -> StepSlot<P::Message> {
    let inbox = std::mem::take(&mut slot.inbox);
    let inbox_words: usize = inbox
        .iter()
        .map(|(_, m)| mpc_runtime::Payload::words(m))
        .sum();
    let mctx = MachineCtx::new(
        mid,
        ctx.machines,
        ctx.large,
        ctx.caps[mid],
        round,
        &mut slot.rng,
        ctx.sink.as_deref(),
    );
    let outcome = slot.program.step(&mctx, inbox);
    let extra = mctx.charged();
    let (outbox, halt) = match outcome {
        StepOutcome::Send(outbox) => (outbox, false),
        StepOutcome::Halt => (Vec::new(), true),
    };
    let outbox_words: usize = outbox
        .iter()
        .map(|(_, m)| mpc_runtime::Payload::words(m))
        .sum();
    StepSlot {
        outbox,
        halt,
        work: inbox_words as u64 + outbox_words as u64 + extra,
    }
}

/// One small machine's checkpoint: everything replay needs to reconstruct
/// the machine at the *top* of driver round `round` (before stepping).
struct Checkpoint<P: MachineProgram> {
    program: P,
    rng: SmallRng,
    halted: bool,
    inbox: Vec<(MachineId, P::Message)>,
    round: u64,
}

/// A crashed machine's state replayed forward to just *after* stepping the
/// disrupted round.
struct Replayed<P: MachineProgram> {
    slot: MachineSlot<P>,
    outbox: Vec<(MachineId, P::Message)>,
    replayed: u64,
}

/// Stable merge of recovery deliveries into a round inbox by ascending
/// source id. The two lists never share a source *for the same
/// destination* (a crashed destination's main inbox is empty; a healthy
/// destination only receives recovery mail from disrupted sources, whose
/// main-exchange messages were all held back), so the merge reconstructs
/// exactly the fault-free delivery order.
fn merge_by_src<M>(main: &mut Vec<(MachineId, M)>, extra: Vec<(MachineId, M)>) {
    if extra.is_empty() {
        return;
    }
    if main.is_empty() {
        *main = extra;
        return;
    }
    let old = std::mem::take(main);
    main.reserve(old.len() + extra.len());
    let mut a = old.into_iter().peekable();
    let mut b = extra.into_iter().peekable();
    loop {
        let take_a = match (a.peek(), b.peek()) {
            (Some((sa, _)), Some((sb, _))) => sa <= sb,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        match take_a {
            true => main.push(a.next().expect("peeked")),
            false => main.push(b.next().expect("peeked")),
        }
    }
}

/// The driver-side half of fault tolerance (DESIGN.md §2.7, §2.9):
/// replicated checkpoints of every small machine's shard, a durable-host
/// checkpoint of the large machine (coordinator failover), an inbox log
/// for replay, and the recovery protocol that reknits a disrupted round.
/// Created only when a [`FaultPlan`](mpc_runtime::FaultPlan) is attached —
/// fault-free runs never construct one.
///
/// The model and the host split the work. Every checkpoint charges every
/// machine's `state_words()` — as `.ckpt` traffic to its replica owners
/// and as their resident `"replica"` words — whatever the program. Only
/// [`replay`](RecoveryState::replay) reads a host copy, and only for a
/// crash victim, so the host copies and logs only the machines some
/// [`Fault::Crash`] of the plan names (fired or not). The plan is read
/// once, at run start: the driver learns *which* machines a crash can
/// hit, never *when*.
struct RecoveryState<P: MachineProgram> {
    policy: RecoveryPolicy,
    small_ids: Vec<MachineId>,
    /// The cluster shape replayed steps see — the live one, minus the sink.
    ctx: StepCtx,
    /// `copied[m]`: a crash in the plan names machine `m`, so the host
    /// keeps its checkpoint and inbox log.
    copied: Vec<bool>,
    /// Latest checkpoint per copied machine (`None` for every other
    /// machine, and for programs without snapshot support). Small machines
    /// additionally ship replica chunks to ring successors; the large
    /// machine's checkpoint stays on the durable host, with its staging
    /// copy charged to the large machine's own resident memory.
    checkpoints: Vec<Option<Checkpoint<P>>>,
    /// `inbox_log[m][i]`: copied machine `m`'s committed inbox for driver
    /// round `checkpoint.round + 1 + i` — the message durability that lets
    /// replay re-feed a crashed machine without re-running its peers.
    inbox_log: Vec<Vec<Vec<(MachineId, P::Message)>>>,
    ckpt_prefix: Arc<str>,
    rec_prefix: Arc<str>,
    ckpt_seq: u64,
    rec_seq: u64,
    /// Reusable outbox buffers for the replication exchange.
    ckpt_out: Vec<Vec<(MachineId, ReplicaChunk)>>,
    ckpt_in: Vec<Vec<(MachineId, ReplicaChunk)>>,
}

impl<P: MachineProgram> RecoveryState<P> {
    /// Reads the attached plan: its policy, and which machines its crashes
    /// name.
    ///
    /// # Errors
    ///
    /// [`ExecError::Algorithm`] if a fault names a machine the cluster does
    /// not have — refused here, before round 0, rather than mid-run.
    fn new(cluster: &Cluster, label: &str) -> Result<Self, ExecError> {
        let k = cluster.machines();
        let plan = cluster
            .fault_plan()
            .expect("recovery requires an attached plan");
        let mut copied = vec![false; k];
        for fault in plan.faults() {
            let Some(machine) = fault.machine() else {
                continue;
            };
            if machine >= k {
                return Err(ExecError::Algorithm {
                    message: format!(
                        "the fault plan names machine {machine}, but the cluster has {k} machines"
                    ),
                });
            }
            copied[machine] |= matches!(fault, Fault::Crash { .. });
        }
        Ok(RecoveryState {
            policy: plan.policy().clone(),
            small_ids: cluster.small_ids(),
            ctx: StepCtx {
                caps: (0..k).map(|m| cluster.capacity(m)).collect(),
                large: cluster.large(),
                machines: k,
                sink: None,
            },
            copied,
            checkpoints: (0..k).map(|_| None).collect(),
            inbox_log: (0..k).map(|_| Vec::new()).collect(),
            ckpt_prefix: Arc::from(format!("{label}.ckpt").as_str()),
            rec_prefix: Arc::from(format!("{label}.recover").as_str()),
            ckpt_seq: 0,
            rec_seq: 0,
            ckpt_out: (0..k).map(|_| Vec::new()).collect(),
            ckpt_in: Vec::new(),
        })
    }

    /// Whether `round` checkpoints whatever the hook did.
    fn is_cadence_round(&self, round: u64) -> bool {
        round.is_multiple_of(self.policy.cadence.max(1))
    }

    /// Checkpoints every machine at the top of `round`. Small shards ship
    /// to their ring-successor replica owners through one disarmed,
    /// capacity-checked exchange — replication is real traffic, charged
    /// like any algorithm round, and the resident copies are charged to
    /// their owners' memory until the run ends. The large machine's
    /// O(n^{1+f})-word shard fits on no small peer; it checkpoints to the
    /// durable host instead (the same fiction §2.7 grants the network),
    /// with the staging copy charged against the large machine's own
    /// capacity so the redundancy is still paid for in the model. Every
    /// machine is charged, snapshot support or not; the host copies only
    /// the machines a planned crash names.
    fn checkpoint(
        &mut self,
        cluster: &mut Cluster,
        slots: &mut Slots<'_, P>,
        round: u64,
    ) -> Result<(), ExecError> {
        let n = self.small_ids.len();
        let replicas = self.policy.replicas.min(n.saturating_sub(1));
        let mut owned = vec![0usize; self.ctx.machines];
        for idx in 0..n {
            let m = self.small_ids[idx];
            let words = self.snapshot_slot(slots, m, round);
            for r in 1..=replicas {
                let owner = self.small_ids[(idx + r) % n];
                self.ckpt_out[m].push((owner, ReplicaChunk(words)));
                owned[owner] += words;
            }
        }
        if let Some(large) = self.ctx.large {
            owned[large] += self.snapshot_slot(slots, large, round);
        }
        cluster
            .exchange_into(
                RoundLabel::with_seq(&self.ckpt_prefix, self.ckpt_seq),
                &mut self.ckpt_out,
                &mut self.ckpt_in,
            )
            .map_err(ExecError::Model)?;
        self.ckpt_seq += 1;
        cluster
            .account_all("replica", &owned)
            .map_err(ExecError::Model)?;
        Ok(())
    }

    /// Returns machine `m`'s declared shard words, the replica the model
    /// charges. For a copied machine, also replaces its checkpoint with a
    /// snapshot of its slot at the top of `round` (`None` if the program
    /// opts out) and restarts its inbox log.
    fn snapshot_slot(&mut self, slots: &mut Slots<'_, P>, m: MachineId, round: u64) -> usize {
        if !self.copied[m] {
            return slots.with(m, |s| s.program.state_words());
        }
        let (snapshot, words) = slots.with(m, |s| {
            let snapshot = s.program.snapshot().map(|program| Checkpoint {
                program,
                rng: s.rng.clone(),
                halted: s.halted,
                inbox: s.inbox.clone(),
                round,
            });
            (snapshot, s.program.state_words())
        });
        self.checkpoints[m] = snapshot;
        self.inbox_log[m].clear();
        words
    }

    /// Records the committed inboxes of round `next`
    /// (`= checkpoint.round + 1 + len`) for every copied machine, large
    /// included — coordinator replay re-feeds the same durable mail as any
    /// small machine's. Nothing is recorded when `next` is a cadence round:
    /// its checkpoint stores these inboxes itself and clears the log before
    /// anything could read the entry.
    fn log_inboxes(&mut self, next: u64, inboxes: &[Vec<(MachineId, P::Message)>]) {
        if self.is_cadence_round(next) {
            return;
        }
        for (m, inbox) in inboxes.iter().enumerate() {
            if self.copied[m] {
                self.inbox_log[m].push(inbox.clone());
            }
        }
    }

    /// Rebuilds crashed machine `m` from its replica checkpoint and replays
    /// it forward through driver round `upto`, re-feeding the logged
    /// inboxes. Returns the replayed state plus the total work words the
    /// replay performed (charged to the recovery exchange's makespan).
    fn replay(&self, m: MachineId, upto: u64) -> Result<(Replayed<P>, u64), ExecError> {
        let n = self.small_ids.len();
        // The peer-replica requirement applies to small machines only: the
        // large machine replays from its durable-host checkpoint and never
        // needed a peer in the first place.
        if Some(m) != self.ctx.large && self.policy.replicas.min(n.saturating_sub(1)) == 0 {
            return Err(ExecError::Unrecoverable {
                machine: m,
                round: upto,
                reason: "no replica peer (replicas = 0 or a lone small machine)".to_string(),
            });
        }
        let ck = self
            .checkpoints
            .get(m)
            .and_then(Option::as_ref)
            .ok_or_else(|| ExecError::Unrecoverable {
                machine: m,
                round: upto,
                reason: "no checkpoint snapshot (program opts out of recovery)".to_string(),
            })?;
        let program = ck
            .program
            .snapshot()
            .ok_or_else(|| ExecError::Unrecoverable {
                machine: m,
                round: upto,
                reason: "checkpoint cannot be re-instantiated".to_string(),
            })?;
        let mut slot = MachineSlot::new(program, ck.rng.clone(), ck.halted);
        let mut outbox: Vec<(MachineId, P::Message)> = Vec::new();
        let mut replayed = 0u64;
        let mut work = 0u64;
        for j in ck.round..=upto {
            slot.inbox = if j == ck.round {
                ck.inbox.clone()
            } else {
                let i = (j - ck.round - 1) as usize;
                self.inbox_log[m]
                    .get(i)
                    .cloned()
                    .ok_or_else(|| ExecError::Unrecoverable {
                        machine: m,
                        round: upto,
                        reason: format!("replay log has no inbox for round {j}"),
                    })?
            };
            outbox.clear();
            if slot.activate() {
                // The live step function, unobserved (`ctx` has no sink).
                let step = step_machine(&mut slot, m, &self.ctx, j);
                work += step.work;
                slot.halted = step.halt;
                outbox = step.outbox;
                replayed += 1;
            }
        }
        Ok((
            Replayed {
                slot,
                outbox,
                replayed,
            },
            work,
        ))
    }

    /// The recovery protocol for one disrupted algorithm exchange: `lost`
    /// is the mail the exchange kept back, per source, and `fired` the
    /// crashes and drops it fired. Quarantine and replay every crash
    /// victim, then resend `lost` through an armed recovery exchange
    /// (retried with backoff while the chaos plan disrupts the recovery
    /// itself, its crash victims replayed in turn), and merge the
    /// deliveries into the round's inboxes so downstream rounds are
    /// bit-identical to a fault-free run.
    fn recover(
        &mut self,
        cluster: &mut Cluster,
        slots: &mut Slots<'_, P>,
        lost: Vec<Vec<(MachineId, P::Message)>>,
        mut fired: Vec<FiredFault>,
        round: u64,
        inboxes: &mut [Vec<(MachineId, P::Message)>],
    ) -> Result<(), ExecError> {
        let sink = cluster.trace_sink();
        // Each crashed or dropped machine lost its whole round outbox. When
        // retries run out, the lowest-id crash victim is blamed, or with no
        // crash the lowest-id machine whose outbox was dropped.
        let (crashed, dropped) = victims(&fired);
        let blame = *crashed
            .first()
            .or(dropped.first())
            .expect("a crash or a drop fired");
        let mut restored: BTreeMap<MachineId, Replayed<P>> = BTreeMap::new();
        let mut rec_in: Vec<Vec<(MachineId, P::Message)>> = Vec::new();
        let mut attempt = 0usize;
        let committed_attempt = loop {
            // One pass over the crash victims of the exchange just made —
            // the disrupted round's, then each recovery attempt's. Every
            // victim, the large machine included (its shard checkpoints to
            // the durable host), is quarantined and replayed from its
            // checkpoint; the replayed compute lands in the next recovery
            // exchange's makespan. A machine crashing *during* recovery
            // loses its post-round state again but none of its committed
            // round-`round` traffic: replay only.
            let (crashes, drops) = victims(&fired);
            if attempt > 0 && crashes.is_empty() && drops.is_empty() {
                break attempt;
            }
            for &m in &crashes {
                if let Some(sink) = &sink {
                    sink.record(&TraceEvent::MachineQuarantined {
                        round: cluster.rounds(),
                        machine: m,
                    });
                }
                let (rp, work) = self.replay(m, round)?;
                if work > 0 {
                    cluster.charge_work(m, work);
                }
                restored.insert(m, rp);
            }
            attempt += 1;
            if attempt > self.policy.max_retries {
                return Err(ExecError::Unrecoverable {
                    machine: blame,
                    round,
                    reason: format!(
                        "recovery retries exhausted after {} attempts",
                        self.policy.max_retries
                    ),
                });
            }
            if attempt > 1 {
                cluster.add_pending_delay(self.policy.backoff_seconds * (attempt - 1) as f64);
            }
            for &m in restored.keys() {
                cluster.restore_machine(m);
            }
            // Armed: the plan may disrupt the recovery itself — that is
            // what the retry loop and backoff are for. A disrupted
            // attempt's deliveries are discarded and `lost` is sent whole
            // again.
            let mut rec_out = lost.clone();
            cluster.arm_faults(true);
            let res = cluster.exchange_into(
                RoundLabel::with_seq(&self.rec_prefix, self.rec_seq),
                &mut rec_out,
                &mut rec_in,
            );
            cluster.arm_faults(false);
            self.rec_seq += 1;
            res.map_err(ExecError::Model)?;
            fired = cluster.take_fired_faults();
        };

        // Commit: merge the recovery deliveries into the round's inboxes
        // (reconstructing the fault-free delivery order) and install each
        // recovered machine's replayed program, RNG position, and halt
        // flag.
        for (main, extra) in inboxes.iter_mut().zip(rec_in) {
            merge_by_src(main, extra);
        }
        for (m, rp) in restored {
            if crashed.contains(&m) || dropped.contains(&m) {
                let shape = |out: &[(MachineId, P::Message)]| -> Vec<(MachineId, usize)> {
                    (out.iter())
                        .map(|(to, msg)| (*to, mpc_runtime::Payload::words(msg)))
                        .collect()
                };
                debug_assert_eq!(
                    shape(&rp.outbox),
                    shape(&lost[m]),
                    "deterministic replay must regenerate machine {m}'s lost outbox"
                );
            }
            slots.with(m, |s| {
                s.program = rp.slot.program;
                s.rng = rp.slot.rng;
                s.halted = rp.slot.halted;
            });
            if let Some(sink) = &sink {
                sink.record(&TraceEvent::RecoveryRound {
                    round: cluster.rounds(),
                    machine: m,
                    replayed: rp.replayed,
                    attempt: committed_attempt,
                });
            }
        }
        Ok(())
    }
}

/// The machines `fired` crashed, and those whose outbox it dropped.
fn victims(fired: &[FiredFault]) -> (BTreeSet<MachineId>, BTreeSet<MachineId>) {
    let (mut crashed, mut dropped) = (BTreeSet::new(), BTreeSet::new());
    for f in fired {
        match f.fault {
            Fault::Crash { machine, .. } => crashed.insert(machine),
            Fault::DropExchange { machine, .. } => dropped.insert(machine),
            _ => false,
        };
    }
    (crashed, dropped)
}
