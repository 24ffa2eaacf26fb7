//! The job-queue service: mixed-program multi-tenancy over one engine run.
//!
//! [`MixedWave`] (DESIGN.md §2.8) lets a spanner, a matching, and a min
//! cut share one bulk-synchronous run; this module adds the front end that
//! makes that a *serving* model. Callers [`submit`](Service::submit)
//! [`JobSpec`]s and get [`JobHandle`]s; [`run`](Service::run) drives a
//! single hooked engine run whose coordinator — a [`RoundHook`] executing
//! on the driving thread at the top of every round — retires finished
//! jobs, admits queued ones strictly FIFO while their capacity shares fit,
//! and keeps the cluster's capacity factor equal to the running total, so
//! strict enforcement always reflects the tenants actually on the wire.
//!
//! Determinism: admission decisions depend only on (round, queue order,
//! lane halt votes, inbox tags) — all bit-identical between serial and
//! pool execution — and each job's lanes draw from private
//! [`machine_rng`] streams minted from the job's
//! seed. A description's host-side draws come from the large machine's
//! stream before its lane carries that stream on, and a job whose
//! description chains a second wave re-enters it on the same lanes' streams.
//! The same submission sequence therefore yields the same admission
//! rounds, round log, and results in every mode, and each job's output is
//! bit-identical to a solo [`registry::run_job`] on a fresh cluster
//! seeded with the job's seed.
//!
//! [`RoundHook`]: crate::driver::RoundHook

use crate::driver::{ExecError, ExecMode, Executor, WaveRound};
use crate::mixed::{by_machine, ErasedProgram, MixedWave};
use crate::registry::{self, derived_shares, AlgoOutput, Description, Finish, JobSpec};
use mpc_runtime::telemetry::TraceEvent;
use mpc_runtime::{machine_rng, Cluster, ClusterConfig, MachineId};
use rand::rngs::SmallRng;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Job lifecycle
// ---------------------------------------------------------------------------

/// Where a submitted job is in its lifecycle.
///
/// Failure is a *per-job* event (DESIGN.md §2.9): an engine-level error
/// attributed to one tenant quarantines that job, possibly retries it
/// under its [`JobRetryPolicy`](crate::JobRetryPolicy), and at worst
/// completes it as [`Failed`](JobStatus::Failed) — the run itself, and
/// every other tenant, continues.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Waiting in the FIFO queue for capacity shares.
    Queued,
    /// Admitted into the current mixed wave.
    Running,
    /// Finished; the result is waiting in the handle.
    Completed,
    /// Finished with an error — an algorithm-level failure, or an
    /// engine-level failure attributed to this job after its retry policy
    /// was exhausted. The run itself continued.
    Failed {
        /// The typed underlying error.
        error: ExecError,
    },
    /// Cancelled because it ran [`round_deadline`](crate::JobSpec::round_deadline)
    /// rounds past admission. Terminal: deadlines are not retried.
    DeadlineExceeded,
}

/// Shared job state behind a [`JobHandle`].
struct JobState {
    status: JobStatus,
    result: Option<Result<AlgoOutput, ExecError>>,
}

/// The caller's view of a submitted job: poll [`status`](JobHandle::status)
/// during/after a run, then [`take_result`](JobHandle::take_result).
pub struct JobHandle {
    id: u64,
    name: String,
    state: Arc<Mutex<JobState>>,
}

impl JobHandle {
    /// The service-assigned job id (dense, starting at 1 — also the tag on
    /// every telemetry event this job produces).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The registry name this job runs.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.state.lock().unwrap().status.clone()
    }

    /// Takes the job's result out of the handle (`None` if the job has not
    /// finished, or the result was already taken).
    pub fn take_result(&self) -> Option<Result<AlgoOutput, ExecError>> {
        self.state.lock().unwrap().result.take()
    }
}

/// One completed job's scheduling record, as reported by [`ServiceRun`].
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Service-assigned job id.
    pub job: u64,
    /// Registry name.
    pub name: String,
    /// Capacity shares the job held while running.
    pub shares: usize,
    /// Round the coordinator admitted the job.
    pub admitted_round: u64,
    /// Round the coordinator observed completion (for jobs still in the
    /// final wave, the run's total round count).
    pub completed_round: u64,
    /// `completed_round - admitted_round`.
    pub rounds: u64,
    /// Whether the job finished with an error (algorithm-level, retry
    /// exhaustion, or a missed deadline).
    pub failed: bool,
    /// Admissions the job consumed (1 for a job that never needed a
    /// retry; 0 for a job failed fast by a zero-attempt policy).
    pub attempts: u32,
}

/// What one [`Service::run`] drained: total engine rounds plus one record
/// per job, in job-id (= submission) order.
#[derive(Debug)]
pub struct ServiceRun {
    /// Engine rounds the whole mixed run consumed.
    pub rounds: u64,
    /// Per-job admission/completion records, sorted by job id.
    pub records: Vec<JobRecord>,
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

const HAS_LANE: &str = "a running job has a lane on every machine";

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    state: Arc<Mutex<JobState>>,
    /// The attempt the next admission will consume (1-based).
    attempt: u32,
    /// Earliest service round the job may be admitted (linear backoff
    /// after a quarantine; 0 for first-time submissions).
    earliest: u64,
}

struct RunningJob {
    id: u64,
    /// The lane ids of the job's current wave: instance `i` is lane
    /// `lanes.start + i`, and every message of the job is tagged with one.
    lanes: Range<u64>,
    shares: usize,
    admitted_round: u64,
    state: Arc<Mutex<JobState>>,
    /// Turns the large machine's retired lanes into the job's output or
    /// its next wave.
    finish: Finish<Box<dyn ErasedProgram>>,
    /// The full spec, kept so a quarantined job can be resubmitted (its
    /// lanes are rebuilt from scratch on re-admission).
    spec: JobSpec,
    /// The admission attempt this incarnation consumed (1-based).
    attempt: u32,
}

/// A wave of a job about to enter the mixed wave: its instances' programs
/// (instance-major) and one RNG stream per machine. A job's first wave gets
/// streams minted from its seed; a chained wave inherits the streams the
/// previous one left.
struct Link {
    job: RunningJob,
    instances: Vec<Vec<Box<dyn ErasedProgram>>>,
    rngs: Vec<SmallRng>,
}

impl Link {
    /// Installs the lanes — the next free range of lane ids, one per
    /// instance — with `wave_round` as their round 0; the job is running
    /// again.
    ///
    /// # Errors
    ///
    /// [`ExecError::Algorithm`] when the range would not fit the 32-bit
    /// lane id of a wire tag.
    fn admit(
        self,
        view: &mut WaveRound<'_, MixedWave>,
        wave_round: u64,
        next_lane: &mut u64,
    ) -> Result<RunningJob, ExecError> {
        let lanes = *next_lane..*next_lane + self.instances.len() as u64;
        if lanes.end > 1 << 32 {
            let message = format!("job {}: lanes {lanes:?} overflow the wire tag", self.job.id);
            return Err(ExecError::Algorithm { message });
        }
        *next_lane = lanes.end;
        for (mid, (programs, rng)) in by_machine(self.instances).zip(self.rngs).enumerate() {
            view.with(mid, |wave| {
                wave.admit(lanes.clone(), programs, rng, wave_round)
            });
            view.wake(mid);
        }
        Ok(RunningJob { lanes, ..self.job })
    }
}

/// Ends a job's current wave once its lanes have all halted: the large
/// machine's programs yield either the job's result, recorded at `round`,
/// or the next wave of its chain, staged in `links` on the same job id,
/// shares and RNG streams.
fn retire(
    cluster: &Cluster,
    records: &mut Vec<JobRecord>,
    links: &mut Vec<Link>,
    job: RunningJob,
    lanes: Vec<(Vec<Box<dyn ErasedProgram>>, SmallRng)>,
    large: MachineId,
    round: u64,
) {
    let (mut programs, rngs): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();
    match (job.finish)(programs.swap_remove(large)) {
        Description::Immediate(outcome) => finish_job(
            cluster,
            records,
            job.id,
            job.spec.name.clone(),
            job.shares,
            job.admitted_round,
            &job.state,
            round,
            job.attempt,
            outcome,
            None,
        ),
        Description::Wave {
            instances, finish, ..
        } => links.push(Link {
            job: RunningJob { finish, ..job },
            instances,
            rngs,
        }),
    }
}

/// Marks a job finished: flips its handle state, appends its record, and
/// emits the [`TraceEvent::JobCompleted`] instant. A job `pulled` off the
/// wave without result extraction — the quarantine path's exit (retry
/// exhaustion, a zero-attempt policy, or a missed deadline) — ends in the
/// given status and emits [`TraceEvent::JobFailed`] instead.
#[allow(clippy::too_many_arguments)]
fn finish_job(
    cluster: &Cluster,
    records: &mut Vec<JobRecord>,
    id: u64,
    name: String,
    shares: usize,
    admitted_round: u64,
    state: &Arc<Mutex<JobState>>,
    round: u64,
    attempts: u32,
    result: Result<AlgoOutput, ExecError>,
    pulled: Option<JobStatus>,
) {
    let (failed, rounds) = (result.is_err(), round - admitted_round);
    if let Some(sink) = cluster.trace_sink() {
        sink.record(&match (&pulled, &result) {
            (Some(_), Err(e)) => TraceEvent::JobFailed {
                round,
                job: id,
                error: e.to_string(),
            },
            _ => TraceEvent::JobCompleted {
                round,
                job: id,
                rounds,
                failed,
            },
        });
    }
    {
        let mut s = state.lock().unwrap();
        s.status = pulled.unwrap_or_else(|| match &result {
            Ok(_) => JobStatus::Completed,
            Err(e) => JobStatus::Failed { error: e.clone() },
        });
        s.result = Some(result);
    }
    records.push(JobRecord {
        job: id,
        name,
        shares,
        admitted_round,
        completed_round: round,
        rounds,
        failed,
        attempts,
    });
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A multi-tenant job queue over one heterogeneous cluster.
///
/// ```
/// use mpc_exec::{ExecMode, JobSpec, JobStatus, Service};
/// use mpc_graph::generators;
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::gnm(96, 320, 7));
/// let mut svc = Service::new(
///     mpc_runtime::ClusterConfig::new(96, 320).seed(11).polylog_exponent(2.6),
/// );
/// let spanner = svc.submit(JobSpec::new("spanner", g.clone()).seed(1)).unwrap();
/// let matching = svc.submit(JobSpec::new("matching", g.clone()).seed(2)).unwrap();
/// let mis = svc.submit(JobSpec::new("mis", g).seed(3)).unwrap();
/// let run = svc.run(ExecMode::Serial).unwrap();
/// assert_eq!(run.records.len(), 3);
/// assert_eq!(spanner.status(), JobStatus::Completed);
/// assert!(matching.take_result().unwrap().is_ok());
/// assert!(mis.take_result().unwrap().is_ok());
/// ```
pub struct Service {
    config: ClusterConfig,
    capacity_shares: usize,
    max_rounds: u64,
    threads: usize,
    next_id: u64,
    queue: VecDeque<QueuedJob>,
}

impl Service {
    /// A service whose [`run`](Service::run) builds its cluster from
    /// `config`. No share limit: every queued job is admitted immediately.
    pub fn new(config: ClusterConfig) -> Self {
        Service {
            config,
            capacity_shares: 0,
            max_rounds: 0,
            threads: 0,
            next_id: 1,
            queue: VecDeque::new(),
        }
    }

    /// Caps the total capacity shares running at once (0 = unlimited).
    /// Admission is strictly FIFO: a job that does not fit blocks the jobs
    /// behind it until retirement frees shares. A single job wider than
    /// the whole limit is admitted alone rather than deadlocking.
    pub fn capacity_shares(mut self, shares: usize) -> Self {
        self.capacity_shares = shares;
        self
    }

    /// Round-limit override for the underlying executor (0 = its default).
    pub fn max_rounds(mut self, limit: u64) -> Self {
        self.max_rounds = limit;
        self
    }

    /// Worker-thread cap for [`ExecMode::Parallel`] runs (0 = default).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Jobs waiting for the next [`run`](Service::run).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a job, validating its registry name and parameters up
    /// front.
    ///
    /// # Errors
    ///
    /// [`ExecError::Algorithm`] when `spec.name` is not a registered
    /// algorithm or its parameters are out of range (a spanner `k < 2`, an
    /// ε the estimator cannot use) — nothing is enqueued.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobHandle, ExecError> {
        registry::lookup(&spec)?;
        let id = self.next_id;
        self.next_id += 1;
        let state = Arc::new(Mutex::new(JobState {
            status: JobStatus::Queued,
            result: None,
        }));
        let handle = JobHandle {
            id,
            name: spec.name.clone(),
            state: Arc::clone(&state),
        };
        self.queue.push_back(QueuedJob {
            id,
            spec,
            state,
            attempt: 1,
            earliest: 0,
        });
        Ok(handle)
    }

    /// Drains the queue in one engine run on a fresh cluster built from
    /// this service's config.
    ///
    /// # Errors
    ///
    /// Engine-level failures attributable to one tenant (capacity
    /// violations, unrecoverable crashes) quarantine that job and the run
    /// continues; per-job algorithm errors only fail that job. Run-global
    /// pathologies (the round limit, hook errors) abort the whole run.
    /// See [`run_on`](Service::run_on).
    pub fn run(&mut self, mode: ExecMode) -> Result<ServiceRun, ExecError> {
        let mut cluster = Cluster::new(self.config.clone());
        self.run_on(&mut cluster, mode)
    }

    /// Whether an engine-level error is attributable to one tenant and
    /// survivable by the rest (DESIGN.md §2.9): capacity violations and
    /// unrecoverable crashes are; the round limit and hook-level errors
    /// are run-global pathologies that still abort everything.
    fn quarantinable(e: &ExecError) -> bool {
        matches!(e, ExecError::Model(_) | ExecError::Unrecoverable { .. })
    }

    /// The driver round an engine error surfaced on, if it carries one.
    fn error_round(e: &ExecError) -> Option<u64> {
        match e {
            ExecError::Unrecoverable { round, .. } => Some(*round),
            ExecError::Model(
                mpc_runtime::ModelViolation::SendOverflow { round, .. }
                | mpc_runtime::ModelViolation::RecvOverflow { round, .. }
                | mpc_runtime::ModelViolation::MemoryOverflow { round, .. },
            ) => Some(*round),
            _ => None,
        }
    }

    /// [`run`](Service::run) against a caller-owned cluster — the entry
    /// point for attaching trace sinks or fault plans, and for reading the
    /// round log afterwards. The cluster's capacity factor must be 1 on
    /// entry; it is 1 again on return (success or failure).
    ///
    /// # Failure isolation (DESIGN.md §2.9)
    ///
    /// A quarantinable engine error does not abort
    /// the run. The service attributes it to the *marginal tenant* — the
    /// most recently admitted running job (ties broken toward the higher
    /// id) — quarantines that job, refunds its capacity shares, restarts
    /// the wave, and requeues the survivors at the front of the queue in
    /// their original order. The quarantined job is resubmitted with
    /// linear backoff while its [`JobRetryPolicy`](crate::JobRetryPolicy)
    /// has attempts left, and otherwise completes as
    /// [`JobStatus::Failed`] with the typed error. Survivors' results are
    /// bit-identical to a run that never contained the culprit: every
    /// lane draws only from its job's private RNG streams, so a rebuilt
    /// lane replays exactly.
    ///
    /// # Errors
    ///
    /// A cluster without a large machine is refused with
    /// [`ExecError::Algorithm`] before round 0: the queue is left untouched
    /// and every job stays [`JobStatus::Queued`].
    ///
    /// Non-quarantinable engine failures (the round limit, hook errors)
    /// abort the whole run: jobs already admitted are marked
    /// [`JobStatus::Failed`] (their lanes died with the run); jobs still
    /// queued return to the service queue untouched.
    pub fn run_on(
        &mut self,
        cluster: &mut Cluster,
        mode: ExecMode,
    ) -> Result<ServiceRun, ExecError> {
        assert_eq!(
            cluster.capacity_factor(),
            1,
            "the service manages the capacity factor; start a run at 1"
        );
        let machines = cluster.machines();
        // Every registry algorithm reports on the large machine: without
        // one, nothing is admitted and every job stays queued.
        let large = registry::large_machine(cluster)?;
        let limit = if self.capacity_shares == 0 {
            usize::MAX
        } else {
            self.capacity_shares
        };
        let mut queue = std::mem::take(&mut self.queue);
        let mut running: Vec<RunningJob> = Vec::new();
        let mut records: Vec<JobRecord> = Vec::new();
        // Chained waves waiting for the next hook call.
        let mut links: Vec<Link> = Vec::new();

        let mut exec = Executor::new("svc", mode);
        if self.threads > 0 {
            exec = exec.threads(self.threads);
        }
        if self.max_rounds > 0 {
            exec = exec.max_rounds(self.max_rounds);
        }

        // Service rounds stay monotone across wave restarts: `base` is
        // added to every driver round for records, events, deadlines, and
        // backoff gates.
        let mut base: u64 = 0;
        let rounds = loop {
            let waves = MixedWave::for_cluster(cluster);
            // Lane ids are handed out afresh in every wave.
            let mut next_lane: u64 = 0;
            let last_hook = std::cell::Cell::new(0u64);
            let result = {
                let running = &mut running;
                let records = &mut records;
                let links = &mut links;
                let queue = &mut queue;
                let next_lane = &mut next_lane;
                let last_hook = &last_hook;
                let mut hook = |cluster: &mut Cluster,
                                view: &mut WaveRound<'_, MixedWave>|
                 -> Result<bool, ExecError> {
                    // The service-round clock (monotone across restarts).
                    let wave_round = view.round();
                    let round = base + wave_round;
                    last_hook.set(wave_round);

                    // 1. Retirement: a job's wave is done when every one
                    // of its lanes has voted to halt and no mail for its
                    // lanes is pending. The peek-only scan leaves the
                    // round clean; removal marks it dirty, forcing a
                    // checkpoint under fault plans.
                    let mut i = 0;
                    while i < running.len() {
                        let lanes = &running[i].lanes;
                        let done = (0..machines).all(|mid| {
                            view.peek(mid, |wave, inbox| {
                                wave.idle(lanes.start)
                                    && !inbox.iter().any(|(_, m)| lanes.contains(&m.lane()))
                            })
                        });
                        if !done {
                            i += 1;
                            continue;
                        }
                        let first = lanes.start;
                        let lanes = (0..machines)
                            .map(|mid| view.with(mid, |wave| wave.remove(first).expect(HAS_LANE)))
                            .collect();
                        retire(
                            cluster,
                            records,
                            links,
                            running.remove(i),
                            lanes,
                            large,
                            round,
                        );
                    }
                    // A chained wave re-enters at once, on its job's streams.
                    for link in links.drain(..) {
                        running.push(link.admit(view, wave_round, next_lane)?);
                    }

                    // 2. Deadlines: a job still running `round_deadline`
                    // rounds past admission is cancelled through the
                    // quarantine path — lanes pulled, in-flight mail
                    // purged, shares refunded so the queue behind it can
                    // admit this same round. Terminal: no retry.
                    let mut i = 0;
                    while i < running.len() {
                        let over = running[i]
                            .spec
                            .round_deadline
                            .is_some_and(|d| round - running[i].admitted_round >= d);
                        if !over {
                            i += 1;
                            continue;
                        }
                        let rj = running.remove(i);
                        let deadline = rj.spec.round_deadline.expect("checked above");
                        for mid in 0..machines {
                            view.with_mail(mid, |wave, inbox| {
                                wave.remove(rj.lanes.start);
                                inbox.retain(|(_, m)| !rj.lanes.contains(&m.lane()));
                            });
                        }
                        if let Some(sink) = cluster.trace_sink() {
                            sink.record(&TraceEvent::JobQuarantined {
                                round,
                                job: rj.id,
                                reason: "deadline".into(),
                            });
                        }
                        finish_job(
                            cluster,
                            records,
                            rj.id,
                            rj.spec.name.clone(),
                            rj.shares,
                            rj.admitted_round,
                            &rj.state,
                            round,
                            rj.attempt,
                            Err(ExecError::RoundLimit { limit: deadline }),
                            Some(JobStatus::DeadlineExceeded),
                        );
                    }

                    // 3. Admission: strict FIFO while shares fit, with
                    // lanes built at solo (factor-1) capacity — exactly
                    // the snapshots a solo run's constructors would take.
                    // A re-queued job under backoff gates the queue (FIFO
                    // order is part of the determinism contract).
                    if !queue.is_empty() {
                        cluster.set_capacity_factor(1);
                    }
                    while let Some(front) = queue.front() {
                        if round < front.earliest {
                            break;
                        }
                        // A zero-attempt policy fails fast without ever
                        // touching the wave: zero wire impact, so the
                        // surviving tenants' round log is bit-identical
                        // to a queue that never contained this job.
                        if front.spec.retry.max_attempts == 0 {
                            let qj = queue.pop_front().expect("front was just inspected");
                            let error = ExecError::Algorithm {
                                message: "retry policy allows zero admission attempts".into(),
                            };
                            finish_job(
                                cluster,
                                records,
                                qj.id,
                                qj.spec.name.clone(),
                                derived_shares(&qj.spec),
                                round,
                                &qj.state,
                                round,
                                0,
                                Err(error.clone()),
                                Some(JobStatus::Failed { error }),
                            );
                            continue;
                        }
                        let shares = derived_shares(&front.spec);
                        let held: usize = running.iter().map(|r| r.shares).sum();
                        if held + shares > limit && !(running.is_empty() && shares > limit) {
                            break;
                        }
                        let qj = queue.pop_front().expect("front was just inspected");
                        if let Some(sink) = cluster.trace_sink() {
                            sink.record(&TraceEvent::JobAdmitted {
                                round,
                                job: qj.id,
                                name: qj.spec.name.clone(),
                                shares,
                            });
                        }
                        // The builder's host-side draws advance the large
                        // machine's stream before its lane carries it on.
                        let mut rngs: Vec<SmallRng> = (0..machines)
                            .map(|mid| machine_rng(qj.spec.seed, mid))
                            .collect();
                        match registry::job_lanes(&qj.spec, cluster, &mut rngs[large]) {
                            Description::Immediate(outcome) => {
                                finish_job(
                                    cluster,
                                    records,
                                    qj.id,
                                    qj.spec.name.clone(),
                                    shares,
                                    round,
                                    &qj.state,
                                    round,
                                    qj.attempt,
                                    outcome,
                                    None,
                                );
                            }
                            Description::Wave {
                                instances, finish, ..
                            } => {
                                qj.state.lock().unwrap().status = JobStatus::Running;
                                let job = RunningJob {
                                    id: qj.id,
                                    lanes: 0..0,
                                    shares,
                                    admitted_round: round,
                                    state: qj.state,
                                    finish,
                                    spec: qj.spec,
                                    attempt: qj.attempt,
                                };
                                let link = Link {
                                    job,
                                    instances,
                                    rngs,
                                };
                                running.push(link.admit(view, wave_round, next_lane)?);
                            }
                        }
                    }

                    // 4. The live capacity factor tracks the running
                    // total, so strict enforcement scales with the
                    // tenants on the wire.
                    let held: usize = running.iter().map(|r| r.shares).sum();
                    cluster.set_capacity_factor(held.max(1));
                    Ok(!queue.is_empty())
                };
                exec.run_hooked(cluster, waves, &mut hook)
            };
            cluster.set_capacity_factor(1);

            let e = match result {
                Ok(outcome) => {
                    // Jobs that halted in the final round never saw
                    // another hook call; their lanes sit in the returned
                    // wave states. A chained wave among them restarts the
                    // run, its hook admitting the wave at round 0.
                    let round = base + outcome.rounds;
                    let mut waves = outcome.programs;
                    for job in std::mem::take(&mut running) {
                        let lanes = (waves.iter_mut())
                            .map(|wave| wave.remove(job.lanes.start).expect(HAS_LANE))
                            .collect();
                        retire(cluster, &mut records, &mut links, job, lanes, large, round);
                    }
                    if links.is_empty() {
                        break round;
                    }
                    base = round;
                    continue;
                }
                Err(e) => e,
            };
            if !Self::quarantinable(&e) || running.is_empty() {
                // Not attributable to one tenant: admitted lanes died
                // with the run; queued jobs survive in the service queue.
                for rj in running.drain(..) {
                    rj.state.lock().unwrap().status = JobStatus::Failed { error: e.clone() };
                }
                self.queue = queue;
                return Err(e);
            }

            // Blast-radius isolation: attribute the failure to the
            // marginal tenant — the most recently admitted job (it pushed
            // the wave over) — quarantine it, and restart the wave with
            // the survivors requeued at the front in their original
            // admission order.
            let round = base + Self::error_round(&e).unwrap_or_else(|| last_hook.get());
            let at = running
                .iter()
                .enumerate()
                .max_by_key(|(_, r)| (r.admitted_round, r.id))
                .map(|(i, _)| i)
                .expect("running is non-empty");
            let culprit = running.remove(at);
            if let Some(sink) = cluster.trace_sink() {
                sink.record(&TraceEvent::JobQuarantined {
                    round,
                    job: culprit.id,
                    reason: e.to_string(),
                });
            }

            let mut survivors: Vec<RunningJob> = std::mem::take(&mut running);
            survivors.sort_by_key(|r| (r.admitted_round, r.id));
            let survivor_count = survivors.len();
            for rj in survivors.into_iter().rev() {
                rj.state.lock().unwrap().status = JobStatus::Queued;
                queue.push_front(QueuedJob {
                    id: rj.id,
                    spec: rj.spec,
                    state: rj.state,
                    attempt: rj.attempt,
                    earliest: 0,
                });
            }

            if culprit.attempt < culprit.spec.retry.max_attempts {
                // Linear backoff: failure k (1-based) delays re-admission
                // by k * backoff_rounds service rounds.
                let attempt = culprit.attempt + 1;
                let earliest =
                    round + u64::from(culprit.attempt) * culprit.spec.retry.backoff_rounds;
                if let Some(sink) = cluster.trace_sink() {
                    sink.record(&TraceEvent::JobRetried {
                        round,
                        job: culprit.id,
                        attempt: u64::from(attempt),
                    });
                }
                culprit.state.lock().unwrap().status = JobStatus::Queued;
                // Directly behind the requeued survivors, ahead of
                // never-admitted jobs: the formerly-running cohort drains
                // before the queue's tail, in its original order.
                queue.insert(
                    survivor_count,
                    QueuedJob {
                        id: culprit.id,
                        spec: culprit.spec,
                        state: culprit.state,
                        attempt,
                        earliest,
                    },
                );
            } else {
                finish_job(
                    cluster,
                    &mut records,
                    culprit.id,
                    culprit.spec.name.clone(),
                    culprit.shares,
                    culprit.admitted_round,
                    &culprit.state,
                    round,
                    culprit.attempt,
                    Err(e.clone()),
                    Some(JobStatus::Failed { error: e.clone() }),
                );
            }

            // The crashed wave may have left machines quarantined in the
            // cost model with no recovery to lift it; the restarted wave
            // starts from a full roster. (No-op for healthy machines and
            // fault-free models.)
            for mid in 0..machines {
                cluster.restore_machine(mid);
            }
            base = round + 1;
        };

        records.sort_by_key(|r| r.job);
        Ok(ServiceRun { rounds, records })
    }
}
