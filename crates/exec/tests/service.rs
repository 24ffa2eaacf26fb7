//! The service contract (DESIGN.md §2.8): a mixed wave of *different*
//! registry programs completes in one engine run with every job's result
//! bit-identical to a solo run under the job's seed; a queue longer than
//! the share limit drains strictly FIFO via admission-on-retirement; the
//! whole schedule — results, admission rounds, round log, RNG stream
//! positions — is identical between serial and pooled execution at any
//! thread count; and a seeded mid-wave crash recovers every tenant.

use mpc_core::ported::mst_approx::geometric_thresholds;
use mpc_core::spanner::weight_class_shards;
use mpc_exec::{
    registry, ExecError, ExecMode, JobRecord, JobRetryPolicy, JobSpec, JobStatus, Service,
};
use mpc_graph::{generators, Edge, Graph};
use mpc_runtime::fault::{Fault, FaultPlan, RecoveryPolicy};
use mpc_runtime::{Cluster, ClusterConfig, CostModel, ShardedVec, Topology};
use rand::RngCore;
use std::sync::Arc;

/// One cluster shape for every run in this file: capacities (and so the
/// programs' batch sizes) must match between the service cluster and the
/// per-job solo clusters; only the seed may differ.
fn config(g: &Graph, seed: u64) -> ClusterConfig {
    ClusterConfig::new(g.n(), g.m().max(1))
        .seed(seed)
        .polylog_exponent(2.6)
}

/// Runs `spec` alone on a fresh cluster seeded with the job's seed — the
/// oracle the service must be bit-identical to.
fn solo_digest(g: &Graph, spec: &JobSpec, mode: ExecMode) -> u128 {
    let mut cluster = Cluster::new(config(g, spec.seed));
    registry::run_job(spec, &mut cluster, mode)
        .expect("solo run")
        .digest()
}

/// Draws one value from every machine's RNG — equal vectors mean equal
/// stream positions.
fn rng_positions(cluster: &mut Cluster) -> Vec<u64> {
    (0..cluster.machines())
        .map(|mid| cluster.rng(mid).next_u64())
        .collect()
}

/// The comparable core of a record (drops nothing — JobRecord has no
/// non-deterministic fields, this just gives us Eq).
type RecordKey = (u64, String, usize, u64, u64, u64, bool, u32);

fn record_key(r: &JobRecord) -> RecordKey {
    (
        r.job,
        r.name.clone(),
        r.shares,
        r.admitted_round,
        r.completed_round,
        r.rounds,
        r.failed,
        r.attempts,
    )
}

fn weighted_graph() -> Graph {
    generators::gnm(96, 360, 7).with_random_weights(1 << 10, 7)
}

/// spanner-weighted (a multi-share multiplexed lane), matching, and mincut
/// — three different programs — sharing one engine run.
fn mixed_specs(g: &Arc<Graph>) -> Vec<JobSpec> {
    vec![
        JobSpec::new("spanner-weighted", Arc::clone(g)).seed(21),
        JobSpec::new("matching", Arc::clone(g)).seed(22),
        JobSpec::new("mincut", Arc::clone(g)).seed(23),
    ]
}

// ------------------------------------------------------- mixed wave --

#[test]
fn mixed_wave_results_are_bit_identical_to_solo_runs() {
    let g = Arc::new(weighted_graph());
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let mut svc = Service::new(config(&g, 99));
        let handles: Vec<_> = mixed_specs(&g)
            .into_iter()
            .map(|spec| svc.submit(spec).expect("known name"))
            .collect();
        let run = svc.run(mode).expect("service run");

        // One engine run, all three programs admitted into it up front.
        assert_eq!(run.records.len(), 3);
        assert!(run.records.iter().all(|r| r.admitted_round == 0));
        assert!(run.records.iter().all(|r| !r.failed));

        for (handle, spec) in handles.iter().zip(mixed_specs(&g)) {
            assert_eq!(handle.status(), JobStatus::Completed);
            let out = handle
                .take_result()
                .expect("finished")
                .expect("no job error");
            assert_eq!(
                out.digest(),
                solo_digest(&g, &spec, mode),
                "job {} ({}) diverged from its solo run in {mode:?}",
                handle.id(),
                handle.name()
            );
        }
    }
}

#[test]
fn every_registry_algorithm_runs_as_a_service_job() {
    // All 12 registered names in one submission wave — multi-output apsp
    // included — each bit-identical to its solo twin.
    let g = Arc::new(weighted_graph());
    let mut svc = Service::new(config(&g, 5));
    let specs: Vec<JobSpec> = (registry::names().into_iter().enumerate())
        .map(|(i, name)| JobSpec::new(name, Arc::clone(&g)).seed(100 + i as u64))
        .collect();
    let handles: Vec<_> = specs
        .iter()
        .map(|s| svc.submit(s.clone()).expect("known name"))
        .collect();
    let run = svc.run(ExecMode::Parallel).expect("service run");
    assert_eq!(run.records.len(), registry::names().len());
    for (handle, spec) in handles.iter().zip(&specs) {
        let out = handle
            .take_result()
            .expect("finished")
            .expect("no job error");
        assert_eq!(
            out.digest(),
            solo_digest(&g, spec, ExecMode::Serial),
            "{} diverged from its solo run",
            spec.name
        );
    }
}

/// The multiplexed estimators run in a service lane as they run solo:
/// `mst-approx` with its sketch seeds drawn from the large machine's
/// stream, `mincut-approx` — on a forest, whose every guess fails — with
/// the `xcut-fb` gather chained onto the guess wave. Each matches its solo
/// digest within two rounds of its solo round count and holds one share
/// per instance — alone, where the chained wave restarts the finished
/// run, and beside a long `mincut` job, where it re-enters mid-run.
#[test]
fn multiplexed_estimators_run_their_solo_waves_as_service_jobs() {
    let g = Arc::new(generators::random_forest(40, 2, 2).with_random_weights(1 << 10, 2));
    let specs = [
        JobSpec::new("mst-approx", Arc::clone(&g)).seed(7),
        JobSpec::new("mincut-approx", Arc::clone(&g)).seed(8),
    ];
    let companion = JobSpec::new("mincut", Arc::clone(&g)).seed(9);
    for (mode, with_companion) in [
        (ExecMode::Serial, false),
        (ExecMode::Parallel, false),
        (ExecMode::Serial, true),
    ] {
        let mut svc = Service::new(config(&g, 3));
        let handles: Vec<_> = (specs.iter())
            .map(|spec| svc.submit(spec.clone()).expect("known name"))
            .collect();
        if with_companion {
            svc.submit(companion.clone()).expect("known name");
        }
        let run = svc.run(mode).expect("service run");
        if with_companion {
            // Still running when the fallback wave re-enters.
            assert!(run.records[2].completed_round > run.records[1].completed_round);
        }
        for ((handle, spec), record) in handles.iter().zip(&specs).zip(&run.records) {
            let mut solo_cluster = Cluster::new(config(&g, spec.seed));
            let solo = registry::run_job(spec, &mut solo_cluster, mode).expect("solo run");
            let instances = match &solo {
                mpc_exec::AlgoOutput::MstApprox(r) => r.thresholds.len(),
                mpc_exec::AlgoOutput::MinCutApprox(r) => {
                    assert_eq!(r.lambda_guess, 1, "the forest takes the fallback");
                    let log = solo_cluster.round_log();
                    assert!(log.iter().any(|r| r.label.render().starts_with("xcut-fb")));
                    // One λ̂ guess per bit of the total weight.
                    let total: u64 = g.edges().iter().map(|e| e.w).sum();
                    (u64::BITS - total.leading_zeros()) as usize
                }
                other => panic!("unexpected output {other:?}"),
            };
            let served = handle
                .take_result()
                .expect("finished")
                .expect("no job error");
            assert_eq!(served.digest(), solo.digest(), "{} {mode:?}", spec.name);
            assert!(
                record.rounds <= solo_cluster.rounds() + 2,
                "{} {mode:?}: {} service rounds against {} solo",
                spec.name,
                record.rounds,
                solo_cluster.rounds()
            );
            assert_eq!(record.shares, instances, "{}", spec.name);
        }
    }
}

// -------------------------------------------- admission under load --

#[test]
fn queued_jobs_drain_via_admission_on_retirement() {
    // Six single-share jobs on a three-share limit: exactly three admitted
    // at round 0, the rest strictly FIFO as retirement frees shares.
    let g = Arc::new(generators::gnm(72, 240, 3));
    let names = [
        "spanner",
        "mis",
        "coloring",
        "connectivity",
        "matching",
        "mincut",
    ];
    let mut svc = Service::new(config(&g, 17)).capacity_shares(3);
    for (i, name) in names.iter().enumerate() {
        svc.submit(JobSpec::new(*name, Arc::clone(&g)).seed(200 + i as u64))
            .expect("known name");
    }
    assert_eq!(svc.queued(), 6);
    let run = svc.run(ExecMode::Parallel).expect("service run");
    assert_eq!(svc.queued(), 0, "the run drains the queue");
    assert_eq!(run.records.len(), 6);
    assert!(run.records.iter().all(|r| !r.failed));

    let admitted: Vec<u64> = run.records.iter().map(|r| r.admitted_round).collect();
    assert_eq!(
        admitted.iter().filter(|&&r| r == 0).count(),
        3,
        "exactly the first three jobs fit at round 0: {admitted:?}"
    );
    // FIFO: admission rounds are non-decreasing in submission order, and
    // each latecomer enters no earlier than the first retirement.
    assert!(admitted.windows(2).all(|w| w[0] <= w[1]), "{admitted:?}");
    let first_retirement = run.records.iter().map(|r| r.completed_round).min().unwrap();
    for r in &run.records[3..] {
        assert!(
            r.admitted_round >= first_retirement,
            "job {} admitted at {} before any shares were freed (first \
             retirement at {first_retirement})",
            r.job,
            r.admitted_round
        );
    }
}

#[test]
fn oversized_job_is_admitted_alone_instead_of_deadlocking() {
    // spanner-weighted on this graph occupies one share per weight class —
    // more than the limit of 2 — so it must run alone, after the two
    // single-share jobs ahead of it retire.
    let g = Arc::new(weighted_graph());
    let classes = {
        let c = Cluster::new(config(&g, 0));
        let edges = mpc_core::common::distribute_edges(&c, &g);
        mpc_core::spanner::weight_class_shards(&edges).shards.len()
    };
    assert!(classes > 2, "graph must span more than 2 weight classes");

    let mut svc = Service::new(config(&g, 31)).capacity_shares(2);
    svc.submit(JobSpec::new("mis", Arc::clone(&g)).seed(1))
        .unwrap();
    svc.submit(JobSpec::new("coloring", Arc::clone(&g)).seed(2))
        .unwrap();
    let wide = svc
        .submit(JobSpec::new("spanner-weighted", Arc::clone(&g)).seed(3))
        .unwrap();
    let run = svc.run(ExecMode::Serial).expect("service run");
    assert_eq!(run.records.len(), 3);
    assert!(run.records.iter().all(|r| !r.failed));
    let wide_rec = run.records.iter().find(|r| r.job == wide.id()).unwrap();
    assert_eq!(wide_rec.shares, classes);
    assert!(
        wide_rec.admitted_round > 0,
        "the oversized job waits for the narrow jobs to finish"
    );
}

// ------------------------------------------------ mode independence --

/// Submits the 6-job over-subscribed workload and runs it on `cluster`.
fn contended_run(
    g: &Arc<Graph>,
    cluster: &mut Cluster,
    mode: ExecMode,
    threads: usize,
) -> (Vec<RecordKey>, Vec<u128>) {
    let names = [
        "spanner",
        "mis",
        "coloring",
        "connectivity",
        "matching",
        "mincut",
    ];
    let mut svc = Service::new(config(g, 17))
        .capacity_shares(3)
        .threads(threads);
    let handles: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            svc.submit(JobSpec::new(*name, Arc::clone(g)).seed(300 + i as u64))
                .expect("known name")
        })
        .collect();
    let run = svc.run_on(cluster, mode).expect("service run");
    let digests = handles
        .iter()
        .map(|h| {
            h.take_result()
                .expect("finished")
                .expect("no job error")
                .digest()
        })
        .collect();
    (run.records.iter().map(record_key).collect(), digests)
}

#[test]
fn serial_and_pool_schedules_are_bit_identical_at_any_thread_count() {
    let g = Arc::new(generators::gnm(72, 240, 3));
    let mut serial_cluster = Cluster::new(config(&g, 17));
    let (serial_records, serial_digests) =
        contended_run(&g, &mut serial_cluster, ExecMode::Serial, 0);
    let serial_log = serial_cluster.round_log().to_vec();
    let serial_rng = rng_positions(&mut serial_cluster);

    for threads in [1usize, 3, 16] {
        let mut cluster = Cluster::new(config(&g, 17));
        let (records, digests) = contended_run(&g, &mut cluster, ExecMode::Parallel, threads);
        assert_eq!(
            records, serial_records,
            "admission schedule diverged at {threads} threads"
        );
        assert_eq!(
            digests, serial_digests,
            "job results diverged at {threads} threads"
        );
        assert_eq!(
            cluster.round_log(),
            &serial_log[..],
            "round log diverged at {threads} threads"
        );
        assert_eq!(
            rng_positions(&mut cluster),
            serial_rng,
            "RNG stream positions diverged at {threads} threads"
        );
    }
}

// --------------------------------------------------------- chaos leg --

#[test]
fn seeded_crash_mid_wave_recovers_every_job() {
    let g = Arc::new(weighted_graph());

    let run_with = |plan: Option<FaultPlan>, mode: ExecMode| {
        let mut cluster = Cluster::new(config(&g, 99));
        cluster.set_fault_plan(plan);
        let mut svc = Service::new(config(&g, 99));
        let handles: Vec<_> = mixed_specs(&g)
            .into_iter()
            .map(|spec| svc.submit(spec).expect("known name"))
            .collect();
        svc.run_on(&mut cluster, mode).expect("run");
        let digests: Vec<u128> = handles
            .iter()
            .map(|h| {
                h.take_result()
                    .expect("finished")
                    .expect("no job error")
                    .digest()
            })
            .collect();
        (digests, cluster)
    };

    let (clean_digests, clean_cluster) = run_with(None, ExecMode::Serial);
    let clean_rounds = clean_cluster.rounds();
    let plan = FaultPlan::seeded_single_crash(99, &clean_cluster.small_ids(), clean_rounds);
    let (serial_digests, serial_cluster) = run_with(Some(plan.clone()), ExecMode::Serial);
    let (digests, faulted_cluster) = run_with(Some(plan), ExecMode::Parallel);
    assert_eq!(
        digests, clean_digests,
        "a mid-wave crash changed some tenant's result"
    );
    assert_eq!(
        serial_digests, digests,
        "serial and pooled recovery diverged"
    );
    assert_eq!(serial_cluster.round_log(), faulted_cluster.round_log());
    assert!(
        faulted_cluster.rounds() > clean_rounds,
        "recovery must add checkpoint/replay exchanges"
    );
}

/// The six-tenant queue: `spanner-weighted` holds one share per weight
/// class, so on three shares half the queue waits for
/// admission-on-retirement.
const SIX_TENANTS: [&str; 6] = [
    "spanner-weighted",
    "matching",
    "mincut",
    "mis",
    "coloring",
    "connectivity",
];

/// One job's final status and, when it completed, its digest.
type Outcome = (JobStatus, Option<u128>);

/// Drains [`SIX_TENANTS`] on three shares, each job with the default
/// retry policy, on a cluster with `cost`'s model and `plan` attached.
/// Returns the records, the cluster's round count and the outcomes.
fn drain_six(
    g: &Arc<Graph>,
    cost: &dyn Fn(&Cluster) -> CostModel,
    plan: Option<FaultPlan>,
    mode: ExecMode,
) -> (Vec<RecordKey>, u64, Vec<Outcome>) {
    let mut cluster = Cluster::new(config(g, 41));
    cluster.set_cost_model(cost(&cluster));
    cluster.set_fault_plan(plan);
    let mut svc = Service::new(config(g, 41)).capacity_shares(3);
    let handles: Vec<_> = (SIX_TENANTS.iter().zip(600..))
        .map(|(name, seed)| {
            let spec = JobSpec::new(*name, Arc::clone(g)).seed(seed);
            svc.submit(spec).expect("known name")
        })
        .collect();
    let run = svc.run_on(&mut cluster, mode).expect("service run");
    let outcome = |h: &mpc_exec::JobHandle| {
        let result = h.take_result().expect("finished");
        (h.status(), result.ok().map(|out| out.digest()))
    };
    let records = run.records.iter().map(record_key).collect();
    (
        records,
        cluster.rounds(),
        handles.iter().map(outcome).collect(),
    )
}

fn uniform_cost(c: &Cluster) -> CostModel {
    CostModel::uniform(c.machines(), 1.0, 1.0, 0.5)
}

/// The cost model prices rounds and never steers them: under uniform,
/// capacity-proportional and straggler models the drain admits and
/// completes every job in the same rounds with the same results, serially
/// and pooled.
#[test]
fn service_schedule_is_independent_of_the_cost_profile() {
    let g = Arc::new(weighted_graph());
    let caps = |c: &Cluster| (0..c.machines()).map(|m| c.capacity(m)).collect::<Vec<_>>();
    let proportional = |c: &Cluster| CostModel::proportional_to_capacity(&caps(c), 1.0);
    let straggler = |c: &Cluster| uniform_cost(c).with_straggler(c.small_ids()[0], 0.1);
    let reference = drain_six(&g, &uniform_cost, None, ExecMode::Serial);
    assert!(
        (reference.2.iter()).all(|o| o.0 == JobStatus::Completed),
        "{:?}",
        reference.2
    );
    let profiles: [(&str, &dyn Fn(&Cluster) -> CostModel); 3] = [
        ("uniform", &uniform_cost),
        ("proportional", &proportional),
        ("straggler", &straggler),
    ];
    for (profile, cost) in profiles {
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            assert_eq!(
                drain_six(&g, cost, None, mode),
                reference,
                "the {profile} profile moved the drain under {mode:?}"
            );
        }
    }
}

/// A small-machine crash with no peer replicas is job-fatal: the service
/// quarantines one tenant, which fails on the default one-attempt retry
/// policy, and replays the rest, which complete bit-identical to the
/// fault-free drain — in the same schedule serially and pooled.
#[test]
fn a_job_fatal_crash_loses_one_tenant_and_spares_the_rest() {
    let g = Arc::new(weighted_graph());
    let (_, clean_rounds, clean) = drain_six(&g, &uniform_cost, None, ExecMode::Serial);
    let victim = Cluster::new(config(&g, 41)).small_ids()[0];
    let plan = FaultPlan::new()
        .with_policy(RecoveryPolicy {
            replicas: 0,
            ..RecoveryPolicy::default()
        })
        .with_fault(Fault::Crash {
            machine: victim,
            round: clean_rounds / 2,
        });
    let serial = drain_six(&g, &uniform_cost, Some(plan.clone()), ExecMode::Serial);
    let pool = drain_six(&g, &uniform_cost, Some(plan), ExecMode::Parallel);
    assert_eq!(pool, serial, "the faulted drain diverged between modes");
    let (_, rounds, outcomes) = serial;
    let lost: Vec<&str> = (outcomes.iter().zip(SIX_TENANTS))
        .filter(|(o, _)| o.0 != JobStatus::Completed)
        .map(|(_, name)| name)
        .collect();
    assert_eq!(lost.len(), 1, "exactly one tenant is lost: {lost:?}");
    for ((o, c), name) in outcomes.iter().zip(&clean).zip(SIX_TENANTS) {
        match &o.0 {
            JobStatus::Completed => assert_eq!(o.1, c.1, "survivor {name} diverged"),
            status => assert!(matches!(status, JobStatus::Failed { .. }), "{status:?}"),
        }
    }
    assert!(rounds > clean_rounds, "recovery must add rounds");
}

// ----------------------------------------------- fault isolation --

/// The six-tenant acceptance wave: one job forced past retry exhaustion
/// with `max_attempts: 0` must leave the other five tenants' digests,
/// round log, and RNG stream positions bit-identical to a five-tenant
/// wave that never contained it — fail-fast has zero wire impact.
#[test]
fn failed_tenant_leaves_survivors_bit_identical_to_a_wave_without_it() {
    let g = Arc::new(weighted_graph());
    let names = SIX_TENANTS;
    let victim = "mincut";

    let run_wave = |with_victim: bool| {
        let mut cluster = Cluster::new(config(&g, 41));
        let mut svc = Service::new(config(&g, 41)).capacity_shares(3);
        let mut handles = Vec::new();
        for (i, name) in names.iter().enumerate() {
            if !with_victim && *name == victim {
                continue;
            }
            let mut spec = JobSpec::new(*name, Arc::clone(&g)).seed(500 + i as u64);
            if *name == victim {
                spec = spec.retry(JobRetryPolicy {
                    max_attempts: 0,
                    backoff_rounds: 0,
                });
            }
            handles.push(svc.submit(spec).expect("known name"));
        }
        let run = svc.run_on(&mut cluster, ExecMode::Parallel).expect("run");
        (run, handles, cluster)
    };

    let (six, six_handles, mut six_cluster) = run_wave(true);
    let (five, five_handles, mut five_cluster) = run_wave(false);

    // The victim failed fast with the typed error, consuming 0 attempts.
    let vh = six_handles.iter().find(|h| h.name() == victim).unwrap();
    assert_eq!(
        vh.status(),
        JobStatus::Failed {
            error: ExecError::Algorithm {
                message: "retry policy allows zero admission attempts".into()
            }
        }
    );
    let vrec = six.records.iter().find(|r| r.name == victim).unwrap();
    assert!(vrec.failed);
    assert_eq!(vrec.attempts, 0);
    assert_eq!(vrec.rounds, 0, "a zero-budget job never holds shares");

    // Survivors: identical schedules (ids shift, everything else equal)...
    let survivors = |run: &mpc_exec::ServiceRun| {
        run.records
            .iter()
            .filter(|r| r.name != victim)
            .map(|r| {
                (
                    r.name.clone(),
                    r.shares,
                    r.admitted_round,
                    r.completed_round,
                    r.rounds,
                    r.failed,
                    r.attempts,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(survivors(&six), survivors(&five));
    assert_eq!(six.rounds, five.rounds);

    // ...identical results...
    let digest_of = |handles: &[mpc_exec::JobHandle], name: &str| {
        handles
            .iter()
            .find(|h| h.name() == name)
            .unwrap()
            .take_result()
            .expect("finished")
            .expect("no job error")
            .digest()
    };
    for name in names.iter().filter(|n| **n != victim) {
        assert_eq!(
            digest_of(&six_handles, name),
            digest_of(&five_handles, name),
            "{name} diverged from the five-tenant wave"
        );
    }

    // ...and an identical wire history: round log and RNG positions.
    assert_eq!(six_cluster.round_log(), five_cluster.round_log());
    assert_eq!(
        rng_positions(&mut six_cluster),
        rng_positions(&mut five_cluster)
    );
}

/// `max_attempts: 0` fails fast at the queue front without blocking the
/// job behind it: the successor admits the same round.
#[test]
fn zero_attempt_policy_fails_fast_and_frees_the_queue() {
    let g = Arc::new(generators::gnm(72, 240, 3));
    let mut svc = Service::new(config(&g, 7)).capacity_shares(1);
    let dead = svc
        .submit(
            JobSpec::new("mis", Arc::clone(&g))
                .seed(1)
                .retry(JobRetryPolicy {
                    max_attempts: 0,
                    backoff_rounds: 0,
                }),
        )
        .unwrap();
    let live = svc
        .submit(JobSpec::new("coloring", Arc::clone(&g)).seed(2))
        .unwrap();
    let run = svc.run(ExecMode::Serial).expect("run");
    assert!(matches!(dead.status(), JobStatus::Failed { .. }));
    assert_eq!(live.status(), JobStatus::Completed);
    let dead_rec = run.records.iter().find(|r| r.job == dead.id()).unwrap();
    let live_rec = run.records.iter().find(|r| r.job == live.id()).unwrap();
    assert_eq!(dead_rec.attempts, 0);
    assert_eq!(
        live_rec.admitted_round, dead_rec.completed_round,
        "the successor admits in the round the zero-budget job failed"
    );
}

/// Two deadline-bounded jobs expiring in the same round are both pulled
/// in that round, and an innocent tenant sharing the wave still completes
/// bit-identically to its solo run.
#[test]
fn two_jobs_failing_in_the_same_round_spare_the_survivor() {
    let g = Arc::new(weighted_graph());
    let mut svc = Service::new(config(&g, 53));
    let doomed_a = svc
        .submit(
            JobSpec::new("mincut", Arc::clone(&g))
                .seed(61)
                .round_deadline(2),
        )
        .unwrap();
    let doomed_b = svc
        .submit(
            JobSpec::new("matching", Arc::clone(&g))
                .seed(62)
                .round_deadline(2),
        )
        .unwrap();
    let spec = JobSpec::new("mis", Arc::clone(&g)).seed(63);
    let lucky = svc.submit(spec.clone()).unwrap();

    let run = svc.run(ExecMode::Parallel).expect("run");
    assert_eq!(doomed_a.status(), JobStatus::DeadlineExceeded);
    assert_eq!(doomed_b.status(), JobStatus::DeadlineExceeded);
    let rec_a = run.records.iter().find(|r| r.job == doomed_a.id()).unwrap();
    let rec_b = run.records.iter().find(|r| r.job == doomed_b.id()).unwrap();
    assert!(rec_a.failed && rec_b.failed);
    assert_eq!(rec_a.completed_round, rec_b.completed_round);
    assert_eq!(rec_a.rounds, 2, "pulled exactly at the deadline");
    // The stored error is the typed per-job round limit.
    assert_eq!(
        doomed_a.take_result().unwrap().unwrap_err(),
        ExecError::RoundLimit { limit: 2 }
    );
    assert_eq!(
        lucky.take_result().unwrap().unwrap().digest(),
        solo_digest(&g, &spec, ExecMode::Serial),
        "the surviving tenant diverged from its solo run"
    );
}

/// An oversized (runs-alone) job cancelled by its deadline refunds its
/// shares in the cancellation round: the queued job behind it admits the
/// same round.
#[test]
fn oversized_job_failure_refunds_shares_and_admits_the_next_job() {
    let g = Arc::new(weighted_graph());
    let classes = {
        let c = Cluster::new(config(&g, 0));
        let edges = mpc_core::common::distribute_edges(&c, &g);
        mpc_core::spanner::weight_class_shards(&edges).shards.len()
    };
    assert!(classes > 2, "graph must span more than 2 weight classes");

    let mut svc = Service::new(config(&g, 67)).capacity_shares(2);
    let wide = svc
        .submit(
            JobSpec::new("spanner-weighted", Arc::clone(&g))
                .seed(71)
                .round_deadline(2),
        )
        .unwrap();
    let next = svc
        .submit(JobSpec::new("mis", Arc::clone(&g)).seed(72))
        .unwrap();

    let run = svc.run(ExecMode::Serial).expect("run");
    assert_eq!(wide.status(), JobStatus::DeadlineExceeded);
    assert_eq!(next.status(), JobStatus::Completed);
    let wide_rec = run.records.iter().find(|r| r.job == wide.id()).unwrap();
    let next_rec = run.records.iter().find(|r| r.job == next.id()).unwrap();
    assert_eq!(wide_rec.shares, classes, "the wide job held every share");
    assert_eq!(
        next_rec.admitted_round, wide_rec.completed_round,
        "the refunded shares admit the queued job in the cancellation round"
    );
}

/// Retry exhaustion through the quarantine path proper: with no replica
/// peers a small-machine crash is job-fatal (`Unrecoverable`), the
/// marginal tenant is quarantined and resubmitted, and — the crash fault
/// having fired — the retry completes with the clean run's digest. A
/// *second* crash, of the large machine, lands during the retry wave and
/// is recovered transparently from the durable-host checkpoint
/// (DESIGN.md §2.9): it costs replay rounds, not an attempt.
#[test]
fn crash_during_job_retry_recovers_through_the_durable_host() {
    use mpc_runtime::fault::{Fault, FaultPlan, RecoveryPolicy};

    let g = Arc::new(weighted_graph());
    let spec = || {
        JobSpec::new("mincut", Arc::clone(&g))
            .seed(81)
            .retry(JobRetryPolicy {
                max_attempts: 2,
                backoff_rounds: 1,
            })
    };

    // Clean oracle.
    let clean_digest = {
        let mut cluster = Cluster::new(config(&g, 83));
        let mut svc = Service::new(config(&g, 83));
        let h = svc.submit(spec()).unwrap();
        svc.run_on(&mut cluster, ExecMode::Parallel).expect("run");
        h.take_result().unwrap().unwrap().digest()
    };

    let mut cluster = Cluster::new(config(&g, 83));
    let small = cluster.small_ids()[0];
    let large = cluster
        .large()
        .expect("service cluster has a large machine");
    let plan = FaultPlan::new()
        .with_policy(RecoveryPolicy {
            replicas: 0, // no peers: a small-machine crash is job-fatal
            ..RecoveryPolicy::default()
        })
        .with_fault(Fault::Crash {
            machine: small,
            round: 2,
        })
        .with_fault(Fault::Crash {
            machine: large,
            round: 6, // mid-retry: the resubmitted job is back on the wire
        });
    cluster.set_fault_plan(Some(plan));

    let mut svc = Service::new(config(&g, 83));
    let h = svc.submit(spec()).unwrap();
    let run = svc.run_on(&mut cluster, ExecMode::Parallel).expect("run");

    assert_eq!(h.status(), JobStatus::Completed);
    assert_eq!(
        h.take_result().unwrap().unwrap().digest(),
        clean_digest,
        "the retried job diverged from the clean run"
    );
    let rec = &run.records[0];
    assert_eq!(
        rec.attempts, 2,
        "the small-machine crash consumed one attempt; the large-machine \
         crash must not have consumed another"
    );
}

/// A seeded mid-wave crash of the **large machine** (the coordinator)
/// recovers every tenant bit-identically, serial and pooled at thread
/// counts {1, 3, 16} — the durable-host checkpoint works inside mixed
/// waves too.
#[test]
fn large_machine_crash_mid_wave_recovers_at_any_thread_count() {
    use mpc_runtime::fault::{Fault, FaultPlan};

    let g = Arc::new(weighted_graph());
    let run_with = |plan: Option<FaultPlan>, mode: ExecMode, threads: usize| {
        let mut cluster = Cluster::new(config(&g, 99));
        cluster.set_fault_plan(plan);
        let mut svc = Service::new(config(&g, 99)).threads(threads);
        let handles: Vec<_> = mixed_specs(&g)
            .into_iter()
            .map(|spec| svc.submit(spec).expect("known name"))
            .collect();
        svc.run_on(&mut cluster, mode).expect("run");
        let digests: Vec<u128> = handles
            .iter()
            .map(|h| h.take_result().unwrap().unwrap().digest())
            .collect();
        (digests, cluster)
    };

    let (clean_digests, clean_cluster) = run_with(None, ExecMode::Serial, 0);
    let large = clean_cluster.large().expect("large machine");
    let mid = (clean_cluster.rounds() / 2).max(1);
    let plan = || {
        Some(FaultPlan::new().with_fault(Fault::Crash {
            machine: large,
            round: mid,
        }))
    };

    let (serial_digests, serial_cluster) = run_with(plan(), ExecMode::Serial, 0);
    assert_eq!(
        serial_digests, clean_digests,
        "a coordinator crash changed some tenant's result"
    );
    assert!(
        serial_cluster.rounds() > clean_cluster.rounds(),
        "recovery must add checkpoint/replay exchanges"
    );
    for threads in [1usize, 3, 16] {
        let (digests, cluster) = run_with(plan(), ExecMode::Parallel, threads);
        assert_eq!(
            digests, clean_digests,
            "coordinator-crash recovery diverged at {threads} threads"
        );
        assert_eq!(
            cluster.round_log(),
            serial_cluster.round_log(),
            "faulted round log diverged at {threads} threads"
        );
    }
}

// ---------------------------------------------------------- edges --

#[test]
fn unknown_names_are_rejected_at_submit() {
    let g = Arc::new(generators::gnm(16, 30, 1));
    let mut svc = Service::new(config(&g, 1));
    assert!(svc.submit(JobSpec::new("simplex", g)).is_err());
    assert_eq!(svc.queued(), 0);
}

/// A parameter a description cannot run with is turned away at submit,
/// with nothing enqueued, instead of panicking the whole drain at
/// admission; the innocent jobs around it drain `Completed`, and the same
/// spec run solo returns the error too.
#[test]
fn invalid_parameters_are_rejected_at_submit_and_solo() {
    let g = Arc::new(weighted_graph());
    let bad = [
        JobSpec::new("spanner", Arc::clone(&g)).spanner_k(1),
        JobSpec::new("spanner-weighted", Arc::clone(&g)).spanner_k(0),
        JobSpec::new("mst-approx", Arc::clone(&g)).epsilon(0.0),
        JobSpec::new("mst-approx", Arc::clone(&g)).epsilon(f64::NAN),
        JobSpec::new("mst-approx", Arc::clone(&g)).epsilon(f64::INFINITY),
        JobSpec::new("mincut-approx", Arc::clone(&g)).epsilon(1.5),
        JobSpec::new("mincut-approx", Arc::clone(&g)).epsilon(0.0),
    ];
    let mut svc = Service::new(config(&g, 3));
    let before = svc
        .submit(JobSpec::new("mis", Arc::clone(&g)).seed(1))
        .unwrap();
    for spec in &bad {
        let rejected = svc.submit(spec.clone());
        assert!(
            matches!(rejected, Err(ExecError::Algorithm { .. })),
            "{} {:?} was accepted",
            spec.name,
            spec.params
        );
        let solo = registry::run_job(spec, &mut Cluster::new(config(&g, 3)), ExecMode::Serial);
        assert!(
            matches!(solo, Err(ExecError::Algorithm { .. })),
            "{}",
            spec.name
        );
    }
    assert_eq!(svc.queued(), 1, "a rejected spec was enqueued");
    let after = svc
        .submit(JobSpec::new("mst-approx", Arc::clone(&g)).seed(2))
        .unwrap();
    let run = svc.run(ExecMode::Serial).expect("service run");
    assert_eq!(run.records.len(), 2);
    assert_eq!(before.status(), JobStatus::Completed);
    assert_eq!(after.status(), JobStatus::Completed);
}

/// Every registry program reports on the large machine, so a cluster
/// without one is refused with a typed error instead of a panic (or, under
/// the pool, a hang): solo before anything is sharded or run, and by the
/// service before round 0, with the queue untouched and every job queued.
#[test]
fn clusters_without_a_large_machine_are_refused_up_front() {
    let g = Arc::new(weighted_graph());
    let no_large = config(&g, 4).topology(Topology::Custom {
        capacities: vec![1 << 20; 4],
        large: None,
    });
    let refused = |result: Result<_, ExecError>, what: &str| match result {
        Err(ExecError::Algorithm { message }) => {
            assert!(message.contains("large machine"), "{what}: {message}")
        }
        Err(other) => panic!("{what}: expected ExecError::Algorithm, got {other}"),
        Ok(_) => panic!("{what}: ran without a large machine"),
    };
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let mut cluster = Cluster::new(no_large.clone());
        let spec = JobSpec::new("mst", Arc::clone(&g));
        refused(
            registry::run_job(&spec, &mut cluster, mode).map(|_| ()),
            &format!("solo {mode:?}"),
        );
        assert_eq!(cluster.rounds(), 0, "{mode:?}: the solo run exchanged");
    }
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let mut svc = Service::new(no_large.clone());
        let jobs: Vec<_> = ["mis", "connectivity"]
            .into_iter()
            .map(|name| svc.submit(JobSpec::new(name, Arc::clone(&g))).unwrap())
            .collect();
        let mut cluster = Cluster::new(no_large.clone());
        refused(
            svc.run_on(&mut cluster, mode).map(|_| ()),
            &format!("service {mode:?}"),
        );
        assert_eq!(cluster.rounds(), 0, "{mode:?}: the service exchanged");
        assert_eq!(svc.queued(), jobs.len(), "{mode:?}: the queue changed");
        for job in &jobs {
            assert_eq!(job.status(), JobStatus::Queued, "{mode:?}");
        }
    }
}

/// A fault plan naming a machine the cluster does not have is refused
/// like a cluster without a large machine: before round 0, with the queue
/// untouched, every job queued and no tenant quarantined.
#[test]
fn a_plan_naming_an_unknown_machine_is_refused_before_any_admission() {
    use mpc_runtime::fault::Fault;

    let g = Arc::new(weighted_graph());
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let mut svc = Service::new(config(&g, 6));
        let jobs: Vec<_> = ["mis", "connectivity"]
            .into_iter()
            .map(|name| svc.submit(JobSpec::new(name, Arc::clone(&g))).unwrap())
            .collect();
        let mut cluster = Cluster::new(config(&g, 6));
        let machines = cluster.machines();
        cluster.set_fault_plan(Some(FaultPlan::new().with_fault(Fault::Crash {
            machine: machines,
            round: 2,
        })));
        match svc.run_on(&mut cluster, mode) {
            Err(ExecError::Algorithm { message }) => assert!(
                message.contains(&format!("machine {machines}")),
                "{mode:?}: {message}"
            ),
            other => panic!("{mode:?}: expected ExecError::Algorithm, got {other:?}"),
        }
        assert_eq!(cluster.rounds(), 0, "{mode:?}: the service exchanged");
        assert_eq!(svc.queued(), jobs.len(), "{mode:?}: the queue changed");
        for job in &jobs {
            assert_eq!(job.status(), JobStatus::Queued, "{mode:?}");
        }
        // With the plan gone, the same queue drains.
        cluster.set_fault_plan(None);
        let run = svc.run_on(&mut cluster, mode).expect("service run");
        assert_eq!(run.records.len(), jobs.len(), "{mode:?}");
        assert!(run.records.iter().all(|r| !r.failed && r.attempts == 1));
    }
}

#[test]
fn empty_weighted_spanner_completes_without_entering_the_wave() {
    let g = Arc::new(Graph::new(8, Vec::new()));
    let mut svc = Service::new(config(&g, 2));
    let lone = svc
        .submit(JobSpec::new("spanner-weighted", Arc::clone(&g)).seed(4))
        .unwrap();
    let busy = svc
        .submit(JobSpec::new("connectivity", Arc::clone(&g)).seed(5))
        .unwrap();
    let run = svc.run(ExecMode::Serial).expect("service run");
    assert_eq!(run.records.len(), 2);
    let rec = run.records.iter().find(|r| r.job == lone.id()).unwrap();
    assert_eq!(rec.rounds, 0, "degenerate job completes at admission");
    let out = lone.take_result().unwrap().unwrap();
    assert_eq!(out.into_spanner().unwrap().spanner.m(), 0);
    assert!(busy.take_result().unwrap().is_ok());
}

// --------------------------------------------------- share derivation --

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// The shares admission reserves are the instances a job's lanes
    /// multiplex — one per non-empty weight class for `spanner-weighted` /
    /// `apsp` (unit weights: `apsp` runs one plain spanner), one per
    /// threshold for `mst-approx`, one per λ̂ guess (one per bit of the
    /// total weight) for `mincut-approx` — for zero weights and weights up
    /// to `u64::MAX` alike. Read off the record of a job a zero-attempt
    /// policy fails at the queue front: its shares are derived exactly as
    /// for an admission, and nothing is built or run.
    #[test]
    fn derived_shares_count_the_weight_class_instances(
        edges in proptest::collection::vec(
            (0u32..24, 0u32..24, 0u32..66, proptest::prelude::any::<u64>()),
            0..40,
        ),
        name in 0usize..4,
    ) {
        let weight = |shift: u32, low: u64| match shift {
            64 => 0,
            65 => 1,
            _ => (1u64 << shift) | (low & ((1u64 << shift) - 1)),
        };
        let g = Arc::new(Graph::new(
            24,
            edges.iter().map(|&(u, v, shift, low)| Edge::new(u, v, weight(shift, low))),
        ));
        let classes = weight_class_shards(&ShardedVec::from_shards(vec![g.edges().to_vec()]));
        let w_max = g.edges().iter().map(|e| e.w).max().unwrap_or(1).max(1);
        let total = g.edges().iter().fold(0u64, |sum, e| sum.saturating_add(e.w));
        let name = ["spanner-weighted", "apsp", "mst-approx", "mincut-approx"][name];
        let instances = match name {
            "mst-approx" => geometric_thresholds(w_max, 0.3).len(),
            "mincut-approx" => (u64::BITS - total.max(1).leading_zeros()) as usize,
            _ => classes.shards.len().max(1),
        };

        let mut svc = Service::new(config(&g, 1));
        let spec = JobSpec::new(name, Arc::clone(&g));
        svc.submit(spec.retry(JobRetryPolicy { max_attempts: 0, backoff_rounds: 0 }))
            .expect("known name");
        let run = svc.run(ExecMode::Serial).expect("service run");
        proptest::prop_assert_eq!(run.records[0].shares, instances);
    }
}

// ------------------------------------------------- generated queues --

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// A generated queue — 2–8 registry names in any mix, each with its own
    /// seed and share count (0 = derived), on a share limit of 1–3 —
    /// drains with every job completed and bit-identical to its solo run,
    /// and the drain's records, rounds and round log are the same serially
    /// and pooled at 1 and 3 threads.
    #[test]
    fn generated_queues_drain_to_solo_digests_in_every_mode(
        (n, density, graph_seed) in (32usize..65, 1usize..4, proptest::prelude::any::<u64>()),
        jobs in proptest::collection::vec(
            (0usize..12, proptest::prelude::any::<u64>(), 0usize..4),
            2..9,
        ),
        limit in 1usize..4,
    ) {
        let g = Arc::new(
            generators::gnm(n, density * n, graph_seed).with_random_weights(1 << 10, graph_seed),
        );
        // A job that multiplexes instances keeps its derived shares: fewer
        // would under-reserve, which strict enforcement rightly fails.
        let names = registry::names();
        let specs: Vec<JobSpec> = (jobs.iter())
            .map(|&(name, seed, shares)| {
                let name = names[name];
                let multiplexed = registry::BATCHED_NAMES.contains(&name) || name == "apsp";
                let shares = if multiplexed { 0 } else { shares };
                JobSpec::new(name, Arc::clone(&g)).seed(seed).shares(shares)
            })
            .collect();
        let solo: Vec<u128> = (specs.iter())
            .map(|spec| solo_digest(&g, spec, ExecMode::Serial))
            .collect();

        let mut runs = Vec::new();
        for (mode, threads) in [
            (ExecMode::Serial, 0),
            (ExecMode::Parallel, 1),
            (ExecMode::Parallel, 3),
        ] {
            let mut cluster = Cluster::new(config(&g, 13));
            let mut svc = Service::new(config(&g, 13))
                .capacity_shares(limit)
                .threads(threads);
            let handles: Vec<_> = (specs.iter())
                .map(|spec| svc.submit(spec.clone()).expect("known name"))
                .collect();
            let run = svc.run_on(&mut cluster, mode).expect("service run");
            for ((handle, spec), &solo) in handles.iter().zip(&specs).zip(&solo) {
                proptest::prop_assert_eq!(handle.status(), JobStatus::Completed, "{}", spec.name);
                let served = handle.take_result().expect("finished").expect("no job error");
                proptest::prop_assert_eq!(
                    served.digest(),
                    solo,
                    "{} (seed {}, shares {}) diverged from its solo run in {:?} at {} threads",
                    spec.name,
                    spec.seed,
                    spec.shares,
                    mode,
                    threads
                );
            }
            let records: Vec<_> = run.records.iter().map(record_key).collect();
            runs.push((records, run.rounds, cluster.round_log().to_vec()));
        }
        for other in &runs[1..] {
            proptest::prop_assert!(*other == runs[0], "the drain diverged across modes");
        }
    }
}
