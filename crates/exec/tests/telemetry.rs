//! The telemetry contract, end to end through the engine:
//!
//! * attaching a recording sink never perturbs execution — serial and
//!   pooled runs (worker counts 1/3/16) stay bit-identical (results,
//!   round logs, RNG positions) *with telemetry on*;
//! * the event stream reconciles **exactly** with the cluster's round
//!   log — same totals, same makespans, nothing invented or dropped;
//! * the Perfetto exporter emits valid JSON for the hardest case: a
//!   batched multiplex run under the pool with a retired instance;
//! * wave events carry the driver round, so a job admitted late in a
//!   service drain reports its rounds inside its own admission window.

use mpc_core::common;
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_exec::{registry, ConnectivityProgram, ExecMode, Executor, JobSpec, Service};
use mpc_graph::generators;
use mpc_runtime::telemetry::{parse_json, perfetto_export};
use mpc_runtime::{Cluster, ClusterConfig, Enforcement, FaultPlan, RingSink, Topology, TraceEvent};
use rand::RngCore;
use std::sync::Arc;

fn rng_positions(cluster: &mut Cluster) -> Vec<u64> {
    (0..cluster.machines())
        .map(|mid| cluster.rng(mid).next_u64())
        .collect()
}

// ------------------------------------ recording does not perturb --

/// Serial vs pool at worker counts {1, 3, 16}, all with a live recording
/// sink: results, round logs, and RNG stream positions must match, and
/// every schedule must record the same round frames, one per round, and
/// the same other machine-level events (worker events differ by schedule,
/// so they are compared after filtering).
#[test]
fn recording_sink_keeps_serial_and_pool_bit_identical() {
    let seed = 42;
    let g = generators::gnm(96, 260, seed);
    let run = |mode: ExecMode, threads: usize| {
        let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
        let ring = Arc::new(RingSink::unbounded());
        cluster.set_trace_sink(Some(ring.clone()));
        let edges = common::distribute_edges(&cluster, &g);
        let programs = ConnectivityProgram::for_cluster(&cluster, g.n(), &edges);
        let outcome = Executor::new("conn", mode)
            .threads(threads)
            .run(&mut cluster, programs)
            .unwrap();
        let large = cluster.large().unwrap();
        let result = outcome.programs[large].result.clone().unwrap();
        // Worker events are schedule-dependent by design (they describe the
        // host pool, not the simulated cluster) — drop them before the
        // cross-schedule comparison.
        let machine_events: Vec<TraceEvent> = ring
            .take()
            .into_iter()
            .filter(|e| !matches!(e, TraceEvent::WorkerRound { .. }))
            .collect();
        (
            result,
            cluster.round_log().to_vec(),
            rng_positions(&mut cluster),
            machine_events,
        )
    };
    let reference = run(ExecMode::Serial, 1);
    let frames = (reference.3.iter())
        .filter(|e| matches!(e, TraceEvent::Round { .. }))
        .count();
    assert_eq!(frames, reference.1.len(), "one frame per round");
    for threads in [1usize, 3, 16] {
        let got = run(ExecMode::Parallel, threads);
        assert_eq!(
            got.0, reference.0,
            "threads={threads}: result diverged under telemetry"
        );
        assert_eq!(
            got.1, reference.1,
            "threads={threads}: round log diverged under telemetry"
        );
        assert_eq!(
            got.2, reference.2,
            "threads={threads}: RNG positions diverged under telemetry"
        );
        assert_eq!(
            got.3, reference.3,
            "threads={threads}: machine-level event stream diverged"
        );
    }
}

// ----------------------------------- events reconcile with the log --

/// One `Round` frame per `RoundRecord`, in log order, restating it
/// exactly: same label, message count and makespan, and columns that
/// sum (sent, work) and peak (sent, received) to the record's totals —
/// the trace is the log, just wider. A run under a seeded crash adds the
/// `.ckpt` and `.recover` exchanges, which must each have their frame too.
#[test]
fn ring_events_reconcile_exactly_with_round_records() {
    let seed = 7;
    let g = generators::gnm(120, 700, seed).with_random_weights(1 << 16, seed);
    let run = |crash_within: Option<u64>| {
        let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(seed));
        let plan = crash_within
            .map(|rounds| FaultPlan::seeded_single_crash(seed, &cluster.small_ids(), rounds));
        cluster.set_fault_plan(plan);
        let ring = Arc::new(RingSink::unbounded());
        cluster.set_trace_sink(Some(ring.clone()));
        let spec = JobSpec::new("boruvka-msf", g.clone());
        registry::run_job(&spec, &mut cluster, ExecMode::Parallel).unwrap();
        reconcile(&ring.take(), &cluster);
        cluster
    };
    let clean = run(None);
    let faulted = run(Some(clean.rounds()));
    for part in [".ckpt.", ".recover."] {
        assert!(
            (faulted.round_log().iter()).any(|r| r.label.to_string().contains(part)),
            "the faulted run has no {part} exchange"
        );
    }
}

fn reconcile(events: &[TraceEvent], cluster: &Cluster) {
    let log = cluster.round_log();
    let frames: Vec<&TraceEvent> = (events.iter())
        .filter(|e| matches!(e, TraceEvent::Round { .. }))
        .collect();
    assert_eq!(frames.len() as u64, cluster.rounds(), "one frame per round");
    assert_eq!(frames.len(), log.len());
    let k = cluster.machines();
    for (i, (frame, record)) in frames.into_iter().zip(log).enumerate() {
        let TraceEvent::Round {
            round,
            label,
            messages,
            makespan,
            sent_words,
            recv_words,
            work,
            seconds,
            capacity,
        } = frame
        else {
            unreachable!()
        };
        assert_eq!(*round, i as u64 + 1);
        assert_eq!(label, &record.label, "round {i}: label mismatch");
        assert_eq!(*messages, record.messages, "round {i}");
        assert_eq!(*makespan, record.makespan, "round {i}");
        for column in [sent_words, recv_words, capacity] {
            assert_eq!(column.len(), k, "round {i}: one entry per machine");
        }
        assert_eq!((work.len(), seconds.len()), (k, k), "round {i}");
        assert_eq!(
            sent_words.iter().sum::<usize>(),
            record.total_words,
            "round {i}: sent column sum != record total"
        );
        assert_eq!(
            work.iter().sum::<u64>(),
            record.total_work,
            "round {i}: work column sum != record total"
        );
        assert_eq!(sent_words.iter().max(), Some(&record.max_sent), "round {i}");
        assert_eq!(recv_words.iter().max(), Some(&record.max_recv), "round {i}");
    }
}

// ------------------------------------------- perfetto round-trip --

/// The exporter's hardest input: a batched multiplex run (mincut-approx's
/// λ̂-guess grid) under the pool, on a starved large machine so guesses
/// retire mid-run. The export must be valid JSON with both process groups
/// (simulated machines + host workers) and the retirement instants.
#[test]
fn perfetto_export_round_trips_a_batched_run_with_retirement() {
    let g = generators::gnm(40, 400, 11).with_random_weights(1 << 10, 11);
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(11)
            .enforcement(Enforcement::Record)
            .topology(Topology::Custom {
                capacities: vec![600, 4000, 4000, 4000, 4000],
                large: Some(0),
            }),
    );
    let ring = Arc::new(RingSink::unbounded());
    cluster.set_trace_sink(Some(ring.clone()));
    let spec = JobSpec::new("mincut-approx", g).epsilon(0.3);
    let out = registry::run_job(&spec, &mut cluster, ExecMode::Parallel)
        .unwrap()
        .into_mincut_approx()
        .unwrap();
    assert_eq!(out.lambda_guess, 1, "expected the budget-abort fallback");

    let events = ring.take();
    let retired = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::InstanceRetired { .. }))
        .count();
    assert!(retired > 0, "the starved run must retire instances");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::MuxRound { .. })),
        "multiplex rounds must be attributed"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::WorkerRound { .. })),
        "pooled run must carry worker events"
    );

    let trace = perfetto_export(&events);
    let value = parse_json(&trace).expect("perfetto export is valid JSON");
    let trace_events = value
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let pid_of = |e: &mpc_runtime::telemetry::JsonValue| {
        e.get("pid").and_then(|p| p.as_f64()).unwrap_or(-1.0)
    };
    assert!(
        trace_events.iter().any(|e| pid_of(e) == 1.0),
        "machine track group missing"
    );
    assert!(
        trace_events.iter().any(|e| pid_of(e) == 2.0),
        "worker track group missing"
    );
    let retire_instants = trace_events
        .iter()
        .filter(|e| {
            e.get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n.starts_with("retire instance"))
                && e.get("ph").and_then(|p| p.as_str()) == Some("i")
        })
        .count();
    assert_eq!(
        retire_instants, retired,
        "every retirement must appear as an instant"
    );
}

// ------------------------------------------ wave events in a drain --

/// A multi-instance job queued behind a one-share limit is admitted after
/// round 0; each of its `MuxRound` events must fall between its
/// `JobAdmitted` and `JobCompleted` rounds — the driver's clock, not the
/// job's own.
#[test]
fn mux_rounds_of_a_late_job_lie_inside_its_admission_window() {
    let g = Arc::new(generators::gnm(96, 360, 7).with_random_weights(1 << 10, 7));
    let config = ClusterConfig::new(g.n(), g.m())
        .seed(3)
        .polylog_exponent(2.6);
    let mut service = Service::new(config.clone()).capacity_shares(1);
    service
        .submit(JobSpec::new("mis", Arc::clone(&g)).seed(1))
        .unwrap();
    let late = service
        .submit(JobSpec::new("mincut-approx", Arc::clone(&g)).seed(2))
        .unwrap();
    let mut cluster = Cluster::new(config);
    let ring = Arc::new(RingSink::unbounded());
    cluster.set_trace_sink(Some(ring.clone()));
    let run = service.run_on(&mut cluster, ExecMode::Serial).unwrap();

    let record = (run.records.iter()).find(|r| r.job == late.id()).unwrap();
    assert!(
        record.shares > 1,
        "mincut-approx must run several instances"
    );
    assert!(record.admitted_round > 0, "the job must wait for a share");
    let events = ring.take();
    let admitted = events.iter().find_map(|e| match e {
        TraceEvent::JobAdmitted { round, job, .. } if *job == late.id() => Some(*round),
        _ => None,
    });
    let completed = events.iter().find_map(|e| match e {
        TraceEvent::JobCompleted { round, job, .. } if *job == late.id() => Some(*round),
        _ => None,
    });
    let window = admitted.unwrap()..=completed.unwrap();
    assert_eq!(window, record.admitted_round..=record.completed_round);
    // `mis` has one instance, so every MuxRound is the late job's.
    let mux_rounds: Vec<u64> = (events.iter())
        .filter_map(|e| match e {
            TraceEvent::MuxRound { round, .. } => Some(*round),
            _ => None,
        })
        .collect();
    assert!(!mux_rounds.is_empty(), "the late job's lanes must step");
    for round in mux_rounds {
        assert!(
            window.contains(&round),
            "MuxRound at {round} outside {window:?}"
        );
    }
}
