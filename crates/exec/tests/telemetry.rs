//! The telemetry contract, end to end through the engine:
//!
//! * attaching a recording sink never perturbs execution — serial and
//!   pooled runs (worker counts 1/3/16) stay bit-identical (results,
//!   round logs, RNG positions) *with telemetry on*;
//! * the event stream reconciles **exactly** with the cluster's round
//!   log — same totals, same makespans, nothing invented or dropped;
//! * the Perfetto exporter emits valid JSON for the hardest case: a
//!   batched multiplex run under the pool with a retired instance.

use mpc_core::common;
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_exec::{registry, AlgoInput, ConnectivityProgram, ExecMode, Executor};
use mpc_graph::generators;
use mpc_runtime::telemetry::{parse_json, perfetto_export};
use mpc_runtime::{Cluster, ClusterConfig, Enforcement, RingSink, Topology, TraceEvent};
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
/// every schedule must record the same machine-level event stream (worker
/// events differ by schedule, so they are compared after filtering).
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
    assert!(
        !reference.3.is_empty(),
        "serial run recorded no machine events"
    );
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

/// Every `RoundEnd` must restate its `RoundRecord` exactly, and the
/// `MachineRound` events between a begin/end pair must sum to the
/// record's totals — the trace is the log, just wider.
#[test]
fn ring_events_reconcile_exactly_with_round_records() {
    let seed = 7;
    let g = generators::gnm(120, 700, seed).with_random_weights(1 << 16, seed);
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(seed));
    let ring = Arc::new(RingSink::unbounded());
    cluster.set_trace_sink(Some(ring.clone()));
    let edges = common::distribute_edges(&cluster, &g);
    let input = AlgoInput::new(g.n(), &edges);
    registry::run("boruvka-msf", &mut cluster, &input, ExecMode::Parallel).unwrap();

    let events = ring.take();
    let log = cluster.round_log();
    let begins = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RoundBegin { .. }))
        .count();
    assert_eq!(begins as u64, cluster.rounds(), "one RoundBegin per round");

    // Walk the stream: accumulate MachineRound totals until the RoundEnd,
    // then reconcile against the next record in log order.
    let mut record_idx = 0usize;
    let (mut sent_sum, mut work_sum, mut max_sent, mut max_recv) = (0usize, 0u64, 0usize, 0usize);
    for event in &events {
        match event {
            TraceEvent::RoundBegin { label, .. } => {
                assert_eq!(
                    label.as_str(),
                    log[record_idx].label.to_string(),
                    "round {record_idx}: label mismatch"
                );
                (sent_sum, work_sum, max_sent, max_recv) = (0, 0, 0, 0);
            }
            TraceEvent::MachineRound {
                sent_words,
                recv_words,
                work,
                ..
            } => {
                sent_sum += sent_words;
                work_sum += work;
                max_sent = max_sent.max(*sent_words);
                max_recv = max_recv.max(*recv_words);
            }
            TraceEvent::RoundEnd {
                total_words,
                messages,
                makespan,
                ..
            } => {
                let record = &log[record_idx];
                assert_eq!(*total_words, record.total_words, "round {record_idx}");
                assert_eq!(*messages, record.messages, "round {record_idx}");
                assert_eq!(*makespan, record.makespan, "round {record_idx}");
                assert_eq!(
                    sent_sum, record.total_words,
                    "round {record_idx}: machine sent sums != record total"
                );
                assert_eq!(
                    work_sum, record.total_work,
                    "round {record_idx}: machine work sums != record total"
                );
                assert_eq!(max_sent, record.max_sent, "round {record_idx}");
                assert_eq!(max_recv, record.max_recv, "round {record_idx}");
                record_idx += 1;
            }
            _ => {}
        }
    }
    assert_eq!(record_idx, log.len(), "every record was reconciled");
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
    let edges = common::distribute_edges(&cluster, &g);
    let input = AlgoInput::new(g.n(), &edges).epsilon(0.3);
    let out = registry::run("mincut-approx", &mut cluster, &input, ExecMode::Parallel)
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
