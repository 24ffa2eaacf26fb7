//! The multi-program scheduler contract for the three multiplexed
//! workloads (`spanner-weighted`, `mst-approx`, `mincut-approx`):
//!
//! * the `mincut-approx` early exit retires every guess behind the first
//!   over-budget one, and retired guesses move zero words;
//! * runs are **schedule-independent** — serial and pooled execution at
//!   worker counts {1, 3, 16} produce identical results, round counts,
//!   round logs (labels, traffic, work, makespans), and RNG positions.
//!
//! Per-instance results are pinned by `roundlog_golden.rs`; the ≥5× round
//! collapse against the sequential compositions is the `budgets`
//! experiment's, against the sequential round counts committed in
//! `BENCH_rounds.json`.

use mpc_exec::{registry, ExecMode, JobSpec};
use mpc_graph::{generators, Graph};
use mpc_runtime::{Cluster, ClusterConfig, Enforcement, Topology};
use rand::RngCore;
use std::sync::Arc;

/// Draws one value from every machine's RNG — equal vectors mean equal
/// stream positions.
fn rng_positions(cluster: &mut Cluster) -> Vec<u64> {
    (0..cluster.machines())
        .map(|mid| cluster.rng(mid).next_u64())
        .collect()
}

fn cluster_for(g: &Graph, seed: u64, polylog: f64) -> Cluster {
    Cluster::new(
        ClusterConfig::new(g.n(), g.m().max(1))
            .seed(seed)
            .polylog_exponent(polylog),
    )
}

// --------------------------------------- early exit / retirement --

/// A starved large machine forces the budget abort mid-grid: the run must
/// retire every finer guess (their skeletons never ship) and land on the
/// whole-graph fallback — the input's exact cut over all of its edges — in
/// O(1) combined rounds.
#[test]
fn budget_abort_retires_finer_guesses_and_matches_sequential_fallback() {
    let g = Arc::new(generators::gnm(40, 400, 11).with_random_weights(1 << 10, 11));
    // Record mode: the tiny large machine is the *point* (its skeleton
    // budget trips), and the fallback gather legitimately exceeds it.
    let make = || {
        Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(11)
                .enforcement(Enforcement::Record)
                .topology(Topology::Custom {
                    capacities: vec![600, 4000, 4000, 4000, 4000],
                    large: Some(0),
                }),
        )
    };

    let mut bat_cluster = make();
    let spec = JobSpec::new("mincut-approx", Arc::clone(&g)).epsilon(0.3);
    let out = registry::run_job(&spec, &mut bat_cluster, ExecMode::Serial).unwrap();
    let bat_rounds = bat_cluster.rounds();
    assert_eq!(registry::certify(&spec, &out), Ok(()));

    // The run aborted to the fallback (λ̂ = 1 marker): the exact cut of
    // the whole gathered graph.
    let bat = out.into_mincut_approx().unwrap();
    assert_eq!(bat.lambda_guess, 1, "expected the fallback path");
    let exact = mpc_graph::mincut::min_cut(&g).unwrap().weight as f64;
    assert_eq!((bat.estimate, bat.skeleton_edges), (exact, g.m()));
    // Batched: 3 rounds of guess waves + the 1-round fallback gather. The
    // ship round may only carry the guesses at or before the abort —
    // retired guesses contribute nothing (the denser skeletons all sit
    // behind the abort, so the combined ship volume stays near the solo
    // budget instead of the full grid's sum).
    assert!(
        bat_rounds <= 5,
        "batched run should stay O(1) rounds, took {bat_rounds}"
    );
    // On this input the very first guess already overflows the budget, so
    // *every* guess is retired before shipping: the batched log holds just
    // the count report and the fallback gather — no ship round exists, and
    // the retired guesses' skeletons (the dense end of the grid) moved
    // zero words.
    assert_eq!(
        bat_cluster.round_log().len(),
        2,
        "retired guesses leaked a ship round into the log"
    );
}

// --------------------------------- schedule independence (pool) --

/// Batched runs must be bit-identical across Serial / Parallel at worker
/// counts {1, 3, 16}: results, round counts, full round logs (labels,
/// traffic, work, makespans), and RNG positions. (The twelve-name sweep in
/// `registry_equivalence.rs` runs the default ε = 0.3; this one runs the
/// coarser ε = 0.5 grid.)
#[test]
fn batched_workloads_are_schedule_independent_at_threads_1_3_16() {
    let g = Arc::new(generators::gnm(140, 1100, 9).with_random_weights(1 << 16, 9));
    for name in registry::BATCHED_NAMES {
        let polylog = registry::get(name).unwrap().polylog_exponent;
        let run = |mode: ExecMode, threads: usize| {
            let mut cluster = cluster_for(&g, 9, polylog);
            let spec = JobSpec::new(name, Arc::clone(&g)).epsilon(0.5);
            let out = registry::run_threads(&spec, &mut cluster, mode, threads).unwrap();
            let log = cluster.round_log().to_vec();
            let rng = rng_positions(&mut cluster);
            (out.digest(), cluster.rounds(), log, rng)
        };
        let reference = run(ExecMode::Serial, 1);
        for threads in [1usize, 3, 16] {
            let got = run(ExecMode::Parallel, threads);
            assert_eq!(
                got, reference,
                "{name}: parallel (threads={threads}) diverged from serial"
            );
        }
    }
}
