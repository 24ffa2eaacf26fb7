//! The `hotpath` experiment: what the engine's per-round host overhead
//! costs, and what the persistent pool buys back.
//!
//! Two per-round costs dominate the engine's host wall-clock at high round
//! counts: (1) `ExecMode::SpawnPerRound` pays an OS thread spawn + join per
//! worker **every round**, and (2) its static chunking serializes every
//! machine that shares a chunk with the large machine — deliberately the
//! heaviest per-round workload in the paper's heterogeneous regime (the
//! straggler effect heterogeneous-cluster work treats as the dominant
//! cost). The pooled `ExecMode::Parallel` spawns once per run and claims
//! machines dynamically, so neither cost scales with the round count.
//!
//! The workload is a message ring ([`RippleProgram`]) with a skewed
//! per-machine compute profile (machine 0 does `K/4`× the work of a small
//! machine), swept over K ∈ {8, 64, 256} machines — plus one end-to-end
//! connectivity run on a larger graph for realism. Results are printed as
//! a markdown table and written machine-readably to `BENCH_exec.json` at
//! the repo root, starting the perf trajectory the ROADMAP asks for.
//!
//! All three schedules are asserted bit-identical (checksums and round
//! counts) before any result is reported.

use crate::Table;
use mpc_core::common;
use mpc_core::ported::connectivity::{sketch_friendly_config, ConnectivityConfig};
use mpc_exec::pool::PoolStats;
use mpc_exec::{ConnectivityProgram, ExecMode, Executor, MachineCtx, MachineProgram, StepOutcome};
use mpc_graph::generators;
use mpc_runtime::{Cluster, ClusterConfig, FaultPlan, MachineId, RingSink, Topology};
use std::sync::Arc;
use std::time::Duration;

/// A ring program stressing the round loop: every machine forwards one
/// word to its successor each round and burns a deterministic amount of
/// local compute, skewed so machine 0 (the large machine) is the
/// straggler. No RNG, so any cross-schedule divergence shows up in the
/// checksum immediately.
pub struct RippleProgram {
    rounds: u64,
    work_iters: u64,
    /// Deterministic digest of everything this machine computed/received.
    pub checksum: u64,
}

impl RippleProgram {
    /// Burns `iters` multiply-rotate steps; returns the mixed accumulator.
    fn busywork(seed: u64, iters: u64) -> u64 {
        let mut acc = seed | 1;
        for i in 0..iters {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
        }
        acc
    }
}

impl MachineProgram for RippleProgram {
    type Message = u64;

    fn step(&mut self, ctx: &MachineCtx<'_>, inbox: Vec<(MachineId, u64)>) -> StepOutcome<u64> {
        for (_, m) in &inbox {
            self.checksum ^= m;
        }
        let acc = Self::busywork(self.checksum, self.work_iters);
        self.checksum ^= acc;
        // Report the compute to the cost model so simulated makespans see
        // the same skew the host does.
        ctx.charge(self.work_iters);
        if ctx.round + 1 >= self.rounds {
            return StepOutcome::Halt;
        }
        StepOutcome::Send(vec![((ctx.mid + 1) % ctx.machines, acc)])
    }
}

/// A cluster with `k` small machines plus one large machine (id 0).
pub fn ripple_cluster(k: usize) -> Cluster {
    Cluster::new(ClusterConfig::new(1024, 4096).topology(Topology::Custom {
        capacities: vec![4096; k + 1],
        large: Some(0),
    }))
}

/// One [`RippleProgram`] per machine: small machines do `small_work`
/// iterations per round, the large machine `small_work · k/4` (the
/// straggler skew).
pub fn ripple_programs(cluster: &Cluster, rounds: u64, small_work: u64) -> Vec<RippleProgram> {
    let k = cluster.machines();
    let skew = (k as u64 / 4).max(2);
    (0..k)
        .map(|mid| RippleProgram {
            rounds,
            work_iters: if Some(mid) == cluster.large() {
                small_work * skew
            } else {
                small_work
            },
            checksum: mid as u64,
        })
        .collect()
}

/// The two representative registry rows that also report the simulated
/// cost of fault tolerance (seeded single crash + recovery): one
/// contraction-style pipeline (`mst`, few heavy rounds) and one
/// many-round local algorithm (`mis`) — the two regimes where checkpoint
/// cadence bites differently.
const RECOVERY_ROWS: &[&str] = &["mst", "mis"];

/// Worker threads for both parallel schedules: pinned (rather than
/// host-derived) so the comparison measures the *schedulers* — the same
/// worker count either spawned per round or parked on the pool's barrier —
/// independent of the benchmarking host's core count.
const WORKERS: usize = 8;

/// One timed ripple run; returns (wall, checksum, rounds).
fn time_ripple(mode: ExecMode, k: usize, rounds: u64, small_work: u64) -> (Duration, u64, u64) {
    let mut cluster = ripple_cluster(k);
    let programs = ripple_programs(&cluster, rounds, small_work);
    let out = Executor::new("ripple", mode)
        .threads(WORKERS)
        .run(&mut cluster, programs)
        .expect("ripple run");
    let checksum = out
        .programs
        .iter()
        .fold(0u64, |acc, p| acc ^ p.checksum.rotate_left(11));
    (out.wall, checksum, out.rounds)
}

/// One timed connectivity run on `g`; returns (wall, component count,
/// rounds). Wall time covers program construction + run + extraction —
/// the same basis as [`time_registry`], so the end-to-end rows of the
/// table are comparable (the ripple rows measure `out.wall`, the bare
/// round loop, and are only compared among themselves).
fn time_connectivity(mode: ExecMode, g: &mpc_graph::Graph, seed: u64) -> (Duration, u64, u64) {
    let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
    let edges = common::distribute_edges(&cluster, g);
    let started = std::time::Instant::now();
    let programs = ConnectivityProgram::for_cluster(
        &cluster,
        g.n(),
        &edges,
        &ConnectivityConfig::for_n(g.n()),
    );
    let out = Executor::new("conn", mode)
        .threads(WORKERS)
        .run(&mut cluster, programs)
        .expect("connectivity run");
    let large = cluster.large().expect("heterogeneous topology");
    let comps = out.programs[large].result.as_ref().expect("components");
    (started.elapsed(), comps.count as u64, out.rounds)
}

/// One timed registry run (MST / matching end-to-end programs); returns
/// (wall, digest, rounds). Routed through `registry::run` like every other
/// consumer of the ported algorithms.
fn time_registry(
    name: &str,
    mode: ExecMode,
    g: &mpc_graph::Graph,
    seed: u64,
) -> (Duration, u64, u64) {
    let polylog = mpc_exec::registry::get(name)
        .expect("registered algorithm")
        .polylog_exponent;
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(seed)
            .polylog_exponent(polylog),
    );
    let edges = common::distribute_edges(&cluster, g);
    let started = std::time::Instant::now();
    let out = mpc_exec::registry::run(
        name,
        &mut cluster,
        &mpc_exec::AlgoInput::new(g.n(), &edges),
        mode,
    )
    .expect("registry run");
    let wall = started.elapsed();
    (wall, out.digest() as u64, cluster.rounds())
}

/// Attaches a small bounded ring sink (the driver instruments the pool iff
/// the cluster is tracing; the events themselves are discarded) so a run
/// yields [`PoolStats`]. The *timed* runs above stay sink-free — telemetry
/// must never pollute the clocks the regression guard gates on.
fn observe(cluster: &mut Cluster) {
    cluster.set_trace_sink(Some(Arc::new(RingSink::with_capacity(16))));
}

/// `(barrier-wait ms, worker busy-time imbalance)` columns from one
/// instrumented pool run's stats.
fn stats_columns(stats: Option<PoolStats>) -> (f64, f64) {
    stats.map_or((0.0, 0.0), |s| {
        (s.total_wait_seconds() * 1e3, s.imbalance())
    })
}

/// One instrumented (untimed) pooled ripple run for the barrier/imbalance
/// columns.
fn instrument_ripple(k: usize, rounds: u64, small_work: u64) -> (f64, f64) {
    let mut cluster = ripple_cluster(k);
    observe(&mut cluster);
    let programs = ripple_programs(&cluster, rounds, small_work);
    let out = Executor::new("ripple", ExecMode::Parallel)
        .threads(WORKERS)
        .run(&mut cluster, programs)
        .expect("ripple run");
    stats_columns(out.pool)
}

/// One instrumented (untimed) pooled connectivity run.
fn instrument_connectivity(g: &mpc_graph::Graph, seed: u64) -> (f64, f64) {
    let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
    observe(&mut cluster);
    let edges = common::distribute_edges(&cluster, g);
    let programs = ConnectivityProgram::for_cluster(
        &cluster,
        g.n(),
        &edges,
        &ConnectivityConfig::for_n(g.n()),
    );
    let out = Executor::new("conn", ExecMode::Parallel)
        .threads(WORKERS)
        .run(&mut cluster, programs)
        .expect("connectivity run");
    stats_columns(out.pool)
}

/// One instrumented (untimed) pooled registry run, via `run_with_report`
/// (whose report reconstructs the pool stats from worker events).
fn instrument_registry(name: &str, g: &mpc_graph::Graph, seed: u64) -> (f64, f64) {
    let polylog = mpc_exec::registry::get(name)
        .expect("registered algorithm")
        .polylog_exponent;
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(seed)
            .polylog_exponent(polylog),
    );
    let edges = common::distribute_edges(&cluster, g);
    let (_, report) = mpc_exec::registry::run_with_report(
        name,
        &mut cluster,
        &mpc_exec::AlgoInput::new(g.n(), &edges),
        ExecMode::Parallel,
    )
    .expect("registry run");
    stats_columns(report.pool)
}

/// One faulted serial registry run: a seeded single crash under the
/// default [`mpc_runtime::fault::RecoveryPolicy`] (k = 1 replica,
/// checkpoint every round), reported through `run_with_report`. Returns
/// the share of the *simulated* makespan spent on checkpoint + recovery
/// rounds — the price of fault tolerance in model time, not host time.
/// Asserts the recovered digest matches the fault-free run first, so the
/// ratio is only ever reported for an exact recovery.
fn recovery_overhead(name: &str, g: &mpc_graph::Graph, seed: u64) -> f64 {
    let polylog = mpc_exec::registry::get(name)
        .expect("registered algorithm")
        .polylog_exponent;
    let build = || {
        Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(seed)
                .polylog_exponent(polylog),
        )
    };
    // Fault-free preflight: learn the round count, the small-machine ids,
    // and the digest the recovery must reproduce.
    let mut clean = build();
    let edges = common::distribute_edges(&clean, g);
    let out = mpc_exec::registry::run(
        name,
        &mut clean,
        &mpc_exec::AlgoInput::new(g.n(), &edges),
        ExecMode::Serial,
    )
    .expect("fault-free preflight");
    let clean_digest = out.digest();
    let smalls: Vec<MachineId> = (0..clean.machines())
        .filter(|&m| Some(m) != clean.large())
        .collect();
    let plan = FaultPlan::seeded_single_crash(seed, &smalls, clean.rounds());

    let mut cluster = build();
    let edges = common::distribute_edges(&cluster, g);
    cluster.set_fault_plan(Some(plan));
    let (out, report) = mpc_exec::registry::run_with_report(
        name,
        &mut cluster,
        &mpc_exec::AlgoInput::new(g.n(), &edges),
        ExecMode::Serial,
    )
    .expect("faulted run");
    assert_eq!(
        out.digest(),
        clean_digest,
        "{name}: recovery diverged from the fault-free run"
    );
    report
        .recovery
        .overhead_ratio(report.critical_path.total_seconds)
}

/// Best-of-`reps` wall time for `run`, asserting the digest never moves.
fn best_of<F: FnMut() -> (Duration, u64, u64)>(reps: usize, mut run: F) -> (f64, u64, u64) {
    let (mut best, digest, rounds) = run();
    for _ in 1..reps {
        let (wall, d, r) = run();
        assert_eq!((d, r), (digest, rounds), "nondeterministic timing run");
        best = best.min(wall);
    }
    (best.as_secs_f64() * 1e3, digest, rounds)
}

struct Case {
    workload: String,
    machines: usize,
    rounds: u64,
    serial_ms: f64,
    spawn_ms: f64,
    pool_ms: f64,
    /// Total pool barrier-wait (ms) from one extra instrumented run —
    /// never from the timed runs.
    barrier_ms: f64,
    /// Max-over-mean worker busy-time ratio from the same instrumented run.
    imbalance: f64,
    /// Simulated-time share spent on checkpoint + recovery rounds under a
    /// seeded single crash, from one extra faulted run — only computed for
    /// the representative registry rows ([`RECOVERY_ROWS`]).
    recovery_ratio: Option<f64>,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.spawn_ms / self.pool_ms.max(1e-9)
    }
}

/// Runs the experiment; `quick` shrinks the sweep for CI smoke runs.
pub fn run(quick: bool) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n## hotpath — per-round engine overhead: spawn-per-round vs persistent pool\n");
    println!(
        "host cores: {cores}; both parallel schedules run {WORKERS} workers (pinned, so\n\
         the comparison measures the schedulers, not the host); wall times are\n\
         best-of-N host milliseconds; all three schedules are asserted\n\
         bit-identical before results are reported.\n"
    );

    // Quick mode takes best-of-10 on the millisecond-scale cases: the
    // regression guard gates on ratios against the committed baseline, and
    // fewer reps are too noisy to gate on. The one ~half-second case
    // (connectivity) stays at best-of-3 to keep the CI smoke fast.
    let (ks, rounds, small_work, reps): (&[usize], u64, u64, usize) = if quick {
        (&[8, 64], 50, 600, 10)
    } else {
        (&[8, 64, 256], 250, 1500, 3)
    };
    let conn_reps = 3.min(reps);

    let mut cases: Vec<Case> = Vec::new();
    for &k in ks {
        // `best_of` asserts within-mode stability; the digests it returns
        // gate all three schedules against each other before the case is
        // recorded.
        let (serial_ms, d_serial, r_serial) = best_of(reps, || {
            time_ripple(ExecMode::Serial, k, rounds, small_work)
        });
        let (spawn_ms, d_spawn, r_spawn) = best_of(reps, || {
            time_ripple(ExecMode::SpawnPerRound, k, rounds, small_work)
        });
        let (pool_ms, d_pool, r_pool) = best_of(reps, || {
            time_ripple(ExecMode::Parallel, k, rounds, small_work)
        });
        assert_eq!(
            (d_serial, r_serial),
            (d_spawn, r_spawn),
            "K={k}: spawn-per-round diverged from serial"
        );
        assert_eq!(
            (d_serial, r_serial),
            (d_pool, r_pool),
            "K={k}: pool diverged from serial"
        );
        let (barrier_ms, imbalance) = instrument_ripple(k, rounds, small_work);
        cases.push(Case {
            workload: format!("ripple(r={rounds},w={small_work})"),
            machines: k + 1,
            rounds: r_serial,
            serial_ms,
            spawn_ms,
            pool_ms,
            barrier_ms,
            imbalance,
            recovery_ratio: None,
        });
    }

    // One end-to-end program on a larger graph: few rounds, heavy steps —
    // the regime where spawn overhead matters least (reported for honesty).
    let (n, density, seed) = if quick { (1200, 6, 7) } else { (4000, 6, 7) };
    let g = generators::gnm(n, n * density, seed);
    let (serial_ms, d_serial, r_serial) =
        best_of(conn_reps, || time_connectivity(ExecMode::Serial, &g, seed));
    let (spawn_ms, d_spawn, r_spawn) = best_of(conn_reps, || {
        time_connectivity(ExecMode::SpawnPerRound, &g, seed)
    });
    let (pool_ms, d_pool, r_pool) = best_of(conn_reps, || {
        time_connectivity(ExecMode::Parallel, &g, seed)
    });
    assert_eq!(
        (d_serial, r_serial),
        (d_spawn, r_spawn),
        "connectivity: spawn-per-round diverged from serial"
    );
    assert_eq!(
        (d_serial, r_serial),
        (d_pool, r_pool),
        "connectivity: pool diverged from serial"
    );
    let conn_machines = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed)).machines();
    let (barrier_ms, imbalance) = instrument_connectivity(&g, seed);
    cases.push(Case {
        workload: format!("connectivity(n={n},m={})", g.m()),
        machines: conn_machines,
        rounds: r_serial,
        serial_ms,
        spawn_ms,
        pool_ms,
        barrier_ms,
        imbalance,
        recovery_ratio: None,
    });

    // The ported end-to-end programs, through the Algorithm registry: the
    // full MST pipeline (contraction waves + KKT), the three-phase
    // matching, the prefix-batched MIS, and the palette-sampling coloring
    // — many short rounds, the regime the pool is built for — plus the
    // three batched multi-program workloads (weight classes, threshold
    // waves, λ̂ guesses interleaved by the multiplexed scheduler: many
    // instances, very few combined rounds) on a smaller weighted graph.
    let g_mst = g.clone().with_random_weights(1 << 20, seed);
    let nb = if quick { 256 } else { 512 };
    let g_batch = generators::gnm(nb, nb * 5, seed).with_random_weights(1 << 6, seed);
    let batched = mpc_exec::registry::BATCHED_NAMES;
    let solo_cases = [
        ("mst", &g_mst),
        ("matching", &g),
        ("mis", &g),
        ("coloring", &g),
    ];
    for (algo, graph) in solo_cases
        .into_iter()
        .chain(batched.into_iter().map(|name| (name, &g_batch)))
    {
        // The batched rows are dominated by the large machine's local
        // verdicts (local min cut / sketch-Borůvka per instance), so a few
        // reps suffice — the quantity of interest is the ratio's sign,
        // not its third digit.
        let reps = if batched.contains(&algo) {
            conn_reps
        } else {
            reps
        };
        let (serial_ms, d_serial, r_serial) =
            best_of(reps, || time_registry(algo, ExecMode::Serial, graph, seed));
        let (spawn_ms, d_spawn, r_spawn) = best_of(reps, || {
            time_registry(algo, ExecMode::SpawnPerRound, graph, seed)
        });
        let (pool_ms, d_pool, r_pool) = best_of(reps, || {
            time_registry(algo, ExecMode::Parallel, graph, seed)
        });
        assert_eq!(
            (d_serial, r_serial),
            (d_spawn, r_spawn),
            "{algo}: spawn-per-round diverged from serial"
        );
        assert_eq!(
            (d_serial, r_serial),
            (d_pool, r_pool),
            "{algo}: pool diverged from serial"
        );
        let polylog = mpc_exec::registry::get(algo)
            .expect("registered algorithm")
            .polylog_exponent;
        let machines = Cluster::new(
            ClusterConfig::new(graph.n(), graph.m())
                .seed(seed)
                .polylog_exponent(polylog),
        )
        .machines();
        let (barrier_ms, imbalance) = instrument_registry(algo, graph, seed);
        let recovery_ratio = RECOVERY_ROWS
            .contains(&algo)
            .then(|| recovery_overhead(algo, graph, seed));
        cases.push(Case {
            workload: format!("{algo}(n={},m={})", graph.n(), graph.m()),
            machines,
            rounds: r_serial,
            serial_ms,
            spawn_ms,
            pool_ms,
            barrier_ms,
            imbalance,
            recovery_ratio,
        });
    }

    let mut t = Table::new(&[
        "workload",
        "machines",
        "rounds",
        "serial ms",
        "spawn/round ms",
        "pool ms",
        "pool speedup vs spawn",
        "pool barrier ms",
        "pool imbalance",
        "recovery overhead",
    ]);
    for c in &cases {
        t.row(&[
            c.workload.clone(),
            c.machines.to_string(),
            c.rounds.to_string(),
            format!("{:.2}", c.serial_ms),
            format!("{:.2}", c.spawn_ms),
            format!("{:.2}", c.pool_ms),
            format!("{:.2}x", c.speedup()),
            format!("{:.2}", c.barrier_ms),
            format!("{:.2}x", c.imbalance),
            c.recovery_ratio
                .map_or("-".into(), |r| format!("{:.1}%", r * 100.0)),
        ]);
    }
    t.print();
    println!(
        "\nbarrier/imbalance columns come from one extra *instrumented* pool run per\n\
         case (telemetry attached); the timed columns above always run sink-free.\n\
         recovery overhead is the share of *simulated* makespan spent on checkpoint\n\
         and recovery rounds under one seeded small-machine crash (exactness\n\
         asserted), from one extra faulted serial run on the representative rows."
    );

    let path = bench_json_path();
    let pool_threads = pool_threads_setting();
    guard_against_baseline(&path, quick, pool_threads, &cases);
    write_json(&path, quick, cores, pool_threads, &cases);
    println!("\n[hotpath: wrote {}]", path.display());
}

/// The `MPC_POOL_THREADS` pin in effect, 0 when unset (host-derived). The
/// registry-driven rows run their executors at this worker count, so the
/// regression guard only compares baselines recorded under the same pin —
/// CI enforces on its `MPC_POOL_THREADS=2` leg and the committed baseline
/// is generated the same way.
fn pool_threads_setting() -> usize {
    std::env::var("MPC_POOL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Allowed relative growth of a row's pool-vs-serial ratio before the
/// guard fails the run: 25%.
const GUARD_TOLERANCE: f64 = 0.25;

/// Rows whose serial wall time (committed or fresh) is below this are
/// reported but not enforced — at sub-5ms scale the ratio is dominated by
/// scheduler jitter, not by the engine.
const GUARD_MIN_SERIAL_MS: f64 = 5.0;

/// One committed row of `BENCH_exec.json`.
struct Baseline {
    workload: String,
    machines: usize,
    serial_ms: f64,
    pool_ms: f64,
}

/// Extracts `"key": value` from one JSON line (the file is written
/// line-per-case by [`write_json`], so no full JSON parser is needed —
/// the vendored offline deps include none).
fn parse_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        return Some(stripped[..stripped.find('"')?].to_string());
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
}

/// Reads the committed `BENCH_exec.json`: `(mode, pool_threads, rows)`.
/// `pool_threads` defaults to 0 (host-derived) for baselines written
/// before the field existed.
fn read_baseline(path: &std::path::Path) -> Option<(String, usize, Vec<Baseline>)> {
    let body = std::fs::read_to_string(path).ok()?;
    let mut mode = String::new();
    let mut pool_threads = 0usize;
    let mut rows = Vec::new();
    for line in body.lines() {
        if line.trim_start().starts_with("\"mode\"") {
            mode = parse_field(line, "mode")?;
        }
        if line.trim_start().starts_with("\"pool_threads\"") {
            pool_threads = parse_field(line, "pool_threads")?.parse().ok()?;
        }
        if line.contains("\"workload\"") {
            rows.push(Baseline {
                workload: parse_field(line, "workload")?,
                machines: parse_field(line, "machines")?.parse().ok()?,
                serial_ms: parse_field(line, "serial_ms")?.parse().ok()?,
                pool_ms: parse_field(line, "pool_ms")?.parse().ok()?,
            });
        }
    }
    Some((mode, pool_threads, rows))
}

/// The CI perf gate: diffs the fresh cases against the **committed**
/// `BENCH_exec.json` row by row (matched on workload + machine count) and
/// fails the run if any row's pool-vs-serial ratio regressed by more than
/// [`GUARD_TOLERANCE`], printing the full delta table either way. Rows
/// without a committed twin (new workloads), rows under
/// [`GUARD_MIN_SERIAL_MS`] (jitter-dominated), and runs whose mode
/// (`quick` vs `full`) differs from the committed baseline are reported
/// but never enforced — CI commits the quick baseline, full sweeps run
/// locally.
fn guard_against_baseline(
    path: &std::path::Path,
    quick: bool,
    pool_threads: usize,
    cases: &[Case],
) {
    println!("\n### pool-vs-serial regression guard (vs committed BENCH_exec.json)\n");
    let Some((mode, base_threads, baseline)) = read_baseline(path) else {
        println!("no committed baseline at {} — skipping", path.display());
        return;
    };
    let current_mode = if quick { "quick" } else { "full" };
    if mode != current_mode {
        println!(
            "committed baseline is `{mode}` mode, this run is `{current_mode}` — \
             rows are not comparable, skipping enforcement"
        );
        return;
    }
    if base_threads != pool_threads {
        println!(
            "committed baseline was recorded with MPC_POOL_THREADS={base_threads}, \
             this run uses {pool_threads} — pool ratios are not comparable, \
             skipping enforcement"
        );
        return;
    }
    let mut t = Table::new(&[
        "workload",
        "machines",
        "committed pool/serial",
        "new pool/serial",
        "delta",
        "verdict",
    ]);
    let mut failures: Vec<String> = Vec::new();
    for c in cases {
        let Some(b) = baseline
            .iter()
            .find(|b| b.workload == c.workload && b.machines == c.machines)
        else {
            t.row(&[
                c.workload.clone(),
                c.machines.to_string(),
                "-".into(),
                format!("{:.3}", c.pool_ms / c.serial_ms.max(1e-9)),
                "-".into(),
                "new row".into(),
            ]);
            continue;
        };
        let old_ratio = b.pool_ms / b.serial_ms.max(1e-9);
        let new_ratio = c.pool_ms / c.serial_ms.max(1e-9);
        let delta = new_ratio / old_ratio.max(1e-9) - 1.0;
        let enforced = b.serial_ms >= GUARD_MIN_SERIAL_MS && c.serial_ms >= GUARD_MIN_SERIAL_MS;
        let ok = !enforced || delta <= GUARD_TOLERANCE;
        if !ok {
            failures.push(format!(
                "{} (machines {}): pool/serial {:.3} -> {:.3} (+{:.0}% > {:.0}%)",
                c.workload,
                c.machines,
                old_ratio,
                new_ratio,
                delta * 100.0,
                GUARD_TOLERANCE * 100.0
            ));
        }
        t.row(&[
            c.workload.clone(),
            c.machines.to_string(),
            format!("{old_ratio:.3}"),
            format!("{new_ratio:.3}"),
            format!("{:+.1}%", delta * 100.0),
            if !enforced {
                "too small to enforce"
            } else if ok {
                "ok"
            } else {
                "REGRESSED"
            }
            .to_string(),
        ]);
    }
    t.print();
    assert!(
        failures.is_empty(),
        "pool-vs-serial regressions beyond {:.0}%:\n  {}",
        GUARD_TOLERANCE * 100.0,
        failures.join("\n  ")
    );
}

/// `BENCH_exec.json` lives at the repo root so the perf trajectory is one
/// flat file per subsystem.
fn bench_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_exec.json")
}

fn write_json(
    path: &std::path::Path,
    quick: bool,
    cores: usize,
    pool_threads: usize,
    cases: &[Case],
) {
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"exec_hotpath\",\n");
    body.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    body.push_str(&format!("  \"host_cores\": {cores},\n"));
    body.push_str(&format!("  \"pool_threads\": {pool_threads},\n"));
    body.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let recovery = c
            .recovery_ratio
            .map_or(String::new(), |r| format!(", \"recovery_ratio\": {r:.4}"));
        body.push_str(&format!(
            "    {{\"workload\": \"{}\", \"machines\": {}, \"rounds\": {}, \
             \"serial_ms\": {:.3}, \"spawn_per_round_ms\": {:.3}, \"pool_ms\": {:.3}, \
             \"pool_speedup_vs_spawn\": {:.3}, \"pool_barrier_ms\": {:.3}, \
             \"pool_imbalance\": {:.3}{}}}{}\n",
            c.workload,
            c.machines,
            c.rounds,
            c.serial_ms,
            c.spawn_ms,
            c.pool_ms,
            c.speedup(),
            c.barrier_ms,
            c.imbalance,
            recovery,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(path, body).expect("write BENCH_exec.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_parser_round_trips_write_json() {
        let dir = std::env::temp_dir().join("hotpath_guard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_exec.json");
        let cases = vec![
            Case {
                workload: "ripple(r=50,w=600)".into(),
                machines: 9,
                rounds: 49,
                serial_ms: 1.5,
                spawn_ms: 3.0,
                pool_ms: 2.0,
                barrier_ms: 0.4,
                imbalance: 1.2,
                recovery_ratio: None,
            },
            Case {
                workload: "mst(n=1200,m=7200)".into(),
                machines: 42,
                rounds: 11,
                serial_ms: 10.0,
                spawn_ms: 12.0,
                pool_ms: 9.0,
                barrier_ms: 1.1,
                imbalance: 2.0,
                recovery_ratio: Some(0.05),
            },
        ];
        write_json(&path, true, 8, 2, &cases);
        let (mode, pool_threads, rows) = read_baseline(&path).expect("parse what we wrote");
        assert_eq!(mode, "quick");
        assert_eq!(pool_threads, 2);
        assert_eq!(rows.len(), 2);
        // The workload value itself contains commas — the parser must not
        // split on them.
        assert_eq!(rows[0].workload, "ripple(r=50,w=600)");
        assert_eq!(rows[0].machines, 9);
        assert!((rows[0].serial_ms - 1.5).abs() < 1e-9);
        assert!((rows[1].pool_ms - 9.0).abs() < 1e-9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ripple_is_deterministic_across_modes() {
        let (_, s, rs) = time_ripple(ExecMode::Serial, 6, 12, 50);
        let (_, p, rp) = time_ripple(ExecMode::Parallel, 6, 12, 50);
        let (_, c, rc) = time_ripple(ExecMode::SpawnPerRound, 6, 12, 50);
        assert_eq!((s, rs), (p, rp));
        assert_eq!((s, rs), (c, rc));
        // 12 program steps: sends at rounds 0..=10, halt at 11 — the final
        // wind-down round needs no exchange.
        assert_eq!(rs, 11);
    }
}
