//! One workload, start to finish: set-up, reference passes, the timed
//! loop, the correctness gate, and — when asked — the traced run.

use crate::golden::{self, Golden};
use crate::host::{self, Host};
use crate::metrics::{self, MetricDef};
use crate::probes::{self, Metrics};
use crate::spans::{self, Tracer};
use crate::stats::{self, Summary};
use crate::verify::Checks;
use crate::workloads::{self, Pass, Size, Workload};
use mpc_exec::ExecMode;
use mpc_runtime::telemetry::{json_f64, json_string};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up samples per run; `setup_s` is their median. Fewer are taken when
/// `--seconds` leaves room for fewer timed passes.
const SETUPS: usize = 5;

/// Shortest set-up sample worth timing, and the most repeats spent on it.
const MIN_SETUP_SAMPLE_S: f64 = 40e-3;
const MAX_SETUP_REPS: usize = 20_000;

/// A timed pass or set-up sample during which the hypervisor withheld more
/// than this share of wall-clock from the VM (`steal` in `/proc/stat`) is
/// measured again: on the box this was written on, steal came in bursts of
/// tens of seconds that slowed whole runs by up to 3.4×.
const STEAL_SHARE: f64 = 0.02;

/// How long past twice its time a timed loop may go on re-measuring
/// disturbed passes, and how often one set-up sample is retaken.
const STEAL_GRACE_S: f64 = 3.0;
const STEAL_RETRIES: usize = 3;

fn disturbed(stolen_ticks: u64, wall_s: f64) -> bool {
    stolen_ticks as f64 > STEAL_SHARE * wall_s * host::TICKS_PER_S
}

/// Fewest timed passes per mode, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Share of `--seconds` a traced run spends on untraced passes, per mode
/// (the base of `trace.overhead_ratio` and `exec.pool_speedup`); the rest
/// of its time goes to the traced passes and the probes.
const TRACED_RUN_SHARE: f64 = 0.2;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// What one run found: the contract's four fields plus the detail row.
pub struct Outcome {
    pub checks: Checks,
    /// `(definition, value)` of every metric of the requested kind.
    pub metrics: Vec<(MetricDef, f64)>,
    /// One JSON object: host header, every metric with quartiles and unit.
    pub detail: String,
}

impl Outcome {
    /// The last line the contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_f64(*v),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn one_pass(w: &dyn Workload, mode: ExecMode, threads: usize, tr: &mut Tracer) -> Pass {
    // Registry runs build their own executors; this is how they are pinned.
    std::env::set_var("MPC_POOL_THREADS", threads.to_string());
    tr.next_run();
    let prepared = w.prepare(threads, tr);
    w.run(prepared, mode, tr)
}

/// Digests, round counts and simulated figures must repeat exactly.
fn same_results(a: &Pass, b: &Pass) -> bool {
    let schedule = |p: &Pass| -> Vec<(u64, usize, u64, u64, bool, u32)> {
        p.records
            .iter()
            .map(|r| {
                (
                    r.job,
                    r.shares,
                    r.admitted_round,
                    r.completed_round,
                    r.failed,
                    r.attempts,
                )
            })
            .collect()
    };
    a.items == b.items
        && a.sim.same_as(&b.sim)
        && a.drain_rounds == b.drain_rounds
        && schedule(a) == schedule(b)
}

fn digest_of(pass: &Pass) -> u128 {
    pass.items
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |acc: u128, item| {
            (acc ^ item.digest).wrapping_mul(0x0100_0000_01b3) ^ item.rounds as u128
        })
}

/// Job latency in service rounds: submission is round 0, so the round a
/// job completed on includes its wait in the queue.
struct Schedule {
    job_rounds: Vec<f64>,
    admit_wait: Vec<f64>,
    run_rounds: Vec<f64>,
    attempts: u64,
    quarantined: u64,
}

impl Schedule {
    fn of(pass: &Pass) -> Self {
        let col = |f: fn(&mpc_exec::JobRecord) -> u64| -> Vec<f64> {
            pass.records.iter().map(|r| f(r) as f64).collect()
        };
        Schedule {
            job_rounds: col(|r| r.completed_round),
            admit_wait: col(|r| r.admitted_round),
            run_rounds: col(|r| r.rounds),
            attempts: pass.records.iter().map(|r| r.attempts as u64).sum(),
            quarantined: pass
                .records
                .iter()
                .filter(|r| r.attempts > 1 || r.failed)
                .count() as u64,
        }
    }

    /// The 90th percentile, or the highest one below it that still has ten
    /// samples beyond; the median when there are too few jobs for any.
    fn tail(samples: &[f64]) -> f64 {
        let p = stats::highest_tail(samples.len()).map_or(50.0, |p| p.min(90.0));
        stats::percentile(samples, p)
    }
}

fn golden_of(pass: &Pass) -> Golden {
    let schedule = Schedule::of(pass);
    Golden {
        digest: digest_of(pass),
        sim_rounds: pass.sim.rounds,
        wire_words: pass.sim.wire_words,
        job_rounds_p50: stats::percentile(&schedule.job_rounds, 50.0) as u64,
        job_rounds_p90: Schedule::tail(&schedule.job_rounds) as u64,
        drain_rounds: pass.drain_rounds,
    }
}

/// Runs workload `opts.workload` once, as the contract describes.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let host = Host::probe();
    let threads = host.pool_threads;
    // A pool "ratio" taken on one core measures overhead, not speed-up.
    let pool_on = host.cores >= 2;
    if !pool_on {
        eprintln!("note: 1 core — pool passes and every pool metric are withheld");
    }
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(opts.trace);
    let mut checks = Checks::default();

    // Set-up is sampled several times: once before the first pass, then
    // between timed passes, so that a burst of interference cannot sit on
    // every sample. A set-up of microseconds is repeated within a sample
    // until the sample is long enough to time; the sample is the mean.
    let set_up = || -> Result<Box<dyn Workload>, String> {
        let w = workloads::build(
            &opts.workload,
            opts.seed,
            opts.size,
            &mut Tracer::new(false),
        )
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
        drop(w.prepare(threads, &mut Tracer::new(false)));
        Ok(w)
    };
    let started = Instant::now();
    set_up()?;
    let reps = ((MIN_SETUP_SAMPLE_S / started.elapsed().as_secs_f64()).ceil() as usize)
        .clamp(1, MAX_SETUP_REPS);
    let discarded = std::cell::Cell::new(0usize);
    let sample_setup = || -> Result<(Box<dyn Workload>, f64), String> {
        let mut tries = 0;
        loop {
            let (stolen, started) = (host::steal_ticks(), Instant::now());
            let mut w = set_up()?;
            for _ in 1..reps {
                w = set_up()?;
            }
            let whole_s = started.elapsed().as_secs_f64();
            tries += 1;
            if !disturbed(host::steal_ticks() - stolen, whole_s) || tries > STEAL_RETRIES {
                return Ok((w, whole_s / reps as f64));
            }
            discarded.set(discarded.get() + 1);
        }
    };
    let (w, first) = sample_setup()?;
    let w = w.as_ref();
    let mut setup_s = vec![first];

    // The reference pass warms the caches; its outputs are the ones every
    // later pass must repeat and the validity checks read.
    let serial_ref = one_pass(w, ExecMode::Serial, threads, &mut off);

    // The timed loop: closed, one pass after another until the time is up.
    // Every end-to-end figure comes from these serial passes; memory is
    // read before the first pool thread exists, so it repeats too.
    let budget = if opts.trace {
        opts.seconds * TRACED_RUN_SHARE
    } else {
        opts.seconds
    };
    let mut timed_loop = |mode: ExecMode, reference: &Pass| -> Result<Vec<f64>, String> {
        let mut walls = Vec::new();
        let started = Instant::now();
        while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget {
            let (stolen, pass_started) = (host::steal_ticks(), Instant::now());
            let pass = one_pass(w, mode, threads, &mut Tracer::new(false));
            let whole_s = pass_started.elapsed().as_secs_f64();
            checks.check(same_results(&pass, reference), || {
                format!(
                    "{mode:?} pass {} differs from the reference pass",
                    walls.len() + 1
                )
            });
            // A pass the hypervisor interrupted is measured again, while
            // the run can afford it.
            if disturbed(host::steal_ticks() - stolen, whole_s)
                && started.elapsed().as_secs_f64() < 2.0 * budget + STEAL_GRACE_S
            {
                discarded.set(discarded.get() + 1);
                continue;
            }
            walls.push(pass.wall_s);
            if setup_s.len() < SETUPS {
                setup_s.push(sample_setup()?.1);
            }
        }
        Ok(walls)
    };
    let serial_walls = timed_loop(ExecMode::Serial, &serial_ref)?;
    let peak_rss_mb = host::peak_rss_mib();

    // One pool pass is the serial == pool gate. Its wall is a per-layer
    // figure (`exec.pool_wall_s`), so only a traced run times more of them.
    let pool_ref = pool_on.then(|| one_pass(w, ExecMode::Parallel, threads, &mut off));
    let pool_walls = match &pool_ref {
        Some(reference) if opts.trace => timed_loop(ExecMode::Parallel, reference)?,
        _ => Vec::new(),
    };

    // The correctness gate.
    if let Some(pool) = &pool_ref {
        for (s, p) in serial_ref.items.iter().zip(&pool.items) {
            checks.check(s == p, || {
                format!("{}: serial and pool disagree on digest or rounds", s.name)
            });
        }
        checks.check(same_results(&serial_ref, pool), || {
            "serial and pool disagree on the simulated figures or the schedule".to_string()
        });
    }
    tr.next_run();
    w.validate(&serial_ref, &mut tr, &mut checks);
    let measured = golden_of(&serial_ref);
    if opts.seed == golden::SEED && opts.size == Size::Full {
        match golden::load(&opts.workload) {
            Ok(want) => measured.check_against(&want, &opts.workload, &mut checks),
            Err(e) => checks.check(false, || e),
        }
    }

    let serial = stats::summarize(&serial_walls);
    let pool = stats::summarize(&pool_walls);
    let (items, item_kind) = w.items();
    let mut summaries: BTreeMap<&str, Summary> = BTreeMap::new();
    summaries.insert("setup_s", stats::summarize(&setup_s));
    summaries.insert("wall_serial_s", serial);
    let rates: Vec<f64> = serial_walls.iter().map(|s| items as f64 / s).collect();
    summaries.insert("items_per_s", stats::summarize(&rates));
    if !pool_walls.is_empty() {
        summaries.insert("exec.pool_wall_s", pool);
    }

    let mut values: Metrics = BTreeMap::new();
    for (name, s) in &summaries {
        values.insert(name.to_string(), s.median);
    }
    values.insert("peak_rss_mb".into(), peak_rss_mb);
    values.insert("sim_rounds".into(), serial_ref.sim.rounds as f64);
    values.insert("sim_makespan_s".into(), serial_ref.sim.makespan_s);
    values.insert("wire_words".into(), serial_ref.sim.wire_words as f64);

    let catalogue = if opts.trace {
        traced_run(
            opts,
            w,
            threads,
            pool_on,
            &serial_ref,
            serial,
            pool,
            &mut tr,
            &mut checks,
            &mut values,
        )?;
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    values.insert("fail_share".into(), checks.fail_share());

    let metrics: Vec<(MetricDef, f64)> = catalogue
        .into_iter()
        .map(|m| {
            let v = values.get(&m.name).copied().unwrap_or(0.0);
            (m, v)
        })
        .collect();
    let rows: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let spread = summaries.get(m.name.as_str()).map_or(String::new(), |s| {
                format!(
                    ", \"q1\": {}, \"q3\": {}, \"min\": {}, \"n\": {}",
                    json_f64(s.q1),
                    json_f64(s.q3),
                    json_f64(s.min),
                    s.n
                )
            });
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"clock\": \"{}\"{}}}",
                json_string(&m.name),
                json_f64(*v),
                json_string(m.unit),
                m.clock.as_str(),
                spread
            )
        })
        .collect();
    let failures: Vec<String> = checks.failures.iter().map(|f| json_string(f)).collect();
    let detail = format!(
        "{{\"workload\": {}, \"why\": {}, \"traced\": {}, \"seed\": {}, \"size\": \"{:?}\", \"host\": {}, \
         \"passes\": {{\"setup\": {}, \"serial\": {}, \"pool\": {}, \"discarded\": {}}}, \"items\": {{\"count\": {}, \
         \"kind\": \"{}\"}}, \"golden\": {}, \"checks\": {{\"attempted\": {}, \"failed\": {}, \
         \"failures\": [{}]}}, \"metrics\": {{{}}}}}",
        json_string(&opts.workload),
        json_string(workloads::why(&opts.workload)),
        opts.trace,
        opts.seed,
        opts.size,
        host.to_json(),
        setup_s.len(),
        serial_walls.len(),
        pool_walls.len(),
        discarded.get(),
        items,
        item_kind,
        measured.to_json(),
        checks.attempted,
        checks.failed,
        failures.join(", "),
        rows.join(", ")
    );
    Ok(Outcome {
        checks,
        metrics,
        detail,
    })
}

/// The traced run: one pass per mode with spans and sinks on, the pool at
/// other thread counts, and the direct layer probes. Fills `values` with
/// every per-layer metric it can measure; the rest read 0.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    opts: &Options,
    w: &dyn Workload,
    threads: usize,
    pool_on: bool,
    serial_ref: &Pass,
    serial: Summary,
    pool: Summary,
    tr: &mut Tracer,
    checks: &mut Checks,
    values: &mut Metrics,
) -> Result<(), String> {
    let mut off = Tracer::new(false);

    // Set-up again, under spans.
    let setup_run = tr.next_run();
    let traced_w = workloads::build(&opts.workload, opts.seed, opts.size, tr)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    drop(traced_w);

    let traced_serial = one_pass(w, ExecMode::Serial, threads, tr);
    let serial_run = tr.run_id();
    checks.check(same_results(&traced_serial, serial_ref), || {
        "the traced serial pass differs from the untraced reference".to_string()
    });
    let traced_pool = pool_on.then(|| one_pass(w, ExecMode::Parallel, threads, tr));

    let sim = &serial_ref.sim;
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    let self_s = |run, pick: &dyn Fn(&str) -> bool| spans::self_seconds(tr.spans(), run, pick);
    put(
        "graph.generate_s",
        self_s(setup_run, &|n| n == "setup.generate"),
    );
    put(
        "core.distribute_s",
        self_s(setup_run, &|n| n == "setup.distribute"),
    );
    for span in tr.spans().iter().filter(|s| s.run == serial_run) {
        if let Some(name) = span.name.strip_prefix("item.") {
            put(
                &format!("exec.item_s.{name}"),
                self_s(serial_run, &|n| n == span.name),
            );
        }
    }
    // Every span of the timed region; what is left of the wall is glue.
    let timed_cover = self_s(serial_run, &|n| {
        n.starts_with("item.") || n == "service.run_on"
    });
    put("trace.item_cover", timed_cover / traced_serial.wall_s);
    put("trace.overhead_ratio", traced_serial.wall_s / serial.median);
    put("trace.events", traced_serial.folded.events as f64);
    put("exec.report_fold_s", traced_serial.folded.fold_s);

    put("runtime.messages", sim.messages as f64);
    put("runtime.max_round_words", sim.max_round_words as f64);
    put("runtime.violations", sim.violations as f64);
    put("runtime.peak_resident_ratio", sim.peak_resident_ratio);
    put("runtime.checkpoint_words", sim.checkpoint_words as f64);
    put(
        "runtime.faults_fired",
        traced_serial.folded.faults_fired as f64,
    );
    put(
        "runtime.recovery_rounds",
        traced_serial.folded.recovery_rounds as f64,
    );
    if sim.makespan_s > 0.0 {
        put(
            "runtime.recover_sim_share",
            traced_serial.folded.recover_sim_s / sim.makespan_s,
        );
    }
    put("exec.step_work", sim.step_work as f64);
    put(
        "exec.serial_round_us",
        serial.median * 1e6 / sim.rounds.max(1) as f64,
    );

    let schedule = Schedule::of(serial_ref);
    put(
        "job_rounds_p50",
        stats::percentile(&schedule.job_rounds, 50.0),
    );
    put("job_rounds_p90", Schedule::tail(&schedule.job_rounds));
    put("drain_rounds", serial_ref.drain_rounds as f64);
    put(
        "exec.admit_wait_rounds_p50",
        stats::percentile(&schedule.admit_wait, 50.0),
    );
    put(
        "exec.admit_wait_rounds_p90",
        Schedule::tail(&schedule.admit_wait),
    );
    put(
        "exec.run_rounds_p50",
        stats::percentile(&schedule.run_rounds, 50.0),
    );
    put("exec.attempts", schedule.attempts as f64);
    put("exec.quarantined", schedule.quarantined as f64);

    if let Some(traced_pool) = &traced_pool {
        let stats = &traced_pool.folded.pool;
        let workers = stats.workers().max(1) as f64;
        put(
            "exec.pool_round_us",
            pool.median * 1e6 / sim.rounds.max(1) as f64,
        );
        // Base: the serial median of the same run.
        put("exec.pool_speedup", serial.median / pool.median);
        // Per-worker means, so they sit beside wall-clock.
        put("exec.pool_busy_s", stats.total_busy_seconds() / workers);
        put("exec.pool_wait_s", stats.total_wait_seconds() / workers);
        put("exec.pool_imbalance", stats.imbalance());
        let total = |f: fn(&mpc_exec::pool::WorkerStats) -> u64| -> f64 {
            stats.per_worker.iter().map(f).sum::<u64>() as f64
        };
        put("exec.pool_idle_skips", total(|w| w.idle_skips));
        put("exec.pool_claims", total(|w| w.claimed));
        // The scaling curve: thread counts the host really has.
        for t in [1usize, 2, 4] {
            if t > host::cores() {
                continue;
            }
            let wall = if t == threads {
                pool.median
            } else {
                one_pass(w, ExecMode::Parallel, t, &mut off).wall_s
            };
            put(&format!("exec.pool_scaling.t{t}"), wall);
        }
    }

    // Direct layer probes.
    tr.next_run();
    probes::exchange(sim, tr, values);
    if let Some(g) = w.probe_graph() {
        if opts.workload == "sketch-heavy" {
            let wall = values
                .get("exec.item_s.connectivity")
                .copied()
                .unwrap_or(0.0);
            probes::sketch(g, opts.seed, wall, tr, checks, values);
        } else {
            probes::primitives_and_labeling(g, opts.seed, tr, values);
        }
    }
    if let Some((specs, config)) = w.drain_specs() {
        let digests: Vec<u128> = serial_ref.items.iter().map(|i| i.digest).collect();
        probes::mixed_vs_solo(specs, config, serial.median, &digests, tr, checks, values);
    }

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.spans.json", opts.workload));
    std::fs::write(&path, spans::to_json(tr.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        run(&Options {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.0,
            trace,
            size: Size::Smoke,
        })
        .expect("a known workload")
    }

    #[test]
    fn every_workload_passes_its_own_gate_at_smoke_size() {
        for name in workloads::NAMES {
            let outcome = smoke(name, false);
            assert!(
                outcome.checks.correct(),
                "{name}: {:?}",
                outcome.checks.failures
            );
            assert_eq!(outcome.metrics.len(), metrics::end_to_end().len());
            for (m, v) in &outcome.metrics {
                assert!(*v > 0.0, "{name}: {} is {v}", m.name);
            }
            let line = outcome.contract_line();
            let parsed = mpc_runtime::telemetry::parse_json(&line).expect("contract line parses");
            assert!(parsed
                .get("metrics")
                .and_then(|m| m.get("setup_s"))
                .is_some());
            mpc_runtime::telemetry::parse_json(&outcome.detail).expect("detail row parses");
        }
    }

    #[test]
    fn the_traced_run_prints_every_per_layer_metric_and_writes_spans() {
        let outcome = smoke("faulted", true);
        assert!(outcome.checks.correct(), "{:?}", outcome.checks.failures);
        let names: Vec<&str> = outcome
            .metrics
            .iter()
            .map(|(m, _)| m.name.as_str())
            .collect();
        let want: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|(m, _)| m.name == name)
                .unwrap()
                .1
        };
        assert!(value("runtime.faults_fired") >= 10.0);
        assert!(value("runtime.checkpoint_words") > 0.0);
        assert_eq!(value("exec.quarantined"), 1.0);
        assert_eq!(value("fail_share"), 0.0);
        assert!((value("trace.item_cover") - 1.0).abs() < 0.2);
        let spans = std::fs::read_to_string(out_dir().join("faulted.spans.json")).expect("spans");
        assert!(spans.contains("\"item.mst\"") && spans.contains("\"service.run_on\""));
    }

    #[test]
    fn unknown_workloads_are_an_error() {
        let opts = Options {
            workload: "nope".to_string(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            size: Size::Smoke,
        };
        assert!(run(&opts).is_err());
    }
}
