//! CLI: run any registry algorithm with telemetry attached and print the
//! straggler/imbalance report; optionally export a Perfetto trace.
//!
//! ```text
//! cargo run -p mpc-bench --release --bin mpc-trace -- --list
//! cargo run -p mpc-bench --release --bin mpc-trace -- mst --profile straggler
//! cargo run -p mpc-bench --release --bin mpc-trace -- all --profile proportional --n 256
//! cargo run -p mpc-bench --release --bin mpc-trace -- connectivity --trace out.json
//! #   out.json loads in ui.perfetto.dev / chrome://tracing
//! cargo run -p mpc-bench --release --bin mpc-trace -- mst --jsonl out.jsonl
//! cargo run -p mpc-bench --release --bin mpc-trace -- --validate out.jsonl
//! ```

use mpc_bench::experiments::{
    budgets_graph, cost_profile, diverged, drain, preferred, solo, zero_replicas,
};
use mpc_exec::{registry, ExecMode, JobParams, JobRetryPolicy, RunReport};
use mpc_graph::Graph;
use mpc_runtime::telemetry::{perfetto_export, validate_jsonl};
use mpc_runtime::{Cluster, FanoutSink, FaultPlan, JsonlSink, RingSink, TraceSink};
use std::sync::Arc;

const USAGE: &str =
    "usage: mpc-trace [NAME|all|service] [--profile uniform|straggler|proportional] \
                     [--n N] [--mode serial|pool] [--faults SEED] [--trace out.json] \
                     [--jsonl out.jsonl] [--validate file.jsonl] [--list]";

struct Opts {
    /// The positional target: a registry name, `all` or `service`.
    target: Option<String>,
    profile: String,
    n: usize,
    mode: ExecMode,
    faults: Option<u64>,
    trace: Option<String>,
    jsonl: Option<String>,
}

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn number<T: std::str::FromStr<Err = std::num::ParseIntError>>(flag: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|e| fail(&format!("{flag}: {e}")))
}

/// `--validate FILE`: exits 0 when every line is a schema-valid event, 1
/// otherwise.
fn validate(path: &str) -> ! {
    let body =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    match validate_jsonl(&body) {
        Ok(count) => println!("{path}: {count} events, all schema-valid"),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

/// Parses the command line; returns the options and the registry names to
/// run (none for the `service` target).
fn parse_args() -> (Opts, Vec<&'static str>) {
    let mut opts = Opts {
        target: None,
        profile: "straggler".to_string(),
        n: 256,
        mode: ExecMode::Parallel,
        faults: None,
        trace: None,
        jsonl: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--list" => {
                println!("{}", registry::names().join("\n"));
                std::process::exit(0);
            }
            "--validate" => validate(&value("--validate")),
            "--profile" => opts.profile = value("--profile"),
            "--n" => opts.n = number("--n", value("--n")),
            "--mode" => {
                opts.mode = match value("--mode").as_str() {
                    "serial" => ExecMode::Serial,
                    "pool" => ExecMode::Parallel,
                    other => fail(&format!("unknown mode '{other}' (serial|pool)")),
                };
            }
            "--faults" => opts.faults = Some(number("--faults", value("--faults"))),
            "--trace" => opts.trace = Some(value("--trace")),
            "--jsonl" => opts.jsonl = Some(value("--jsonl")),
            other if !other.starts_with('-') && opts.target.is_none() => opts.target = Some(arg),
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    if !matches!(
        opts.profile.as_str(),
        "uniform" | "straggler" | "proportional"
    ) {
        fail(&format!("unknown profile '{}'", opts.profile));
    }
    // The workload is gnm(n, 6n), which needs 6n ≤ n(n−1)/2.
    if opts.n < 13 {
        fail(&format!(
            "--n must be at least 13 (gnm(n, 6n) needs it), got {}",
            opts.n
        ));
    }
    let names = match opts.target.as_deref() {
        Some("service") => Vec::new(),
        None | Some("all") => registry::names(),
        Some(one) => match registry::get(one) {
            Some(algo) => vec![algo.name],
            None => fail(&format!(
                "unknown target '{one}'; registered: {} (or 'service')",
                registry::names().join(", ")
            )),
        },
    };
    if opts.trace.is_some() && names.len() > 1 {
        fail("--trace needs a single algorithm NAME (tracks would overlap across runs)");
    }
    (opts, names)
}

/// The trace sink of a reported run: the report's ring, teed into the
/// `--jsonl` stream when there is one.
fn tee(jsonl: &Option<Arc<JsonlSink>>, ring: &Arc<RingSink>) -> Arc<dyn TraceSink> {
    match jsonl {
        Some(j) => Arc::new(FanoutSink::new(vec![j.clone(), ring.clone()])),
        None => ring.clone(),
    }
}

/// With `--trace`, writes the report's Perfetto export.
fn export(opts: &Opts, report: &RunReport) {
    if let Some(path) = &opts.trace {
        std::fs::write(path, perfetto_export(&report.events))
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!(
            "perfetto trace ({} events) written to {path}",
            report.events.len()
        );
    }
}

/// The `service` target: drains the standard six-tenant mixed queue
/// ([`mpc_bench::experiments::SERVICE_JOBS`]) and prints the straggler
/// report plus a per-job quarantine/retry breakdown. With `--faults SEED`
/// a seeded small-machine crash is injected under a **zero-replica**
/// recovery policy, making it job-fatal: the service must quarantine the
/// culprit tenant, re-admit it on its two-admission retry budget, and keep
/// every surviving tenant bit-identical to the fault-free drain — any
/// divergence exits 1.
fn run_service(opts: &Opts, g: &Arc<Graph>, jsonl: &Option<Arc<JsonlSink>>) {
    let retry = JobRetryPolicy {
        max_attempts: 2,
        backoff_rounds: 1,
    };
    let cost = |c: &Cluster| cost_profile(&opts.profile, c);
    let run = |plan, sink| {
        drain(g, retry, &cost, plan, sink, opts.mode)
            .unwrap_or_else(|e| fail(&format!("service drain: {e}")))
    };
    // Fault-free preflight learns the round count (to scope the seeded
    // crash) and the per-tenant digests recovery must reproduce.
    let clean = run(None, None);
    let plan = opts.faults.map(|seed| {
        let (smalls, rounds) = (clean.cluster.small_ids(), clean.cluster.rounds());
        FaultPlan::seeded_single_crash(seed, &smalls, rounds).with_policy(zero_replicas())
    });
    for f in plan.iter().flat_map(FaultPlan::faults) {
        println!(
            "\nservice: injecting {} ({}) with zero peer replicas — job-fatal",
            f.kind(),
            f.detail()
        );
    }
    let ring = Arc::new(RingSink::unbounded());
    let traced = run(plan.clone(), Some(tee(jsonl, &ring)));
    let report = RunReport::from_events("service", ring.take(), traced.cluster.cost_model());
    println!("\n{}", report.render());
    println!("### per-job breakdown\n");
    println!("job  name              attempts  status             admitted  completed");
    for (r, (status, _)) in traced.records.iter().zip(&traced.outcomes) {
        println!(
            "{:>3}  {:<16}  {:>8}  {:<17}  {:>8}  {:>9}",
            r.job,
            r.name,
            r.attempts,
            format!("{status:?}"),
            r.admitted_round,
            r.completed_round
        );
    }
    let diverged = diverged(&traced.outcomes, &clean.outcomes);
    for name in &diverged {
        eprintln!("service: surviving tenant {name} DIVERGED from the fault-free drain");
    }
    if !diverged.is_empty() {
        std::process::exit(1);
    }
    if plan.is_some() {
        println!("\nall surviving tenants are bit-identical to the fault-free drain");
    }
    export(opts, &report);
}

/// Runs one registry name with the report attached. With `--faults SEED`
/// a fault-free preflight learns the round count (to place the seeded
/// crash mid-run) and the digest recovery must reproduce; a divergence
/// exits 1.
fn run_name(opts: &Opts, name: &str, g: &Graph, jsonl: &Option<Arc<JsonlSink>>) {
    let run = |mode, prepare: Option<&dyn Fn(&mut Cluster)>| {
        solo(
            name,
            g,
            preferred(name, g, 5),
            JobParams::default(),
            mode,
            prepare,
        )
    };
    let clean = opts.faults.map(|seed| {
        let pre = run(ExecMode::Serial, None)
            .unwrap_or_else(|e| fail(&format!("{name} (fault-free preflight): {e}")));
        let plan = FaultPlan::seeded_single_crash(seed, &pre.cluster.small_ids(), pre.rounds);
        (pre.digest, plan)
    });
    for f in clean.iter().flat_map(|(_, plan)| plan.faults()) {
        println!("\n{name}: injecting {} ({})", f.kind(), f.detail());
    }
    let ring = Arc::new(RingSink::unbounded());
    let prepare = |c: &mut Cluster| {
        c.set_cost_model(cost_profile(&opts.profile, c));
        c.set_fault_plan(clean.as_ref().map(|(_, plan)| plan.clone()));
        c.set_trace_sink(Some(tee(jsonl, &ring)));
    };
    let run = run(opts.mode, Some(&prepare)).unwrap_or_else(|e| fail(&format!("{name}: {e}")));
    let report = RunReport::from_events(name, ring.take(), run.cluster.cost_model());
    println!("\n{}", report.render());
    if let Some((clean_digest, _)) = &clean {
        if run.digest == *clean_digest {
            println!("recovered result is bit-identical to the fault-free run");
        } else {
            eprintln!("{name}: recovered digest DIVERGED from the fault-free run");
            std::process::exit(1);
        }
    }
    export(opts, &report);
}

fn main() {
    let (opts, names) = parse_args();
    let g = Arc::new(budgets_graph(opts.n));
    let jsonl = opts.jsonl.as_ref().map(|path| {
        Arc::new(
            JsonlSink::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}"))),
        )
    });
    println!(
        "# mpc-trace — profile {}, n = {}, m = {}, mode {:?}",
        opts.profile,
        g.n(),
        g.m(),
        opts.mode
    );
    if opts.target.as_deref() == Some("service") {
        run_service(&opts, &g, &jsonl);
    }
    for name in names {
        run_name(&opts, name, &g, &jsonl);
    }
    if let (Some(sink), Some(path)) = (&jsonl, &opts.jsonl) {
        sink.flush();
        println!("\njsonl event log written to {path}");
    }
}
