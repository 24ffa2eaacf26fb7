//! The repository benchmark. One binary, four ways to call it:
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run; last line is the result
//! benchmark all [--seed N] [--seconds S] [--trace] [--smoke]   every workload, each in its own process
//! benchmark selfcheck [--seed N] [--seconds S] [--smoke]       the full set twice; do the two agree?
//! benchmark golden                                             rewrite golden.json at the default seed
//! ```
//!
//! See `README.md` beside this crate for the metric and workload tables.

mod golden;
mod host;
mod metrics;
mod micro;
mod probes;
mod run;
mod spans;
mod stats;
mod verify;
mod workloads;

use golden::Golden;
use metrics::{Clock, MetricDef};
use mpc_runtime::telemetry::{json_string, parse_json, JsonValue};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::Size;

/// Seconds one run measures when the caller does not say (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

/// Seconds per run of the smoke set (the whole set stays under 20 s).
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            command: None,
            workload: None,
            seed: golden::SEED,
            seconds: None,
            trace: false,
            smoke: false,
        };
        while let Some(arg) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
            match arg.as_str() {
                "--workload" => args.workload = Some(value("a name")?),
                "--seed" => {
                    args.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let s: f64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.0..=600.0).contains(&s) {
                        return Err("--seconds must lie in 0..=600".into());
                    }
                    args.seconds = Some(s);
                }
                // `--trace 0|1` in a single run, a bare flag for `all`.
                "--trace" if args.command.is_none() => {
                    args.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--trace" => args.trace = true,
                "--smoke" => args.smoke = true,
                "all" | "selfcheck" | "golden" if args.command.is_none() => {
                    args.command = Some(arg)
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(args)
    }

    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// What the parent keeps of one child run.
struct ChildRun {
    ok: bool,
    /// The child's detail row, verbatim.
    detail: String,
    /// The child's contract line, parsed.
    result: JsonValue,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn golden(&self) -> Result<Golden, String> {
        let detail = parse_json(&self.detail)?;
        Golden::from_json(
            detail
                .get("golden")
                .ok_or("detail row has no golden object")?,
        )
    }
}

/// Runs one workload in a process of its own and waits for it.
fn child(workload: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let out = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or(format!("{workload}: no output"))?;
    let detail = lines.next().ok_or(format!("{workload}: no detail row"))?;
    Ok(ChildRun {
        ok: out.status.success(),
        detail: detail.to_string(),
        result: parse_json(last).map_err(|e| format!("{workload}: result line: {e}"))?,
    })
}

/// One workload in this process: detail row, then the contract's line.
fn single(workload: &str, args: &Args) -> ExitCode {
    let opts = run::Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        size: args.size(),
    };
    match run::run(&opts) {
        Ok(outcome) => {
            for failure in &outcome.checks.failures {
                eprintln!("FAILED: {failure}");
            }
            println!("{}", outcome.detail);
            println!("{}", outcome.contract_line());
            if outcome.checks.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Every workload, one JSON object per workload on stdout.
fn all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for name in workloads::NAMES {
        let untraced = child(name, args, false)?;
        ok &= untraced.ok;
        let traced = if args.trace {
            let run = child(name, args, true)?;
            ok &= run.ok;
            run.detail
        } else {
            "null".to_string()
        };
        println!(
            "{{\"workload\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            json_string(name),
            untraced.detail,
            traced
        );
    }
    Ok(ok)
}

/// Whether two medians of one metric agree: simulated figures exactly (to
/// 1e-9 relative, for the one that is a float), host figures within
/// `bound` of the smaller; ungated host figures always.
fn agree(m: &MetricDef, a: f64, b: f64) -> bool {
    let gap = (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE);
    match (m.clock, m.bound) {
        (Clock::Simulated, _) => a == b || gap <= 1e-9,
        (Clock::Host, Some(bound)) => gap <= bound,
        (Clock::Host, None) => true,
    }
}

/// The full set twice, the second time in reverse order; prints both
/// medians of every (metric, workload) pair and says whether they agree.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<BTreeMap<(&str, bool), ChildRun>> = Vec::new();
    let mut ok = true;
    for reverse in [false, true] {
        let mut order = workloads::NAMES.to_vec();
        if reverse {
            order.reverse();
        }
        let mut set = BTreeMap::new();
        for name in order {
            for trace in [false, true] {
                let run = child(name, args, trace)?;
                ok &= run.ok;
                set.insert((name, trace), run);
            }
        }
        sets.push(set);
    }
    println!(
        "| workload | metric | unit | clock | first | second | second/first | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for name in workloads::NAMES {
        for (trace, catalogue) in [(false, metrics::end_to_end()), (true, metrics::per_layer())] {
            for m in catalogue {
                let first = sets[0][&(name, trace)].metric(&m.name);
                let second = sets[1][&(name, trace)].metric(&m.name);
                let (Some(a), Some(b)) = (first, second) else {
                    println!("| {name} | {} | {} | | | | | | MISSING |", m.name, m.unit);
                    ok = false;
                    continue;
                };
                let fine = agree(&m, a, b);
                ok &= fine;
                // Ungated host metrics that agree are left out of the table.
                if m.clock == Clock::Host && m.bound.is_none() {
                    continue;
                }
                println!(
                    "| {name} | {} | {} | {} | {a} | {b} | {:.4} | {} | {} |",
                    m.name,
                    m.unit,
                    m.clock.as_str(),
                    if a == 0.0 { 1.0 } else { b / a },
                    m.bound.map_or("exact".to_string(), |x| match m.clock {
                        Clock::Simulated => "exact".to_string(),
                        Clock::Host => format!("{x}"),
                    }),
                    if fine { "ok" } else { "DISAGREE" }
                );
            }
        }
    }
    Ok(ok)
}

/// Re-takes `golden.json` from one short run per workload at the default
/// seed. A child that fails only its golden checks still reports what it
/// measured; that is what gets written.
fn rewrite_golden(args: &Args) -> Result<bool, String> {
    let args = Args {
        command: None,
        workload: None,
        seed: golden::SEED,
        seconds: Some(args.seconds.unwrap_or(0.0)),
        trace: false,
        smoke: false,
    };
    let mut entries = BTreeMap::new();
    for name in workloads::NAMES {
        entries.insert(name.to_string(), child(name, &args, false)?.golden()?);
    }
    let path = golden::path();
    std::fs::write(&path, golden::render(&entries))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(true)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: see benchmark/README.md");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_deref(), &args.workload) {
        (None, Some(workload)) => return single(workload, &args),
        (Some("all"), None) => all(&args),
        (Some("selfcheck"), None) => selfcheck(&args),
        (Some("golden"), None) => rewrite_golden(&args),
        _ => Err("give --workload NAME, or one of: all, selfcheck, golden".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_contract_call_parses() {
        let args = parse("--workload faulted --seed 11 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("faulted"));
        assert_eq!((args.seed, args.seconds(), args.trace), (11, 10.0, true));
        assert!(args.command.is_none() && args.size() == Size::Full);
    }

    #[test]
    fn subcommands_take_a_bare_trace_flag_and_default_the_seed() {
        let args = parse("all --trace --smoke").unwrap();
        assert_eq!(args.command.as_deref(), Some("all"));
        assert!(args.trace && args.size() == Size::Smoke);
        assert_eq!((args.seed, args.seconds()), (golden::SEED, SMOKE_SECONDS));
    }

    #[test]
    fn malformed_calls_are_refused() {
        for line in [
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--workload",
            "frobnicate",
            "--seconds 1e9",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn agreement_is_exact_for_simulated_and_bounded_for_host() {
        let e2e = metrics::end_to_end();
        let by_name = |n: &str| e2e.iter().find(|m| m.name == n).unwrap();
        let rounds = by_name("sim_rounds");
        assert!(agree(rounds, 1332.0, 1332.0));
        assert!(!agree(rounds, 1332.0, 1333.0));
        let wall = by_name("wall_serial_s");
        assert!(agree(wall, 1.00, 1.24) && agree(wall, 1.24, 1.00));
        assert!(!agree(wall, 1.00, 1.27));
        let ungated = &metrics::per_layer()[0];
        assert!(agree(ungated, 1.0, 9.0));
    }
}
