//! `mpc-trace` turns bad input away with an exit code — 2 and the usage
//! line for a bad argument, 1 for an invalid trace — instead of panicking,
//! and a faulted run writes a schema-valid JSONL log and a Perfetto
//! document that shows the crash and its recovery.

use mpc_runtime::telemetry::{parse_json, validate_jsonl, JsonValue};
use std::process::{Command, Output};

fn mpc_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpc-trace"))
        .args(args)
        .output()
        .expect("run mpc-trace")
}

#[test]
fn n_below_thirteen_exits_with_the_usage_line() {
    for n in ["1", "4", "12"] {
        let out = mpc_trace(&["connectivity", "--n", n]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--n {n}: {stderr}");
        assert!(stderr.contains("usage: mpc-trace"), "--n {n}: {stderr}");
    }
}

#[test]
fn validate_rejects_deep_nesting_without_overflowing_the_stack() {
    let name = format!("mpc-trace-deep-{}.jsonl", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, format!("{}\n", "[".repeat(100_000))).expect("write the trace");
    let out = mpc_trace(&["--validate", path.to_str().expect("UTF-8 temp path")]);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn faulted_run_writes_a_valid_log_and_a_trace_with_the_recovery() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("mpc-trace-cli-{}.json", std::process::id()));
    let jsonl = dir.join(format!("mpc-trace-cli-{}.jsonl", std::process::id()));
    let path = |p: &std::path::Path| p.to_str().expect("UTF-8 temp path").to_string();
    let out = mpc_trace(&[
        "mst",
        "--faults",
        "3",
        "--mode",
        "serial",
        "--n",
        "64",
        "--trace",
        &path(&trace),
        "--jsonl",
        &path(&jsonl),
    ]);
    let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("read the output");
    let (doc, log) = (read(&trace), read(&jsonl));
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&jsonl).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    validate_jsonl(&log).expect("the JSONL log is schema-valid");
    let doc = parse_json(&doc).expect("the Perfetto document parses");
    let instants: Vec<&str> = (doc.get("traceEvents").and_then(JsonValue::as_arr))
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for title in ["fault:crash", "quarantine machine", "recover machine"] {
        assert!(
            instants.iter().any(|name| name.starts_with(title)),
            "no {title} instant among {instants:?}"
        );
    }
}
