//! `mpc-trace` turns bad input away with an exit code — 2 and the usage
//! line for a bad argument, 1 for an invalid trace — instead of panicking.

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
