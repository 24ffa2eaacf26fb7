//! What the host looked like when a row was measured: cores, pool threads,
//! revision, compiler, load. Printed with every row, because a pool ratio
//! taken on one core measures overhead, not speed-up.

use mpc_runtime::telemetry::{json_f64, json_string};
use std::process::{Command, Stdio};

/// Pool threads the harness pins every parallel leg to: the host's cores,
/// at most four.
pub fn pool_threads() -> usize {
    cores().min(4)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The header every output row carries.
#[derive(Clone, Debug)]
pub struct Host {
    pub cores: usize,
    pub pool_threads: usize,
    pub git_rev: String,
    pub rustc: String,
    /// 1-minute load average when the run started.
    pub load1: f64,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

impl Host {
    pub fn probe() -> Self {
        let unknown = || "unknown".to_string();
        Host {
            cores: cores(),
            pool_threads: pool_threads(),
            git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(unknown),
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(unknown),
            load1: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0.0),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"host_cores\": {}, \"pool_threads\": {}, \"git_rev\": {}, \"rustc\": {}, \
             \"load1\": {}}}",
            self.cores,
            self.pool_threads,
            json_string(&self.git_rev),
            json_string(&self.rustc),
            json_f64(self.load1)
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Clock ticks per second of the `/proc/stat` counters (`USER_HZ`).
pub const TICKS_PER_S: f64 = 100.0;

/// Ticks the hypervisor has so far withheld from this VM while it wanted to
/// run: the `steal` column of the first line of `/proc/stat`, 0 where there
/// is none.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}
