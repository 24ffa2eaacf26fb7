//! The committed golden file: per workload, the digest and the simulated
//! counts a run at the default seed and full size must reproduce exactly.
//! A change meant only to make the host faster leaves every line of it
//! untouched; that is the simulator rule the file enforces.

use crate::verify::Checks;
use mpc_runtime::telemetry::{json_string, parse_json, JsonValue};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed the golden file was taken at (and the CLI default).
pub const SEED: u64 = 7;

/// What one workload must reproduce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Golden {
    /// Fold of every item digest of a pass, in item order.
    pub digest: u128,
    pub sim_rounds: u64,
    pub wire_words: u64,
    pub job_rounds_p50: u64,
    pub job_rounds_p90: u64,
    pub drain_rounds: u64,
}

const COUNTS: [&str; 5] = [
    "sim_rounds",
    "wire_words",
    "job_rounds_p50",
    "job_rounds_p90",
    "drain_rounds",
];

impl Golden {
    fn counts(&self) -> [u64; 5] {
        [
            self.sim_rounds,
            self.wire_words,
            self.job_rounds_p50,
            self.job_rounds_p90,
            self.drain_rounds,
        ]
    }

    /// One JSON object; the digest is hex, since 128 bits do not fit a
    /// JSON number.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = COUNTS
            .iter()
            .zip(self.counts())
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        format!(
            "{{\"digest\": \"{:032x}\", {}}}",
            self.digest,
            counts.join(", ")
        )
    }

    pub fn from_json(value: &JsonValue) -> Result<Golden, String> {
        let hex = value
            .get("digest")
            .and_then(JsonValue::as_str)
            .ok_or("digest missing")?;
        let count = |key: &str| -> Result<u64, String> {
            let x = value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("{key} missing"))?;
            if x < 0.0 || x.fract() != 0.0 || x > 9.0e15 {
                return Err(format!("{key} is not a count"));
            }
            Ok(x as u64)
        };
        Ok(Golden {
            digest: u128::from_str_radix(hex, 16).map_err(|e| format!("digest: {e}"))?,
            sim_rounds: count("sim_rounds")?,
            wire_words: count("wire_words")?,
            job_rounds_p50: count("job_rounds_p50")?,
            job_rounds_p90: count("job_rounds_p90")?,
            drain_rounds: count("drain_rounds")?,
        })
    }

    /// Counts one check per golden field of `self` (measured) against
    /// `want` (committed).
    pub fn check_against(&self, want: &Golden, workload: &str, checks: &mut Checks) {
        checks.check(self.digest == want.digest, || {
            format!(
                "{workload}: digest {:032x}, golden {:032x}",
                self.digest, want.digest
            )
        });
        for ((key, got), want) in COUNTS.iter().zip(self.counts()).zip(want.counts()) {
            checks.check(got == want, || {
                format!("{workload}: {key} {got}, golden {want}")
            });
        }
    }
}

pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// The whole file: seed plus one object per workload, one per line.
pub fn render(workloads: &BTreeMap<String, Golden>) -> String {
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, g)| format!("    {}: {}", json_string(name), g.to_json()))
        .collect();
    format!(
        "{{\n  \"seed\": {SEED},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

pub fn parse(body: &str) -> Result<BTreeMap<String, Golden>, String> {
    let doc = parse_json(body)?;
    let JsonValue::Obj(rows) = doc.get("workloads").ok_or("workloads missing")? else {
        return Err("workloads is not an object".into());
    };
    rows.iter()
        .map(|(name, value)| {
            Golden::from_json(value)
                .map(|g| (name.clone(), g))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// The committed entry for `workload`.
pub fn load(workload: &str) -> Result<Golden, String> {
    let body = std::fs::read_to_string(path()).map_err(|e| format!("golden.json: {e}"))?;
    parse(&body)?
        .remove(workload)
        .ok_or(format!("golden.json has no entry for {workload}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BTreeMap<String, Golden> {
        BTreeMap::from([
            (
                "service-drain".to_string(),
                Golden {
                    digest: u128::MAX - 5,
                    sim_rounds: 1332,
                    wire_words: 9_876_543_210,
                    job_rounds_p50: 640,
                    job_rounds_p90: 1201,
                    drain_rounds: 1332,
                },
            ),
            (
                "round-heavy".to_string(),
                Golden {
                    digest: 1,
                    sim_rounds: 11_997,
                    ..Golden::default()
                },
            ),
        ])
    }

    #[test]
    fn golden_file_round_trips() {
        let want = sample();
        assert_eq!(parse(&render(&want)), Ok(want));
    }

    #[test]
    fn a_corrupted_digest_is_one_failed_check() {
        let want = sample();
        let mut got = want["service-drain"].clone();
        let mut checks = Checks::default();
        got.check_against(&want["service-drain"], "service-drain", &mut checks);
        assert_eq!((checks.attempted, checks.failed), (6, 0));
        got.digest ^= 1;
        got.check_against(&want["service-drain"], "service-drain", &mut checks);
        assert_eq!((checks.attempted, checks.failed), (12, 1));
        assert!(checks.failures[0].contains("digest"));
    }

    #[test]
    fn malformed_files_are_errors_not_panics() {
        assert!(parse("{").is_err());
        assert!(parse("{\"workloads\": 3}").is_err());
        assert!(parse("{\"workloads\": {\"x\": {\"digest\": \"zz\"}}}").is_err());
        assert!(
            parse("{\"workloads\": {\"x\": {\"digest\": \"0f\", \"sim_rounds\": 1.5}}}").is_err()
        );
    }

    #[test]
    fn the_committed_file_covers_every_workload() {
        let body = std::fs::read_to_string(path()).expect("golden.json is committed");
        let golden = parse(&body).expect("golden.json parses");
        for name in crate::workloads::NAMES {
            assert!(golden.contains_key(name), "{name} missing from golden.json");
        }
    }
}
