//! The metric catalogue: every name the harness prints, with its unit, its
//! clock and — for end-to-end metrics — the bound by which its median may
//! get worse before that counts as a regression. `BENCHMARK.json` lists the
//! same names; a unit test keeps the two in step.

use crate::micro;
use mpc_exec::registry::CANONICAL_NAMES;

/// Which clock a number was read from. The system is a simulator, so the
/// two never mix: host figures say what the simulator costs, simulated ones
/// what the modelled cluster costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock, memory or a host-side count: noisy.
    Host,
    /// Rounds, words or seconds of the modelled cluster: exact for a fixed
    /// seed, identical in every mode.
    Simulated,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

fn def(
    name: &str,
    unit: &'static str,
    clock: Clock,
    higher: bool,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        clock,
        higher_is_better: higher,
        bound,
    }
}

/// The end-to-end metrics, in print order.
///
/// The driver runs a workload ten times, each time with another seed, and
/// wants the quartile distance of every metric within its bound; the bounds
/// are three times the widest spread seen (README, "Why the bounds are what
/// they are"), and `setup_s` carries the largest. The simulated metrics are
/// exact for one seed — `selfcheck` and the golden file hold them to
/// equality — so their bounds only have to admit the variation between the
/// graphs of different seeds (`sim_rounds`: 8 against 9 rounds on
/// `sketch-heavy` is 12.5 %).
pub fn end_to_end() -> Vec<MetricDef> {
    use Clock::*;
    vec![
        def("setup_s", "s", Host, false, Some(0.25)),
        def("wall_serial_s", "s", Host, false, Some(0.25)),
        def("items_per_s", "1/s", Host, true, Some(0.25)),
        def("peak_rss_mb", "MiB", Host, false, Some(0.25)),
        def("sim_rounds", "count", Simulated, false, Some(0.15)),
        def("sim_makespan_s", "sim_s", Simulated, false, Some(0.2)),
        def("wire_words", "count", Simulated, false, Some(0.075)),
    ]
}

/// The per-layer metrics, in print order. Every workload prints all of
/// them; one that does not apply reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Clock::*;
    let host = |name: &str, unit, higher| def(name, unit, Host, higher, None);
    let sim = |name: &str, unit| def(name, unit, Simulated, false, None);
    let mut v = vec![
        // mpc-graph, mpc-core::common
        host("graph.generate_s", "s", false),
        host("core.distribute_s", "s", false),
        // mpc-sketch, probed directly on sketch-heavy's connectivity graph
        host("sketch.family_build_s", "s", false),
        host("sketch.update_ns", "ns", false),
        sim("sketch.updates", "count"),
        host("sketch.merge_ns_per_word", "ns", false),
        sim("sketch.merge_words", "count"),
        host("sketch.decode_ns", "ns", false),
        def("sketch.decode_hit_ratio", "ratio", Simulated, true, None),
        sim("sketch.words_per_vertex", "count"),
        host("sketch.field_mul_ns", "ns", false),
        host("sketch.hash_eval_ns", "ns", false),
        host("sketch.reference_s", "s", false),
        host("sketch.share", "ratio", false),
        // mpc-runtime
        host("runtime.exchange_ring_ns_per_msg", "ns", false),
        host("runtime.exchange_a2a_ns_per_word", "ns", false),
        sim("runtime.messages", "count"),
        sim("runtime.max_round_words", "count"),
        host("runtime.exchange_est_s", "s", false),
        host("runtime.sample_sort_s", "s", false),
        host("runtime.aggregate_s", "s", false),
        sim("runtime.violations", "count"),
        sim("runtime.peak_resident_ratio", "ratio"),
        sim("runtime.faults_fired", "count"),
        sim("runtime.checkpoint_words", "count"),
        sim("runtime.recovery_rounds", "count"),
        sim("runtime.recover_sim_share", "ratio"),
        // mpc-labeling
        host("labeling.build_s", "s", false),
        host("labeling.decode_ns", "ns", false),
    ];
    // mpc-exec: one self-time slot per registry name and micro-program.
    for name in CANONICAL_NAMES.iter().chain(micro::NAMES.iter()) {
        v.push(host(&format!("exec.item_s.{name}"), "s", false));
    }
    v.extend([
        host("exec.serial_round_us", "us", false),
        host("exec.pool_round_us", "us", false),
        host("exec.pool_wall_s", "s", false),
        host("exec.pool_busy_s", "s", false),
        host("exec.pool_wait_s", "s", false),
        host("exec.pool_imbalance", "ratio", false),
        host("exec.pool_idle_skips", "count", false),
        host("exec.pool_claims", "count", false),
        host("exec.pool_speedup", "ratio", true),
        host("exec.pool_scaling.t1", "s", false),
        host("exec.pool_scaling.t2", "s", false),
        host("exec.pool_scaling.t4", "s", false),
        sim("exec.step_work", "count"),
        sim("exec.admit_wait_rounds_p50", "rounds"),
        sim("exec.admit_wait_rounds_p90", "rounds"),
        sim("exec.run_rounds_p50", "rounds"),
        sim("exec.attempts", "count"),
        sim("exec.quarantined", "count"),
        host("exec.mixed_vs_solo", "ratio", false),
        // service schedule and the correctness gate
        sim("job_rounds_p50", "rounds"),
        sim("job_rounds_p90", "rounds"),
        sim("drain_rounds", "rounds"),
        sim("fail_share", "ratio"),
        // tracing itself
        host("trace.events", "count", false),
        host("trace.overhead_ratio", "ratio", false),
        host("trace.item_cover", "ratio", true),
        host("exec.report_fold_s", "s", false),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use mpc_runtime::telemetry::{parse_json, JsonValue};

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(row: &'a JsonValue, key: &str) -> &'a str {
        row.get(key).and_then(JsonValue::as_str).unwrap_or("")
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
        }
        let setup = &end_to_end()[0];
        assert_eq!((setup.name.as_str(), setup.unit), ("setup_s", "s"));
        let largest = end_to_end()
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let manifest = manifest();
        let rows = |key: &str| {
            manifest
                .get(key)
                .and_then(JsonValue::as_arr)
                .unwrap()
                .to_vec()
        };
        let better = |m: &MetricDef| {
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        };

        let listed = rows("end_to_end");
        assert_eq!(listed.len(), end_to_end().len());
        for (row, m) in listed.iter().zip(end_to_end()) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(row, "better"), better(&m), "{}", m.name);
            assert_eq!(
                row.get("bound").and_then(JsonValue::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
        let listed = rows("per_layer");
        assert_eq!(listed.len(), per_layer().len());
        for (row, m) in listed.iter().zip(per_layer()) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(row, "better"), better(&m), "{}", m.name);
        }
        let listed = rows("workloads");
        assert_eq!(listed.len(), workloads::NAMES.len());
        for (row, name) in listed.iter().zip(workloads::NAMES) {
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "why"), workloads::why(name));
            assert!(workloads::why(name).len() <= 200);
        }
    }
}
