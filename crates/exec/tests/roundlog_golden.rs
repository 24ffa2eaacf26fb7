//! Committed fingerprints of the twelve registry programs: the whole
//! round log (label, `max_sent`, `max_recv`, `total_words`, `messages`,
//! `total_work` per round), the result digest and the per-machine RNG
//! positions, at two seeds, under `Serial` and `Parallel`.
//!
//! The table below was taken on the commit *before* the role steps moved
//! from per-round `BTreeMap`/`HashMap` containers to flat sort-and-scan
//! vectors, so it pins the send-order contract of DESIGN §2.3 (ascending
//! key, insertion order within a key): a kernel rewrite that reorders one
//! message, changes one `ctx.charge` or draws one more random number moves
//! a fingerprint here before it moves anything downstream. The rows of
//! `connectivity` and `mst-approx` — both run `ConnectivityProgram` — were
//! taken on the commit *before* its partials moved from one message per
//! `(phase, vertex)` key to one flat batch per (sender, owner); they fold
//! every column **except `messages`**, which is the one thing that switch
//! changes and no model quantity (DESIGN §2.3). `mincut-approx` sends no
//! batch, so its rows fold every column.
//! To re-take the table after an intended behaviour change, run
//! `cargo test -p mpc-exec --release --test roundlog_golden -- --ignored --nocapture`
//! and paste the printed rows.
//!
//! [`CASES`] pins, with the same fingerprint, the edge paths the default
//! inputs never take: the `xcut-fb` whole-graph fallback of `mincut-approx`
//! (every guess disconnected; every guess over its budget), an
//! `mst-approx` threshold that filters every edge, and a zero-weight edge
//! in the weighted spanner. Each case asserts which path it ran.
//!
//! `registry_equivalence.rs` pins, with the same fingerprint, every input
//! the deleted cluster-owning `mpc-core` loops were compared on.

mod fingerprint;

use fingerprint::{bridge_path, fold, Fingerprint};
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_exec::{registry, AlgoOutput, ExecMode, JobSpec};
use mpc_graph::{generators, Edge, Graph};
use mpc_runtime::{Cluster, ClusterConfig, Enforcement, Topology};
use std::sync::Arc;

const NAMES: [&str; 12] = [
    "boruvka-msf",
    "mst",
    "matching",
    "spanner",
    "spanner-weighted",
    "apsp",
    "mincut",
    "mis",
    "coloring",
    "connectivity",
    "mst-approx",
    "mincut-approx",
];
const SEEDS: [u64; 2] = [7, 11];

/// The sketch programs: smaller inputs.
const SKETCH_NAMES: [&str; 3] = ["connectivity", "mst-approx", "mincut-approx"];

fn fingerprint(name: &str, seed: u64, mode: ExecMode) -> Fingerprint {
    let sketch = SKETCH_NAMES.contains(&name);
    let n = if sketch { 256 } else { 2000 };
    let g = Arc::new(generators::gnm(n, 6 * n, seed).with_random_weights(1 << 20, seed));
    let polylog = registry::get(name)
        .expect("a registry name")
        .polylog_exponent;
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(seed)
            .polylog_exponent(polylog),
    );
    let out = registry::run_job(&JobSpec::new(name, g).seed(seed), &mut cluster, mode)
        .unwrap_or_else(|e| panic!("{name} seed {seed} {mode:?}: {e}"));
    fold(name, &mut cluster, &out)
}

/// `(name, seed, rounds, round-log fold, result digest, RNG fold)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64, u64, u128, u64); 24] = [
    ("boruvka-msf", 7, 22, 0xfcfc0ff599b898a3, 0x28904500ff51195ed092c27943bc9531, 0x19faedf64266f10e),
    ("boruvka-msf", 11, 22, 0x503b8eda5da0edce, 0x28cefd4a29f01adf4d3df588f67e7085, 0x0055d4a5228cf83c),
    ("mst", 7, 13, 0xe919fb98fc477a10, 0x28904500ff51195ed092c27943bc9531, 0x19faedf64266f10e),
    ("mst", 11, 13, 0x2a16f8542561d6e4, 0x28cefd4a29f01adf4d3df588f67e7085, 0x0055d4a5228cf83c),
    ("matching", 7, 46, 0xef3dcaf2ad153df0, 0x0c3bed1fe81c90c0ccc3766e23fc3b50, 0x4987873a57fb9f21),
    ("matching", 11, 52, 0x035bcbff2618660c, 0x94831b64402f3c954a20a5414f11e509, 0xe8d00050dbb40ac5),
    ("spanner", 7, 17, 0xb7c364b25a44bb9e, 0x4f256e56982a461f48f89d61e980be97, 0x2daa371fc970bc55),
    ("spanner", 11, 17, 0x8b81dc7abd2ebe47, 0xe45ac8afab7884309e57bd14c9935c8c, 0x693be012f030e28d),
    ("spanner-weighted", 7, 17, 0xb4118b8137a253e6, 0xf5f687e5b0a7951b3d52f4ee638374f0, 0x411af788dbf55bcf),
    ("spanner-weighted", 11, 17, 0x807d3babe5e4b8cb, 0xa93f6fc7aa966e271d6e5cdd9ee7e26d, 0x27c384a4d417a102),
    ("apsp", 7, 17, 0xb40cc881379a3c8d, 0x641b585e1d7eb76f5ad13d9fa70896fe, 0x411af788dbf55bcf),
    ("apsp", 11, 17, 0x808767abe5f6018f, 0x128ed855b66d333dcd3c19e4bb0e74a2, 0x27c384a4d417a102),
    ("mincut", 7, 99, 0x3ef7bdfa21af26e5, 0x2e1b816f0f9479a0a557626c281a39c7, 0x412020af20a7241e),
    ("mincut", 11, 99, 0x241db9a12fbb380a, 0x2e1b816f0f9479a0a557626c281a39c7, 0x109431a383814b6f),
    ("mis", 7, 15, 0x64c4e0cd3381cca0, 0x52f1edb1d3f7efa76fcce26dc40ccbb6, 0x2e244e7f2ce346c6),
    ("mis", 11, 15, 0x18602520d92a2e44, 0x4de265d8175d07d66ac875b3e0579f6d, 0x59c91608cdcfc0e3),
    ("coloring", 7, 5, 0x9cf91e6fe5567cf0, 0xa9a60951e41875c84eae13009a7cb3f6, 0x9809c59c88c0cd83),
    ("coloring", 11, 5, 0xbbdfc9a9e35d0abe, 0xba634de16cd06cbe0e65753ce6f27ee4, 0x8afbd84db58c83e3),
    ("connectivity", 7, 3, 0x874d262ee6dd0c5c, 0x00000000000000000000000000000001, 0x767e7ba7c62fb210),
    ("connectivity", 11, 3, 0xb1db35580309e54f, 0x00000000000000000000000000000001, 0x95650e4fff73cce3),
    ("mst-approx", 7, 2, 0x69520424c2bff786, 0xadffcf84573ff6fb3c520fd81d0e4ae5, 0x9fb91f93fd0c772c),
    ("mst-approx", 11, 2, 0x3bd7239cd7a6b403, 0xfbd8cbc66a2f3dba5fb7bda065711ca9, 0x9a04453c1977b4b0),
    ("mincut-approx", 7, 3, 0x9101377341527176, 0x9ce7392d278ae5b527224513dd1f77af, 0xeaeaa307d18d4cc6),
    ("mincut-approx", 11, 3, 0x3a63ec8dfd4dbe26, 0x9ce7395d3160e658e646cad342b3700e, 0xbbbbb3611f10a0c1),
];

#[test]
fn round_logs_digests_and_rng_positions_match_the_committed_fingerprints() {
    let mut rows = GOLDEN.iter();
    for name in NAMES {
        for seed in SEEDS {
            let &(gname, gseed, rounds, round_log, digest, rng) =
                rows.next().expect("one golden row per name and seed");
            assert_eq!((gname, gseed), (name, seed), "golden rows out of order");
            let want = Fingerprint {
                rounds,
                round_log,
                digest,
                rng,
            };
            for mode in [ExecMode::Serial, ExecMode::Parallel] {
                assert_eq!(
                    fingerprint(name, seed, mode),
                    want,
                    "{name} seed {seed} {mode:?}"
                );
            }
        }
    }
}

/// `(case, name, rounds, round-log fold, result digest, RNG fold)`.
#[rustfmt::skip]
const CASES: [(&str, &str, u64, u64, u128, u64); 4] = [
    ("forest", "mincut-approx", 4, 0xacdb75d664f184af, 0x9ce7393ca456e5ea082f0007b4e852fe, 0xc0edc84585d8e3cb),
    ("starved", "mincut-approx", 2, 0xd335309d616d7d5e, 0x9ce7393ca456e5ea48881f07b4eb3474, 0x445f22a6cc75f2cf),
    ("heavy", "mst-approx", 2, 0xa920a2acd47e9e3b, 0x9130b56aa55a615fdf68d1d90c0353d1, 0x23ab5e0aa1ab2a82),
    ("bridge", "spanner-weighted", 17, 0x8525e71680ce05c3, 0x5a87a901f38e6aa09a1164536c4bb289, 0x6fcf3dd97a16c4d6),
];

/// The registry name, job and cluster of one [`CASES`] input.
fn case_input(case: &str) -> (&'static str, JobSpec, ClusterConfig) {
    match case {
        // A forest has cut 0: every λ̂ guess samples a disconnected
        // skeleton, so the whole graph is gathered.
        "forest" => {
            let g = generators::random_forest(40, 2, 2);
            let config = ClusterConfig::new(g.n(), g.m())
                .seed(2)
                .polylog_exponent(1.6);
            let spec = JobSpec::new("mincut-approx", g).epsilon(0.4);
            ("mincut-approx", spec, config)
        }
        // A starved large machine: the first guess already overflows its
        // skeleton budget, every finer guess is retired, and the fallback
        // gather (legitimately over capacity) is recorded, not raised.
        "starved" => {
            let g = generators::gnm(40, 400, 11).with_random_weights(1 << 10, 11);
            let config = ClusterConfig::new(g.n(), g.m())
                .seed(11)
                .enforcement(Enforcement::Record)
                .topology(Topology::Custom {
                    capacities: vec![600, 4000, 4000, 4000, 4000],
                    large: Some(0),
                });
            ("mincut-approx", JobSpec::new("mincut-approx", g), config)
        }
        // Weights ≥ 2: the first threshold (τ = 1) filters every edge.
        "heavy" => {
            let g = generators::gnm(64, 160, 3).with_random_weights(50, 3);
            let heavier = g.edges().iter().map(|e| Edge::new(e.u, e.v, e.w + 1));
            let config = sketch_friendly_config(64, g.m(), 3);
            let spec = JobSpec::new("mst-approx", Graph::new(64, heavier)).epsilon(0.5);
            ("mst-approx", spec, config)
        }
        // A path whose one zero-weight edge is weight class 0.
        "bridge" => {
            let config = ClusterConfig::new(16, 15).seed(4).polylog_exponent(1.6);
            let spec = JobSpec::new("spanner-weighted", bridge_path()).spanner_k(2);
            ("spanner-weighted", spec, config)
        }
        other => panic!("unknown case {other}"),
    }
}

/// Runs one [`CASES`] input solo, asserts the path it took, and returns
/// the registry name it ran with the run's fingerprint.
fn run_case(case: &str, mode: ExecMode) -> (&'static str, Fingerprint) {
    let (name, spec, config) = case_input(case);
    let n = spec.graph.n();
    let mut cluster = Cluster::new(config);
    let out = registry::run_job(&spec, &mut cluster, mode)
        .unwrap_or_else(|e| panic!("{case} {mode:?}: {e}"));
    let fell_back = (cluster.round_log().iter()).any(|r| r.label.render().starts_with("xcut-fb"));
    match (case, &out) {
        ("forest" | "starved", AlgoOutput::MinCutApprox(r)) => {
            assert!(r.lambda_guess == 1 && fell_back, "{case}: no fallback");
            assert_eq!(r.parallel_rounds, cluster.rounds(), "{case}");
        }
        ("heavy", AlgoOutput::MstApprox(r)) => {
            assert_eq!((r.thresholds[0], r.component_counts[0]), (1, n), "{case}");
            assert_eq!(r.parallel_rounds, cluster.rounds(), "{case}");
        }
        ("bridge", AlgoOutput::Spanner(r)) => {
            assert!(r.spanner.edges().contains(&Edge::new(7, 8, 0)), "{case}");
        }
        _ => panic!("{case}: unexpected output {out:?}"),
    }
    (name, fold(name, &mut cluster, &out))
}

#[test]
fn edge_paths_match_the_committed_fingerprints() {
    for &(case, name, rounds, round_log, digest, rng) in &CASES {
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let want = Fingerprint {
                rounds,
                round_log,
                digest,
                rng,
            };
            let (got_name, got) = run_case(case, mode);
            assert_eq!((got_name, got), (name, want), "{case} {mode:?}");
        }
    }
}

#[test]
#[ignore = "prints the tables to paste into GOLDEN and CASES"]
fn print_golden() {
    for name in NAMES {
        for seed in SEEDS {
            let f = fingerprint(name, seed, ExecMode::Serial);
            println!(
                "    ({name:?}, {seed}, {}, {:#018x}, {:#034x}, {:#018x}),",
                f.rounds, f.round_log, f.digest, f.rng
            );
        }
    }
    for case in ["forest", "starved", "heavy", "bridge"] {
        let (name, f) = run_case(case, ExecMode::Serial);
        println!(
            "    ({case:?}, {name:?}, {}, {:#018x}, {:#034x}, {:#018x}),",
            f.rounds, f.round_log, f.digest, f.rng
        );
    }
}
