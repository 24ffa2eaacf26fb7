//! What the paper's theorems promise about a registry run's *result* —
//! the oracle's distances, cut values, estimate error, conflict counts —
//! one case per input, each run solo through the registry on the cluster
//! the case names.
//!
//! `roundlog_golden.rs` pins what a run produces bit for bit; this table
//! says why those outputs are right. Its cases are the whole-program
//! properties whose namesake unit tests in `mpc-core` check the local
//! steps alone. The rest (stretch, sparsity, matching and MIS statistics,
//! round counts) are checked on the engine by the unit tests of the module
//! whose steps the program runs.

use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_core::spanner::apsp::measured_stretch;
use mpc_exec::{registry, AlgoOutput, ExecMode, JobParams, JobSpec};
use mpc_graph::{generators, mincut::min_cut, mst::kruskal, Graph};
use mpc_runtime::{Cluster, ClusterConfig};

/// Runs the registry name `case` starts with (up to its `/`) on `g`, solo
/// on a cluster built from `config`.
fn run(case: &str, g: &Graph, config: ClusterConfig, params: JobParams) -> AlgoOutput {
    let name = case.split('/').next().expect("a registry name");
    let spec = JobSpec::new(name, g.clone()).params(params);
    registry::run_job(&spec, &mut Cluster::new(config), ExecMode::Serial)
        .unwrap_or_else(|e| panic!("{case}: {e}"))
}

fn plain(g: &Graph, seed: u64) -> ClusterConfig {
    ClusterConfig::new(g.n(), g.m().max(1)).seed(seed)
}

fn polylog(g: &Graph, seed: u64, exponent: f64) -> ClusterConfig {
    plain(g, seed).polylog_exponent(exponent)
}

#[test]
fn registry_runs_meet_the_theorem_guarantees() {
    let params = JobParams::default;

    // Corollary 4.2: the oracle answers from its own spanner, within its
    // O(log n) stretch bound.
    let g = generators::gnm(64, 256, 7);
    let out = run("apsp", &g, polylog(&g, 7, 1.6), params());
    let (oracle, _) = out.into_apsp().expect("apsp output");
    let stretch = measured_stretch(&g, &oracle, 16);
    assert!(stretch <= oracle.stretch_bound as f64, "stretch {stretch}");
    let d = oracle.distances_from(0);
    assert_eq!((d[0], oracle.distance(0, 5)), (0, d[5]));

    // Theorem C.3: every trial's answer is a real cut, and the planted cut
    // is found.
    for seed in 0..4 {
        let g = generators::gnm(40, 160, seed);
        let case = format!("mincut/gnm-{seed}");
        let out = run(&case, &g, plain(&g, seed), params().mincut_trials(3));
        let got = out.into_mincut().expect("min-cut output").value;
        let want = min_cut(&g).map_or(0, |m| m.weight);
        assert!(got >= want, "{case}: {got} < {want}");
    }
    for (bridge, seed) in [(2, 1), (3, 2), (4, 3)] {
        let g = generators::planted_cut(24, 0.7, bridge, seed);
        let case = format!("mincut/planted-{bridge}");
        let out = run(&case, &g, plain(&g, seed), params().mincut_trials(8));
        let got = out.into_mincut().expect("min-cut output").value;
        assert_eq!(got, min_cut(&g).unwrap().weight, "{case}");
    }

    // Theorem C.2: within (1+ε) of the exact MSF weight in O(1) rounds;
    // exact on unit weights, where the estimate is the spanning forest's
    // size.
    let g = generators::gnm(80, 400, 2).with_random_weights(32, 2);
    let config = sketch_friendly_config(g.n(), g.m(), 2);
    let r = run("mst-approx/weighted", &g, config, params().epsilon(0.25));
    let r = r.into_mst_approx().expect("estimator output");
    let exact = kruskal(&g).total_weight as f64;
    assert!(
        r.estimate >= exact * 0.95 && r.estimate <= exact * 1.35,
        "{r:?} vs {exact}"
    );
    assert!(r.parallel_rounds <= 12, "{r:?}");
    let g = generators::gnm(60, 150, 3);
    let config = sketch_friendly_config(g.n(), g.m(), 3);
    let r = run("mst-approx/unweighted", &g, config, params().epsilon(0.5));
    let est = r.into_mst_approx().expect("estimator output").estimate;
    let exact = kruskal(&g).total_weight as f64;
    assert!((est - exact).abs() < 1e-9, "{est} vs {exact}");

    // Theorem C.7: the conflict graph is sparser than the input.
    let g = generators::gnm(128, 4000, 7);
    let out = run("coloring/dense", &g, polylog(&g, 7, 2.0), params());
    let r = out.into_coloring().expect("coloring output");
    assert!(mpc_graph::coloring::is_proper_coloring(&g, &r.colors));
    assert!(r.conflict_edges < g.m(), "{} conflicts", r.conflict_edges);
}
