//! What the paper's theorems promise about a registry run's *result* —
//! the oracle's distances, cut values, estimate error, conflict counts —
//! one case per input, each run solo through the registry on the cluster
//! the case names and checked by the name's [`registry::certify`].
//!
//! `roundlog_golden.rs` pins what a run produces bit for bit; this table
//! says why those outputs are right. Beside the certificates it keeps the
//! checks no certificate states: the oracle's answers, the planted cut,
//! the threshold counts against union–find and the conflict sparsity. The
//! rest (matching and MIS statistics, round counts) are checked on the
//! engine by the unit tests of the module whose steps the program runs.

use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_core::spanner::apsp::measured_stretch;
use mpc_exec::{registry, AlgoOutput, ExecMode, JobParams, JobSpec};
use mpc_graph::traversal::connected_components;
use mpc_graph::{generators, Graph};
use mpc_runtime::{Cluster, ClusterConfig};

/// Runs the registry name `case` starts with (up to its `/`) on `g`, solo
/// on a cluster built from `config`, and certifies the output.
fn run(case: &str, g: &Graph, config: ClusterConfig, params: JobParams) -> AlgoOutput {
    let name = case.split('/').next().expect("a registry name");
    let spec = JobSpec::new(name, g.clone()).params(params);
    let out = registry::run_job(&spec, &mut Cluster::new(config), ExecMode::Serial)
        .unwrap_or_else(|e| panic!("{case}: {e}"));
    assert_eq!(registry::certify(&spec, &out), Ok(()), "{case}");
    out
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

    // Theorem C.3: the exact cut, and on planted inputs the planted one.
    for seed in 0..4 {
        let g = generators::gnm(40, 160, seed);
        let case = format!("mincut/gnm-{seed}");
        run(&case, &g, plain(&g, seed), params().mincut_trials(3));
    }
    for (bridge, seed) in [(2, 1), (3, 2), (4, 3)] {
        let g = generators::planted_cut(24, 0.7, bridge, seed);
        let case = format!("mincut/planted-{bridge}");
        let out = run(&case, &g, plain(&g, seed), params().mincut_trials(8));
        let got = out.into_mincut().expect("min-cut output").value;
        assert_eq!(got, bridge as u128, "{case}");
    }

    // Theorem C.2: every threshold's count `c_τ` is the component count of
    // the subgraph with edges of weight `≤ τ` (the certificate puts the
    // estimate within (1+ε) of the exact MSF weight), in O(1) rounds; exact
    // on unit weights, where the one threshold's count makes the estimate
    // the spanning forest's size.
    let inputs = [
        (80, 400, 32, 0.25),
        (256, 1536, 1 << 10, 0.5),
        (192, 960, 500, 0.25),
        (64, 160, 50, 0.5),
    ];
    for (seed, (n, m, w, epsilon)) in (2..).zip(inputs) {
        let g = generators::gnm(n, m, seed).with_random_weights(w, seed);
        let case = format!("mst-approx/gnm-{n}-{m}");
        let config = sketch_friendly_config(n, m, seed);
        let out = run(&case, &g, config, params().epsilon(epsilon));
        let r = out.into_mst_approx().expect("estimator output");
        for (&tau, &count) in r.thresholds.iter().zip(&r.component_counts) {
            let light = Graph::new(n, g.edges().iter().filter(|e| e.w <= tau).copied());
            assert_eq!(count, connected_components(&light).count, "{case} τ {tau}");
        }
        assert!(r.parallel_rounds <= 12, "{case}: {r:?}");
    }
    let g = generators::gnm(60, 150, 3);
    let config = sketch_friendly_config(g.n(), g.m(), 3);
    let r = run("mst-approx/unweighted", &g, config, params().epsilon(0.5));
    let r = r.into_mst_approx().expect("estimator output");
    let components = connected_components(&g).count;
    assert_eq!(
        (&r.thresholds[..], &r.component_counts[..]),
        (&[1][..], &[components][..])
    );
    assert_eq!(r.estimate, (g.n() - components) as f64, "{r:?}");

    // Theorem C.7: the conflict graph is sparser than the input.
    let g = generators::gnm(128, 4000, 7);
    let out = run("coloring/dense", &g, polylog(&g, 7, 2.0), params());
    let r = out.into_coloring().expect("coloring output");
    assert!(r.conflict_edges < g.m(), "{} conflicts", r.conflict_edges);
}
