//! Reliability analysis of a datacenter-like topology (Appendix C.2/C.3).
//!
//! ```text
//! cargo run --example datacenter_cuts --release
//! ```
//!
//! Two dense "availability zones" joined by a handful of cross-zone links:
//! the minimum cut — how many link failures disconnect the zones — is the
//! quantity a reliability engineer wants. The exact unweighted min-cut port
//! (2-out contraction) finds it in O(1) rounds; the weighted (1±ε)
//! estimator prices in link capacities.

use het_mpc::prelude::*;

fn main() {
    // 2 zones of 48 racks, dense inside, 5 cross-zone links.
    let g = generators::planted_cut(48, 0.35, 5, 2026);
    println!(
        "topology: n = {}, m = {}, two zones with 5 cross-links",
        g.n(),
        g.m()
    );

    // Exact unweighted min cut (Theorem C.3), on the parallel engine
    // through the Algorithm registry.
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(1));
    let exact = registry::run_job(
        &JobSpec::new("mincut", g.clone()).mincut_trials(8),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_mincut()
    .unwrap();
    let reference = mpc_graph::mincut::min_cut(&g).unwrap();
    println!(
        "exact min cut: {} link failures disconnect the zones ({} rounds, 8 trials)",
        exact.value,
        cluster.rounds()
    );
    assert_eq!(exact.value, reference.weight, "must match Stoer–Wagner");

    // Weighted capacities: cross-links get capacity 1..8. Every λ̂ guess
    // of the Theorem C.4 estimator runs interleaved through the
    // multi-program scheduler, so the measured rounds are the paper's
    // parallel figure.
    let gw = g.clone().with_random_weights(8, 7);
    let exact_w = mpc_graph::mincut::min_cut(&gw).unwrap().weight as f64;
    let mut cluster = Cluster::new(
        ClusterConfig::new(gw.n(), gw.m())
            .seed(2)
            .polylog_exponent(1.6),
    );
    let approx = registry::run_job(
        &JobSpec::new("mincut-approx", gw.clone()).epsilon(0.3),
        &mut cluster,
        ExecMode::Parallel,
    )
    .unwrap()
    .into_mincut_approx()
    .unwrap();
    println!(
        "capacity min cut: ≈{:.1} (exact {exact_w:.0}), skeleton of {} edges, {} rounds (batched)",
        approx.estimate,
        approx.skeleton_edges,
        cluster.rounds()
    );

    // Contraction diagnostics: how hard did the 2-out step shrink things?
    for (i, (nv, ne)) in exact.trial_sizes.iter().enumerate().take(3) {
        println!("  trial {i}: contracted to {nv} vertices / {ne} distinct pairs");
    }
    println!("reliability analysis complete ✓");
}
