//! The execution engine from a consumer's seat: every registered
//! algorithm, driven through `registry::run_job` on the parallel worker pool,
//! on a cluster with a straggler cost model.
//!
//! For each algorithm the demo prints the exchange rounds consumed, the
//! simulated critical path (sum of per-round makespans under the cost
//! model — the quantity the round-counting model cannot see), and where
//! the makespan went, grouped by exchange label.
//!
//! ```text
//! cargo run --release --example engine_demo
//! ```

use het_mpc::prelude::*;
use std::sync::Arc;

fn main() {
    let g = Arc::new(generators::gnm(256, 2048, 42).with_random_weights(1 << 16, 42));
    println!(
        "input: n = {}, m = {}; running every registered algorithm in \
         ExecMode::Parallel\n",
        g.n(),
        g.m()
    );

    for algo in registry::algorithms() {
        // Every algorithm declares the polylog capacity headroom its
        // traffic honestly needs (sketches, conflict edges, ...), so new
        // registrations get a suitable cluster without edits here.
        let config = ClusterConfig::new(g.n(), g.m())
            .seed(42)
            .polylog_exponent(algo.polylog_exponent);
        let mut cluster = Cluster::new(config);
        // One small machine runs at 5% speed — watch the critical path.
        let straggler = cluster.small_ids()[0];
        let model =
            CostModel::uniform(cluster.machines(), 1.0, 1.0, 0.5).with_straggler(straggler, 0.05);
        cluster.set_cost_model(model);

        let spec = JobSpec::new(algo.name, Arc::clone(&g));
        let outcome = registry::run_job(&spec, &mut cluster, ExecMode::Parallel)
            .expect("registered algorithm run");

        let result_line = match outcome {
            AlgoOutput::Components(c) => format!("{} components", c.count),
            AlgoOutput::Forest(f) => format!("MSF weight {}", f.total_weight),
            AlgoOutput::Mst(r) => format!(
                "MST weight {} ({} Borůvka waves)",
                r.forest.total_weight, r.stats.boruvka_steps
            ),
            AlgoOutput::Matching(r) => format!(
                "maximal matching of {} edges ({} peeling iterations)",
                r.matching.len(),
                r.stats.phase1_iterations
            ),
            AlgoOutput::Spanner(r) => format!(
                "spanner with {} of {} edges ({} levels)",
                r.spanner.m(),
                g.m(),
                r.stats.levels
            ),
            AlgoOutput::Apsp { oracle, spanner } => format!(
                "APSP oracle with stretch ≤ {} over a {}-edge spanner (d(0,1) = {})",
                oracle.stretch_bound,
                spanner.spanner.m(),
                oracle.distance(0, 1)
            ),
            AlgoOutput::MstApprox(r) => format!(
                "MST weight ≈ {:.0} ({} thresholds, {} parallel rounds)",
                r.estimate,
                r.thresholds.len(),
                r.parallel_rounds
            ),
            AlgoOutput::MinCut(r) => format!(
                "min cut {} ({}, {} trials)",
                r.value,
                if r.singleton {
                    "singleton"
                } else {
                    "contracted"
                },
                r.trial_sizes.len()
            ),
            AlgoOutput::MinCutApprox(r) => format!(
                "min cut ≈ {:.1} (λ̂ = {}, {} skeleton edges)",
                r.estimate, r.lambda_guess, r.skeleton_edges
            ),
            AlgoOutput::Mis(r) => format!(
                "maximal independent set of {} vertices ({} iterations)",
                r.mis.len(),
                r.iterations
            ),
            AlgoOutput::Coloring(r) => format!(
                "proper coloring with {} conflict edges ({} restarts)",
                r.conflict_edges, r.restarts
            ),
        };

        println!(
            "## {} — {} ({})\n   {}\n   rounds: {}, simulated critical path: {:.1}s \
             (straggler machine {} at 5% speed)",
            algo.name,
            algo.summary,
            algo.paper,
            result_line,
            cluster.rounds(),
            cluster.critical_path_seconds(),
            straggler,
        );
        // Where did the makespan go? Top exchange-label groups.
        let mut summary = cluster.round_summary();
        summary.sort_by(|a, b| b.makespan.partial_cmp(&a.makespan).unwrap());
        for group in summary.iter().take(3) {
            println!(
                "   {:<12} {:>4} rounds {:>8} words {:>9.1}s makespan",
                group.label, group.rounds, group.total_words, group.makespan
            );
        }
        println!();
    }
}
