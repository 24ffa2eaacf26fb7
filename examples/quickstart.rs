//! Quickstart: exact MST on a heterogeneous cluster, end to end, through
//! the execution engine's Algorithm registry.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a random weighted graph, spins up the paper's heterogeneous MPC
//! model (one near-linear machine, many sublinear machines), runs the
//! O(log log(m/n))-round MST algorithm of §3 on the **parallel worker
//! pool** (`ExecMode::Parallel`) under strict capacity enforcement, and
//! verifies the answer against sequential Kruskal. The same
//! `registry::run_job` call with `ExecMode::Serial` produces bit-identical
//! results, round logs, and RNG streams.

use het_mpc::prelude::*;
use mpc_graph::mst::kruskal;

fn main() {
    let n = 1 << 10;
    let m = n * 32;
    let g = generators::gnm(n, m, 7).with_random_weights(1 << 20, 7);
    println!("input: n = {n}, m = {m}, m/n = {}", m / n);

    let mut cluster = Cluster::new(ClusterConfig::new(n, m).seed(7));
    println!(
        "cluster: {} machines (large: {:?}), small capacity {} words, large capacity {} words",
        cluster.machines(),
        cluster.large(),
        cluster.min_small_capacity(),
        cluster.capacity(cluster.large().unwrap()),
    );

    let result = registry::run_job(
        &JobSpec::new("mst", g.clone()),
        &mut cluster,
        ExecMode::Parallel,
    )
    .expect("strict-mode run")
    .into_mst()
    .expect("mst output");

    println!(
        "MST: {} edges, total weight {}",
        result.forest.len(),
        result.forest.total_weight
    );
    println!(
        "rounds: {} (Borůvka steps: {}, contraction trace: {:?})",
        cluster.rounds(),
        result.stats.boruvka_steps,
        result.stats.contraction_trace
    );
    println!(
        "peak traffic in any round: {} words; violations: {}; \
         simulated critical path {:.1}s",
        cluster.max_round_traffic(),
        cluster.violations().len(),
        cluster.critical_path_seconds(),
    );

    let reference = kruskal(&g);
    assert_eq!(result.forest.total_weight, reference.total_weight);
    println!("verified: weight matches sequential Kruskal ✓");
}
