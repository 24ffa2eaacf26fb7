//! Distance oracle for a router-like network (Corollary 4.2).
//!
//! ```text
//! cargo run --example network_apsp --release
//! ```
//!
//! A power-law "autonomous systems" topology is too big to search from
//! every source on one worker — but a `O(log n)`-spanner of size Õ(n) fits
//! on the large machine, which then answers arbitrary distance queries
//! locally with zero further communication. This example builds the oracle
//! in O(1) rounds and compares its answers against exact Dijkstra.

use het_mpc::prelude::*;
use mpc_core::spanner::apsp;

fn main() {
    let n = 600;
    let g = generators::chung_lu(n, n * 6, 2.4, 11);
    println!(
        "network: n = {}, m = {}, max degree = {}, avg degree = {:.1}",
        g.n(),
        g.m(),
        g.max_degree(),
        g.average_degree()
    );

    // The `apsp` registry entry: a `k = ⌈log₂ n⌉` spanner through the
    // engine, indexed as an oracle on the large machine.
    let polylog = registry::get("apsp").expect("registered").polylog_exponent;
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(11)
            .polylog_exponent(polylog),
    );
    let (oracle, _) = registry::run_job(
        &JobSpec::new("apsp", g.clone()),
        &mut cluster,
        ExecMode::Parallel,
    )
    .expect("oracle build")
    .into_apsp()
    .expect("apsp output");
    let rounds = cluster.rounds();
    println!(
        "oracle: spanner of {} edges ({}x sparser), stretch bound {}, built in {rounds} rounds",
        oracle.spanner().m(),
        (g.m() as f64 / oracle.spanner().m().max(1) as f64).round(),
        oracle.stretch_bound,
    );

    // Query a few pairs and compare with the exact distances.
    let adj = g.adjacency();
    let mut worst: f64 = 1.0;
    let mut shown = 0;
    for s in [0u32, 17, 101, 311] {
        let exact = mpc_graph::traversal::dijkstra(&adj, s);
        let approx = oracle.distances_from(s);
        for t in [5u32, 50, 250, 500] {
            if s == t || exact[t as usize] == mpc_graph::traversal::UNREACHABLE {
                continue;
            }
            let ratio = approx[t as usize] as f64 / exact[t as usize] as f64;
            worst = worst.max(ratio);
            if shown < 6 {
                println!(
                    "  dist({s:>3}, {t:>3}) exact {:>2}, oracle {:>2}  (stretch {:.2})",
                    exact[t as usize], approx[t as usize], ratio
                );
                shown += 1;
            }
        }
    }
    let measured = apsp::measured_stretch(&g, &oracle, 24);
    println!(
        "worst stretch over sampled sources: {measured:.2} (bound {})",
        oracle.stretch_bound
    );
    assert!(worst <= oracle.stretch_bound as f64);
    println!("within the O(log n) guarantee ✓");
}
