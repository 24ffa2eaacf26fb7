//! Maximal matching on a skewed "social" graph (§5, Theorem 5.1).
//!
//! ```text
//! cargo run --example social_matching --release
//! ```
//!
//! Power-law graphs have a few hub vertices of enormous degree but a small
//! *average* degree d. The heterogeneous three-phase algorithm's rounds
//! track d alone: the small machines match the low-degree part, the large
//! machine absorbs the hubs from 2d·log n random incident edges each, and
//! the leftovers fit on the large machine. The sublinear baseline peels the
//! whole graph instead and pays rounds growing with n.

use het_mpc::prelude::*;
use mpc_baselines::sublinear::{distribute_all, sublinear_config, sublinear_matching};
use mpc_graph::matching::is_maximal_matching;

fn main() {
    println!(
        "{:>6} {:>8} {:>6} | {:>14} | {:>14}",
        "n", "m", "Δ", "het rounds", "sublinear rounds"
    );
    for exp in [8usize, 9, 10] {
        let n = 1 << exp;
        let g = generators::chung_lu(n, n * 4, 2.3, exp as u64);

        // Heterogeneous three-phase matching.
        let mut het = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(5));
        let r = registry::run_job(
            &JobSpec::new("matching", g.clone()),
            &mut het,
            ExecMode::Parallel,
        )
        .unwrap()
        .into_matching()
        .unwrap();
        assert!(is_maximal_matching(&g, &r.matching));

        // Sublinear peeling baseline.
        let mut sub = Cluster::new(sublinear_config(g.n(), g.m(), 5));
        let input = distribute_all(&sub, &g);
        let (m2, _) = sublinear_matching(&mut sub, &input).unwrap();
        assert!(is_maximal_matching(&g, &m2));

        println!(
            "{:>6} {:>8} {:>6} | {:>8} rounds | {:>8} rounds   (high-degree hubs: {}, phases: p1={} p2={} p3={})",
            g.n(),
            g.m(),
            g.max_degree(),
            het.rounds(),
            sub.rounds(),
            r.stats.high_vertices,
            r.stats.m1,
            r.stats.m2,
            r.stats.m3,
        );
    }
    println!();
    println!("Heterogeneous rounds follow the (constant) average degree; the");
    println!("baseline follows the full graph — the §5 separation in action.");
}
