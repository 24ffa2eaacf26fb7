//! Connectivity in `O(1)` rounds (Theorem C.1, after AGM \[1\]): the
//! tuning the engine's connectivity program runs with.
//!
//! Flow (the program in `mpc-exec`, which also runs every threshold of
//! Theorem C.2's `mst-approx`):
//! 1. the large machine draws the hash seeds for the sketch family
//!    (`O(polylog n)` bits) and broadcasts them — this replaces the shared
//!    randomness of \[36\], as the paper prescribes (`mst-approx` draws
//!    one seed per threshold up front from the same stream and skips the
//!    broadcast);
//! 2. every small machine builds a *partial* sparse sketch per
//!    `(phase, vertex)` from its local edges — for `mst-approx`, those of
//!    weight `≤ τ` (Property 1: sketches are linear, so partial sketches
//!    sum to the true vertex sketch);
//! 3. the hash-owners merge the partials and forward the per-vertex
//!    sketches to the large machine (`Õ(n)` words);
//! 4. the large machine runs sketch-Borůvka **locally** — all `O(log n)`
//!    contraction phases happen inside one machine, which is the entire
//!    point of the port: rounds stay `O(1)` while the work that was
//!    `Ω(log n)` rounds in sublinear MPC becomes free local computation.

/// Tuning for the connectivity port.
#[derive(Clone, Debug)]
pub struct ConnectivityConfig {
    /// Sketch-Borůvka phases (`≈ 2·log₂ n` for w.h.p. exactness).
    pub phases: usize,
}

impl ConnectivityConfig {
    /// Default: `2⌈log₂ n⌉ + 2` phases.
    pub fn for_n(n: usize) -> Self {
        ConnectivityConfig {
            phases: 2 * ((n.max(2) as f64).log2().ceil() as usize) + 2,
        }
    }
}

/// A cluster configuration suitable for sketch-based algorithms: the sketch
/// volume is honestly `Θ(n log³ n)` bits, so the polylog budget must cover
/// it (the paper's `Õ(·)` hides the same factor).
pub fn sketch_friendly_config(n: usize, m: usize, seed: u64) -> mpc_runtime::ClusterConfig {
    mpc_runtime::ClusterConfig::new(n, m)
        .seed(seed)
        .polylog_exponent(2.6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::traversal::{connected_components, Components};
    use mpc_graph::{generators, Edge, Graph};
    use mpc_sketch::{merge_batches, sketch_connectivity_batches, SketchFamily};

    /// The program's three local steps at [`ConnectivityConfig::for_n`]:
    /// partial batches of `machines` round-robin shards for `owners`
    /// owners, merged per owner, decoded by the large machine.
    fn components(g: &Graph, machines: usize, owners: usize, seed: u64) -> Components {
        let family = SketchFamily::new(g.n(), ConnectivityConfig::for_n(g.n()).phases, seed);
        let mut per_owner = vec![Vec::new(); owners];
        for mid in 0..machines {
            let shard: Vec<_> = (g.edges().iter().skip(mid).step_by(machines))
                .map(|e| (e.u, e.v))
                .collect();
            for (owner, batch) in family
                .partial_batches(&shard, owners)
                .into_iter()
                .enumerate()
            {
                per_owner[owner].push(batch);
            }
        }
        let merged: Vec<_> = per_owner.iter().map(|b| merge_batches(b)).collect();
        sketch_connectivity_batches(&family, &merged, g.n())
    }

    #[test]
    fn matches_reference_components() {
        for seed in 0..3 {
            let g = generators::gnm(96, 220, seed);
            assert_eq!(
                components(&g, 7, 5, seed),
                connected_components(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn solves_one_vs_two_cycles() {
        let one = generators::cycle(120, 7);
        let two = generators::two_cycles(120, 7);
        assert_eq!(components(&one, 5, 4, 3).count, 1);
        assert_eq!(components(&two, 5, 4, 3).count, 2);
    }

    /// The engine's program `name` on `g`, on a [`sketch_friendly_config`]
    /// cluster.
    fn run(name: &str, g: &Graph, seed: u64, eps: f64) -> (mpc_exec::AlgoOutput, u64) {
        let config = sketch_friendly_config(g.n(), g.m().max(1), seed);
        let params = mpc_exec::JobParams::default().epsilon(eps);
        crate::run_program(name, g, config, params)
    }

    #[test]
    fn constant_rounds_across_sizes() {
        let (_, r1) = run("connectivity", &generators::gnm(64, 160, 1), 1, 0.5);
        let (_, r2) = run("connectivity", &generators::gnm(256, 640, 1), 1, 0.5);
        assert!(r2 <= r1 + 4, "rounds should not grow with n: {r1} -> {r2}");
    }

    /// The thresholded counts the MST-weight estimator sketches: on a path
    /// whose edge `i–(i+1)` weighs `i + 1`, threshold `τ` keeps the first
    /// `τ` edges, leaving `10 − τ` components.
    #[test]
    fn threshold_counting() {
        let edges = (0..9).map(|i| Edge::new(i, i + 1, u64::from(i) + 1));
        let g = Graph::new(10, edges);
        let r = run("mst-approx", &g, 5, 0.1).0.into_mst_approx().unwrap();
        assert_eq!(r.thresholds, (1..=9).collect::<Vec<u64>>());
        for (&tau, &count) in r.thresholds.iter().zip(&r.component_counts) {
            assert_eq!(count, 10 - tau as usize, "threshold {tau}");
        }
        // Edges 1..=5 survive: vertices 0-5 connected, 6,7,8,9 isolated.
        assert_eq!(r.component_counts[4], 5);
    }
}
