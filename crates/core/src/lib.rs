//! Heterogeneous-MPC algorithms from Fischer, Horowitz & Oshman,
//! *Massively Parallel Computation in a Heterogeneous Regime* (PODC 2022).
//!
//! The model (one near-linear *large* machine + many sublinear *small*
//! machines) and its round/communication accounting live in `mpc-runtime`;
//! this crate implements the paper's algorithms on top of it:
//!
//! | Paper | Module | Result |
//! |---|---|---|
//! | §3, Thm 3.1 | [`mst`] | exact MST in `O(log log(m/n))` rounds (general `f(n)` version included) |
//! | §4, Thm 4.1, Cor 4.2, App A | [`spanner`] | `O(k)`-spanner of size `O(n^(1+1/k))` in `O(1)` rounds; `O(log n)`-approx APSP |
//! | §5, Thm 5.1, Thm 5.5 | [`matching`] | maximal matching in rounds depending only on the *average* degree; `O(1/f)`-round filtering variant |
//! | App C.1–C.5 | [`ported`] | `O(1)`-round connectivity / (1+ε)-MST / min-cuts / (Δ+1)-coloring, `O(log log Δ)` MIS |
//!
//! The engine's programs in `mpc-exec` run every algorithm through its
//! registry; this crate holds their mathematics — the result types and the
//! local steps each machine role runs. Two loops still own a
//! [`mpc_runtime::Cluster`] themselves: filtering matching
//! ([`matching::filtering`]) and the peeling loop the sublinear baseline
//! calls ([`matching::peeling::peeling_matching`]).
//!
//! # Example: exact MST on a heterogeneous cluster
//!
//! ```
//! use mpc_exec::{registry, ExecMode, JobSpec};
//! use mpc_graph::generators;
//! use mpc_runtime::{Cluster, ClusterConfig};
//!
//! let g = generators::gnm(128, 1024, 7).with_random_weights(10_000, 7);
//! let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(7));
//! let spec = JobSpec::new("mst", g);
//! let out = registry::run_job(&spec, &mut cluster, ExecMode::Serial).unwrap();
//! // A spanning forest of Kruskal's weight, as Theorem 3.1 promises.
//! assert_eq!(registry::certify(&spec, &out), Ok(()));
//! println!("MST found in {} rounds", cluster.rounds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod matching;
pub mod mst;
pub mod ported;
pub mod spanner;

/// Runs the registry program `name` solo on `g`, serially, and asserts the
/// output passes the name's certificate: what a unit test of a module's
/// steps uses to check the whole program they make up. Returns the output
/// and the rounds the run took.
#[cfg(test)]
fn run_program(
    name: &str,
    g: &mpc_graph::Graph,
    config: mpc_runtime::ClusterConfig,
    params: mpc_exec::JobParams,
) -> (mpc_exec::AlgoOutput, u64) {
    let mut cluster = mpc_runtime::Cluster::new(config);
    let spec = mpc_exec::JobSpec::new(name, g.clone()).params(params);
    let out = mpc_exec::registry::run_job(&spec, &mut cluster, mpc_exec::ExecMode::Serial)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(mpc_exec::registry::certify(&spec, &out), Ok(()), "{name}");
    (out, cluster.rounds())
}
