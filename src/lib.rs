//! # het-mpc
//!
//! A from-scratch Rust reproduction of **Fischer, Horowitz & Oshman,
//! “Massively Parallel Computation in a Heterogeneous Regime” (PODC 2022)**:
//! a deterministic simulator for the heterogeneous MPC model (one
//! near-linear machine + many sublinear machines) together with every
//! algorithm the paper introduces or ports, the baselines it compares
//! against, and validation oracles for all of them.
//!
//! This crate is a facade: it re-exports the workspace members under short
//! names. See `README.md` for the architecture and `DESIGN.md` for the
//! paper-to-code mapping (§4 indexes the experiments).
//!
//! ## Quickstart
//!
//! ```
//! use het_mpc::prelude::*;
//!
//! // A weighted random graph with n = 256, m = 2048.
//! let g = generators::gnm(256, 2048, 42).with_random_weights(1 << 16, 42);
//!
//! // A heterogeneous cluster: machine 0 near-linear, the rest sublinear.
//! let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(42));
//! let input = common::distribute_edges(&cluster, &g);
//!
//! // Exact MST in O(log log(m/n)) rounds on the parallel execution
//! // engine, through the Algorithm registry — verified against Kruskal.
//! let result = registry::run(
//!     "mst",
//!     &mut cluster,
//!     &AlgoInput::new(g.n(), &input),
//!     ExecMode::Parallel,
//! )
//! .unwrap()
//! .into_mst()
//! .unwrap();
//! assert!(mst::is_minimum_spanning_forest(&g, &result.forest));
//! println!("MST of weight {} in {} rounds", result.forest.total_weight, cluster.rounds());
//! ```
//!
//! Or serve several tenants from one engine run — the job-queue
//! [`Service`](mpc_exec::service) interleaves different registry programs
//! in a single bulk-synchronous wave (DESIGN.md §2.8), each job's result
//! bit-identical to a solo run seeded with its job seed:
//!
//! ```
//! use het_mpc::prelude::*;
//! use std::sync::Arc;
//!
//! let g = Arc::new(generators::gnm(128, 768, 42).with_random_weights(1 << 12, 42));
//! let mut service = Service::new(
//!     ClusterConfig::new(g.n(), g.m()).seed(42).polylog_exponent(2.6),
//! )
//! .capacity_shares(3);
//!
//! // Three concurrent jobs — a spanner, a matching, and a min cut.
//! let spanner = service.submit(JobSpec::new("spanner", g.clone()).seed(1).spanner_k(3)).unwrap();
//! let matching = service.submit(JobSpec::new("matching", g.clone()).seed(2)).unwrap();
//! let mincut = service.submit(JobSpec::new("mincut", g.clone()).seed(3).mincut_trials(4)).unwrap();
//!
//! let run = service.run(ExecMode::Serial).unwrap(); // or Parallel: bit-identical
//! assert_eq!(run.records.len(), 3);
//! let spanner = spanner.take_result().unwrap().unwrap().into_spanner().unwrap();
//! let matching = matching.take_result().unwrap().unwrap().into_matching().unwrap();
//! let mincut = mincut.take_result().unwrap().unwrap().into_mincut().unwrap();
//! println!(
//!     "{} spanner edges, {} matched, cut {} — in {} shared rounds",
//!     spanner.spanner.m(), matching.matching.len(), mincut.value, run.rounds,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mpc_baselines as baselines;
pub use mpc_core as core;
pub use mpc_exec as exec;
pub use mpc_graph as graph;
pub use mpc_labeling as labeling;
pub use mpc_runtime as runtime;
pub use mpc_sketch as sketch;

/// The most common imports, bundled.
///
/// Algorithms are run by name through the
/// [`registry`](mpc_exec::registry) (`registry::run`, `registry::run_job`)
/// on the parallel [`Executor`](mpc_exec::Executor). `mpc-core`'s modules
/// (`mst`, `matching`, `spanner`, `ported`) hold the result types and local
/// steps the engine's programs run; MST's cluster-owning loop is the one
/// left, the live twin the equivalence tests compare the engine against.
pub mod prelude {
    pub use mpc_core::common;
    pub use mpc_core::{matching, mst, ported, spanner};
    pub use mpc_exec::registry::{self, AlgoInput, AlgoOutput};
    pub use mpc_exec::{
        ExecError, ExecMode, Executor, JobHandle, JobParams, JobRecord, JobSpec, JobStatus,
        MachineProgram, Service, ServiceRun, StepOutcome,
    };
    pub use mpc_graph::{generators, Edge, Graph, VertexId};
    pub use mpc_runtime::{
        Cluster, ClusterConfig, CostModel, Enforcement, Fault, FaultPlan, RecoveryPolicy,
        ShardedVec, Topology,
    };
}
