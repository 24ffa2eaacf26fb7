//! # mpc-exec — the parallel execution engine
//!
//! The paper's model promises that per-round local computation is "free";
//! the legacy simulator nevertheless executes every machine's local work
//! *serially* on one thread, so simulated wall-clock grows with cluster
//! size — the opposite of what an MPC deployment does. This crate closes
//! that gap:
//!
//! * [`MachineProgram`] — an algorithm as a per-machine state machine
//!   (`step(ctx, inbox) -> StepOutcome`), i.e. *data the engine drives*
//!   instead of a loop that owns the [`Cluster`](mpc_runtime::Cluster);
//! * [`Executor`] — a round driver that steps all machines concurrently on
//!   a **persistent worker pool** ([`pool`]; std-only, the offline build
//!   environment has no rayon) with dynamic work claiming, deterministic
//!   inbox ordering, and **bit-identical** round logs, results, and RNG
//!   streams to serial execution under the same seed. The round loop is
//!   allocation-free in steady state (interned labels, reused buffers);
//! * a heterogeneous [`CostModel`](mpc_runtime::CostModel) (per-machine
//!   compute speed, link bandwidth, per-round latency) lives in
//!   `mpc-runtime` and turns every round into a simulated *makespan*, so
//!   straggler and non-uniform-speed scenarios are measurable.
//!
//! Ported programs live in [`programs`]; every one of them is reached by
//! name through the [`registry`].
//!
//! ## Example
//!
//! ```
//! use mpc_exec::{registry, ExecMode, JobSpec};
//! use mpc_core::ported::connectivity::sketch_friendly_config;
//! use mpc_graph::generators;
//! use mpc_runtime::Cluster;
//!
//! let g = generators::gnm(64, 160, 7);
//! let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), 7));
//! let spec = JobSpec::new("connectivity", g);
//! let comps = registry::run_job(&spec, &mut cluster, ExecMode::Parallel).unwrap();
//! // The same components as a sequential traversal.
//! assert_eq!(registry::certify(&spec, &comps), Ok(()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combinators;
pub mod driver;
pub mod machine;
pub mod mixed;
pub mod pool;
pub mod programs;
pub mod registry;
pub mod report;
pub mod service;

pub use combinators::{Driven, Outbox, Owners, RoleProgram};
pub use driver::{ExecError, ExecMode, ExecOutcome, Executor, WaveRound};
pub use machine::{MachineCtx, MachineProgram, StepOutcome};
pub use mixed::{ErasedProgram, MixedMsg, MixedWave};
pub use programs::{
    BoruvkaProgram, ColoringProgram, ConnectivityProgram, MatchingProgram, MinCutProgram,
    MisProgram, MstProgram, SpannerProgram,
};
pub use registry::{AlgoOutput, Algorithm, JobParams, JobRetryPolicy, JobSpec};
pub use report::{CriticalPath, MachineLoad, RecoveryBreakdown, RunReport};
pub use service::{JobHandle, JobRecord, JobStatus, Service, ServiceRun};
