//! Algorithms ported to the [`MachineProgram`](crate::MachineProgram)
//! execution model.
//!
//! Each port is mathematically the same algorithm as the cluster-owning
//! loop it replaced in `mpc-core` and produces **identical results** on the
//! inputs they were compared on — pinned by the golden `LEGACY_CASES` rows
//! of `registry_equivalence.rs`, taken while the loops still ran; what
//! changes is the shape: per-machine state machines the engine can
//! schedule concurrently, instead of a loop that owns the whole cluster.
//!
//! [`ConnectivityProgram`] is the one sketch program: `connectivity` runs
//! it once, `mst-approx` once per weight threshold.

pub mod boruvka;
pub mod coloring;
pub mod connectivity;
pub mod matching;
pub mod mincut;
pub mod mincut_approx;
pub mod mis;
pub mod mst;
pub mod spanner;

pub use boruvka::{BoruvkaProgram, MstMsg};
pub use coloring::{ColorCmd, ColorNetMsg, ColoringProgram};
pub use connectivity::{ConnMsg, ConnectivityProgram};
pub use matching::{MatchCmd, MatchNetMsg, MatchingProgram};
pub use mincut::{MinCutCmd, MinCutNetMsg, MinCutProgram};
pub use mincut_approx::{GuessOutcome, MinCutGuessWave, XCutNetMsg};
pub use mis::{MisCmd, MisNetMsg, MisProgram};
pub use mst::{MstCmd, MstNetMsg, MstProgram};
pub use spanner::{SpannerNetMsg, SpannerProgram};
