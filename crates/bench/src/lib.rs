//! Benchmark harness: regenerates the paper's evaluation artifacts.
//!
//! The paper's artifacts are **Table 1** (round complexities of nine graph
//! problems across three memory regimes) and **Figure 1** (original vs.
//! modified Baswana–Sen behaviour); every theorem additionally gets a
//! scaling experiment so the *shape* of each claimed bound is measured.
//! The experiments are the rows of [`EXPERIMENTS`]; `DESIGN.md` §4 lists
//! each with its theorem and what it asserts.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p mpc-bench --release --bin experiments            # all
//! cargo run -p mpc-bench --release --bin experiments -- table1  # one
//! cargo bench --workspace                                       # Criterion timings
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::{Experiment, EXPERIMENTS};
pub use table::Table;
