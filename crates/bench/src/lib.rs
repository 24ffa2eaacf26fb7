//! Benchmark harness: regenerates the paper's evaluation artifacts.
//!
//! The paper's artifacts are **Table 1** (round complexities of nine graph
//! problems across three memory regimes) and **Figure 1** (original vs.
//! modified Baswana–Sen behaviour); every theorem additionally gets a
//! scaling experiment so the *shape* of each claimed bound is measured.
//! The experiment index lives in `DESIGN.md` §4.
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

pub use table::Table;

/// All experiment names, in presentation order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "mst_scaling",
    "mst_superlinear",
    "spanner",
    "baswana_ablation",
    "figure1",
    "matching",
    "matching_filtering",
    "apsp",
    "connectivity",
    "mst_approx",
    "mincut",
    "mis",
    "coloring",
    "two_vs_one",
    "exec",
    "service",
    "registry",
    "budgets",
    "chaos",
    "chaos-service",
];

/// Runs one experiment by name, printing its tables to stdout.
///
/// # Panics
///
/// Panics on unknown experiment names (callers validate against
/// [`EXPERIMENTS`]).
pub fn run_experiment(name: &str) {
    match name {
        "table1" => experiments::table1(),
        "mst_scaling" => experiments::mst_scaling(),
        "mst_superlinear" => experiments::mst_superlinear(),
        "spanner" => experiments::spanner(),
        "baswana_ablation" => experiments::baswana_ablation(),
        "figure1" => experiments::figure1(),
        "matching" => experiments::matching(),
        "matching_filtering" => experiments::matching_filtering(),
        "apsp" => experiments::apsp(),
        "connectivity" => experiments::connectivity(),
        "mst_approx" => experiments::mst_approx(),
        "mincut" => experiments::mincut(),
        "mis" => experiments::mis(),
        "coloring" => experiments::coloring(),
        "two_vs_one" => experiments::two_vs_one(),
        "exec" => experiments::exec_engine(),
        "service" => experiments::service(),
        "registry" => experiments::registry_smoke(),
        "budgets" => experiments::budgets(),
        "chaos" => experiments::chaos(),
        "chaos-service" => experiments::chaos_service(),
        other => panic!("unknown experiment '{other}'; see --list"),
    }
}
