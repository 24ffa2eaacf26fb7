//! Baseline MPC algorithms for the Table-1 comparison.
//!
//! The paper contrasts its heterogeneous algorithms against the *sublinear*
//! regime (no large machine, `K = m/n^γ` machines of `Õ(n^γ)` words) and
//! the *near-linear* regime (`Õ(n)` words per machine). This crate provides
//! both columns:
//!
//! * [`contraction`] — the distributed Borůvka engine (hooking + pointer
//!   jumping) underlying the sublinear MST and connectivity baselines;
//!   round counts grow with `log n`, the growth the heterogeneous
//!   algorithms eliminate;
//! * [`sublinear`] — MST, connectivity, 1-vs-2-cycle detection, maximal
//!   matching (peeling), Luby MIS, and randomized (Δ+1)-coloring, all
//!   running without a large machine;
//! * [`near_linear`] — the near-linear column: the same heterogeneous
//!   algorithm implementations executed on a cluster whose *every* machine
//!   is near-linear (the regime where the paper's ports originated).
//!
//! Substitution note (DESIGN.md §4): the literature's best sublinear
//! algorithms (`O(log D + log log n)` connectivity \[11\],
//! `O(√log Δ·log log Δ + √log log n)` matching/MIS \[33\]) are replaced by
//! classic `O(log n)`-type algorithms. Table 1's contrast needs baselines
//! whose rounds *grow with n*; these provide that shape honestly, and the
//! gap they show against the heterogeneous algorithms is therefore an
//! upper bound on the regime's capability, not a straw man — Table 1
//! (`experiments -- table1`, DESIGN.md §4) quotes the asymptotics of the
//! best known algorithms alongside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contraction;
pub mod near_linear;
pub mod sublinear;

pub use contraction::{boruvka_contraction, ContractionResult};
pub use near_linear::near_linear_config;
pub use sublinear::{
    sublinear_coloring, sublinear_components, sublinear_matching, sublinear_mis, sublinear_mst,
    two_vs_one_cycle_baseline,
};
