//! Near-linear MPC algorithms ported to the heterogeneous model
//! (Appendix C of the paper): their result types and the local steps the
//! engine's programs in `mpc-exec` run.
//!
//! Each of these was originally designed for the near-linear regime; the
//! paper observes that a *single* near-linear machine suffices, because the
//! global work always reduces to (i) `Õ(n)` words of linear-sketch or
//! sampled data that the small machines can produce collectively, plus
//! (ii) free local computation on the large machine:
//!
//! | Problem | Module | Rounds | Paper |
//! |---|---|---|---|
//! | Connectivity | [`connectivity`] | `O(1)` | Thm C.1 |
//! | (1+ε)-approx. MST weight | [`mst_approx`] | `O(1)` | Thm C.2 |
//! | Exact unweighted min cut | [`mincut_exact`] | `O(1)` | Thm C.3 |
//! | (1±ε)-approx. weighted min cut | [`mincut_approx`] | `O(1)` | Thm C.4 |
//! | Maximal independent set | [`mis`] | `O(log log Δ)` | Thm C.6 |
//! | (Δ+1)-vertex coloring | [`coloring`] | `O(1)` | Thm C.7 |

pub mod coloring;
pub mod connectivity;
pub mod mincut_approx;
pub mod mincut_exact;
pub mod mis;
pub mod mst_approx;
