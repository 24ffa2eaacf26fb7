//! Graph substrate for the `het-mpc` workspace.
//!
//! This crate provides everything the heterogeneous-MPC algorithms of
//! Fischer, Horowitz & Oshman (PODC 2022) need from a graph library:
//!
//! * compact graph types with the paper's weight conventions
//!   (positive integer weights, made unique via [`WeightKey`] tie-breaking),
//! * workload generators (uniform `G(n,m)`, the 1-vs-2 cycle family used by
//!   the conditional hardness discussion, grids, power-law graphs, trees, …),
//! * **sequential reference algorithms** used as correctness oracles for the
//!   distributed implementations (Kruskal MST, BFS/Dijkstra, greedy maximal
//!   matching, greedy MIS, greedy coloring, Stoer–Wagner and
//!   Nagamochi–Ono–Ibaraki min cut),
//! * validators (`is_matching`, `is_maximal_independent_set`,
//!   `verify_spanner`, …) used by tests and by the benchmark harness, and
//! * helpers for sharding an edge list across MPC machines.
//!
//! # Example
//!
//! ```
//! use mpc_graph::{generators, mst};
//!
//! let g = generators::gnm(100, 400, 7).with_random_weights(1_000, 7);
//! let forest = mst::kruskal(&g);
//! assert_eq!(forest.edges.len(), 99); // this G(n, 4n) instance is connected
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod coloring;
pub mod distribution;
pub mod dsu;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod matching;
pub mod mincut;
pub mod mis;
pub mod mst;
pub mod traversal;

pub use checks::{is_spanning_forest, is_subgraph, verify_spanner, SpannerReport};
pub use dsu::DisjointSets;
pub use graph::{Adjacency, Graph};
pub use ids::{Edge, VertexId, Weight, WeightKey};
pub use mst::Forest;
