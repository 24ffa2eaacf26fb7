//! AGM linear graph sketches (Ahn–Guha–McGregor \[1, 2\]) with the
//! ℓ0-sampling machinery of Jowhari–Sağlam–Tardos \[36\].
//!
//! The heterogeneous-MPC paper ports the `O(1)`-round connectivity algorithm
//! of \[1\] to its model (Appendix C.1): each vertex `v` gets a *linear*
//! sketch `s(v)` of its incidence vector; linearity means
//! `s(v₁) + … + s(vₖ)` sketches the *outgoing* edges of the component
//! `{v₁, …, vₖ}` (internal edges cancel thanks to the ±1 orientation trick),
//! so a single machine holding all sketches can run Borůvka locally without
//! ever seeing the graph. Small machines build partial sketches from their
//! local edges and the sketches are summed with the aggregation primitive —
//! exactly Property 1 in the paper's proof of Theorem C.1.
//!
//! Shared randomness is replaced by `O(log n)`-wise independent hash
//! functions whose seeds one machine draws and disseminates, as the paper
//! prescribes; all hashing here is seeded and deterministic.
//!
//! # Example
//!
//! ```
//! use mpc_sketch::{SketchFamily, VertexSketch};
//!
//! // A 4-vertex path 0-1-2-3 sketched vertex by vertex.
//! let fam = SketchFamily::new(4, 1, 42);
//! let mut s: Vec<VertexSketch> = (0..4).map(|v| fam.empty(0)).collect();
//! for &(u, v) in &[(0u32, 1u32), (1, 2), (2, 3)] {
//!     fam.add_edge(&mut s[u as usize], u, v);
//!     fam.add_edge(&mut s[v as usize], v, u);
//! }
//! // The component {0, 1} has exactly one outgoing edge: (1, 2).
//! let mut combined = s[0].clone();
//! combined.merge(&s[1]);
//! let (u, v) = fam.decode(&combined).expect("one outgoing edge");
//! assert_eq!((u, v), (1, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod field;
pub mod hashing;
pub mod l0;
pub mod onesparse;

pub use connectivity::{
    merge_batches, partial_key, sketch_connectivity, sketch_connectivity_batches, PartialBatch,
    PartialRow,
};
pub use l0::{EdgeUpdate, L0Sampler, SketchFamily, SparseCell, SparseSketch, VertexSketch};
pub use onesparse::{OneSparse, OneSparseDecode};
