//! O(1)-round communication primitives (the paper's Claims 1–4).
//!
//! | Paper tool | Implementation | Rounds |
//! |---|---|---|
//! | Claim 1 (sorting) | [`sort::sample_sort`] — sample-based splitter sort, two-level when capacities demand it | 3–8 |
//! | Claim 2 (aggregation) | [`aggregate::aggregate_by_key`] — hash-partitioned owners | 1–2 |
//! | Claim 3 (dissemination) | [`kv::disseminate`] — hash-owned key-value service with relay wave for hot keys | 3–4 |
//! | Claim 4 (arranging nodes) | none here: the engine programs run it, truncating with `mpc_exec::combinators::top_by_key` at every stage of their own rounds | — |
//! | (folklore) broadcast/reduce | [`broadcast::broadcast`], [`reduce::reduce_to`] — capacity-driven fanout trees | `O(log_F K)` |
//!
//! **Substitution note (recorded in DESIGN.md §4):** Claims 2–4 in the paper
//! route through sorted machine *ranges* with per-vertex machine trees. We
//! implement the same information flow with *hash-partitioned owners*, which
//! respects the identical capacity constraints, costs the same `O(1)` round
//! class, and is robust to arbitrary initial edge placement. Hot keys (a
//! vertex whose edges span nearly all machines) get a two-wave relay in
//! [`kv::disseminate`], mirroring the paper's trees.

pub mod aggregate;
pub mod broadcast;
pub mod gather;
pub mod kv;
pub mod reduce;
pub mod sort;

pub use aggregate::aggregate_by_key;
pub use broadcast::broadcast;
pub use gather::gather_to;
pub use kv::{disseminate, lookup};
pub use reduce::{reduce_to, sum_to};
pub use sort::sample_sort;

use crate::payload::MachineId;

/// Keys that can be deterministically hashed to an owner machine.
///
/// Implemented for the id-like types the algorithms use. The hash is a fixed
/// SplitMix64 finalizer — deterministic across runs and platforms (unlike
/// `std`'s `RandomState`), which keeps whole simulations reproducible.
pub trait HashKey: Clone + Ord + Eq {
    /// A well-mixed 64-bit hash of the key.
    fn hash64(&self) -> u64;
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl HashKey for u32 {
    fn hash64(&self) -> u64 {
        splitmix64(*self as u64)
    }
}

impl HashKey for u64 {
    fn hash64(&self) -> u64 {
        splitmix64(*self)
    }
}

impl HashKey for usize {
    fn hash64(&self) -> u64 {
        splitmix64(*self as u64)
    }
}

impl HashKey for (u32, u32) {
    fn hash64(&self) -> u64 {
        splitmix64(((self.0 as u64) << 32) | self.1 as u64)
    }
}

impl HashKey for (u64, u64) {
    fn hash64(&self) -> u64 {
        splitmix64(self.0.wrapping_mul(0xa076_1d64_78bd_642f) ^ self.1)
    }
}

/// The owner machine of `key` among `owners`.
///
/// # Panics
///
/// Panics if `owners` is empty.
pub fn owner_of<K: HashKey>(key: &K, owners: &[MachineId]) -> MachineId {
    assert!(!owners.is_empty(), "owner_of: no owner machines");
    owners[(key.hash64() % owners.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_spread() {
        let owners: Vec<MachineId> = (1..9).collect();
        let a = owner_of(&42u32, &owners);
        assert_eq!(a, owner_of(&42u32, &owners));
        // Spread: 1000 keys should hit every owner.
        let mut seen = std::collections::HashSet::new();
        for k in 0u32..1000 {
            seen.insert(owner_of(&k, &owners));
        }
        assert_eq!(seen.len(), owners.len());
    }

    #[test]
    fn pair_keys_hash_differently_by_order() {
        assert_ne!((1u32, 2u32).hash64(), (2u32, 1u32).hash64());
    }
}
