//! Key-partitioned aggregation (the paper's Claim 2).

use super::{owner_of, HashKey};
use crate::cluster::Cluster;
use crate::error::ModelViolation;
use crate::payload::{MachineId, Payload};
use crate::sharded::ShardedVec;
use std::collections::BTreeMap;

/// Aggregates all `(key, value)` items under an associative, commutative
/// `combine`, leaving one `(key, f(values))` pair on the key's hash-owner
/// machine. 2 rounds (group collectors, then owners) plus free local
/// combining.
///
/// This is Claim 2 with hash-partitioned owners instead of sorted ranges:
/// the per-machine receive volume is the number of distinct
/// `(machine, key)` pairs mapping to it, which hashing balances; the
/// collector stage bounds the damage of hot keys spanning all machines.
///
/// Returns the owner-sharded aggregates, sorted by key within each shard.
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn aggregate_by_key<K, V>(
    cluster: &mut Cluster,
    label: &str,
    items: &ShardedVec<(K, V)>,
    owners: &[MachineId],
    mut combine: impl FnMut(&V, &V) -> V,
) -> Result<ShardedVec<(K, V)>, ModelViolation>
where
    K: HashKey + Payload,
    V: Payload,
{
    assert!(!owners.is_empty(), "aggregate_by_key: no owners");
    // Stage A: local combine, then route each partial to a *group collector*
    // — a machine determined by (key, sender-group). A key whose copies span
    // all K machines thus converges on ≤ ceil(K/G) collectors first, so no
    // single machine ever receives more than max(G, K/G) partials per key.
    // This is the fanout-tree of the paper's Claim 2, flattened to 2 rounds.
    let k_machines = cluster.machines();
    let group = (k_machines as f64).sqrt().ceil() as usize;
    let mut out = cluster.empty_outboxes::<(K, V)>();
    let mut local: Vec<BTreeMap<K, V>> = (0..k_machines).map(|_| BTreeMap::new()).collect();
    for mid in 0..items.machines() {
        let mut partial: BTreeMap<K, V> = BTreeMap::new();
        for (k, v) in items.shard(mid) {
            match partial.get(k) {
                Some(cur) => {
                    let merged = combine(cur, v);
                    partial.insert(k.clone(), merged);
                }
                None => {
                    partial.insert(k.clone(), v.clone());
                }
            }
        }
        let g = (mid / group) as u64;
        for (k, v) in partial {
            let idx = (k
                .hash64()
                .wrapping_add(g.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                % owners.len() as u64) as usize;
            let dst = owners[idx];
            if dst == mid {
                merge_into(&mut local[mid], k, v, &mut combine);
            } else {
                out[mid].push((dst, (k, v)));
            }
        }
    }
    let inboxes = cluster.exchange(&format!("{label}.collect"), out)?;
    for (mid, inbox) in inboxes.into_iter().enumerate() {
        for (_src, (k, v)) in inbox {
            merge_into(&mut local[mid], k, v, &mut combine);
        }
    }
    // Stage B: collectors forward their combined partials to the hash owner.
    let mut out = cluster.empty_outboxes::<(K, V)>();
    let mut at_owner: Vec<BTreeMap<K, V>> = (0..k_machines).map(|_| BTreeMap::new()).collect();
    for mid in 0..k_machines {
        for (k, v) in std::mem::take(&mut local[mid]) {
            let dst = owner_of(&k, owners);
            if dst == mid {
                merge_into(&mut at_owner[mid], k, v, &mut combine);
            } else {
                out[mid].push((dst, (k, v)));
            }
        }
    }
    let inboxes = cluster.exchange(&format!("{label}.combine"), out)?;
    let mut result = ShardedVec::new(cluster);
    for (mid, inbox) in inboxes.into_iter().enumerate() {
        let mut acc = std::mem::take(&mut at_owner[mid]);
        for (_src, (k, v)) in inbox {
            merge_into(&mut acc, k, v, &mut combine);
        }
        *result.shard_mut(mid) = acc.into_iter().collect();
    }
    Ok(result)
}

fn merge_into<K: Ord, V>(
    map: &mut BTreeMap<K, V>,
    k: K,
    v: V,
    combine: &mut impl FnMut(&V, &V) -> V,
) {
    match map.get(&k) {
        Some(cur) => {
            let merged = combine(cur, &v);
            map.insert(k, merged);
        }
        None => {
            map.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, Topology};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::new(64, 256).topology(Topology::Custom {
            capacities: vec![4000, 300, 300, 300, 300],
            large: Some(0),
        }))
    }

    #[test]
    fn aggregates_sums_by_key() {
        let mut c = cluster();
        let owners = c.small_ids();
        let mut sv: ShardedVec<(u32, u64)> = ShardedVec::new(&c);
        // Key k appears on several machines with value 1 each.
        for mid in 1..5 {
            for k in 0..10u32 {
                sv[mid].push((k, 1));
                if k % 2 == 0 {
                    sv[mid].push((k, 1));
                }
            }
        }
        let agg = aggregate_by_key(&mut c, "deg", &sv, &owners, |a, b| a + b).unwrap();
        assert_eq!(c.rounds(), 2); // collect + combine stages
        let mut all: Vec<(u32, u64)> = agg.into_flat();
        all.sort();
        let expect: Vec<(u32, u64)> = (0..10)
            .map(|k| (k, if k % 2 == 0 { 8 } else { 4 }))
            .collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn aggregate_handles_owner_local_items() {
        let mut c = cluster();
        let owners = vec![1usize];
        let mut sv: ShardedVec<(u32, u64)> = ShardedVec::new(&c);
        sv[1].push((7, 5)); // already on the only owner
        sv[2].push((7, 6));
        let agg = aggregate_by_key(&mut c, "x", &sv, &owners, |a, b| a + b).unwrap();
        assert_eq!(agg.shard(1), &[(7u32, 11u64)]);
    }
}
