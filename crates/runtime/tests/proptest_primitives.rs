//! Property tests for the communication primitives: whatever the data
//! distribution, results must equal their sequential references and respect
//! capacities in strict mode.

use mpc_runtime::primitives::{aggregate_by_key, disseminate, sample_sort, sum_to};
use mpc_runtime::{Cluster, ClusterConfig, ShardedVec, Topology};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn cluster(machines: usize, cap: usize) -> Cluster {
    let mut caps = vec![cap; machines];
    caps[0] = cap * 50;
    Cluster::new(ClusterConfig::new(256, 1024).topology(Topology::Custom {
        capacities: caps,
        large: Some(0),
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sort_output_is_sorted_and_complete(
        items in proptest::collection::vec(0u64..1_000_000, 1..600),
        machines in 3usize..20,
    ) {
        let mut c = cluster(machines, 4000);
        let parts = c.small_ids();
        let sv = ShardedVec::scatter(&c, items.clone(), &parts);
        let sorted = sample_sort(&mut c, "p", sv, &parts, |&x| x).unwrap();
        let mut flat: Vec<u64> = Vec::new();
        for &m in &parts {
            flat.extend(sorted.shard(m));
        }
        let mut want = items;
        want.sort_unstable();
        prop_assert_eq!(flat, want);
    }

    #[test]
    fn aggregation_matches_sequential_fold(
        pairs in proptest::collection::vec((0u32..60, 1u64..100), 1..400),
        machines in 3usize..16,
    ) {
        let mut c = cluster(machines, 6000);
        let owners = c.small_ids();
        let sv = ShardedVec::scatter(&c, pairs.clone(), &owners);
        let agg = aggregate_by_key(&mut c, "p", &sv, &owners, |a, b| a + b).unwrap();
        let mut got: BTreeMap<u32, u64> = BTreeMap::new();
        for (_m, (k, v)) in agg.iter() {
            prop_assert!(got.insert(*k, *v).is_none(), "duplicate key at owners");
        }
        let mut want: BTreeMap<u32, u64> = BTreeMap::new();
        for (k, v) in pairs {
            *want.entry(k).or_default() += v;
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dissemination_answers_exactly_the_requests(
        keys in proptest::collection::btree_set(0u32..80, 1..60),
        requests_per_machine in proptest::collection::vec(
            proptest::collection::vec(0u32..100, 0..20), 2..10),
    ) {
        let machines = requests_per_machine.len() + 1;
        let mut c = cluster(machines, 4000);
        let owners = c.small_ids();
        let pairs: Vec<(u32, u64)> = keys.iter().map(|&k| (k, k as u64 * 31)).collect();
        let mut req: ShardedVec<u32> = ShardedVec::new(&c);
        for (i, rs) in requests_per_machine.iter().enumerate() {
            req.shard_mut(owners[i % owners.len()]).extend(rs.iter().copied());
        }
        let got = disseminate(&mut c, "p", &pairs, 0, &req, &owners).unwrap();
        for mid in 0..machines {
            let mut asked: Vec<u32> = req.shard(mid).to_vec();
            asked.sort_unstable();
            asked.dedup();
            let expected: Vec<(u32, u64)> = asked
                .into_iter()
                .filter(|k| keys.contains(k))
                .map(|k| (k, k as u64 * 31))
                .collect();
            prop_assert_eq!(got.shard(mid), &expected[..], "machine {}", mid);
        }
    }

    #[test]
    fn sum_reduction_is_exact(
        values in proptest::collection::vec(0u64..1_000_000, 2..40),
    ) {
        let mut c = cluster(values.len(), 3000);
        let parts: Vec<usize> = (0..values.len()).collect();
        let got = sum_to(&mut c, "p", &parts, values.clone(), 0).unwrap();
        prop_assert_eq!(got, values.iter().sum::<u64>());
    }
}
