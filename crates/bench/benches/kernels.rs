//! Criterion benches for the substrate kernels the algorithms lean on:
//! the distributed sort (Claim 1), the max-edge labeling (the F-light
//! filter of §3), the AGM sketch machinery (Appendix C.1) down to its
//! per-edge, per-merge and per-exponentiation kernels, the large
//! machine's local min cut, and the sort-and-scan group-by kernels of the
//! role programs' small-machine steps.

use criterion::{criterion_group, criterion_main, Criterion};
use mpc_graph::generators;
use mpc_labeling::MaxEdgeLabeling;
use mpc_runtime::{Cluster, ClusterConfig, ShardedVec, Topology};
use mpc_sketch::field::PowTable;
use mpc_sketch::hashing::KWiseHash;
use mpc_sketch::{merge_batches, sketch_connectivity_batches, EdgeUpdate, SketchFamily};
use std::hint::black_box;

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_sample_sort");
    group.sample_size(20);
    group.bench_function("sort_10k_items_64_machines", |b| {
        b.iter(|| {
            let cfg = ClusterConfig::new(1024, 10_000).topology(Topology::Custom {
                capacities: vec![20_000; 65],
                large: Some(0),
            });
            let mut cluster = Cluster::new(cfg);
            let parts = cluster.small_ids();
            let items: Vec<u64> = (0..10_000u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
            let sv = ShardedVec::scatter(&cluster, items, &parts);
            black_box(
                mpc_runtime::primitives::sample_sort(&mut cluster, "b", sv, &parts, |&x| x)
                    .unwrap(),
            );
        })
    });
    group.finish();
}

fn bench_labeling(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_labeling");
    group.sample_size(20);
    let forest = generators::random_tree(4096, 5).with_random_weights(1 << 20, 5);
    group.bench_function("build_n4096", |b| {
        b.iter(|| black_box(MaxEdgeLabeling::build(&forest).unwrap()))
    });
    let labeling = MaxEdgeLabeling::build(&forest).unwrap();
    let labels = labeling.labels();
    group.bench_function("decode_1k_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u32 {
                let u = (i * 7919) % 4096;
                let v = (i * 104729 + 13) % 4096;
                if let Some(k) = MaxEdgeLabeling::decode(&labels[u as usize], &labels[v as usize]) {
                    acc ^= k.w;
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_sketch");
    group.sample_size(20);
    let fam = SketchFamily::new(1024, 1, 9);
    group.bench_function("add_1k_edges", |b| {
        b.iter(|| {
            let mut s = fam.empty(0);
            for v in 1..1000u32 {
                fam.add_edge(&mut s, 0, v);
            }
            black_box(s)
        })
    });
    let mut merged = fam.empty(0);
    for v in 1..200u32 {
        fam.add_edge(&mut merged, 0, v);
    }
    group.bench_function("decode", |b| b.iter(|| black_box(fam.decode(&merged))));
    // One prepared update per edge, applied to both endpoints' sketches.
    let mut row: Vec<_> = (0..1024).map(|_| fam.empty(0)).collect();
    group.bench_function("edge_update_pair_1k", |b| {
        b.iter(|| {
            for v in 1..=1000u32 {
                let update = fam.prepare(0, v - 1, v);
                row[v as usize - 1].apply(&update, v - 1);
                row[v as usize].apply(&update, v);
            }
            black_box(&row);
        })
    });
    // The benchmark's `connectivity` shape: n = 1536, 24 phases, 73 small
    // machines (`ClusterConfig::small_machine_count` at m = 9216; senders
    // and owners at once) holding 128 edges each, dealt round-robin.
    const SMALLS: usize = 73;
    let wide = SketchFamily::new(1536, 24, 9);
    let g = generators::gnm(1536, SMALLS * 128, 9);
    let shards: Vec<Vec<_>> = (0..SMALLS)
        .map(|s| (g.edges().iter().skip(s).step_by(SMALLS).map(|e| (e.u, e.v))).collect())
        .collect();
    // One sender's hashing: every edge-phase of its shard, edge by edge and
    // one slice per phase.
    group.bench_function("prepare_per_edge_128e_24ph", |b| {
        b.iter(|| {
            for phase in 0..wide.phases() {
                for &(u, v) in &shards[0] {
                    black_box(wide.prepare(phase, u, v));
                }
            }
        })
    });
    let mut updates = vec![EdgeUpdate::EMPTY; shards[0].len()];
    group.bench_function("prepare_slice_128e_24ph", |b| {
        b.iter(|| {
            for phase in 0..wide.phases() {
                wide.prepare_slice(phase, &shards[0], &mut updates);
                black_box(&updates);
            }
        })
    });
    group.bench_function("partial_batches_128e_24ph", |b| {
        b.iter(|| black_box(wide.partial_batches(&shards[0], SMALLS)))
    });
    // The three rounds of a pass: every sender, every owner (its batch from
    // each sender), the large machine over the owners' batches.
    group.bench_function("sender_round_73x128e", |b| {
        b.iter(|| {
            for local in &shards {
                black_box(wide.partial_batches(local, SMALLS));
            }
        })
    });
    let mut inboxes = vec![Vec::new(); SMALLS];
    for local in &shards {
        for (inbox, batch) in inboxes.iter_mut().zip(wide.partial_batches(local, SMALLS)) {
            inbox.push(batch);
        }
    }
    group.bench_function("owner_merge_batches_73way", |b| {
        b.iter(|| black_box(merge_batches(&inboxes[0])))
    });
    group.bench_function("owner_round_73x73way", |b| {
        b.iter(|| {
            for inbox in &inboxes {
                black_box(merge_batches(inbox));
            }
        })
    });
    let merged: Vec<_> = inboxes.iter().map(|inbox| merge_batches(inbox)).collect();
    group.bench_function("large_sketch_connectivity_n1536", |b| {
        b.iter(|| black_box(sketch_connectivity_batches(&wide, &merged, 1536)))
    });
    // The prepare kernel's hashing: 1000 blocks of 8 Horner chains of a
    // degree-12 polynomial (k = 13, `connectivity`'s independence).
    let hash = KWiseHash::new(13, 9);
    group.bench_function("hash_eval_lanes_8x13", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for block in 0..1000u64 {
                let xs = std::array::from_fn(|i| block << 20 | i as u64);
                acc ^= hash
                    .eval_lanes::<8>(black_box(xs))
                    .iter()
                    .fold(0, |a, &h| a ^ h);
            }
            black_box(acc)
        })
    });
    let table = PowTable::new(0x1234_5678_9ABC, 1024 * 1024);
    group.bench_function("pow_fixed_base", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for e in 0..1000u64 {
                acc ^= table.pow(black_box(e * 1021));
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_mincut(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_mincut");
    // The value-only contraction beside the routine it replaced on the
    // engine path, at the benchmark's skeleton shape and at a size where
    // Stoer–Wagner's cubic term dominates (half a second a call: few samples).
    for (n, m, samples) in [(288, 1440, 20), (1024, 8192, 5)] {
        group.sample_size(samples);
        let g = generators::gnm(n, m, 7).with_random_weights(1 << 12, 7);
        let edges: Vec<_> = g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        group.bench_function(format!("stoer_wagner_n{n}_m{m}"), |b| {
            b.iter(|| black_box(mpc_graph::mincut::stoer_wagner(n, &edges)))
        });
        group.bench_function(format!("min_cut_weight_n{n}_m{m}"), |b| {
            b.iter(|| black_box(mpc_graph::mincut::min_cut_weight(n, &edges)))
        });
    }
    group.finish();
}

/// The small-machine group-by steps of the non-sketch programs at the
/// benchmark's `registry-mix` shape (n = 8000, m = 48000 over 128 shards:
/// 375 edges and ≈ 750 endpoints a shard), each beside the `BTreeMap` /
/// `HashMap` form it replaced so the ratio reproduces without the whole
/// benchmark.
fn bench_programs(c: &mut Criterion) {
    use mpc_exec::combinators::{
        announce_degrees, fold_by_key, top_by_key, EndpointIndex, Outbox, Owners,
    };
    use mpc_graph::{Edge, VertexId};
    use std::collections::{BTreeMap, HashMap};

    let mut group = c.benchmark_group("kernel_programs");
    group.sample_size(20);
    let g = generators::gnm(8000, 48_000, 7);
    let shards: Vec<&[Edge]> = g.edges().chunks(375).collect();
    let cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(7));
    let owners = Owners::of_cluster(&cluster);
    // One fixed pseudo-random rank per edge side (SplitMix64 of its index).
    let rank = |i: usize| (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64) << 29;

    // mincut's per-trial worker step: two ranked items per edge, the two
    // smallest ranks per incident vertex.
    let ranked: Vec<Vec<(VertexId, (u64, Edge))>> = shards
        .iter()
        .map(|shard| {
            let sides = shard.iter().flat_map(|e| [(e.u, *e), (e.v, *e)]);
            sides
                .enumerate()
                .map(|(i, (v, e))| (v, (rank(i), e)))
                .collect()
        })
        .collect();
    group.bench_function("top2_by_vertex", |b| {
        b.iter(|| {
            for items in &ranked {
                let mut items = items.clone();
                top_by_key(&mut items, 2, |x| x.0);
                black_box(items);
            }
        })
    });
    group.bench_function("top2_by_vertex_btreemap", |b| {
        b.iter(|| {
            for items in &ranked {
                let mut groups: BTreeMap<VertexId, Vec<(u64, Edge)>> = BTreeMap::new();
                for &(v, re) in items {
                    groups.entry(v).or_default().push(re);
                }
                for vs in groups.values_mut() {
                    vs.sort_by_key(|x| x.0);
                    vs.truncate(2);
                }
                black_box(groups);
            }
        })
    });

    // mincut's pair-multiplicity step: one `(label pair, 1)` per edge,
    // summed per pair (labels = 400 contracted components).
    let pairs: Vec<Vec<((u32, u32), u64)>> = shards
        .iter()
        .map(|shard| {
            let pair = |e: &Edge| ((e.u % 400).min(e.v % 400), (e.u % 400).max(e.v % 400));
            shard.iter().map(|e| (pair(e), 1)).collect()
        })
        .collect();
    group.bench_function("sum_by_key_pairs", |b| {
        b.iter(|| {
            for items in &pairs {
                let mut items = items.clone();
                fold_by_key(&mut items, |a, b| *a += *b);
                black_box(items);
            }
        })
    });
    group.bench_function("sum_by_key_pairs_btreemap", |b| {
        b.iter(|| {
            for items in &pairs {
                let mut sums: BTreeMap<(u32, u32), u64> = BTreeMap::new();
                for &(p, c) in items {
                    *sums.entry(p).or_default() += c;
                }
                black_box(sums);
            }
        })
    });

    // The round-0 degree kick-off of seven programs, index build included.
    group.bench_function("degree_announce", |b| {
        b.iter(|| {
            for shard in &shards {
                let mut out: Outbox<(VertexId, u32)> = Outbox::new();
                let index = EndpointIndex::build(shard);
                announce_degrees(&mut out, &owners, &index, |v, c| (v, c));
                black_box(out);
            }
        })
    });
    group.bench_function("degree_announce_btreemap", |b| {
        b.iter(|| {
            for shard in &shards {
                let mut out: Outbox<(VertexId, u32)> = Outbox::new();
                let mut partial: BTreeMap<VertexId, u32> = BTreeMap::new();
                for e in *shard {
                    *partial.entry(e.u).or_default() += 1;
                    *partial.entry(e.v).or_default() += 1;
                }
                for (&v, &c) in &partial {
                    out.send(owners.of(&v), (v, c));
                }
                black_box(out);
            }
        })
    });

    // spanner's round-5 coverage step: OR of the neighbours' masks per
    // endpoint, masks delivered as `(vertex, mask)` answers.
    let indexes: Vec<EndpointIndex> = shards.iter().map(|s| EndpointIndex::build(s)).collect();
    let mask = |v: VertexId| 1u64 << (v % 60);
    group.bench_function("coverage_or_indexed", |b| {
        b.iter(|| {
            for index in &indexes {
                let mut masks = index.table(0u64);
                for &v in index.endpoints() {
                    masks[index.slot_of(v)] = mask(v);
                }
                let mut acc = index.table(0u64);
                for &[a, b] in index.slots() {
                    acc[a as usize] |= masks[b as usize];
                    acc[b as usize] |= masks[a as usize];
                }
                black_box(acc);
            }
        })
    });
    group.bench_function("coverage_or_hashmap", |b| {
        b.iter(|| {
            for (shard, index) in shards.iter().zip(&indexes) {
                let mut masks: HashMap<VertexId, u64> = HashMap::new();
                for &v in index.endpoints() {
                    masks.insert(v, mask(v));
                }
                let mut acc: BTreeMap<VertexId, u64> = BTreeMap::new();
                for e in *shard {
                    let mu = masks.get(&e.u).copied().unwrap_or(0);
                    let mv = masks.get(&e.v).copied().unwrap_or(0);
                    *acc.entry(e.u).or_default() |= mv;
                    *acc.entry(e.v).or_default() |= mu;
                }
                black_box(acc);
            }
        })
    });
    group.finish();
}

fn bench_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_reference");
    group.sample_size(20);
    let g = generators::gnm(2048, 32_768, 11).with_random_weights(1 << 20, 11);
    group.bench_function("kruskal_n2048_m32768", |b| {
        b.iter(|| black_box(mpc_graph::mst::kruskal(&g)))
    });
    group.finish();
}

fn bench_exec_engine(c: &mut Criterion) {
    use mpc_core::ported::connectivity::sketch_friendly_config;
    use mpc_exec::{registry, ExecMode, JobSpec};

    let mut group = c.benchmark_group("exec_engine");
    group.sample_size(10);
    let g = generators::gnm(256, 2048, 7);
    let spec = JobSpec::new("connectivity", g.clone());
    for (name, mode) in [
        ("serial", ExecMode::Serial),
        ("parallel", ExecMode::Parallel),
    ] {
        group.bench_function(format!("connectivity_n256_{name}"), |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), 7));
                black_box(registry::run_job(&spec, &mut cluster, mode).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sort,
    bench_labeling,
    bench_sketch,
    bench_mincut,
    bench_programs,
    bench_reference,
    bench_exec_engine
);
criterion_main!(benches);
