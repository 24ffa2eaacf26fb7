//! Criterion benches for the substrate kernels the algorithms lean on:
//! the distributed sort (Claim 1), the max-edge labeling (the F-light
//! filter of §3), the AGM sketch machinery (Appendix C.1) down to its
//! per-edge, per-merge and per-exponentiation kernels, and the large
//! machine's Stoer–Wagner.

use criterion::{criterion_group, criterion_main, Criterion};
use mpc_graph::generators;
use mpc_labeling::MaxEdgeLabeling;
use mpc_runtime::{Cluster, ClusterConfig, ShardedVec, Topology};
use mpc_sketch::field::PowTable;
use mpc_sketch::{merge_partials, SketchFamily};
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
    // The owner-merge round: every key arrives from 12 senders, each of
    // which saw one of the vertex's edges.
    let inbox: Vec<_> = (0..12u32)
        .flat_map(|sender| {
            let local: Vec<_> = (0..1000u32).map(|v| (v, (v + 1 + sender) % 1024)).collect();
            fam.partial_sketches(&local)
        })
        .collect();
    group.bench_function("owner_merge_12way", |b| {
        b.iter(|| black_box(merge_partials(inbox.clone())))
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
    group.sample_size(20);
    let g = generators::gnm(288, 1440, 7).with_random_weights(1 << 12, 7);
    let edges: Vec<_> = g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    group.bench_function("stoer_wagner_n288_m1440", |b| {
        b.iter(|| black_box(mpc_graph::mincut::stoer_wagner(g.n(), &edges)))
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
    use mpc_core::ported::connectivity::{sketch_friendly_config, ConnectivityConfig};
    use mpc_exec::{adapters, ExecMode};

    let mut group = c.benchmark_group("exec_engine");
    group.sample_size(10);
    let g = generators::gnm(256, 2048, 7);
    for (name, mode) in [
        ("serial", ExecMode::Serial),
        ("parallel", ExecMode::Parallel),
    ] {
        group.bench_function(format!("connectivity_n256_{name}"), |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), 7));
                let input = mpc_core::common::distribute_edges(&cluster, &g);
                black_box(
                    adapters::heterogeneous_connectivity(
                        &mut cluster,
                        g.n(),
                        &input,
                        &ConnectivityConfig::for_n(g.n()),
                        mode,
                    )
                    .unwrap(),
                )
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
    bench_reference,
    bench_exec_engine
);
criterion_main!(benches);
