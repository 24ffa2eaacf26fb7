//! Criterion timing benches, one group per paper artifact.
//!
//! Round counts (the paper's metric) come from the `experiments` binary;
//! these benches measure the *simulator wall-clock* of the same runs, which
//! is what a developer iterating on the algorithms cares about.

use criterion::{criterion_group, criterion_main, Criterion};
use mpc_baselines::sublinear::{distribute_all, sublinear_config, sublinear_mst};
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_core::spanner::baswana_sen;
use mpc_exec::{registry, ExecMode, JobSpec};
use mpc_graph::generators;
use mpc_runtime::{Cluster, ClusterConfig};
use std::hint::black_box;

/// Table 1 rows: heterogeneous algorithms on a shared small workload.
fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);

    let g = generators::gnm(256, 4096, 1).with_random_weights(1 << 16, 1);
    group.bench_function("het_mst_n256_m4096", |b| {
        let spec = JobSpec::new("mst", g.clone());
        let config = || ClusterConfig::new(g.n(), g.m()).seed(1);
        b.iter(|| {
            black_box(
                registry::run_job(&spec, &mut Cluster::new(config()), ExecMode::Serial).unwrap(),
            )
        })
    });

    let gu = generators::gnm(256, 4096, 1);
    group.bench_function("het_spanner_k3_n256", |b| {
        let spec = JobSpec::new("spanner", gu.clone()).spanner_k(3);
        let config = || {
            ClusterConfig::new(gu.n(), gu.m())
                .seed(1)
                .polylog_exponent(1.6)
        };
        b.iter(|| {
            black_box(
                registry::run_job(&spec, &mut Cluster::new(config()), ExecMode::Serial).unwrap(),
            )
        })
    });

    group.bench_function("het_matching_n256", |b| {
        let spec = JobSpec::new("matching", gu.clone());
        let config = || ClusterConfig::new(gu.n(), gu.m()).seed(1);
        b.iter(|| {
            black_box(
                registry::run_job(&spec, &mut Cluster::new(config()), ExecMode::Serial).unwrap(),
            )
        })
    });

    let gc = generators::gnm(128, 384, 1);
    group.bench_function("het_connectivity_n128", |b| {
        let spec = JobSpec::new("connectivity", gc.clone());
        let config = || sketch_friendly_config(gc.n(), gc.m(), 1);
        b.iter(|| {
            black_box(
                registry::run_job(&spec, &mut Cluster::new(config()), ExecMode::Serial).unwrap(),
            )
        })
    });
    group.finish();
}

/// E2: the MST comparison that Table 1's MST row summarizes.
fn bench_mst_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_mst_scaling");
    group.sample_size(10);
    for &density in &[8usize, 64] {
        let g = generators::gnm(512, 512 * density, 2).with_random_weights(1 << 18, 2);
        group.bench_function(format!("het_mst_density_{density}"), |b| {
            let spec = JobSpec::new("mst", g.clone());
            let config = || ClusterConfig::new(g.n(), g.m()).seed(2);
            b.iter(|| {
                black_box(
                    registry::run_job(&spec, &mut Cluster::new(config()), ExecMode::Serial)
                        .unwrap(),
                )
            })
        });
    }
    let g = generators::gnm(512, 512 * 8, 2).with_random_weights(1 << 18, 2);
    group.bench_function("sublinear_mst_density_8", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(sublinear_config(g.n(), g.m(), 2));
            let input = distribute_all(&cluster, &g);
            black_box(sublinear_mst(&mut cluster, g.n(), &input).unwrap());
        })
    });
    group.finish();
}

/// Figure 1 / Lemma 4.3: original vs modified Baswana–Sen (sequential).
fn bench_figure1(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure1_baswana_sen");
    group.sample_size(20);
    let g = generators::gnm(400, 6000, 3);
    group.bench_function("original_k4", |b| {
        b.iter(|| black_box(baswana_sen::baswana_sen(&g, 4, 7)))
    });
    group.bench_function("modified_k4_p02", |b| {
        b.iter(|| black_box(baswana_sen::modified_baswana_sen(&g, 4, 0.2, 7)))
    });
    group.finish();
}

criterion_group!(benches, bench_table1, bench_mst_scaling, bench_figure1);
criterion_main!(benches);
