//! Criterion timings for the engine's round hot path: per-round thread
//! spawning vs the persistent pool, on the same skewed ring workload the
//! `hotpath` experiment sweeps (see `src/hotpath.rs` and `BENCH_exec.json`
//! for the full K sweep).

use criterion::{criterion_group, criterion_main, Criterion};
use mpc_bench::hotpath::{ripple_cluster, ripple_programs};
use mpc_exec::{ExecMode, Executor};
use std::hint::black_box;

fn bench_exec_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_hotpath");
    group.sample_size(10);
    // The last case is the bare round loop: many machines, zero work, one
    // word per machine-round (the repository benchmark's `ring`).
    for (name, mode, k, rounds, work) in [
        ("ripple_k64_serial", ExecMode::Serial, 64, 40, 800),
        (
            "ripple_k64_spawn_per_round",
            ExecMode::SpawnPerRound,
            64,
            40,
            800,
        ),
        ("ripple_k64_pool", ExecMode::Parallel, 64, 40, 800),
        ("ripple_k257_w0_serial", ExecMode::Serial, 257, 2_000, 0),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cluster = ripple_cluster(k);
                let programs = ripple_programs(&cluster, rounds, work);
                black_box(
                    Executor::new("ripple", mode)
                        .run(&mut cluster, programs)
                        .unwrap(),
                );
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exec_modes);
criterion_main!(benches);
