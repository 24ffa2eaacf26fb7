//! Direct probes of single layers: timed loops over public functions of
//! `mpc-sketch`, `mpc-runtime`, `mpc-labeling` and `mpc-exec`, run once in
//! the traced run. Each probe is a `probe.<metric>` span.

use crate::micro::{self, Block};
use crate::spans::Tracer;
use crate::verify::Checks;
use crate::workloads::Sim;
use mpc_core::common::distribute_edges;
use mpc_core::ported::connectivity::ConnectivityConfig;
use mpc_exec::{registry, ExecMode, JobSpec};
use mpc_graph::mst::kruskal;
use mpc_graph::traversal::connected_components;
use mpc_graph::{Graph, VertexId};
use mpc_labeling::MaxEdgeLabeling;
use mpc_runtime::primitives::aggregate::aggregate_by_key;
use mpc_runtime::primitives::sort::sample_sort;
use mpc_runtime::{Cluster, ClusterConfig, MachineId, RoundLabel, ShardedVec};
use mpc_sketch::connectivity::sketch_graph;
use mpc_sketch::hashing::KWiseHash;
use mpc_sketch::{field, sketch_connectivity, SketchFamily};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Metrics = BTreeMap<String, f64>;

fn timed<R>(tr: &mut Tracer, metric: &str, f: impl FnOnce() -> R) -> (R, f64) {
    tr.span("probe", metric, |_| {
        let started = Instant::now();
        let out = f();
        (out, started.elapsed().as_secs_f64())
    })
}

/// `mpc-sketch` on `g`: family build, update, merge, decode, the field and
/// hash kernels under them, and the engine-free reference algorithm.
/// `connectivity_wall_s` is the serial wall of the `connectivity` item on
/// the same graph — the base of `sketch.share`.
pub fn sketch(
    g: &Graph,
    seed: u64,
    connectivity_wall_s: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    let n = g.n();
    let phases = ConnectivityConfig::for_n(n).phases;
    let (family, secs) = timed(tr, "sketch.family_build_s", || {
        SketchFamily::new(n, phases, seed)
    });
    out.insert("sketch.family_build_s".into(), secs);
    out.insert(
        "sketch.words_per_vertex".into(),
        family.sketch_words() as f64,
    );

    let mut row: Vec<_> = (0..n).map(|_| family.empty(0)).collect();
    let ((), secs) = timed(tr, "sketch.update_ns", || {
        for e in g.edges() {
            family.add_edge_phase(&mut row[e.u as usize], 0, e.u, e.v);
            family.add_edge_phase(&mut row[e.v as usize], 0, e.v, e.u);
        }
    });
    let updates = 2 * g.m();
    out.insert("sketch.updates".into(), updates as f64);
    out.insert(
        "sketch.update_ns".into(),
        secs * 1e9 / updates.max(1) as f64,
    );

    let (hits, secs) = timed(tr, "sketch.decode_ns", || {
        row.iter()
            .filter(|s| family.decode_phase(s, 0).is_some())
            .count()
    });
    out.insert("sketch.decode_ns".into(), secs * 1e9 / n.max(1) as f64);
    out.insert(
        "sketch.decode_hit_ratio".into(),
        hits as f64 / n.max(1) as f64,
    );

    let mut sum = family.empty(0);
    let ((), secs) = timed(tr, "sketch.merge_ns_per_word", || {
        for s in &row {
            sum.merge(s);
        }
        black_box(&sum);
    });
    let merge_words = n * family.sketch_words();
    out.insert("sketch.merge_words".into(), merge_words as f64);
    out.insert(
        "sketch.merge_ns_per_word".into(),
        secs * 1e9 / merge_words.max(1) as f64,
    );

    const KERNEL_REPS: u64 = 1_000_000;
    let ((), secs) = timed(tr, "sketch.field_mul_ns", || {
        let mut acc = seed | 1;
        for i in 0..KERNEL_REPS {
            acc = field::mul(black_box(acc), i | 1);
        }
        black_box(acc);
    });
    out.insert(
        "sketch.field_mul_ns".into(),
        secs * 1e9 / KERNEL_REPS as f64,
    );

    const HASH_REPS: u64 = 200_000;
    let independence = ((n.max(2) as f64).log2().ceil() as usize + 2).max(4);
    let hash = KWiseHash::new(independence, seed);
    let ((), secs) = timed(tr, "sketch.hash_eval_ns", || {
        let mut acc = 0u64;
        for x in 0..HASH_REPS {
            acc ^= hash.eval(black_box(x));
        }
        black_box(acc);
    });
    out.insert("sketch.hash_eval_ns".into(), secs * 1e9 / HASH_REPS as f64);

    let (components, secs) = timed(tr, "sketch.reference_s", || {
        let pairs: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let sketches = sketch_graph(&family, n, pairs);
        sketch_connectivity(&family, &sketches, n)
    });
    out.insert("sketch.reference_s".into(), secs);
    if connectivity_wall_s > 0.0 {
        out.insert("sketch.share".into(), secs / connectivity_wall_s);
    }
    checks.check(components == connected_components(g), || {
        "sketch reference: components differ from the sequential ones".to_string()
    });
}

/// `Cluster::exchange_into` with caller-owned buffers: a ring of one-word
/// messages for the cost of a message, an all-to-all of 16-word blocks for
/// the cost of a word. `sim` is the serial pass these costs are scaled to.
pub fn exchange(sim: &Sim, tr: &mut Tracer, out: &mut Metrics) {
    const RING_MACHINES: usize = 257;
    const RING_ROUNDS: usize = 400;
    const A2A_MACHINES: usize = 65;
    const A2A_ROUNDS: usize = 40;

    let mut cluster = micro::cluster(RING_MACHINES);
    let label = RoundLabel::new("probe.ring");
    let mut outgoing: Vec<Vec<(MachineId, u64)>> = cluster.empty_outboxes();
    let mut inboxes = Vec::new();
    let ((), secs) = timed(tr, "runtime.exchange_ring_ns_per_msg", || {
        for round in 0..RING_ROUNDS {
            for (src, outbox) in outgoing.iter_mut().enumerate() {
                outbox.push(((src + 1) % RING_MACHINES, round as u64));
            }
            cluster
                .exchange_into(label.clone(), &mut outgoing, &mut inboxes)
                .expect("one word per machine fits any capacity");
        }
        black_box(&inboxes);
    });
    let ns_per_msg = secs * 1e9 / (RING_MACHINES * RING_ROUNDS) as f64;
    out.insert("runtime.exchange_ring_ns_per_msg".into(), ns_per_msg);

    let mut cluster = micro::cluster(A2A_MACHINES);
    let label = RoundLabel::new("probe.a2a");
    let mut outgoing: Vec<Vec<(MachineId, Block)>> = cluster.empty_outboxes();
    let mut inboxes = Vec::new();
    let block = Block::filled(7);
    let ((), secs) = timed(tr, "runtime.exchange_a2a_ns_per_word", || {
        for _ in 0..A2A_ROUNDS {
            for (src, outbox) in outgoing.iter_mut().enumerate() {
                outbox.extend(
                    (0..A2A_MACHINES)
                        .filter(|&dst| dst != src)
                        .map(|dst| (dst, block.clone())),
                );
            }
            cluster
                .exchange_into(label.clone(), &mut outgoing, &mut inboxes)
                .expect("64 blocks of 16 words fit 4096");
        }
        black_box(&inboxes);
    });
    let a2a_msgs = (A2A_MACHINES * (A2A_MACHINES - 1) * A2A_ROUNDS) as f64;
    let a2a_words = a2a_msgs * micro::BLOCK_WORDS as f64;
    // What is left of the all-to-all once its messages are paid for at the
    // ring's price is the cost of moving the words.
    let ns_per_word = ((secs * 1e9 - a2a_msgs * ns_per_msg) / a2a_words).max(0.0);
    out.insert("runtime.exchange_a2a_ns_per_word".into(), ns_per_word);
    // Computed, not measured: the pass's traffic at the two probe prices.
    out.insert(
        "runtime.exchange_est_s".into(),
        (sim.messages as f64 * ns_per_msg + sim.wire_words as f64 * ns_per_word) * 1e-9,
    );
}

/// `mpc-runtime` primitives and `mpc-labeling` on `g`: sample sort and
/// aggregation of the edge list, labeling of its Kruskal forest.
pub fn primitives_and_labeling(g: &Graph, seed: u64, tr: &mut Tracer, out: &mut Metrics) {
    let config = ClusterConfig::new(g.n(), g.m()).seed(seed);
    let mut cluster = Cluster::new(config.clone());
    let edges = distribute_edges(&cluster, g);
    let smalls = cluster.small_ids();
    let (sorted, secs) = timed(tr, "runtime.sample_sort_s", || {
        sample_sort(&mut cluster, "probe.sort", edges, &smalls, |e| {
            e.weight_key()
        })
    });
    black_box(sorted.is_ok());
    out.insert("runtime.sample_sort_s".into(), secs);

    let mut cluster = Cluster::new(config);
    let edges = distribute_edges(&cluster, g);
    let mut degrees: ShardedVec<(VertexId, u64)> = ShardedVec::new(&cluster);
    for (mid, e) in edges.iter() {
        degrees.shard_mut(mid).extend([(e.u, 1), (e.v, 1)]);
    }
    let (summed, secs) = timed(tr, "runtime.aggregate_s", || {
        aggregate_by_key(
            &mut cluster,
            "probe.aggregate",
            &degrees,
            &smalls,
            |a, b| a + b,
        )
    });
    black_box(summed.is_ok());
    out.insert("runtime.aggregate_s".into(), secs);

    let forest = Graph::new(g.n(), kruskal(g).edges);
    let (labeling, secs) = timed(tr, "labeling.build_s", || MaxEdgeLabeling::build(&forest));
    out.insert("labeling.build_s".into(), secs);
    if let Ok(labeling) = labeling {
        let labels = labeling.labels();
        let ((), secs) = timed(tr, "labeling.decode_ns", || {
            for e in g.edges() {
                black_box(MaxEdgeLabeling::decode(
                    &labels[e.u as usize],
                    &labels[e.v as usize],
                ));
            }
        });
        out.insert(
            "labeling.decode_ns".into(),
            secs * 1e9 / g.m().max(1) as f64,
        );
    }
}

/// What erased multi-lane dispatch costs or saves: the drain's wall over
/// the summed walls of the same specs run solo. Also the mid-wave == solo
/// contract: every solo digest must equal the drain's.
pub fn mixed_vs_solo(
    specs: &[JobSpec],
    config: &ClusterConfig,
    drain_wall_s: f64,
    drain_digests: &[u128],
    tr: &mut Tracer,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    let (digests, secs) = timed(tr, "exec.mixed_vs_solo", || {
        specs
            .iter()
            .map(|spec| {
                let mut cluster = Cluster::new(config.clone().seed(spec.seed));
                registry::run_job(spec, &mut cluster, ExecMode::Serial)
                    .map_or(0, |out| out.digest())
            })
            .collect::<Vec<u128>>()
    });
    if secs > 0.0 {
        out.insert("exec.mixed_vs_solo".into(), drain_wall_s / secs);
    }
    checks.check(digests == drain_digests, || {
        "service drain: a mid-wave job differs from its solo run".to_string()
    });
}
