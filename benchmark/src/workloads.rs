//! The five workloads. Each is closed-loop and driven by one process: a
//! pass runs its items one after another and the next pass starts when the
//! previous one has finished.
//!
//! A workload is built from the seed alone ([`build`]); the program under
//! test sees only the generated graphs, specs and fault plans. A pass has
//! three phases — [`Workload::prepare`] (clusters, submissions; part of
//! set-up), the timed region (calls into `registry::run_job`,
//! `Executor::run`, `Service::run_on` and nothing else), and the
//! bookkeeping that reads the round logs afterwards.

use crate::micro;
use crate::spans::Tracer;
use crate::verify::{validate, Checks};
use mpc_core::common::distribute_edges;
use mpc_exec::pool::PoolStats;
use mpc_exec::{
    registry, AlgoOutput, ExecError, ExecMode, JobHandle, JobRecord, JobRetryPolicy, JobSpec,
    RunReport, Service, ServiceRun,
};
use mpc_graph::{generators, Graph};
use mpc_runtime::{
    Cluster, ClusterConfig, CostModel, Fault, FaultPlan, RecoveryPolicy, RingSink, TraceSink,
};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in run order.
pub const NAMES: [&str; 5] = [
    "sketch-heavy",
    "round-heavy",
    "registry-mix",
    "service-drain",
    "faulted",
];

/// Why each workload exists (the `why` of `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "sketch-heavy" => {
            "connectivity + mst-approx + mincut-approx, 3 rounds or fewer each: mpc-sketch does \
             almost all the work, the engine almost none"
        }
        "round-heavy" => {
            "ring, all-to-all and skewed-ripple micro-programs, 12000 rounds: driver loop, pool \
             barrier and exchange_into only, no sketch, no algorithm"
        }
        "registry-mix" => {
            "the nine non-sketch registry names solo via run_job at n=8000: mpc-core steps and \
             primitives at 5-99 rounds each; the control for the other four"
        }
        "service-drain" => {
            "120 pre-submitted mixed jobs drained by one Service::run_on on 3 capacity shares: \
             admission hook, MixedWave dispatch, many cheap rounds, FIFO head-of-line blocking"
        }
        "faulted" => {
            "registry-mix at n=4000 with one seeded crash per run plus a service drain under a \
             job-fatal crash: checkpoint, replay, failover, quarantine and retry"
        }
        _ => "",
    }
}

/// Input sizes: the measured set, or a small one for a CI smoke call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Retained events per sink. Registry and service runs stay far below it;
/// `ring` (2.5 M events) keeps its tail and counts the rest as dropped.
const RING_CAPACITY: usize = 1 << 18;

/// Latency term of the simulated cost model, in simulated seconds.
const ROUND_LATENCY: f64 = 1e-3;

/// Weights are drawn from `1..=MAX_WEIGHT`.
const MAX_WEIGHT: u64 = 1 << 12;

const NON_SKETCH: [&str; 9] = [
    "boruvka-msf",
    "mst",
    "matching",
    "spanner",
    "spanner-weighted",
    "apsp",
    "mincut",
    "mis",
    "coloring",
];

const TENANTS: [&str; 6] = ["mst", "matching", "spanner", "mis", "coloring", "mincut"];

/// Capacity shares the service clusters hold open at once.
const SERVICE_SHARES: usize = 3;

// ---------------------------------------------------------------------------
// What a pass reports
// ---------------------------------------------------------------------------

/// One timed item of a pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemRun {
    pub name: String,
    pub digest: u128,
    pub rounds: u64,
    /// `false` for an `Err`, a failed job or a job that never completed.
    pub ok: bool,
}

/// Simulated-clock figures of a pass, summed over its clusters. Exact for
/// a fixed seed, in every mode and at every thread count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    pub rounds: u64,
    pub makespan_s: f64,
    pub wire_words: u64,
    pub messages: u64,
    pub max_round_words: u64,
    pub step_work: u64,
    pub checkpoint_words: u64,
    pub violations: u64,
    pub peak_resident_ratio: f64,
}

impl Sim {
    /// Adds what `cluster` logged; `factor` is the capacity factor its
    /// resident memory was checked against (the share count for a service
    /// cluster, 1 otherwise).
    fn absorb(&mut self, cluster: &Cluster, factor: usize) {
        self.rounds += cluster.rounds();
        self.makespan_s += cluster.critical_path_seconds();
        for rec in cluster.round_log() {
            self.wire_words += rec.total_words as u64;
            self.messages += rec.messages as u64;
            self.max_round_words = self.max_round_words.max(rec.total_words as u64);
            self.step_work += rec.total_work;
            if rec.label.prefix().ends_with(".ckpt") {
                self.checkpoint_words += rec.total_words as u64;
            }
        }
        self.violations += cluster.violations().len() as u64;
        for (mid, &peak) in cluster.peak_resident().iter().enumerate() {
            let ratio = peak as f64 / (cluster.capacity(mid) * factor).max(1) as f64;
            self.peak_resident_ratio = self.peak_resident_ratio.max(ratio);
        }
    }

    /// Whether two passes simulated the same thing: counts equal, makespan
    /// equal to 1e-9 relative.
    pub fn same_as(&self, other: &Sim) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        self.rounds == other.rounds
            && self.wire_words == other.wire_words
            && self.messages == other.messages
            && self.max_round_words == other.max_round_words
            && self.step_work == other.step_work
            && self.checkpoint_words == other.checkpoint_words
            && self.violations == other.violations
            && close(self.makespan_s, other.makespan_s)
            && close(self.peak_resident_ratio, other.peak_resident_ratio)
    }
}

/// What the attached sinks held after a traced pass, folded by
/// `RunReport::from_events`.
#[derive(Clone, Debug, Default)]
pub struct Folded {
    pub events: u64,
    pub fold_s: f64,
    /// Per-worker totals over every pool run of the pass.
    pub pool: PoolStats,
    pub faults_fired: u64,
    pub recovery_rounds: u64,
    /// Simulated seconds of checkpoint + recovery exchanges.
    pub recover_sim_s: f64,
    pub jobs_quarantined: u64,
}

impl Folded {
    fn add_pool(&mut self, stats: &PoolStats) {
        // `add_round` sums the per-worker counters and counts one round.
        let rounds = self.pool.rounds + stats.rounds;
        self.pool.add_round(&stats.per_worker);
        self.pool.rounds = rounds;
    }

    /// Folds one sink. Pool totals come from the report unless the caller
    /// has them first-hand (`Executor::run` returns them for the
    /// micro-programs, whose event stream outgrows the ring).
    fn absorb(&mut self, name: &str, sink: &RingSink, cluster: &Cluster, pool: Option<&PoolStats>) {
        self.events += sink.len() as u64 + sink.dropped();
        let started = Instant::now();
        let report = RunReport::from_events(name, sink.take(), cluster.cost_model());
        self.fold_s += started.elapsed().as_secs_f64();
        if let Some(stats) = pool.or(report.pool.as_ref()) {
            self.add_pool(stats);
        }
        self.faults_fired += report.recovery.faults_injected;
        self.recovery_rounds += report.recovery.recovery_rounds;
        self.recover_sim_s +=
            report.recovery.checkpoint_makespan + report.recovery.recovery_makespan;
        self.jobs_quarantined += report.recovery.jobs_quarantined;
    }
}

/// Everything one pass leaves behind.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    pub items: Vec<ItemRun>,
    /// Output of each item, where it has one (kept for the validity checks).
    pub outputs: Vec<Option<AlgoOutput>>,
    pub sim: Sim,
    /// Service scheduling records, in submission order.
    pub records: Vec<JobRecord>,
    pub drain_rounds: u64,
    pub folded: Folded,
}

impl Pass {
    fn push(&mut self, name: &str, rounds: u64, result: Result<AlgoOutput, ExecError>) {
        let (digest, ok) = result
            .as_ref()
            .map_or((0, false), |out| (out.digest(), true));
        self.items.push(ItemRun {
            name: name.to_string(),
            digest,
            rounds,
            ok,
        });
        self.outputs.push(result.ok());
    }
}

/// Clusters (and, for a drain, the loaded service) of one pass.
#[derive(Default)]
pub struct Prepared {
    threads: usize,
    clusters: Vec<Cluster>,
    /// Per cluster, the capacity factor its resident memory is held to: the
    /// share count for a service cluster, 1 otherwise.
    factors: Vec<usize>,
    /// One sink per cluster, when traced.
    sinks: Vec<Arc<RingSink>>,
    service: Option<(Service, Vec<JobHandle>)>,
}

impl Prepared {
    /// Adds `cluster` under the benchmark's cost model —
    /// `CostModel::proportional_to_capacity(caps, 1e-3)`, the large machine
    /// is also the fast one — with a sink when traced.
    fn add(&mut self, mut cluster: Cluster, factor: usize, plan: Option<FaultPlan>, tr: &Tracer) {
        let caps: Vec<usize> = (0..cluster.machines())
            .map(|m| cluster.capacity(m))
            .collect();
        cluster.set_cost_model(CostModel::proportional_to_capacity(&caps, ROUND_LATENCY));
        cluster.set_fault_plan(plan);
        if tr.enabled() {
            let sink = Arc::new(RingSink::with_capacity(RING_CAPACITY));
            cluster.set_trace_sink(Some(sink.clone() as Arc<dyn TraceSink>));
            self.sinks.push(sink);
        }
        self.clusters.push(cluster);
        self.factors.push(factor);
    }

    /// Untimed: reads every cluster's round log and folds every sink.
    /// `pools` holds worker accounting the caller has first-hand, by
    /// cluster; where it has none the folded report supplies it.
    fn settle(
        &self,
        names: &[&str],
        pools: &[Option<PoolStats>],
        tr: &mut Tracer,
        pass: &mut Pass,
    ) {
        for (cluster, &factor) in self.clusters.iter().zip(&self.factors) {
            pass.sim.absorb(cluster, factor);
        }
        for (i, (sink, cluster)) in self.sinks.iter().zip(&self.clusters).enumerate() {
            let pool = pools.get(i).and_then(Option::as_ref);
            tr.span("report", "fold", |_| {
                pass.folded.absorb(names[i], sink, cluster, pool);
            });
        }
    }
}

pub trait Workload {
    /// Items one pass processes and what they are (`items_per_s` divides
    /// this by `wall_serial_s`).
    fn items(&self) -> (u64, &'static str);
    /// Builds the clusters of one pass and submits its jobs; attaches a
    /// sink to every cluster when the tracer is on. Pool legs of the pass
    /// will run `threads` workers.
    fn prepare(&self, threads: usize, tr: &mut Tracer) -> Prepared;
    /// The timed region plus bookkeeping.
    fn run(&self, prepared: Prepared, mode: ExecMode, tr: &mut Tracer) -> Pass;
    /// Validity of a pass's outputs, by the sequential checkers.
    fn validate(&self, pass: &Pass, tr: &mut Tracer, checks: &mut Checks);
    /// The graph the direct layer probes run on, if the workload has one.
    fn probe_graph(&self) -> Option<&Arc<Graph>> {
        None
    }
    /// The job specs of a drain, for the mixed-versus-solo probe.
    fn drain_specs(&self) -> Option<(&[JobSpec], &ClusterConfig)> {
        None
    }
}

// ---------------------------------------------------------------------------
// Solo registry runs and service drains
// ---------------------------------------------------------------------------

fn weighted_gnm(n: usize, m: usize, seed: u64, tr: &mut Tracer) -> Arc<Graph> {
    tr.span("setup", "generate", |_| {
        Arc::new(generators::gnm(n, m, seed).with_random_weights(MAX_WEIGHT, seed))
    })
}

fn config_for(name: &str, g: &Graph, seed: u64) -> ClusterConfig {
    let polylog = registry::get(name).map_or(1.3, |a| a.polylog_exponent);
    ClusterConfig::new(g.n(), g.m())
        .seed(seed)
        .polylog_exponent(polylog)
}

/// What placing `g` on the small machines costs: part of set-up, and the
/// `core.distribute_s` figure. (`run_job` distributes again, inside the
/// timed region.)
fn cost_distribute(name: &str, g: &Graph, seed: u64, tr: &mut Tracer) {
    tr.span("setup", "distribute", |_| {
        let cluster = Cluster::new(config_for(name, g, seed));
        std::hint::black_box(distribute_edges(&cluster, g));
    });
}

/// One solo registry run: a spec, the cluster it runs on, and the fault
/// plan attached to that cluster, if any.
struct RegItem {
    spec: JobSpec,
    config: ClusterConfig,
    plan: Option<FaultPlan>,
}

impl RegItem {
    fn new(name: &str, g: &Arc<Graph>, seed: u64) -> Self {
        RegItem {
            spec: JobSpec::new(name, g.clone()).seed(seed),
            config: config_for(name, g, seed),
            plan: None,
        }
    }

    /// The nine non-sketch names on `g`, seeds `seed`, `seed + 1`, ….
    fn non_sketch(g: &Arc<Graph>, seed: u64) -> Vec<RegItem> {
        NON_SKETCH
            .iter()
            .enumerate()
            .map(|(i, name)| RegItem::new(name, g, seed + i as u64))
            .collect()
    }
}

/// A queue of specs drained by one `Service::run_on`.
struct Drain {
    specs: Vec<JobSpec>,
    config: ClusterConfig,
    plan: Option<FaultPlan>,
}

/// A finished `run_on`, results still in the handles.
struct Drained {
    handles: Vec<JobHandle>,
    run: Result<ServiceRun, ExecError>,
}

impl Drain {
    /// `copies` × the six tenants on one graph, distinct seeds.
    fn new(g: &Arc<Graph>, copies: usize, seed: u64, retry: JobRetryPolicy) -> Self {
        let polylog = TENANTS
            .iter()
            .filter_map(|name| registry::get(name))
            .map(|a| a.polylog_exponent)
            .fold(1.0, f64::max);
        Drain {
            specs: (0..copies * TENANTS.len())
                .map(|i| {
                    JobSpec::new(TENANTS[i % TENANTS.len()], g.clone())
                        .seed(seed.wrapping_mul(1000) + i as u64)
                        .retry(retry)
                })
                .collect(),
            config: ClusterConfig::new(g.n(), g.m())
                .seed(seed)
                .polylog_exponent(polylog),
            plan: None,
        }
    }

    /// The drain's cluster goes last; `run` relies on that.
    fn prepare(&self, prepared: &mut Prepared, tr: &mut Tracer) {
        tr.span("setup", "cluster", |tr| {
            let cluster = Cluster::new(self.config.clone());
            prepared.add(cluster, SERVICE_SHARES, self.plan.clone(), tr);
        });
        prepared.service = Some(tr.span("service", "submit", |_| {
            let mut service = Service::new(self.config.clone())
                .capacity_shares(SERVICE_SHARES)
                .threads(prepared.threads);
            let handles = self
                .specs
                .iter()
                .map(|spec| service.submit(spec.clone()).expect("a registry name"))
                .collect();
            (service, handles)
        }));
    }

    /// Timed: `Service::run_on`.
    fn run(&self, prepared: &mut Prepared, mode: ExecMode, tr: &mut Tracer) -> Drained {
        let (mut service, handles) = prepared.service.take().expect("prepared drain");
        let cluster = prepared.clusters.last_mut().expect("prepared drain");
        let run = tr.span("service", "run_on", |_| service.run_on(cluster, mode));
        Drained { handles, run }
    }

    /// Untimed: one item per job, in submission order.
    fn collect(&self, drained: Drained, pass: &mut Pass) {
        let records = drained.run.as_ref().map_or(&[][..], |run| &run.records[..]);
        for handle in &drained.handles {
            let rounds = records
                .iter()
                .find(|r| r.job == handle.id())
                .map_or(0, |r| r.rounds);
            let result = handle.take_result().unwrap_or_else(|| {
                Err(ExecError::Algorithm {
                    message: format!("job {} never finished", handle.id()),
                })
            });
            pass.push(handle.name(), rounds, result);
        }
        if let Ok(run) = drained.run {
            pass.drain_rounds += run.rounds;
            pass.records.extend(run.records);
        }
    }
}

/// Solo `registry::run_job` calls on fresh clusters, then — if there is one
/// — a drain. `sketch-heavy` and `registry-mix` are the first alone,
/// `service-drain` the second alone, `faulted` both, with fault plans.
struct GraphWorkload {
    items: Vec<RegItem>,
    drain: Option<Drain>,
    /// `faulted` only: digests of the fault-free sizing pass, which every
    /// recovered run must reproduce.
    clean: Option<Vec<u128>>,
    probe_graph: Option<Arc<Graph>>,
}

impl GraphWorkload {
    fn sketch_heavy(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let shapes: [(&str, usize, usize); 3] = match size {
            Size::Full => [
                ("connectivity", 1536, 9216),
                ("mst-approx", 192, 960),
                ("mincut-approx", 288, 1440),
            ],
            Size::Smoke => [
                ("connectivity", 256, 1536),
                ("mst-approx", 64, 320),
                ("mincut-approx", 96, 480),
            ],
        };
        let mut items = Vec::new();
        let mut probe_graph = None;
        for (i, (name, n, m)) in shapes.into_iter().enumerate() {
            let seed = seed + i as u64;
            let g = weighted_gnm(n, m, seed, tr);
            cost_distribute(name, &g, seed, tr);
            items.push(RegItem::new(name, &g, seed));
            probe_graph.get_or_insert(g);
        }
        GraphWorkload {
            items,
            drain: None,
            clean: None,
            probe_graph,
        }
    }

    fn registry_mix(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let (n, m) = match size {
            Size::Full => (8000, 48000),
            Size::Smoke => (512, 3072),
        };
        let g = weighted_gnm(n, m, seed, tr);
        cost_distribute("mst", &g, seed, tr);
        GraphWorkload {
            items: RegItem::non_sketch(&g, seed),
            drain: None,
            clean: None,
            probe_graph: Some(g),
        }
    }

    fn service_drain(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let (n, m, copies) = match size {
            Size::Full => (256, 1536, 20),
            Size::Smoke => (128, 768, 4),
        };
        let g = weighted_gnm(n, m, seed, tr);
        GraphWorkload {
            items: Vec::new(),
            drain: Some(Drain::new(&g, copies, seed, JobRetryPolicy::default())),
            clean: None,
            probe_graph: None,
        }
    }

    /// registry-mix's nine names, each under one seeded crash with the
    /// default recovery policy, plus a six-tenant drain under a zero-replica
    /// crash that costs one tenant a quarantine and a retry.
    fn faulted(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let (n, m, tenant_n, tenant_m) = match size {
            Size::Full => (4000, 24000, 256, 1536),
            Size::Smoke => (384, 2304, 128, 768),
        };
        let g = weighted_gnm(n, m, seed, tr);
        let tenant_g = weighted_gnm(tenant_n, tenant_m, seed + 1, tr);
        let retry = JobRetryPolicy {
            max_attempts: 2,
            backoff_rounds: 1,
        };
        let mut this = GraphWorkload {
            items: RegItem::non_sketch(&g, seed),
            drain: Some(Drain::new(&tenant_g, 1, seed, retry)),
            clean: None,
            probe_graph: None,
        };
        // The sizing pass: fault-free, serial. Its round counts place the
        // crashes and its digests are what every faulted pass must equal.
        let sizing = tr.span("setup", "sizing", |tr| {
            let prepared = this.prepare(1, tr);
            this.run(prepared, ExecMode::Serial, tr)
        });
        this.clean = Some(sizing.items.iter().map(|i| i.digest).collect());
        for (i, (item, run)) in this.items.iter_mut().zip(&sizing.items).enumerate() {
            let machines: Vec<usize> = (0..Cluster::new(item.config.clone()).machines()).collect();
            item.plan = Some(FaultPlan::seeded_single_crash_among(
                seed + i as u64,
                &machines,
                run.rounds,
            ));
        }
        let drain = this.drain.as_mut().expect("built above");
        let victim = Cluster::new(drain.config.clone()).small_ids()[0];
        drain.plan = Some(
            FaultPlan::new()
                .with_policy(RecoveryPolicy {
                    replicas: 0,
                    ..RecoveryPolicy::default()
                })
                .with_fault(Fault::Crash {
                    machine: victim,
                    round: (sizing.drain_rounds / 2).max(1),
                }),
        );
        this
    }
}

impl Workload for GraphWorkload {
    fn items(&self) -> (u64, &'static str) {
        let drain_specs = self.drain.iter().flat_map(|d| &d.specs);
        if self.items.is_empty() {
            return (drain_specs.count() as u64, "jobs");
        }
        let specs = self.items.iter().map(|i| &i.spec).chain(drain_specs);
        (specs.map(|s| s.graph.m() as u64).sum(), "edges")
    }

    fn prepare(&self, threads: usize, tr: &mut Tracer) -> Prepared {
        let mut prepared = Prepared {
            threads,
            ..Prepared::default()
        };
        for item in &self.items {
            tr.span("setup", "cluster", |tr| {
                let cluster = Cluster::new(item.config.clone());
                prepared.add(cluster, 1, item.plan.clone(), tr);
            });
        }
        if let Some(drain) = &self.drain {
            drain.prepare(&mut prepared, tr);
        }
        prepared
    }

    fn run(&self, mut prepared: Prepared, mode: ExecMode, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        // Timed: `registry::run_job` per item on the item's own cluster,
        // then `Service::run_on`. Results are digested after the clock stops.
        let started = Instant::now();
        let raw: Vec<(u64, Result<AlgoOutput, ExecError>)> = self
            .items
            .iter()
            .zip(prepared.clusters.iter_mut())
            .map(|(item, cluster)| {
                let result = tr.span("item", &item.spec.name, |_| {
                    registry::run_job(&item.spec, cluster, mode)
                });
                (cluster.rounds(), result)
            })
            .collect();
        let drained = self
            .drain
            .as_ref()
            .map(|drain| (drain, drain.run(&mut prepared, mode, tr)));
        pass.wall_s = started.elapsed().as_secs_f64();

        let mut names: Vec<&str> = Vec::new();
        for (item, (rounds, result)) in self.items.iter().zip(raw) {
            pass.push(&item.spec.name, rounds, result);
            names.push(&item.spec.name);
        }
        if let Some((drain, drained)) = drained {
            drain.collect(drained, &mut pass);
            names.push("service");
        }
        prepared.settle(&names, &[], tr, &mut pass);
        pass
    }

    fn validate(&self, pass: &Pass, tr: &mut Tracer, checks: &mut Checks) {
        let specs = self
            .items
            .iter()
            .map(|i| &i.spec)
            .chain(self.drain.iter().flat_map(|d| &d.specs));
        for ((spec, run), output) in specs.zip(&pass.items).zip(&pass.outputs) {
            checks.check(run.ok, || format!("{}: run or job failed", run.name));
            if let Some(output) = output {
                tr.span("verify", &run.name, |_| {
                    validate(&run.name, &spec.graph, output, spec.seed, checks);
                });
            }
        }
        let Some(clean) = &self.clean else { return };
        for (run, clean) in pass.items.iter().zip(clean) {
            checks.check(run.digest == *clean, || {
                format!(
                    "{}: recovered digest differs from the fault-free run",
                    run.name
                )
            });
        }
        let retried = pass.records.iter().filter(|r| r.attempts > 1).count();
        checks.check(retried == 1, || {
            format!("faulted drain: {retried} tenants retried, expected exactly 1")
        });
    }

    fn probe_graph(&self) -> Option<&Arc<Graph>> {
        self.probe_graph.as_ref()
    }

    fn drain_specs(&self) -> Option<(&[JobSpec], &ClusterConfig)> {
        // The mixed-versus-solo probe is for a fault-free drain on its own.
        match (&self.drain, self.items.is_empty()) {
            (Some(drain), true) => Some((&drain.specs, &drain.config)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// round-heavy: the micro-programs
// ---------------------------------------------------------------------------

struct RoundHeavy {
    seed: u64,
    shapes: [micro::Shape; 3],
}

impl RoundHeavy {
    fn new(seed: u64, size: Size) -> Self {
        let shape = |machines, rounds, work| micro::Shape {
            machines,
            rounds,
            work,
        };
        RoundHeavy {
            seed,
            shapes: match size {
                Size::Full => [
                    shape(257, 10_000, 0),
                    shape(65, 1_000, 0),
                    shape(65, 1_000, 2_000),
                ],
                Size::Smoke => [shape(33, 400, 0), shape(17, 100, 0), shape(17, 100, 500)],
            },
        }
    }
}

impl Workload for RoundHeavy {
    fn items(&self) -> (u64, &'static str) {
        (
            self.shapes
                .iter()
                .map(|s| s.machines as u64 * s.rounds)
                .sum(),
            "machine-steps",
        )
    }

    fn prepare(&self, threads: usize, tr: &mut Tracer) -> Prepared {
        let mut prepared = Prepared {
            threads,
            ..Prepared::default()
        };
        for shape in self.shapes {
            tr.span("setup", "cluster", |tr| {
                prepared.add(micro::cluster(shape.machines), 1, None, tr);
            });
        }
        prepared
    }

    fn run(&self, mut prepared: Prepared, mode: ExecMode, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        // `Executor::run` hands back the pool's accounting first-hand; the
        // ring of `ring`'s 2.5 M events only keeps the tail.
        let mut pools: Vec<Option<PoolStats>> = Vec::new();
        let threads = prepared.threads;
        let started = Instant::now();
        for ((name, shape), cluster) in micro::NAMES
            .iter()
            .zip(self.shapes)
            .zip(prepared.clusters.iter_mut())
        {
            let result = tr.span("item", name, |_| {
                micro::run(name, shape, self.seed, cluster, mode, threads)
            });
            let (digest, rounds, ok) = match &result {
                Ok(run) => (run.checksum as u128, run.rounds, true),
                Err(_) => (0, cluster.rounds(), false),
            };
            pass.items.push(ItemRun {
                name: name.to_string(),
                digest,
                rounds,
                ok,
            });
            pass.outputs.push(None);
            pools.push(result.ok().and_then(|run| run.pool));
        }
        pass.wall_s = started.elapsed().as_secs_f64();
        prepared.settle(&micro::NAMES, &pools, tr, &mut pass);
        pass
    }

    fn validate(&self, pass: &Pass, _tr: &mut Tracer, checks: &mut Checks) {
        for (run, shape) in pass.items.iter().zip(self.shapes) {
            checks.check(run.ok, || format!("{}: run returned an error", run.name));
            // The halting step needs no exchange.
            checks.check(run.rounds == shape.rounds - 1, || {
                format!(
                    "{}: {} rounds, expected {}",
                    run.name,
                    run.rounds,
                    shape.rounds - 1
                )
            });
        }
    }
}

/// Builds workload `name` from `seed`. Everything here is set-up: graph
/// generation, edge distribution, and for `faulted` the sizing pass.
pub fn build(name: &str, seed: u64, size: Size, tr: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sketch-heavy" => Box::new(GraphWorkload::sketch_heavy(seed, size, tr)),
        "round-heavy" => Box::new(RoundHeavy::new(seed, size)),
        "registry-mix" => Box::new(GraphWorkload::registry_mix(seed, size, tr)),
        "service-drain" => Box::new(GraphWorkload::service_drain(seed, size, tr)),
        "faulted" => Box::new(GraphWorkload::faulted(seed, size, tr)),
        _ => return None,
    })
}
