//! The experiment table, [`EXPERIMENTS`] (DESIGN.md §4 lists each row
//! with its theorem, its checks and its CI gate), and the shared harness:
//! [`solo`] (one certified registry run) and [`drain`] (one service
//! drain), which `mpc-trace` uses too.
//!
//! A sweep experiment is data: per table a grid, a graph generator,
//! parameters and column headers, whose cells the extractors in `cell`
//! read off [`AlgoOutput`]; each grid point is one solo run, with the
//! sublinear baseline as an optional column.

use crate::Table;
use mpc_baselines::near_linear::near_linear_config;
use mpc_baselines::sublinear::{
    distribute_all, sublinear_coloring, sublinear_config, sublinear_matching, sublinear_mis,
    sublinear_mst, two_vs_one_cycle_baseline,
};
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_core::spanner::{apsp::measured_stretch, baswana_sen};
use mpc_core::{common, matching};
use mpc_exec::ExecMode::{self, Parallel, Serial};
use mpc_exec::{
    registry, AlgoOutput, ExecError, JobParams, JobRecord, JobRetryPolicy, JobSpec, JobStatus,
    Service,
};
use mpc_graph::{generators, Graph};
use mpc_runtime::{
    Cluster, ClusterConfig, CostModel, FaultPlan, RecoveryPolicy, Topology, TraceSink,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one [`solo`] run leaves behind.
pub struct Solo {
    /// The algorithm's output.
    pub out: AlgoOutput,
    /// Engine rounds the run took.
    pub rounds: u64,
    /// [`AlgoOutput::digest`] of `out`.
    pub digest: u128,
    /// Host wall-clock of the registry run, edge sharding included.
    pub wall: Duration,
    /// The cluster after the run.
    pub cluster: Cluster,
}

/// Runs registry algorithm `name` once on `g`: builds the cluster from
/// `config`, lets `prepare` attach a cost model, fault plan or trace sink,
/// runs the job under `mode`, and checks the output with
/// [`registry::certify`] — so every experiment and `mpc-trace` run is
/// certified here, outside the timed span.
///
/// # Errors
///
/// Whatever [`registry::run_job`] returns, and [`ExecError::Algorithm`]
/// naming `name` and the certificate's message when the output fails it.
pub fn solo(
    name: &str,
    g: &Graph,
    config: ClusterConfig,
    params: JobParams,
    mode: ExecMode,
    prepare: Option<&dyn Fn(&mut Cluster)>,
) -> Result<Solo, ExecError> {
    let mut cluster = Cluster::new(config);
    if let Some(prepare) = prepare {
        prepare(&mut cluster);
    }
    let spec = JobSpec::new(name, g.clone()).params(params);
    let started = Instant::now();
    let out = registry::run_job(&spec, &mut cluster, mode)?;
    let wall = started.elapsed();
    certified(&spec, &out)?;
    let (rounds, digest) = (cluster.rounds(), out.digest());
    Ok(Solo {
        out,
        rounds,
        digest,
        wall,
        cluster,
    })
}

/// [`registry::certify`], its failure an [`ExecError::Algorithm`] naming
/// the job's registry name and the certificate's message.
fn certified(spec: &JobSpec, out: &AlgoOutput) -> Result<(), ExecError> {
    registry::certify(spec, out).map_err(|problem| ExecError::Algorithm {
        message: format!("{}: the output fails its certificate: {problem}", spec.name),
    })
}

/// The cluster registry algorithm `name` prefers on `g`: `g`'s shape, the
/// seed, and the polylog capacity headroom the algorithm declares.
///
/// # Panics
///
/// Panics on an unregistered name.
pub fn preferred(name: &str, g: &Graph, seed: u64) -> ClusterConfig {
    let polylog = registry::get(name)
        .expect("registered algorithm")
        .polylog_exponent;
    ClusterConfig::new(g.n(), g.m().max(1))
        .seed(seed)
        .polylog_exponent(polylog)
}

/// The budgets workload at `n`: `gnm(n, 6n)` with weights below 2¹², seed
/// 5 — the graph of `budgets` and of `mpc-trace`.
pub fn budgets_graph(n: usize) -> Graph {
    generators::gnm(n, n * 6, 5).with_random_weights(1 << 12, 5)
}

/// The cost model of a named profile on `c`: `uniform` (unit speeds, no
/// round latency), `proportional` (speed and bandwidth proportional to
/// capacity, 1 s a round) or `straggler` (uniform, with the first small
/// machine at 10 % speed and bandwidth).
pub fn cost_profile(profile: &str, c: &Cluster) -> CostModel {
    let caps: Vec<usize> = (0..c.machines()).map(|m| c.capacity(m)).collect();
    let uniform = CostModel::uniform(caps.len(), 1.0, 1.0, 0.0);
    match profile {
        "uniform" => uniform,
        "proportional" => CostModel::proportional_to_capacity(&caps, 1.0),
        _ => uniform.with_straggler(c.small_ids()[0], 0.1),
    }
}

/// A recovery policy without peer replicas: a crash is job-fatal.
pub fn zero_replicas() -> RecoveryPolicy {
    RecoveryPolicy {
        replicas: 0,
        ..RecoveryPolicy::default()
    }
}

/// The standard service workload: six mixed tenants drained FIFO through
/// one hooked engine run. `spanner-weighted` holds one share per weight
/// class, so on the 3-share cluster half the queue waits for
/// admission-on-retirement.
pub const SERVICE_JOBS: &[&str] = &[
    "spanner-weighted",
    "matching",
    "mincut",
    "mis",
    "coloring",
    "connectivity",
];

/// Capacity shares the service cluster holds open concurrently.
pub const SERVICE_SHARES: usize = 3;

/// One job's terminal outcome from a [`drain`]: its final status and the
/// output digest (`None` when the job failed or was cancelled).
pub type JobOutcome = (JobStatus, Option<u128>);

/// What one [`drain`] leaves behind.
pub struct Drain {
    /// The shared cluster after the drain.
    pub cluster: Cluster,
    /// The service's scheduling records.
    pub records: Vec<JobRecord>,
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<JobOutcome>,
}

/// Drains [`SERVICE_JOBS`] (seeds `100 + i`, each with `retry`) through
/// one [`Service`] with [`SERVICE_SHARES`] shares on `g`'s cluster, whose
/// headroom is the largest any tenant declares. `cost` builds the cost
/// model; `plan` and `sink` are attached to the shared cluster. Every
/// completed job's output is checked with [`registry::certify`].
///
/// # Errors
///
/// Whatever [`Service::run_on`] returns, and [`ExecError::Algorithm`]
/// naming the job when its output fails its certificate.
pub fn drain(
    g: &Arc<Graph>,
    retry: JobRetryPolicy,
    cost: &dyn Fn(&Cluster) -> CostModel,
    plan: Option<FaultPlan>,
    sink: Option<Arc<dyn TraceSink>>,
    mode: ExecMode,
) -> Result<Drain, ExecError> {
    let polylog = (SERVICE_JOBS.iter())
        .map(|name| {
            registry::get(name)
                .expect("registered algorithm")
                .polylog_exponent
        })
        .fold(1.0_f64, f64::max);
    let config = ClusterConfig::new(g.n(), g.m())
        .seed(5)
        .polylog_exponent(polylog);
    let mut service = Service::new(config.clone()).capacity_shares(SERVICE_SHARES);
    let specs: Vec<_> = (SERVICE_JOBS.iter().zip(100..))
        .map(|(name, seed)| JobSpec::new(*name, g.clone()).seed(seed).retry(retry))
        .collect();
    let handles: Vec<_> = (specs.iter())
        .map(|spec| {
            service
                .submit(spec.clone())
                .expect("canonical registry name")
        })
        .collect();
    let mut cluster = Cluster::new(config);
    cluster.set_cost_model(cost(&cluster));
    cluster.set_fault_plan(plan);
    cluster.set_trace_sink(sink);
    let records = service.run_on(&mut cluster, mode)?.records;
    let mut outcomes = Vec::with_capacity(handles.len());
    for (spec, h) in specs.iter().zip(&handles) {
        let result = h.take_result().expect("job finished");
        let digest = match result.ok() {
            Some(out) => Some(certified(spec, &out).map(|()| out.digest())?),
            None => None,
        };
        outcomes.push((h.status(), digest));
    }
    Ok(Drain {
        cluster,
        records,
        outcomes,
    })
}

/// The tenants that completed in `outcomes` with another digest than in
/// the fault-free `clean`.
pub fn diverged(outcomes: &[JobOutcome], clean: &[JobOutcome]) -> Vec<&'static str> {
    (outcomes.iter().zip(clean).zip(SERVICE_JOBS))
        .filter(|((o, c), _)| o.0 == JobStatus::Completed && o.1 != c.1)
        .map(|(_, name)| *name)
        .collect()
}

/// A sublinear-regime baseline (Table 1's left column).
#[derive(Clone, Copy)]
enum Sub {
    Mst,
    Coloring,
    Mis,
    Matching,
    Cycles,
}

/// Runs baseline `sub` on `g` on a fresh sublinear cluster; returns its
/// rounds and its headline figure (Borůvka phases for MST, 1 when the
/// cycle test saw one cycle, else 0).
fn sublinear(sub: Sub, g: &Graph, seed: u64) -> (u64, usize) {
    let mut c = Cluster::new(sublinear_config(g.n(), g.m(), seed));
    let edges = distribute_all(&c, g);
    let (n, cl) = (g.n(), &mut c);
    let figure = match sub {
        Sub::Mst => sublinear_mst(cl, n, &edges).map(|r| r.phases),
        Sub::Coloring => sublinear_coloring(cl, n, &edges, g.max_degree()).map(|_| 0),
        Sub::Mis => sublinear_mis(cl, n, &edges).map(|_| 0),
        Sub::Matching => sublinear_matching(cl, &edges).map(|_| 0),
        Sub::Cycles => two_vs_one_cycle_baseline(cl, n, &edges).map(usize::from),
    }
    .expect("sublinear baseline");
    (c.rounds(), figure)
}

/// One experiment: a row of [`EXPERIMENTS`].
pub struct Experiment {
    /// The CLI name.
    pub name: &'static str,
    /// The heading, numbered as in DESIGN.md §4.
    pub heading: &'static str,
    /// The paper result or setting it measures (empty for none).
    pub anchor: &'static str,
    body: Body,
}

/// What an experiment runs: sweep tables, or a function for those whose
/// rows are not one solo run each.
enum Body {
    Sweeps(&'static [Sweep]),
    Run(fn()),
}

impl Experiment {
    /// Prints the heading and the experiment's tables; panics on a failed
    /// check.
    pub fn run(&self) {
        match self.anchor {
            "" => println!("\n## {}\n", self.heading),
            anchor => println!("\n## {} ({anchor})\n", self.heading),
        }
        match self.body {
            Body::Sweeps(sweeps) => run_sweeps(sweeps),
            Body::Run(run) => run(),
        }
    }
}

/// One table of a sweep experiment: each grid value `x` is one solo run of
/// `algo` on `graph(x)` with `params(x)`.
struct Sweep {
    /// Sub-heading; empty for a single-table experiment.
    title: &'static str,
    algo: &'static str,
    /// Cluster and baseline seed.
    seed: u64,
    grid: &'static [f64],
    graph: fn(f64) -> Graph,
    params: fn(f64) -> JobParams,
    /// The cluster, when not the algorithm's preferred one.
    config: Option<fn(&Graph) -> ClusterConfig>,
    baseline: Option<Sub>,
    /// Column headers; `cell` extracts each.
    cols: &'static [&'static str],
}

/// Defaults for a [`Sweep`]'s optional fields.
const SWEEP: Sweep = Sweep {
    title: "",
    algo: "",
    seed: 0,
    grid: &[],
    graph: |_| unreachable!("every sweep names its graph"),
    params: |_| JobParams::default(),
    config: None,
    baseline: None,
    cols: &[],
};

/// One grid point of a [`Sweep`].
struct Point<'a> {
    x: f64,
    g: &'a Graph,
    run: Solo,
    /// The baseline's rounds and headline figure (zeros without one).
    sub: (u64, usize),
}

fn run_sweeps(sweeps: &[Sweep]) {
    for (i, s) in sweeps.iter().enumerate() {
        match (s.title, i) {
            ("", _) => {}
            (title, 0) => println!("### {title}\n"),
            (title, _) => println!("\n### {title}\n"),
        }
        let mut t = Table::default();
        for &x in s.grid {
            let g = (s.graph)(x);
            let config = s
                .config
                .map_or_else(|| preferred(s.algo, &g, s.seed), |f| f(&g));
            let run =
                solo(s.algo, &g, config, (s.params)(x), Parallel, None).expect("registry run");
            let sub = s.baseline.map_or((0, 0), |b| sublinear(b, &g, s.seed));
            let p = Point { x, g: &g, run, sub };
            let cells = s.cols.iter().map(|&col| (col, cell(col, &p)));
            t.cells(&cells.collect::<Vec<_>>());
        }
        t.print();
    }
}

/// Column `col`'s cell at sweep point `p`: every sweep column's extractor,
/// keyed by header and output variant.
fn cell(col: &str, p: &Point) -> String {
    use AlgoOutput as O;
    let (g, x) = (p.g, p.x);
    let exact_mst = || mpc_graph::mst::kruskal(g).total_weight as f64;
    let exact_cut = || mpc_graph::mincut::min_cut(g).expect("a cut").weight as f64;
    let h = |r: &mpc_core::spanner::SpannerResult| r.spanner.m() as f64;
    match (col, &p.run.out) {
        ("n" | "k" | "m/n" | "planted bridge", _) => (x as usize).to_string(),
        ("eps", _) => format!("{x:.2}"),
        ("m", _) => g.m().to_string(),
        ("Δ", _) => g.max_degree().to_string(),
        ("rounds" | "het rounds" | "build rounds" | "rounds (batched)", _) => {
            p.run.rounds.to_string()
        }
        ("sublinear rounds" | "sublinear (Luby) rounds", _) => p.sub.0.to_string(),
        ("sublinear phases", _) => p.sub.1.to_string(),
        ("Boruvka steps", O::Mst(r)) => r.stats.boruvka_steps.to_string(),
        ("|H|", O::Spanner(r)) => r.spanner.m().to_string(),
        ("|H| / n^(1+1/k)", O::Spanner(r)) => {
            format!("{:.2}", h(r) / (g.n() as f64).powf(1.0 + 1.0 / x))
        }
        ("|H|/n^(4/3)", O::Spanner(r)) => format!("{:.2}", h(r) / x.powf(4.0 / 3.0)),
        ("stretch bound", O::Spanner(_)) => (6 * x as usize - 1).to_string(),
        ("measured stretch", O::Spanner(r)) => {
            let stretch = mpc_graph::verify_spanner(g, &r.spanner, Some(16), 1).max_stretch;
            format!("{stretch:.2}")
        }
        ("stretch bound", O::Apsp { oracle, .. }) => oracle.stretch_bound.to_string(),
        ("measured stretch", O::Apsp { oracle, .. }) => {
            format!("{:.2}", measured_stretch(g, oracle, 16))
        }
        ("p1 iters", O::Matching(r)) => r.stats.phase1_iterations.to_string(),
        ("high-deg vertices", O::Matching(r)) => r.stats.high_vertices.to_string(),
        ("estimate", O::MstApprox(r)) => format!("{:.0}", r.estimate),
        ("exact", O::MstApprox(_)) => format!("{:.0}", exact_mst()),
        ("ratio", O::MstApprox(r)) => format!("{:.3}", r.estimate / exact_mst()),
        ("found", O::MinCut(r)) => r.value.to_string(),
        ("estimate", O::MinCutApprox(r)) => format!("{:.1}", r.estimate),
        ("exact", O::MinCut(_) | O::MinCutApprox(_)) => format!("{:.0}", exact_cut()),
        ("iterations", O::Mis(r)) => r.iterations.to_string(),
        ("graph", _) if x == 0.0 => "star(4096)".to_string(),
        ("graph", _) => format!("gnm({x})"),
        ("conflict edges", O::Coloring(r)) => r.conflict_edges.to_string(),
        ("conflicts/m", O::Coloring(r)) => {
            format!("{:.3}", r.conflict_edges as f64 / g.m() as f64)
        }
        ("restarts", O::Coloring(r)) => r.restarts.to_string(),
        (col, _) => unreachable!("no extractor for column '{col}'"),
    }
}

/// Every experiment, in presentation order — the only list of their names.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        heading: "E1 — Table 1",
        anchor: "measured rounds; n=512, m/n=16",
        body: Body::Run(table1),
    },
    Experiment {
        name: "mst_scaling",
        heading: "E2 — MST scaling",
        anchor: "Theorem: O(log log(m/n)) rounds",
        body: Body::Sweeps(&[
            Sweep {
                title: "density sweep at n = 1024 (tight budget exposes the schedule)",
                algo: "mst",
                seed: 7,
                grid: &[4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
                graph: |d| {
                    generators::gnm(1024, 1024 * d as usize, 7).with_random_weights(1 << 20, 7)
                },
                // A tight collection budget shows the doubly-exponential schedule.
                config: Some(|g| ClusterConfig::new(g.n(), g.m()).seed(7).mem_constant(3.0)),
                baseline: Some(Sub::Mst),
                cols: &[
                    "m/n",
                    "het rounds",
                    "Boruvka steps",
                    "sublinear rounds",
                    "sublinear phases",
                ],
                ..SWEEP
            },
            Sweep {
                title: "n sweep at m/n = 16 (het flat, sublinear grows)",
                algo: "mst",
                seed: 3,
                grid: &[256.0, 512.0, 1024.0, 2048.0],
                graph: |n| {
                    generators::gnm(n as usize, 16 * n as usize, 3).with_random_weights(1 << 20, 3)
                },
                baseline: Some(Sub::Mst),
                cols: &["n", "het rounds", "sublinear rounds"],
                ..SWEEP
            },
        ]),
    },
    Experiment {
        name: "mst_superlinear",
        heading: "E3 — MST with a superlinear large machine",
        anchor: "Theorem 3.1",
        body: Body::Run(mst_superlinear),
    },
    Experiment {
        name: "spanner",
        heading: "E4 — spanner",
        anchor: "Theorem 4.1: O(1) rounds, size O(n^(1+1/k)), stretch ≤ 6k−1",
        body: Body::Sweeps(&[
            Sweep {
                title: "k sweep at n = 512, m/n = 16",
                algo: "spanner",
                seed: 9,
                grid: &[2.0, 3.0, 4.0, 6.0],
                graph: |_| generators::gnm(512, 512 * 16, 9),
                params: |k| JobParams::default().spanner_k(k as usize),
                cols: &[
                    "k",
                    "rounds",
                    "|H|",
                    "|H| / n^(1+1/k)",
                    "stretch bound",
                    "measured stretch",
                ],
                ..SWEEP
            },
            Sweep {
                title: "n sweep at k = 3 (rounds stay flat)",
                algo: "spanner",
                seed: 4,
                grid: &[256.0, 512.0, 1024.0],
                graph: |n| generators::gnm(n as usize, 12 * n as usize, 4),
                params: |_| JobParams::default().spanner_k(3),
                cols: &["n", "rounds", "|H|/n^(4/3)"],
                ..SWEEP
            },
        ]),
    },
    Experiment {
        name: "baswana_ablation",
        heading: "E5 — modified Baswana–Sen size vs p",
        anchor: "Lemma 4.3: O(k·n^(1+1/k)/p)",
        body: Body::Run(baswana_ablation),
    },
    Experiment {
        name: "figure1",
        heading: "E6 — Figure 1: original vs modified Baswana–Sen, per level",
        anchor: "",
        body: Body::Run(figure1),
    },
    Experiment {
        name: "matching",
        heading: "E7 — maximal matching",
        anchor: "Theorem 5.1: rounds depend on d = 2m/n",
        body: Body::Sweeps(&[
            Sweep {
                title: "d sweep at n = 1024",
                algo: "matching",
                seed: 15,
                grid: &[2.0, 4.0, 8.0, 16.0, 32.0],
                graph: |d| generators::gnm(1024, 1024 * d as usize, 15),
                baseline: Some(Sub::Matching),
                cols: &[
                    "m/n",
                    "het rounds",
                    "p1 iters",
                    "high-deg vertices",
                    "sublinear rounds",
                ],
                ..SWEEP
            },
            Sweep {
                title: "skewed graphs: fixed avg degree, hubs grow with n",
                algo: "matching",
                seed: 17,
                grid: &[256.0, 512.0, 1024.0],
                graph: |n| generators::chung_lu(n as usize, 3 * n as usize, 2.2, n.log2() as u64),
                baseline: Some(Sub::Matching),
                cols: &["n", "Δ", "het rounds", "sublinear rounds"],
                ..SWEEP
            },
        ]),
    },
    Experiment {
        name: "matching_filtering",
        heading: "E8 — filtering matching",
        anchor: "Theorem 5.5: O(1/f) rounds",
        body: Body::Run(matching_filtering),
    },
    Experiment {
        name: "apsp",
        heading: "E9 — APSP oracle",
        anchor: "Corollary 4.2: O(log n)-approx in O(1) rounds",
        body: Body::Sweeps(&[Sweep {
            algo: "apsp",
            seed: 23,
            grid: &[128.0, 256.0, 384.0],
            graph: |n| generators::gnm(n as usize, 6 * n as usize, 23),
            cols: &["n", "build rounds", "stretch bound", "measured stretch"],
            ..SWEEP
        }]),
    },
    Experiment {
        name: "connectivity",
        heading: "E10a — connectivity",
        anchor: "Theorem C.1: O(1) rounds",
        body: Body::Sweeps(&[Sweep {
            algo: "connectivity",
            seed: 29,
            grid: &[128.0, 256.0, 512.0],
            graph: |n| generators::gnm(n as usize, 3 * n as usize, 29),
            cols: &["n", "m", "rounds"],
            ..SWEEP
        }]),
    },
    Experiment {
        name: "mst_approx",
        heading: "E10b — (1+eps)-approx MST weight",
        anchor: "Theorem C.2",
        body: Body::Sweeps(&[Sweep {
            algo: "mst-approx",
            seed: 31,
            grid: &[1.0, 0.5, 0.25],
            graph: |_| generators::gnm(96, 500, 31).with_random_weights(64, 31),
            params: |eps| JobParams::default().epsilon(eps),
            cols: &["eps", "estimate", "exact", "ratio", "rounds (batched)"],
            ..SWEEP
        }]),
    },
    Experiment {
        name: "mincut",
        heading: "E10c — min cut",
        anchor: "Theorems C.3/C.4",
        body: Body::Sweeps(&[
            Sweep {
                title: "exact unweighted (8 trials per instance)",
                algo: "mincut",
                seed: 37,
                grid: &[2.0, 3.0, 5.0],
                graph: |bridge| generators::planted_cut(40, 0.5, bridge as usize, 37),
                params: |_| JobParams::default().mincut_trials(8),
                cols: &["planted bridge", "found", "exact", "rounds"],
                ..SWEEP
            },
            Sweep {
                title: "(1±eps) weighted approximation",
                algo: "mincut-approx",
                seed: 41,
                grid: &[0.5, 0.3, 0.2],
                graph: |_| generators::planted_cut(30, 0.6, 5, 41).with_random_weights(8, 41),
                params: |eps| JobParams::default().epsilon(eps),
                cols: &["eps", "estimate", "exact", "rounds (batched)"],
                ..SWEEP
            },
        ]),
    },
    Experiment {
        name: "mis",
        heading: "E10d — MIS",
        anchor: "Theorem C.6: O(log log Δ) rounds",
        body: Body::Sweeps(&[Sweep {
            algo: "mis",
            seed: 43,
            grid: &[4.0, 16.0, 64.0],
            graph: |d| generators::gnm(512, 512 * d as usize, 43),
            baseline: Some(Sub::Mis),
            cols: &[
                "m/n",
                "Δ",
                "iterations",
                "rounds",
                "sublinear (Luby) rounds",
            ],
            ..SWEEP
        }]),
    },
    Experiment {
        name: "coloring",
        heading: "E10e — (Δ+1)-coloring",
        anchor: "Theorem C.7: O(1) rounds",
        // The conflict graph is sparse relative to m once Δ ≫ log² n (the
        // regime of Lemma C.8), which the star (x = 0) shows; at moderate Δ
        // it is ≈ the input: still correct, just not sparsified.
        body: Body::Sweeps(&[Sweep {
            algo: "coloring",
            seed: 47,
            grid: &[0.0, 256.0, 512.0, 1024.0],
            graph: |n| match n as usize {
                0 => generators::star(4096),
                n => generators::gnm(n, n * 12, 47),
            },
            cols: &[
                "graph",
                "m",
                "Δ",
                "conflict edges",
                "conflicts/m",
                "restarts",
                "rounds",
            ],
            ..SWEEP
        }]),
    },
    Experiment {
        name: "two_vs_one",
        heading: "E11 — 1-vs-2 cycles",
        anchor: "§1: trivial with one large machine",
        body: Body::Run(two_vs_one),
    },
    Experiment {
        name: "exec",
        heading: "E12 — execution engine",
        anchor: "serial vs parallel; heterogeneous cost model",
        body: Body::Run(exec_engine),
    },
    Experiment {
        name: "budgets",
        heading: "E14 — registry round budgets",
        anchor: "per-theorem round-class caps",
        body: Body::Run(budgets),
    },
];

/// Table 1's rows: problem, registry name, the paper's heterogeneous
/// bound. Row `i` runs at seed `i + 1`.
const TABLE1: [(&str, &str, &str); 9] = [
    ("connectivity", "connectivity", "O(1)"),
    ("MST", "mst", "O(log log(m/n))"),
    ("(1+eps)-approx MST", "mst-approx", "O(1)"),
    ("O(k)-spanner", "spanner", "O(1)"),
    ("exact unweighted min cut", "mincut", "O(1)"),
    ("(1±eps) weighted min cut", "mincut-approx", "O(1)"),
    ("(Δ+1) coloring", "coloring", "O(1)"),
    ("maximal independent set", "mis", "O(log log Δ)"),
    (
        "maximal matching",
        "matching",
        "O(sqrt(log(m/n) loglog(m/n)))",
    ),
];

fn table1() {
    let n = 512;
    let gu = generators::gnm(n, n * 16, 42);
    let g = gu.clone().with_random_weights(1 << 18, 42);
    let pc = generators::planted_cut(n / 2, 0.05, 4, 5);
    let mut t = Table::default();
    for ((problem, algo, bound), seed) in TABLE1.iter().zip(1..) {
        let graph = match *algo {
            "mincut" | "mincut-approx" => &pc,
            "mst" | "mst-approx" => &g,
            _ => &gu,
        };
        let params = match *algo {
            "mst-approx" => JobParams::default().epsilon(0.5),
            "mincut" => JobParams::default().mincut_trials(4),
            _ => JobParams::default(),
        };
        let rounds = |config, params| {
            let run = solo(algo, graph, config, params, Parallel, None);
            run.expect("registry run").rounds
        };
        let het = rounds(preferred(algo, graph, seed), params);
        // A sublinear baseline where this reproduction has one, else the
        // literature's bound for the regime's best algorithm (DESIGN.md §4).
        let sub = |sub, g| sublinear(sub, g, seed).0.to_string();
        let sub = match *algo {
            "connectivity" | "mst" => sub(Sub::Mst, &g),
            "coloring" => sub(Sub::Coloring, &gu),
            "mis" => sub(Sub::Mis, &gu),
            "matching" => sub(Sub::Matching, &gu),
            "mst-approx" => "lit. O(log n)".to_string(),
            "spanner" => "lit. O(log k)".to_string(),
            "mincut" => "lit. O(polylog n)".to_string(),
            _ => "lit. O(log n loglog n)".to_string(),
        };
        // The batched names run every instance as a lane of one wave, so
        // their rounds are the parallel figure.
        let note = match *algo {
            "mst-approx" | "mincut-approx" => " (batched)",
            "mincut" => " (4 trials)",
            _ => "",
        };
        let near = match *algo {
            "mst" => rounds(near_linear_config(n, g.m(), seed), JobParams::default()).to_string(),
            // Near-linear capacities under the sketch-friendly polylog
            // budget (computed after setting the budget).
            "connectivity" => {
                let base = sketch_friendly_config(n, g.m(), seed);
                let capacities = vec![base.capacity_for_exponent(1.0); (g.m() / n).max(2) + 1];
                let large = Some(0);
                let custom = Topology::Custom { capacities, large };
                rounds(base.topology(custom), JobParams::default()).to_string()
            }
            "spanner" | "coloring" | "mis" | "matching" => format!("{het} (same impl.)"),
            _ => het.to_string(),
        };
        t.cells(&[
            ("problem", problem.to_string()),
            ("sublinear (measured)", sub),
            ("heterogeneous (measured)", format!("{het}{note}")),
            ("near-linear (measured)", near),
            ("paper het. bound", bound.to_string()),
        ]);
    }
    t.print();
}

/// Small machines of memory `n^gamma` beside one large machine of memory
/// `n^(1+f)`.
fn heterogeneous(gamma: f64, f: f64) -> Topology {
    let large_exponent = 1.0 + f;
    Topology::Heterogeneous {
        gamma,
        large_exponent,
    }
}

/// E3 runs the engine `mst` under strict capacity (the cluster default).
fn mst_superlinear() {
    let g = generators::gnm(512, 512 * 64, 5).with_random_weights(1 << 20, 5);
    let mut t = Table::default();
    for f in [0.0f64, 0.1, 0.2, 0.4, 0.7] {
        let config = ClusterConfig::new(g.n(), g.m())
            .topology(heterogeneous(0.5, f))
            .mem_constant(4.0)
            .seed(5);
        let run =
            solo("mst", &g, config, JobParams::default(), Serial, None).expect("registry run");
        let r = run.out.into_mst().expect("an MST output");
        t.cells(&[
            ("f (memory n^(1+f))", format!("{f:.1}")),
            ("rounds", run.rounds.to_string()),
            ("Boruvka steps", r.stats.boruvka_steps.to_string()),
        ]);
    }
    t.print();
}

fn baswana_ablation() {
    let g = generators::gnm(400, 8000, 11);
    let k = 3;
    let norm = (k as f64) * (g.n() as f64).powf(1.0 + 1.0 / k as f64);
    let mut t = Table::default();
    for p in [1.0f64, 0.6, 0.3, 0.15, 0.08] {
        let sizes = (0..5).map(|s| baswana_sen::modified_baswana_sen(&g, k, p, 100 + s).0.m());
        let avg = sizes.map(|m| m as f64).sum::<f64>() / 5.0;
        t.cells(&[
            ("p", format!("{p:.2}")),
            ("size (avg of 5 seeds)", format!("{avg:.0}")),
            ("size·p / (k·n^(1+1/k))", format!("{:.3}", avg * p / norm)),
        ]);
    }
    t.print();
    println!("\n(The last column being ~flat is the 1/p law of Lemma 4.3.)");
}

fn figure1() {
    let g = generators::gnm(400, 6000, 13);
    let k = 4;
    let (h_orig, p_orig) = baswana_sen::baswana_sen(&g, k, 21);
    let (h_mod, p_mod) = baswana_sen::modified_baswana_sen(&g, k, 0.2, 21);
    let mut t = Table::default();
    for level in 0..k {
        let (a, b) = (&p_orig.stats[level], &p_mod.stats[level]);
        t.cells(&[
            ("level", (level + 1).to_string()),
            ("orig retained", a.retained.to_string()),
            ("orig reclustered", a.reclustered.to_string()),
            ("orig removed", a.removed.to_string()),
            ("mod retained", b.retained.to_string()),
            ("mod reclustered", b.reclustered.to_string()),
            ("mod removed", b.removed.to_string()),
        ]);
    }
    t.print();
    let (orig, modified) = (h_orig.m(), h_mod.m());
    println!("\nspanner sizes: original {orig} edges, modified (p=0.2) {modified} edges");
    println!("(modified re-clusters fewer and removes more — Figure 1's panels b/c)");
}

/// E8 runs filtering matching, a call-style algorithm outside the registry.
fn matching_filtering() {
    let g = generators::gnm(512, 512 * 48, 19);
    let mut t = Table::default();
    for f in [0.1f64, 0.15, 0.25, 0.4, 0.7] {
        let config = ClusterConfig::new(g.n(), g.m())
            .topology(heterogeneous(0.66, f))
            .seed(19);
        let mut c = Cluster::new(config);
        let edges = common::distribute_edges(&c, &g);
        let r = matching::filtering::filtering_matching(&mut c, g.n(), &edges, f);
        let (m, stats) = r.expect("filtering matching");
        assert!(mpc_graph::matching::is_maximal_matching(&g, &m));
        t.cells(&[
            ("f", format!("{f:.2}")),
            ("levels", stats.levels.to_string()),
            ("rounds", c.rounds().to_string()),
        ]);
    }
    t.print();
}

/// E11 prints per regime the larger round count of the two inputs, each
/// answer asserted.
fn two_vs_one() {
    let mut t = Table::default();
    for exp in 6..10u64 {
        let n = 1usize << exp;
        let (mut het, mut sub) = (0, 0);
        for (g, one) in [
            (generators::cycle(n, exp), true),
            (generators::two_cycles(n, exp), false),
        ] {
            let config = sketch_friendly_config(n, n, 1);
            let run = solo(
                "connectivity",
                &g,
                config,
                JobParams::default(),
                Parallel,
                None,
            )
            .expect("registry run");
            het = het.max(run.rounds);
            let comps = run.out.into_components().expect("components output");
            assert_eq!(comps.count == 1, one);
            let (rounds, cycles) = sublinear(Sub::Cycles, &g.with_random_weights(1 << 10, 3), 1);
            assert_eq!(cycles == 1, one);
            sub = sub.max(rounds);
        }
        t.cells(&[
            ("n", n.to_string()),
            ("het rounds", het.to_string()),
            ("sublinear rounds", sub.to_string()),
        ]);
    }
    t.print();
}

/// E12: serial vs parallel wall-clock of registry runs (identical results,
/// asserted), and the simulated makespan — the [`CostModel`]'s critical
/// path, which round counts cannot see — per cost profile.
fn exec_engine() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host cores: {cores} — parallel wall-clock can only beat serial with >1 core;\n\
         on a single core the comparison measures pure engine overhead (results are\n\
         bit-identical across schedules either way, see crates/exec/tests/determinism.rs)\n"
    );
    let mut t = Table::default();
    let g_conn = generators::gnm(384, 384 * 6, 7);
    let g_mst = g_conn.clone().with_random_weights(1 << 16, 7);
    for (topology, gamma) in [("gamma=0.66", 0.66), ("gamma=0.50", 0.50)] {
        for algo in ["connectivity", "boruvka-msf", "mst", "matching"] {
            let g = match algo {
                "connectivity" | "matching" => &g_conn,
                _ => &g_mst,
            };
            let config =
                sketch_friendly_config(g.n(), g.m(), 7).topology(heterogeneous(gamma, 0.0));
            // The cost model is orthogonal to behaviour: every profile sees
            // the same rounds and traffic.
            let run = |profile: &str, mode| {
                let cost = |c: &mut Cluster| c.set_cost_model(cost_profile(profile, c));
                let params = JobParams::default();
                let run = solo(algo, g, config.clone(), params, mode, Some(&cost));
                run.expect("registered algorithm run")
            };
            let (serial, pool) = (run("uniform", Serial), run("uniform", Parallel));
            assert_eq!(
                serial.digest, pool.digest,
                "{algo} {topology}: serial and parallel results diverged"
            );
            let span = |run: Solo| format!("{:.0}", run.cluster.critical_path_seconds());
            let speedup = serial.wall.as_secs_f64() / pool.wall.as_secs_f64().max(1e-9);
            t.cells(&[
                ("algorithm", algo.to_string()),
                ("topology", topology.to_string()),
                ("machines", serial.cluster.machines().to_string()),
                ("rounds", serial.rounds.to_string()),
                ("serial wall", format!("{:.2?}", serial.wall)),
                ("parallel wall", format!("{:.2?}", pool.wall)),
                ("speedup", format!("{speedup:.2}x")),
                ("uniform makespan", span(serial)),
                ("prop-cap makespan", span(run("proportional", Serial))),
                ("straggler makespan", span(run("straggler", Serial))),
            ]);
        }
    }
    t.print();
    println!("\nmakespans: simulated seconds along the critical path (unit-rate words);");
    println!("prop-cap = speeds/bandwidths proportional to machine capacity, latency 1s/round;");
    println!("straggler = one small machine at 10% speed — the schedule the model calls 'free'");
    println!("dominates exactly when that machine holds the bottleneck shard.");
}

/// E14 (a CI gate), the registry pass: one clean serial [`solo`] run of
/// every registry name on the budgets graph at each `n`, on its preferred
/// cluster at seed 5. Every name's rounds stay within its theorem's class
/// ([`round_budget`](mpc_exec::Algorithm::round_budget)); a batched name
/// ([`registry::BATCHED_NAMES`]) keeps its parallel figure `O(1)` and its
/// rounds at least `BATCH_COLLAPSE_FACTOR`× below the sequential
/// composition's count committed in `BENCH_rounds.json`. The experiment
/// rewrites that file with every measured count, so CI's diff also catches
/// drift below the caps.
fn budgets() {
    /// The `O(1)`-per-instance cap on the engine's parallel-round figure.
    const PARALLEL_CAP: u64 = 6;
    /// Minimum collapse of a batched name's rounds against its sequential
    /// composition.
    const BATCH_COLLAPSE_FACTOR: u64 = 5;

    let (mut failures, mut json) = (Vec::new(), Vec::new());
    let committed = committed_sequential_rounds();
    let show = |v: Option<u64>, none: &str| v.map_or_else(|| none.to_string(), |v| v.to_string());
    let mut t = Table::default();
    for n in [128, 512] {
        let g = budgets_graph(n);
        for algo in registry::algorithms() {
            let config = preferred(algo.name, &g, 5);
            let run = solo(algo.name, &g, config, JobParams::default(), Serial, None);
            let run = run.expect("registered algorithm run");
            let (rounds, cap) = (run.rounds, (algo.round_budget)(n));
            let parallel = match &run.out {
                AlgoOutput::MstApprox(r) => Some(r.parallel_rounds),
                AlgoOutput::MinCutApprox(r) => Some(r.parallel_rounds),
                _ => None,
            };
            let sequential = committed.get(&(algo.name.to_string(), n)).copied();
            let collapsed = match sequential {
                Some(s) => rounds * BATCH_COLLAPSE_FACTOR <= s,
                None => !registry::BATCHED_NAMES.contains(&algo.name),
            };
            let ok = rounds <= cap && parallel.is_none_or(|p| p <= PARALLEL_CAP) && collapsed;
            if !ok {
                failures.push(format!(
                    "{} at n={n}: {rounds} rounds (cap {cap}), parallel {parallel:?} \
                     (cap {PARALLEL_CAP}), sequential {sequential:?} \
                     (≥{BATCH_COLLAPSE_FACTOR}× collapse required)",
                    algo.name
                ));
            }
            let (seq, par) = (show(sequential, "null"), show(parallel, "null"));
            json.push(format!(
                "    {{\"name\": \"{}\", \"n\": {n}, \"rounds\": {rounds}, \"cap\": {cap}, \
                 \"sequential_rounds\": {seq}, \"parallel_rounds\": {par}}}",
                algo.name
            ));
            t.cells(&[
                ("algorithm", algo.name.to_string()),
                ("paper", algo.paper.to_string()),
                ("n", n.to_string()),
                ("rounds", rounds.to_string()),
                ("cap", cap.to_string()),
                ("sequential rounds", show(sequential, "-")),
                ("parallel rounds", show(parallel, "-")),
                ("within budget", if ok { "yes" } else { "NO" }.to_string()),
            ]);
        }
    }
    t.print();
    let path = rounds_json_path();
    let body = format!(
        "{{\n  \"bench\": \"registry_rounds\",\n  \"workload\": \"gnm(m=6n, weights<2^12, \
         seed 5), ExecMode::Serial\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        json.join(",\n")
    );
    std::fs::write(&path, body).expect("write BENCH_rounds.json");
    println!("\n[budgets: wrote {}]", path.display());
    assert!(
        failures.is_empty(),
        "round-budget violations:\n  {}",
        failures.join("\n  ")
    );
    println!("(each cap is the theorem's round class on this workload; a violation fails CI.)");
}

/// `BENCH_rounds.json` at the repo root.
fn rounds_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_rounds.json")
}

/// The sequential-composition round counts committed in
/// `BENCH_rounds.json`, keyed by `(name, n)`, for every row that has one.
fn committed_sequential_rounds() -> std::collections::BTreeMap<(String, usize), u64> {
    use mpc_runtime::telemetry::{parse_json, JsonValue};
    let body = std::fs::read_to_string(rounds_json_path()).expect("read BENCH_rounds.json");
    let doc = parse_json(&body).expect("BENCH_rounds.json is JSON");
    let rows = doc.get("rows").and_then(JsonValue::as_arr);
    let row = |row: &JsonValue| {
        let sequential = row.get("sequential_rounds")?.as_f64()?;
        let name = row.get("name")?.as_str()?.to_string();
        let n = row.get("n")?.as_f64()? as usize;
        Some(((name, n), sequential as u64))
    };
    rows.expect("a rows array").iter().filter_map(row).collect()
}
