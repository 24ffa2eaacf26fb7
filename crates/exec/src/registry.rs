//! The [`Algorithm`] registry: every engine-ported algorithm behind one
//! named entry point.
//!
//! `registry::run("mst", &mut cluster, &input, ExecMode::Parallel)` is the
//! single way the facade crate, the examples, the benches, and the CI
//! smoke tests execute a workload: a registered algorithm is guaranteed to
//! run on the [`Executor`] under both [`ExecMode::Serial`] and
//! [`ExecMode::Parallel`] with bit-identical results, and anything *not*
//! registered here is by definition not fast-path-capable — the
//! `registry` bench experiment fails if a registered program's serial and
//! pooled runs disagree.
//!
//! Each name is written down once, as a *description*: a function that
//! builds the per-machine programs of every instance — drawing any
//! host-side randomness from the large machine's stream — and says how the
//! large machine's final programs become an [`AlgoOutput`] or the next wave
//! of a chain. Two drivers consume a description — a solo run and the
//! [service](crate::service)'s lanes — so a solo run and a service lane
//! cannot drift apart: every name has one form. A one-instance wave runs
//! solo typed on the [`Executor`] (no program or message is erased); a
//! wave of many instances — the paper's parallel compositions — runs solo
//! as a one-job [`MixedWave`], a lane per instance, exactly as the service
//! runs it beside other jobs (each program [erased](crate::mixed::erase),
//! the large machine's boxes downcast at extraction).
//!
//! | name | paper result | programs |
//! |------|--------------|----------|
//! | `connectivity` | Thm C.1 | [`ConnectivityProgram`] |
//! | `boruvka-msf`  | §3 building block | [`BoruvkaProgram`] |
//! | `mst`          | Thm 3.1 | [`MstProgram`] |
//! | `matching`     | Thm 5.1 | [`MatchingProgram`] |
//! | `spanner`      | Thm 4.1 | [`SpannerProgram`] |
//! | `spanner-weighted` | Thm 4.1 + \[22\] reduction | one [`SpannerProgram`] instance per weight class |
//! | `apsp`         | Cor 4.2 | the `k = ⌈log₂ n⌉` run of `spanner` (unit weights) or `spanner-weighted`, oracle indexed on the large machine |
//! | `mst-approx`   | Thm C.2 | one [`MstApproxWave`] instance per threshold, sketch seeds drawn by the builder |
//! | `mincut`       | Thm C.3 | [`MinCutProgram`] |
//! | `mincut-approx` | Thm C.4 | one [`MinCutGuessWave`] instance per λ̂ guess, then — if every guess failed — the `xcut-fb` gather |
//! | `mis`          | Thm C.6 | [`MisProgram`] |
//! | `coloring`     | Thm C.7 | [`ColoringProgram`] |

use crate::combinators::{Driven, RoleProgram};
use crate::driver::{ExecError, ExecMode, Executor};
use crate::machine::MachineProgram;
use crate::mixed::{by_machine, downcast_program, erase, ErasedProgram, LaneCodec, MixedWave};
use crate::programs::{
    mincut_approx, mst_approx, BoruvkaProgram, ColoringProgram, ConnectivityProgram,
    MatchingProgram, MinCutGuessWave, MinCutProgram, MisProgram, MstApproxWave, MstProgram,
    SpannerProgram,
};
use mpc_core::matching::MatchingResult;
use mpc_core::mst::{MstConfig, MstResult};
use mpc_core::ported::coloring::ColoringResult;
use mpc_core::ported::connectivity::ConnectivityConfig;
use mpc_core::ported::mincut_approx::{lambda_guesses, ApproxMinCut};
use mpc_core::ported::mincut_exact::MinCutResult;
use mpc_core::ported::mis::MisResult;
use mpc_core::ported::mst_approx::{estimate_from_counts, geometric_thresholds, MstApprox};
use mpc_core::spanner::apsp::ApspOracle;
use mpc_core::spanner::SpannerResult;
use mpc_core::spanner::{merge_class_results, weight_class, weight_class_shards};
use mpc_graph::mst::Forest;
use mpc_graph::traversal::Components;
use mpc_graph::{Edge, Graph};
use mpc_runtime::{Cluster, ShardedVec};
use rand::rngs::SmallRng;
use std::sync::Arc;

/// Every tuning knob a registered algorithm reads, gathered in one place
/// so the two consumer-facing entry points — [`run`] with an [`AlgoInput`]
/// and the [service](crate::service) with a [`JobSpec`] — share a single
/// parameter surface and cannot drift.
#[derive(Clone, Debug)]
pub struct JobParams {
    /// Spanner stretch parameter `k` (ignored by non-spanner algorithms).
    pub spanner_k: usize,
    /// MST tuning knobs.
    pub mst: MstConfig,
    /// Connectivity configuration (defaults to
    /// [`ConnectivityConfig::for_n`]).
    pub connectivity: Option<ConnectivityConfig>,
    /// Contraction trials for `mincut` (Theorem C.3 amplification).
    pub mincut_trials: usize,
    /// Approximation parameter ε for `mincut-approx` and `mst-approx`.
    pub epsilon: f64,
}

impl Default for JobParams {
    /// Default parameters: `k = 3` for spanners,
    /// [`DEFAULT_MINCUT_TRIALS`] min-cut trials, ε = 0.3.
    fn default() -> Self {
        JobParams {
            spanner_k: 3,
            mst: MstConfig::default(),
            connectivity: None,
            mincut_trials: DEFAULT_MINCUT_TRIALS,
            epsilon: 0.3,
        }
    }
}

impl JobParams {
    /// Overrides the spanner stretch parameter.
    pub fn spanner_k(mut self, k: usize) -> Self {
        self.spanner_k = k;
        self
    }

    /// Overrides the `mincut` trial count.
    pub fn mincut_trials(mut self, trials: usize) -> Self {
        self.mincut_trials = trials;
        self
    }

    /// Overrides the approximation parameter ε.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = eps;
        self
    }

    /// Overrides the MST tuning knobs.
    pub fn mst(mut self, config: MstConfig) -> Self {
        self.mst = config;
        self
    }

    /// Overrides the connectivity configuration.
    pub fn connectivity(mut self, config: ConnectivityConfig) -> Self {
        self.connectivity = Some(config);
        self
    }
}

/// The input every registered algorithm consumes: a vertex universe and
/// the edge list sharded over the small machines (see
/// [`mpc_core::common::distribute_edges`]), plus tuning parameters.
pub struct AlgoInput<'a> {
    /// Number of vertices.
    pub n: usize,
    /// Sharded input edges.
    pub edges: &'a ShardedVec<Edge>,
    /// Tuning parameters (shared with [`JobSpec`]).
    pub params: JobParams,
}

/// Default `mincut` contraction trials — shared by [`JobParams::default`]
/// and the `mincut` round budget, which assumes the default input knobs (a
/// caller overriding `mincut_trials` changes the total round count by
/// `12` engine rounds per trial).
pub const DEFAULT_MINCUT_TRIALS: usize = 8;

impl<'a> AlgoInput<'a> {
    /// Input with [default parameters](JobParams::default).
    pub fn new(n: usize, edges: &'a ShardedVec<Edge>) -> Self {
        AlgoInput {
            n,
            edges,
            params: JobParams::default(),
        }
    }

    /// Overrides the spanner stretch parameter.
    pub fn spanner_k(mut self, k: usize) -> Self {
        self.params = self.params.spanner_k(k);
        self
    }

    /// Overrides the `mincut` trial count.
    pub fn mincut_trials(mut self, trials: usize) -> Self {
        self.params = self.params.mincut_trials(trials);
        self
    }

    /// Overrides the approximation parameter ε.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.params = self.params.epsilon(eps);
        self
    }
}

/// How often the [service](crate::service) re-admits a job after an
/// engine-level failure took its wave down (DESIGN.md §2.9).
///
/// A quarantined job consumes one *attempt* per admission. After failure
/// `k` (1-based) the resubmitted job may not be re-admitted before
/// `failure_round + k * backoff_rounds` — linear backoff in engine
/// rounds, the service's only clock. `max_attempts: 0` is the kill
/// switch: the job fails fast at the front of the queue without ever
/// touching the wave (zero wire impact, so the surviving tenants' round
/// log is bit-identical to a queue that never contained it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRetryPolicy {
    /// Total admissions the job may consume (default 1: quarantine is
    /// terminal, no resubmission; 0: never admit, fail fast).
    pub max_attempts: u32,
    /// Linear backoff step in engine rounds between re-admissions.
    pub backoff_rounds: u64,
}

impl Default for JobRetryPolicy {
    fn default() -> Self {
        JobRetryPolicy {
            max_attempts: 1,
            backoff_rounds: 1,
        }
    }
}

/// One job for the [service](crate::service): a registry name, the input
/// graph, tuning [`JobParams`], a private seed, and the combined-round
/// capacity shares the job holds while running.
///
/// The same description also runs solo: [`run_job`] distributes the graph
/// and delegates to [`run`], so a service job and its solo twin consume
/// byte-identical inputs — the bit-equality the service tests assert.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Registry name ([`CANONICAL_NAMES`]).
    pub name: String,
    /// The input graph (shared, so queued jobs don't duplicate edges).
    pub graph: Arc<Graph>,
    /// Tuning parameters.
    pub params: JobParams,
    /// The job's private seed: its per-machine RNG streams are
    /// [`mpc_runtime::machine_rng`]`(seed, mid)`, exactly the streams a
    /// fresh cluster seeded with `seed` would own — solo replays are
    /// bit-identical.
    pub seed: u64,
    /// Combined-round capacity shares (0 = derive from the program shape:
    /// 1 for single-instance jobs, the instance count for batched ones).
    pub shares: usize,
    /// Retry budget for engine-level failures attributed to this job.
    pub retry: JobRetryPolicy,
    /// Round budget measured from admission: a job still running
    /// `round_deadline` rounds after it was admitted is cancelled through
    /// the quarantine path and completes as
    /// [`JobStatus::DeadlineExceeded`](crate::JobStatus::DeadlineExceeded).
    /// `None` (the default) never expires.
    pub round_deadline: Option<u64>,
}

impl JobSpec {
    /// A job with [default parameters](JobParams::default), seed 0, and
    /// derived capacity shares.
    pub fn new(name: impl Into<String>, graph: impl Into<Arc<Graph>>) -> Self {
        JobSpec {
            name: name.into(),
            graph: graph.into(),
            params: JobParams::default(),
            seed: 0,
            shares: 0,
            retry: JobRetryPolicy::default(),
            round_deadline: None,
        }
    }

    /// Overrides the job's private seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the capacity-share count.
    pub fn shares(mut self, shares: usize) -> Self {
        self.shares = shares;
        self
    }

    /// Overrides the retry budget for engine-level failures.
    pub fn retry(mut self, retry: JobRetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the round budget measured from admission (see
    /// [`JobSpec::round_deadline`]).
    pub fn round_deadline(mut self, rounds: u64) -> Self {
        self.round_deadline = Some(rounds);
        self
    }

    /// Replaces the tuning parameters wholesale.
    pub fn params(mut self, params: JobParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the spanner stretch parameter.
    pub fn spanner_k(mut self, k: usize) -> Self {
        self.params = self.params.spanner_k(k);
        self
    }

    /// Overrides the `mincut` trial count.
    pub fn mincut_trials(mut self, trials: usize) -> Self {
        self.params = self.params.mincut_trials(trials);
        self
    }

    /// Overrides the approximation parameter ε.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.params = self.params.epsilon(eps);
        self
    }

    /// The job as an [`AlgoInput`] over its distributed `edges`.
    fn input<'a>(&self, edges: &'a ShardedVec<Edge>) -> AlgoInput<'a> {
        AlgoInput {
            n: self.graph.n(),
            edges,
            params: self.params.clone(),
        }
    }
}

/// What a registered algorithm returns.
#[derive(Debug)]
pub enum AlgoOutput {
    /// Connected components (`connectivity`).
    Components(Components),
    /// A minimum spanning forest without statistics (`boruvka-msf`).
    Forest(Forest),
    /// The full MST result (`mst`).
    Mst(MstResult),
    /// The maximal-matching result (`matching`).
    Matching(MatchingResult),
    /// The spanner result (`spanner`, `spanner-weighted`).
    Spanner(SpannerResult),
    /// The APSP distance oracle with the spanner run that built it
    /// (`apsp`) — the first multi-output entry: consumers query the
    /// oracle, diagnostics read the spanner statistics.
    Apsp {
        /// The large-machine-resident distance oracle.
        oracle: ApspOracle,
        /// The spanner run the oracle indexes.
        spanner: SpannerResult,
    },
    /// The (1+ε)-approximate MST weight (`mst-approx`).
    MstApprox(MstApprox),
    /// The exact unweighted min-cut result (`mincut`).
    MinCut(MinCutResult),
    /// The (1±ε)-approximate weighted min cut (`mincut-approx`).
    MinCutApprox(ApproxMinCut),
    /// The maximal-independent-set result (`mis`).
    Mis(MisResult),
    /// The (Δ+1)-coloring result (`coloring`).
    Coloring(ColoringResult),
}

impl AlgoOutput {
    /// The components, if this output carries them.
    pub fn into_components(self) -> Option<Components> {
        match self {
            AlgoOutput::Components(c) => Some(c),
            _ => None,
        }
    }

    /// The plain forest, if this output carries one.
    pub fn into_forest(self) -> Option<Forest> {
        match self {
            AlgoOutput::Forest(f) => Some(f),
            AlgoOutput::Mst(r) => Some(r.forest),
            _ => None,
        }
    }

    /// The full MST result, if this output carries one.
    pub fn into_mst(self) -> Option<MstResult> {
        match self {
            AlgoOutput::Mst(r) => Some(r),
            _ => None,
        }
    }

    /// The matching result, if this output carries one.
    pub fn into_matching(self) -> Option<MatchingResult> {
        match self {
            AlgoOutput::Matching(r) => Some(r),
            _ => None,
        }
    }

    /// The spanner result, if this output carries one (the `apsp` entry
    /// carries the spanner run behind its oracle).
    pub fn into_spanner(self) -> Option<SpannerResult> {
        match self {
            AlgoOutput::Spanner(r) => Some(r),
            AlgoOutput::Apsp { spanner, .. } => Some(spanner),
            _ => None,
        }
    }

    /// The APSP oracle and its spanner run, if this output carries them.
    pub fn into_apsp(self) -> Option<(ApspOracle, SpannerResult)> {
        match self {
            AlgoOutput::Apsp { oracle, spanner } => Some((oracle, spanner)),
            _ => None,
        }
    }

    /// The MST-weight estimate, if this output carries one.
    pub fn into_mst_approx(self) -> Option<MstApprox> {
        match self {
            AlgoOutput::MstApprox(r) => Some(r),
            _ => None,
        }
    }

    /// The exact min-cut result, if this output carries one.
    pub fn into_mincut(self) -> Option<MinCutResult> {
        match self {
            AlgoOutput::MinCut(r) => Some(r),
            _ => None,
        }
    }

    /// The approximate min-cut result, if this output carries one.
    pub fn into_mincut_approx(self) -> Option<ApproxMinCut> {
        match self {
            AlgoOutput::MinCutApprox(r) => Some(r),
            _ => None,
        }
    }

    /// The MIS result, if this output carries one.
    pub fn into_mis(self) -> Option<MisResult> {
        match self {
            AlgoOutput::Mis(r) => Some(r),
            _ => None,
        }
    }

    /// The coloring result, if this output carries one.
    pub fn into_coloring(self) -> Option<ColoringResult> {
        match self {
            AlgoOutput::Coloring(r) => Some(r),
            _ => None,
        }
    }

    /// A deterministic digest of the result — what the benches and smoke
    /// tests compare across execution modes. Covers the actual content
    /// (edge sets are order-normalized and hashed), not just cardinalities,
    /// so a drift that preserves result size still changes the digest.
    pub fn digest(&self) -> u128 {
        fn fold_edges<'a>(edges: impl Iterator<Item = &'a Edge>) -> u128 {
            let mut keys: Vec<_> = edges.map(Edge::weight_key).collect();
            keys.sort_unstable();
            let mut acc: u128 = 0xcbf2_9ce4_8422_2325;
            for key in keys {
                for word in [key.w, key.u as u64, key.v as u64] {
                    acc = (acc ^ word as u128).wrapping_mul(0x0100_0000_01b3);
                }
            }
            acc
        }
        fn fold_words(words: impl Iterator<Item = u64>) -> u128 {
            let mut acc: u128 = 0xcbf2_9ce4_8422_2325;
            for word in words {
                acc = (acc ^ word as u128).wrapping_mul(0x0100_0000_01b3);
            }
            acc
        }
        match self {
            AlgoOutput::Components(c) => c.count as u128,
            AlgoOutput::Forest(f) => f.total_weight ^ fold_edges(f.edges.iter()),
            AlgoOutput::Mst(r) => r.forest.total_weight ^ fold_edges(r.forest.edges.iter()),
            AlgoOutput::Matching(r) => {
                r.matching.len() as u128 ^ fold_edges(r.matching.edges.iter())
            }
            AlgoOutput::Spanner(r) => r.spanner.m() as u128 ^ fold_edges(r.spanner.edges().iter()),
            AlgoOutput::Apsp { oracle, spanner } => {
                (oracle.stretch_bound as u128)
                    ^ (spanner.spanner.m() as u128)
                    ^ fold_edges(spanner.spanner.edges().iter())
            }
            AlgoOutput::MstApprox(r) => {
                (r.estimate.to_bits() as u128)
                    ^ fold_words(r.component_counts.iter().map(|&c| c as u64))
            }
            AlgoOutput::MinCut(r) => {
                r.value
                    ^ fold_words(
                        r.trial_sizes
                            .iter()
                            .map(|&(v, e)| (v as u64) << 32 | e as u64),
                    )
            }
            AlgoOutput::MinCutApprox(r) => {
                (r.estimate.to_bits() as u128)
                    ^ fold_words([r.lambda_guess, r.skeleton_edges as u64].into_iter())
            }
            AlgoOutput::Mis(r) => r.mis.len() as u128 ^ fold_words(r.mis.iter().map(|&v| v as u64)),
            AlgoOutput::Coloring(r) => {
                r.colors.len() as u128 ^ fold_words(r.colors.iter().map(|&c| c as u64))
            }
        }
    }
}

/// A registered algorithm: a name, its paper anchor, and its description
/// bound to the two drivers.
pub struct Algorithm {
    /// Registry name (the `run` lookup key).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Where in the paper this algorithm lives.
    pub paper: &'static str,
    /// The polylog capacity exponent this algorithm's traffic honestly
    /// needs under strict enforcement (its `Õ(·)` factor) — generic
    /// consumers (the registry smoke, `engine_demo`) build their clusters
    /// with `ClusterConfig::polylog_exponent(algo.polylog_exponent)` so a
    /// new registration picks a suitable cluster without per-name edits.
    pub polylog_exponent: f64,
    /// Round budget: the theorem's round class stated as a hard cap for a
    /// run on a cluster of `n` vertices — `O(1)` algorithms get a fixed
    /// constant, `O(log log n)`-class algorithms an explicit
    /// `a·⌈log₂log₂n⌉ + b` cap. The `budgets` bench experiment (a CI gate)
    /// fails the build when a run exceeds it.
    pub round_budget: fn(n: usize) -> u64,
    solo: fn(&mut Cluster, &AlgoInput<'_>, ExecMode, usize) -> Result<AlgoOutput, ExecError>,
    lanes: fn(&Cluster, &AlgoInput<'_>, &mut SmallRng) -> Lanes,
}

// ---------------------------------------------------------------------------
// Descriptions and their two drivers
// ---------------------------------------------------------------------------

/// What a name's description builds from `(&Cluster, &AlgoInput)` and the
/// large machine's RNG stream, which the drivers lend for host-side draws.
pub(crate) enum Description<P> {
    /// Programs to run.
    Wave {
        /// Round-label prefix of a solo run.
        label: &'static str,
        /// Instance-major: `instances[i][mid]` is instance `i`'s program
        /// on machine `mid`. The instance count is the combined-round
        /// capacity factor a solo run applies; a service lane runs under
        /// the shares admission reserved ([`derived_shares`]) before it
        /// built anything.
        instances: Vec<Vec<P>>,
        /// Turns the large machine's final programs, in instance order,
        /// into the next link of the chain.
        finish: Finish<P>,
    },
    /// The end of a chain: the result. A degenerate input (a weighted
    /// spanner with no edges) is a chain with no wave at all.
    Immediate(Result<AlgoOutput, ExecError>),
}

/// How the large machine's final programs become the next link.
pub(crate) type Finish<P> = Box<dyn FnOnce(Vec<P>) -> Description<P>>;

/// A job's service lanes: every program erased, the large machine's boxes
/// downcast again at extraction.
pub(crate) type Lanes = Description<Box<dyn ErasedProgram>>;

impl<P: 'static> Description<P> {
    /// A one-instance wave whose large machine's final program yields the
    /// result.
    fn wave(
        label: &'static str,
        programs: Vec<P>,
        finish: impl FnOnce(P) -> Result<AlgoOutput, ExecError> + 'static,
    ) -> Self {
        Description::waves(label, vec![programs], |large| {
            finish(large.into_iter().next().expect("one instance"))
        })
    }

    /// A wave of many instances whose large machine's final programs
    /// yield the result.
    fn waves(
        label: &'static str,
        instances: Vec<Vec<P>>,
        finish: impl FnOnce(Vec<P>) -> Result<AlgoOutput, ExecError> + 'static,
    ) -> Self {
        Description::chain(label, instances, |large| {
            Description::Immediate(finish(large))
        })
    }

    /// A wave whose large machine's final programs yield the next link —
    /// which runs on the same job and RNG streams.
    fn chain(
        label: &'static str,
        instances: Vec<Vec<P>>,
        next: impl FnOnce(Vec<P>) -> Description<P> + 'static,
    ) -> Self {
        Description::Wave {
            label,
            instances,
            finish: Box::new(next),
        }
    }
}

/// The solo driver: lends the large machine's stream to the builder, then
/// runs each link of the chain — one instance typed on the [`Executor`],
/// many through [`run_instances`].
fn solo<P>(
    build: impl FnOnce(&Cluster, &AlgoInput<'_>, &mut SmallRng) -> Description<P>,
    cluster: &mut Cluster,
    input: &AlgoInput<'_>,
    mode: ExecMode,
    threads: usize,
) -> Result<AlgoOutput, ExecError>
where
    P: MachineProgram + 'static,
    P::Message: LaneCodec,
{
    let large = cluster
        .large()
        .expect("registry algorithms require a large machine");
    let mut rng = cluster.rng(large).clone();
    let mut description = build(cluster, input, &mut rng);
    *cluster.rng(large) = rng;
    loop {
        match description {
            Description::Immediate(result) => return result,
            Description::Wave {
                label,
                mut instances,
                finish,
            } => {
                let exec = Executor::new(label, mode).threads(threads);
                let programs = if instances.len() == 1 {
                    let programs = instances.pop().expect("one instance");
                    vec![exec.run(cluster, programs)?.programs.swap_remove(large)]
                } else {
                    run_instances(&exec, cluster, instances)?.swap_remove(large)
                };
                description = finish(programs);
            }
        }
    }
}

/// RAII wrapper for [`Cluster::set_capacity_factor`]: scales the cluster's
/// capacities for a combined run and restores the solo factor of 1 on drop
/// — including when the run panics, so a caller that catches the panic
/// never observes a cluster with silently-disabled strict enforcement.
struct CapacityFactor<'a> {
    cluster: &'a mut Cluster,
}

impl<'a> CapacityFactor<'a> {
    /// Applies `factor` (clamped to ≥ 1) for the guard's lifetime.
    fn scale(cluster: &'a mut Cluster, factor: usize) -> Self {
        cluster.set_capacity_factor(factor.max(1));
        CapacityFactor { cluster }
    }
}

impl Drop for CapacityFactor<'_> {
    fn drop(&mut self) {
        self.cluster.set_capacity_factor(1);
    }
}

/// Runs a wave of many instances solo: one [`MixedWave`] job, a lane per
/// instance, under a capacity factor of the instance count. The job's
/// streams are clones of the cluster's own and are written back after the
/// run, so the cluster's stream positions are those the instances left.
/// Returns every machine's final programs, machine-major.
pub(crate) fn run_instances<P>(
    exec: &Executor,
    cluster: &mut Cluster,
    instances: Vec<Vec<P>>,
) -> Result<Vec<Vec<P>>, ExecError>
where
    P: MachineProgram + 'static,
    P::Message: LaneCodec,
{
    let lanes = 0..instances.len() as u64;
    let mut waves = MixedWave::for_cluster(cluster);
    for (mid, (wave, programs)) in waves.iter_mut().zip(by_machine(instances)).enumerate() {
        let programs = programs.into_iter().map(erase).collect();
        wave.admit(lanes.clone(), programs, cluster.rng(mid).clone(), 0);
    }
    let outcome = {
        let scaled = CapacityFactor::scale(cluster, lanes.end as usize);
        exec.run(&mut *scaled.cluster, waves)
    }?;
    let machines = outcome.programs.into_iter().enumerate();
    Ok(machines
        .map(|(mid, mut wave)| {
            let (programs, rng) = wave.remove(0).expect("the job has lanes on every machine");
            *cluster.rng(mid) = rng;
            programs.into_iter().map(downcast_program).collect()
        })
        .collect())
}

/// The service driver: every link's programs become erased lanes.
fn lanes<P>(description: Description<P>) -> Lanes
where
    P: MachineProgram + 'static,
    P::Message: LaneCodec,
{
    match description {
        Description::Immediate(result) => Description::Immediate(result),
        Description::Wave {
            label,
            instances,
            finish,
        } => Description::chain(
            label,
            (instances.into_iter())
                .map(|programs| programs.into_iter().map(erase).collect())
                .collect(),
            move |large| lanes(finish(large.into_iter().map(downcast_program).collect())),
        ),
    }
}

const HALTED: &str = "large machine halts with a result";

fn driven<R: RoleProgram>(programs: Vec<R>) -> Vec<Driven<R>> {
    programs.into_iter().map(Driven).collect()
}

fn algorithm_error(e: impl std::fmt::Display) -> ExecError {
    ExecError::Algorithm {
        message: e.to_string(),
    }
}

/// Rejects the parameters a name's description cannot run with: a spanner
/// stretch `k < 2`, an `mst-approx` ε that is not finite and positive, an
/// `mincut-approx` ε outside `(0, 1)`. Reads parameters only and scans no
/// graph, so [`Service::submit`](crate::Service::submit) can afford it.
pub(crate) fn check_params(name: &str, params: &JobParams) -> Result<(), ExecError> {
    let (k, eps) = (params.spanner_k, params.epsilon);
    let problem = match name {
        "spanner" | "spanner-weighted" if k < 2 => format!("spanner_k = {k}, needs k ≥ 2"),
        "mst-approx" if !(eps.is_finite() && eps > 0.0) => {
            format!("epsilon = {eps}, needs a finite ε > 0")
        }
        "mincut-approx" if !(eps > 0.0 && eps < 1.0) => format!("epsilon = {eps}, needs 0 < ε < 1"),
        _ => return Ok(()),
    };
    Err(ExecError::Algorithm {
        message: format!("{name}: {problem}"),
    })
}

/// The capacity shares a job occupies while running: its explicit
/// [`JobSpec::shares`] if set, otherwise the instance count of its
/// description — the capacity factor a solo run applies — counted with the
/// builders' own helpers: one share per non-empty weight class for
/// `spanner-weighted` and `apsp` (unit weights are one class: `apsp` then
/// runs one plain spanner), per threshold for `mst-approx`, per λ̂ guess for
/// `mincut-approx`, and 1 for everything else.
pub(crate) fn derived_shares(spec: &JobSpec) -> usize {
    if spec.shares > 0 {
        return spec.shares;
    }
    let edges = spec.graph.edges().iter();
    match spec.name.as_str() {
        "spanner-weighted" | "apsp" => {
            // A u64 weight has 64 classes: the set of them is one word.
            let classes = edges.fold(0u64, |set, e| set | 1 << weight_class(e.w));
            (classes.count_ones() as usize).max(1)
        }
        "mst-approx" => geometric_thresholds(max_weight(edges), spec.params.epsilon).len(),
        "mincut-approx" => lambda_guesses(total_weight(edges)).len(),
        _ => 1,
    }
}

/// The heaviest weight, floored at 1: the top of `mst-approx`'s threshold
/// grid.
fn max_weight<'e>(edges: impl Iterator<Item = &'e Edge>) -> u64 {
    edges.map(|e| e.w).max().unwrap_or(1).max(1)
}

/// The total weight (saturating): the first of `mincut-approx`'s λ̂
/// guesses.
fn total_weight<'e>(edges: impl Iterator<Item = &'e Edge>) -> u64 {
    edges.fold(0, |sum, e| sum.saturating_add(e.w))
}

fn connectivity(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<ConnectivityProgram> {
    let config = input
        .params
        .connectivity
        .clone()
        .unwrap_or_else(|| ConnectivityConfig::for_n(input.n));
    let programs = ConnectivityProgram::for_cluster(cluster, input.n, input.edges, &config);
    Description::wave("conn", programs, |p| {
        Ok(AlgoOutput::Components(p.result.expect(HALTED)))
    })
}

fn boruvka_msf(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<BoruvkaProgram> {
    let programs = BoruvkaProgram::for_cluster(cluster, input.edges);
    Description::wave("boruvka", programs, |p| {
        Ok(AlgoOutput::Forest(p.forest.expect(HALTED)))
    })
}

fn mst(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<MstProgram>> {
    let programs = MstProgram::for_cluster_with(cluster, input.n, input.edges, &input.params.mst);
    Description::wave("mst", driven(programs), |p| {
        let result = p.0.result.expect(HALTED);
        result.map(AlgoOutput::Mst).map_err(algorithm_error)
    })
}

fn matching(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<MatchingProgram>> {
    let programs = MatchingProgram::for_cluster(cluster, input.n, input.edges);
    Description::wave("match", driven(programs), |p| {
        let result = p.0.result.expect(HALTED);
        result.map(AlgoOutput::Matching).map_err(algorithm_error)
    })
}

/// A spanner run's output: the spanner itself, or — given `apsp`'s stretch
/// bound — the distance oracle indexed over it.
fn spanner_output(spanner: SpannerResult, apsp_stretch: Option<usize>) -> AlgoOutput {
    match apsp_stretch {
        Some(stretch_bound) => AlgoOutput::Apsp {
            oracle: ApspOracle::from_spanner(spanner.spanner.clone(), stretch_bound),
            spanner,
        },
        None => AlgoOutput::Spanner(spanner),
    }
}

/// The `(6k−1)`-spanner of Theorem 4.1 on `edges` read as unweighted.
fn plain_spanner(
    cluster: &Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    k: usize,
    apsp_stretch: Option<usize>,
) -> Description<Driven<SpannerProgram>> {
    let programs = driven(SpannerProgram::for_cluster(cluster, n, edges, k));
    Description::wave("spanner", programs, move |p| {
        Ok(spanner_output(p.0.result.expect(HALTED), apsp_stretch))
    })
}

/// The weighted spanner: all factor-2 weight classes (the \[22\]
/// reduction) as the instances of one wave — one 17-round spanner clock
/// for *every* class. The spanner program's draws happen at fixed rounds
/// and a job's lanes step in instance order, so each machine consumes its
/// RNG stream class-major — exactly the legacy loop's order — and the
/// spanner, statistics, and RNG stream positions are bit-identical to the
/// legacy path.
fn class_spanner(
    cluster: &Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    k: usize,
    apsp_stretch: Option<usize>,
) -> Description<Driven<SpannerProgram>> {
    let classes = weight_class_shards(edges);
    if classes.shards.is_empty() {
        let spanner = merge_class_results(n, &classes, Vec::new());
        return Description::Immediate(Ok(spanner_output(spanner, apsp_stretch)));
    }
    let per_class = (classes.shards.iter())
        .map(|(_c, class_edges)| driven(SpannerProgram::for_cluster(cluster, n, class_edges, k)))
        .collect();
    Description::waves("wspan", per_class, move |large| {
        let results = large.into_iter().map(|p| p.0.result.expect(HALTED));
        let spanner = merge_class_results(n, &classes, results.collect());
        Ok(spanner_output(spanner, apsp_stretch))
    })
}

fn spanner(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<SpannerProgram>> {
    plain_spanner(cluster, input.n, input.edges, input.params.spanner_k, None)
}

fn spanner_weighted(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<SpannerProgram>> {
    class_spanner(cluster, input.n, input.edges, input.params.spanner_k, None)
}

/// `apsp` is one spanner run at stretch parameter `k = ⌈log₂ n⌉` — plain
/// on unit weights, per weight class otherwise — with the oracle indexed
/// on the large machine (local, no rounds).
fn apsp(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<SpannerProgram>> {
    let (n, edges) = (input.n, input.edges);
    let k = ApspOracle::stretch_parameter(n);
    if edges.iter().any(|(_, e)| e.w != 1) {
        class_spanner(cluster, n, edges, k, Some(12 * k - 1))
    } else {
        plain_spanner(cluster, n, edges, k, Some(6 * k - 1))
    }
}

/// The Theorem C.2 estimator: every `(1+ε)^j` threshold as one
/// [`MstApproxWave`] instance of one wave, each wave's sketch seed drawn
/// here from the large machine's stream in ascending threshold order — the
/// legacy per-wave draws, made up front — so results *and* RNG stream
/// positions are bit-identical to the legacy loop.
fn mst_approx(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    rng: &mut SmallRng,
) -> Description<Driven<MstApproxWave>> {
    let (n, epsilon) = (input.n, input.params.epsilon);
    let w_max = max_weight(input.edges.iter().map(|(_, e)| e));
    let thresholds = geometric_thresholds(w_max, epsilon);
    let instances = mst_approx::threshold_waves(cluster, n, input.edges, &thresholds, rng);
    Description::waves("xmst", instances, move |large| {
        let component_counts: Vec<usize> = (large.into_iter())
            .map(|wave| {
                wave.0
                    .count
                    .expect("large machine halts with a per-wave count")
            })
            .collect();
        let estimate = estimate_from_counts(n, w_max, &thresholds, &component_counts);
        Ok(AlgoOutput::MstApprox(MstApprox {
            estimate,
            thresholds,
            component_counts,
            parallel_rounds: MstApproxWave::ROUNDS,
        }))
    })
}

fn mincut(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<MinCutProgram>> {
    let trials = input.params.mincut_trials;
    let programs = MinCutProgram::for_cluster(cluster, input.n, input.edges, trials);
    Description::wave("cut", driven(programs), |p| {
        Ok(AlgoOutput::MinCut(p.0.result.expect(HALTED)))
    })
}

/// The Theorem C.4 estimator: every geometric λ̂ guess as one
/// [`MinCutGuessWave`] instance of one wave, then — only when every guess
/// failed — the `xcut-fb` whole-graph gather as the chain's second link
/// (see [`crate::programs::mincut_approx`]).
fn mincut_approx(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<MinCutGuessWave>> {
    let guesses = lambda_guesses(total_weight(input.edges.iter().map(|(_, e)| e)));
    let epsilon = input.params.epsilon;
    let mut per_guess = mincut_approx::waves(cluster, input.n, input.edges, &guesses, epsilon);
    let fallback = per_guess.pop().expect("the fallback follows the guesses");
    Description::chain("xcut", per_guess, move |large| {
        match mincut_approx::scan(large) {
            Ok(cut) => Description::Immediate(Ok(AlgoOutput::MinCutApprox(cut))),
            Err(rounds) => Description::wave("xcut-fb", fallback, move |large| {
                let cut = mincut_approx::gathered(large, rounds);
                Ok(AlgoOutput::MinCutApprox(cut))
            }),
        }
    })
}

fn mis(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<MisProgram>> {
    let programs = MisProgram::for_cluster(cluster, input.n, input.edges);
    Description::wave("mis", driven(programs), |p| {
        Ok(AlgoOutput::Mis(p.0.result.expect(HALTED)))
    })
}

fn coloring(
    cluster: &Cluster,
    input: &AlgoInput<'_>,
    _rng: &mut SmallRng,
) -> Description<Driven<ColoringProgram>> {
    let programs = ColoringProgram::for_cluster(cluster, input.n, input.edges);
    Description::wave("color", driven(programs), |p| {
        Ok(AlgoOutput::Coloring(p.0.result.expect(HALTED)))
    })
}

/// `⌈log₂log₂ n⌉`, floored at 1 — the `O(log log n)` budget scale.
fn loglog(n: usize) -> u64 {
    let l = (n.max(4) as f64).log2().log2().ceil() as u64;
    l.max(1)
}

// The three batched workloads (`spanner-weighted`, `mst-approx`,
// `mincut-approx`) run their paper-parallel instances as the lanes of one
// wave, so their round budgets are the theorems'
// *parallel* figures — flat constants, independent of the instance count
// (weight classes, thresholds, λ̂ guesses). The `budgets` experiment gates
// the ≥5× collapse against the sequential round counts committed in
// `BENCH_rounds.json`.

/// `⌈log₂ n⌉`, floored at 1.
fn log2(n: usize) -> u64 {
    ((n.max(2) as f64).log2().ceil() as u64).max(1)
}

static ALGORITHMS: &[Algorithm] = &[
    Algorithm {
        name: "connectivity",
        summary: "O(1)-round connected components via linear sketches",
        paper: "Theorem C.1",
        polylog_exponent: 2.6,
        round_budget: |_n| 6,
        solo: |c, i, m, t| solo(connectivity, c, i, m, t),
        lanes: |c, i, r| lanes(connectivity(c, i, r)),
    },
    Algorithm {
        name: "boruvka-msf",
        summary: "plain Borůvka minimum spanning forest in 4-round waves",
        paper: "§3 building block",
        polylog_exponent: 1.3,
        round_budget: |n| 4 * log2(n) + 8,
        solo: |c, i, m, t| solo(boruvka_msf, c, i, m, t),
        lanes: |c, i, r| lanes(boruvka_msf(c, i, r)),
    },
    Algorithm {
        name: "mst",
        summary: "exact MST: doubly-exponential Borůvka + KKT sampling finish",
        paper: "Theorem 3.1",
        polylog_exponent: 1.3,
        round_budget: |n| 6 * loglog(n) + 16,
        solo: |c, i, m, t| solo(mst, c, i, m, t),
        lanes: |c, i, r| lanes(mst(c, i, r)),
    },
    Algorithm {
        name: "matching",
        summary: "maximal matching in rounds depending only on the average degree",
        paper: "Theorem 5.1",
        polylog_exponent: 1.3,
        round_budget: |n| 10 * loglog(n) + 36,
        solo: |c, i, m, t| solo(matching, c, i, m, t),
        lanes: |c, i, r| lanes(matching(c, i, r)),
    },
    Algorithm {
        name: "spanner",
        summary: "(6k−1)-spanner of size O(n^(1+1/k)) in O(1) rounds (unweighted)",
        paper: "Theorem 4.1",
        polylog_exponent: 1.6,
        round_budget: |_n| 24,
        solo: |c, i, m, t| solo(spanner, c, i, m, t),
        lanes: |c, i, r| lanes(spanner(c, i, r)),
    },
    Algorithm {
        name: "spanner-weighted",
        summary: "(12k−1)-spanner of a weighted graph via factor-2 weight classes",
        paper: "Theorem 4.1 + [22]",
        polylog_exponent: 1.6,
        // All weight classes interleaved in one engine run: the solo
        // spanner's O(1) clock, independent of the class count.
        round_budget: |_n| 24,
        solo: |c, i, m, t| solo(spanner_weighted, c, i, m, t),
        lanes: |c, i, r| lanes(spanner_weighted(c, i, r)),
    },
    Algorithm {
        name: "apsp",
        summary: "O(log n)-approximate APSP oracle from a k=⌈log₂ n⌉ spanner",
        paper: "Corollary 4.2",
        polylog_exponent: 1.6,
        // One spanner run (the fixed 17-round clock, weight classes
        // interleaved when the input is weighted).
        round_budget: |_n| 24,
        solo: |c, i, m, t| solo(apsp, c, i, m, t),
        lanes: |c, i, r| lanes(apsp(c, i, r)),
    },
    Algorithm {
        name: "mst-approx",
        summary: "(1+ε)-approximate MST weight via thresholded connectivity",
        paper: "Theorem C.2",
        polylog_exponent: 2.6,
        // All threshold waves interleaved in one engine run: a single
        // 3-round connectivity wave plus slack, independent of the
        // O(log_{1+ε} W) grid size — the theorem's parallel figure.
        round_budget: |_n| 8,
        solo: |c, i, m, t| solo(mst_approx, c, i, m, t),
        lanes: |c, i, r| lanes(mst_approx(c, i, r)),
    },
    Algorithm {
        name: "mincut",
        summary: "exact unweighted min cut via 2-out + sampling contraction",
        paper: "Theorem C.3",
        polylog_exponent: 1.3,
        // O(1) per trial (12 engine rounds), at the default trial count,
        // plus the degree kickoff.
        round_budget: |_n| 12 * DEFAULT_MINCUT_TRIALS as u64 + 8,
        solo: |c, i, m, t| solo(mincut, c, i, m, t),
        lanes: |c, i, r| lanes(mincut(c, i, r)),
    },
    Algorithm {
        name: "mincut-approx",
        summary: "(1±ε)-approximate weighted min cut via skeleton sampling",
        paper: "Theorem C.4",
        polylog_exponent: 1.6,
        // All λ̂ guesses interleaved in one engine run: one 4-round wave
        // plus the conditional whole-graph fallback, independent of the
        // geometric guess count — the theorem's parallel figure.
        round_budget: |_n| 10,
        solo: |c, i, m, t| solo(mincut_approx, c, i, m, t),
        lanes: |c, i, r| lanes(mincut_approx(c, i, r)),
    },
    Algorithm {
        name: "mis",
        summary: "maximal independent set over geometric rank prefixes",
        paper: "Theorem C.6",
        polylog_exponent: 1.6,
        round_budget: |n| 10 * (loglog(n) + 1) + 10,
        solo: |c, i, m, t| solo(mis, c, i, m, t),
        lanes: |c, i, r| lanes(mis(c, i, r)),
    },
    Algorithm {
        name: "coloring",
        summary: "(Δ+1)-coloring via palette sampling + conflict list-coloring",
        paper: "Theorem C.7",
        polylog_exponent: 2.0,
        // O(1) plus at most MAX_RESTARTS + 1 attempt waves (2 rounds each).
        round_budget: |_n| 6 + 2 * (mpc_core::ported::coloring::MAX_RESTARTS as u64 + 1),
        solo: |c, i, m, t| solo(coloring, c, i, m, t),
        lanes: |c, i, r| lanes(coloring(c, i, r)),
    },
];

/// The registry names whose paper-parallel instances run as the lanes of
/// one [`MixedWave`] job — the single source of truth for the `budgets`
/// collapse gate and the batched schedule-independence sweep.
pub const BATCHED_NAMES: [&str; 3] = ["spanner-weighted", "mst-approx", "mincut-approx"];

/// The canonical registry contents: every paper result, exactly once, in
/// presentation order. `names()` must equal this list (asserted by the
/// registry unit tests *and* the `registry` smoke experiment in CI), so a
/// dropped, duplicated, or misnamed registration fails the build.
pub const CANONICAL_NAMES: [&str; 12] = [
    "connectivity",
    "boruvka-msf",
    "mst",
    "matching",
    "spanner",
    "spanner-weighted",
    "apsp",
    "mst-approx",
    "mincut",
    "mincut-approx",
    "mis",
    "coloring",
];

/// All registered algorithms, in presentation order.
pub fn algorithms() -> &'static [Algorithm] {
    ALGORITHMS
}

/// All registry names, in presentation order.
pub fn names() -> Vec<&'static str> {
    ALGORITHMS.iter().map(|a| a.name).collect()
}

/// Looks up an algorithm by name.
pub fn get(name: &str) -> Option<&'static Algorithm> {
    ALGORITHMS.iter().find(|a| a.name == name)
}

/// Runs the named algorithm on `cluster` in the given [`ExecMode`] — the
/// registry entry point everything routes through.
///
/// # Errors
///
/// [`ExecError::Algorithm`] for unknown names and for parameters the
/// algorithm cannot run with (a spanner `k < 2`, an ε out of range);
/// otherwise whatever the algorithm surfaces (see [`ExecError`]).
pub fn run(
    name: &str,
    cluster: &mut Cluster,
    input: &AlgoInput<'_>,
    mode: ExecMode,
) -> Result<AlgoOutput, ExecError> {
    run_threads(name, cluster, input, mode, 0)
}

/// [`run`] with an explicit worker-thread cap for [`ExecMode::Parallel`]
/// (0 = the [`Executor`]'s default) — the knob the schedule-independence
/// tests turn.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_threads(
    name: &str,
    cluster: &mut Cluster,
    input: &AlgoInput<'_>,
    mode: ExecMode,
    threads: usize,
) -> Result<AlgoOutput, ExecError> {
    let algo = get(name).ok_or_else(|| ExecError::Algorithm {
        message: format!(
            "unknown algorithm '{name}'; registered: {}",
            names().join(", ")
        ),
    })?;
    check_params(name, &input.params)?;
    (algo.solo)(cluster, input, mode, threads)
}

/// Runs one [`JobSpec`] solo on `cluster`: distributes the spec's graph
/// and delegates to [`run`] with the spec's parameters — with
/// `job_lanes`, the single bridge between the job description the
/// [service](crate::service) consumes and the [`AlgoInput`] entry point,
/// so the two cannot drift. The caller seeds the cluster (typically with
/// [`JobSpec::seed`]) to reproduce a service job bit-for-bit.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_job(
    spec: &JobSpec,
    cluster: &mut Cluster,
    mode: ExecMode,
) -> Result<AlgoOutput, ExecError> {
    let edges = mpc_core::common::distribute_edges(cluster, &spec.graph);
    let input = spec.input(&edges);
    run(&spec.name, cluster, &input, mode)
}

/// Builds the service lanes of one [`JobSpec`] from exactly the input
/// [`run_job`] would run solo, drawing host-side randomness from
/// `large_rng` — the job's stream for the large machine, which its large
/// lane then carries on. Must run with the cluster's capacity factor at 1
/// — the constructors snapshot solo capacities.
///
/// # Panics
///
/// Panics on an unregistered name or parameters [`check_params`] rejects —
/// [`Service::submit`](crate::Service::submit) turns those away.
pub(crate) fn job_lanes(spec: &JobSpec, cluster: &Cluster, large_rng: &mut SmallRng) -> Lanes {
    debug_assert_eq!(cluster.capacity_factor(), 1, "build lanes at solo capacity");
    let edges = mpc_core::common::distribute_edges(cluster, &spec.graph);
    let input = spec.input(&edges);
    let algo = get(&spec.name).expect("submit admits registered names only");
    (algo.lanes)(cluster, &input, large_rng)
}

/// Runs the named algorithm with telemetry recording attached and returns
/// its output together with a [`RunReport`](crate::report::RunReport) —
/// per-machine load, straggler ranking, critical-path breakdown, and (for
/// pool runs) host-side worker accounting.
///
/// An unbounded ring sink is installed for the duration of the run. If the
/// caller already attached a sink it keeps receiving every event (the two
/// are fanned out), and it is restored afterwards either way.
///
/// # Errors
///
/// Same as [`run`]; the caller's sink is restored on the error path too.
pub fn run_with_report(
    name: &str,
    cluster: &mut Cluster,
    input: &AlgoInput<'_>,
    mode: ExecMode,
) -> Result<(AlgoOutput, crate::report::RunReport), ExecError> {
    use mpc_runtime::{FanoutSink, RingSink, TraceSink};
    use std::sync::Arc;

    let ring = Arc::new(RingSink::unbounded());
    let previous = cluster.set_trace_sink(Some(match cluster.trace_sink() {
        Some(existing) => {
            Arc::new(FanoutSink::new(vec![existing, ring.clone()])) as Arc<dyn TraceSink>
        }
        None => ring.clone() as Arc<dyn TraceSink>,
    }));
    let result = run(name, cluster, input, mode);
    cluster.set_trace_sink(previous);
    let output = result?;
    let report = crate::report::RunReport::from_events(name, ring.take(), cluster.cost_model());
    Ok((output, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_runtime::machine_rng;

    #[test]
    fn registry_matches_the_canonical_name_set() {
        assert_eq!(
            names(),
            CANONICAL_NAMES.to_vec(),
            "registry names drifted from the canonical set"
        );
        for name in CANONICAL_NAMES {
            assert!(get(name).is_some(), "'{name}' not registered");
        }
        assert_eq!(names().len(), ALGORITHMS.len());
        for name in BATCHED_NAMES {
            assert!(
                CANONICAL_NAMES.contains(&name),
                "batched name '{name}' missing from the canonical set"
            );
        }
    }

    /// A row's lanes on `config`'s cluster, built as the service builds
    /// them: the large machine's stream minted from the job seed.
    fn lanes_of(spec: &JobSpec, config: mpc_runtime::ClusterConfig) -> (Cluster, Lanes) {
        let cluster = Cluster::new(config);
        let large = cluster.large().expect("a large machine");
        let lanes = job_lanes(spec, &cluster, &mut machine_rng(spec.seed, large));
        (cluster, lanes)
    }

    /// The table is total: every row builds service lanes (one program
    /// per machine, or a finished result), its one-job [`Service`] drain
    /// agrees with its solo run, and `Service::submit` accepts exactly
    /// [`names`]. A name that is registered but cannot be built as a lane
    /// — what the `other =>` arm of the service's old per-name `match`
    /// answered — cannot exist: `lanes` is a field of the row.
    #[test]
    fn every_row_builds_lanes_and_drains_to_its_solo_digest() {
        use crate::Service;
        let g = Arc::new(mpc_graph::generators::gnm(64, 320, 3).with_random_weights(64, 3));
        let config = |algo: &Algorithm| {
            mpc_runtime::ClusterConfig::new(g.n(), g.m())
                .seed(5)
                .polylog_exponent(algo.polylog_exponent)
        };
        for algo in algorithms() {
            let spec = JobSpec::new(algo.name, Arc::clone(&g)).seed(5);
            match lanes_of(&spec, config(algo)) {
                (cluster, Description::Wave { instances, .. }) => {
                    for programs in instances {
                        assert_eq!(programs.len(), cluster.machines());
                    }
                }
                (_, Description::Immediate(result)) => assert!(result.is_ok(), "{}", algo.name),
            }

            let solo = run_job(&spec, &mut Cluster::new(config(algo)), ExecMode::Serial);
            let mut service = Service::new(config(algo));
            let handle = service.submit(spec).expect("registered name");
            service.run(ExecMode::Serial).expect("drain");
            let served = handle.take_result().expect("finished");
            assert_eq!(
                served.expect("job result").digest(),
                solo.expect("solo result").digest(),
                "{}: service lane diverged from the solo run",
                algo.name
            );
        }

        let mut service = Service::new(config(&ALGORITHMS[0]));
        for name in names() {
            assert!(service.submit(JobSpec::new(name, Arc::clone(&g))).is_ok());
        }
        assert!(service.submit(JobSpec::new("nope", g)).is_err());
        assert_eq!(service.queued(), names().len());
    }

    /// Admission reserves what a solo run scales by: for every name, on a
    /// weighted and a unit-weight graph, the derived shares equal the
    /// built description's instance count.
    #[test]
    fn derived_shares_equal_the_description_factor() {
        use mpc_graph::generators::gnm;
        for g in [
            gnm(64, 320, 3).with_random_weights(1 << 12, 3),
            gnm(48, 200, 5),
        ] {
            let g = Arc::new(g);
            for algo in algorithms() {
                let spec = JobSpec::new(algo.name, Arc::clone(&g));
                let config = mpc_runtime::ClusterConfig::new(g.n(), g.m())
                    .polylog_exponent(algo.polylog_exponent);
                let Description::Wave { instances, .. } = lanes_of(&spec, config).1 else {
                    panic!("{}: a graph with edges runs a wave", algo.name);
                };
                assert_eq!(derived_shares(&spec), instances.len(), "{}", algo.name);
            }
        }
    }

    #[test]
    fn unknown_names_error_with_the_catalog() {
        let g = mpc_graph::generators::gnm(16, 32, 1);
        let mut cluster = Cluster::new(mpc_runtime::ClusterConfig::new(g.n(), g.m()));
        let edges = mpc_core::common::distribute_edges(&cluster, &g);
        let input = AlgoInput::new(g.n(), &edges);
        let err = run("nope", &mut cluster, &input, ExecMode::Serial).unwrap_err();
        assert!(err.to_string().contains("unknown algorithm"));
        assert!(err.to_string().contains("mst"));
    }
}
