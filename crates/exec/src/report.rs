//! Post-run analysis: the [`RunReport`] — per-machine load attribution,
//! load-imbalance ratios, a critical-path breakdown, and a straggler
//! ranking, built entirely from the telemetry event stream.
//!
//! [`RunReport::from_events`] folds the [`TraceEvent`]s a run recorded —
//! typically into a [`RingSink`](mpc_runtime::RingSink) attached to the
//! cluster for one [`registry::run_job`](crate::registry::run_job) or one
//! service drain, as `mpc-trace` does — into this report. The report
//! answers the questions the round-counting model cannot: which machine
//! the barrier waits on, how much of the critical path is wire vs.
//! compute vs. latency vs. fault delay, and how evenly the pool's workers
//! split the host-side stepping work.

use crate::pool::{PoolStats, WorkerStats};
use mpc_runtime::telemetry::TraceEvent;
use mpc_runtime::{CostModel, MachineId};
use std::fmt::Write as _;

/// One machine's whole-run load attribution (summed over rounds).
#[derive(Clone, Debug, PartialEq)]
pub struct MachineLoad {
    /// The machine.
    pub machine: MachineId,
    /// Words sent over the run.
    pub sent_words: u64,
    /// Words received over the run.
    pub recv_words: u64,
    /// Local-computation words charged over the run.
    pub work: u64,
    /// Simulated seconds this machine itself was busy (wire + compute,
    /// before barrier waits) — the straggler-ranking key.
    pub seconds: f64,
    /// Rounds in which this machine was the slowest (the one the barrier
    /// waited on). Ties go to the lowest machine id.
    pub bottleneck_rounds: u64,
    /// Smallest per-round capacity headroom observed:
    /// `capacity − max(sent, recv)`. Negative means a round exceeded the
    /// cap (visible in `Record`/`Off` enforcement).
    pub min_headroom: i64,
}

/// Where the simulated critical path went. The four parts sum to
/// `total_seconds` (up to float rounding): each round contributes its
/// fixed latency, the bottleneck machine's recorded seconds split into
/// wire and compute time, and whatever of the makespan is left — delay
/// faults and retry backoff.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// Sum of per-round makespans (the run's simulated duration).
    pub total_seconds: f64,
    /// Fixed per-round synchronization latency, summed.
    pub latency_seconds: f64,
    /// Wire time of each round's bottleneck machine, summed.
    pub wire_seconds: f64,
    /// Compute time of each round's bottleneck machine, summed.
    pub cpu_seconds: f64,
    /// Makespan beyond latency and the bottleneck machine's seconds,
    /// summed: delay faults and retry backoff. Zero without a fault plan.
    pub delay_seconds: f64,
}

/// Fault-tolerance overhead attribution: how much of the run's simulated
/// time went into checkpoints, replays, and recovery exchanges. All-zero
/// (and unrendered) for runs without a fault plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryBreakdown {
    /// `FaultInjected` events observed (crashes, drops, delays, slowdowns).
    pub faults_injected: u64,
    /// `MachineQuarantined` events (one per crash, including re-crashes
    /// during recovery).
    pub machines_quarantined: u64,
    /// `RecoveryRound` events (one per machine successfully recovered).
    pub recovery_rounds: u64,
    /// Total driver rounds replayed from checkpoints across all
    /// recoveries.
    pub replay_rounds: u64,
    /// Replication (checkpoint) exchanges the run performed.
    pub checkpoint_rounds: u64,
    /// Simulated seconds spent in recovery exchanges (resends, replayed
    /// compute, retry backoff).
    pub recovery_makespan: f64,
    /// Simulated seconds spent shipping replica checkpoints.
    pub checkpoint_makespan: f64,
    /// `JobQuarantined` events — service jobs pulled mid-wave (engine
    /// errors attributed to them, or missed deadlines).
    pub jobs_quarantined: u64,
    /// `JobRetried` events — quarantined jobs resubmitted under their
    /// retry policy.
    pub jobs_retried: u64,
    /// `JobFailed` events — jobs that exhausted their policy (or were
    /// admitted with a zero budget) and completed as failed.
    pub jobs_failed: u64,
}

impl RecoveryBreakdown {
    /// Fault-tolerance overhead as a fraction of the run's total simulated
    /// time: `(checkpoint + recovery seconds) / total`. 0.0 for fault-free
    /// runs without a plan.
    pub fn overhead_ratio(&self, total_seconds: f64) -> f64 {
        if total_seconds <= 0.0 {
            return 0.0;
        }
        (self.checkpoint_makespan + self.recovery_makespan) / total_seconds
    }

    /// Whether anything fault-tolerance-related happened at all.
    pub fn is_empty(&self) -> bool {
        *self == RecoveryBreakdown::default()
    }
}

/// A straggler/imbalance report for one run, distilled from the telemetry
/// stream (plus the cluster's [`CostModel`] for the wire/compute split).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The workload name (registry name, or the executor label).
    pub name: String,
    /// Exchange rounds the run consumed (count of `Round` frames).
    pub rounds: u64,
    /// Per-machine load attribution, indexed by machine id.
    pub machines: Vec<MachineLoad>,
    /// Critical-path breakdown over the simulated timeline.
    pub critical_path: CriticalPath,
    /// Simulated load-imbalance ratio: the busiest machine's seconds over
    /// the mean (1.0 = perfectly balanced, 0.0 = no traffic at all).
    pub imbalance: f64,
    /// Host-side pool accounting, reconstructed from `WorkerRound` events
    /// (`None` for serial runs or runs without pool telemetry).
    pub pool: Option<PoolStats>,
    /// Capacity violations observed during the run.
    pub violations: usize,
    /// Fault-tolerance overhead attribution (all-zero without a plan).
    pub recovery: RecoveryBreakdown,
    /// The raw event stream, for exporters
    /// ([`perfetto_export`](mpc_runtime::telemetry::perfetto_export)) and
    /// reconciliation tests.
    pub events: Vec<TraceEvent>,
}

impl RunReport {
    /// Folds a recorded event stream into a report, one event at a time:
    /// each `Round` frame carries its whole round. `cost` supplies the
    /// wire/compute split of the critical path (per-machine bandwidths and
    /// speeds); frame columns past the model's machines are ignored.
    pub fn from_events(name: &str, events: Vec<TraceEvent>, cost: &CostModel) -> Self {
        let k = cost.machines();
        let mut machines: Vec<MachineLoad> = (0..k)
            .map(|machine| MachineLoad {
                machine,
                sent_words: 0,
                recv_words: 0,
                work: 0,
                seconds: 0.0,
                bottleneck_rounds: 0,
                min_headroom: i64::MAX,
            })
            .collect();
        let mut critical_path = CriticalPath::default();
        let mut rounds = 0u64;
        let mut violations = 0usize;
        let mut pool: Option<PoolStats> = None;
        let mut recovery = RecoveryBreakdown::default();

        for event in &events {
            match event {
                TraceEvent::Round {
                    label,
                    makespan,
                    sent_words,
                    recv_words,
                    work,
                    seconds,
                    capacity,
                    ..
                } => {
                    rounds += 1;
                    let label = label.to_string();
                    if label.contains(".ckpt.") {
                        recovery.checkpoint_rounds += 1;
                        recovery.checkpoint_makespan += makespan;
                    } else if label.contains(".recover.") {
                        recovery.recovery_makespan += makespan;
                    }
                    critical_path.total_seconds += makespan;
                    critical_path.latency_seconds += cost.round_latency();
                    // The barrier waits on the slowest machine; the first
                    // maximum keeps ties on the lowest machine id, matching
                    // the cost model's fold-max bottleneck.
                    let mut bottleneck: Option<MachineId> = None;
                    for (mid, load) in machines.iter_mut().enumerate().take(sent_words.len()) {
                        let (sent, recv) = (sent_words[mid], recv_words[mid]);
                        load.sent_words += sent as u64;
                        load.recv_words += recv as u64;
                        load.work += work[mid];
                        load.seconds += seconds[mid];
                        let headroom = capacity[mid] as i64 - sent.max(recv) as i64;
                        load.min_headroom = load.min_headroom.min(headroom);
                        if bottleneck.is_none_or(|best| seconds[mid] > seconds[best]) {
                            bottleneck = Some(mid);
                        }
                    }
                    let mut busy = 0.0;
                    if let Some(mid) = bottleneck {
                        // The frame's seconds were taken at that round's
                        // rates; a slowdown scales speed and bandwidth
                        // alike, so the final rates still split them in
                        // the right ratio.
                        busy = seconds[mid];
                        let wire = (sent_words[mid] + recv_words[mid]) as f64 / cost.bandwidth(mid);
                        let cpu = work[mid] as f64 / cost.speed(mid);
                        let wire_share = if wire + cpu > 0.0 {
                            wire / (wire + cpu)
                        } else {
                            0.0
                        };
                        critical_path.wire_seconds += busy * wire_share;
                        critical_path.cpu_seconds += busy - busy * wire_share;
                        machines[mid].bottleneck_rounds += 1;
                    }
                    critical_path.delay_seconds += makespan - (cost.round_latency() + busy);
                }
                TraceEvent::Violation { .. } => violations += 1,
                TraceEvent::FaultInjected { .. } => recovery.faults_injected += 1,
                TraceEvent::MachineQuarantined { .. } => recovery.machines_quarantined += 1,
                TraceEvent::JobQuarantined { .. } => recovery.jobs_quarantined += 1,
                TraceEvent::JobRetried { .. } => recovery.jobs_retried += 1,
                TraceEvent::JobFailed { .. } => recovery.jobs_failed += 1,
                TraceEvent::RecoveryRound { replayed, .. } => {
                    recovery.recovery_rounds += 1;
                    recovery.replay_rounds += replayed;
                }
                TraceEvent::WorkerRound {
                    worker,
                    claimed,
                    stepped,
                    idle_skips,
                    wait_ns,
                    busy_ns,
                    ..
                } => {
                    let stats = pool.get_or_insert_with(PoolStats::default);
                    if stats.per_worker.len() <= *worker {
                        stats.per_worker.resize(worker + 1, WorkerStats::default());
                    }
                    let w = &mut stats.per_worker[*worker];
                    w.claimed += *claimed as u64;
                    w.stepped += *stepped as u64;
                    w.idle_skips += *idle_skips as u64;
                    w.wait_ns += *wait_ns;
                    w.busy_ns += *busy_ns;
                    if *worker == 0 {
                        stats.rounds += 1;
                    }
                }
                _ => {}
            }
        }

        for load in &mut machines {
            if load.min_headroom == i64::MAX {
                load.min_headroom = 0;
            }
        }
        let imbalance = {
            let total: f64 = machines.iter().map(|m| m.seconds).sum();
            if total <= 0.0 || machines.is_empty() {
                0.0
            } else {
                let mean = total / machines.len() as f64;
                machines.iter().map(|m| m.seconds).fold(0.0, f64::max) / mean
            }
        };

        RunReport {
            name: name.to_string(),
            rounds,
            machines,
            critical_path,
            imbalance,
            pool,
            violations,
            recovery,
            events,
        }
    }

    /// Machines sorted by their own busy seconds, descending — the
    /// straggler ranking (index 0 is the machine the run waits on most).
    pub fn straggler_ranking(&self) -> Vec<&MachineLoad> {
        let mut ranked: Vec<&MachineLoad> = self.machines.iter().collect();
        ranked.sort_by(|a, b| {
            b.seconds
                .partial_cmp(&a.seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.machine.cmp(&b.machine))
        });
        ranked
    }

    /// Renders the report as the human-readable table `mpc-trace` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let cp = &self.critical_path;
        let _ = writeln!(
            out,
            "== {} — {} rounds, simulated critical path {:.2}s ==",
            self.name, self.rounds, cp.total_seconds
        );
        let _ = writeln!(
            out,
            "critical path: {:.2}s wire + {:.2}s compute + {:.2}s latency{}",
            cp.wire_seconds,
            cp.cpu_seconds,
            cp.latency_seconds,
            if cp.delay_seconds != 0.0 {
                format!(" + {:.2}s delay", cp.delay_seconds)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "machine load imbalance: {:.2}x (busiest / mean){}",
            self.imbalance,
            if self.violations > 0 {
                format!("; {} capacity violations", self.violations)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "{:>7} {:>10} {:>10} {:>10} {:>9} {:>11} {:>9}",
            "machine", "sent", "recv", "work", "busy(s)", "bottleneck", "headroom"
        );
        for load in self.straggler_ranking() {
            let _ = writeln!(
                out,
                "{:>7} {:>10} {:>10} {:>10} {:>9.2} {:>10}r {:>9}",
                load.machine,
                load.sent_words,
                load.recv_words,
                load.work,
                load.seconds,
                load.bottleneck_rounds,
                load.min_headroom
            );
        }
        if !self.recovery.is_empty() {
            let r = &self.recovery;
            let _ = writeln!(
                out,
                "recovery: {} faults, {} quarantines, {} machines recovered ({} rounds replayed)",
                r.faults_injected, r.machines_quarantined, r.recovery_rounds, r.replay_rounds
            );
            let _ = writeln!(
                out,
                "  overhead: {} checkpoint rounds {:.2}s + recovery {:.2}s = {:.1}% of {:.2}s total",
                r.checkpoint_rounds,
                r.checkpoint_makespan,
                r.recovery_makespan,
                r.overhead_ratio(self.critical_path.total_seconds) * 100.0,
                self.critical_path.total_seconds
            );
            if r.jobs_quarantined + r.jobs_retried + r.jobs_failed > 0 {
                let _ = writeln!(
                    out,
                    "  service: {} jobs quarantined, {} retried, {} failed",
                    r.jobs_quarantined, r.jobs_retried, r.jobs_failed
                );
            }
        }
        if let Some(pool) = &self.pool {
            let _ = writeln!(
                out,
                "pool: {} workers, {:.1}ms barrier-wait, {:.1}ms busy, imbalance {:.2}x",
                pool.workers(),
                pool.total_wait_seconds() * 1e3,
                pool.total_busy_seconds() * 1e3,
                pool.imbalance()
            );
            for (w, s) in pool.per_worker.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  worker {w}: {} claimed, {} stepped, {} idle-skips, {:.1}ms wait, {:.1}ms busy",
                    s.claimed,
                    s.stepped,
                    s.idle_skips,
                    s.wait_ns as f64 / 1e6,
                    s.busy_ns as f64 / 1e6
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        // Machine 1 is a 4x straggler: speed/bandwidth 0.25.
        CostModel::uniform(3, 1.0, 1.0, 0.5).with_straggler(1, 0.25)
    }

    fn round_events(round: u64, traffic: [usize; 3]) -> Vec<TraceEvent> {
        let cost = cost();
        let seconds: Vec<f64> = (traffic.iter().enumerate())
            .map(|(machine, &sent)| cost.machine_round_seconds(machine, sent, 0, 0))
            .collect();
        vec![TraceEvent::Round {
            round,
            label: format!("t.r{round:03}").into(),
            messages: 3,
            makespan: cost.round_latency() + seconds.iter().copied().fold(0.0, f64::max),
            sent_words: traffic.to_vec(),
            recv_words: vec![0; 3],
            work: vec![0; 3],
            seconds,
            capacity: vec![100; 3],
        }]
    }

    #[test]
    fn report_attributes_bottlenecks_and_splits_the_critical_path() {
        let mut events = round_events(1, [10, 4, 2]); // m1: 4 words at bw 0.25 => 16s
        events.extend(round_events(2, [20, 1, 0])); // m0: 20s
        let report = RunReport::from_events("demo", events, &cost());

        assert_eq!(report.rounds, 2);
        assert_eq!(report.machines[1].bottleneck_rounds, 1);
        assert_eq!(report.machines[0].bottleneck_rounds, 1);
        assert_eq!(report.machines[2].bottleneck_rounds, 0);
        let cp = &report.critical_path;
        // Round 1: latency .5 + wire 16; round 2: latency .5 + wire 20.
        assert!((cp.total_seconds - 37.0).abs() < 1e-9, "{cp:?}");
        assert!((cp.latency_seconds - 1.0).abs() < 1e-9);
        assert!((cp.wire_seconds - 36.0).abs() < 1e-9);
        assert_eq!(cp.cpu_seconds, 0.0);
        assert!(
            (cp.latency_seconds + cp.wire_seconds + cp.cpu_seconds - cp.total_seconds).abs() < 1e-9,
            "components must sum to the total"
        );
        // Straggler ranking: machine 0 (30s) ahead of machine 1 (20s).
        let ranked = report.straggler_ranking();
        assert_eq!(ranked[0].machine, 0);
        assert_eq!(ranked[1].machine, 1);
        assert!(report.imbalance > 1.0);
        assert_eq!(report.machines[0].min_headroom, 100 - 20);
        // A tie goes to the lowest machine id: all three take 4s here.
        let tie = RunReport::from_events("tie", round_events(1, [4, 1, 4]), &cost());
        let counts: Vec<u64> = tie.machines.iter().map(|m| m.bottleneck_rounds).collect();
        assert_eq!(counts, [1, 0, 0]);
        let text = report.render();
        assert!(text.contains("critical path"));
        assert!(text.contains("imbalance"));
    }

    #[test]
    fn worker_round_events_reconstruct_pool_stats() {
        let mut events = round_events(1, [1, 1, 1]);
        for round in 0..2 {
            for worker in 0..2usize {
                events.push(TraceEvent::WorkerRound {
                    round,
                    worker,
                    claimed: 3,
                    stepped: 2,
                    idle_skips: 1,
                    wait_ns: 100,
                    busy_ns: (worker as u64 + 1) * 1000,
                });
            }
        }
        let report = RunReport::from_events("pooled", events, &cost());
        let pool = report
            .pool
            .as_ref()
            .expect("pool stats from WorkerRound events");
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.rounds, 2);
        assert_eq!(pool.per_worker[0].claimed, 6);
        assert_eq!(pool.per_worker[1].busy_ns, 4000);
        // busy: [2000, 4000] => mean 3000, max 4000.
        assert!((pool.imbalance() - 4000.0 / 3000.0).abs() < 1e-12);
        assert!(report.render().contains("pool: 2 workers"));
    }

    #[test]
    fn empty_event_streams_produce_a_quiet_report() {
        let report = RunReport::from_events("idle", Vec::new(), &cost());
        assert_eq!(report.rounds, 0);
        assert_eq!(report.imbalance, 0.0);
        assert!(report.pool.is_none());
        assert_eq!(report.machines.len(), 3);
        assert_eq!(report.machines[0].min_headroom, 0);
    }
}
