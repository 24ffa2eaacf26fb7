//! The persistent worker pool: one set of OS threads per run, not per
//! round.
//!
//! `std::thread::scope` costs a spawn + join of every worker on **every
//! round**; at hundreds of rounds that syscall traffic dominates the
//! engine's host wall-clock (the benchmark's `round-heavy` workload runs
//! 12 000 of them). The pool spawns its workers once per
//! [`Executor::run`](crate::Executor::run) and drives them through a
//! condvar round barrier instead.
//!
//! Work is claimed **dynamically**: workers pull machine indices off a
//! shared atomic counter one at a time, so a straggler machine (the large
//! machine deliberately carries the heaviest per-round workload in the
//! paper's heterogeneous regime) occupies one worker while the rest drain
//! every other machine — static chunking would serialize the straggler's
//! whole chunk behind it. Dynamic claiming is still deterministic: each
//! machine's step touches only that machine's own state, so *which* worker
//! runs it (and in what order) cannot influence any output; the driver
//! folds results back in machine-id order.
//!
//! A panic inside a job is caught ([`std::panic::catch_unwind`]), parked in
//! the pool, and re-raised on the driving thread by
//! [`run_round`](PoolCore::run_round) — a panicking
//! [`MachineProgram::step`](crate::MachineProgram::step) propagates to the
//! caller instead of deadlocking the barrier.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::Scope;
use std::time::Instant;

/// A panic payload carried off a worker thread.
pub type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One worker's counters for one round (or, accumulated, for a whole run
/// — see [`PoolStats`]). All times are host nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Machine indices claimed off the shared counter.
    pub claimed: u64,
    /// Claimed machines that were active and invoked the job.
    pub stepped: u64,
    /// Claimed machines skipped because their activity flag was off.
    pub idle_skips: u64,
    /// Nanoseconds blocked at the round-start barrier.
    pub wait_ns: u64,
    /// Nanoseconds in the claim loop (stepping + skipping).
    pub busy_ns: u64,
}

/// Per-worker accounting accumulated over a whole pooled run — the
/// evidence base for the load-imbalance and barrier-wait columns in the
/// bench tables and [`RunReport`](crate::report::RunReport).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Pool rounds executed.
    pub rounds: u64,
    /// Run totals per worker, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
}

impl PoolStats {
    /// Folds one round's drained per-worker counters into the run totals.
    pub fn add_round(&mut self, round: &[WorkerStats]) {
        if self.per_worker.len() < round.len() {
            self.per_worker.resize(round.len(), WorkerStats::default());
        }
        for (total, r) in self.per_worker.iter_mut().zip(round) {
            total.claimed += r.claimed;
            total.stepped += r.stepped;
            total.idle_skips += r.idle_skips;
            total.wait_ns += r.wait_ns;
            total.busy_ns += r.busy_ns;
        }
        self.rounds += 1;
    }

    /// Number of workers the stats cover.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Total barrier-wait across all workers, in seconds.
    pub fn total_wait_seconds(&self) -> f64 {
        self.per_worker.iter().map(|w| w.wait_ns).sum::<u64>() as f64 / 1e9
    }

    /// Total claim-loop time across all workers, in seconds.
    pub fn total_busy_seconds(&self) -> f64 {
        self.per_worker.iter().map(|w| w.busy_ns).sum::<u64>() as f64 / 1e9
    }

    /// Load-imbalance ratio: the busiest worker's claim-loop time divided
    /// by the mean (1.0 = perfectly balanced; 0.0 when no work ran).
    pub fn imbalance(&self) -> f64 {
        if self.per_worker.is_empty() {
            return 0.0;
        }
        let busy: Vec<u64> = self.per_worker.iter().map(|w| w.busy_ns).collect();
        let total: u64 = busy.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / busy.len() as f64;
        *busy.iter().max().unwrap() as f64 / mean
    }
}

/// A worker's live counter cells (relaxed atomics: the coord-lock barrier
/// handshake orders every worker write before the driving thread's
/// post-round drain).
#[derive(Default)]
struct WorkerCells {
    claimed: AtomicU64,
    stepped: AtomicU64,
    idle_skips: AtomicU64,
    wait_ns: AtomicU64,
    busy_ns: AtomicU64,
}

impl WorkerCells {
    fn drain(&self) -> WorkerStats {
        WorkerStats {
            claimed: self.claimed.swap(0, Ordering::Relaxed),
            stepped: self.stepped.swap(0, Ordering::Relaxed),
            idle_skips: self.idle_skips.swap(0, Ordering::Relaxed),
            wait_ns: self.wait_ns.swap(0, Ordering::Relaxed),
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
        }
    }
}

/// Round-barrier state shared by the driving thread and the workers.
struct Coord {
    /// Bumped by the driving thread to release the workers into a round.
    epoch: u64,
    /// The round number workers pass to the job for the current epoch.
    round: u64,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    /// Set once; workers exit at the next barrier.
    shutdown: bool,
}

/// The shared core of a worker pool (created once per run; workers borrow
/// it for the enclosing [`std::thread::scope`]).
pub struct PoolCore {
    items: usize,
    workers: usize,
    /// Next unclaimed machine index of the current round.
    next: AtomicUsize,
    /// Per-item activity mask: the driving thread clears entries for idle
    /// items (halted machines with empty inboxes, e.g. every machine of a
    /// retired instance) before releasing a round, and workers
    /// skip them without invoking the job — an idle item costs one relaxed
    /// atomic load instead of a mutex claim cycle.
    active: Vec<AtomicBool>,
    coord: Mutex<Coord>,
    /// Wakes workers at a round start (and for shutdown).
    start: Condvar,
    /// Wakes the driving thread when the last worker finishes a round.
    done: Condvar,
    /// First panic caught in a job this round, if any.
    panic: Mutex<Option<PanicPayload>>,
    /// Per-worker counters, present only when telemetry asked for them —
    /// `None` keeps the claim loop free of clock reads and counter bumps.
    stats: Option<Vec<WorkerCells>>,
}

impl PoolCore {
    /// A pool that distributes `items` jobs per round over `workers`
    /// threads (callers clamp `workers` to a sensible range first).
    pub fn new(items: usize, workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        PoolCore {
            items,
            workers,
            next: AtomicUsize::new(0),
            active: (0..items).map(|_| AtomicBool::new(true)).collect(),
            coord: Mutex::new(Coord {
                epoch: 0,
                round: 0,
                remaining: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            panic: Mutex::new(None),
            stats: None,
        }
    }

    /// Enables per-worker counters (claims, steps, idle skips, barrier-wait
    /// and claim-loop time). Off by default: the instrumented claim loop
    /// reads the clock twice per round per worker, which the zero-overhead
    /// guarantee only permits when someone is listening.
    pub fn with_stats(mut self, enabled: bool) -> Self {
        self.stats = enabled.then(|| (0..self.workers).map(|_| WorkerCells::default()).collect());
        self
    }

    /// Drains the per-worker counters accumulated since the previous drain
    /// (typically: this round's). Returns one entry per worker, or an empty
    /// vector if the pool was built without stats. Call between rounds, on
    /// the driving thread — the barrier handshake makes every worker write
    /// visible by the time [`run_round`](PoolCore::run_round) returns.
    pub fn take_round_stats(&self) -> Vec<WorkerStats> {
        match &self.stats {
            Some(cells) => cells.iter().map(WorkerCells::drain).collect(),
            None => Vec::new(),
        }
    }

    /// Number of worker threads the pool was sized for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Marks item `i` active or idle for the next round. Must only be
    /// called between rounds (by the driving thread, before
    /// [`run_round`](PoolCore::run_round)); workers observe the flags via
    /// the same epoch handshake that publishes the round number.
    pub fn set_active(&self, i: usize, on: bool) {
        self.active[i].store(on, Ordering::Relaxed);
    }

    /// Spawns the worker threads into `scope`. `job(index, round)` steps
    /// one machine; it must be safe to call concurrently for distinct
    /// indices (each worker claims disjoint indices).
    pub fn spawn_workers<'scope, 'env, F>(
        &'scope self,
        scope: &'scope Scope<'scope, 'env>,
        job: &'scope F,
    ) where
        F: Fn(usize, u64) + Sync,
    {
        for w in 0..self.workers {
            scope.spawn(move || self.worker(w, job));
        }
    }

    fn worker<F: Fn(usize, u64) + Sync>(&self, w: usize, job: &F) {
        let mut seen_epoch = 0u64;
        loop {
            // Clock reads happen only on the instrumented pool; the
            // uninstrumented claim loop is identical to the original.
            let wait_start = self.stats.as_ref().map(|_| Instant::now());
            let round = {
                let mut c = self.coord.lock().unwrap();
                while !c.shutdown && c.epoch == seen_epoch {
                    c = self.start.wait(c).unwrap();
                }
                if c.shutdown {
                    return;
                }
                seen_epoch = c.epoch;
                c.round
            };
            let cells = self.stats.as_ref().map(|cells| {
                let cell = &cells[w];
                if let Some(t0) = wait_start {
                    cell.wait_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                (cell, Instant::now())
            });
            // Dynamic claiming: one machine at a time off the shared
            // counter, so no worker ever queues behind a straggler.
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.items {
                    break;
                }
                if let Some((cell, _)) = &cells {
                    cell.claimed.fetch_add(1, Ordering::Relaxed);
                }
                if !self.active[i].load(Ordering::Relaxed) {
                    if let Some((cell, _)) = &cells {
                        cell.idle_skips.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                if let Some((cell, _)) = &cells {
                    cell.stepped.fetch_add(1, Ordering::Relaxed);
                }
                // Catching inside the claim loop keeps the barrier sound:
                // the worker still reports completion, and the driving
                // thread re-raises the payload after the round.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i, round))) {
                    let mut slot = self.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            if let Some((cell, busy_start)) = &cells {
                cell.busy_ns
                    .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            let mut c = self.coord.lock().unwrap();
            c.remaining -= 1;
            if c.remaining == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Runs one round: releases the workers, waits for all of them, and
    /// re-raises the first panic any job hit.
    ///
    /// # Errors
    ///
    /// Returns the caught panic payload; the caller is expected to
    /// [`std::panic::resume_unwind`] it after shutting the pool down.
    pub fn run_round(&self, round: u64) -> Result<(), PanicPayload> {
        // The claim counter reset happens-before any worker claims: workers
        // only start after observing the epoch bump under the coord lock.
        self.next.store(0, Ordering::Relaxed);
        {
            let mut c = self.coord.lock().unwrap();
            c.epoch += 1;
            c.round = round;
            c.remaining = self.workers;
            self.start.notify_all();
        }
        let mut c = self.coord.lock().unwrap();
        while c.remaining != 0 {
            c = self.done.wait(c).unwrap();
        }
        drop(c);
        match self.panic.lock().unwrap().take() {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }

    /// Tells the workers to exit at the next barrier. Must be called before
    /// the enclosing scope ends on **every** path, or the scope's implicit
    /// join blocks forever.
    pub fn shutdown(&self) {
        let mut c = self.coord.lock().unwrap();
        c.shutdown = true;
        self.start.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_every_item_exactly_once_per_round() {
        let hits: Vec<AtomicU64> = (0..23).map(|_| AtomicU64::new(0)).collect();
        let pool = PoolCore::new(hits.len(), 4);
        let job = |i: usize, _round: u64| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        std::thread::scope(|scope| {
            pool.spawn_workers(scope, &job);
            for round in 0..5 {
                pool.run_round(round).unwrap();
            }
            pool.shutdown();
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 5, "item {i}");
        }
    }

    #[test]
    fn idle_items_are_skipped_without_invoking_the_job() {
        let hits: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        let pool = PoolCore::new(hits.len(), 3);
        let job = |i: usize, _round: u64| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        std::thread::scope(|scope| {
            pool.spawn_workers(scope, &job);
            pool.run_round(0).unwrap();
            for idle in [2usize, 7] {
                pool.set_active(idle, false);
            }
            pool.run_round(1).unwrap();
            pool.set_active(2, true);
            pool.run_round(2).unwrap();
            pool.shutdown();
        });
        for (i, h) in hits.iter().enumerate() {
            let want = match i {
                2 => 2,
                7 => 1,
                _ => 3,
            };
            assert_eq!(h.load(Ordering::Relaxed), want, "item {i}");
        }
    }

    #[test]
    fn instrumented_pool_counts_claims_steps_and_skips() {
        let pool = PoolCore::new(10, 3).with_stats(true);
        let job = |_i: usize, _round: u64| {};
        let mut totals = PoolStats::default();
        std::thread::scope(|scope| {
            pool.spawn_workers(scope, &job);
            pool.run_round(0).unwrap();
            totals.add_round(&pool.take_round_stats());
            for idle in [2usize, 7] {
                pool.set_active(idle, false);
            }
            pool.run_round(1).unwrap();
            totals.add_round(&pool.take_round_stats());
            pool.shutdown();
        });
        assert_eq!(totals.rounds, 2);
        assert_eq!(totals.workers(), 3);
        let claimed: u64 = totals.per_worker.iter().map(|w| w.claimed).sum();
        let stepped: u64 = totals.per_worker.iter().map(|w| w.stepped).sum();
        let skips: u64 = totals.per_worker.iter().map(|w| w.idle_skips).sum();
        assert_eq!(claimed, 20, "10 items claimed per round");
        assert_eq!(stepped, 18, "2 items idle in round 1");
        assert_eq!(skips, 2);
    }

    #[test]
    fn uninstrumented_pool_reports_no_stats() {
        let pool = PoolCore::new(4, 2);
        let job = |_i: usize, _round: u64| {};
        std::thread::scope(|scope| {
            pool.spawn_workers(scope, &job);
            pool.run_round(0).unwrap();
            assert!(pool.take_round_stats().is_empty());
            pool.shutdown();
        });
    }

    #[test]
    fn pool_stats_imbalance_is_max_over_mean() {
        let mut stats = PoolStats::default();
        stats.add_round(&[
            WorkerStats {
                busy_ns: 300,
                ..Default::default()
            },
            WorkerStats {
                busy_ns: 100,
                ..Default::default()
            },
        ]);
        // mean = 200, max = 300 => 1.5
        assert!((stats.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(PoolStats::default().imbalance(), 0.0);
    }

    #[test]
    fn pool_reports_a_job_panic_instead_of_deadlocking() {
        let pool = PoolCore::new(8, 3);
        let job = |i: usize, _round: u64| {
            if i == 5 {
                panic!("job 5 exploded");
            }
        };
        std::thread::scope(|scope| {
            pool.spawn_workers(scope, &job);
            let err = pool.run_round(0).unwrap_err();
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("exploded"), "unexpected payload: {msg}");
            // The pool survives the panic: the next round still runs.
            pool.run_round(1).unwrap_err(); // item 5 panics every round
            pool.shutdown();
        });
    }
}
