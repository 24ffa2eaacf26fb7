//! Mixed-program waves: different algorithms, and many instances of one,
//! in one run.
//!
//! The service layer (DESIGN.md §2.8) has a spanner, a matching, and a min
//! cut share one bulk-synchronous run, admitted and retired independently;
//! the paper's parallel compositions (the Theorem C.2 thresholds, the C.4
//! λ̂ guesses, the weight classes of Theorem 4.1) run many independent
//! instances of one program side by side (DESIGN.md §2.5). [`MixedWave`] is
//! the one scheduler for both. A *job* owns one *lane* per instance on every
//! machine — the instance's program behind an [`ErasedProgram`] box, with
//! its typed inbox — and the job's lanes share its private RNG stream and
//! its round origin. Every message crosses the wire as a [`MixedMsg`]: a
//! lane tag around a [`LaneMsg`], the closed enum of the message types
//! registry lanes speak. Tags are free (scheduler bookkeeping, like the
//! `(src, dst)` routing words the paper's model never charges); a wire
//! message reports its payload's true word size, so capacity accounting is
//! exactly the sum of the lanes' solo traffic.
//!
//! No message is boxed on the way: demux unwraps each one straight into
//! its lane's typed inbox, and a lane's outbox is tagged straight into the
//! wave's. The set is closed because lanes come only from the registry
//! table, so the compiler, not a run-time downcast, checks every type.
//!
//! An instance may retire the job's later instances on its machine
//! ([`MachineCtx::retire_later_instances`]): they halt for good before
//! they step again and mail addressed to them is dropped, so they move
//! zero words from then on — the cross-instance early exit of `mincut-approx`.
//!
//! Determinism: jobs step in admission order and a job's lanes in instance
//! order, each against the job's RNG stream (minted via
//! [`mpc_runtime::machine_rng`] from the job's seed, or a solo run's own
//! cluster streams), the job's program-local round clock
//! (`ctx.round - base_round`), and the *solo* capacity snapshotted before
//! any combined-round scaling. The inbox arrives in canonical order
//! (ascending source, then send order) and demux keeps that order per lane,
//! so a job's execution inside a mixed wave is bit-identical to the same
//! job run alone, and its instances consume each machine's stream
//! instance-major — the order of the sequential composition.

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use crate::programs::{
    ColorNetMsg, ConnMsg, MatchNetMsg, MinCutNetMsg, MisNetMsg, MstMsg, MstNetMsg, SpannerNetMsg,
    XCutNetMsg,
};
use mpc_runtime::telemetry::TraceEvent;
use mpc_runtime::{Cluster, MachineId, Payload};
use rand::rngs::SmallRng;
use std::any::Any;
use std::ops::Range;

// ---------------------------------------------------------------------------
// The wire
// ---------------------------------------------------------------------------

/// A message type a [`MixedWave`] lane can speak: one variant of
/// [`LaneMsg`]. A registry name whose programs send any other type does
/// not compile.
pub trait LaneCodec: Payload + Send + Sized + 'static {
    /// The message as its wire variant.
    fn wrap(self) -> LaneMsg;

    /// The message back out of its wire variant, panicking on another
    /// variant (mail for a lane of another program type is a scheduler
    /// bug, not a recoverable condition).
    fn unwrap(msg: LaneMsg) -> Self;
}

/// How a variant holds its message: inline, or boxed for the rare large
/// ones, so the enum is no wider than the common messages.
trait Stored<M>: From<M> {
    fn into_inner(self) -> M;
}

impl<M> Stored<M> for M {
    fn into_inner(self) -> M {
        self
    }
}

impl<M> Stored<M> for Box<M> {
    fn into_inner(self) -> M {
        *self
    }
}

/// Generates [`LaneMsg`], its word count and the [`LaneCodec`] of every
/// message type it lists.
macro_rules! lane_messages {
    ($($(#[$attr:meta])* $variant:ident($msg:ty) in $stored:ty),+ $(,)?) => {
        /// The closed set of messages registry lanes exchange.
        #[derive(Clone)]
        pub enum LaneMsg {
            $($(#[$attr])* #[doc = concat!("A [`", stringify!($msg), "`].")] $variant($stored),)+
        }

        impl Payload for LaneMsg {
            fn words(&self) -> usize {
                match self {
                    $($(#[$attr])* LaneMsg::$variant(m) => m.words(),)+
                }
            }
        }

        $($(#[$attr])* impl LaneCodec for $msg {
            fn wrap(self) -> LaneMsg {
                LaneMsg::$variant(self.into())
            }
            fn unwrap(msg: LaneMsg) -> Self {
                match msg {
                    LaneMsg::$variant(m) => m.into_inner(),
                    _ => panic!("mixed-wave message arrived at a lane of a different program type"),
                }
            }
        })+
    };
}

lane_messages! {
    Conn(ConnMsg) in Box<ConnMsg>,
    Mst(MstMsg) in MstMsg,
    MstNet(MstNetMsg) in MstNetMsg,
    Match(MatchNetMsg) in MatchNetMsg,
    Spanner(SpannerNetMsg) in SpannerNetMsg,
    XCut(XCutNetMsg) in XCutNetMsg,
    MinCut(MinCutNetMsg) in MinCutNetMsg,
    Mis(MisNetMsg) in MisNetMsg,
    Color(ColorNetMsg) in ColorNetMsg,
    #[cfg(test)]
    Test(u64) in u64,
}

/// One wave message: the addressed lane's tag around the payload. The tag
/// is free.
#[derive(Clone)]
pub struct MixedMsg {
    /// `lane << 32 | words`: the lane id beside the payload's words, read
    /// once at tagging — the driver asks three times per message.
    tag: u64,
    msg: LaneMsg,
}

const _: () = assert!(size_of::<MixedMsg>() <= 56);

impl MixedMsg {
    fn new(lane: u64, msg: impl LaneCodec) -> Self {
        let words = u32::try_from(msg.words()).expect("a lane message fits 2³² words");
        MixedMsg {
            tag: lane << 32 | u64::from(words),
            msg: msg.wrap(),
        }
    }

    /// The lane this message is addressed to.
    pub fn lane(&self) -> u64 {
        self.tag >> 32
    }
}

impl Payload for MixedMsg {
    fn words(&self) -> usize {
        (self.tag & u64::from(u32::MAX)) as usize
    }
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// Object-safe view of a lane's program: take mail, step into the wave's
/// outbox, snapshot behind a box, and downcast back out for result
/// extraction. [`erase`] is the only way to make one.
pub trait ErasedProgram: Send {
    /// Demux: unwraps the next `count` messages of `mail` into the lane's
    /// typed inbox.
    fn deliver(&mut self, mail: &mut std::vec::IntoIter<(MachineId, MixedMsg)>, count: usize);

    /// [`MachineProgram::step`] on the typed inbox, its outbox tagged with
    /// `lane` and appended to `out`; returns whether the program halted.
    fn step_into(
        &mut self,
        ctx: &MachineCtx<'_>,
        lane: u64,
        out: &mut Vec<(MachineId, MixedMsg)>,
    ) -> bool;

    /// [`MachineProgram::snapshot`] behind a box (`None` opts the lane —
    /// and with it the whole wave — out of checkpointing).
    fn snapshot_erased(&self) -> Option<Box<dyn ErasedProgram>>;

    /// [`MachineProgram::state_words`].
    fn state_words_erased(&self) -> usize;

    /// Downcast support for result extraction.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// A program with its typed inbox — the one [`ErasedProgram`].
struct Typed<P: MachineProgram> {
    program: P,
    inbox: Vec<(MachineId, P::Message)>,
}

impl<P> ErasedProgram for Typed<P>
where
    P: MachineProgram + 'static,
    P::Message: LaneCodec,
{
    fn deliver(&mut self, mail: &mut std::vec::IntoIter<(MachineId, MixedMsg)>, count: usize) {
        let run = mail.by_ref().take(count);
        self.inbox
            .extend(run.map(|(src, m)| (src, P::Message::unwrap(m.msg))));
    }

    fn step_into(
        &mut self,
        ctx: &MachineCtx<'_>,
        lane: u64,
        out: &mut Vec<(MachineId, MixedMsg)>,
    ) -> bool {
        match self.program.step(ctx, std::mem::take(&mut self.inbox)) {
            StepOutcome::Halt => true,
            StepOutcome::Send(msgs) => {
                out.extend(msgs.into_iter().map(|(d, m)| (d, MixedMsg::new(lane, m))));
                false
            }
        }
    }

    /// The inbox is demux scratch, empty between steps (a retired lane's
    /// last mail is dropped here).
    fn snapshot_erased(&self) -> Option<Box<dyn ErasedProgram>> {
        Some(erase(self.program.snapshot()?))
    }

    fn state_words_erased(&self) -> usize {
        self.program.state_words()
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Boxes a concrete program, with an empty inbox, for admission into a
/// [`MixedWave`].
pub fn erase<P>(program: P) -> Box<dyn ErasedProgram>
where
    P: MachineProgram + 'static,
    P::Message: LaneCodec,
{
    Box::new(Typed {
        program,
        inbox: Vec::new(),
    })
}

/// Recovers the concrete program from an extracted lane, panicking on a
/// type mismatch (the extractor and builder are paired per job, so a
/// mismatch is a scheduler bug).
pub fn downcast_program<P: MachineProgram + 'static>(boxed: Box<dyn ErasedProgram>) -> P {
    boxed
        .into_any()
        .downcast::<Typed<P>>()
        .expect("mixed-wave lane held a different program type than its extractor expects")
        .program
}

// ---------------------------------------------------------------------------
// The wave
// ---------------------------------------------------------------------------

/// Regroups instance-major programs (`instances[i][mid]`) by machine: item
/// `mid` holds every instance's program on machine `mid`, in instance
/// order — the lanes [`MixedWave::admit`] installs there.
pub(crate) fn by_machine<T>(instances: Vec<Vec<T>>) -> impl Iterator<Item = Vec<T>> {
    let machines = instances.first().map_or(0, Vec::len);
    let mut columns: Vec<_> = instances.into_iter().map(Vec::into_iter).collect();
    (0..machines).map(move |_| {
        (columns.iter_mut())
            .map(|column| column.next().expect("one program per machine"))
            .collect()
    })
}

/// One instance's lane on one machine: its program, its halt vote, and
/// whether an earlier instance retired it.
struct Lane {
    program: Box<dyn ErasedProgram>,
    halted: bool,
    retired: bool,
}

/// One job on one machine: a lane per instance, sharing the job's RNG
/// stream and program-local round origin.
struct Job {
    /// Instance `i` is lane `lanes.start + i`.
    lanes: Range<u64>,
    instances: Vec<Lane>,
    rng: SmallRng,
    base_round: u64,
}

impl Job {
    fn idle(&self) -> bool {
        self.instances.iter().all(|l| l.halted)
    }

    /// Steps every awake lane in instance order, appending their outboxes
    /// to `out`. A lane that asks for it retires every later lane before
    /// they step. A multi-instance job reports each round a lane of it
    /// steps as a [`TraceEvent::MuxRound`]. Lanes see the job's own clock;
    /// the events carry the driver round.
    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        capacity: usize,
        out: &mut Vec<(MachineId, MixedMsg)>,
    ) {
        let round = ctx.round - self.base_round;
        let mut live = 0;
        for i in 0..self.instances.len() {
            let lane = &mut self.instances[i];
            if lane.halted {
                continue;
            }
            live += 1;
            let sub = MachineCtx::new(
                ctx.mid,
                ctx.machines,
                ctx.large,
                capacity,
                round,
                &mut self.rng,
                ctx.sink(),
            );
            lane.halted = lane
                .program
                .step_into(&sub, self.lanes.start + i as u64, out);
            ctx.charge(sub.charged());
            if sub.retires_later() {
                for (later, lane) in self.instances.iter_mut().enumerate().skip(i + 1) {
                    if !lane.retired {
                        (lane.retired, lane.halted) = (true, true);
                        ctx.trace(|| TraceEvent::InstanceRetired {
                            round: ctx.round,
                            machine: ctx.mid,
                            instance: later as u32,
                        });
                    }
                }
            }
        }
        if self.instances.len() > 1 && live > 0 {
            ctx.trace(|| TraceEvent::MuxRound {
                round: ctx.round,
                machine: ctx.mid,
                live,
                retired: self.instances.iter().filter(|l| l.retired).count(),
            });
        }
    }
}

/// The per-machine scheduler: any number of jobs, each any number of
/// instances of one algorithm, stepped in admission order within one
/// engine round. An empty wave halts immediately; the service hook wakes
/// the machine when it admits a job.
pub struct MixedWave {
    jobs: Vec<Job>,
    /// This machine's capacity with no combined-round scaling applied —
    /// what each lane's program sees, exactly as in a solo run.
    solo_capacity: usize,
}

impl MixedWave {
    /// One empty wave per machine, snapshotting solo capacities. Call with
    /// the capacity factor at 1 (asserted), before any per-job scaling.
    pub fn for_cluster(cluster: &Cluster) -> Vec<MixedWave> {
        assert_eq!(
            cluster.capacity_factor(),
            1,
            "mixed waves must snapshot solo capacities (reset the factor first)"
        );
        (0..cluster.machines())
            .map(|mid| MixedWave {
                jobs: Vec::new(),
                solo_capacity: cluster.capacity(mid),
            })
            .collect()
    }

    /// Installs a job's lanes on this machine: `programs[i]` is instance
    /// `i`, addressed as lane `lanes.start + i`. `base_round` becomes the
    /// job's round-0 origin; `rng` is the job's stream for this machine.
    ///
    /// # Panics
    ///
    /// Panics unless there is one program per lane id and the ids fit a
    /// 32-bit wire tag.
    pub fn admit(
        &mut self,
        lanes: Range<u64>,
        programs: Vec<Box<dyn ErasedProgram>>,
        rng: SmallRng,
        base_round: u64,
    ) {
        assert!(
            lanes.end <= 1 << 32,
            "lanes {lanes:?} do not fit a wire tag"
        );
        assert_eq!(
            programs.len() as u64,
            lanes.end - lanes.start,
            "one program per lane"
        );
        debug_assert!(
            (self.jobs.iter()).all(|j| j.lanes.end <= lanes.start || lanes.end <= j.lanes.start),
            "lanes {lanes:?} admitted twice on one machine"
        );
        let instances = (programs.into_iter())
            .map(|program| Lane {
                program,
                halted: false,
                retired: false,
            })
            .collect();
        self.jobs.push(Job {
            lanes,
            instances,
            rng,
            base_round,
        });
    }

    /// Whether every lane of the job whose lanes start at `first` has
    /// voted to halt (vacuously true if the job was never admitted or
    /// already removed). Completion additionally requires no in-flight
    /// mail for its lanes — the service checks the slot inbox for that.
    pub fn idle(&self, first: u64) -> bool {
        (self.jobs.iter())
            .find(|j| j.lanes.start == first)
            .is_none_or(Job::idle)
    }

    /// Removes the job whose lanes start at `first`, returning its
    /// programs in instance order for extraction and its RNG stream, which
    /// the job's next chained wave carries on. Quarantine drops both, and
    /// must also purge mail for the job's lanes from the machine's pending
    /// inbox ([`WaveRound::with_mail`](crate::WaveRound::with_mail)), or
    /// the next [`step`](MachineProgram::step) would panic on mail
    /// addressed to a lane that no longer exists.
    pub fn remove(&mut self, first: u64) -> Option<(Vec<Box<dyn ErasedProgram>>, SmallRng)> {
        let at = self.jobs.iter().position(|j| j.lanes.start == first)?;
        let job = self.jobs.remove(at);
        Some((
            job.instances.into_iter().map(|l| l.program).collect(),
            job.rng,
        ))
    }
}

impl MachineProgram for MixedWave {
    type Message = MixedMsg;

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MixedMsg)>,
    ) -> StepOutcome<MixedMsg> {
        // Demux by lane tag; mail wakes its lane, or is dropped if the lane
        // is retired. A source sends a lane's messages back to back, so
        // each run of one lane's messages costs one lookup. A message for a
        // lane this machine does not hold means the service removed a job
        // with mail still in flight — a scheduler bug worth failing loudly
        // on.
        let mut mail = inbox.into_iter();
        while let Some(lane) = mail.as_slice().first().map(|(_, m)| m.lane()) {
            let run = (mail.as_slice().iter())
                .take_while(|(_, m)| m.lane() == lane)
                .count();
            let job =
                (self.jobs.iter_mut().find(|j| j.lanes.contains(&lane))).unwrap_or_else(|| {
                    panic!("message for lane {lane} with no job on machine {}", ctx.mid)
                });
            let lane = &mut job.instances[(lane - job.lanes.start) as usize];
            if lane.retired {
                mail.by_ref().take(run).for_each(drop);
            } else {
                lane.halted = false;
                lane.program.deliver(&mut mail, run);
            }
        }

        let mut out = Vec::new();
        for job in &mut self.jobs {
            job.step(ctx, self.solo_capacity, &mut out);
        }

        if out.is_empty() && self.jobs.iter().all(Job::idle) {
            StepOutcome::Halt
        } else {
            StepOutcome::Send(out)
        }
    }

    fn snapshot(&self) -> Option<Self> {
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let mut instances = Vec::with_capacity(job.instances.len());
            for lane in &job.instances {
                instances.push(Lane {
                    program: lane.program.snapshot_erased()?,
                    halted: lane.halted,
                    retired: lane.retired,
                });
            }
            jobs.push(Job {
                lanes: job.lanes.clone(),
                instances,
                rng: job.rng.clone(),
                base_round: job.base_round,
            });
        }
        Some(MixedWave {
            jobs,
            solo_capacity: self.solo_capacity,
        })
    }

    fn state_words(&self) -> usize {
        (self.jobs.iter())
            .flat_map(|j| &j.instances)
            .map(|l| l.program.state_words_erased())
            .sum::<usize>()
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Executor;
    use crate::registry::run_instances;
    use mpc_graph::Edge;
    use mpc_runtime::{ClusterConfig, RingSink, Topology};
    use mpc_sketch::{OneSparse, PartialBatch};
    use std::sync::Arc;

    /// Tags `msg`, then checks the tag, the words and the round trip (the
    /// message types have no `PartialEq`; their `Debug` forms do).
    fn round_trip<M: LaneCodec + std::fmt::Debug>(msg: M) {
        let wire = MixedMsg::new(9, msg.clone());
        assert_eq!((wire.lane(), wire.words()), (9, msg.words()), "{msg:?}");
        assert_eq!(format!("{:?}", M::unwrap(wire.msg)), format!("{msg:?}"));
    }

    #[test]
    fn every_variant_round_trips_with_its_words() {
        let e = Edge::new(1, 2, 5);
        let (mut a, mut b) = (OneSparse::new(), OneSparse::new());
        a.update_term(5, 1, 25);
        b.update_term(6, -1, 36);
        // A row with a value per cell, a one-value row, a cancelled key.
        let mut batch = PartialBatch::default();
        batch.push(3, [(0, a), (7, b)]);
        batch.push_one_value(5, &[1, 4, 8], a);
        batch.push(8, []);
        assert_eq!(batch.words(), 3 + 4 * 5);
        round_trip(ConnMsg::Partial(batch));
        round_trip(MstMsg::Rename(1, 2));
        round_trip(MstNetMsg::SampleCounts(vec![1, 2, 3]));
        round_trip(MatchNetMsg::MinAns(1, 2, e));
        round_trip(SpannerNetMsg::CandPartial(3, vec![4, 5]));
        round_trip(SpannerNetMsg::HistAns(6, vec![7, 8, 9]));
        round_trip(ConnMsg::Partial(PartialBatch::default()));
        round_trip(ConnMsg::Seed(4));
        round_trip(XCutNetMsg::Skel(e, 2));
        round_trip(MinCutNetMsg::TwoOutUp(1, 2, e));
        round_trip(MisNetMsg::FinalEdge(e));
        round_trip(ColorNetMsg::Conflict(e));
    }

    #[test]
    #[should_panic(expected = "lane of a different program type")]
    fn mail_of_another_variant_panics() {
        MisNetMsg::unwrap(MstMsg::Rename(1, 2).wrap());
    }

    /// A two-machine ping-pong: machine 0 sends `budget` tokens to machine
    /// 1, one per round; machine 1 echoes each. Tracks everything received.
    /// Machine 0 retires the job's later instances at `retire_at`.
    struct PingPong {
        budget: u64,
        received: u64,
        retire_at: Option<u64>,
    }

    impl PingPong {
        fn pair(budget: u64) -> Vec<PingPong> {
            (0..2)
                .map(|_| PingPong {
                    budget,
                    received: 0,
                    retire_at: None,
                })
                .collect()
        }
    }

    impl MachineProgram for PingPong {
        type Message = u64;

        fn step(&mut self, ctx: &MachineCtx<'_>, inbox: Vec<(MachineId, u64)>) -> StepOutcome<u64> {
            self.received += inbox.iter().map(|(_, m)| m).sum::<u64>();
            if ctx.mid == 0 {
                if self.retire_at == Some(ctx.round) {
                    ctx.retire_later_instances();
                }
                if ctx.round < self.budget {
                    return StepOutcome::Send(vec![(1, ctx.round + 1)]);
                }
                return StepOutcome::Halt;
            }
            if inbox.is_empty() {
                return StepOutcome::Halt;
            }
            StepOutcome::Send(inbox.into_iter().map(|(src, m)| (src, m * 10)).collect())
        }
    }

    fn two_machine_cluster() -> Cluster {
        Cluster::new(ClusterConfig::new(16, 16).topology(Topology::Custom {
            capacities: vec![1000, 1000],
            large: Some(0),
        }))
    }

    /// Runs the instances as one job and returns every machine's
    /// instances, machine-major.
    fn run_job(cluster: &mut Cluster, instances: Vec<Vec<PingPong>>) -> Vec<Vec<PingPong>> {
        run_instances(&Executor::serial("mux"), cluster, instances).unwrap()
    }

    #[test]
    fn instances_of_one_job_match_their_solo_runs() {
        // Three instances with different budgets, interleaved.
        let budgets = [1u64, 3, 2];
        let solo: Vec<(u64, u64)> = budgets
            .iter()
            .map(|&b| {
                let out = Executor::serial("solo")
                    .run(&mut two_machine_cluster(), PingPong::pair(b))
                    .unwrap();
                (out.programs[0].received, out.programs[1].received)
            })
            .collect();

        let mut cluster = two_machine_cluster();
        let out = run_job(&mut cluster, budgets.map(PingPong::pair).into());

        // The combined run takes max(solo rounds) — budget b finishes in
        // b + 1 rounds (last echo lands at round b + 1) — not the sum.
        assert_eq!(
            cluster.rounds(),
            3 + 1,
            "combined rounds = slowest instance"
        );
        for (i, &(s0, s1)) in solo.iter().enumerate() {
            assert_eq!(out[0][i].received, s0, "instance {i} on machine 0");
            assert_eq!(out[1][i].received, s1, "instance {i} on machine 1");
        }
    }

    #[test]
    fn retired_instances_move_zero_words_in_later_rounds() {
        // Two instances; instance 0 on machine 0 retires instance 1 at
        // round 1, before it steps — so rounds ≥ 2 carry only instance 0's
        // traffic, instance 1's peer is never reactivated, and its echo of
        // the round-0 token reaches a retired lane and is dropped.
        let mut cluster = two_machine_cluster();
        let ring = Arc::new(RingSink::unbounded());
        cluster.set_trace_sink(Some(ring.clone()));
        let mut per_instance = vec![PingPong::pair(6), PingPong::pair(6)];
        per_instance[0][0].retire_at = Some(1);
        let out = run_job(&mut cluster, per_instance);

        let retired: Vec<_> = (ring.take().into_iter())
            .filter(|e| matches!(e, TraceEvent::InstanceRetired { .. }))
            .collect();
        let event = TraceEvent::InstanceRetired {
            round: 1,
            machine: 0,
            instance: 1,
        };
        assert_eq!(retired, [event]);
        // Rounds 0–1 carry both instances; from round 2 on, only instance
        // 0's token + echo (2 words) are in flight.
        let log = cluster.round_log();
        assert!(log[1].total_words >= 3, "both instances live at round 1");
        for rec in &log[2..] {
            assert!(
                rec.total_words <= 2,
                "retired instance leaked traffic into {}: {} words",
                rec.label,
                rec.total_words
            );
        }
        // Instance 1's machine-1 half stopped at the retirement point, and
        // its machine-0 half never stepped again to read the echo.
        assert!(out[1][1].received < out[1][0].received);
        assert_eq!(out[0][1].received, 0, "late mail reached a retired lane");
    }

    #[test]
    fn halted_instances_wake_on_their_own_mail() {
        // Instance 0 finishes long before instance 1; the machine as a
        // whole must stay live and instance 1's late mail must still be
        // delivered (per-lane halt mirrors machine-level halt).
        let mut cluster = two_machine_cluster();
        let out = run_job(&mut cluster, vec![PingPong::pair(1), PingPong::pair(5)]);
        // Instance 1 exchanged all 5 tokens even though instance 0's halves
        // halted rounds earlier.
        assert_eq!(out[0][1].received, 10 + 20 + 30 + 40 + 50);
        assert_eq!(out[1][1].received, 1 + 2 + 3 + 4 + 5);
    }
}
