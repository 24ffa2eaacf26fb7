//! Mixed-program waves: different algorithms in one run.
//!
//! [`Multiplexed`](crate::Multiplexed) interleaves many instances of the
//! *same* program `P` into one bulk-synchronous run. The service layer
//! (DESIGN.md §2.8) needs the heterogeneous version of that: a spanner, a
//! matching, and a min cut sharing one engine run, admitted and retired
//! independently. [`MixedWave`] is that scheduler. Each job owns a *lane*
//! per machine — its program behind an [`ErasedProgram`] box, the
//! program's typed inbox, and a private per-job RNG stream — and every
//! message crosses the wire as a [`MixedMsg`]: a job tag around a
//! [`LaneMsg`], the closed enum of the message types registry lanes speak.
//! Tags are free (like [`Mux`], the tag is bookkeeping the paper's model
//! does not charge); a wire message reports its payload's true word size,
//! so capacity accounting is exactly the sum of the lanes' solo traffic.
//!
//! No message is boxed on the way: demux unwraps each one straight into
//! its lane's typed inbox, and a lane's outbox is tagged straight into the
//! wave's. The set is closed because lanes come only from the registry
//! table, so the compiler, not a run-time downcast, checks every type.
//!
//! Determinism: lanes step in admission order, each against its own RNG
//! (minted via [`mpc_runtime::machine_rng`] from the job's seed), its own
//! program-local round clock (`ctx.round - base_round`), and the *solo*
//! capacity snapshotted before any combined-round scaling — so a job's
//! execution inside a mixed wave is bit-identical to the same job run
//! alone on a cluster seeded with its job seed.

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use crate::multiplex::Mux;
use crate::programs::{
    ColorNetMsg, ConnMsg, MatchNetMsg, MinCutNetMsg, MisNetMsg, MstMsg, MstNetMsg, SpannerNetMsg,
    XCutNetMsg,
};
use mpc_runtime::{Cluster, MachineId, Payload};
use mpc_sketch::PartialBatch;
use rand::rngs::SmallRng;
use std::any::Any;

// ---------------------------------------------------------------------------
// The wire
// ---------------------------------------------------------------------------

/// A message type a [`MixedWave`] lane can speak: one variant of
/// [`LaneMsg`]. A registry name whose programs send any other type does
/// not compile as a service lane.
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
    ($($variant:ident($msg:ty) in $stored:ty),+ $(,)?) => {
        /// The closed set of messages registry lanes exchange.
        #[derive(Clone)]
        pub enum LaneMsg {
            $(#[doc = concat!("A [`", stringify!($msg), "`].")] $variant($stored),)+
        }

        impl Payload for LaneMsg {
            fn words(&self) -> usize {
                match self {
                    $(LaneMsg::$variant(m) => m.words(),)+
                }
            }
        }

        $(impl LaneCodec for $msg {
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
    SpannerMux(Mux<SpannerNetMsg>) in Box<Mux<SpannerNetMsg>>,
    SketchMux(Mux<PartialBatch>) in Box<Mux<PartialBatch>>,
    XCutMux(Mux<XCutNetMsg>) in Mux<XCutNetMsg>,
    MinCut(MinCutNetMsg) in MinCutNetMsg,
    Mis(MisNetMsg) in MisNetMsg,
    Color(ColorNetMsg) in ColorNetMsg,
}

/// One wave message: the owning job's tag around the payload. The tag is
/// free, matching [`Mux`].
#[derive(Clone)]
pub struct MixedMsg {
    /// `job << 32 | words`: the job tag beside the payload's words, read
    /// once at tagging — the driver asks three times per message.
    tag: u64,
    msg: LaneMsg,
}

const _: () = assert!(size_of::<MixedMsg>() <= 56);

impl MixedMsg {
    fn new(job: u64, msg: impl LaneCodec) -> Self {
        let words = u32::try_from(msg.words()).expect("a lane message fits 2³² words");
        MixedMsg {
            tag: job << 32 | u64::from(words),
            msg: msg.wrap(),
        }
    }

    /// The job whose lane this message belongs to.
    pub fn job(&self) -> u64 {
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
    /// `job` and appended to `out`; returns whether the program halted.
    fn step_into(
        &mut self,
        ctx: &MachineCtx<'_>,
        job: u64,
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
struct Lane<P: MachineProgram> {
    program: P,
    inbox: Vec<(MachineId, P::Message)>,
}

impl<P> ErasedProgram for Lane<P>
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
        job: u64,
        out: &mut Vec<(MachineId, MixedMsg)>,
    ) -> bool {
        match self.program.step(ctx, std::mem::take(&mut self.inbox)) {
            StepOutcome::Halt => true,
            StepOutcome::Send(msgs) => {
                out.extend(msgs.into_iter().map(|(d, m)| (d, MixedMsg::new(job, m))));
                false
            }
        }
    }

    /// The inbox is demux scratch, empty between steps.
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
    Box::new(Lane {
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
        .downcast::<Lane<P>>()
        .expect("mixed-wave lane held a different program type than its extractor expects")
        .program
}

// ---------------------------------------------------------------------------
// The wave
// ---------------------------------------------------------------------------

/// One job's per-machine lane: the erased program, its private RNG
/// stream, its program-local round origin, and its halt vote.
struct MixedLane {
    job: u64,
    program: Box<dyn ErasedProgram>,
    rng: SmallRng,
    base_round: u64,
    halted: bool,
}

/// The per-machine mixed-program scheduler: any number of lanes, each a
/// different algorithm, stepped in admission order within one engine
/// round. An empty wave halts immediately; the service hook wakes the
/// machine when it admits a lane.
pub struct MixedWave {
    lanes: Vec<MixedLane>,
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
                lanes: Vec::new(),
                solo_capacity: cluster.capacity(mid),
            })
            .collect()
    }

    /// Installs a job's lane on this machine. `base_round` becomes the
    /// lane's round-0 origin; `rng` is the job's private stream for this
    /// machine ([`mpc_runtime::machine_rng`] of the job seed).
    pub fn admit(
        &mut self,
        job: u64,
        program: Box<dyn ErasedProgram>,
        rng: SmallRng,
        base_round: u64,
    ) {
        assert!(job >> 32 == 0, "job {job} does not fit a wire tag");
        debug_assert!(
            self.lanes.iter().all(|l| l.job != job),
            "job {job} admitted twice on one machine"
        );
        self.lanes.push(MixedLane {
            job,
            program,
            rng,
            base_round,
            halted: false,
        });
    }

    /// Whether this machine's lane for `job` has voted to halt (vacuously
    /// true if the lane was never admitted or already removed). Completion
    /// additionally requires no in-flight mail tagged with the job — the
    /// service checks the slot inbox for that.
    pub fn lane_idle(&self, job: u64) -> bool {
        self.lanes
            .iter()
            .find(|l| l.job == job)
            .is_none_or(|l| l.halted)
    }

    /// Removes the lane for `job`, returning its program for extraction
    /// and its RNG stream, which the job's next chained wave carries on.
    /// Quarantine drops both, and must also purge job-tagged messages from
    /// the machine's pending inbox ([`WaveRound::with_mail`](crate::WaveRound::with_mail)),
    /// or the next [`step`](MachineProgram::step) would panic on mail
    /// addressed to a lane that no longer exists.
    pub fn remove(&mut self, job: u64) -> Option<(Box<dyn ErasedProgram>, SmallRng)> {
        let at = self.lanes.iter().position(|l| l.job == job)?;
        let lane = self.lanes.remove(at);
        Some((lane.program, lane.rng))
    }
}

impl MachineProgram for MixedWave {
    type Message = MixedMsg;

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MixedMsg)>,
    ) -> StepOutcome<MixedMsg> {
        // Demux by job tag; mail wakes its lane. A source sends a lane's
        // messages back to back, so each run of one job's messages costs
        // one lane lookup. A message for a lane this machine does not hold
        // means the service removed a job with mail still in flight — a
        // scheduler bug worth failing loudly on.
        let mut mail = inbox.into_iter();
        while let Some(job) = mail.as_slice().first().map(|(_, m)| m.job()) {
            let run = (mail.as_slice().iter())
                .take_while(|(_, m)| m.job() == job)
                .count();
            let lane = (self.lanes.iter_mut().find(|l| l.job == job)).unwrap_or_else(|| {
                panic!("message for job {job} with no lane on machine {}", ctx.mid)
            });
            lane.halted = false;
            lane.program.deliver(&mut mail, run);
        }

        let mut out = Vec::new();
        for lane in &mut self.lanes {
            if lane.halted {
                continue;
            }
            let sub = MachineCtx::new(
                ctx.mid,
                ctx.machines,
                ctx.large,
                self.solo_capacity,
                ctx.round - lane.base_round,
                &mut lane.rng,
                ctx.sink(),
            );
            lane.halted = lane.program.step_into(&sub, lane.job, &mut out);
            ctx.charge(sub.charged());
        }

        if out.is_empty() && self.lanes.iter().all(|l| l.halted) {
            StepOutcome::Halt
        } else {
            StepOutcome::Send(out)
        }
    }

    fn snapshot(&self) -> Option<Self> {
        let mut lanes = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            lanes.push(MixedLane {
                job: lane.job,
                program: lane.program.snapshot_erased()?,
                rng: lane.rng.clone(),
                base_round: lane.base_round,
                halted: lane.halted,
            });
        }
        Some(MixedWave {
            lanes,
            solo_capacity: self.solo_capacity,
        })
    }

    fn state_words(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.program.state_words_erased())
            .sum::<usize>()
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::Edge;
    use mpc_sketch::OneSparse;

    /// Tags `msg`, then checks the tag, the words and the round trip (the
    /// message types have no `PartialEq`; their `Debug` forms do).
    fn round_trip<M: LaneCodec + std::fmt::Debug>(msg: M) {
        let wire = MixedMsg::new(9, msg.clone());
        assert_eq!((wire.job(), wire.words()), (9, msg.words()), "{msg:?}");
        assert_eq!(format!("{:?}", M::unwrap(wire.msg)), format!("{msg:?}"));
    }

    #[test]
    fn every_variant_round_trips_with_its_words() {
        let e = Edge::new(1, 2, 5);
        let mut batch = PartialBatch::default();
        batch.push(3, [(0, OneSparse::new()), (7, OneSparse::new())]);
        batch.push(8, []);
        round_trip(ConnMsg::Partial(batch.clone()));
        round_trip(MstMsg::Rename(1, 2));
        round_trip(MstNetMsg::SampleCounts(vec![1, 2, 3]));
        round_trip(MatchNetMsg::MinAns(1, 2, e));
        round_trip(SpannerNetMsg::CandPartial(3, vec![4, 5]));
        round_trip(Mux(2, SpannerNetMsg::HistAns(6, vec![7, 8, 9])));
        round_trip(Mux(1, batch));
        round_trip(Mux(0, PartialBatch::default()));
        round_trip(Mux(3, XCutNetMsg::Skel(e, 2)));
        round_trip(MinCutNetMsg::TwoOutUp(1, 2, e));
        round_trip(MisNetMsg::FinalEdge(e));
        round_trip(ColorNetMsg::Conflict(e));
    }

    #[test]
    #[should_panic(expected = "lane of a different program type")]
    fn mail_of_another_variant_panics() {
        MisNetMsg::unwrap(MstMsg::Rename(1, 2).wrap());
    }
}
