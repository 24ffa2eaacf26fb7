//! Type-erased mixed-program waves: different algorithms in one run.
//!
//! [`Multiplexed`](crate::Multiplexed) interleaves many instances of the
//! *same* program `P` into one bulk-synchronous run. The service layer
//! (DESIGN.md §2.8) needs the heterogeneous version of that: a spanner, a
//! matching, and a min cut sharing one engine run, admitted and retired
//! independently. [`MixedWave`] is that scheduler. Each job owns a *lane*
//! per machine — a boxed, type-erased program plus a private per-job RNG
//! stream — and every message crosses the wire as a [`MixedMsg`]: a job
//! tag around an [`ErasedMsg`] box. Tags are free (like
//! [`Mux`](crate::Mux), the tag is bookkeeping the paper's model does not
//! charge); the boxed payload reports its true word size, so capacity
//! accounting is exactly the sum of the lanes' solo traffic.
//!
//! Determinism: lanes step in admission order, each against its own RNG
//! (minted via [`mpc_runtime::machine_rng`] from the job's seed), its own
//! program-local round clock (`ctx.round - base_round`), and the *solo*
//! capacity snapshotted before any combined-round scaling — so a job's
//! execution inside a mixed wave is bit-identical to the same job run
//! alone on a cluster seeded with its job seed.

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use mpc_runtime::{Cluster, MachineId, Payload};
use rand::rngs::SmallRng;
use std::any::Any;

// ---------------------------------------------------------------------------
// Message erasure
// ---------------------------------------------------------------------------

/// Object-safe view of a [`Payload`] message: clone and downcast.
trait AnyMsg: Send {
    fn clone_box(&self) -> Box<dyn AnyMsg>;
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<M: Payload + Send + 'static> AnyMsg for M {
    fn clone_box(&self) -> Box<dyn AnyMsg> {
        Box::new(self.clone())
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// A boxed message of some concrete [`Payload`] type. Its words are those
/// of the payload inside, so erasure is invisible to capacity accounting;
/// they are read once, at boxing — the driver asks three times per message
/// and a boxed message never changes.
pub struct ErasedMsg {
    words: usize,
    msg: Box<dyn AnyMsg>,
}

impl ErasedMsg {
    /// Boxes a concrete message.
    pub fn new<M: Payload + Send + 'static>(msg: M) -> Self {
        ErasedMsg {
            words: msg.words(),
            msg: Box::new(msg),
        }
    }

    /// Recovers the concrete message, panicking on a type mismatch (a
    /// mismatch means two lanes shared a job tag — a scheduler bug, not a
    /// recoverable condition).
    fn downcast<M: Payload + Send + 'static>(self) -> M {
        *self
            .msg
            .into_any()
            .downcast::<M>()
            .expect("mixed-wave message arrived at a lane of a different program type")
    }
}

impl Clone for ErasedMsg {
    fn clone(&self) -> Self {
        ErasedMsg {
            words: self.words,
            msg: self.msg.clone_box(),
        }
    }
}

impl Payload for ErasedMsg {
    fn words(&self) -> usize {
        self.words
    }
}

/// One wave message: the owning job's tag around the erased payload. The
/// tag is free, matching [`Mux`](crate::Mux).
#[derive(Clone)]
pub struct MixedMsg {
    /// The job whose lane this message belongs to.
    pub job: u64,
    msg: ErasedMsg,
}

impl Payload for MixedMsg {
    fn words(&self) -> usize {
        self.msg.words()
    }
}

// ---------------------------------------------------------------------------
// Program erasure
// ---------------------------------------------------------------------------

/// Object-safe view of a [`MachineProgram`]: step on erased messages,
/// snapshot behind a box, and downcast back out for result extraction.
///
/// Blanket-implemented for every `'static` program, so
/// [`erase`] is the only conversion a caller needs.
pub trait ErasedProgram: Send {
    /// [`MachineProgram::step`] with boxed messages on both sides.
    fn step_erased(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, ErasedMsg)>,
    ) -> StepOutcome<ErasedMsg>;

    /// [`MachineProgram::snapshot`] behind a box (`None` opts the lane —
    /// and with it the whole wave — out of checkpointing).
    fn snapshot_erased(&self) -> Option<Box<dyn ErasedProgram>>;

    /// [`MachineProgram::state_words`].
    fn state_words_erased(&self) -> usize;

    /// Downcast support for result extraction.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<P> ErasedProgram for P
where
    P: MachineProgram + 'static,
    P::Message: 'static,
{
    fn step_erased(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, ErasedMsg)>,
    ) -> StepOutcome<ErasedMsg> {
        let inbox = inbox
            .into_iter()
            .map(|(src, msg)| (src, msg.downcast::<P::Message>()))
            .collect();
        match self.step(ctx, inbox) {
            StepOutcome::Halt => StepOutcome::Halt,
            StepOutcome::Send(msgs) => StepOutcome::Send(
                msgs.into_iter()
                    .map(|(dst, msg)| (dst, ErasedMsg::new(msg)))
                    .collect(),
            ),
        }
    }

    fn snapshot_erased(&self) -> Option<Box<dyn ErasedProgram>> {
        self.snapshot()
            .map(|p| Box::new(p) as Box<dyn ErasedProgram>)
    }

    fn state_words_erased(&self) -> usize {
        self.state_words()
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Boxes a concrete program for admission into a [`MixedWave`].
pub fn erase<P>(program: P) -> Box<dyn ErasedProgram>
where
    P: MachineProgram + 'static,
    P::Message: 'static,
{
    Box::new(program)
}

/// Recovers the concrete program from an extracted lane, panicking on a
/// type mismatch (the extractor and builder are paired per job, so a
/// mismatch is a scheduler bug).
pub fn downcast_program<P: MachineProgram + 'static>(boxed: Box<dyn ErasedProgram>) -> P {
    *boxed
        .into_any()
        .downcast::<P>()
        .expect("mixed-wave lane held a different program type than its extractor expects")
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
    /// Demux scratch, drained every step.
    inbox: Vec<(MachineId, ErasedMsg)>,
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
            inbox: Vec::new(),
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
    pub fn remove(&mut self, job: u64) -> Option<(Box<dyn ErasedProgram>, SmallRng)> {
        let at = self.lanes.iter().position(|l| l.job == job)?;
        let lane = self.lanes.remove(at);
        Some((lane.program, lane.rng))
    }

    /// Quarantines `job` on this machine: drops its lane — program, RNG
    /// stream, and any demuxed mail — without extraction. Returns whether
    /// a lane existed. The caller must also purge job-tagged messages
    /// from the machine's pending inbox
    /// ([`WaveRound::with_mail`](crate::WaveRound::with_mail)), or the
    /// next [`step`](MachineProgram::step) would panic on mail addressed
    /// to a lane that no longer exists.
    pub fn quarantine(&mut self, job: u64) -> bool {
        let at = self.lanes.iter().position(|l| l.job == job);
        if let Some(at) = at {
            self.lanes.remove(at);
        }
        at.is_some()
    }

    /// Number of lanes currently installed.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }
}

impl MachineProgram for MixedWave {
    type Message = MixedMsg;

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MixedMsg)>,
    ) -> StepOutcome<MixedMsg> {
        // Demux by job tag. A message for a lane this machine does not
        // hold means the service removed a job with mail still in flight —
        // a scheduler bug worth failing loudly on.
        for (src, msg) in inbox {
            let lane = self
                .lanes
                .iter_mut()
                .find(|l| l.job == msg.job)
                .unwrap_or_else(|| {
                    panic!(
                        "message for job {} with no lane on machine {}",
                        msg.job, ctx.mid
                    )
                });
            lane.inbox.push((src, msg.msg));
        }

        let mut out: Vec<(MachineId, MixedMsg)> = Vec::new();
        for lane in &mut self.lanes {
            let mail = std::mem::take(&mut lane.inbox);
            if lane.halted && mail.is_empty() {
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
            let outcome = lane.program.step_erased(&sub, mail);
            ctx.charge(sub.charged());
            match outcome {
                StepOutcome::Halt => lane.halted = true,
                StepOutcome::Send(msgs) => {
                    lane.halted = false;
                    out.extend(
                        msgs.into_iter()
                            .map(|(dst, msg)| (dst, MixedMsg { job: lane.job, msg })),
                    );
                }
            }
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
                inbox: lane.inbox.clone(),
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
