//! The [`MachineProgram`] abstraction: an algorithm as per-machine state.
//!
//! A call-style algorithm (`filtering_matching(&mut cluster, ...)`) is a
//! loop that *owns* the cluster: it computes every machine's "free local
//! computation" inline, serially, so wall-clock scales with cluster size.
//! A [`MachineProgram`] inverts that: the algorithm is **data** — one state
//! machine per machine — and the [`Executor`](crate::Executor) drives all
//! of them, concurrently if asked, one synchronous round at a time.
//!
//! Semantics (Pregel-style, adapted to the paper's model):
//!
//! * every round, each *active* machine is stepped once with the messages
//!   addressed to it last round (deterministic order: ascending source id,
//!   then send order — exactly [`Cluster::exchange`](mpc_runtime::Cluster::exchange));
//! * a machine votes to halt by returning [`StepOutcome::Halt`]; a halted
//!   machine is skipped until a message arrives, which reactivates it;
//! * the program ends when every machine has halted and no messages are in
//!   flight.

use mpc_runtime::telemetry::{TraceEvent, TraceSink};
use mpc_runtime::{MachineId, Payload};
use rand::rngs::SmallRng;
use std::cell::{Cell, RefCell, RefMut};

/// Per-round, per-machine execution context handed to
/// [`MachineProgram::step`].
///
/// Everything a machine may legally see: its own id and capacity, the
/// cluster shape, the synchronized round number, and its *private* RNG
/// stream. There is deliberately no access to other machines' state — all
/// cross-machine information flows through messages.
pub struct MachineCtx<'a> {
    /// This machine's id.
    pub mid: MachineId,
    /// Total number of machines in the cluster.
    pub machines: usize,
    /// Id of the large machine, if the topology has one.
    pub large: Option<MachineId>,
    /// This machine's memory/communication capacity in words.
    pub capacity: usize,
    /// Program-local round index (0 on the first step), identical on every
    /// machine — usable as a global phase clock.
    pub round: u64,
    rng: RefCell<&'a mut SmallRng>,
    extra_work: Cell<u64>,
    retire_later: Cell<bool>,
    /// Telemetry sink, present only when the driving cluster has one
    /// attached — lets scheduler layers (and programs, via
    /// [`trace`](MachineCtx::trace)) emit events from inside a step.
    sink: Option<&'a dyn TraceSink>,
}

impl<'a> MachineCtx<'a> {
    pub(crate) fn new(
        mid: MachineId,
        machines: usize,
        large: Option<MachineId>,
        capacity: usize,
        round: u64,
        rng: &'a mut SmallRng,
        sink: Option<&'a dyn TraceSink>,
    ) -> Self {
        MachineCtx {
            mid,
            machines,
            large,
            capacity,
            round,
            rng: RefCell::new(rng),
            extra_work: Cell::new(0),
            retire_later: Cell::new(false),
            sink,
        }
    }

    /// Whether a telemetry sink is listening. Guard any event construction
    /// that allocates on this, or use [`trace`](MachineCtx::trace), which
    /// only builds the event when someone is listening.
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Records a telemetry event; the closure runs only when a sink is
    /// attached, so a disabled run never pays for event construction.
    pub fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink {
            sink.record(&event());
        }
    }

    /// The raw sink handle, for schedulers building sub-contexts.
    pub(crate) fn sink(&self) -> Option<&'a dyn TraceSink> {
        self.sink
    }

    /// Whether this machine plays the large-machine role.
    pub fn is_large(&self) -> bool {
        self.large == Some(self.mid)
    }

    /// Ids of all non-large machines, ascending.
    ///
    /// Allocates; per-round code should prefer
    /// [`small_ids_iter`](MachineCtx::small_ids_iter).
    pub fn small_ids(&self) -> Vec<MachineId> {
        self.small_ids_iter().collect()
    }

    /// Iterator over all non-large machine ids, ascending — the
    /// allocation-free counterpart of [`small_ids`](MachineCtx::small_ids).
    pub fn small_ids_iter(&self) -> impl Iterator<Item = MachineId> + '_ {
        let large = self.large;
        (0..self.machines).filter(move |&i| Some(i) != large)
    }

    /// This machine's private RNG (the same per-machine stream
    /// [`Cluster::rng`](mpc_runtime::Cluster::rng) exposes, so a ported
    /// program draws identical values to its legacy implementation).
    pub fn rng(&self) -> RefMut<'_, &'a mut SmallRng> {
        self.rng.borrow_mut()
    }

    /// Reports `words` of local computation beyond the message volume the
    /// driver already charges; flows into the round's simulated makespan
    /// via [`Cluster::charge_work`](mpc_runtime::Cluster::charge_work).
    pub fn charge(&self, words: u64) {
        self.extra_work
            .set(self.extra_work.get().saturating_add(words));
    }

    pub(crate) fn charged(&self) -> u64 {
        self.extra_work.get()
    }

    /// Retires every later instance of this program's job on this machine:
    /// the cross-instance early exit (a λ̂ guess over its skeleton budget
    /// makes every finer guess pointless). The [wave](crate::MixedWave)
    /// halts them for good before they step this round and drops mail
    /// addressed to them. A program run alone has no later instance, so
    /// there this does nothing.
    pub fn retire_later_instances(&self) {
        self.retire_later.set(true);
    }

    pub(crate) fn retires_later(&self) -> bool {
        self.retire_later.get()
    }
}

/// What a machine decided at the end of one step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome<M> {
    /// Stay active and send these `(destination, payload)` messages (an
    /// empty vector = stay active, send nothing).
    Send(Vec<(MachineId, M)>),
    /// Vote to halt. A halted machine sends nothing and is not stepped
    /// again unless a message reactivates it.
    Halt,
}

impl<M> StepOutcome<M> {
    /// Stay active without sending anything.
    pub fn idle() -> Self {
        StepOutcome::Send(Vec::new())
    }
}

/// An algorithm expressed as a per-machine state machine.
///
/// One value of the implementing type exists *per machine*; the
/// [`Executor`](crate::Executor) steps all of them in lockstep rounds and
/// routes their messages through the cluster's capacity-checked
/// [`exchange`](mpc_runtime::Cluster::exchange). Implementations must not
/// share mutable state between instances (the driver may step them on
/// different threads); all coordination happens through messages.
pub trait MachineProgram: Send {
    /// The message type this program exchanges.
    type Message: Payload + Send;

    /// Executes one synchronous round on this machine: consume the inbox,
    /// update local state, decide what to send (or halt).
    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, Self::Message)>,
    ) -> StepOutcome<Self::Message>;

    /// A deep copy of this machine's current state, used by the recovery
    /// layer to checkpoint a machine's shard on the host (DESIGN.md §2.7),
    /// or `None` if the program cannot be checkpointed — a machine whose
    /// program returns `None` is unrecoverable if it crashes. The driver
    /// calls it only for machines a crash in the attached fault plan
    /// names. The default opts out; `Clone` programs implement this as
    /// `Some(self.clone())`.
    fn snapshot(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Declared resident shard-state words copied to each replica owner at
    /// a checkpoint — charged to the cost model as replication traffic and
    /// to the owners as resident replica memory, for every machine at
    /// every checkpoint, whether or not [`snapshot`](Self::snapshot)
    /// supports it. The default (one word) is a conservative placeholder
    /// for programs that do not size their state.
    fn state_words(&self) -> usize {
        1
    }
}
