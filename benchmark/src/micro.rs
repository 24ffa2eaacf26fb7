//! Three micro-programs that exercise the engine and nothing else: no
//! sketch, no graph algorithm, no RNG. Whatever host time they take is the
//! driver's round loop, the pool barrier and `Cluster::exchange_into`.
//!
//! * `ring` — one word per machine per round: the per-message cost;
//! * `a2a` — every machine sends a 16-word block to every other machine
//!   every round: the per-word cost;
//! * `ripple-skew` — a ring whose large machine burns 16× the compute of a
//!   small one: the straggler imbalance the paper's regime implies.

use mpc_exec::pool::PoolStats;
use mpc_exec::{ExecError, ExecMode, Executor, MachineCtx, MachineProgram, StepOutcome};
use mpc_runtime::{Cluster, ClusterConfig, MachineId, Payload, Topology};

/// Words in one `a2a` block.
pub const BLOCK_WORDS: usize = 16;

/// Compute skew of the large machine in `ripple-skew`.
pub const SKEW: u64 = 16;

/// The micro-programs, in pass order.
pub const NAMES: [&str; 3] = ["ring", "a2a", "ripple-skew"];

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-size `a2a` message: 16 words, no heap allocation per message.
#[derive(Clone)]
pub struct Block([u64; BLOCK_WORDS]);

impl Block {
    /// A block whose words count up from `first`.
    pub fn filled(first: u64) -> Self {
        Block(std::array::from_fn(|i| first.wrapping_add(i as u64)))
    }
}

impl Payload for Block {
    fn words(&self) -> usize {
        BLOCK_WORDS
    }
}

/// Shape of one micro-program run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Machines, the large one included.
    pub machines: usize,
    pub rounds: u64,
    /// `ripple-skew` only: multiply-rotate steps a small machine burns per
    /// round.
    pub work: u64,
}

/// What one micro-program run leaves behind.
#[derive(Clone, Debug)]
pub struct MicroRun {
    /// Fold of every machine's checksum, in machine order.
    pub checksum: u64,
    pub rounds: u64,
    /// Worker accounting, for a pool run on a cluster with a sink.
    pub pool: Option<PoolStats>,
}

pub struct Ring {
    rounds: u64,
    checksum: u64,
}

impl MachineProgram for Ring {
    type Message = u64;

    fn step(&mut self, ctx: &MachineCtx<'_>, inbox: Vec<(MachineId, u64)>) -> StepOutcome<u64> {
        for (_, word) in &inbox {
            self.checksum = mix(self.checksum ^ word);
        }
        if ctx.round + 1 >= self.rounds {
            return StepOutcome::Halt;
        }
        StepOutcome::Send(vec![((ctx.mid + 1) % ctx.machines, self.checksum)])
    }
}

pub struct AllToAll {
    rounds: u64,
    checksum: u64,
}

impl MachineProgram for AllToAll {
    type Message = Block;

    fn step(&mut self, ctx: &MachineCtx<'_>, inbox: Vec<(MachineId, Block)>) -> StepOutcome<Block> {
        for (_, block) in &inbox {
            for word in block.0 {
                self.checksum = self.checksum.rotate_left(5) ^ word;
            }
        }
        if ctx.round + 1 >= self.rounds {
            return StepOutcome::Halt;
        }
        let block = Block::filled(mix(self.checksum));
        StepOutcome::Send(
            (0..ctx.machines)
                .filter(|&dst| dst != ctx.mid)
                .map(|dst| (dst, block.clone()))
                .collect(),
        )
    }
}

pub struct RippleSkew {
    rounds: u64,
    work: u64,
    checksum: u64,
}

impl MachineProgram for RippleSkew {
    type Message = u64;

    fn step(&mut self, ctx: &MachineCtx<'_>, inbox: Vec<(MachineId, u64)>) -> StepOutcome<u64> {
        for (_, word) in &inbox {
            self.checksum ^= word;
        }
        let mut acc = self.checksum | 1;
        for i in 0..self.work {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
        }
        self.checksum ^= acc;
        // The cost model sees the same skew the host does.
        ctx.charge(self.work);
        if ctx.round + 1 >= self.rounds {
            return StepOutcome::Halt;
        }
        StepOutcome::Send(vec![((ctx.mid + 1) % ctx.machines, acc)])
    }
}

/// A cluster of `machines` equal-capacity machines, machine 0 the large
/// one. 4096 words admit the heaviest `a2a` round (64 × 16 words each way).
pub fn cluster(machines: usize) -> Cluster {
    Cluster::new(ClusterConfig::new(1024, 4096).topology(Topology::Custom {
        capacities: vec![4096; machines],
        large: Some(0),
    }))
}

fn fold<P>(programs: &[P], checksum: impl Fn(&P) -> u64) -> u64 {
    programs.iter().fold(0u64, |acc, p| mix(acc ^ checksum(p)))
}

/// Runs micro-program `name` on `cluster`. The seed only sets the machines'
/// starting checksums, so host cost is the same for every seed.
pub fn run(
    name: &str,
    shape: Shape,
    seed: u64,
    cluster: &mut Cluster,
    mode: ExecMode,
    threads: usize,
) -> Result<MicroRun, ExecError> {
    let exec = Executor::new(name, mode)
        .threads(threads)
        .max_rounds(shape.rounds + 8);
    let start = |mid: usize| mix(seed ^ mix(mid as u64));
    let machines = cluster.machines();
    let rounds = shape.rounds;
    match name {
        "ring" => {
            let programs = (0..machines)
                .map(|mid| Ring {
                    rounds,
                    checksum: start(mid),
                })
                .collect();
            let out = exec.run(cluster, programs)?;
            Ok(MicroRun {
                checksum: fold(&out.programs, |p: &Ring| p.checksum),
                rounds: out.rounds,
                pool: out.pool,
            })
        }
        "a2a" => {
            let programs = (0..machines)
                .map(|mid| AllToAll {
                    rounds,
                    checksum: start(mid),
                })
                .collect();
            let out = exec.run(cluster, programs)?;
            Ok(MicroRun {
                checksum: fold(&out.programs, |p: &AllToAll| p.checksum),
                rounds: out.rounds,
                pool: out.pool,
            })
        }
        "ripple-skew" => {
            let large = cluster.large();
            let programs = (0..machines)
                .map(|mid| RippleSkew {
                    rounds,
                    work: if Some(mid) == large {
                        shape.work * SKEW
                    } else {
                        shape.work
                    },
                    checksum: start(mid),
                })
                .collect();
            let out = exec.run(cluster, programs)?;
            Ok(MicroRun {
                checksum: fold(&out.programs, |p: &RippleSkew| p.checksum),
                rounds: out.rounds,
                pool: out.pool,
            })
        }
        other => Err(ExecError::Algorithm {
            message: format!("unknown micro-program '{other}'"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        machines: 9,
        rounds: 24,
        work: 40,
    };

    #[test]
    fn micro_programs_agree_across_modes_and_thread_counts() {
        for name in NAMES {
            let serial = run(
                name,
                SMALL,
                7,
                &mut cluster(SMALL.machines),
                ExecMode::Serial,
                1,
            )
            .expect("serial run");
            // 24 steps: sends on rounds 0..=22, halt on 23 needs no exchange.
            assert_eq!(serial.rounds, SMALL.rounds - 1, "{name}");
            for threads in [1, 3] {
                let pool = run(
                    name,
                    SMALL,
                    7,
                    &mut cluster(SMALL.machines),
                    ExecMode::Parallel,
                    threads,
                )
                .expect("pool run");
                assert_eq!(
                    (pool.checksum, pool.rounds),
                    (serial.checksum, serial.rounds),
                    "{name} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn the_seed_reaches_the_checksum() {
        for name in NAMES {
            let a = run(
                name,
                SMALL,
                7,
                &mut cluster(SMALL.machines),
                ExecMode::Serial,
                1,
            )
            .unwrap();
            let b = run(
                name,
                SMALL,
                8,
                &mut cluster(SMALL.machines),
                ExecMode::Serial,
                1,
            )
            .unwrap();
            assert_ne!(a.checksum, b.checksum, "{name}");
        }
    }

    #[test]
    fn unknown_names_are_an_error() {
        assert!(run(
            "nope",
            SMALL,
            7,
            &mut cluster(SMALL.machines),
            ExecMode::Serial,
            1
        )
        .is_err());
    }
}
