//! The run fingerprint `roundlog_golden.rs` and `registry_equivalence.rs`
//! pin their committed tables with: round count, a fold of the whole round
//! log, the result digest and a fold of the per-machine RNG positions.

use mpc_exec::AlgoOutput;
use mpc_graph::{Edge, Graph};
use mpc_runtime::Cluster;
use rand::RngCore;

/// The sketch programs: smaller inputs, `messages` not folded.
pub const SKETCH_NAMES: [&str; 3] = ["connectivity", "mst-approx", "mincut-approx"];

/// Everything the simulator rule calls observable, folded to four words.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub rounds: u64,
    pub round_log: u64,
    pub digest: u128,
    pub rng: u64,
}

pub fn fnv(acc: &mut u64, word: u64) {
    *acc = (*acc ^ word).wrapping_mul(0x0100_0000_01b3);
}

/// Folds a finished run of `name` on `cluster` into its fingerprint.
pub fn fold(name: &str, cluster: &mut Cluster, out: &AlgoOutput) -> Fingerprint {
    let sketch = SKETCH_NAMES.contains(&name);
    let mut round_log = 0xcbf2_9ce4_8422_2325u64;
    for r in cluster.round_log() {
        for b in r.label.render().bytes() {
            fnv(&mut round_log, u64::from(b));
        }
        let messages = if sketch { 0 } else { r.messages as u64 };
        for word in [
            r.max_sent as u64,
            r.max_recv as u64,
            r.total_words as u64,
            messages,
            r.total_work,
        ] {
            fnv(&mut round_log, word);
        }
    }
    // One draw per machine: equal folds mean equal stream positions
    // (SmallRng has no public position accessor).
    let mut rng = 0xcbf2_9ce4_8422_2325u64;
    for mid in 0..cluster.machines() {
        fnv(&mut rng, cluster.rng(mid).next_u64());
    }
    Fingerprint {
        rounds: cluster.rounds(),
        round_log,
        digest: out.digest(),
        rng,
    }
}

/// A 16-vertex path of weight-8 edges whose edge `7–8` weighs 0.
pub fn bridge_path() -> Graph {
    let path = (0..15u32).map(|v| Edge::new(v, v + 1, if v == 7 { 0 } else { 8 }));
    Graph::new(16, path)
}
