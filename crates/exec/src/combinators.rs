//! The program-driver combinator layer: the phase-sequencing boilerplate
//! every ported algorithm shares, factored out of the individual programs.
//!
//! The coordinator-style ports — the flagships
//! ([`MstProgram`](crate::programs::MstProgram),
//! [`MatchingProgram`](crate::programs::MatchingProgram),
//! [`SpannerProgram`](crate::programs::SpannerProgram)) and the Appendix-C
//! algorithms ([`MisProgram`](crate::programs::MisProgram),
//! [`ColoringProgram`](crate::programs::ColoringProgram),
//! [`MinCutProgram`](crate::programs::MinCutProgram)) — all follow the
//! same shape:
//!
//! * the **large machine** drives the phase sequence (it is the only
//!   machine with the global view the legacy orchestrator had);
//! * the **small machines** double as workers and hash-**owners** of keys
//!   (vertices, edge pairs), exactly like the legacy primitives'
//!   owner-partitioning;
//! * owners remember who *announced* a key so replies flow back only to the
//!   machines that asked — the paper's owner-directed exchange.
//!
//! The pieces here — [`Owners`], [`Outbox`], [`Announcers`], the
//! [`EndpointIndex`], the sort-and-scan group-by kernels ([`fold_by_key`],
//! [`top_by_key`], [`sorted_get`]), and the [`RoleProgram`]/[`Driven`] dispatch wrapper —
//! are that shape as reusable data. A program implements `large_step` /
//! `small_step` and the driver wrapper turns it into a
//! [`MachineProgram`] the [`Executor`](crate::Executor) can run.
//!
//! **Send-order contract.** Every per-key aggregate a role step sends is
//! emitted in ascending key order, and items that share a key keep their
//! insertion (inbox or shard) order. The kernels get that from a *stable*
//! sort by key followed by one scan over the runs, which is exactly the
//! iteration order of the `BTreeMap<K, Vec<T>>` they replaced — so message
//! order, and with it every downstream tie-break, is unchanged.

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use mpc_graph::{Edge, VertexId};
use mpc_runtime::primitives::{owner_of, HashKey};
use mpc_runtime::{Cluster, MachineId, Payload};

/// The hash-owner table: all small machines, with deterministic
/// [`HashKey`]-based key placement (identical to the legacy primitives'
/// `owner_of`, so owner shards match the legacy paths bit-for-bit).
#[derive(Clone, Debug)]
pub struct Owners {
    ids: Vec<MachineId>,
}

impl Owners {
    /// The owner table of a cluster (all non-large machines).
    pub fn of_cluster(cluster: &Cluster) -> Self {
        Owners {
            ids: cluster.small_ids(),
        }
    }

    /// The owner machine of `key`.
    pub fn of<K: HashKey>(&self, key: &K) -> MachineId {
        owner_of(key, &self.ids)
    }

    /// The *group collector* of `key` for a sender in `group`: the
    /// intermediate machine of the legacy primitives' two-stage
    /// aggregation (Claims 2 and 4). A key stored on many machines
    /// converges on `≤ ⌈K/√K⌉` collectors before its owner sees it, so no
    /// single machine ever receives a hot key's full multiplicity — the
    /// same `(key, sender-group)` mixing formula as
    /// [`aggregate_by_key`](mpc_runtime::primitives::aggregate_by_key).
    pub fn collector_of<K: HashKey>(&self, key: &K, group: u64) -> MachineId {
        let idx = (key
            .hash64()
            .wrapping_add(group.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            % self.ids.len() as u64) as usize;
        self.ids[idx]
    }

    /// All owner machine ids, ascending.
    pub fn ids(&self) -> &[MachineId] {
        &self.ids
    }
}

/// The sender group of machine `mid` in a `machines`-machine cluster:
/// `⌈√K⌉` consecutive machines share a collector group (the legacy
/// primitives' grouping).
pub fn sender_group(mid: MachineId, machines: usize) -> u64 {
    let group = (machines as f64).sqrt().ceil() as usize;
    (mid / group.max(1)) as u64
}

/// An outbox under construction: the `Vec<(destination, message)>` every
/// step builds, with the common routing patterns as methods.
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    msgs: Vec<(MachineId, M)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

impl<M> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Queues one message.
    pub fn send(&mut self, to: MachineId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Queues `msg` to every machine in `to` (the large machine's command
    /// broadcast).
    pub fn broadcast(&mut self, to: impl IntoIterator<Item = MachineId>, msg: M)
    where
        M: Clone,
    {
        for mid in to {
            self.msgs.push((mid, msg.clone()));
        }
    }

    /// Whether nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Finishes the step, staying active.
    pub fn into_step(self) -> StepOutcome<M> {
        StepOutcome::Send(self.msgs)
    }
}

/// Key → announcing machines, in ascending machine order: the routing
/// table an owner builds while aggregating announcements, so later replies
/// (renames, minima, flags) reach exactly the machines that hold the key.
///
/// Stored flat: notes are appended in arrival order and stably sorted by
/// key on the first lookup after them.
#[derive(Clone, Debug)]
pub struct Announcers<K> {
    notes: Vec<(K, MachineId)>,
    /// Length of the prefix of `notes` that is sorted and deduplicated.
    settled: usize,
}

impl<K> Default for Announcers<K> {
    fn default() -> Self {
        Announcers {
            notes: Vec::new(),
            settled: 0,
        }
    }
}

impl<K: Ord + Copy> Announcers<K> {
    /// Records that `src` announced `key`. Inbox order is ascending by
    /// source, so adjacent deduplication keeps each machine once.
    pub fn note(&mut self, key: K, src: MachineId) {
        self.notes.push((key, src));
    }

    /// The machines that announced `key` (none if nobody did).
    pub fn get(&mut self, key: K) -> impl Iterator<Item = MachineId> + '_ {
        if self.settled < self.notes.len() {
            self.notes.sort_by_key(|&(k, _)| k);
            self.notes.dedup();
            self.settled = self.notes.len();
        }
        let lo = self.notes.partition_point(|&(k, _)| k < key);
        self.notes[lo..]
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, m)| m)
    }

    /// Forgets every announcement (typically once per wave).
    pub fn clear(&mut self) {
        self.notes.clear();
        self.settled = 0;
    }

    /// Whether no announcements are recorded.
    pub fn is_empty(&self) -> bool {
        self.notes.is_empty()
    }
}

/// A worker's view of its input shard by endpoint: the sorted distinct
/// endpoints and, per edge, the positions of its two endpoints in that
/// list. Per-endpoint worker tables (labels, masks, flags, degrees) are
/// then plain vectors parallel to [`endpoints`](EndpointIndex::endpoints),
/// read per edge through [`slots`](EndpointIndex::slots) without hashing.
///
/// Host-only state: it is derived from the shard alone, holds nothing the
/// shard does not, and is shared (`Arc`) between a program and its
/// checkpoints, so it adds nothing to `state_words()`.
#[derive(Debug)]
pub struct EndpointIndex {
    endpoints: Vec<VertexId>,
    slots: Vec<[u32; 2]>,
}

impl EndpointIndex {
    /// Indexes `edges` (a shard, in shard order).
    pub fn build(edges: &[Edge]) -> Self {
        let mut endpoints: Vec<VertexId> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let mut index = EndpointIndex {
            endpoints,
            slots: Vec::new(),
        };
        let slot = |v: VertexId| index.slot_of(v) as u32;
        index.slots = edges.iter().map(|e| [slot(e.u), slot(e.v)]).collect();
        index
    }

    /// The distinct endpoints of the shard, ascending.
    pub fn endpoints(&self) -> &[VertexId] {
        &self.endpoints
    }

    /// Per edge, in shard order: the positions of `[e.u, e.v]` in
    /// [`endpoints`](EndpointIndex::endpoints).
    pub fn slots(&self) -> &[[u32; 2]] {
        &self.slots
    }

    /// The position of `v` in [`endpoints`](EndpointIndex::endpoints).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of the shard — owners answer only
    /// what a worker asked about, and workers ask about their endpoints.
    pub fn slot_of(&self, v: VertexId) -> usize {
        self.endpoints
            .binary_search(&v)
            .expect("an endpoint of the shard")
    }

    /// A per-endpoint table with every entry set to `fill`.
    pub fn table<T: Clone>(&self, fill: T) -> Vec<T> {
        vec![fill; self.endpoints.len()]
    }
}

/// The round-0 degree kickoff every Appendix-C port shares: counts this
/// shard's partial degree per endpoint and queues one `make(v, count)`
/// message to each endpoint's hash-owner, ascending by vertex. Callers
/// piggyback further per-endpoint announcements (rank requests, owner
/// registrations) on [`EndpointIndex::endpoints`], the same keys.
pub fn announce_degrees<M>(
    out: &mut Outbox<M>,
    owners: &Owners,
    index: &EndpointIndex,
    make: impl Fn(VertexId, u32) -> M,
) {
    let mut partial = index.table(0u32);
    for &[a, b] in index.slots() {
        partial[a as usize] += 1;
        partial[b as usize] += 1;
    }
    for (&v, c) in index.endpoints().iter().zip(partial) {
        out.send(owners.of(&v), make(v, c));
    }
}

/// Stably sorts `items` by key and folds every run of equal keys into its
/// first item, visiting the rest of the run in insertion order: the
/// owner-side aggregation step (degree sums, coverage OR, per-vertex
/// minimum rank, lightest parallel edge, ...). What is left is one item
/// per key, ascending — the order the caller sends in.
///
/// With `fold = |acc, v| if better(v, acc) { *acc = *v }` for a strict
/// `better`, ties keep the earlier item; associative and commutative folds
/// make owner aggregation schedule-independent.
pub fn fold_by_key<K: Ord + Copy, V>(items: &mut Vec<(K, V)>, mut fold: impl FnMut(&mut V, &V)) {
    items.sort_by_key(|&(k, _)| k);
    items.dedup_by(|next, acc| {
        let same = next.0 == acc.0;
        if same {
            fold(&mut acc.1, &next.1);
        }
        same
    });
}

/// Stably sorts `items` by `(key, rank)` and keeps the first `t` (at least
/// one) of every run of equal keys — the local/owner/destination
/// truncation stage of the paper's Claim-4 top-`t` selection. Equal ranks
/// keep insertion order. Truncating at every stage preserves the global
/// top-`t` because a globally-top item is locally-top wherever it appears.
pub fn top_by_key<K: Ord + Copy, T, R: Ord>(
    items: &mut Vec<(K, T)>,
    t: usize,
    rank: impl Fn(&T) -> R,
) {
    let t = t.max(1);
    items.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| rank(&a.1).cmp(&rank(&b.1))));
    let mut run: Option<(K, usize)> = None;
    items.retain(|&(k, _)| match &mut run {
        Some((cur, kept)) if *cur == k => {
            *kept += 1;
            *kept <= t
        }
        _ => {
            run = Some((k, 1));
            true
        }
    });
}

/// The [`fold_by_key`] step of a store: the value pushed last wins, as with
/// a map insert.
pub fn keep_last<V: Copy>(stored: &mut V, later: &V) {
    *stored = *later;
}

/// Splits a slice sorted by key (what [`top_by_key`] leaves behind) into
/// one `(key, items)` list per run — the shape the shared `mpc_core`
/// coordinator steps take.
pub fn grouped<K: Copy + Eq, T: Clone>(sorted: &[(K, T)]) -> Vec<(K, Vec<T>)> {
    sorted
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run.iter().map(|(_, t)| t.clone()).collect()))
        .collect()
}

/// The value stored under `key` in a slice sorted by key (what
/// [`fold_by_key`] leaves behind) — the flat form of a map lookup.
pub fn sorted_get<K: Ord + Copy, V>(sorted: &[(K, V)], key: K) -> Option<&V> {
    sorted
        .binary_search_by_key(&key, |&(k, _)| k)
        .ok()
        .map(|i| &sorted[i].1)
}

/// A program written as two role-specific step functions — the coordinator
/// pattern all flagship ports share. [`Driven`] lifts it to a
/// [`MachineProgram`].
pub trait RoleProgram: Send {
    /// The message type this program exchanges.
    type Message: Payload + Send;

    /// One round on the large machine (the coordinator).
    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, Self::Message)>,
    ) -> StepOutcome<Self::Message>;

    /// One round on a small machine (worker + owner).
    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, Self::Message)>,
    ) -> StepOutcome<Self::Message>;

    /// See [`MachineProgram::snapshot`]: a checkpointable deep copy, or
    /// `None` (the default) for programs that opt out of recovery.
    fn snapshot(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// See [`MachineProgram::state_words`].
    fn state_words(&self) -> usize {
        1
    }
}

/// The driver wrapper: dispatches each step to the machine's role. This is
/// the shared "ProgramDriver" — halt/reactivate and outcome packing live in
/// the [`Executor`](crate::Executor); role dispatch and the combinator
/// vocabulary live here; the program itself is pure algorithm state.
pub struct Driven<P>(pub P);

impl<P: RoleProgram> MachineProgram for Driven<P> {
    type Message = P::Message;

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, Self::Message)>,
    ) -> StepOutcome<Self::Message> {
        if ctx.is_large() {
            self.0.large_step(ctx, inbox)
        } else {
            self.0.small_step(ctx, inbox)
        }
    }

    fn snapshot(&self) -> Option<Self> {
        self.0.snapshot().map(Driven)
    }

    fn state_words(&self) -> usize {
        self.0.state_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    // The `BTreeMap` forms the flat kernels replaced, kept as oracles.

    fn fold_best<K: Ord, V>(
        map: &mut BTreeMap<K, V>,
        key: K,
        value: V,
        better: impl Fn(&V, &V) -> bool,
    ) {
        match map.get_mut(&key) {
            Some(cur) => {
                if better(&value, cur) {
                    *cur = value;
                }
            }
            None => {
                map.insert(key, value);
            }
        }
    }

    fn truncate_top<K, T, R: Ord>(
        groups: &mut BTreeMap<K, Vec<T>>,
        t: usize,
        rank: impl Fn(&T) -> R,
    ) {
        for vs in groups.values_mut() {
            vs.sort_by_key(&rank);
            vs.truncate(t.max(1));
        }
    }

    fn note_tree(map: &mut BTreeMap<u32, Vec<MachineId>>, key: u32, src: MachineId) {
        let v = map.entry(key).or_default();
        if v.last() != Some(&src) {
            v.push(src);
        }
    }

    fn edges_from(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(u, v)| Edge::unweighted(u, v)).collect()
    }

    #[test]
    fn announcers_dedup_adjacent_sources() {
        let mut a: Announcers<u32> = Announcers::default();
        a.note(7, 1);
        a.note(7, 1);
        a.note(7, 3);
        a.note(9, 2);
        assert_eq!(a.get(7).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(a.get(9).collect::<Vec<_>>(), [2]);
        assert_eq!(a.get(8).count(), 0);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.get(7).count(), 0);
    }

    #[test]
    fn fold_best_keeps_minimum() {
        let mut m: BTreeMap<u32, u64> = BTreeMap::new();
        fold_best(&mut m, 1, 10, |a, b| a < b);
        fold_best(&mut m, 1, 5, |a, b| a < b);
        fold_best(&mut m, 1, 7, |a, b| a < b);
        assert_eq!(m[&1], 5);
        let mut flat = vec![(1u32, 10u64), (1, 5), (1, 7)];
        fold_by_key(&mut flat, |acc, v| {
            if v < acc {
                *acc = *v;
            }
        });
        assert_eq!(flat, [(1, 5)]);
    }

    #[test]
    fn truncate_top_is_sorted_prefix() {
        let mut g: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        g.insert(0, vec![9, 3, 7, 1]);
        truncate_top(&mut g, 2, |x| *x);
        assert_eq!(g[&0], vec![1, 3]);
        let mut flat: Vec<(u32, u64)> = vec![(0, 9), (0, 3), (0, 7), (0, 1)];
        top_by_key(&mut flat, 2, |x| *x);
        assert_eq!(flat, [(0, 1), (0, 3)]);
    }

    #[test]
    fn empty_and_single_key_inputs() {
        let mut none: Vec<(u32, u64)> = Vec::new();
        fold_by_key(&mut none, |a, b| *a += *b);
        top_by_key(&mut none, 3, |x| *x);
        assert!(none.is_empty());
        assert_eq!(sorted_get(&none, 4), None);
        let mut one = vec![(4u32, 2u64), (4, 2), (4, 1)];
        top_by_key(&mut one, 0, |x| *x);
        assert_eq!(one, [(4, 1)], "t = 0 still keeps one item per key");
        let index = EndpointIndex::build(&[]);
        assert!(index.endpoints().is_empty() && index.slots().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sum, OR and strict best-of against `BTreeMap::entry` folding:
        /// duplicate keys fold in insertion order, ties keep the first.
        #[test]
        fn fold_by_key_matches_the_tree_form(
            items in collection::vec((0u32..24, 0u64..6), 0..200),
        ) {
            let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
            let mut ors: BTreeMap<u32, u64> = BTreeMap::new();
            // Rank ties are common (6 ranks): the payload tells which won.
            let mut best: BTreeMap<u32, (u64, usize)> = BTreeMap::new();
            for (i, &(k, v)) in items.iter().enumerate() {
                *sums.entry(k).or_default() += v;
                *ors.entry(k).or_default() |= v;
                fold_best(&mut best, k, (v, i), |a, b| a.0 < b.0);
            }
            let mut flat = items.clone();
            fold_by_key(&mut flat, |a, b| *a += *b);
            prop_assert_eq!(flat, sums.into_iter().collect::<Vec<_>>());
            let mut flat = items.clone();
            fold_by_key(&mut flat, |a, b| *a |= *b);
            prop_assert_eq!(flat, ors.into_iter().collect::<Vec<_>>());
            let mut flat: Vec<(u32, (u64, usize))> =
                items.iter().enumerate().map(|(i, &(k, v))| (k, (v, i))).collect();
            fold_by_key(&mut flat, |a, b| if b.0 < a.0 { *a = *b });
            for &(k, v) in &flat {
                prop_assert_eq!(sorted_get(&flat, k), Some(&v));
            }
            prop_assert_eq!(sorted_get(&flat, 99), None);
            prop_assert_eq!(flat, best.into_iter().collect::<Vec<_>>());
        }

        /// Top-`t` (regrouped by [`grouped`]) against group, stable-sort,
        /// truncate: equal ranks keep insertion order, `t = 0` behaves as
        /// `t = 1`.
        #[test]
        fn top_by_key_matches_the_tree_form(
            items in collection::vec((0u32..16, 0u64..5), 0..200),
            t in 0usize..5,
        ) {
            let mut groups: BTreeMap<u32, Vec<(u64, usize)>> = BTreeMap::new();
            for (i, &(k, r)) in items.iter().enumerate() {
                groups.entry(k).or_default().push((r, i));
            }
            truncate_top(&mut groups, t, |x| x.0);
            let mut flat: Vec<(u32, (u64, usize))> =
                items.iter().enumerate().map(|(i, &(k, r))| (k, (r, i))).collect();
            top_by_key(&mut flat, t, |x| x.0);
            prop_assert_eq!(grouped(&flat), groups.into_iter().collect::<Vec<_>>());
        }

        /// The flat routing table against the tree one, with lookups
        /// interleaved between batches of notes.
        #[test]
        fn announcers_match_the_tree_form(
            batches in collection::vec(collection::vec((0u32..12, 0usize..6), 0..40), 1..4),
        ) {
            let mut tree: BTreeMap<u32, Vec<MachineId>> = BTreeMap::new();
            let mut flat: Announcers<u32> = Announcers::default();
            for batch in &batches {
                for &(k, src) in batch {
                    note_tree(&mut tree, k, src);
                    flat.note(k, src);
                }
                for k in 0..13 {
                    let want = tree.get(&k).cloned().unwrap_or_default();
                    prop_assert_eq!(flat.get(k).collect::<Vec<_>>(), want);
                }
                prop_assert_eq!(flat.is_empty(), tree.is_empty());
            }
        }

        /// The endpoint index against a `HashMap` oracle, and the degree
        /// kickoff against the `BTreeMap` counting loop it replaced.
        #[test]
        fn endpoint_index_matches_a_hash_map(
            pairs in collection::vec((0u32..40, 0u32..40), 0..120),
        ) {
            let edges = edges_from(&pairs);
            let index = EndpointIndex::build(&edges);
            let mut partial: BTreeMap<VertexId, u32> = BTreeMap::new();
            for e in &edges {
                *partial.entry(e.u).or_default() += 1;
                *partial.entry(e.v).or_default() += 1;
            }
            let want: Vec<VertexId> = partial.keys().copied().collect();
            prop_assert_eq!(index.endpoints(), &want[..]);
            let oracle: HashMap<VertexId, usize> =
                want.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            for (&v, &slot) in &oracle {
                prop_assert_eq!(index.slot_of(v), slot);
            }
            prop_assert_eq!(index.slots().len(), edges.len());
            for (e, &[a, b]) in edges.iter().zip(index.slots()) {
                prop_assert_eq!((a as usize, b as usize), (oracle[&e.u], oracle[&e.v]));
            }
            prop_assert_eq!(index.table(7u8), vec![7u8; want.len()]);

            let owners = Owners { ids: vec![1, 2, 3] };
            let mut out: Outbox<(VertexId, u32)> = Outbox::new();
            announce_degrees(&mut out, &owners, &index, |v, c| (v, c));
            let sent: Vec<(MachineId, (VertexId, u32))> = match out.into_step() {
                StepOutcome::Send(msgs) => msgs,
                StepOutcome::Halt => unreachable!("an outbox never halts"),
            };
            let want: Vec<(MachineId, (VertexId, u32))> =
                partial.into_iter().map(|(v, c)| (owners.of(&v), (v, c))).collect();
            prop_assert_eq!(sent, want);
        }
    }
}
