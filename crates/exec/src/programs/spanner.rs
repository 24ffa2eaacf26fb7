//! [`SpannerProgram`]: the `O(1)`-round `(6k−1)`-spanner (§4, Theorem 4.1
//! — clustering graphs + per-level Baswana–Sen) as a per-machine state
//! machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::spanner::heterogeneous_spanner`], in the coordinator shape
//! of the [`combinators`](crate::combinators) layer. The phase structure is
//! *static* (no data-dependent iteration), so the whole program runs on a
//! fixed 17-round clock with no per-phase commands beyond the initial
//! `Levels` broadcast:
//!
//! | round | who    | does |
//! |------:|--------|------|
//! | 0–1   | smalls/owners | per-vertex degrees to the owners, up to the large machine |
//! | 2     | large  | levels `⌈log₂Δ⌉`; hitting-set masks drawn (Algorithm 5) and pushed to the owners |
//! | 3–4   | all    | mask lookups for edge endpoints |
//! | 5–6   | smalls/owners | coverage OR-aggregation, up to the large machine |
//! | 7–8   | large/owners | `B_i` masks finalized, pushed, looked up |
//! | 9–10  | smalls/owners | min-neighbor-in-`B` candidates aggregated; star centers `σ` assigned |
//! | 11–12 | smalls/owners | cluster edges `(level, σ_u, σ_v)` deduplicated at owners; per-level subsamples drawn and shipped |
//! | 13    | large  | per-level spanning ([`span_levels`](mpc_core::spanner::span_levels)); history answers |
//! | 14–15 | owners | removal candidates aggregated; stars + removals shipped |
//! | 16    | large  | combine (Lemma A.2), halt |
//!
//! Every random draw — the large machine's hitting-set masks, the small
//! machines' per-cluster-edge subsampling coins — happens in exactly the
//! legacy per-machine order, so the spanner edge set, the statistics, and
//! the RNG stream positions are bit-identical to the legacy path (asserted
//! by the registry equivalence tests).

use crate::combinators::{
    announce_degrees, fold_by_key, keep_last, sorted_get, EndpointIndex, Outbox, Owners,
    RoleProgram,
};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::spanner::clustering::{
    edge_level, finalize_b_masks, level_edge_key, levels_for_delta, min_neighbor_candidates,
    sample_hitting_masks, sigma_for, unpack_level_edge, LevelEdgeKey,
};
use mpc_core::spanner::{
    removal_candidates_for, sampling_probability, span_levels, SpannerResult, SpannerStats,
};
use mpc_graph::{Edge, Graph, VertexId};
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use rand::Rng;
use std::sync::Arc;

/// Messages of the spanner program.
#[derive(Clone, Debug)]
pub enum SpannerNetMsg {
    /// Large → smalls: the number of clustering levels.
    Levels(u32),
    /// Small → owner: partial degree count of a vertex.
    DegPartial(VertexId, u32),
    /// Owner → large: final degree of a vertex.
    DegUp(VertexId, u32),
    /// Large → owner: `(v, deg, hitting-set membership mask)`.
    MaskInfo(VertexId, u32, u64),
    /// Small → owner: this machine needs the mask of `v`.
    MaskAsk(VertexId),
    /// Owner → asker: the mask of `v`.
    MaskAns(VertexId, u64),
    /// Small → owner: OR of the masks of `v`'s neighbors (partial).
    CoverPartial(VertexId, u64),
    /// Owner → large: OR of the masks of `v`'s neighbors (final).
    CoverUp(VertexId, u64),
    /// Large → owner: `(v, deg, B-level mask)`.
    BInfo(VertexId, u32, u64),
    /// Small → owner: this machine needs the B-mask of `v`.
    BAsk(VertexId),
    /// Owner → asker: the B-mask of `v`.
    BAns(VertexId, u64),
    /// Small → owner: per-level smallest neighbor of `v` in `B_i`.
    CandPartial(VertexId, Vec<u32>),
    /// Small → owner: this machine needs `(σ_v, deg_v)`.
    SigmaAsk(VertexId),
    /// Owner → asker: `(v, σ_v, deg_v)`.
    SigmaAns(VertexId, VertexId, u32),
    /// Small → owner: a cluster edge `(key, witness)` dedup partial.
    LevelEdge(u64, u64, Edge),
    /// Owner → large: per-level cluster-edge counts.
    LevelCount(Vec<u64>),
    /// Owner → large: a (sub)sampled cluster edge `(tag, key, witness)`.
    Sample(u32, u64, u64, Edge),
    /// Owner → large: this machine needs the center history of a
    /// `(level << 32) | vertex` key.
    HistAsk(u64),
    /// Large → asker: the center history of a key.
    HistAns(u64, Vec<u32>),
    /// Owner → owner: a removal candidate `(key, y, witness)`.
    RCand(u64, u64, u32, Edge),
    /// Owner → large: a star edge.
    Star(Edge),
    /// Owner → large: a removal edge.
    Removal(Edge),
    /// Large → smalls: the run is over; halt.
    Finish,
}

impl Payload for SpannerNetMsg {
    fn words(&self) -> usize {
        match self {
            SpannerNetMsg::Levels(_) | SpannerNetMsg::Finish => 1,
            SpannerNetMsg::DegPartial(_, _)
            | SpannerNetMsg::DegUp(_, _)
            | SpannerNetMsg::MaskAns(_, _)
            | SpannerNetMsg::CoverPartial(_, _)
            | SpannerNetMsg::CoverUp(_, _)
            | SpannerNetMsg::BAns(_, _) => 2,
            SpannerNetMsg::MaskAsk(_)
            | SpannerNetMsg::BAsk(_)
            | SpannerNetMsg::SigmaAsk(_)
            | SpannerNetMsg::HistAsk(_) => 1,
            SpannerNetMsg::MaskInfo(_, _, _)
            | SpannerNetMsg::BInfo(_, _, _)
            | SpannerNetMsg::SigmaAns(_, _, _) => 3,
            SpannerNetMsg::CandPartial(_, v) => 1 + v.words(),
            SpannerNetMsg::LevelEdge(_, _, e) => 2 + e.words(),
            SpannerNetMsg::LevelCount(v) => v.words(),
            SpannerNetMsg::Sample(_, _, _, e) => 3 + e.words(),
            SpannerNetMsg::HistAns(_, h) => 1 + h.words(),
            SpannerNetMsg::RCand(_, _, _, e) => 3 + e.words(),
            SpannerNetMsg::Star(e) | SpannerNetMsg::Removal(e) => e.words(),
        }
    }
}

/// Per-machine state of the spanner program.
#[derive(Clone)]
pub struct SpannerProgram {
    n: usize,
    k: usize,
    owners: Owners,
    // ---- small-machine state ----
    /// The input shard (unweighted view; immutable throughout).
    input: Vec<Edge>,
    /// Endpoint index of `input`; the worker tables below are parallel to
    /// its endpoints.
    index: Arc<EndpointIndex>,
    /// Number of clustering levels, from the `Levels` broadcast.
    levels: usize,
    /// Owner role: sampled masks of owned vertices, ascending by vertex.
    mask_store: Vec<(VertexId, u64)>,
    /// Owner role: `(v, (deg, B-mask))` of owned vertices, ascending by
    /// vertex (the large machine's send order).
    binfo: Vec<(VertexId, (u32, u64))>,
    /// Owner role: `(σ_v, deg_v)` of owned vertices, ascending by vertex.
    sigma: Vec<(VertexId, (VertexId, u32))>,
    /// Owner role: star edges of owned vertices (σ-assignment order).
    stars: Vec<Edge>,
    /// Owner role: deduplicated cluster edges, ascending by key.
    cluster_shard: Vec<(LevelEdgeKey, Edge)>,
    /// Worker scratch: masks of this machine's edge endpoints.
    masks_local: Vec<u64>,
    // ---- large-machine state ----
    deg: Vec<u32>,
    sampled_masks: Vec<u64>,
    spanner_edges: Vec<Edge>,
    stats: SpannerStats,
    /// Set on the large machine when it halts.
    pub result: Option<SpannerResult>,
}

impl SpannerProgram {
    /// Builds one program per machine over the sharded (unweighted) input.
    pub fn for_cluster(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        k: usize,
    ) -> Vec<Self> {
        assert!(k >= 2, "spanner parameter k must be at least 2");
        let owners = Owners::of_cluster(cluster);
        assert!(
            cluster.large().is_some() && !owners.ids().is_empty(),
            "spanner requires a large machine and small machines"
        );
        (0..cluster.machines())
            .map(|mid| {
                let input: Vec<Edge> = edges.shard(mid).to_vec();
                let index = EndpointIndex::build(&input);
                SpannerProgram {
                    n,
                    k,
                    owners: owners.clone(),
                    input,
                    levels: 0,
                    mask_store: Vec::new(),
                    binfo: Vec::new(),
                    sigma: Vec::new(),
                    stars: Vec::new(),
                    cluster_shard: Vec::new(),
                    masks_local: index.table(0),
                    index: Arc::new(index),
                    deg: Vec::new(),
                    sampled_masks: Vec::new(),
                    spanner_edges: Vec::new(),
                    stats: SpannerStats::default(),
                    result: None,
                }
            })
            .collect()
    }
}

impl RoleProgram for SpannerProgram {
    type Message = SpannerNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, SpannerNetMsg)>,
    ) -> StepOutcome<SpannerNetMsg> {
        let mut out = Outbox::new();
        match ctx.round {
            // Degrees arrive: fix the level count, draw the hitting sets.
            2 => {
                self.deg = vec![0; self.n];
                for (_src, msg) in inbox {
                    if let SpannerNetMsg::DegUp(v, d) = msg {
                        self.deg[v as usize] = d;
                    }
                }
                let delta = self.deg.iter().copied().max().unwrap_or(0);
                let levels = levels_for_delta(delta);
                assert!(
                    levels * mpc_core::spanner::clustering::HITTING_SET_TRIALS <= 60,
                    "mask packing supports log Δ · trials <= 60"
                );
                self.levels = levels;
                self.stats.levels = levels;
                self.stats.weight_classes = 1;
                for i in 0..levels {
                    let p = sampling_probability(self.k, i);
                    if p >= 1.0 {
                        self.stats.full_levels.push(i);
                    } else {
                        self.stats.sampled_levels.push((i, p));
                    }
                }
                self.sampled_masks = sample_hitting_masks(&mut ctx.rng(), self.n, levels);
                ctx.charge(self.n as u64);
                for v in 0..self.n {
                    if self.deg[v] > 0 {
                        out.send(
                            self.owners.of(&(v as VertexId)),
                            SpannerNetMsg::MaskInfo(
                                v as VertexId,
                                self.deg[v],
                                self.sampled_masks[v],
                            ),
                        );
                    }
                }
                out.broadcast(ctx.small_ids_iter(), SpannerNetMsg::Levels(levels as u32));
            }
            // Coverage arrives: finalize the B-masks.
            7 => {
                let mut covered: Vec<u64> = vec![0; self.n];
                for (_src, msg) in inbox {
                    if let SpannerNetMsg::CoverUp(v, c) = msg {
                        covered[v as usize] = c;
                    }
                }
                let b_mask =
                    finalize_b_masks(&self.deg, &self.sampled_masks, &covered, self.levels);
                ctx.charge(self.n as u64);
                for v in 0..self.n {
                    if self.deg[v] > 0 {
                        out.send(
                            self.owners.of(&(v as VertexId)),
                            SpannerNetMsg::BInfo(v as VertexId, self.deg[v], b_mask[v]),
                        );
                    }
                }
            }
            // Samples + history requests arrive: span every level locally.
            13 => {
                let mut received: Vec<(u32, LevelEdgeKey, Edge)> = Vec::new();
                let mut asks: Vec<(MachineId, u64)> = Vec::new();
                let mut level_counts = vec![0u64; self.levels.max(1)];
                for (src, msg) in inbox {
                    match msg {
                        SpannerNetMsg::Sample(tag, k0, k1, e) => received.push((tag, (k0, k1), e)),
                        SpannerNetMsg::HistAsk(key) => asks.push((src, key)),
                        SpannerNetMsg::LevelCount(counts) => {
                            for (acc, c) in level_counts.iter_mut().zip(counts) {
                                *acc += c;
                            }
                        }
                        _ => {}
                    }
                }
                self.stats.level_edge_counts = level_counts.iter().map(|&c| c as usize).collect();
                let spans = span_levels(self.n, self.k, &received);
                ctx.charge((received.len() + self.n) as u64);
                self.stats.phase1_edges += spans.phase1_edges;
                self.spanner_edges = spans.edges;
                for (src, key) in asks {
                    let level = (key >> 32) as usize;
                    let v = (key & 0xFFFF_FFFF) as VertexId;
                    if let Some(p1) = spans.phase1.get(&level) {
                        out.send(src, SpannerNetMsg::HistAns(key, p1.history(v)));
                    }
                }
            }
            // Stars and removals arrive: combine (Lemma A.2) and finish.
            16 => {
                let mut stars: Vec<Edge> = Vec::new();
                let mut removals: Vec<Edge> = Vec::new();
                for (_src, msg) in inbox {
                    match msg {
                        SpannerNetMsg::Star(e) => stars.push(e),
                        SpannerNetMsg::Removal(e) => removals.push(e),
                        _ => {}
                    }
                }
                self.stats.star_edges = stars.len();
                self.stats.removal_edges = removals.len();
                self.spanner_edges.extend(stars);
                self.spanner_edges.extend(removals);
                let edges = std::mem::take(&mut self.spanner_edges);
                let spanner = Graph::new(self.n, edges.into_iter().map(|e| e.normalized()));
                ctx.charge(spanner.m() as u64);
                self.result = Some(SpannerResult {
                    spanner,
                    stats: std::mem::take(&mut self.stats),
                });
                out.broadcast(ctx.small_ids_iter(), SpannerNetMsg::Finish);
            }
            17 => return StepOutcome::Halt,
            _ => {}
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, SpannerNetMsg)>,
    ) -> StepOutcome<SpannerNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        // Two-pass: stores/partials first, then lookups — owner answers
        // always reflect this round's pushed state.
        let mut deg_sum: Vec<(VertexId, u32)> = Vec::new();
        let mut got_mask_info = false;
        let mut mask_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut cover_or: Vec<(VertexId, u64)> = Vec::new();
        let mut got_binfo = false;
        let mut b_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut bmask_local = self.index.table(0u64);
        let mut got_bans = false;
        let mut cands: Vec<(VertexId, Vec<u32>)> = Vec::new();
        let mut sigma_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut sigma_local = self.index.table((0 as VertexId, 0u32));
        let mut got_sigma = false;
        let mut got_level_edges = false;
        let mut hist: Vec<(u64, Vec<u32>)> = Vec::new();
        let mut rcands: Vec<((u64, u64), (u32, Edge))> = Vec::new();

        for (src, msg) in inbox {
            match msg {
                SpannerNetMsg::Levels(l) => self.levels = l as usize,
                SpannerNetMsg::DegPartial(v, c) => deg_sum.push((v, c)),
                SpannerNetMsg::MaskInfo(v, _d, m) => {
                    got_mask_info = true;
                    self.mask_store.push((v, m));
                }
                SpannerNetMsg::MaskAsk(v) => mask_asks.push((src, v)),
                SpannerNetMsg::MaskAns(v, m) => self.masks_local[self.index.slot_of(v)] = m,
                SpannerNetMsg::CoverPartial(v, m) => cover_or.push((v, m)),
                SpannerNetMsg::BInfo(v, d, bm) => {
                    got_binfo = true;
                    self.binfo.push((v, (d, bm)));
                }
                SpannerNetMsg::BAsk(v) => b_asks.push((src, v)),
                SpannerNetMsg::BAns(v, bm) => {
                    got_bans = true;
                    bmask_local[self.index.slot_of(v)] = bm;
                }
                SpannerNetMsg::CandPartial(v, c) => cands.push((v, c)),
                SpannerNetMsg::SigmaAsk(v) => sigma_asks.push((src, v)),
                SpannerNetMsg::SigmaAns(v, s, d) => {
                    got_sigma = true;
                    sigma_local[self.index.slot_of(v)] = (s, d);
                }
                SpannerNetMsg::LevelEdge(k0, k1, e) => {
                    got_level_edges = true;
                    self.cluster_shard.push(((k0, k1), e));
                }
                SpannerNetMsg::HistAns(key, h) => hist.push((key, h)),
                SpannerNetMsg::RCand(k0, k1, y, e) => rcands.push(((k0, k1), (y, e))),
                SpannerNetMsg::Finish => return StepOutcome::Halt,
                _ => {}
            }
        }

        // ---- round-0 kick-off: degree partials ----
        if ctx.round == 0 {
            announce_degrees(
                &mut out,
                &self.owners,
                &self.index,
                SpannerNetMsg::DegPartial,
            );
        }

        // ---- owner role ----
        fold_by_key(&mut deg_sum, |a, b| *a += *b);
        for (v, d) in deg_sum {
            out.send(large, SpannerNetMsg::DegUp(v, d));
        }
        // The stores keep the last value pushed per vertex, ascending.
        if got_mask_info {
            fold_by_key(&mut self.mask_store, keep_last);
        }
        for (src, v) in mask_asks {
            let mask = sorted_get(&self.mask_store, v).copied().unwrap_or(0);
            out.send(src, SpannerNetMsg::MaskAns(v, mask));
        }
        fold_by_key(&mut cover_or, |a, b| *a |= *b);
        for (v, m) in cover_or {
            out.send(large, SpannerNetMsg::CoverUp(v, m));
        }
        if got_binfo {
            fold_by_key(&mut self.binfo, keep_last);
        }
        for (src, v) in b_asks {
            // Every asked endpoint has deg > 0, so BInfo covers it.
            let bm = sorted_get(&self.binfo, v).map_or(0, |&(_, bm)| bm);
            out.send(src, SpannerNetMsg::BAns(v, bm));
        }
        if !sigma_asks.is_empty() {
            // σ assignment happens exactly once, over the owned vertices
            // ascending (the legacy owner loop order); the candidate
            // partials arrive with the asks.
            if self.sigma.is_empty() {
                fold_by_key(&mut cands, |acc, c| {
                    for (a, b) in acc.iter_mut().zip(c) {
                        *a = (*a).min(*b);
                    }
                });
                for (v, (d, bm)) in std::mem::take(&mut self.binfo) {
                    let cand = sorted_get(&cands, v).map(Vec::as_slice);
                    let (s, _iu) = sigma_for(v, bm, cand, self.levels);
                    self.sigma.push((v, (s, d)));
                    if s != v {
                        self.stars.push(Edge::unweighted(v, s));
                    }
                }
            }
            for (src, v) in sigma_asks {
                let (s, d) = *sorted_get(&self.sigma, v).expect("sigma covers owned vertices");
                out.send(src, SpannerNetMsg::SigmaAns(v, s, d));
            }
        }
        if got_level_edges {
            // The shard is complete this round: deduplicate keeping the
            // smallest witness, report counts, draw the per-level
            // subsamples in key order (the legacy shard order and the
            // legacy per-machine RNG order), request histories.
            fold_by_key(&mut self.cluster_shard, |acc, e| {
                if e < acc {
                    *acc = *e;
                }
            });
            let mut counts = vec![0u64; self.levels.max(1)];
            for (key, _) in &self.cluster_shard {
                counts[unpack_level_edge(key).0] += 1;
            }
            out.send(large, SpannerNetMsg::LevelCount(counts));
            let mut hist_keys: Vec<u64> = Vec::new();
            let mut rng = ctx.rng();
            for (key, orig) in &self.cluster_shard {
                let (i, a, b) = unpack_level_edge(key);
                let p = sampling_probability(self.k, i);
                if p >= 1.0 {
                    out.send(
                        large,
                        SpannerNetMsg::Sample((i as u32) << 8, key.0, key.1, *orig),
                    );
                } else {
                    for j in 1..self.k as u32 {
                        if rng.random_bool(p) {
                            out.send(
                                large,
                                SpannerNetMsg::Sample(((i as u32) << 8) | j, key.0, key.1, *orig),
                            );
                        }
                    }
                    hist_keys.push(((i as u64) << 32) | a as u64);
                    hist_keys.push(((i as u64) << 32) | b as u64);
                }
            }
            ctx.charge(self.cluster_shard.len() as u64);
            hist_keys.sort_unstable();
            hist_keys.dedup();
            for key in hist_keys {
                out.send(large, SpannerNetMsg::HistAsk(key));
            }
        }
        if !hist.is_empty() {
            // Removal candidates over this machine's cluster edges.
            hist.sort_by_key(|&(key, _)| key);
            for (key, orig) in &self.cluster_shard {
                let (i, a, b) = unpack_level_edge(key);
                let (Some(ha), Some(hb)) = (
                    sorted_get(&hist, ((i as u64) << 32) | a as u64),
                    sorted_get(&hist, ((i as u64) << 32) | b as u64),
                ) else {
                    continue;
                };
                for (ck, cv) in removal_candidates_for(i, a, b, ha, hb, *orig) {
                    out.send(
                        self.owners.of(&ck),
                        SpannerNetMsg::RCand(ck.0, ck.1, cv.0, cv.1),
                    );
                }
            }
        }
        fold_by_key(&mut rcands, |acc, c| {
            if c.0 < acc.0 {
                *acc = *c;
            }
        });
        for (_key, (_y, orig)) in rcands {
            out.send(large, SpannerNetMsg::Removal(orig));
        }
        // Stars ship together with the removals (round 15).
        if ctx.round == 15 {
            for e in self.stars.drain(..) {
                out.send(large, SpannerNetMsg::Star(e));
            }
        }

        // ---- worker clock ----
        match ctx.round {
            // Levels received: look up endpoint masks.
            3 => {
                for &v in self.index.endpoints() {
                    out.send(self.owners.of(&v), SpannerNetMsg::MaskAsk(v));
                }
            }
            // Masks received: coverage partials (OR of neighbor masks).
            5 => {
                let mut acc = self.index.table(0u64);
                for &[a, b] in self.index.slots() {
                    acc[a as usize] |= self.masks_local[b as usize];
                    acc[b as usize] |= self.masks_local[a as usize];
                }
                for (&v, m) in self.index.endpoints().iter().zip(acc) {
                    out.send(self.owners.of(&v), SpannerNetMsg::CoverPartial(v, m));
                }
            }
            // B-masks are at the owners next round: ask.
            7 => {
                for &v in self.index.endpoints() {
                    out.send(self.owners.of(&v), SpannerNetMsg::BAsk(v));
                }
            }
            _ => {}
        }
        // B-masks received: candidate partials + σ lookups.
        if got_bans {
            let slots = self.index.slots();
            let per_vertex = min_neighbor_candidates(self.levels, &self.input, |i| {
                let [a, b] = slots[i];
                (bmask_local[a as usize], bmask_local[b as usize])
            });
            for (v, c) in per_vertex {
                out.send(self.owners.of(&v), SpannerNetMsg::CandPartial(v, c));
            }
            for &v in self.index.endpoints() {
                out.send(self.owners.of(&v), SpannerNetMsg::SigmaAsk(v));
            }
        }
        // σ received: emit the cluster edges.
        if got_sigma {
            for (e, &[a, b]) in self.input.iter().zip(self.index.slots()) {
                let (su, du) = sigma_local[a as usize];
                let (sv, dv) = sigma_local[b as usize];
                if su == sv {
                    continue;
                }
                let level = edge_level(du, dv, self.levels);
                let key = level_edge_key(level, su, sv);
                out.send(
                    self.owners.of(&key),
                    SpannerNetMsg::LevelEdge(key.0, key.1, *e),
                );
            }
        }

        out.into_step()
    }
}
