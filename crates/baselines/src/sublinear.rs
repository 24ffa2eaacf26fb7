//! Sublinear-regime baselines (Table 1, left column): no large machine.

use crate::contraction::{boruvka_contraction, ContractionResult};
use mpc_graph::coloring::Color;
use mpc_graph::distribution::{shard_edges, Layout};
use mpc_graph::matching::Matching;
use mpc_graph::{Edge, Graph, VertexId};
use mpc_runtime::primitives::{aggregate_by_key, lookup, sum_to};
use mpc_runtime::{Cluster, ClusterConfig, ModelViolation, ShardedVec, Topology};
use rand::Rng;

/// A sublinear cluster configuration for an `(n, m)` input.
pub fn sublinear_config(n: usize, m: usize, seed: u64) -> ClusterConfig {
    ClusterConfig::new(n, m)
        .topology(Topology::Sublinear { gamma: 0.66 })
        .seed(seed)
}

/// Distributes edges across **all** machines of a (sublinear) cluster.
pub fn distribute_all(cluster: &Cluster, g: &Graph) -> ShardedVec<Edge> {
    let machines: Vec<usize> = (0..cluster.machines()).collect();
    let shards = shard_edges(g.edges(), machines.len(), Layout::RoundRobin);
    let mut sv = ShardedVec::new(cluster);
    for (i, s) in shards.into_iter().enumerate() {
        *sv.shard_mut(machines[i]) = s;
    }
    sv
}

/// Sublinear MST: distributed Borůvka (`O(log n)` phases, hooking +
/// pointer jumping). Returns the MSF edges.
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn sublinear_mst(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
) -> Result<ContractionResult, ModelViolation> {
    boruvka_contraction(cluster, n, edges)
}

/// The 1-vs-2-cycle baseline: counts components the sublinear way and
/// reports `true` for a single cycle. Rounds grow with `log n` — the
/// contrast to the `O(1)` rounds of the heterogeneous connectivity port
/// (the `connectivity` registry entry).
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn two_vs_one_cycle_baseline(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
) -> Result<bool, ModelViolation> {
    let r = boruvka_contraction(cluster, n, edges)?;
    let mut distinct: Vec<VertexId> = r.labels.iter().map(|(_, (_v, l))| *l).collect();
    distinct.sort_unstable();
    distinct.dedup();
    Ok(distinct.len() == 1)
}

/// Sublinear maximal matching: the peeling matcher over the whole graph
/// (`O(log n)` iterations — contrast with the heterogeneous three-phase
/// algorithm whose rounds track the *average degree* only).
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn sublinear_matching(
    cluster: &mut Cluster,
    edges: &ShardedVec<Edge>,
) -> Result<(Matching, usize), ModelViolation> {
    let empty: ShardedVec<(VertexId, u32)> = ShardedVec::new(cluster);
    let out = mpc_core::matching::peeling::peeling_matching(cluster, edges, &empty, "base.match")?;
    let matching = Matching {
        edges: out.matching.iter().map(|(_, e)| *e).collect(),
    };
    Ok((matching, out.iterations))
}

/// Sublinear MIS: Luby's algorithm — every live vertex draws a random
/// priority each round and joins iff it beats all live neighbors.
/// `O(log n)` iterations w.h.p.
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn sublinear_mis(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
) -> Result<(Vec<VertexId>, usize), ModelViolation> {
    let owners: Vec<usize> = (0..cluster.machines())
        .filter(|&m| Some(m) != cluster.large())
        .collect();
    let participants: Vec<usize> = (0..cluster.machines()).collect();
    let coordinator = owners[0];
    let mut live: ShardedVec<Edge> = ShardedVec::from_shards(
        (0..edges.machines())
            .map(|mid| edges.shard(mid).to_vec())
            .collect(),
    );
    // Vertex state at owners: 0 = undecided, 1 = in MIS, 2 = dominated.
    let mut state: ShardedVec<(VertexId, u32)> = {
        let mut items: ShardedVec<(VertexId, u32)> = ShardedVec::new(cluster);
        for mid in 0..edges.machines() {
            for e in edges.shard(mid) {
                items.shard_mut(mid).push((e.u, 0));
                items.shard_mut(mid).push((e.v, 0));
            }
        }
        aggregate_by_key(cluster, "luby.init", &items, &owners, |a, _| *a)?
    };
    let mut iterations = 0usize;
    loop {
        let counts: Vec<u64> = (0..cluster.machines())
            .map(|mid| live.shard(mid).len() as u64)
            .collect();
        let total = sum_to(cluster, "luby.count", &participants, counts, coordinator)?;
        if total == 0 {
            break;
        }
        iterations += 1;
        // Priorities drawn at owners for undecided vertices.
        let mut prio: ShardedVec<(VertexId, u64)> = ShardedVec::new(cluster);
        for mid in 0..state.machines() {
            let mut draws: Vec<(VertexId, u64)> = Vec::new();
            for (v, s) in state.shard(mid) {
                if *s == 0 {
                    draws.push((*v, cluster.rng(mid).random()));
                }
            }
            prio.shard_mut(mid).extend(draws);
        }
        // Machines learn the priorities of their edges' endpoints; a vertex
        // survives iff its priority beats every live neighbor: compute the
        // min neighbor priority per vertex by aggregation.
        let requests = endpoints(cluster, &live);
        let got = lookup(cluster, "luby.prio", &prio, &requests, &owners)?;
        let mut nbr_min: ShardedVec<(VertexId, u64)> = ShardedVec::new(cluster);
        for mid in 0..live.machines() {
            let p: std::collections::HashMap<VertexId, u64> =
                got.shard(mid).iter().copied().collect();
            let shard = nbr_min.shard_mut(mid);
            for e in live.shard(mid) {
                if let (Some(&pu), Some(&pv)) = (p.get(&e.u), p.get(&e.v)) {
                    shard.push((e.u, pv));
                    shard.push((e.v, pu));
                }
            }
        }
        let nbr = aggregate_by_key(cluster, "luby.nbrmin", &nbr_min, &owners, |a, b| {
            (*a).min(*b)
        })?;
        // Owners decide: undecided vertex with prio < min neighbor joins.
        let mut joined: Vec<(VertexId, u32)> = Vec::new();
        for mid in 0..state.machines() {
            let my_prio: std::collections::HashMap<VertexId, u64> =
                prio.shard(mid).iter().copied().collect();
            let nb: std::collections::HashMap<VertexId, u64> =
                nbr.shard(mid).iter().copied().collect();
            for (v, s) in state.shard_mut(mid).iter_mut() {
                if *s != 0 {
                    continue;
                }
                let Some(&p) = my_prio.get(v) else { continue };
                match nb.get(v) {
                    None => {
                        // No live neighbor: join unconditionally.
                        *s = 1;
                        joined.push((*v, 1));
                    }
                    Some(&q) if p < q => {
                        *s = 1;
                        joined.push((*v, 1));
                    }
                    _ => {}
                }
            }
        }
        // Dominate neighbors of joiners and prune their edges: lookup the
        // joined set, mark, drop.
        let joined_store: ShardedVec<(VertexId, u32)> = {
            let mut sv: ShardedVec<(VertexId, u32)> = ShardedVec::new(cluster);
            for (v, f) in &joined {
                sv.shard_mut(mpc_runtime::primitives::owner_of(v, &owners))
                    .push((*v, *f));
            }
            for mid in 0..sv.machines() {
                sv.shard_mut(mid).sort_unstable();
                sv.shard_mut(mid).dedup();
            }
            sv
        };
        let requests = endpoints(cluster, &live);
        let j = lookup(cluster, "luby.joined", &joined_store, &requests, &owners)?;
        let mut dominated: ShardedVec<(VertexId, u32)> = ShardedVec::new(cluster);
        for mid in 0..live.machines() {
            let joined_set: std::collections::HashSet<VertexId> =
                j.shard(mid).iter().map(|(v, _)| *v).collect();
            let shard = dominated.shard_mut(mid);
            for e in live.shard(mid) {
                if joined_set.contains(&e.u) {
                    shard.push((e.v, 2));
                }
                if joined_set.contains(&e.v) {
                    shard.push((e.u, 2));
                }
            }
            live.shard_mut(mid)
                .retain(|e| !joined_set.contains(&e.u) && !joined_set.contains(&e.v));
        }
        let dom = aggregate_by_key(cluster, "luby.dom", &dominated, &owners, |a, _| *a)?;
        for mid in 0..state.machines() {
            let d: std::collections::HashSet<VertexId> =
                dom.shard(mid).iter().map(|(v, _)| *v).collect();
            for (v, s) in state.shard_mut(mid).iter_mut() {
                if *s == 0 && d.contains(v) {
                    *s = 2;
                }
            }
        }
        // Prune edges with dominated endpoints too.
        let requests = endpoints(cluster, &live);
        let st = lookup(cluster, "luby.state", &state, &requests, &owners)?;
        for mid in 0..live.machines() {
            let dead: std::collections::HashSet<VertexId> = st
                .shard(mid)
                .iter()
                .filter(|(_, s)| *s != 0)
                .map(|(v, _)| *v)
                .collect();
            live.shard_mut(mid)
                .retain(|e| !dead.contains(&e.u) && !dead.contains(&e.v));
        }
    }
    // Isolated vertices join by default; vertices still undecided when the
    // live set drained have only dominated (non-MIS) neighbors left — they
    // join too, which maximality requires, and they are mutually
    // non-adjacent (a live edge between two undecided vertices would have
    // kept the loop running).
    let mut in_mis: Vec<bool> = vec![true; n];
    for (_mid, (v, s)) in state.iter() {
        in_mis[*v as usize] = *s != 2;
    }
    let mis = (0..n as VertexId).filter(|&v| in_mis[v as usize]).collect();
    Ok((mis, iterations))
}

/// Sublinear (Δ+1)-coloring: iterated random color trials — every live
/// vertex picks a uniform color from its remaining palette; it keeps the
/// color if no neighbor picked the same one. `O(log n)` iterations w.h.p.
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn sublinear_coloring(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    delta: usize,
) -> Result<(Vec<Color>, usize), ModelViolation> {
    let owners: Vec<usize> = (0..cluster.machines())
        .filter(|&m| Some(m) != cluster.large())
        .collect();
    let participants: Vec<usize> = (0..cluster.machines()).collect();
    let coordinator = owners[0];
    let mut live: ShardedVec<Edge> = ShardedVec::from_shards(
        (0..edges.machines())
            .map(|mid| edges.shard(mid).to_vec())
            .collect(),
    );
    // Final colors, u32::MAX = undecided; owner-resident.
    let mut colors: ShardedVec<(VertexId, u32)> = {
        let mut items: ShardedVec<(VertexId, u32)> = ShardedVec::new(cluster);
        for mid in 0..edges.machines() {
            for e in edges.shard(mid) {
                items.shard_mut(mid).push((e.u, u32::MAX));
                items.shard_mut(mid).push((e.v, u32::MAX));
            }
        }
        aggregate_by_key(cluster, "rcolor.init", &items, &owners, |a, _| *a)?
    };
    let mut iterations = 0usize;
    loop {
        let counts: Vec<u64> = (0..cluster.machines())
            .map(|mid| live.shard(mid).len() as u64)
            .collect();
        let total = sum_to(cluster, "rcolor.count", &participants, counts, coordinator)?;
        if total == 0 {
            break;
        }
        iterations += 1;
        // Trial colors for undecided vertices.
        let mut trial: ShardedVec<(VertexId, u32)> = ShardedVec::new(cluster);
        for mid in 0..colors.machines() {
            let mut draws: Vec<(VertexId, u32)> = Vec::new();
            for (v, c) in colors.shard(mid) {
                if *c == u32::MAX {
                    draws.push((*v, cluster.rng(mid).random_range(0..=delta as u32)));
                }
            }
            trial.shard_mut(mid).extend(draws);
        }
        // Conflicts: neighbors that picked the same trial color, plus
        // already-fixed neighbor colors equal to the trial.
        let requests = endpoints(cluster, &live);
        let tr = lookup(cluster, "rcolor.trial", &trial, &requests, &owners)?;
        let fixed = lookup(cluster, "rcolor.fixed", &colors, &requests, &owners)?;
        let mut clashes: ShardedVec<(VertexId, u32)> = ShardedVec::new(cluster);
        for mid in 0..live.machines() {
            let t: std::collections::HashMap<VertexId, u32> =
                tr.shard(mid).iter().copied().collect();
            let f: std::collections::HashMap<VertexId, u32> =
                fixed.shard(mid).iter().copied().collect();
            let shard = clashes.shard_mut(mid);
            for e in live.shard(mid) {
                let (tu, tv) = (t.get(&e.u), t.get(&e.v));
                let (fu, fv) = (f.get(&e.u).copied(), f.get(&e.v).copied());
                if let (Some(&a), Some(&b)) = (tu, tv) {
                    if a == b {
                        shard.push((e.u, 1));
                        shard.push((e.v, 1));
                    }
                }
                if let (Some(&a), Some(b)) = (tu, fv) {
                    if b != u32::MAX && a == b {
                        shard.push((e.u, 1));
                    }
                }
                if let (Some(&a), Some(b)) = (tv, fu) {
                    if b != u32::MAX && a == b {
                        shard.push((e.v, 1));
                    }
                }
            }
        }
        let clash = aggregate_by_key(cluster, "rcolor.clash", &clashes, &owners, |a, _| *a)?;
        // Owners commit clash-free trials.
        for mid in 0..colors.machines() {
            let t: std::collections::HashMap<VertexId, u32> =
                trial.shard(mid).iter().copied().collect();
            let bad: std::collections::HashSet<VertexId> =
                clash.shard(mid).iter().map(|(v, _)| *v).collect();
            for (v, c) in colors.shard_mut(mid).iter_mut() {
                if *c == u32::MAX {
                    if let Some(&tc) = t.get(v) {
                        if !bad.contains(v) {
                            *c = tc;
                        }
                    }
                }
            }
        }
        // Prune edges whose endpoints are both colored.
        let requests = endpoints(cluster, &live);
        let st = lookup(cluster, "rcolor.state", &colors, &requests, &owners)?;
        for mid in 0..live.machines() {
            let f: std::collections::HashMap<VertexId, u32> =
                st.shard(mid).iter().copied().collect();
            live.shard_mut(mid)
                .retain(|e| f[&e.u] == u32::MAX || f[&e.v] == u32::MAX);
        }
    }
    let mut out: Vec<Color> = vec![0; n];
    for (_mid, (v, c)) in colors.iter() {
        out[*v as usize] = if *c == u32::MAX { 0 } else { *c };
    }
    Ok((out, iterations))
}

fn endpoints(cluster: &Cluster, edges: &ShardedVec<Edge>) -> ShardedVec<VertexId> {
    let mut req: ShardedVec<VertexId> = ShardedVec::new(cluster);
    for mid in 0..edges.machines() {
        let shard = req.shard_mut(mid);
        for e in edges.shard(mid) {
            shard.push(e.u);
            shard.push(e.v);
        }
        shard.sort_unstable();
        shard.dedup();
    }
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::coloring::is_proper_coloring;
    use mpc_graph::generators;
    use mpc_graph::matching::is_maximal_matching;
    use mpc_graph::mis::is_maximal_independent_set;

    #[test]
    fn matching_baseline_is_maximal() {
        let g = generators::gnm(100, 500, 1);
        let mut cluster = Cluster::new(sublinear_config(g.n(), g.m(), 1));
        let input = distribute_all(&cluster, &g);
        let (m, iters) = sublinear_matching(&mut cluster, &input).unwrap();
        assert!(is_maximal_matching(&g, &m));
        assert!(iters >= 1);
    }

    #[test]
    fn mis_baseline_is_maximal() {
        for seed in 0..3 {
            let g = generators::gnm(80, 400, seed);
            let mut cluster = Cluster::new(sublinear_config(g.n(), g.m(), seed));
            let input = distribute_all(&cluster, &g);
            let (mis, _) = sublinear_mis(&mut cluster, g.n(), &input).unwrap();
            assert!(is_maximal_independent_set(&g, &mis), "seed {seed}");
        }
    }

    #[test]
    fn coloring_baseline_is_proper() {
        let g = generators::gnm(80, 500, 2);
        let mut cluster = Cluster::new(sublinear_config(g.n(), g.m(), 2));
        let input = distribute_all(&cluster, &g);
        let delta = g.max_degree();
        let (colors, _) = sublinear_coloring(&mut cluster, g.n(), &input, delta).unwrap();
        assert!(is_proper_coloring(&g, &colors));
        assert!(colors.iter().all(|&c| (c as usize) <= delta));
    }

    #[test]
    fn cycle_detector_distinguishes() {
        let one = generators::cycle(64, 5).with_random_weights(100, 5);
        let mut c1 = Cluster::new(sublinear_config(64, 64, 5));
        let i1 = distribute_all(&c1, &one);
        assert!(two_vs_one_cycle_baseline(&mut c1, 64, &i1).unwrap());

        let two = generators::two_cycles(64, 5).with_random_weights(100, 5);
        let mut c2 = Cluster::new(sublinear_config(64, 64, 5));
        let i2 = distribute_all(&c2, &two);
        assert!(!two_vs_one_cycle_baseline(&mut c2, 64, &i2).unwrap());
    }
}
