//! The experiment implementations (index: DESIGN.md §3).
//!
//! Every experiment prints markdown tables whose rows feed EXPERIMENTS.md.
//! Independent repetitions run on crossbeam scoped threads — the
//! simulator is deterministic per seed, so parallelism never changes
//! results, only wall-clock.

use crate::Table;
use mpc_baselines::near_linear::near_linear_config;
use mpc_baselines::sublinear::{
    distribute_all, sublinear_coloring, sublinear_config, sublinear_matching, sublinear_mis,
    sublinear_mst, two_vs_one_cycle_baseline,
};
use mpc_core::ported::connectivity::sketch_friendly_config;
use mpc_core::spanner::baswana_sen;
use mpc_core::{common, matching, mst, ported, spanner};
use mpc_graph::{generators, Graph};
use mpc_runtime::{Cluster, ClusterConfig, Topology};

fn het_cluster(g: &Graph, seed: u64) -> Cluster {
    Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed))
}

/// Runs a registry algorithm on its preferred heterogeneous engine cluster
/// (the algorithm's declared polylog headroom), returning the output and
/// the measured engine rounds — the standard way every experiment invokes
/// the ported algorithms since the registry became the sole
/// consumer-facing entry point.
fn run_registry(
    name: &str,
    g: &Graph,
    seed: u64,
    tweak: impl for<'a> FnOnce(mpc_exec::AlgoInput<'a>) -> mpc_exec::AlgoInput<'a>,
) -> (mpc_exec::AlgoOutput, u64) {
    let polylog = mpc_exec::registry::get(name)
        .expect("registered algorithm")
        .polylog_exponent;
    let mut c = Cluster::new(
        ClusterConfig::new(g.n(), g.m().max(1))
            .seed(seed)
            .polylog_exponent(polylog),
    );
    let input = common::distribute_edges(&c, g);
    let algo_input = tweak(mpc_exec::AlgoInput::new(g.n(), &input));
    let out = mpc_exec::registry::run(name, &mut c, &algo_input, mpc_exec::ExecMode::Parallel)
        .expect("registry run");
    (out, c.rounds())
}

fn run_het_mst(g: &Graph, seed: u64) -> (mst::MstResult, u64) {
    let (out, rounds) = run_registry("mst", g, seed, |i| i);
    (out.into_mst().expect("mst output"), rounds)
}

fn run_sub_mst(g: &Graph, seed: u64) -> (usize, u64) {
    let mut cluster = Cluster::new(sublinear_config(g.n(), g.m(), seed));
    let input = distribute_all(&cluster, g);
    let r = sublinear_mst(&mut cluster, g.n(), &input).expect("sub mst");
    (r.phases, cluster.rounds())
}

/// E1: Table 1 — measured rounds per problem per regime on a common
/// workload (`n = 512`, `m/n = 16`, random weights). Cells marked `lit.`
/// quote the literature bound where the regime's best algorithm is outside
/// this reproduction's scope (see DESIGN.md §4).
pub fn table1() {
    println!("\n## E1 — Table 1 (measured rounds; n=512, m/n=16)\n");
    let n = 512;
    let g = generators::gnm(n, n * 16, 42).with_random_weights(1 << 18, 42);
    let gu = generators::gnm(n, n * 16, 42); // unweighted view
    let mut t = Table::new(&[
        "problem",
        "sublinear (measured)",
        "heterogeneous (measured)",
        "near-linear (measured)",
        "paper het. bound",
    ]);

    // Connectivity.
    let (_, het) = run_registry("connectivity", &gu, 1, |i| i);
    let sub = {
        let mut c = Cluster::new(sublinear_config(n, g.m(), 1));
        let input = distribute_all(&c, &g);
        sublinear_mst(&mut c, n, &input).unwrap();
        c.rounds()
    };
    let nl = {
        // Near-linear capacities derived from the sketch-friendly polylog
        // budget (capacities must be computed *after* setting the budget).
        let base = sketch_friendly_config(n, g.m(), 1);
        let cap = base.capacity_for_exponent(1.0);
        let machines = (g.m() / n).max(2) + 1;
        let mut c = Cluster::new(base.topology(Topology::Custom {
            capacities: vec![cap; machines],
            large: Some(0),
        }));
        let input = common::distribute_edges(&c, &gu);
        mpc_exec::registry::run(
            "connectivity",
            &mut c,
            &mpc_exec::AlgoInput::new(n, &input),
            mpc_exec::ExecMode::Parallel,
        )
        .unwrap();
        c.rounds()
    };
    t.row(&[
        "connectivity".into(),
        format!("{sub}"),
        format!("{het}"),
        format!("{nl}"),
        "O(1)".into(),
    ]);

    // MST.
    let (_, het) = run_het_mst(&g, 2);
    let (_, sub) = run_sub_mst(&g, 2);
    let nl = {
        let mut c = Cluster::new(near_linear_config(n, g.m(), 2));
        let input = common::distribute_edges(&c, &g);
        mpc_exec::registry::run(
            "mst",
            &mut c,
            &mpc_exec::AlgoInput::new(n, &input),
            mpc_exec::ExecMode::Parallel,
        )
        .unwrap();
        c.rounds()
    };
    t.row(&[
        "MST".into(),
        format!("{sub}"),
        format!("{het}"),
        format!("{nl}"),
        "O(log log(m/n))".into(),
    ]);

    // (1+eps)-approx MST — every threshold wave interleaved through the
    // multi-program scheduler, so the measured rounds *are* the parallel
    // figure.
    let (_, het) = run_registry("mst-approx", &g, 3, |i| i.epsilon(0.5));
    t.row(&[
        "(1+eps)-approx MST".into(),
        "lit. O(log n)".into(),
        format!("{het} (batched)"),
        format!("{het}"),
        "O(1)".into(),
    ]);

    // Spanner.
    let (_, het) = run_registry("spanner", &gu, 4, |i| i.spanner_k(3));
    t.row(&[
        "O(k)-spanner".into(),
        "lit. O(log k)".into(),
        format!("{het}"),
        format!("{het} (same impl.)"),
        "O(1)".into(),
    ]);

    // Exact unweighted min cut.
    let pc = generators::planted_cut(n / 2, 0.05, 4, 5);
    let (_, het) = run_registry("mincut", &pc, 5, |i| i.mincut_trials(4));
    t.row(&[
        "exact unweighted min cut".into(),
        "lit. O(polylog n)".into(),
        format!("{het} (4 trials)"),
        format!("{het}"),
        "O(1)".into(),
    ]);

    // Approx weighted min cut — all λ̂ guesses interleaved, measured
    // rounds are the parallel figure.
    let (_, het) = run_registry("mincut-approx", &pc, 6, |i| i.epsilon(0.3));
    t.row(&[
        "(1±eps) weighted min cut".into(),
        "lit. O(log n loglog n)".into(),
        format!("{het} (batched)"),
        format!("{het}"),
        "O(1)".into(),
    ]);

    // Coloring.
    let (_, het) = run_registry("coloring", &gu, 7, |i| i);
    let sub = {
        let mut c = Cluster::new(sublinear_config(n, g.m(), 7));
        let input = distribute_all(&c, &gu);
        sublinear_coloring(&mut c, n, &input, gu.max_degree()).unwrap();
        c.rounds()
    };
    t.row(&[
        "(Δ+1) coloring".into(),
        format!("{sub}"),
        format!("{het}"),
        format!("{het} (same impl.)"),
        "O(1)".into(),
    ]);

    // MIS.
    let (_, het) = run_registry("mis", &gu, 8, |i| i);
    let sub = {
        let mut c = Cluster::new(sublinear_config(n, g.m(), 8));
        let input = distribute_all(&c, &gu);
        sublinear_mis(&mut c, n, &input).unwrap();
        c.rounds()
    };
    t.row(&[
        "maximal independent set".into(),
        format!("{sub}"),
        format!("{het}"),
        format!("{het} (same impl.)"),
        "O(log log Δ)".into(),
    ]);

    // Maximal matching.
    let (_, het) = run_registry("matching", &gu, 9, |i| i);
    let sub = {
        let mut c = Cluster::new(sublinear_config(n, g.m(), 9));
        let input = distribute_all(&c, &gu);
        sublinear_matching(&mut c, &input).unwrap();
        c.rounds()
    };
    t.row(&[
        "maximal matching".into(),
        format!("{sub}"),
        format!("{het}"),
        format!("{het} (same impl.)"),
        "O(sqrt(log(m/n) loglog(m/n)))".into(),
    ]);

    t.print();
}

/// E2: MST rounds vs. density and vs. n (§3's `O(log log(m/n))` shape).
pub fn mst_scaling() {
    println!("\n## E2 — MST scaling (Theorem: O(log log(m/n)) rounds)\n");
    println!("### density sweep at n = 1024 (tight budget exposes the schedule)\n");
    let mut t = Table::new(&[
        "m/n",
        "het rounds",
        "Boruvka steps",
        "sublinear rounds",
        "sublinear phases",
    ]);
    let n = 1024;
    for &density in &[4usize, 8, 16, 32, 64, 128] {
        let g = generators::gnm(n, n * density, 7).with_random_weights(1 << 20, 7);
        // Tight collection budget: the doubly-exponential schedule shows.
        let mut c = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(7).mem_constant(3.0));
        let input = common::distribute_edges(&c, &g);
        let r = mst::heterogeneous_mst(&mut c, g.n(), input).unwrap();
        assert!(mst::is_minimum_spanning_forest(&g, &r.forest));
        let (phases, sub_rounds) = run_sub_mst(&g, 7);
        t.rowd(&[
            density.to_string(),
            c.rounds().to_string(),
            r.stats.boruvka_steps.to_string(),
            sub_rounds.to_string(),
            phases.to_string(),
        ]);
    }
    t.print();

    println!("\n### n sweep at m/n = 16 (het flat, sublinear grows)\n");
    let mut t = Table::new(&["n", "het rounds", "sublinear rounds"]);
    for &exp in &[8usize, 9, 10, 11] {
        let n = 1 << exp;
        let g = generators::gnm(n, n * 16, 3).with_random_weights(1 << 20, 3);
        let (_, het) = run_het_mst(&g, 3);
        let (_, sub) = run_sub_mst(&g, 3);
        t.rowd(&[n.to_string(), het.to_string(), sub.to_string()]);
    }
    t.print();
}

/// E3: the generalized Theorem 3.1 — a superlinear large machine shrinks
/// the Borůvka schedule.
pub fn mst_superlinear() {
    println!("\n## E3 — MST with a superlinear large machine (Theorem 3.1)\n");
    let n = 512;
    let g = generators::gnm(n, n * 64, 5).with_random_weights(1 << 20, 5);
    let mut t = Table::new(&["f (memory n^(1+f))", "rounds", "Boruvka steps"]);
    for &f in &[0.0f64, 0.1, 0.2, 0.4, 0.7] {
        let mut c = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .topology(Topology::Heterogeneous {
                    gamma: 0.5,
                    large_exponent: 1.0 + f,
                })
                .mem_constant(4.0)
                .seed(5),
        );
        let input = common::distribute_edges(&c, &g);
        let r = mst::heterogeneous_mst(&mut c, g.n(), input).unwrap();
        assert!(mst::is_minimum_spanning_forest(&g, &r.forest));
        t.rowd(&[
            format!("{f:.1}"),
            c.rounds().to_string(),
            r.stats.boruvka_steps.to_string(),
        ]);
    }
    t.print();
}

/// E4: spanner size/stretch/rounds vs. k and vs. n (Theorem 4.1).
pub fn spanner() {
    println!("\n## E4 — spanner (Theorem 4.1: O(1) rounds, size O(n^(1+1/k)), stretch ≤ 6k−1)\n");
    println!("### k sweep at n = 512, m/n = 16\n");
    let n = 512;
    let g = generators::gnm(n, n * 16, 9);
    let mut t = Table::new(&[
        "k",
        "rounds",
        "|H|",
        "|H| / n^(1+1/k)",
        "stretch bound",
        "measured stretch",
    ]);
    for &k in &[2usize, 3, 4, 6] {
        let mut c = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(9)
                .polylog_exponent(1.6),
        );
        let input = common::distribute_edges(&c, &g);
        let r = spanner::heterogeneous_spanner(&mut c, g.n(), &input, k).unwrap();
        let rep = mpc_graph::verify_spanner(&g, &r.spanner, Some(16), 1);
        let norm = r.spanner.m() as f64 / (n as f64).powf(1.0 + 1.0 / k as f64);
        t.rowd(&[
            k.to_string(),
            c.rounds().to_string(),
            r.spanner.m().to_string(),
            format!("{norm:.2}"),
            (6 * k - 1).to_string(),
            format!("{:.2}", rep.max_stretch),
        ]);
    }
    t.print();

    println!("\n### n sweep at k = 3 (rounds stay flat)\n");
    let mut t = Table::new(&["n", "rounds", "|H|/n^(4/3)"]);
    for &exp in &[8usize, 9, 10] {
        let n = 1 << exp;
        let g = generators::gnm(n, n * 12, 4);
        let mut c = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(4)
                .polylog_exponent(1.6),
        );
        let input = common::distribute_edges(&c, &g);
        let r = spanner::heterogeneous_spanner(&mut c, g.n(), &input, 3).unwrap();
        let norm = r.spanner.m() as f64 / (n as f64).powf(4.0 / 3.0);
        t.rowd(&[n.to_string(), c.rounds().to_string(), format!("{norm:.2}")]);
    }
    t.print();
}

/// E5: Lemma 4.3 ablation — modified Baswana–Sen size scales like `1/p`.
pub fn baswana_ablation() {
    println!("\n## E5 — modified Baswana–Sen size vs p (Lemma 4.3: O(k·n^(1+1/k)/p))\n");
    let g = generators::gnm(400, 8000, 11);
    let k = 3;
    let norm = (k as f64) * (g.n() as f64).powf(1.0 + 1.0 / k as f64);
    let mut t = Table::new(&["p", "size (avg of 5 seeds)", "size·p / (k·n^(1+1/k))"]);
    for &p in &[1.0f64, 0.6, 0.3, 0.15, 0.08] {
        let avg: f64 = (0..5)
            .map(|s| baswana_sen::modified_baswana_sen(&g, k, p, 100 + s).0.m() as f64)
            .sum::<f64>()
            / 5.0;
        t.rowd(&[
            format!("{p:.2}"),
            format!("{avg:.0}"),
            format!("{:.3}", avg * p / norm),
        ]);
    }
    t.print();
    println!("\n(The last column being ~flat is the 1/p law of Lemma 4.3.)");
}

/// E6: Figure 1 — per-level behaviour of original vs. modified BS.
pub fn figure1() {
    println!("\n## E6 — Figure 1: original vs modified Baswana–Sen, per level\n");
    let g = generators::gnm(400, 6000, 13);
    let k = 4;
    let (h_orig, p_orig) = baswana_sen::baswana_sen(&g, k, 21);
    let (h_mod, p_mod) = baswana_sen::modified_baswana_sen(&g, k, 0.2, 21);
    let mut t = Table::new(&[
        "level",
        "orig retained",
        "orig reclustered",
        "orig removed",
        "mod retained",
        "mod reclustered",
        "mod removed",
    ]);
    for i in 0..k {
        let a = &p_orig.stats[i];
        let b = &p_mod.stats[i];
        t.rowd(&[
            (i + 1).to_string(),
            a.retained.to_string(),
            a.reclustered.to_string(),
            a.removed.to_string(),
            b.retained.to_string(),
            b.reclustered.to_string(),
            b.removed.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nspanner sizes: original {} edges, modified (p=0.2) {} edges",
        h_orig.m(),
        h_mod.m()
    );
    println!("(modified re-clusters fewer and removes more — Figure 1's panels b/c)");
}

/// E7: matching rounds track the average degree `d`, not n (Theorem 5.1).
pub fn matching() {
    println!("\n## E7 — maximal matching (Theorem 5.1: rounds depend on d = 2m/n)\n");
    println!("### d sweep at n = 1024\n");
    let n = 1024;
    let mut t = Table::new(&[
        "m/n",
        "het rounds",
        "p1 iters",
        "high-deg vertices",
        "sublinear rounds",
    ]);
    for &density in &[2usize, 4, 8, 16, 32] {
        let g = generators::gnm(n, n * density, 15);
        let mut c = het_cluster(&g, 15);
        let input = common::distribute_edges(&c, &g);
        let r = matching::heterogeneous_matching(&mut c, n, &input).unwrap();
        let mut cs = Cluster::new(sublinear_config(g.n(), g.m(), 15));
        let input = distribute_all(&cs, &g);
        sublinear_matching(&mut cs, &input).unwrap();
        t.rowd(&[
            density.to_string(),
            c.rounds().to_string(),
            r.stats.phase1_iterations.to_string(),
            r.stats.high_vertices.to_string(),
            cs.rounds().to_string(),
        ]);
    }
    t.print();

    println!("\n### skewed graphs: fixed avg degree, hubs grow with n\n");
    let mut t = Table::new(&["n", "Δ", "het rounds", "sublinear rounds"]);
    for &exp in &[8usize, 9, 10] {
        let n = 1 << exp;
        let g = generators::chung_lu(n, n * 3, 2.2, exp as u64);
        let mut c = het_cluster(&g, 17);
        let input = common::distribute_edges(&c, &g);
        matching::heterogeneous_matching(&mut c, n, &input).unwrap();
        let mut cs = Cluster::new(sublinear_config(g.n(), g.m(), 17));
        let input = distribute_all(&cs, &g);
        sublinear_matching(&mut cs, &input).unwrap();
        t.rowd(&[
            n.to_string(),
            g.max_degree().to_string(),
            c.rounds().to_string(),
            cs.rounds().to_string(),
        ]);
    }
    t.print();
}

/// E8: filtering matching rounds ~ 1/f (Theorem 5.5).
pub fn matching_filtering() {
    println!("\n## E8 — filtering matching (Theorem 5.5: O(1/f) rounds)\n");
    let n = 512;
    let g = generators::gnm(n, n * 48, 19);
    let mut t = Table::new(&["f", "levels", "rounds"]);
    for &f in &[0.1f64, 0.15, 0.25, 0.4, 0.7] {
        let mut c = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .topology(Topology::Heterogeneous {
                    gamma: 0.66,
                    large_exponent: 1.0 + f,
                })
                .seed(19),
        );
        let input = common::distribute_edges(&c, &g);
        let (m, stats) = matching::filtering::filtering_matching(&mut c, n, &input, f).unwrap();
        assert!(mpc_graph::matching::is_maximal_matching(&g, &m));
        t.rowd(&[
            format!("{f:.2}"),
            stats.levels.to_string(),
            c.rounds().to_string(),
        ]);
    }
    t.print();
}

/// E9: APSP oracle stretch (Corollary 4.2).
pub fn apsp() {
    println!("\n## E9 — APSP oracle (Corollary 4.2: O(log n)-approx in O(1) rounds)\n");
    let mut t = Table::new(&["n", "build rounds", "stretch bound", "measured stretch"]);
    for &n in &[128usize, 256, 384] {
        let g = generators::gnm(n, n * 6, 23);
        let (oracle, rounds) = spanner::apsp::oracle_for_graph(&g, 23).unwrap();
        let measured = spanner::apsp::measured_stretch(&g, &oracle, 16);
        t.rowd(&[
            n.to_string(),
            rounds.to_string(),
            oracle.stretch_bound.to_string(),
            format!("{measured:.2}"),
        ]);
    }
    t.print();
}

/// E10a: connectivity rounds are flat in n (Theorem C.1).
pub fn connectivity() {
    println!("\n## E10a — connectivity (Theorem C.1: O(1) rounds)\n");
    let mut t = Table::new(&["n", "m", "rounds", "components correct"]);
    for &exp in &[7usize, 8, 9] {
        let n = 1 << exp;
        let g = generators::gnm(n, n * 3, 29);
        let (out, rounds) = run_registry("connectivity", &g, 29, |i| i);
        let got = out.into_components().expect("components output");
        let ok = got == mpc_graph::traversal::connected_components(&g);
        t.rowd(&[
            n.to_string(),
            g.m().to_string(),
            rounds.to_string(),
            ok.to_string(),
        ]);
    }
    t.print();
}

/// E10b: (1+ε)-MST estimate error (Theorem C.2).
pub fn mst_approx() {
    println!("\n## E10b — (1+eps)-approx MST weight (Theorem C.2)\n");
    let g = generators::gnm(96, 500, 31).with_random_weights(64, 31);
    let exact = mpc_graph::mst::kruskal(&g).total_weight as f64;
    let mut t = Table::new(&["eps", "estimate", "exact", "ratio", "rounds (batched)"]);
    for &eps in &[1.0f64, 0.5, 0.25] {
        let (out, rounds) = run_registry("mst-approx", &g, 31, |i| i.epsilon(eps));
        let r = out.into_mst_approx().expect("estimator output");
        t.rowd(&[
            format!("{eps:.2}"),
            format!("{:.0}", r.estimate),
            format!("{exact:.0}"),
            format!("{:.3}", r.estimate / exact),
            rounds.to_string(),
        ]);
    }
    t.print();
}

/// E10c: min cuts — exact success and approximation error.
pub fn mincut() {
    println!("\n## E10c — min cut (Theorems C.3/C.4)\n");
    println!("### exact unweighted (8 trials per instance)\n");
    let mut t = Table::new(&["planted bridge", "found", "exact", "rounds"]);
    for &bridge in &[2usize, 3, 5] {
        let g = generators::planted_cut(40, 0.5, bridge, 37);
        let (out, rounds) = run_registry("mincut", &g, 37, |i| i.mincut_trials(8));
        let r = out.into_mincut().expect("min-cut output");
        let exact = mpc_graph::mincut::min_cut(&g).unwrap().weight;
        t.rowd(&[
            bridge.to_string(),
            r.value.to_string(),
            exact.to_string(),
            rounds.to_string(),
        ]);
    }
    t.print();

    println!("\n### (1±eps) weighted approximation\n");
    let mut t = Table::new(&["eps", "estimate", "exact", "rounds (batched)"]);
    let g = generators::planted_cut(30, 0.6, 5, 41).with_random_weights(8, 41);
    let exact = mpc_graph::mincut::min_cut(&g).unwrap().weight as f64;
    for &eps in &[0.5f64, 0.3, 0.2] {
        let (out, rounds) = run_registry("mincut-approx", &g, 41, |i| i.epsilon(eps));
        let r = out.into_mincut_approx().expect("approx min-cut output");
        t.rowd(&[
            format!("{eps:.2}"),
            format!("{:.1}", r.estimate),
            format!("{exact:.0}"),
            rounds.to_string(),
        ]);
    }
    t.print();
}

/// E10d: MIS iterations grow ~log log Δ (Theorem C.6).
pub fn mis() {
    println!("\n## E10d — MIS (Theorem C.6: O(log log Δ) rounds)\n");
    let n = 512;
    let mut t = Table::new(&[
        "m/n",
        "Δ",
        "iterations",
        "rounds",
        "sublinear (Luby) rounds",
    ]);
    for &density in &[4usize, 16, 64] {
        let g = generators::gnm(n, n * density, 43);
        let (out, rounds) = run_registry("mis", &g, 43, |i| i);
        let r = out.into_mis().expect("MIS output");
        assert!(mpc_graph::mis::is_maximal_independent_set(&g, &r.mis));
        let mut cs = Cluster::new(sublinear_config(n, g.m(), 43));
        let input = distribute_all(&cs, &g);
        sublinear_mis(&mut cs, n, &input).unwrap();
        t.rowd(&[
            density.to_string(),
            g.max_degree().to_string(),
            r.iterations.to_string(),
            rounds.to_string(),
            cs.rounds().to_string(),
        ]);
    }
    t.print();
}

/// E10e: coloring conflict volume and rounds (Theorem C.7).
///
/// The conflict graph is sparse relative to `m` once `Δ ≫ log² n` (the
/// regime of Lemma C.8); the star row demonstrates it. At moderate Δ the
/// conflict graph is ≈ the input — still correct, just not sparsified.
pub fn coloring() {
    println!("\n## E10e — (Δ+1)-coloring (Theorem C.7: O(1) rounds)\n");
    let mut t = Table::new(&[
        "graph",
        "m",
        "Δ",
        "conflict edges",
        "conflicts/m",
        "restarts",
        "rounds",
    ]);
    // High-Δ instance: sparsification clearly visible.
    {
        let g = generators::star(4096);
        let (out, rounds) = run_registry("coloring", &g, 47, |i| i);
        let r = out.into_coloring().expect("coloring output");
        assert!(mpc_graph::coloring::is_proper_coloring(&g, &r.colors));
        t.rowd(&[
            "star(4096)".to_string(),
            g.m().to_string(),
            g.max_degree().to_string(),
            r.conflict_edges.to_string(),
            format!("{:.3}", r.conflict_edges as f64 / g.m() as f64),
            r.restarts.to_string(),
            rounds.to_string(),
        ]);
    }
    for &exp in &[8usize, 9, 10] {
        let n = 1 << exp;
        let g = generators::gnm(n, n * 12, 47);
        let (out, rounds) = run_registry("coloring", &g, 47, |i| i);
        let r = out.into_coloring().expect("coloring output");
        assert!(mpc_graph::coloring::is_proper_coloring(&g, &r.colors));
        t.rowd(&[
            format!("gnm({n})"),
            g.m().to_string(),
            g.max_degree().to_string(),
            r.conflict_edges.to_string(),
            format!("{:.3}", r.conflict_edges as f64 / g.m() as f64),
            r.restarts.to_string(),
            rounds.to_string(),
        ]);
    }
    t.print();
}

/// E11: the motivating 1-vs-2 cycles separation (§1).
pub fn two_vs_one() {
    println!("\n## E11 — 1-vs-2 cycles (§1: trivial with one large machine)\n");
    let mut t = Table::new(&["n", "het rounds", "sublinear rounds"]);
    for &exp in &[6usize, 7, 8, 9] {
        let n = 1 << exp;
        let (mut het, mut sub) = (0, 0);
        for which in 0..2 {
            let g = if which == 0 {
                generators::cycle(n, exp as u64)
            } else {
                generators::two_cycles(n, exp as u64)
            };
            let mut c = Cluster::new(sketch_friendly_config(n, n, 1));
            let input = common::distribute_edges(&c, &g);
            let one = ported::one_vs_two_cycles(&mut c, n, &input).unwrap();
            assert_eq!(one, which == 0);
            het = het.max(c.rounds());

            let gw = g.with_random_weights(1 << 10, 3);
            let mut c = Cluster::new(sublinear_config(n, n, 1));
            let input = distribute_all(&c, &gw);
            let one = two_vs_one_cycle_baseline(&mut c, n, &input).unwrap();
            assert_eq!(one, which == 0);
            sub = sub.max(c.rounds());
        }
        t.rowd(&[n.to_string(), het.to_string(), sub.to_string()]);
    }
    t.print();
}

/// E12: the execution engine — serial vs parallel wall-clock for the
/// `MachineProgram` ports, and the simulated per-round makespan under
/// uniform / capacity-proportional / straggler cost profiles.
///
/// Wall-clock compares *host* time of the two schedules (identical results,
/// asserted); makespans are the [`mpc_runtime::CostModel`]'s simulated
/// critical path — the quantity the round-counting model cannot see.
pub fn exec_engine() {
    use mpc_exec::ExecMode;
    use mpc_runtime::CostModel;

    println!("\n## E12 — execution engine (serial vs parallel; heterogeneous cost model)\n");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host cores: {cores} — parallel wall-clock can only beat serial with >1 core;\n\
         on a single core the comparison measures pure engine overhead (results are\n\
         bit-identical across schedules either way, see crates/exec/tests/determinism.rs)\n"
    );

    let topologies: Vec<(&str, f64)> = vec![("gamma=0.66", 0.66), ("gamma=0.50", 0.50)];
    let mut t = Table::new(&[
        "algorithm",
        "topology",
        "machines",
        "rounds",
        "serial wall",
        "parallel wall",
        "speedup",
        "uniform makespan",
        "prop-cap makespan",
        "straggler makespan",
    ]);

    // A cluster for the given profile; the cost model is orthogonal to
    // behavior, so every profile sees identical rounds and traffic.
    let cluster_for = |gamma: f64, n: usize, m: usize, seed: u64| {
        Cluster::new(
            sketch_friendly_config(n, m, seed).topology(Topology::Heterogeneous {
                gamma,
                large_exponent: 1.0,
            }),
        )
    };

    let n = 384;
    let g_conn = generators::gnm(n, n * 6, 7);
    let g_mst = generators::gnm(n, n * 6, 7).with_random_weights(1 << 16, 7);

    // One run of `algo` — through the Algorithm registry, like every other
    // consumer — on a fresh cluster; returns (wall, makespan, rounds,
    // machines, result digest). The digest — component count, forest
    // weight, or matching size — lets the mode comparison assert result
    // equality.
    let run_once = |algo: &str, gamma: f64, model: &str, mode: ExecMode| {
        let g = if algo == "connectivity" || algo == "matching" {
            &g_conn
        } else {
            &g_mst
        };
        let mut c = cluster_for(gamma, g.n(), g.m(), 7);
        let caps: Vec<usize> = (0..c.machines()).map(|m| c.capacity(m)).collect();
        let straggle_mid = c.small_ids()[0];
        c.set_cost_model(match model {
            "uniform" => CostModel::uniform(caps.len(), 1.0, 1.0, 0.0),
            "prop" => CostModel::proportional_to_capacity(&caps, 1.0),
            _ => CostModel::uniform(caps.len(), 1.0, 1.0, 0.0).with_straggler(straggle_mid, 0.1),
        });
        let input = common::distribute_edges(&c, g);
        let started = std::time::Instant::now();
        let out =
            mpc_exec::registry::run(algo, &mut c, &mpc_exec::AlgoInput::new(g.n(), &input), mode)
                .expect("registered algorithm run");
        let wall = started.elapsed();
        let digest = out.digest();
        (
            wall,
            c.critical_path_seconds(),
            c.rounds(),
            c.machines(),
            digest,
        )
    };

    for (name, gamma) in &topologies {
        for algo in ["connectivity", "boruvka-msf", "mst", "matching"] {
            // Both modes under the uniform profile for the wall-clock
            // comparison — with the result digests asserted equal.
            let (wall_s, span_uniform, rounds, machines, digest_s) =
                run_once(algo, *gamma, "uniform", ExecMode::Serial);
            let (wall_p, _, _, _, digest_p) = run_once(algo, *gamma, "uniform", ExecMode::Parallel);
            assert_eq!(
                digest_s, digest_p,
                "{algo} {name}: serial and parallel results diverged"
            );
            // The cost model is orthogonal to behavior, so the remaining
            // profiles need one (serial) run each, just for the makespan.
            let (_, span_prop, _, _, _) = run_once(algo, *gamma, "prop", ExecMode::Serial);
            let (_, span_straggler, _, _, _) =
                run_once(algo, *gamma, "straggler", ExecMode::Serial);
            let walls = [wall_s, wall_p];
            let spans = [span_uniform, span_prop, span_straggler];
            let speedup = walls[0].as_secs_f64() / walls[1].as_secs_f64().max(1e-9);
            t.row(&[
                algo.to_string(),
                name.to_string(),
                machines.to_string(),
                rounds.to_string(),
                format!("{:.2?}", walls[0]),
                format!("{:.2?}", walls[1]),
                format!("{speedup:.2}x"),
                format!("{:.0}", spans[0]),
                format!("{:.0}", spans[1]),
                format!("{:.0}", spans[2]),
            ]);
        }
    }
    t.print();
    println!("\nmakespans: simulated seconds along the critical path (unit-rate words);");
    println!("prop-cap = speeds/bandwidths proportional to machine capacity, latency 1s/round;");
    println!("straggler = one small machine at 10% speed — the schedule the model calls 'free'");
    println!("dominates exactly when that machine holds the bottleneck shard.");
}

/// E13: registry smoke — every registered algorithm runs under both
/// `ExecMode::Serial` and `ExecMode::Parallel` with identical results.
///
/// This is the CI gate the multi-layer port promises: a program that
/// drifts from its serial twin, or an algorithm that drops out of the
/// registry, fails this experiment (and with it the build).
pub fn registry_smoke() {
    use mpc_exec::{registry, AlgoInput, ExecMode};
    use mpc_runtime::{JsonlSink, TraceSink};
    use std::sync::Arc;

    println!("\n## E13 — registry smoke (every algorithm, serial vs parallel)\n");
    assert_eq!(
        registry::names(),
        registry::CANONICAL_NAMES.to_vec(),
        "registry names drifted from the canonical set"
    );
    if let Ok(threads) = std::env::var("MPC_POOL_THREADS") {
        println!("(pool worker threads pinned to {threads} via MPC_POOL_THREADS)\n");
    }
    // CI's trace-schema leg: `MPC_TRACE_JSONL=path` streams every telemetry
    // event from every run (both modes, all algorithms) into one JSONL file,
    // which the workflow then checks with `mpc-trace --validate`.
    let jsonl: Option<Arc<JsonlSink>> = std::env::var("MPC_TRACE_JSONL").ok().map(|path| {
        println!("(streaming telemetry events to {path} via MPC_TRACE_JSONL)\n");
        Arc::new(JsonlSink::create(&path).expect("create MPC_TRACE_JSONL file"))
    });

    let g = generators::gnm(128, 768, 5).with_random_weights(1 << 12, 5);
    let mut t = Table::new(&[
        "algorithm",
        "paper",
        "rounds",
        "digest",
        "serial == parallel",
    ]);
    for algo in registry::algorithms() {
        let run = |mode: ExecMode| {
            // Each algorithm declares the polylog capacity headroom its
            // traffic honestly needs, so new registrations are picked up
            // here without per-name edits.
            let mut c = Cluster::new(
                ClusterConfig::new(g.n(), g.m())
                    .seed(5)
                    .polylog_exponent(algo.polylog_exponent),
            );
            if let Some(sink) = &jsonl {
                c.set_trace_sink(Some(sink.clone() as Arc<dyn TraceSink>));
            }
            let input = common::distribute_edges(&c, &g);
            let out = registry::run(algo.name, &mut c, &AlgoInput::new(g.n(), &input), mode)
                .expect("registered algorithm run");
            (out.digest(), c.rounds())
        };
        let (d_serial, r_serial) = run(ExecMode::Serial);
        let (d_pool, r_pool) = run(ExecMode::Parallel);
        assert_eq!(
            (d_serial, r_serial),
            (d_pool, r_pool),
            "{}: serial and parallel runs diverged",
            algo.name
        );
        t.row(&[
            algo.name.to_string(),
            algo.paper.to_string(),
            r_serial.to_string(),
            d_serial.to_string(),
            "yes".to_string(),
        ]);
    }
    t.print();
}

/// Minimum round-collapse factor the multi-program scheduler must deliver
/// over the sequential composition on the budgets workload.
const BATCH_COLLAPSE_FACTOR: u64 = 5;

/// E14: registry round budgets — the CI gate asserting every registered
/// algorithm's round count stays in its theorem's class on the standard
/// budgets workload (`m = 6n`, weights `< 2¹²`): a fixed constant for the
/// `O(1)` results, an explicit `a·⌈log log n⌉ + b` cap for the
/// doubly-logarithmic ones (each algorithm declares its own cap, see
/// [`mpc_exec::Algorithm::round_budget`]). The batched workloads
/// ([`mpc_exec::registry::BATCHED_NAMES`]) run their paper-parallel
/// instances as the lanes of one wave, so their
/// caps are the theorems' *parallel* figures; the gate additionally fails
/// unless batching collapses their measured rounds by
/// ≥[`BATCH_COLLAPSE_FACTOR`]× against the sequential compositions' round
/// counts — committed figures in `BENCH_rounds.json`, measured when the
/// sequential forms still ran.
///
/// Every measured round count is also recorded into the committed
/// `BENCH_rounds.json`, which CI diffs after this experiment rewrites it,
/// so round-count drift *below* the caps fails the build too.
pub fn budgets() {
    use mpc_exec::{registry, AlgoInput, AlgoOutput, ExecMode};

    /// The `O(1)`-per-instance cap on the engine's parallel-round figure.
    const PARALLEL_CAP: u64 = 6;

    println!("\n## E14 — registry round budgets (per-theorem round-class caps)\n");
    let mut t = Table::new(&[
        "algorithm",
        "paper",
        "n",
        "rounds",
        "cap",
        "sequential rounds",
        "parallel rounds",
        "within budget",
    ]);
    let mut failures: Vec<String> = Vec::new();
    let mut telemetry: Vec<RoundsRow> = Vec::new();
    let committed = committed_sequential_rounds();
    for &n in &[128usize, 512] {
        let g = generators::gnm(n, n * 6, 5).with_random_weights(1 << 12, 5);
        for algo in registry::algorithms() {
            let mut c = Cluster::new(
                ClusterConfig::new(g.n(), g.m())
                    .seed(5)
                    .polylog_exponent(algo.polylog_exponent),
            );
            let input = common::distribute_edges(&c, &g);
            let out = registry::run(
                algo.name,
                &mut c,
                &AlgoInput::new(g.n(), &input),
                ExecMode::Serial,
            )
            .expect("registered algorithm run");
            let rounds = c.rounds();
            let cap = (algo.round_budget)(g.n());
            let parallel = match &out {
                AlgoOutput::MstApprox(r) => Some(r.parallel_rounds),
                AlgoOutput::MinCutApprox(r) => Some(r.parallel_rounds),
                _ => None,
            };
            // A batched workload's committed sequential figure: the
            // scheduler must collapse its measured rounds against it.
            let sequential = committed.get(&(algo.name.to_string(), n)).copied();
            let batched = registry::BATCHED_NAMES.contains(&algo.name);
            let collapsed = match sequential {
                Some(s) => rounds * BATCH_COLLAPSE_FACTOR <= s,
                None => !batched,
            };
            let ok = rounds <= cap && parallel.is_none_or(|p| p <= PARALLEL_CAP) && collapsed;
            if !ok {
                failures.push(format!(
                    "{} at n={n}: {rounds} rounds (cap {cap}), parallel {parallel:?} \
                     (cap {PARALLEL_CAP}), sequential {sequential:?} \
                     (≥{BATCH_COLLAPSE_FACTOR}× collapse required)",
                    algo.name
                ));
            }
            telemetry.push(RoundsRow {
                name: algo.name,
                n,
                rounds,
                cap,
                sequential_rounds: sequential,
                parallel_rounds: parallel,
            });
            t.row(&[
                algo.name.to_string(),
                algo.paper.to_string(),
                n.to_string(),
                rounds.to_string(),
                cap.to_string(),
                sequential.map_or_else(|| "-".to_string(), |s| s.to_string()),
                parallel.map_or_else(|| "-".to_string(), |p| p.to_string()),
                if ok { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.print();
    let path = write_rounds_json(&telemetry);
    println!("\n[budgets: wrote {}]", path.display());
    assert!(
        failures.is_empty(),
        "round-budget violations:\n  {}",
        failures.join("\n  ")
    );
    println!("(each cap is the theorem's round class on this workload; a violation fails CI.)");
}

/// One row of the committed round-count telemetry.
struct RoundsRow {
    name: &'static str,
    n: usize,
    rounds: u64,
    cap: u64,
    sequential_rounds: Option<u64>,
    parallel_rounds: Option<u64>,
}

/// `BENCH_rounds.json` at the repo root.
fn rounds_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_rounds.json")
}

/// The sequential-composition round counts committed in
/// `BENCH_rounds.json`, keyed by `(name, n)`, for every row that has one.
fn committed_sequential_rounds() -> std::collections::BTreeMap<(String, usize), u64> {
    use mpc_runtime::telemetry::{parse_json, JsonValue};
    let body = std::fs::read_to_string(rounds_json_path()).expect("read BENCH_rounds.json");
    let doc = parse_json(&body).expect("BENCH_rounds.json is JSON");
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_arr)
        .expect("a rows array");
    rows.iter()
        .filter_map(|row| {
            let sequential = row.get("sequential_rounds")?.as_f64()?;
            let name = row.get("name")?.as_str()?.to_string();
            let n = row.get("n")?.as_f64()? as usize;
            Some(((name, n), sequential as u64))
        })
        .collect()
}

/// Writes `BENCH_rounds.json` at the repo root: the measured rounds per
/// registry name on the budgets workload, committed so drift *below* the
/// caps shows up in a diff (the hard gate only catches cap breaches).
fn write_rounds_json(rows: &[RoundsRow]) -> std::path::PathBuf {
    let path = rounds_json_path();
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"registry_rounds\",\n");
    body.push_str("  \"workload\": \"gnm(m=6n, weights<2^12, seed 5), ExecMode::Serial\",\n");
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let seq = r
            .sequential_rounds
            .map_or_else(|| "null".to_string(), |s| s.to_string());
        let par = r
            .parallel_rounds
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"rounds\": {}, \"cap\": {}, \
             \"sequential_rounds\": {}, \"parallel_rounds\": {}}}{}\n",
            r.name,
            r.n,
            r.rounds,
            r.cap,
            seq,
            par,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(&path, body).expect("write BENCH_rounds.json");
    path
}

/// E15: chaos smoke — every registered algorithm survives a deterministic
/// mid-run crash of one small machine (victim chosen per-name by the
/// seeded fault matrix) with results **bit-identical** to the fault-free
/// run, under both `ExecMode::Serial` and `ExecMode::Parallel` (CI runs
/// the parallel leg at 2 and 16 pool threads via `MPC_POOL_THREADS`).
///
/// This is the recovery protocol's CI gate: a crash that changes a digest,
/// leaves a machine quarantined, or fails to recover fails the build.
pub fn chaos() {
    use mpc_exec::{registry, AlgoInput, ExecMode};
    use mpc_runtime::FaultPlan;

    println!("\n## E15 — chaos smoke (seeded single crash, recovery must be exact)\n");
    if let Ok(threads) = std::env::var("MPC_POOL_THREADS") {
        println!("(pool worker threads pinned to {threads} via MPC_POOL_THREADS)\n");
    }
    let g = generators::gnm(128, 768, 5).with_random_weights(1 << 12, 5);
    let mut t = Table::new(&[
        "algorithm",
        "victim",
        "crash round",
        "clean rounds",
        "faulted rounds",
        "recovered == clean",
    ]);
    for algo in registry::algorithms() {
        let run = |plan: Option<FaultPlan>, mode: ExecMode| {
            let mut c = Cluster::new(
                ClusterConfig::new(g.n(), g.m())
                    .seed(5)
                    .polylog_exponent(algo.polylog_exponent),
            );
            let input = common::distribute_edges(&c, &g);
            c.set_fault_plan(plan);
            let out = registry::run(algo.name, &mut c, &AlgoInput::new(g.n(), &input), mode)
                .expect("registered algorithm run under chaos");
            let smalls = c.small_ids();
            (out.digest(), c.rounds(), smalls)
        };
        let (clean_digest, clean_rounds, smalls) = run(None, ExecMode::Serial);
        // One crash per run; the victim varies per algorithm name so the
        // matrix covers different shards across the registry.
        let name_seed = algo
            .name
            .bytes()
            .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64));
        let plan = FaultPlan::seeded_single_crash(name_seed, &smalls, clean_rounds);
        let (victim, crash_round) = match plan.faults()[0] {
            mpc_runtime::Fault::Crash { machine, round } => (machine, round),
            _ => unreachable!("seeded_single_crash schedules a crash"),
        };
        let mut faulted_rounds = 0;
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let (digest, rounds, _) = run(Some(plan.clone()), mode);
            assert_eq!(
                digest, clean_digest,
                "{} under {mode:?}: crash of machine {victim} changed the result",
                algo.name
            );
            assert!(
                rounds > clean_rounds,
                "{} under {mode:?}: recovery must add checkpoint/recovery rounds",
                algo.name
            );
            faulted_rounds = rounds;
        }
        t.row(&[
            algo.name.to_string(),
            victim.to_string(),
            crash_round.to_string(),
            clean_rounds.to_string(),
            faulted_rounds.to_string(),
            "yes".to_string(),
        ]);
    }
    t.print();
    println!("\nchaos matrix: one seeded small-machine crash per algorithm, serial + pool legs;");
    println!("recovery replays from peer replicas and must reproduce the fault-free digest.");
}

/// The standard service workload: six mixed tenants drained FIFO through
/// one hooked engine run. `spanner-weighted` holds one share per weight
/// class, so on the 3-share cluster half the queue waits for
/// admission-on-retirement.
pub const SERVICE_JOBS: &[&str] = &[
    "spanner-weighted",
    "matching",
    "mincut",
    "mis",
    "coloring",
    "connectivity",
];

/// Capacity shares the service cluster holds open concurrently.
pub const SERVICE_SHARES: usize = 3;

/// The headroom exponent the shared service cluster must carry: the
/// largest any [`SERVICE_JOBS`] tenant declares — new workload entries are
/// picked up automatically.
pub fn service_polylog() -> f64 {
    SERVICE_JOBS
        .iter()
        .map(|name| {
            mpc_exec::registry::get(name)
                .expect("registered algorithm")
                .polylog_exponent
        })
        .fold(1.0_f64, f64::max)
}

/// One job's terminal outcome from a service drain: its final status and
/// the output digest (`None` when the job failed or was cancelled).
type JobOutcome = (mpc_exec::JobStatus, Option<u128>);

/// One timed service drain: submits [`SERVICE_JOBS`] (seeds `100 + i`),
/// runs the queue to completion under `mode` with an optional fault plan
/// attached to the shared cluster, and returns (wall ms, simulated
/// makespan, exchange rounds, machines, scheduling records, per-job
/// outcomes in submission order).
fn service_drain_with(
    g: &std::sync::Arc<Graph>,
    straggler: bool,
    plan: Option<mpc_runtime::FaultPlan>,
    mode: mpc_exec::ExecMode,
) -> (
    f64,
    f64,
    u64,
    usize,
    Vec<mpc_exec::JobRecord>,
    Vec<JobOutcome>,
) {
    use mpc_runtime::CostModel;

    let config = ClusterConfig::new(g.n(), g.m())
        .seed(5)
        .polylog_exponent(service_polylog());
    let mut service = mpc_exec::Service::new(config.clone()).capacity_shares(SERVICE_SHARES);
    let handles: Vec<_> = SERVICE_JOBS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            service
                .submit(mpc_exec::JobSpec::new(*name, g.clone()).seed(100 + i as u64))
                .expect("canonical registry name")
        })
        .collect();
    let mut cluster = Cluster::new(config);
    let victim = cluster.small_ids()[0];
    let mut model = CostModel::uniform(cluster.machines(), 1.0, 1.0, 0.5);
    if straggler {
        model = model.with_straggler(victim, 0.1);
    }
    cluster.set_cost_model(model);
    cluster.set_fault_plan(plan);
    let started = std::time::Instant::now();
    let run = service.run_on(&mut cluster, mode).expect("service drain");
    let wall = started.elapsed().as_secs_f64() * 1e3;
    let outcomes: Vec<JobOutcome> = handles
        .iter()
        .map(|h| {
            let digest = h
                .take_result()
                .expect("job finished")
                .ok()
                .map(|out| out.digest());
            (h.status(), digest)
        })
        .collect();
    (
        wall,
        cluster.critical_path_seconds(),
        cluster.rounds(),
        cluster.machines(),
        run.records,
        outcomes,
    )
}

/// Fault-free [`service_drain_with`]: every tenant must complete, so the
/// outcomes collapse to plain digests.
fn service_drain(
    g: &std::sync::Arc<Graph>,
    straggler: bool,
    mode: mpc_exec::ExecMode,
) -> (f64, f64, u64, usize, Vec<mpc_exec::JobRecord>, Vec<u128>) {
    let (wall, makespan, rounds, machines, records, outcomes) =
        service_drain_with(g, straggler, None, mode);
    let digests = outcomes
        .into_iter()
        .map(|(status, digest)| {
            assert_eq!(status, mpc_exec::JobStatus::Completed, "fault-free drain");
            digest.expect("job succeeded")
        })
        .collect();
    (wall, makespan, rounds, machines, records, digests)
}

/// E16: the job-queue service (DESIGN.md §2.8) — six mixed tenants
/// submitted to one [`mpc_exec::Service`] with three capacity shares, so
/// half the queue waits for admission-on-retirement. Times the drain
/// serial vs pool (schedules, results, and round counts asserted
/// identical), reports serving throughput in jobs/sec, and the simulated
/// makespan under uniform vs straggler cost profiles (asserted not to
/// change the schedule). Host numbers for a drain worth comparing across
/// commits are the benchmark's `service-drain` workload's, not this table's.
pub fn service() {
    use mpc_exec::ExecMode;

    println!("\n## E16 — job-queue service (mixed tenants, admission on retirement)\n");
    if let Ok(threads) = std::env::var("MPC_POOL_THREADS") {
        println!("(pool worker threads pinned to {threads} via MPC_POOL_THREADS)\n");
    }
    let n = 256;
    let g = std::sync::Arc::new(generators::gnm(n, n * 6, 5).with_random_weights(1 << 12, 5));
    let reps = 3;
    let key = |rs: &[mpc_exec::JobRecord]| {
        rs.iter()
            .map(|r| (r.job, r.shares, r.admitted_round, r.completed_round))
            .collect::<Vec<_>>()
    };

    // Best-of-`reps` drain under one (profile, mode), asserting the
    // schedule and results never move between repetitions.
    let best = |straggler: bool, mode: ExecMode| {
        let (mut wall, makespan, rounds, machines, records, digests) =
            service_drain(&g, straggler, mode);
        for _ in 1..reps {
            let (w, _, r, _, recs, digs) = service_drain(&g, straggler, mode);
            assert_eq!(
                (r, key(&recs), &digs),
                (rounds, key(&records), &digests),
                "nondeterministic service drain"
            );
            wall = wall.min(w);
        }
        (wall, makespan, rounds, machines, records, digests)
    };

    let mut t = Table::new(&[
        "cost profile",
        "machines",
        "rounds",
        "serial ms",
        "pool ms",
        "jobs/s serial",
        "jobs/s pool",
        "sim makespan",
    ]);
    let mut schedule: Option<(Vec<(u64, usize, u64, u64)>, Vec<u128>)> = None;
    let mut uniform_records: Vec<mpc_exec::JobRecord> = Vec::new();
    let mut uniform_rounds = 0u64;
    for straggler in [false, true] {
        let (serial_ms, makespan, rounds, machines, records, digests) =
            best(straggler, ExecMode::Serial);
        let (pool_ms, _, pool_rounds, _, pool_records, pool_digests) =
            best(straggler, ExecMode::Parallel);
        assert_eq!(
            (pool_rounds, key(&pool_records), &pool_digests),
            (rounds, key(&records), &digests),
            "service: pool drain diverged from serial"
        );
        // The cost model is observational — switching profiles must not
        // move a single admission or digest.
        let this = (key(&records), digests.clone());
        match &schedule {
            None => schedule = Some(this),
            Some(s) => assert_eq!(s, &this, "cost profile changed the schedule"),
        }
        if !straggler {
            uniform_records = records.clone();
            uniform_rounds = rounds;
        }
        let profile = if straggler { "straggler" } else { "uniform" };
        let jobs = SERVICE_JOBS.len() as f64;
        let (jps_serial, jps_pool) = (
            jobs / (serial_ms / 1e3).max(1e-9),
            jobs / (pool_ms / 1e3).max(1e-9),
        );
        t.row(&[
            profile.to_string(),
            machines.to_string(),
            rounds.to_string(),
            format!("{serial_ms:.2}"),
            format!("{pool_ms:.2}"),
            format!("{jps_serial:.1}"),
            format!("{jps_pool:.1}"),
            format!("{makespan:.1}s"),
        ]);
    }

    // Faulted leg: one seeded mid-drain crash with zero peer replicas is
    // job-fatal, so the service quarantines exactly one tenant and replays
    // the survivors (DESIGN.md §2.9). Throughput counts served jobs only.
    {
        use mpc_runtime::{Fault, FaultPlan, RecoveryPolicy};
        let smalls = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(5)
                .polylog_exponent(service_polylog()),
        )
        .small_ids();
        let plan = FaultPlan::new()
            .with_policy(RecoveryPolicy {
                replicas: 0,
                ..RecoveryPolicy::default()
            })
            .with_fault(Fault::Crash {
                machine: smalls[0],
                round: uniform_rounds / 2,
            });
        let best = |mode: ExecMode| {
            let (mut wall, makespan, rounds, machines, records, outcomes) =
                service_drain_with(&g, false, Some(plan.clone()), mode);
            for _ in 1..reps {
                let (w, _, r, _, recs, outs) =
                    service_drain_with(&g, false, Some(plan.clone()), mode);
                assert_eq!(
                    (r, key(&recs), &outs),
                    (rounds, key(&records), &outcomes),
                    "nondeterministic faulted service drain"
                );
                wall = wall.min(w);
            }
            (wall, makespan, rounds, machines, records, outcomes)
        };
        let (serial_ms, makespan, rounds, machines, records, outcomes) = best(ExecMode::Serial);
        let (pool_ms, _, pool_rounds, _, pool_records, pool_outcomes) = best(ExecMode::Parallel);
        assert_eq!(
            (pool_rounds, key(&pool_records), &pool_outcomes),
            (rounds, key(&records), &outcomes),
            "faulted service: pool drain diverged from serial"
        );
        let served = outcomes
            .iter()
            .filter(|(s, _)| *s == mpc_exec::JobStatus::Completed)
            .count();
        assert_eq!(served, SERVICE_JOBS.len() - 1, "exactly one tenant lost");
        // Survivors must be bit-identical to the fault-free drain.
        if let Some((_, clean_digests)) = &schedule {
            for (i, (status, digest)) in outcomes.iter().enumerate() {
                if *status == mpc_exec::JobStatus::Completed {
                    assert_eq!(
                        *digest,
                        Some(clean_digests[i]),
                        "surviving tenant {} diverged from the fault-free drain",
                        SERVICE_JOBS[i]
                    );
                }
            }
        }
        let (jps_serial, jps_pool) = (
            served as f64 / (serial_ms / 1e3).max(1e-9),
            served as f64 / (pool_ms / 1e3).max(1e-9),
        );
        t.row(&[
            "faulted (1 lost)".to_string(),
            machines.to_string(),
            rounds.to_string(),
            format!("{serial_ms:.2}"),
            format!("{pool_ms:.2}"),
            format!("{jps_serial:.1}"),
            format!("{jps_pool:.1}"),
            format!("{makespan:.1}s"),
        ]);
    }
    t.print();

    println!("\n### schedule (identical across modes, profiles, and repetitions)\n");
    let mut t = Table::new(&[
        "job",
        "name",
        "shares",
        "admitted round",
        "completed round",
        "rounds held",
    ]);
    for r in &uniform_records {
        t.rowd(&[
            r.job.to_string(),
            r.name.clone(),
            r.shares.to_string(),
            r.admitted_round.to_string(),
            r.completed_round.to_string(),
            r.rounds.to_string(),
        ]);
    }
    t.print();
}

/// E17: service chaos — the six-tenant mixed queue (E16's workload) under
/// seeded faults, exercising both recovery tiers of DESIGN.md §2.9:
///
/// * **recoverable** — a seeded small-machine crash under the default
///   replica policy replays from peer checkpoints inside the wave; every
///   tenant completes and all six digests match the fault-free drain;
/// * **job-fatal** — the same crash with zero peer replicas cannot be
///   replayed, so the service quarantines exactly one tenant, fails it
///   with a typed error, and restarts the wave for the survivors, whose
///   digests must still match the fault-free drain bit-for-bit.
///
/// Both legs run under `ExecMode::Serial` and `ExecMode::Parallel` and
/// must agree exactly (CI pins the pool leg to 2 and 16 worker threads
/// via `MPC_POOL_THREADS`).
pub fn chaos_service() {
    use mpc_exec::{ExecMode, JobStatus};
    use mpc_runtime::{Fault, FaultPlan, RecoveryPolicy};

    println!("\n## E17 — service chaos (per-job quarantine, survivors must be exact)\n");
    if let Ok(threads) = std::env::var("MPC_POOL_THREADS") {
        println!("(pool worker threads pinned to {threads} via MPC_POOL_THREADS)\n");
    }
    let g = std::sync::Arc::new(generators::gnm(128, 768, 5).with_random_weights(1 << 12, 5));
    let (_, _, clean_rounds, _, _, clean) = service_drain_with(&g, false, None, ExecMode::Serial);
    let smalls = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(5)
            .polylog_exponent(service_polylog()),
    )
    .small_ids();
    let crash = Fault::Crash {
        machine: FaultPlan::seeded_single_crash(17, &smalls, clean_rounds)
            .faults()
            .iter()
            .find_map(|f| match f {
                Fault::Crash { machine, .. } => Some(*machine),
                _ => None,
            })
            .expect("seeded_single_crash schedules a crash"),
        round: clean_rounds / 2,
    };
    let legs: [(&str, FaultPlan, usize); 2] = [
        ("recoverable", FaultPlan::new().with_fault(crash.clone()), 0),
        (
            "job-fatal",
            FaultPlan::new()
                .with_policy(RecoveryPolicy {
                    replicas: 0,
                    ..RecoveryPolicy::default()
                })
                .with_fault(crash.clone()),
            1,
        ),
    ];

    let mut t = Table::new(&[
        "leg",
        "crash",
        "clean rounds",
        "faulted rounds",
        "tenants lost",
        "survivors exact",
    ]);
    for (leg, plan, expect_lost) in legs {
        let mut faulted_rounds = 0;
        let mut lost: Vec<String> = Vec::new();
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let (_, _, rounds, _, _, outcomes) =
                service_drain_with(&g, false, Some(plan.clone()), mode);
            lost = outcomes
                .iter()
                .enumerate()
                .filter(|(_, (s, _))| *s != JobStatus::Completed)
                .map(|(i, _)| SERVICE_JOBS[i].to_string())
                .collect();
            assert_eq!(
                lost.len(),
                expect_lost,
                "{leg} under {mode:?}: wrong number of tenants lost"
            );
            for (i, (status, digest)) in outcomes.iter().enumerate() {
                if *status == JobStatus::Completed {
                    assert_eq!(
                        (status, *digest),
                        (&clean[i].0, clean[i].1),
                        "{leg} under {mode:?}: surviving tenant {} diverged \
                         from the fault-free drain",
                        SERVICE_JOBS[i]
                    );
                }
            }
            assert!(
                rounds > clean_rounds,
                "{leg} under {mode:?}: recovery must add checkpoint/replay rounds"
            );
            faulted_rounds = rounds;
        }
        t.row(&[
            leg.to_string(),
            crash.detail(),
            clean_rounds.to_string(),
            faulted_rounds.to_string(),
            if lost.is_empty() {
                "none".to_string()
            } else {
                lost.join(", ")
            },
            "yes".to_string(),
        ]);
    }
    t.print();
    println!("\nservice chaos: one seeded crash per leg, serial + pool; recoverable crashes");
    println!("replay in-wave, fatal ones quarantine one tenant and replay the survivors.");
}
