//! Failure injection: under-provisioned clusters must fail loudly (strict)
//! or degrade observably (record), and a chaos plan crashing machines
//! mid-run must recover bit-identically — never silently corrupt results.

use het_mpc::prelude::*;
use mpc_runtime::ModelViolation;
use rand::RngCore;

/// A cluster whose small machines are far too small for the workload.
fn starved_cluster(g: &Graph) -> ClusterConfig {
    ClusterConfig::new(g.n(), g.m())
        .mem_constant(0.2) // 30x below the default budget
        .seed(1)
}

/// Runs the registry `mst` on a default cluster with a `threads`-wide pool
/// (0 = the default width) and returns the result digest and each
/// machine's next RNG draw.
fn run_mst(
    g: &Graph,
    seed: u64,
    plan: Option<FaultPlan>,
    mode: ExecMode,
    threads: usize,
) -> (u128, Vec<u64>) {
    let polylog = registry::get("mst").expect("registered").polylog_exponent;
    let mut cluster = Cluster::new(
        ClusterConfig::new(g.n(), g.m())
            .seed(seed)
            .polylog_exponent(polylog),
    );
    cluster.set_fault_plan(plan);
    let spec = JobSpec::new("mst", g.clone());
    let out = registry::run_threads(&spec, &mut cluster, mode, threads).expect("mst run");
    let draws = cluster
        .rngs_mut()
        .iter_mut()
        .map(RngCore::next_u64)
        .collect();
    (out.digest(), draws)
}

#[test]
fn strict_mode_reports_the_offending_exchange() {
    let g = generators::gnm(256, 4096, 1).with_random_weights(1 << 16, 1);
    let mut cluster = Cluster::new(starved_cluster(&g).enforcement(Enforcement::Strict));
    match registry::run_job(&JobSpec::new("mst", g), &mut cluster, ExecMode::Serial) {
        Err(ExecError::Model(v)) => {
            // The violation names a machine, a round, and a labeled step.
            let s = v.to_string();
            assert!(s.contains("machine"), "uninformative violation: {s}");
            assert!(s.contains("round"), "uninformative violation: {s}");
        }
        Err(other) => panic!("expected a model violation, got {other}"),
        Ok(_) => panic!("a starved cluster must not succeed in strict mode"),
    }
}

#[test]
fn record_mode_still_computes_the_right_answer() {
    let g = generators::gnm(256, 4096, 1).with_random_weights(1 << 16, 1);
    let mut cluster = Cluster::new(starved_cluster(&g).enforcement(Enforcement::Record));
    let spec = JobSpec::new("mst", g.clone());
    let out = registry::run_job(&spec, &mut cluster, ExecMode::Serial).unwrap();
    assert_eq!(registry::certify(&spec, &out), Ok(()));
    assert!(
        !cluster.violations().is_empty(),
        "a starved cluster must record violations"
    );
}

#[test]
fn unknown_destination_fails_in_every_mode() {
    for e in [Enforcement::Strict, Enforcement::Record, Enforcement::Off] {
        let mut cluster = Cluster::new(
            ClusterConfig::new(16, 32)
                .topology(Topology::Custom {
                    capacities: vec![10, 10],
                    large: None,
                })
                .enforcement(e),
        );
        let mut out = cluster.empty_outboxes::<u64>();
        out[0].push((7, 1)); // machine 7 does not exist
        assert!(matches!(
            cluster.exchange("bad", out),
            Err(ModelViolation::UnknownMachine { .. })
        ));
    }
}

#[test]
fn memory_accounting_catches_oversized_state() {
    let mut cluster = Cluster::new(ClusterConfig::new(16, 32).topology(Topology::Custom {
        capacities: vec![100, 20],
        large: Some(0),
    }));
    assert!(cluster.account("big", 1, 19).is_ok());
    let err = cluster.account("more", 1, 5).unwrap_err();
    assert!(matches!(
        err,
        ModelViolation::MemoryOverflow { machine: 1, .. }
    ));
}

#[test]
fn adversarial_layout_does_not_change_results() {
    use het_mpc::exec::{Driven, MstProgram};
    use mpc_graph::distribution::Layout;
    // Contiguous layout: all of a vertex's edges can sit on one machine —
    // the worst case for the hash-owner primitives' balance assumptions.
    // The registry always spreads edges round-robin, so the program runs
    // on the executor directly.
    let g = generators::gnm(200, 3000, 9).with_random_weights(1 << 16, 9);
    let mut results = Vec::new();
    for layout in [Layout::RoundRobin, Layout::Contiguous, Layout::Random(5)] {
        let polylog = registry::get("mst").expect("registered").polylog_exponent;
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(9)
                .polylog_exponent(polylog),
        );
        let edges = common::distribute_edges_with(&cluster, &g, layout);
        let programs = MstProgram::for_cluster(&cluster, g.n(), &edges);
        let programs: Vec<_> = programs.into_iter().map(Driven).collect();
        let exec = Executor::new("mst", ExecMode::Serial);
        let mut outcome = exec.run(&mut cluster, programs).unwrap();
        let large = cluster.large().expect("a large machine");
        let r = outcome
            .programs
            .swap_remove(large)
            .0
            .result
            .unwrap()
            .unwrap();
        results.push(r.forest.total_weight);
        let out = AlgoOutput::Mst(r);
        assert_eq!(
            registry::certify(&JobSpec::new("mst", g.clone()), &out),
            Ok(())
        );
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn mid_run_crash_recovers_bit_identically_in_serial_mode() {
    let g = generators::gnm(200, 2400, 4).with_random_weights(1 << 16, 4);
    let (clean_digest, clean_draws) = run_mst(&g, 4, None, ExecMode::Serial, 0);
    for seed in 0..3 {
        // Different seeds pick different crash victims among the smalls.
        let plan = FaultPlan::seeded_single_crash(seed, &[1, 2, 3, 4, 5], 30);
        let (digest, draws) = run_mst(&g, 4, Some(plan), ExecMode::Serial, 0);
        assert_eq!(digest, clean_digest, "crash seed {seed} changed the MST");
        assert_eq!(draws, clean_draws, "crash seed {seed} moved RNG streams");
    }
}

#[test]
fn mid_run_crash_recovers_bit_identically_across_pool_sizes() {
    let g = generators::gnm(200, 2400, 8).with_random_weights(1 << 16, 8);
    let (clean_digest, clean_draws) = run_mst(&g, 8, None, ExecMode::Serial, 0);
    let plan = FaultPlan::seeded_single_crash(8, &[1, 2, 3, 4, 5], 30);

    // Pool width must never affect results, with or without a fault plan.
    for threads in [1usize, 3, 16] {
        let (digest, draws) = run_mst(&g, 8, Some(plan.clone()), ExecMode::Parallel, threads);
        assert_eq!(
            digest, clean_digest,
            "{threads}-thread pool diverged under recovery"
        );
        assert_eq!(
            draws, clean_draws,
            "{threads}-thread pool moved RNG streams"
        );
    }
}
