//! Reproducibility: every run is a pure function of `(input, seed)`.

use het_mpc::prelude::*;

#[test]
fn mst_is_bit_for_bit_deterministic() {
    let g = generators::gnm(180, 2000, 13).with_random_weights(1 << 16, 13);
    let run = || {
        let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(99));
        let r = registry::run_job(
            &JobSpec::new("mst", g.clone()),
            &mut cluster,
            ExecMode::Serial,
        )
        .unwrap()
        .into_mst()
        .unwrap();
        (r.forest.keys(), cluster.rounds(), r.stats.boruvka_steps)
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_change_random_choices_not_answers() {
    let g = generators::gnm(150, 1800, 17).with_random_weights(1 << 16, 17);
    let weight_at = |seed: u64| {
        let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(seed));
        let r = registry::run_job(
            &JobSpec::new("mst", g.clone()),
            &mut cluster,
            ExecMode::Serial,
        )
        .unwrap()
        .into_mst()
        .unwrap();
        r.forest.total_weight
    };
    // The MST weight is seed-independent even though sampling differs.
    assert_eq!(weight_at(1), weight_at(2));
    assert_eq!(weight_at(2), weight_at(3));
}

#[test]
fn spanner_and_matching_are_deterministic() {
    let g = generators::gnm(160, 1600, 19);
    let spanner_run = || {
        let mut cluster = Cluster::new(
            ClusterConfig::new(g.n(), g.m())
                .seed(5)
                .polylog_exponent(1.6),
        );
        let spec = JobSpec::new("spanner", g.clone()).spanner_k(3);
        let r = registry::run_job(&spec, &mut cluster, ExecMode::Serial)
            .unwrap()
            .into_spanner()
            .unwrap();
        (r.spanner.m(), cluster.rounds())
    };
    assert_eq!(spanner_run(), spanner_run());

    let match_run = || {
        let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()).seed(5));
        let r = registry::run_job(
            &JobSpec::new("matching", g.clone()),
            &mut cluster,
            ExecMode::Serial,
        )
        .unwrap()
        .into_matching()
        .unwrap();
        (r.matching.len(), cluster.rounds())
    };
    assert_eq!(match_run(), match_run());
}
