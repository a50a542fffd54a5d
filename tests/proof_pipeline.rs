//! Integration of the proof machinery across crates: the full
//! Theorem B.1 / 4.1 / 6.5 pipelines against ABD and CAS, and the
//! refutation of the lossy cheat.

use shmem_emulation::algorithms::abd::{self, Abd, ShardedAbdClient, ShardedAbdServerOn};
use shmem_emulation::algorithms::cas::{self, Cas, CasClient, CasConfig, CasServer};
use shmem_emulation::algorithms::lossy::{lossy_server, Lossy};
use shmem_emulation::algorithms::value::ValueSpec;
use shmem_emulation::core::counting::{pairwise_counting, singleton_counting};
use shmem_emulation::core::critical::find_critical_pair;
use shmem_emulation::core::execution::AlphaExecution;
use shmem_emulation::core::multiwrite::{
    build_alpha0, staged_search, vector_counting, MultiWriteSetup,
};
use shmem_emulation::core::valency::{observed_values, probe_read, ReadOutcome};
use shmem_emulation::sim::{ClientId, ServerId, Sim, SimConfig};

fn abd_world(n: u32, card: u64) -> Sim<Abd> {
    let spec = ValueSpec::from_cardinality(card);
    Sim::new(
        SimConfig::without_gossip(),
        (0..n)
            .map(|_| ShardedAbdServerOn::register(0, spec))
            .collect(),
        (0..3).map(|c| ShardedAbdClient::register(n, c)).collect(),
    )
}

fn cas_world(n: u32, f: u32, card: u64) -> Sim<Cas> {
    let cfg = CasConfig::native(n, f, ValueSpec::from_cardinality(card));
    Sim::new(
        SimConfig::without_gossip(),
        (0..n)
            .map(|i| CasServer::new(cfg, ServerId(i), 0))
            .collect(),
        (0..3).map(|c| CasClient::new(cfg, c)).collect(),
    )
}

#[test]
fn full_theorem_41_pipeline_on_abd_7_servers() {
    // A bigger geometry than the unit tests: N=7, f=3.
    let alpha = AlphaExecution::build(abd_world(7, 8), ClientId(0), 3, 2, 5).expect("alpha builds");
    assert_eq!(
        probe_read(alpha.point(0), ClientId(0), ClientId(1), false),
        ReadOutcome::Returns(2)
    );
    let pair = find_critical_pair(&alpha, ClientId(1), false, 4).expect("critical pair");
    assert_eq!(pair.states_q1.len(), 4); // 7 - 3 survivors

    let report = pairwise_counting(
        || abd_world(7, 8),
        ClientId(0),
        ClientId(1),
        3,
        &[1, 2, 3],
        false,
        2,
    );
    assert!(report.injective, "{report:?}");
    assert!(report.inequality_holds());
}

#[test]
fn full_theorem_b1_pipeline_on_cas_7_servers() {
    let report = singleton_counting(|| cas_world(7, 2, 8), ClientId(0), 2, &[1, 2, 3, 4, 5]);
    assert!(report.injective, "{report:?}");
    assert!(report.inequality_holds());
    assert_eq!(report.distinct_states.len(), 5); // 7 - 2 survivors
}

#[test]
fn theorem_65_pipeline_abd_nu3() {
    // Three concurrent writers (nu = 3 <= f + 1 with f = 2 requires
    // failing f+1-nu = 0 servers).
    let setup = MultiWriteSetup::<Abd> {
        nu: 3,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    };
    let make = || {
        let spec = ValueSpec::from_cardinality(8);
        Sim::<Abd>::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|_| ShardedAbdServerOn::register(0, spec))
                .collect(),
            (0..4).map(|c| ShardedAbdClient::register(5, c)).collect(),
        )
    };
    let profile = staged_search(make, &setup, &[1, 2, 3], 8).expect("profile");
    assert_eq!(profile.a.len(), 3);
    assert!(profile.a[0] >= 1);
    assert!(profile.a.windows(2).all(|w| w[0] < w[1]), "{:?}", profile.a);
    // All three writers chosen exactly once.
    let mut s = profile.sigma.clone();
    s.sort_unstable();
    assert_eq!(s, vec![0, 1, 2]);
}

#[test]
fn alpha0_frontier_is_quiescent_except_value_messages() {
    let setup = MultiWriteSetup::<Cas> {
        nu: 2,
        f: 1,
        is_value_dependent: cas::is_value_dependent_upstream,
    };
    let sim = build_alpha0(cas_world(5, 1, 8), &setup, &[3, 6]).expect("alpha0");
    // The only remaining deliverable messages are writers' PreWrites.
    for (from, to) in sim.step_options() {
        let msg = sim.peek_head(from, to).expect("option has a head");
        assert!(
            cas::is_value_dependent_upstream(msg),
            "unexpected deliverable {from}->{to}: {msg:?}"
        );
    }
}

#[test]
fn vector_counting_cross_algorithms_domain4() {
    let abd_setup = MultiWriteSetup::<Abd> {
        nu: 2,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    };
    let r = vector_counting(|| abd_world(5, 8), &abd_setup, &[1, 2, 3, 4], 6);
    assert_eq!(r.vectors, 12);
    assert!(r.injective, "{:?} {:?}", r.collisions, r.failures);
}

#[test]
fn lossy_pipeline_refuted_at_every_level() {
    let lossy = || {
        let spec = ValueSpec::from_cardinality(16);
        Sim::<Lossy>::new(
            SimConfig::without_gossip(),
            (0..5).map(|_| lossy_server(0, 1, spec)).collect(),
            (0..2).map(|c| ShardedAbdClient::register(5, c)).collect(),
        )
    };
    // Level 1: a valency probe after write(2) returns a truncated value.
    let alpha = AlphaExecution::build(lossy(), ClientId(0), 2, 2, 3).expect("builds");
    let vals = observed_values(alpha.point(0), ClientId(0), ClientId(1), false, 4);
    assert!(!vals.contains(&2), "truncation must lose the written value");
    // Level 2: the counting map collides, and over 16 values even the
    // marginal inequality fails (3 surviving 1-bit servers < 4 bits).
    let domain: Vec<u64> = (0..16).collect();
    let report = singleton_counting(lossy, ClientId(0), 2, &domain);
    assert!(!report.injective);
    assert!(!report.inequality_holds());
}

#[test]
fn gossip_flag_variant_of_valency_probe_is_equivalent_without_gossip() {
    // With no server-to-server channels, Definition 5.3's flush prelude is
    // a no-op and both probe variants agree everywhere.
    let alpha = AlphaExecution::build(abd_world(5, 8), ClientId(0), 2, 1, 2).expect("builds");
    for i in 0..alpha.len() {
        let plain = probe_read(alpha.point(i), ClientId(0), ClientId(1), false);
        let flushed = probe_read(alpha.point(i), ClientId(0), ClientId(1), true);
        assert_eq!(plain, flushed, "point {i}");
    }
}

#[test]
fn vector_counting_nu3_abd() {
    // The Section 6.4.4 argument at nu = 3: all 6 ordered triples from a
    // 3-value domain, each requiring a 3-stage Lemma 6.10 search.
    let setup = MultiWriteSetup::<Abd> {
        nu: 3,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    };
    let make = || {
        let spec = shmem_emulation::algorithms::value::ValueSpec::from_cardinality(8);
        Sim::<Abd>::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|_| shmem_emulation::algorithms::abd::ShardedAbdServerOn::register(0, spec))
                .collect(),
            (0..4)
                .map(|c| shmem_emulation::algorithms::abd::ShardedAbdClient::register(5, c))
                .collect(),
        )
    };
    let report = shmem_emulation::core::multiwrite::vector_counting(make, &setup, &[1, 2, 3], 16);
    assert_eq!(report.vectors, 6);
    assert!(
        report.injective,
        "collisions={:?} failures={:?}",
        report.collisions, report.failures
    );
}
