//! Acceptance tests for the probe engine: the parallel fan-out path must
//! produce *bit-identical* valency / critical-pair / counting verdicts to
//! the sequential path, for every construction in the crate.
//!
//! The engine makes this true by design — workers pull job indices from a
//! shared counter but deposit results into index-addressed slots, and the
//! folds that build reports walk those slots in enumeration order — and
//! these tests assert it end to end, including the refutation (error)
//! paths.

use shmem_algorithms::abd::{self, Abd, ShardedAbdClient, ShardedAbdServerOn};
use shmem_algorithms::cas::{Cas, CasClient, CasConfig, CasServer};
use shmem_algorithms::lossy::{lossy_server, Lossy};
use shmem_algorithms::value::ValueSpec;
use shmem_core::counting::{
    pairwise_counting, pairwise_counting_with, singleton_counting, singleton_counting_with,
};
use shmem_core::critical::{find_critical_pair, find_critical_pair_with, valency_profile_with};
use shmem_core::execution::AlphaExecution;
use shmem_core::multiwrite::{
    probe_restricted, probe_restricted_with, staged_search, staged_search_with, vector_counting,
    vector_counting_with, MultiWriteSetup,
};
use shmem_core::probe::ProbeEngine;
use shmem_core::valency::{observed_values, observed_values_at};
use shmem_sim::{ClientId, ServerId, Sim, SimConfig};
use shmem_util::prop::prelude::*;

const WORKER_GRID: [usize; 3] = [1, 2, 4];

fn abd_world() -> Sim<Abd> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|_| ShardedAbdServerOn::register(0, spec))
            .collect(),
        (0..3).map(|c| ShardedAbdClient::register(5, c)).collect(),
    )
}

fn cas_world() -> Sim<Cas> {
    let cfg = CasConfig::native(5, 1, ValueSpec::from_cardinality(8));
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|i| CasServer::new(cfg, ServerId(i), 0))
            .collect(),
        (0..3).map(|c| CasClient::new(cfg, c)).collect(),
    )
}

fn lossy_world() -> Sim<Lossy> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5).map(|_| lossy_server(0, 1, spec)).collect(),
        (0..2).map(|c| ShardedAbdClient::register(5, c)).collect(),
    )
}

#[test]
fn observed_values_identical_across_worker_counts() {
    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    for i in 0..alpha.len() {
        let reference = observed_values(alpha.point(i), ClientId(0), ClientId(1), false, 5);
        for workers in WORKER_GRID {
            let engine = ProbeEngine::with_workers(workers);
            let got = observed_values_at(
                &engine,
                alpha.snapshot(i),
                ClientId(0),
                ClientId(1),
                false,
                5,
            );
            assert_eq!(reference, got, "point {i}, {workers} workers");
        }
    }
}

#[test]
fn critical_pair_identical_across_worker_counts() {
    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    let reference = find_critical_pair(&alpha, ClientId(1), false, 4).unwrap();
    for workers in WORKER_GRID {
        let engine = ProbeEngine::with_workers(workers);
        let got = find_critical_pair_with(&engine, &alpha, ClientId(1), false, 4).unwrap();
        assert_eq!(reference, got, "{workers} workers");
    }

    let cas_alpha = AlphaExecution::build(cas_world(), ClientId(0), 1, 3, 5).unwrap();
    let cas_reference = find_critical_pair(&cas_alpha, ClientId(1), false, 4).unwrap();
    for workers in WORKER_GRID {
        let engine = ProbeEngine::with_workers(workers);
        let got = find_critical_pair_with(&engine, &cas_alpha, ClientId(1), false, 4).unwrap();
        assert_eq!(cas_reference, got, "cas, {workers} workers");
    }
}

#[test]
fn valency_profile_identical_across_worker_counts() {
    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    let reference = valency_profile_with(&ProbeEngine::sequential(), &alpha, ClientId(1), false, 3);
    for workers in [2, 4] {
        let engine = ProbeEngine::with_workers(workers);
        let got = valency_profile_with(&engine, &alpha, ClientId(1), false, 3);
        assert_eq!(reference, got, "{workers} workers");
    }
}

#[test]
fn singleton_counting_identical_across_worker_counts() {
    let domain = [1, 2, 3, 4, 5];
    let reference = singleton_counting(abd_world, ClientId(0), 2, &domain);
    for workers in WORKER_GRID {
        let engine = ProbeEngine::with_workers(workers);
        let got = singleton_counting_with(&engine, abd_world, ClientId(0), 2, &domain);
        assert_eq!(reference, got, "{workers} workers");
    }
}

#[test]
fn pairwise_counting_identical_across_worker_counts() {
    let domain = [1, 2, 3];
    let reference = pairwise_counting(abd_world, ClientId(0), ClientId(1), 2, &domain, false, 2);
    assert!(reference.injective);
    for workers in WORKER_GRID {
        let engine = ProbeEngine::with_workers(workers);
        let got = pairwise_counting_with(
            &engine,
            abd_world,
            ClientId(0),
            ClientId(1),
            2,
            &domain,
            false,
            2,
        );
        assert_eq!(reference, got, "{workers} workers");
    }
}

#[test]
fn refutation_paths_identical_across_worker_counts() {
    // The lossy algorithm fails the critical-pair search for truncated
    // values; the failure *lists* must match in content and order too.
    let domain = [1, 2, 3];
    let reference = pairwise_counting(lossy_world, ClientId(0), ClientId(1), 2, &domain, false, 0);
    assert!(!reference.injective);
    assert!(!reference.failures.is_empty());
    for workers in [2, 4] {
        let engine = ProbeEngine::with_workers(workers);
        let got = pairwise_counting_with(
            &engine,
            lossy_world,
            ClientId(0),
            ClientId(1),
            2,
            &domain,
            false,
            0,
        );
        assert_eq!(reference, got, "{workers} workers");
    }
}

fn abd_setup() -> MultiWriteSetup<Abd> {
    MultiWriteSetup {
        nu: 2,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    }
}

#[test]
fn restricted_probe_identical_across_worker_counts() {
    let setup = abd_setup();
    let alpha0 = shmem_core::multiwrite::build_alpha0(abd_world(), &setup, &[1, 2]).unwrap();
    let restricted: std::collections::BTreeSet<ClientId> = setup.writers().into_iter().collect();
    let reference = probe_restricted(&alpha0, &setup, &restricted, 8);
    let point = alpha0.snapshot();
    for workers in WORKER_GRID {
        let engine = ProbeEngine::with_workers(workers);
        let got = probe_restricted_with(&engine, &point, &setup, &restricted, 8);
        assert_eq!(reference, got, "{workers} workers");
    }
}

#[test]
fn staged_search_identical_across_worker_counts() {
    let setup = abd_setup();
    let reference = staged_search(abd_world, &setup, &[1, 2], 8).unwrap();
    for workers in WORKER_GRID {
        let engine = ProbeEngine::with_workers(workers);
        let got = staged_search_with(&engine, abd_world, &setup, &[1, 2], 8).unwrap();
        assert_eq!(reference, got, "{workers} workers");
    }
}

#[test]
fn vector_counting_identical_across_worker_counts() {
    let setup = abd_setup();
    let reference = vector_counting(abd_world, &setup, &[1, 2, 3], 4);
    assert!(reference.injective);
    for workers in [2, 4] {
        let engine = ProbeEngine::with_workers(workers);
        let got = vector_counting_with(&engine, abd_world, &setup, &[1, 2, 3], 4);
        assert_eq!(reference, got, "{workers} workers");
    }
}

#[test]
fn verdict_cache_answers_repeat_runs() {
    let domain = [1, 2, 3];
    let engine = ProbeEngine::with_workers(4);
    let first = pairwise_counting_with(
        &engine,
        abd_world,
        ClientId(0),
        ClientId(1),
        2,
        &domain,
        false,
        2,
    );
    let after_first = engine.stats();
    assert!(after_first.probes > 0);
    let second = pairwise_counting_with(
        &engine,
        abd_world,
        ClientId(0),
        ClientId(1),
        2,
        &domain,
        false,
        2,
    );
    let after_second = engine.stats();
    assert_eq!(first, second);
    // The repeat run re-requests every probe and every one is a hit: the
    // executions are deterministic, so every point digest recurs.
    assert_eq!(after_second.probes, 2 * after_first.probes);
    assert_eq!(after_second.misses(), after_first.misses());
    assert!(after_second.hit_rate() >= 0.5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite property: for arbitrary value pairs, seed counts, and
    /// worker counts, the parallel engine's critical-pair verdict equals
    /// the sequential one bit for bit.
    #[test]
    fn prop_parallel_critical_pair_matches_sequential(
        v1 in 1u64..8,
        delta in 1u64..7,
        seeds in 0u64..4,
        workers in 2usize..6,
    ) {
        // Distinct second value in 1..8 by construction.
        let v2 = 1 + ((v1 - 1) + delta) % 7;
        let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, v1, v2).unwrap();
        let sequential =
            find_critical_pair_with(&ProbeEngine::sequential(), &alpha, ClientId(1), false, seeds);
        let parallel = find_critical_pair_with(
            &ProbeEngine::with_workers(workers),
            &alpha,
            ClientId(1),
            false,
            seeds,
        );
        prop_assert_eq!(sequential, parallel);
    }

    /// Satellite property: observed valency sets agree for arbitrary
    /// points and schedules.
    #[test]
    fn prop_parallel_observed_values_match_sequential(
        v2 in 2u64..8,
        seeds in 0u64..6,
        workers in 2usize..6,
    ) {
        let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, v2).unwrap();
        let mid = alpha.len() / 2;
        let seq = observed_values_at(
            &ProbeEngine::sequential(),
            alpha.snapshot(mid),
            ClientId(0),
            ClientId(1),
            false,
            seeds,
        );
        let par = observed_values_at(
            &ProbeEngine::with_workers(workers),
            alpha.snapshot(mid),
            ClientId(0),
            ClientId(1),
            false,
            seeds,
        );
        prop_assert_eq!(seq, par);
    }
}
