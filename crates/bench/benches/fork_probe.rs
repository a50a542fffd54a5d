//! Benchmarks for the fork-efficient snapshot engine and the parallel
//! probe engine (ISSUE: fork throughput, probe cache hit rate, and the
//! sequential-vs-parallel valency/counting search).
//!
//! The headline comparison is `counting/pairwise_abd/{workers}`: the same
//! small-|V| pairwise counting verification run on 1, 2, and 4 probe
//! workers. Verdicts are bit-identical across the grid (asserted by
//! `crates/core/tests/engine_parity.rs`); only the wall-clock changes.

use shmem_algorithms::abd::{Abd, ShardedAbdClient, ShardedAbdServerOn};
use shmem_algorithms::value::ValueSpec;
use shmem_core::counting::pairwise_counting_with;
use shmem_core::critical::find_critical_pair_with;
use shmem_core::execution::AlphaExecution;
use shmem_core::probe::ProbeEngine;
use shmem_core::valency::observed_values_at;
use shmem_sim::{ClientId, Sim, SimConfig};
use shmem_util::bench::{black_box, BenchmarkId, Criterion};
use shmem_util::{criterion_group, criterion_main};

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

/// Fork throughput: an Arc-backed copy-on-write fork is a handful of
/// refcount bumps, independent of world size, versus the old deep clone
/// which copied every server, channel queue, and the op log.
fn bench_fork(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork");
    group.sample_size(30);

    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    let point = alpha.snapshot(alpha.len() / 2).clone();

    group.bench_function("cow_fork", |b| b.iter(|| black_box(point.fork())));

    group.bench_function("fork_then_first_write", |b| {
        // Forces one copy-on-write promotion: deliver a step on the fork.
        b.iter(|| {
            let mut fork = point.fork();
            fork.step_fair();
            black_box(fork)
        })
    });

    group.bench_function("cached_digest", |b| {
        // The snapshot digest is computed once and reread from the cache.
        b.iter(|| black_box(point.digest()))
    });

    group.bench_function("fresh_digest", |b| {
        // Digesting a freshly forked (uncached) world pays the full walk.
        b.iter(|| black_box(point.fork().into_snapshot().digest()))
    });

    group.finish();
}

/// Probe cache effectiveness: the same valency question asked of the same
/// point is answered from the verdict cache; a cold engine pays the full
/// probe every time.
fn bench_probe_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_cache");
    group.sample_size(20);

    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    let mid = alpha.len() / 2;

    group.bench_function("cold_engine", |b| {
        b.iter(|| {
            let engine = ProbeEngine::sequential();
            black_box(observed_values_at(
                &engine,
                alpha.snapshot(mid),
                ClientId(0),
                ClientId(1),
                false,
                4,
            ))
        })
    });

    let warm = ProbeEngine::sequential();
    // Populate the cache once; the timed loop then hits on every probe.
    observed_values_at(
        &warm,
        alpha.snapshot(mid),
        ClientId(0),
        ClientId(1),
        false,
        4,
    );
    group.bench_function("warm_engine", |b| {
        b.iter(|| {
            black_box(observed_values_at(
                &warm,
                alpha.snapshot(mid),
                ClientId(0),
                ClientId(1),
                false,
                4,
            ))
        })
    });

    group.finish();
}

/// Sequential vs parallel search over the worker grid: the critical-pair
/// scan and the full small-|V| pairwise counting verification.
fn bench_parallel_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting");
    group.sample_size(10);

    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    for workers in WORKER_GRID {
        group.bench_with_input(
            BenchmarkId::new("critical_pair_abd", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let engine = ProbeEngine::with_workers(workers);
                    black_box(
                        find_critical_pair_with(&engine, &alpha, ClientId(1), false, 4).unwrap(),
                    )
                })
            },
        );
    }

    let domain = [1, 2, 3, 4];
    for workers in WORKER_GRID {
        group.bench_with_input(
            BenchmarkId::new("pairwise_abd", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let engine = ProbeEngine::with_workers(workers);
                    black_box(pairwise_counting_with(
                        &engine,
                        abd_world,
                        ClientId(0),
                        ClientId(1),
                        2,
                        &domain,
                        false,
                        2,
                    ))
                })
            },
        );
    }

    group.finish();
}

criterion_group!(
    benches,
    bench_fork,
    bench_probe_cache,
    bench_parallel_search
);
criterion_main!(benches);
