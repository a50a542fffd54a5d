//! Benchmarks for the proof machinery (E7/E8 regeneration cost): α
//! construction, valency probes, critical-pair search, and the staged
//! Section 6 search.

use shmem_algorithms::abd::{self, Abd, ShardedAbdClient, ShardedAbdServerOn};
use shmem_algorithms::value::ValueSpec;
use shmem_core::critical::find_critical_pair;
use shmem_core::execution::AlphaExecution;
use shmem_core::multiwrite::{staged_search, MultiWriteSetup};
use shmem_core::valency::probe_read;
use shmem_sim::{ClientId, Sim, SimConfig};
use shmem_util::bench::{black_box, Criterion};
use shmem_util::{criterion_group, criterion_main};

fn abd_world(clients: u32) -> Sim<Abd> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|_| ShardedAbdServerOn::register(0, spec))
            .collect(),
        (0..clients)
            .map(|c| ShardedAbdClient::register(5, c))
            .collect(),
    )
}

fn bench_machinery(c: &mut Criterion) {
    let mut group = c.benchmark_group("machinery");
    group.sample_size(20);

    group.bench_function("alpha_build_abd_n5", |b| {
        b.iter(|| black_box(AlphaExecution::build(abd_world(2), ClientId(0), 2, 1, 2).unwrap()))
    });

    let alpha = AlphaExecution::build(abd_world(2), ClientId(0), 2, 1, 2).unwrap();
    group.bench_function("valency_probe_single_point", |b| {
        b.iter(|| black_box(probe_read(alpha.point(3), ClientId(0), ClientId(1), false)))
    });

    group.bench_function("critical_pair_search", |b| {
        b.iter(|| black_box(find_critical_pair(&alpha, ClientId(1), false, 2).unwrap()))
    });

    let setup = MultiWriteSetup::<Abd> {
        nu: 2,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    };
    group.bench_function("staged_search_nu2", |b| {
        b.iter(|| black_box(staged_search(|| abd_world(3), &setup, &[1, 2], 4).unwrap()))
    });

    group.finish();
}

criterion_group!(benches, bench_machinery);
criterion_main!(benches);
