//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * valency-probe schedule count (how much the existential sampling
//!   costs as seeds grow);
//! * Reed–Solomon code dimension `k` (per-symbol work vs share size);
//! * CASGC garbage-collection depth (steady-state write cost).

use shmem_algorithms::abd::{Abd, ShardedAbdClient, ShardedAbdServerOn};
use shmem_algorithms::harness::CasCluster;
use shmem_algorithms::value::ValueSpec;
use shmem_core::execution::AlphaExecution;
use shmem_core::valency::observed_values;
use shmem_erasure::{Gf256, ReedSolomon};
use shmem_sim::{ClientId, Sim, SimConfig};
use shmem_util::bench::{black_box, BenchmarkId, Criterion};
use shmem_util::{criterion_group, criterion_main};

fn abd_world() -> Sim<Abd> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|_| ShardedAbdServerOn::register(0, spec))
            .collect(),
        (0..2).map(|c| ShardedAbdClient::register(5, c)).collect(),
    )
}

fn bench_ablations(c: &mut Criterion) {
    // Valency probe seeds: each extra seed is one full forked extension.
    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    let mid = alpha.len() / 2;
    let mut group = c.benchmark_group("ablation/valency_seeds");
    group.sample_size(20);
    for seeds in [0u64, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(seeds), &seeds, |b, &s| {
            b.iter(|| {
                black_box(observed_values(
                    alpha.point(mid),
                    ClientId(0),
                    ClientId(1),
                    false,
                    s,
                ))
            })
        });
    }
    group.finish();

    // Code dimension: [21, k] encode of 1 KiB for k across the range.
    let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
    let mut group = c.benchmark_group("ablation/rs_dimension");
    for k in [1usize, 6, 11, 16, 21] {
        let code = ReedSolomon::<Gf256>::new(21, k).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &code, |b, code| {
            b.iter(|| black_box(code.encode_bytes(black_box(&payload))))
        });
    }
    group.finish();

    // CASGC depth: 8 sequential writes at different GC depths.
    let mut group = c.benchmark_group("ablation/casgc_depth");
    group.sample_size(20);
    for delta in [0u32, 2, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(delta), &delta, |b, &d| {
            b.iter(|| {
                let mut cl = CasCluster::with_gc(5, 1, d, 1, ValueSpec::from_bits(64.0));
                for v in 1..=8 {
                    cl.write(0, v).unwrap();
                }
                black_box(cl.storage().peak_total_bits)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
