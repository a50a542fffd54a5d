#!/usr/bin/env bash
# The full local gate: formatting, lints, tests. CI-equivalent; run before
# every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --workspace

echo "==> corpus replay (nemesis counterexamples)"
cargo test -q --test corpus_replay

echo "==> metrics gate: conservation + determinism + schema (release)"
cargo test --release -q --test metrics_conservation --test metrics_determinism \
  --test metrics_schema

echo "==> fuzz gate: differential + mutator properties (release)"
cargo test --release -q --test fuzz_differential
cargo test --release -q -p shmem-algorithms --test mutator_properties

echo "==> shard gate: batch-1 ≡ recorded ABD / single-register CAS differential + chaos projections (release)"
cargo test --release -q -p shmem-algorithms --test shard_differential

echo "==> net gate: TCP/in-proc differential + wire properties + fault soup (release)"
cargo test --release -q --test net_differential
cargo test --release -q -p shmem-net --test wire_roundtrip --test transport_faults

echo "==> corrupt gate: 1000-seed acceptance sweep + cross-world differential (release)"
cargo test --release -q --test corrupt_sweep --test corrupt_differential

echo "==> store gate: linearizability stress + differential + reclamation + throughput/storage (release)"
cargo test --release -q -p shmem-store
cargo test --release -q -p shmem-bench --test store_gate

echo "==> perf smoke: step throughput vs committed baseline (release)"
cargo run --release -q -p shmem-bench --bin perf_smoke

echo "==> cargo bench --no-run"
cargo bench --no-run -q

echo "==> cargo build --examples"
cargo build --examples -q

echo "All checks passed."
