//! Differential tests for the sharded multi-register protocols.
//!
//! Two equivalences are pinned:
//!
//! 1. **Batch-size-1 ≡ single register.** A sharded protocol over
//!    [`ShardMap::full`] driving single-key batches behaves exactly like
//!    the single-register protocol: under identical seeded schedules the
//!    two produce identical [`StepInfo`] traces (trace entries are
//!    protocol-independent), identical step counts, and identical per-key
//!    histories. Single-register ABD runs on the keyed ABD automaton, so
//!    both ABD worlds are checked against hashes recorded from the
//!    original single-register automaton ([`ABD_RECORDED`]). CAS and
//!    hashed CAS still have a separate single-register automaton and are
//!    compared against it directly.
//! 2. **Batched ≡ per-key atomic.** Any batched execution, projected per
//!    key with [`project_histories`], satisfies the unmodified
//!    `shmem-spec` atomicity checker key by key — including under a
//!    nemesis-style fault soup (drops, duplicates, freezes) followed by a
//!    fault-free drain.

use shmem_algorithms::abd::{
    Abd, ShardedAbd, ShardedAbdClient, ShardedAbdServer, ShardedAbdServerOn,
};
use shmem_algorithms::cas::{
    Cas, CasClient, CasConfig, CasServer, ShardedCas, ShardedCasClient, ShardedCasConfig,
    ShardedCasServer,
};
use shmem_algorithms::hashed::{
    HashedCas, HashedClient, HashedServer, ShardedHashed, ShardedHashedClient, ShardedHashedServer,
};
use shmem_algorithms::workloads::ZipfKeys;
use shmem_algorithms::ShardMap;
use shmem_algorithms::{
    project_histories, Key, MultiInv, MultiResp, RegInv, RegResp, Value, ValueSpec,
};
use shmem_sim::{hash_debug, ClientId, NodeId, Protocol, ServerId, Sim, SimConfig, StepInfo};
use shmem_spec::check_atomic;
use shmem_spec::history::{History, OpKind};
use shmem_util::DetRng;

const SPEC: f64 = 64.0;

fn register_abd(n: u32, clients: u32) -> Sim<Abd> {
    let spec = ValueSpec::from_bits(SPEC);
    Sim::new(
        SimConfig::without_gossip(),
        (0..n)
            .map(|_| ShardedAbdServerOn::register(0, spec))
            .collect(),
        (0..clients)
            .map(|c| ShardedAbdClient::register(n, c))
            .collect(),
    )
}

fn sharded_abd(map: ShardMap, clients: u32) -> Sim<ShardedAbd> {
    let spec = ValueSpec::from_bits(SPEC);
    Sim::new(
        SimConfig::without_gossip(),
        (0..map.n())
            .map(|_| ShardedAbdServer::new(0, spec))
            .collect(),
        (0..clients)
            .map(|c| ShardedAbdClient::new(map, c))
            .collect(),
    )
}

fn legacy_cas(n: u32, f: u32, clients: u32) -> Sim<Cas> {
    let cfg = CasConfig::native(n, f, ValueSpec::from_bits(SPEC));
    Sim::new(
        SimConfig::without_gossip(),
        (0..n)
            .map(|i| CasServer::new(cfg, ServerId(i), 0))
            .collect(),
        (0..clients).map(|c| CasClient::new(cfg, c)).collect(),
    )
}

fn sharded_cas(cfg: &ShardedCasConfig, clients: u32) -> Sim<ShardedCas> {
    Sim::new(
        SimConfig::without_gossip(),
        (0..cfg.map.n())
            .map(|i| ShardedCasServer::new(cfg.clone(), ServerId(i), 0))
            .collect(),
        (0..clients)
            .map(|c| ShardedCasClient::new(cfg.clone(), c))
            .collect(),
    )
}

fn legacy_hashed(n: u32, f: u32, clients: u32) -> Sim<HashedCas> {
    let cfg = CasConfig::native(n, f, ValueSpec::from_bits(SPEC));
    Sim::new(
        SimConfig::without_gossip(),
        (0..n)
            .map(|i| HashedServer::new(cfg, ServerId(i), 0))
            .collect(),
        (0..clients).map(|c| HashedClient::new(cfg, c)).collect(),
    )
}

fn sharded_hashed(cfg: &ShardedCasConfig, clients: u32) -> Sim<ShardedHashed> {
    Sim::new(
        SimConfig::without_gossip(),
        (0..cfg.map.n())
            .map(|i| ShardedHashedServer::new(cfg.clone(), ServerId(i), 0))
            .collect(),
        (0..clients)
            .map(|c| ShardedHashedClient::new(cfg.clone(), c))
            .collect(),
    )
}

/// Runs `sim` under the seeded schedule until quiescence, returning the
/// step trace.
fn drive_seeded<P: Protocol>(sim: &mut Sim<P>, seed: u64) -> Vec<StepInfo> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    while let Some(info) = sim.step_with(|opts| rng.gen_range(0..opts.len())) {
        trace.push(info);
        assert!(
            trace.len() < 1_000_000,
            "runaway schedule — protocol livelock"
        );
    }
    trace
}

/// The op sequence both worlds execute: alternating writes and reads from
/// two clients, sequentially (each op runs to quiescence before the next).
const KEY: Key = 42;

fn op_sequence() -> Vec<(u32, RegInv)> {
    vec![
        (0, RegInv::Write(100)),
        (1, RegInv::Read),
        (1, RegInv::Write(200)),
        (0, RegInv::Read),
        (0, RegInv::Write(300)),
        (1, RegInv::Read),
    ]
}

fn register_history<P: Protocol<Inv = RegInv, Resp = RegResp>>(sim: &Sim<P>) -> History<Value> {
    let mut h = History::new(0);
    for op in sim.ops() {
        let kind = match op.invocation {
            RegInv::Write(v) => OpKind::Write(v),
            RegInv::Read => OpKind::Read,
        };
        let id = h.begin(op.client.0, kind, op.invoked_at);
        if let Some(t) = op.responded_at {
            h.complete(id, t, op.response.and_then(RegResp::read_value));
        }
    }
    h
}

/// The reference behaviour of single-register ABD on the op sequence,
/// recorded from the original single-register automaton: per schedule
/// seed, the hash of the `StepInfo` trace and the hash of the history's
/// operations (both via [`hash_debug`]).
const ABD_RECORDED: [(u64, u64, u64); 8] = [
    (0, 0x2708_d7fc_f81b_e8c5, 0x5c62_0e5b_f874_a56a),
    (1, 0xffa6_2f2b_f7e8_a660, 0x49c4_0fd9_8281_f19c),
    (2, 0x3487_e75f_e017_37f3, 0x06b8_b448_4375_5de2),
    (3, 0xe929_5aaf_68de_2a94, 0x6f05_0135_0fcd_9508),
    (4, 0x4559_b339_1484_b305, 0xa8bb_44f4_3d9f_f7c5),
    (5, 0x0858_c710_5d80_951b, 0x9d00_dfd0_732f_f7db),
    (6, 0xba7f_3503_06f6_b7eb, 0xc67d_85fe_a66e_bcc2),
    (7, 0x2b3b_85e3_5a40_a3a4, 0xb9c4_2aa0_9372_5f4a),
];

/// Batch-size-1 sharded ABD over the full map reproduces the recorded
/// single-register ABD behaviour: identical traces, step counts, and
/// histories — and so does single-register [`Abd`], key 0 of the same
/// automaton.
#[test]
fn batch1_sharded_abd_reproduces_recorded_abd() {
    for (seed, trace_hash, history_hash) in ABD_RECORDED {
        let mut register = register_abd(5, 2);
        let mut sharded = sharded_abd(ShardMap::full(5), 2);
        let mut register_trace = Vec::new();
        let mut sharded_trace = Vec::new();
        for (round, (client, inv)) in op_sequence().into_iter().enumerate() {
            let op_seed = seed.wrapping_mul(1000) + round as u64;
            register.invoke(ClientId(client), inv).unwrap();
            let minv = match inv {
                RegInv::Write(v) => MultiInv::writes(&[(KEY, v)]),
                RegInv::Read => MultiInv::reads(&[KEY]),
            };
            sharded.invoke(ClientId(client), minv).unwrap();
            register_trace.extend(drive_seeded(&mut register, op_seed));
            sharded_trace.extend(drive_seeded(&mut sharded, op_seed));
        }
        assert_eq!(
            hash_debug(&register_trace),
            trace_hash,
            "seed {seed}: single-register ABD trace diverged from the record"
        );
        assert_eq!(
            hash_debug(&sharded_trace),
            trace_hash,
            "seed {seed}: sharded batch-1 ABD trace diverged from the record"
        );
        assert_eq!(
            hash_debug(register_history(&register).ops()),
            history_hash,
            "seed {seed}: single-register ABD history diverged from the record"
        );
        // The projection of the sharded run at KEY is the recorded history.
        let projected = project_histories(0, sharded.ops());
        assert_eq!(projected.len(), 1);
        assert_eq!(
            hash_debug(projected[&KEY].ops()),
            history_hash,
            "seed {seed}: sharded batch-1 ABD history diverged from the record"
        );
    }
}

/// Batch-size-1 sharded CAS over the full map is step-isomorphic to
/// legacy CAS with the same `(n, f)`.
#[test]
fn batch1_sharded_cas_is_trace_equivalent_to_legacy() {
    for seed in 0..8u64 {
        let mut legacy = legacy_cas(5, 1, 2);
        let cfg = ShardedCasConfig::native(ShardMap::full(5), 1, ValueSpec::from_bits(SPEC));
        let mut sharded = sharded_cas(&cfg, 2);
        let mut legacy_trace = Vec::new();
        let mut sharded_trace = Vec::new();
        for (round, (client, inv)) in op_sequence().into_iter().enumerate() {
            let op_seed = seed.wrapping_mul(1000) + round as u64;
            legacy.invoke(ClientId(client), inv).unwrap();
            let minv = match inv {
                RegInv::Write(v) => MultiInv::writes(&[(KEY, v)]),
                RegInv::Read => MultiInv::reads(&[KEY]),
            };
            sharded.invoke(ClientId(client), minv).unwrap();
            legacy_trace.extend(drive_seeded(&mut legacy, op_seed));
            sharded_trace.extend(drive_seeded(&mut sharded, op_seed));
        }
        assert_eq!(
            legacy_trace, sharded_trace,
            "seed {seed}: sharded batch-1 CAS diverged from legacy"
        );
        let projected = project_histories(0, sharded.ops());
        assert_eq!(projected[&KEY].ops(), register_history(&legacy).ops());
    }
}

/// Batch-size-1 sharded hashed CAS over the full map is step-isomorphic
/// to legacy hashed CAS with the same `(n, f)` — the starting evidence for
/// folding the two automata.
#[test]
fn batch1_sharded_hashed_is_trace_equivalent_to_legacy() {
    for seed in 0..8u64 {
        let mut legacy = legacy_hashed(5, 1, 2);
        let cfg = ShardedCasConfig::native(ShardMap::full(5), 1, ValueSpec::from_bits(SPEC));
        let mut sharded = sharded_hashed(&cfg, 2);
        let mut legacy_trace = Vec::new();
        let mut sharded_trace = Vec::new();
        for (round, (client, inv)) in op_sequence().into_iter().enumerate() {
            let op_seed = seed.wrapping_mul(1000) + round as u64;
            legacy.invoke(ClientId(client), inv).unwrap();
            let minv = match inv {
                RegInv::Write(v) => MultiInv::writes(&[(KEY, v)]),
                RegInv::Read => MultiInv::reads(&[KEY]),
            };
            sharded.invoke(ClientId(client), minv).unwrap();
            legacy_trace.extend(drive_seeded(&mut legacy, op_seed));
            sharded_trace.extend(drive_seeded(&mut sharded, op_seed));
        }
        assert_eq!(
            legacy_trace, sharded_trace,
            "seed {seed}: sharded batch-1 hashed CAS diverged from legacy"
        );
        let projected = project_histories(0, sharded.ops());
        assert_eq!(projected[&KEY].ops(), register_history(&legacy).ops());
    }
}

/// Sharded determinism: the same seed reproduces the same trace, digest,
/// and projected histories.
#[test]
fn sharded_runs_are_deterministic() {
    let run = |seed: u64| {
        let map = ShardMap::new(6, 2, 3);
        let mut sim = sharded_abd(map, 3);
        let zipf = ZipfKeys::new(32, 0.99);
        let mut rng = DetRng::seed_from_u64(seed);
        for round in 0..4u64 {
            let keys = zipf.sample_batch(&mut rng, 4);
            let pairs: Vec<(Key, Value)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, round * 100 + i as u64))
                .collect();
            sim.invoke(ClientId(0), MultiInv::writes(&pairs)).unwrap();
            sim.invoke(
                ClientId(1),
                MultiInv::reads(&zipf.sample_batch(&mut rng, 4)),
            )
            .unwrap();
            while (0..2).any(|c| sim.has_open_op(ClientId(c))) {
                sim.step_with(|opts| rng.gen_range(0..opts.len()))
                    .expect("progress");
            }
        }
        (sim.digest(), project_histories(0, sim.ops()))
    };
    for seed in [3u64, 17, 99] {
        let (d1, h1) = run(seed);
        let (d2, h2) = run(seed);
        assert_eq!(d1, d2, "seed {seed}: digest diverged");
        assert_eq!(h1.len(), h2.len());
        for (key, h) in &h1 {
            assert_eq!(h.ops(), h2[key].ops(), "seed {seed}, key {key}");
        }
    }
}

/// A nemesis-style fault soup against batched executions: random drops,
/// duplicates, and freezes during a fault window, then a fault-free drain.
/// Every per-key projection must stay atomic, and the message-conservation
/// ledgers must balance.
fn chaos_batched<P, MkInv>(sim: &mut Sim<P>, seed: u64, clients: u32, mut mk_inv: MkInv)
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
    MkInv: FnMut(&mut DetRng, bool) -> MultiInv,
{
    sim.set_metrics(shmem_sim::MetricsLevel::Full);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut options: Vec<(NodeId, NodeId)> = Vec::new();
    let mut remaining = vec![4u32; clients as usize];
    let n_servers = sim.server_count() as u32;

    for _tick in 0..400 {
        // Invocations: an idle client with work left starts a batch.
        let eligible: Vec<u32> = (0..clients)
            .filter(|&c| {
                remaining[c as usize] > 0
                    && !sim.has_open_op(ClientId(c))
                    && !sim.is_frozen(NodeId::client(c))
            })
            .collect();
        if !eligible.is_empty() && rng.gen_range(0..4) < 3 {
            let c = eligible[rng.gen_range(0..eligible.len())];
            let is_writer = c.is_multiple_of(2);
            let inv = mk_inv(&mut rng, is_writer);
            sim.invoke(ClientId(c), inv).unwrap();
            remaining[c as usize] -= 1;
        }
        // Fault soup: ~10% drop, ~10% duplicate, occasional server freeze.
        let roll = rng.gen_range(0..1000u32);
        if roll < 200 {
            sim.step_options_into(&mut options);
            if !options.is_empty() {
                let (from, to) = options[rng.gen_range(0..options.len())];
                if roll < 100 {
                    sim.drop_head(from, to).expect("deliverable head");
                } else {
                    sim.duplicate_head(from, to).expect("deliverable head");
                }
            }
        } else if roll < 220 {
            let s = rng.gen_range(0..n_servers);
            let node = NodeId::server(s);
            if sim.is_frozen(node) {
                sim.unfreeze(node);
            } else {
                sim.freeze(node);
            }
        }
        sim.step_with(|opts| rng.gen_range(0..opts.len()));
    }

    // Fault-free drain: lift freezes, run fairly; dropped messages may
    // leave some ops open forever — they stay incomplete, which the
    // projection records faithfully.
    for s in 0..n_servers {
        let node = NodeId::server(s);
        if sim.is_frozen(node) {
            sim.unfreeze(node);
        }
    }
    let mut steps = 0u64;
    while sim.step_fair().is_some() {
        steps += 1;
        if steps > sim.config().step_limit {
            break;
        }
    }
    sim.audit_conservation()
        .expect("conservation ledgers must balance after drain");
}

#[test]
fn chaos_batched_sharded_abd_projections_stay_atomic() {
    for seed in 0..6u64 {
        let map = ShardMap::new(6, 2, 3);
        let mut sim = sharded_abd(map, 4);
        let zipf = ZipfKeys::new(16, 0.99);
        let mut next = 1u64;
        chaos_batched(&mut sim, seed, 4, |rng, is_writer| {
            let keys = zipf.sample_batch(rng, 3);
            if is_writer {
                let pairs: Vec<(Key, Value)> = keys
                    .iter()
                    .map(|&k| {
                        next += 1;
                        (k, next)
                    })
                    .collect();
                MultiInv::writes(&pairs)
            } else {
                MultiInv::reads(&keys)
            }
        });
        for (key, h) in project_histories(0, sim.ops()) {
            assert!(
                check_atomic(&h).is_ok(),
                "seed {seed}, key {key}: non-atomic projection under faults"
            );
        }
    }
}

#[test]
fn chaos_batched_sharded_cas_projections_stay_atomic() {
    for seed in 0..6u64 {
        let cfg = ShardedCasConfig::native(ShardMap::new(6, 2, 3), 1, ValueSpec::from_bits(SPEC));
        let mut sim = sharded_cas(&cfg, 4);
        let zipf = ZipfKeys::new(16, 0.99);
        let mut next = 1u64;
        chaos_batched(&mut sim, seed, 4, |rng, is_writer| {
            let keys = zipf.sample_batch(rng, 3);
            if is_writer {
                let pairs: Vec<(Key, Value)> = keys
                    .iter()
                    .map(|&k| {
                        next += 1;
                        (k, next)
                    })
                    .collect();
                MultiInv::writes(&pairs)
            } else {
                MultiInv::reads(&keys)
            }
        });
        for (key, h) in project_histories(0, sim.ops()) {
            assert!(
                check_atomic(&h).is_ok(),
                "seed {seed}, key {key}: non-atomic projection under faults"
            );
        }
    }
}
