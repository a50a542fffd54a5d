//! Property tests for the wire and frame codecs.
//!
//! The RPC encoding is hand-rolled (no serde in this workspace), so its
//! contract is pinned here exhaustively: every message the protocols can
//! emit round-trips byte-exactly, truncation at *every* prefix length
//! fails with a clean [`WireError`]/[`FrameError`] (never a panic, never
//! a bogus value), and hostile length fields are rejected before any
//! large allocation. Generation is seeded [`DetRng`], so a failure
//! reproduces from its seed.

use shmem_algorithms::abd::ShardedAbdMsg;
use shmem_algorithms::cas::ShardedCasMsg;
use shmem_algorithms::hashed::ShardedHashedMsg;
use shmem_algorithms::multikey::{Key, MultiInv, MultiResp};
use shmem_algorithms::reg::RegResp;
use shmem_algorithms::tag::Tag;
use shmem_erasure::CodeError;
use shmem_net::{WireError, WireMsg, WireWriter};
use shmem_util::DetRng;

fn arb_tag(rng: &mut DetRng) -> Tag {
    Tag::new(rng.gen_range(0..1u64 << 40), rng.gen_range(0..1u32 << 16))
}

fn arb_key(rng: &mut DetRng) -> Key {
    // Mix tiny and huge keys: the codec must not assume density.
    if rng.gen_bool(0.5) {
        rng.gen_range(0..64u64)
    } else {
        rng.next_u64()
    }
}

fn arb_share(rng: &mut DetRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
}

fn arb_code_error(rng: &mut DetRng) -> CodeError {
    match rng.gen_range(0..5u32) {
        0 => CodeError::InvalidParams {
            n: rng.gen_range(0..1000usize),
            k: rng.gen_range(0..1000usize),
            field_order: 256,
        },
        1 => CodeError::NotEnoughShares {
            have: rng.gen_range(0..100usize),
            need: rng.gen_range(0..100usize),
        },
        2 => CodeError::IndexOutOfRange {
            index: rng.gen_range(0..1000usize),
            n: rng.gen_range(0..1000usize),
        },
        3 => CodeError::IntegrityMismatch,
        _ => CodeError::LengthMismatch,
    }
}

/// Distinct keys, `n` of them (batch invariants require distinctness).
fn arb_keys(rng: &mut DetRng, n: usize) -> Vec<Key> {
    let mut keys = std::collections::BTreeSet::new();
    while keys.len() < n {
        keys.insert(arb_key(rng));
    }
    keys.into_iter().collect()
}

fn arb_multi_inv(rng: &mut DetRng, batch: usize) -> MultiInv {
    let keys = arb_keys(rng, batch);
    if rng.gen_bool(0.5) {
        let pairs: Vec<(Key, u64)> = keys.iter().map(|&k| (k, rng.next_u64())).collect();
        MultiInv::writes(&pairs)
    } else {
        MultiInv::reads(&keys)
    }
}

fn arb_multi_resp(rng: &mut DetRng, batch: usize) -> MultiResp {
    let ops = arb_keys(rng, batch)
        .into_iter()
        .map(|k| {
            let resp = match rng.gen_range(0..3u32) {
                0 => RegResp::WriteAck,
                1 => RegResp::ReadValue(rng.next_u64()),
                _ => RegResp::ReadFailed(arb_code_error(rng)),
            };
            (k, resp)
        })
        .collect();
    MultiResp { ops }
}

fn arb_cas_msg(rng: &mut DetRng, batch: usize) -> ShardedCasMsg {
    let rid = rng.next_u64();
    let keys = arb_keys(rng, batch);
    match rng.gen_range(0..8u32) {
        0 => ShardedCasMsg::QueryTag { rid, keys },
        1 => ShardedCasMsg::QueryTagResp {
            rid,
            items: keys.iter().map(|&k| (k, arb_tag(rng))).collect(),
        },
        2 => ShardedCasMsg::PreWrite {
            rid,
            items: keys
                .iter()
                .map(|&k| (k, arb_tag(rng), arb_share(rng, 32)))
                .collect(),
        },
        3 => ShardedCasMsg::PreAck { rid },
        4 => ShardedCasMsg::Finalize {
            rid,
            items: keys.iter().map(|&k| (k, arb_tag(rng))).collect(),
        },
        5 => ShardedCasMsg::FinAck { rid },
        6 => ShardedCasMsg::ReadGet {
            rid,
            items: keys.iter().map(|&k| (k, arb_tag(rng))).collect(),
        },
        _ => ShardedCasMsg::ReadResp {
            rid,
            items: keys
                .iter()
                .map(|&k| {
                    let share = rng.gen_bool(0.7).then(|| arb_share(rng, 32));
                    (k, share)
                })
                .collect(),
        },
    }
}

fn arb_abd_msg(rng: &mut DetRng, batch: usize) -> ShardedAbdMsg {
    let rid = rng.next_u64();
    let keys = arb_keys(rng, batch);
    match rng.gen_range(0..4u32) {
        0 => ShardedAbdMsg::Query {
            rid,
            keys: keys.into(),
        },
        1 => ShardedAbdMsg::QueryResp {
            rid,
            items: keys
                .iter()
                .map(|&k| (k, arb_tag(rng), rng.next_u64()))
                .collect(),
        },
        2 => ShardedAbdMsg::Store {
            rid,
            items: keys
                .iter()
                .map(|&k| (k, arb_tag(rng), rng.next_u64()))
                .collect(),
        },
        _ => ShardedAbdMsg::StoreAck { rid },
    }
}

fn arb_hashed_msg(rng: &mut DetRng, batch: usize) -> ShardedHashedMsg {
    let rid = rng.next_u64();
    match rng.gen_range(0..4u32) {
        0 => ShardedHashedMsg::Cas(arb_cas_msg(rng, batch)),
        1 => ShardedHashedMsg::HashAnnounce {
            rid,
            items: arb_keys(rng, batch)
                .into_iter()
                .map(|k| (k, arb_tag(rng), rng.next_u64()))
                .collect(),
        },
        2 => ShardedHashedMsg::ReadResp {
            rid,
            items: arb_keys(rng, batch)
                .into_iter()
                .map(|k| {
                    let share = rng.gen_bool(0.7).then(|| arb_share(rng, 32));
                    let digest = rng.gen_bool(0.7).then(|| rng.next_u64());
                    (k, share, digest)
                })
                .collect(),
        },
        _ => ShardedHashedMsg::HashAck { rid },
    }
}

/// Round-trips `value` and asserts (a) decode(encode(x)) == x and (b)
/// re-encoding the decoded value reproduces the identical byte string.
fn assert_roundtrip<M: WireMsg + PartialEq + std::fmt::Debug>(value: &M, what: &str) {
    let bytes = value.to_wire();
    let back = M::from_wire(&bytes)
        .unwrap_or_else(|e| panic!("{what}: decode of own encoding failed: {e:?}"));
    assert_eq!(&back, value, "{what}: decode(encode(x)) != x");
    assert_eq!(back.to_wire(), bytes, "{what}: re-encoding diverged");
}

/// Decoding any strict prefix must fail cleanly — no panic, no value.
fn assert_truncations_fail<M: WireMsg + std::fmt::Debug>(value: &M, what: &str) {
    let bytes = value.to_wire();
    for cut in 0..bytes.len() {
        match M::from_wire(&bytes[..cut]) {
            // A prefix that still decodes must at least not be accepted
            // as the full value: from_wire rejects trailing bytes, so the
            // only legal outcome is an error.
            Err(_) => {}
            Ok(v) => panic!(
                "{what}: prefix of {cut}/{} bytes decoded to {v:?}",
                bytes.len()
            ),
        }
    }
}

#[test]
fn payloads_roundtrip_across_batch_sizes() {
    let mut rng = DetRng::seed_from_u64(0x317E);
    for trial in 0..200 {
        let batch = [1usize, 2, 3, 16][trial % 4];
        assert_roundtrip(&arb_multi_inv(&mut rng, batch), "MultiInv");
        assert_roundtrip(&arb_multi_resp(&mut rng, batch), "MultiResp");
        assert_roundtrip(&arb_cas_msg(&mut rng, batch), "ShardedCasMsg");
        assert_roundtrip(&arb_abd_msg(&mut rng, batch), "ShardedAbdMsg");
        assert_roundtrip(&arb_hashed_msg(&mut rng, batch), "ShardedHashedMsg");
    }
}

#[test]
fn truncated_payloads_fail_cleanly() {
    let mut rng = DetRng::seed_from_u64(0xBAD);
    for trial in 0..40 {
        let batch = [1usize, 2, 16][trial % 3];
        assert_truncations_fail(&arb_multi_inv(&mut rng, batch), "MultiInv");
        assert_truncations_fail(&arb_multi_resp(&mut rng, batch), "MultiResp");
        assert_truncations_fail(&arb_cas_msg(&mut rng, batch), "ShardedCasMsg");
        assert_truncations_fail(&arb_abd_msg(&mut rng, batch), "ShardedAbdMsg");
        assert_truncations_fail(&arb_hashed_msg(&mut rng, batch), "ShardedHashedMsg");
    }
}

#[test]
fn empty_batches_roundtrip() {
    assert_roundtrip(&MultiInv { ops: Vec::new() }, "empty MultiInv");
    assert_roundtrip(&MultiResp { ops: Vec::new() }, "empty MultiResp");
    assert_roundtrip(
        &ShardedCasMsg::QueryTag {
            rid: 0,
            keys: Vec::new(),
        },
        "empty QueryTag",
    );
    assert_roundtrip(
        &ShardedCasMsg::ReadResp {
            rid: 0,
            items: Vec::new(),
        },
        "empty ReadResp",
    );
    // Zero-length shares are legal payloads, not truncation.
    assert_roundtrip(
        &ShardedCasMsg::PreWrite {
            rid: 1,
            items: vec![(7, Tag::ZERO, Vec::new())],
        },
        "zero-length share",
    );
}

#[test]
fn max_batch_roundtrips() {
    // The full simulator batch ceiling; each item small so the test
    // stays fast. Exercises the count path at scale.
    let mut rng = DetRng::seed_from_u64(7);
    let keys = arb_keys(&mut rng, 1 << 10);
    let msg = ShardedCasMsg::Finalize {
        rid: 9,
        items: keys.into_iter().map(|k| (k, Tag::ZERO)).collect(),
    };
    assert_roundtrip(&msg, "1024-item Finalize");
}

#[test]
fn hostile_counts_and_lengths_rejected_without_allocation() {
    // A count field claiming 2^32-1 items backed by no bytes.
    let mut w = WireWriter::new();
    w.u8(4); // Finalize
    w.u64(1); // rid
    w.u32(u32::MAX); // item count
    let buf = w.finish();
    match ShardedCasMsg::from_wire(&buf) {
        Err(WireError::TooLarge { .. }) | Err(WireError::Truncated { .. }) => {}
        other => panic!("hostile count accepted: {other:?}"),
    }

    // A share length claiming a 4 GiB payload backed by nothing.
    let mut w = WireWriter::new();
    w.u8(2); // PreWrite
    w.u64(1); // rid
    w.u32(1); // one item
    w.u64(3); // key
    Tag::ZERO.encode(&mut w);
    w.u32(u32::MAX); // share length
    let buf = w.finish();
    match ShardedCasMsg::from_wire(&buf) {
        Err(WireError::TooLarge { .. }) | Err(WireError::Truncated { .. }) => {}
        other => panic!("hostile share length accepted: {other:?}"),
    }
}

#[test]
fn trailing_garbage_rejected() {
    let mut rng = DetRng::seed_from_u64(11);
    let msg = arb_cas_msg(&mut rng, 2);
    let mut bytes = msg.to_wire();
    bytes.push(0);
    assert!(matches!(
        ShardedCasMsg::from_wire(&bytes),
        Err(WireError::Trailing { left: 1 })
    ));
}
