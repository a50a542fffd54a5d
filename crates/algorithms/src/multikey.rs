//! The sharded multi-register keyspace: keys, shard placement, and the
//! batched multi-key operation interface.
//!
//! The paper states its storage bounds per register; a production-shaped
//! emulation serves many registers at once. This module supplies the
//! pieces that generalization shares across protocols:
//!
//! * [`Key`] — the register namespace (`u64`).
//! * [`ShardMap`] — a deterministic assignment of keys to *shards* and of
//!   shards to server subsets. Every per-key quorum is taken within the
//!   key's shard, so each shard is an independent `(replicas, f)` instance
//!   of the single-register emulation and the per-key bound accounting
//!   (`ν·N/(N−f)` with `N = replicas`) carries over unchanged.
//! * [`MultiInv`] / [`MultiResp`] — batched invocations: one operation
//!   carries reads/writes for any number of distinct keys, and the sharded
//!   clients coalesce each quorum round into **one message per
//!   (client, server) pair**, so a round touching `B` keys costs the same
//!   message count as a round touching one.
//! * [`project_histories`] — splits a batched execution into one
//!   single-register [`History`] per key, so the unmodified `shmem-spec`
//!   atomicity checkers apply key-by-key.

use crate::reg::{RegInv, RegResp};
use crate::value::Value;
use shmem_sim::OpRecord;
use shmem_spec::history::{History, OpKind};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A register name in the sharded keyspace.
pub type Key = u64;

/// Wire bytes of one serialized [`Key`] (`u64`).
pub const KEY_WIRE_BYTES: u64 = 8;

/// Wire bytes of one serialized phase nonce (`u64`).
pub const RID_WIRE_BYTES: u64 = 8;

/// SplitMix64-style finalizer: decorrelates adjacent keys before the shard
/// modulus so dense keyspaces spread evenly across shards.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic key → shard → server-subset placement.
///
/// Shard `s` lives on `replicas` consecutive servers starting at
/// `(s · spread) mod n` with `spread = max(1, n / shards)`, so shards
/// stripe around the ring and overlap only when `shards · replicas > n`.
/// [`ShardMap::full`] (one shard on all servers) is the single-register
/// placement: single-register ABD runs the keyed automaton on it at key 0,
/// and the differential tests pin batch-size-1 CAS and hashed CAS
/// step-isomorphic to their single-register automata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    n: u32,
    shards: u32,
    replicas: u32,
    /// `max(1, n / shards)`: the offset between consecutive shards.
    spread: u32,
}

impl ShardMap {
    /// A map of `shards` shards over `n` servers, `replicas` servers each.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ shards` and `1 ≤ replicas ≤ n`.
    pub fn new(n: u32, shards: u32, replicas: u32) -> ShardMap {
        assert!(n >= 1 && shards >= 1, "need at least one server and shard");
        assert!(
            (1..=n).contains(&replicas),
            "replicas must satisfy 1 <= replicas <= n"
        );
        ShardMap {
            n,
            shards,
            replicas,
            spread: (n / shards).max(1),
        }
    }

    /// The degenerate map: one shard covering every server — the
    /// single-register placement.
    pub fn full(n: u32) -> ShardMap {
        ShardMap::new(n, 1, n)
    }

    /// Total servers.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Servers per shard.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Majority within one shard (`replicas/2 + 1`) — the ABD quorum.
    pub fn majority(&self) -> u32 {
        self.replicas / 2 + 1
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: Key) -> u32 {
        if self.shards == 1 {
            0
        } else {
            (mix64(key) % u64::from(self.shards)) as u32
        }
    }

    /// First server of `shard`.
    fn base_of(&self, shard: u32) -> u32 {
        let (base, n) = (u64::from(shard) * u64::from(self.spread), u64::from(self.n));
        // Wraps only with more shards than servers: the placement queries
        // on the message path need no division otherwise.
        (if base < n { base } else { base % n }) as u32
    }

    /// The servers holding `shard`, in canonical (send) order.
    pub fn servers_of_shard(&self, shard: u32) -> impl Iterator<Item = u32> + '_ {
        let base = self.base_of(shard);
        let n = self.n;
        (0..self.replicas).map(move |j| (base + j) % n)
    }

    /// The servers holding `key`.
    pub fn servers_of_key(&self, key: Key) -> impl Iterator<Item = u32> + '_ {
        self.servers_of_shard(self.shard_of(key))
    }

    /// `server`'s position within `shard` (its erasure-share index), or
    /// `None` if the server does not hold the shard.
    pub fn position_in_shard(&self, server: u32, shard: u32) -> Option<u32> {
        debug_assert!(server < self.n, "no server {server} among {}", self.n);
        let base = self.base_of(shard);
        let pos = if server >= base {
            server - base
        } else {
            server + self.n - base
        };
        (pos < self.replicas).then_some(pos)
    }

    /// `server`'s share index for `key`, or `None` if it does not hold it.
    pub fn position_for_key(&self, server: u32, key: Key) -> Option<u32> {
        self.position_in_shard(server, self.shard_of(key))
    }

    /// Whether `server` stores `key`.
    pub fn covers(&self, server: u32, key: Key) -> bool {
        self.position_for_key(server, key).is_some()
    }
}

/// A batched invocation: per-key register operations executed as one
/// client operation. Keys must be distinct within a batch (the sharded
/// clients assert this — one batch is one round, and a round carries at
/// most one version per key).
#[derive(Clone, Debug, PartialEq)]
pub struct MultiInv {
    /// The batch, in response order: `(key, read-or-write)`.
    pub ops: Vec<(Key, RegInv)>,
}

impl MultiInv {
    /// A write batch: store `value` under each `key`.
    pub fn writes(pairs: &[(Key, Value)]) -> MultiInv {
        MultiInv {
            ops: pairs.iter().map(|&(k, v)| (k, RegInv::Write(v))).collect(),
        }
    }

    /// A read batch.
    pub fn reads(keys: &[Key]) -> MultiInv {
        MultiInv {
            ops: keys.iter().map(|&k| (k, RegInv::Read)).collect(),
        }
    }

    /// The batch's keys, in batch order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.ops.iter().map(|&(k, _)| k)
    }

    /// Panics unless the batch is well-formed: nonempty with distinct keys.
    pub fn assert_well_formed(&self) {
        assert_well_formed(&self.ops);
    }
}

/// Panics unless `ops` is a well-formed batch: nonempty with distinct
/// keys. Allocation-free: batches are small, so a pairwise scan is cheap.
pub(crate) fn assert_well_formed(ops: &[(Key, RegInv)]) {
    assert!(!ops.is_empty(), "empty batch");
    for (i, &(key, _)) in ops.iter().enumerate() {
        assert!(
            ops[..i].iter().all(|&(k, _)| k != key),
            "batch keys must be distinct: {ops:?}"
        );
    }
}

/// A batched response: one [`RegResp`] per key of the invoking batch, in
/// batch order.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiResp {
    /// Per-key outcomes.
    pub ops: Vec<(Key, RegResp)>,
}

impl MultiResp {
    /// The outcome for `key`, if the batch contained it.
    pub fn get(&self, key: Key) -> Option<&RegResp> {
        self.ops.iter().find(|&&(k, _)| k == key).map(|(_, r)| r)
    }
}

/// An invocation a keyed automaton accepts: a batch of per-key register
/// operations, unpacked into the automaton's reusable buffer.
pub trait IntoBatch {
    /// Appends the batch's `(key, op)` pairs, in response order, to `ops`.
    fn into_batch(self, ops: &mut Vec<(Key, RegInv)>);
}

/// A response a keyed automaton produces from its per-key outcomes.
pub trait FromBatch {
    /// The response for `outcomes`, given in batch order.
    fn from_batch(outcomes: &[(Key, RegResp)]) -> Self;
}

/// A single-register operation is the one-key batch at key 0.
impl IntoBatch for RegInv {
    fn into_batch(self, ops: &mut Vec<(Key, RegInv)>) {
        ops.push((0, self));
    }
}

impl FromBatch for RegResp {
    fn from_batch(outcomes: &[(Key, RegResp)]) -> RegResp {
        debug_assert_eq!(outcomes.len(), 1, "a register answers one key");
        outcomes[0].1
    }
}

impl IntoBatch for MultiInv {
    fn into_batch(self, ops: &mut Vec<(Key, RegInv)>) {
        ops.extend(self.ops);
    }
}

impl FromBatch for MultiResp {
    fn from_batch(outcomes: &[(Key, RegResp)]) -> MultiResp {
        MultiResp {
            ops: outcomes.to_vec(),
        }
    }
}

/// The per-key payload of one message: a list that holds a single entry
/// inline, so a one-key round costs no heap allocation per message. It
/// dereferences to a slice and prints, compares and serializes exactly
/// like the `Vec` it replaces.
#[derive(Clone, PartialEq)]
pub struct Items<T>(Repr<T>);

/// Canonical — `One` exactly when there is one entry — so the derived
/// equality is list equality.
#[derive(Clone, PartialEq)]
enum Repr<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Deref for Items<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }
}

impl<T> DerefMut for Items<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::One(item) => std::slice::from_mut(item),
            Repr::Many(items) => items,
        }
    }
}

impl<T> FromIterator<T> for Items<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Items<T> {
        let mut iter = iter.into_iter();
        match (iter.next(), iter.next()) {
            (Some(one), None) => Items(Repr::One(one)),
            (first, second) => Items(Repr::Many(
                first.into_iter().chain(second).chain(iter).collect(),
            )),
        }
    }
}

impl<T> From<Vec<T>> for Items<T> {
    fn from(items: Vec<T>) -> Items<T> {
        if items.len() == 1 {
            items.into_iter().collect()
        } else {
            Items(Repr::Many(items))
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Items<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The per-key payload of a single-register message: exactly one entry,
/// held inline with no heap variant, so the message needs no destructor.
/// Like [`Items`] it dereferences to a slice and prints as a list.
#[derive(Clone, Copy, PartialEq)]
pub struct One<T>(pub T);

impl<T> Deref for One<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        std::slice::from_ref(&self.0)
    }
}

impl<T> DerefMut for One<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        std::slice::from_mut(&mut self.0)
    }
}

impl<T> FromIterator<T> for One<T> {
    /// # Panics
    ///
    /// Panics unless `iter` yields exactly one entry.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> One<T> {
        let mut iter = iter.into_iter();
        match (iter.next(), iter.next()) {
            (Some(one), None) => One(one),
            _ => panic!("a single-register message carries exactly one key"),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for One<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entry(&self.0).finish()
    }
}

/// How a message type holds its per-key lists: [`Batch`] for keyed rounds
/// of any size, [`Register`] for the single register.
pub trait ListKind: Clone + fmt::Debug + PartialEq {
    /// The list of `T`s a message carries.
    type List<T: Clone + fmt::Debug + PartialEq>: Deref<Target = [T]>
        + DerefMut
        + FromIterator<T>
        + Clone
        + fmt::Debug
        + PartialEq;
}

/// Lists of any length ([`Items`]): the keyed protocols' messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Batch;

impl ListKind for Batch {
    type List<T: Clone + fmt::Debug + PartialEq> = Items<T>;
}

/// One-entry lists ([`One`]): the single-register protocols' messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Register;

impl ListKind for Register {
    type List<T: Clone + fmt::Debug + PartialEq> = One<T>;
}

/// Splits a batched execution into one single-register history per key.
///
/// Every `(key, op)` of a batch becomes an operation in `key`'s history
/// with the *batch's* invocation/response interval — the per-key operation
/// was live for at least that interval, so atomicity of every projection
/// is exactly the multi-register correctness condition.
///
/// A key whose read came back as [`RegResp::ReadFailed`] is *omitted*: a
/// failed read returned nothing, so it constrains no checker — and the
/// client went on to its next operation, so recording the failure as an
/// open interval would break per-client well-formedness. A key missing
/// from the response (operation timed out; the client retired without
/// invoking again) stays recorded as incomplete, since a half-delivered
/// write may still have taken effect.
///
/// Only touched keys appear; each history starts from `initial`.
pub fn project_histories(
    initial: Value,
    ops: &[OpRecord<MultiInv, MultiResp>],
) -> BTreeMap<Key, History<Value>> {
    let mut histories: BTreeMap<Key, History<Value>> = BTreeMap::new();
    for record in ops {
        for (key, inv) in &record.invocation.ops {
            let kind = match *inv {
                RegInv::Write(v) => OpKind::Write(v),
                RegInv::Read => OpKind::Read,
            };
            let outcome = record
                .responded_at
                .zip(record.response.as_ref().and_then(|r| r.get(*key)));
            if let Some((_, RegResp::ReadFailed(_))) = outcome {
                continue;
            }
            let h = histories
                .entry(*key)
                .or_insert_with(|| History::new(initial));
            let id = h.begin(record.client.0, kind, record.invoked_at);
            if let Some((t, resp)) = outcome {
                h.complete(id, t, resp.read_value());
            }
        }
    }
    histories
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_map_is_the_legacy_placement() {
        let m = ShardMap::full(5);
        assert_eq!(m.shards(), 1);
        assert_eq!(m.replicas(), 5);
        assert_eq!(m.majority(), 3);
        for key in [0u64, 1, 99, u64::MAX] {
            assert_eq!(m.shard_of(key), 0);
            let servers: Vec<u32> = m.servers_of_key(key).collect();
            assert_eq!(servers, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn shards_partition_servers_when_disjoint() {
        let m = ShardMap::new(6, 2, 3);
        let s0: Vec<u32> = m.servers_of_shard(0).collect();
        let s1: Vec<u32> = m.servers_of_shard(1).collect();
        assert_eq!(s0, vec![0, 1, 2]);
        assert_eq!(s1, vec![3, 4, 5]);
        for s in 0..6 {
            let covering = (0..2).filter(|&sh| m.position_in_shard(s, sh).is_some());
            assert_eq!(covering.count(), 1, "server {s}");
        }
    }

    #[test]
    fn positions_index_the_shard_consecutively() {
        let m = ShardMap::new(6, 2, 3);
        assert_eq!(m.position_in_shard(3, 1), Some(0));
        assert_eq!(m.position_in_shard(5, 1), Some(2));
        assert_eq!(m.position_in_shard(0, 1), None);
        // Wrap-around shard: base 4, replicas 3 on n=6 covers {4, 5, 0}.
        let w = ShardMap::new(6, 3, 3);
        assert_eq!(w.base_of(2), 4);
        let servers: Vec<u32> = w.servers_of_shard(2).collect();
        assert_eq!(servers, vec![4, 5, 0]);
        assert_eq!(w.position_in_shard(0, 2), Some(2));
    }

    #[test]
    fn shard_of_is_deterministic_and_spread() {
        let m = ShardMap::new(8, 4, 2);
        let mut counts = [0u32; 4];
        for key in 0..1000u64 {
            let s = m.shard_of(key);
            assert_eq!(s, m.shard_of(key));
            counts[s as usize] += 1;
        }
        // mix64 spreads a dense keyspace roughly evenly.
        assert!(counts.iter().all(|&c| c > 150), "skewed: {counts:?}");
    }

    #[test]
    fn batch_well_formedness() {
        MultiInv::writes(&[(1, 10), (2, 20)]).assert_well_formed();
        MultiInv::reads(&[7]).assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_keys_rejected() {
        MultiInv::reads(&[3, 3]).assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_batch_rejected() {
        MultiInv { ops: Vec::new() }.assert_well_formed();
    }

    #[test]
    fn items_hold_one_entry_inline_and_act_like_a_vec() {
        let one: Items<u64> = std::iter::once(7).collect();
        assert!(matches!(one.0, Repr::One(7)));
        assert_eq!(one, Items::from(vec![7]));
        assert_eq!(format!("{one:?}"), format!("{:?}", vec![7u64]));
        let many: Items<u64> = (1..=3).collect();
        assert_eq!(&*many, &[1, 2, 3]);
        assert_eq!(format!("{many:?}"), "[1, 2, 3]");
        let none: Items<u64> = std::iter::empty().collect();
        assert!(none.is_empty());
        assert_ne!(one, many);
    }

    #[test]
    fn registers_are_one_key_batches_at_key_zero() {
        let mut ops = Vec::new();
        RegInv::Write(5).into_batch(&mut ops);
        assert_eq!(ops, vec![(0, RegInv::Write(5))]);
        assert_eq!(
            RegResp::from_batch(&[(0, RegResp::ReadValue(5))]),
            RegResp::ReadValue(5)
        );
        ops.clear();
        MultiInv::reads(&[3, 4]).into_batch(&mut ops);
        assert_eq!(ops, vec![(3, RegInv::Read), (4, RegInv::Read)]);
    }

    #[test]
    fn projection_splits_batches_per_key() {
        use shmem_sim::ClientId;
        let ops = vec![
            OpRecord {
                client: ClientId(0),
                invoked_at: 1,
                responded_at: Some(5),
                invocation: MultiInv::writes(&[(1, 11), (2, 22)]),
                response: Some(MultiResp {
                    ops: vec![(1, RegResp::WriteAck), (2, RegResp::WriteAck)],
                }),
            },
            OpRecord {
                client: ClientId(1),
                invoked_at: 6,
                responded_at: Some(9),
                invocation: MultiInv::reads(&[2, 3]),
                response: Some(MultiResp {
                    ops: vec![(2, RegResp::ReadValue(22)), (3, RegResp::ReadValue(0))],
                }),
            },
        ];
        let hs = project_histories(0, &ops);
        assert_eq!(hs.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(hs[&1].len(), 1);
        assert_eq!(hs[&2].len(), 2);
        let read = &hs[&2].ops()[1];
        assert_eq!(read.returned, Some(22));
        for h in hs.values() {
            assert!(shmem_spec::check_atomic(h).is_ok());
        }
    }

    #[test]
    fn projection_omits_failed_reads() {
        use shmem_erasure::CodeError;
        use shmem_sim::ClientId;
        let failed = OpRecord {
            client: ClientId(0),
            invoked_at: 1,
            responded_at: Some(4),
            invocation: MultiInv::reads(&[5]),
            response: Some(MultiResp {
                ops: vec![(5, RegResp::ReadFailed(CodeError::LengthMismatch))],
            }),
        };
        // The same client moves on after the failure; its later read of
        // the key must leave the projection well-formed and atomic.
        let later = OpRecord {
            client: ClientId(0),
            invoked_at: 6,
            responded_at: Some(9),
            invocation: MultiInv::reads(&[5]),
            response: Some(MultiResp {
                ops: vec![(5, RegResp::ReadValue(0))],
            }),
        };
        let hs = project_histories(0, &[failed, later]);
        assert_eq!(hs[&5].len(), 1, "failed read must not be recorded");
        assert!(hs[&5].is_well_formed());
        assert!(shmem_spec::check_atomic(&hs[&5]).is_ok());
    }

    #[test]
    fn projection_keeps_timed_out_ops_incomplete() {
        use shmem_sim::ClientId;
        let ops = vec![OpRecord {
            client: ClientId(0),
            invoked_at: 1,
            responded_at: None,
            invocation: MultiInv::writes(&[(5, 50)]),
            response: None,
        }];
        let hs = project_histories(0, &ops);
        assert!(!hs[&5].ops()[0].is_complete());
    }
}
