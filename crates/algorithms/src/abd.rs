//! The Attiya–Bar-Noy–Dolev (ABD) replication algorithm \[3\], in its
//! multi-writer multi-reader form, as one keyed automaton.
//!
//! * **Write**: query a majority for the highest tag; pick the successor
//!   tag; store `(tag, value)` at a majority.
//! * **Read**: query a majority for the highest `(tag, value)`; write that
//!   pair back to a majority; return the value.
//!
//! Servers hold one `(tag, value)` pair per register, so per-server storage
//! is `log2|V|` bits of value plus `o(log|V|)` of tag metadata — the
//! replication cost the paper's Figure 1 plots as `f + 1` (on a minimal
//! replica set) and that Theorem 6.5 shows is optimal once the number of
//! active writes reaches `f + 1`.
//!
//! There is one server automaton ([`ShardedAbdServerOn`], generic over the
//! [`AbdBackend`] holding its registers) and one client automaton
//! ([`ShardedAbdClient`]); both speak batches of keys ([`IntoBatch`],
//! [`FromBatch`]). [`ShardedAbd`] serves a keyspace; [`Abd`] and its
//! variants ([`crate::abd_gossip`], [`crate::swmr`],
//! [`crate::nowriteback`], [`crate::lossy`]) serve one register, the
//! one-key batch at key 0 of [`ShardMap::full`], in [`RegisterMsg`]s.
//!
//! ABD sends no server-to-server messages, so it is a member of the
//! Theorem 4.1 (no-gossip) algorithm class.

use crate::backend::{AbdBackend, LocalAbd, OneSlot};
use crate::multikey::{assert_well_formed, Batch, FromBatch, IntoBatch, ListKind, Register};
use crate::multikey::{Key, MultiInv, MultiResp, ShardMap, KEY_WIRE_BYTES, RID_WIRE_BYTES};
use crate::reg::{RegInv, RegResp};
use crate::tag::Tag;
use crate::value::{Value, ValueSpec};
use shmem_sim::{hash_of, Ctx, Node, NodeId, Protocol};
use std::collections::{BTreeMap, BTreeSet};

/// Protocol marker for single-register ABD: the keyed automata serving one
/// register, key 0 of [`ShardMap::full`], over a [`OneSlot`] backend.
pub struct Abd;

impl Protocol for Abd {
    type Msg = RegisterMsg;
    type Inv = RegInv;
    type Resp = RegResp;
    type Server = ShardedAbdServerOn<OneSlot>;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &RegisterMsg) -> u64 {
        msg.wire_bytes()
    }

    fn corrupt_server(server: &mut ShardedAbdServerOn<OneSlot>, mode: u8, salt: u64) -> bool {
        server.backend_mut().corrupt(mode, salt)
    }

    fn corrupt_msg(msg: &mut RegisterMsg, salt: u64) -> bool {
        corrupt_abd_msg(msg, salt)
    }
}

/// Whether an ABD message is *value-dependent* (the paper's Definition
/// 6.4: its content depends on the value being written), restricted to
/// client-to-server traffic — what the Section 6 construction withholds.
/// Only `Store` carries the value, so ABD writes send value-dependent
/// messages in exactly one phase (the second): ABD satisfies Assumption 3.
pub fn is_value_dependent_upstream<L: ListKind>(msg: &ShardedAbdMsg<L>) -> bool {
    matches!(msg, ShardedAbdMsg::Store { .. })
}

/// In-flight corruption for the ABD repertoire: tamper the carried values
/// of the value-bearing messages (salted per key), leave routing, nonces,
/// keys and tags intact. Queries and acks carry no corruptible payload.
fn corrupt_abd_msg<L: ListKind>(msg: &mut ShardedAbdMsg<L>, salt: u64) -> bool {
    match msg {
        ShardedAbdMsg::QueryResp { items, .. } | ShardedAbdMsg::Store { items, .. } => {
            for (key, _, value) in items.iter_mut() {
                *value = shmem_util::tamper_value(*value, salt, *key);
            }
            !items.is_empty()
        }
        ShardedAbdMsg::Query { .. } | ShardedAbdMsg::StoreAck { .. } => false,
    }
}

/// Protocol marker for sharded multi-register ABD.
///
/// Servers hold a per-key `(tag, value)` map (sparse — an absent key reads
/// as the initial value under [`Tag::ZERO`]), and clients run both ABD
/// phases for a whole batch of keys at once, coalescing each round into one
/// message per (client, server) pair. With [`ShardMap::full`] and batch
/// size 1 the execution is step-for-step that of single-register [`Abd`].
pub struct ShardedAbd;

impl Protocol for ShardedAbd {
    type Msg = ShardedAbdMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedAbdServer;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &ShardedAbdMsg) -> u64 {
        msg.wire_bytes()
    }

    fn corrupt_server(server: &mut ShardedAbdServer, mode: u8, salt: u64) -> bool {
        server.backend_mut().corrupt(mode, salt)
    }

    fn corrupt_msg(msg: &mut ShardedAbdMsg, salt: u64) -> bool {
        corrupt_abd_msg(msg, salt)
    }
}

/// ABD wire messages: per-key payload lists under one phase nonce. `rid`
/// is the per-client phase nonce; stale responses are discarded by nonce
/// mismatch.
///
/// `L` picks the list type: the keyed protocols' [`Batch`] lists hold any
/// number of keys; the single-register protocols' [`Register`] lists
/// ([`RegisterMsg`]) hold exactly key 0 and own no heap memory. Both print
/// and serialize alike.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardedAbdMsg<L: ListKind = Batch> {
    /// Phase 1: ask a server for its `(tag, value)` of every listed key.
    Query {
        /// Phase nonce.
        rid: u64,
        /// The keys this server covers for the batch.
        keys: L::List<Key>,
    },
    /// Server's phase-1 reply, one entry per queried key.
    QueryResp {
        /// Echoed nonce.
        rid: u64,
        /// `(key, tag, value)` for every queried key.
        items: L::List<(Key, Tag, Value)>,
    },
    /// Phase 2: store every listed `(key, tag, value)` (write propagation
    /// or read write-back).
    Store {
        /// Phase nonce.
        rid: u64,
        /// The batch's versions for this server's keys.
        items: L::List<(Key, Tag, Value)>,
    },
    /// Server's phase-2 acknowledgement, covering every key of the
    /// [`ShardedAbdMsg::Store`] it answers.
    StoreAck {
        /// Echoed nonce.
        rid: u64,
    },
}

/// The single-register ABD message: one `(key 0)` entry per list.
pub type RegisterMsg = ShardedAbdMsg<Register>;

impl<L: ListKind> ShardedAbdMsg<L> {
    /// Exact serialized size: nonce plus per-entry payload. This is what
    /// the metrics ledger charges (via [`Protocol::msg_wire_bytes`]), so
    /// `wire_bytes` reflects the batched encoding rather than the enum's
    /// in-memory footprint.
    pub fn wire_bytes(&self) -> u64 {
        const ITEM: u64 = KEY_WIRE_BYTES + Tag::WIRE_BYTES + ValueSpec::VALUE_BYTES as u64;
        match self {
            ShardedAbdMsg::Query { keys, .. } => {
                RID_WIRE_BYTES + KEY_WIRE_BYTES * keys.len() as u64
            }
            ShardedAbdMsg::QueryResp { items, .. } | ShardedAbdMsg::Store { items, .. } => {
                RID_WIRE_BYTES + ITEM * items.len() as u64
            }
            ShardedAbdMsg::StoreAck { .. } => RID_WIRE_BYTES,
        }
    }
}

/// The ABD server: the highest-tagged `(tag, value)` per key it has been
/// asked to store.
///
/// Generic over the [`AbdBackend`] holding the per-key state, so the same
/// automaton runs against the sequential in-struct map ([`LocalAbd`], the
/// default: sparse — untouched keys cost nothing and read as
/// `(Tag::ZERO, initial)`), the single register ([`OneSlot`]), or a shared
/// lock-free store (`shmem-store`). Storage accounting and the digest are
/// the backend's.
#[derive(Clone, Debug)]
pub struct ShardedAbdServerOn<B> {
    initial: Value,
    spec: ValueSpec,
    backend: B,
}

/// The sequential reference server — the default everywhere in the repo.
pub type ShardedAbdServer = ShardedAbdServerOn<LocalAbd>;

impl ShardedAbdServerOn<LocalAbd> {
    /// A server whose every key starts at the register initial value.
    pub fn new(initial: Value, spec: ValueSpec) -> ShardedAbdServer {
        ShardedAbdServerOn::with_backend(initial, spec, LocalAbd::new())
    }
}

impl ShardedAbdServerOn<OneSlot> {
    /// A single-register server, starting at `initial`.
    pub fn register(initial: Value, spec: ValueSpec) -> ShardedAbdServerOn<OneSlot> {
        ShardedAbdServerOn::with_backend(initial, spec, OneSlot::new(initial))
    }
}

impl<B: AbdBackend> ShardedAbdServerOn<B> {
    /// A server over an explicit backend (possibly shared with others).
    pub fn with_backend(initial: Value, spec: ValueSpec, backend: B) -> ShardedAbdServerOn<B> {
        ShardedAbdServerOn {
            initial,
            spec,
            backend,
        }
    }

    /// The `(tag, value)` the server would report for `key`.
    pub fn entry(&self, key: Key) -> (Tag, Value) {
        self.backend.load(key).unwrap_or((Tag::ZERO, self.initial))
    }

    /// Number of keys with materialized (written) state.
    pub fn keys_held(&self) -> usize {
        self.backend.keys_held()
    }

    /// The state backend (for store-level assertions in tests).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access — the corruption adversary's seam into the
    /// server's stored state.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

impl<P, B, L> Node<P> for ShardedAbdServerOn<B>
where
    P: Protocol<Msg = ShardedAbdMsg<L>>,
    B: AbdBackend + Clone + std::fmt::Debug,
    L: ListKind,
{
    fn on_message(&mut self, from: NodeId, msg: ShardedAbdMsg<L>, ctx: &mut Ctx<P>) {
        match msg {
            ShardedAbdMsg::Query { rid, keys } => {
                let items = keys
                    .iter()
                    .map(|&k| {
                        let (t, v) = self.entry(k);
                        (k, t, v)
                    })
                    .collect();
                ctx.send(from, ShardedAbdMsg::QueryResp { rid, items });
            }
            ShardedAbdMsg::Store { rid, items } => {
                for &(key, tag, value) in items.iter() {
                    self.backend.store_if_newer(key, tag, value);
                }
                ctx.send(from, ShardedAbdMsg::StoreAck { rid });
            }
            ShardedAbdMsg::QueryResp { .. } | ShardedAbdMsg::StoreAck { .. } => {
                // Servers never receive responses; tolerate and ignore.
            }
        }
    }

    fn state_bits(&self) -> f64 {
        self.backend.state_bits(self.spec.bits)
    }

    fn metadata_bits(&self) -> f64 {
        self.backend.metadata_bits()
    }

    fn digest(&self) -> u64 {
        self.backend.digest_with(self.initial)
    }
}

/// Which ABD client an automaton runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    /// Multi-writer ABD: every operation queries, then stores (a write) or
    /// writes back (a read).
    Mwmr,
    /// Single-writer ABD: client 0 owns the tag sequence, so its writes
    /// skip the query phase.
    SingleWriter,
    /// ABD whose reads return straight after the query phase — the
    /// deliberately broken client.
    NoWriteBack,
}

/// Which phase an ABD client is in. Both phases run as *lockstep
/// barriers*: phase 2 starts only when every key of the batch has reached
/// its shard majority, so each phase costs exactly one message per
/// (client, server) pair regardless of batch size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    Query,
    Store,
}

/// The ABD client: a batched writer/reader over a [`ShardMap`], for any
/// protocol whose invocations and responses convert to and from a batch.
///
/// The per-phase state lives in buffers reused across operations, so a
/// one-key operation allocates nothing in steady state.
#[derive(Clone, Debug)]
pub struct ShardedAbdClient {
    map: ShardMap,
    me: u32,
    variant: Variant,
    /// The single writer's sequence number (single-writer variant only).
    seq: u64,
    rid: u64,
    phase: Phase,
    /// The open batch, in response order.
    ops: Vec<(Key, RegInv)>,
    /// Per batch entry: replies (query phase) or acks (store phase)
    /// counted so far.
    counts: Vec<u32>,
    /// Servers counted in the current phase (dedup under duplication).
    heard: Vec<u32>,
    /// Query-phase replies `(server, key, tag, value)`, in arrival order.
    replies: Vec<(u32, Key, Tag, Value)>,
    /// The store round's versions.
    stores: Vec<(Key, Tag, Value)>,
    /// Per batch entry: the outcome, decided at the query barrier.
    outcomes: Vec<(Key, RegResp)>,
}

impl ShardedAbdClient {
    /// A client for the given placement; `me` breaks tag ties.
    pub fn new(map: ShardMap, me: u32) -> ShardedAbdClient {
        ShardedAbdClient::with_variant(map, me, Variant::Mwmr)
    }

    /// A single-register client for an `n`-server cluster.
    pub fn register(n: u32, me: u32) -> ShardedAbdClient {
        ShardedAbdClient::new(ShardMap::full(n), me)
    }

    /// A single-writer single-register client: client 0 is the writer,
    /// every other client a reader.
    pub fn single_writer(n: u32, me: u32) -> ShardedAbdClient {
        ShardedAbdClient::with_variant(ShardMap::full(n), me, Variant::SingleWriter)
    }

    /// A single-register client whose reads skip the write-back phase.
    pub fn without_write_back(n: u32, me: u32) -> ShardedAbdClient {
        ShardedAbdClient::with_variant(ShardMap::full(n), me, Variant::NoWriteBack)
    }

    fn with_variant(map: ShardMap, me: u32, variant: Variant) -> ShardedAbdClient {
        // Sized for a one-key batch answered by every server, so such an
        // operation never grows them.
        let n = map.n() as usize;
        ShardedAbdClient {
            map,
            me,
            variant,
            seq: 0,
            rid: 0,
            phase: Phase::Idle,
            ops: Vec::with_capacity(1),
            counts: Vec::with_capacity(1),
            heard: Vec::with_capacity(n),
            replies: Vec::with_capacity(n),
            stores: Vec::with_capacity(1),
            outcomes: Vec::with_capacity(1),
        }
    }

    /// Opens a phase under a fresh nonce, with no server heard yet.
    fn open_phase(&mut self, phase: Phase) {
        self.rid += 1;
        self.phase = phase;
        self.heard.clear();
    }

    fn start_query<L, P>(&mut self, ctx: &mut Ctx<P>)
    where
        L: ListKind,
        P: Protocol<Msg = ShardedAbdMsg<L>>,
    {
        self.replies.clear();
        self.counts.clear();
        self.counts.resize(self.ops.len(), 0);
        self.open_phase(Phase::Query);
        let keys = self.ops.iter().map(|&(k, _)| k);
        let query = |rid, keys| ShardedAbdMsg::Query { rid, keys };
        self.send_round(keys, |&k| k, query, ctx);
    }

    /// Sends one round under the current nonce: each server, in canonical
    /// order, gets the message `make` builds from the entries whose keys it
    /// covers, and nothing if it covers none.
    fn send_round<L, P, T, I>(
        &self,
        entries: I,
        key: impl Fn(&T) -> Key,
        make: impl Fn(u64, L::List<T>) -> ShardedAbdMsg<L>,
        ctx: &mut Ctx<P>,
    ) where
        L: ListKind,
        P: Protocol<Msg = ShardedAbdMsg<L>>,
        T: Clone + std::fmt::Debug + PartialEq,
        I: Iterator<Item = T> + Clone,
    {
        let mut shards = entries.clone().map(|e| self.map.shard_of(key(&e)));
        let first = shards.next();
        if let Some(shard) = first.filter(|&s| shards.all(|t| t == s)) {
            // One shard holds the whole round (a single key, say): its
            // servers all get the same message.
            let msg = make(self.rid, entries.collect());
            for server in 0..self.map.n() {
                if self.map.position_in_shard(server, shard).is_some() {
                    ctx.send(NodeId::server(server), msg.clone());
                }
            }
            return;
        }
        for server in 0..self.map.n() {
            let mut items = entries
                .clone()
                .filter(|e| self.map.covers(server, key(e)))
                .peekable();
            if items.peek().is_some() {
                ctx.send(NodeId::server(server), make(self.rid, items.collect()));
            }
        }
    }

    /// Whether every batch entry has its shard majority.
    fn barrier(&self) -> bool {
        self.counts.iter().all(|&c| c >= self.map.majority())
    }

    /// Counts `server`'s reply. Returns whether the query barrier was
    /// reached.
    #[inline]
    fn on_reply(&mut self, server: u32, items: &[(Key, Tag, Value)]) -> bool {
        if self.heard.contains(&server) {
            // A duplicated query, answered twice. ABD counts a server's
            // first reply; the single-writer and write-back-less clients
            // keep its latest. Either is a read of the server within the
            // phase.
            if self.variant != Variant::Mwmr {
                for &(key, tag, value) in items {
                    let entry = self
                        .replies
                        .iter_mut()
                        .find(|r| (r.0, r.1) == (server, key));
                    if let Some(r) = entry {
                        (r.2, r.3) = (tag, value);
                    }
                }
            }
            return false;
        }
        self.heard.push(server);
        for &(key, tag, value) in items {
            if let Some(i) = self.ops.iter().position(|&(k, _)| k == key) {
                self.counts[i] += 1;
                self.replies.push((server, key, tag, value));
            }
        }
        self.barrier()
    }

    /// The query barrier: every key has its shard majority. Decides each
    /// key's outcome and the versions to store, then sends the store round
    /// — unless nothing needs storing. Returns whether the operation
    /// completed.
    fn decide<L, P>(&mut self, ctx: &mut Ctx<P>) -> bool
    where
        L: ListKind,
        P: Protocol<Msg = ShardedAbdMsg<L>>,
    {
        let majority = self.map.majority();
        self.stores.clear();
        self.outcomes.clear();
        self.counts.clear();
        for &(key, inv) in &self.ops {
            // The highest tag heard, the latest reply winning ties.
            let (tag, value) =
                self.replies
                    .iter()
                    .filter(|r| r.1 == key)
                    .fold((Tag::ZERO, 0), |best, r| {
                        if r.2 >= best.0 {
                            (r.2, r.3)
                        } else {
                            best
                        }
                    });
            let before = self.stores.len();
            let outcome = match inv {
                RegInv::Write(v) => {
                    let tag = match self.variant {
                        Variant::SingleWriter => Tag::new(self.seq, 0),
                        Variant::Mwmr | Variant::NoWriteBack => tag.successor(self.me),
                    };
                    self.stores.push((key, tag, v));
                    RegResp::WriteAck
                }
                RegInv::Read => {
                    if self.variant != Variant::NoWriteBack {
                        self.stores.push((key, tag, value));
                    }
                    RegResp::ReadValue(value)
                }
            };
            // A key with nothing to store needs no acks.
            let stored = self.stores.len() > before;
            self.counts.push(if stored { 0 } else { majority });
            self.outcomes.push((key, outcome));
        }
        if self.stores.is_empty() {
            return true;
        }
        self.open_phase(Phase::Store);
        let store = |rid, items| ShardedAbdMsg::Store { rid, items };
        self.send_round(self.stores.iter().copied(), |e| e.0, store, ctx);
        false
    }

    /// Counts `server`'s ack. Returns whether the operation completed.
    #[inline]
    fn on_ack(&mut self, server: u32) -> bool {
        if self.heard.contains(&server) {
            return false; // duplicated ack
        }
        self.heard.push(server);
        for (i, &(key, _)) in self.ops.iter().enumerate() {
            if self.map.covers(server, key) {
                self.counts[i] += 1;
            }
        }
        self.barrier()
    }

    /// The digest of ABD's client state. The reply and ack sets are
    /// semantically unordered (behaviour depends only on membership), so
    /// they are canonicalized by server — arrival order must not
    /// distinguish digests. A one-key batch at key 0 *is* a register
    /// client's state and digests without keys; any other batch also
    /// hashes its keys, and the phase's per-key state: the batch while
    /// querying, the outcomes while storing.
    fn abd_digest(&self) -> u64 {
        let mut replies: Vec<(u32, Key, Tag, Value)> = Vec::new();
        let mut acks: Vec<u32> = Vec::new();
        let (phase, op, outcome) = match self.phase {
            Phase::Idle => (0u8, None, None),
            Phase::Query => {
                replies.clone_from(&self.replies);
                replies.sort_unstable_by_key(|&(s, k, _, _)| (s, k));
                (1, Some(self.ops[0].1), None)
            }
            Phase::Store => {
                acks.clone_from(&self.heard);
                acks.sort_unstable();
                (2, None, Some(self.outcomes[0].1))
            }
        };
        let register: Vec<(u32, Tag, Value)> = replies.iter().map(|r| (r.0, r.2, r.3)).collect();
        let text = format!("{op:?}{outcome:?}");
        let digest = hash_of(&(self.me, self.rid, phase, text, (register, acks)));
        if self.phase == Phase::Idle || matches!(self.ops[..], [(0, _)]) {
            return digest;
        }
        let keys: Vec<Key> = replies.iter().map(|r| r.1).collect();
        let batch = match self.phase {
            Phase::Query => format!("{:?}", self.ops),
            _ => format!("{:?}", self.outcomes),
        };
        hash_of(&(digest, batch, keys))
    }

    /// The write-back-less client's digest: its phase as it prints, with
    /// the replies keyed by server.
    fn no_write_back_digest(&self) -> u64 {
        #[derive(Debug)]
        #[allow(dead_code)] // read through `Debug`
        enum View {
            Idle,
            Query {
                op: RegInv,
                responses: BTreeMap<u32, (Tag, Value)>,
            },
            Store {
                acks: BTreeSet<u32>,
            },
        }
        let (phase, view) = match self.phase {
            Phase::Idle => (0u8, View::Idle),
            Phase::Query => {
                let responses = self.replies.iter().map(|r| (r.0, (r.2, r.3))).collect();
                let op = self.ops[0].1;
                (1, View::Query { op, responses })
            }
            Phase::Store => {
                let acks = self.heard.iter().copied().collect();
                (2, View::Store { acks })
            }
        };
        hash_of(&(self.me, self.rid, phase, format!("{view:?}")))
    }
}

impl<P, L> Node<P> for ShardedAbdClient
where
    P: Protocol<Msg = ShardedAbdMsg<L>>,
    P::Inv: IntoBatch,
    P::Resp: FromBatch,
    L: ListKind,
{
    fn on_invoke(&mut self, inv: P::Inv, ctx: &mut Ctx<P>) {
        assert!(
            self.phase == Phase::Idle,
            "client invoked while an operation is in flight"
        );
        self.ops.clear();
        inv.into_batch(&mut self.ops);
        assert_well_formed(&self.ops);
        if self.variant == Variant::SingleWriter && self.ops.iter().any(|op| op.1 != RegInv::Read) {
            assert_eq!(
                self.me, 0,
                "single-writer register: only client 0 may write"
            );
            self.seq += 1;
            if self.ops.iter().all(|op| op.1 != RegInv::Read) {
                // The writer owns the tag sequence: one phase, no query.
                self.decide(ctx);
                return;
            }
        }
        self.start_query(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ShardedAbdMsg<L>, ctx: &mut Ctx<P>) {
        let Some(server) = from.as_server() else {
            return; // clients only talk to servers
        };
        let done = match msg {
            ShardedAbdMsg::QueryResp { rid, items }
                if rid == self.rid && self.phase == Phase::Query =>
            {
                self.on_reply(server.0, &items) && self.decide(ctx)
            }
            ShardedAbdMsg::StoreAck { rid } if rid == self.rid && self.phase == Phase::Store => {
                self.on_ack(server.0)
            }
            _ => false, // stale or out-of-phase message
        };
        if done {
            self.phase = Phase::Idle;
            self.rid += 1;
            ctx.respond(P::Resp::from_batch(&self.outcomes));
        }
    }

    fn digest(&self) -> u64 {
        match self.variant {
            Variant::Mwmr => self.abd_digest(),
            Variant::SingleWriter => hash_of(&(self.seq, self.abd_digest())),
            Variant::NoWriteBack => self.no_write_back_digest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multikey::One;
    use shmem_sim::{ClientId, ServerId, Sim, SimConfig};

    fn cluster(n: u32, clients: u32) -> Sim<Abd> {
        let spec = ValueSpec::from_bits(64.0);
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

    #[test]
    fn write_then_read() {
        let mut sim = cluster(5, 2);
        sim.invoke(ClientId(0), RegInv::Write(42)).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::WriteAck
        );
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(42)
        );
    }

    #[test]
    fn read_of_initial_value() {
        let mut sim = cluster(3, 1);
        sim.invoke(ClientId(0), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::ReadValue(0)
        );
    }

    #[test]
    fn tolerates_minority_failures() {
        let mut sim = cluster(5, 2);
        sim.fail_last_servers(2);
        sim.invoke(ClientId(0), RegInv::Write(7)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(7)
        );
    }

    #[test]
    fn stuck_under_majority_failures() {
        let mut sim = cluster(5, 1);
        sim.fail_last_servers(3);
        sim.invoke(ClientId(0), RegInv::Write(7)).unwrap();
        assert!(sim.run_until_op_completes(ClientId(0)).is_err());
    }

    #[test]
    fn sequential_writes_monotone_tags() {
        let mut sim = cluster(3, 1);
        for v in 1..=4 {
            sim.invoke(ClientId(0), RegInv::Write(v)).unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
        }
        let (t, v) = sim.server(ServerId(0)).entry(0);
        assert_eq!(t.seq, 4);
        assert_eq!(v, 4);
    }

    #[test]
    fn storage_is_one_value_per_server() {
        let mut sim = cluster(5, 1);
        sim.invoke(ClientId(0), RegInv::Write(9)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        let snap = sim.storage();
        assert_eq!(snap.per_server_peak_bits, vec![64.0; 5]);
        assert_eq!(snap.peak_total_bits, 5.0 * 64.0);
    }

    #[test]
    fn read_write_back_propagates() {
        // A read that observes a value from a partially-propagated write
        // writes it back to a majority, making it stable.
        let mut sim = cluster(3, 3);
        sim.invoke(ClientId(0), RegInv::Write(5)).unwrap();
        // Deliver the write's query round fully, then its store to server 0
        // only; then freeze the writer mid-write.
        for s in 0..3 {
            sim.deliver_one(NodeId::client(0), NodeId::server(s))
                .unwrap();
            sim.deliver_one(NodeId::server(s), NodeId::client(0))
                .unwrap();
        }
        sim.deliver_one(NodeId::client(0), NodeId::server(0))
            .unwrap();
        sim.freeze(NodeId::client(0));
        // A read must find v=5 (server 0) and write it back before
        // returning; a subsequent read then also returns 5 (atomicity).
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        let r1 = sim.run_until_op_completes(ClientId(1)).unwrap();
        if r1 == RegResp::ReadValue(5) {
            sim.invoke(ClientId(2), RegInv::Read).unwrap();
            assert_eq!(
                sim.run_until_op_completes(ClientId(2)).unwrap(),
                RegResp::ReadValue(5)
            );
        } else {
            // The read legitimately missed the in-flight write.
            assert_eq!(r1, RegResp::ReadValue(0));
        }
    }

    fn sharded(map: ShardMap, clients: u32) -> Sim<ShardedAbd> {
        let spec = ValueSpec::from_bits(64.0);
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

    #[test]
    fn sharded_batched_write_then_read() {
        let mut sim = sharded(ShardMap::full(5), 2);
        sim.invoke(ClientId(0), MultiInv::writes(&[(1, 11), (2, 22), (9, 99)]))
            .unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        assert_eq!(resp.ops.len(), 3);
        assert!(resp.ops.iter().all(|(_, r)| *r == RegResp::WriteAck));
        sim.invoke(ClientId(1), MultiInv::reads(&[2, 9, 7]))
            .unwrap();
        let resp = sim.run_until_op_completes(ClientId(1)).unwrap();
        assert_eq!(resp.get(2), Some(&RegResp::ReadValue(22)));
        assert_eq!(resp.get(9), Some(&RegResp::ReadValue(99)));
        // Untouched key reads the initial value.
        assert_eq!(resp.get(7), Some(&RegResp::ReadValue(0)));
    }

    #[test]
    fn query_digest_forgets_the_previous_operation() {
        // Two clients that reach the same query state after different
        // earlier operations behave alike from there on, so they must
        // digest alike.
        let mut sim = sharded(ShardMap::full(3), 2);
        sim.invoke(ClientId(0), MultiInv::writes(&[(1, 5)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), MultiInv::reads(&[1])).unwrap();
        sim.run_until_op_completes(ClientId(1)).unwrap();
        sim.run_to_quiescence().unwrap();
        let (mut a, mut b) = (
            sim.client(ClientId(0)).clone(),
            sim.client(ClientId(1)).clone(),
        );
        b.me = a.me;
        let mut ctx = Ctx::<ShardedAbd>::new(NodeId::client(0), 0);
        for c in [&mut a, &mut b] {
            Node::<ShardedAbd>::on_invoke(c, MultiInv::reads(&[2, 3]), &mut ctx);
        }
        assert_eq!(
            Node::<ShardedAbd>::digest(&a),
            Node::<ShardedAbd>::digest(&b)
        );
    }

    #[test]
    fn sharded_mixed_batch_and_tag_discipline() {
        let mut sim = sharded(ShardMap::full(3), 1);
        sim.invoke(ClientId(0), MultiInv::writes(&[(4, 40)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        // A mixed batch: overwrite key 4, read key 4's neighbor.
        sim.invoke(
            ClientId(0),
            MultiInv {
                ops: vec![(4, RegInv::Write(41)), (5, RegInv::Read)],
            },
        )
        .unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        assert_eq!(resp.get(4), Some(&RegResp::WriteAck));
        assert_eq!(resp.get(5), Some(&RegResp::ReadValue(0)));
        sim.run_to_quiescence().unwrap();
        // Tags grow per key: key 4 was written twice.
        assert_eq!(sim.server(ServerId(0)).entry(4).0.seq, 2);
        assert_eq!(sim.server(ServerId(0)).entry(4).1, 41);
    }

    #[test]
    fn sharded_placement_restricts_traffic_to_the_shard() {
        // Disjoint shards on 6 servers: keys of shard 0 never touch
        // servers 3..6.
        let map = ShardMap::new(6, 2, 3);
        let mut sim = sharded(map, 1);
        let key = (0..100u64).find(|&k| map.shard_of(k) == 0).unwrap();
        sim.invoke(ClientId(0), MultiInv::writes(&[(key, 7)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.run_to_quiescence().unwrap();
        for s in 0..3 {
            assert_eq!(sim.server(ServerId(s)).entry(key).1, 7, "server {s}");
        }
        for s in 3..6 {
            assert_eq!(sim.server(ServerId(s)).keys_held(), 0, "server {s}");
        }
    }

    #[test]
    fn sharded_tolerates_minority_failures_per_shard() {
        let mut sim = sharded(ShardMap::full(5), 1);
        sim.fail_last_servers(2);
        sim.invoke(ClientId(0), MultiInv::writes(&[(1, 10), (2, 20)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(0), MultiInv::reads(&[1, 2])).unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        assert_eq!(resp.get(1), Some(&RegResp::ReadValue(10)));
        assert_eq!(resp.get(2), Some(&RegResp::ReadValue(20)));
    }

    #[test]
    fn sharded_batch_messages_are_coalesced() {
        // A batch of B keys on one shard costs exactly the single-key
        // message count: 4 messages per contacted server.
        for batch in [1usize, 4, 16] {
            let mut sim = sharded(ShardMap::full(5), 1);
            let pairs: Vec<(Key, Value)> = (0..batch as u64).map(|k| (k, k + 100)).collect();
            sim.invoke(ClientId(0), MultiInv::writes(&pairs)).unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
            sim.run_to_quiescence().unwrap();
            let t = sim.traffic();
            assert_eq!(t.client_to_server, 10, "batch {batch}"); // query + store
            assert_eq!(t.server_to_client, 10, "batch {batch}"); // resp + ack
        }
    }

    #[test]
    fn sharded_wire_bytes_scale_with_batch() {
        let q1: ShardedAbdMsg = ShardedAbdMsg::Query {
            rid: 1,
            keys: vec![1].into(),
        };
        let q4: ShardedAbdMsg = ShardedAbdMsg::Query {
            rid: 1,
            keys: vec![1, 2, 3, 4].into(),
        };
        assert_eq!(q1.wire_bytes(), 16);
        assert_eq!(q4.wire_bytes(), 40);
        let s: ShardedAbdMsg = ShardedAbdMsg::Store {
            rid: 1,
            items: vec![(1, Tag::new(1, 0), 7), (2, Tag::new(1, 0), 8)].into(),
        };
        assert_eq!(s.wire_bytes(), 8 + 2 * 28);
        let ack: ShardedAbdMsg = ShardedAbdMsg::StoreAck { rid: 1 };
        assert_eq!(ack.wire_bytes(), 8);
    }

    #[test]
    fn register_messages_are_one_key_batches_without_heap() {
        let item = (0, Tag::new(3, 1), 9);
        let reg: RegisterMsg = ShardedAbdMsg::Store {
            rid: 2,
            items: One(item),
        };
        let keyed: ShardedAbdMsg = ShardedAbdMsg::Store {
            rid: 2,
            items: vec![item].into(),
        };
        assert_eq!(reg.wire_bytes(), keyed.wire_bytes());
        assert_eq!(format!("{reg:?}"), format!("{keyed:?}"));
        // What keeps the single-register step loop as cheap as the keyed
        // automaton's one-key path allows: no destructor, no heap variant.
        assert!(!std::mem::needs_drop::<RegisterMsg>());
    }

    #[test]
    fn stale_responses_ignored() {
        // Drive a client through overlapping phases and ensure rid
        // filtering keeps it consistent: the client must still finish.
        let mut sim = cluster(5, 1);
        sim.invoke(ClientId(0), RegInv::Write(3)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        // Leftover messages (acks beyond majority) get delivered now.
        sim.run_to_quiescence().unwrap();
        sim.invoke(ClientId(0), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::ReadValue(3)
        );
    }
}
