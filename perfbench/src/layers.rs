//! Benchmark-side wrappers around the public API of each layer.
//!
//! Nothing here changes the program: every wrapper forwards to the
//! wrapped value and only records when and how long the call took.
//!
//! * [`Wrap`] chooses what surrounds every transport endpoint of a
//!   cluster: nothing ([`Bare`], the untraced run), a recorder
//!   ([`Tracer`]), or a fixed per-message delay ([`Delay`], the
//!   sensitivity check).
//! * [`Timed`] wraps an `AbdBackend` / `CasBackend` and samples the
//!   duration of every call; [`AbdOn`] and [`CasOn`] are protocol
//!   markers, shaped like `shmem_store::StoreAbd`, that bind the
//!   unchanged sharded automata to any backend.

use shmem_algorithms::abd::{ShardedAbdClient, ShardedAbdMsg, ShardedAbdServerOn};
use shmem_algorithms::backend::{AbdBackend, CasBackend};
use shmem_algorithms::cas::{ShardedCasClient, ShardedCasMsg, ShardedCasServerOn};
use shmem_algorithms::multikey::{Key, MultiInv, MultiResp};
use shmem_algorithms::tag::Tag;
use shmem_algorithms::value::Value;
use shmem_net::{Envelope, NetError, Transport};
use shmem_sim::{NodeId, Protocol};
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Which endpoint of the cluster a transport serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Server `i`'s endpoint (its IO thread).
    Server(u32),
    /// Client worker `w`'s endpoint.
    Client(u32),
}

/// Chooses the transport decoration of one cluster.
pub trait Wrap: Sync {
    /// The decorated endpoint.
    type T<X: Transport>: Transport;
    /// Decorates `inner`, which serves `side`.
    fn wrap<X: Transport>(&self, inner: X, side: Side) -> Self::T<X>;
}

/// No decoration: the untraced run measures the bare transports.
pub struct Bare;

impl Wrap for Bare {
    type T<X: Transport> = X;
    fn wrap<X: Transport>(&self, inner: X, _side: Side) -> X {
        inner
    }
}

/// Busy-waits `ns` before every send: an injected slowdown that the
/// benchmark must flag (see `sensitivity.py`).
pub struct Delay {
    /// Added cost per message, in nanoseconds.
    pub ns: u64,
}

/// An endpoint behind a [`Delay`].
pub struct Delayed<X> {
    inner: X,
    ns: u64,
}

impl Wrap for Delay {
    type T<X: Transport> = Delayed<X>;
    fn wrap<X: Transport>(&self, inner: X, _side: Side) -> Delayed<X> {
        Delayed { inner, ns: self.ns }
    }
}

impl<X: Transport> Transport for Delayed<X> {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        let until = Instant::now() + Duration::from_nanos(self.ns);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        self.inner.send(env)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        self.inner.recv_timeout(timeout)
    }
}

/// What one transport call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `send` of an envelope.
    Send,
    /// `recv_timeout` that returned an envelope.
    Recv,
    /// `recv_timeout` that returned `None`.
    Empty,
}

/// One recorded transport call. Times are nanoseconds since the round's
/// epoch, the same epoch the client workers stamp operations with.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub kind: Kind,
    /// When the call started.
    pub start: u64,
    /// When the call returned.
    pub end: u64,
    /// Sender and receiver ([`node_code`]); zero for `Empty`.
    pub from: u32,
    pub to: u32,
    /// Stable hash of the payload: with `(from, to)` it matches a send to
    /// its receive.
    pub digest: u64,
    /// Payload bytes.
    pub len: u32,
}

/// Packs a node id into one word: servers have the top bit set.
pub fn node_code(id: NodeId) -> u32 {
    match id {
        NodeId::Server(s) => s.0 | 1 << 31,
        NodeId::Client(c) => c.0,
    }
}

/// Whether a [`node_code`] names a server.
pub fn is_server(code: u32) -> bool {
    code & 1 << 31 != 0
}

/// Every call one endpoint made during a round, plus a sample of the
/// envelopes it sent (the inputs of the post-load micro-timings).
pub struct EndpointLog {
    pub side: Side,
    pub events: Vec<Event>,
    pub samples: Vec<Envelope>,
}

/// Records every transport call of a cluster.
pub struct Tracer {
    /// The round's epoch.
    pub epoch: Instant,
    /// Where each endpoint leaves its log when it is dropped.
    pub sink: Arc<Mutex<Vec<EndpointLog>>>,
}

/// Envelopes one endpoint keeps for the micro-timings: every 16th send,
/// up to this many.
const SAMPLES_PER_ENDPOINT: usize = 256;

/// An endpoint behind a [`Tracer`].
pub struct Traced<X> {
    inner: X,
    epoch: Instant,
    log: EndpointLog,
    sends: u64,
    sink: Arc<Mutex<Vec<EndpointLog>>>,
}

impl Wrap for Tracer {
    type T<X: Transport> = Traced<X>;
    fn wrap<X: Transport>(&self, inner: X, side: Side) -> Traced<X> {
        Traced {
            inner,
            epoch: self.epoch,
            log: EndpointLog {
                side,
                events: Vec::with_capacity(1 << 16),
                samples: Vec::new(),
            },
            sends: 0,
            sink: Arc::clone(&self.sink),
        }
    }
}

fn digest(env: &Envelope) -> u64 {
    shmem_sim::hash_of(&env.payload)
}

impl<X: Transport> Transport for Traced<X> {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        let start = ns_since(self.epoch);
        let result = self.inner.send(env);
        let end = ns_since(self.epoch);
        self.log.events.push(Event {
            kind: Kind::Send,
            start,
            end,
            from: node_code(env.from),
            to: node_code(env.to),
            digest: digest(env),
            len: env.payload.len() as u32,
        });
        if self.sends.is_multiple_of(16) && self.log.samples.len() < SAMPLES_PER_ENDPOINT {
            self.log.samples.push(env.clone());
        }
        self.sends += 1;
        result
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        let start = ns_since(self.epoch);
        let result = self.inner.recv_timeout(timeout);
        let end = ns_since(self.epoch);
        match &result {
            Ok(Some(env)) => self.log.events.push(Event {
                kind: Kind::Recv,
                start,
                end,
                from: node_code(env.from),
                to: node_code(env.to),
                digest: digest(env),
                len: env.payload.len() as u32,
            }),
            Ok(None) => self.log.events.push(Event {
                kind: Kind::Empty,
                start,
                end,
                from: 0,
                to: 0,
                digest: 0,
                len: 0,
            }),
            Err(_) => {}
        }
        result
    }
}

impl<X> Drop for Traced<X> {
    fn drop(&mut self) {
        let log = EndpointLog {
            side: self.log.side,
            events: std::mem::take(&mut self.log.events),
            samples: std::mem::take(&mut self.log.samples),
        };
        // A poisoned sink means another endpoint panicked; that panic is
        // reported by its join, so this log is simply lost.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(log);
        }
    }
}

/// Durations of one backend instance's calls, in nanoseconds.
#[derive(Default)]
pub struct CallTimes {
    pub reads: Vec<u32>,
    pub writes: Vec<u32>,
}

/// A backend whose every state call is timed; the untraced run uses
/// the inner backend directly.
pub struct Timed<B> {
    inner: B,
    times: RefCell<CallTimes>,
}

impl<B> Timed<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Timed<B> {
        Timed {
            inner,
            times: RefCell::new(CallTimes::default()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Takes the recorded call durations.
    pub fn take_times(&self) -> CallTimes {
        std::mem::take(&mut *self.times.borrow_mut())
    }

    fn record(&self, write: bool, start: Instant) {
        let ns = start.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
        let mut times = self.times.borrow_mut();
        if write {
            times.writes.push(ns);
        } else {
            times.reads.push(ns);
        }
    }
}

impl<B: Clone> Clone for Timed<B> {
    fn clone(&self) -> Timed<B> {
        Timed::new(self.inner.clone())
    }
}

impl<B: fmt::Debug> fmt::Debug for Timed<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Timed").field(&self.inner).finish()
    }
}

impl<B: AbdBackend> AbdBackend for Timed<B> {
    fn load(&self, key: Key) -> Option<(Tag, Value)> {
        let start = Instant::now();
        let r = self.inner.load(key);
        self.record(false, start);
        r
    }

    fn store_if_newer(&mut self, key: Key, tag: Tag, value: Value) -> bool {
        let start = Instant::now();
        let r = self.inner.store_if_newer(key, tag, value);
        self.record(true, start);
        r
    }

    fn keys_held(&self) -> usize {
        self.inner.keys_held()
    }

    fn digest_with(&self, initial: Value) -> u64 {
        self.inner.digest_with(initial)
    }
}

impl<B: CasBackend> CasBackend for Timed<B> {
    fn max_finalized(&self, key: Key) -> Tag {
        let start = Instant::now();
        let r = self.inner.max_finalized(key);
        self.record(false, start);
        r
    }

    fn pre_write(&mut self, key: Key, tag: Tag, share: Vec<u8>) {
        let start = Instant::now();
        self.inner.pre_write(key, tag, share);
        self.record(true, start);
    }

    fn finalize(&mut self, key: Key, tag: Tag) {
        let start = Instant::now();
        self.inner.finalize(key, tag);
        self.record(true, start);
    }

    fn read_get(&mut self, key: Key, tag: Tag) -> Option<Option<Vec<u8>>> {
        let start = Instant::now();
        let r = self.inner.read_get(key, tag);
        self.record(false, start);
        r
    }

    fn versions_held(&self, key: Key) -> usize {
        self.inner.versions_held(key)
    }

    fn keys_held(&self) -> usize {
        self.inner.keys_held()
    }

    fn total_versions(&self) -> usize {
        self.inner.total_versions()
    }

    fn total_tags(&self) -> usize {
        self.inner.total_tags()
    }

    fn digest_with(&self, me: u32) -> u64 {
        self.inner.digest_with(me)
    }
}

/// Sharded ABD over backend `B`.
pub struct AbdOn<B>(PhantomData<B>);

impl<B> Protocol for AbdOn<B>
where
    B: AbdBackend + Clone + fmt::Debug + Send + 'static,
{
    type Msg = ShardedAbdMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedAbdServerOn<B>;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &ShardedAbdMsg) -> u64 {
        msg.wire_bytes()
    }
}

/// Sharded CAS over backend `B`.
pub struct CasOn<B>(PhantomData<B>);

impl<B> Protocol for CasOn<B>
where
    B: CasBackend + Clone + fmt::Debug + Send + 'static,
{
    type Msg = ShardedCasMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedCasServerOn<B>;
    type Client = ShardedCasClient;

    fn msg_wire_bytes(msg: &ShardedCasMsg) -> u64 {
        msg.wire_bytes()
    }
}
