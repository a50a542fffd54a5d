//! The closed-loop network workloads.
//!
//! A run is a sequence of *rounds*. Each round composes a fresh cluster
//! from the public pieces (`serve_until` / `serve_shared` server loops,
//! `client::run_worker` client workers, an `InProcHub` or TCP loopback
//! transports), runs a fixed seeded closed-loop load on it, drains,
//! stops it, and checks the round's history. Rounds repeat until the
//! load has run for the requested time. A fresh cluster per round keeps
//! every per-key history short enough for the atomicity checker and
//! keeps memory flat however long the run is.
//!
//! Only the load phase is timed; set-up (automata, binds, server
//! threads) is timed separately per round, and the drain and the check
//! are outside both. In a traced run, odd rounds wrap every endpoint and
//! backend in the recorders of [`crate::layers`]; even rounds are bare,
//! so the two halves give the tracing overhead.

use crate::attrib::TraceAcc;
use crate::layers::{ns_since, AbdOn, Bare, CallTimes, CasOn, Delay, Side, Timed, Tracer, Wrap};
use crate::micro;
use crate::stats::{median, quantile, ratio, Metrics, Rounds};
use crate::{Outcome, RunOpts};
use shmem_algorithms::abd::{ShardedAbdClient, ShardedAbdServerOn};
use shmem_algorithms::backend::{AbdBackend, CasBackend, LocalAbd, LocalCas};
use shmem_algorithms::cas::{ShardedCasClient, ShardedCasConfig, ShardedCasServerOn};
use shmem_algorithms::multikey::{project_histories, Key, MultiInv, MultiResp, ShardMap};
use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_algorithms::value::{Value, ValueSpec};
use shmem_erasure::{Codec, Gf256};
use shmem_net::client::{run_worker, LoadConfig, WorkerReport};
use shmem_net::{
    addr_table, serve_shared, serve_until, InProcHub, ServeStats, TcpClientTransport,
    TcpServerTransport, Transport, WireMsg,
};
use shmem_sim::{ClientId, Node, NodeId, OpRecord, Protocol, ServerId};
use shmem_spec::check_atomic;
use shmem_store::{RegStore, StoreAbdBackend};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Servers and failure budget of every net workload.
const N: u32 = 5;
const F: u32 = 1;
/// Client worker threads (one per core of the reference machine).
const WORKERS: usize = 2;
/// Logical closed-loop clients.
const CLIENTS: u32 = 256;
/// Operations per key per round the keyspace is sized for.
const OPS_PER_KEY: usize = 24;
/// `check_atomic` asserts on longer histories; the benchmark checks
/// first, so an over-long projection is reported, not a panic.
const CHECKER_CAP: usize = 128;
/// Settle time between the last response and the storage probe.
const DRAIN: Duration = Duration::from_millis(150);

/// What a net workload runs.
pub struct NetSpec {
    pub name: &'static str,
    /// TCP loopback instead of the in-process hub.
    pub tcp: bool,
    /// Operations per batch (distinct keys).
    pub batch: usize,
    pub write_ratio: f64,
    /// Operations each logical client issues per round.
    pub ops_per_client: usize,
    /// The storage per key a drained round must show exactly, if gated.
    pub frontier: Option<f64>,
}

impl NetSpec {
    fn keyspace(&self) -> u64 {
        (CLIENTS as usize * self.ops_per_client * self.batch / OPS_PER_KEY) as u64
    }

    fn load(&self, seed: u64) -> LoadConfig {
        LoadConfig {
            clients: CLIENTS,
            workers: WORKERS,
            ops_per_client: self.ops_per_client,
            batch: self.batch,
            keyspace: self.keyspace(),
            write_ratio: self.write_ratio,
            seed,
            ..LoadConfig::default()
        }
    }
}

/// ABD over the sequential `Local*` backend on the in-process hub.
pub const INPROC_ABD: NetSpec = NetSpec {
    name: "inproc-abd",
    tcp: false,
    batch: 1,
    write_ratio: 0.5,
    ops_per_client: 96,
    frontier: None,
};

/// Storage-optimal coded CAS (`k = N − f`, `gc(0)`) over TCP loopback.
pub const TCP_CODED_CAS: NetSpec = NetSpec {
    name: "tcp-coded-cas",
    tcp: true,
    batch: 4,
    write_ratio: 0.5,
    ops_per_client: 24,
    frontier: Some(N as f64 / (N - F) as f64),
};

/// Read-heavy batched ABD on pooled lock-free-store servers.
pub const INPROC_STORE_READ: NetSpec = NetSpec {
    name: "inproc-store-read",
    tcp: false,
    batch: 16,
    write_ratio: 0.1,
    ops_per_client: 64,
    frontier: None,
};

/// Written values kept as inputs of the erasure micro-timing.
const MAX_VALUE_SAMPLES: usize = 4096;

/// Worker threads per pooled store server.
const STORE_POOL: usize = 2;

/// Probes the benchmark reads from a drained server.
pub trait ServerProbe {
    fn keys_held(&self) -> usize;
    /// Versions the server's backend keeps alive.
    fn live_versions(&self) -> usize;
    /// Timed backend calls since the last take (none when untimed).
    fn take_times(&self) -> CallTimes;
}

/// The same probes, per backend.
pub trait BackendProbe {
    fn live_versions(&self) -> usize;
    fn take_times(&self) -> CallTimes {
        CallTimes::default()
    }
}

impl BackendProbe for LocalAbd {
    fn live_versions(&self) -> usize {
        AbdBackend::keys_held(self)
    }
}

impl BackendProbe for StoreAbdBackend {
    fn live_versions(&self) -> usize {
        self.handle().store().live_versions()
    }
}

impl BackendProbe for LocalCas {
    fn live_versions(&self) -> usize {
        self.total_versions()
    }
}

impl<B: BackendProbe> BackendProbe for Timed<B> {
    fn live_versions(&self) -> usize {
        self.inner().live_versions()
    }
    fn take_times(&self) -> CallTimes {
        Timed::take_times(self)
    }
}

impl<B: AbdBackend + BackendProbe> ServerProbe for ShardedAbdServerOn<B> {
    fn keys_held(&self) -> usize {
        ShardedAbdServerOn::keys_held(self)
    }
    fn live_versions(&self) -> usize {
        self.backend().live_versions()
    }
    fn take_times(&self) -> CallTimes {
        self.backend().take_times()
    }
}

impl<B: CasBackend + BackendProbe> ServerProbe for ShardedCasServerOn<B> {
    fn keys_held(&self) -> usize {
        ShardedCasServerOn::keys_held(self)
    }
    fn live_versions(&self) -> usize {
        self.backend().live_versions()
    }
    fn take_times(&self) -> CallTimes {
        self.backend().take_times()
    }
}

/// What one round leaves behind, protocol-independent.
struct RoundData {
    setup_s: f64,
    wall_s: f64,
    /// Process CPU time during the load.
    cpu_s: f64,
    /// The load window in the round's epoch.
    load: (u64, u64),
    records: Vec<OpRecord<MultiInv, MultiResp>>,
    retransmits: u64,
    /// Value-bearing bits and materialized keys over all servers.
    state_bits: f64,
    keys_held: usize,
    live_versions: usize,
    times: CallTimes,
}

/// Builds, loads, drains and stops one cluster.
fn run_round<P, W>(
    spec: &NetSpec,
    build: &dyn Fn() -> Vec<Vec<P::Server>>,
    make_client: &(dyn Fn(ClientId) -> P::Client + Sync),
    cfg: &LoadConfig,
    wrap: &W,
    epoch: Instant,
) -> RoundData
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
    P::Msg: WireMsg,
    P::Server: Send + ServerProbe + Node<P>,
    P::Client: Send,
    W: Wrap,
{
    let t0 = Instant::now();
    let pools = build();
    let blocks = cfg.client_blocks();
    if spec.tcp {
        let servers: Vec<TcpServerTransport> = pools
            .iter()
            .map(|_| {
                TcpServerTransport::bind("127.0.0.1:0".parse().expect("loopback address"))
                    .expect("bind a loopback port")
            })
            .collect();
        let table = addr_table(servers.iter().map(TcpServerTransport::local_addr).collect());
        let clients: Vec<TcpClientTransport> = blocks
            .iter()
            .map(|_| TcpClientTransport::new(Arc::clone(&table)))
            .collect();
        drive::<P, W, _, _>(
            t0,
            pools,
            servers,
            clients,
            blocks,
            make_client,
            cfg,
            wrap,
            epoch,
        )
    } else {
        let hub = InProcHub::new();
        let servers: Vec<_> = (0..pools.len() as u32)
            .map(|i| hub.endpoint(&[NodeId::Server(ServerId(i))]))
            .collect();
        let clients: Vec<_> = blocks
            .iter()
            .map(|b| hub.endpoint(&b.iter().map(|&c| NodeId::Client(c)).collect::<Vec<_>>()))
            .collect();
        drive::<P, W, _, _>(
            t0,
            pools,
            servers,
            clients,
            blocks,
            make_client,
            cfg,
            wrap,
            epoch,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn drive<P, W, S, C>(
    t0: Instant,
    pools: Vec<Vec<P::Server>>,
    servers: Vec<S>,
    clients: Vec<C>,
    blocks: Vec<Vec<ClientId>>,
    make_client: &(dyn Fn(ClientId) -> P::Client + Sync),
    cfg: &LoadConfig,
    wrap: &W,
    epoch: Instant,
) -> RoundData
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
    P::Msg: WireMsg,
    P::Server: Send + ServerProbe + Node<P>,
    P::Client: Send,
    W: Wrap,
    S: Transport,
    C: Transport,
{
    let stop = Arc::new(AtomicBool::new(false));
    thread::scope(|scope| {
        let server_joins: Vec<_> = pools
            .into_iter()
            .zip(servers)
            .enumerate()
            .map(|(i, (pool, ep))| {
                let me = ServerId(i as u32);
                let transport = wrap.wrap(ep, Side::Server(me.0));
                let stop = Arc::clone(&stop);
                scope.spawn(move || -> (Vec<P::Server>, ServeStats) {
                    if pool.len() == 1 {
                        let automaton = pool.into_iter().next().expect("pool of one");
                        let (automaton, stats) =
                            serve_until::<P, _>(automaton, me, transport, stop);
                        (vec![automaton], stats)
                    } else {
                        serve_shared::<P, _>(pool, me, transport, stop)
                    }
                })
            })
            .collect();
        let setup = t0.elapsed();

        let load_start = ns_since(epoch);
        let cpu_start = crate::process_cpu_s();
        let started = Instant::now();
        let worker_joins: Vec<_> = clients
            .into_iter()
            .zip(blocks)
            .enumerate()
            .map(|(w, (ep, block))| {
                let transport = wrap.wrap(ep, Side::Client(w as u32));
                scope.spawn(move || run_worker::<P, _>(transport, block, make_client, cfg, epoch))
            })
            .collect();
        let reports: Vec<WorkerReport> = worker_joins
            .into_iter()
            .map(|j| j.join().expect("client worker panicked"))
            .collect();
        let wall = started.elapsed();
        let cpu_s = crate::process_cpu_s() - cpu_start;
        let load_end = ns_since(epoch);

        thread::sleep(DRAIN);
        stop.store(true, Ordering::Release);
        let pools: Vec<Vec<P::Server>> = server_joins
            .into_iter()
            .map(|j| j.join().expect("server loop panicked").0)
            .collect();

        let mut data = RoundData {
            setup_s: setup.as_secs_f64(),
            wall_s: wall.as_secs_f64(),
            cpu_s,
            load: (load_start, load_end),
            records: Vec::new(),
            retransmits: 0,
            state_bits: 0.0,
            keys_held: 0,
            live_versions: 0,
            times: CallTimes::default(),
        };
        for r in reports {
            data.records.extend(r.records);
            data.retransmits += r.retransmits;
        }
        for pool in &pools {
            // Pooled workers share one store: the first is representative.
            let head = &pool[0];
            data.state_bits += Node::<P>::state_bits(head);
            data.keys_held += head.keys_held();
            data.live_versions += head.live_versions();
            for worker in pool {
                let t = worker.take_times();
                data.times.reads.extend(t.reads);
                data.times.writes.extend(t.writes);
            }
        }
        data
    })
}

/// The verdict on one round's history.
struct Checked {
    attempted: u64,
    failed: u64,
    /// Completed reads answered `ReadFailed`.
    aborted: u64,
    histories: usize,
    max_ops_per_key: usize,
    fingerprint: u64,
    latencies_ns: Vec<u64>,
    check_s: f64,
    problems: Vec<String>,
}

/// Checks every per-key projection for atomicity (after checking it is
/// short enough for the checker), counts failed operations, and
/// fingerprints the invocation set.
fn check(records: &[OpRecord<MultiInv, MultiResp>]) -> Checked {
    let started = Instant::now();
    let histories = project_histories(0, records);
    let mut bad: BTreeMap<Key, String> = BTreeMap::new();
    let mut max_ops_per_key = 0;
    for (&key, history) in &histories {
        max_ops_per_key = max_ops_per_key.max(history.len());
        if history.len() > CHECKER_CAP {
            bad.insert(key, format!("{} ops exceed the checker cap", history.len()));
        } else if let Err(v) = check_atomic(history) {
            bad.insert(key, format!("{v:?}"));
        }
    }
    let check_s = started.elapsed().as_secs_f64();

    // Failed: retired, incomplete, or on a key whose history is not
    // atomic. A read that completes with `ReadFailed` (coded CAS at
    // `gc(0)` aborts a read whose version was collected under it) is the
    // protocol's own ⊥ answer: counted apart, as an abort.
    let (mut failed, mut aborted) = (0, 0);
    let mut latencies_ns = Vec::with_capacity(records.len());
    for r in records {
        let on_bad_key = r.invocation.keys().any(|k| bad.contains_key(&k));
        let read_failed = r.response.as_ref().is_some_and(|resp| {
            resp.ops
                .iter()
                .any(|(_, x)| matches!(x, RegResp::ReadFailed(_)))
        });
        match r.responded_at {
            Some(_) if on_bad_key => failed += 1,
            Some(_) if read_failed => aborted += 1,
            Some(t) => latencies_ns.push(t - r.invoked_at),
            None => failed += 1,
        }
    }

    // Per client, invocations in issue order: the set a seed generates.
    let mut order: Vec<&OpRecord<MultiInv, MultiResp>> = records.iter().collect();
    order.sort_by_key(|r| (r.client.0, r.invoked_at));
    let canonical: Vec<(u32, Key, Value, bool)> = order
        .iter()
        .flat_map(|r| {
            r.invocation.ops.iter().map(|&(key, inv)| match inv {
                RegInv::Write(v) => (r.client.0, key, v, true),
                RegInv::Read => (r.client.0, key, 0, false),
            })
        })
        .collect();

    let problems = bad
        .iter()
        .take(3)
        .map(|(k, v)| format!("key {k}: {v}"))
        .collect();
    Checked {
        attempted: records.len() as u64,
        failed,
        aborted,
        histories: histories.len(),
        max_ops_per_key,
        fingerprint: shmem_sim::hash_of(&canonical),
        latencies_ns,
        check_s,
        problems,
    }
}

/// Runs `spec` with untraced protocol `P` and traced protocol `TP` (the
/// same automata over [`Timed`] backends).
fn run_net<P, TP>(
    spec: &NetSpec,
    opts: &RunOpts,
    build: &dyn Fn() -> Vec<Vec<P::Server>>,
    build_traced: &dyn Fn() -> Vec<Vec<TP::Server>>,
    make_client: &(dyn Fn(ClientId) -> P::Client + Sync),
    codec: Option<(usize, usize)>,
) -> Outcome
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
    P::Msg: WireMsg,
    P::Server: Send + ServerProbe + Node<P>,
    P::Client: Send,
    TP: Protocol<Inv = MultiInv, Resp = MultiResp, Msg = P::Msg, Client = P::Client>,
    TP::Server: Send + ServerProbe + Node<TP>,
{
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut bare, mut traced_rounds) = (Rounds::default(), Rounds::default());
    let mut load_s = 0.0;
    let mut fingerprint = None;
    let mut acc = TraceAcc::default();
    let mut backend = CallTimes::default();
    let mut written: Vec<Value> = Vec::new();
    let (mut histories, mut check_s, mut max_ops_per_key) = (0usize, 0.0, 0usize);
    let mut storage = Vec::new();
    let mut live_versions = 0usize;
    let codec_stats =
        || codec.map(|(n, k)| Codec::<Gf256>::shared(n, k).expect("legal code").stats());
    let (mut plan_hits, mut plan_misses) = (0u64, 0u64);

    let mut aborted = 0u64;
    let mut first_round_rss = 0.0;
    let mut round = 0u64;
    while crate::more_rounds(round, load_s, opts) {
        // Every round replays the run's one seeded input set.
        let cfg = spec.load(opts.seed);
        let traced = crate::is_traced(round, opts);
        let epoch = Instant::now();
        let data = if traced {
            let tracer = Tracer {
                epoch,
                sink: Arc::new(Mutex::new(Vec::new())),
            };
            let before = codec_stats();
            let data = run_round::<TP, _>(spec, build_traced, make_client, &cfg, &tracer, epoch);
            if let (Some(b), Some(a)) = (before, codec_stats()) {
                plan_hits += a.decode_plan_hits - b.decode_plan_hits;
                plan_misses += a.decode_plan_misses - b.decode_plan_misses;
            }
            let logs = std::mem::take(&mut *tracer.sink.lock().expect("trace sink poisoned"));
            acc.add_round(logs, &data.records, data.load, data.retransmits);
            data
        } else if opts.delay_ns > 0 {
            let delay = Delay { ns: opts.delay_ns };
            run_round::<P, _>(spec, build, make_client, &cfg, &delay, epoch)
        } else {
            run_round::<P, _>(spec, build, make_client, &cfg, &Bare, epoch)
        };

        let mut checked = check(&data.records);
        out.attempted += checked.attempted;
        out.failed += checked.failed;
        aborted += checked.aborted;
        out.problems.extend(checked.problems.iter().cloned());
        histories += checked.histories;
        check_s += checked.check_s;
        max_ops_per_key = max_ops_per_key.max(checked.max_ops_per_key);
        crate::same_inputs(
            &mut fingerprint,
            checked.fingerprint,
            round,
            &mut out.problems,
        );

        let touched = data.keys_held as f64 / N as f64;
        let per_key = ratio(data.state_bits, touched * ValueSpec::from_bits(64.0).bits);
        if let Some(frontier) = spec.frontier {
            if per_key != frontier {
                out.problems.push(format!(
                    "round {round}: storage per key {per_key} != N/(N-f) = {frontier}"
                ));
            }
        }
        storage.push(per_key);
        live_versions = data.live_versions;

        setups.push(data.setup_s);
        if round == 0 {
            // Warm-up: lazy set-up and first-touch page faults land here.
            first_round_rss = crate::peak_rss_mb();
        } else if traced {
            traced_rounds.add(data.wall_s, data.cpu_s, &mut checked.latencies_ns);
            backend.reads.extend(data.times.reads);
            backend.writes.extend(data.times.writes);
            for r in &data.records {
                for &(_, inv) in &r.invocation.ops {
                    if let (RegInv::Write(v), true) = (inv, written.len() < MAX_VALUE_SAMPLES) {
                        written.push(v);
                    }
                }
            }
        } else {
            bare.add(data.wall_s, data.cpu_s, &mut checked.latencies_ns);
        }
        if round > 0 {
            load_s += data.wall_s;
        }
        round += 1;
    }

    if out.failed > 0 {
        out.problems
            .push(format!("{} of {} ops failed", out.failed, out.attempted));
    }
    if max_ops_per_key < 2 {
        out.problems
            .push("no key saw more than one op: nothing was checked".into());
    }

    out.detail.push(("rounds", round.to_string()));
    out.detail.push(("read_aborts", aborted.to_string()));
    out.detail.push(("keyspace", spec.keyspace().to_string()));
    out.detail
        .push(("max_ops_per_key", max_ops_per_key.to_string()));
    out.detail
        .push(("storage_per_key", format!("{:?}", median(&storage))));
    out.detail.push((
        "fingerprint",
        format!("\"{:016x}\"", fingerprint.unwrap_or(0)),
    ));

    out.detail.push(("wall", bare.wall_json()));
    let mut m = Metrics::default();
    if !opts.trace {
        m.put("cpu_us_per_op", bare.cpu_us_per_op());
        m.put("peak_rss_mb", first_round_rss);
        m.put("setup_s", median(&setups));
        out.metrics = m;
        return out;
    }
    m.put("wall.ops_per_s", bare.rate());
    m.put("wall.latency_p50_us", bare.p50_us());
    m.put("wall.latency_p90_us", bare.p90_us());

    if acc.closure_failures > 0 {
        out.problems.push(format!(
            "{} ops: attribution spans did not close",
            acc.closure_failures
        ));
    }
    let ops = acc.ops.max(1) as f64;
    acc.send_ns.sort_unstable();
    acc.hop_ns.sort_unstable();
    backend.reads.sort_unstable();
    backend.writes.sort_unstable();
    let q = |v: &[u32], q: f64| f64::from(quantile(v, q).unwrap_or(0));
    let (wire_enc, wire_dec) = micro::wire::<P::Msg>(&acc.samples);
    let (frame_enc, frame_read) = micro::frame(&acc.samples);
    let (ec_enc, ec_dec) = micro::erasure(&written, N as usize, (N - F) as usize);

    m.put("client.self_us_per_op", acc.client_ns as f64 / ops / 1e3);
    m.put(
        "client.recv_wait_us_per_op",
        acc.client_recv_wait_ns as f64 / ops / 1e3,
    );
    m.put(
        "client.empty_polls_per_op",
        acc.client_empty_polls as f64 / ops,
    );
    m.put("client.retransmits_per_op", acc.retransmits as f64 / ops);
    m.put("client.latency_p99_us", bare.p99_us());
    m.put(
        "client.read_aborts_per_op",
        ratio(aborted as f64, out.attempted as f64),
    );
    m.put(
        "client.unattributed_frac",
        ratio(acc.residual_ns as f64, acc.latency_ns as f64),
    );
    m.put("transport.send_ns_p50", q(&acc.send_ns, 0.5));
    m.put("transport.send_ns_p99", q(&acc.send_ns, 0.99));
    m.put("transport.hop_us_p50", q(&acc.hop_ns, 0.5) / 1e3);
    m.put("transport.hop_us_p99", q(&acc.hop_ns, 0.99) / 1e3);
    m.put("transport.msgs_per_op", acc.sends as f64 / ops);
    m.put("transport.bytes_per_op", acc.send_bytes as f64 / ops);
    m.put(
        "transport.self_us_per_op",
        acc.transport_ns as f64 / ops / 1e3,
    );
    m.put("wire.encode_ns_per_msg", wire_enc);
    m.put("wire.decode_ns_per_msg", wire_dec);
    m.put(
        "wire.bytes_per_msg",
        ratio(acc.send_bytes as f64, acc.sends as f64),
    );
    m.put("frame.encode_ns_per_msg", frame_enc);
    m.put("frame.read_ns_per_msg", frame_read);
    m.put(
        "serve.dispatch_ns_per_msg",
        ratio(acc.dispatch_ns as f64, acc.dispatches as f64),
    );
    m.put(
        "serve.idle_frac",
        ratio(acc.server_idle_ns as f64, acc.server_window_ns as f64),
    );
    m.put("serve.msgs_in_per_op", acc.server_recvs as f64 / ops);
    m.put("serve.self_us_per_op", acc.serve_ns as f64 / ops / 1e3);
    m.put(
        "backend.calls_per_op",
        (backend.reads.len() + backend.writes.len()) as f64 / ops,
    );
    m.put("backend.read_ns_p50", q(&backend.reads, 0.5));
    m.put("backend.write_ns_p50", q(&backend.writes, 0.5));
    m.put("store.live_versions", live_versions as f64);
    m.put("store.storage_per_key", median(&storage));
    m.put("erasure.encode_ns_per_value", ec_enc);
    m.put("erasure.decode_ns_per_value", ec_dec);
    m.put(
        "erasure.decodes_per_op",
        (plan_hits + plan_misses) as f64 / ops,
    );
    m.put(
        "erasure.plan_hit_rate",
        ratio(plan_hits as f64, (plan_hits + plan_misses) as f64),
    );
    // The simulator layer, which no net round exercises, is timed like
    // the codecs: a short nemesis sweep after the load.
    let sweep = crate::sweep::run(opts.seed);
    for s in sweep.violations.iter().take(3) {
        out.problems
            .push(format!("nemesis seed {s}: atomicity violation"));
    }
    m.put(
        "sim.ns_per_step",
        ratio(sweep.sim.as_nanos() as f64, sweep.steps as f64),
    );
    m.put(
        "sim.steps_per_seed",
        ratio(sweep.steps as f64, sweep.seeds as f64),
    );
    m.put(
        "sim.seeds_per_s",
        ratio(sweep.seeds as f64, sweep.wall.as_secs_f64()),
    );
    m.put(
        "spec.check_us_per_history",
        ratio(check_s * 1e6, histories as f64),
    );
    m.put("spec.verify_s", check_s);
    m.put(
        "trace.overhead_frac",
        ratio(bare.rate(), traced_rounds.rate()) - 1.0,
    );
    out.detail.push(("traced_ops", acc.ops.to_string()));
    out.detail
        .push(("hop_samples", acc.hop_ns.len().to_string()));
    out.detail
        .push(("send_samples", acc.send_ns.len().to_string()));
    out.metrics = m;
    out
}

fn abd_pools<B: AbdBackend>(pools: Vec<Vec<B>>) -> Vec<Vec<ShardedAbdServerOn<B>>> {
    let spec = ValueSpec::from_bits(64.0);
    pools
        .into_iter()
        .map(|pool| {
            pool.into_iter()
                .map(|b| ShardedAbdServerOn::with_backend(0, spec, b))
                .collect()
        })
        .collect()
}

fn store_backends() -> Vec<Vec<StoreAbdBackend>> {
    (0..N)
        .map(|_| {
            let store = Arc::new(RegStore::new());
            (0..STORE_POOL)
                .map(|_| StoreAbdBackend::shared(&store))
                .collect()
        })
        .collect()
}

fn cas_config() -> ShardedCasConfig {
    ShardedCasConfig::coded(ShardMap::full(N), F, ValueSpec::from_bits(64.0)).with_gc(0)
}

fn cas_pools<B: CasBackend>(backend: impl Fn(u32) -> B) -> Vec<Vec<ShardedCasServerOn<B>>> {
    let cfg = cas_config();
    (0..N)
        .map(|i| {
            vec![ShardedCasServerOn::with_backend(
                cfg.clone(),
                ServerId(i),
                backend(i),
            )]
        })
        .collect()
}

/// Runs the net workload `spec`.
pub fn run(spec: &NetSpec, opts: &RunOpts) -> Outcome {
    match spec.name {
        "inproc-abd" => run_net::<AbdOn<LocalAbd>, AbdOn<Timed<LocalAbd>>>(
            spec,
            opts,
            &|| abd_pools((0..N).map(|_| vec![LocalAbd::new()]).collect()),
            &|| abd_pools((0..N).map(|_| vec![Timed::new(LocalAbd::new())]).collect()),
            &|id| ShardedAbdClient::new(ShardMap::full(N), id.0),
            None,
        ),
        "inproc-store-read" => run_net::<AbdOn<StoreAbdBackend>, AbdOn<Timed<StoreAbdBackend>>>(
            spec,
            opts,
            &|| abd_pools(store_backends()),
            &|| {
                abd_pools(
                    store_backends()
                        .into_iter()
                        .map(|p| p.into_iter().map(Timed::new).collect())
                        .collect(),
                )
            },
            &|id| ShardedAbdClient::new(ShardMap::full(N), id.0),
            None,
        ),
        "tcp-coded-cas" => {
            let cfg = cas_config();
            run_net::<CasOn<LocalCas>, CasOn<Timed<LocalCas>>>(
                spec,
                opts,
                &|| cas_pools(|i| LocalCas::new(cas_config(), i, 0)),
                &|| cas_pools(|i| Timed::new(LocalCas::new(cas_config(), i, 0))),
                &move |id| ShardedCasClient::new(cfg.clone(), id.0),
                Some((N as usize, (N - F) as usize)),
            )
        }
        other => unreachable!("not a net workload: {other}"),
    }
}
