//! Per-layer analysis of one traced round: hop matching, per-operation
//! critical-path attribution, and the transport / client / serve
//! counters, all computed from the endpoint logs after the load ends.
//!
//! **Hops.** A receive is matched to the earliest unmatched send with
//! the same `(from, to, payload digest)`; the hop is the time from the
//! start of that send to the receiver's `recv` return, so it covers the
//! send call, the wire, and any wait in the receiver's queue.
//!
//! **Attribution.** A closed-loop client has one operation in flight, so
//! every message to or from client `c` inside `[invoked, responded]`
//! belongs to that operation. Walking back from the response:
//!
//! 1. the client's last receive before the current point ends a *client*
//!    span (handling that reply, or issuing the next round's sends);
//! 2. its hop back from the server is *transport*;
//! 3. the server's last receive from `c` before that reply was sent ends
//!    a *serve* span (decode, handler, encode, pool hand-offs);
//! 4. the request's hop from the client is *transport*, and the walk
//!    continues from the request's send.
//!
//! The spans telescope, so client + transport + serve + residual equals
//! the operation's latency exactly; the residual is the part before a
//! link the logs could not match.

use crate::layers::{is_server, EndpointLog, Kind, Side};
use shmem_algorithms::multikey::{MultiInv, MultiResp};
use shmem_net::Envelope;
use shmem_sim::OpRecord;
use std::collections::{HashMap, VecDeque};

/// Samples kept for the post-load micro-timings, across a run.
const MAX_SAMPLES: usize = 4096;

/// Per-layer sums over every traced round of a run.
#[derive(Default)]
pub struct TraceAcc {
    /// Completed operations in traced rounds.
    pub ops: u64,
    /// Summed end-to-end latency of those operations.
    pub latency_ns: u64,
    pub client_ns: u64,
    pub transport_ns: u64,
    pub serve_ns: u64,
    pub residual_ns: u64,
    /// Operations whose spans did not close (a negative span).
    pub closure_failures: u64,
    /// Time client workers spent inside `recv_timeout`.
    pub client_recv_wait_ns: u64,
    /// `recv_timeout` calls on client workers that returned `None`.
    pub client_empty_polls: u64,
    /// Retransmission rounds the client workers fired.
    pub retransmits: u64,
    /// Duration of every `send` call, both sides.
    pub send_ns: Vec<u32>,
    /// Every matched hop.
    pub hop_ns: Vec<u32>,
    pub sends: u64,
    pub send_bytes: u64,
    /// Envelopes the servers received.
    pub server_recvs: u64,
    /// Request-receive to reply-send time at the servers, summed.
    pub dispatch_ns: u64,
    pub dispatches: u64,
    /// Server time inside `recv_timeout` during the load, and the
    /// servers' total time during the load.
    pub server_idle_ns: u64,
    pub server_window_ns: u64,
    /// Sampled envelopes (inputs of the wire and frame micro-timings).
    pub samples: Vec<Envelope>,
}

struct RecvAt {
    end: u64,
    /// Start of the matched send, if one was found.
    sent: Option<u64>,
    from: u32,
}

fn later_than(a: u64, b: u64) -> Option<u64> {
    a.checked_sub(b)
}

impl TraceAcc {
    /// Folds one traced round in. `load` is the load window in the
    /// round's epoch; `records` are the round's operation records.
    pub fn add_round(
        &mut self,
        logs: Vec<EndpointLog>,
        records: &[OpRecord<MultiInv, MultiResp>],
        load: (u64, u64),
        retransmits: u64,
    ) {
        self.retransmits += retransmits;
        let mut sends: Vec<(u64, u32, u32, u64)> = Vec::new();
        let mut recvs: Vec<(u64, u32, u32, u64)> = Vec::new();
        // Per (server, client): the server's receives from and sends to
        // the client, for the dispatch times.
        let mut server_in: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
        let mut server_out: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
        let servers = logs
            .iter()
            .filter(|l| matches!(l.side, Side::Server(_)))
            .count() as u64;
        self.server_window_ns += servers * (load.1 - load.0);

        for log in logs {
            let server = matches!(log.side, Side::Server(_));
            for e in &log.events {
                let dur = e.end - e.start;
                match e.kind {
                    Kind::Send => {
                        self.send_ns.push(dur.min(u64::from(u32::MAX)) as u32);
                        self.sends += 1;
                        self.send_bytes += u64::from(e.len);
                        sends.push((e.start, e.from, e.to, e.digest));
                        if server {
                            server_out.entry((e.from, e.to)).or_default().push(e.start);
                        }
                    }
                    Kind::Recv | Kind::Empty => {
                        if server {
                            let overlap = e.end.min(load.1).saturating_sub(e.start.max(load.0));
                            self.server_idle_ns += overlap;
                        } else {
                            self.client_recv_wait_ns += dur;
                        }
                        if e.kind == Kind::Empty {
                            if !server {
                                self.client_empty_polls += 1;
                            }
                            continue;
                        }
                        recvs.push((e.end, e.from, e.to, e.digest));
                        if server {
                            self.server_recvs += 1;
                            server_in.entry((e.to, e.from)).or_default().push(e.end);
                        }
                    }
                }
            }
            for env in log.samples {
                if self.samples.len() < MAX_SAMPLES {
                    self.samples.push(env);
                }
            }
        }

        // Hops: FIFO match per (from, to, digest).
        sends.sort_unstable_by_key(|s| s.0);
        recvs.sort_unstable_by_key(|r| r.0);
        let mut pending: HashMap<(u32, u32, u64), VecDeque<u64>> = HashMap::new();
        for &(start, from, to, digest) in &sends {
            pending
                .entry((from, to, digest))
                .or_default()
                .push_back(start);
        }
        // Client-side receives per client; server-side receives per
        // (server, client) — both in `end` order.
        let mut at_client: HashMap<u32, Vec<RecvAt>> = HashMap::new();
        let mut at_server: HashMap<(u32, u32), Vec<RecvAt>> = HashMap::new();
        for &(end, from, to, digest) in &recvs {
            let sent = pending
                .get_mut(&(from, to, digest))
                .and_then(VecDeque::pop_front);
            if let Some(start) = sent {
                if let Some(hop) = later_than(end, start) {
                    self.hop_ns.push(hop.min(u64::from(u32::MAX)) as u32);
                }
            }
            let at = RecvAt { end, sent, from };
            if is_server(to) {
                at_server.entry((to, from)).or_default().push(at);
            } else {
                at_client.entry(to).or_default().push(at);
            }
        }

        // Dispatch: each request receive to the server's next send to
        // the same client.
        for (pair, ins) in &mut server_in {
            let Some(outs) = server_out.get_mut(pair) else {
                continue;
            };
            ins.sort_unstable();
            outs.sort_unstable();
            let mut j = 0;
            for &t in ins.iter() {
                while j < outs.len() && outs[j] < t {
                    j += 1;
                }
                if j < outs.len() {
                    self.dispatch_ns += outs[j] - t;
                    self.dispatches += 1;
                }
            }
        }

        for rec in records {
            let Some(resp) = rec.responded_at else {
                continue;
            };
            let c = rec.client.0;
            let inv = rec.invoked_at;
            let latency = resp - inv;
            self.ops += 1;
            self.latency_ns += latency;
            match attribute(c, inv, resp, &at_client, &at_server) {
                Some((client, transport, serve)) => {
                    let covered = client + transport + serve;
                    self.client_ns += client;
                    self.transport_ns += transport;
                    self.serve_ns += serve;
                    self.residual_ns += latency - covered;
                }
                None => self.closure_failures += 1,
            }
        }
    }
}

/// The critical-path spans `(client, transport, serve)` of the
/// operation of client `c` over `[inv, resp]`; `None` if a span would be
/// negative (a mismatched link). Spans never exceed the latency: the
/// walk only moves backwards from `resp` and stops at `inv`.
fn attribute(
    c: u32,
    inv: u64,
    resp: u64,
    at_client: &HashMap<u32, Vec<RecvAt>>,
    at_server: &HashMap<(u32, u32), Vec<RecvAt>>,
) -> Option<(u64, u64, u64)> {
    let (mut client, mut transport, mut serve) = (0u64, 0u64, 0u64);
    let empty = Vec::new();
    let replies = at_client.get(&c).unwrap_or(&empty);
    let mut cur = resp;
    loop {
        let i = replies.partition_point(|r| r.end <= cur);
        let reply = match i.checked_sub(1).map(|i| &replies[i]) {
            Some(r) if r.end >= inv => r,
            // Back at the invocation: the op's first sends.
            _ => {
                client += later_than(cur, inv)?;
                break;
            }
        };
        client += later_than(cur, reply.end)?;
        // An unmatched link leaves the rest of the interval unattributed.
        let Some(sent) = reply.sent.filter(|&s| s >= inv) else {
            break;
        };
        transport += later_than(reply.end, sent)?;
        let requests = at_server.get(&(reply.from, c)).unwrap_or(&empty);
        let j = requests.partition_point(|r| r.end <= sent);
        let Some(request) = j.checked_sub(1).map(|j| &requests[j]) else {
            break;
        };
        let Some(req_sent) = request.sent.filter(|&s| s >= inv) else {
            break;
        };
        serve += later_than(sent, request.end)?;
        transport += later_than(request.end, req_sent)?;
        cur = req_sent;
    }
    Some((client, transport, serve))
}
