//! A gossiping variant of ABD: servers propagate adopted `(tag, value)`
//! pairs to their peers.
//!
//! Functionally this accelerates convergence (a value reaches all servers
//! even if the writer stalls after a single delivery); for this
//! reproduction its purpose is to exercise the paper's *Theorem 5.1*
//! model, where server-to-server channels exist and the valency probes
//! must first let gossip drain (Definition 5.3's prelude) — and where the
//! critical-pair argument must account for the extra channel state
//! (Lemma 5.8(c)).

use crate::abd::{RegisterMsg, ShardedAbdClient, ShardedAbdMsg, ShardedAbdServerOn};
use crate::backend::{AbdBackend, OneSlot};
use crate::multikey::One;
use crate::reg::{RegInv, RegResp};
use crate::tag::Tag;
use crate::value::{Value, ValueSpec};
use shmem_sim::{hash_of, Ctx, Node, NodeId, Protocol};

/// Protocol marker for gossiping ABD.
pub struct AbdGossip;

impl Protocol for AbdGossip {
    type Msg = RegisterMsg;
    type Inv = RegInv;
    type Resp = RegResp;
    type Server = GossipServer;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &RegisterMsg) -> u64 {
        msg.wire_bytes()
    }
}

/// An ABD register server that forwards every newly seen `(tag, value)`
/// to all other servers (as a `Store` with a gossip nonce). Gossip is
/// adopted like any store but never re-forwarded for the same tag (each
/// server forwards a given tag at most once), so gossip cascades
/// terminate.
#[derive(Clone, Debug)]
pub struct GossipServer {
    me: u32,
    n: u32,
    /// The ABD register server this one extends.
    register: ShardedAbdServerOn<OneSlot>,
    /// Highest tag this server has already forwarded.
    forwarded: Tag,
}

/// Nonce used on server-to-server stores (clients use per-op nonces
/// starting at 1; gossip replies are ignored by servers anyway).
const GOSSIP_RID: u64 = u64::MAX;

impl GossipServer {
    /// Server `me` of `n`, initialized to the register's initial value.
    pub fn new(me: u32, n: u32, initial: Value, spec: ValueSpec) -> GossipServer {
        GossipServer {
            me,
            n,
            register: ShardedAbdServerOn::register(initial, spec),
            forwarded: Tag::ZERO,
        }
    }

    /// The currently stored `(tag, value)`.
    pub fn entry(&self) -> (Tag, Value) {
        self.register.entry(0)
    }
}

impl Node<AbdGossip> for GossipServer {
    fn on_message(&mut self, from: NodeId, msg: RegisterMsg, ctx: &mut Ctx<AbdGossip>) {
        if let ShardedAbdMsg::Store { items, .. } = &msg {
            for &item in items.iter() {
                if item.1 > self.forwarded {
                    self.forwarded = item.1;
                    for peer in (0..self.n).filter(|&p| p != self.me) {
                        let gossip = ShardedAbdMsg::Store {
                            rid: GOSSIP_RID,
                            items: One(item),
                        };
                        ctx.send(NodeId::server(peer), gossip);
                    }
                }
            }
            if from.is_server() {
                // Server-to-server stores are fire-and-forget gossip:
                // adopted, never acknowledged.
                for &(key, tag, value) in items.iter() {
                    self.register.backend_mut().store_if_newer(key, tag, value);
                }
                return;
            }
        }
        // Queries, and client stores (adopted and acknowledged), are plain
        // ABD.
        self.register.on_message(from, msg, ctx);
    }

    fn state_bits(&self) -> f64 {
        Node::<AbdGossip>::state_bits(&self.register)
    }

    fn metadata_bits(&self) -> f64 {
        // Stored tag + forwarded watermark.
        Node::<AbdGossip>::metadata_bits(&self.register) + Tag::BITS
    }

    fn digest(&self) -> u64 {
        hash_of(&(self.entry(), self.forwarded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::{ClientId, ServerId, Sim, SimConfig};

    fn cluster(n: u32, clients: u32) -> Sim<AbdGossip> {
        let spec = ValueSpec::from_bits(64.0);
        Sim::new(
            SimConfig::with_gossip(),
            (0..n).map(|i| GossipServer::new(i, n, 0, spec)).collect(),
            (0..clients)
                .map(|c| ShardedAbdClient::register(n, c))
                .collect(),
        )
    }

    #[test]
    fn write_then_read() {
        let mut sim = cluster(5, 2);
        sim.invoke(ClientId(0), RegInv::Write(11)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(11)
        );
    }

    #[test]
    fn gossip_spreads_a_single_delivery_to_all_servers() {
        let mut sim = cluster(5, 1);
        sim.invoke(ClientId(0), RegInv::Write(9)).unwrap();
        // Deliver the query round, then the store to server 0 ONLY; then
        // freeze the writer and let gossip drain.
        for s in 0..5 {
            sim.deliver_one(NodeId::client(0), NodeId::server(s))
                .unwrap();
            sim.deliver_one(NodeId::server(s), NodeId::client(0))
                .unwrap();
        }
        sim.deliver_one(NodeId::client(0), NodeId::server(0))
            .unwrap();
        sim.freeze(NodeId::client(0));
        sim.flush_server_channels().unwrap();
        for s in 0..5 {
            assert_eq!(sim.server(ServerId(s)).entry().1, 9, "server {s}");
        }
    }

    #[test]
    fn gossip_cascade_terminates() {
        let mut sim = cluster(7, 1);
        sim.invoke(ClientId(0), RegInv::Write(3)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        // Fully drain: every server forwards the tag at most once, so the
        // cascade is at most n*(n-1) messages.
        let steps = sim.run_to_quiescence().unwrap();
        assert!(steps <= 7 * 6 + 50, "steps={steps}");
    }

    #[test]
    fn repeated_tags_not_reforwarded() {
        let mut sim = cluster(3, 1);
        sim.invoke(ClientId(0), RegInv::Write(5)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.run_to_quiescence().unwrap();
        let before = sim.now();
        // Nothing left to do: all gossip for this tag already happened.
        assert!(sim.step_fair().is_none());
        assert_eq!(sim.now(), before);
    }

    #[test]
    fn histories_remain_atomic_under_gossip() {
        use shmem_spec::history::{History, OpKind};
        for seed in 0..6u64 {
            let mut sim = cluster(5, 3);
            sim.invoke(ClientId(0), RegInv::Write(1)).unwrap();
            sim.invoke(ClientId(1), RegInv::Write(2)).unwrap();
            sim.invoke(ClientId(2), RegInv::Read).unwrap();
            let mut rng = shmem_util::DetRng::seed_from_u64(seed);
            while (0..3).any(|c| sim.has_open_op(ClientId(c))) {
                sim.step_with(|o| rng.gen_range(0..o.len()))
                    .expect("progress");
            }
            let mut h = History::new(0u64);
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
            assert!(shmem_spec::check_atomic(&h).is_ok(), "seed {seed}");
        }
    }
}
