//! ABD *without* the read write-back phase — a classic broken
//! "optimization".
//!
//! The second phase of an ABD read (writing the observed `(tag, value)`
//! back to a majority) is what makes reads atomic: without it, two
//! sequential reads racing a slow write can observe *new then old* (the
//! new-old inversion), which is regular but not atomic. This module
//! implements the broken variant and the test below constructs the
//! inversion deterministically — negative validation that the checker
//! stack and the simulator's adversary controls actually bite.

use crate::abd::{RegisterMsg, ShardedAbdClient, ShardedAbdServerOn};
use crate::backend::OneSlot;
use crate::reg::{RegInv, RegResp};
use shmem_sim::Protocol;

/// Protocol marker: the ABD register server, write-back-less clients
/// ([`ShardedAbdClient::without_write_back`]): reads return straight after
/// the query phase, writes are the normal two-phase ABD writes.
pub struct NoWriteBack;

impl Protocol for NoWriteBack {
    type Msg = RegisterMsg;
    type Inv = RegInv;
    type Resp = RegResp;
    type Server = ShardedAbdServerOn<OneSlot>;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &RegisterMsg) -> u64 {
        msg.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueSpec;
    use shmem_sim::{ClientId, NodeId, Sim, SimConfig};
    use shmem_spec::history::{History, OpKind};
    use shmem_spec::{check_atomic, check_regular};

    fn cluster(n: u32, clients: u32) -> Sim<NoWriteBack> {
        let spec = ValueSpec::from_bits(64.0);
        Sim::new(
            SimConfig::without_gossip(),
            (0..n)
                .map(|_| ShardedAbdServerOn::register(0, spec))
                .collect(),
            (0..clients)
                .map(|c| ShardedAbdClient::without_write_back(n, c))
                .collect(),
        )
    }

    fn history(sim: &Sim<NoWriteBack>) -> History<u64> {
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
        h
    }

    #[test]
    fn sequential_use_still_works() {
        // Without concurrency the bug is invisible — that is why it is a
        // classic trap.
        let mut sim = cluster(3, 2);
        sim.invoke(ClientId(0), RegInv::Write(5)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.run_to_quiescence().unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(5)
        );
        assert!(check_atomic(&history(&sim)).is_ok());
    }

    #[test]
    fn new_old_inversion_constructed_and_caught() {
        // Adversarial schedule: writer stalls after storing at server 0
        // only; reader A's majority includes server 0 (sees new value);
        // reader B's majority avoids it (sees old value). A finished
        // before B began: new-old inversion.
        let mut sim = cluster(3, 3);
        sim.invoke(ClientId(0), RegInv::Write(9)).unwrap();
        // Complete the writer's query phase.
        for s in 0..3 {
            sim.deliver_one(NodeId::client(0), NodeId::server(s))
                .unwrap();
            sim.deliver_one(NodeId::server(s), NodeId::client(0))
                .unwrap();
        }
        // Deliver the store to server 0 only, then freeze the writer.
        sim.deliver_one(NodeId::client(0), NodeId::server(0))
            .unwrap();
        sim.freeze(NodeId::client(0));

        // Reader A: majority {0, 1} -> sees tag 1, returns 9.
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        for s in [0u32, 1] {
            sim.deliver_one(NodeId::client(1), NodeId::server(s))
                .unwrap();
            sim.deliver_one(NodeId::server(s), NodeId::client(1))
                .unwrap();
        }
        assert!(!sim.has_open_op(ClientId(1)));

        // Reader B (later): majority {1, 2} -> sees tag 0, returns 0.
        sim.invoke(ClientId(2), RegInv::Read).unwrap();
        for s in [1u32, 2] {
            sim.deliver_one(NodeId::client(2), NodeId::server(s))
                .unwrap();
            sim.deliver_one(NodeId::server(s), NodeId::client(2))
                .unwrap();
        }
        assert!(!sim.has_open_op(ClientId(2)));

        let h = history(&sim);
        // The returns really are new-then-old.
        let returns: Vec<Option<u64>> = h.ops().iter().map(|o| o.returned).collect();
        assert_eq!(returns[1], Some(9));
        assert_eq!(returns[2], Some(0));
        // Regular (the write overlaps both reads) but NOT atomic.
        assert!(check_regular(&h).is_ok());
        assert!(check_atomic(&h).is_err());
    }

    #[test]
    fn real_abd_immune_to_the_same_schedule() {
        // The same adversarial pattern against real ABD cannot produce the
        // inversion: reader A's write-back propagates tag 1 to a majority
        // before A returns, so reader B must also see it.
        use crate::harness::AbdCluster;
        let spec = ValueSpec::from_bits(64.0);
        let mut c = AbdCluster::new(3, 1, 3, spec);
        c.begin(0, RegInv::Write(9)).unwrap();
        for s in 0..3 {
            c.sim
                .deliver_one(NodeId::client(0), NodeId::server(s))
                .unwrap();
            c.sim
                .deliver_one(NodeId::server(s), NodeId::client(0))
                .unwrap();
        }
        c.sim
            .deliver_one(NodeId::client(0), NodeId::server(0))
            .unwrap();
        c.sim.freeze(NodeId::client(0));
        // Reader A runs to completion fairly (write-back included).
        let a = c.read(1).unwrap();
        // Reader B afterwards.
        let b = c.read(2).unwrap();
        if a == 9 {
            assert_eq!(b, 9, "write-back must have stabilized the new value");
        }
        assert!(check_atomic(&c.history()).is_ok());
    }
}
