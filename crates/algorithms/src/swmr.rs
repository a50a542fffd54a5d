//! Single-writer ABD: the classic SWMR atomic register construction.
//!
//! With one writer, no query phase is needed for writes — the writer keeps
//! its sequence number locally and a write is a *single* `Store` round
//! (one phase, value-dependent). Reads remain two-phase (query +
//! write-back).
//!
//! This is the natural subject of the paper's SWSR theorems (B.1, 4.1,
//! 5.1 are all stated for single-writer single-reader regular registers),
//! and the extreme point of the phase-structure spectrum: its write
//! profile is one burst, trivially satisfying Assumption 3.

use crate::abd::{RegisterMsg, ShardedAbdClient, ShardedAbdServerOn};
use crate::backend::OneSlot;
use crate::reg::{RegInv, RegResp};
use crate::value::ValueSpec;
use shmem_sim::Protocol;

/// Protocol marker for single-writer ABD: the ABD register server (it
/// adopts by tag, which is exactly what the single-writer protocol needs)
/// and the single-writer client ([`ShardedAbdClient::single_writer`]).
/// Client 0 is the designated writer; all other clients are readers.
pub struct SwmrAbd;

impl Protocol for SwmrAbd {
    type Msg = RegisterMsg;
    type Inv = RegInv;
    type Resp = RegResp;
    type Server = ShardedAbdServerOn<OneSlot>;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &RegisterMsg) -> u64 {
        msg.wire_bytes()
    }
}

/// Builds a fresh SWMR world: `n` servers, client 0 the writer, clients
/// `1..clients` readers.
pub fn swmr_world(n: u32, clients: u32, spec: ValueSpec) -> shmem_sim::Sim<SwmrAbd> {
    shmem_sim::Sim::new(
        shmem_sim::SimConfig::without_gossip(),
        (0..n)
            .map(|_| ShardedAbdServerOn::register(0, spec))
            .collect(),
        (0..clients)
            .map(|c| ShardedAbdClient::single_writer(n, c))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::{ClientId, NodeId, Sim};

    fn cluster(n: u32, clients: u32) -> Sim<SwmrAbd> {
        swmr_world(n, clients, ValueSpec::from_bits(64.0))
    }

    #[test]
    fn write_then_read() {
        let mut sim = cluster(5, 2);
        sim.invoke(ClientId(0), RegInv::Write(31)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(31)
        );
    }

    #[test]
    #[should_panic(expected = "only client 0 may write")]
    fn non_writer_cannot_write() {
        let mut sim = cluster(3, 2);
        let _ = sim.invoke(ClientId(1), RegInv::Write(1));
    }

    #[test]
    fn sequential_writes_are_ordered_without_queries() {
        let mut sim = cluster(5, 2);
        for v in [10u64, 20, 30] {
            sim.invoke(ClientId(0), RegInv::Write(v)).unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
        }
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(30)
        );
    }

    #[test]
    fn tolerates_minority_failures() {
        let mut sim = cluster(5, 2);
        sim.fail_last_servers(2);
        sim.invoke(ClientId(0), RegInv::Write(8)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(8)
        );
    }

    #[test]
    fn histories_atomic_with_concurrent_readers() {
        use shmem_spec::history::{History, OpKind};
        for seed in 0..8u64 {
            let mut sim = cluster(5, 4);
            sim.invoke(ClientId(0), RegInv::Write(1)).unwrap();
            for r in 1..4 {
                sim.invoke(ClientId(r), RegInv::Read).unwrap();
            }
            let mut rng = shmem_util::DetRng::seed_from_u64(seed);
            while (0..4).any(|c| sim.has_open_op(ClientId(c))) {
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
            assert!(shmem_spec::check_atomic(&h).is_ok(), "seed {seed}: {h:?}");
        }
    }

    #[test]
    fn write_is_single_phase() {
        let mut sim = cluster(5, 1);
        sim.record_sends(true);
        sim.invoke(ClientId(0), RegInv::Write(3)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        // Every writer send happened at the invocation step: one burst.
        let steps: std::collections::BTreeSet<u64> = sim
            .send_log()
            .iter()
            .filter(|r| r.from == NodeId::client(0))
            .map(|r| r.step)
            .collect();
        assert_eq!(steps.len(), 1);
    }
}
