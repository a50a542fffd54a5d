//! Theorem 5.1's machinery against a genuinely gossiping algorithm.
//!
//! Definition 5.3's valency probe differs from Definition 4.3's in one
//! step: before the read begins, "all the channels between the servers
//! act, delivering all their messages". These tests run the full pipeline
//! (α construction → flush-prefixed valency probes → critical pair →
//! pairwise counting) on the gossiping ABD variant, where that flush is
//! *not* a no-op.

use shmem_algorithms::abd::ShardedAbdClient;
use shmem_algorithms::abd_gossip::{AbdGossip, GossipServer};
use shmem_algorithms::value::ValueSpec;
use shmem_core::counting::{pairwise_counting, singleton_counting};
use shmem_core::critical::find_critical_pair;
use shmem_core::execution::AlphaExecution;
use shmem_core::valency::{probe_read, ReadOutcome};
use shmem_sim::{ClientId, NodeId, Sim, SimConfig};

fn gossip_world() -> Sim<AbdGossip> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::with_gossip(),
        (0..5).map(|i| GossipServer::new(i, 5, 0, spec)).collect(),
        (0..2).map(|c| ShardedAbdClient::register(5, c)).collect(),
    )
}

#[test]
fn alpha_builds_with_gossip_in_flight() {
    let alpha = AlphaExecution::build(gossip_world(), ClientId(0), 2, 1, 2).expect("alpha builds");
    // Somewhere along the execution, server-to-server messages existed.
    let any_gossip = (0..alpha.len()).any(|i| {
        let p = alpha.point(i);
        (0..3).any(|a| {
            (0..3).any(|b| a != b && p.in_flight(NodeId::server(a), NodeId::server(b)) > 0)
        })
    });
    assert!(any_gossip, "the gossiping variant must actually gossip");
}

#[test]
fn flushed_probe_is_the_right_probe_for_gossip() {
    // At P0 the first write completed; with gossip still in flight, both
    // probe variants must return v1 (regularity), and after the flush the
    // probe is deterministic regardless of gossip order.
    let alpha = AlphaExecution::build(gossip_world(), ClientId(0), 2, 1, 2).expect("alpha builds");
    assert_eq!(
        probe_read(alpha.point(0), ClientId(0), ClientId(1), true),
        ReadOutcome::Returns(1)
    );
    let last = alpha.len() - 1;
    assert_eq!(
        probe_read(alpha.point(last), ClientId(0), ClientId(1), true),
        ReadOutcome::Returns(2)
    );
}

#[test]
fn critical_pair_exists_under_flushed_probes() {
    let alpha = AlphaExecution::build(gossip_world(), ClientId(0), 2, 1, 2).expect("alpha builds");
    let pair = find_critical_pair(&alpha, ClientId(1), true, 4).expect("critical pair");
    assert_eq!(pair.states_q1.len(), 3);
}

#[test]
fn singleton_counting_injective_with_gossip() {
    let report = singleton_counting(gossip_world, ClientId(0), 2, &[1, 2, 3, 4, 5]);
    assert!(report.injective, "{report:?}");
    assert!(report.inequality_holds());
}

#[test]
fn pairwise_counting_injective_with_flushed_probes() {
    let report = pairwise_counting(
        gossip_world,
        ClientId(0),
        ClientId(1),
        2,
        &[1, 2, 3],
        true,
        2,
    );
    assert_eq!(report.pairs, 6);
    assert!(
        report.injective,
        "collisions={:?} failures={:?}",
        report.collisions, report.failures
    );
    assert!(report.inequality_holds());
}

#[test]
fn unflushed_probe_also_terminates_under_gossip() {
    // Even without the Definition 5.3 prelude, reads terminate (the flush
    // only canonicalizes the observed value); every observed value is
    // still in {v1, v2}.
    let alpha = AlphaExecution::build(gossip_world(), ClientId(0), 2, 1, 2).expect("alpha builds");
    for i in (0..alpha.len()).step_by(3) {
        match probe_read(alpha.point(i), ClientId(0), ClientId(1), false) {
            ReadOutcome::Returns(v) => assert!(v == 1 || v == 2, "point {i}: {v}"),
            ReadOutcome::Stuck => panic!("point {i}: probe stuck"),
        }
    }
}
