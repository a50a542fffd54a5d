//! Golden digest replay: the simulator must reproduce recorded world
//! digests byte-for-byte.
//!
//! `tests/fixtures/digest_golden.json` (regenerated by
//! `examples/gen_digest_golden.rs`) stores, for a matrix of
//! (algorithm × seed × fault plan), the final world digest, the trace
//! length, and hashes of the `StepInfo` trace and of the operation records
//! of a full nemesis run. This test replays each stored plan on a fresh
//! cluster and compares. Anything that shifts scheduler order,
//! fault semantics, message identity, or the digest fold — however
//! subtly — fails here, which is what lets the hot loop be reworked
//! aggressively: the fixture, not code review, is the proof that
//! observable behavior survived.

use shmem_algorithms::harness::Cluster;
use shmem_algorithms::nemesis::{run_plan, FaultPlan, NemesisRun};
use shmem_algorithms::{AbdCluster, CasCluster, GossipCluster, NwbCluster};
use shmem_algorithms::{RegInv, RegResp, ValueSpec};
use shmem_sim::{hash_debug, Protocol};
use shmem_util::json::Json;

/// Runs `plan` on `cluster`; returns the run and the hash of its
/// operation records.
fn replay<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    mut cluster: Cluster<P>,
    seed: u64,
    plan: &FaultPlan,
) -> (NemesisRun, u64) {
    let run = run_plan(&mut cluster, seed, plan);
    (run, hash_debug(cluster.sim.ops()))
}

fn hex_field(e: &Json, name: &str) -> u64 {
    let s = e.get(name).and_then(Json::as_str).unwrap();
    u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("a hex u64")
}

#[test]
fn recorded_digests_reproduce_byte_for_byte() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/digest_golden.json"
    ))
    .expect("read digest_golden.json");
    let doc = Json::parse(&text).expect("fixture parses");
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .expect("fixture has entries");
    assert!(!entries.is_empty(), "fixture must not be empty");
    let spec = ValueSpec::from_bits(64.0);
    for e in entries {
        let algorithm = e.get("algorithm").and_then(Json::as_str).unwrap();
        let n = e.get("n").and_then(Json::as_u64).unwrap() as u32;
        let f = e.get("f").and_then(Json::as_u64).unwrap() as u32;
        let clients = e.get("clients").and_then(Json::as_u64).unwrap() as u32;
        let seed = e.get("seed").and_then(Json::as_u64).unwrap();
        let digest = hex_field(e, "digest");
        let trace_len = e.get("trace_len").and_then(Json::as_u64).unwrap() as usize;
        let plan = FaultPlan::from_json(e.get("plan").expect("entry has plan"))
            .expect("stored plan parses");
        let (run, history_hash) = match algorithm {
            "abd" => replay(AbdCluster::new(n, f, clients, spec), seed, &plan),
            "abd-gossip" => replay(GossipCluster::new(n, f, clients, spec), seed, &plan),
            "cas" => replay(CasCluster::new(n, f, clients, spec), seed, &plan),
            "nowriteback" => replay(NwbCluster::new(n, f, clients, spec), seed, &plan),
            other => panic!("unknown algorithm in fixture: {other}"),
        };
        assert_eq!(
            run.final_digest, digest,
            "{algorithm} seed {seed}: world digest diverged from golden record \
             (got {:#018x}, fixture has {:#018x})",
            run.final_digest, digest
        );
        assert_eq!(
            run.trace.len(),
            trace_len,
            "{algorithm} seed {seed}: trace length diverged from golden record"
        );
        assert_eq!(
            hash_debug(&run.trace),
            hex_field(e, "trace_hash"),
            "{algorithm} seed {seed}: StepInfo trace diverged from golden record"
        );
        assert_eq!(
            history_hash,
            hex_field(e, "history_hash"),
            "{algorithm} seed {seed}: operation records diverged from golden record"
        );
    }
}
