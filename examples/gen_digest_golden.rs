//! Regenerates the golden digest fixtures under `tests/fixtures/`.
//!
//! For a matrix of (algorithm × seed × sampled fault plan) this runs the
//! nemesis driver to completion and records the world's final digest, the
//! trace length, a `trace_hash` of the `StepInfo` sequence and a
//! `history_hash` of the operation records. `tests/digest_golden.rs`
//! replays the stored plans on every test run and asserts byte-identical
//! values, so any change to the simulator's state representation,
//! scheduler order, fault semantics, or digest fold shows up as a tier-1
//! failure — the fixture is the contract that hot-loop rework preserves
//! observable behavior.
//!
//! The two hashes are independent of the protocol's message and node
//! representation (the world digest is not: queued messages are digested
//! through their `Debug` rendering), so they pin the *behaviour* of an
//! execution across a change of automaton.
//!
//! Only regenerate after an *intentional* semantic change, and say so in
//! the commit that updates the fixture:
//!
//! ```sh
//! cargo run --release --example gen_digest_golden
//! ```

use shmem_algorithms::harness::Cluster;
use shmem_algorithms::nemesis::{run_plan, ClusterShape, FaultPlan, NemesisRun};
use shmem_algorithms::{AbdCluster, CasCluster, GossipCluster, NwbCluster};
use shmem_algorithms::{RegInv, RegResp, ValueSpec};
use shmem_sim::{hash_debug, Protocol};
use shmem_util::json::Json;
use shmem_util::DetRng;
use std::fs;
use std::path::Path;

/// Salt folded into each seed before plan sampling, so fixture plans are
/// not correlated with any other DetRng stream in the repo.
const PLAN_SALT: u64 = 0x60_1DE2_D16E;

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

fn main() {
    let spec = ValueSpec::from_bits(64.0);
    let mut entries: Vec<Json> = Vec::new();
    for &(algorithm, n, f, clients) in &[
        ("abd", 5u32, 2u32, 3u32),
        ("abd-gossip", 3, 1, 3),
        ("cas", 5, 2, 3),
        ("nowriteback", 3, 1, 2),
    ] {
        let shape = ClusterShape {
            servers: n,
            f,
            clients,
            reordering: false,
        };
        for seed in 1u64..=3 {
            let plan = FaultPlan::sample(&mut DetRng::seed_from_u64(seed ^ PLAN_SALT), shape);
            let (run, history_hash) = match algorithm {
                "abd" => replay(AbdCluster::new(n, f, clients, spec), seed, &plan),
                "abd-gossip" => replay(GossipCluster::new(n, f, clients, spec), seed, &plan),
                "cas" => replay(CasCluster::new(n, f, clients, spec), seed, &plan),
                "nowriteback" => replay(NwbCluster::new(n, f, clients, spec), seed, &plan),
                other => unreachable!("unknown algorithm {other}"),
            };
            entries.push(Json::Obj(vec![
                ("algorithm".into(), Json::str(algorithm)),
                ("n".into(), Json::Num(f64::from(n))),
                ("f".into(), Json::Num(f64::from(f))),
                ("clients".into(), Json::Num(f64::from(clients))),
                ("seed".into(), Json::Num(seed as f64)),
                // Hex string: JSON numbers are f64 and would round a u64.
                (
                    "digest".into(),
                    Json::str(format!("{:#018x}", run.final_digest)),
                ),
                ("trace_len".into(), Json::Num(run.trace.len() as f64)),
                (
                    "trace_hash".into(),
                    Json::str(format!("{:#018x}", hash_debug(&run.trace))),
                ),
                (
                    "history_hash".into(),
                    Json::str(format!("{history_hash:#018x}")),
                ),
                ("plan".into(), plan.to_json()),
            ]));
        }
    }
    let doc = Json::Obj(vec![
        (
            "comment".into(),
            Json::str(
                "Golden world digests for (algorithm × seed × fault plan); \
                 regenerate with `cargo run --release --example gen_digest_golden` \
                 only after an intentional semantic change.",
            ),
        ),
        ("entries".into(), Json::Arr(entries)),
    ]);
    let dir = Path::new("tests/fixtures");
    fs::create_dir_all(dir).expect("create tests/fixtures");
    let path = dir.join("digest_golden.json");
    fs::write(&path, doc.to_pretty() + "\n").expect("write fixture");
    println!("wrote {}", path.display());
}
