//! Larger-geometry sanity: the algorithms and the machinery at the
//! paper's N = 21 scale and beyond.

use shmem_emulation::algorithms::harness::{run_concurrent_workload, AbdCluster, CasCluster};
use shmem_emulation::algorithms::value::ValueSpec;
use shmem_emulation::bounds::{SystemParams, ValueDomain};
use shmem_emulation::core::audit::StorageAudit;
use shmem_emulation::spec::check_atomic;

fn spec64() -> ValueSpec {
    ValueSpec::from_bits(64.0)
}

#[test]
fn abd_at_figure1_geometry() {
    // N = 21, f = 10: the paper's plotted system.
    let mut c = AbdCluster::new(21, 10, 4, spec64());
    c.sim.fail_last_servers(10);
    run_concurrent_workload(&mut c, 2, 2, 2, 77).expect("workload survives f failures");
    check_atomic(&c.history()).expect("atomic");
    let p = SystemParams::new(21, 10).unwrap();
    let report = StorageAudit::new("abd", p, ValueDomain::from_bits(64), 2).assess(&c.storage());
    assert!(report.lower_bounds_respected(), "{report}");
    assert!((report.measured_total_normalized - 21.0).abs() < 1e-9);
}

#[test]
fn cas_wide_code_geometry() {
    // N = 21, f = 4: k = 13-wide code, quorum 17.
    let mut c = CasCluster::new(21, 4, 4, spec64());
    c.sim.fail_last_servers(4);
    run_concurrent_workload(&mut c, 2, 2, 2, 78).expect("workload survives f failures");
    check_atomic(&c.history()).expect("atomic");
    // Peak storage: at most (2 writers + initial + in-flight) versions of
    // 21/13 value-sizes each — far below replication.
    let total = c.storage().peak_total_bits / 64.0;
    assert!(
        total < 21.0,
        "coded at wide k must beat full replication: {total}"
    );
}

#[test]
fn abd_fifty_servers() {
    let mut c = AbdCluster::new(51, 25, 2, spec64());
    c.write(0, 12345).unwrap();
    assert_eq!(c.read(1).unwrap(), 12345);
    c.sim.fail_last_servers(25);
    c.write(0, 54321).unwrap();
    assert_eq!(c.read(1).unwrap(), 54321);
}

#[test]
fn proof_machinery_at_n9() {
    // The full Theorem 4.1 pipeline at N = 9, f = 4 (bigger state space
    // than the unit tests' N = 5).
    use shmem_emulation::algorithms::abd::{Abd, ShardedAbdClient, ShardedAbdServerOn};
    use shmem_emulation::core::counting::pairwise_counting;
    use shmem_emulation::sim::{ClientId, Sim, SimConfig};
    let make = || {
        let spec = ValueSpec::from_cardinality(4);
        Sim::<Abd>::new(
            SimConfig::without_gossip(),
            (0..9)
                .map(|_| ShardedAbdServerOn::register(0, spec))
                .collect(),
            (0..2).map(|c| ShardedAbdClient::register(9, c)).collect(),
        )
    };
    let report = pairwise_counting(make, ClientId(0), ClientId(1), 4, &[1, 2, 3], false, 1);
    assert!(report.injective, "{report:?}");
    assert!(report.inequality_holds());
}

#[test]
fn hundred_op_history_checks_fast() {
    // The memoized atomicity checker at its documented 128-op ceiling
    // region: 96 sequential-ish ops finish instantly.
    let mut c = AbdCluster::new(5, 2, 4, spec64());
    for round in 0..12 {
        run_concurrent_workload(&mut c, 2, 2, 1, round).expect("round");
    }
    let h = c.history();
    assert!(h.len() >= 48, "len={}", h.len());
    let start = std::time::Instant::now();
    check_atomic(&h).expect("atomic");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "checker too slow: {:?}",
        start.elapsed()
    );
}
