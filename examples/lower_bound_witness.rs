//! The paper's proof machinery, live: build the adversarial two-write
//! execution `α^{(v1,v2)}` against a real ABD cluster, watch the valency
//! profile flip from 1-valent to 2-valent, locate the critical pair, and
//! verify the injective counting map of Theorem 4.1 over a small value
//! domain — then watch the same machinery *refute* a cheating algorithm
//! that stores too few bits.
//!
//! ```text
//! cargo run --example lower_bound_witness
//! ```

use shmem_emulation::algorithms::abd::{Abd, ShardedAbdClient, ShardedAbdServerOn};
use shmem_emulation::algorithms::lossy::{lossy_server, Lossy};
use shmem_emulation::algorithms::value::ValueSpec;
use shmem_emulation::core::counting::{pairwise_counting, singleton_counting};
use shmem_emulation::core::critical::{find_critical_pair, valency_profile};
use shmem_emulation::core::execution::AlphaExecution;
use shmem_emulation::sim::{ClientId, Sim, SimConfig};

fn abd_world() -> Sim<Abd> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|_| ShardedAbdServerOn::register(0, spec))
            .collect(),
        (0..2).map(|c| ShardedAbdClient::register(5, c)).collect(),
    )
}

fn lossy_world() -> Sim<Lossy> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5).map(|_| lossy_server(0, 1, spec)).collect(),
        (0..2).map(|c| ShardedAbdClient::register(5, c)).collect(),
    )
}

fn main() {
    let writer = ClientId(0);
    let reader = ClientId(1);

    // --- The Section 4 construction on ABD (N=5, f=2, |V|=8) ------------
    println!("building alpha^(v1=1, v2=2) against ABD (N=5, f=2)...");
    let alpha = AlphaExecution::build(abd_world(), writer, 2, 1, 2).expect("alpha builds");
    println!(
        "recorded {} points (P0 .. P{})",
        alpha.len(),
        alpha.len() - 1
    );

    let profile = valency_profile(&alpha, reader, false, 4);
    print!("valency profile: ");
    for vals in &profile {
        let tag = match (vals.contains(&1), vals.contains(&2)) {
            (true, false) => '1',
            (false, true) => '2',
            (true, true) => 'B',
            _ => '?',
        };
        print!("{tag}");
    }
    println!("  (1 = only v1 observable, 2 = only v2, B = both)");

    let pair = find_critical_pair(&alpha, reader, false, 4).expect("critical pair exists");
    println!(
        "critical pair at (P{}, P{}): surviving states {:?}, changed server #{:?}",
        pair.index,
        pair.index + 1,
        pair.states_q1.iter().map(|d| d % 1000).collect::<Vec<_>>(),
        pair.changed_server,
    );

    // --- The counting arguments over the whole domain -------------------
    let domain: Vec<u64> = (1..8).collect();
    let singleton = singleton_counting(abd_world, writer, 2, &domain);
    println!(
        "\nTheorem B.1 map v -> S(v): {} values, injective = {}, \
         observed {:.2} bits >= required {:.2} bits",
        singleton.domain.len(),
        singleton.injective,
        singleton.observed_bits(),
        singleton.required_bits()
    );
    assert!(singleton.injective);

    let small: Vec<u64> = vec![1, 2, 3];
    let pairwise = pairwise_counting(abd_world, writer, reader, 2, &small, false, 2);
    println!(
        "Theorem 4.1 map (v1,v2) -> S: {} pairs, injective = {}, \
         observed {:.2} bits >= required {:.2} bits",
        pairwise.pairs,
        pairwise.injective,
        pairwise.observed_bits(),
        pairwise.required_bits()
    );
    assert!(pairwise.injective);

    // --- Refuting a cheat ------------------------------------------------
    println!("\nnow the same machinery against a 1-bit-per-server cheat...");
    let cheat = pairwise_counting(lossy_world, writer, reader, 2, &small, false, 0);
    println!(
        "lossy algorithm: injective = {}, critical-pair failures = {} \
         (each failure is a read returning a value outside {{v1, v2}} — a \
         regularity violation, exactly what the theorems predict for \
         storage below the bound)",
        cheat.injective,
        cheat.failures.len()
    );
    assert!(!cheat.injective);
}
