//! The Section 6 adversary, live: halt ν = 2 concurrent writers at their
//! value-dependent phase, release codeword/value messages to growing
//! server prefixes, and extract the Lemma 6.10 profile `(σ, a₁, a₂)` —
//! for both ABD (replication) and CAS (erasure coding). The contrast in
//! `a₁` is the paper's storage story in miniature: a single ABD value is
//! returnable from 1 server, while CAS needs a full quorum of symbols.
//!
//! ```text
//! cargo run --example staged_adversary
//! ```

use shmem_emulation::algorithms::abd::{self, Abd, ShardedAbdClient, ShardedAbdServerOn};
use shmem_emulation::algorithms::cas::{self, Cas, CasClient, CasConfig, CasServer};
use shmem_emulation::algorithms::value::ValueSpec;
use shmem_emulation::core::multiwrite::{staged_search, vector_counting, MultiWriteSetup};
use shmem_emulation::sim::{ServerId, Sim, SimConfig};

fn abd_world() -> Sim<Abd> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|_| ShardedAbdServerOn::register(0, spec))
            .collect(),
        (0..3).map(|c| ShardedAbdClient::register(5, c)).collect(),
    )
}

fn cas_world() -> Sim<Cas> {
    let cfg = CasConfig::native(5, 1, ValueSpec::from_cardinality(8));
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|i| CasServer::new(cfg, ServerId(i), 0))
            .collect(),
        (0..3).map(|c| CasClient::new(cfg, c)).collect(),
    )
}

fn main() {
    let abd_setup = MultiWriteSetup::<Abd> {
        nu: 2,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    };
    let cas_setup = MultiWriteSetup::<Cas> {
        nu: 2,
        f: 1,
        is_value_dependent: cas::is_value_dependent_upstream,
    };

    println!("Section 6 staged adversary, nu = 2 writers, values (v1, v2) = (1, 2)\n");

    let abd_profile = staged_search(abd_world, &abd_setup, &[1, 2], 8).expect("ABD profile exists");
    println!(
        "ABD  (N=5, f=2): sigma = {:?}, thresholds a = {:?}",
        abd_profile.sigma, abd_profile.a
    );
    println!(
        "  -> a1 = {}: one replicated value becomes returnable after \
         delivery to just {} server(s)",
        abd_profile.a[0], abd_profile.a[0]
    );

    let cas_profile = staged_search(cas_world, &cas_setup, &[1, 2], 8).expect("CAS profile exists");
    println!(
        "CAS  (N=5, f=1): sigma = {:?}, thresholds a = {:?}",
        cas_profile.sigma, cas_profile.a
    );
    println!(
        "  -> a1 = {}: a coded value needs a full write quorum (q = N - f = 4) \
         of symbols before anything is returnable (Lemma 6.11's witness)",
        cas_profile.a[0]
    );

    // The Section 6.4.4 counting argument: over a small domain, the map
    // value-vector -> (sigma, a, states) is injective.
    println!("\nenumerating all ordered pairs of distinct values from {{1, 2, 3}}...");
    let abd_count = vector_counting(abd_world, &abd_setup, &[1, 2, 3], 8);
    println!(
        "ABD: {} vectors, injective = {}",
        abd_count.vectors, abd_count.injective
    );
    let cas_count = vector_counting(cas_world, &cas_setup, &[1, 2, 3], 8);
    println!(
        "CAS: {} vectors, injective = {}",
        cas_count.vectors, cas_count.injective
    );
    assert!(abd_count.injective && cas_count.injective);
    println!(
        "\ninjectivity is what forces Theorem 6.5's bound: the surviving \
         servers must be able to distinguish C(|V|-1, nu) * nu! value-vectors."
    );
}
