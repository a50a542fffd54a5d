//! Critical-pair search — Definition 4.7 and Lemmas 4.6 / 4.8, executable.
//!
//! A *critical pair* `(Q₁, Q₂)` is a pair of adjacent points of
//! `α^{(v1,v2)}` such that `Q₁` is 1-valent and `Q₂` is not. Lemma 4.6
//! guarantees one exists (P₀ is 1-valent, P_M is not); Lemma 4.8 shows at
//! most one non-failing server changes state across the pair. The proofs'
//! `~S^{(v1,v2)}` vector is assembled from the pair: the surviving servers'
//! states at `Q₁`, the index of the server that changed, and its state at
//! `Q₂`.

use crate::execution::AlphaExecution;
use crate::probe::ProbeEngine;
use crate::valency::observed_values_at;
use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_sim::{ClientId, Protocol, Sim};
use std::collections::BTreeSet;

/// A located critical pair with the data the counting argument needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPair {
    /// `Q₁ = P_i`: the last 1-valent point's index.
    pub index: usize,
    /// Digests of the surviving servers' states at `Q₁` (failed servers
    /// excluded), in server order.
    pub states_q1: Vec<u64>,
    /// Index (into the surviving-server order) of the single server whose
    /// state differs between `Q₁` and `Q₂`; `None` if no server changed
    /// (the step touched a client or channel only).
    pub changed_server: Option<usize>,
    /// The changed server's state digest at `Q₂` (equal to its `Q₁` digest
    /// if no server changed).
    pub state_q2: u64,
}

impl CriticalPair {
    /// The `~S^{(v1,v2)}` vector of Section 4.3.3: surviving-server states
    /// at `Q₁`, the changed-server index, and its state at `Q₂`, flattened
    /// into a hashable tuple.
    pub fn state_vector(&self) -> (Vec<u64>, usize, u64) {
        (
            self.states_q1.clone(),
            self.changed_server.unwrap_or(0),
            self.state_q2,
        )
    }
}

/// Errors from the critical-pair search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CriticalError {
    /// `P₀` was not 1-valent — the probed algorithm violates regularity
    /// (a read after `write(v1)` completed did not return `v1`).
    P0NotOneValent {
        /// What the probe observed instead.
        observed: Vec<u64>,
    },
    /// Every point was 1-valent, including `P_M` — the probed algorithm
    /// violates regularity (a read after `write(v2)` completed returned
    /// `v1`).
    NoTransition,
}

impl std::fmt::Display for CriticalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CriticalError::P0NotOneValent { observed } => {
                write!(f, "P0 is not 1-valent; probe observed {observed:?}")
            }
            CriticalError::NoTransition => {
                write!(f, "no 1-valent to non-1-valent transition exists")
            }
        }
    }
}

impl std::error::Error for CriticalError {}

/// Locates a critical pair in `alpha`.
///
/// 1-valency of a point is established existentially by sampling
/// `seeds + 1` extension schedules ([`observed_values`]); a point counts as
/// 1-valent if *any* sampled extension's read returns `v1`. The search
/// finds the largest 1-valent index `i` (Lemma 4.6's construction) and
/// returns `(P_i, P_{i+1})` with the Lemma 4.8 state data.
///
/// `seeds = 0` uses only the deterministic fair probe.
///
/// # Errors
///
/// [`CriticalError`] if the execution has no transition — which means the
/// probed algorithm is not regular.
pub fn find_critical_pair<P>(
    alpha: &AlphaExecution<P>,
    reader: ClientId,
    flush_gossip: bool,
    seeds: u64,
) -> Result<CriticalPair, CriticalError>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    Sim<P>: Send + Sync,
{
    find_critical_pair_with(
        &ProbeEngine::sequential(),
        alpha,
        reader,
        flush_gossip,
        seeds,
    )
}

/// [`find_critical_pair`] through a [`ProbeEngine`]: the reverse scan for
/// the largest 1-valent point proceeds in chunks whose valency probes fan
/// out over the engine's workers, and every probe verdict is memoized.
///
/// The verdict is *bit-identical* to the sequential scan for any worker
/// count: a chunk may probe a few more points than the early-exiting
/// sequential loop, but the chosen index — the largest 1-valent one — and
/// everything derived from it are the same (asserted by the
/// `engine_parity` integration tests).
pub fn find_critical_pair_with<P>(
    engine: &ProbeEngine,
    alpha: &AlphaExecution<P>,
    reader: ClientId,
    flush_gossip: bool,
    seeds: u64,
) -> Result<CriticalPair, CriticalError>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    Sim<P>: Send + Sync,
{
    // Chunk jobs run one point's whole schedule sample inline on their
    // worker (through a cache-sharing sequential view), so fan-out happens
    // across points, never nested within one.
    let seq = engine.sequential_view();
    let observed = |i: usize| {
        observed_values_at(
            &seq,
            alpha.snapshot(i),
            alpha.writer,
            reader,
            flush_gossip,
            seeds,
        )
    };
    let one_valent = |i: usize| observed(i).contains(&alpha.v1);

    if !one_valent(0) {
        return Err(CriticalError::P0NotOneValent {
            observed: observed(0).into_iter().collect(),
        });
    }

    // Largest 1-valent index. Scan from the end — P_M must not be 1-valent
    // for a regular algorithm — in chunks of points whose probes run
    // concurrently; within a chunk the verdicts are merged in point order,
    // so the chosen index is schedule-independent.
    let m = alpha.len() - 1;
    let chunk = (engine.workers() * 2).max(1);
    let mut i = None;
    let mut hi = m + 1;
    while hi > 0 && i.is_none() {
        let lo = hi.saturating_sub(chunk);
        let flags = engine.map(hi - lo, |off| one_valent(lo + off));
        i = flags.iter().rposition(|&b| b).map(|off| lo + off);
        hi = lo;
    }
    let i = i.expect("P0 is 1-valent, so a largest 1-valent index exists");
    if i == m {
        return Err(CriticalError::NoTransition);
    }

    // Lemma 4.8 data: surviving servers' digests at Q1 and Q2.
    let q1 = alpha.point(i);
    let q2 = alpha.point(i + 1);
    let surviving: Vec<usize> = (0..q1.server_count())
        .filter(|&s| !q1.is_failed(shmem_sim::NodeId::server(s as u32)))
        .collect();
    let d1: Vec<u64> = {
        let all = q1.server_digests();
        surviving.iter().map(|&s| all[s]).collect()
    };
    let d2: Vec<u64> = {
        let all = q2.server_digests();
        surviving.iter().map(|&s| all[s]).collect()
    };
    let changed: Vec<usize> = (0..d1.len()).filter(|&j| d1[j] != d2[j]).collect();
    assert!(
        changed.len() <= 1,
        "Lemma 4.8 violated: {} servers changed between adjacent points",
        changed.len()
    );
    let changed_server = changed.first().copied();
    let state_q2 = changed_server.map_or_else(|| d1[0], |j| d2[j]);

    Ok(CriticalPair {
        index: i,
        states_q1: d1,
        changed_server,
        state_q2,
    })
}

/// Convenience: the set of values observable at each point of `alpha` —
/// useful for visualizing the 1-valent → 2-valent transition.
pub fn valency_profile<P>(
    alpha: &AlphaExecution<P>,
    reader: ClientId,
    flush_gossip: bool,
    seeds: u64,
) -> Vec<BTreeSet<u64>>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    Sim<P>: Send + Sync,
{
    valency_profile_with(
        &ProbeEngine::sequential(),
        alpha,
        reader,
        flush_gossip,
        seeds,
    )
}

/// [`valency_profile`] through a [`ProbeEngine`]: points fan out over the
/// engine's workers; each point's schedules are sampled inline on its
/// worker with memoized verdicts. A profile computed after a critical-pair
/// search on the same engine is answered almost entirely from the cache.
pub fn valency_profile_with<P>(
    engine: &ProbeEngine,
    alpha: &AlphaExecution<P>,
    reader: ClientId,
    flush_gossip: bool,
    seeds: u64,
) -> Vec<BTreeSet<u64>>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    Sim<P>: Send + Sync,
{
    let seq = engine.sequential_view();
    engine.map(alpha.len(), |i| {
        observed_values_at(
            &seq,
            alpha.snapshot(i),
            alpha.writer,
            reader,
            flush_gossip,
            seeds,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::AlphaExecution;
    use crate::valency::probe_read;
    use shmem_algorithms::abd::{Abd, ShardedAbdClient, ShardedAbdServerOn};
    use shmem_algorithms::cas::{Cas, CasClient, CasConfig, CasServer};
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::{ServerId, Sim, SimConfig};

    fn abd_alpha(v1: u64, v2: u64) -> AlphaExecution<Abd> {
        let spec = ValueSpec::from_cardinality(8);
        let sim: Sim<Abd> = Sim::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|_| ShardedAbdServerOn::register(0, spec))
                .collect(),
            (0..2).map(|c| ShardedAbdClient::register(5, c)).collect(),
        );
        AlphaExecution::build(sim, ClientId(0), 2, v1, v2).unwrap()
    }

    fn cas_alpha(v1: u64, v2: u64) -> AlphaExecution<Cas> {
        let cfg = CasConfig::native(5, 1, ValueSpec::from_cardinality(8));
        let sim: Sim<Cas> = Sim::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|i| CasServer::new(cfg, ServerId(i), 0))
                .collect(),
            (0..2).map(|c| CasClient::new(cfg, c)).collect(),
        );
        AlphaExecution::build(sim, ClientId(0), 1, v1, v2).unwrap()
    }

    #[test]
    fn abd_has_a_critical_pair() {
        let alpha = abd_alpha(1, 2);
        let pair = find_critical_pair(&alpha, ClientId(1), false, 4).unwrap();
        assert!(pair.index < alpha.len() - 1);
        assert_eq!(pair.states_q1.len(), 3); // 5 servers, 2 failed
                                             // After the critical step the fair probe flips to v2.
        assert_eq!(
            probe_read(alpha.point(pair.index + 1), ClientId(0), ClientId(1), false),
            crate::valency::ReadOutcome::Returns(2)
        );
    }

    #[test]
    fn cas_has_a_critical_pair() {
        let alpha = cas_alpha(3, 5);
        let pair = find_critical_pair(&alpha, ClientId(1), false, 4).unwrap();
        assert_eq!(pair.states_q1.len(), 4); // 5 servers, 1 failed
    }

    #[test]
    fn critical_step_changes_at_most_one_server() {
        for (v1, v2) in [(1, 2), (2, 1), (3, 7)] {
            let alpha = abd_alpha(v1, v2);
            let pair = find_critical_pair(&alpha, ClientId(1), false, 2).unwrap();
            // By Lemma 4.8 the assert inside find_critical_pair already
            // verified <= 1 change; additionally, for ABD the critical step
            // must actually change a server (a Store delivery).
            assert!(pair.changed_server.is_some());
        }
    }

    #[test]
    fn valency_profile_is_monotone_for_fair_probe() {
        // With the deterministic fair probe, the profile starts at {v1} and
        // ends at {v2}.
        let alpha = abd_alpha(1, 2);
        let profile = valency_profile(&alpha, ClientId(1), false, 0);
        assert!(profile[0].contains(&1));
        assert!(profile[alpha.len() - 1].contains(&2));
        assert!(!profile[alpha.len() - 1].contains(&1));
    }

    #[test]
    fn state_vector_is_deterministic() {
        let a1 = abd_alpha(1, 2);
        let a2 = abd_alpha(1, 2);
        let p1 = find_critical_pair(&a1, ClientId(1), false, 2).unwrap();
        let p2 = find_critical_pair(&a2, ClientId(1), false, 2).unwrap();
        assert_eq!(p1.state_vector(), p2.state_vector());
    }

    #[test]
    fn different_value_pairs_give_different_vectors() {
        // A two-pair spot check of the Section 4.3.3 injectivity (the full
        // enumeration lives in counting.rs).
        let pa = find_critical_pair(&abd_alpha(1, 2), ClientId(1), false, 2).unwrap();
        let pb = find_critical_pair(&abd_alpha(2, 1), ClientId(1), false, 2).unwrap();
        assert_ne!(pa.state_vector(), pb.state_vector());
    }
}
