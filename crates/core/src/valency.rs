//! Valency probes — Definitions 4.3 and 5.3, executable.
//!
//! A point `P` of `α^{(v1,v2)}` is *k-valent* if some extension in which
//! the writer's messages are delayed indefinitely has a read returning
//! `v_k`. A probe builds one such extension: fork the world at `P`, freeze
//! the writer (for the Theorem 5.1 variant, first let the server-to-server
//! channels deliver all gossip), invoke a read, and run the remaining
//! components fairly until the read returns.
//!
//! The definition is existential over extensions, so a single probe
//! under-approximates valency; [`observed_values`] samples many schedules
//! (fair + seeded random) and returns every value some extension produced.

use crate::probe::{ProbeEngine, Schedule};
use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_algorithms::value::Value;
use shmem_sim::{hash_of, ClientId, NodeId, Point, Protocol, Sim};
use shmem_util::DetRng;
use std::collections::BTreeSet;

/// What a probe extension observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The read terminated with this value.
    Returns(Value),
    /// The extension quiesced or timed out with the read still pending —
    /// a liveness violation of the probed algorithm (the proofs' Lemma 4.4
    /// argument requires reads to terminate once the writer is frozen).
    Stuck,
}

impl ReadOutcome {
    /// The returned value, if the read terminated.
    pub fn value(self) -> Option<Value> {
        match self {
            ReadOutcome::Returns(v) => Some(v),
            ReadOutcome::Stuck => None,
        }
    }
}

/// Probes the point with the *fair* extension schedule.
///
/// Forks `point`, freezes `writer` ("all messages from and to the writer
/// are delayed indefinitely"), optionally flushes server-to-server channels
/// first (`flush_gossip`, the Definition 5.3 prelude), then invokes a read
/// at `reader` and steps fairly until it returns.
///
/// ```
/// use shmem_algorithms::abd::{Abd, ShardedAbdClient, ShardedAbdServerOn};
/// use shmem_algorithms::value::ValueSpec;
/// use shmem_core::execution::AlphaExecution;
/// use shmem_core::valency::{probe_read, ReadOutcome};
/// use shmem_sim::{ClientId, Sim, SimConfig};
///
/// let spec = ValueSpec::from_cardinality(8);
/// let sim: Sim<Abd> = Sim::new(
///     SimConfig::without_gossip(),
///     (0..5).map(|_| ShardedAbdServerOn::register(0, spec)).collect(),
///     (0..2).map(|c| ShardedAbdClient::register(5, c)).collect(),
/// );
/// let alpha = AlphaExecution::build(sim, ClientId(0), 2, 1, 2)?;
/// // P0 is 1-valent: before write(v2) begins, a frozen-writer read
/// // returns v1 (Lemma 4.6(i)).
/// assert_eq!(
///     probe_read(alpha.point(0), ClientId(0), ClientId(1), false),
///     ReadOutcome::Returns(1),
/// );
/// # Ok::<(), shmem_sim::RunError>(())
/// ```
pub fn probe_read<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    point: &Sim<P>,
    writer: ClientId,
    reader: ClientId,
    flush_gossip: bool,
) -> ReadOutcome {
    probe_with(point, writer, reader, flush_gossip, |sim| {
        sim.step_fair().is_some()
    })
}

/// Probes the point with a seeded random extension schedule.
pub fn probe_read_seeded<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    point: &Sim<P>,
    writer: ClientId,
    reader: ClientId,
    flush_gossip: bool,
    seed: u64,
) -> ReadOutcome {
    let mut rng = DetRng::seed_from_u64(seed);
    probe_with(point, writer, reader, flush_gossip, move |sim| {
        sim.step_with(|opts| rng.gen_range(0..opts.len())).is_some()
    })
}

/// Probes the point under an explicit [`Schedule`] — the primitive the
/// [`ProbeEngine`] memoizes.
pub fn probe_schedule<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    point: &Sim<P>,
    writer: ClientId,
    reader: ClientId,
    flush_gossip: bool,
    schedule: Schedule,
) -> ReadOutcome {
    match schedule {
        Schedule::Fair => probe_read(point, writer, reader, flush_gossip),
        Schedule::Seeded(seed) => probe_read_seeded(point, writer, reader, flush_gossip, seed),
    }
}

/// The schedule of the `i`-th valency probe: the fair one first, then the
/// seeded ones in seed order (matching [`observed_values`]'s legacy
/// sampling loop exactly, so engine and direct paths observe identical
/// sets).
fn nth_schedule(i: usize) -> Schedule {
    if i == 0 {
        Schedule::Fair
    } else {
        Schedule::Seeded(i as u64 - 1)
    }
}

/// Digest of everything a valency-probe verdict depends on besides the
/// point itself — the cache key's second half.
fn probe_config_digest(
    writer: ClientId,
    reader: ClientId,
    flush_gossip: bool,
    schedule: Schedule,
) -> u64 {
    hash_of(&("valency", writer, reader, flush_gossip, schedule))
}

/// [`observed_values`] through a [`ProbeEngine`]: the `seeds + 1` schedules
/// fan out over the engine's workers and every verdict is memoized under
/// `(point digest, probe config)`. Bit-identical to [`observed_values`]
/// for any worker count — the result is a set union of per-schedule
/// verdicts, each of which is deterministic.
pub fn observed_values_at<P>(
    engine: &ProbeEngine,
    point: &Point<P>,
    writer: ClientId,
    reader: ClientId,
    flush_gossip: bool,
    seeds: u64,
) -> BTreeSet<Value>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    Sim<P>: Send + Sync,
{
    let point_digest = point.digest();
    engine
        .map(seeds as usize + 1, |i| {
            let schedule = nth_schedule(i);
            let config = probe_config_digest(writer, reader, flush_gossip, schedule);
            engine.probe(point_digest, config, || {
                probe_schedule(point.sim(), writer, reader, flush_gossip, schedule).value()
            })
        })
        .into_iter()
        .flatten()
        .collect()
}

fn probe_with<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    point: &Sim<P>,
    writer: ClientId,
    reader: ClientId,
    flush_gossip: bool,
    mut step: impl FnMut(&mut Sim<P>) -> bool,
) -> ReadOutcome {
    let mut sim = point.fork();
    if flush_gossip {
        // Definition 5.3: the channels between servers act first,
        // delivering all their messages.
        if sim.flush_server_channels().is_err() {
            return ReadOutcome::Stuck;
        }
    }
    sim.freeze(NodeId::Client(writer));
    if sim.invoke(reader, RegInv::Read).is_err() {
        return ReadOutcome::Stuck;
    }
    let limit = sim.config().step_limit;
    let mut steps = 0u64;
    while sim.has_open_op(reader) {
        if !step(&mut sim) {
            return ReadOutcome::Stuck;
        }
        steps += 1;
        if steps > limit {
            return ReadOutcome::Stuck;
        }
    }
    let resp = sim
        .ops()
        .iter()
        .rev()
        .find(|o| o.client == reader)
        .and_then(|o| o.response)
        .and_then(RegResp::read_value);
    match resp {
        Some(v) => ReadOutcome::Returns(v),
        None => ReadOutcome::Stuck,
    }
}

/// Samples many extension schedules (the fair one plus `seeds` random ones)
/// and returns the set of values some extension's read returned — an
/// under-approximation of the set of `k` for which the point is `k`-valent.
///
/// This is the plain reference path: every schedule runs, inline, every
/// time. The proof machinery goes through [`observed_values_at`] instead,
/// which computes the *same set* (asserted by the `engine_parity` tests)
/// with memoization and fan-out.
pub fn observed_values<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    point: &Sim<P>,
    writer: ClientId,
    reader: ClientId,
    flush_gossip: bool,
    seeds: u64,
) -> BTreeSet<Value> {
    (0..seeds as usize + 1)
        .filter_map(|i| {
            probe_schedule(point, writer, reader, flush_gossip, nth_schedule(i)).value()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::AlphaExecution;
    use shmem_algorithms::abd::{Abd, ShardedAbdClient, ShardedAbdServerOn};
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::SimConfig;

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

    fn alpha() -> AlphaExecution<Abd> {
        AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap()
    }

    #[test]
    fn p0_is_one_valent() {
        // Lemma 4.6(i): at P0 only write(v1) exists, so the read returns v1.
        let a = alpha();
        assert_eq!(
            probe_read(a.point(0), ClientId(0), ClientId(1), false),
            ReadOutcome::Returns(1)
        );
    }

    #[test]
    fn pm_is_two_valent_not_one_valent() {
        // Lemma 4.6(ii): after write(v2) terminates, regularity forces v2.
        let a = alpha();
        let last = a.len() - 1;
        assert_eq!(
            probe_read(a.point(last), ClientId(0), ClientId(1), false),
            ReadOutcome::Returns(2)
        );
        // Sampling extensions never yields v1 at PM.
        let vals = observed_values(a.point(last), ClientId(0), ClientId(1), false, 16);
        assert!(!vals.contains(&1), "PM must not be 1-valent: {vals:?}");
    }

    #[test]
    fn every_point_returns_v1_or_v2() {
        // Lemma 4.5: reads invoked after π₁'s termination return v1 or v2.
        let a = alpha();
        for i in 0..a.len() {
            let vals = observed_values(a.point(i), ClientId(0), ClientId(1), false, 4);
            assert!(!vals.is_empty(), "point {i}: read must terminate");
            assert!(
                vals.iter().all(|v| *v == 1 || *v == 2),
                "point {i}: observed {vals:?}"
            );
        }
    }

    #[test]
    fn probe_does_not_mutate_the_point() {
        let a = alpha();
        let before = a.point(3).digest();
        let _ = probe_read(a.point(3), ClientId(0), ClientId(1), false);
        assert_eq!(a.point(3).digest(), before);
    }

    #[test]
    fn outcome_projection() {
        assert_eq!(ReadOutcome::Returns(5).value(), Some(5));
        assert_eq!(ReadOutcome::Stuck.value(), None);
    }

    #[test]
    fn engine_path_matches_reference_path() {
        let a = alpha();
        let engine = ProbeEngine::with_workers(4);
        for i in 0..a.len() {
            let reference = observed_values(a.point(i), ClientId(0), ClientId(1), false, 6);
            let engined =
                observed_values_at(&engine, a.snapshot(i), ClientId(0), ClientId(1), false, 6);
            assert_eq!(reference, engined, "point {i}");
        }
        // Every probe of a repeat pass is answered from the cache.
        let before = engine.stats();
        assert_eq!(before.hits, 0);
        for i in 0..a.len() {
            let _ = observed_values_at(&engine, a.snapshot(i), ClientId(0), ClientId(1), false, 6);
        }
        let after = engine.stats();
        assert_eq!(after.probes, 2 * before.probes);
        assert_eq!(after.hits, before.probes);
    }

    #[test]
    fn probe_reports_stuck_for_dead_cluster() {
        // Fail everything: the read cannot complete.
        let mut sim = abd_world();
        sim.fail_last_servers(5);
        assert_eq!(
            probe_read(&sim, ClientId(0), ClientId(1), false),
            ReadOutcome::Stuck
        );
    }
}
