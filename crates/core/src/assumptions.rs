//! Executable checks of Section 6.1's protocol assumptions.
//!
//! Theorem 6.5 applies only to write protocols that are *decomposable into
//! phases* (Assumption 2) and send value-dependent messages in *at most
//! one phase* (Assumption 3(b)). This module reconstructs a write's phase
//! structure from the simulator's send log: in the message-driven client
//! model, all sends of one phase happen in a single step (at invocation,
//! or upon receiving the response that completes the previous phase), so
//! phases appear as *bursts* of sends sharing a step index.
//!
//! [`write_phase_profile`] runs a solo write and reports the bursts;
//! [`PhaseProfile::satisfies_assumption_3b`] decides Theorem 6.5
//! applicability. Plain ABD and CAS pass; the hash-announcing protocol of
//! the Section 6.5 conjecture class fails — exactly as the paper
//! classifies them.

use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_algorithms::value::Value;
use shmem_sim::{ClientId, NodeId, Protocol, RunError, Sim};

/// One phase-start burst: all messages the writer sent at one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Burst {
    /// Step index at which the burst was sent.
    pub step: u64,
    /// Messages in the burst.
    pub sends: usize,
    /// How many of them were value-dependent.
    pub value_dependent: usize,
}

/// The reconstructed phase structure of one write operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseProfile {
    /// The bursts, in step order. One burst ≙ one phase start
    /// (Definition 6.1/6.2).
    pub bursts: Vec<Burst>,
}

impl PhaseProfile {
    /// The number of phases the write decomposed into.
    pub fn phases(&self) -> usize {
        self.bursts.len()
    }

    /// The number of phases that sent at least one value-dependent
    /// message.
    pub fn value_dependent_phases(&self) -> usize {
        self.bursts.iter().filter(|b| b.value_dependent > 0).count()
    }

    /// Assumption 3(b): "if there is a phase where at least one
    /// value-dependent send action is performed, then every send action in
    /// every subsequent phase is value-independent" — i.e. at most one
    /// value-dependent phase, and nothing value-dependent after it.
    pub fn satisfies_assumption_3b(&self) -> bool {
        self.value_dependent_phases() <= 1
            && self
                .bursts
                .iter()
                .skip_while(|b| b.value_dependent == 0)
                .skip(1)
                .all(|b| b.value_dependent == 0)
    }
}

/// Runs a solo `write(value)` at `writer` on a fresh world and
/// reconstructs its phase profile from the send log.
///
/// # Errors
///
/// Propagates simulator errors if the write cannot complete.
pub fn write_phase_profile<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    mut sim: Sim<P>,
    writer: ClientId,
    value: Value,
    is_value_dependent: fn(&P::Msg) -> bool,
) -> Result<PhaseProfile, RunError> {
    sim.record_sends(true);
    sim.invoke(writer, RegInv::Write(value))?;
    sim.run_until_op_completes(writer)?;
    let mut bursts: Vec<Burst> = Vec::new();
    for rec in sim.send_log() {
        if rec.from != NodeId::Client(writer) || !rec.to.is_server() {
            continue;
        }
        let vd = usize::from(is_value_dependent(&rec.msg));
        match bursts.last_mut() {
            Some(b) if b.step == rec.step => {
                b.sends += 1;
                b.value_dependent += vd;
            }
            _ => bursts.push(Burst {
                step: rec.step,
                sends: 1,
                value_dependent: vd,
            }),
        }
    }
    Ok(PhaseProfile { bursts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_algorithms::abd::{self, Abd, ShardedAbdClient, ShardedAbdServerOn};
    use shmem_algorithms::cas::{self, Cas, CasClient, CasConfig, CasServer};
    use shmem_algorithms::hashed::{self, HashedCas, HashedClient, HashedServer};
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::{ServerId, SimConfig};

    #[test]
    fn abd_write_has_two_phases_one_value_dependent() {
        let spec = ValueSpec::from_bits(64.0);
        let sim: Sim<Abd> = Sim::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|_| ShardedAbdServerOn::register(0, spec))
                .collect(),
            vec![ShardedAbdClient::register(5, 0)],
        );
        let profile =
            write_phase_profile(sim, ClientId(0), 7, abd::is_value_dependent_upstream).unwrap();
        assert_eq!(profile.phases(), 2, "{profile:?}"); // query, store
        assert_eq!(profile.value_dependent_phases(), 1);
        assert!(profile.satisfies_assumption_3b());
        // Each phase broadcasts to all 5 servers.
        assert!(profile.bursts.iter().all(|b| b.sends == 5));
    }

    #[test]
    fn cas_write_has_three_phases_one_value_dependent() {
        let cfg = CasConfig::native(5, 1, ValueSpec::from_bits(64.0));
        let sim: Sim<Cas> = Sim::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|i| CasServer::new(cfg, ServerId(i), 0))
                .collect(),
            vec![CasClient::new(cfg, 0)],
        );
        let profile =
            write_phase_profile(sim, ClientId(0), 7, cas::is_value_dependent_upstream).unwrap();
        assert_eq!(profile.phases(), 3, "{profile:?}"); // query, prewrite, finalize
        assert_eq!(profile.value_dependent_phases(), 1);
        assert!(profile.satisfies_assumption_3b());
    }

    #[test]
    fn hashed_cas_violates_assumption_3b() {
        let cfg = CasConfig::native(5, 1, ValueSpec::from_bits(64.0));
        let sim: Sim<HashedCas> = Sim::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|i| HashedServer::new(cfg, ServerId(i), 0))
                .collect(),
            vec![HashedClient::new(cfg, 0)],
        );
        let profile =
            write_phase_profile(sim, ClientId(0), 7, hashed::is_value_dependent_upstream).unwrap();
        // query, hash-announce, prewrite, finalize.
        assert_eq!(profile.phases(), 4, "{profile:?}");
        assert_eq!(profile.value_dependent_phases(), 2);
        assert!(!profile.satisfies_assumption_3b());
    }

    #[test]
    fn assumption_3b_ordering_matters() {
        // A value-dependent phase followed by an independent one is fine;
        // independent-then-dependent-then-dependent is not.
        let ok = PhaseProfile {
            bursts: vec![
                Burst {
                    step: 1,
                    sends: 3,
                    value_dependent: 0,
                },
                Burst {
                    step: 5,
                    sends: 3,
                    value_dependent: 3,
                },
                Burst {
                    step: 9,
                    sends: 3,
                    value_dependent: 0,
                },
            ],
        };
        assert!(ok.satisfies_assumption_3b());
        let bad = PhaseProfile {
            bursts: vec![
                Burst {
                    step: 1,
                    sends: 3,
                    value_dependent: 2,
                },
                Burst {
                    step: 5,
                    sends: 3,
                    value_dependent: 1,
                },
            ],
        };
        assert!(!bad.satisfies_assumption_3b());
    }

    #[test]
    fn empty_profile_trivially_satisfies() {
        let p = PhaseProfile { bursts: vec![] };
        assert_eq!(p.phases(), 0);
        assert!(p.satisfies_assumption_3b());
    }
}
