//! A deliberately *broken* cheap algorithm: ABD whose servers store only
//! the low `b` bits of each value.
//!
//! Its per-server storage (`b` bits) can be driven far below every lower
//! bound in the paper — and, exactly as the theorems predict, it then fails
//! regularity: a read reconstructs a truncated value. This is the
//! falsification target the proof machinery in `shmem-core` is validated
//! against (a checker that never flags anything proves nothing).

use crate::abd::{RegisterMsg, ShardedAbdClient, ShardedAbdServerOn};
use crate::backend::OneSlot;
use crate::reg::{RegInv, RegResp};
use crate::value::{Value, ValueSpec};
use shmem_sim::Protocol;

/// Protocol marker for the lossy strawman: ABD over masked
/// ([`OneSlot::masked`]) servers.
pub struct Lossy;

impl Protocol for Lossy {
    type Msg = RegisterMsg;
    type Inv = RegInv;
    type Resp = RegResp;
    type Server = ShardedAbdServerOn<OneSlot>;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &RegisterMsg) -> u64 {
        msg.wire_bytes()
    }
}

/// A lossy server: the ABD register server keeping `kept_bits` bits per
/// value (the cheat: honest storage would need `spec.bits`).
///
/// # Panics
///
/// Panics if `kept_bits >= 64` (use the honest ABD server instead).
pub fn lossy_server(
    initial: Value,
    kept_bits: u32,
    spec: ValueSpec,
) -> ShardedAbdServerOn<OneSlot> {
    ShardedAbdServerOn::with_backend(initial, spec, OneSlot::masked(initial, kept_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::{ClientId, Sim, SimConfig};

    fn cluster(n: u32, kept_bits: u32) -> Sim<Lossy> {
        let spec = ValueSpec::from_bits(8.0);
        Sim::new(
            SimConfig::without_gossip(),
            (0..n).map(|_| lossy_server(0, kept_bits, spec)).collect(),
            (0..2).map(|c| ShardedAbdClient::register(n, c)).collect(),
        )
    }

    #[test]
    fn truncates_high_bits() {
        let mut sim = cluster(3, 2);
        sim.invoke(ClientId(0), RegInv::Write(0b1011)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        // The read returns the truncated value — a regularity violation
        // whenever the written value used high bits.
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(0b11)
        );
    }

    #[test]
    fn values_within_kept_bits_survive() {
        let mut sim = cluster(3, 2);
        sim.invoke(ClientId(0), RegInv::Write(0b10)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(0b10)
        );
    }

    #[test]
    fn storage_undershoots_every_bound() {
        let sim = cluster(3, 2);
        let bits = sim.server_state_bits();
        assert_eq!(bits, vec![2.0; 3]); // 2 bits/server vs log2|V| = 8
    }
}
