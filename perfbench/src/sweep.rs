//! The simulator layer's post-load measurement: a short nemesis sweep,
//! as a researcher runs 10⁵-seed sweeps. Each seed samples its fault
//! plan and runs it, then checks the history for atomicity, on both ABD
//! and CAS (`n = 3, f = 1`, three clients); `nemesis::run_plan` is timed
//! on its own.

use shmem_algorithms::harness::{AbdCluster, CasCluster, Cluster};
use shmem_algorithms::nemesis::{observe_shape, plan_for_seed, run_plan};
use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_algorithms::value::ValueSpec;
use shmem_sim::Protocol;
use shmem_spec::check_atomic;
use std::time::{Duration, Instant};

/// Seeds the sweep runs (each on both algorithms).
const SEEDS: u64 = 1024;

/// What the sweep measured.
#[derive(Default)]
pub struct Sweep {
    /// Time inside `run_plan`.
    pub sim: Duration,
    /// Simulator steps and fault actions executed.
    pub steps: u64,
    pub seeds: u64,
    /// Wall time of the whole sweep, plan sampling included.
    pub wall: Duration,
    /// Seeds whose ABD or CAS history was not atomic.
    pub violations: Vec<u64>,
}

fn abd() -> AbdCluster {
    AbdCluster::new(3, 1, 3, ValueSpec::from_bits(64.0))
}

fn cas() -> CasCluster {
    CasCluster::new(3, 1, 3, ValueSpec::from_bits(64.0))
}

fn run_one<P>(factory: fn() -> Cluster<P>, seed: u64, sweep: &mut Sweep) -> bool
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    let mut cluster = factory();
    let plan = plan_for_seed(seed, observe_shape(&cluster));
    let t0 = Instant::now();
    let run = run_plan(&mut cluster, seed, &plan);
    sweep.sim += t0.elapsed();
    sweep.steps += run.trace.len() as u64;
    check_atomic(&run.history).is_ok()
}

/// Sweeps the seeds that `seed` selects.
pub fn run(seed: u64) -> Sweep {
    let mut sweep = Sweep::default();
    let first = shmem_sim::hash_of(&seed) >> 16;
    let started = Instant::now();
    for s in first..first + SEEDS {
        let clean = run_one(abd, s, &mut sweep) & run_one(cas, s, &mut sweep);
        if !clean {
            sweep.violations.push(s);
        }
        sweep.seeds += 1;
    }
    sweep.wall = started.elapsed();
    sweep
}
