//! Steady-state heap allocations per operation of the ABD automaton.
//!
//! A counting global allocator tallies allocations per thread, so test
//! threads running in parallel do not pollute each other's counts. Each
//! test warms a cluster up (buffers reach their steady-state capacity),
//! then counts the allocations of a run of sequential operations and pins
//! the per-operation mean.
//!
//! The single-register cluster must allocate nothing per operation: the
//! client reuses its phase buffers and a one-key message carries its entry
//! inline. The keyed cluster's batch-1 budget covers the two allocations
//! its `MultiInv`/`MultiResp` interface owns — the simulator's copy of the
//! invocation in the operation record and the response batch — and
//! nothing else.

use shmem_algorithms::{AbdCluster, MultiInv, RegInv, ShardMap, ShardedAbdCluster, ValueSpec};
use shmem_sim::ClientId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell` with no destructor,
// so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Operations per measured run, after as many warm-up operations.
const OPS: u64 = 400;

/// The median allocations of one call of `op` over `OPS` calls (numbered
/// from `OPS`), after `OPS` uncounted warm-up calls. The median is the
/// steady state: it ignores the rare call on which the simulator's
/// operation log doubles its capacity.
fn allocations_per_op(mut op: impl FnMut(u64)) -> u64 {
    for i in 0..OPS {
        op(i);
    }
    let mut counts = Vec::with_capacity(OPS as usize);
    for i in OPS..2 * OPS {
        let before = allocations();
        op(i);
        counts.push(allocations() - before);
    }
    counts.sort_unstable();
    counts[counts.len() / 2]
}

#[test]
fn single_register_abd_allocates_nothing_per_op() {
    let spec = ValueSpec::from_bits(64.0);
    let mut c = AbdCluster::new(5, 2, 2, spec);
    let per_op = allocations_per_op(|i| {
        if i % 2 == 0 {
            c.write(0, i).unwrap();
        } else {
            c.read(1).unwrap();
        }
    });
    assert_eq!(per_op, 0, "allocations per write/read");
}

#[test]
fn keyed_abd_batch_of_one_stays_within_budget() {
    let spec = ValueSpec::from_bits(64.0);
    let mut c = ShardedAbdCluster::new(ShardMap::full(5), 2, 2, spec);
    // The caller's invocations are built up front: the budget is the
    // cluster's, from invocation to response.
    let invs: Vec<MultiInv> = (0..2 * OPS)
        .map(|i| {
            if i % 2 == 0 {
                MultiInv::writes(&[(7, i)])
            } else {
                MultiInv::reads(&[7])
            }
        })
        .collect();
    let mut invs = invs.into_iter();
    let per_op = allocations_per_op(|i| {
        let client = ClientId((i % 2) as u32);
        c.begin(client.0, invs.next().unwrap()).unwrap();
        while c.sim.has_open_op(client) {
            c.sim.step_fair().expect("progress");
        }
    });
    assert!(per_op <= 2, "{per_op} allocations per batch-1 op");
}

#[test]
fn counter_sees_this_threads_allocations() {
    let before = allocations();
    let v: Vec<RegInv> = Vec::with_capacity(4);
    assert_eq!(allocations() - before, 1);
    drop(v);
}
