//! Steady-state allocation guard for the epoch service.
//!
//! The service's pitch is that a long-lived world *amortizes* scratch:
//! after the first couple of epochs every histogram-counts vector,
//! exchange staging buffer and merge scratch comes back out of the
//! per-`Comm` `BufferPool`. This test pins that property the same way
//! `alloc_budget.rs` pins the one-shot sort: a counting global
//! allocator measures each epoch of a stationary stream at p=8,
//! n/p=4096, and asserts that every epoch from index 2 on stays under
//! a steady-state cap — and strictly allocates no more than the
//! cold-start epoch 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use dhs_core::{EpochSorter, SortConfig, WarmStart};
use dhs_runtime::{run, ClusterConfig};

fn keys_for(rank: usize, n: usize) -> Vec<u64> {
    let mut x = (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// Budget for one steady-state epoch (index >= 2) at p=8, n/p=4096:
/// measured 149–157 in one histogramming round (vs ~300 in 6 rounds
/// for the cold epoch 0) plus ~50% headroom for allocator/layout
/// drift. A service that stops recycling (fresh counts vectors per
/// round, per-bucket boxing) lands at the cold count or worse.
const STEADY_STATE_BUDGET: u64 = 230;

#[test]
fn steady_state_epochs_stay_within_allocation_budget() {
    let p = 8;
    let n_per = 4096;
    let epochs = 5usize;
    let cfg = SortConfig::builder()
        .warm_start(WarmStart::SeededWithBrackets)
        .build()
        .expect("valid config");
    // Key generation is setup, not the service: each epoch's batch is
    // regenerated locally, the counter brackets only the sort itself.
    let per_epoch = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let mut svc: EpochSorter<u64> = EpochSorter::new(comm, cfg.clone());
        let mut counts = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut batch = keys_for(comm.rank(), n_per);
            comm.barrier();
            if comm.rank() == 0 {
                ALLOCATIONS.store(0, Ordering::Relaxed);
            }
            comm.barrier();
            let stats = svc.sort_epoch(&mut batch);
            comm.barrier();
            let during = ALLOCATIONS.load(Ordering::Relaxed);
            comm.barrier();
            assert_eq!(batch.len(), n_per, "stationary batches stay balanced");
            counts.push((during, stats.rounds));
        }
        counts
    });

    // The counter is global, so every rank reads the same totals; use
    // rank 0's view.
    let counts = &per_epoch[0].0;
    let epoch0 = counts[0].0;
    eprintln!("allocations per epoch (all ranks): {counts:?}");
    for (e, &(during, rounds)) in counts.iter().enumerate().skip(2) {
        assert!(
            rounds <= 1,
            "epoch {e}: {rounds} rounds — warm start is not converging"
        );
        assert!(
            during <= STEADY_STATE_BUDGET,
            "epoch {e} made {during} allocations, steady-state budget \
             {STEADY_STATE_BUDGET}; scratch recycling has regressed"
        );
        assert!(
            during <= epoch0,
            "epoch {e} made {during} allocations, more than cold epoch 0's \
             {epoch0}; the pool is not amortizing"
        );
    }
}
