//! The live heap does not grow from one sort to the next.
//!
//! Each sort below runs in a world of its own, as every operation of
//! the repository benchmark does: the world's state, its buffer pools
//! and every rank's blocks are freed when it ends, and the rank threads
//! that serve it are the process-wide pool's, which outlive it. What
//! is still allocated after a world has ended is therefore one-off
//! process state (the rank threads, their stacks and thread-locals),
//! reached within the first few sorts; a sort that leaks — one buffer
//! per rank per world, one per-world record kept in a process-wide
//! table — adds to it every time.
//!
//! A counting global allocator reads the live heap after sort 5 and
//! after sort 20. The resident set of a long run grows a little all
//! the same: that is the allocator keeping freed pages in the rank
//! threads' arenas, which the live heap does not see (DESIGN.md,
//! "Memory model").
//!
//! A binary of its own, because the counter is process-global and the
//! harness runs the tests of one binary concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use dhs_core::{histogram_sort, SortConfig};
use dhs_runtime::{run, ClusterConfig};

struct CountingAlloc;

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is the
// only addition and touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn keys_for(rank: usize, sort: u64, n: usize) -> Vec<u64> {
    let mut x = (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ sort | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// Ranks and keys per rank of every sort. One leaked block of the
/// input's size on every rank is 128 KiB a sort.
const P: usize = 64;
const N_PER: usize = 256;

/// How far the live heap after sort 20 may sit above its level after
/// sort 5: a few KiB of noise, far below one leaked key block of one
/// rank per sort (2 KiB, 30 KiB over the fifteen sorts between).
const SLACK_BYTES: i64 = 4 << 10;

#[test]
fn live_heap_is_flat_across_sorts() {
    let cluster = ClusterConfig::supermuc_phase2(P);
    // Not a `Vec`: the readings must not allocate as they accumulate.
    let mut after = [0i64; 20];
    for (sort, live) in (1..=20u64).zip(&mut after) {
        let out = run(&cluster, move |comm| {
            let mut local = keys_for(comm.rank(), sort, N_PER);
            histogram_sort(comm, &mut local, &SortConfig::default());
            local.len()
        });
        let total: usize = out.iter().map(|(n, _)| n).sum();
        assert_eq!(total, P * N_PER, "sort {sort} must conserve keys");
        drop(out);
        *live = LIVE.load(Ordering::Relaxed);
    }
    let (fifth, last) = (after[4], after[19]);
    assert!(
        last - fifth <= SLACK_BYTES,
        "live heap grew by {} B from sort 5 to sort 20 (after each sort: {after:?})",
        last - fifth
    );
}
