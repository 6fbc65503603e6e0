//! Allocation-count regression guard for the zero-copy exchange path
//! (keys and records) and the shared splitter-search plan.
//!
//! The whole point of `RecvRuns` + `BufferPool` + borrowed-slice
//! collectives is that a full sort stops allocating O(p) vectors per
//! superstep, and of the shared round plan that the splitter search
//! allocates per round once for the world, not once per rank. This
//! test pins both: a counting global allocator measures every heap
//! allocation made while a complete histogram sort runs, and asserts
//! the total stays under a recorded budget. If a future change
//! reintroduces per-rank clones, per-bucket boxing or per-round
//! per-rank vectors, the count jumps far past the headroom and this
//! fails long before a wall-clock benchmark would notice.

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

use dhs_core::{histogram_sort, histogram_sort_by, SortConfig};
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

/// Allocations made, world-wide, while one complete histogram sort
/// runs at `p` ranks of `n_per` keys (`records`: `histogram_sort_by`
/// over 16-byte records keyed by the low 16 bits), and the
/// histogramming rounds it took. Thread spawning and key generation
/// are setup, not the sort; the counter starts once every rank is
/// inside the measured region.
fn sort_allocations(p: usize, n_per: usize, records: bool) -> (u64, u64) {
    let sizes = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let mut local = keys_for(comm.rank(), n_per);
        let mut pairs: Vec<(u64, u64)> = local.iter().map(|&k| (k & 0xFFFF, k)).collect();
        comm.barrier();
        if comm.rank() == 0 {
            ALLOCATIONS.store(0, Ordering::Relaxed);
        }
        comm.barrier();
        let cfg = SortConfig::default();
        let stats = if records {
            histogram_sort_by(comm, &mut pairs, |r| r.0, &cfg)
        } else {
            histogram_sort(comm, &mut local, &cfg)
        };
        comm.barrier();
        let during = ALLOCATIONS.load(Ordering::Relaxed);
        comm.barrier();
        (stats.n_out, during, u64::from(stats.iterations))
    });
    let total: usize = sizes.iter().map(|((n, _, _), _)| *n).sum();
    assert_eq!(total, p * n_per, "sort must conserve keys");
    let ((_, _, rounds), _) = sizes[0];
    let counted = sizes.iter().map(|((_, c, _), _)| *c).max().expect("ranks");
    (counted, rounds)
}

/// `(p, n/p, budget)`. A budget is the measured count (scheduling can
/// shift buffer-pool hit rates by a few allocations run to run) plus
/// ~40% headroom for allocator/layout drift across toolchains.
///
/// * p=8, n/p=4096 (measured 299–303 in 6 histogramming rounds; 578
///   in 19 while the search bisected, 600 while every rank kept a
///   private splitter result, targets vector and copy of the gathered
///   sizes — 3 allocations per rank — and 1 300 before the splitter
///   search shared its plan): the zero-copy exchange path. The legacy
///   path (per-bucket `to_vec`, boxed `alltoallv`, per-rank output
///   clones) measures several times higher again.
/// * p=64, n/p=256 (measured 2 322 in 7 rounds; 3 687 in 17 while the
///   search bisected, 3 877 with the three private vectors): the
///   splitter search at a rank count where its rounds dominate. Every
///   rank rebuilding the replicated search state per round
///   (`active`/`probe_bits`/`spans`/`units` vectors, until PR 14)
///   measured 16 128. The shared plan itself allocates its vectors
///   twice per search, not once per round: a retired plan leaves them
///   for the next `advance`.
///
/// The post-exchange merge contributes nothing to either row: the run
/// merge (first row: 8 runs of ~512 keys) ping-pongs between the
/// receive buffer and the dead send block and keeps its run table in
/// the receive buffer's own counts vector, and the rule's re-sort side
/// (second row: 64 runs of ~4 keys) sorts in place — so both counts
/// are what they were when the merge was a plain `sort_unstable`.
///
/// One test, because the counter is process-global and the harness
/// runs tests of a binary concurrently.
const ALLOC_BUDGETS: [(usize, usize, u64); 2] = [(8, 4096, 420), (64, 256, 3_250)];

/// The same `(p, n/p)` pairs through `histogram_sort_by` on 16-byte
/// records with 16-bit keys. Measured 316 and 2 706 (in 5 and 7
/// rounds), the same count on every run: the key rows plus, per rank,
/// the extracted key view and the LSD kernel's tables and local-sort
/// scratch. While the record exchange cloned every destination segment
/// into an owned bucket (until PR 17) the rows measured 146 and 5 053
/// more — `p` vectors per rank, `p²` per world. A budget has to sit
/// below that count to catch the buckets coming back, so the first row
/// gets 13 % headroom instead of 40 % (360 < 462); the second keeps
/// the 40 %.
const RECORD_ALLOC_BUDGETS: [(usize, usize, u64); 2] = [(8, 4096, 360), (64, 256, 3_800)];

/// `(p, n/p)` of the growth row: from `p` to `2p` ranks the
/// allocations **per histogramming round** may at most double (+10%
/// for pool-hit jitter). What a rank allocates per round and per sort
/// is O(1) — deposits, pooled buffers — and what is O(P) is built once
/// per communicator; a per-rank O(P) allocation count (a vector per
/// destination, a private copy of replicated state) makes the world
/// total quadratic and fails here. Rounds are divided out because they
/// follow the data, not the rank count. Measured: 1 162 allocations
/// in 7 rounds at p=32, 2 322 in 7 at p=64 (×2.00 per round); 4 698 in
/// 7 at p=128 (×2.02).
const GROWTH_ROW: (usize, usize) = (32, 256);

#[test]
fn full_sort_stays_within_allocation_budget() {
    for (records, budgets) in [(false, ALLOC_BUDGETS), (true, RECORD_ALLOC_BUDGETS)] {
        for (p, n_per, budget) in budgets {
            let (counted, _) = sort_allocations(p, n_per, records);
            assert!(
                counted <= budget,
                "full sort (records: {records}) at p={p}, n/p={n_per} made {counted} \
                 allocations, budget {budget}; a per-rank, per-round or per-destination \
                 allocation has crept back in"
            );
        }
    }
    let (p, n_per) = GROWTH_ROW;
    let (small, small_rounds) = sort_allocations(p, n_per, false);
    let (large, large_rounds) = sort_allocations(2 * p, n_per, false);
    assert!(
        10 * large * small_rounds <= 22 * small * large_rounds,
        "allocations per round grew faster than the rank count: {small} in {small_rounds} \
         rounds at p={p}, {large} in {large_rounds} rounds at p={}",
        2 * p
    );
}
