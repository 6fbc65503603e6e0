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
//!
//! The same allocator tracks live and peak bytes, and the test bounds
//! the world's peak heap per rank per peer: what a rank holds that
//! grows with `P` must stay the index brackets and one histogram during
//! the splitter search, then the cuts and the receive counts during the
//! exchange.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The highest `LIVE` since the last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
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

/// The world's peak live heap above its level at the start of one
/// `histogram_sort` at `p` ranks of `n_per` distinct keys, in bytes.
fn sort_peak_heap(p: usize, n_per: usize) -> u64 {
    let peaks = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let mut local = keys_for(comm.rank(), n_per);
        comm.barrier();
        let base = LIVE.load(Ordering::Relaxed);
        if comm.rank() == 0 {
            PEAK.store(base, Ordering::Relaxed);
        }
        comm.barrier();
        histogram_sort(comm, &mut local, &SortConfig::default());
        comm.barrier();
        let peak = PEAK.load(Ordering::Relaxed);
        comm.barrier();
        (local.len(), peak.saturating_sub(base))
    });
    let total: usize = peaks.iter().map(|((n, _), _)| *n).sum();
    assert_eq!(total, p * n_per, "sort must conserve keys");
    let ((_, above), _) = peaks[0];
    above
}

/// `(p, n/p, bytes per rank per peer)` of the peak-heap row. At
/// `n/p = p` every n-sized buffer also counts as 8 B per peer, so the
/// bound covers a rank's receive buffer (8), its cuts (the search's
/// index brackets, collapsed to the local bounds and cut in place, 16)
/// and its receive counts (8), plus the world's shared search state.
/// Measured 34 B (34.2 since the cuts come from the search, 33.9
/// before); 96 B while every rank also held a per-destination segment
/// list and its deposited copy, the plan's lower bounds and
/// contingents, a copy of the splitter keys and an idle histogram.
const PEAK_HEAP_ROW: (usize, usize, u64) = (256, 256, 40);

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

    let (p, n_per, per_peer) = PEAK_HEAP_ROW;
    let peak = sort_peak_heap(p, n_per);
    let budget = per_peer * (p * p) as u64;
    assert!(
        peak <= budget,
        "peak heap of a sort at p={p}, n/p={n_per}: {peak} B = {:.1} B per rank per peer, \
         budget {per_peer}; a rank holds an O(P) vector it does not need",
        peak as f64 / (p * p) as f64
    );
}
