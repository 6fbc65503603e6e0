//! Parallel merging: the run-merge tree that merges the received runs
//! of every distributed sort, the stable two-way parallel merge inside
//! the task merge sorts, and the parallel k-way scheme of the §VI-E2
//! study.
//!
//! The tree and the two-way merge are comparator-generic over `Clone`
//! elements and stable — equal elements keep run order, left run first
//! — and every two-way merge runs the one leaf,
//! [`dhs_merge::merge_into`]. All split points and pairings are
//! data-deterministic, so output never depends on the thread budget.

use std::cmp::Ordering;

use dhs_merge::merge_into;
use dhs_runtime::threads::{join, map_parallel};

/// Sequential-work threshold below which parallel merge recursion stops.
const MERGE_GRAIN: usize = 4096;

/// Merge sorted `a` and `b` into `out` (exactly `a.len() + b.len()`
/// long) with up to `threads` threads: split the larger input at its
/// midpoint, binary-search the partner, and merge the two halves into
/// disjoint output windows in parallel, down to [`merge_into`] leaves.
/// `a` is the left run, `b` the right run, and ties resolve
/// left-run-first, exactly like a stable serial merge.
///
/// The split keeps stability by choosing the cut bound from the side
/// being split: splitting the left run cuts the right run before its
/// first element not less than the pivot (equal right-run elements
/// stay right of the pivot); splitting the right run cuts the left run
/// after its last element not greater than the pivot (equal left-run
/// elements stay left of the pivot).
pub fn parallel_merge_into_by<T, F>(a: &[T], b: &[T], out: &mut [T], threads: usize, cmp: &F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "output window must fit both inputs exactly"
    );
    if threads <= 1 || a.len() + b.len() <= MERGE_GRAIN {
        merge_into(a, b, out, cmp);
        return;
    }
    if a.len() >= b.len() {
        let mid = a.len() / 2;
        let cut = b.partition_point(|x| cmp(x, &a[mid]) == Ordering::Less);
        let (out_lo, out_hi) = out.split_at_mut(mid + cut);
        join(
            threads,
            |t| parallel_merge_into_by(&a[..mid], &b[..cut], out_lo, t, cmp),
            |t| parallel_merge_into_by(&a[mid..], &b[cut..], out_hi, t, cmp),
        );
    } else {
        let mid = b.len() / 2;
        let cut = a.partition_point(|x| cmp(x, &b[mid]) != Ordering::Greater);
        let (out_lo, out_hi) = out.split_at_mut(cut + mid);
        join(
            threads,
            |t| parallel_merge_into_by(&a[..cut], &b[..mid], out_lo, t, cmp),
            |t| parallel_merge_into_by(&a[cut..], &b[mid..], out_hi, t, cmp),
        );
    }
}

/// Parallel k-way merge by *input chunking* (the §VI-E2 study): the
/// runs are divided among threads, each thread k/t-way-merges its
/// share with `leaf` (any `dhs_merge` engine), and the per-thread
/// results are combined by [`merge_runs_in_place`]. Runs may be any
/// `AsRef<[T]>`; the chunking shares borrowed slices, so the inputs are
/// not copied first.
pub fn parallel_kway_chunked<'r, T, R>(
    runs: &'r [R],
    threads: usize,
    leaf: fn(&[&'r [T]]) -> Vec<T>,
) -> Vec<T>
where
    T: Ord + Copy + Send + Sync,
    R: AsRef<[T]> + Sync,
{
    let slices: Vec<&[T]> = runs.iter().map(|r| r.as_ref()).collect();
    let t = threads.max(1).min(slices.len().max(1));
    if t <= 1 {
        return leaf(&slices);
    }
    let per = slices.len().div_ceil(t);
    let shares: Vec<&[&[T]]> = slices.chunks(per).collect();
    let partials = map_parallel(t, shares, leaf);
    let counts = partials.iter().map(Vec::len).collect();
    let mut flat = partials.concat();
    merge_runs_in_place(&mut flat, counts, &mut Vec::new(), threads, &T::cmp);
    flat
}

/// Mean non-empty run length below which [`merge_sorted_runs`] re-sorts
/// instead of merging. Read off the `local_merge_ab` grid of
/// `BENCH_wallclock.json` (t = 1, u64 keys): see
/// [`run_merge_beats_resort`].
const MIN_MEAN_RUN: usize = 32;

/// The closed-form rule behind [`merge_sorted_runs`]: does the binary
/// run-merge tree beat `sort_unstable` on `n` keys held in `runs`
/// non-empty sorted runs?
///
/// The tree moves every key `⌈log₂ runs⌉` times and pays a fixed
/// set-up per pair merge; a re-sort pays `n log n` compares but its
/// small-sort networks have no per-run cost. So the tree wins once the
/// runs are long enough to amortise the per-pair set-up — mean run
/// length `n / runs ≥ MIN_MEAN_RUN` — and loses on many near-empty
/// runs (the p = 1024, 256-keys-per-rank shape, where every rank
/// receives ~256 one-key runs). Fewer than two runs are already
/// sorted: the tree returns them untouched.
///
/// Recorded cells (`BENCH_wallclock.json`, `local_merge_ab`: t = 1,
/// u64 keys, re-sort ÷ run-merge host time, runs × mean length). The
/// tree wins: 8 × 128 Ki 3.48×, 32 × 1 Ki 1.94×, 64 × 1 Ki 1.76×,
/// 256 × 1 Ki 1.50×, 64 × 64 1.15×, 256 × 64 1.11×. Break-even, where
/// the constant sits: 64 × 32 0.99×, 256 × 32 0.98×. Re-sort wins:
/// 64 × 16 0.85×, 256 × 16 0.85×, 1024 × 4 0.62×, 256 one-key runs
/// 0.28×.
pub fn run_merge_beats_resort(runs: usize, n: usize) -> bool {
    runs < 2 || n >= runs * MIN_MEAN_RUN
}

/// Sort `flat`, which holds sorted runs back to back (run `i` is
/// `counts[i]` long — the `RecvRuns` layout after an exchange), under
/// `cmp`: [`merge_runs_in_place`] where [`run_merge_beats_resort`]
/// says the tree is cheaper, `sort_unstable_by` otherwise. The re-sort
/// arm is not stable, so the choice is invisible in the output only
/// where `cmp` is a total order on the elements themselves (keys);
/// records that must keep run order call [`merge_runs_in_place`].
///
/// Returns `counts`' allocation (its contents spent) for reuse.
///
/// # Panics
/// Panics when `counts` does not sum to `flat.len()`.
pub fn merge_sorted_runs<T, F>(
    flat: &mut [T],
    mut counts: Vec<usize>,
    scratch: &mut Vec<T>,
    threads: usize,
    cmp: &F,
) -> Vec<usize>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    run_ends(&mut counts, flat.len());
    if run_merge_beats_resort(counts.len(), flat.len()) {
        merge_tree(flat, &mut counts, scratch, threads, cmp);
    } else {
        flat.sort_unstable_by(cmp);
    }
    counts
}

/// Turn per-run `counts` into the end offsets of the non-empty runs,
/// in place: run `i` is `flat[ends[i - 1]..ends[i]]` (from 0 for
/// `i = 0`), empty runs drop out.
fn run_ends(ends: &mut Vec<usize>, n: usize) {
    let mut end = 0;
    ends.retain_mut(|c| {
        end += *c;
        let keep = *c > 0;
        *c = end;
        keep
    });
    assert_eq!(end, n, "counts must cover the buffer exactly");
}

/// Binary merge tree over the sorted runs of `flat` under `cmp`,
/// ping-ponging between `flat` and `scratch` with no further buffer:
/// every level merges adjacent run pairs of one buffer into the same
/// windows of the other with [`merge_into`] (a trailing odd run is
/// copied across) and streams all `n` elements once — `O(n log k)`
/// moves against the `O(n log n)` compares of a re-sort, which is why
/// it is the fastest way to turn the post-exchange receive buffer into
/// a sorted array even on one core.
///
/// The result always ends in `flat`. A tree of `⌈log₂ k⌉` levels
/// that simply alternated buffers would end in `scratch` whenever
/// that count is odd; the first level of an odd tree is therefore
/// *staged*: each pair is copied to its scratch window and merged back
/// from there while the window is still cache-hot, which leaves an
/// even number of alternating levels. The caller thus keeps the
/// buffer it passed in — after an exchange, the one receive buffer the
/// rank allocated — and the allocation pattern around the merge is
/// that of an in-place sort.
///
/// Nothing is allocated: `scratch` is any vector the caller no longer
/// needs (the dead send block after an exchange), resized to
/// `flat.len()` only when a merge actually runs, and `counts` is
/// consumed as the tree's working state (it shrinks to the run ends of
/// each level in place) and returned, spent, for reuse. With fewer than
/// two non-empty runs `flat` is already sorted and neither buffer is
/// touched.
///
/// Pair merges within a level work on disjoint windows, so with a
/// thread budget they run concurrently; the pairing is fixed (adjacent
/// runs), so the output is identical for every budget — and stable,
/// ties resolving to the lower-indexed run: the stable sort of `flat`
/// by `cmp`.
///
/// # Panics
/// Panics when `counts` does not sum to `flat.len()`.
pub fn merge_runs_in_place<T, F>(
    flat: &mut [T],
    mut counts: Vec<usize>,
    scratch: &mut Vec<T>,
    threads: usize,
    cmp: &F,
) -> Vec<usize>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    run_ends(&mut counts, flat.len());
    merge_tree(flat, &mut counts, scratch, threads, cmp);
    counts
}

/// [`merge_runs_in_place`] over the run ends [`run_ends`] produced.
fn merge_tree<T, F>(
    flat: &mut [T],
    ends: &mut Vec<usize>,
    scratch: &mut Vec<T>,
    threads: usize,
    cmp: &F,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if ends.len() < 2 {
        return;
    }
    let n = flat.len();
    scratch.truncate(n);
    scratch.resize(n, flat[0].clone());
    let (mut src, mut dst) = (flat, &mut scratch[..]);
    let levels = ends.len().next_power_of_two().trailing_zeros();
    if levels % 2 == 1 {
        merge_level(src, dst, ends, threads, true, cmp);
    }
    while ends.len() > 1 {
        merge_level(src, dst, ends, threads, false, cmp);
        std::mem::swap(&mut src, &mut dst);
    }
}

/// One level of [`merge_tree`]: merge runs `2q` and `2q + 1`
/// of `src` and halve `ends` in place. Plain levels merge into the
/// same window of `dst` and carry a trailing odd run across unmerged;
/// a `staged` level leaves its result in `src` (see [`merge_window`]).
fn merge_level<T, F>(
    src: &mut [T],
    dst: &mut [T],
    ends: &mut Vec<usize>,
    threads: usize,
    staged: bool,
    cmp: &F,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let pairs = ends.len() / 2;
    let paired_end = ends[2 * pairs - 1];
    // Pair `q` as (window length, offset of its second run).
    let pair = |q: usize| {
        let lo = if q == 0 { 0 } else { ends[2 * q - 1] };
        (ends[2 * q + 1] - lo, ends[2 * q] - lo)
    };
    // Carve one disjoint window per pair out of both buffers, in order.
    let (mut src_rest, src_tail) = src.split_at_mut(paired_end);
    let (mut dst_rest, dst_tail) = dst.split_at_mut(paired_end);
    let mut next_window = |q: usize| {
        let (len, mid) = pair(q);
        let (s, s_rest) = std::mem::take(&mut src_rest).split_at_mut(len);
        let (d, d_rest) = std::mem::take(&mut dst_rest).split_at_mut(len);
        (src_rest, dst_rest) = (s_rest, d_rest);
        (s, d, mid)
    };
    if threads <= 1 || pairs == 1 {
        for q in 0..pairs {
            let (s, d, mid) = next_window(q);
            merge_window(s, d, mid, staged, cmp);
        }
    } else {
        let tasks: Vec<_> = (0..pairs).map(next_window).collect();
        map_parallel(threads, tasks, |(s, d, mid)| {
            merge_window(s, d, mid, staged, cmp)
        });
    }
    if !staged {
        dst_tail.clone_from_slice(src_tail);
    }
    let odd = ends.len() % 2 == 1;
    for q in 0..pairs {
        ends[q] = ends[2 * q + 1];
    }
    ends.truncate(pairs);
    if odd {
        ends.push(src.len());
    }
}

/// Merge the two runs `src[..mid]` and `src[mid..]` of one pair window
/// into `dst` — or, `staged`, back into `src` by way of `dst`.
fn merge_window<'a, T, F>(
    mut src: &'a mut [T],
    mut dst: &'a mut [T],
    mid: usize,
    staged: bool,
    cmp: &F,
) where
    T: Clone,
    F: Fn(&T, &T) -> Ordering,
{
    if staged {
        dst.clone_from_slice(src);
        std::mem::swap(&mut src, &mut dst);
    }
    let (a, b) = src.split_at(mid);
    merge_into(a, b, dst, cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_merge::{binary_tree_merge, funnel_merge, heap_merge, resort_merge, tournament_merge};

    fn runs_fixture(k: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut x = seed | 1;
        (0..k)
            .map(|_| {
                let mut v: Vec<u64> = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % 100_000
                    })
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    fn reference(runs: &[Vec<u64>]) -> Vec<u64> {
        let mut all: Vec<u64> = runs.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn parallel_merge_matches_sequential() {
        let runs = runs_fixture(2, 20_000, 5);
        let expect = reference(&runs);
        let mut out = vec![0u64; expect.len()];
        parallel_merge_into_by(&runs[0], &runs[1], &mut out, 4, &u64::cmp);
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_merge_uneven_sides() {
        let a: Vec<u64> = (0..10_000).map(|x| x * 3).collect();
        let b: Vec<u64> = (0..100).map(|x| x * 7 + 1).collect();
        let mut out = vec![0u64; a.len() + b.len()];
        parallel_merge_into_by(&a, &b, &mut out, 8, &u64::cmp);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.len(), 10_100);
    }

    #[test]
    fn parallel_merge_empty_side() {
        let a: Vec<u64> = (0..5000).collect();
        let mut out = vec![0u64; 5000];
        parallel_merge_into_by(&a, &[], &mut out, 4, &u64::cmp);
        assert_eq!(out, a);
    }

    /// The comparator-generic pmerge must be *stable*: merging two
    /// sorted runs of keyed records equals the stable sort of their
    /// concatenation, for every thread budget and both split
    /// directions (larger left / larger right side).
    #[test]
    fn pmerge_by_is_stable() {
        // Records: (key with many duplicates, provenance tag). Sorted
        // by key only; the tag witnesses stability.
        let mk = |run: usize, n: usize| -> Vec<(u32, usize)> {
            let mut x = (run as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut v: Vec<(u32, usize)> = (0..n)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    ((x % 50) as u32, run * 1_000_000 + i)
                })
                .collect();
            v.sort_by_key(|r| r.0); // stable: tags stay in index order
            v
        };
        let cmp = |a: &(u32, usize), b: &(u32, usize)| a.0.cmp(&b.0);
        for (na, nb) in [(20_000, 20_000), (20_000, 600), (600, 20_000)] {
            let a = mk(0, na);
            let b = mk(1, nb);
            let mut expect: Vec<(u32, usize)> = a.iter().chain(b.iter()).cloned().collect();
            expect.sort_by_key(|r| r.0); // stable reference
            for threads in [1, 2, 4, 7] {
                let mut out = vec![(0u32, 0usize); na + nb];
                parallel_merge_into_by(&a, &b, &mut out, threads, &cmp);
                assert_eq!(out, expect, "na={na} nb={nb} threads={threads}");
            }
        }
    }

    #[test]
    fn chunked_kway_matches_reference() {
        let runs = runs_fixture(12, 1500, 3);
        let expect = reference(&runs);
        type Leaf = fn(&[&[u64]]) -> Vec<u64>;
        let leaves: [Leaf; 5] = [
            |s| binary_tree_merge(s),
            |s| tournament_merge(s),
            |s| heap_merge(s),
            |s| resort_merge(s),
            |s| funnel_merge(s),
        ];
        for leaf in leaves {
            assert_eq!(parallel_kway_chunked(&runs, 4, leaf), expect);
        }
        // Borrowed-slice runs (the RecvRuns shape) merge identically.
        let borrowed: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(
            parallel_kway_chunked(&borrowed, 4, tournament_merge),
            expect
        );
    }

    #[test]
    fn single_thread_falls_back() {
        let runs = runs_fixture(5, 100, 9);
        assert_eq!(
            parallel_kway_chunked(&runs, 1, tournament_merge),
            reference(&runs)
        );
    }
}
