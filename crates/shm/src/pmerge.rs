//! Parallel merging: the two-way parallel merge used inside the task
//! merge sort, and the parallel k-way schemes of the §VI-E2 study.
//!
//! Since the hybrid rank×thread work these kernels also back the
//! post-exchange merge of the distributed sort, which imposes two
//! extra requirements honoured throughout this module:
//!
//! * **Comparator-generic and stable** — the `_by` variants accept any
//!   comparator over `Clone` records and keep equal elements in run
//!   order (left run first), so a parallel merge of sorted runs equals
//!   a *stable* serial sort of their concatenation, element for
//!   element.
//! * **`AsRef<[T]>` run inputs** — runs can be `Vec<T>`, `&[T]`, or
//!   the borrowed slices of a `dhs_runtime::RecvRuns` receive buffer,
//!   merged in place without materializing owned copies.
//!
//! All split points are data-deterministic (midpoint of the larger
//! side + binary-searched partner cut), so output never depends on the
//! thread budget.

use std::cmp::Ordering;

use dhs_merge::{
    kway_merge, lower_bound_by, merge_two_by_into, merge_two_into, upper_bound_by, MergeAlgo,
};

use crate::fork::{join, map_parallel};

/// Sequential-work threshold below which parallel merge recursion stops.
const MERGE_GRAIN: usize = 4096;

/// Merge sorted `a` and `b` into `out` (exactly `a.len() + b.len()`
/// long) using up to `threads` threads. The classic scheme: split the
/// larger input at its midpoint, binary-search the partner, and merge
/// the two halves into disjoint output windows in parallel.
pub fn parallel_merge_into<T: Ord + Copy + Send + Sync>(
    a: &[T],
    b: &[T],
    out: &mut [T],
    threads: usize,
) {
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "output window must fit both inputs exactly"
    );
    if threads <= 1 || a.len() + b.len() <= MERGE_GRAIN {
        let mut tmp = Vec::new();
        merge_two_into(a, b, &mut tmp);
        out.copy_from_slice(&tmp);
        return;
    }
    // Ensure `a` is the larger side. Equal keys of `Ord + Copy` inputs
    // are indistinguishable, so the side swap cannot be observed; the
    // stability-preserving variant is `parallel_merge_into_by`.
    let (a, b) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if a.is_empty() {
        return;
    }
    let mid = a.len() / 2;
    let pivot = &a[mid];
    let cut = dhs_merge::lower_bound(b, pivot);
    let (out_lo, out_hi) = out.split_at_mut(mid + cut);
    join(
        threads,
        |t| parallel_merge_into(&a[..mid], &b[..cut], out_lo, t),
        |t| parallel_merge_into(&a[mid..], &b[cut..], out_hi, t),
    );
}

/// Comparator-generic **stable** parallel merge: `a` is the left run,
/// `b` the right run, and ties always resolve left-run-first, exactly
/// like a stable serial merge. Works on `Clone` records, so it backs
/// the `histogram_sort_by` payload path.
///
/// The split keeps stability by choosing the cut bound from the side
/// being split: splitting the left run cuts the right run at its
/// `lower_bound` (equal right-run elements stay right of the pivot);
/// splitting the right run cuts the left run at its `upper_bound`
/// (equal left-run elements stay left of the pivot).
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
        let mut tmp = Vec::new();
        merge_two_by_into(a, b, &mut tmp, cmp);
        out.clone_from_slice(&tmp);
        return;
    }
    if a.len() >= b.len() {
        let mid = a.len() / 2;
        let cut = lower_bound_by(b, &a[mid], cmp);
        let (out_lo, out_hi) = out.split_at_mut(mid + cut);
        join(
            threads,
            |t| parallel_merge_into_by(&a[..mid], &b[..cut], out_lo, t, cmp),
            |t| parallel_merge_into_by(&a[mid..], &b[cut..], out_hi, t, cmp),
        );
    } else {
        let mid = b.len() / 2;
        let cut = upper_bound_by(a, &b[mid], cmp);
        let (out_lo, out_hi) = out.split_at_mut(cut + mid);
        join(
            threads,
            |t| parallel_merge_into_by(&a[..cut], &b[..mid], out_lo, t, cmp),
            |t| parallel_merge_into_by(&a[cut..], &b[mid..], out_hi, t, cmp),
        );
    }
}

/// Parallel binary merge tree over `k` runs: every level merges all
/// pairs concurrently ("all pairwise merges can be performed in
/// parallel", §V-C). Intra-pair merging is sequential, mirroring the
/// paper's OpenMP-task implementation. Runs may be any `AsRef<[T]>`
/// (owned vectors or borrowed receive-buffer slices).
pub fn parallel_binary_tree_merge<T, R>(runs: &[R], threads: usize) -> Vec<T>
where
    T: Ord + Copy + Send + Sync,
    R: AsRef<[T]> + Sync,
{
    parallel_binary_tree_merge_by(runs, threads, &|x: &T, y: &T| x.cmp(y))
}

/// Comparator-generic, **stable** [`parallel_binary_tree_merge`]: the
/// result equals a stable sort of the runs' concatenation (runs are
/// kept in order, every pairwise merge prefers the left run on ties).
pub fn parallel_binary_tree_merge_by<T, R, F>(runs: &[R], threads: usize, cmp: &F) -> Vec<T>
where
    T: Clone + Send + Sync,
    R: AsRef<[T]> + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    // Leaf level: stable pairwise merges of the (borrowed) input
    // slices, all pairs in parallel. Dropping empty runs preserves the
    // concatenation order of the rest.
    let slices: Vec<&[T]> = runs
        .iter()
        .map(|r| r.as_ref())
        .filter(|s| !s.is_empty())
        .collect();
    if slices.is_empty() {
        return Vec::new();
    }
    let mut level: Vec<Vec<T>> = {
        let pairs: Vec<&[&[T]]> = slices.chunks(2).collect();
        map_parallel(threads, pairs, |pair| match pair {
            [a, b] => {
                let mut out = Vec::new();
                merge_two_by_into(a, b, &mut out, cmp);
                out
            }
            [a] => a.to_vec(),
            _ => unreachable!("chunks(2) yields 1- or 2-element windows"),
        })
    };
    // Upper levels: keep halving, the odd run riding along as the tail
    // so run order (and with it stability) is preserved.
    while level.len() > 1 {
        let mut pairs: Vec<(Vec<T>, Vec<T>)> = Vec::with_capacity(level.len() / 2);
        let mut odd: Option<Vec<T>> = None;
        let mut it = level.drain(..);
        loop {
            match (it.next(), it.next()) {
                (Some(a), Some(b)) => pairs.push((a, b)),
                (Some(a), None) => {
                    odd = Some(a);
                    break;
                }
                _ => break,
            }
        }
        drop(it);
        let mut next = map_parallel(threads, pairs, |(a, b)| {
            let mut out = Vec::new();
            merge_two_by_into(&a, &b, &mut out, cmp);
            out
        });
        if let Some(a) = odd {
            next.push(a);
        }
        level = next;
    }
    level.pop().expect("one run remains")
}

/// Parallel k-way merge by *input chunking*: the runs are divided among
/// threads, each thread k/t-way-merges its share with `leaf_algo` (the
/// parallel leaf merges feeding the tournament tree when `leaf_algo`
/// is [`MergeAlgo::TournamentTree`]), and the per-thread results are
/// combined with a parallel binary tree. Runs may be any `AsRef<[T]>`;
/// the chunking shares borrowed slices, so `RecvRuns` buffers are
/// merged without copying the inputs first.
pub fn parallel_kway_chunked<T, R>(runs: &[R], threads: usize, leaf_algo: MergeAlgo) -> Vec<T>
where
    T: Ord + Copy + Send + Sync,
    R: AsRef<[T]> + Sync,
{
    let slices: Vec<&[T]> = runs.iter().map(|r| r.as_ref()).collect();
    let t = threads.max(1).min(slices.len().max(1));
    if t <= 1 {
        return kway_merge(leaf_algo, &slices);
    }
    let per = slices.len().div_ceil(t);
    let shares: Vec<&[&[T]]> = slices.chunks(per).collect();
    let partials = map_parallel(t, shares, |share| kway_merge(leaf_algo, share));
    parallel_binary_tree_merge(&partials, threads)
}

/// Two-way merge of sorted `a` and `b` into `out` (exactly
/// `a.len() + b.len()` long), the leaf of the run-merge tree
/// ([`merge_runs_in_place`]); ties take from `a` first, so the merge
/// is stable for element types whose `Ord` ignores part of the value.
///
/// **Two-ended and branch-free.** A one-ended conditional-move merge
/// is one serial dependency chain — each load address waits for the
/// previous compare — so it runs at load-to-use latency, not
/// throughput. The first `min(|a|, |b|)` steps therefore emit the
/// smallest remaining element at the front of `out` *and* the largest
/// at the back, two chains that share nothing and overlap in the
/// pipeline; the one-ended loop finishes whatever middle is left
/// (`||a| − |b||` elements, nothing for the equal halves a merge tree
/// over balanced runs produces).
///
/// Why the two ends never collide: the stable merge assigns every
/// input element one output position. After `s` steps the front has
/// consumed exactly the elements of positions `0..s` and the back
/// those of `n − s..n`; `2·steps ≤ n` (because `min(|a|, |b|) ≤
/// (|a| + |b|) / 2`) keeps the two position sets — hence the two
/// consumed element sets — disjoint. The back breaks ties towards `b`
/// (equal elements of `a` sort *before* those of `b`, so from the back
/// `b`'s go first), which is the same total order the front uses.
/// `steps ≤ min(|a|, |b|)` keeps every cursor read in bounds: in step
/// `s` the front cursors are `≤ s < steps` and the back cursors are
/// `≥ len − s ≥ 1`. A cursor may *read* an element the other end
/// already consumed (the compare needs an operand); it never takes it.
pub fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    let (na, nb, n) = (a.len(), b.len(), out.len());
    assert_eq!(na + nb, n, "output window must fit both inputs");
    let steps = na.min(nb);
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    let (mut ie, mut je, mut ke) = (na, nb, n);
    for _ in 0..steps {
        let (x, y) = (a[i], b[j]);
        let take_b = y < x;
        out[k] = if take_b { y } else { x };
        i += usize::from(!take_b);
        j += usize::from(take_b);
        k += 1;

        let (x, y) = (a[ie - 1], b[je - 1]);
        let take_a = y < x;
        ke -= 1;
        out[ke] = if take_a { x } else { y };
        ie -= usize::from(take_a);
        je -= usize::from(!take_a);
    }
    debug_assert!(i <= ie && j <= je && (ie - i) + (je - j) == ke - k);
    // The middle: one-ended conditional-move merge of what is left.
    while i < ie && j < je {
        let (x, y) = (a[i], b[j]);
        let take_b = y < x;
        out[k] = if take_b { y } else { x };
        i += usize::from(!take_b);
        j += usize::from(take_b);
        k += 1;
    }
    out[k..k + (ie - i)].copy_from_slice(&a[i..ie]);
    out[k + (ie - i)..ke].copy_from_slice(&b[j..je]);
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
/// `counts[i]` long — the `RecvRuns` layout after an exchange):
/// [`merge_runs_in_place`] where [`run_merge_beats_resort`] says the
/// tree is cheaper, `sort_unstable` otherwise. Both give the unique
/// ascending permutation, so the choice is invisible in the output.
///
/// # Panics
/// Panics when `counts` does not sum to `flat.len()`.
pub fn merge_sorted_runs<T>(
    flat: &mut [T],
    counts: Vec<usize>,
    scratch: &mut Vec<T>,
    threads: usize,
) where
    T: Ord + Copy + Send + Sync,
{
    let ends = run_ends(counts, flat.len());
    if run_merge_beats_resort(ends.len(), flat.len()) {
        merge_tree(flat, ends, scratch, threads);
    } else {
        flat.sort_unstable();
    }
}

/// Turn per-run `counts` into the end offsets of the non-empty runs,
/// in place: run `i` is `flat[ends[i - 1]..ends[i]]` (from 0 for
/// `i = 0`), empty runs drop out.
fn run_ends(counts: Vec<usize>, n: usize) -> Vec<usize> {
    let mut ends = counts;
    let mut end = 0;
    ends.retain_mut(|c| {
        end += *c;
        let keep = *c > 0;
        *c = end;
        keep
    });
    assert_eq!(end, n, "counts must cover the buffer exactly");
    ends
}

/// Binary merge tree over the sorted runs of `flat`, ping-ponging
/// between `flat` and `scratch` with no further buffer: every level
/// merges adjacent run pairs of one buffer into the same windows of
/// the other (a trailing odd run is copied across) and streams all `n`
/// elements once — `O(n log k)` moves against the `O(n log n)`
/// compares of a re-sort, which is why it is the fastest way to turn
/// the post-exchange receive buffer into a sorted array even on one
/// core.
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
/// each level in place). With fewer than two non-empty runs `flat` is
/// already sorted and neither buffer is touched.
///
/// Pair merges within a level work on disjoint windows, so with a
/// thread budget they run concurrently; the pairing is fixed (adjacent
/// runs), so the output is identical — and stable, ties resolving to
/// the lower-indexed run — for every budget.
///
/// # Panics
/// Panics when `counts` does not sum to `flat.len()`.
pub fn merge_runs_in_place<T>(
    flat: &mut [T],
    counts: Vec<usize>,
    scratch: &mut Vec<T>,
    threads: usize,
) where
    T: Ord + Copy + Send + Sync,
{
    let ends = run_ends(counts, flat.len());
    merge_tree(flat, ends, scratch, threads);
}

/// [`merge_runs_in_place`] over the run ends [`run_ends`] produced.
fn merge_tree<T>(flat: &mut [T], mut ends: Vec<usize>, scratch: &mut Vec<T>, threads: usize)
where
    T: Ord + Copy + Send + Sync,
{
    if ends.len() < 2 {
        return;
    }
    let n = flat.len();
    scratch.truncate(n);
    scratch.resize(n, flat[0]);
    let (mut src, mut dst) = (flat, &mut scratch[..]);
    let levels = ends.len().next_power_of_two().trailing_zeros();
    if levels % 2 == 1 {
        merge_level(src, dst, &mut ends, threads, true);
    }
    while ends.len() > 1 {
        merge_level(src, dst, &mut ends, threads, false);
        std::mem::swap(&mut src, &mut dst);
    }
}

/// One level of [`merge_tree`]: merge runs `2q` and `2q + 1`
/// of `src` and halve `ends` in place. Plain levels merge into the
/// same window of `dst` and carry a trailing odd run across unmerged;
/// a `staged` level leaves its result in `src` (see [`merge_window`]).
fn merge_level<T>(src: &mut [T], dst: &mut [T], ends: &mut Vec<usize>, threads: usize, staged: bool)
where
    T: Ord + Copy + Send + Sync,
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
            merge_window(s, d, mid, staged);
        }
    } else {
        let tasks: Vec<_> = (0..pairs).map(next_window).collect();
        map_parallel(threads, tasks, |(s, d, mid)| {
            merge_window(s, d, mid, staged)
        });
    }
    if !staged {
        dst_tail.copy_from_slice(src_tail);
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
fn merge_window<'a, T>(mut src: &'a mut [T], mut dst: &'a mut [T], mid: usize, staged: bool)
where
    T: Ord + Copy,
{
    if staged {
        dst.copy_from_slice(src);
        std::mem::swap(&mut src, &mut dst);
    }
    let (a, b) = src.split_at(mid);
    merge_into(a, b, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

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
        parallel_merge_into(&runs[0], &runs[1], &mut out, 4);
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_merge_uneven_sides() {
        let a: Vec<u64> = (0..10_000).map(|x| x * 3).collect();
        let b: Vec<u64> = (0..100).map(|x| x * 7 + 1).collect();
        let mut out = vec![0u64; a.len() + b.len()];
        parallel_merge_into(&a, &b, &mut out, 8);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.len(), 10_100);
    }

    #[test]
    fn parallel_merge_empty_side() {
        let a: Vec<u64> = (0..5000).collect();
        let mut out = vec![0u64; 5000];
        parallel_merge_into(&a, &[], &mut out, 4);
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
    fn tree_merge_matches_reference() {
        for k in [1usize, 2, 7, 16] {
            let runs = runs_fixture(k, 2000, k as u64);
            assert_eq!(
                parallel_binary_tree_merge(&runs, 4),
                reference(&runs),
                "k={k}"
            );
        }
    }

    #[test]
    fn tree_merge_by_is_stable_across_runs() {
        // Three runs of duplicate-heavy keyed records; the stable tree
        // merge must equal the stable sort of the concatenation.
        let runs: Vec<Vec<(u32, usize)>> = (0..5)
            .map(|run| {
                let mut v: Vec<(u32, usize)> = (0..1500)
                    .map(|i| (((run * 7 + i * 13) % 11) as u32, run * 10_000 + i))
                    .collect();
                v.sort_by_key(|r| r.0);
                v
            })
            .collect();
        let mut expect: Vec<(u32, usize)> = runs.iter().flatten().cloned().collect();
        expect.sort_by_key(|r| r.0);
        for threads in [1, 3, 4] {
            let got = parallel_binary_tree_merge_by(&runs, threads, &|a, b| a.0.cmp(&b.0));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn tree_merge_accepts_borrowed_runs() {
        let runs = runs_fixture(6, 800, 11);
        let borrowed: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(parallel_binary_tree_merge(&borrowed, 4), reference(&runs));
    }

    #[test]
    fn chunked_kway_matches_reference() {
        let runs = runs_fixture(12, 1500, 3);
        let expect = reference(&runs);
        for algo in MergeAlgo::ALL {
            assert_eq!(parallel_kway_chunked(&runs, 4, algo), expect, "{algo:?}");
        }
        // Borrowed-slice runs (the RecvRuns shape) merge identically.
        let borrowed: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(
            parallel_kway_chunked(&borrowed, 4, MergeAlgo::TournamentTree),
            expect
        );
    }

    #[test]
    fn single_thread_falls_back() {
        let runs = runs_fixture(5, 100, 9);
        assert_eq!(
            parallel_kway_chunked(&runs, 1, MergeAlgo::TournamentTree),
            reference(&runs)
        );
    }
}
