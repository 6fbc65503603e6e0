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
use crate::kernels::{merge_typed, Kernels};

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

/// Two-way merge of sorted slices into an exactly-sized output window.
/// Stable: ties take from `a` first. The hot loop is written so the
/// take-from-a/take-from-b choice compiles to a conditional move — on
/// randomly interleaved runs a branchy merge mispredicts almost every
/// element, which would dominate the whole merge tree.
fn merge_two_into_slice<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (na, nb) = (a.len(), b.len());
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < na && j < nb {
        let take_b = b[j] < a[i];
        out[k] = if take_b { b[j] } else { a[i] };
        i += usize::from(!take_b);
        j += usize::from(take_b);
        k += 1;
    }
    out[k..k + (na - i)].copy_from_slice(&a[i..]);
    out[k + (na - i)..].copy_from_slice(&b[j..]);
}

/// Leaf merge of the flat tree: kernel core for native integer keys,
/// portable conditional-move merge otherwise.
fn merge_pair<T: Ord + Copy + 'static>(kernels: Kernels, a: &[T], b: &[T], out: &mut [T]) {
    if !merge_typed(kernels, a, b, out) {
        merge_two_into_slice(a, b, out);
    }
}

/// Allocation-free-per-level binary merge tree over sorted runs: all
/// runs are packed into one contiguous buffer, then adjacent pairs are
/// merged level by level between two ping-pong buffers. Every level
/// streams `n` elements sequentially — `O(n log k)` moves with exactly
/// two `n`-sized allocations — which makes it the fastest way to turn
/// the post-exchange `RecvRuns` into a sorted array even on a single
/// core (a re-sort pays `O(n log n)` compares; the per-node allocation
/// of the boxed merge engines pays the allocator per level).
///
/// Pair merges within a level write disjoint output windows, so with a
/// thread budget they run concurrently; the pairing is fixed (adjacent
/// runs), so the output is identical — and stable, ties resolving to
/// the lower-indexed run — for every budget.
pub fn flat_tree_merge<T, R>(runs: &[R], threads: usize) -> Vec<T>
where
    T: Ord + Copy + Send + Sync + 'static,
    R: AsRef<[T]> + Sync,
{
    flat_tree_merge_with(Kernels::scalar(), runs, threads)
}

/// [`flat_tree_merge`] with an explicit kernel backend: the pairwise
/// leaf merges route through the monomorphic two-way merge core for
/// native `u64`/`u32` elements (and fall back to the portable
/// conditional-move merge for every other `T`). Output is identical to
/// [`flat_tree_merge`] for every backend — merging equal `Copy` scalar
/// keys is unobservable — so callers may pick the backend on host-time
/// grounds alone.
pub fn flat_tree_merge_with<T, R>(kernels: Kernels, runs: &[R], threads: usize) -> Vec<T>
where
    T: Ord + Copy + Send + Sync + 'static,
    R: AsRef<[T]> + Sync,
{
    let slices: Vec<&[T]> = runs
        .iter()
        .map(|r| r.as_ref())
        .filter(|s| !s.is_empty())
        .collect();
    match slices.len() {
        0 => return Vec::new(),
        1 => return slices[0].to_vec(),
        _ => {}
    }
    let n: usize = slices.iter().map(|s| s.len()).sum();
    let mut src: Vec<T> = Vec::with_capacity(n);
    let mut bounds: Vec<usize> = Vec::with_capacity(slices.len() + 1);
    bounds.push(0);
    for s in &slices {
        src.extend_from_slice(s);
        bounds.push(src.len());
    }
    let mut dst = src.clone();
    while bounds.len() > 2 {
        let r = bounds.len() - 1; // number of runs at this level
        let mut new_bounds = Vec::with_capacity(r / 2 + 2);
        new_bounds.push(0);
        // Adjacent pairs [lo, mid, hi); a trailing odd run is copied.
        let mut jobs: Vec<(usize, usize, usize)> = Vec::with_capacity(r / 2);
        let mut i = 0;
        while i + 2 < bounds.len() {
            jobs.push((bounds[i], bounds[i + 1], bounds[i + 2]));
            new_bounds.push(bounds[i + 2]);
            i += 2;
        }
        if i + 1 < bounds.len() {
            new_bounds.push(bounds[i + 1]);
        }
        // Carve disjoint output windows, one per pair, in order.
        let mut tasks: Vec<(&[T], &[T], &mut [T])> = Vec::with_capacity(jobs.len());
        let mut rest: &mut [T] = &mut dst;
        let mut pos = 0;
        for &(lo, mid, hi) in &jobs {
            debug_assert_eq!(lo, pos);
            let (out, r2) = rest.split_at_mut(hi - lo);
            tasks.push((&src[lo..mid], &src[mid..hi], out));
            rest = r2;
            pos = hi;
        }
        if threads <= 1 {
            for (a, b, out) in tasks {
                merge_pair(kernels, a, b, out);
            }
        } else {
            map_parallel(threads, tasks, |(a, b, out)| merge_pair(kernels, a, b, out));
        }
        // The odd tail run rides along unmerged.
        rest.copy_from_slice(&src[pos..]);
        std::mem::swap(&mut src, &mut dst);
        bounds = new_bounds;
    }
    src
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
