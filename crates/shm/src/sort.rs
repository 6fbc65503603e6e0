//! Shared-memory parallel sorts: the Fig. 4 comparators.
//!
//! * [`parallel_merge_sort`] — fork–join merge sort with a *parallel*
//!   merge step, the algorithm class of Intel Parallel STL / TBB
//!   `std::sort(par_unseq, ...)` that the paper benchmarks against.
//! * [`task_merge_sort`] — fork–join merge sort whose merge step is
//!   sequential at every join, mirroring the simpler OpenMP-task merge
//!   sort the paper includes "for reference".
//!
//! Two kernels added for hybrid rank×thread execution back the local
//! phases of the distributed sort:
//!
//! * [`parallel_merge_sort_by`] — **stable** comparator merge sort
//!   over `Clone` records; its output is element-for-element identical
//!   to `slice::sort_by` for every thread budget (fixed split points +
//!   stable parallel merges), which is what keeps
//!   `histogram_sort_by` byte-identical across `threads_per_rank`.
//! * [`radix_merge_sort_by_bits`] — splits the input into
//!   budget-determined halves, radix-sorts each with the caller's
//!   serial leaf, and stably merges by the projected bits; identical
//!   output to the leaf over the whole slice, and faster than
//!   comparison sorting even on one core.

use std::cmp::Ordering;

use crate::pmerge::parallel_merge_into_by;
use dhs_merge::merge_into;
use dhs_runtime::threads::join;

/// Below this size leaves fall back to `sort_unstable`.
const SORT_GRAIN: usize = 8192;

/// Parallel merge sort with parallel merging (TBB-like). Uses up to
/// `threads` threads and `O(n)` scratch.
pub fn parallel_merge_sort<T: Ord + Copy + Send + Sync>(data: &mut [T], threads: usize) {
    if data.len() <= SORT_GRAIN || threads <= 1 {
        data.sort_unstable();
        return;
    }
    let mut scratch = data.to_vec();
    msort(data, &mut scratch, threads, true);
}

/// Fork–join merge sort with sequential merges (OpenMP-task-like).
pub fn task_merge_sort<T: Ord + Copy + Send + Sync>(data: &mut [T], threads: usize) {
    if data.len() <= SORT_GRAIN || threads <= 1 {
        data.sort_unstable();
        return;
    }
    let mut scratch = data.to_vec();
    msort(data, &mut scratch, threads, false);
}

/// Recursive step: sort `data`, using `scratch` of equal length.
fn msort<T: Ord + Copy + Send + Sync>(
    data: &mut [T],
    scratch: &mut [T],
    threads: usize,
    parallel_merge: bool,
) {
    debug_assert_eq!(data.len(), scratch.len());
    if data.len() <= SORT_GRAIN || threads <= 1 {
        data.sort_unstable();
        return;
    }
    let mid = data.len() / 2;
    let (d_lo, d_hi) = data.split_at_mut(mid);
    let (s_lo, s_hi) = scratch.split_at_mut(mid);
    join(
        threads,
        |t| msort(d_lo, s_lo, t, parallel_merge),
        |t| msort(d_hi, s_hi, t, parallel_merge),
    );
    if parallel_merge {
        parallel_merge_into_by(&data[..mid], &data[mid..], scratch, threads, &T::cmp);
    } else {
        merge_into(&data[..mid], &data[mid..], scratch, &T::cmp);
    }
    data.copy_from_slice(scratch);
}

/// **Stable** parallel merge sort under an explicit comparator, for
/// `Clone` records (the `histogram_sort_by` payload path). Produces
/// exactly the `slice::sort_by` (stable) order for every thread
/// budget: leaves use the standard stable sort, halves are merged with
/// the stable [`parallel_merge_into_by`], and all split points depend
/// only on the data.
pub fn parallel_merge_sort_by<T, F>(data: &mut [T], threads: usize, cmp: &F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if data.len() <= SORT_GRAIN || threads <= 1 {
        data.sort_by(|a, b| cmp(a, b));
        return;
    }
    let mut scratch = data.to_vec();
    msort_by(data, &mut scratch, threads, cmp);
}

/// Recursive step of [`parallel_merge_sort_by`].
fn msort_by<T, F>(data: &mut [T], scratch: &mut [T], threads: usize, cmp: &F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    debug_assert_eq!(data.len(), scratch.len());
    if data.len() <= SORT_GRAIN || threads <= 1 {
        data.sort_by(|a, b| cmp(a, b));
        return;
    }
    let mid = data.len() / 2;
    let (d_lo, d_hi) = data.split_at_mut(mid);
    let (s_lo, s_hi) = scratch.split_at_mut(mid);
    join(
        threads,
        |t| msort_by(d_lo, s_lo, t, cmp),
        |t| msort_by(d_hi, s_hi, t, cmp),
    );
    parallel_merge_into_by(&data[..mid], &data[mid..], scratch, threads, cmp);
    data.clone_from_slice(scratch);
}

/// Hybrid radix + merge sort: split the input into budget-determined
/// halves, sort each with the serial radix `leaf`, and stably merge by
/// the projected bits. `leaf` must sort stably by `bits` — the generic
/// [`crate::radix_sort_by_bits`] under the same projection, or a
/// monomorphic kernel ([`crate::radix_sort_u64`]) for element types
/// that are their own image. For every thread budget the output is
/// then byte-identical to `leaf` over the whole slice. This is the
/// kernel behind the hybrid local-sort dispatch of the distributed
/// sort: on a multi-core host the halves sort concurrently, and even
/// serially the radix leaves beat a comparison sort on integer-like
/// keys.
pub fn radix_merge_sort_by_bits<T, F, L>(data: &mut [T], threads: usize, bits: &F, leaf: &L)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u128 + Sync,
    L: Fn(&mut [T]) + Sync,
{
    if threads <= 1 || data.len() <= SORT_GRAIN {
        leaf(data);
        return;
    }
    let mid = data.len() / 2;
    {
        let (lo, hi) = data.split_at_mut(mid);
        join(
            threads,
            |t| radix_merge_sort_by_bits(lo, t, bits, leaf),
            |t| radix_merge_sort_by_bits(hi, t, bits, leaf),
        );
    }
    let mut scratch = data.to_vec();
    let cmp = |x: &T, y: &T| bits(x).cmp(&bits(y));
    parallel_merge_into_by(&data[..mid], &data[mid..], &mut scratch, threads, &cmp);
    data.copy_from_slice(&scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::{radix_sort_by_bits, radix_sort_u64};

    fn noise(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    fn check_sorter(f: impl Fn(&mut [u64], usize)) {
        for (n, t) in [
            (0usize, 4),
            (1, 4),
            (100, 4),
            (50_000, 1),
            (50_000, 4),
            (50_000, 7),
        ] {
            let mut v = noise(n, (n + t) as u64);
            let mut expect = v.clone();
            expect.sort_unstable();
            f(&mut v, t);
            assert_eq!(v, expect, "n={n} t={t}");
        }
        // Adversarial patterns.
        for pattern in [
            (0..40_000u64).collect::<Vec<_>>(),
            (0..40_000u64).rev().collect::<Vec<_>>(),
            vec![5u64; 40_000],
        ] {
            let mut v = pattern.clone();
            let mut expect = pattern;
            expect.sort_unstable();
            f(&mut v, 4);
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn parallel_merge_sort_correct() {
        check_sorter(parallel_merge_sort);
    }

    #[test]
    fn task_merge_sort_correct() {
        check_sorter(task_merge_sort);
    }

    /// `parallel_merge_sort_by` must reproduce the *stable* std sort
    /// exactly, for every thread budget — the invariant that keeps
    /// `histogram_sort_by` byte-identical across `threads_per_rank`.
    #[test]
    fn merge_sort_by_matches_stable_sort() {
        let mk = |n: usize| -> Vec<(u32, usize)> {
            noise(n, n as u64 + 3)
                .into_iter()
                .enumerate()
                .map(|(i, x)| ((x % 37) as u32, i))
                .collect()
        };
        let cmp = |a: &(u32, usize), b: &(u32, usize)| a.0.cmp(&b.0);
        for (n, t) in [
            (0usize, 4),
            (1, 4),
            (100, 4),
            (60_000, 1),
            (60_000, 4),
            (60_000, 7),
        ] {
            let mut v = mk(n);
            let mut expect = v.clone();
            expect.sort_by(cmp); // stable reference
            parallel_merge_sort_by(&mut v, t, &cmp);
            assert_eq!(v, expect, "n={n} t={t}");
        }
    }

    /// The hybrid radix kernel must be byte-identical to the serial
    /// radix sort (both stable over the projection), for every budget.
    #[test]
    fn radix_merge_sort_matches_serial_radix() {
        // Pairs sorted by the first component only: stability over the
        // projection is observable through the second component.
        let mut base: Vec<(u16, u32)> = noise(50_000, 17)
            .into_iter()
            .enumerate()
            .map(|(i, x)| ((x % 97) as u16, i as u32))
            .collect();
        let mut expect = base.clone();
        radix_sort_by_bits(&mut expect, |&(k, _)| k as u128, 16);
        for t in [1usize, 2, 4, 6] {
            let mut v = base.clone();
            let bits = |&(k, _): &(u16, u32)| k as u128;
            radix_merge_sort_by_bits(&mut v, t, &bits, &|d: &mut [(u16, u32)]| {
                radix_sort_by_bits(d, bits, 16)
            });
            assert_eq!(v, expect, "t={t}");
        }
        // Plain u64 keys over the monomorphic leaf, against the
        // comparison reference.
        base.truncate(0);
        let mut v = noise(80_000, 23);
        let mut want = v.clone();
        want.sort_unstable();
        radix_merge_sort_by_bits(&mut v, 4, &|&x: &u64| x as u128, &radix_sort_u64);
        assert_eq!(v, want);
    }
}
