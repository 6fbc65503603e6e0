//! The two-way merge: the one leaf every binary merge in the workspace
//! runs — the run-merge tree of `dhs-shm`, its parallel merges, the
//! [`crate::binary_tree_merge`] study engine and bitonic's
//! compare-split.

use std::cmp::Ordering;

/// Merge sorted `a` and `b` into `out` (exactly `a.len() + b.len()`
/// long) under `cmp`. Stable: ties take from `a` first, so merging a
/// left run with a right run keeps the concatenation order of equal
/// elements — the merge of two sorted runs equals a stable sort of
/// their concatenation.
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
///
/// # Panics
/// Panics when `out` is not exactly `a.len() + b.len()` long.
pub fn merge_into<T, F>(a: &[T], b: &[T], out: &mut [T], cmp: &F)
where
    T: Clone,
    F: Fn(&T, &T) -> Ordering,
{
    let (na, nb, n) = (a.len(), b.len(), out.len());
    assert_eq!(na + nb, n, "output window must fit both inputs");
    let steps = na.min(nb);
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    let (mut ie, mut je, mut ke) = (na, nb, n);
    for _ in 0..steps {
        let (x, y) = (&a[i], &b[j]);
        let take_b = cmp(y, x) == Ordering::Less;
        out[k] = if take_b { y } else { x }.clone();
        i += usize::from(!take_b);
        j += usize::from(take_b);
        k += 1;

        let (x, y) = (&a[ie - 1], &b[je - 1]);
        let take_a = cmp(y, x) == Ordering::Less;
        ke -= 1;
        out[ke] = if take_a { x } else { y }.clone();
        ie -= usize::from(take_a);
        je -= usize::from(!take_a);
    }
    debug_assert!(i <= ie && j <= je && (ie - i) + (je - j) == ke - k);
    // The middle: one-ended conditional-move merge of what is left.
    while i < ie && j < je {
        let (x, y) = (&a[i], &b[j]);
        let take_b = cmp(y, x) == Ordering::Less;
        out[k] = if take_b { y } else { x }.clone();
        i += usize::from(!take_b);
        j += usize::from(take_b);
        k += 1;
    }
    out[k..k + (ie - i)].clone_from_slice(&a[i..ie]);
    out[k + (ie - i)..ke].clone_from_slice(&b[j..je]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged<T: Clone + Default>(a: &[T], b: &[T], cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
        let mut out = vec![T::default(); a.len() + b.len()];
        merge_into(a, b, &mut out, &cmp);
        out
    }

    #[test]
    fn merges_interleaved() {
        assert_eq!(
            merged(&[1, 3, 5], &[2, 4, 6], i32::cmp),
            vec![1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn handles_empty_sides() {
        assert_eq!(merged::<u64>(&[], &[], u64::cmp), Vec::<u64>::new());
        assert_eq!(merged(&[1, 2], &[], u64::cmp), vec![1, 2]);
        assert_eq!(merged(&[], &[1, 2], u64::cmp), vec![1, 2]);
    }

    #[test]
    fn ties_take_the_left_run_first_from_both_ends() {
        let by_key = |x: &(i32, char), y: &(i32, char)| x.0.cmp(&y.0);
        let a = [(1, 'a'), (2, 'a'), (2, 'a')];
        let b = [(1, 'b'), (2, 'b')];
        assert_eq!(
            merged(&a, &b, by_key),
            vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'a'), (2, 'b')]
        );
    }

    #[test]
    #[should_panic(expected = "output window must fit both inputs")]
    fn rejects_a_misfit_window() {
        merge_into(&[1u64], &[2], &mut [0u64; 3], &u64::cmp);
    }
}
