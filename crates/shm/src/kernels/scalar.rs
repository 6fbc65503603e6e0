//! Portable scalar reference kernels — the determinism baseline every
//! SIMD backend must match byte for byte.
//!
//! The implementations here are deliberately branch-poor (branchless
//! binary search, conditional-move merge loop) so the scalar "A" side
//! of the `kernel_ab` wall-clock group is an honest baseline, but they
//! use no `std::arch` and compile on every target.

/// Branchless `(lower_bound, upper_bound)` of `needle` in `sorted`:
/// exactly `partition_point(|x| *x < needle)` and
/// `partition_point(|x| *x <= needle)`. The loop trip count depends
/// only on `sorted.len()`, which is what lets the AVX2 backend run
/// several needles in lockstep over the identical index arithmetic.
pub fn bounds_u64(sorted: &[u64], needle: u64) -> (usize, usize) {
    let (mut lo, mut hi) = (0usize, 0usize);
    let mut n = sorted.len();
    while n > 1 {
        let half = n / 2;
        // SAFETY: lo + n <= len and hi + n <= len are loop invariants,
        // so lo + half - 1 and hi + half - 1 are in bounds.
        let vl = unsafe { *sorted.get_unchecked(lo + half - 1) };
        let vh = unsafe { *sorted.get_unchecked(hi + half - 1) };
        lo += usize::from(vl < needle) * half;
        hi += usize::from(vh <= needle) * half;
        n -= half;
    }
    if n == 1 {
        lo += usize::from(sorted[lo] < needle);
        hi += usize::from(sorted[hi] <= needle);
    }
    (lo, hi)
}

/// `u32` twin of [`bounds_u64`].
pub fn bounds_u32(sorted: &[u32], needle: u32) -> (usize, usize) {
    let (mut lo, mut hi) = (0usize, 0usize);
    let mut n = sorted.len();
    while n > 1 {
        let half = n / 2;
        // SAFETY: lo + n <= len and hi + n <= len are loop invariants.
        let vl = unsafe { *sorted.get_unchecked(lo + half - 1) };
        let vh = unsafe { *sorted.get_unchecked(hi + half - 1) };
        lo += usize::from(vl < needle) * half;
        hi += usize::from(vh <= needle) * half;
        n -= half;
    }
    if n == 1 {
        lo += usize::from(sorted[lo] < needle);
        hi += usize::from(sorted[hi] <= needle);
    }
    (lo, hi)
}

/// One-pass classification against a flattened implicit search tree
/// (see `build_eytzinger_u64`): each key descends `height` levels with
/// the branchless rule `i -> 2i + 1 + (tree[i] <= key)`, landing on
/// its `upper_bound` rank in the padded ladder; ranks past the real
/// ladder are sentinel hits and clamp to `s`.
pub fn classify_u64(data: &[u64], tree: &[u64], height: u32, s: usize, counts: &mut [u64]) {
    let first_leaf = tree.len(); // == 2^height - 1
    for &x in data {
        let mut i = 0usize;
        for _ in 0..height {
            // SAFETY: i < tree.len() at every level of a complete tree.
            let node = unsafe { *tree.get_unchecked(i) };
            i = 2 * i + 1 + usize::from(node <= x);
        }
        let bucket = (i - first_leaf).min(s);
        counts[bucket] += 1;
    }
}

/// `u32` twin of [`classify_u64`].
pub fn classify_u32(data: &[u32], tree: &[u32], height: u32, s: usize, counts: &mut [u64]) {
    let first_leaf = tree.len();
    for &x in data {
        let mut i = 0usize;
        for _ in 0..height {
            // SAFETY: i < tree.len() at every level of a complete tree.
            let node = unsafe { *tree.get_unchecked(i) };
            i = 2 * i + 1 + usize::from(node <= x);
        }
        let bucket = (i - first_leaf).min(s);
        counts[bucket] += 1;
    }
}

/// Occupancy fold: `(OR, AND)` over all keys. A byte position is
/// constant across the input iff the two folds agree there.
fn occupancy_u64(data: &[u64]) -> (u64, u64) {
    let mut or = 0u64;
    let mut and = u64::MAX;
    for &x in data {
        or |= x;
        and &= x;
    }
    (or, and)
}

/// Monomorphic LSD radix sort for `u64`: occupancy pre-pass to find
/// the varying byte positions, one fused counting sweep for all live
/// passes (the per-pass tables total at most 16 KiB — cache-sized),
/// then a stable ping-pong scatter per live pass. Output equals
/// `sort_unstable`.
pub fn radix_sort_u64(data: &mut [u64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let (or, and) = occupancy_u64(data);
    let varying = or ^ and;
    let live: Vec<usize> = (0..8)
        .filter(|&p| (varying >> (8 * p)) & 0xFF != 0)
        .collect();
    if live.is_empty() {
        return;
    }
    // Fused counting: one read sweep fills every live pass's table.
    let mut hist = vec![[0u32; 256]; live.len()];
    for &x in data.iter() {
        for (h, &p) in hist.iter_mut().zip(&live) {
            h[((x >> (8 * p)) & 0xFF) as usize] += 1;
        }
    }
    let mut src: Vec<u64> = data.to_vec();
    let mut dst: Vec<u64> = vec![0; n];
    for (h, &p) in hist.iter().zip(&live) {
        let shift = 8 * p as u32;
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = acc;
            acc += c as usize;
        }
        for &x in src.iter() {
            let d = ((x >> shift) & 0xFF) as usize;
            // SAFETY: offsets[d] enumerates 0..n exactly once per pass.
            unsafe { *dst.get_unchecked_mut(offsets[d]) = x };
            offsets[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    data.copy_from_slice(&src);
}

/// `u32` twin of [`radix_sort_u64`].
pub fn radix_sort_u32(data: &mut [u32]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut or = 0u32;
    let mut and = u32::MAX;
    for &x in data.iter() {
        or |= x;
        and &= x;
    }
    let varying = or ^ and;
    let live: Vec<usize> = (0..4)
        .filter(|&p| (varying >> (8 * p)) & 0xFF != 0)
        .collect();
    if live.is_empty() {
        return;
    }
    let mut hist = vec![[0u32; 256]; live.len()];
    for &x in data.iter() {
        for (h, &p) in hist.iter_mut().zip(&live) {
            h[((x >> (8 * p)) & 0xFF) as usize] += 1;
        }
    }
    let mut src: Vec<u32> = data.to_vec();
    let mut dst: Vec<u32> = vec![0; n];
    for (h, &p) in hist.iter().zip(&live) {
        let shift = 8 * p as u32;
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = acc;
            acc += c as usize;
        }
        for &x in src.iter() {
            let d = ((x >> shift) & 0xFF) as usize;
            // SAFETY: offsets[d] enumerates 0..n exactly once per pass.
            unsafe { *dst.get_unchecked_mut(offsets[d]) = x };
            offsets[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    data.copy_from_slice(&src);
}

/// Two-way merge of sorted `a` and `b` into `out` (exactly
/// `a.len() + b.len()` long); ties take from `a` first, so the merge
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
