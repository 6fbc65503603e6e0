//! AVX2 backend. Every function here is `unsafe` + `#[target_feature
//! (enable = "avx2")]` and is only reached through a [`super::Kernels`]
//! handle whose backend was set after `is_x86_feature_detected!`
//! confirmed AVX2 — the sole safety requirement of every call.
//!
//! Outputs are byte-identical to `super::scalar` by construction: the
//! searches run the *same* branchless index arithmetic (the trip count
//! of a branchless binary search depends only on the slice length, so
//! four/eight needles advance in lockstep) and sorting integers has a
//! unique result.
//!
//! AVX2 has no unsigned 64/32-bit compare; where needed, operands are
//! XOR-flipped at the sign bit and compared signed (`x ^ 1<<63`
//! preserves unsigned order as signed order).

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

/// Lockstep branchless `(lower_bound, upper_bound)` of four `u64`
/// needles in `sorted` — the same index recurrence as
/// [`super::scalar::bounds_u64`], with the two probe loads per
/// needle-set issued as gathers so the four dependent miss chains
/// overlap.
#[target_feature(enable = "avx2")]
pub unsafe fn bounds4_u64(sorted: &[u64], needles: [u64; 4]) -> ([usize; 4], [usize; 4]) {
    let flip = _mm256_set1_epi64x(i64::MIN);
    let nd = _mm256_loadu_si256(needles.as_ptr().cast());
    let nd_f = _mm256_xor_si256(nd, flip);
    let mut lo = _mm256_setzero_si256();
    let mut hi = _mm256_setzero_si256();
    let base = sorted.as_ptr().cast::<i64>();
    let mut n = sorted.len();
    while n > 1 {
        let half = n / 2;
        let off = _mm256_set1_epi64x((half - 1) as i64);
        // Invariant: lane + n <= sorted.len(), so lane + half - 1 is
        // always in bounds for both gathers.
        let vl = _mm256_i64gather_epi64::<8>(base, _mm256_add_epi64(lo, off));
        let vh = _mm256_i64gather_epi64::<8>(base, _mm256_add_epi64(hi, off));
        let lt = _mm256_cmpgt_epi64(nd_f, _mm256_xor_si256(vl, flip)); // v < needle
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(vh, flip), nd_f); // v > needle
        let halfv = _mm256_set1_epi64x(half as i64);
        lo = _mm256_add_epi64(lo, _mm256_and_si256(lt, halfv));
        hi = _mm256_add_epi64(hi, _mm256_andnot_si256(gt, halfv)); // v <= needle
        n -= half;
    }
    if n == 1 {
        let one = _mm256_set1_epi64x(1);
        let vl = _mm256_i64gather_epi64::<8>(base, lo);
        let vh = _mm256_i64gather_epi64::<8>(base, hi);
        let lt = _mm256_cmpgt_epi64(nd_f, _mm256_xor_si256(vl, flip));
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(vh, flip), nd_f);
        lo = _mm256_add_epi64(lo, _mm256_and_si256(lt, one));
        hi = _mm256_add_epi64(hi, _mm256_andnot_si256(gt, one));
    }
    let mut lo_out = [0i64; 4];
    let mut hi_out = [0i64; 4];
    _mm256_storeu_si256(lo_out.as_mut_ptr().cast(), lo);
    _mm256_storeu_si256(hi_out.as_mut_ptr().cast(), hi);
    (lo_out.map(|v| v as usize), hi_out.map(|v| v as usize))
}

/// Eight-needle `u32` twin of [`bounds4_u64`]. Indices ride in 32-bit
/// lanes; the dispatch layer never routes slices longer than
/// `i32::MAX` here.
#[target_feature(enable = "avx2")]
pub unsafe fn bounds8_u32(sorted: &[u32], needles: [u32; 8]) -> ([usize; 8], [usize; 8]) {
    debug_assert!(sorted.len() <= i32::MAX as usize);
    let flip = _mm256_set1_epi32(i32::MIN);
    let nd = _mm256_loadu_si256(needles.as_ptr().cast());
    let nd_f = _mm256_xor_si256(nd, flip);
    let mut lo = _mm256_setzero_si256();
    let mut hi = _mm256_setzero_si256();
    let base = sorted.as_ptr().cast::<i32>();
    let mut n = sorted.len();
    while n > 1 {
        let half = n / 2;
        let off = _mm256_set1_epi32((half - 1) as i32);
        let vl = _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(lo, off));
        let vh = _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(hi, off));
        let lt = _mm256_cmpgt_epi32(nd_f, _mm256_xor_si256(vl, flip));
        let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(vh, flip), nd_f);
        let halfv = _mm256_set1_epi32(half as i32);
        lo = _mm256_add_epi32(lo, _mm256_and_si256(lt, halfv));
        hi = _mm256_add_epi32(hi, _mm256_andnot_si256(gt, halfv));
        n -= half;
    }
    if n == 1 {
        let one = _mm256_set1_epi32(1);
        let vl = _mm256_i32gather_epi32::<4>(base, lo);
        let vh = _mm256_i32gather_epi32::<4>(base, hi);
        let lt = _mm256_cmpgt_epi32(nd_f, _mm256_xor_si256(vl, flip));
        let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(vh, flip), nd_f);
        lo = _mm256_add_epi32(lo, _mm256_and_si256(lt, one));
        hi = _mm256_add_epi32(hi, _mm256_andnot_si256(gt, one));
    }
    let mut lo_out = [0i32; 8];
    let mut hi_out = [0i32; 8];
    _mm256_storeu_si256(lo_out.as_mut_ptr().cast(), lo);
    _mm256_storeu_si256(hi_out.as_mut_ptr().cast(), hi);
    (lo_out.map(|v| v as usize), hi_out.map(|v| v as usize))
}

/// One tree-descent step for a vector of 4 `u64` node indices:
/// `i = 2i + 1 + (tree[i] <= x)`. `gt` is -1 when `node > x`, so
/// `1 + gt` is exactly the `(node <= x)` indicator.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn descend4_u64(base: *const i64, i: __m256i, x_f: __m256i, flip: __m256i) -> __m256i {
    let one = _mm256_set1_epi64x(1);
    let node = _mm256_i64gather_epi64::<8>(base, i);
    let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(node, flip), x_f); // node > x
    _mm256_add_epi64(
        _mm256_add_epi64(_mm256_add_epi64(i, i), one),
        _mm256_add_epi64(one, gt),
    )
}

/// Bucket-count the leaf indices of one 4-lane descent.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tally4_u64(i: __m256i, first_leaf: usize, s: usize, counts: &mut [u64]) {
    let mut idx = [0i64; 4];
    _mm256_storeu_si256(idx.as_mut_ptr().cast(), i);
    for v in idx {
        counts[(v as usize - first_leaf).min(s)] += 1;
    }
}

/// Keys descend the flattened search tree in lockstep, **16 at a time**
/// (four independent 4-lane vectors): a single descent is a dependent
/// gather chain — latency-bound, no faster than scalar out-of-order
/// overlap — so four chains run interleaved to keep four gathers in
/// flight per tree level. The tree (at most a few thousand nodes for
/// realistic `P`) stays L1-resident. Same recurrence as
/// [`super::scalar::classify_u64`].
#[target_feature(enable = "avx2")]
pub unsafe fn classify_u64(data: &[u64], tree: &[u64], height: u32, s: usize, counts: &mut [u64]) {
    let flip = _mm256_set1_epi64x(i64::MIN);
    let base = tree.as_ptr().cast::<i64>();
    let first_leaf = tree.len();
    let mut wide = data.chunks_exact(16);
    for chunk in &mut wide {
        let p = chunk.as_ptr();
        let x0 = _mm256_xor_si256(_mm256_loadu_si256(p.cast()), flip);
        let x1 = _mm256_xor_si256(_mm256_loadu_si256(p.add(4).cast()), flip);
        let x2 = _mm256_xor_si256(_mm256_loadu_si256(p.add(8).cast()), flip);
        let x3 = _mm256_xor_si256(_mm256_loadu_si256(p.add(12).cast()), flip);
        let mut i0 = _mm256_setzero_si256();
        let mut i1 = _mm256_setzero_si256();
        let mut i2 = _mm256_setzero_si256();
        let mut i3 = _mm256_setzero_si256();
        for _ in 0..height {
            i0 = descend4_u64(base, i0, x0, flip);
            i1 = descend4_u64(base, i1, x1, flip);
            i2 = descend4_u64(base, i2, x2, flip);
            i3 = descend4_u64(base, i3, x3, flip);
        }
        tally4_u64(i0, first_leaf, s, counts);
        tally4_u64(i1, first_leaf, s, counts);
        tally4_u64(i2, first_leaf, s, counts);
        tally4_u64(i3, first_leaf, s, counts);
    }
    let mut chunks = wide.remainder().chunks_exact(4);
    for chunk in &mut chunks {
        let x_f = _mm256_xor_si256(_mm256_loadu_si256(chunk.as_ptr().cast()), flip);
        let mut i = _mm256_setzero_si256();
        for _ in 0..height {
            i = descend4_u64(base, i, x_f, flip);
        }
        tally4_u64(i, first_leaf, s, counts);
    }
    super::scalar::classify_u64(chunks.remainder(), tree, height, s, counts);
}

/// One tree-descent step for a vector of 8 `u32` node indices.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn descend8_u32(base: *const i32, i: __m256i, x_f: __m256i, flip: __m256i) -> __m256i {
    let one = _mm256_set1_epi32(1);
    let node = _mm256_i32gather_epi32::<4>(base, i);
    let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(node, flip), x_f);
    _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(i, i), one),
        _mm256_add_epi32(one, gt),
    )
}

/// Bucket-count the leaf indices of one 8-lane descent.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tally8_u32(i: __m256i, first_leaf: usize, s: usize, counts: &mut [u64]) {
    let mut idx = [0i32; 8];
    _mm256_storeu_si256(idx.as_mut_ptr().cast(), i);
    for v in idx {
        counts[(v as usize - first_leaf).min(s)] += 1;
    }
}

/// Eight-lane `u32` twin of [`classify_u64`]: 32 keys per iteration,
/// four interleaved 8-lane descents.
#[target_feature(enable = "avx2")]
pub unsafe fn classify_u32(data: &[u32], tree: &[u32], height: u32, s: usize, counts: &mut [u64]) {
    let flip = _mm256_set1_epi32(i32::MIN);
    let base = tree.as_ptr().cast::<i32>();
    let first_leaf = tree.len();
    let mut wide = data.chunks_exact(32);
    for chunk in &mut wide {
        let p = chunk.as_ptr();
        let x0 = _mm256_xor_si256(_mm256_loadu_si256(p.cast()), flip);
        let x1 = _mm256_xor_si256(_mm256_loadu_si256(p.add(8).cast()), flip);
        let x2 = _mm256_xor_si256(_mm256_loadu_si256(p.add(16).cast()), flip);
        let x3 = _mm256_xor_si256(_mm256_loadu_si256(p.add(24).cast()), flip);
        let mut i0 = _mm256_setzero_si256();
        let mut i1 = _mm256_setzero_si256();
        let mut i2 = _mm256_setzero_si256();
        let mut i3 = _mm256_setzero_si256();
        for _ in 0..height {
            i0 = descend8_u32(base, i0, x0, flip);
            i1 = descend8_u32(base, i1, x1, flip);
            i2 = descend8_u32(base, i2, x2, flip);
            i3 = descend8_u32(base, i3, x3, flip);
        }
        tally8_u32(i0, first_leaf, s, counts);
        tally8_u32(i1, first_leaf, s, counts);
        tally8_u32(i2, first_leaf, s, counts);
        tally8_u32(i3, first_leaf, s, counts);
    }
    let mut chunks = wide.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        let x_f = _mm256_xor_si256(_mm256_loadu_si256(chunk.as_ptr().cast()), flip);
        let mut i = _mm256_setzero_si256();
        for _ in 0..height {
            i = descend8_u32(base, i, x_f, flip);
        }
        tally8_u32(i, first_leaf, s, counts);
    }
    super::scalar::classify_u32(chunks.remainder(), tree, height, s, counts);
}

/// Vectorized occupancy fold: `(OR, AND)` over all keys, 4 lanes at a
/// time plus a scalar tail.
#[target_feature(enable = "avx2")]
unsafe fn occupancy_u64(data: &[u64]) -> (u64, u64) {
    let mut orv = _mm256_setzero_si256();
    let mut andv = _mm256_set1_epi64x(-1);
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        let v = _mm256_loadu_si256(chunk.as_ptr().cast());
        orv = _mm256_or_si256(orv, v);
        andv = _mm256_and_si256(andv, v);
    }
    let mut or_l = [0u64; 4];
    let mut and_l = [0u64; 4];
    _mm256_storeu_si256(or_l.as_mut_ptr().cast(), orv);
    _mm256_storeu_si256(and_l.as_mut_ptr().cast(), andv);
    let mut or = or_l.iter().fold(0, |a, &b| a | b);
    let mut and = and_l.iter().fold(u64::MAX, |a, &b| a & b);
    for &x in chunks.remainder() {
        or |= x;
        and &= x;
    }
    (or, and)
}

/// `u32` twin of [`occupancy_u64`] (8 lanes).
#[target_feature(enable = "avx2")]
unsafe fn occupancy_u32(data: &[u32]) -> (u32, u32) {
    let mut orv = _mm256_setzero_si256();
    let mut andv = _mm256_set1_epi32(-1);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let v = _mm256_loadu_si256(chunk.as_ptr().cast());
        orv = _mm256_or_si256(orv, v);
        andv = _mm256_and_si256(andv, v);
    }
    let mut or_l = [0u32; 8];
    let mut and_l = [0u32; 8];
    _mm256_storeu_si256(or_l.as_mut_ptr().cast(), orv);
    _mm256_storeu_si256(and_l.as_mut_ptr().cast(), andv);
    let mut or = or_l.iter().fold(0, |a, &b| a | b);
    let mut and = and_l.iter().fold(u32::MAX, |a, &b| a & b);
    for &x in chunks.remainder() {
        or |= x;
        and &= x;
    }
    (or, and)
}

/// LSD radix sort with the vectorized occupancy pre-pass and 4-way
/// split counting tables (independent tables break the
/// increment-after-increment store-forwarding chain on duplicate-heavy
/// digit streams; their sums equal the scalar histogram exactly).
#[target_feature(enable = "avx2")]
pub unsafe fn radix_sort_u64(data: &mut [u64]) {
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
    let mut hist = vec![[[0u32; 256]; 4]; live.len()];
    {
        let mut chunks = data.chunks_exact(4);
        for chunk in &mut chunks {
            for (h, &p) in hist.iter_mut().zip(&live) {
                let sh = 8 * p as u32;
                h[0][((chunk[0] >> sh) & 0xFF) as usize] += 1;
                h[1][((chunk[1] >> sh) & 0xFF) as usize] += 1;
                h[2][((chunk[2] >> sh) & 0xFF) as usize] += 1;
                h[3][((chunk[3] >> sh) & 0xFF) as usize] += 1;
            }
        }
        for &x in chunks.remainder() {
            for (h, &p) in hist.iter_mut().zip(&live) {
                h[0][((x >> (8 * p)) & 0xFF) as usize] += 1;
            }
        }
    }
    let mut src: Vec<u64> = data.to_vec();
    let mut dst: Vec<u64> = vec![0; n];
    for (h, &p) in hist.iter().zip(&live) {
        let shift = 8 * p as u32;
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (d, o) in offsets.iter_mut().enumerate() {
            *o = acc;
            acc += (h[0][d] + h[1][d] + h[2][d] + h[3][d]) as usize;
        }
        for &x in src.iter() {
            let d = ((x >> shift) & 0xFF) as usize;
            // SAFETY: offsets[d] enumerates 0..n exactly once per pass.
            *dst.get_unchecked_mut(offsets[d]) = x;
            offsets[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    data.copy_from_slice(&src);
}

/// `u32` twin of [`radix_sort_u64`].
#[target_feature(enable = "avx2")]
pub unsafe fn radix_sort_u32(data: &mut [u32]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let (or, and) = occupancy_u32(data);
    let varying = or ^ and;
    let live: Vec<usize> = (0..4)
        .filter(|&p| (varying >> (8 * p)) & 0xFF != 0)
        .collect();
    if live.is_empty() {
        return;
    }
    let mut hist = vec![[[0u32; 256]; 4]; live.len()];
    {
        let mut chunks = data.chunks_exact(4);
        for chunk in &mut chunks {
            for (h, &p) in hist.iter_mut().zip(&live) {
                let sh = 8 * p as u32;
                h[0][((chunk[0] >> sh) & 0xFF) as usize] += 1;
                h[1][((chunk[1] >> sh) & 0xFF) as usize] += 1;
                h[2][((chunk[2] >> sh) & 0xFF) as usize] += 1;
                h[3][((chunk[3] >> sh) & 0xFF) as usize] += 1;
            }
        }
        for &x in chunks.remainder() {
            for (h, &p) in hist.iter_mut().zip(&live) {
                h[0][((x >> (8 * p)) & 0xFF) as usize] += 1;
            }
        }
    }
    let mut src: Vec<u32> = data.to_vec();
    let mut dst: Vec<u32> = vec![0; n];
    for (h, &p) in hist.iter().zip(&live) {
        let shift = 8 * p as u32;
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (d, o) in offsets.iter_mut().enumerate() {
            *o = acc;
            acc += (h[0][d] + h[1][d] + h[2][d] + h[3][d]) as usize;
        }
        for &x in src.iter() {
            let d = ((x >> shift) & 0xFF) as usize;
            // SAFETY: offsets[d] enumerates 0..n exactly once per pass.
            *dst.get_unchecked_mut(offsets[d]) = x;
            offsets[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    data.copy_from_slice(&src);
}
