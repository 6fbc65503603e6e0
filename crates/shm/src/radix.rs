//! LSD radix sort over an order-preserving bit projection — a
//! non-comparison local sort for the phase the paper leaves untuned
//! ("the initial local sort ... is not of particular interest in this
//! paper"); with integer-like keys it beats comparison sorting and
//! shifts the phase mix of Fig. 2b/3b further toward communication.
//!
//! One generic kernel, stable over any `Clone` element, behind one
//! entry point, [`lsd_sort_if`]: it is the record path's local sort
//! *and* its merge of the received runs wherever
//! [`lsd_beats_comparison`] says so, and [`radix_sort_by_bits`] is its
//! slice-shaped caller. Beside it, one monomorphic byte-wise kernel
//! for plain `u64`/`u32` words ([`radix_sort_u64`], [`radix_sort_u32`]),
//! kept because it is the faster leaf below ~1 Mi keys.

/// Narrowest digit: below a 256-entry table a pass costs the same
/// and sorts fewer bits.
const MIN_DIGIT_BITS: u32 = 8;

/// Widest digit: a scatter keeps one open cache line per bucket, and
/// 2¹³ of them (512 KiB) still sit in a private L2 beside the fused
/// counting tables. Wider digits save a pass and lose more to misses
/// (`EXPERIMENTS.md`, "Records move once": 4 × 16 bits 0.83× where
/// 5 × 13 bits is 1.02×).
const MAX_DIGIT_BITS: u32 = 13;

/// `⌈log₂ x⌉`, with `0` for `x ≤ 1`.
fn ceil_log2(x: usize) -> u32 {
    x.max(1).next_power_of_two().trailing_zeros()
}

/// What one read sweep learns about `data` under the projection: the
/// bit positions that differ somewhere (an OR/AND occupancy fold; `0`
/// for fewer than two distinct images) and the number of maximal
/// non-descending runs (descents + 1, so `1` for a sorted or empty
/// block). Observed, not assumed: a presorted or few-run block must
/// not be priced as `n` runs of one.
fn occupancy<T, F: Fn(&T) -> u128>(data: &[T], bits: &F) -> (u128, usize) {
    let (mut or, mut and, mut prev, mut runs) = (0u128, u128::MAX, 0u128, 1usize);
    for x in data {
        let b = bits(x);
        or |= b;
        and &= b;
        runs += usize::from(b < prev);
        prev = b;
    }
    (or & !and, runs)
}

/// Width of the window from the lowest to the highest live bit.
fn span_of(live: u128) -> u32 {
    if live == 0 {
        0
    } else {
        128 - live.leading_zeros() - live.trailing_zeros()
    }
}

/// Digit width and pass count for `n` elements whose live bits span
/// `span ≥ 1` positions. A counting table is cleared, prefix-summed
/// and walked at random, so it gets at most `n / 8` counters (a
/// 4 Ki-entry table for 4 Ki records costs more than the second pass
/// of two 64-entry ones), within `[MIN_DIGIT_BITS, MAX_DIGIT_BITS]`;
/// the passes then share the span evenly.
fn digit_layout(n: usize, span: u32) -> (u32, u32) {
    let widest = ceil_log2(n)
        .saturating_sub(3)
        .clamp(MIN_DIGIT_BITS, MAX_DIGIT_BITS);
    let passes = span.div_ceil(widest);
    (span.div_ceil(passes), passes)
}

/// The closed-form rule behind the record path's two local phases:
/// does the LSD kernel of [`lsd_sort_if`] beat the stable comparison
/// sort (`sort_by_key`) on `n` elements held in `runs` non-descending
/// runs whose key images differ over a window of `span` bits? `runs`
/// and `span` are what the kernel's read sweep observed in the block,
/// not what the call site expects of it: a uniform unsorted block
/// descends at every other element (`n / 2` runs), the received runs
/// of a merge are at most one per source, a presorted block is one.
///
/// The comparison side moves every element about `⌈log₂ runs⌉` times
/// (driftsort finds the runs and merges them; on an unsorted block
/// its quicksort partitions as deep); the LSD side moves it once per
/// pass, `⌈span / digit⌉` times with the digit `digit_layout` picks
/// (up to 13 bits), after the read sweep and one more for the counts.
/// A scattered pass costs about 2½ comparison levels, so LSD wins on
/// narrow spans and on unsorted blocks and loses where a few long runs
/// meet wide keys. It also needs a clone to be a bit copy (`needs_drop`
/// types pay a drop per move) and the span to fit the 64 bits the
/// recorded grid covers. One run is already sorted: the kernel
/// returns it untouched, so taking it costs nothing past the sweep
/// that counted it, where refusing would add the comparison sort's
/// own pass.
///
/// Recorded cells (`BENCH_wallclock.json`, `record_sort_ab`: t = 1,
/// 16-byte records, uniform keys over `span` live bits, stable sort ÷
/// LSD host time, passes against levels). LSD wins and the rule picks
/// it: unsorted 128 Ki × span 17 3.25× (1.52 vs 4.93 ms, 2 against
/// 17), span 30 2.08× (3), span 8 2.08× (1); 32 runs of 4 Ki × span 17
/// 2.06× (1.42 vs 2.92 ms, 2 against 5), span 8 3.49×; 1 Mi records
/// 1.17–2.49× and 4 Ki records 1.92–4.14× through span 17.
/// Break-even, where the constant sits: unsorted span 64 1.08× at
/// 128 Ki and 0.89× at 1 Mi (5 against 17 and 20; the out-of-cache
/// scatter follows the host's memory traffic, 0.89–1.08× over four
/// recordings), unsorted 4 Ki × span 30 1.03× (4 against 11). The
/// comparison sort wins and the rule picks it: 32 runs × span 64 0.66×
/// at 128 Ki, 0.54× at 1 Mi, 0.49× at 4 Ki (5, 5 and 8 against 5);
/// 32 runs × span 30 at 1 Mi 0.81× (3 against 5); unsorted 4 Ki ×
/// span 64 0.52× (8 against 11). Left on the table: 32 runs × span 30
/// (3 and 4 against 5) 1.32× at 128 Ki, 1.46× at 4 Ki — a constant
/// loose enough to take them also takes 4–6-pass unsorted blocks of
/// 256–1 Ki records, which lose (0.66–0.81×, EXPERIMENTS.md "Records
/// move once"). Presorted (the `sorted` cells): the sweep alone
/// against driftsort's own run detection, 2.1 vs 1.6 µs at 4 Ki,
/// 85–90 vs 69–70 µs at 128 Ki, 2.8–3.1 vs 1.1–1.6 ms at 1 Mi — what
/// observing the block costs a re-sort of sorted data, where pricing
/// it as `n` runs cost the whole sort (25 µs–58 ms).
///
/// Every cell is one thread against one: a caller with more threads
/// to execute on keeps its parallel comparison kernels (the record
/// hooks gate on the execution budget before they ask).
pub fn lsd_beats_comparison(n: usize, runs: usize, span: u32, needs_drop: bool) -> bool {
    if needs_drop || span > 64 {
        return false;
    }
    if runs < 2 || span == 0 {
        return true; // one run, or all keys equal: nothing moves
    }
    let (_, passes) = digit_layout(n, span);
    5 * passes <= 2 * ceil_log2(runs)
}

/// Stable LSD radix sort of `data` by the order-preserving projection
/// `bits`, if `rule` says so: one read sweep observes the block (the
/// `occupancy` fold), `rule(n, runs, span)` — [`lsd_beats_comparison`]
/// in the record hooks, `|_, _, _| true` to force the kernel — decides,
/// and the return value is its answer. `false` leaves `data` and
/// `scratch` untouched for the caller's comparison sort.
///
/// `scratch` — any vector the caller no longer needs, contents ignored
/// — is the second buffer. On `true`, `data` holds the sorted elements
/// and `scratch` stale ones; the two have traded allocations when an
/// odd number of passes ran (the finished buffer is swapped into
/// place, never copied back). A block that is already one run returns
/// after the sweep with both buffers untouched.
///
/// Only the live window of the projection is sorted: `digit_layout`
/// tiles the bits that differ anywhere in the input, digits that are
/// constant across the input are skipped (their stable scatter would
/// be the identity), one fused sweep counts every remaining digit, and
/// each pass scatters from one buffer into the other. With an `n`-long
/// `scratch` (the dead send block after an exchange) nothing but the
/// counting tables is allocated and no element is written that a pass
/// does not move.
pub fn lsd_sort_if<T, F, R>(data: &mut Vec<T>, scratch: &mut Vec<T>, bits: &F, rule: R) -> bool
where
    T: Clone,
    F: Fn(&T) -> u128,
    R: FnOnce(usize, usize, u32) -> bool,
{
    let (live, runs) = occupancy(data, bits);
    if !rule(data.len(), runs, span_of(live)) {
        return false;
    }
    if runs > 1 && lsd_passes(data, scratch, bits, live) {
        std::mem::swap(data, scratch);
    }
    true
}

/// The passes of [`lsd_sort_if`] over the `live` bits (at least one:
/// the block holds a descent). Returns whether the sorted elements
/// ended up in `scratch` (an odd number of passes ran) rather than in
/// `data`.
fn lsd_passes<T, F>(data: &mut [T], scratch: &mut Vec<T>, bits: &F, live: u128) -> bool
where
    T: Clone,
    F: Fn(&T) -> u128,
{
    debug_assert!(live != 0, "a block with a descent has a live bit");
    let n = data.len();
    let lo = live.trailing_zeros();
    let (width, passes) = digit_layout(n, span_of(live));
    let buckets = 1usize << width;
    let mask = buckets - 1;
    let shifts: Vec<u32> = (0..passes)
        .map(|pass| lo + pass * width)
        .filter(|&shift| (live >> shift) as usize & mask != 0)
        .collect();

    // One sweep counts every live digit; each table then becomes its
    // buckets' start offsets.
    let mut cursors = vec![0usize; shifts.len() * buckets];
    for x in data.iter() {
        let b = bits(x);
        for (table, &shift) in cursors.chunks_exact_mut(buckets).zip(&shifts) {
            table[(b >> shift) as usize & mask] += 1;
        }
    }
    for table in cursors.chunks_exact_mut(buckets) {
        let mut start = 0;
        for c in table {
            start += std::mem::replace(c, start);
        }
    }

    // Both buffers `n` long. A fresh scratch is filled here, which is
    // also where its pages are first touched; scattering the first
    // pass into spare capacity instead measured within 2 % and needs
    // an `unsafe` whose soundness hangs on `bits` being pure.
    scratch.resize(n, data[0].clone());

    let mut in_scratch = false;
    for (table, &shift) in cursors.chunks_exact_mut(buckets).zip(&shifts) {
        let (src, dst) = if in_scratch {
            (&scratch[..], &mut *data)
        } else {
            (&*data, &mut scratch[..])
        };
        // Stable counting-sort pass: every element, in order, to the
        // next free slot of its digit's bucket.
        for x in src {
            let cursor = &mut table[(bits(x) >> shift) as usize & mask];
            dst[*cursor] = x.clone();
            *cursor += 1;
        }
        in_scratch = !in_scratch;
    }
    in_scratch
}

/// Sort `data` by the order-preserving projection `bits`, whose image
/// fits `width` significant bits (≤ 128). Stable. The slice-shaped
/// caller of the [`lsd_sort_if`] kernel: one `n`-sized scratch buffer,
/// and a copy back only when an odd number of passes ran.
pub fn radix_sort_by_bits<T, F>(data: &mut [T], bits: F, width: u32)
where
    T: Copy,
    F: Fn(&T) -> u128,
{
    assert!(width <= 128, "projection width {width} exceeds 128 bits");
    let (live, runs) = occupancy(data, &bits);
    debug_assert!(
        live.checked_shr(width).unwrap_or(0) == 0,
        "image wider than {width} bits"
    );
    let mut scratch = Vec::new();
    if runs > 1 && lsd_passes(data, &mut scratch, &bits, live) {
        data.copy_from_slice(&scratch);
    }
}

/// Byte-wise LSD radix sort of plain unsigned words, the serial leaf
/// of `dhs-core`'s `LocalSort::Radix` for native `u64`/`u32` keys.
/// Monomorphic where [`lsd_sort_if`] is generic: a fixed 8-bit digit,
/// so the fused counting tables are 1 KiB each and the digit
/// extraction is one shift and mask of a machine word. That is what
/// makes it the faster of the two below ~1 Mi keys
/// (EXPERIMENTS.md, "One kernel backend": generic ÷ this 0.68–0.96×
/// from 256 to 128 Ki keys, 1.19× at 1 Mi).
///
/// An OR/AND fold finds the byte positions that vary across the input
/// (constant bytes get no pass), one read sweep counts every live
/// byte, then one stable ping-pong scatter per live byte. Output
/// equals `sort_unstable`.
fn byte_radix_sort<T: Copy + Default + Into<u64>>(data: &mut [T]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let (or, and) = data.iter().fold((0u64, u64::MAX), |(or, and), &x| {
        let w: u64 = x.into();
        (or | w, and & w)
    });
    let varying = or ^ and;
    let live: Vec<u32> = (0..64)
        .step_by(8)
        .filter(|&shift| (varying >> shift) & 0xFF != 0)
        .collect();
    if live.is_empty() {
        return;
    }
    let digit = |x: T, shift: u32| ((x.into() >> shift) & 0xFF) as usize;
    let mut hist = vec![[0u32; 256]; live.len()];
    for &x in data.iter() {
        for (h, &shift) in hist.iter_mut().zip(&live) {
            h[digit(x, shift)] += 1;
        }
    }
    let mut src: Vec<T> = data.to_vec();
    let mut dst: Vec<T> = vec![T::default(); n];
    for (h, &shift) in hist.iter().zip(&live) {
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = acc;
            acc += c as usize;
        }
        debug_assert_eq!(acc, n);
        for &x in src.iter() {
            let d = digit(x, shift);
            // SAFETY: `offsets[d] < n == dst.len()`. `h` counted this
            // digit over `data`, of which `src` is a permutation, so
            // bucket `d`'s cursor starts at its prefix sum and is
            // bumped once per element of that bucket: it stays below
            // the next bucket's start, and the last start plus its
            // count is `n`. That needs `into` to be pure, which holds
            // for the two instantiations this private function has
            // (`u64`, `u32`). The checked store costs 10–15 % on
            // in-cache blocks (EXPERIMENTS.md, "One kernel backend").
            unsafe { *dst.get_unchecked_mut(offsets[d]) = x };
            offsets[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    data.copy_from_slice(&src);
}

/// Radix sort for `u64` slices: the monomorphic byte-wise kernel.
pub fn radix_sort_u64(data: &mut [u64]) {
    byte_radix_sort(data);
}

/// Radix sort for `u32` slices: the monomorphic byte-wise kernel.
pub fn radix_sort_u32(data: &mut [u32]) {
    byte_radix_sort(data);
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn sorts_random_u64() {
        for n in [0usize, 1, 2, 100, 10_000] {
            let mut v = noise(n, n as u64 + 1);
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort_u64(&mut v);
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn sorts_narrow_and_constant() {
        let mut v: Vec<u64> = noise(5000, 3).into_iter().map(|x| x % 7).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_u64(&mut v);
        assert_eq!(v, expect);

        let mut v = vec![42u64; 1000];
        radix_sort_u64(&mut v);
        assert!(v.iter().all(|&x| x == 42));
    }

    #[test]
    fn sorts_u32_and_respects_width() {
        let mut v: Vec<u32> = noise(3000, 9).into_iter().map(|x| x as u32).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_u32(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn stable_on_projected_ties() {
        // Sort pairs by the first component only; ties keep input order.
        let mut v: Vec<(u8, u32)> = (0..1000u32).map(|i| (((i * 7) % 4) as u8, i)).collect();
        radix_sort_by_bits(&mut v, |&(k, _)| k as u128, 8);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {w:?}");
            }
        }
    }

    #[test]
    fn signed_via_projection() {
        let mut v: Vec<i64> = noise(2000, 5).into_iter().map(|x| x as i64).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_by_bits(&mut v, |&x| (x as u64 ^ (1 << 63)) as u128, 64);
        assert_eq!(v, expect);
    }
}
