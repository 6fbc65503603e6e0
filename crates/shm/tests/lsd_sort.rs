//! The stable LSD kernel against the `sort_by_key` oracle, payload
//! order included: any length, live key windows of 0–64 bits anywhere
//! in the 128-bit image (constant bits around them), degenerate and
//! presorted shapes, any scratch, both parities of executed passes —
//! and the rule that picks between the kernel and the comparison sort
//! must be invisible in the output. And the monomorphic byte-wise
//! kernel for plain words (`radix_sort_u64` / `radix_sort_u32`) against
//! `sort_unstable`.

use dhs_shm::{
    lsd_beats_comparison, lsd_sort_if, radix_sort_by_bits, radix_sort_u32, radix_sort_u64,
};
use proptest::prelude::*;

/// A record: its key's bit image and its position in the input, which
/// witnesses stability.
type Rec = (u128, u32);

/// xorshift64* stream; deterministic per seed.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `n` records whose images vary only inside the `span`-bit window at
/// `offset` and share random constant bits outside it. `shape` 0:
/// random; 1: all equal; 2: two values; 3: already sorted; 4: 32
/// sorted runs.
fn records(seed: u64, n: usize, span: u32, offset: u32, shape: u8) -> Vec<Rec> {
    let mut next = stream(seed);
    let window = match span {
        0 => 0,
        s => (u128::MAX >> (128 - s)) << offset,
    };
    let constant = ((u128::from(next()) << 64) | u128::from(next())) & !window;
    let two = [next(), next()];
    let mut keys: Vec<u128> = (0..n)
        .map(|i| {
            let v = match shape {
                1 => two[0],
                2 => two[i % 3 % 2],
                _ => next(),
            };
            constant | ((u128::from(v) << offset) & window)
        })
        .collect();
    match shape {
        3 => keys.sort_unstable(),
        4 => keys
            .chunks_mut(n.div_ceil(32).max(1))
            .for_each(<[u128]>::sort_unstable),
        _ => {}
    }
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u32))
        .collect()
}

/// A scratch vector that is empty, shorter than, as long as, or longer
/// than the data, with junk contents.
fn scratch_for(n: usize, shape: u8) -> Vec<Rec> {
    let len = match shape {
        0 => 0,
        1 => n / 2,
        2 => n,
        _ => n + 17,
    };
    vec![(u128::MAX, u32::MAX); len]
}

/// Plain words in one of four shapes: uniform, duplicate-heavy, one
/// live byte under constant high bytes (adversarial for the occupancy
/// fold), or sorted but for one swap.
fn words(seed: u64, len: usize, shape: usize) -> Vec<u64> {
    let mut next = stream(seed);
    match shape % 4 {
        0 => (0..len).map(|_| next()).collect(),
        1 => (0..len).map(|_| next() % 7).collect(),
        2 => (0..len)
            .map(|_| 0xAA00_0000_0000_0000 | (next() & 0xFF))
            .collect(),
        _ => {
            let mut v: Vec<u64> = (0..len).map(|_| next()).collect();
            v.sort_unstable();
            if len > 2 {
                let i = (next() % len as u64) as usize;
                let j = (next() % len as u64) as usize;
                v.swap(i, j);
            }
            v
        }
    }
}

fn stable_sorted(base: &[Rec]) -> Vec<Rec> {
    let mut expect = base.to_vec();
    expect.sort_by_key(|r| r.0);
    expect
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn kernel_matches_stable_sort(
        seed in 0u64..u64::MAX,
        n in 0usize..70_001,
        span in 0u32..65,
        offset_seed in 0u32..128,
        shape in 0u8..5,
        scratch_shape in 0u8..4,
    ) {
        let offset = offset_seed % (128 - span + 1);
        let base = records(seed, n, span, offset, shape);
        let expect = stable_sorted(&base);

        let mut got = base.clone();
        let mut scratch = scratch_for(n, scratch_shape);
        prop_assert!(lsd_sort_if(&mut got, &mut scratch, &|r: &Rec| r.0, |_, _, _| true));
        prop_assert_eq!(&got, &expect);

        // The rule sees the block as it is — length, non-descending
        // runs, live window — and either runs the same kernel or
        // leaves everything to the caller's comparison sort.
        let runs = 1 + base.windows(2).filter(|w| w[1].0 < w[0].0).count();
        let mut got = base.clone();
        let mut scratch = scratch_for(n, scratch_shape);
        let junk = scratch.clone();
        let ran = lsd_sort_if(&mut got, &mut scratch, &|r: &Rec| r.0, |len, seen, live| {
            assert_eq!((len, seen), (n, runs));
            assert!(live <= span, "live window {live} wider than {span}");
            lsd_beats_comparison(len, seen, live, false)
        });
        if ran {
            prop_assert_eq!(&got, &expect);
        } else {
            prop_assert_eq!(&got, &base);
            prop_assert_eq!(&scratch, &junk);
        }
    }

    /// Plain keys through the slice-shaped caller, over the bit images
    /// `dhs_core::Key` gives signed integers (sign shifted) and
    /// `OrderedF64` (sign-magnitude flipped).
    #[test]
    fn signed_and_float_images_sort(seed in 0u64..u64::MAX, n in 0usize..5_000, narrow in 0u32..64) {
        let mut next = stream(seed);
        let ints: Vec<i64> = (0..n).map(|_| (next() as i64) >> narrow).collect();
        let mut got = ints.clone();
        radix_sort_by_bits(&mut got, |&x| u128::from(x as u64 ^ (1 << 63)), 64);
        let mut expect = ints;
        expect.sort_unstable();
        prop_assert_eq!(got, expect);

        let floats: Vec<f64> = (0..n)
            .map(|_| (next() as i64 >> narrow) as f64 * 0.37)
            .collect();
        let image = |x: &f64| {
            let b = x.to_bits();
            u128::from(if b >> 63 == 1 { !b } else { b | 1 << 63 })
        };
        let mut got = floats.clone();
        radix_sort_by_bits(&mut got, image, 64);
        let mut expect = floats;
        expect.sort_by(f64::total_cmp);
        // `total_cmp` and the image agree on every non-NaN float.
        prop_assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn word_kernel_matches_sort_unstable(
        seed in 0u64..u64::MAX,
        len in 0usize..400,
        shape in 0usize..4,
    ) {
        let data = words(seed, len, shape);
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut got = data.clone();
        radix_sort_u64(&mut got);
        prop_assert_eq!(got, expect);

        let data: Vec<u32> = data.into_iter().map(|x| x as u32).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut got = data;
        radix_sort_u32(&mut got);
        prop_assert_eq!(got, expect);
    }
}

/// Nothing to sort, one word, and a block whose every byte is
/// constant: the word kernel returns before it allocates.
#[test]
fn word_kernel_degenerate_blocks() {
    let mut v: Vec<u64> = vec![];
    radix_sort_u64(&mut v);
    let mut v = vec![42u64];
    radix_sort_u64(&mut v);
    assert_eq!(v, vec![42]);
    let mut v = vec![7u32; 1000];
    radix_sort_u32(&mut v);
    assert_eq!(v, vec![7; 1000]);
}

/// An odd number of executed passes leaves the result in the scratch
/// allocation (swapped into place), an even number in the data's own.
#[test]
fn both_parities_are_exercised() {
    // 5 000 records take digits of up to 10 bits: 8 live bits are one
    // pass, 16 two, and 30 with a dead middle digit two again.
    let n = 5_000;
    for (span, dead_middle, swapped) in [(8, false, true), (16, false, false), (30, true, false)] {
        let mut base = records(7, n, span, 3, 0);
        if dead_middle {
            // Keep the low and high ten bits of the 30-bit window.
            let keep = (0x3FFu128 | 0x3FF << 20) << 3;
            for r in &mut base {
                r.0 &= keep;
            }
        }
        let expect = stable_sorted(&base);
        let mut data = base.clone();
        let mut scratch = scratch_for(n, 2);
        let (data_at, scratch_at) = (data.as_ptr(), scratch.as_ptr());
        assert!(lsd_sort_if(
            &mut data,
            &mut scratch,
            &|r: &Rec| r.0,
            |_, _, _| true
        ));
        assert_eq!(data, expect, "span {span}");
        let ends_in = if swapped { scratch_at } else { data_at };
        assert_eq!(data.as_ptr(), ends_in, "span {span}");
    }
}

/// Elements that own heap memory sort correctly through the kernel
/// (every move is a clone and a drop), and the rule never picks it
/// for them.
#[test]
fn needs_drop_elements_are_cloned_not_copied() {
    let mut next = stream(3);
    let base: Vec<(u8, String)> = (0..3_000)
        .map(|i| ((next() % 200) as u8, format!("payload-{i}")))
        .collect();
    let mut expect = base.clone();
    expect.sort_by_key(|r| r.0);

    let image = |r: &(u8, String)| u128::from(r.0);
    let mut got = base.clone();
    let mut scratch = vec![(0, String::from("junk")); 10];
    assert!(lsd_sort_if(&mut got, &mut scratch, &image, |_, _, _| true));
    assert_eq!(got, expect);

    assert!(!lsd_beats_comparison(3_000, 3_000, 8, true));
    assert!(lsd_beats_comparison(3_000, 3_000, 8, false));
}

/// A block that is already one run — sorted, all equal, empty — costs
/// the kernel its read sweep and nothing else: the rule takes it for
/// every span and neither buffer is touched.
#[test]
fn sorted_blocks_return_after_the_sweep() {
    for (n, shape) in [(0, 0), (1, 0), (40_000, 1), (40_000, 3)] {
        let base = records(11, n, 64, 5, shape);
        let mut data = base.clone();
        let mut scratch = scratch_for(n, 1);
        let junk = scratch.clone();
        let at = data.as_ptr();
        let ran = lsd_sort_if(
            &mut data,
            &mut scratch,
            &|r: &Rec| r.0,
            |len, runs, span| {
                assert_eq!(runs, 1, "n {n} shape {shape}");
                lsd_beats_comparison(len, runs, span, false)
            },
        );
        assert!(ran && data == base && data.as_ptr() == at && scratch == junk);
    }
}

/// The rule prices the runs it is shown: the same wide-key block goes
/// to the kernel unsorted and to the comparison sort once it is held
/// in a few long runs, and a refusal leaves both buffers alone.
#[test]
fn rule_follows_the_observed_runs() {
    let n = 1 << 17;
    assert!(lsd_beats_comparison(n, n / 2, 64, false));
    assert!(!lsd_beats_comparison(n, 32, 64, false));
    assert!(lsd_beats_comparison(n, 32, 17, false));
    assert!(lsd_beats_comparison(n, 1, 64, false));
    assert!(!lsd_beats_comparison(n, 1, 64, true));
    assert!(!lsd_beats_comparison(n, n / 2, 65, false));
    // Defined for every argument, also ones no block can produce.
    assert!(lsd_beats_comparison(n, 5, 0, false));

    let base = records(5, n, 64, 0, 4);
    let (mut data, mut scratch) = (base.clone(), Vec::new());
    let ran = lsd_sort_if(
        &mut data,
        &mut scratch,
        &|r: &Rec| r.0,
        |len, runs, span| {
            assert!((2..=32).contains(&runs), "{runs} runs");
            lsd_beats_comparison(len, runs, span, false)
        },
    );
    assert!(!ran && data == base && scratch.capacity() == 0);
}
