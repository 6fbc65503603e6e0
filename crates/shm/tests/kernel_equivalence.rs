//! SIMD == scalar equivalence for every kernel in `dhs_shm::kernels`.
//!
//! The scalar backend is the determinism reference; on an AVX2 host
//! `Kernels::auto()` dispatches the vectorized backend and these tests
//! pin byte-identical outputs across key widths (`u32`/`u64`),
//! duplicate-heavy and adversarial ladders, empty/singleton/odd-length
//! slices, and unaligned slice heads. On a non-AVX2 host `auto()`
//! resolves to scalar and the comparisons hold trivially — the
//! partition-point and `sort_unstable` oracles still check the scalar
//! kernels themselves.

use dhs_shm::kernels::{
    ladder_bounds_typed, merge_two_into_slice, merge_typed, radix_sort_typed, Kernels,
};
use proptest::prelude::*;

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

/// Keys in one of four shapes: uniform, duplicate-heavy, narrow-range
/// (adversarial for radix occupancy), or near-sorted.
fn keys_u64(seed: u64, len: usize, shape: usize) -> Vec<u64> {
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

fn keys_u32(seed: u64, len: usize, shape: usize) -> Vec<u32> {
    keys_u64(seed, len, shape)
        .into_iter()
        .map(|x| x as u32)
        .collect()
}

/// An ascending ladder, optionally duplicate-heavy, with sentinels at
/// both extremes mixed in.
fn ladder_u64(seed: u64, len: usize, dupes: bool) -> Vec<u64> {
    let mut next = stream(seed ^ 0xDEAD_BEEF);
    let mut v: Vec<u64> = (0..len)
        .map(|_| if dupes { next() % 5 } else { next() })
        .collect();
    if len >= 2 {
        v[0] = 0;
        v[1] = u64::MAX;
    }
    v.sort_unstable();
    v
}

fn ladder_u32(seed: u64, len: usize, dupes: bool) -> Vec<u32> {
    let mut v: Vec<u32> = ladder_u64(seed, len, dupes)
        .into_iter()
        .map(|x| x as u32)
        .collect();
    v.sort_unstable();
    v
}

/// A record ordered by `key` alone; `tag` witnesses which input
/// element an output slot came from.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    key: u64,
    tag: u32,
}

impl PartialEq for Tagged {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Tagged {}
impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tagged {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Merge-input shapes: 0 both sides as drawn, 1 |a| ≫ |b|, 2 |b| = 0,
/// 3 |b| = 1.
fn side_lengths(sides: usize, na: usize, nb: usize) -> (usize, usize) {
    match sides {
        0 => (na, nb),
        1 => (8 * na + 64, nb % 8),
        2 => (na, 0),
        _ => (na, 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn ladder_bounds_u64_matches_partition_point(
        seed in 0u64..u64::MAX,
        len in 0usize..200,
        n_needles in 0usize..40,
        shape in 0usize..4,
        dupes: bool,
        offset in 0usize..2,
    ) {
        let mut sorted = keys_u64(seed, len + offset, shape);
        sorted.sort_unstable();
        let sorted = &sorted[offset.min(sorted.len())..]; // unaligned head
        let needles = ladder_u64(seed ^ 1, n_needles, dupes);
        for k in [Kernels::scalar(), Kernels::auto()] {
            let mut out = Vec::new();
            k.ladder_bounds_u64(sorted, &needles, 10, &mut out);
            prop_assert_eq!(out.len(), 2 * needles.len());
            for (i, &n) in needles.iter().enumerate() {
                let l = sorted.partition_point(|x| *x < n) as u64 + 10;
                let u = sorted.partition_point(|x| *x <= n) as u64 + 10;
                prop_assert_eq!((out[2 * i], out[2 * i + 1]), (l, u), "backend {}", k.backend_name());
            }
        }
    }

    #[test]
    fn ladder_bounds_u32_matches_partition_point(
        seed in 0u64..u64::MAX,
        len in 0usize..200,
        n_needles in 0usize..40,
        shape in 0usize..4,
        dupes: bool,
        offset in 0usize..2,
    ) {
        let mut sorted = keys_u32(seed, len + offset, shape);
        sorted.sort_unstable();
        let sorted = &sorted[offset.min(sorted.len())..];
        let needles = ladder_u32(seed ^ 1, n_needles, dupes);
        for k in [Kernels::scalar(), Kernels::auto()] {
            let mut out = Vec::new();
            k.ladder_bounds_u32(sorted, &needles, 0, &mut out);
            for (i, &n) in needles.iter().enumerate() {
                let l = sorted.partition_point(|x| *x < n) as u64;
                let u = sorted.partition_point(|x| *x <= n) as u64;
                prop_assert_eq!((out[2 * i], out[2 * i + 1]), (l, u), "backend {}", k.backend_name());
            }
        }
    }

    #[test]
    fn classify_counts_matches_upper_bound_ranks(
        seed in 0u64..u64::MAX,
        len in 0usize..300,
        s in 0usize..20,
        shape in 0usize..4,
        dupes: bool,
    ) {
        let data = keys_u64(seed, len, shape);
        let ladder = ladder_u64(seed ^ 2, s, dupes);
        let mut expect = vec![0u64; ladder.len() + 1];
        for &x in &data {
            expect[ladder.partition_point(|l| *l <= x)] += 1;
        }
        for k in [Kernels::scalar(), Kernels::auto()] {
            let mut counts = vec![u64::MAX; ladder.len() + 1];
            k.classify_counts_u64(&data, &ladder, &mut counts);
            prop_assert_eq!(&counts, &expect, "backend {}", k.backend_name());
        }
        // u32 twin on the same shape.
        let data = keys_u32(seed, len, shape);
        let ladder = ladder_u32(seed ^ 2, s, dupes);
        let mut expect = vec![0u64; ladder.len() + 1];
        for &x in &data {
            expect[ladder.partition_point(|l| *l <= x)] += 1;
        }
        for k in [Kernels::scalar(), Kernels::auto()] {
            let mut counts = vec![u64::MAX; ladder.len() + 1];
            k.classify_counts_u32(&data, &ladder, &mut counts);
            prop_assert_eq!(&counts, &expect, "backend {}", k.backend_name());
        }
    }

    #[test]
    fn radix_sort_matches_sort_unstable(
        seed in 0u64..u64::MAX,
        len in 0usize..400,
        shape in 0usize..4,
    ) {
        let data = keys_u64(seed, len, shape);
        let mut expect = data.clone();
        expect.sort_unstable();
        for k in [Kernels::scalar(), Kernels::auto()] {
            let mut got = data.clone();
            k.radix_sort_u64(&mut got);
            prop_assert_eq!(&got, &expect, "backend {}", k.backend_name());
        }
        let data = keys_u32(seed, len, shape);
        let mut expect = data.clone();
        expect.sort_unstable();
        for k in [Kernels::scalar(), Kernels::auto()] {
            let mut got = data.clone();
            k.radix_sort_u32(&mut got);
            prop_assert_eq!(&got, &expect, "backend {}", k.backend_name());
        }
    }

    #[test]
    fn merge_matches_std_merge(
        seed in 0u64..u64::MAX,
        na in 0usize..150,
        nb in 0usize..150,
        shape in 0usize..4,
        offset in 0usize..2,
        sides in 0usize..4,
    ) {
        let (na, nb) = side_lengths(sides, na, nb);
        let mut a = keys_u64(seed, na + offset, shape);
        let mut b = keys_u64(seed ^ 3, nb, shape);
        a.sort_unstable();
        b.sort_unstable();
        let a = &a[offset.min(a.len())..]; // unaligned head
        let mut expect: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        // One merge core on every backend (the AVX2 bitonic core was
        // deleted): the std-sort oracle is the only other side. Both
        // argument orders, so each side is the short one once.
        let k = Kernels::auto();
        let mut out = vec![0u64; a.len() + b.len()];
        k.merge_u64(a, &b, &mut out);
        prop_assert_eq!(&out, &expect);
        out.fill(0);
        k.merge_u64(&b, a, &mut out);
        prop_assert_eq!(&out, &expect);
        let a32: Vec<u32> = a.iter().map(|&x| x as u32).collect();
        let mut a32 = a32;
        a32.sort_unstable();
        let mut b32: Vec<u32> = b.iter().map(|&x| x as u32).collect();
        b32.sort_unstable();
        let mut expect: Vec<u32> = a32.iter().chain(b32.iter()).copied().collect();
        expect.sort_unstable();
        let mut out = vec![0u32; a32.len() + b32.len()];
        k.merge_u32(&a32, &b32, &mut out);
        prop_assert_eq!(&out, &expect);
    }

    /// The generic form of the two-ended leaf is *stable*: equal keys
    /// come out `a`-side first, in input order within a side, from
    /// the front cursor and the back cursor alike — i.e. the output
    /// equals a stable sort of `a ++ b`.
    #[test]
    fn generic_merge_takes_ties_from_a_first(
        seed in 0u64..u64::MAX,
        na in 0usize..120,
        nb in 0usize..120,
        distinct in 1u64..6,
        sides in 0usize..4,
    ) {
        let (na, nb) = side_lengths(sides, na, nb);
        let mut next = stream(seed);
        let mut side = |len: usize, tag0: u32| -> Vec<Tagged> {
            let mut keys: Vec<u64> = (0..len).map(|_| next() % distinct).collect();
            keys.sort_unstable();
            keys.iter()
                .enumerate()
                .map(|(i, &key)| Tagged { key, tag: tag0 + i as u32 })
                .collect()
        };
        let a = side(na, 0);
        let b = side(nb, 1 << 20);
        let mut expect: Vec<Tagged> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_by_key(|t| t.key); // stable reference
        let mut out = vec![Tagged { key: 0, tag: 0 }; na + nb];
        merge_two_into_slice(&a, &b, &mut out);
        let tags = |v: &[Tagged]| v.iter().map(|t| (t.key, t.tag)).collect::<Vec<_>>();
        prop_assert_eq!(tags(&out), tags(&expect));
    }

    #[test]
    fn typed_bridges_route_u64_and_u32(
        seed in 0u64..u64::MAX,
        len in 1usize..100,
        s in 1usize..10,
    ) {
        let k = Kernels::auto();
        // ladder_bounds_typed over u64 bits.
        let mut sorted = keys_u64(seed, len, 0);
        sorted.sort_unstable();
        let needles = ladder_u64(seed ^ 4, s, false);
        let mut out = Vec::new();
        prop_assert!(ladder_bounds_typed(k, &sorted, needles.len(), |i| needles[i], 0, &mut out));
        for (i, &n) in needles.iter().enumerate() {
            prop_assert_eq!(out[2 * i], sorted.partition_point(|x| *x < n) as u64);
        }
        // merge_typed + radix_sort_typed over u32.
        let mut data = keys_u32(seed, len, 1);
        prop_assert!(radix_sort_typed(k, &mut data));
        prop_assert!(data.windows(2).all(|w| w[0] <= w[1]));
        let half = len / 2;
        let (a, b) = data.split_at(half);
        let mut merged = vec![0u32; len];
        prop_assert!(merge_typed(k, a, b, &mut merged));
        prop_assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        // Non-integer element types refuse and leave data untouched.
        let mut floats = [1.5f64, 0.5];
        prop_assert!(!radix_sort_typed(k, &mut floats));
        prop_assert_eq!(floats, [1.5, 0.5]);
    }
}

/// Deterministic edge cases the proptests may not pin every run.
#[test]
fn edge_cases_all_backends() {
    for k in [Kernels::scalar(), Kernels::auto()] {
        // Empty everything.
        let mut out = Vec::new();
        k.ladder_bounds_u64(&[], &[5], 0, &mut out);
        assert_eq!(out, vec![0, 0]);
        out.clear();
        k.ladder_bounds_u64(&[1, 2, 3], &[], 0, &mut out);
        assert!(out.is_empty());

        let mut counts = vec![0u64; 1];
        k.classify_counts_u64(&[9, 9, 9], &[], &mut counts);
        assert_eq!(counts, vec![3]);

        let mut counts = vec![0u64; 3];
        k.classify_counts_u64(&[], &[1, 2], &mut counts);
        assert_eq!(counts, vec![0, 0, 0]);

        // All-equal keys against an all-equal ladder: everything lands
        // past the last duplicate splitter.
        let mut counts = vec![0u64; 4];
        k.classify_counts_u64(&[7; 10], &[7, 7, 7], &mut counts);
        assert_eq!(counts, vec![0, 0, 0, 10]);

        // u64::MAX keys exercise the sentinel clamp.
        let mut counts = vec![0u64; 3];
        k.classify_counts_u64(&[u64::MAX, 0], &[1, u64::MAX], &mut counts);
        assert_eq!(counts, vec![1, 0, 1]);

        let mut v: Vec<u64> = vec![];
        k.radix_sort_u64(&mut v);
        let mut v = vec![42u64];
        k.radix_sort_u64(&mut v);
        assert_eq!(v, vec![42]);

        let mut out = vec![0u64; 1];
        k.merge_u64(&[3], &[], &mut out);
        assert_eq!(out, vec![3]);
        let mut out = vec![0u32; 3];
        k.merge_u32(&[2, 2], &[2], &mut out);
        assert_eq!(out, vec![2, 2, 2]);

        // The two-ended loop at its boundary: it runs min(|a|, |b|)
        // steps, so here the front and back cursors of the short side
        // meet exactly — it straddles the long side (consumed once
        // from each end), sits wholly below it, wholly above it (the
        // back cursor then compares against an element the front
        // already took), and ties with it.
        for (a, b) in [
            (vec![1u64, 100], vec![2u64, 3, 4, 5, 6]),
            (vec![1, 2], vec![3, 4, 5, 6, 7]),
            (vec![8, 9], vec![3, 4, 5, 6, 7]),
            (vec![5], vec![7]),
            (vec![5, 5], vec![5, 5, 5]),
        ] {
            let mut expect: Vec<u64> = a.iter().chain(&b).copied().collect();
            expect.sort_unstable();
            let mut out = vec![0u64; expect.len()];
            k.merge_u64(&a, &b, &mut out);
            assert_eq!(out, expect, "a={a:?} b={b:?}");
            k.merge_u64(&b, &a, &mut out);
            assert_eq!(out, expect, "a={b:?} b={a:?}");
        }
    }
}

/// On this CI matrix x86_64 hosts must actually exercise the AVX2
/// backend (otherwise the equivalence suite silently tests scalar
/// against itself).
#[test]
fn auto_backend_is_accelerated_on_avx2_hosts() {
    #[cfg(target_arch = "x86_64")]
    if std::env::var_os("DHS_EXPECT_AVX2").is_some() {
        assert!(Kernels::auto().is_accelerated());
        assert_eq!(Kernels::auto().backend_name(), "avx2");
    }
    assert_eq!(Kernels::scalar().backend_name(), "scalar");
}
