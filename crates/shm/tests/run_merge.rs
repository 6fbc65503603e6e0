//! The in-place run-merge tree against the `sort_unstable` oracle:
//! any number of runs (empty ones mixed in), degenerate key sets, any
//! scratch length, both ping-pong parities and every thread budget
//! must leave the one ascending permutation in `flat` — and the rule
//! that picks between the tree and a re-sort must be invisible in the
//! output. And the tree's leaf, the two-ended `dhs_merge::merge_into`,
//! against the std merge: ties, empty and one-sided inputs, unaligned
//! heads. Under a comparator over records the tree and the leaf are
//! the stable sort (`sort_by`) of the runs' concatenation.

use std::cmp::Ordering;

use dhs_merge::merge_into;
use dhs_shm::{merge_runs_in_place, merge_sorted_runs, run_merge_beats_resort};
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

/// `counts.len()` sorted runs back to back; `distinct = 0` draws
/// full-width keys, otherwise keys come from `distinct` values.
fn sorted_runs(seed: u64, counts: &[usize], distinct: u64) -> Vec<u64> {
    let mut next = stream(seed);
    let mut flat = Vec::new();
    for &c in counts {
        let start = flat.len();
        flat.extend((0..c).map(|_| match distinct {
            0 => next(),
            d => next() % d,
        }));
        flat[start..].sort_unstable();
    }
    flat
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
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn tree_matches_sort_unstable(
        seed in 0u64..u64::MAX,
        slots in 0usize..71,
        max_run in 1usize..40,
        // Permille of slots left empty.
        empty_permille in 0u64..1001,
        // 0: full-width keys; 1: all equal; 2: two distinct values.
        distinct in 0u64..3,
        // Scratch shorter than / equal to / longer than n.
        scratch_shape in 0usize..3,
    ) {
        let mut next = stream(seed ^ 0xC0FFEE);
        let counts: Vec<usize> = (0..slots)
            .map(|_| {
                if next() % 1000 < empty_permille {
                    0
                } else {
                    1 + next() as usize % max_run
                }
            })
            .collect();
        let flat = sorted_runs(seed, &counts, distinct);
        let n = flat.len();
        let mut expect = flat.clone();
        expect.sort_unstable();
        let runs = counts.iter().filter(|&&c| c > 0).count();

        for threads in [1usize, 2, 4] {
            let mut scratch: Vec<u64> = match scratch_shape {
                0 => vec![7; n / 2],
                1 => vec![7; n],
                _ => vec![7; n + 13],
            };
            let untouched = scratch.clone();
            let mut sorted = flat.clone();
            merge_runs_in_place(&mut sorted, counts.clone(), &mut scratch, threads, &u64::cmp);
            // Odd and even level counts alike end in `flat`.
            prop_assert_eq!(&sorted, &expect, "runs={} threads={}", runs, threads);
            if runs < 2 {
                // Already sorted: the scratch is not even resized.
                prop_assert_eq!(&scratch, &untouched);
            } else {
                prop_assert_eq!(scratch.len(), n);
            }

            // The rule-driven entry point agrees on either side of
            // its boundary.
            let mut ruled = flat.clone();
            merge_sorted_runs(&mut ruled, counts.clone(), &mut Vec::new(), threads, &u64::cmp);
            prop_assert_eq!(&ruled, &expect);
        }
        // So does the tree itself from a scratch it has to size from
        // nothing.
        let mut packed = flat;
        merge_runs_in_place(&mut packed, counts, &mut Vec::new(), 2, &u64::cmp);
        prop_assert_eq!(&packed, &expect);
    }

    #[test]
    fn leaf_merge_matches_std_merge(
        seed in 0u64..u64::MAX,
        na in 0usize..150,
        nb in 0usize..150,
        // 0: full-width keys; otherwise that many distinct values.
        distinct in 0u64..8,
        offset in 0usize..2,
        sides in 0usize..4,
    ) {
        let (na, nb) = side_lengths(sides, na, nb);
        let a = sorted_runs(seed, &[na + offset], distinct);
        let b = sorted_runs(seed ^ 3, &[nb], distinct);
        let a = &a[offset..]; // unaligned head
        let mut expect: Vec<u64> = a.iter().chain(&b).copied().collect();
        expect.sort_unstable();
        // Both argument orders, so each side is the short one once.
        let mut out = vec![0u64; a.len() + b.len()];
        merge_into(a, &b, &mut out, &u64::cmp);
        prop_assert_eq!(&out, &expect);
        out.fill(0);
        merge_into(&b, a, &mut out, &u64::cmp);
        prop_assert_eq!(&out, &expect);
        // The same merge at another element width.
        let narrow = |v: &[u64]| {
            let mut v: Vec<u32> = v.iter().map(|&x| x as u32).collect();
            v.sort_unstable();
            v
        };
        let (a32, b32) = (narrow(a), narrow(&b));
        let mut expect: Vec<u32> = a32.iter().chain(&b32).copied().collect();
        expect.sort_unstable();
        let mut out = vec![0u32; expect.len()];
        merge_into(&a32, &b32, &mut out, &u32::cmp);
        prop_assert_eq!(&out, &expect);
    }

    /// The two-ended leaf is *stable*: equal keys come out `a`-side
    /// first, in input order within a side, from the front cursor and
    /// the back cursor alike — i.e. the output equals a stable sort of
    /// `a ++ b`.
    #[test]
    fn leaf_merge_takes_ties_from_a_first(
        seed in 0u64..u64::MAX,
        na in 0usize..120,
        nb in 0usize..120,
        distinct in 1u64..6,
        sides in 0usize..4,
    ) {
        let (na, nb) = side_lengths(sides, na, nb);
        let side = |seed: u64, len: usize, tag0: u32| -> Vec<Tagged> {
            sorted_runs(seed, &[len], distinct)
                .iter()
                .enumerate()
                .map(|(i, &key)| Tagged { key, tag: tag0 + i as u32 })
                .collect()
        };
        let a = side(seed, na, 0);
        let b = side(seed ^ 5, nb, 1 << 20);
        let mut expect: Vec<Tagged> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_by_key(|t| t.key); // stable reference
        let mut out = vec![Tagged { key: 0, tag: 0 }; na + nb];
        merge_into(&a, &b, &mut out, &Tagged::cmp);
        let tags = |v: &[Tagged]| v.iter().map(|t| (t.key, t.tag)).collect::<Vec<_>>();
        prop_assert_eq!(tags(&out), tags(&expect));
    }
}

/// The two-ended loop at its boundary: it runs min(|a|, |b|) steps, so
/// here the front and back cursors of the short side meet exactly — it
/// straddles the long side (consumed once from each end), sits wholly
/// below it, wholly above it (the back cursor then compares against an
/// element the front already took), and ties with it. Then the empty
/// and all-equal sides.
#[test]
fn leaf_merge_edge_cases() {
    for (a, b) in [
        (vec![1u64, 100], vec![2u64, 3, 4, 5, 6]),
        (vec![1, 2], vec![3, 4, 5, 6, 7]),
        (vec![8, 9], vec![3, 4, 5, 6, 7]),
        (vec![5], vec![7]),
        (vec![5, 5], vec![5, 5, 5]),
        (vec![3], vec![]),
        (vec![], vec![]),
    ] {
        let mut expect: Vec<u64> = a.iter().chain(&b).copied().collect();
        expect.sort_unstable();
        let mut out = vec![0u64; expect.len()];
        merge_into(&a, &b, &mut out, &u64::cmp);
        assert_eq!(out, expect, "a={a:?} b={b:?}");
        merge_into(&b, &a, &mut out, &u64::cmp);
        assert_eq!(out, expect, "a={b:?} b={a:?}");
    }
}

/// Every tree depth from one level to seven, i.e. both parities of
/// the ping-pong: even depths alternate buffers, odd depths stage
/// their first level — and a run count one past a power of two drags
/// an odd run up the whole tree.
#[test]
fn every_tree_depth_ends_in_flat() {
    for runs in [2usize, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 70] {
        let counts: Vec<usize> = (0..runs).map(|i| 1 + (i * 7) % 5).collect();
        let flat = sorted_runs(runs as u64, &counts, 0);
        let mut expect = flat.clone();
        expect.sort_unstable();
        for threads in [1usize, 4] {
            let mut sorted = flat.clone();
            merge_runs_in_place(
                &mut sorted,
                counts.clone(),
                &mut Vec::new(),
                threads,
                &u64::cmp,
            );
            assert_eq!(sorted, expect, "runs={runs} threads={threads}");
        }
    }
}

/// One shape on each side of the re-sort rule's boundary: 64 runs of
/// 32 keys (the shortest mean run the tree still takes) and 64 runs
/// of 31. The rule flips between them; the output does not.
#[test]
fn resort_rule_boundary_is_invisible() {
    for (per_run, tree) in [(32usize, true), (31, false)] {
        let counts = vec![per_run; 64];
        let flat = sorted_runs(per_run as u64, &counts, 0);
        assert_eq!(run_merge_beats_resort(64, flat.len()), tree);
        let mut expect = flat.clone();
        expect.sort_unstable();
        let (mut ruled, mut treed) = (flat.clone(), flat);
        merge_sorted_runs(&mut ruled, counts.clone(), &mut Vec::new(), 1, &u64::cmp);
        merge_runs_in_place(&mut treed, counts, &mut Vec::new(), 1, &u64::cmp);
        assert_eq!(ruled, expect);
        assert_eq!(treed, expect);
    }
    // Near-empty runs (the p = 1024, 256-keys-per-rank shape) re-sort;
    // fewer than two runs are left alone whatever their length.
    assert!(!run_merge_beats_resort(256, 256));
    assert!(run_merge_beats_resort(1, 5));
    assert!(run_merge_beats_resort(0, 0));
}

/// No run, or one: nothing is merged, nothing is copied, and the
/// scratch is not even resized.
#[test]
fn degenerate_inputs_leave_both_buffers_alone() {
    // Nothing to merge: five empty runs, or no run slots at all.
    for counts in [vec![0; 5], Vec::new()] {
        let mut scratch = vec![9u64; 3];
        merge_runs_in_place(&mut [], counts, &mut scratch, 1, &u64::cmp);
        assert_eq!(scratch, vec![9; 3]);
    }

    let mut flat = vec![1u64, 2, 3];
    let mut scratch = Vec::new();
    merge_runs_in_place(&mut flat, vec![0, 3, 0], &mut scratch, 4, &u64::cmp);
    assert_eq!(flat, vec![1, 2, 3]);
    assert_eq!(scratch.capacity(), 0);
}

#[test]
#[should_panic(expected = "counts must cover the buffer exactly")]
fn mismatched_counts_are_rejected() {
    merge_runs_in_place(&mut [1u64, 2, 3], vec![1, 1], &mut Vec::new(), 1, &u64::cmp);
}

/// A record with drop glue, ordered by its duplicate-heavy key alone;
/// the `String` names the input slot it came from.
type Rec = (u64, String);

fn by_key(x: &Rec, y: &Rec) -> Ordering {
    x.0.cmp(&y.0)
}

/// [`sorted_runs`] as records: each run sorted by key, tagged
/// `{side}{position}` in input order.
fn record_runs(seed: u64, counts: &[usize], distinct: u64, side: char) -> Vec<Rec> {
    sorted_runs(seed, counts, distinct)
        .into_iter()
        .enumerate()
        .map(|(i, key)| (key, format!("{side}{i}")))
        .collect()
}

/// `flat` stably sorted by key: what every comparator merge of its
/// runs must produce.
fn stable(flat: &[Rec]) -> Vec<Rec> {
    let mut v = flat.to_vec();
    v.sort_by(by_key);
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Under a comparator the tree is the stable sort of the runs'
    /// concatenation: equal keys come out in run order, then input
    /// order, for every thread budget.
    #[test]
    fn tree_by_key_is_the_stable_sort_of_records(
        seed in 0u64..u64::MAX,
        slots in 0usize..40,
        max_run in 1usize..30,
        empty_permille in 0u64..1001,
        distinct in 1u64..6,
    ) {
        let mut next = stream(seed ^ 0xBEEF);
        let counts: Vec<usize> = (0..slots)
            .map(|_| {
                if next() % 1000 < empty_permille {
                    0
                } else {
                    1 + next() as usize % max_run
                }
            })
            .collect();
        let flat = record_runs(seed, &counts, distinct, 'r');
        let expect = stable(&flat);
        for threads in [1usize, 2, 4] {
            let mut sorted = flat.clone();
            merge_runs_in_place(&mut sorted, counts.clone(), &mut Vec::new(), threads, &by_key);
            prop_assert_eq!(&sorted, &expect, "threads={}", threads);
        }
    }

    /// The leaf under a comparator is the stable merge: ties from both
    /// sides come out left side first, whichever side is the short one.
    #[test]
    fn leaf_by_key_is_the_stable_merge(
        seed in 0u64..u64::MAX,
        na in 0usize..80,
        nb in 0usize..80,
        distinct in 1u64..5,
        sides in 0usize..4,
    ) {
        let (na, nb) = side_lengths(sides, na, nb);
        let a = record_runs(seed, &[na], distinct, 'a');
        let b = record_runs(seed ^ 9, &[nb], distinct, 'b');
        for (left, right) in [(&a, &b), (&b, &a)] {
            let joined: Vec<Rec> = left.iter().chain(right.iter()).cloned().collect();
            let mut out = vec![(0, String::new()); joined.len()];
            merge_into(left, right, &mut out, &by_key);
            prop_assert_eq!(out, stable(&joined));
        }
    }
}

/// Odd numbers of non-empty runs with empty runs between them, merged
/// by key over a scratch that already holds records (dropped as the
/// tree resizes it): the odd run rides up the tree and stays behind
/// every equal key of the runs before it.
#[test]
fn odd_run_counts_with_empty_runs_keep_run_order() {
    for runs in [1usize, 3, 5, 7, 9, 33] {
        let counts: Vec<usize> = (0..2 * runs + 1)
            .map(|i| if i % 2 == 0 { 0 } else { 1 + (i * 5) % 7 })
            .collect();
        let flat = record_runs(runs as u64, &counts, 3, 'r');
        let expect = stable(&flat);
        for threads in [1usize, 2, 4] {
            let mut sorted = flat.clone();
            let mut scratch = vec![(9, "stale".to_string()); 4];
            merge_runs_in_place(&mut sorted, counts.clone(), &mut scratch, threads, &by_key);
            assert_eq!(sorted, expect, "runs={runs} threads={threads}");
        }
    }
}
