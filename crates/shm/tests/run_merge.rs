//! The in-place run-merge tree against the `sort_unstable` oracle:
//! any number of runs (empty ones mixed in), degenerate key sets, any
//! scratch length, both ping-pong parities and every thread budget
//! must leave the one ascending permutation in `flat` — and the rule
//! that picks between the tree and a re-sort must be invisible in the
//! output.

use dhs_shm::kernels::Kernels;
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
            merge_runs_in_place(Kernels::auto(), &mut sorted, counts.clone(), &mut scratch, threads);
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
            merge_sorted_runs(Kernels::scalar(), &mut ruled, counts.clone(), &mut Vec::new(), threads);
            prop_assert_eq!(&ruled, &expect);
        }
        // So does the tree itself on the portable kernels, from a
        // scratch it has to size from nothing.
        let mut packed = flat;
        merge_runs_in_place(Kernels::scalar(), &mut packed, counts, &mut Vec::new(), 2);
        prop_assert_eq!(&packed, &expect);
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
                Kernels::auto(),
                &mut sorted,
                counts.clone(),
                &mut Vec::new(),
                threads,
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
        let k = Kernels::auto();
        let (mut ruled, mut treed) = (flat.clone(), flat);
        merge_sorted_runs(k, &mut ruled, counts.clone(), &mut Vec::new(), 1);
        merge_runs_in_place(k, &mut treed, counts, &mut Vec::new(), 1);
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
    let k = Kernels::scalar();
    // Nothing to merge: five empty runs, or no run slots at all.
    for counts in [vec![0; 5], Vec::new()] {
        let mut scratch = vec![9u64; 3];
        merge_runs_in_place(k, &mut [], counts, &mut scratch, 1);
        assert_eq!(scratch, vec![9; 3]);
    }

    let mut flat = vec![1u64, 2, 3];
    let mut scratch = Vec::new();
    merge_runs_in_place(k, &mut flat, vec![0, 3, 0], &mut scratch, 4);
    assert_eq!(flat, vec![1, 2, 3]);
    assert_eq!(scratch.capacity(), 0);
}

#[test]
#[should_panic(expected = "counts must cover the buffer exactly")]
fn mismatched_counts_are_rejected() {
    merge_runs_in_place(
        Kernels::scalar(),
        &mut [1u64, 2, 3],
        vec![1, 1],
        &mut Vec::new(),
        1,
    );
}
