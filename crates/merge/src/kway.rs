//! k-way merge engines (paper §V-C and the §VI-E2 merge study).
//!
//! Five engines with the trade-offs the paper discusses:
//!
//! * **binary merge tree** — pairwise merges, `O(N log k)` but each
//!   element is copied `log k` times; can start as soon as two chunks
//!   are present.
//! * **tournament tree** — one `O(log k)` comparison path per output
//!   element, `O(N/B)` cache misses when `k` is small; needs all
//!   chunks up front.
//! * **binary heap** — the textbook baseline.
//! * **re-sort** — concatenate and run a full sort; what the paper's
//!   evaluated implementation actually ships ("we rely on another
//!   shared memory sort to merge all sequences").
//! * **funnel** — the cache-oblivious lazy funnel
//!   ([`crate::funnel_merge`]), the paper's future-work direction.

use crate::two_way::merge_into;

/// How the merge of received runs is charged on the virtual clock.
///
/// As `SortConfig::merge` of the distributed sorts the value only
/// *prices* the merge step; the step always executes
/// `dhs_shm::merge_sorted_runs`, so output is the same for both. The
/// §VI-E2 study compares the engines below directly, as functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeAlgo {
    /// Charged as a re-sort of the runs' concatenation (what the
    /// paper's implementation ships, §V-C, and the default
    /// `SortConfig::merge`).
    Resort,
    /// Charged as one k-way merge of the non-empty runs.
    KWay,
}

/// Merge sorted `runs` into one sorted vector: [`resort_merge`] for
/// [`MergeAlgo::Resort`], [`binary_tree_merge`] for [`MergeAlgo::KWay`].
/// Empty runs are permitted. Runs are anything slice-like (`Vec<T>`,
/// `&[T]`, the per-source views of a `RecvRuns` buffer, ...). No sort
/// in the workspace calls it; it stays for the repository benchmark's
/// layer replay, which executes the merge the configuration names.
pub fn kway_merge<T: Ord + Copy, R: AsRef<[T]>>(algo: MergeAlgo, runs: &[R]) -> Vec<T> {
    match algo {
        MergeAlgo::Resort => resort_merge(runs),
        MergeAlgo::KWay => binary_tree_merge(runs),
    }
}

/// Pairwise binary merge tree: repeatedly merge adjacent pairs.
pub fn binary_tree_merge<T: Ord + Copy, R: AsRef<[T]>>(runs: &[R]) -> Vec<T> {
    let slices: Vec<&[T]> = runs
        .iter()
        .map(AsRef::as_ref)
        .filter(|r| !r.is_empty())
        .collect();
    if slices.is_empty() {
        return Vec::new();
    }
    // First level merges the borrowed runs directly; only the merged
    // intermediates are owned.
    let mut level: Vec<Vec<T>> = Vec::with_capacity(slices.len().div_ceil(2));
    let mut first = slices.chunks_exact(2);
    for pair in &mut first {
        level.push(merge_pair(pair[0], pair[1]));
    }
    if let [odd] = first.remainder() {
        level.push(odd.to_vec());
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.chunks_exact(2);
        for pair in &mut it {
            next.push(merge_pair(&pair[0], &pair[1]));
        }
        if let [odd] = it.remainder() {
            next.push(odd.clone());
        }
        level = next;
    }
    level.pop().expect("one run remains")
}

/// One node of [`binary_tree_merge`]: a fresh vector holding the
/// [`merge_into`] of `a` and `b`.
fn merge_pair<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = [a, b].concat();
    merge_into(a, b, &mut out, &T::cmp);
    out
}

/// Tournament (winner) tree: each output element costs one root-to-leaf
/// replay of `O(log k)` comparisons.
pub fn tournament_merge<T: Ord + Copy, R: AsRef<[T]>>(runs: &[R]) -> Vec<T> {
    let total: usize = runs.iter().map(|r| r.as_ref().len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut tree = TournamentTree::new(runs);
    while let Some(x) = tree.pop() {
        out.push(x);
    }
    out
}

/// A winner tree over `k` run cursors. Exhausted runs act as `+inf`.
pub struct TournamentTree<'a, T, R = Vec<T>> {
    runs: &'a [R],
    _elem: std::marker::PhantomData<T>,
    cursors: Vec<usize>,
    /// `winners[1..leaf_base]` are internal nodes holding the run index
    /// of the subtree winner; leaves are implicit.
    winners: Vec<usize>,
    leaf_base: usize,
}

impl<'a, T: Ord + Copy, R: AsRef<[T]>> TournamentTree<'a, T, R> {
    /// Build the winner tree over `runs` (bottom-up, `O(k)`).
    pub fn new(runs: &'a [R]) -> Self {
        let k = runs.len().max(1);
        let leaf_base = k.next_power_of_two();
        let mut t = Self {
            runs,
            _elem: std::marker::PhantomData,
            cursors: vec![0; runs.len()],
            winners: vec![usize::MAX; leaf_base],
            leaf_base,
        };
        // Build bottom-up: every internal node gets the winner of its
        // two children.
        for node in (1..leaf_base).rev() {
            t.winners[node] = t.play(t.child_winner(2 * node), t.child_winner(2 * node + 1));
        }
        t
    }

    /// Current key of run `i`, `None` when exhausted (acts as +inf).
    fn key(&self, run: usize) -> Option<T> {
        if run == usize::MAX {
            return None;
        }
        self.runs
            .get(run)
            .and_then(|r| r.as_ref().get(self.cursors[run]))
            .copied()
    }

    /// Winner stored at a child position (internal node or leaf).
    fn child_winner(&self, pos: usize) -> usize {
        if pos < self.leaf_base {
            self.winners[pos]
        } else {
            let run = pos - self.leaf_base;
            if run < self.runs.len() {
                run
            } else {
                usize::MAX // padding leaf
            }
        }
    }

    /// The run with the smaller current key (+inf for exhausted/padding).
    fn play(&self, a: usize, b: usize) -> usize {
        match (self.key(a), self.key(b)) {
            (None, _) => b,
            (_, None) => a,
            (Some(ka), Some(kb)) => {
                if ka <= kb {
                    a
                } else {
                    b
                }
            }
        }
    }

    /// Pop the global minimum, replaying the winner path of the run it
    /// came from.
    pub fn pop(&mut self) -> Option<T> {
        let winner = if self.leaf_base == 1 {
            self.child_winner(1)
        } else {
            self.winners[1]
        };
        let val = self.key(winner)?;
        self.cursors[winner] += 1;
        // Replay from the winner's leaf to the root.
        let mut pos = (self.leaf_base + winner) / 2;
        while pos >= 1 {
            self.winners[pos] =
                self.play(self.child_winner(2 * pos), self.child_winner(2 * pos + 1));
            if pos == 1 {
                break;
            }
            pos /= 2;
        }
        Some(val)
    }
}

/// Binary-heap k-way merge.
pub fn heap_merge<T: Ord + Copy, R: AsRef<[T]>>(runs: &[R]) -> Vec<T> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total: usize = runs.iter().map(|r| r.as_ref().len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<(T, usize, usize)>> = runs
        .iter()
        .map(AsRef::as_ref)
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(i, r)| Reverse((r[0], i, 0)))
        .collect();
    while let Some(Reverse((x, run, idx))) = heap.pop() {
        out.push(x);
        if let Some(&next) = runs[run].as_ref().get(idx + 1) {
            heap.push(Reverse((next, run, idx + 1)));
        }
    }
    out
}

/// Concatenate and re-sort (the strategy the paper's implementation
/// uses for the final merge phase).
pub fn resort_merge<T: Ord + Copy, R: AsRef<[T]>>(runs: &[R]) -> Vec<T> {
    let mut out: Vec<T> = runs.iter().flat_map(|r| r.as_ref()).copied().collect();
    out.sort_unstable();
    out
}

/// The §VI-E2 engines over `u64` runs, labelled and ordered as the
/// merge study (`fig_merge_study`) and its micro-benchmark report them.
#[allow(clippy::type_complexity)]
pub const ENGINES: [(&str, fn(&[Vec<u64>]) -> Vec<u64>); 5] = [
    ("binary-tree", binary_tree_merge),
    ("tournament-tree", tournament_merge),
    ("heap", heap_merge),
    ("re-sort", resort_merge),
    ("funnel", crate::funnel_merge),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(k: usize, n_each: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut x = seed | 1;
        (0..k)
            .map(|_| {
                let mut run: Vec<u64> = (0..n_each)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % 10_000
                    })
                    .collect();
                run.sort_unstable();
                run
            })
            .collect()
    }

    fn reference(runs: &[Vec<u64>]) -> Vec<u64> {
        let mut all: Vec<u64> = runs.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    type Engine = fn(&[Vec<u64>]) -> Vec<u64>;

    /// Every §VI-E2 engine, and [`kway_merge`] under both values.
    fn engines() -> impl Iterator<Item = (&'static str, Engine)> {
        ENGINES.into_iter().chain([
            (
                "kway_merge(Resort)",
                (|r| kway_merge(MergeAlgo::Resort, r)) as Engine,
            ),
            ("kway_merge(KWay)", |r| kway_merge(MergeAlgo::KWay, r)),
        ])
    }

    #[test]
    fn all_engines_agree_with_reference() {
        for k in [1usize, 2, 3, 5, 8, 17] {
            let runs = fixture(k, 100, k as u64);
            let expect = reference(&runs);
            for (label, merge) in engines() {
                assert_eq!(merge(&runs), expect, "k={k} engine={label}");
            }
        }
    }

    #[test]
    fn empty_and_mixed_runs() {
        let runs: Vec<Vec<u64>> = vec![vec![], vec![3, 7], vec![], vec![1, 9], vec![]];
        let expect = vec![1, 3, 7, 9];
        for (label, merge) in engines() {
            assert_eq!(merge(&runs), expect, "engine={label}");
        }
    }

    #[test]
    fn no_runs_at_all() {
        for (label, merge) in engines() {
            assert_eq!(merge(&[]), Vec::<u64>::new(), "engine={label}");
        }
    }

    #[test]
    fn duplicate_heavy_runs() {
        let runs = vec![vec![5u64; 50], vec![5u64; 50], vec![1u64; 10]];
        let expect = reference(&runs);
        for (label, merge) in engines() {
            assert_eq!(merge(&runs), expect, "engine={label}");
        }
    }

    #[test]
    fn single_run_passthrough() {
        let runs = vec![vec![1u64, 2, 3]];
        for (label, merge) in engines() {
            assert_eq!(merge(&runs), vec![1, 2, 3], "engine={label}");
        }
    }

    #[test]
    fn tournament_tree_incremental_pop() {
        let runs = vec![vec![2u64, 4], vec![1, 3]];
        let mut t = TournamentTree::new(&runs);
        assert_eq!(t.pop(), Some(1));
        assert_eq!(t.pop(), Some(2));
        assert_eq!(t.pop(), Some(3));
        assert_eq!(t.pop(), Some(4));
        assert_eq!(t.pop(), None);
        assert_eq!(t.pop(), None);
    }

    #[test]
    fn non_power_of_two_fanin() {
        let runs = fixture(13, 37, 99);
        assert_eq!(tournament_merge(&runs), reference(&runs));
    }
}
