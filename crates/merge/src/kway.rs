//! k-way merge engines (paper §V-C and the §VI-E2 merge study).
//!
//! Four strategies with the trade-offs the paper discusses:
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

use crate::two_way::merge_into;

/// Strategy for merging `k` sorted runs into one.
///
/// [`kway_merge`] runs the engines themselves, for the §VI-E2 study.
/// As `SortConfig::merge` of the distributed sorts a variant only
/// *prices* the merge step — `Resort` as the local-sort model, every
/// other engine as one k-way merge of the received runs — and the step
/// always executes `dhs_shm::merge_sorted_runs`, so output is the same
/// for every engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeAlgo {
    /// Pairwise binary merge tree (`O(N log k)`, `log k` copies).
    BinaryTree,
    /// Tournament (winner) tree: one `O(log k)` path per output.
    TournamentTree,
    /// Textbook binary-heap k-way merge.
    Heap,
    /// Concatenate and re-sort (what the paper's implementation ships,
    /// and the default `SortConfig::merge`).
    Resort,
    /// Cache-oblivious lazy funnel (the paper's §VI-E2 future-work
    /// direction, ref \[36\]).
    Funnel,
}

impl MergeAlgo {
    /// Every engine, in the order the merge study reports them.
    pub const ALL: [MergeAlgo; 5] = [
        MergeAlgo::BinaryTree,
        MergeAlgo::TournamentTree,
        MergeAlgo::Heap,
        MergeAlgo::Resort,
        MergeAlgo::Funnel,
    ];

    /// A short machine-readable name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            MergeAlgo::BinaryTree => "binary-tree",
            MergeAlgo::TournamentTree => "tournament-tree",
            MergeAlgo::Heap => "heap",
            MergeAlgo::Resort => "re-sort",
            MergeAlgo::Funnel => "funnel",
        }
    }
}

/// Merge sorted `runs` into one sorted vector with the chosen engine.
/// Empty runs are permitted. Runs are anything slice-like (`Vec<T>`,
/// `&[T]`, the per-source views of a `RecvRuns` buffer, ...), so
/// callers can merge received data in place without re-boxing it.
pub fn kway_merge<T: Ord + Copy, R: AsRef<[T]>>(algo: MergeAlgo, runs: &[R]) -> Vec<T> {
    match algo {
        MergeAlgo::BinaryTree => binary_tree_merge(runs),
        MergeAlgo::TournamentTree => tournament_merge(runs),
        MergeAlgo::Heap => heap_merge(runs),
        MergeAlgo::Resort => resort_merge(runs),
        MergeAlgo::Funnel => crate::funnel::funnel_merge(runs),
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

    #[test]
    fn all_engines_agree_with_reference() {
        for k in [1usize, 2, 3, 5, 8, 17] {
            let runs = fixture(k, 100, k as u64);
            let expect = reference(&runs);
            for algo in MergeAlgo::ALL {
                assert_eq!(kway_merge(algo, &runs), expect, "k={k} algo={algo:?}");
            }
        }
    }

    #[test]
    fn empty_and_mixed_runs() {
        let runs: Vec<Vec<u64>> = vec![vec![], vec![3, 7], vec![], vec![1, 9], vec![]];
        let expect = vec![1, 3, 7, 9];
        for algo in MergeAlgo::ALL {
            assert_eq!(kway_merge(algo, &runs), expect, "algo={algo:?}");
        }
    }

    #[test]
    fn no_runs_at_all() {
        for algo in MergeAlgo::ALL {
            assert_eq!(kway_merge::<u64, Vec<u64>>(algo, &[]), Vec::<u64>::new());
        }
    }

    #[test]
    fn duplicate_heavy_runs() {
        let runs = vec![vec![5u64; 50], vec![5u64; 50], vec![1u64; 10]];
        let expect = reference(&runs);
        for algo in MergeAlgo::ALL {
            assert_eq!(kway_merge(algo, &runs), expect, "algo={algo:?}");
        }
    }

    #[test]
    fn single_run_passthrough() {
        let runs = vec![vec![1u64, 2, 3]];
        for algo in MergeAlgo::ALL {
            assert_eq!(kway_merge(algo, &runs), vec![1, 2, 3]);
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
