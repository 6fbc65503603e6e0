//! Data-exchange planning and execution (paper §V-B, Algorithm 4).
//!
//! After the splitters are fixed, each rank slices its locally sorted
//! data into one segment per side of the `s ≤ P − 1` splitters. Keys
//! strictly below splitter `S_i` belong to segments `≤ i`
//! unconditionally; keys *equal* to `S_i` form a contingent that is
//! handed out in rank order until each boundary's realized count is met
//! — the refinement that makes *perfect partitioning* exact even with
//! duplicate keys.
//!
//! The contingents are distributed by one exclusive scan (the paper
//! names it as part of this step) over the splitters whose realized
//! boundary splits their equal-key range — none on distinct keys, where
//! the scan is skipped — then the payload moves in a single
//! `ALL-TO-ALLV`. With `s = P − 1` segment `d` goes to rank `d`; with
//! fewer splitters it goes to one member of the `d`-th of `s + 1`
//! contiguous rank groups. The scan is `cut_at_bounds`, over each
//! rank's local `(lower, upper)` of every splitter key. The flat sort
//! takes those bounds from its splitter search, which located them
//! while it histogrammed (`crate::splitter`, "The cuts fall out of the
//! search"), and runs the scan alone; [`crate::cut_route_merge`] cuts
//! with [`plan_exchange`], which locates the keys first, and sample
//! sort and PSRS cut by upper bound. Every such plan is sent by
//! [`exchange_data`] inside [`crate::route_merge`], its one caller in
//! `dhs-core` and `dhs-baselines`.

pub use dhs_runtime::{group_of, group_range};
use dhs_runtime::{AllToAllAlgo, Comm, CutBlock, RecvRuns, Work};

use crate::kernels::Kernels;
use crate::key::Key;
use crate::splitter::{SplitterInfo, SplitterResult};

/// One rank's slice plan: where its sorted local data gets cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangePlan {
    /// `s + 2` ascending cut positions into the local sorted array for
    /// `s` splitters; segment `d` = `local[cuts[d]..cuts[d+1]]` goes to
    /// group `d` ([`exchange_data`]), which at `s = P − 1` is rank `d`.
    pub cuts: Vec<usize>,
    /// This rank's equal-key contingents of the splitters realized
    /// strictly inside their equal-key range, in splitter order:
    /// Algorithm 4's scan input, empty when no splitter is split.
    pub scanned: Vec<u64>,
}

impl ExchangePlan {
    /// Borrow the per-destination segments of the local sorted array:
    /// segment `d` is `local[cuts[d]..cuts[d+1]]`, the slicing rule
    /// [`exchange_data`] sends by.
    pub fn segments<'a, T>(&self, local: &'a [T]) -> Vec<&'a [T]> {
        self.cuts.windows(2).map(|w| &local[w[0]..w[1]]).collect()
    }
}

/// [`plan_exchange`]; the fourth argument has no effect. Stays only
/// because the repository benchmark names it; goes with ROADMAP item 1.
pub fn plan_exchange_with<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    splitters: &SplitterResult<K>,
    _: Kernels,
) -> ExchangePlan {
    plan_exchange(comm, sorted_local, splitters)
}

/// Compute this rank's cut positions (Algorithm 4) for any `s ≤ P − 1`
/// splitters: locate every splitter key in the local block, then
/// `cut_at_bounds`. Collective: every rank must call it with the
/// identical `SplitterResult`. The histogram sort does not call it: its
/// search hands it the bounds.
///
/// The splitter keys arrive ascending (equal targets aside), so each
/// one's `(lower, upper)` bounds are found by exponential search
/// outward from the previous splitter's lower bound — `O(s · log(n/s))`
/// compares. The charge is the paper's `2s` binary searches over the
/// whole local array.
///
/// Both vectors come out of the rank's buffer pool, and
/// [`crate::route_merge`] hands them back once the exchange has
/// returned, so that no buffer idles in the pool while the exchange
/// takes its receive counts from it.
pub fn plan_exchange<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    splitters: &SplitterResult<K>,
) -> ExchangePlan {
    let infos = &splitters.splitters[..];
    let s = infos.len();
    assert!(s < comm.size(), "at most P-1 splitters for P ranks");
    comm.charge(Work::BinarySearches {
        searches: 2 * s as u64,
        n: sorted_local.len() as u64,
    });
    let mut bounds = comm.pool().take_usize();
    bounds.reserve((2 * s).max(s + 2));
    let mut from = 0;
    for info in infos {
        let lower = partition_point_from(sorted_local, from, |x| *x < info.key);
        let upper = partition_point_from(sorted_local, lower, |x| *x <= info.key);
        bounds.extend([lower, upper]);
        from = lower;
    }
    cut_at_bounds(comm, infos, bounds, sorted_local.len())
}

/// Algorithm 4's scan: this rank's cuts from its local bounds of every
/// splitter key (`bounds[2i]` and `bounds[2i + 1]`, the local keys
/// below and up to splitter `i`'s key, over a block of `n_local`),
/// rewritten in place into the `s + 2` cuts. Collective.
///
/// Keys strictly below a splitter's key go left of its cut; its
/// equal-key contingents are filled into its excess over the global
/// strict-lower count in rank order, so a rank needs the contingent
/// mass of the ranks *before* it — one EXCLUSIVE_SCAN (which the paper
/// names as part of this step). Only a splitter realized strictly
/// inside its equal-key range needs it: at `global_lower` the excess is
/// 0 and no rank takes an equal key; at `global_upper` the excess is
/// `U − L`, the sum of all contingents, so every rank takes its whole
/// contingent whatever the ranks before it hold. The scan therefore
/// carries just the split splitters' contingents and is skipped when
/// there are none; every rank reads that set off the shared splitters,
/// so all of them agree on the collective. The cuts are those of the
/// full-width scan.
pub(crate) fn cut_at_bounds<K: Key>(
    comm: &Comm,
    infos: &[SplitterInfo<K>],
    mut bounds: Vec<usize>,
    n_local: usize,
) -> ExchangePlan {
    let s = infos.len();
    debug_assert_eq!(bounds.len(), 2 * s, "a (lower, upper) pair per splitter");
    let is_split = |info: &SplitterInfo<K>| {
        info.global_lower < info.realized && info.realized < info.global_upper
    };
    let take = |info: &SplitterInfo<K>, before_me: u64, contingent: u64| {
        debug_assert!(info.realized >= info.global_lower && info.realized <= info.global_upper);
        let excess = info.realized - info.global_lower;
        excess.saturating_sub(before_me).min(contingent) as usize
    };

    // Cut `i + 1` overwrites the bounds in place once splitter `i`'s, at
    // `2i` and `2i + 1`, have been read; a split splitter's cut is its
    // lower bound until the scan completes it.
    let mut scanned = Vec::new();
    for (i, info) in infos.iter().enumerate() {
        let (lower, upper) = (bounds[2 * i], bounds[2 * i + 1]);
        let contingent = (upper - lower) as u64;
        bounds[i + 1] = if is_split(info) {
            if scanned.is_empty() {
                scanned = comm.pool().take_u64();
            }
            scanned.push(contingent);
            lower
        } else {
            lower + take(info, 0, contingent)
        };
    }
    let mut cuts = bounds;
    cuts.truncate(s + 1);
    match cuts.first_mut() {
        Some(first) => *first = 0,
        None => cuts.push(0),
    }

    let before = (!scanned.is_empty()).then(|| comm.exscan_sum_vec_shared(&scanned));
    comm.charge(Work::Compares(s as u64));
    if let Some(before) = &before {
        let at = (1..=s).filter(|&i| is_split(&infos[i - 1]));
        for ((i, &contingent), &before_me) in at.zip(&scanned).zip(before.iter()) {
            cuts[i] += take(&infos[i - 1], before_me, contingent);
        }
    }
    cuts.push(n_local);

    // Equal targets can make independent splitters non-monotone in
    // degenerate cases; a running max restores a consistent slicing.
    for i in 1..cuts.len() {
        if cuts[i] < cuts[i - 1] {
            cuts[i] = cuts[i - 1];
        }
    }
    ExchangePlan { cuts, scanned }
}

/// `sorted.partition_point(pred)`, found by exponential search outward
/// from `hint` — in whichever direction `pred` points, so `hint` decides
/// only how many compares the answer costs (`O(log distance)`), never
/// the answer.
fn partition_point_from<T>(sorted: &[T], hint: usize, pred: impl Fn(&T) -> bool) -> usize {
    let n = sorted.len();
    let hint = hint.min(n);
    // `pred` holds on `sorted[..lo]` and fails on `sorted[hi..]`.
    let (mut lo, mut hi) = (0, n);
    let mut step = 1;
    if hint < n && pred(&sorted[hint]) {
        lo = hint + 1;
        while lo + step - 1 < n {
            let probe = lo + step - 1;
            if !pred(&sorted[probe]) {
                hi = probe;
                break;
            }
            lo = probe + 1;
            step *= 2;
        }
    } else {
        hi = hint;
        while step <= hi {
            let probe = hi - step;
            if pred(&sorted[probe]) {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    }
    lo + sorted[lo..hi].partition_point(pred)
}

/// Execute the `ALL-TO-ALLV` zero-copy under the given schedule: the
/// plan's segments of `sorted_local` are sent **in place** — the rank
/// deposits a view of the block and its cuts ([`CutBlock`], MPI's send
/// buffer and `sdispls`), nothing per destination — and received into
/// one contiguous [`RecvRuns`] buffer whose per-source runs are sorted
/// (contiguous slices of sorted arrays). The `MoveBytes` charge models
/// the packing pass an MPI implementation still performs.
///
/// Segment `d` of a `w`-way plan goes to one member of
/// [`group_range`]`(d, P, w)`: member `rank mod |group d|`, so the
/// senders spread over the group. At `w = P` every group is one rank
/// and segment `d` goes to rank `d`. Keys and records alike take this
/// path: each element is copied (cloned) exactly once, by its receiver.
pub fn exchange_data<T: Clone + Send + Sync + 'static>(
    comm: &Comm,
    sorted_local: &[T],
    plan: &ExchangePlan,
    algo: AllToAllAlgo,
) -> RecvRuns<T> {
    comm.charge(Work::MoveBytes(std::mem::size_of_val(sorted_local) as u64));
    let block = CutBlock {
        block: sorted_local,
        cuts: &plan.cuts,
    };
    comm.exchange(block, algo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::{find_splitters, perfect_targets, SplitterOptions};
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut v: Vec<u64> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The hint decides the cost of a search, never its result: every
    /// start, in range or past the end, on either side of the answer.
    #[test]
    fn partition_point_from_any_hint() {
        let keys = keys_for(3, 40, 12);
        for len in 0..=keys.len() {
            let sorted = &keys[..len];
            for key in 0..=12 {
                for hint in 0..=len + 2 {
                    let lower = partition_point_from(sorted, hint, |x| *x < key);
                    assert_eq!(lower, sorted.partition_point(|x| *x < key));
                    let upper = partition_point_from(sorted, hint, |x| *x <= key);
                    assert_eq!(upper, sorted.partition_point(|x| *x <= key));
                }
            }
        }
    }

    /// The groups tile `0..p` in order, none empty, and `group_of` is
    /// their inverse.
    #[test]
    fn groups_tile_the_ranks() {
        for p in 1..=40 {
            for w in 1..=p {
                let ranks: Vec<usize> = (0..w).flat_map(|d| group_range(d, p, w)).collect();
                assert_eq!(ranks, (0..p).collect::<Vec<_>>(), "p={p} w={w}");
                for d in 0..w {
                    assert!(!group_range(d, p, w).is_empty(), "p={p} w={w} d={d}");
                    for rank in group_range(d, p, w) {
                        assert_eq!(group_of(rank, p, w), d, "p={p} w={w} rank={rank}");
                    }
                }
            }
        }
    }

    /// Full splitting + exchange pipeline: received counts must equal
    /// the capacities exactly (perfect partitioning), and the received
    /// key ranges must nest between the splitters.
    fn check_pipeline(p: usize, n: usize, modulus: u64) {
        let out = run(&ClusterConfig::small_cluster(p), |comm| {
            let local = keys_for(comm.rank(), n, modulus);
            let caps: Vec<usize> = comm.allgather(local.len());
            let targets = perfect_targets(&caps);
            let res = find_splitters(comm, &local, &targets, 0, SplitterOptions::default());
            let plan = plan_exchange(comm, &local, &res);
            let received = exchange_data(comm, &local, &plan, AllToAllAlgo::OneFactor);
            let recv_count = received.total_len();
            let mut merged: Vec<u64> = received.into_data();
            merged.sort_unstable();
            (recv_count, merged)
        });
        // Perfect partitioning: every rank holds exactly n keys again.
        for (rank, ((count, _), _)) in out.iter().enumerate() {
            assert_eq!(*count, n, "rank {rank} capacity violated");
        }
        // Concatenation of per-rank merged outputs == globally sorted.
        let got: Vec<u64> = out.iter().flat_map(|((_, m), _)| m.clone()).collect();
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn perfect_exchange_unique_keys() {
        check_pipeline(4, 500, u64::MAX);
        check_pipeline(5, 321, u64::MAX);
    }

    #[test]
    fn perfect_exchange_heavy_duplicates() {
        check_pipeline(4, 500, 10);
        check_pipeline(8, 125, 2);
        check_pipeline(3, 400, 1); // all equal
    }

    #[test]
    fn plan_cuts_are_monotone_and_span_local() {
        let out = run(&ClusterConfig::small_cluster(6), |comm| {
            let local = keys_for(comm.rank(), 200, 64);
            let caps: Vec<usize> = comm.allgather(local.len());
            let res = find_splitters(
                comm,
                &local,
                &perfect_targets(&caps),
                0,
                SplitterOptions::default(),
            );
            plan_exchange(comm, &local, &res)
        });
        for (plan, _) in out {
            assert_eq!(plan.cuts[0], 0);
            assert_eq!(*plan.cuts.last().expect("non-empty"), 200);
            assert!(plan.cuts.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(plan.cuts.len(), 7, "one cut per splitter plus both ends");
        }
    }

    #[test]
    fn sparse_input_exchange() {
        // Two ranks hold everything; capacities are preserved.
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let local = if comm.rank() % 2 == 0 {
                keys_for(comm.rank(), 300, 1 << 20)
            } else {
                vec![]
            };
            let caps: Vec<usize> = comm.allgather(local.len());
            let res = find_splitters(
                comm,
                &local,
                &perfect_targets(&caps),
                0,
                SplitterOptions::default(),
            );
            let plan = plan_exchange(comm, &local, &res);
            let received = exchange_data(comm, &local, &plan, AllToAllAlgo::OneFactor);
            received.total_len()
        });
        assert_eq!(out[0].0, 300);
        assert_eq!(out[1].0, 0);
        assert_eq!(out[2].0, 300);
        assert_eq!(out[3].0, 0);
    }
}
