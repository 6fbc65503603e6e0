//! Distributed bitonic sort (paper §III-C, Batcher \[17\]): a sorting
//! network over ranks. Simple and oblivious, but every key crosses the
//! network `O(log² P)` times — the paper's point for why it "cannot
//! keep up with sample sort if N/P >> 1".
//!
//! Like the Charm++ implementation the paper benchmarks, this baseline
//! inherits the classic constraints: the rank count must be a power of
//! two and all ranks must hold equally many keys.
//!
//! Each compare-split step is one [`Comm::exchange`] in which every rank
//! sends its whole block to exactly one partner, priced by the sparse
//! single-stage schedule (`StagedKWay` with `k = P`): one `α + bytes·β`
//! per side, nothing for the `P − 2` empty peers.

use dhs_core::{Key, SortStats};
use dhs_merge::merge_into;
use dhs_runtime::{AllToAllAlgo, Comm, Work};

use crate::tail::sort_local;

/// Sort the distributed vector with a bitonic network. Each
/// compare-split step is one round of [`SortStats::iterations`].
///
/// # Panics
/// Panics unless `P` is a power of two and all local sizes are equal
/// (the constraints the paper calls out for such implementations).
pub fn bitonic_sort<K: Key>(comm: &Comm, local: &mut Vec<K>) -> SortStats {
    let p = comm.size();
    assert!(
        p.is_power_of_two(),
        "bitonic sort requires a power-of-two rank count, got {p}"
    );
    let mut stats = SortStats::default();
    let sp = comm.span("prepare");
    let sizes: Vec<usize> = comm.allgather(local.len());
    stats.prepare_ns += sp.finish();
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "bitonic sort requires equal local sizes, got {sizes:?}"
    );

    let elem = std::mem::size_of::<K>() as u64;
    let n = local.len();

    sort_local(comm, local, &mut stats);

    let stages = p.trailing_zeros();
    let rank = comm.rank();
    let one_peer = AllToAllAlgo::StagedKWay { k: p };
    for stage in 1..=stages {
        for step in (0..stage).rev() {
            let partner = rank ^ (1 << step);
            let ascending = (rank >> stage) & 1 == 0;
            stats.iterations += 1;

            // Full-volume compare-split with the partner.
            let sp = comm.span("exchange");
            let mut segs: Vec<&[K]> = vec![&[]; p];
            segs[partner] = local;
            let (theirs, _) = comm.exchange(&segs[..], one_peer).into_parts();
            stats.exchange_ns += sp.finish();

            let sp = comm.span("merge");
            comm.charge(Work::MergeElems {
                n: 2 * n as u64,
                ways: 2,
                elem_bytes: elem,
            });
            let mut merged = [local.as_slice(), &theirs].concat();
            merge_into(local, &theirs, &mut merged, &K::cmp);
            if (rank < partner) == ascending {
                merged.truncate(n);
            } else {
                merged.drain(..n);
            }
            *local = merged;
            stats.merge_ns += sp.finish();
        }
    }
    stats.n_out = local.len();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect()
    }

    fn check(p: usize, n: usize, modulus: u64) {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            let stats = bitonic_sort(comm, &mut local);
            (local, stats)
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|((l, _), _)| l.clone()).collect();
        assert_eq!(got, expect, "p={p}");
        // Equal-size invariant preserved (a sorting network permutes).
        for ((l, _), _) in &out {
            assert_eq!(l.len(), n);
        }
    }

    #[test]
    fn sorts_power_of_two_ranks() {
        check(2, 500, u64::MAX);
        check(4, 250, u64::MAX);
        check(8, 125, u64::MAX);
        check(16, 64, u64::MAX);
    }

    #[test]
    fn duplicates_and_constant() {
        check(4, 200, 5);
        check(8, 100, 1);
    }

    #[test]
    fn round_count_is_log_squared() {
        let out = run(&ClusterConfig::small_cluster(8), |comm| {
            let mut local = keys_for(comm.rank(), 50, 1 << 30);
            bitonic_sort(comm, &mut local)
        });
        for (stats, _) in out {
            // stages 1+2+3 = 6 compare-split rounds for P=8.
            assert_eq!(stats.iterations, 6);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let _ = run(&ClusterConfig::small_cluster(3), |comm| {
            let mut local = keys_for(comm.rank(), 10, 100);
            bitonic_sort(comm, &mut local);
        });
    }

    #[test]
    #[should_panic(expected = "equal local sizes")]
    fn rejects_uneven_sizes() {
        let _ = run(&ClusterConfig::small_cluster(2), |comm| {
            let mut local = keys_for(comm.rank(), 10 + comm.rank(), 100);
            bitonic_sort(comm, &mut local);
        });
    }
}
