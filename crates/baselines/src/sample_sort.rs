//! Sample sort (paper §III-A): the classic three-superstep distribution
//! sort — random sampling, central splitter selection, one all-to-all —
//! with only probabilistic load-balance guarantees.

use dhs_core::{Key, SortStats};
use dhs_merge::MergeAlgo;
use dhs_runtime::{Comm, Work};
use dhs_workloads::SplitMix64;

use crate::tail::{merge_received, regular_splitters, sort_local, upper_bound_exchange};

/// Oversampling ratio `s`: random keys picked per rank. The paper
/// cites `s = ln P / (1 + ε²)`-ish bounds for near-perfect
/// partitioning w.h.p.; practical codes use `Θ(log P)` to `Θ(P)`.
const OVERSAMPLING: usize = 32;

/// Deterministic sampling seed.
const SEED: u64 = 0xDA5A;

/// Sort the distributed vector by sample sort: one sampling round.
/// Output is globally ordered by rank; per-rank sizes are only
/// probabilistically balanced.
pub fn sample_sort<K: Key>(comm: &Comm, local: &mut Vec<K>) -> SortStats {
    let mut stats = SortStats {
        iterations: 1,
        ..SortStats::default()
    };

    // Superstep 1: random sampling on the *unsorted* input.
    let sp = comm.span("histogram");
    let mut rng = SplitMix64(SEED ^ (comm.rank() as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let sample: Vec<K> = if local.is_empty() {
        Vec::new()
    } else {
        (0..OVERSAMPLING)
            .map(|_| local[(rng.next_u64() % local.len() as u64) as usize])
            .collect()
    };
    comm.charge(Work::MoveBytes(std::mem::size_of_val(&sample[..]) as u64));

    // Superstep 2: central splitter selection — samples go to a
    // central processor which sorts them, picks P-1 equidistant
    // splitters and broadcasts only those.
    let splitters = regular_splitters(comm, sample, comm.size());
    stats.histogram_ns += sp.finish();

    // Superstep 3: partition and exchange, then merge the sorted runs.
    sort_local(comm, local, &mut stats);
    let received = upper_bound_exchange(comm, local, &splitters, &mut stats);
    *local = merge_received(
        comm,
        received,
        std::mem::take(local),
        MergeAlgo::Resort,
        &mut stats,
    );
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
            let stats = sample_sort(comm, &mut local);
            (local, stats)
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|((l, _), _)| l.clone()).collect();
        assert_eq!(got, expect);
        let total: usize = out.iter().map(|((l, _), _)| l.len()).sum();
        assert_eq!(total, p * n);
    }

    #[test]
    fn sorts_uniform_input() {
        check(4, 1000, u64::MAX);
        check(7, 300, u64::MAX);
    }

    #[test]
    fn sorts_duplicates_and_constant() {
        check(4, 500, 17);
        check(3, 200, 1);
    }

    #[test]
    fn empty_partitions_ok() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = if comm.rank() == 1 {
                keys_for(1, 500, 1 << 20)
            } else {
                Vec::new()
            };
            sample_sort(comm, &mut local);
            local
        });
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got.len(), 500);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn oversampling_balances_uniform_input() {
        let (p, n) = (8, 4000);
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, u64::MAX);
            sample_sort(comm, &mut local);
            local.len()
        });
        let max = out.iter().map(|(l, _)| *l).max().unwrap_or(0);
        // 32 samples per rank cut 8 buckets of uniform keys well under
        // 1.5× the mean (1.26 here).
        let imbalance = max as f64 / n as f64;
        assert!(imbalance < 1.5, "imbalance {imbalance}");
    }
}
