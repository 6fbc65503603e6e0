//! Parallel Sorting by Regular Sampling (paper §III-A, refs \[12\], \[13\]):
//! sample sort with *regular* instead of random samples — probes are
//! taken at regular positions of the locally **sorted** data, which in
//! practice yields near-perfect balancing deterministically.

use dhs_core::{Key, SortStats};
use dhs_merge::MergeAlgo;
use dhs_runtime::Comm;

use crate::tail::{merge_received, regular_splitters, sort_local, upper_bound_exchange};

/// Sort the distributed vector by PSRS: one sampling round.
pub fn psrs<K: Key>(comm: &Comm, local: &mut Vec<K>) -> SortStats {
    let mut stats = SortStats {
        iterations: 1,
        ..SortStats::default()
    };
    let p = comm.size();

    // Step 1: local sort.
    sort_local(comm, local, &mut stats);

    // Step 2: regular sampling — P-1 probes at positions i·n/P of the
    // sorted local data; gather everywhere; take the P-1 regular
    // splitters of the sorted sample.
    let sp = comm.span("histogram");
    let probes: Vec<K> = (1..p)
        .filter_map(|i| local.get(i * local.len() / p).copied())
        .collect();
    let splitters = regular_splitters(comm, probes, p);
    stats.histogram_ns += sp.finish();

    // Step 3: partition (binary search, data already sorted) and
    // exchange; step 4: k-way merge of the sorted runs.
    let received = upper_bound_exchange(comm, local, &splitters, &mut stats);
    *local = merge_received(
        comm,
        received,
        std::mem::take(local),
        MergeAlgo::KWay,
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

    fn check(p: usize, n: usize, modulus: u64) -> Vec<usize> {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            psrs(comm, &mut local);
            local
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got, expect);
        out.into_iter().map(|(l, _)| l.len()).collect()
    }

    #[test]
    fn sorts_correctly() {
        check(4, 1000, u64::MAX);
        check(5, 333, 1 << 16);
        check(3, 100, 1);
    }

    #[test]
    fn regular_sampling_balances_well_on_uniform_input() {
        let sizes = check(8, 4000, u64::MAX);
        let max = *sizes.iter().max().expect("non-empty");
        // PSRS guarantees < 2n/p per rank; uniform data lands well
        // under 1.5x in practice.
        assert!(max < 4000 * 3 / 2, "PSRS imbalance too high: {sizes:?}");
    }

    #[test]
    fn handles_empty_ranks() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = if comm.rank() >= 2 {
                keys_for(comm.rank(), 400, 1 << 20)
            } else {
                Vec::new()
            };
            psrs(comm, &mut local);
            local
        });
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got.len(), 800);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }
}
