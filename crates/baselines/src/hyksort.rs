//! HykSort-style hypercube k-way quicksort (paper §III-C, ref \[20\]):
//! recursively split the processor group into `k` subgroups around
//! `k-1` splitters and move each key into its subgroup; after
//! `log_k(P)` levels every rank holds a disjoint key range.
//!
//! The defining trait under study is the **recursive communicator
//! split** — data moves `log_k(P)` times and every level pays an
//! `MPI_Comm_split` (linear in the group size, blocking), which is
//! exactly the overhead the paper's single-exchange design avoids.
//! A level is the histogram sort's group step: a `k`-way search, then
//! [`dhs_core::cut_route_merge`] and [`dhs_core::split_groups`].

use dhs_core::exchange::group_range;
use dhs_core::splitter::{find_splitters, SplitterOptions};
use dhs_core::{cut_route_merge, split_groups, Key, LocalSort, SortStats};
use dhs_merge::MergeAlgo;
use dhs_runtime::Comm;

use crate::tail::{recurse_levels, sort_local};

/// Fan-out per level (`k = 2` degenerates to hypercube quicksort).
const FAN_OUT: usize = 4;

/// Sort the distributed vector with hypercube k-way quicksort. Each
/// level is one round of [`SortStats::iterations`].
pub fn hyksort<K: Key>(comm: &Comm, local: &mut Vec<K>) -> SortStats {
    let mut stats = SortStats::default();
    sort_local(comm, local, &mut stats);
    recurse_levels(comm, |cur| hyksort_level(cur, local, &mut stats));
    stats.n_out = local.len();
    stats
}

/// One level: split the current group into k subgroups, route keys
/// into their subgroup, and return this rank's sub-communicator.
fn hyksort_level<K: Key>(cur: &Comm, local: &mut Vec<K>, stats: &mut SortStats) -> Option<Comm> {
    let p = cur.size();
    let k = FAN_OUT.min(p);
    stats.iterations += 1;

    // k-1 splitters at the group capacity boundaries; capacity of group
    // g = sum of its members' input sizes (keeps per-rank loads close
    // to their inputs). The same gather says whether anything is left.
    let sp = cur.span("prepare");
    let caps: Vec<usize> = cur.allgather(local.len());
    stats.prepare_ns += sp.finish();
    if caps.iter().all(|&c| c == 0) {
        return None;
    }
    let sp = cur.span("histogram");
    let targets: Vec<u64> = (1..k)
        .map(|g| {
            caps[..group_range(g, p, k).start]
                .iter()
                .map(|&c| c as u64)
                .sum()
        })
        .collect();
    let found = find_splitters(cur, local, &targets, 0, SplitterOptions::default());
    stats.probes += found.probes;
    stats.histogram_ns += sp.finish();

    cut_route_merge(
        cur,
        local,
        &found,
        MergeAlgo::KWay,
        LocalSort::Comparison,
        stats,
    );
    Some(split_groups(cur, k, stats))
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
            hyksort(comm, &mut local);
            local
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got, expect, "p={p}");
    }

    #[test]
    fn sorts_with_full_and_partial_levels() {
        // 8 = 4·2 and 5 end on a level narrower than the fan-out; 9
        // splits into uneven groups.
        check(8, 400, u64::MAX);
        check(16, 400, u64::MAX);
        check(9, 123, u64::MAX);
        check(5, 200, u64::MAX);
        check(2, 300, u64::MAX);
    }

    #[test]
    fn duplicates_and_constant() {
        check(8, 300, 11);
        check(4, 100, 1);
    }

    #[test]
    fn level_count_is_log_k_p() {
        let out = run(&ClusterConfig::small_cluster(16), |comm| {
            let mut local = keys_for(comm.rank(), 200, u64::MAX);
            hyksort(comm, &mut local)
        });
        for (stats, _) in out {
            assert_eq!(stats.iterations, 2, "16 ranks at k=4 is two levels");
        }
    }

    #[test]
    fn empty_ranks_ok() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = if comm.rank() == 3 {
                keys_for(3, 444, 1 << 20)
            } else {
                Vec::new()
            };
            hyksort(comm, &mut local);
            local
        });
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got.len(), 444);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }
}
