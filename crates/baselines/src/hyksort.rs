//! HykSort-style hypercube k-way quicksort (paper §III-C, ref \[20\]):
//! recursively split the processor group into `k` subgroups around
//! `k-1` splitters and move each key into its subgroup; after
//! `log_k(P)` levels every rank holds a disjoint key range.
//!
//! The defining trait under study is the **recursive communicator
//! split** — data moves `log_k(P)` times and every level pays an
//! `MPI_Comm_split` (linear in the group size, blocking), which is
//! exactly the overhead the paper's single-exchange design avoids.

use dhs_core::exchange::{exchange_data, group_of, group_range, plan_exchange};
use dhs_core::splitter::find_splitters;
use dhs_core::Key;
use dhs_merge::MergeAlgo;
use dhs_runtime::{AllToAllAlgo, Comm};

use crate::stats::AlgoStats;
use crate::tail::{merge_received, sort_local};

/// Merge engine for the received runs at each level.
const MERGE: MergeAlgo = MergeAlgo::TournamentTree;

/// Configuration of HykSort.
#[derive(Debug, Clone, Copy)]
pub struct HyksortConfig {
    /// Fan-out per level (`k = 2` degenerates to hypercube quicksort).
    pub k: usize,
}

impl Default for HyksortConfig {
    fn default() -> Self {
        Self { k: 4 }
    }
}

/// Sort the distributed vector with hypercube k-way quicksort.
pub fn hyksort<K: Key>(comm: &Comm, local: &mut Vec<K>, cfg: &HyksortConfig) -> AlgoStats {
    assert!(cfg.k >= 2, "fan-out must be at least 2");
    let mut stats = AlgoStats {
        converged: true,
        ..AlgoStats::default()
    };
    sort_local(comm, local, &mut stats);

    // Recursion: `level` borrows either the root comm or an owned
    // sub-communicator.
    let mut owned: Option<Comm> = None;
    loop {
        let cur: &Comm = owned.as_ref().unwrap_or(comm);
        if cur.size() == 1 {
            break;
        }
        match hyksort_level(cur, local, cfg, &mut stats) {
            Some(sub) => owned = Some(sub),
            None => break, // globally empty
        }
    }
    stats.n_out = local.len();
    stats
}

/// One level: split the current group into k subgroups, exchange keys
/// into their subgroup, and return this rank's sub-communicator.
fn hyksort_level<K: Key>(
    cur: &Comm,
    local: &mut Vec<K>,
    cfg: &HyksortConfig,
    stats: &mut AlgoStats,
) -> Option<Comm> {
    let p = cur.size();
    let rank = cur.rank();
    let k = cfg.k.min(p);
    stats.rounds += 1;

    // k-1 splitters at the group capacity boundaries; capacity of group
    // g = sum of its members' input sizes (keeps per-rank loads close
    // to their inputs). The same gather says whether anything is left.
    let sp_t0 = cur.span("splitting");
    let caps: Vec<usize> = cur.allgather(local.len());
    if caps.iter().all(|&c| c == 0) {
        stats.splitter_ns += sp_t0.finish();
        return None;
    }
    let targets: Vec<u64> = (1..k)
        .map(|g| {
            caps[..group_range(g, p, k).start]
                .iter()
                .map(|&c| c as u64)
                .sum()
        })
        .collect();
    let found = find_splitters(cur, local, &targets, 0);
    stats.splitter_ns += sp_t0.finish();

    // The k-way Algorithm 4 cut; segment g goes to one member of
    // `group_range(g, p, k)`.
    let sp_t1 = cur.span("exchange");
    let plan = plan_exchange(cur, local, &found);
    let received = exchange_data(cur, local, &plan, AllToAllAlgo::OneFactor);
    stats.exchange_ns += sp_t1.finish();

    *local = merge_received(cur, received, std::mem::take(local), MERGE, stats);

    // The communicator split the paper calls out as a blocking,
    // linear-cost collective at every level.
    Some(cur.split(group_of(rank, p, k) as u64, rank as u64))
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

    fn check(p: usize, n: usize, modulus: u64, k: usize) {
        let cfg = HyksortConfig { k };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            let stats = hyksort(comm, &mut local, &cfg);
            (local, stats)
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|((l, _), _)| l.clone()).collect();
        assert_eq!(got, expect, "p={p} k={k}");
    }

    #[test]
    fn sorts_with_various_fanouts() {
        check(8, 400, u64::MAX, 2);
        check(8, 400, u64::MAX, 4);
        check(9, 123, u64::MAX, 3);
        check(5, 200, u64::MAX, 4);
    }

    #[test]
    fn duplicates_and_constant() {
        check(8, 300, 11, 2);
        check(4, 100, 1, 2);
    }

    #[test]
    fn level_count_is_log_k_p() {
        let out = run(&ClusterConfig::small_cluster(16), |comm| {
            let mut local = keys_for(comm.rank(), 200, u64::MAX);
            hyksort(comm, &mut local, &HyksortConfig { k: 4 })
        });
        for (stats, _) in out {
            assert_eq!(stats.rounds, 2, "16 ranks at k=4 is two levels");
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
            hyksort(comm, &mut local, &HyksortConfig::default());
            local
        });
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got.len(), 444);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }
}
