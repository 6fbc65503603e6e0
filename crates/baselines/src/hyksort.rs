//! HykSort-style hypercube k-way quicksort (paper §III-C, ref \[20\]):
//! recursively split the processor group into `k` subgroups around
//! `k-1` splitters and move each key into its subgroup; after
//! `log_k(P)` levels every rank holds a disjoint key range.
//!
//! The defining trait under study is the **recursive communicator
//! split** — data moves `log_k(P)` times and every level pays an
//! `MPI_Comm_split` (linear in the group size, blocking), which is
//! exactly the overhead the paper's single-exchange design avoids.

use dhs_core::splitter::find_splitters;
use dhs_core::Key;
use dhs_merge::{kway_merge, MergeAlgo};
use dhs_runtime::{AllToAllAlgo, Comm, Work};

use crate::stats::AlgoStats;

/// Configuration of HykSort.
#[derive(Debug, Clone, Copy)]
pub struct HyksortConfig {
    /// Fan-out per level (`k = 2` degenerates to hypercube quicksort).
    pub k: usize,
    /// Merge engine for received runs at each level.
    pub merge: MergeAlgo,
}

impl Default for HyksortConfig {
    fn default() -> Self {
        Self {
            k: 4,
            merge: MergeAlgo::TournamentTree,
        }
    }
}

/// Sort the distributed vector with hypercube k-way quicksort.
pub fn hyksort<K: Key>(comm: &Comm, local: &mut Vec<K>, cfg: &HyksortConfig) -> AlgoStats {
    assert!(cfg.k >= 2, "fan-out must be at least 2");
    let mut stats = AlgoStats {
        converged: true,
        ..AlgoStats::default()
    };
    let elem = std::mem::size_of::<K>() as u64;

    // Initial local sort.
    let sp_t0 = comm.span("sort_merge");
    local.sort_unstable();
    comm.charge(Work::SortElems {
        n: local.len() as u64,
        elem_bytes: elem,
    });
    stats.sort_merge_ns += sp_t0.finish();

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
    let elem = std::mem::size_of::<K>() as u64;
    stats.rounds += 1;

    // Group g covers ranks [g*p/k, (g+1)*p/k).
    let group_start = |g: usize| g * p / k;
    // Invert by scanning (k is small); floor arithmetic on both sides
    // of `group_start` does not invert cleanly when k does not divide p.
    let group_of = |r: usize| {
        (0..k)
            .find(|&g| group_start(g) <= r && r < group_start(g + 1))
            .expect("every rank lies in exactly one group")
    };

    let n_total: u64 = cur.allreduce_sum(vec![local.len() as u64])[0];
    if n_total == 0 {
        return None;
    }

    // k-1 splitters at the group capacity boundaries; capacity of group
    // g = sum of its members' input sizes (keeps per-rank loads close
    // to their inputs).
    let sp_t0 = cur.span("splitting");
    let caps: Vec<usize> = cur.allgather(local.len());
    let mut targets = Vec::with_capacity(k - 1);
    let mut acc = 0u64;
    for g in 0..k - 1 {
        let end = group_start(g + 1);
        acc += caps[group_start(g)..end]
            .iter()
            .map(|&c| c as u64)
            .sum::<u64>();
        targets.push(acc);
    }
    let found = find_splitters(cur, local, &targets, 0);
    stats.splitter_ns += sp_t0.finish();

    // Cut positions with exact equal-key refinement (rank-order
    // contingents, as in Algorithm 4).
    let sp_t1 = cur.span("exchange");
    let mut bounds: Vec<u64> = Vec::with_capacity(2 * (k - 1));
    cur.charge(Work::BinarySearches {
        searches: 2 * (k as u64 - 1),
        n: local.len() as u64,
    });
    for info in found.splitters.iter() {
        bounds.push(local.partition_point(|x| *x < info.key) as u64);
        bounds.push(local.partition_point(|x| *x <= info.key) as u64);
    }
    let all_bounds: Vec<Vec<u64>> = cur.allgatherv(bounds);
    let mut cuts = vec![0usize];
    for (i, info) in found.splitters.iter().enumerate() {
        let mut excess = info.realized - info.global_lower;
        for peer in all_bounds.iter().take(rank) {
            excess = excess.saturating_sub(peer[2 * i + 1] - peer[2 * i]);
        }
        let l = all_bounds[rank][2 * i];
        let u = all_bounds[rank][2 * i + 1];
        cuts.push((l + excess.min(u - l)) as usize);
    }
    cuts.push(local.len());
    for i in 1..cuts.len() {
        if cuts[i] < cuts[i - 1] {
            cuts[i] = cuts[i - 1];
        }
    }

    // Send bucket g to one peer inside group g.
    let mut send: Vec<Vec<K>> = (0..p).map(|_| Vec::new()).collect();
    cur.charge(Work::MoveBytes(local.len() as u64 * elem));
    for g in 0..k {
        let gs = group_start(g);
        let ge = group_start(g + 1);
        let size_g = ge - gs;
        let peer = gs + rank % size_g.max(1);
        send[peer] = local[cuts[g]..cuts[g + 1]].to_vec();
    }
    let received = cur.exchange(send, AllToAllAlgo::OneFactor);
    stats.exchange_ns += sp_t1.finish();

    // Merge what arrived.
    let sp_t2 = cur.span("sort_merge");
    let n_recv: u64 = received.total_len() as u64;
    let ways = received.runs().filter(|r| !r.is_empty()).count() as u64;
    cur.charge(Work::MergeElems {
        n: n_recv,
        ways: ways.max(2),
        elem_bytes: elem,
    });
    *local = kway_merge(cfg.merge, &received.as_slices());
    stats.sort_merge_ns += sp_t2.finish();

    // The communicator split the paper calls out as a blocking,
    // linear-cost collective at every level.
    let g = group_of(rank);
    Some(cur.split(g as u64, rank as u64))
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
        let cfg = HyksortConfig {
            k,
            ..Default::default()
        };
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
            hyksort(
                comm,
                &mut local,
                &HyksortConfig {
                    k: 4,
                    ..Default::default()
                },
            )
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
