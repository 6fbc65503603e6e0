//! AMS-sort-style multi-level sample sort (paper §III-C, Axtmann,
//! Bingmann, Sanders & Schulz \[16\]): recursive splitting into `k`
//! processor groups like HykSort, but splitters come from a one-shot
//! *sample* and the known sampling inaccuracy is mitigated by
//! **overpartitioning** — `a·k` buckets are formed and then assigned
//! contiguously to the `k` groups by measured size, which caps the
//! imbalance a bad sample can cause.

use dhs_core::exchange::group_range;
use dhs_core::{split_groups, Key, SortStats};
use dhs_merge::MergeAlgo;
use dhs_runtime::{AllToAllAlgo, Comm, Work};
use dhs_workloads::SplitMix64;

use crate::tail::{merge_received, recurse_levels, regular_splitters, sort_local};

/// Processor-group fan-out per level.
const FAN_OUT: usize = 4;

/// Overpartitioning factor `a`: buckets per level = `a·k`.
const OVERPARTITION: usize = 4;

/// Sampled keys per rank per level.
const OVERSAMPLING: usize = 16;

/// Deterministic sampling seed.
const SEED: u64 = 0xA4A5;

/// Sort the distributed vector with the AMS-style multi-level sample
/// sort. Each level is one round of [`SortStats::iterations`].
pub fn ams_sort<K: Key>(comm: &Comm, local: &mut Vec<K>) -> SortStats {
    let mut stats = SortStats::default();
    sort_local(comm, local, &mut stats);
    let mut level_seed = SEED;
    recurse_levels(comm, |cur| {
        level_seed = level_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        ams_level(cur, local, level_seed, &mut stats)
    });
    stats.n_out = local.len();
    stats
}

fn ams_level<K: Key>(
    cur: &Comm,
    local: &mut Vec<K>,
    seed: u64,
    stats: &mut SortStats,
) -> Option<Comm> {
    let p = cur.size();
    let rank = cur.rank();
    let k = FAN_OUT.min(p);
    let buckets_n = (OVERPARTITION * k).min(64 * k);
    stats.iterations += 1;

    let sp = cur.span("prepare");
    let n_total: u64 = cur.allreduce_sum(vec![local.len() as u64])[0];
    stats.prepare_ns += sp.finish();
    if n_total == 0 {
        return None;
    }

    // 1. Sampled splitters for a·k buckets.
    let sp = cur.span("histogram");
    let mut rng = SplitMix64(seed ^ (rank as u64).wrapping_mul(0x2545F4914F6CDD1D));
    let sample: Vec<K> = if local.is_empty() {
        Vec::new()
    } else {
        (0..OVERSAMPLING)
            .map(|_| local[(rng.next_u64() % local.len() as u64) as usize])
            .collect()
    };
    let splitters = regular_splitters(cur, sample, buckets_n);

    // 2. Measure the buckets: local counts, one reduction.
    cur.charge(Work::BinarySearches {
        searches: splitters.len() as u64,
        n: local.len() as u64,
    });
    let mut cuts: Vec<usize> = Vec::with_capacity(buckets_n + 1);
    cuts.push(0);
    for s in &splitters {
        cuts.push(local.partition_point(|x| *x <= *s));
    }
    cuts.push(local.len());
    let local_sizes: Vec<u64> = cuts.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
    let global_sizes = cur.allreduce_sum(local_sizes);

    // 3. Overpartitioning: assign contiguous buckets to groups by
    //    measured size, targeting n_total/k per group.
    let target = n_total.div_ceil(k as u64);
    let mut group_of_bucket = vec![0usize; global_sizes.len()];
    let mut g = 0usize;
    let mut acc = 0u64;
    for (b, &sz) in global_sizes.iter().enumerate() {
        if acc >= target && g + 1 < k {
            g += 1;
            acc = 0;
        }
        group_of_bucket[b] = g;
        acc += sz;
    }
    stats.histogram_ns += sp.finish();

    // 4. Exchange: bucket b goes to a peer in its group.
    let sp = cur.span("exchange");
    let mut send: Vec<Vec<K>> = (0..p).map(|_| Vec::new()).collect();
    cur.charge(Work::MoveBytes(std::mem::size_of_val(&local[..]) as u64));
    for (b, &grp) in group_of_bucket.iter().enumerate() {
        let members = group_range(grp, p, k);
        // Spread buckets of the same group over its members.
        let peer = members.start + (rank + b) % members.len();
        send[peer].extend_from_slice(&local[cuts[b]..cuts[b + 1]]);
    }
    let received = cur.exchange(send, AllToAllAlgo::OneFactor);
    stats.exchange_ns += sp.finish();
    debug_assert!(received.runs().all(|r| r.is_sorted()), "AMS run not sorted");

    // 5. Merge received runs. Each source's payload is its buckets for
    //    this rank appended in ascending bucket order from its sorted
    //    block, so it is one sorted run; the merge is priced as a
    //    re-sort.
    *local = merge_received(
        cur,
        received,
        std::mem::take(local),
        MergeAlgo::Resort,
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

    fn check(p: usize, n: usize, modulus: u64) -> Vec<usize> {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            ams_sort(comm, &mut local);
            local
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got, expect);
        out.into_iter().map(|(l, _)| l.len()).collect()
    }

    #[test]
    fn sorts_various_shapes() {
        check(8, 400, u64::MAX);
        check(9, 333, u64::MAX);
        check(5, 200, 11);
        check(4, 100, 1);
    }

    #[test]
    fn overpartitioning_tames_skew() {
        // Zipf-like skew: the a·k buckets are assigned to groups by
        // measured size, so no rank ends far above the mean.
        let (p, n) = (16, 2000);
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local: Vec<u64> = keys_for(comm.rank(), n, 1 << 30)
                .into_iter()
                .map(|x| if x % 5 != 0 { x % 64 } else { x })
                .collect();
            ams_sort(comm, &mut local);
            local.len()
        });
        let max = out.iter().map(|(l, _)| *l).max().expect("non-empty");
        let imbalance = max as f64 / n as f64;
        // 1.60 at the module constants.
        assert!(imbalance <= 2.0, "imbalance {imbalance}");
    }

    /// Zipf-like skew (four in five keys from 64 values) puts many
    /// buckets of equal keys on one peer. Each source's payload is
    /// still one sorted run — `ams_level` debug-asserts it on every
    /// receiver — so the run merge yields the reference order.
    #[test]
    fn skewed_payloads_are_sorted_runs() {
        let (p, n) = (16, 2000);
        let skewed = |rank: usize| -> Vec<u64> {
            keys_for(rank, n, 1 << 30)
                .into_iter()
                .map(|x| if x % 5 != 0 { x % 64 } else { x })
                .collect()
        };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = skewed(comm.rank());
            ams_sort(comm, &mut local);
            local
        });
        let mut expect: Vec<u64> = (0..p).flat_map(skewed).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.into_iter().flat_map(|(l, _)| l).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_ranks_supported() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = if comm.rank() == 2 {
                keys_for(2, 500, 1 << 20)
            } else {
                Vec::new()
            };
            ams_sort(comm, &mut local);
            local
        });
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got.len(), 500);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn level_count_matches_group_fanout() {
        let out = run(&ClusterConfig::small_cluster(16), |comm| {
            let mut local = keys_for(comm.rank(), 100, u64::MAX);
            ams_sort(comm, &mut local)
        });
        for (stats, _) in out {
            assert_eq!(stats.iterations, 2);
        }
    }
}
