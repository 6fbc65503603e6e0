//! AMS-sort-style multi-level sample sort (paper §III-C, Axtmann,
//! Bingmann, Sanders & Schulz \[16\]): recursive splitting into `k`
//! processor groups like HykSort, but splitters come from a one-shot
//! *sample* and the known sampling inaccuracy is mitigated by
//! **overpartitioning** — `a·k` buckets are formed and then assigned
//! contiguously to the `k` groups by measured size, which caps the
//! imbalance a bad sample can cause.

use dhs_core::exchange::{group_of, group_range};
use dhs_core::Key;
use dhs_merge::MergeAlgo;
use dhs_runtime::{AllToAllAlgo, Comm, Work};
use dhs_workloads::SplitMix64;

use crate::stats::AlgoStats;
use crate::tail::{merge_received, regular_splitters, sort_local};

/// How the merge of the received runs is priced. Each source's payload
/// is its buckets for this rank appended in ascending bucket order from
/// its sorted block, so it is one sorted run, merged like every other
/// baseline's.
const MERGE: MergeAlgo = MergeAlgo::Resort;

/// Configuration of the AMS-style sort.
#[derive(Debug, Clone, Copy)]
pub struct AmsConfig {
    /// Processor-group fan-out per level.
    pub k: usize,
    /// Overpartitioning factor `a`: buckets per level = `a·k`.
    pub overpartition: usize,
    /// Sampled keys per rank per level.
    pub oversampling: usize,
    /// Deterministic sampling seed.
    pub seed: u64,
}

impl Default for AmsConfig {
    fn default() -> Self {
        Self {
            k: 4,
            overpartition: 4,
            oversampling: 16,
            seed: 0xA4A5,
        }
    }
}

/// Sort the distributed vector with the AMS-style multi-level sample
/// sort.
pub fn ams_sort<K: Key>(comm: &Comm, local: &mut Vec<K>, cfg: &AmsConfig) -> AlgoStats {
    assert!(cfg.k >= 2 && cfg.overpartition >= 1);
    let mut stats = AlgoStats {
        converged: true,
        ..AlgoStats::default()
    };
    sort_local(comm, local, &mut stats);

    let mut owned: Option<Comm> = None;
    let mut level_seed = cfg.seed;
    loop {
        let cur: &Comm = owned.as_ref().unwrap_or(comm);
        if cur.size() == 1 {
            break;
        }
        level_seed = level_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        match ams_level(cur, local, cfg, level_seed, &mut stats) {
            Some(sub) => owned = Some(sub),
            None => break,
        }
    }
    stats.n_out = local.len();
    stats
}

fn ams_level<K: Key>(
    cur: &Comm,
    local: &mut Vec<K>,
    cfg: &AmsConfig,
    seed: u64,
    stats: &mut AlgoStats,
) -> Option<Comm> {
    let p = cur.size();
    let rank = cur.rank();
    let k = cfg.k.min(p);
    let buckets_n = (cfg.overpartition * k).min(64 * k);
    stats.rounds += 1;

    let n_total: u64 = cur.allreduce_sum(vec![local.len() as u64])[0];
    if n_total == 0 {
        return None;
    }

    // 1. Sampled splitters for a·k buckets.
    let sp_t0 = cur.span("splitting");
    let mut rng = SplitMix64(seed ^ (rank as u64).wrapping_mul(0x2545F4914F6CDD1D));
    let sample: Vec<K> = if local.is_empty() {
        Vec::new()
    } else {
        (0..cfg.oversampling)
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
    stats.splitter_ns += sp_t0.finish();

    // 4. Exchange: bucket b goes to a peer in its group.
    let sp_t1 = cur.span("exchange");
    let mut send: Vec<Vec<K>> = (0..p).map(|_| Vec::new()).collect();
    cur.charge(Work::MoveBytes(std::mem::size_of_val(&local[..]) as u64));
    for (b, &grp) in group_of_bucket.iter().enumerate() {
        let members = group_range(grp, p, k);
        // Spread buckets of the same group over its members.
        let peer = members.start + (rank + b) % members.len();
        send[peer].extend_from_slice(&local[cuts[b]..cuts[b + 1]]);
    }
    let received = cur.exchange(send, AllToAllAlgo::OneFactor);
    stats.exchange_ns += sp_t1.finish();
    debug_assert!(received.runs().all(|r| r.is_sorted()), "AMS run not sorted");

    // 5. Merge received runs.
    *local = merge_received(cur, received, std::mem::take(local), MERGE, stats);

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

    fn check(p: usize, n: usize, modulus: u64, cfg: AmsConfig) -> Vec<usize> {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            ams_sort(comm, &mut local, &cfg);
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
        check(8, 400, u64::MAX, AmsConfig::default());
        check(
            9,
            333,
            u64::MAX,
            AmsConfig {
                k: 3,
                ..Default::default()
            },
        );
        check(5, 200, 11, AmsConfig::default());
        check(4, 100, 1, AmsConfig::default());
    }

    #[test]
    fn overpartitioning_tames_skew() {
        // Zipf-like skew with a weak sample: more buckets per group
        // should cut the imbalance versus no overpartitioning.
        let imbalance = |a: usize| {
            let cfg = AmsConfig {
                overpartition: a,
                oversampling: 4,
                ..Default::default()
            };
            let sizes = check_skewed(16, 2000, cfg);
            *sizes.iter().max().expect("non-empty") as f64 / 2000.0
        };
        fn check_skewed(p: usize, n: usize, cfg: AmsConfig) -> Vec<usize> {
            let out = run(&ClusterConfig::small_cluster(p), move |comm| {
                let mut local: Vec<u64> = keys_for(comm.rank(), n, 1 << 30)
                    .into_iter()
                    .map(|x| if x % 5 != 0 { x % 64 } else { x })
                    .collect();
                ams_sort(comm, &mut local, &cfg);
                local.len()
            });
            out.into_iter().map(|(l, _)| l).collect()
        }
        let heavy = imbalance(1);
        let light = imbalance(8);
        assert!(
            light <= heavy + 0.25,
            "overpartitioned {light} vs plain {heavy}"
        );
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
            ams_sort(comm, &mut local, &AmsConfig::default());
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
            ams_sort(comm, &mut local, &AmsConfig::default());
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
            ams_sort(
                comm,
                &mut local,
                &AmsConfig {
                    k: 4,
                    ..Default::default()
                },
            )
        });
        for (stats, _) in out {
            assert_eq!(stats.rounds, 2);
        }
    }
}
