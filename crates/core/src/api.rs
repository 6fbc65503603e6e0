//! The DASH-style front door: `std::sort`-like entry points over PGAS
//! global arrays, plus `nth_element` built on distributed selection —
//! the reuse the paper highlights ("we can reuse our distributed
//! selection implementation as a building block in other DASH
//! algorithms, e.g. dash::nth_element").

use std::fmt;

use dhs_pgas::GlobalArray;
use dhs_runtime::Comm;
use dhs_select::dselect;

use crate::key::Key;
use crate::sort::{
    histogram_sort, histogram_sort_by, InvalidSortConfig, Partitioning, SortConfig, SortStats,
};

/// Re-exported so callers configuring [`SortConfig::exchange_algo`]
/// never need a direct `dhs_runtime` dependency: the exchange schedule
/// is part of the sort's public configuration surface.
pub use dhs_runtime::AllToAllAlgo;

/// `nth_element` was asked for an order statistic the array does not
/// have: `k` is not in `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderOutOfRange {
    /// The requested 0-based order statistic.
    pub k: u64,
    /// The global number of elements.
    pub n: u64,
}

impl fmt::Display for OrderOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "order statistic {} out of range for {} global elements",
            self.k, self.n
        )
    }
}

impl std::error::Error for OrderOutOfRange {}

/// Sort a [`GlobalArray`] in place. The array's distribution pattern is
/// immutable, so the sort always runs with *perfect partitioning*
/// (every rank keeps its block size), matching the paper's in-place
/// scenario. Collective.
///
/// # Errors
/// Returns the [`InvalidSortConfig`] when `cfg` fails
/// [`SortConfig::validate`]. The check runs before any communication
/// and every rank sees the same `cfg`, so all ranks return the error
/// together and the array is left untouched.
pub fn sort_array<K: Key>(
    comm: &Comm,
    array: &GlobalArray<K>,
    cfg: &SortConfig,
) -> Result<SortStats, InvalidSortConfig> {
    cfg.validate()?;
    let mut cfg = cfg.clone();
    cfg.partitioning = Partitioning::Perfect;
    cfg.epsilon = 0.0;
    let mut local = array.local_to_vec();
    let stats = histogram_sort(comm, &mut local, &cfg);
    array.replace_local(local);
    array.fence(comm);
    Ok(stats)
}

/// `dash::sort` with defaults.
pub fn sort<K: Key>(comm: &Comm, array: &GlobalArray<K>) -> SortStats {
    sort_array(comm, array, &SortConfig::default()).expect("the default SortConfig is valid")
}

/// Sort records by an extracted key, with defaults: `dash::sort` over
/// arbitrary `T` via the paper's key-exchange path. Collective; the
/// records end up globally ordered by `key_fn` with perfect
/// partitioning (every rank keeps its input count). `key_fn` must be
/// `Sync` so the hybrid rank×thread path may call it from worker
/// threads (any pure projection closure qualifies).
pub fn sort_by_key<T, K, F>(comm: &Comm, local: &mut Vec<T>, key_fn: F) -> SortStats
where
    T: Clone + Send + Sync + 'static,
    K: Key,
    F: Fn(&T) -> K + Sync,
{
    histogram_sort_by(comm, local, key_fn, &SortConfig::default())
}

/// Is the global array sorted (each rank's block sorted, and block
/// boundaries non-decreasing in rank order)? Collective; every rank
/// returns the same answer. Empty blocks are skipped, mirroring the
/// sparse-input tolerance of the sort itself.
pub fn is_sorted<K: Key>(comm: &Comm, array: &GlobalArray<K>) -> bool {
    let (locally, ends) = array.with_local(|local| {
        let locally = local.windows(2).all(|w| w[0] <= w[1]);
        (locally, local.first().copied().zip(local.last().copied()))
    });
    let gathered = comm.allgather((locally, ends));
    let mut prev_last: Option<K> = None;
    for (ok, ends) in gathered {
        if !ok {
            return false;
        }
        if let Some((first, last)) = ends {
            if prev_last.is_some_and(|p| p > first) {
                return false;
            }
            prev_last = Some(last);
        }
    }
    true
}

/// The `k`-th smallest element (0-based) of a global array, without
/// sorting it: `dash::nth_element` on top of Algorithm 1's distributed
/// selection. Collective. Rejects `k >= n` (including the empty array)
/// instead of panicking deep inside the selection loop.
pub fn nth_element<K: Key>(
    comm: &Comm,
    array: &GlobalArray<K>,
    k: u64,
) -> Result<K, OrderOutOfRange> {
    let n = array.global_len() as u64;
    if k >= n {
        return Err(OrderOutOfRange { k, n });
    }
    Ok(array.with_local(|local| dselect(comm, local, k)))
}

/// The global median of a global array (lower median for even sizes),
/// or `None` when the array is globally empty.
pub fn median<K: Key>(comm: &Comm, array: &GlobalArray<K>) -> Option<K> {
    let n = array.global_len() as u64;
    if n == 0 {
        return None;
    }
    nth_element(comm, array, (n - 1) / 2).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1_000_000
            })
            .collect()
    }

    #[test]
    fn sort_array_globally_orders() {
        let p = 4;
        let n = 400;
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let arr = GlobalArray::from_local(comm, keys_for(comm.rank(), n));
            sort(comm, &arr);
            // Read the whole array one-sidedly to verify global order.
            arr.get_range(comm, 0, arr.global_len())
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n)).collect();
        expect.sort_unstable();
        for (v, _) in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn sort_array_rejects_an_invalid_config_on_every_rank() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let cfg = SortConfig {
                epsilon: f64::NAN,
                ..SortConfig::default()
            };
            let before = keys_for(comm.rank(), 50);
            let arr = GlobalArray::from_local(comm, before.clone());
            let err = sort_array(comm, &arr, &cfg).expect_err("NaN epsilon is invalid");
            // No rank entered a collective: the world is still usable
            // and the array is untouched.
            comm.barrier();
            (err, arr.local_to_vec() == before)
        });
        for ((err, untouched), _) in out {
            assert!(matches!(err, InvalidSortConfig::BadEpsilon(e) if e.is_nan()));
            assert!(untouched);
        }
    }

    #[test]
    fn sort_array_preserves_block_sizes() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let n = 100 * (comm.rank() + 1);
            let arr = GlobalArray::from_local(comm, keys_for(comm.rank(), n));
            sort(comm, &arr);
            arr.local_len()
        });
        assert_eq!(
            out.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
    }

    #[test]
    fn nth_element_matches_sorted_reference() {
        let p = 4;
        let n = 300;
        let mut all: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n)).collect();
        all.sort_unstable();
        for k in [0u64, 599, 1199] {
            let expect = all[k as usize];
            let out = run(&ClusterConfig::small_cluster(p), move |comm| {
                let arr = GlobalArray::from_local(comm, keys_for(comm.rank(), n));
                nth_element(comm, &arr, k).expect("k within range")
            });
            for (v, _) in out {
                assert_eq!(v, expect, "k={k}");
            }
        }
    }

    #[test]
    fn sort_by_key_orders_records() {
        let p = 3;
        let n = 200;
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut records: Vec<(u64, usize)> = keys_for(comm.rank(), n)
                .into_iter()
                .map(|k| (k, comm.rank()))
                .collect();
            sort_by_key(comm, &mut records, |r| r.0);
            (
                records.first().copied(),
                records.last().copied(),
                records.len(),
            )
        });
        assert!(out.iter().all(|((_, _, len), _)| *len == n));
        for w in out.windows(2) {
            let (last, first) = (w[0].0 .1, w[1].0 .0);
            assert!(last.zip(first).is_none_or(|(a, b)| a.0 <= b.0));
        }
    }

    #[test]
    fn is_sorted_detects_order_and_disorder() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let arr = GlobalArray::from_local(comm, keys_for(comm.rank(), 50));
            let before = is_sorted(comm, &arr);
            sort(comm, &arr);
            let after = is_sorted(comm, &arr);
            (before, after)
        });
        for ((before, after), _) in out {
            assert!(!before, "pseudo-random input should not be sorted");
            assert!(after, "sorted array must report sorted");
        }
    }

    #[test]
    fn median_of_array() {
        let p = 3;
        let n = 99;
        let mut all: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n)).collect();
        all.sort_unstable();
        let expect = all[(all.len() - 1) / 2];
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let arr = GlobalArray::from_local(comm, keys_for(comm.rank(), n));
            median(comm, &arr)
        });
        for (v, _) in out {
            assert_eq!(v, Some(expect));
        }
    }

    #[test]
    fn out_of_range_order_statistics_are_rejected() {
        let out = run(&ClusterConfig::small_cluster(2), |comm| {
            let arr = GlobalArray::from_local(comm, keys_for(comm.rank(), 10));
            let too_big = nth_element(comm, &arr, 20);
            let empty = GlobalArray::from_local(comm, Vec::<u64>::new());
            (too_big, nth_element(comm, &empty, 0), median(comm, &empty))
        });
        for ((too_big, on_empty, med), _) in out {
            assert_eq!(too_big, Err(OrderOutOfRange { k: 20, n: 20 }));
            assert_eq!(on_empty, Err(OrderOutOfRange { k: 0, n: 0 }));
            assert_eq!(med, None);
        }
    }
}
