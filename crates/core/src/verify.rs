//! Output-invariant verification: the machine-checkable form of the
//! paper's §II output conditions, usable by applications after a sort
//! (and used heavily by this repository's own test suites).

use dhs_runtime::Comm;

use crate::key::Key;

/// A violation of the sorted-output invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortViolation {
    /// `local[i] > local[i+1]` on some rank.
    LocalOrder {
        /// Rank holding the out-of-order pair.
        rank: usize,
        /// Index of the first element of the inverted pair.
        index: usize,
    },
    /// The last key of `rank` exceeds the first key of `rank + 1`.
    BoundaryOrder {
        /// The left rank of the violated boundary.
        rank: usize,
    },
    /// The global key count changed.
    CountMismatch {
        /// Global key count before the sort.
        before: u64,
        /// Global key count after the sort.
        after: u64,
    },
    /// The multiset of keys changed (checksum mismatch).
    ChecksumMismatch,
}

/// Order-independent multiset fingerprint of a rank's keys. Collisions
/// are possible in principle but astronomically unlikely for test
/// purposes; the integration tests additionally compare full multisets.
pub fn multiset_fingerprint<K: Key>(keys: &[K]) -> (u64, u64) {
    let mut sum = 0u64;
    let mut mix = 0u64;
    for &k in keys {
        let b = k.to_bits();
        let lo = b as u64;
        let hi = (b >> 64) as u64;
        let mut h = lo ^ hi.rotate_left(32);
        // splitmix-style avalanche so permutations hash identically
        // but multiset changes do not cancel.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        sum = sum.wrapping_add(h);
        mix ^= h.rotate_left((lo % 63) as u32);
    }
    (sum, mix)
}

/// Collectively verify the §II output invariant over all ranks:
/// locally sorted, globally ordered by rank, and (given the input
/// fingerprint from [`multiset_fingerprint`] and count) a permutation
/// of the input. Returns the first violation found, or `None`.
pub fn verify_sorted<K: Key>(
    comm: &Comm,
    local: &[K],
    input_fingerprint: (u64, u64),
    input_count: u64,
) -> Option<SortViolation> {
    // Local order.
    for (i, w) in local.windows(2).enumerate() {
        if w[0] > w[1] {
            // Every rank must agree on the outcome: funnel through the
            // reductions below regardless.
            return violation_consensus(
                comm,
                Some(SortViolation::LocalOrder {
                    rank: comm.rank(),
                    index: i,
                }),
                local,
                input_fingerprint,
                input_count,
            );
        }
    }
    violation_consensus(comm, None, local, input_fingerprint, input_count)
}

/// The verdict every rank returns, decided once: each check over
/// gathered values runs in its `allgather`'s `finish`, on whichever
/// rank completes it, and the result is shared, so no rank holds a
/// copy of the `P` gathered entries.
fn violation_consensus<K: Key>(
    comm: &Comm,
    mine: Option<SortViolation>,
    local: &[K],
    input_fingerprint: (u64, u64),
    input_count: u64,
) -> Option<SortViolation> {
    // Boundary check: gather each rank's (first, last).
    let ends = local
        .first()
        .map(|f| (f.to_bits(), local.last().expect("non-empty").to_bits()));
    let boundary = comm.allgather_then(ends, |ends: Vec<Option<(u128, u128)>>| {
        let mut prev_last: Option<u128> = None;
        let held = ends.into_iter().enumerate();
        for (rank, (first, last)) in held.filter_map(|(rank, e)| Some((rank, e?))) {
            if prev_last.is_some_and(|prev| prev > first) {
                return Some(SortViolation::BoundaryOrder { rank });
            }
            prev_last = Some(last);
        }
        None
    });
    // Permutation check: reduce counts and fingerprints.
    let (s, m) = multiset_fingerprint(local);
    let sums = comm.allreduce_sum(vec![local.len() as u64, s]);
    let mixes = comm.allreduce_with(vec![m], |a, b| a ^ b);
    let (in_sum, in_mix) = input_fingerprint;
    let permutation = if sums[0] != input_count {
        Some(SortViolation::CountMismatch {
            before: input_count,
            after: sums[0],
        })
    } else if sums[1] != in_sum || mixes[0] != in_mix {
        Some(SortViolation::ChecksumMismatch)
    } else {
        None
    };

    // Local violations win (report the lowest rank's), then the
    // boundaries, then the permutation.
    let verdict = comm.allgather_then(mine, move |locals| {
        let local_order = locals.into_iter().flatten().next();
        local_order.or_else(|| (*boundary).clone()).or(permutation)
    });
    (*verdict).clone()
}

/// Global fingerprint of the distributed input (call *before* sorting;
/// collective).
pub fn global_fingerprint<K: Key>(comm: &Comm, local: &[K]) -> ((u64, u64), u64) {
    let (s, m) = multiset_fingerprint(local);
    let sums = comm.allreduce_sum(vec![local.len() as u64, s]);
    let mixes = comm.allreduce_with(vec![m], |a, b| a ^ b);
    ((sums[1], mixes[0]), sums[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::{histogram_sort, SortConfig};
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 10_000
            })
            .collect()
    }

    #[test]
    fn clean_sort_verifies() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = keys_for(comm.rank(), 500);
            let (fp, n) = global_fingerprint(comm, &local);
            histogram_sort(comm, &mut local, &SortConfig::default());
            verify_sorted(comm, &local, fp, n)
        });
        assert!(out.iter().all(|(v, _)| v.is_none()), "{out:?}");
    }

    #[test]
    fn detects_local_disorder() {
        let out = run(&ClusterConfig::small_cluster(2), |comm| {
            let mut local = keys_for(comm.rank(), 100);
            let (fp, n) = global_fingerprint(comm, &local);
            histogram_sort(comm, &mut local, &SortConfig::default());
            if comm.rank() == 1 {
                local.swap(0, 50);
            }
            verify_sorted(comm, &local, fp, n)
        });
        assert!(out
            .iter()
            .any(|(v, _)| matches!(v, Some(SortViolation::LocalOrder { rank: 1, .. }))));
    }

    #[test]
    fn detects_boundary_violation() {
        let out = run(&ClusterConfig::small_cluster(2), |comm| {
            // Sorted locally but ranges swapped between ranks.
            let local: Vec<u64> = if comm.rank() == 0 {
                vec![100, 200]
            } else {
                vec![1, 2]
            };
            let (fp, n) = global_fingerprint(comm, &local);
            verify_sorted(comm, &local, fp, n)
        });
        assert!(out
            .iter()
            .all(|(v, _)| matches!(v, Some(SortViolation::BoundaryOrder { rank: 1 }))));
    }

    #[test]
    fn detects_lost_keys() {
        let out = run(&ClusterConfig::small_cluster(2), |comm| {
            // Disjoint, globally ordered ranges so only the count trips.
            let base = comm.rank() as u64 * 1_000_000;
            let mut local: Vec<u64> = (0..100).map(|i| base + i).collect();
            let (fp, n) = global_fingerprint(comm, &local);
            if comm.rank() == 0 {
                local.pop();
            }
            verify_sorted(comm, &local, fp, n)
        });
        assert!(out
            .iter()
            .all(|(v, _)| matches!(v, Some(SortViolation::CountMismatch { .. }))));
    }

    #[test]
    fn detects_substituted_keys() {
        let out = run(&ClusterConfig::small_cluster(2), |comm| {
            let base = comm.rank() as u64 * 1_000_000;
            let mut local: Vec<u64> = (0..100).map(|i| base + i).collect();
            let (fp, n) = global_fingerprint(comm, &local);
            if comm.rank() == 0 {
                local[50] += 1; // still sorted, same count, new multiset
            }
            verify_sorted(comm, &local, fp, n)
        });
        assert!(out
            .iter()
            .all(|(v, _)| matches!(v, Some(SortViolation::ChecksumMismatch))));
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = multiset_fingerprint(&[3u64, 1, 2]);
        let b = multiset_fingerprint(&[2u64, 3, 1]);
        assert_eq!(a, b);
        let c = multiset_fingerprint(&[3u64, 1, 1]);
        assert_ne!(a, c);
    }
}
