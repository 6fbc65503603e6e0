//! Host-side verification of one sort: per-rank order, cross-rank
//! boundary order, multiset equality with the input and output sizes
//! equal to the perfect-partitioning targets. Works on per-rank
//! digests so an epoch stream can be checked after the world ends
//! without retaining every batch.

use dhs_core::{multiset_fingerprint, perfect_targets};

/// What the benchmark sorts: plain keys or `(key, payload)` records.
pub trait Elem: Clone + Send + Sync + 'static {
    /// The sort key.
    fn key(&self) -> u64;
    /// A 64-bit identity covering every field, so a record whose
    /// payload was lost or swapped changes the multiset fingerprint.
    fn token(&self) -> u64;
}

impl Elem for u64 {
    fn key(&self) -> u64 {
        *self
    }
    fn token(&self) -> u64 {
        *self
    }
}

impl Elem for (u64, u64) {
    fn key(&self) -> u64 {
        self.0
    }
    fn token(&self) -> u64 {
        self.0.rotate_left(32) ^ self.1.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// What the verifier needs to know about one rank's block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDigest {
    pub len: usize,
    /// Non-decreasing by key.
    pub ordered: bool,
    /// `(first key, last key)`, `None` for an empty block.
    pub ends: Option<(u64, u64)>,
    /// [`multiset_fingerprint`] of the block's tokens.
    pub fingerprint: (u64, u64),
}

pub fn digest<T: Elem>(block: &[T]) -> RankDigest {
    let tokens: Vec<u64> = block.iter().map(Elem::token).collect();
    RankDigest {
        len: block.len(),
        ordered: block.windows(2).all(|w| w[0].key() <= w[1].key()),
        ends: block
            .first()
            .map(|f| (f.key(), block.last().expect("non-empty").key())),
        fingerprint: multiset_fingerprint(&tokens),
    }
}

fn global_fingerprint(ranks: &[RankDigest]) -> (u64, u64) {
    ranks.iter().fold((0, 0), |(sum, mix), d| {
        (sum.wrapping_add(d.fingerprint.0), mix ^ d.fingerprint.1)
    })
}

/// Why the verifier rejected a sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    LocalOrder { rank: usize },
    BoundaryOrder { rank: usize },
    Multiset,
    PartitionSize { rank: usize, got: usize, want: u64 },
}

/// Verdict of one sort: the imbalance it achieved and, if any
/// invariant broke, the first violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// `1 + max over ranks of |n_out − target| ÷ (n/p)`; exactly 1 for
    /// a perfect partition.
    pub imbalance_factor: f64,
    pub rejected: Option<Rejected>,
}

/// Check the output digests of one sort against its input digests.
pub fn verify(input: &[RankDigest], output: &[RankDigest]) -> Verdict {
    let p = input.len();
    let caps: Vec<usize> = input.iter().map(|d| d.len).collect();
    let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
    // Perfect partitioning: rank r ends up with the keys between
    // global boundaries r-1 and r.
    let mut bounds = vec![0u64];
    bounds.extend(perfect_targets(&caps));
    bounds.push(n_total);

    let mut max_dev = 0u64;
    let mut rejected = None;
    let mut reject = |r: Rejected| {
        rejected.get_or_insert(r);
    };
    if output.len() != p || global_fingerprint(input) != global_fingerprint(output) {
        reject(Rejected::Multiset);
    }
    let mut prev_last: Option<u64> = None;
    for (rank, d) in output.iter().enumerate() {
        if !d.ordered {
            reject(Rejected::LocalOrder { rank });
        }
        if let Some((first, last)) = d.ends {
            if prev_last.is_some_and(|prev| prev > first) {
                reject(Rejected::BoundaryOrder { rank });
            }
            prev_last = Some(last);
        }
        if rank < p {
            let want = bounds[rank + 1] - bounds[rank];
            let dev = want.abs_diff(d.len as u64);
            max_dev = max_dev.max(dev);
            if dev != 0 {
                reject(Rejected::PartitionSize {
                    rank,
                    got: d.len,
                    want,
                });
            }
        }
    }
    Verdict {
        imbalance_factor: 1.0 + max_dev as f64 * p as f64 / n_total.max(1) as f64,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A correctly sorted 3-rank world with an empty first rank, as
    /// `(input blocks, output blocks)`.
    fn sorted_world() -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let input = vec![vec![], vec![9, 2, 7, 2], vec![5, 1, 8]];
        let output = vec![vec![], vec![1, 2, 2, 5], vec![7, 8, 9]];
        (input, output)
    }

    fn check(input: &[Vec<u64>], output: &[Vec<u64>]) -> Verdict {
        let digests = |blocks: &[Vec<u64>]| blocks.iter().map(|b| digest(b)).collect::<Vec<_>>();
        verify(&digests(input), &digests(output))
    }

    #[test]
    fn accepts_a_correct_sort() {
        let (input, output) = sorted_world();
        let v = check(&input, &output);
        assert_eq!(v.rejected, None);
        assert_eq!(v.imbalance_factor, 1.0);
    }

    #[test]
    fn rejects_a_swapped_pair() {
        let (input, mut output) = sorted_world();
        output[1].swap(0, 3);
        assert_eq!(
            check(&input, &output).rejected,
            Some(Rejected::LocalOrder { rank: 1 })
        );
        // Swapped across a rank boundary: both blocks stay ordered.
        let (_, mut output) = sorted_world();
        output[1][3] = 7;
        output[2][0] = 5;
        assert_eq!(
            check(&input, &output).rejected,
            Some(Rejected::BoundaryOrder { rank: 2 })
        );
    }

    #[test]
    fn rejects_a_dropped_key() {
        let (input, mut output) = sorted_world();
        output[2].pop();
        assert_eq!(check(&input, &output).rejected, Some(Rejected::Multiset));
        // Replaced rather than dropped: sizes hold, multiset does not.
        let (_, mut output) = sorted_world();
        output[2][2] = 10;
        assert_eq!(check(&input, &output).rejected, Some(Rejected::Multiset));
    }

    #[test]
    fn rejects_a_wrong_partition_size() {
        let (input, mut output) = sorted_world();
        let moved = output[2].remove(0);
        output[1].push(moved);
        let v = check(&input, &output);
        assert_eq!(
            v.rejected,
            Some(Rejected::PartitionSize {
                rank: 1,
                got: 5,
                want: 4
            })
        );
        // One key off at n/p = 7/3.
        assert!((v.imbalance_factor - (1.0 + 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn record_token_sees_the_payload() {
        let input = vec![vec![(1u64, 10u64), (2, 20)]];
        let output = vec![vec![(1u64, 20u64), (2, 10)]];
        let digests =
            |blocks: &[Vec<(u64, u64)>]| blocks.iter().map(|b| digest(b)).collect::<Vec<_>>();
        assert_eq!(
            verify(&digests(&input), &digests(&output)).rejected,
            Some(Rejected::Multiset)
        );
    }
}
