//! The α–β communication cost model and compute work charging.
//!
//! Virtual time is kept in integer nanoseconds. Point-to-point transfers
//! between ranks cost `α(link) + bytes · β(link)`; collectives use the
//! standard recursive-doubling / binomial-tree formulas over `⌈log₂ P⌉`
//! rounds at the worst link class present in the communicator, except the
//! personalized all-to-all exchanges which are charged per peer along a
//! 1-factor pairwise schedule (Sanders & Träff \[34\] in the paper).
//!
//! Compute work is charged explicitly by the algorithms through
//! [`Work`] values so that simulated times are deterministic and
//! independent of host oversubscription.

use crate::topology::LinkClass;

/// Latency/bandwidth parameters for one link class.
#[derive(Debug, Clone, Copy)]
pub struct LinkCost {
    /// Per-message latency in nanoseconds.
    pub alpha_ns: f64,
    /// Per-byte transfer cost in nanoseconds.
    pub beta_ns_per_byte: f64,
}

/// Full machine cost model: one [`LinkCost`] per link class plus compute
/// constants calibrated to the Table I Haswell node.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Same-rank copies (memcpy within the local partition).
    pub self_loop: LinkCost,
    /// Shared-memory copy within one NUMA domain.
    pub intra_numa: LinkCost,
    /// Shared-memory copy crossing NUMA domains of one node.
    pub intra_node: LinkCost,
    /// Network transfer between nodes.
    pub inter_node: LinkCost,
    /// When `true`, collective payload between co-located ranks is
    /// charged at shared-memory rates (the DASH/MPI-3 shared window fast
    /// path of Section VI-A1); when `false`, every peer pays network
    /// rates, mimicking an MPI library without shared-memory windows
    /// (the IBM POE case the paper had to exclude).
    pub intranode_fastpath: bool,
    /// Cost of one key comparison (branchy, cached).
    pub compare_ns: f64,
    /// Cost of moving one byte within the local memory hierarchy
    /// (sequential streams).
    pub move_byte_ns: f64,
    /// Cost of one dependent random access (binary-search probes, heap
    /// pokes): dominated by cache misses.
    pub random_access_ns: f64,
    /// Fixed software overhead charged to a rank for posting one
    /// point-to-point message.
    pub post_overhead_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::supermuc_phase2()
    }
}

impl CostModel {
    /// Constants approximating the Table I machine: FDR14 InfiniBand
    /// (~1.5 µs MPI latency, ~6 GB/s effective per-rank bandwidth), QPI
    /// cross-socket copies (~10 GB/s) and intra-NUMA copies (~20 GB/s).
    pub fn supermuc_phase2() -> Self {
        Self {
            self_loop: LinkCost {
                alpha_ns: 0.0,
                beta_ns_per_byte: 0.03,
            },
            intra_numa: LinkCost {
                alpha_ns: 300.0,
                beta_ns_per_byte: 0.05,
            },
            intra_node: LinkCost {
                alpha_ns: 600.0,
                beta_ns_per_byte: 0.10,
            },
            inter_node: LinkCost {
                alpha_ns: 1500.0,
                beta_ns_per_byte: 0.16,
            },
            intranode_fastpath: true,
            compare_ns: 1.0,
            move_byte_ns: 0.10,
            random_access_ns: 6.0,
            post_overhead_ns: 80.0,
        }
    }

    /// Cost parameters for one link class, honouring the intra-node fast
    /// path switch: with the fast path disabled, any non-self transfer is
    /// charged at inter-node rates.
    pub fn link(&self, class: LinkClass) -> LinkCost {
        if !self.intranode_fastpath && class != LinkClass::SelfLoop {
            return self.inter_node;
        }
        match class {
            LinkClass::SelfLoop => self.self_loop,
            LinkClass::IntraNuma => self.intra_numa,
            LinkClass::IntraNode => self.intra_node,
            LinkClass::InterNode => self.inter_node,
        }
    }

    /// Cost of one point-to-point transfer of `bytes` over `class`.
    pub fn p2p_ns(&self, class: LinkClass, bytes: u64) -> u64 {
        let l = self.link(class);
        (l.alpha_ns + bytes as f64 * l.beta_ns_per_byte).ceil() as u64
    }

    /// Barrier: two sweeps of a binomial tree.
    pub fn barrier_ns(&self, class: LinkClass, p: usize) -> u64 {
        let rounds = log2_ceil(p) as f64;
        (2.0 * rounds * self.link(class).alpha_ns).ceil() as u64
    }

    /// Binomial-tree broadcast of `bytes` per rank.
    pub fn bcast_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        (rounds * (l.alpha_ns + bytes as f64 * l.beta_ns_per_byte)).ceil() as u64
    }

    /// Recursive-doubling allreduce of `bytes` per rank; includes the
    /// per-byte reduction work.
    pub fn allreduce_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        let gamma = self.move_byte_ns + 0.2; // combine = load + op per byte
        (rounds * (l.alpha_ns + bytes as f64 * (l.beta_ns_per_byte + gamma))).ceil() as u64
    }

    /// Recursive-doubling allgather: `bytes` contributed per rank,
    /// `(p-1)·bytes` received.
    pub fn allgather_ns(&self, class: LinkClass, p: usize, bytes_per_rank: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        let recv = (p.saturating_sub(1)) as f64 * bytes_per_rank as f64;
        (rounds * l.alpha_ns + recv * l.beta_ns_per_byte).ceil() as u64
    }

    /// Exclusive scan: same round structure as allreduce.
    pub fn exscan_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        self.allreduce_ns(class, p, bytes)
    }

    /// Personalized all-to-all along a 1-factor schedule: the rank pays
    /// `α + bytes·β` per peer at that peer's link class (plus a memcpy
    /// for its own diagonal block). `per_peer` yields `(link, bytes)` for
    /// every peer of this rank.
    pub fn alltoallv_rank_ns<I>(&self, per_peer: I) -> u64
    where
        I: IntoIterator<Item = (LinkClass, u64)>,
    {
        let mut total = 0.0;
        for (class, bytes) in per_peer {
            total += self.alltoallv_peer_ns(class, bytes);
        }
        total.ceil() as u64
    }

    /// One peer's term of [`CostModel::alltoallv_rank_ns`], before the
    /// sum is rounded: the same `(link, bytes)` term is a summand of the
    /// sender's send side and of the receiver's receive side.
    #[inline]
    pub fn alltoallv_peer_ns(&self, class: LinkClass, bytes: u64) -> f64 {
        let l = self.link(class);
        if class == LinkClass::SelfLoop {
            bytes as f64 * l.beta_ns_per_byte
        } else {
            l.alpha_ns + bytes as f64 * l.beta_ns_per_byte
        }
    }

    /// Bruck-style store-and-forward all-to-all: `⌈log₂P⌉` rounds, each
    /// shipping about half of the rank's total personalized payload.
    /// Latency-optimal (log P messages instead of P-1) at the price of
    /// moving the data `~log₂(P)/2` times — the paper's recommendation
    /// "for a relatively small N/P" (§VI-E1).
    pub fn alltoallv_bruck_rank_ns(&self, class: LinkClass, p: usize, total_bytes: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        (rounds * (l.alpha_ns + (total_bytes as f64 / 2.0) * l.beta_ns_per_byte)).ceil() as u64
    }

    /// MPI-style communicator split: linear in the parent communicator
    /// size plus an allgather of the (color, key) pairs.
    pub fn comm_split_ns(&self, class: LinkClass, p: usize) -> u64 {
        let gather = self.allgather_ns(class, p, 16);
        gather + (p as f64 * 20.0).ceil() as u64
    }

    /// Convert a [`Work`] charge into nanoseconds.
    #[inline]
    pub fn work_ns(&self, work: Work) -> u64 {
        let ns = match work {
            Work::Compares(n) => n as f64 * self.compare_ns,
            Work::MoveBytes(b) => b as f64 * self.move_byte_ns,
            Work::RandomAccesses(n) => n as f64 * self.random_access_ns,
            Work::SortElems { n, elem_bytes } => {
                // Comparison sort: n·log₂n compare+move steps.
                if n < 2 {
                    0.0
                } else {
                    let levels = (n as f64).log2();
                    n as f64 * levels * (self.compare_ns + elem_bytes as f64 * self.move_byte_ns)
                }
            }
            Work::MergeElems {
                n,
                ways,
                elem_bytes,
            } => {
                // k-way merge: each element crosses log₂(k) compare/move
                // levels (binary tree) or one O(log k) heap operation
                // (tournament tree) -- same leading term.
                if n == 0 || ways < 2 {
                    0.0
                } else {
                    let levels = (ways as f64).log2().max(1.0);
                    n as f64 * levels * (self.compare_ns + elem_bytes as f64 * self.move_byte_ns)
                }
            }
            Work::BinarySearches { searches, n } => {
                searches as f64 * search_probes(n) as f64 * self.random_access_ns
            }
            Work::Ns(ns) => ns as f64,
        };
        ns.ceil() as u64
    }
}

/// A unit of local computation to charge to a rank's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// `n` key comparisons.
    Compares(u64),
    /// Sequentially streaming `b` bytes (copies, partitions).
    MoveBytes(u64),
    /// `n` dependent random memory accesses.
    RandomAccesses(u64),
    /// Comparison-sorting `n` elements of `elem_bytes` each.
    SortElems {
        /// Element count.
        n: u64,
        /// Size of one element in bytes.
        elem_bytes: u64,
    },
    /// Merging `n` total elements from `ways` sorted runs.
    MergeElems {
        /// Total element count across all runs.
        n: u64,
        /// Number of sorted input runs.
        ways: u64,
        /// Size of one element in bytes.
        elem_bytes: u64,
    },
    /// `searches` binary searches over a sorted run of length `n`.
    ///
    /// `n` is the length of the run *actually searched*: callers that
    /// confine a search to a known sub-range (the splitter search's
    /// shrinking index brackets) pass the bracket width, and the charge
    /// honestly drops to `⌈log₂ width⌉` probes per search — the
    /// virtual-time counterpart of the host-time win. A degenerate run
    /// (`n < 2`) still charges one probe per search: the search must
    /// touch the run to learn it is exhausted.
    BinarySearches {
        /// Number of searches.
        searches: u64,
        /// Length of the sorted run searched.
        n: u64,
    },
    /// A raw nanosecond charge.
    Ns(u64),
}

/// Probes one binary search over a run of `n` elements is charged:
/// `⌈log₂ n⌉`, and one for a degenerate run (`n < 2`).
///
/// The splitter search asks this once per active splitter per round
/// per rank, so it is integer arithmetic. The charge was defined as
/// `(n as f64).log2().ceil()`, which an `f64` logarithm rounds *down*
/// to `k` just above a large power of two (`n = 2^k + 1`, `k ≥ 49` on
/// this libm); the two agree below `2^32` with more than `2^15` ulps
/// to spare, and longer runs (no rank holds one) keep the float
/// formula so that every charge stays bit-identical.
fn search_probes(n: u64) -> u32 {
    if n < 2 {
        1
    } else if n <= u32::MAX as u64 {
        log2_ceil(n as usize)
    } else {
        (n as f64).log2().ceil() as u32
    }
}

/// `⌈log₂ p⌉`, with `log2_ceil(0) == 0` and `log2_ceil(1) == 0`.
pub fn log2_ceil(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn p2p_scales_with_bytes_and_link() {
        let m = CostModel::default();
        let small = m.p2p_ns(LinkClass::InterNode, 64);
        let large = m.p2p_ns(LinkClass::InterNode, 1 << 20);
        assert!(large > small);
        assert!(m.p2p_ns(LinkClass::IntraNuma, 1 << 20) < m.p2p_ns(LinkClass::InterNode, 1 << 20));
    }

    #[test]
    fn fastpath_toggle_upgrades_intranode_to_network() {
        let mut m = CostModel::default();
        let fast = m.p2p_ns(LinkClass::IntraNuma, 1 << 20);
        m.intranode_fastpath = false;
        let slow = m.p2p_ns(LinkClass::IntraNuma, 1 << 20);
        assert!(slow > fast);
        assert_eq!(slow, m.p2p_ns(LinkClass::InterNode, 1 << 20));
    }

    #[test]
    fn collectives_grow_logarithmically() {
        let m = CostModel::default();
        let a = m.allreduce_ns(LinkClass::InterNode, 16, 8);
        let b = m.allreduce_ns(LinkClass::InterNode, 256, 8);
        // 256 ranks = 8 rounds vs 4 rounds: exactly 2x for fixed payload.
        assert_eq!(b, 2 * a);
    }

    #[test]
    fn allgather_volume_dominates_at_scale() {
        let m = CostModel::default();
        let per_rank = 1 << 16;
        let c = m.allgather_ns(LinkClass::InterNode, 64, per_rank);
        let volume = 63 * per_rank;
        assert!(c as f64 > volume as f64 * m.inter_node.beta_ns_per_byte);
    }

    #[test]
    fn bracketed_binary_searches_charge_less() {
        let m = CostModel::default();
        let full = m.work_ns(Work::BinarySearches {
            searches: 6,
            n: 1 << 20,
        });
        let bracketed = m.work_ns(Work::BinarySearches {
            searches: 6,
            n: 1 << 5,
        });
        // 20 probe levels vs 5: a 4x virtual-time win per search.
        assert_eq!(full, 4 * bracketed);
        // Degenerate runs still pay one probe per search.
        for n in [0u64, 1] {
            let one = m.work_ns(Work::BinarySearches { searches: 6, n });
            assert_eq!(one, m.work_ns(Work::RandomAccesses(6)));
        }
    }

    /// The integer probe count must charge exactly what the float
    /// formula it replaced did, for every run length.
    #[test]
    fn integer_search_probes_charge_bit_identically() {
        let m = CostModel::default();
        let float_ns = |searches: u64, n: u64| {
            let probes = if n < 2 { 1.0 } else { (n as f64).log2().ceil() };
            (searches as f64 * probes * m.random_access_ns).ceil() as u64
        };
        let edges = (1..=52u32).flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        for n in (0..=65_536u64).chain(edges) {
            for searches in [2u64, 14, 30] {
                assert_eq!(
                    m.work_ns(Work::BinarySearches { searches, n }),
                    float_ns(searches, n),
                    "n={n} searches={searches}"
                );
            }
        }
    }

    #[test]
    fn sort_work_superlinear() {
        let m = CostModel::default();
        let one = m.work_ns(Work::SortElems {
            n: 1 << 20,
            elem_bytes: 8,
        });
        let two = m.work_ns(Work::SortElems {
            n: 1 << 21,
            elem_bytes: 8,
        });
        assert!(two > 2 * one);
    }

    #[test]
    fn trivial_work_is_zero() {
        let m = CostModel::default();
        assert_eq!(
            m.work_ns(Work::SortElems {
                n: 1,
                elem_bytes: 8
            }),
            0
        );
        assert_eq!(
            m.work_ns(Work::MergeElems {
                n: 0,
                ways: 8,
                elem_bytes: 8
            }),
            0
        );
        assert_eq!(m.work_ns(Work::Compares(0)), 0);
    }

    #[test]
    fn alltoallv_self_block_has_no_latency() {
        let m = CostModel::default();
        let only_self = m.alltoallv_rank_ns([(LinkClass::SelfLoop, 1024)]);
        assert!((only_self as f64) < m.inter_node.alpha_ns);
    }
}
