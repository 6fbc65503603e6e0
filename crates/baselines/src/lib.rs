//! # dhs-baselines — the competing distribution sorts
//!
//! Every algorithm the paper compares against or positions itself
//! relative to (§III), implemented on the same simulated runtime so
//! the scaling studies can reproduce the paper's head-to-heads:
//!
//! * [`sample_sort()`] — classic random-sampling sample sort (§III-A);
//! * [`psrs()`] — sample sort with *regular* sampling (§III-A, \[12\]);
//! * [`hss_sort`] — Histogram Sort with Sampling, the Charm++
//!   comparator of Figures 2 and 3 (§III-B, \[1\]);
//! * [`hyksort()`] — hypercube k-way quicksort with recursive
//!   communicator splitting (§III-C, \[20\]);
//! * [`bitonic_sort`] — Batcher's sorting network (§III-C, \[17\]);
//! * [`ams_sort`] — AMS-style multi-level sample sort with
//!   overpartitioning (§III-C, \[16\]).
//!
//! Each is its own choice of splitters on one shared tail: the charged
//! local sort, the regular pick from a gathered sample, the Algorithm 4
//! cut (`dhs_core::exchange::plan_exchange`, for HSS and every HykSort
//! level) or the upper-bound cut (sample sort, PSRS), one exchange of
//! borrowed segments, and the charged merge of the received runs. Their
//! parameters (sample sizes, fan-outs, seeds, merge pricing) are
//! module constants.
//!
//! Every sorter returns [`dhs_core::SortStats`] and spans its work under
//! the histogram sort's five phase names — `local_sort`, `histogram`
//! (splitter determination, however it is done), `prepare` (size
//! gathers, cuts, communicator splits), `exchange` and `merge` — so
//! the phases sum to the virtual time of the call.

pub mod ams;
pub mod bitonic;
pub mod hss;
pub mod hyksort;
pub mod psrs;
pub mod sample_sort;
mod tail;

pub use ams::ams_sort;
pub use bitonic::bitonic_sort;
pub use hss::hss_sort;
pub use hyksort::hyksort;
pub use psrs::psrs;
pub use sample_sort::sample_sort;

use dhs_core::{histogram_sort, Key, SortConfig, SortStats};
use dhs_runtime::Comm;

/// Every distributed sorting algorithm in this repository, for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's contribution (dhs-core).
    HistogramSort,
    SampleSort,
    Psrs,
    Hss,
    HykSort,
    Ams,
    Bitonic,
}

impl Algorithm {
    pub const ALL: [Algorithm; 7] = [
        Algorithm::HistogramSort,
        Algorithm::SampleSort,
        Algorithm::Psrs,
        Algorithm::Hss,
        Algorithm::HykSort,
        Algorithm::Ams,
        Algorithm::Bitonic,
    ];

    /// The name figures, sweeps and JSON reports print: the paper's
    /// "DASH" and "Charm++" labels for the two it evaluates.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::HistogramSort => "dash-histogram",
            Algorithm::SampleSort => "sample-sort",
            Algorithm::Psrs => "psrs",
            Algorithm::Hss => "charm-hss",
            Algorithm::HykSort => "hyksort",
            Algorithm::Ams => "ams-sort",
            Algorithm::Bitonic => "bitonic",
        }
    }

    /// Whether the algorithm can run under the given shape.
    pub fn supports(&self, p: usize, equal_sizes: bool) -> bool {
        match self {
            Algorithm::Bitonic => p.is_power_of_two() && equal_sizes,
            _ => true,
        }
    }
}

/// Run any algorithm (the histogram sort with the default
/// [`SortConfig`]).
pub fn run_algorithm<K: Key>(comm: &Comm, algo: Algorithm, local: &mut Vec<K>) -> SortStats {
    match algo {
        Algorithm::HistogramSort => histogram_sort(comm, local, &SortConfig::default()),
        Algorithm::SampleSort => sample_sort(comm, local),
        Algorithm::Psrs => psrs(comm, local),
        Algorithm::Hss => hss_sort(comm, local),
        Algorithm::HykSort => hyksort(comm, local),
        Algorithm::Ams => ams_sort(comm, local),
        Algorithm::Bitonic => bitonic_sort(comm, local),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    #[test]
    fn all_algorithms_agree() {
        let p = 8;
        let n = 256;
        for algo in Algorithm::ALL {
            let out = run(&ClusterConfig::small_cluster(p), move |comm| {
                let mut x = (comm.rank() as u64 + 1) | 1;
                let mut local: Vec<u64> = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % 100_000
                    })
                    .collect();
                run_algorithm(comm, algo, &mut local);
                local
            });
            let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
            let mut expect = got.clone();
            expect.sort_unstable();
            assert_eq!(got, expect, "{algo:?} output not globally sorted");
            assert_eq!(got.len(), p * n, "{algo:?} lost or duplicated keys");
        }
    }

    #[test]
    fn supports_matrix() {
        assert!(Algorithm::Bitonic.supports(8, true));
        assert!(!Algorithm::Bitonic.supports(8, false));
        assert!(!Algorithm::Bitonic.supports(6, true));
        assert!(Algorithm::HistogramSort.supports(6, false));
    }
}
