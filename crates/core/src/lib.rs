//! # dhs-core — the distributed histogram sort
//!
//! The primary contribution of *"Engineering a Distributed Histogram
//! Sort"* (Kowalewski, Jungblut, Fürlinger — CLUSTER 2019): a
//! distribution sort that moves each key across the machine exactly
//! once, determines output boundaries by **iterative histogramming**
//! (a k-way generalization of weighted-median distributed selection),
//! and makes no assumptions about key distribution, duplicates, rank
//! counts, or sparse/empty partitions.
//!
//! The four supersteps of §V are one pipeline in [`mod@sort`], shared by
//! every entry point (plain keys, records via [`histogram_sort_by`],
//! [`histogram_sort_two_level`]'s level 2 and the warm-started
//! [`EpochSorter`] service), with shrink-and-recover as a retry loop
//! around phases 2–4 (and [`cut_route_merge`], the group step of
//! two-level's level 1, HSS and HykSort, beside it):
//!
//! 1. **Local sort** — the configured [`LocalSort`] engine (a stable
//!    sort by key for records);
//! 2. **Splitting** — [`splitter::find_splitters_seeded`] (Algorithms
//!    2 + 3, optionally seeded from a previous ladder);
//! 3. **Data exchange** — [`exchange`] (Algorithm 4 + `ALL-TO-ALLV`);
//! 4. **Local merge** — one run merge, charged by [`dhs_merge::MergeAlgo`].
//!
//! The §V-A uniqueness transform is a key type, not an option: sort
//! [`make_unique`] keys through [`histogram_sort`] and
//! [`strip_unique`] the result.
//!
//! ```
//! use dhs_runtime::{run, ClusterConfig};
//! use dhs_core::{histogram_sort, SortConfig};
//!
//! let out = run(&ClusterConfig::small_cluster(4), |comm| {
//!     let mut local: Vec<u64> =
//!         (0..100).map(|i| (i * 2654435761 + comm.rank() as u64) % 1000).collect();
//!     histogram_sort(comm, &mut local, &SortConfig::default());
//!     local
//! });
//! // Concatenating the per-rank outputs yields the global sorted order.
//! let all: Vec<u64> = out.into_iter().flat_map(|(v, _)| v).collect();
//! assert!(all.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![warn(missing_docs)]
pub mod api;
pub mod exchange;
mod kernels;
pub mod key;
pub mod service;
pub mod sort;
pub mod splitter;
pub mod verify;

pub use api::{
    is_sorted, median, nth_element, sort, sort_array, sort_by_key, AllToAllAlgo, OrderOutOfRange,
};
pub use kernels::{KernelPolicy, Kernels};
pub use key::{make_unique, strip_unique, Key, OrderedF32, OrderedF64, UniqueKey};
pub use service::{EpochSorter, EpochStats};
pub use sort::{
    cut_route_merge, histogram_sort, histogram_sort_by, histogram_sort_two_level, merge_received,
    outcome_of, split_groups, InvalidSortConfig, LocalSort, Partitioning, RecoveryPolicy,
    SortConfig, SortOutcome, SortStats, WarmStart,
};
pub use splitter::{
    balanced_targets, find_splitters, find_splitters_seeded, perfect_targets, slack_for,
    SplitterInfo, SplitterOptions, SplitterResult,
};
pub use verify::{global_fingerprint, multiset_fingerprint, verify_sorted, SortViolation};

pub use dhs_merge::MergeAlgo;
