//! # dhs — Distributed Histogram Sort
//!
//! Umbrella crate re-exporting the full reproduction of *"Engineering a
//! Distributed Histogram Sort"* (Kowalewski, Jungblut, Fürlinger — IEEE
//! CLUSTER 2019). See `README.md` for a tour and `DESIGN.md` for the
//! paper-to-module map.

pub use dhs_baselines as baselines;
pub use dhs_core as core;
pub use dhs_merge as merge;
pub use dhs_pgas as pgas;
pub use dhs_runtime as runtime;
pub use dhs_select as select;
pub use dhs_shm as shm;
pub use dhs_workloads as workloads;

/// Everything a typical driver needs, in one import:
///
/// ```
/// use dhs::prelude::*;
///
/// let out = run(&ClusterConfig::small_cluster(4), |comm| {
///     let mut local: Vec<u64> = (0..64).map(|i| i * 37 % 101 + comm.rank() as u64).collect();
///     histogram_sort(comm, &mut local, &SortConfig::default());
///     local
/// });
/// let all: Vec<u64> = out.into_iter().flat_map(|(v, _)| v).collect();
/// assert!(all.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub mod prelude {
    pub use dhs_core::{
        histogram_sort, histogram_sort_by, is_sorted, median, nth_element, sort, sort_array,
        sort_by_key, verify_sorted, AllToAllAlgo, EpochSorter, EpochStats, InvalidSortConfig,
        LocalSort, MergeAlgo, OrderOutOfRange, Partitioning, RecoveryPolicy, SortConfig,
        SortOutcome, SortStats, WarmStart,
    };
    pub use dhs_pgas::GlobalArray;
    pub use dhs_runtime::{
        launch, run, try_run, ClusterConfig, Comm, RankReport, RunError, RunRecord, RunSummary,
        RunTrace, RunnerEngine, TraceConfig,
    };
    pub use dhs_select::{dmedian, dselect};
    pub use dhs_workloads::{epoch_rank_keys, rank_local_keys, Distribution, EpochProfile, Layout};
}
