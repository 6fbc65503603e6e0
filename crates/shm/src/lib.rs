//! # dhs-shm — shared-memory parallel sorting and merging
//!
//! The shared-memory comparators of the paper's Fig. 4 study (TBB-like
//! parallel merge sort, OpenMP-task-like merge sort), the run-merge
//! tree that merges the received runs of every distributed sort, and
//! the parallel k-way scheme of the §VI-E2 merge experiment, built on
//! a minimal scoped-thread fork–join primitive (no external task
//! scheduler).
//!
//! ```
//! use dhs_shm::parallel_merge_sort;
//! let mut v: Vec<u64> = (0..10_000).rev().collect();
//! parallel_merge_sort(&mut v, 4);
//! assert!(v.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![warn(missing_docs)]
pub mod fork;
pub mod pmerge;
pub mod radix;
pub mod sort;

pub use fork::{join, map_parallel};
pub use pmerge::{
    merge_runs_in_place, merge_sorted_runs, parallel_kway_chunked, parallel_merge_into_by,
    run_merge_beats_resort,
};
pub use radix::{
    lsd_beats_comparison, lsd_sort_if, radix_sort_by_bits, radix_sort_u32, radix_sort_u64,
};
pub use sort::{
    parallel_merge_sort, parallel_merge_sort_by, radix_merge_sort_by_bits, task_merge_sort,
};
