//! # dhs-select — selection algorithms, sequential and distributed
//!
//! The paper builds its splitter search on the *selection* problem
//! (§IV): quickselect and median-of-medians sequentially, the weighted
//! median (Definition 2) as the pivot rule, and Algorithm 1's
//! distributed selection which finds any global order statistic in
//! `O(log P)` communication rounds without moving data.
//!
//! ```
//! use dhs_select::quickselect;
//! let mut v = vec![5u64, 1, 4, 2, 3];
//! assert_eq!(quickselect(&mut v, 2), 3);
//! ```

#![warn(missing_docs)]
pub mod distributed;
pub mod sequential;
pub mod weighted;

pub use distributed::{dmedian, dselect, dselect_with_stats, SelectStats};
pub use sequential::{median, median_of_medians_select, partition3, quickselect};
pub use weighted::{weighted_median, weighted_median_by_sort};
