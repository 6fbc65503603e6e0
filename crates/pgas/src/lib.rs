//! # dhs-pgas — a DASH-like PGAS layer on the simulated runtime
//!
//! The paper's implementation lives inside DASH, a C++14 PGAS template
//! library: global containers with *local* and *remote* partitions, an
//! owner-computes model, and one-sided access that degrades gracefully
//! to fast memcpy when peers share a node. This crate reproduces that
//! surface: [`GlobalArray`] with block [`pattern::BlockPattern`]s,
//! free local access, and one-sided `get`/`put` charged at the link
//! class between the two ranks.
//!
//! ```
//! use dhs_runtime::{run, ClusterConfig};
//! use dhs_pgas::GlobalArray;
//!
//! let out = run(&ClusterConfig::small_cluster(2), |comm| {
//!     let arr = GlobalArray::from_local(comm, vec![comm.rank() as u64]);
//!     arr.fence(comm);
//!     arr.get(comm, 1) // one-sided read of rank 1's element
//! });
//! assert!(out.iter().all(|(v, _)| *v == 1));
//! ```

pub mod algorithms;
pub mod array;
pub mod pattern;

pub use algorithms::{count_if, max_element, min_element, sum_by, transform_local};
pub use array::GlobalArray;
pub use pattern::BlockPattern;
