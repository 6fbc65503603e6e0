//! # dhs-merge — k-way merge engines
//!
//! The local-merge phase of the distributed histogram sort receives up
//! to `P` sorted chunks from the all-to-all exchange and must combine
//! them (paper §V-C). This crate provides the strategies the paper
//! weighs against each other — binary merge tree, tournament tree,
//! heap, and plain re-sorting — plus [`merge_into`], the stable
//! two-way merge every binary merge in the workspace runs as its leaf.
//!
//! ```
//! use dhs_merge::{kway_merge, MergeAlgo};
//! let runs = vec![vec![1u64, 4], vec![2, 3]];
//! assert_eq!(kway_merge(MergeAlgo::TournamentTree, &runs), vec![1, 2, 3, 4]);
//! ```

#![warn(missing_docs)]
pub mod funnel;
pub mod kway;
pub mod two_way;

pub use funnel::funnel_merge;
pub use kway::{
    binary_tree_merge, heap_merge, kway_merge, resort_merge, tournament_merge, MergeAlgo,
    TournamentTree,
};
pub use two_way::merge_into;
