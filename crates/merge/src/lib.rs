//! # dhs-merge — k-way merge engines
//!
//! The local-merge phase of the distributed histogram sort receives up
//! to `P` sorted chunks from the all-to-all exchange and must combine
//! them (paper §V-C). This crate provides the engines the paper's
//! §VI-E2 study weighs against each other — binary merge tree,
//! tournament tree, heap, funnel and plain re-sorting — plus
//! [`merge_into`], the stable two-way merge every binary merge in the
//! workspace runs as its leaf, and [`MergeAlgo`], the two models a
//! distributed sort's merge step is charged under.
//!
//! ```
//! use dhs_merge::{heap_merge, tournament_merge};
//! let runs = vec![vec![1u64, 4], vec![2, 3]];
//! assert_eq!(tournament_merge(&runs), vec![1, 2, 3, 4]);
//! assert_eq!(heap_merge(&runs), vec![1, 2, 3, 4]);
//! ```

#![warn(missing_docs)]
pub mod funnel;
pub mod kway;
pub mod two_way;

pub use funnel::funnel_merge;
pub use kway::{
    binary_tree_merge, heap_merge, kway_merge, resort_merge, tournament_merge, MergeAlgo,
    TournamentTree, ENGINES,
};
pub use two_way::merge_into;
