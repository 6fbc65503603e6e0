//! # dhs-runtime — a deterministic simulated distributed runtime
//!
//! The substrate beneath the distributed histogram sort reproduction:
//! an MPI-like message-passing runtime in which every *rank* is a
//! simulated process, collectives move real data through shared
//! memory, and a **virtual clock** per rank advances according to an
//! α–β communication cost model plus explicitly charged local work.
//!
//! Ranks execute as cooperatively-scheduled tasks over a small worker
//! pool (see [`mod@sched`]), which keeps p = 1024–8192 grids practical;
//! every blocking point parks through one park/wake protocol. The
//! worker count ([`RunnerEngine`] on [`ClusterConfig`]) is a host-side
//! setting: every value produces byte-identical outputs and virtual
//! times.
//!
//! The design replaces the paper's Intel-MPI-on-InfiniBand testbed: the
//! algorithms above it execute for real (real keys, real all-to-all
//! exchanges, verifiable output invariants), while *time* is modelled so
//! that scaling studies with thousands of ranks are reproducible on a
//! laptop and independent of host oversubscription.
//!
//! ```
//! use dhs_runtime::{run, ClusterConfig};
//!
//! let cfg = ClusterConfig::small_cluster(4);
//! let results = run(&cfg, |comm| {
//!     let sums = comm.allreduce_sum(vec![comm.rank() as u64]);
//!     sums[0]
//! });
//! assert!(results.iter().all(|(v, _)| *v == 0 + 1 + 2 + 3));
//! ```

#![warn(missing_docs)]
pub mod buffer;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod recover;
pub mod runner;
pub mod sched;
pub mod state;
pub mod stats;
pub mod threads;
pub mod topology;
pub mod trace;

pub use buffer::{BufferPool, PoolStats, RecvRuns, SharedSlice};
pub use comm::{AllToAllAlgo, Charges, Comm, ExchangePayload};
pub use cost::{log2_ceil, CostModel, LinkCost, Work};
pub use fault::{Crash, FaultPlan, FaultPlanError, LinkFault, RankError, Straggler};
pub use recover::{RecoveryGuard, RecoveryInterrupt, Shrunk};
pub use runner::{launch, run, try_run, ClusterConfig, RunError, RunRecord};
pub use sched::RunnerEngine;
pub use stats::{CounterSnapshot, RankReport, RunSummary};
pub use threads::ThreadPool;
pub use topology::{LinkClass, Placement, Topology};
pub use trace::{
    validate_chrome_trace, ChromeTraceCheck, EventRecord, PhaseStat, PhaseSummary, RankTrace,
    RunTrace, SpanGuard, SpanRecord, TraceConfig, TraceSink,
};
