//! Long-lived epoch sort service: one world, many sorts.
//!
//! The paper sorts once and tears the world down; production traffic
//! arrives as a *stream* of key batches. [`EpochSorter`] keeps a
//! [`Comm`]-backed world open across the stream and sorts each batch
//! (an **epoch**) with the same four-superstep pipeline, carrying two
//! things from epoch *e* to epoch *e+1*:
//!
//! 1. **The accepted splitters** — under
//!    [`WarmStart::SeededWithBrackets`] round 1 of the next epoch's
//!    splitter search probes the previous ladder's keys themselves
//!    ([`crate::splitter::find_splitters_seeded`]): a stationary
//!    stream re-accepts every splitter in a single histogram round,
//!    and on a drifting one the old keys' exact counts bracket every
//!    new splitter, so the search goes on from there within a round or
//!    two of a cold one instead of first exhausting a guess.
//! 2. **The scratch allocations** — histogram counts and exchange
//!    staging recycle through the per-[`Comm`]
//!    [`dhs_runtime::BufferPool`], so steady-state epochs allocate near
//!    zero; [`EpochStats::pool`] reports the per-epoch reuse hit-rate.
//!
//! Warm-starting never changes the answer: at every ε the realized
//! boundaries are fixed by the targets, not by the path the search took
//! to them, so a seeded epoch's output is byte-identical to a
//! cold-start sort of the same batch (pinned by `tests/epoch_service.rs`
//! and the `epoch_service` bench, which also records rounds per epoch
//! for both policies on three drift profiles).
//!
//! ```
//! use dhs_core::{EpochSorter, SortConfig, WarmStart};
//! use dhs_runtime::{run, ClusterConfig};
//!
//! let cfg = SortConfig {
//!     warm_start: WarmStart::SeededWithBrackets,
//!     ..SortConfig::default()
//! };
//! let out = run(&ClusterConfig::small_cluster(4), move |comm| {
//!     let mut svc = EpochSorter::new(comm, cfg.clone());
//!     let mut rounds = Vec::new();
//!     for _epoch in 0..3 {
//!         // A stationary stream: the same batch arrives every epoch.
//!         let mut batch: Vec<u64> =
//!             (0..64).map(|i| (i * 2654435761 + comm.rank() as u64) % 997).collect();
//!         let stats = svc.sort_epoch(&mut batch);
//!         assert!(batch.windows(2).all(|w| w[0] <= w[1]));
//!         rounds.push(stats.sort.iterations);
//!     }
//!     rounds
//! });
//! for (rounds, _) in out {
//!     // Warm-started epochs collapse to a single histogram round.
//!     assert!(rounds[1] <= 1 && rounds[2] <= 1, "{rounds:?}");
//! }
//! ```

use dhs_runtime::{Comm, PoolStats};

use crate::key::Key;
#[allow(unused_imports)] // doc links
use crate::sort::WarmStart;
use crate::sort::{sort_pipeline, Keys, Payload, Records, SortConfig, SortStats, WarmStash};
use crate::splitter::SplitterInfo;

/// Per-epoch service telemetry, derived from the sort's [`SortStats`],
/// the epoch span, and the communicator's buffer-pool counters.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Zero-based index of the epoch within this service's stream.
    pub epoch: u64,
    /// Virtual makespan of the whole epoch (the `"epoch"` span).
    pub makespan_ns: u64,
    /// Buffer-pool reuse over this epoch only (counter deltas): a
    /// steady-state epoch's `hit_rate()` approaches 1.
    pub pool: PoolStats,
    /// Splitters carried forward into the next epoch's search.
    pub warm_len: usize,
    /// Full phase-level statistics of the underlying sort; its
    /// `iterations` are the epoch's histogram rounds (`ALLREDUCE`s) —
    /// the quantity warm-starting collapses.
    pub sort: SortStats,
}

/// A long-lived sorter that amortizes splitter discovery and scratch
/// allocation across a stream of batches on one open world.
///
/// Construct once per rank inside a [`dhs_runtime::run`] closure and
/// feed it one batch per epoch via [`EpochSorter::sort_epoch`] (keys)
/// or [`EpochSorter::sort_epoch_by`] (records with an extracted key).
/// The warm-start policy comes from [`SortConfig::warm_start`];
/// [`WarmStart::Cold`] makes every epoch an independent one-shot sort.
///
/// Under [`crate::RecoveryPolicy::Shrink`] the service also carries the
/// *surviving world* across epochs: a mid-epoch crash shrinks onto the
/// survivors, and later epochs run on the shrunk communicator.
pub struct EpochSorter<'a, K: Key> {
    comm: &'a Comm,
    active: Option<Comm>,
    cfg: SortConfig,
    warm: WarmStash<K>,
    epoch: u64,
}

impl<'a, K: Key> EpochSorter<'a, K> {
    /// Open the service on `comm` with a validated configuration.
    ///
    /// # Panics
    /// Panics when `cfg` fails [`SortConfig::validate`] — call it first
    /// to get the error as a value.
    pub fn new(comm: &'a Comm, cfg: SortConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SortConfig: {e}");
        }
        Self {
            comm,
            active: None,
            cfg,
            warm: None,
            epoch: 0,
        }
    }

    /// The communicator epochs currently run on: the founding world, or
    /// the surviving world after a shrink recovery.
    pub fn comm(&self) -> &Comm {
        self.active.as_ref().unwrap_or(self.comm)
    }

    /// Number of epochs sorted so far.
    pub fn epochs_sorted(&self) -> u64 {
        self.epoch
    }

    /// The splitters whose keys will seed the next epoch's search
    /// (empty before the first epoch and under [`WarmStart::Cold`]):
    /// the last search's own, shared by every rank of the world.
    pub fn warm_splitters(&self) -> &[SplitterInfo<K>] {
        self.warm.as_deref().unwrap_or_default()
    }

    /// The service's configuration.
    pub fn config(&self) -> &SortConfig {
        &self.cfg
    }

    /// Sort one epoch's key batch in place and report its telemetry.
    ///
    /// The batch is globally sorted across the open world exactly as
    /// [`crate::histogram_sort`] would sort it — byte-identical output
    /// for every [`WarmStart`] policy — while the splitter search seeds
    /// from the previous epoch's ladder and scratch recycles through
    /// the communicator's buffer pool.
    pub fn sort_epoch(&mut self, batch: &mut Vec<K>) -> EpochStats {
        self.run_epoch(batch, &Keys)
    }

    /// Sort one epoch's record batch in place by an extracted key and
    /// report its telemetry. The warm ladder lives in the extracted
    /// key space, so key and record epochs may even be interleaved on
    /// one service.
    pub fn sort_epoch_by<T, F>(&mut self, batch: &mut Vec<T>, key_fn: F) -> EpochStats
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&T) -> K + Sync,
    {
        self.run_epoch(batch, &Records(&key_fn))
    }

    /// One epoch of either kind: run the shared sort pipeline on the
    /// current world under an `"epoch"` span, adopt a shrunk world when
    /// recovery produced one, advance the epoch counter, assemble the
    /// telemetry.
    fn run_epoch<T: Clone + Send + Sync + 'static, P: Payload<T, Key = K>>(
        &mut self,
        batch: &mut Vec<T>,
        payload: &P,
    ) -> EpochStats {
        let c = self.active.as_ref().unwrap_or(self.comm);
        let before = c.pool().stats();
        let sp = c.span("epoch");
        let (stats, shrunk) = sort_pipeline(c, batch, payload, &self.cfg, &mut self.warm);
        let makespan_ns = sp.finish();
        let pool = c.pool().stats().since(&before);
        if let Some(c) = shrunk {
            self.active = Some(c);
        }
        let out = EpochStats {
            epoch: self.epoch,
            makespan_ns,
            pool,
            warm_len: self.warm_splitters().len(),
            sort: stats,
        };
        self.epoch += 1;
        out
    }
}
