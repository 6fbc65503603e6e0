//! The distributed histogram sort (paper §V): local sort → splitter
//! determination → all-to-allv data exchange → local merge.
//!
//! There is exactly one pipeline. `sort_pipeline` drives it for every
//! public entry point; `attempt` is phases 2–4; the `Payload` hooks
//! are the only code that knows whether the elements are plain keys or
//! records; [`RecoveryPolicy::Shrink`] is a retry loop around
//! `attempt`. The epoch service calls the same pipeline; HSS and
//! HykSort share its exchange and merge step ([`cut_route_merge`]).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use dhs_merge::MergeAlgo;
use dhs_runtime::{AllToAllAlgo, Comm, RecoveryInterrupt, RecvRuns, Work};

use crate::exchange::{cut_at_bounds, exchange_data, group_of, plan_exchange, ExchangePlan};
use crate::kernels::KernelPolicy;
use crate::key::Key;
use crate::splitter::{
    balanced_targets, find_splitters_with_bounds, perfect_targets, slack_for, SplitterInfo,
    SplitterOptions, SplitterResult,
};

/// How output boundaries are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Every rank ends up with exactly as many keys as it contributed
    /// (the paper's *perfect partitioning* / in-place case; all
    /// benchmarks in the evaluation use this with `ε = 0`).
    Perfect,
    /// Rank boundaries at `N·i/P` regardless of input sizes (the
    /// *globally balanced* case of Definition 1).
    Balanced,
}

/// Engine for the node-local sort of phase 1, and the cost model the
/// [`MergeAlgo::Resort`] merge is charged under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalSort {
    /// Comparison sort (`sort_unstable`, pdqsort) — the paper's
    /// single-threaded `C++ STL sort`.
    Comparison,
    /// LSD radix sort over the key's order-preserving bit image:
    /// `O(n·BITS/8)` instead of `O(n log n)`, shifting the phase mix
    /// further toward communication.
    Radix,
}

/// What the sort does when a peer rank fails mid-run (its crash
/// deadline was reached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Propagate the failure: the failed rank's panic aborts the run
    /// and surfaces as a [`dhs_runtime::RankError`] through
    /// [`dhs_runtime::try_run`]. The historical behavior, and the
    /// default.
    #[default]
    Abort,
    /// ULFM-style shrink-and-recover: survivors detect the failure,
    /// agree on the survivor set, shrink onto a renumbered
    /// communicator of `p − f` ranks, roll back to their retained
    /// post-local-sort checkpoint, and re-run splitter determination
    /// (warm-started from the pre-crash accepted splitters) and the
    /// exchange. The sort then reports
    /// [`SortOutcome::Recovered`]. The exchange is one all-or-none
    /// collective under every [`AllToAllAlgo`] schedule, so every
    /// survivor observes the failure at the same point. A
    /// completed exchange is the commit point: a rank that dies *after*
    /// it (in its local merge) costs the survivors nothing and the sort
    /// completes normally — the loss is reported at run level only.
    Shrink,
}

/// Epoch-to-epoch splitter warm-start policy of the long-lived sort
/// service ([`crate::service::EpochSorter`]).
///
/// A one-shot sort always starts its splitter search cold; a service
/// sorting a *stream* of batches can seed epoch `e + 1`'s search from
/// epoch `e`'s accepted splitters. Whatever the policy, the sorted
/// output is **byte-identical** to a cold-start sort of the same batch
/// at `ε = 0`: realized boundaries equal the exact targets regardless
/// of which splitter keys were accepted (the Algorithm 4 refinement
/// splits equal-key runs exactly), so warm-starting only changes how
/// many histogram rounds the search needs — never what the sort
/// produces.
///
/// ```
/// use dhs_core::{SortConfig, WarmStart};
///
/// let cfg = SortConfig {
///     warm_start: WarmStart::SeededWithBrackets,
///     ..SortConfig::default()
/// };
/// assert_eq!(cfg.validate(), Ok(()));
/// // The one-shot default stays cold:
/// assert_eq!(SortConfig::default().warm_start, WarmStart::Cold);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WarmStart {
    /// Ignore the stash: every epoch runs a cold splitter search (the
    /// default, and exactly the one-shot [`histogram_sort`] behavior).
    /// The stash is still *written* after each epoch, so switching to
    /// the seeded policy later picks up the latest ladder.
    #[default]
    Cold,
    /// Round 1 of each epoch's search probes the previous epoch's
    /// accepted splitter keys themselves
    /// ([`crate::splitter::find_splitters_seeded`]). On a stationary
    /// stream every old key validates at once and the search takes
    /// **one** round; on drifted data the old keys' exact counts
    /// bracket every splitter between two of them and the search goes
    /// on from there, within a round or two of a cold one (a bracket
    /// built from exact counts cannot miss, so there is nothing to
    /// fall back from).
    SeededWithBrackets,
}

/// Configuration of one sort invocation.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Load-balance threshold `ε ≥ 0`; `0` demands exact boundaries.
    pub epsilon: f64,
    /// Boundary placement policy.
    pub partitioning: Partitioning,
    /// How the local merge of received runs is **charged**: the
    /// default, [`MergeAlgo::Resort`], as the paper's re-sort (§V-C:
    /// the [`SortConfig::local_sort`] model over the received keys),
    /// [`MergeAlgo::KWay`] as one k-way merge. What executes is the
    /// same for both and every [`SortConfig::threads_per_rank`]: the
    /// in-place run merge of [`merge_received`]. Output is identical;
    /// only the virtual clock follows the charge model.
    pub merge: MergeAlgo,
    /// Node-local sorting engine.
    pub local_sort: LocalSort,
    /// Hard cap on splitter-refinement iterations. When the cap stops
    /// the search early, the sort falls back to the best partition
    /// found so far and reports [`SortOutcome::Degraded`] with the
    /// achieved ε instead of spinning (useful under injected faults or
    /// adversarial keys). `None` (default) lets the search run to its
    /// key-width convergence bound.
    pub max_splitter_iterations: Option<u32>,
    /// Width of a splitter-refinement round in units of `P − 1`: every
    /// round histograms at most `probes_per_round × (P − 1)` candidate
    /// keys in its one allreduce, shared evenly among the splitters
    /// still open, so the width settled splitters leave behind goes to
    /// the rest. `1` (default) starts at the paper's one probe per
    /// splitter; a wider round buys fewer allreduce rounds with a
    /// fatter payload — trading β-bytes for α-rounds (ablation A6).
    /// The partition is the same at `ε = 0` for every value; accepted
    /// keys, rounds and cost change. Ignored under the paper's literal
    /// rule, which probes one midpoint per splitter. Must be at
    /// least 1.
    pub probes_per_round: usize,
    /// Intra-rank host-thread budget for hybrid rank×thread execution
    /// (default 1 = fully serial ranks). With a budget above 1, the
    /// local phases — initial local sort, per-round histogram counting
    /// over splitter candidates, and the post-exchange merge — dispatch
    /// to the deterministic `dhs-shm` fork/pmerge/radix kernels via the
    /// [`dhs_runtime::ThreadPool`] owned by this rank's `Comm`.
    ///
    /// **Determinism contract:** the budget affects *host* wall-clock
    /// only. Sorted output and the virtual clock are byte-identical for
    /// every value (parallel kernels are stable with data-deterministic
    /// split points; all `Work` charges are computed from data sizes,
    /// never from host threading). Pinned by `tests/hybrid_threads.rs`.
    pub threads_per_rank: usize,
    /// Response to a mid-sort rank failure: abort the run (default) or
    /// shrink onto the survivors and restart from the retained
    /// post-local-sort checkpoint. See [`RecoveryPolicy`].
    pub recovery: RecoveryPolicy,
    /// Collective schedule of the data-exchange superstep's
    /// personalized all-to-all. The default,
    /// [`AllToAllAlgo::Priced`], takes the arm priced cheapest for each
    /// exchange from its send and receive totals (§VI-E1:
    /// store-and-forward for small `N/P`, 1-factor for large
    /// messages); an explicit arm — one-factor pairwise rounds, Bruck
    /// store-and-forward, or HykSort-style staged `k`-way forwarding —
    /// overrides it. Every schedule is one rendezvous that delivers
    /// byte-identical sorted output; only the virtual clock differs.
    pub exchange_algo: AllToAllAlgo,
    /// Epoch-to-epoch splitter seeding policy of the epoch service
    /// ([`crate::service::EpochSorter`]). Ignored by the one-shot entry
    /// points, which have no stash to seed from; defaults to
    /// [`WarmStart::Cold`]. See [`WarmStart`].
    pub warm_start: WarmStart,
    /// No effect; stays only because the repository benchmark names
    /// it; goes with ROADMAP item 1.
    pub kernels: KernelPolicy,
}

impl Default for SortConfig {
    /// The paper's evaluation setup: perfect partitioning, ε = 0,
    /// re-sort as the merge step, the all-to-allv schedule priced
    /// cheapest, serial ranks, cold splitter search.
    fn default() -> Self {
        Self {
            epsilon: 0.0,
            partitioning: Partitioning::Perfect,
            merge: MergeAlgo::Resort,
            local_sort: LocalSort::Comparison,
            max_splitter_iterations: None,
            probes_per_round: 1,
            threads_per_rank: 1,
            recovery: RecoveryPolicy::Abort,
            exchange_algo: AllToAllAlgo::Priced,
            warm_start: WarmStart::Cold,
            kernels: KernelPolicy,
        }
    }
}

/// A [`SortConfig`] that cannot be executed.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidSortConfig {
    /// `epsilon` must be finite and `>= 0`.
    BadEpsilon(f64),
    /// A splitter-iteration cap of 0 can never place a boundary.
    ZeroIterationCap,
    /// A thread budget of 0 leaves no thread to run the rank itself.
    ZeroThreads,
    /// A probe budget of 0 would histogram nothing and never converge.
    ZeroProbes,
    /// [`AllToAllAlgo::StagedKWay`] needs a fan-out of at least 2:
    /// `k < 2` never shrinks a block, so the staged recursion cannot
    /// terminate.
    BadExchangeFanout(usize),
}

impl fmt::Display for InvalidSortConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidSortConfig::BadEpsilon(e) => {
                write!(f, "epsilon must be finite and non-negative, got {e}")
            }
            InvalidSortConfig::ZeroIterationCap => {
                write!(f, "max_splitter_iterations must be at least 1 when set")
            }
            InvalidSortConfig::ZeroThreads => {
                write!(f, "threads_per_rank must be at least 1")
            }
            InvalidSortConfig::ZeroProbes => {
                write!(f, "probes_per_round must be at least 1")
            }
            InvalidSortConfig::BadExchangeFanout(k) => {
                write!(f, "StagedKWay fan-out must be at least 2, got {k}")
            }
        }
    }
}

impl std::error::Error for InvalidSortConfig {}

impl SortConfig {
    /// Check the configuration for values that make the sort
    /// meaningless. Every sort entry point runs this once, in the
    /// shared pipeline driver, and panics on `Err`; the
    /// [`crate::api`] layer returns the error instead, and a caller
    /// that wants it as a value calls this first.
    pub fn validate(&self) -> Result<(), InvalidSortConfig> {
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(InvalidSortConfig::BadEpsilon(self.epsilon));
        }
        if self.max_splitter_iterations == Some(0) {
            return Err(InvalidSortConfig::ZeroIterationCap);
        }
        if self.threads_per_rank == 0 {
            return Err(InvalidSortConfig::ZeroThreads);
        }
        if self.probes_per_round == 0 {
            return Err(InvalidSortConfig::ZeroProbes);
        }
        if let AllToAllAlgo::StagedKWay { k } = self.exchange_algo {
            if k < 2 {
                return Err(InvalidSortConfig::BadExchangeFanout(k));
            }
        }
        Ok(())
    }
}

/// Charge the modelled cost of a local sort of `n` keys under
/// `engine`. Split from execution because what the host runs need not
/// be what the model prices: the [`MergeAlgo::Resort`] merge is
/// charged here as the paper's re-sort and executed as a run merge
/// ([`merge_received`]), and the hybrid local sort runs a
/// fork–join kernel. The charges depend only on `n` and the key
/// width, never on the kernel or on `threads_per_rank`, which is what
/// keeps the virtual clock byte-identical across both.
fn charge_local_sort<K: Key>(comm: &Comm, n: u64, engine: LocalSort) {
    match engine {
        LocalSort::Comparison => {
            comm.charge(Work::SortElems {
                n,
                elem_bytes: std::mem::size_of::<K>() as u64,
            });
        }
        LocalSort::Radix => {
            // One streaming read + one scattered write per pass.
            let passes = K::BITS.div_ceil(8) as u64;
            comm.charge(Work::MoveBytes(
                2 * passes * n * std::mem::size_of::<K>() as u64,
            ));
            comm.charge(Work::RandomAccesses(passes * n / 8));
        }
    }
}

/// Run the configured local sort and charge its modelled cost. The
/// *host* execution is the `dhs-shm` kernel matching the configured
/// engine (fork–join merge sort for [`LocalSort::Comparison`],
/// radix-sorted halves with a stable bit-projection merge for
/// [`LocalSort::Radix`]) at the host-clamped
/// [`dhs_runtime::ThreadPool::exec_budget`]; at a budget of 1 each
/// kernel *is* the serial engine (`sort_unstable`, the LSD radix sort).
/// The sorted output is identical for any budget, and the virtual
/// clock always charges the configured engine's model. The radix
/// leaves are [`Key::radix_sort`]: the bit-projection LSD sort, or the
/// monomorphic byte-wise kernel for `u64`/`u32` keys.
fn local_sort_exec<K: Key>(comm: &Comm, data: &mut [K], engine: LocalSort) {
    charge_local_sort::<K>(comm, data.len() as u64, engine);
    let te = comm.threads().exec_budget();
    match engine {
        LocalSort::Comparison => dhs_shm::parallel_merge_sort(data, te),
        LocalSort::Radix => {
            dhs_shm::radix_merge_sort_by_bits(data, te, &|x: &K| x.to_bits(), &K::radix_sort)
        }
    }
}

/// How a sort run ended.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum SortOutcome {
    /// Every splitter met its target within the configured ε slack.
    #[default]
    Exact,
    /// The splitter-iteration cap fired: the output is still globally
    /// sorted, but boundaries follow the best partition found, with an
    /// effective load-balance threshold of `achieved_epsilon` (the ε
    /// for which Definition 1 would have accepted this partition).
    Degraded {
        /// Smallest ε accepting the realized boundaries.
        achieved_epsilon: f64,
        /// Iterations actually spent before the cap.
        iterations: u32,
    },
    /// One or more ranks failed mid-sort and
    /// [`RecoveryPolicy::Shrink`] recovered: the survivors shrank onto
    /// a `p − f` communicator, rolled back to their post-local-sort
    /// checkpoint, and completed the sort over the retained inputs.
    /// The output is globally sorted across the *survivors*; the
    /// failed ranks' data is lost with them (each rank owns its block,
    /// as in the in-place ULFM model).
    Recovered {
        /// Global ranks (in the original communicator's numbering)
        /// that were declared dead, ascending.
        lost_ranks: Vec<usize>,
        /// Number of shrink-and-restart cycles taken.
        restarts: u32,
        /// Virtual time spent on failed attempts, survivor agreement,
        /// and checkpoint rollback — everything outside the phases of
        /// the final (successful) attempt.
        recovery_ns: u64,
    },
}

impl SortOutcome {
    /// Whether the iteration cap forced a degraded partition.
    pub fn is_degraded(&self) -> bool {
        matches!(self, SortOutcome::Degraded { .. })
    }

    /// Whether the sort shrank past one or more failed ranks.
    pub fn is_recovered(&self) -> bool {
        matches!(self, SortOutcome::Recovered { .. })
    }
}

/// Per-phase timings (virtual nanoseconds) and counters of one sort.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SortStats {
    /// Histogramming iterations (`ALLREDUCE` rounds); for the
    /// baselines, the rounds of their splitter phase (sampling rounds,
    /// recursion levels, bitonic compare-split steps).
    pub iterations: u32,
    /// Candidate keys histogrammed across all iterations (see
    /// [`crate::splitter::SplitterResult::probes`]); zero for
    /// algorithms that do not histogram.
    pub probes: u64,
    /// Initial local sort.
    pub local_sort_ns: u64,
    /// Splitter determination (histogramming).
    pub histogram_ns: u64,
    /// Exchange preparation: bound matrix + Algorithm 4 ("Other" in
    /// Fig. 2b/3b).
    pub prepare_ns: u64,
    /// The `ALL-TO-ALLV` payload exchange.
    pub exchange_ns: u64,
    /// Local merge of received runs.
    pub merge_ns: u64,
    /// Keys held by this rank before the sort.
    pub n_in: usize,
    /// Keys held by this rank after the sort.
    pub n_out: usize,
    /// Whether the partition met the configured ε or was degraded by
    /// the splitter-iteration cap.
    pub outcome: SortOutcome,
}

impl SortStats {
    /// End-to-end virtual time of the sort on this rank. Under
    /// [`RecoveryPolicy::Shrink`] this includes the recovery overhead
    /// (failed attempts, survivor agreement, rollback); the per-phase
    /// fields always describe the final, successful attempt.
    pub fn total_ns(&self) -> u64 {
        let recovery = match &self.outcome {
            SortOutcome::Recovered { recovery_ns, .. } => *recovery_ns,
            _ => 0,
        };
        self.local_sort_ns
            + self.histogram_ns
            + self.prepare_ns
            + self.exchange_ns
            + self.merge_ns
            + recovery
    }
}

/// Sort the distributed vector whose local block on this rank is
/// `local`. Collective: every rank of `comm` must call it. On return,
/// `local` is sorted, globally ordered by rank, and sized according to
/// the partitioning policy.
///
/// # Panics
/// Panics when `cfg` fails [`SortConfig::validate`] (call it first to
/// get the error as a value instead).
pub fn histogram_sort<K: Key>(comm: &Comm, local: &mut Vec<K>, cfg: &SortConfig) -> SortStats {
    sort_pipeline(comm, local, &Keys, cfg, &mut None).0
}

/// Sort a distributed vector of arbitrary records by an extracted
/// [`Key`] — the `std::sort`-with-projection form scientific codes use
/// (e.g. particles keyed by Morton code, matrix nonzeros keyed by
/// row). Collective. Records run the same pipeline as plain keys with
/// the record hooks plugged in.
///
/// The payload moves **once**: the plan's segments of the sorted block
/// are sent borrowed through one `ALL-TO-ALLV`, and every record is
/// cloned exactly once, by its receiver. Both local phases are
/// *stable* sorts by key, charged as the paper's comparison sort and
/// re-sort merge and executed by whichever stable kernel is cheaper:
/// with more than one thread to execute on, the stable hybrid `dhs-shm`
/// kernels; on one thread, the LSD radix kernel over the key's bit
/// image where `dhs_shm::lsd_beats_comparison` says so (records
/// without drop glue, few live key bits against the levels a
/// comparison sort needs for the runs the block is *observed* to hold
/// — a presorted block is returned after one read sweep) and the
/// stable `sort_by_key` otherwise. Stability makes the kernels
/// indistinguishable: the output is element for element the global
/// stable sort of the input, for every `threads_per_rank` and engine.
///
/// The record hooks ignore [`SortConfig::local_sort`] and
/// [`SortConfig::merge`]: those price engines for `Ord + Copy`
/// keys (unstable sorts, k-way merges) that have no counterpart
/// over records ordered by an extracted key. Every other field applies
/// as for [`histogram_sort`]. The kernel rule is not a third such field
/// on purpose: it is a pure function of the block (length, runs, live
/// key bits, drop glue) with both sides on file (`record_sort_ab` in
/// `BENCH_wallclock.json`, all at one thread — which is why a hybrid
/// thread budget keeps the hybrid kernels), so a caller has nothing to
/// choose.
///
/// `key_fn` must be `Sync` so the hybrid path may evaluate it from
/// worker threads; key extraction is pure, so any ordinary projection
/// closure qualifies.
///
/// # Panics
/// Panics when `cfg` fails [`SortConfig::validate`].
pub fn histogram_sort_by<T, K, F>(
    comm: &Comm,
    local: &mut Vec<T>,
    key_fn: F,
    cfg: &SortConfig,
) -> SortStats
where
    T: Clone + Send + Sync + 'static,
    K: Key,
    F: Fn(&T) -> K + Sync,
{
    sort_pipeline(comm, local, &Records(&key_fn), cfg, &mut None).0
}

/// The three places where sorting plain keys and sorting `(T, key_fn)`
/// records genuinely differ. Everything else — validation, spans,
/// shape, splitter search, planning, the exchange, recovery — is
/// [`sort_pipeline`] and [`attempt`], written once. Both impls are
/// monomorphised, so the plain-key path keeps its zero-copy key view.
pub(crate) trait Payload<T> {
    /// The key space splitters are searched in.
    type Key: Key;

    /// Sort the local block and charge the engine's modelled cost
    /// (records need a *stable* sort, keys take the configured engine).
    /// The block is a `Vec` so that a hook sorting between two buffers
    /// can swap the finished one into place instead of copying back.
    fn local_sort(&self, comm: &Comm, data: &mut Vec<T>, cfg: &SortConfig);

    /// The sorted keys of `data`: the block itself for plain keys, an
    /// extracted (and charged) copy for records.
    fn key_view<'a>(&self, comm: &Comm, data: &'a [T]) -> Cow<'a, [Self::Key]>;

    /// Merge the received sorted runs into this rank's output block
    /// (keys: [`merge_received`]; records: the LSD kernel where the
    /// rule picks it, else the stable run-merge tree under a thread
    /// budget or a stable sort on one thread, since equal keys must
    /// keep their source order). `scratch` is the rank's send block, dead
    /// once the exchange has returned: the hooks' merge space.
    fn merge(
        &self,
        comm: &Comm,
        received: RecvRuns<T>,
        scratch: Vec<T>,
        cfg: &SortConfig,
    ) -> Vec<T>;
}

/// [`Payload`] of plain keys: the element is its own key.
pub(crate) struct Keys;

impl<K: Key> Payload<K> for Keys {
    type Key = K;

    fn local_sort(&self, comm: &Comm, data: &mut Vec<K>, cfg: &SortConfig) {
        local_sort_exec(comm, data, cfg.local_sort);
    }

    fn key_view<'a>(&self, _: &Comm, data: &'a [K]) -> Cow<'a, [K]> {
        Cow::Borrowed(data)
    }

    fn merge(
        &self,
        comm: &Comm,
        received: RecvRuns<K>,
        scratch: Vec<K>,
        cfg: &SortConfig,
    ) -> Vec<K> {
        merge_received(comm, received, scratch, cfg.merge, cfg.local_sort)
    }
}

/// The merge step of every distributed sort over keys — the histogram
/// sort's last superstep (§V-C) and the baselines' alike: charge the
/// merge of the received sorted runs by `merge`, then execute
/// `dhs_shm::merge_sorted_runs` over the receive buffer whatever the
/// charge model.
///
/// [`MergeAlgo::Resort`] is charged as the paper's re-sort (the
/// `resort` local-sort model over the received keys),
/// [`MergeAlgo::KWay`] as one k-way merge of the non-empty runs
/// ([`Work::MergeElems`]). The models only price the step: any merge
/// produces the one ascending permutation, and the in-place
/// run-merge tree (a re-sort below a mean run length of 32,
/// `dhs_shm::run_merge_beats_resort`) is the cheapest way to produce
/// it on the host. `scratch` is any vector the caller no longer needs
/// — the dead send block — so the tree ping-pongs between two buffers
/// the rank already holds and allocates nothing; the spent receive
/// counts go back to the rank's buffer pool. Charges depend on
/// sizes only, never on the thread budget, so output and virtual clock
/// are identical for every `threads_per_rank`.
pub fn merge_received<K: Key>(
    comm: &Comm,
    received: RecvRuns<K>,
    mut scratch: Vec<K>,
    merge: MergeAlgo,
    resort: LocalSort,
) -> Vec<K> {
    let (mut flat, counts) = received.into_parts();
    let n = flat.len() as u64;
    match merge {
        MergeAlgo::Resort => charge_local_sort::<K>(comm, n, resort),
        MergeAlgo::KWay => {
            let ways = counts.iter().filter(|&&c| c > 0).count() as u64;
            comm.charge(Work::MergeElems {
                n,
                ways: ways.max(2),
                elem_bytes: std::mem::size_of::<K>() as u64,
            });
        }
    }
    let te = comm.threads().exec_budget();
    let spent = dhs_shm::merge_sorted_runs(&mut flat, counts, &mut scratch, te, &K::cmp);
    comm.pool().recycle_usize(spent);
    flat
}

/// [`Payload`] of records ordered by an extracted key.
pub(crate) struct Records<'f, F>(pub &'f F);

/// Charge a stable comparison sort of `n` records of type `T` (the
/// records' local sort and re-sort merge alike). What the host runs
/// is the hooks' business — the LSD kernel by rule — and never moves
/// this charge, as for [`charge_local_sort`].
fn charge_record_sort<T>(comm: &Comm, n: usize) {
    comm.charge(Work::SortElems {
        n: n as u64,
        elem_bytes: std::mem::size_of::<T>() as u64,
    });
}

impl<F> Records<'_, F> {
    /// Stable-sort `data` by key with the LSD kernel where it is the
    /// cheaper stable sort; `false` leaves both buffers untouched for
    /// the comparison kernels. Two gates are known before anything
    /// reads the block: the rule refuses drop glue whatever the block
    /// holds, and the recorded cells are one thread against one — a
    /// serial LSD must not pre-empt a `te`-thread hybrid kernel. Past
    /// them the kernel's one read sweep observes `(n, runs, span)` and
    /// `dhs_shm::lsd_beats_comparison` decides.
    fn lsd_if_cheaper<T, K>(&self, comm: &Comm, data: &mut Vec<T>, scratch: &mut Vec<T>) -> bool
    where
        T: Clone,
        K: Key,
        F: Fn(&T) -> K,
    {
        let key = self.0;
        let needs_drop = std::mem::needs_drop::<T>();
        if needs_drop || comm.threads().exec_budget() > 1 {
            return false;
        }
        let bits = |r: &T| key(r).to_bits();
        dhs_shm::lsd_sort_if(data, scratch, &bits, |n, runs, span| {
            dhs_shm::lsd_beats_comparison(n, runs, span, needs_drop)
        })
    }
}

impl<T, K, F> Payload<T> for Records<'_, F>
where
    T: Clone + Send + Sync + 'static,
    K: Key,
    F: Fn(&T) -> K + Sync,
{
    type Key = K;

    fn local_sort(&self, comm: &Comm, data: &mut Vec<T>, _: &SortConfig) {
        let key = self.0;
        charge_record_sort::<T>(comm, data.len());
        if self.lsd_if_cheaper(comm, data, &mut Vec::new()) {
            return;
        }
        // The hybrid kernel reproduces the stable order exactly; on one
        // thread it is the stable `sort_by`.
        let te = comm.threads().exec_budget();
        dhs_shm::parallel_merge_sort_by(data, te, &|a: &T, b: &T| key(a).cmp(&key(b)));
    }

    fn key_view<'a>(&self, comm: &Comm, data: &'a [T]) -> Cow<'a, [K]> {
        // Records are positionally unique via the Algorithm 4
        // refinement, so the search needs nothing but the keys.
        let keys: Vec<K> = data.iter().map(self.0).collect();
        comm.charge(Work::MoveBytes(std::mem::size_of_val(&keys[..]) as u64));
        Cow::Owned(keys)
    }

    fn merge(
        &self,
        comm: &Comm,
        received: RecvRuns<T>,
        mut scratch: Vec<T>,
        _: &SortConfig,
    ) -> Vec<T> {
        let key = self.0;
        charge_record_sort::<T>(comm, received.total_len());
        let (mut all, counts) = received.into_parts();
        let spent = if self.lsd_if_cheaper(comm, &mut all, &mut scratch) {
            counts
        } else if comm.threads().is_parallel() {
            // Every received run is a slice of a sorted array, so the
            // hybrid path merges the runs stably — identical to the
            // serial stable re-sort of their concatenation.
            let te = comm.threads().exec_budget();
            let cmp = |a: &T, b: &T| key(a).cmp(&key(b));
            dhs_shm::merge_runs_in_place(&mut all, counts, &mut scratch, te, &cmp)
        } else {
            all.sort_by_key(key);
            counts
        };
        comm.pool().recycle_usize(spent);
        all
    }
}

/// What one attempt's splitter search aims for: the global key count,
/// the `P−1` boundary targets, and the Definition 1 slack. A pure
/// function of the gathered block sizes, so it is built once per
/// communicator, inside the collective that gathers them, and shared.
struct Shape {
    n_total: u64,
    targets: Vec<u64>,
    slack: u64,
}

impl Shape {
    /// Gather the block sizes and place the boundaries per
    /// [`SortConfig::partitioning`]. Collective.
    fn gather<T>(comm: &Comm, local: &[T], cfg: &SortConfig) -> Arc<Self> {
        let p = comm.size();
        comm.allgather_then(local.len(), |caps| {
            let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
            let targets = match cfg.partitioning {
                Partitioning::Perfect => perfect_targets(&caps),
                Partitioning::Balanced => balanced_targets(n_total, p),
            };
            Self {
                n_total,
                targets,
                slack: slack_for(n_total, p, cfg.epsilon),
            }
        })
    }
}

/// The warm-start stash carried from one search to the next: the last
/// search's splitters, shared with every rank (`None` = cold).
pub(crate) type WarmStash<K> = Option<Arc<[SplitterInfo<K>]>>;

/// The one sort pipeline behind every public entry point: local sort,
/// then [`attempt`] — once under [`RecoveryPolicy::Abort`], or under
/// [`RecoveryPolicy::Shrink`] as many times as it takes, shrinking past
/// failed peers and rolling back to the post-local-sort checkpoint
/// between attempts. Returns the survivor communicator when a shrink
/// happened (the epoch service keeps sorting on it).
pub(crate) fn sort_pipeline<T: Clone + Send + Sync + 'static, P: Payload<T>>(
    comm: &Comm,
    local: &mut Vec<T>,
    payload: &P,
    cfg: &SortConfig,
    warm: &mut WarmStash<P::Key>,
) -> (SortStats, Option<Comm>) {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let shrink = cfg.recovery == RecoveryPolicy::Shrink;
    // Armed before the local sort: a rank that dies in phase 1 must
    // leak its arm for its survivors to recover.
    let _guard = shrink.then(|| comm.arm_recovery());
    let t_begin = comm.now_ns();
    // Phase 1: validate, set the intra-rank thread budget, sort the
    // local block.
    if let Err(e) = cfg.validate() {
        panic!("invalid SortConfig: {e}");
    }
    comm.threads().configure(cfg.threads_per_rank);
    let sp = comm.span("local_sort");
    let intra = comm.intra_span("local_sort");
    payload.local_sort(comm, local, cfg);
    drop(intra);
    let mut stats = SortStats {
        n_in: local.len(),
        local_sort_ns: sp.finish(),
        ..SortStats::default()
    };
    if cfg.warm_start == WarmStart::Cold {
        *warm = None;
    }

    let mut active: Option<Comm> = None; // survivor comm after a shrink
    if !shrink {
        attempt(comm, local, payload, cfg, &mut stats, warm);
    } else {
        // Rollback checkpoint: one retained copy of the sorted block,
        // charged as a streaming copy, so no attempt ever re-sorts.
        let copy = Work::MoveBytes(std::mem::size_of_val(&local[..]) as u64);
        let sp = comm.span("prepare");
        let checkpoint = local.clone();
        comm.charge(copy);
        stats.prepare_ns += sp.finish();

        let mut lost: Vec<usize> = Vec::new();
        let mut restarts: u32 = 0;
        let mut recovery_ns: u64 = 0;
        loop {
            let c = active.as_ref().unwrap_or(comm);
            let attempt_begin = c.now_ns();
            let snapshot = stats.clone();
            let run = AssertUnwindSafe(|| attempt(c, local, payload, cfg, &mut stats, warm));
            match catch_unwind(run) {
                Ok(()) => break,
                Err(cause) if cause.is::<RecoveryInterrupt>() => {
                    // A peer died mid-attempt. Agree on the survivor
                    // set (epoch = restart count: every survivor passes
                    // the same value, keeping the rendezvous
                    // deterministic), roll back, and go again on the
                    // shrunk comm — `warm` already holds whatever the
                    // interrupted search accepted.
                    let shr = c.shrink(u64::from(restarts));
                    restarts += 1;
                    lost.extend(shr.lost.iter().copied());
                    stats = snapshot; // discard the failed attempt's phases
                    local.clone_from(&checkpoint);
                    shr.comm.charge(copy);
                    recovery_ns += shr.comm.now_ns() - attempt_begin;
                    active = Some(shr.comm);
                }
                Err(cause) => resume_unwind(cause),
            }
        }
        if restarts > 0 {
            // Recovery supersedes a Degraded verdict from the final
            // attempt; the realized ε is still observable via the
            // stats' n_out spread.
            stats.outcome = SortOutcome::Recovered {
                lost_ranks: lost,
                restarts,
                recovery_ns,
            };
        }
    }
    stats.n_out = local.len();
    debug_assert_eq!(
        stats.total_ns(),
        active.as_ref().unwrap_or(comm).now_ns() - t_begin,
        "phase totals plus recovery overhead must cover the sort's virtual time"
    );
    (stats, active)
}

/// One pass over phases 2–4 on communicator `c`, starting from the
/// locally sorted block: shape → key view → seeded splitter search →
/// plan → exchange → merge, each under its phase span. Under
/// [`RecoveryPolicy::Shrink`] a peer failure before the exchange
/// commits unwinds out of here with a [`RecoveryInterrupt`].
fn attempt<T: Clone + Send + Sync + 'static, P: Payload<T>>(
    c: &Comm,
    local: &mut Vec<T>,
    payload: &P,
    cfg: &SortConfig,
    stats: &mut SortStats,
    warm: &mut WarmStash<P::Key>,
) {
    // "Other" in the paper's breakdown: everything that is neither
    // histogramming nor the exchange proper.
    let sp = c.span("prepare");
    let shape = Shape::gather(c, local, cfg);
    if shape.n_total == 0 || c.size() == 1 {
        stats.prepare_ns += sp.finish();
        return;
    }
    let plan = {
        let keys = payload.key_view(c, local);
        stats.prepare_ns += sp.finish();

        // Phase 2: splitter determination by iterative histogramming,
        // seeded from the stash (empty = cold).
        let sp = c.span("histogram");
        let opts = SplitterOptions {
            max_iterations: cfg.max_splitter_iterations,
            probes_per_round: cfg.probes_per_round,
            ..SplitterOptions::default()
        };
        let ladder = warm.as_deref().unwrap_or_default();
        let (found, bounds) =
            find_splitters_with_bounds(c, &keys, &shape.targets, shape.slack, opts, ladder);
        // Written back before the exchange, so a crash later in this
        // attempt still warm-starts the retry: the search's own shared
        // splitters, not a copy of their keys.
        *warm = Some(Arc::clone(&found.splitters));
        stats.iterations += found.iterations;
        stats.probes += found.probes;
        stats.outcome = outcome_of(&found, shape.n_total, c.size());
        stats.histogram_ns += sp.finish();

        // Phase 3a: exchange preparation on the key view: Algorithm 4's
        // scan over the bounds the search located.
        let sp = c.span("prepare");
        let plan = cut_at_bounds(c, &found.splitters, bounds, keys.len());
        stats.prepare_ns += sp.finish();
        plan
    };

    // Phases 3b and 4: the payload exchange, keys and records alike
    // sent borrowed, then the merge. Once the exchange returns the
    // attempt has committed and can no longer be interrupted.
    let merge = |received, scratch| payload.merge(c, received, scratch, cfg);
    route_merge(c, local, plan, cfg.exchange_algo, merge, stats);
}

/// The exchange and merge supersteps of every sorter that cuts its
/// sorted block by an [`ExchangePlan`]: the end of every histogram
/// sort's attempt, [`cut_route_merge`], sample sort and PSRS. Sends
/// the block by `plan` under `algo` ([`exchange_data`], under
/// `exchange`), returns the plan's pooled vectors, then runs
/// `merge(received, scratch)` under `merge`, with `scratch` the dead
/// send block; its result is the rank's new block. The plan's vectors
/// stay checked out until the exchange has returned, so no buffer idles
/// in the pool while the exchange takes its receive counts from it.
/// Collective.
pub fn route_merge<T: Clone + Send + Sync + 'static>(
    comm: &Comm,
    local: &mut Vec<T>,
    plan: ExchangePlan,
    algo: AllToAllAlgo,
    merge: impl FnOnce(RecvRuns<T>, Vec<T>) -> Vec<T>,
    stats: &mut SortStats,
) {
    let sp = comm.span("exchange");
    let received = exchange_data(comm, local, &plan, algo);
    comm.pool().recycle_usize(plan.cuts);
    comm.pool().recycle_u64(plan.scanned);
    stats.exchange_ns += sp.finish();

    let sp = comm.span("merge");
    let intra = comm.intra_span("merge");
    *local = merge(received, std::mem::take(local));
    drop(intra);
    stats.merge_ns += sp.finish();
}

/// Phases 3–4 on an accepted search, for HSS and every HykSort level,
/// whose searches hand back no bounds: the Algorithm 4 cut (its keys
/// located first, by [`plan_exchange`]) under `prepare`, then
/// [`route_merge`] over the one-factor exchange (with `s < P − 1`
/// splitters segment `d` goes to a member of group `d`) and the merge
/// charged by `merge` (a re-sort as `resort`). Collective.
pub fn cut_route_merge<K: Key>(
    comm: &Comm,
    local: &mut Vec<K>,
    found: &SplitterResult<K>,
    merge: MergeAlgo,
    resort: LocalSort,
    stats: &mut SortStats,
) {
    let sp = comm.span("prepare");
    let plan = plan_exchange(comm, local, found);
    stats.prepare_ns += sp.finish();

    let merged = |received, scratch| merge_received(comm, received, scratch, merge, resort);
    route_merge(comm, local, plan, AllToAllAlgo::OneFactor, merged, stats);
}

/// Split `comm` into `k` contiguous rank groups ([`crate::exchange::group_range`]) under
/// `prepare` — the blocking, linear-cost split every group-recursive
/// sort pays per level — and return this rank's. Collective.
pub fn split_groups(comm: &Comm, k: usize, stats: &mut SortStats) -> Comm {
    let rank = comm.rank();
    let sp = comm.span("prepare");
    let sub = comm.split(group_of(rank, comm.size(), k) as u64, rank as u64);
    stats.prepare_ns += sp.finish();
    sub
}

/// Classify the splitter result of a search over `n_total` keys on `p`
/// ranks: exact within ε, or — when the iteration cap froze unsettled
/// splitters — the smallest ε for which Definition 1 would have
/// accepted the realized boundaries.
pub fn outcome_of<K>(res: &SplitterResult<K>, n_total: u64, p: usize) -> SortOutcome {
    if !res.degraded {
        return SortOutcome::Exact;
    }
    let max_dev = res
        .splitters
        .iter()
        .map(|s| s.realized.abs_diff(s.target))
        .max()
        .unwrap_or(0);
    SortOutcome::Degraded {
        achieved_epsilon: 2.0 * p as f64 * max_dev as f64 / n_total.max(1) as f64,
        iterations: res.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect()
    }

    fn global_expected(p: usize, n: usize, modulus: u64) -> Vec<u64> {
        let mut all: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        all.sort_unstable();
        all
    }

    fn check_sorted_output(
        p: usize,
        n: usize,
        modulus: u64,
        cfg: &SortConfig,
        expect_exact_counts: bool,
    ) {
        let cfg2 = cfg.clone();
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            let stats = histogram_sort(comm, &mut local, &cfg2);
            (local, stats)
        });
        let expect = global_expected(p, n, modulus);
        let mut got = Vec::new();
        for (rank, ((local, stats), _)) in out.iter().enumerate() {
            assert!(
                local.windows(2).all(|w| w[0] <= w[1]),
                "rank {rank} not locally sorted"
            );
            if expect_exact_counts {
                assert_eq!(local.len(), n, "rank {rank} perfect partition violated");
            }
            assert_eq!(stats.n_out, local.len());
            got.extend_from_slice(local);
        }
        assert_eq!(got, expect, "global order broken");
    }

    /// The record hooks' two static gates: the LSD arm is taken at an
    /// execution budget of one thread only, and never for records with
    /// drop glue; a refusal leaves the block and the scratch alone.
    #[test]
    fn record_lsd_arm_needs_one_thread_and_no_drop_glue() {
        run(&ClusterConfig::small_cluster(1), |comm| {
            let pairs: Vec<(u64, u64)> = keys_for(0, 5_000, 1 << 16).into_iter().zip(0..).collect();
            let mut sorted = pairs.clone();
            sorted.sort_by_key(|r| r.0);
            let key = |r: &(u64, u64)| r.0;
            let hook = Records(&key);

            // (budget, host cap): whatever the host has, a cap of one
            // makes the execution budget one.
            for (budget, cap) in [(1, usize::MAX), (4, 1), (4, usize::MAX)] {
                comm.threads().configure(budget);
                comm.threads().set_host_cap(cap);
                let serial = comm.threads().exec_budget() == 1;
                let (mut data, mut scratch) = (pairs.clone(), Vec::new());
                assert_eq!(hook.lsd_if_cheaper(comm, &mut data, &mut scratch), serial);
                if serial {
                    assert_eq!(data, sorted);
                } else {
                    assert!(data == pairs && scratch.capacity() == 0);
                }
            }

            comm.threads().configure(1);
            let owned: Vec<(u64, String)> = pairs.iter().map(|r| (r.0, r.1.to_string())).collect();
            let key = |r: &(u64, String)| r.0;
            let (mut data, mut scratch) = (owned.clone(), Vec::new());
            assert!(!Records(&key).lsd_if_cheaper(comm, &mut data, &mut scratch));
            assert!(data == owned && scratch.capacity() == 0);
        });
    }

    #[test]
    fn sorts_unique_keys_perfectly() {
        check_sorted_output(4, 1000, u64::MAX, &SortConfig::default(), true);
        check_sorted_output(7, 257, u64::MAX, &SortConfig::default(), true);
    }

    #[test]
    fn sorts_duplicates_perfectly() {
        check_sorted_output(4, 800, 5, &SortConfig::default(), true);
        check_sorted_output(6, 100, 1, &SortConfig::default(), true);
    }

    #[test]
    fn radix_local_sort_gives_same_result() {
        let cfg = SortConfig {
            local_sort: LocalSort::Radix,
            ..SortConfig::default()
        };
        check_sorted_output(4, 700, u64::MAX, &cfg, true);
        check_sorted_output(5, 300, 9, &cfg, true);
    }

    #[test]
    fn radix_is_cheaper_than_comparison_in_model() {
        let time = |ls: LocalSort| {
            let cfg = SortConfig {
                local_sort: ls,
                ..SortConfig::default()
            };
            let out = run(&ClusterConfig::small_cluster(4), move |comm| {
                let mut local = keys_for(comm.rank(), 100_000, u64::MAX);
                histogram_sort(comm, &mut local, &cfg).local_sort_ns
            });
            out.into_iter().map(|(t, _)| t).max().unwrap_or(0)
        };
        assert!(time(LocalSort::Radix) < time(LocalSort::Comparison));
    }

    #[test]
    fn both_merge_charges_give_same_result() {
        for merge in [MergeAlgo::Resort, MergeAlgo::KWay] {
            let cfg = SortConfig {
                merge,
                ..SortConfig::default()
            };
            check_sorted_output(4, 300, 1 << 20, &cfg, true);
        }
    }

    /// What the two `MergeAlgo` values mean: `Resort` is charged as the
    /// local-sort model over the received keys, `KWay` as one merge of
    /// the non-empty runs, at least two ways. Both run the same merge.
    #[test]
    fn merge_received_charges_by_model_and_runs_one_merge() {
        run(&ClusterConfig::small_cluster(1), |comm| {
            let model = comm.cost_model();
            for (runs, ways) in [
                (
                    vec![vec![3u64, 9, 12], vec![], vec![1, 4, 4, 20], vec![2]],
                    3,
                ),
                (vec![vec![], vec![5u64, 6, 7]], 2),
            ] {
                let counts: Vec<usize> = runs.iter().map(Vec::len).collect();
                let n = runs.concat().len() as u64;
                let mut outputs = Vec::new();
                for (merge, want) in [
                    (MergeAlgo::Resort, Work::SortElems { n, elem_bytes: 8 }),
                    (
                        MergeAlgo::KWay,
                        Work::MergeElems {
                            n,
                            ways,
                            elem_bytes: 8,
                        },
                    ),
                ] {
                    let received = RecvRuns::from_parts(runs.concat(), counts.clone());
                    let t0 = comm.now_ns();
                    let out =
                        merge_received(comm, received, Vec::new(), merge, LocalSort::Comparison);
                    assert_eq!(comm.now_ns() - t0, model.work_ns(want), "{merge:?}");
                    outputs.push(out);
                }
                let mut expect = runs.concat();
                expect.sort_unstable();
                assert_eq!(outputs, [expect.clone(), expect]);
            }
        });
    }

    #[test]
    fn unique_keys_sort_like_plain_keys() {
        // §V-A fidelity needs no knob: `UniqueKey` is a `Key`, so the
        // transformed keys go through the ordinary entry point.
        use crate::key::{make_unique, strip_unique};
        for (p, modulus) in [(4, 3), (5, u64::MAX)] {
            let out = run(&ClusterConfig::small_cluster(p), move |comm| {
                let mut plain = keys_for(comm.rank(), 500, modulus);
                let mut tagged = make_unique(&plain, comm.rank());
                histogram_sort(comm, &mut plain, &SortConfig::default());
                histogram_sort(comm, &mut tagged, &SortConfig::default());
                (plain, strip_unique(tagged))
            });
            for ((plain, stripped), _) in out {
                assert_eq!(plain.len(), 500, "perfect partition");
                assert_eq!(plain, stripped);
            }
        }
    }

    #[test]
    fn epsilon_relaxes_counts_within_bound() {
        let p = 4;
        let n = 2000;
        let eps = 0.1;
        let cfg = SortConfig {
            epsilon: eps,
            ..SortConfig::default()
        };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, u64::MAX);
            histogram_sort(comm, &mut local, &cfg);
            local
        });
        let expect = global_expected(p, n, u64::MAX);
        let mut got = Vec::new();
        for (local, _) in &out {
            // Definition 1: each rank holds at most N(1+ε)/P keys
            // (boundaries off by at most N·ε/(2P) on each side).
            let max_keys = ((p * n) as f64 * (1.0 + eps) / p as f64).ceil() as usize;
            assert!(local.len() <= max_keys, "{} > {max_keys}", local.len());
            got.extend_from_slice(local);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn iteration_cap_degrades_gracefully() {
        let p = 4;
        let n = 2000;
        // One iteration can never settle ε=0 splitters on wide keys.
        let cfg = SortConfig {
            max_splitter_iterations: Some(1),
            ..SortConfig::default()
        };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, u64::MAX);
            let stats = histogram_sort(comm, &mut local, &cfg);
            (local, stats)
        });
        let expect = global_expected(p, n, u64::MAX);
        let mut got = Vec::new();
        for (rank, ((local, stats), _)) in out.iter().enumerate() {
            assert!(
                local.windows(2).all(|w| w[0] <= w[1]),
                "rank {rank} not sorted"
            );
            assert_eq!(stats.iterations, 1);
            match &stats.outcome {
                SortOutcome::Degraded {
                    achieved_epsilon,
                    iterations,
                } => {
                    assert!(*achieved_epsilon > 0.0);
                    assert!(achieved_epsilon.is_finite());
                    assert_eq!(*iterations, 1);
                }
                other => panic!("rank {rank}: cap of 1 should degrade, got {other:?}"),
            }
            got.extend_from_slice(local);
        }
        // Global order survives degradation; only the balance slips.
        assert_eq!(got, expect);
    }

    #[test]
    fn generous_iteration_cap_stays_exact() {
        let cfg = SortConfig {
            max_splitter_iterations: Some(200),
            ..SortConfig::default()
        };
        let out = run(&ClusterConfig::small_cluster(4), move |comm| {
            let mut local = keys_for(comm.rank(), 500, u64::MAX);
            let stats = histogram_sort(comm, &mut local, &cfg);
            assert_eq!(local.len(), 500, "perfect partition expected");
            stats.outcome
        });
        assert!(out.iter().all(|(o, _)| *o == SortOutcome::Exact));
    }

    /// Every arm of [`InvalidSortConfig`], the field value that raises
    /// it and its `Display` text.
    #[test]
    fn validate_rejects_every_unexecutable_config() {
        let d = SortConfig::default;
        let staged = |k| SortConfig {
            exchange_algo: AllToAllAlgo::StagedKWay { k },
            ..d()
        };
        let eps = |epsilon| SortConfig { epsilon, ..d() };
        let table = [
            (
                eps(-0.5),
                "epsilon must be finite and non-negative, got -0.5",
            ),
            (
                eps(f64::NAN),
                "epsilon must be finite and non-negative, got NaN",
            ),
            (
                eps(f64::INFINITY),
                "epsilon must be finite and non-negative, got inf",
            ),
            (
                SortConfig {
                    max_splitter_iterations: Some(0),
                    ..d()
                },
                "max_splitter_iterations must be at least 1 when set",
            ),
            (
                SortConfig {
                    threads_per_rank: 0,
                    ..d()
                },
                "threads_per_rank must be at least 1",
            ),
            (
                SortConfig {
                    probes_per_round: 0,
                    ..d()
                },
                "probes_per_round must be at least 1",
            ),
            (staged(0), "StagedKWay fan-out must be at least 2, got 0"),
            (staged(1), "StagedKWay fan-out must be at least 2, got 1"),
        ];
        for (cfg, text) in table {
            let err = cfg.validate().expect_err(text);
            assert_eq!(err.to_string(), text);
            let arm_matches = match err {
                InvalidSortConfig::BadEpsilon(e) => e.to_bits() == cfg.epsilon.to_bits(),
                InvalidSortConfig::ZeroIterationCap => cfg.max_splitter_iterations == Some(0),
                InvalidSortConfig::ZeroThreads => cfg.threads_per_rank == 0,
                InvalidSortConfig::ZeroProbes => cfg.probes_per_round == 0,
                InvalidSortConfig::BadExchangeFanout(k) => {
                    cfg.exchange_algo == AllToAllAlgo::StagedKWay { k }
                }
            };
            assert!(arm_matches, "{text}");
        }
        assert_eq!(d().validate(), Ok(()));
        assert_eq!(staged(2).validate(), Ok(()));

        // The defaults themselves: fully serial, one probe per round,
        // abort on failure, the priced exchange schedule, a cold start
        // and the paper's re-sort merge.
        let def = d();
        assert_eq!(
            (
                def.threads_per_rank,
                def.probes_per_round,
                def.recovery,
                def.exchange_algo,
                def.warm_start,
                def.merge,
            ),
            (
                1,
                1,
                RecoveryPolicy::Abort,
                AllToAllAlgo::Priced,
                WarmStart::Cold,
                MergeAlgo::Resort,
            )
        );

        // The sort entry point re-validates: fields are public.
        let res = std::panic::catch_unwind(|| {
            run(&ClusterConfig::small_cluster(2), |comm| {
                let cfg = SortConfig {
                    epsilon: f64::NAN,
                    ..SortConfig::default()
                };
                histogram_sort(comm, &mut vec![1u64, 2], &cfg);
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn balanced_partitioning_rebalances_skewed_input() {
        let p = 4;
        let cfg = SortConfig {
            partitioning: Partitioning::Balanced,
            ..SortConfig::default()
        };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            // Rank 0 holds everything.
            let mut local = if comm.rank() == 0 {
                keys_for(0, 1000, 1 << 30)
            } else {
                Vec::new()
            };
            histogram_sort(comm, &mut local, &cfg);
            local.len()
        });
        for (len, _) in out {
            assert_eq!(len, 250, "balanced targets must even out the load");
        }
    }

    #[test]
    fn sparse_input_keeps_capacities() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = if comm.rank() == 2 {
                keys_for(2, 999, 1 << 16)
            } else {
                Vec::new()
            };
            histogram_sort(comm, &mut local, &SortConfig::default());
            local.len()
        });
        assert_eq!(
            out.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![0, 0, 999, 0]
        );
    }

    #[test]
    fn single_rank_and_empty_input() {
        let out = run(&ClusterConfig::small_cluster(1), |comm| {
            let mut local = keys_for(0, 100, 1 << 10);
            histogram_sort(comm, &mut local, &SortConfig::default());
            local
        });
        assert!(out[0].0.windows(2).all(|w| w[0] <= w[1]));

        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let mut local: Vec<u64> = Vec::new();
            let stats = histogram_sort(comm, &mut local, &SortConfig::default());
            (local.len(), stats.iterations)
        });
        for ((len, iters), _) in out {
            assert_eq!(len, 0);
            assert_eq!(iters, 0);
        }
    }

    #[test]
    fn stats_phases_are_populated() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = keys_for(comm.rank(), 5000, 1 << 30);
            histogram_sort(comm, &mut local, &SortConfig::default())
        });
        for (stats, _) in out {
            assert!(stats.iterations > 0);
            assert!(stats.local_sort_ns > 0);
            assert!(stats.histogram_ns > 0);
            assert!(stats.exchange_ns > 0);
            assert!(stats.merge_ns > 0);
            assert_eq!(stats.n_in, 5000);
            assert_eq!(stats.n_out, 5000);
            assert!(stats.total_ns() > 0);
        }
    }

    #[test]
    fn sort_by_key_carries_payload() {
        let p = 4;
        let n = 500;
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            // Records: (key, origin-rank, origin-index).
            let mut records: Vec<(u64, u32, u32)> = keys_for(comm.rank(), n, 100)
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, comm.rank() as u32, i as u32))
                .collect();
            histogram_sort_by(comm, &mut records, |r| r.0, &SortConfig::default());
            records
        });
        // Keys globally ordered; every payload survives exactly once.
        let mut all: Vec<(u64, u32, u32)> = Vec::new();
        for (records, _) in &out {
            assert_eq!(records.len(), n, "perfect partitioning on records");
            assert!(records.windows(2).all(|w| w[0].0 <= w[1].0));
            all.extend_from_slice(records);
        }
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut origins: Vec<(u32, u32)> = all.iter().map(|r| (r.1, r.2)).collect();
        origins.sort_unstable();
        origins.dedup();
        assert_eq!(origins.len(), p * n, "payloads must be a permutation");
        // Payload still matches its key.
        for &(k, r, i) in &all {
            assert_eq!(keys_for(r as usize, n, 100)[i as usize], k);
        }
    }

    #[test]
    fn sort_by_key_balanced_targets() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut records: Vec<(u64, u8)> = if comm.rank() == 0 {
                keys_for(0, 1000, 1 << 20)
                    .into_iter()
                    .map(|k| (k, 0xAB))
                    .collect()
            } else {
                Vec::new()
            };
            let cfg = SortConfig {
                partitioning: Partitioning::Balanced,
                ..SortConfig::default()
            };
            histogram_sort_by(comm, &mut records, |r| r.0, &cfg);
            records.len()
        });
        assert!(out.iter().all(|(l, _)| *l == 250));
    }

    #[test]
    fn ordered_float_keys_sort() {
        use crate::key::OrderedF64;
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut x = (comm.rank() as u64 + 1) | 1;
            let mut local: Vec<OrderedF64> = (0..500)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    OrderedF64((x as f64 / u64::MAX as f64) * 2e6 - 1e6)
                })
                .collect();
            histogram_sort(comm, &mut local, &SortConfig::default());
            local
        });
        let mut prev = f64::NEG_INFINITY;
        for (local, _) in out {
            assert_eq!(local.len(), 500);
            for v in local {
                assert!(v.0 >= prev);
                prev = v.0;
            }
        }
    }
}
