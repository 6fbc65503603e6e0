//! Splitter determination by iterative histogramming (paper §V-A,
//! Algorithms 2 and 3), with two engineering upgrades over the paper's
//! loop: **multi-probe bisection** and **shrinking index brackets**.
//!
//! Each of the `P-1` splitters is a key-space interval `[lo, hi]`
//! refined once per iteration. A single `ALLREDUCE` per iteration sums
//! the local histograms (`lower_bound`/`upper_bound` positions obtained
//! by binary search in the locally sorted data) of *all still-active*
//! splitters; Algorithm 2 then either accepts a splitter — when the
//! achievable boundary interval `[L_i, U_i]` meets the target within
//! the `ε` slack — or narrows its key interval.
//!
//! Convergence: the `t`-th smallest key always satisfies the acceptance
//! condition, and the bisection keeps it inside `[lo, hi]` while
//! halving the interval, so at most `K::BITS + 1` probes are needed per
//! splitter — the "number of iterations is bound by the key size"
//! observation of §V-A. With coarse-grained keys (duplicates) the
//! interval `[L, U]` is fat and acceptance comes *sooner*; boundary
//! splitting of equal keys is then resolved exactly by the Algorithm 4
//! refinement in [`crate::exchange`].
//!
//! ## Multi-probe bisection (α-for-β trade)
//!
//! Each refinement round costs one thin `ALLREDUCE` — pure latency (α)
//! at scale, since the payload is a handful of counters. With
//! [`SplitterOptions::probes_per_round`] `= m = 2^d - 1`, every
//! still-active splitter probes the **full `d`-level bisection tree**
//! of its interval (the root midpoint, both quarter points, … — for a
//! wide interval these are the `m` equally spaced interior grid points
//! at `j/(m+1)` of the interval), all folded into *one* allreduce of
//! `2m` counters per splitter. After the reduction the splitter
//! *descends* its tree: the root's verdict picks the half, the matching
//! child's verdict picks the quarter, and so on — exactly the `d`
//! probes classic bisection would have issued over `d` rounds. Rounds
//! therefore drop from `O(BITS)` to `O(BITS / log₂(m+1))` while the
//! per-round payload grows `m`-fold: β-bytes bought with α-rounds,
//! precisely the trade the α–β cost model prices (and the same knob
//! Histogram Sort with Sampling and AMS-sort turn, by other means).
//!
//! Because the descent replays the single-probe path verbatim, the
//! accepted splitter keys, realized boundaries and the `degraded` flag
//! are **identical for every `m`** — a finer grid can only accept the
//! same key *earlier*. `m = 1` *is* the classic loop, bit for bit.
//!
//! ## Shrinking index brackets
//!
//! A splitter's key interval only ever narrows, so the local array
//! positions its probes can land on narrow monotonically too: after a
//! `TooHigh` verdict at probe `k`, every future probe is `< k` and its
//! binary search cannot exit `[0, lower(k)]`; after `TooLow`, it cannot
//! exit `[upper(k), n]`. Each splitter therefore carries a per-rank
//! `[idx_lo, idx_hi]` bracket into the sorted local data; probes search
//! only `sorted_local[idx_lo..idx_hi]` and the cost model charges
//! [`Work::BinarySearches`] over the bracket width instead of
//! `n_local` — a host-time *and* virtual-time win that compounds as
//! the search converges. Bracket state is per-rank (it follows local
//! counts), but it never influences which keys are probed, so all
//! ranks still execute identical collective schedules.
//!
//! One pass per round does both: the loop over the active splitters
//! loads a bracket once, prices its searches into a
//! [`dhs_runtime::Charges`] batch (integer adds, no runtime call) and
//! runs them; the batch is posted with one [`Comm::post`] per round,
//! which is observably identical to the `P-1` single charges it sums
//! (same clock, same `compute_ns`, same death under a crash deadline).
//!
//! ## Replicated state is shared
//!
//! Key intervals, restart fallbacks, accepted splitters, the probe
//! grid and the descent are pure functions of the *global* histograms:
//! every rank would compute them identically. They live in one shared
//! round plan per round for the whole communicator, advanced exactly
//! once — by whichever rank completes the round's histogram allreduce,
//! right after the sum ([`Comm::allreduce_sum_then`]) — and the ranks
//! only read it. What stays per rank is what follows *local* counts:
//! the index brackets and the pooled histogram. Each rank searches its
//! own bracketed slice for the shared probe list, charges, deposits,
//! and afterwards folds the shared verdict path over its own counts to
//! narrow its brackets. Only the binary searches and the allreduce are
//! priced on the virtual clock, so where the refinement ran is
//! unobservable there, and results are byte-identical to every rank
//! refining for itself (Alg. 3 as printed) at `1/P` of the host work
//! and memory — Histogram Sort with Sampling likewise refines in one
//! place and broadcasts the next probes. The *result* is shared the
//! same way: the rank that completes the last round's allreduce builds
//! the `P-1` [`SplitterInfo`]s once and every rank's
//! [`SplitterResult::splitters`] points at that one allocation.

use std::ops::Range;
use std::sync::Arc;

use dhs_runtime::{Charges, Comm, Work};
use dhs_shm::kernels::ladder_bounds_typed;
use dhs_shm::Kernels;

use crate::key::Key;

/// One determined splitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitterInfo<K> {
    /// The accepted splitter key `S_i`.
    pub key: K,
    /// Requested global boundary rank `K_{i+1}` (number of keys that
    /// should end up left of this splitter).
    pub target: u64,
    /// Realized boundary: `clamp(target, L, U)`; equals `target` when
    /// `ε = 0`.
    pub realized: u64,
    /// `L_i`: global number of keys strictly below `key`.
    pub global_lower: u64,
    /// `U_i`: global number of keys less than or equal to `key`.
    pub global_upper: u64,
}

/// Result of the splitter search.
#[derive(Debug, Clone)]
pub struct SplitterResult<K> {
    /// `P-1` splitters, ordered: one allocation shared by every rank
    /// of the communicator that searched.
    pub splitters: Arc<[SplitterInfo<K>]>,
    /// Histogramming iterations executed (each = one `ALLREDUCE`).
    /// With multi-probe bisection one iteration evaluates up to
    /// `log₂(probes_per_round + 1)` bisection steps per splitter.
    pub iterations: u32,
    /// Total candidate keys histogrammed across all iterations (2
    /// counters each in the allreduce payload). At
    /// `probes_per_round = 1` this equals the number of bisection
    /// steps; larger grids spend more probes to buy fewer rounds.
    pub probes: u64,
    /// `true` when an iteration cap stopped the search before every
    /// splitter met its slack: the unsettled splitters were frozen at
    /// their best-so-far probe, so realized boundaries may deviate from
    /// their targets by more than `slack` (graceful degradation).
    pub degraded: bool,
}

/// Validation outcome for one splitter probe (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Validation {
    /// `[L, U]` intersects `[t - slack, t + slack]`: accepted.
    Accept { realized: u64 },
    /// Even the least-inclusive boundary `L` overshoots: move down.
    TooHigh,
    /// Even the most-inclusive boundary `U` undershoots: move up.
    TooLow,
}

/// Algorithm 2, generalized to an `ε` slack: decide whether probe `S_i`
/// with global histogram `(lower, upper)` settles target `t`.
///
/// With `strict` (the paper's literal `L < K ≤ U` rule) the splitter
/// must land *on a data key* whose equal range covers the boundary.
/// Without it, a probe lying in a gap with exactly the right count
/// below (`L == t == U`) is also accepted — an engineering relaxation
/// that roughly halves the iteration count (a boundary between two
/// keys is just as good as the key itself, and gaps are hit long
/// before the exact key bits are resolved).
fn validate_splitter(lower: u64, upper: u64, target: u64, slack: u64, strict: bool) -> Validation {
    let lo_ok = target.saturating_sub(slack);
    let hi_ok = target.saturating_add(slack);
    // Boundaries achievable at this probe: [lower, upper] relaxed,
    // (lower, upper] strict — except that target 0 can only ever be
    // realized as "nothing below", which the strict rule would make
    // unsatisfiable.
    let achievable_lo = if strict && target > 0 {
        lower + 1
    } else {
        lower
    };
    if achievable_lo.max(lo_ok) <= upper.min(hi_ok) {
        return Validation::Accept {
            realized: target.clamp(achievable_lo, upper),
        };
    }
    // Rejected: steer towards the target's key. Strict mode must treat
    // a gap probe with `L == t` as too high — the t-th key itself lies
    // *below* such a probe.
    let too_high = if strict {
        lower >= target
    } else {
        lower > hi_ok
    };
    if too_high {
        Validation::TooHigh
    } else {
        Validation::TooLow
    }
}

/// Strategy for the initial splitter intervals (ablation A3: the paper
/// "focuses on optimizing the initial splitter guesses" instead of
/// sampling every round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialBounds {
    /// One min/max reduction over the data (Algorithm 3 line 3; the
    /// paper's choice and the default).
    DataMinMax,
    /// The full key domain `[0, 2^BITS)` — no reduction, but bisection
    /// must first find the populated region.
    FullDomain,
    /// Per-splitter brackets from a one-shot regular sample
    /// (`per_rank` probes per rank). Brackets may miss the true
    /// splitter; the search then falls back to the data min/max
    /// bracket for that splitter.
    SampledQuantiles {
        /// Probes taken per rank for the one-shot sample.
        per_rank: usize,
    },
}

/// Determine all splitters for the given global boundary `targets`
/// (ascending, each in `[0, N]`) over the ranks' locally sorted data.
/// `slack` is the per-splitter tolerance `⌊N·ε/(2P)⌋` of Definition 1.
///
/// Every rank must call this collectively with the same `targets` and
/// `slack`; all ranks return identical results.
pub fn find_splitters<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
) -> SplitterResult<K> {
    let opts = SplitterOptions::default();
    find_splitters_cfg(comm, sorted_local, targets, slack, opts)
}

/// Full tuning knobs of the splitter search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitterOptions {
    /// Initial bisection intervals.
    pub init: InitialBounds,
    /// Use the paper's literal Algorithm 2 acceptance (`L < K <= U`):
    /// splitters must land on data keys, which drives the iteration
    /// count to the key width (the 60-64 iterations the paper reports
    /// for 64-bit keys). Off by default: gap boundaries are accepted
    /// too, roughly halving the iterations.
    pub strict_paper_rule: bool,
    /// Hard cap on histogramming iterations. When hit, splitters still
    /// active are frozen at their best-so-far probe (realized boundary
    /// clamped into that probe's achievable `[L, U]`) and the result is
    /// marked [`SplitterResult::degraded`] instead of asserting.
    /// `None` (default) bounds the search only by the convergence
    /// guarantee of the key width.
    pub max_iterations: Option<u32>,
    /// Candidate keys histogrammed per still-active splitter per
    /// round, folded into one allreduce (`m ≥ 1`; effectively rounded
    /// down to `2^d - 1` where `d = ⌊log₂(m+1)⌋` — the probe grid is
    /// the full `d`-level bisection tree of the interval). `1` (the
    /// default) is the paper's single-midpoint bisection; larger grids
    /// cut the round count to `⌈steps / d⌉` at `m`× the allreduce
    /// payload. Accepted splitters are identical for every `m`.
    pub probes_per_round: usize,
    /// With a warm seed ([`find_splitters_seeded`]), start each
    /// splitter from the **degenerate interval `[w, w]`** around its
    /// warm ladder key instead of the one-key-of-margin quantile
    /// bracket: round 1 then probes the previous search's accepted key
    /// itself. On truly stationary data that key validates immediately
    /// and every splitter settles in a single round; on drifted data
    /// the miss restarts into the retained quantile bracket (and, on a
    /// second miss, the full data range), costing one extra round per
    /// fallback level. Off by default (no effect without a warm seed);
    /// the epoch service enables it for
    /// `WarmStart::SeededWithBrackets`.
    pub probe_warm_first: bool,
    /// Kernel backend for the per-round probe searches: for native
    /// integer keys the two `partition_point`s per probe run through
    /// the batched branchless-search kernel
    /// ([`dhs_shm::Kernels::ladder_bounds_u64`] and friends). Accepted
    /// splitters, histograms, and charges are byte-identical for every
    /// backend — only host time differs. Defaults to the
    /// process-detected backend ([`dhs_shm::Kernels::auto`]).
    pub kernels: Kernels,
}

impl Default for SplitterOptions {
    fn default() -> Self {
        Self {
            init: InitialBounds::DataMinMax,
            strict_paper_rule: false,
            max_iterations: None,
            probes_per_round: 1,
            probe_warm_first: false,
            kernels: Kernels::auto(),
        }
    }
}

/// Effective bisection-tree depth for `m` probes per round:
/// `d = ⌊log₂(m+1)⌋` (so `m` is rounded down to the nearest `2^d - 1`).
fn probe_depth(probes_per_round: usize) -> u32 {
    (probes_per_round as u64 + 1).ilog2()
}

/// Emit the probe keys of the `depth`-level bisection tree of
/// `[lo, hi]` in pre-order: root midpoint, left subtree over
/// `[lo, mid-1]`, right subtree over `[mid+1, hi]`. Subtrees that fall
/// off the interval are pruned, so at most `2^depth - 1` keys are
/// emitted and every emitted key is distinct and inside `[lo, hi]`.
fn tree_probes(lo: u128, hi: u128, depth: u32, out: &mut Vec<u128>) {
    if depth == 0 || lo > hi {
        return;
    }
    let mid = lo + (hi - lo) / 2;
    out.push(mid);
    if mid > lo {
        tree_probes(lo, mid - 1, depth - 1, out);
    }
    if mid < hi {
        tree_probes(mid + 1, hi, depth - 1, out);
    }
}

/// Number of probes [`tree_probes`] emits for `[lo, hi]` at `depth`
/// (used to index into the pre-order layout during descent).
fn tree_size(lo: u128, hi: u128, depth: u32) -> usize {
    if depth == 0 || lo > hi {
        return 0;
    }
    let mid = lo + (hi - lo) / 2;
    let left = if mid > lo {
        tree_size(lo, mid - 1, depth - 1)
    } else {
        0
    };
    let right = if mid < hi {
        tree_size(mid + 1, hi, depth - 1)
    } else {
        0
    };
    1 + left + right
}

/// [`find_splitters`] with every knob exposed.
pub fn find_splitters_cfg<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
    opts: SplitterOptions,
) -> SplitterResult<K> {
    find_splitters_impl(comm, sorted_local, targets, slack, opts, None)
}

/// [`find_splitters_cfg`] warm-started from a previous search's
/// accepted splitter keys (HSS-style seeding, used when re-running the
/// search over fewer ranks after a shrink-and-recover). `warm` must be
/// globally replicated and ascending; each new target's initial
/// interval brackets its quantile position in the warm ladder with one
/// key of margin, so stationary data re-converges in a handful of
/// rounds instead of `O(BITS)`. An empty `warm` falls back to
/// `opts.init` exactly; accepted splitters may differ from a cold
/// search, but realized boundaries satisfy the same `slack` contract.
pub fn find_splitters_seeded<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
    opts: SplitterOptions,
    warm: &[K],
) -> SplitterResult<K> {
    let warm = (!warm.is_empty()).then_some(warm);
    find_splitters_impl(comm, sorted_local, targets, slack, opts, warm)
}

/// Replicated search state of one splitter: a pure function of the
/// *global* histograms, so one copy serves the whole communicator.
#[derive(Clone)]
struct Search {
    lo: u128,
    hi: u128,
    /// Last probe evaluated for this splitter, `(bits, L, U)` — the
    /// freeze point for graceful degradation.
    last: (u128, u64, u64),
    /// Interval to restart into when the current bracket exhausts
    /// without acceptance. Consumed once: after use it resets to the
    /// full data range, so a search can fall back at most twice (warm
    /// key → quantile bracket → data min/max).
    fallback: (u128, u128),
    done: Option<(u128, u64, u64, u64)>, // (key bits, realized, L, U)
}

/// What one visited node of a descent told its splitter. Ranks fold
/// these over their *local* counts of the same node to narrow their
/// index brackets; an accepting node ends the path unrecorded (a
/// settled splitter is never searched again).
#[derive(Clone, Copy)]
enum Verdict {
    /// Every future probe is below this node: its searches cannot exit
    /// `[idx_lo, local lower(node)]`.
    TooHigh,
    /// Every future probe is above: `[local upper(node), idx_hi]`.
    TooLow,
    /// Bracket exhausted without acceptance — only possible when the
    /// initial bracket missed the splitter (sampled quantiles, warm
    /// seeding). The search restarts into the fallback interval and
    /// the index-bracket proof no longer holds, so that resets too.
    Restart,
}

/// One step of the previous round's descents.
#[derive(Clone, Copy)]
struct Step {
    /// Index of the splitter the step belongs to.
    splitter: usize,
    /// Probe index of the visited node in that round's grid.
    node: usize,
    verdict: Verdict,
}

/// Everything about a histogramming round that is a pure function of
/// replicated data, built **once per round for the whole
/// communicator**: by [`RoundPlan::start`] on the reduction that
/// establishes the data range, then by [`RoundPlan::advance`] inside
/// each round's histogram allreduce (see [`Comm::allreduce_sum_then`]).
/// Ranks only read it.
struct RoundPlan<K> {
    /// Global key range, the last-resort restart interval.
    data: (u128, u128),
    /// Per-splitter key-interval state; empty on globally empty input.
    search: Vec<Search>,
    /// Splitters this round probes (the unsettled ones), ascending.
    active: Vec<usize>,
    /// Probe grid: the full depth-level bisection tree of each active
    /// splitter's key interval, flattened per splitter in pre-order
    /// (Alg. 3 line 7, batched).
    probes: Vec<u128>,
    /// `probes[offsets[j]..offsets[j + 1]]` is the tree of `active[j]`.
    offsets: Vec<usize>,
    /// The descents that led here, over the previous round's grid.
    path: Vec<Step>,
    /// Rounds reduced so far (each = one `ALLREDUCE`).
    rounds: u32,
    /// Probes histogrammed over those rounds.
    probes_total: u64,
    degraded: bool,
    /// The result, built once every splitter has settled (`active` is
    /// then empty) and shared by every rank's [`SplitterResult`].
    settled: Option<Arc<[SplitterInfo<K>]>>,
}

impl<K: Key> RoundPlan<K> {
    /// The plan of round 1: every splitter starts in its `bracket`
    /// with a `fallback` to restart into.
    fn start(
        data: (u128, u128),
        brackets: impl Iterator<Item = ((u128, u128), (u128, u128))>,
        depth: u32,
    ) -> Self {
        let search = brackets
            .map(|((lo, hi), fallback)| Search {
                lo,
                hi,
                last: (lo, 0, 0),
                fallback,
                done: None,
            })
            .collect();
        Self {
            data,
            search,
            active: Vec::new(),
            probes: Vec::new(),
            offsets: Vec::new(),
            path: Vec::new(),
            rounds: 0,
            probes_total: 0,
            degraded: false,
            settled: None,
        }
        .with_grid(depth)
    }

    /// The plan for globally empty input: nothing to split.
    fn empty() -> Self {
        Self::start((0, 0), std::iter::empty(), 1)
    }

    /// List the unsettled splitters and lay out their probe trees.
    fn with_grid(mut self, depth: u32) -> Self {
        self.offsets.push(0);
        for (i, s) in self.search.iter().enumerate() {
            if s.done.is_none() {
                self.active.push(i);
                tree_probes(s.lo, s.hi, depth, &mut self.probes);
                self.offsets.push(self.probes.len());
            }
        }
        self
    }

    /// Refine every active splitter against this round's `global`
    /// histogram and lay out the next round. Each splitter descends its
    /// probe tree along exactly the path single-probe bisection would
    /// walk (Alg. 3 line 9 / Alg. 2 at every level): the root
    /// midpoint's verdict selects the half, the matching child's
    /// verdict the quarter, and so on, until acceptance, a restart, or
    /// the round's depth is spent.
    fn advance(&self, global: &[u64], targets: &[u64], slack: u64, opts: SplitterOptions) -> Self {
        let depth = probe_depth(opts.probes_per_round);
        let mut search = self.search.clone();
        let mut path = Vec::with_capacity(self.active.len());
        for (j, &i) in self.active.iter().enumerate() {
            let s = &mut search[i];
            let (mut lo, mut hi) = (s.lo, s.hi);
            let mut node = self.offsets[j]; // probe index of the current tree node
            let mut level = depth; // levels remaining, incl. the current node
            loop {
                let mid = lo + (hi - lo) / 2;
                debug_assert_eq!(self.probes[node], mid, "descent must follow the probe tree");
                let (lower, upper) = (global[2 * node], global[2 * node + 1]);
                s.last = (mid, lower, upper);
                let verdict = match validate_splitter(
                    lower,
                    upper,
                    targets[i],
                    slack,
                    opts.strict_paper_rule,
                ) {
                    Validation::Accept { realized } => {
                        s.done = Some((mid, realized, lower, upper));
                        break;
                    }
                    Validation::TooHigh if mid == lo => Verdict::Restart,
                    Validation::TooLow if mid == hi => Verdict::Restart,
                    Validation::TooHigh => Verdict::TooHigh,
                    Validation::TooLow => Verdict::TooLow,
                };
                path.push(Step {
                    splitter: i,
                    node,
                    verdict,
                });
                match verdict {
                    Verdict::Restart => {
                        // Quantile bracket first under
                        // `probe_warm_first`, then the data range.
                        (lo, hi) = s.fallback;
                        s.fallback = self.data;
                        break;
                    }
                    Verdict::TooHigh => {
                        hi = mid - 1;
                        node += 1; // left child root, in pre-order
                    }
                    Verdict::TooLow => {
                        // Skip the left subtree.
                        node += 1 + if mid > lo {
                            tree_size(lo, mid - 1, level - 1)
                        } else {
                            0
                        };
                        lo = mid + 1;
                    }
                }
                level -= 1;
                if level == 0 {
                    break;
                }
            }
            (s.lo, s.hi) = (lo, hi);
        }

        let rounds = self.rounds + 1;
        let mut degraded = self.degraded;
        // Graceful degradation: out of iteration budget, freeze every
        // unsettled splitter at its last evaluated probe. The realized
        // boundary is the closest achievable position to the target,
        // which may overshoot the ε slack — the caller reports the
        // achieved imbalance instead of failing the sort.
        if opts.max_iterations.is_some_and(|cap| rounds >= cap) {
            for &i in &self.active {
                let s = &mut search[i];
                if s.done.is_none() {
                    let (mid_bits, lower, upper) = s.last;
                    let realized = targets[i].clamp(lower, upper);
                    s.done = Some((mid_bits, realized, lower, upper));
                    degraded = true;
                }
            }
        }

        let mut next = Self {
            data: self.data,
            search,
            active: Vec::with_capacity(self.active.len()),
            probes: Vec::with_capacity(self.probes.len()),
            offsets: Vec::with_capacity(self.offsets.len()),
            path,
            rounds,
            probes_total: self.probes_total + self.probes.len() as u64,
            degraded,
            settled: None,
        }
        .with_grid(depth);
        if next.active.is_empty() {
            let settled = next.search.iter().zip(targets).map(|(s, &target)| {
                let (bits, realized, lower, upper) = s.done.expect("no active splitter left");
                SplitterInfo {
                    key: K::from_bits(bits),
                    target,
                    realized,
                    global_lower: lower,
                    global_upper: upper,
                }
            });
            next.settled = Some(settled.collect());
        }
        next
    }
}

/// Bracket target `t`'s quantile in the ascending `ladder` with one key
/// of margin on each side, clamped to the `data` range (which it
/// degenerates to when the clamp inverts it). Also returns the
/// quantile's ladder index.
fn quantile_bracket<K: Key>(
    ladder: &[K],
    t: u64,
    n_total: u64,
    data: (u128, u128),
) -> (usize, (u128, u128)) {
    let idx = ((t as f64 / n_total as f64) * (ladder.len() - 1) as f64) as usize;
    let lo = ladder[idx.saturating_sub(1)].to_bits().max(data.0);
    let hi = ladder[(idx + 1).min(ladder.len() - 1)]
        .to_bits()
        .min(data.1);
    (idx, if lo <= hi { (lo, hi) } else { data })
}

/// Establish the global key range (one reduction, as in Algorithm 3
/// line 3) and build the plan of round 1 on it, once for the whole
/// communicator. `None` on globally empty input.
fn first_plan<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    opts: SplitterOptions,
    warm: Option<&[K]>,
) -> Option<Arc<RoundPlan<K>>> {
    let local_minmax: Option<(K, K)> = sorted_local
        .first()
        .copied()
        .zip(sorted_local.last().copied());
    let widest = |a: &Option<(K, K)>, b: &Option<(K, K)>| match (a, b) {
        (None, x) => *x,
        (x, None) => *x,
        (Some((alo, ahi)), Some((blo, bhi))) => Some(((*alo).min(*blo), (*ahi).max(*bhi))),
    };
    let data_bits = |(min_key, max_key): (K, K)| (min_key.to_bits(), max_key.to_bits());
    let depth = probe_depth(opts.probes_per_round);
    let n_total: u64 = *targets.last().expect("non-empty").max(&1);

    let sampled = match opts.init {
        InitialBounds::SampledQuantiles { per_rank } if warm.is_none() => Some(per_rank.max(1)),
        _ => None,
    };
    if let Some(per_rank) = sampled {
        // The brackets need the sample pool, gathered once the range is
        // known; the plan is built on that second collective instead.
        let data = comm
            .allreduce_with(vec![local_minmax], widest)
            .pop()
            .expect("one element")
            .map(data_bits)?;
        // Regular probes of the sorted local data.
        let probes: Vec<K> = if sorted_local.is_empty() {
            Vec::new()
        } else {
            (0..per_rank)
                .map(|i| {
                    sorted_local[((i + 1) * sorted_local.len() / (per_rank + 1))
                        .min(sorted_local.len() - 1)]
                })
                .collect()
        };
        return Some(comm.allgatherv_then(probes, |gathered| {
            // Non-empty: a rank that holds data contributed a sample.
            let mut pool: Vec<K> = gathered.into_iter().flatten().collect();
            pool.sort_unstable();
            let brackets = targets
                .iter()
                .map(|&t| (quantile_bracket(&pool, t, n_total, data).1, data));
            RoundPlan::start(data, brackets, depth)
        }));
    }

    let plan = comm.allreduce_with_then(vec![local_minmax], widest, |reduced| {
        let Some(data) = reduced[0].map(data_bits) else {
            return RoundPlan::empty();
        };
        let Some(ladder) = warm else {
            let cold = match opts.init {
                InitialBounds::FullDomain if K::BITS >= 128 => (0, u128::MAX),
                InitialBounds::FullDomain => (0, (1u128 << K::BITS) - 1),
                _ => data,
            };
            return RoundPlan::start(data, targets.iter().map(|_| (cold, data)), depth);
        };
        // Warm-start brackets from a previous search's accepted
        // splitters take precedence over `init`: the old ladder already
        // localizes every quantile of (nearly) stationary data.
        debug_assert!(
            ladder.windows(2).all(|w| w[0] <= w[1]),
            "warm keys ascending"
        );
        let brackets = targets.iter().map(|&t| {
            let (idx, bracket) = quantile_bracket(ladder, t, n_total, data);
            if opts.probe_warm_first {
                // Round 1 probes the warm ladder key itself; a miss
                // falls back to the quantile bracket, then the data
                // range.
                let w = ladder[idx].to_bits().clamp(data.0, data.1);
                ((w, w), bracket)
            } else {
                (bracket, data)
            }
        });
        RoundPlan::start(data, brackets, depth)
    });
    (!plan.search.is_empty()).then_some(plan)
}

fn find_splitters_impl<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
    opts: SplitterOptions,
    warm: Option<&[K]>,
) -> SplitterResult<K> {
    assert!(
        opts.probes_per_round >= 1,
        "probes_per_round must be at least 1"
    );
    debug_assert!(
        sorted_local.windows(2).all(|w| w[0] <= w[1]),
        "local data must be sorted"
    );
    debug_assert!(
        targets.windows(2).all(|w| w[0] <= w[1]),
        "targets must be ascending"
    );

    let nothing_to_split = || SplitterResult {
        splitters: Arc::new([]),
        iterations: 0,
        probes: 0,
        degraded: false,
    };
    if targets.is_empty() {
        // Single rank: no splitters to find, but stay collective-free.
        return nothing_to_split();
    }
    let Some(mut plan) = first_plan(comm, sorted_local, targets, opts, warm) else {
        // Globally empty input: every target is 0, any key value works;
        // there is nothing to split.
        assert!(
            targets.iter().all(|&t| t == 0),
            "non-zero target on globally empty input"
        );
        return nothing_to_split();
    };
    if warm.is_some() {
        // Marks a warm-seeded search in exported traces, nested under
        // the caller's "histogram" phase. The brackets themselves were
        // built inside the reduction above, off every clock.
        drop(comm.span("warm_start"));
    }

    // The per-rank remainder of the search state: the local positions
    // every remaining probe's binary searches of a splitter are
    // confined to (see module docs: monotonically narrowing). Driven
    // by local counts; only affects where this rank searches, never
    // which keys are probed.
    let n_local = sorted_local.len();
    let mut brackets: Vec<(usize, usize)> = vec![(0, n_local); targets.len()];

    // Per-splitter bisection steps are bounded by the key width; one
    // round evaluates up to `depth` of them. Sampled and warm-seeded
    // brackets can miss the splitter and restart from the data min/max
    // (wasting the rest of that round's descent); allow head-room for
    // that.
    let convergence_guard = if warm.is_some() {
        3 * (K::BITS + 2)
    } else {
        match opts.init {
            InitialBounds::SampledQuantiles { .. } => 3 * (K::BITS + 2),
            _ => (K::BITS + 2).div_ceil(probe_depth(opts.probes_per_round)),
        }
    };

    while !plan.active.is_empty() {
        assert!(
            plan.rounds < convergence_guard,
            "splitter search failed to converge in {convergence_guard} iterations"
        );
        let grid = |j: usize| plan.offsets[j]..plan.offsets[j + 1];

        // Build the local histogram: two binary searches per probe,
        // confined to the splitter's index bracket and charged over
        // its width in the same pass. The bracket makes the sub-slice
        // search return exactly the full-array positions (everything
        // left of `idx_lo` is known `< probe`, everything right of
        // `idx_hi` known `> probe`). Charges are pure functions of
        // data sizes — never of the thread budget — which keeps the
        // virtual clock byte-identical across budgets. Pooled counts
        // buffer: every refinement round reuses the same allocation.
        // With an intra-rank thread budget the per-splitter probe
        // batches are counted (and priced) in parallel; counts and
        // charges land in probe order either way, so the reduction
        // input and the posted batch are identical for every budget.
        let mut charges = comm.charges();
        let mut histogram: Vec<u64> = comm.pool().take_u64();
        histogram.reserve(2 * plan.probes.len());
        let count = |js: Range<usize>, out: &mut Vec<u64>, charges: &mut Charges<'_>| {
            for j in js {
                let (idx_lo, idx_hi) = brackets[plan.active[j]];
                let seg = &sorted_local[idx_lo..idx_hi];
                let probes = &plan.probes[grid(j)];
                charges.add(Work::BinarySearches {
                    searches: 2 * probes.len() as u64,
                    n: seg.len() as u64,
                });
                // Kernel path for native integer keys: the whole probe
                // batch of this splitter in one lockstep-search call,
                // pushing the same (lower, upper) pairs straight into
                // the pooled buffer (probe bits fit the key width by
                // construction).
                if ladder_bounds_typed(
                    opts.kernels,
                    seg,
                    probes.len(),
                    |k| probes[k] as u64,
                    idx_lo as u64,
                    out,
                ) {
                    continue;
                }
                for &bits in probes {
                    let key = K::from_bits(bits);
                    out.push((idx_lo + seg.partition_point(|x| *x < key)) as u64);
                    out.push((idx_lo + seg.partition_point(|x| *x <= key)) as u64);
                }
            }
        };
        let t = comm.threads().exec_budget();
        let n_active = plan.active.len();
        if t > 1 && n_active >= 2 && plan.probes.len() >= 4 {
            let chunk = n_active.div_ceil(t);
            let chunks: Vec<Range<usize>> = (0..n_active)
                .step_by(chunk)
                .map(|from| from..(from + chunk).min(n_active))
                .collect();
            let counted = comm.threads().map(chunks, |js| {
                let mut out =
                    Vec::with_capacity(2 * (plan.offsets[js.end] - plan.offsets[js.start]));
                let mut share = charges.fork();
                count(js, &mut out, &mut share);
                (out, share)
            });
            for (out, share) in counted {
                histogram.extend(out);
                charges.append(share);
            }
        } else {
            count(0..n_active, &mut histogram, &mut charges);
        }
        // The round's one charge. The probe span (recorded under a
        // thread budget only) sits on the clock the charge leaves.
        comm.post(charges);
        drop(comm.intra_span("histogram_probe"));

        // One global reduction per round (Alg. 3 line 8), carrying all
        // probes of all active splitters, viewed in place and charged
        // at its true width. Whichever rank completes it refines every
        // splitter against the global counts (Alg. 3 line 9) and lays
        // out the next round, once for everybody.
        let next = comm.allreduce_sum_then(&histogram, |global| {
            plan.advance(&global, targets, slack, opts)
        });

        // The verdicts the descents passed on the global counts, folded
        // over this rank's own counts of the same probes.
        for step in &next.path {
            let (idx_lo, idx_hi) = &mut brackets[step.splitter];
            let node = 2 * step.node;
            match step.verdict {
                Verdict::TooHigh => *idx_hi = (*idx_hi).min(histogram[node] as usize),
                Verdict::TooLow => *idx_lo = (*idx_lo).max(histogram[node + 1] as usize),
                Verdict::Restart => (*idx_lo, *idx_hi) = (0, n_local),
            }
        }
        comm.pool().recycle_u64(histogram);
        plan = next;
    }

    SplitterResult {
        splitters: Arc::clone(plan.settled.as_ref().expect("the loop ends settled")),
        iterations: plan.rounds,
        probes: plan.probes_total,
        degraded: plan.degraded,
    }
}

/// Global boundary targets for *perfect partitioning*: the prefix sums
/// of the input capacities (paper Definition 3) — rank `i` must end up
/// with exactly as many keys as it contributed.
pub fn perfect_targets(capacities: &[usize]) -> Vec<u64> {
    let mut out = Vec::with_capacity(capacities.len().saturating_sub(1));
    let mut acc = 0u64;
    for &c in &capacities[..capacities.len().saturating_sub(1)] {
        acc += c as u64;
        out.push(acc);
    }
    out
}

/// Global boundary targets for *balanced partitioning*: `⌈N·i/P⌉`
/// boundaries (Definition 1), regardless of who contributed what.
pub fn balanced_targets(n_total: u64, p: usize) -> Vec<u64> {
    (1..p).map(|i| n_total * i as u64 / p as u64).collect()
}

/// The Definition 1 slack `⌊N·ε/(2P)⌋`.
pub fn slack_for(n_total: u64, p: usize, epsilon: f64) -> u64 {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    ((n_total as f64) * epsilon / (2.0 * p as f64)).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut v: Vec<u64> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The splitters of a perfect partition must slice the global
    /// multiset at exactly the target ranks.
    fn check_partition(p: usize, n: usize, modulus: u64, slack: u64) {
        let out = run(&ClusterConfig::small_cluster(p), |comm| {
            let local = keys_for(comm.rank(), n, modulus);
            let caps: Vec<usize> = comm.allgather(local.len());
            let targets = perfect_targets(&caps);
            find_splitters(comm, &local, &targets, slack)
        });
        let mut all: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        all.sort_unstable();
        let first = &out[0].0;
        for (rank, (res, _)) in out.iter().enumerate() {
            assert_eq!(res.splitters.len(), p - 1);
            assert_eq!(res.iterations, first.iterations, "rank {rank} diverged");
            for (i, s) in res.splitters.iter().enumerate() {
                assert_eq!(s.key, first.splitters[i].key, "rank {rank} splitter {i}");
                // L and U bracket the realized boundary.
                assert!(s.global_lower <= s.realized && s.realized <= s.global_upper);
                assert!(s.realized.abs_diff(s.target) <= slack);
                // Cross-check against the true histogram.
                let true_lower = all.partition_point(|&x| x < s.key) as u64;
                let true_upper = all.partition_point(|&x| x <= s.key) as u64;
                assert_eq!(s.global_lower, true_lower);
                assert_eq!(s.global_upper, true_upper);
            }
        }
    }

    #[test]
    fn exact_partition_unique_keys() {
        check_partition(4, 1000, u64::MAX, 0);
        check_partition(7, 333, u64::MAX, 0);
    }

    #[test]
    fn exact_partition_with_duplicates() {
        check_partition(4, 1000, 50, 0);
        check_partition(8, 250, 3, 0);
    }

    #[test]
    fn all_equal_keys_converge_immediately() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let local = vec![42u64; 100];
            let caps: Vec<usize> = comm.allgather(local.len());
            find_splitters(comm, &local, &perfect_targets(&caps), 0)
        });
        for (res, _) in out {
            assert_eq!(res.iterations, 1, "fat equal range should accept instantly");
            assert!(res.splitters.iter().all(|s| s.key == 42));
        }
    }

    #[test]
    fn slack_accepts_earlier() {
        let p = 4;
        let n = 4000;
        let runs = |slack: u64| {
            let out = run(&ClusterConfig::small_cluster(p), move |comm| {
                let local = keys_for(comm.rank(), n, u64::MAX);
                let caps: Vec<usize> = comm.allgather(local.len());
                find_splitters(comm, &local, &perfect_targets(&caps), slack)
            });
            out[0].0.iterations
        };
        let exact = runs(0);
        let relaxed = runs((n as u64 * p as u64) / 100);
        assert!(relaxed < exact, "slack {relaxed} should beat exact {exact}");
    }

    #[test]
    fn iteration_count_tracks_key_width_not_ranks() {
        // u16 keys: at most 18 iterations regardless of P.
        for p in [2usize, 8, 16] {
            let out = run(&ClusterConfig::small_cluster(p), |comm| {
                let local: Vec<u16> = keys_for(comm.rank(), 500, 1 << 16)
                    .iter()
                    .map(|&x| x as u16)
                    .collect();
                let mut local = local;
                local.sort_unstable();
                let caps: Vec<usize> = comm.allgather(local.len());
                find_splitters(comm, &local, &perfect_targets(&caps), 0)
            });
            for (res, _) in out {
                assert!(res.iterations <= 18, "p={p}: {} iterations", res.iterations);
            }
        }
    }

    #[test]
    fn sparse_partitions_and_zero_targets() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            // Ranks 0 and 1 contribute nothing.
            let local = if comm.rank() >= 2 {
                keys_for(comm.rank(), 600, 1 << 30)
            } else {
                vec![]
            };
            let caps: Vec<usize> = comm.allgather(local.len());
            let targets = perfect_targets(&caps); // [0, 0, 600]
            find_splitters(comm, &local, &targets, 0)
        });
        for (res, _) in out {
            assert_eq!(res.splitters[0].realized, 0);
            assert_eq!(res.splitters[1].realized, 0);
            assert_eq!(res.splitters[2].realized, 600);
        }
    }

    #[test]
    fn globally_empty_input() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            find_splitters::<u64>(comm, &[], &[0, 0], 0)
        });
        for (res, _) in out {
            assert!(res.splitters.is_empty());
            assert_eq!(res.iterations, 0);
            assert_eq!(res.probes, 0);
        }
    }

    #[test]
    fn initial_bounds_all_agree_on_results() {
        let p = 4;
        let n = 800;
        let go = |init: InitialBounds| {
            let out = run(&ClusterConfig::small_cluster(p), move |comm| {
                let local = keys_for(comm.rank(), n, 1 << 30);
                let caps: Vec<usize> = comm.allgather(local.len());
                let opts = SplitterOptions {
                    init,
                    ..SplitterOptions::default()
                };
                find_splitters_cfg(comm, &local, &perfect_targets(&caps), 0, opts)
            });
            let res = &out[0].0;
            (
                res.iterations,
                res.splitters.iter().map(|s| s.realized).collect::<Vec<_>>(),
            )
        };
        let (it_minmax, r_minmax) = go(InitialBounds::DataMinMax);
        let (it_domain, r_domain) = go(InitialBounds::FullDomain);
        let (it_sampled, r_sampled) = go(InitialBounds::SampledQuantiles { per_rank: 8 });
        // Realized boundaries (the partition) must be identical; only
        // the number of iterations differs.
        assert_eq!(r_minmax, r_domain);
        assert_eq!(r_minmax, r_sampled);
        // Keys live in [0, 2^30): the full u64 domain start must waste
        // iterations locating the populated range.
        assert!(
            it_domain > it_minmax,
            "domain {it_domain} vs minmax {it_minmax}"
        );
        // Sampled brackets may win or occasionally fall back, but must
        // stay within the widened guard.
        assert!(it_sampled <= 3 * (64 + 2), "sampled {it_sampled}");
    }

    #[test]
    fn sampled_quantile_fallback_is_correct_on_skew() {
        // Zipf-like skew: most mass on tiny keys; regular samples may
        // bracket badly, exercising the restart path.
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local: Vec<u64> = keys_for(comm.rank(), 500, 1 << 20)
                .into_iter()
                .map(|x| if x % 10 == 0 { x } else { x % 16 })
                .collect();
            local.sort_unstable();
            let caps: Vec<usize> = comm.allgather(local.len());
            let targets = perfect_targets(&caps);
            let opts = SplitterOptions {
                init: InitialBounds::SampledQuantiles { per_rank: 2 },
                ..SplitterOptions::default()
            };
            let res = find_splitters_cfg(comm, &local, &targets, 0, opts);
            (res, local)
        });
        let mut all: Vec<u64> = out.iter().flat_map(|((_, l), _)| l.clone()).collect();
        all.sort_unstable();
        for ((res, _), _) in &out {
            for s in res.splitters.iter() {
                assert_eq!(s.global_lower, all.partition_point(|&x| x < s.key) as u64);
                assert_eq!(s.global_upper, all.partition_point(|&x| x <= s.key) as u64);
                assert_eq!(s.realized, s.target);
            }
        }
    }

    /// Multi-probe rounds must accept the same splitters as classic
    /// bisection while cutting the round count by the tree depth, and
    /// an effective `m` between powers rounds down (5 behaves as 3).
    fn splitters_for(p: usize, n: usize, modulus: u64, m: usize) -> SplitterResult<u64> {
        let opts = SplitterOptions {
            probes_per_round: m,
            ..SplitterOptions::default()
        };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let local = keys_for(comm.rank(), n, modulus);
            let caps: Vec<usize> = comm.allgather(local.len());
            find_splitters_cfg(comm, &local, &perfect_targets(&caps), 0, opts)
        });
        out.into_iter().next().expect("p >= 1").0
    }

    #[test]
    fn multi_probe_accepts_identical_splitters_in_fewer_rounds() {
        for &(p, n, modulus) in &[
            (4usize, 1000usize, u64::MAX),
            (7, 333, 1 << 30),
            (5, 400, 50),
        ] {
            let base = splitters_for(p, n, modulus, 1);
            for m in [3usize, 7, 15] {
                let multi = splitters_for(p, n, modulus, m);
                let d = (m as u64 + 1).ilog2();
                assert_eq!(
                    multi.splitters, base.splitters,
                    "m={m}: splitters must be grid-invariant"
                );
                assert!(
                    multi.iterations <= base.iterations.div_ceil(d),
                    "m={m}: {} rounds vs {} single-probe steps",
                    multi.iterations,
                    base.iterations
                );
                assert!(multi.probes >= base.probes, "finer grids spend more probes");
            }
        }
    }

    #[test]
    fn non_power_probe_counts_round_down() {
        let three = splitters_for(4, 600, 1 << 24, 3);
        let five = splitters_for(4, 600, 1 << 24, 5);
        assert_eq!(three.splitters, five.splitters);
        assert_eq!(three.iterations, five.iterations);
        assert_eq!(three.probes, five.probes);
    }

    #[test]
    fn multi_probe_strict_rule_matches_single_probe() {
        let go = |m: usize| {
            let opts = SplitterOptions {
                strict_paper_rule: true,
                probes_per_round: m,
                ..SplitterOptions::default()
            };
            let out = run(&ClusterConfig::small_cluster(4), move |comm| {
                let local = keys_for(comm.rank(), 700, u64::MAX);
                let caps: Vec<usize> = comm.allgather(local.len());
                find_splitters_cfg(comm, &local, &perfect_targets(&caps), 0, opts)
            });
            out.into_iter().next().expect("non-empty").0
        };
        let base = go(1);
        let multi = go(7);
        assert_eq!(base.splitters, multi.splitters);
        // Strict u64 probing runs to the key width: 3 steps per round
        // must cut rounds to about a third.
        assert!(multi.iterations <= base.iterations.div_ceil(3));
    }

    #[test]
    fn multi_probe_sampled_restart_still_correct() {
        // The skew workload of the sampled-quantile fallback test, at
        // m = 7: restarts abandon the rest of a round's descent and
        // must still land on the exact splitters.
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local: Vec<u64> = keys_for(comm.rank(), 500, 1 << 20)
                .into_iter()
                .map(|x| if x % 10 == 0 { x } else { x % 16 })
                .collect();
            local.sort_unstable();
            let caps: Vec<usize> = comm.allgather(local.len());
            let targets = perfect_targets(&caps);
            let res = find_splitters_cfg(
                comm,
                &local,
                &targets,
                0,
                SplitterOptions {
                    init: InitialBounds::SampledQuantiles { per_rank: 2 },
                    probes_per_round: 7,
                    ..SplitterOptions::default()
                },
            );
            (res, local)
        });
        let mut all: Vec<u64> = out.iter().flat_map(|((_, l), _)| l.clone()).collect();
        all.sort_unstable();
        for ((res, _), _) in &out {
            for s in res.splitters.iter() {
                assert_eq!(s.global_lower, all.partition_point(|&x| x < s.key) as u64);
                assert_eq!(s.global_upper, all.partition_point(|&x| x <= s.key) as u64);
                assert_eq!(s.realized, s.target);
            }
        }
    }

    #[test]
    fn probe_tree_layout_is_consistent() {
        // Pre-order sizes must agree with emission, and every probe
        // stays inside the interval.
        for &(lo, hi) in &[
            (0u128, 100u128),
            (5, 5),
            (0, 1),
            (10, 12),
            (0, u64::MAX as u128),
        ] {
            for depth in 1..=4u32 {
                let mut probes = Vec::new();
                tree_probes(lo, hi, depth, &mut probes);
                assert_eq!(
                    probes.len(),
                    tree_size(lo, hi, depth),
                    "({lo},{hi})@{depth}"
                );
                assert!(probes.len() < (1 << depth));
                assert!(probes.iter().all(|&b| lo <= b && b <= hi));
                let mut sorted = probes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), probes.len(), "probes must be distinct");
            }
        }
    }

    #[test]
    fn target_helpers() {
        assert_eq!(perfect_targets(&[3, 4, 5]), vec![3, 7]);
        assert_eq!(perfect_targets(&[10]), Vec::<u64>::new());
        assert_eq!(balanced_targets(100, 4), vec![25, 50, 75]);
        assert_eq!(slack_for(1000, 4, 0.0), 0);
        assert_eq!(slack_for(1000, 4, 0.08), 10);
    }

    #[test]
    fn validate_splitter_cases() {
        use super::Validation::*;
        assert_eq!(validate_splitter(3, 7, 5, 0, false), Accept { realized: 5 });
        assert_eq!(validate_splitter(5, 5, 5, 0, false), Accept { realized: 5 });
        assert_eq!(validate_splitter(6, 9, 5, 0, false), TooHigh);
        assert_eq!(validate_splitter(1, 4, 5, 0, false), TooLow);
        assert_eq!(validate_splitter(6, 9, 5, 1, false), Accept { realized: 6 });
        assert_eq!(validate_splitter(1, 4, 5, 1, false), Accept { realized: 4 });
        assert_eq!(validate_splitter(0, 0, 0, 0, false), Accept { realized: 0 });
        // Strict (paper) rule: gap probes are rejected as too high...
        assert_eq!(validate_splitter(5, 5, 5, 0, true), TooHigh);
        // ...but equal ranges covering the boundary are accepted with
        // at least one equal key going left.
        assert_eq!(validate_splitter(3, 7, 5, 0, true), Accept { realized: 5 });
        assert_eq!(validate_splitter(4, 9, 5, 0, true), Accept { realized: 5 });
        assert_eq!(validate_splitter(5, 9, 5, 0, true), TooHigh);
        assert_eq!(validate_splitter(1, 4, 5, 0, true), TooLow);
        // Target 0 keeps the relaxed achievability even in strict mode.
        assert_eq!(validate_splitter(0, 3, 0, 0, true), Accept { realized: 0 });
    }
}
