//! Splitter determination by iterative histogramming (paper §V-A,
//! Algorithms 2 and 3), searched from the exact counts the histograms
//! reduce rather than by bisecting the key space.
//!
//! Each of the `P-1` splitters is a key-space bracket `[lo, hi]`
//! refined once per iteration. A single `ALLREDUCE` per iteration sums
//! the local histograms (`lower_bound`/`upper_bound` positions obtained
//! by binary search in the locally sorted data) of *all still-open*
//! splitters; Algorithm 2 then either accepts a splitter — when the
//! achievable boundary interval `[L_i, U_i]` meets the target within
//! the `ε` slack — or narrows its bracket. With coarse-grained keys
//! (duplicates) the interval `[L, U]` is fat and acceptance comes
//! *sooner*; boundary splitting of equal keys is then resolved exactly
//! by the Algorithm 4 refinement in [`crate::exchange`].
//!
//! The paper's loop probes the bracket's midpoint and keeps a three-way
//! verdict of the one splitter that asked: one key bit per `ALLREDUCE`,
//! "bounded by the key size". The search here keeps what the reduction
//! actually computed (Histogram Sort with Sampling chooses its probes
//! the same way, from what earlier histograms located):
//!
//! * **Brackets carry counts.** An open splitter knows `c_lo`, the
//!   global keys below `lo`, and `c_hi`, the global keys up to `hi`
//!   (the range reduction also sums the local lengths, so round 1
//!   starts from `(0, N)`); `TooLow` at probe `x` sets `lo = x + 1,
//!   c_lo = U(x)`, `TooHigh` sets `hi = x − 1, c_hi = L(x)`.
//! * **One shared ladder.** Alg. 2's verdict is monotone in the probe
//!   key, so a round's probes sorted by key prove a bracket for *every*
//!   target, whoever placed them: each open splitter takes the
//!   tightest one the ladder entries inside its own bracket give, and
//!   is accepted by a neighbour's probe as readily as by its own.
//! * **Probes are interpolated.** A splitter's probe goes to the key
//!   the counts predict for its target, `lo + (t − c_lo)·(hi − lo + 1)
//!   / (c_hi − c_lo)`; with more than one probe to spend, to an even
//!   grid about ±2σ of the count's binomial spread around it (the
//!   whole bracket, and finally every key, as brackets run out of
//!   keys).
//! * **The round width is fixed.** A round histograms at most `W =`
//!   [`SplitterOptions::probes_per_round`] `× (P − 1)` keys and shares
//!   them evenly among the open splitters (`⌊W / open⌋` each, the
//!   remainder one each to the first of them), so what settled
//!   splitters no longer need goes to those still open and no round is
//!   wider than round 1.
//! * **Bisection is the budget, not the rule.** Every probe set
//!   contains one probe that leaves at most `⌈W₀ / 2^(r−1)⌉` keys of
//!   the bracket on either side after round `r` (`W₀` the initial
//!   width), so on inputs whose counts mislead the interpolation — a
//!   flat stretch of the CDF, a key space populated by octave — the
//!   paper's bound survives as rounds `≤ BITS + 2`. A warm ladder or
//!   the cold quantile guess only chooses round 1's probes; a bracket
//!   built from exact counts cannot miss its splitter, so there is
//!   nothing to restart.
//!
//! [`SplitterOptions::strict_paper_rule`] keeps §V-A's literal loop —
//! the midpoint, a splitter judged by its own probe only, `L < K ≤ U`
//! — as one branch of the placement rule and of the ladder slice; it
//! reproduces the paper's iteration counts (`fig_iterations`).
//!
//! ## Finishing at the owners
//!
//! Algorithm 1 stops its rounds "if the size becomes too small" and
//! hands the rest to one processor. The k-way search does the same for
//! all its open splitters at once. After every reduction that leaves
//! splitters open, the plan prices settling them at their *owners* —
//! rank `i` for splitter `i` — against the allreduce of the round it
//! has just laid out, and takes the finish only when the finish is
//! strictly cheaper:
//!
//! 1. each rank copies its keys inside every open bracket — exactly its
//!    index bracket — into one block, cut per owner, and sends it in
//!    one [`AllToAllAlgo::Bruck`] exchange; a key travels once per
//!    open bracket that holds it;
//! 2. each owner checks that it received `c_hi − c_lo` keys, selects
//!    the key at rank `target − c_lo` among them (a linear selection,
//!    as `dselect`'s cutoff does) and counts its `L` and `U` from `c_lo`;
//! 3. one allgather of `(key, L, U)` per owner builds the shared
//!    result, next to the splitters settled in earlier rounds.
//!
//! The price bounds every rank's clock across the finish, from the
//! public [`dhs_runtime::CostModel`] formulas at the communicator's
//! worst link, under the model the deciding allreduce was charged
//! under (a link-fault window open at its start raises both sides):
//!
//! ```text
//! sent  = size_of::<K>() · n_max · overlap
//! price = work(MoveBytes(sent)) + alltoallv_bruck_rank(P, sent)
//!       + work(Compares(3 · max_keys)) + allgather(P, size_of::<(K, u64, u64)>())
//! round = allreduce(P, 16 · probes of the round laid out)
//! ```
//!
//! `n_max` is the largest local input (the range reduction carries it
//! at no extra byte), `overlap` the most open brackets that hold any
//! one key, and `max_keys` the largest open bracket. Each term bounds
//! its phase on every rank — the copy, the Bruck charge of the rank's
//! send total, the owner's selection, the allgather of one tuple — so
//! the search ends by the reduction's end plus `price`, before the
//! skipped round's allreduce alone would have. The finish counts as
//! one iteration (`max_iterations` bounds it too) and histograms no
//! probe. It is off under the paper's literal rule, and where a
//! communicator has fewer ranks than splitters plus one.
//!
//! Why it fires only at large `P`: the finish pays `2⌈log₂P⌉α` in
//! latency alone, one `α` per Bruck round and per allgather round,
//! while a round's recursive-doubling allreduce pays `⌈log₂P⌉(α +
//! n(β + γ))` for its `n = 16(P − 1)` bytes. The finish can only win
//! once a round's byte term `16(P − 1)(β + γ)` exceeds `α`. Under
//! `supermuc_phase2` that takes `P > 54` inside a NUMA domain (7
//! ranks), `P > 94` inside a node (16) and `P > 204` across nodes, so
//! it never fires at `P ≤ 64`; beyond that it wins while few keys per
//! rank remain to ship. At p = 1024 with 256
//! keys per rank it fires after round 1 (38.6 µs against the round's
//! 40.1 µs): EXPERIMENTS.md "Finishing at the owners".
//!
//! ## Shrinking index brackets
//!
//! A splitter's key bracket only ever narrows, so the local array
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
//! One serial pass per round does both: the loop over the open
//! splitters loads a bracket once, prices its searches into a
//! [`dhs_runtime::Charges`] batch (integer adds, no runtime call) and
//! runs them; the batch is posted with one [`Comm::post`] per round,
//! which is observably identical to the single charges it sums
//! (same clock, same `compute_ns`, same death under a crash deadline).
//! The pass stays on the rank thread whatever the thread budget: a
//! round searches at most `probes_per_round × (P − 1)` keys, which is
//! microseconds of bracketed searches next to a thread spawn, and a
//! world of at least as many ranks as host cores runs every rank
//! serially anyway (DESIGN.md, "hybrid host cap").
//!
//! ## Replicated state is shared
//!
//! Key brackets, their counts, accepted splitters, the ladder and the
//! probe placement are pure functions of the *global* histograms:
//! every rank would compute them identically. They live in the private
//! `plan` submodule as one shared round plan per round for the whole
//! communicator, advanced exactly once — by whichever rank completes
//! the round's histogram allreduce, right after the sum
//! ([`Comm::allreduce_sum_then`]) — and the ranks only read it; the
//! placement rule and Alg. 2 are not reachable from the per-rank loop.
//! What stays per rank is what follows *local* counts: the index
//! brackets and the pooled histogram. Each rank searches its own
//! bracketed slice for the shared probe list, charges, deposits, and
//! afterwards folds the at most two bracket ends the ladder proved per
//! open splitter over its own counts of the same probes. Only the
//! binary searches and the allreduce are priced on the virtual clock,
//! so where the refinement ran is unobservable there, at `1/P` of the
//! host work and memory of every rank refining for itself (Alg. 3 as
//! printed). The *result* is shared the same way: the rank that
//! completes the last round's allreduce (or the owner finish's
//! allgather) builds the `P-1` [`SplitterInfo`]s once and every rank's
//! [`SplitterResult::splitters`] points at that one allocation.

use std::mem;
use std::sync::Arc;

use dhs_runtime::{AllToAllAlgo, Comm, CutBlock, Work};

use self::plan::{select_work, Machine, RoundPlan, Verdict};
use crate::kernels::Kernels;
use crate::key::Key;

mod plan;

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
    /// Histogramming iterations executed (each = one `ALLREDUCE`; an
    /// owner finish counts as the one it replaces).
    pub iterations: u32,
    /// Total candidate keys histogrammed across all iterations (2
    /// counters each in the allreduce payload): at most
    /// `probes_per_round × (P − 1)` per iteration.
    pub probes: u64,
    /// `true` when an iteration cap stopped the search before every
    /// splitter met its slack: the open splitters were frozen at the
    /// last round's probe nearest their target, so realized boundaries
    /// may deviate from their targets by more than `slack` (graceful
    /// degradation).
    pub degraded: bool,
}

/// Full tuning knobs of the splitter search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitterOptions {
    /// Run the paper's literal loop: Algorithm 2's acceptance as
    /// printed (`L < K <= U`, splitters must land on data keys), one
    /// midpoint probe per splitter per round, every splitter judged by
    /// its own probe only. The iteration count then follows the key
    /// width (the 60-64 iterations the paper reports for 64-bit keys).
    /// Off by default.
    pub strict_paper_rule: bool,
    /// Hard cap on histogramming iterations, an owner finish (module
    /// docs) included. When hit, splitters still open are frozen at
    /// the last round's probe whose `[L, U]` is nearest their target
    /// (realized boundary clamped into it) and the result is marked
    /// [`SplitterResult::degraded`] instead of asserting. `None`
    /// (default) bounds the search only by the bisection budget of the
    /// key width.
    pub max_iterations: Option<u32>,
    /// Round width in units of `P − 1`: a round histograms at most
    /// `probes_per_round × (P − 1)` candidate keys in its one
    /// allreduce, shared evenly among the splitters still open (`≥ 1`).
    /// `1` (the default) starts at one probe per splitter; a wider
    /// round takes fewer rounds at a fatter payload (ablation A6). The
    /// partition is the same at `ε = 0` for every width; which keys are
    /// accepted is not. Ignored under
    /// [`SplitterOptions::strict_paper_rule`].
    pub probes_per_round: usize,
    /// No effect. A warm ladder ([`find_splitters_seeded`]) always
    /// probes its own keys in round 1, which is what this switch used
    /// to select; the field stays only because the repository
    /// benchmark, which a change may not edit, names it.
    pub probe_warm_first: bool,
    /// No effect; stays only because the repository benchmark names
    /// it; goes with ROADMAP item 1.
    pub kernels: Kernels,
}

impl Default for SplitterOptions {
    fn default() -> Self {
        Self {
            strict_paper_rule: false,
            max_iterations: None,
            probes_per_round: 1,
            probe_warm_first: false,
            kernels: Kernels,
        }
    }
}

/// Determine all splitters for the given global boundary `targets`
/// (ascending, each in `[0, N]`) over the ranks' locally sorted data.
/// `slack` is the per-splitter tolerance `⌊N·ε/(2P)⌋` of Definition 1.
/// Round 1 starts from the data's min/max and key count, reduced once
/// (Algorithm 3 line 3), and probes the key interpolated for each
/// target's quantile.
///
/// Every rank must call this collectively with the same `targets`,
/// `slack` and `opts`; all ranks return identical results.
pub fn find_splitters<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
    opts: SplitterOptions,
) -> SplitterResult<K> {
    find_splitters_seeded(comm, sorted_local, targets, slack, opts, &[] as &[K])
}

/// [`find_splitters`] warm-started from a previous search's accepted
/// splitter keys (the epoch service, and the retry over fewer ranks
/// after a shrink-and-recover), given as bare keys or as that search's
/// splitters ([`WarmLadder`]: the sort pipeline passes the shared
/// `Arc<[SplitterInfo]>` it stashed, no copy of its keys). `warm` must
/// be globally replicated and ascending. Round 1 probes the warm keys
/// themselves — `warm[i]` for splitter `i` when there is one key per
/// target, the key at the target's quantile of the ladder when the
/// rank count changed — so stationary data settles in a single round,
/// and on drifted data their exact counts bracket every splitter for
/// round 2; accepted splitters may differ from a cold search, but
/// realized boundaries satisfy the same `slack` contract. An empty
/// `warm` is the cold search: the same result, rounds, probes and
/// virtual clock as [`find_splitters`].
pub fn find_splitters_seeded<K: Key, W: WarmLadder<K> + ?Sized>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
    opts: SplitterOptions,
    warm: &W,
) -> SplitterResult<K> {
    let warm = (!warm.is_empty()).then_some(warm);
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
        // the caller's "histogram" phase. Round 1's probes themselves
        // were chosen inside the reduction above, off every clock.
        drop(comm.span("warm_start"));
    }

    // The per-rank remainder of the search state: the local positions
    // every remaining probe's binary searches of a splitter are
    // confined to (see module docs: monotonically narrowing), `[idx_lo,
    // idx_hi]` of splitter `i` at `2i` and `2i + 1` — one index vector,
    // which the owner finish turns into its cuts. Driven by local
    // counts; only affects where this rank searches, never which keys
    // are probed.
    let n_local = sorted_local.len();
    let mut brackets: Vec<usize> = [0, n_local].repeat(targets.len());

    while plan.settled.is_none() && !plan.finish {
        // Every probe set leaves at most half the previous round's
        // budget of keys (see `plan`), so the key width bounds the
        // rounds on any input — §V-A's observation, kept as a guard.
        assert!(
            plan.rounds < K::BITS + 2,
            "splitter search overran its bisection budget of {} rounds",
            K::BITS + 2
        );
        let round = &plan.bufs;

        // Build the local histogram: two binary searches per probe,
        // confined to the splitter's index bracket and charged over
        // its width in the same pass. The bracket makes the sub-slice
        // search return exactly the full-array positions (everything
        // left of `idx_lo` is known `< probe`, everything right of
        // `idx_hi` known `> probe`). Charges are pure functions of
        // data sizes, and the round posts them as one batch. Pooled
        // counts buffer: every refinement round reuses the same
        // allocation.
        let mut charges = comm.charges();
        let mut histogram: Vec<u64> = comm.pool().take_u64();
        histogram.reserve(2 * round.probes.len());
        for (j, &i) in round.active.iter().enumerate() {
            let (idx_lo, idx_hi) = (brackets[2 * i], brackets[2 * i + 1]);
            let seg = &sorted_local[idx_lo..idx_hi];
            let probes = &round.probes[round.offsets[j]..round.offsets[j + 1]];
            charges.add(Work::BinarySearches {
                searches: 2 * probes.len() as u64,
                n: seg.len() as u64,
            });
            for &bits in probes {
                let key = K::from_bits(bits);
                histogram.push((idx_lo + seg.partition_point(|x| *x < key)) as u64);
                histogram.push((idx_lo + seg.partition_point(|x| *x <= key)) as u64);
            }
        }
        comm.post(charges);

        // One global reduction per round (Alg. 3 line 8), carrying all
        // probes of all open splitters, viewed in place and charged
        // at its true width. Whichever rank completes it refines every
        // splitter against the global counts (Alg. 3 line 9) and lays
        // out the next round, once for everybody.
        let next = comm.allreduce_sum_then(&histogram, |global, cost| {
            plan.advance(&global, cost, targets, slack, opts)
        });

        // The bracket ends the ladder proved on the global counts,
        // folded over this rank's own counts of the same probes.
        for step in &next.bufs.path {
            let (at, node) = (2 * step.splitter, 2 * step.node);
            match step.verdict {
                Verdict::TooHigh => {
                    brackets[at + 1] = brackets[at + 1].min(histogram[node] as usize);
                }
                Verdict::TooLow => brackets[at] = brackets[at].max(histogram[node + 1] as usize),
            }
        }
        if next.finish {
            // Freed, not pooled: the owner finish's block and receive
            // buffers take its place (a layout that pooled it measured
            // higher peak RSS; DESIGN.md "Memory model").
            drop(histogram);
        } else {
            comm.pool().recycle_u64(histogram);
        }
        plan = next;
    }

    let splitters = match &plan.settled {
        Some(settled) => Arc::clone(settled),
        None => finish_at_owners(comm, sorted_local, targets, &plan, brackets),
    };
    SplitterResult {
        splitters,
        // The owner finish counts as the round it replaces.
        iterations: plan.rounds + u32::from(plan.finish),
        probes: plan.probes_total,
        degraded: plan.degraded,
    }
}

/// Settle every splitter `plan` leaves open at its owner, rank `i` for
/// splitter `i` (module docs, "Finishing at the owners"). Each rank
/// sends the owner its keys inside the splitter's bracket — exactly
/// its index bracket, `brackets[2i..2i + 2]` — in one Bruck all-to-all
/// of a block and its cuts; the owner selects the key at `target −
/// c_lo` (the last, for a target of `N`) among the `c_hi − c_lo` it
/// received and counts `L` and `U` from `c_lo`; one allgather of `(key,
/// L, U)` builds the shared result.
fn finish_at_owners<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    plan: &RoundPlan<K>,
    brackets: Vec<usize>,
) -> Arc<[SplitterInfo<K>]> {
    let _span = comm.span("owner_finish");
    let open = &plan.bufs.active;
    let sent = open
        .iter()
        .map(|&i| brackets[2 * i + 1] - brackets[2 * i])
        .sum();
    let mut block: Vec<K> = Vec::with_capacity(sent);
    // The cuts overwrite the brackets in place (cut `d + 1` is written
    // once bracket `d`, at `2d` and `2d + 1`, has been read); segment
    // `d` goes to rank `d`.
    let mut cuts = brackets;
    let mut open = open.iter().peekable();
    for d in 0..comm.size() {
        if open.next_if_eq(&&d).is_some() {
            block.extend_from_slice(&sorted_local[cuts[2 * d]..cuts[2 * d + 1]]);
        }
        match cuts.get_mut(d + 1) {
            Some(cut) => *cut = block.len(),
            None => cuts.push(block.len()),
        }
    }
    cuts[0] = 0;
    cuts.truncate(comm.size() + 1);
    comm.charge(Work::MoveBytes(mem::size_of_val(block.as_slice()) as u64));
    let received = comm.exchange(
        CutBlock {
            block: &block,
            cuts: &cuts,
        },
        AllToAllAlgo::Bruck,
    );
    drop(block);
    // The cuts go to the pool, where the sort's exchange takes its cuts;
    // the receive counts are freed (pooled, they would stay live until
    // that exchange, which allocates its own).
    let (mut keys, counts) = received.into_parts();
    drop(counts);
    comm.pool().recycle_usize(cuts);

    let me = comm.rank();
    let settled = plan.open_counts(me).map(|(c_lo, c_hi)| {
        assert_eq!(
            keys.len() as u64,
            c_hi - c_lo,
            "owner of splitter {me} received a bracket of the wrong size"
        );
        comm.charge(select_work(c_hi - c_lo));
        // The bracket holds the target's key, or the largest key when
        // the target is every key (`c_hi = N`).
        let at = (targets[me] - c_lo).min(c_hi - c_lo - 1) as usize;
        let (below, &mut key, above) = keys.select_nth_unstable(at);
        let lower = c_lo + below.iter().filter(|&&x| x < key).count() as u64;
        let upper = c_lo + at as u64 + 1 + above.iter().filter(|&&x| x == key).count() as u64;
        (key, lower, upper)
    });
    drop(keys);
    let shared = comm.allgatherv_then(Vec::from_iter(settled), |owned| {
        plan.result(targets, |i| owned[i][0])
    });
    Arc::clone(&shared)
}

/// An ascending ladder of keys that seeds round 1 of a search: bare
/// keys, or a previous search's splitters.
pub trait WarmLadder<K> {
    /// Number of keys on the ladder.
    fn len(&self) -> usize;
    /// The `i`-th key.
    fn key(&self, i: usize) -> K;
    /// An empty ladder seeds nothing: the search starts cold.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Copy> WarmLadder<K> for [K] {
    fn len(&self) -> usize {
        <[K]>::len(self)
    }

    fn key(&self, i: usize) -> K {
        self[i]
    }
}

impl<K: Copy> WarmLadder<K> for Vec<K> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn key(&self, i: usize) -> K {
        self[i]
    }
}

impl<K: Copy> WarmLadder<K> for [SplitterInfo<K>] {
    fn len(&self) -> usize {
        <[SplitterInfo<K>]>::len(self)
    }

    fn key(&self, i: usize) -> K {
        self[i].key
    }
}

/// Establish the global key range and key count (one reduction, as in
/// Algorithm 3 line 3) and build the plan of round 1 on it, once for
/// the whole communicator. `None` on globally empty input.
fn first_plan<K: Key, W: WarmLadder<K> + ?Sized>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    opts: SplitterOptions,
    warm: Option<&W>,
) -> Option<Arc<RoundPlan<K>>> {
    let placeholder = K::from_bits(0);
    let local: Extent<K> = (
        sorted_local.first().copied().unwrap_or(placeholder),
        sorted_local.last().copied().unwrap_or(placeholder),
        sorted_local.len() as u64,
        u32::try_from(sorted_local.len()).unwrap_or(u32::MAX),
    );
    let widest = |a: &Extent<K>, b: &Extent<K>| {
        let (lo, hi) = match (a.2, b.2) {
            (0, _) => (b.0, b.1),
            (_, 0) => (a.0, a.1),
            _ => (a.0.min(b.0), a.1.max(b.1)),
        };
        (lo, hi, a.2 + b.2, a.3.max(b.3))
    };
    let plan = comm.allreduce_with_then(&[local], widest, |reduced, _| {
        let (min_key, max_key, n_total, n_max) = reduced[0];
        if n_total == 0 {
            return RoundPlan::start((0, 0), 0, &[], None::<&[K]>, opts, None);
        }
        let machine = Machine {
            link: comm.worst_link(),
            ranks: comm.size(),
            n_max: u64::from(n_max),
        };
        debug_assert!(
            warm.iter()
                .all(|ladder| (1..ladder.len()).all(|i| ladder.key(i - 1) <= ladder.key(i))),
            "warm keys ascending"
        );
        let bracket = (min_key.to_bits(), max_key.to_bits());
        RoundPlan::start(bracket, n_total, targets, warm, opts, Some(machine))
    });
    (!plan.bufs.active.is_empty()).then_some(plan)
}

/// One rank's contribution to the range reduction: its smallest and
/// largest key, its key count (0 marks a rank whose keys are
/// placeholders) and the same count for the largest input, saturated
/// at `u32::MAX` — which only prices the owner finish out. For every
/// key type it is no wider than the `(Option<(K, K)>, u64)` a range
/// and a count take alone.
type Extent<K> = (K, K, u64, u32);

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

/// Global boundary targets for *balanced partitioning*: `⌊N·i/P⌋`
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
            find_splitters(comm, &local, &targets, slack, SplitterOptions::default())
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
            find_splitters(
                comm,
                &local,
                &perfect_targets(&caps),
                0,
                SplitterOptions::default(),
            )
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
                find_splitters(
                    comm,
                    &local,
                    &perfect_targets(&caps),
                    slack,
                    SplitterOptions::default(),
                )
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
                find_splitters(
                    comm,
                    &local,
                    &perfect_targets(&caps),
                    0,
                    SplitterOptions::default(),
                )
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
            find_splitters(comm, &local, &targets, 0, SplitterOptions::default())
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
            find_splitters::<u64>(comm, &[], &[0, 0], 0, SplitterOptions::default())
        });
        for (res, _) in out {
            assert!(res.splitters.is_empty());
            assert_eq!(res.iterations, 0);
            assert_eq!(res.probes, 0);
        }
    }

    /// A wider round must find the same partition in no more rounds.
    fn splitters_for(p: usize, n: usize, modulus: u64, m: usize) -> SplitterResult<u64> {
        let opts = SplitterOptions {
            probes_per_round: m,
            ..SplitterOptions::default()
        };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let local = keys_for(comm.rank(), n, modulus);
            let caps: Vec<usize> = comm.allgather(local.len());
            find_splitters(comm, &local, &perfect_targets(&caps), 0, opts)
        });
        out.into_iter().next().expect("p >= 1").0
    }

    fn realized(res: &SplitterResult<u64>) -> Vec<u64> {
        res.splitters.iter().map(|s| s.realized).collect()
    }

    #[test]
    fn wider_rounds_find_the_same_partition_in_fewer_rounds() {
        for &(p, n, modulus) in &[
            (4usize, 1000usize, u64::MAX),
            (7, 333, 1 << 30),
            (5, 400, 50),
        ] {
            let base = splitters_for(p, n, modulus, 1);
            let mut rounds = base.iterations;
            for m in [3usize, 7, 15] {
                let multi = splitters_for(p, n, modulus, m);
                // Which key was accepted follows the probes; where it
                // cuts the data does not.
                assert_eq!(realized(&multi), realized(&base), "m={m}");
                assert!(
                    multi.iterations <= rounds,
                    "m={m}: {} rounds after {rounds} at a narrower width",
                    multi.iterations
                );
                assert!(multi.probes <= u64::from(multi.iterations) * (m * (p - 1)) as u64);
                rounds = multi.iterations;
            }
            assert!(rounds < base.iterations, "{rounds} rounds at m=15");
        }
    }

    #[test]
    fn probe_counts_need_not_be_tree_sizes() {
        // The width is a probe count, not a tree depth: 5 is wider
        // than 3, and a round never histograms more than it allows.
        let three = splitters_for(4, 600, 1 << 24, 3);
        let five = splitters_for(4, 600, 1 << 24, 5);
        assert_eq!(realized(&three), realized(&five));
        assert!(five.iterations <= three.iterations);
        assert!(five.probes <= u64::from(five.iterations) * 5 * 3);
    }

    #[test]
    fn strict_rule_ignores_the_round_width() {
        // The paper's literal loop has one midpoint per splitter per
        // round whatever the width.
        let go = |m: usize| {
            let opts = SplitterOptions {
                strict_paper_rule: true,
                probes_per_round: m,
                ..SplitterOptions::default()
            };
            let out = run(&ClusterConfig::small_cluster(4), move |comm| {
                let local = keys_for(comm.rank(), 700, u64::MAX);
                let caps: Vec<usize> = comm.allgather(local.len());
                find_splitters(comm, &local, &perfect_targets(&caps), 0, opts)
            });
            out.into_iter().next().expect("non-empty").0
        };
        let base = go(1);
        let multi = go(7);
        assert_eq!(base.splitters, multi.splitters);
        assert_eq!(base.iterations, multi.iterations);
        assert_eq!(base.probes, multi.probes);
    }

    /// Carrying the largest input costs the range reduction no byte:
    /// for every key type it is as wide as a range and a count alone,
    /// or narrower.
    #[test]
    fn the_range_reduction_carries_the_largest_input_for_free() {
        use crate::key::{OrderedF32, OrderedF64, UniqueKey};
        fn fits<K: Key>() -> bool {
            mem::size_of::<Extent<K>>() <= mem::size_of::<(Option<(K, K)>, u64)>()
        }
        assert!(fits::<u8>() && fits::<u16>() && fits::<u32>() && fits::<u64>());
        assert!(fits::<i8>() && fits::<i16>() && fits::<i32>());
        assert!(fits::<i64>() && fits::<OrderedF32>() && fits::<OrderedF64>());
        assert!(fits::<UniqueKey<u64>>() && fits::<UniqueKey<u16>>());
        assert_eq!(mem::size_of::<Extent<u64>>(), 32);
    }

    #[test]
    fn target_helpers() {
        assert_eq!(perfect_targets(&[3, 4, 5]), vec![3, 7]);
        assert_eq!(perfect_targets(&[10]), Vec::<u64>::new());
        assert_eq!(balanced_targets(100, 4), vec![25, 50, 75]);
        // ⌊N·i/P⌋: 2.5 → 2, 7.5 → 7.
        assert_eq!(balanced_targets(10, 4), vec![2, 5, 7]);
        assert_eq!(slack_for(1000, 4, 0.0), 0);
        assert_eq!(slack_for(1000, 4, 0.08), 10);
    }
}
