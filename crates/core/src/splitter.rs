//! Splitter determination by iterative histogramming (paper §V-A,
//! Algorithms 2 and 3), searched from the exact counts the histograms
//! reduce rather than by bisecting the key space.
//!
//! Each of the `P-1` splitters is a key-space bracket `[lo, hi]`
//! refined once per iteration. A single `ALLREDUCE` per iteration sums
//! the local histograms (`lower_bound`/`upper_bound` positions located
//! in the locally sorted data) of *all still-open*
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
//! search cannot exit `[0, lower(k)]`; after `TooLow`, it cannot exit
//! `[upper(k), n]`. Each splitter therefore carries a per-rank
//! `[idx_lo, idx_hi]` bracket into the sorted local data, and its
//! probes are located only in `sorted_local[idx_lo..idx_hi]` — a
//! host-time *and* virtual-time win that compounds as the search
//! converges. Bracket state is per-rank (it follows local counts), but
//! it never influences which keys are probed, so all ranks still
//! execute identical collective schedules.
//!
//! A round's probes are located by one of two bodies, whichever is
//! charged less in ns on this rank under the cost model, so no round
//! costs more than its bracketed searches. With `m` probes over
//! brackets whose union covers `w` positions:
//!
//! * two binary searches per probe inside its bracket, charged as
//!   [`Work::BinarySearches`] over the bracket width;
//! * one merge pass over the round's probes in key order (the plan
//!   sorts them once for the world): a forward two-pointer walk of the
//!   sorted probes and the sorted block, each lower bound stepping from
//!   where the previous key's upper bound ended, clamped into its
//!   bracket, each upper bound from its lower bound. It is charged `w +
//!   2m` compares: its pointer only moves forward, inside a bracket, and
//!   each key stops it at most twice (DESIGN.md "Splitter search").
//!
//! The merge wins where probes are as dense as keys: round 1 of `p =
//! 1024` over 256 keys per rank, 2 302 compares against 16 368 reads
//! searched. The searches win where few probes meet a long block, and
//! where a wide round does (465 probes over 131 072 keys: 15 810 reads
//! against 132 002 compares). The keys the owner finish settles are
//! located by the same rule.
//!
//! Each runs as one serial pass that prices its work into a
//! [`dhs_runtime::Charges`] batch (integer adds, no runtime call); the
//! batch is posted with one [`Comm::post`] per round, which is
//! observably identical to the single charges it sums (same clock,
//! same `compute_ns`, same death under a crash deadline). The pass
//! stays on the rank thread whatever the thread budget: a round locates
//! at most `probes_per_round × (P − 1)` keys, which is microseconds
//! next to a thread spawn, and a world of at least as many ranks as
//! host cores runs every rank serially anyway (DESIGN.md, "hybrid host
//! cap").
//!
//! ## The cuts fall out of the search
//!
//! Algorithm 4 needs each rank's local `(lower, upper)` of every
//! accepted key, and the round that accepted a key has located exactly
//! that, for the histogram it reduced. The plan's path records the node
//! each splitter settles on (accepted, or frozen by the cap), and each
//! rank's fold collapses that splitter's index bracket to its own
//! counts of the node. The keys the owner finish settles are located
//! inside their brackets afterwards, which after a round hold a few
//! keys at most, by the body the rule above charges least; an empty
//! bracket needs no search. The histogram sort
//! takes these bounds from a crate-private entry and cuts with
//! Algorithm 4's scan alone (`exchange::cut_at_bounds`), in
//! the brackets' allocation; [`find_splitters`] and
//! [`find_splitters_seeded`] return only the splitters.
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
//! location and the allreduce are priced on the virtual clock,
//! so where the refinement ran is unobservable there, at `1/P` of the
//! host work and memory of every rank refining for itself (Alg. 3 as
//! printed). The *result* is shared the same way: the rank that
//! completes the last round's allreduce (or the owner finish's
//! allgather) builds the `P-1` [`SplitterInfo`]s once and every rank's
//! [`SplitterResult::splitters`] points at that one allocation.

use std::cell::Cell;
use std::mem;
use std::sync::Arc;

use dhs_runtime::{AllToAllAlgo, Comm, CostModel, CutBlock, Work};

use self::plan::{select_work, Buffers, Machine, RoundPlan, Verdict};
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
    let (found, brackets) = search(comm, sorted_local, targets, slack, opts, warm, false);
    comm.pool().recycle_usize(brackets);
    found
}

/// [`find_splitters_seeded`] that also hands back this rank's local
/// bounds of every accepted key: `bounds[2i]` and `bounds[2i + 1]`
/// are the local keys below and up to splitter `i`'s key, Algorithm
/// 4's input ([`crate::exchange::cut_at_bounds`]). The bounds are the
/// search's index brackets, collapsed as the splitters settle; those
/// the owner finish settles are located inside their brackets
/// afterwards. The vector comes out of the rank's buffer pool. The
/// same result, rounds and probes as [`find_splitters_seeded`].
pub(crate) fn find_splitters_with_bounds<K: Key, W: WarmLadder<K> + ?Sized>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
    opts: SplitterOptions,
    warm: &W,
) -> (SplitterResult<K>, Vec<usize>) {
    search(comm, sorted_local, targets, slack, opts, warm, true)
}

/// The search behind both entries; `locate` asks for the bounds of the
/// keys the owner finish settles.
fn search<K: Key, W: WarmLadder<K> + ?Sized>(
    comm: &Comm,
    sorted_local: &[K],
    targets: &[u64],
    slack: u64,
    opts: SplitterOptions,
    warm: &W,
    locate: bool,
) -> (SplitterResult<K>, Vec<usize>) {
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

    let nothing_to_split = || {
        let nothing = SplitterResult {
            splitters: Arc::new([]),
            iterations: 0,
            probes: 0,
            degraded: false,
        };
        (nothing, Vec::new())
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
    // every remaining probe of a splitter is located within (see module
    // docs: monotonically narrowing), `[idx_lo, idx_hi]` of splitter
    // `i` at `2i` and `2i + 1` — one pooled index vector, which
    // collapses to the splitter's local bounds once it settles. Driven
    // by local counts; only affects where this rank searches, never
    // which keys are probed.
    let n_local = sorted_local.len();
    let mut brackets = comm.pool().take_usize();
    brackets.extend(targets.iter().flat_map(|_| [0, n_local]));

    while plan.settled.is_none() && !plan.finish {
        // Every probe set leaves at most half the previous round's
        // budget of keys (see `plan`), so the key width bounds the
        // rounds on any input — §V-A's observation, kept as a guard.
        assert!(
            plan.rounds < K::BITS + 2,
            "splitter search overran its bisection budget of {} rounds",
            K::BITS + 2
        );
        // The local histogram, in the pooled counts buffer every round
        // reuses. It is sized to take the owner finish's cuts and
        // receive counts too: `P + 1` and `P` words, and one for the
        // allocator's header between them.
        let mut histogram: Vec<u64> = comm.pool().take_u64();
        histogram.reserve(2 * comm.size() + 2);
        local_histogram(comm, sorted_local, &plan.bufs, &brackets, &mut histogram);

        // One global reduction per round (Alg. 3 line 8), carrying all
        // probes of all open splitters, viewed in place and charged
        // at its true width. Whichever rank completes it refines every
        // splitter against the global counts (Alg. 3 line 9) and lays
        // out the next round, once for everybody.
        let next = comm.allreduce_sum_then(&histogram, |global, cost| {
            plan.advance(&global, cost, targets, slack, opts)
        });

        // What the ladder proved on the global counts, folded over
        // this rank's own counts of the same probes: bracket ends, and
        // the local bounds of every key that settled.
        for step in &next.bufs.path {
            let (at, node) = (2 * step.splitter, 2 * step.node);
            match step.verdict {
                Verdict::TooHigh => {
                    brackets[at + 1] = brackets[at + 1].min(histogram[node] as usize);
                }
                Verdict::TooLow => brackets[at] = brackets[at].max(histogram[node + 1] as usize),
                Verdict::Settled => {
                    brackets[at] = histogram[node] as usize;
                    brackets[at + 1] = histogram[node + 1] as usize;
                }
            }
        }
        if next.finish {
            // The owner finish cuts its block in this allocation: `P +
            // 1` of its words kept, the rest freed for the finish's
            // receive counts (DESIGN.md "Memory model").
            histogram.clear();
            histogram.shrink_to(comm.size() + 1);
        }
        comm.pool().recycle_u64(histogram);
        plan = next;
    }

    let splitters = match &plan.settled {
        Some(settled) => Arc::clone(settled),
        None => {
            let settled = finish_at_owners(comm, sorted_local, targets, &plan, &brackets);
            if locate {
                locate_settled(
                    comm,
                    sorted_local,
                    &plan.bufs.active,
                    &settled,
                    &mut brackets,
                );
            }
            settled
        }
    };
    let found = SplitterResult {
        splitters,
        // The owner finish counts as the round it replaces.
        iterations: plan.rounds + u32::from(plan.finish),
        probes: plan.probes_total,
        degraded: plan.degraded,
    };
    (found, brackets)
}

/// This rank's histogram of the round into `histogram`: the local
/// `(lower, upper)` of probe `n` at `2n` and `2n + 1`, each confined to
/// its splitter's index bracket, which makes it exactly the full-array
/// position (everything left of `idx_lo` is known `< probe`, everything
/// right of `idx_hi` known `> probe`). Located by whichever [`Body`] is
/// charged less (module docs, "Shrinking index brackets"): two binary
/// searches per probe over its bracket, charged over the bracket's
/// width, or one merge pass over the round's probes in key order. Each
/// is posted as one batch; the charges are pure functions of data
/// sizes and the cost model.
fn local_histogram<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    round: &Buffers,
    brackets: &[usize],
    histogram: &mut Vec<u64>,
) {
    let widths = round.active.iter().enumerate().map(|(j, &i)| {
        let k = round.offsets[j + 1] - round.offsets[j];
        (k as u64, brackets[2 * i], brackets[2 * i + 1])
    });
    let mut charges = comm.charges();
    match cheapest_body(comm.cost_model(), widths) {
        Body::Searches => {
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
        }
        Body::Merge(work) => {
            charges.add(work);
            histogram.resize(2 * round.probes.len(), 0);
            let probes = round.ladder.iter().map(|&n| {
                let (i, key) = (round.owner[n], K::from_bits(round.probes[n]));
                (n, key, brackets[2 * i], brackets[2 * i + 1])
            });
            locate_pass(sorted_local, probes, |n, lower, upper| {
                histogram[2 * n] = lower as u64;
                histogram[2 * n + 1] = upper as u64;
            });
        }
    }
    comm.post(charges);
}

/// The two ways a rank locates a round's probes (module docs,
/// "Shrinking index brackets"). The merge pass carries its charge.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Body {
    /// Two binary searches per probe inside its bracket, charged per
    /// splitter as [`Work::BinarySearches`] over the bracket's width.
    Searches,
    /// One merge pass: `Compares(`[`merge_charge`]`)`.
    Merge(Work),
}

/// The body charged less in ns under `cost` for a round that locates
/// `k` probes in the index bracket `[idx_lo, idx_hi)` of each open
/// splitter in `round`, given as `(k, idx_lo, idx_hi)` in splitter
/// order: the searches, [`Work::BinarySearches`] of `2k` over each
/// width, or the merge pass, [`merge_charge`]`(m, w)` compares for `m`
/// probes over brackets whose union covers `w` positions
/// ([`coverage`]).
///
/// A tie keeps the searches. They are summed only until they pass the
/// merge: a dense round loses them within a few splitters, and pricing
/// every one would cost the rank as much host time as the pass it
/// picks.
fn cheapest_body(
    cost: &CostModel,
    round: impl Iterator<Item = (u64, usize, usize)> + Clone,
) -> Body {
    let (m, w) = coverage(round.clone());
    let merge = Work::Compares(merge_charge(m, w));
    let merged = cost.work_ns(merge);
    let mut searched = 0;
    for (k, idx_lo, idx_hi) in round {
        searched += cost.work_ns(Work::BinarySearches {
            searches: 2 * k,
            n: (idx_hi - idx_lo) as u64,
        });
        if searched > merged {
            return Body::Merge(merge);
        }
    }
    Body::Searches
}

/// `(m, w)` of a round given as [`cheapest_body`] takes it: its probe
/// count and the positions its brackets cover. The brackets ascend in
/// both ends (module docs), so `w` sums the length of their union.
fn coverage(round: impl Iterator<Item = (u64, usize, usize)>) -> (u64, u64) {
    let (mut probes, mut width, mut covered) = (0, 0, 0);
    for (k, idx_lo, idx_hi) in round {
        probes += k;
        width += idx_hi.saturating_sub(idx_lo.max(covered)) as u64;
        covered = covered.max(idx_hi);
    }
    (probes, width)
}

/// The charge of one merge pass over `m` probes whose brackets cover
/// `w` local positions, in compares: `w + 2m`, a bound on the pass's
/// reads (see [`locate_pass`]).
fn merge_charge(m: u64, w: u64) -> u64 {
    w + 2 * m
}

/// Locate `probes`, ascending by key, in one forward two-pointer walk
/// over `sorted`: each probe `(n, key, idx_lo, idx_hi)`'s lower bound
/// steps while `< key` from where the previous key's upper bound ended,
/// clamped into its index bracket, and its upper bound from there while
/// `<= key`, neither past `idx_hi`. A probe whose key repeats the
/// previous one copies its bounds. Hands `put(n, lower, upper)` each
/// probe's full-array bounds and returns the elements it read, which
/// [`merge_charge`], `w + 2m`, bounds: reads that step past an element
/// move forward only, inside a bracket, at most `w` of them, and reads
/// that stop a bound number two per key.
fn locate_pass<K: Key>(
    sorted: &[K],
    probes: impl Iterator<Item = (usize, K, usize, usize)>,
    mut put: impl FnMut(usize, usize, usize),
) -> u64 {
    let mut reads = 0;
    let (mut last, mut lower, mut upper) = (None, 0, 0);
    for (n, key, idx_lo, idx_hi) in probes {
        if last != Some(key) {
            let bracket = &sorted[..idx_hi];
            let from = upper.max(idx_lo);
            lower = from;
            while bracket.get(lower).is_some_and(|x| *x < key) {
                lower += 1;
            }
            upper = lower;
            while bracket.get(upper).is_some_and(|x| *x <= key) {
                upper += 1;
            }
            let stops = usize::from(lower < idx_hi) + usize::from(upper < idx_hi);
            reads += (upper - from + stops) as u64;
            last = Some(key);
        }
        put(n, lower, upper);
    }
    reads
}

/// Collapse the index bracket of every splitter the owner finish
/// settled (`open`) to the local bounds of its key in `settled`. The
/// non-empty brackets, one settled key each, are located as a round's
/// probes are, by the body [`cheapest_body`] charges less; an empty
/// bracket needs no search and is charged nothing.
fn locate_settled<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    open: &[usize],
    settled: &[SplitterInfo<K>],
    brackets: &mut [usize],
) {
    let brackets = Cell::from_mut(brackets).as_slice_of_cells();
    let bracket = |i: usize| (brackets[2 * i].get(), brackets[2 * i + 1].get());
    let put = |i: usize, lower, upper| {
        brackets[2 * i].set(lower);
        brackets[2 * i + 1].set(upper);
    };
    let nonempty = || {
        open.iter().filter_map(|&i| {
            let (idx_lo, idx_hi) = bracket(i);
            (idx_lo < idx_hi).then_some((i, idx_lo, idx_hi))
        })
    };
    let widths = nonempty().map(|(_, idx_lo, idx_hi)| (1, idx_lo, idx_hi));
    let mut charges = comm.charges();
    match cheapest_body(comm.cost_model(), widths) {
        Body::Searches => {
            for (i, idx_lo, idx_hi) in nonempty() {
                let seg = &sorted_local[idx_lo..idx_hi];
                let key = settled[i].key;
                charges.add(Work::BinarySearches {
                    searches: 2,
                    n: seg.len() as u64,
                });
                put(
                    i,
                    idx_lo + seg.partition_point(|x| *x < key),
                    idx_lo + seg.partition_point(|x| *x <= key),
                );
            }
        }
        Body::Merge(work) => {
            charges.add(work);
            let probes = nonempty().map(|(i, idx_lo, idx_hi)| (i, settled[i].key, idx_lo, idx_hi));
            locate_pass(sorted_local, probes, put);
        }
    }
    comm.post(charges);
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
    brackets: &[usize],
) -> Arc<[SplitterInfo<K>]> {
    let _span = comm.span("owner_finish");
    let open = &plan.bufs.active;
    let sent = open
        .iter()
        .map(|&i| brackets[2 * i + 1] - brackets[2 * i])
        .sum();
    let mut block: Vec<K> = Vec::with_capacity(sent);
    // Segment `d` goes to rank `d`. The cuts take the last histogram's
    // allocation, which the search left in the pool.
    let mut cuts = comm.pool().take_usize();
    cuts.push(0);
    let mut open = open.iter().peekable();
    for d in 0..comm.size() {
        if open.next_if_eq(&&d).is_some() {
            block.extend_from_slice(&sorted_local[brackets[2 * d]..brackets[2 * d + 1]]);
        }
        cuts.push(block.len());
    }
    comm.charge(Work::MoveBytes(mem::size_of_val(block.as_slice()) as u64));
    let received = comm.exchange(
        CutBlock {
            block: &block,
            cuts: &cuts,
        },
        AllToAllAlgo::Bruck,
    );
    drop(block);
    // The cuts go back to the pool, where the sort's exchange takes its
    // receive counts; the finish's receive counts are freed (pooled,
    // they would stay live until that exchange).
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

    /// A round over `block` as the search lays one out: ascending key
    /// brackets (both ends), their exact index brackets, and `probes[j]`
    /// (ascending, inside bracket `j`) for splitter `j`.
    fn round_over(
        block: &[u64],
        keys: &[(u64, u64)],
        probes: &[Vec<u64>],
    ) -> (Buffers, Vec<usize>) {
        let mut round = Buffers::default();
        let mut brackets = Vec::new();
        round.offsets.push(0);
        for (i, (&(lo, hi), mine)) in keys.iter().zip(probes).enumerate() {
            round.active.push(i);
            brackets.push(block.partition_point(|&x| x < lo));
            brackets.push(block.partition_point(|&x| x <= hi));
            round.probes.extend(mine.iter().map(|&k| u128::from(k)));
            round.owner.resize(round.probes.len(), i);
            round.offsets.push(round.probes.len());
        }
        round.ladder.extend(0..round.probes.len());
        round.ladder.sort_unstable_by_key(|&n| (round.probes[n], n));
        (round, brackets)
    }

    fn block_in(space: u8, n: usize, rng: &mut dhs_workloads::SplitMix64) -> Vec<u64> {
        let mut block: Vec<u64> = (0..n)
            .map(|_| match space {
                0 => rng.next_u64() % 5,
                1 => 42,
                2 => [0, u64::MAX, rng.next_u64()][rng.next_u64() as usize % 3],
                _ => rng.next_u64() >> (rng.next_u64() % 64),
            })
            .collect();
        block.sort_unstable();
        block
    }

    /// A random round over a random block: duplicate-heavy, all-equal,
    /// MIN/MAX or spread keys (`space`), random ascending brackets and
    /// ascending probe sets inside them.
    fn random_round(
        space: u8,
        n: usize,
        splitters: usize,
        seed: u64,
    ) -> (Vec<u64>, Buffers, Vec<usize>) {
        let mut rng = dhs_workloads::SplitMix64(seed);
        let block = block_in(space, n, &mut rng);
        // Bracket keys from the block and around it, both ends sorted
        // apart: bracket `j` then holds the `j`-th of each.
        let mut pick = || match block.len() {
            0 => rng.next_u64() % 7,
            len if rng.next_u64().is_multiple_of(4) => {
                rng.next_u64() % (block[len - 1].saturating_add(2))
            }
            len => block[rng.next_u64() as usize % len],
        };
        let mut pairs: Vec<(u64, u64)> = (0..splitters)
            .map(|_| {
                let (a, b) = (pick(), pick());
                (a.min(b), a.max(b))
            })
            .collect();
        let (mut los, mut his): (Vec<u64>, Vec<u64>) = pairs.iter().copied().unzip();
        los.sort_unstable();
        his.sort_unstable();
        for (j, pair) in pairs.iter_mut().enumerate() {
            *pair = (los[j], his[j]);
        }
        let probes: Vec<Vec<u64>> = pairs
            .iter()
            .map(|&(lo, hi)| {
                let k = 1 + rng.next_u64() % 4;
                let mut mine: Vec<u64> = (0..k)
                    .map(|_| lo + rng.next_u64() % (hi - lo).saturating_add(1).max(1))
                    .collect();
                mine.sort_unstable();
                mine.dedup();
                mine
            })
            .collect();
        let (round, brackets) = round_over(&block, &pairs, &probes);
        (block, round, brackets)
    }

    /// `(m, w)` of the round (`coverage`).
    fn covered(round: &Buffers, brackets: &[usize]) -> (u64, u64) {
        coverage(round.active.iter().enumerate().map(|(j, &i)| {
            let k = round.offsets[j + 1] - round.offsets[j];
            (k as u64, brackets[2 * i], brackets[2 * i + 1])
        }))
    }

    /// Run the merge pass over the round in key order: the histogram it
    /// writes and the elements it reads.
    fn located(block: &[u64], round: &Buffers, brackets: &[usize]) -> (Vec<u64>, u64) {
        let mut histogram = vec![u64::MAX; 2 * round.probes.len()];
        let probes = round.ladder.iter().map(|&n| {
            let i = round.owner[n];
            (
                n,
                round.probes[n] as u64,
                brackets[2 * i],
                brackets[2 * i + 1],
            )
        });
        let steps = locate_pass(block, probes, |n, lower, upper| {
            histogram[2 * n] = lower as u64;
            histogram[2 * n + 1] = upper as u64;
        });
        (histogram, steps)
    }

    /// Every probe of `round` sits where a full-width `partition_point`
    /// puts it.
    fn assert_exact(block: &[u64], round: &Buffers, histogram: &[u64]) {
        for (at, &bits) in round.probes.iter().enumerate() {
            let key = bits as u64;
            assert_eq!(
                histogram[2 * at],
                block.partition_point(|&x| x < key) as u64
            );
            assert_eq!(
                histogram[2 * at + 1],
                block.partition_point(|&x| x <= key) as u64
            );
        }
    }

    /// One ascending settled key per splitter of `round`, inside its
    /// key bracket: its first probe, raised to the previous key.
    fn settled_keys(round: &Buffers) -> Vec<SplitterInfo<u64>> {
        let mut key = 0;
        (0..round.active.len())
            .map(|j| {
                key = key.max(round.probes[round.offsets[j]] as u64);
                SplitterInfo {
                    key,
                    target: 0,
                    realized: 0,
                    global_lower: 0,
                    global_upper: 0,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512, ..proptest::prelude::ProptestConfig::default()
        })]

        /// The merge pass finds every probe where a full-width
        /// `partition_point` does and reads no more than the `w + 2m`
        /// elements `merge_charge` allows; the round posts the cheaper
        /// body's charge, never more than its bracketed searches (the
        /// rule may stop summing them early), and locates alike either
        /// way — on duplicate-heavy, empty, all-equal and MIN/MAX
        /// blocks, random ascending brackets and ascending probe sets.
        #[test]
        fn the_merge_pass_is_exact_and_within_its_charge(
            space in 0u8..4,
            n in proptest::prop_oneof![proptest::strategy::Just(0usize), 1usize..400],
            splitters in 1usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let (block, round, brackets) = random_round(space, n, splitters, seed);
            let (m, w) = covered(&round, &brackets);
            let (histogram, steps) = located(&block, &round, &brackets);
            assert_exact(&block, &round, &histogram);
            let charged = merge_charge(m, w);
            proptest::prop_assert!(steps <= charged, "{} steps, charged {}", steps, charged);

            // What the round posts: the lesser of the bracketed
            // searches, priced one splitter at a time, and the merge.
            let out = run(&ClusterConfig::small_cluster(1), move |comm| {
                let cost = comm.cost_model();
                let bracketed: u64 = (0..round.active.len())
                    .map(|j| {
                        cost.work_ns(Work::BinarySearches {
                            searches: 2 * (round.offsets[j + 1] - round.offsets[j]) as u64,
                            n: (brackets[2 * j + 1] - brackets[2 * j]) as u64,
                        })
                    })
                    .sum();
                let least = bracketed.min(cost.work_ns(Work::Compares(charged)));
                let mut posted = Vec::new();
                let t0 = comm.now_ns();
                local_histogram(comm, &block, &round, &brackets, &mut posted);
                (comm.now_ns() - t0, least, posted == histogram)
            });
            let ((posted, least, same), _) = &out[0];
            proptest::prop_assert!(*same, "both bodies locate alike");
            proptest::prop_assert_eq!(posted, least, "the cheaper body is posted");
        }

        /// `locate_settled` collapses the bracket of every splitter the
        /// owner finish settled to the full-array bounds of its key,
        /// leaves the others alone, charges an empty bracket nothing
        /// and posts the cheaper body over the non-empty ones — over
        /// the same blocks and random ascending brackets, empty ones
        /// included, with a random subset of the splitters settled.
        #[test]
        fn the_finish_locates_its_keys_exactly_at_the_cheaper_charge(
            space in 0u8..4,
            n in proptest::prop_oneof![proptest::strategy::Just(0usize), 1usize..400],
            splitters in 1usize..40,
            seed in 0u64..u64::MAX,
            settle in 0u64..u64::MAX,
        ) {
            let (block, round, brackets) = random_round(space, n, splitters, seed);
            let settled = settled_keys(&round);
            let open: Vec<usize> = (0..splitters).filter(|i| settle >> (i % 64) & 1 == 1).collect();
            let mut expected = brackets.clone();
            for &i in &open {
                let key = settled[i].key;
                expected[2 * i] = block.partition_point(|&x| x < key);
                expected[2 * i + 1] = block.partition_point(|&x| x <= key);
            }
            let nonempty: Vec<(u64, usize, usize)> = open
                .iter()
                .map(|&i| (1, brackets[2 * i], brackets[2 * i + 1]))
                .filter(|&(_, idx_lo, idx_hi)| idx_lo < idx_hi)
                .collect();
            let (m, w) = coverage(nonempty.iter().copied());
            let out = run(&ClusterConfig::small_cluster(1), move |comm| {
                let cost = comm.cost_model();
                let searched: u64 = nonempty
                    .iter()
                    .map(|&(_, idx_lo, idx_hi)| {
                        cost.work_ns(Work::BinarySearches {
                            searches: 2,
                            n: (idx_hi - idx_lo) as u64,
                        })
                    })
                    .sum();
                let least = searched.min(cost.work_ns(Work::Compares(merge_charge(m, w))));
                let mut collapsed = brackets.clone();
                let t0 = comm.now_ns();
                locate_settled(comm, &block, &open, &settled, &mut collapsed);
                (comm.now_ns() - t0, least, collapsed)
            });
            let ((posted, least, collapsed), _) = &out[0];
            proptest::prop_assert_eq!(collapsed, &expected, "every settled key at its full-array bounds");
            proptest::prop_assert_eq!(posted, least, "the cheaper body over the non-empty brackets");
        }
    }

    /// One round where each body is charged less, under the default
    /// cost model (a compare 1 ns, a random access 6 ns).
    #[test]
    fn the_rule_posts_the_cheapest_body() {
        let pick = |probes: usize, per: usize, n: usize| {
            let widths = (0..probes / per).map(|_| (per as u64, 0, n));
            cheapest_body(&CostModel::default(), widths)
        };
        // Round 1 of `latency_bound`'s shape: 1 023 probes over 256 keys
        // per rank merge for 2 302 ns, against 16 368 reads searched
        // (98 208 ns).
        assert_eq!(
            pick(1023, 1, 256),
            Body::Merge(Work::Compares(256 + 2 * 1023))
        );
        // Round 1 of `ablation_probes` at p = 32, m = 15 over 2^22 keys:
        // 465 probes over 131 072 keys per rank keep their 15 810
        // searched reads (94.9 µs) against 132 002 compares merged.
        assert_eq!(pick(465, 15, 1 << 17), Body::Searches);
        // Seven probes over 2^20 keys keep their 280 searched reads.
        assert_eq!(pick(7, 1, 1 << 20), Body::Searches);
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
