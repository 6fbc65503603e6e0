//! The replicated half of the splitter search: everything that is a
//! pure function of the *global* counts, built once per round for the
//! whole communicator. Its only entry points are [`RoundPlan::start`]
//! (on the reduction that establishes the data range) and
//! [`RoundPlan::advance`] (inside each round's histogram allreduce);
//! the per-rank loop in the parent module reads the plan's public
//! fields and can reach neither the placement rule nor Algorithm 2.

use std::mem;
use std::sync::{Arc, Mutex};

use dhs_runtime::{CostModel, LinkClass, Work};

use super::{SplitterInfo, SplitterOptions, WarmLadder};
use crate::key::Key;

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
///
/// The relaxed verdict is monotone in the probe key (`L` and `U` only
/// grow with it): `TooLow` ⇔ `U < t − s` holds on a prefix of the key
/// space, `TooHigh` ⇔ `L > t + s` on a suffix, `Accept` in between.
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

/// Replicated search state of one splitter: a key bracket known to
/// hold an accepting key, with the exact global counts at its ends.
#[derive(Clone, Copy)]
struct Search {
    lo: u128,
    hi: u128,
    /// Global keys `< lo` (`U` of the `TooLow` probe at `lo − 1`).
    c_lo: u64,
    /// Global keys `≤ hi` (`L` of the `TooHigh` probe at `hi + 1`).
    c_hi: u64,
    done: Option<(u128, u64, u64, u64)>, // (key bits, realized, L, U)
}

/// What a probe of the round proved about an open splitter.
#[derive(Clone, Copy)]
pub(super) enum Verdict {
    /// Every future probe is below this node: its searches cannot exit
    /// `[idx_lo, local lower(node)]`.
    TooHigh,
    /// Every future probe is above: `[local upper(node), idx_hi]`.
    TooLow,
    /// The splitter settled on this node's key (accepted, or frozen by
    /// the iteration cap): its index bracket collapses to the node's
    /// local `(lower, upper)`, the rank's bounds for Algorithm 4.
    Settled,
}

/// What a round proved about one splitter: an end of the bracket it
/// left the splitter with, or the key it settled on. Ranks fold these
/// over their *local* counts of the same node, which narrows their
/// index brackets and turns a settled splitter's into its local bounds.
#[derive(Clone, Copy)]
pub(super) struct Step {
    /// Index of the splitter the step belongs to.
    pub(super) splitter: usize,
    /// Probe index of the node in that round's grid — any splitter's
    /// probe, not necessarily one of its own.
    pub(super) node: usize,
    pub(super) verdict: Verdict,
}

/// The vectors of one [`RoundPlan`]. A retired plan leaves them behind
/// for the next [`RoundPlan::advance`] to refill.
#[derive(Default)]
pub(super) struct Buffers {
    /// Per-splitter state; empty on globally empty input.
    search: Vec<Search>,
    /// Splitters this round probes (the open ones), ascending.
    pub(super) active: Vec<usize>,
    /// Probe keys of the round, ascending within each splitter.
    pub(super) probes: Vec<u128>,
    /// `probes[offsets[j]..offsets[j + 1]]` belong to `active[j]`.
    pub(super) offsets: Vec<usize>,
    /// What the previous round's ladder proved, over the previous
    /// round's grid.
    pub(super) path: Vec<Step>,
    /// This round's probe indices by ascending key (ties by index):
    /// the ladder [`RoundPlan::advance`] reads, and the order in which
    /// a rank's merge pass locates the probes.
    pub(super) ladder: Vec<usize>,
    /// `owner[n]`: the splitter probe `n` was placed for.
    pub(super) owner: Vec<usize>,
}

/// Where the owner finish is priced: the communicator's shape and the
/// largest local input, fixed for the whole search. The cost model is
/// the deciding allreduce's, handed to [`RoundPlan::advance`].
#[derive(Clone)]
pub(super) struct Machine {
    /// The communicator's worst link: every collective's class.
    pub(super) link: LinkClass,
    pub(super) ranks: usize,
    /// The most keys any rank holds.
    pub(super) n_max: u64,
}

/// The owner finish's price under `cost` (see the parent module's
/// "Finishing at the owners"): a bound on every rank's clock from the
/// reduction's end to the shared result, for `overlap` open brackets
/// at most over any one key and `max_keys` keys at most in any open
/// bracket.
fn finish_price<K>(m: &Machine, cost: &CostModel, overlap: u64, max_keys: u64) -> u64 {
    let key_bytes = mem::size_of::<K>() as u64;
    let sent = key_bytes.saturating_mul(m.n_max).saturating_mul(overlap);
    let tuple_bytes = mem::size_of::<(K, u64, u64)>() as u64;
    cost.work_ns(Work::MoveBytes(sent))
        + cost.alltoallv_bruck_rank_ns(m.link, m.ranks, sent)
        + cost.work_ns(select_work(max_keys))
        + cost.allgather_ns(m.link, m.ranks, tuple_bytes)
}

/// The owner's charge for settling a bracket of `keys` keys: a linear
/// selection (2 compares a key, as `dselect`'s) and one pass that
/// counts the keys below and equal to the one selected.
pub(super) fn select_work(keys: u64) -> Work {
    Work::Compares(3 * keys)
}

/// Everything about a histogramming round that is a pure function of
/// replicated data, built **once per round for the whole
/// communicator**. Ranks only read it.
pub(super) struct RoundPlan<K> {
    pub(super) bufs: Buffers,
    /// `hi − lo` of round 1's bracket: the bisection budget's `W₀ − 1`.
    span0: u128,
    /// Where the owner finish is priced; `None` keeps the rule off.
    machine: Option<Machine>,
    /// The rule took the owner finish after this plan's reduction: the
    /// open splitters settle at their owners instead of in the round
    /// laid out.
    pub(super) finish: bool,
    /// Rounds reduced so far (each = one `ALLREDUCE`).
    pub(super) rounds: u32,
    /// Probes histogrammed over those rounds.
    pub(super) probes_total: u64,
    pub(super) degraded: bool,
    /// The result, built once every splitter has settled (`active` is
    /// then empty) and shared by every rank's `SplitterResult`.
    pub(super) settled: Option<Arc<[SplitterInfo<K>]>>,
    /// Where a dropped plan leaves its vectors. Every rank lets go of
    /// round `r − 1`'s plan before it deposits into round `r`'s
    /// allreduce, so `advance` finds them there from round 3 on.
    spare: Arc<Mutex<Option<Buffers>>>,
}

impl<K> Drop for RoundPlan<K> {
    fn drop(&mut self) {
        if let Ok(mut spare) = self.spare.lock() {
            *spare = Some(std::mem::take(&mut self.bufs));
        }
    }
}

/// `⌊x · num / den⌋` for `num ≤ den`, exact over the whole 128-bit
/// image (`x · num` itself may not fit).
fn scale(x: u128, num: u64, den: u64) -> u128 {
    debug_assert!(num <= den && den > 0);
    let (num, den) = (u128::from(num), u128::from(den));
    x / den * num + x % den * num / den
}

/// Half-width of a probe grid, in standard deviations of the count
/// below the interpolated key (`Binomial(keys, f)` were the bracket's
/// keys spread evenly): the grid spans about ±2σ.
const GRID_SIGMAS: f64 = 2.0;

/// The one placement rule: push `k` probe keys for a splitter with
/// bracket `s` and target `target`, ascending and distinct, such that
/// whichever side of them survives is at most `budget` keys wide.
///
/// One probe goes to the key interpolated for the target from the
/// counts at the bracket's ends — the bracket's midpoint under the
/// paper's literal rule (`strict`), which is §V-A's bisection. More
/// probes form an even grid around it, as wide as the counts leave the
/// target's position uncertain, and cover every key once the bracket
/// has no more than `k`.
fn place(s: &Search, target: u64, k: usize, budget: u128, strict: bool, out: &mut Vec<u128>) {
    let span = s.hi - s.lo;
    if span < k as u128 {
        out.extend((0..=span).map(|o| s.lo + o));
        return;
    }
    let from = out.len();
    let keys = s.c_hi - s.c_lo;
    // Offsets from `lo`: the interpolated centre and the half-width of
    // the grid around it (the whole bracket where counts say nothing).
    let (centre, half) = if strict || keys == 0 {
        (span / 2, span)
    } else {
        let below = target.clamp(s.c_lo, s.c_hi) - s.c_lo;
        let sigma = (below as f64 * (keys - below) as f64 / keys as f64).sqrt();
        let half = (span as f64 * (GRID_SIGMAS * sigma / keys as f64)) as u128;
        (scale(span, below, keys), half.max(k as u128))
    };
    if k == 1 {
        out.push(centre);
    } else {
        let a = centre.saturating_sub(half);
        let b = centre.saturating_add(half).min(span);
        out.extend((1..=k as u64).map(|j| a + scale(b - a, j, k as u64 + 1)));
    }
    // The bisection budget: one probe must leave at most `budget` keys
    // on either side of it. A grid that has none gives up its nearest
    // point for it.
    if span > budget {
        let grid = &mut out[from..];
        let (min, max) = (span - budget, budget);
        debug_assert!(
            min <= max,
            "bracket entered the round over twice its budget"
        );
        let j = grid.partition_point(|&o| o < min);
        if j == grid.len() {
            grid[j - 1] = min;
        } else if grid[j] > max {
            grid[j] = max;
        }
    }
    for o in &mut out[from..] {
        *o += s.lo;
    }
}

impl<K: Key> RoundPlan<K> {
    /// The plan of round 1: every splitter starts in `bracket` with
    /// counts `(0, n_total)`. A `warm` ladder (ascending: a previous
    /// search's accepted keys) chooses round 1's probes — `warm[i]`
    /// for splitter `i` when it has one key per target, the key at the
    /// target's quantile otherwise; without one the placement rule's
    /// interpolation is the cold quantile guess.
    /// Empty `targets` give the plan of globally empty input. Without a
    /// `machine`, or under the paper's literal rule, the search never
    /// finishes at the owners.
    pub(super) fn start<W: WarmLadder<K> + ?Sized>(
        bracket: (u128, u128),
        n_total: u64,
        targets: &[u64],
        warm: Option<&W>,
        opts: SplitterOptions,
        machine: Option<Machine>,
    ) -> Self {
        // One owner per open splitter: rank `i` settles splitter `i`.
        let machine = machine.filter(|m| !opts.strict_paper_rule && targets.len() < m.ranks);
        let open = Search {
            lo: bracket.0,
            hi: bracket.1,
            c_lo: 0,
            c_hi: n_total,
            done: None,
        };
        let mut plan = Self {
            bufs: Buffers {
                search: vec![open; targets.len()],
                ..Buffers::default()
            },
            span0: bracket.1 - bracket.0,
            machine,
            finish: false,
            rounds: 0,
            probes_total: 0,
            degraded: false,
            settled: None,
            spare: Arc::default(),
        };
        plan.lay_out(targets, warm, opts);
        plan
    }

    /// List the open splitters and place their probes. A round is
    /// `probes_per_round × (P − 1)` probes wide and the open splitters
    /// share it evenly (the remainder goes one each to the first of
    /// them), so the width the settled ones no longer need goes to
    /// those still open. The paper's literal rule has one probe per
    /// splitter per round whatever the width.
    fn lay_out<W: WarmLadder<K> + ?Sized>(
        &mut self,
        targets: &[u64],
        warm: Option<&W>,
        opts: SplitterOptions,
    ) {
        let Buffers {
            search,
            active,
            probes,
            offsets,
            ladder,
            owner,
            ..
        } = &mut self.bufs;
        active.clear();
        active.extend((0..search.len()).filter(|&i| search[i].done.is_none()));
        probes.clear();
        offsets.clear();
        offsets.push(0);
        ladder.clear();
        owner.clear();
        if active.is_empty() {
            return;
        }
        let (k, extra) = if opts.strict_paper_rule || warm.is_some() {
            (1, 0)
        } else {
            let width = opts.probes_per_round.saturating_mul(search.len());
            (width / active.len(), width % active.len())
        };
        // ⌈W₀ / 2^(r−1)⌉ for the round r being laid out.
        let budget = self
            .span0
            .checked_shr(self.rounds)
            .unwrap_or(0)
            .saturating_add(1);
        for (j, &i) in active.iter().enumerate() {
            let k = k + usize::from(j < extra);
            let (s, t) = (&search[i], targets[i]);
            match warm {
                Some(ladder) => {
                    // Round 1: `c_hi` is still the global key count.
                    let at = if ladder.len() == targets.len() {
                        i
                    } else {
                        ((t as f64 / s.c_hi.max(1) as f64) * (ladder.len() - 1) as f64) as usize
                    };
                    probes.push(ladder.key(at).to_bits().clamp(s.lo, s.hi));
                }
                None => place(s, t, k, budget, opts.strict_paper_rule, probes),
            }
            owner.resize(probes.len(), i);
            offsets.push(probes.len());
        }
        ladder.extend(0..probes.len());
        ladder.sort_unstable_by_key(|&n| (probes[n], n));
    }

    /// Refine every open splitter against this round's `global`
    /// histogram and lay out the next round. `cost` is the model the
    /// round's allreduce was charged under: the owner finish is priced
    /// on it, the link-fault windows open at the reduction's start
    /// included.
    ///
    /// The round's probes, sorted by key, form one ladder of exact
    /// counts, and Alg. 2's verdict is monotone along it: each open
    /// splitter takes the tightest bracket *any* probe inside its own
    /// proves — two `partition_point`s over the ladder slice — and is
    /// accepted by the first probe between them, its own or a
    /// neighbour's. Under the paper's literal rule the slice is the
    /// splitter's own probe (Alg. 3 line 9 as printed). The path records
    /// the node each splitter settles on beside the bracket ends, so
    /// that every rank's bounds of the accepted keys fall out of the
    /// counts it has already reduced.
    pub(super) fn advance(
        &self,
        global: &[u64],
        cost: &CostModel,
        targets: &[u64],
        slack: u64,
        opts: SplitterOptions,
    ) -> Self {
        let strict = opts.strict_paper_rule;
        let grid = &self.bufs;
        let mut bufs = self
            .spare
            .lock()
            .ok()
            .and_then(|mut spare| spare.take())
            .unwrap_or_default();
        let Buffers { search, path, .. } = &mut bufs;
        search.clone_from(&grid.search);
        path.clear();
        let ladder = &grid.ladder;

        let rounds = self.rounds + 1;
        // Graceful degradation: out of iteration budget, every
        // splitter still open freezes at the ladder entry whose
        // `[L, U]` is nearest its target — one of its bracket's new
        // ends. The realized boundary is the closest achievable
        // position, which may overshoot the ε slack; the caller
        // reports the achieved imbalance instead of failing the sort.
        let capped = opts.max_iterations.is_some_and(|cap| rounds >= cap);
        let mut degraded = self.degraded;
        for (j, &i) in grid.active.iter().enumerate() {
            let (s, t) = (&mut search[i], targets[i]);
            let slice = if strict {
                debug_assert_eq!(grid.offsets[j + 1], grid.offsets[j] + 1, "one probe each");
                std::slice::from_ref(&grid.offsets[j])
            } else {
                let from = ladder.partition_point(|&n| grid.probes[n] < s.lo);
                let to = ladder.partition_point(|&n| grid.probes[n] <= s.hi);
                &ladder[from..to]
            };
            let counts = |n: usize| (global[2 * n], global[2 * n + 1]);
            let verdict = |n: usize| {
                let (lower, upper) = counts(n);
                validate_splitter(lower, upper, t, slack, strict)
            };
            let low = slice.partition_point(|&n| verdict(n) == Validation::TooLow);
            let high = slice.partition_point(|&n| verdict(n) != Validation::TooHigh);
            if let Some(&n) = slice[low..high].first() {
                let Validation::Accept { realized } = verdict(n) else {
                    unreachable!("between the TooLow prefix and the TooHigh suffix");
                };
                let (lower, upper) = counts(n);
                s.done = Some((grid.probes[n], realized, lower, upper));
                path.push(Step {
                    splitter: i,
                    node: n,
                    verdict: Verdict::Settled,
                });
                continue;
            }
            let below = low.checked_sub(1).map(|at| slice[at]);
            let above = slice.get(high).copied();
            if let Some(n) = below {
                (s.lo, s.c_lo) = (grid.probes[n] + 1, counts(n).1);
                path.push(Step {
                    splitter: i,
                    node: n,
                    verdict: Verdict::TooLow,
                });
            }
            if let Some(n) = above {
                (s.hi, s.c_hi) = (grid.probes[n] - 1, counts(n).0);
                path.push(Step {
                    splitter: i,
                    node: n,
                    verdict: Verdict::TooHigh,
                });
            }
            debug_assert!(s.lo <= s.hi, "an accepting key lies between the ends");
            if capped {
                let miss = |n: usize| t.abs_diff(t.clamp(counts(n).0, counts(n).1));
                let n = match (below, above) {
                    (Some(b), Some(a)) if miss(a) < miss(b) => a,
                    (Some(b), _) => b,
                    (None, Some(a)) => a,
                    (None, None) => unreachable!("a splitter's own probes are in its slice"),
                };
                let (lower, upper) = counts(n);
                s.done = Some((grid.probes[n], t.clamp(lower, upper), lower, upper));
                path.push(Step {
                    splitter: i,
                    node: n,
                    verdict: Verdict::Settled,
                });
                degraded = true;
            }
        }

        let mut next = Self {
            bufs,
            span0: self.span0,
            machine: self.machine.clone(),
            finish: false,
            rounds,
            probes_total: self.probes_total + grid.probes.len() as u64,
            degraded,
            settled: None,
            spare: Arc::clone(&self.spare),
        };
        next.lay_out(targets, None::<&[K]>, opts);
        if next.bufs.active.is_empty() {
            next.settled = Some(next.result(targets, |_| unreachable!("no open splitter left")));
        } else {
            next.finish = next.finish_is_cheaper(cost);
        }
        next
    }

    /// Algorithm 1's cutoff, made k-way: whether settling the open
    /// splitters at their owners now is priced strictly below the
    /// allreduce of the round just laid out, both under `cost`. The
    /// finish histograms nothing, so its price is all the rule weighs
    /// against the round.
    fn finish_is_cheaper(&self, cost: &CostModel) -> bool {
        let Some(m) = &self.machine else {
            return false;
        };
        let Buffers { search, active, .. } = &self.bufs;
        // Open brackets ascend in both ends (a probe too low for one
        // target is too low for every smaller one, and every open
        // splitter has seen every probe), so the ones holding the
        // bracket `j` opens with are those before it that reach it.
        let mut overlap = 0;
        let mut first = 0;
        for (j, &i) in active.iter().enumerate() {
            while search[active[first]].hi < search[i].lo {
                first += 1;
            }
            overlap = overlap.max(j + 1 - first);
        }
        debug_assert!(active.windows(2).all(|w| {
            let (a, b) = (&search[w[0]], &search[w[1]]);
            a.lo <= b.lo && a.hi <= b.hi
        }));
        let max_keys = active
            .iter()
            .map(|&i| search[i].c_hi - search[i].c_lo)
            .max()
            .unwrap_or(0);
        let histogram_bytes = mem::size_of::<[u64; 2]>() * self.bufs.probes.len();
        let round = cost.allreduce_ns(m.link, m.ranks, histogram_bytes as u64);
        finish_price::<K>(m, cost, overlap as u64, max_keys) < round
    }

    /// `(c_lo, c_hi)` of splitter `i` while it is open: the global keys
    /// below and up to its bracket.
    pub(super) fn open_counts(&self, i: usize) -> Option<(u64, u64)> {
        let s = self.bufs.search.get(i)?;
        s.done.is_none().then_some((s.c_lo, s.c_hi))
    }

    /// The `P − 1` splitters: the settled ones as they settled, each
    /// open splitter `i` at `(key, L, U) = open(i)`.
    pub(super) fn result(
        &self,
        targets: &[u64],
        open: impl Fn(usize) -> (K, u64, u64),
    ) -> Arc<[SplitterInfo<K>]> {
        let infos = self.bufs.search.iter().zip(targets).enumerate();
        infos
            .map(|(i, (s, &target))| {
                let (key, realized, lower, upper) = match s.done {
                    Some((bits, realized, lower, upper)) => {
                        (K::from_bits(bits), realized, lower, upper)
                    }
                    None => {
                        let (key, lower, upper) = open(i);
                        (key, target.clamp(lower, upper), lower, upper)
                    }
                };
                SplitterInfo {
                    key,
                    target,
                    realized,
                    global_lower: lower,
                    global_upper: upper,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::{balanced_targets, perfect_targets, slack_for};
    use dhs_workloads::{Distribution, Layout};
    use proptest::prelude::*;

    /// Run the replicated search alone over the sorted concatenation
    /// `all` of every rank's keys, calling `each_round` on every plan
    /// that follows a reduction; returns the settled plan.
    fn drive(
        all: &[u64],
        targets: &[u64],
        slack: u64,
        opts: SplitterOptions,
        mut each_round: impl FnMut(&RoundPlan<u64>),
    ) -> RoundPlan<u64> {
        let data = (u128::from(all[0]), u128::from(all[all.len() - 1]));
        let mut plan =
            RoundPlan::start(data, all.len() as u64, targets, None::<&[u64]>, opts, None);
        while plan.settled.is_none() {
            let global: Vec<u64> = plan
                .bufs
                .probes
                .iter()
                .flat_map(|&bits| {
                    let key = bits as u64;
                    [
                        all.partition_point(|&x| x < key) as u64,
                        all.partition_point(|&x| x <= key) as u64,
                    ]
                })
                .collect();
            plan = plan.advance(&global, &CostModel::supermuc_phase2(), targets, slack, opts);
            each_round(&plan);
        }
        plan
    }

    #[test]
    fn validate_splitter_cases() {
        use Validation::*;
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

    #[test]
    fn scale_is_exact_where_the_product_overflows() {
        assert_eq!(scale(10, 3, 4), 7);
        assert_eq!(scale(u128::MAX, u64::MAX, u64::MAX), u128::MAX);
        assert_eq!(scale(u128::MAX, 1, 2), u128::MAX / 2);
        assert_eq!(scale(u128::MAX - 1, 0, 7), 0);
        // (2^128 − 1) · 2 / 3, computed without the product.
        assert_eq!(scale(u128::MAX, 2, 3), u128::MAX / 3 * 2);
    }

    /// The adversarial key spaces of the budget proptest.
    #[derive(Debug, Clone, Copy)]
    enum Space {
        /// `2^(62·u)`, `u` uniform: every octave equally populated.
        LogUniform,
        /// Two dense clusters 2⁶⁰ apart.
        TwoClusters,
        /// Dense keys below 10⁹ and one key at the top of the domain.
        OneOutlier,
        Dist(Distribution),
    }

    fn keys_in(space: Space, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = dhs_workloads::SplitMix64(seed);
        let mut all: Vec<u64> = match space {
            Space::LogUniform => (0..n)
                .map(|_| {
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    (62.0 * u).exp2() as u64
                })
                .collect(),
            Space::TwoClusters => (0..n)
                .map(|_| {
                    let x = rng.next_u64();
                    (x & 1) << 60 | x >> 44
                })
                .collect(),
            Space::OneOutlier => (0..n)
                .map(|i| match i {
                    0 => u64::MAX - 3,
                    _ => rng.next_u64() % 1_000_000_000,
                })
                .collect(),
            Space::Dist(dist) => dist.generate_u64(n, seed),
        };
        all.sort_unstable();
        all
    }

    #[test]
    fn placed_probes_are_distinct_inside_the_bracket_and_the_budget() {
        let mut rng = dhs_workloads::SplitMix64(0xB0D6E7);
        let mut wide = || u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        for case in 0..20_000u32 {
            let (a, b) = (wide() >> (case % 128), wide() >> (case % 97));
            let (lo, hi) = (a.min(b), a.max(b));
            let (lo, hi) = match case % 5 {
                0 => (0, u128::MAX),
                1 => (lo, lo + u128::from(case % 40)),
                _ => (lo, hi),
            };
            let keys = wide() as u64 >> (case % 64);
            let below = if keys == 0 {
                0
            } else {
                wide() as u64 % (keys + 1)
            };
            let c_lo = wide() as u64 >> 1;
            let s = Search {
                lo,
                hi,
                c_lo,
                c_hi: c_lo + (keys >> 1),
                done: None,
            };
            let target = c_lo + (below >> 1);
            let k = 1 + case as usize % 9;
            let span = hi - lo;
            // Any budget a round can enter with: at least half the span.
            let budget = span / 2 + 1 + wide() % (span / 2 + 1);
            let mut out = vec![7];
            place(&s, target, k, budget, case % 11 == 0, &mut out);
            let grid = &out[1..];
            assert!(!grid.is_empty() && grid.len() <= k, "case {case}: {grid:?}");
            assert!(
                grid.windows(2).all(|w| w[0] < w[1]),
                "case {case}: {grid:?}"
            );
            assert!(lo <= grid[0] && grid[grid.len() - 1] <= hi, "case {case}");
            let sides = std::iter::once(grid[0] - lo)
                .chain(grid.windows(2).map(|w| w[1] - w[0] - 1))
                .chain([hi - grid[grid.len() - 1]]);
            assert!(
                sides.max() <= Some(budget),
                "case {case}: {grid:?} over {budget}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The paper's bound survives the interpolation: on key spaces
        /// where the counts mislead it (flat stretches, octaves,
        /// clusters, an outlier), after round `r` every open bracket is
        /// at most `⌈W₀ / 2^(r−1)⌉` keys wide, so the search ends
        /// within `BITS + 2` rounds; no round histograms more than its
        /// width; and equal keys never move a boundary.
        #[test]
        fn every_probe_set_fits_the_bisection_budget(
            space in prop_oneof![
                Just(Space::LogUniform),
                Just(Space::TwoClusters),
                Just(Space::OneOutlier),
                Just(Space::Dist(Distribution::FewDistinct { k: 3 })),
                Just(Space::Dist(Distribution::AllEqual { value: 42 })),
                Just(Space::Dist(Distribution::Zipf { items: 64, s: 1.2 })),
                Just(Space::Dist(Distribution::Zipf { items: 1 << 16, s: 1.2 })),
            ],
            layout in prop_oneof![
                Just(Layout::Balanced),
                Just(Layout::SparseFront { empty_permille: 500 }),
                Just(Layout::Ramp { ratio: 8 }),
            ],
            p in prop_oneof![Just(2usize), Just(5), Just(8), Just(16), Just(64)],
            n_total in 1usize..6000,
            balanced in any::<bool>(),
            epsilon in prop_oneof![Just(0.0), Just(0.05)],
            m in prop_oneof![Just(1usize), Just(3)],
            seed in 0u64..1_000_000,
        ) {
            let all = keys_in(space, n_total, seed);
            let targets = if balanced {
                balanced_targets(n_total as u64, p)
            } else {
                perfect_targets(&layout.sizes(n_total, p))
            };
            let slack = slack_for(n_total as u64, p, epsilon);
            let opts = SplitterOptions { probes_per_round: m, ..SplitterOptions::default() };
            let width = m * (p - 1);
            let span0 = u128::from(all[n_total - 1] - all[0]);
            let mut over_budget = None;
            let plan = drive(&all, &targets, slack, opts, |plan| {
                let budget = span0.checked_shr(plan.rounds - 1).unwrap_or(0);
                let wide = plan.bufs.active.iter().any(|&i| {
                    let s = &plan.bufs.search[i];
                    s.hi - s.lo > budget
                });
                if wide || plan.bufs.probes.len() > width {
                    over_budget.get_or_insert(plan.rounds);
                }
            });
            prop_assert_eq!(over_budget, None, "first round over its budget or width");
            prop_assert!(plan.rounds <= u64::BITS + 2, "{} rounds", plan.rounds);
            prop_assert!(!plan.degraded);
            for s in plan.settled.as_ref().expect("driven to the end").iter() {
                prop_assert!(s.realized.abs_diff(s.target) <= slack);
                prop_assert!(s.global_lower <= s.realized && s.realized <= s.global_upper);
            }
        }
    }
}
