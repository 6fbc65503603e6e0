//! The splitter-search contract (property-based): for any data, any
//! rank count, any slack and any round width the distributed search
//! must return exactly what a single process refining over the
//! concatenated data computes — the ladder search by default, ending
//! at the owners where the priced rule says so, and §V-A's literal
//! bisection under `strict_paper_rule` — and the partition it finds
//! must not depend on how wide the rounds were.

use std::sync::Arc;

use dhs::core::{
    balanced_targets, find_splitters, find_splitters_seeded, perfect_targets, slack_for,
    SplitterOptions, SplitterResult,
};
use dhs::runtime::{
    launch, log2_ceil, run, ClusterConfig, CostModel, FaultPlan, LinkClass, LinkFault,
    RunnerEngine, TraceConfig, Work,
};
use dhs::workloads::{rank_local_keys, Distribution, Layout};
use proptest::prelude::*;

fn keys_for(rank: usize, n: usize, modulus: u64, seed: u64) -> Vec<u64> {
    let mut x = (rank as u64 + 1)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(seed)
        | 1;
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

fn search(
    p: usize,
    n_per: usize,
    modulus: u64,
    seed: u64,
    epsilon: f64,
    opts: SplitterOptions,
) -> SplitterResult<u64> {
    let out = run(&ClusterConfig::small_cluster(p), move |comm| {
        let local = keys_for(comm.rank(), n_per, modulus, seed);
        let caps: Vec<usize> = comm.allgather(local.len());
        let targets = perfect_targets(&caps);
        let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
        let slack = slack_for(n_total, p, epsilon);
        find_splitters(comm, &local, &targets, slack, opts)
    });
    out.into_iter().next().expect("p >= 1").0
}

/// How [`oracle`] and the search under test choose round 1's probes.
#[derive(Debug, Clone, Copy)]
enum Start {
    MinMax,
    /// A warm ladder of `p - 1 + extra` keys: one per target, or — as
    /// after a shrink — a different count, mapped by quantile.
    Warm {
        extra: usize,
    },
}

/// What the oracles return: per splitter `(key, realized, L, U)`, then
/// rounds, probes and the degraded flag.
type Oracle = (Vec<(u64, u64, u64, u64)>, u32, u64, bool);

/// Global `(L, U)` of `key` over the sorted concatenation.
fn counts(all: &[u64], key: u64) -> (u64, u64) {
    (
        all.partition_point(|&x| x < key) as u64,
        all.partition_point(|&x| x <= key) as u64,
    )
}

/// Distance from `t` to the boundaries `[l, u]` achievable at a probe.
fn miss(t: u64, (l, u): (u64, u64)) -> u64 {
    t.abs_diff(t.clamp(l, u))
}

/// An open splitter of the ladder search: a key bracket with the exact
/// global counts below `lo` and up to `hi`.
#[derive(Clone, Copy)]
struct Open {
    lo: u64,
    hi: u64,
    c_lo: u64,
    c_hi: u64,
}

/// The placement rule, restated over `u64` keys (every product fits
/// `u128`): `k` probes for target `t` in bracket `o`, one of which
/// leaves at most `budget` keys on either side.
fn place(o: Open, t: u64, k: usize, budget: u128) -> Vec<u64> {
    let span = u128::from(o.hi - o.lo);
    if span < k as u128 {
        return (o.lo..=o.hi).collect();
    }
    let keys = o.c_hi - o.c_lo;
    let (centre, half) = if keys == 0 {
        (span / 2, span)
    } else {
        let below = t.clamp(o.c_lo, o.c_hi) - o.c_lo;
        let sigma = (below as f64 * (keys - below) as f64 / keys as f64).sqrt();
        let half = (span as f64 * (2.0 * sigma / keys as f64)) as u128;
        (
            span * u128::from(below) / u128::from(keys),
            half.max(k as u128),
        )
    };
    let mut grid: Vec<u128> = if k == 1 {
        vec![centre]
    } else {
        let (a, b) = (centre.saturating_sub(half), (centre + half).min(span));
        (1..=k as u128)
            .map(|j| a + (b - a) * j / (k as u128 + 1))
            .collect()
    };
    if span > budget && !grid.iter().any(|&x| span - budget <= x && x <= budget) {
        match grid.iter().position(|&x| x > budget) {
            Some(j) => grid[j] = budget,
            None => *grid.last_mut().expect("k >= 1") = span - budget,
        }
    }
    grid.into_iter().map(|x| o.lo + x as u64).collect()
}

/// What the owner finish is priced on: the cluster's cost model at its
/// worst link — degraded by the link-fault windows open at time 0,
/// which in these tests cover the whole search — its rank count, and
/// the largest local input.
struct Machine {
    cost: CostModel,
    link: LinkClass,
    p: usize,
    n_max: u64,
}

/// The two prices the rule compared when it took the owner finish.
#[derive(Debug, Clone, Copy)]
struct Finish {
    /// The finish's: a bound on every rank's clock across it.
    price: u64,
    /// The allreduce of the round it replaced.
    round: u64,
}

impl Machine {
    fn of(cluster: &ClusterConfig, locals: &[Vec<u64>]) -> Self {
        let p = cluster.ranks();
        Self {
            cost: cluster.fault.cost_at(&cluster.cost, 0).into_owned(),
            link: cluster.topology.worst_link(&(0..p).collect::<Vec<_>>()),
            p,
            n_max: locals.iter().map(|l| l.len() as u64).max().unwrap_or(0),
        }
    }

    /// The rule, restated: with `open` brackets left and `probes` laid
    /// out for the next round, finish at the owners when the finish is
    /// priced strictly below that round's allreduce. The finish ships
    /// every rank's keys inside each open bracket (at most `n_max` keys
    /// times the most brackets over one key) in a Bruck all-to-all,
    /// selects linearly at the owner (3 compares a key) and allgathers
    /// one 24-byte `(key, L, U)`.
    fn finish(&self, open: &[Open], probes: usize) -> Option<Finish> {
        let overlap = open
            .iter()
            .map(|b| open.iter().filter(|o| o.lo <= b.lo && b.lo <= o.hi).count())
            .max()? as u64;
        let max_keys = open.iter().map(|o| o.c_hi - o.c_lo).max()?;
        let (cost, link, p) = (&self.cost, self.link, self.p);
        let sent = 8 * self.n_max * overlap;
        let price = cost.work_ns(Work::MoveBytes(sent))
            + cost.alltoallv_bruck_rank_ns(link, p, sent)
            + cost.work_ns(Work::Compares(3 * max_keys))
            + cost.allgather_ns(link, p, 24);
        let round = cost.allreduce_ns(link, p, 16 * probes as u64);
        (price < round).then_some(Finish { price, round })
    }
}

/// Single-process restatement of the ladder search over the sorted
/// concatenation `all`: every round the open splitters share `width`
/// probes, the probes sorted by key form one ladder of true global
/// counts, and every open splitter takes the first accepting entry
/// inside its bracket or else the tightest bracket the entries prove.
/// `first` gives round 1's probes where a warm ladder chose them. From
/// round 2 on, where `machine` prices the owner finish below the
/// round, the search ends instead: each open splitter settles by exact
/// selection, at the key of global rank `target` (the largest key for a
/// target of `N`), as one more round.
fn oracle(
    all: &[u64],
    targets: &[u64],
    slack: u64,
    width: usize,
    cap: Option<u32>,
    first: Option<Vec<u64>>,
    machine: &Machine,
) -> (Oracle, Option<Finish>) {
    let (min, max) = (all[0], all[all.len() - 1]);
    let span0 = u128::from(max - min);
    let mut open: Vec<Option<Open>> = vec![
        Some(Open {
            lo: min,
            hi: max,
            c_lo: 0,
            c_hi: all.len() as u64
        });
        targets.len()
    ];
    let mut done: Vec<Option<(u64, u64, u64, u64)>> = vec![None; targets.len()];
    let (mut rounds, mut probes, mut degraded) = (0u32, 0u64, false);
    let mut finish = None;
    while open.iter().any(Option::is_some) {
        let n_open = open.iter().flatten().count();
        let budget = span0.checked_shr(rounds).unwrap_or(0) + 1;
        // (key, node, L, U), nodes numbered in splitter order.
        let mut ladder: Vec<(u64, usize, u64, u64)> = Vec::new();
        for (j, (i, o)) in open
            .iter()
            .enumerate()
            .filter_map(|(i, o)| Some((i, (*o)?)))
            .enumerate()
        {
            // The width's remainder goes to the first open splitters.
            let k = width / n_open + usize::from(j < width % n_open);
            let placed = match &first {
                Some(keys) if rounds == 0 => vec![keys[i].clamp(min, max)],
                _ => place(o, targets[i], k, budget),
            };
            for key in placed {
                let (l, u) = counts(all, key);
                ladder.push((key, ladder.len(), l, u));
            }
        }
        let brackets: Vec<Open> = open.iter().flatten().copied().collect();
        if let Some(took) = machine
            .finish(&brackets, ladder.len())
            .filter(|_| rounds > 0)
        {
            for (i, o) in open.iter_mut().enumerate() {
                if o.take().is_some() {
                    let key = all[(targets[i] as usize).min(all.len() - 1)];
                    let (l, u) = counts(all, key);
                    done[i] = Some((key, targets[i].clamp(l, u), l, u));
                }
            }
            rounds += 1;
            finish = Some(took);
            break;
        }
        rounds += 1;
        probes += ladder.len() as u64;
        ladder.sort_unstable();
        let capped = cap.is_some_and(|c| rounds >= c);
        for i in 0..targets.len() {
            let Some(mut o) = open[i] else { continue };
            let t = targets[i];
            let inside = ladder
                .iter()
                .filter(|&&(key, ..)| o.lo <= key && key <= o.hi);
            let (mut below, mut above) = (None, None);
            for &(key, _, l, u) in inside {
                if u < t.saturating_sub(slack) {
                    below = Some((key, l, u));
                } else if l > t.saturating_add(slack) {
                    above = Some((key, l, u));
                    break;
                } else {
                    done[i] = Some((key, t.clamp(l, u), l, u));
                    break;
                }
            }
            if done[i].is_none() {
                if let Some((key, _, u)) = below {
                    (o.lo, o.c_lo) = (key + 1, u);
                }
                if let Some((key, l, _)) = above {
                    (o.hi, o.c_hi) = (key - 1, l);
                }
                if capped {
                    let (key, l, u) = match (below, above) {
                        (Some(b), Some(a)) if miss(t, (a.1, a.2)) < miss(t, (b.1, b.2)) => a,
                        (Some(b), _) => b,
                        (None, a) => a.expect("own probes lie inside the bracket"),
                    };
                    done[i] = Some((key, t.clamp(l, u), l, u));
                    degraded = true;
                }
            }
            open[i] = done[i].is_none().then_some(o);
        }
    }
    let done = done.into_iter().map(|s| s.expect("settled")).collect();
    ((done, rounds, probes, degraded), finish)
}

/// Single-process restatement of Algorithms 2/3 as printed: every
/// round each unsettled splitter probes the midpoint of its interval
/// and is judged by that probe alone, with `L < K ≤ U` acceptance.
fn oracle_strict(all: &[u64], targets: &[u64], slack: u64, cap: Option<u32>) -> Oracle {
    let data = (all[0], all[all.len() - 1]);
    let mut bracket = vec![data; targets.len()];
    let mut last = vec![(0u64, 0u64, 0u64); targets.len()];
    let mut done: Vec<Option<(u64, u64, u64, u64)>> = vec![None; targets.len()];
    let (mut rounds, mut probes, mut degraded) = (0u32, 0u64, false);
    while done.iter().any(Option::is_none) {
        rounds += 1;
        for i in 0..targets.len() {
            if done[i].is_some() {
                continue;
            }
            probes += 1;
            let (lo, hi) = bracket[i];
            let t = targets[i];
            let mid = lo + (hi - lo) / 2;
            let (l, u) = counts(all, mid);
            last[i] = (mid, l, u);
            // Target 0 can only be realized as "nothing below".
            let reachable = if t > 0 { l + 1 } else { l };
            if reachable.max(t.saturating_sub(slack)) <= u.min(t.saturating_add(slack)) {
                done[i] = Some((mid, t.clamp(reachable, u), l, u));
            } else if l >= t {
                bracket[i].1 = mid - 1;
            } else {
                bracket[i].0 = mid + 1;
            }
        }
        if cap.is_some_and(|c| rounds >= c) {
            for i in 0..targets.len() {
                let (mid, l, u) = last[i];
                degraded |= done[i].is_none();
                done[i].get_or_insert((mid, targets[i].clamp(l, u), l, u));
            }
        }
    }
    let done = done.into_iter().map(|s| s.expect("settled")).collect();
    (done, rounds, probes, degraded)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    /// The replicated search state is advanced once per round by
    /// whichever rank completes the allreduce, and every rank narrows
    /// its own brackets from the shared bracket ends: at every worker
    /// count, every rank must still return the same result, and that
    /// result must be what a single process refining over the
    /// concatenated data computes — splitters, rounds, probes and
    /// degraded flag.
    #[test]
    fn shared_plan_matches_single_process_oracle(
        p in 2usize..10,
        n_per in 0usize..201,
        empty_mask in 0u32..512,
        // A stride leaves nothing between few distinct values: flat
        // stretches of the CDF.
        (modulus, stride) in prop_oneof![
            Just((3u64, 1u64)),
            Just((3, 7919)),
            Just((50, 1)),
            Just((50, 7919)),
            Just((1 << 30, 1)),
            Just((u64::MAX, 1)),
        ],
        seed in 0u64..1_000_000,
        m in prop_oneof![Just(1usize), Just(2), Just(3), Just(7)],
        start in prop_oneof![
            Just(Start::MinMax),
            Just(Start::Warm { extra: 0 }),
            Just(Start::Warm { extra: 3 }),
        ],
        strict in prop_oneof![Just(false), Just(false), Just(true)],
        cap in prop_oneof![Just(None), Just(Some(2u32)), Just(Some(9u32))],
        epsilon in prop_oneof![Just(0.0), Just(0.05)],
    ) {
        let local_of = move |rank: usize| {
            let n = if empty_mask >> rank & 1 == 1 { 0 } else { n_per };
            let mut keys = keys_for(rank, n, modulus, seed);
            keys.iter_mut().for_each(|k| *k *= stride);
            keys
        };
        let locals: Vec<Vec<u64>> = (0..p).map(local_of).collect();
        let caps: Vec<usize> = locals.iter().map(Vec::len).collect();
        let targets = perfect_targets(&caps);
        let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
        let slack = slack_for(n_total, p, epsilon);
        let start = if strict { Start::MinMax } else { start };
        let warm = match start {
            Start::Warm { extra } => keys_for(97, p - 1 + extra, modulus, seed ^ 0x5EED),
            _ => Vec::new(),
        };
        let opts = SplitterOptions {
            strict_paper_rule: strict,
            max_iterations: cap,
            probes_per_round: m,
            ..SplitterOptions::default()
        };

        let mut all: Vec<u64> = locals.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Oracle = if all.is_empty() {
            (Vec::new(), 0, 0, false)
        } else if strict {
            oracle_strict(&all, &targets, slack, cap)
        } else {
            // One key per target probes in place; any other ladder is
            // read at each target's quantile.
            let seeded = |ladder: &[u64]| -> Vec<u64> {
                targets
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        if ladder.len() == targets.len() {
                            ladder[i]
                        } else {
                            let q = t as f64 / n_total as f64;
                            ladder[(q * (ladder.len() - 1) as f64) as usize]
                        }
                    })
                    .collect()
            };
            let first = match start {
                Start::MinMax => None,
                Start::Warm { .. } => Some(seeded(&warm)),
            };
            let machine = Machine::of(&ClusterConfig::small_cluster(p), &locals);
            oracle(&all, &targets, slack, m * (p - 1), cap, first, &machine).0
        };

        for workers in [p, 0, 1] {
            let (targets, warm) = (targets.clone(), warm.clone());
            let cluster = ClusterConfig::small_cluster(p).with_engine(RunnerEngine { workers });
            let out = run(&cluster, move |comm| {
                let local = local_of(comm.rank());
                find_splitters_seeded(comm, &local, &targets, slack, opts, &warm)
            });
            for (rank, (got, _)) in out.iter().enumerate() {
                let splitters: Vec<(u64, u64, u64, u64)> = got
                    .splitters
                    .iter()
                    .map(|s| (s.key, s.realized, s.global_lower, s.global_upper))
                    .collect();
                let got = (splitters, got.iterations, got.probes, got.degraded);
                prop_assert_eq!(&got, &expect, "rank {} at {} workers", rank, workers);
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// What the round width may and may not change. Under the paper's
    /// literal rule it changes nothing — one midpoint per splitter per
    /// round. Under the ladder search the accepted *keys* follow the
    /// probes, but the partition does not: every boundary stays within
    /// the slack (on its target at ε = 0) and no round histograms more
    /// than its width. Wider rounds take fewer of them, but not as a
    /// theorem: where one interpolated probe happens to hit, a grid
    /// around it may need one round more (25 of 3 000 comparisons on
    /// this generator, all at 1–2 rounds), which is also the only way
    /// a wider search meets a cap the narrower one did not.
    #[test]
    fn results_identical_across_probe_grids(
        p in 2usize..8,
        n_per in 20usize..300,
        modulus_bits in 3u32..40,
        seed in 0u64..1_000_000,
        epsilon in prop_oneof![Just(0.0), Just(0.01), Just(0.1)],
        strict in any::<bool>(),
        cap in prop_oneof![Just(None), Just(Some(3u32)), Just(Some(8u32))],
    ) {
        let modulus = 1u64 << modulus_bits;
        let slack = slack_for((p * n_per) as u64, p, epsilon);
        let base_opts = SplitterOptions {
            strict_paper_rule: strict,
            max_iterations: cap,
            ..SplitterOptions::default()
        };
        let base = search(p, n_per, modulus, seed, epsilon, base_opts);
        let mut rounds = base.iterations;
        for m in [3usize, 7] {
            let multi = search(p, n_per, modulus, seed, epsilon, SplitterOptions {
                probes_per_round: m,
                ..base_opts
            });
            prop_assert_eq!(multi.splitters.len(), base.splitters.len());
            if strict {
                prop_assert_eq!(&multi.splitters, &base.splitters, "m={}", m);
                prop_assert_eq!(
                    (multi.iterations, multi.probes, multi.degraded),
                    (base.iterations, base.probes, base.degraded),
                    "m={}", m
                );
                continue;
            }
            prop_assert!(
                multi.iterations <= rounds + 1,
                "m={}: {} rounds after {} at a narrower width", m, multi.iterations, rounds
            );
            prop_assert!(
                multi.probes <= u64::from(multi.iterations) * (m * (p - 1)) as u64,
                "m={}: {} probes in {} rounds", m, multi.probes, multi.iterations
            );
            rounds = multi.iterations;
            if !multi.degraded {
                for s in multi.splitters.iter() {
                    prop_assert!(s.realized.abs_diff(s.target) <= slack, "m={}", m);
                }
            }
        }
    }

    /// The uncapped round count respects the bisection budget,
    /// `BITS + 2`, at every width.
    #[test]
    fn round_bound(
        p in 2usize..8,
        n_per in 20usize..200,
        modulus_bits in 3u32..40,
        seed in 0u64..1_000_000,
        m in prop_oneof![Just(1usize), Just(3), Just(7), Just(15)],
    ) {
        let modulus = 1u64 << modulus_bits;
        let opts = SplitterOptions {
            probes_per_round: m,
            ..SplitterOptions::default()
        };
        let on = search(p, n_per, modulus, seed, 0.0, opts);
        prop_assert!(
            on.iterations <= 64 + 2,
            "m={}: {} rounds exceeds the bisection budget", m, on.iterations
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The two public entry points are one search: a cold
    /// `find_splitters` and `find_splitters_seeded` with an empty
    /// ladder return the same splitters, rounds, probes and degraded
    /// flag, leave the same virtual clock, counters and trace on every
    /// rank, and neither marks a warm start.
    #[test]
    fn cold_search_is_the_empty_ladder(
        p in 2usize..9,
        n_per in 0usize..150,
        empty_mask in 0u32..512,
        modulus in prop_oneof![Just(3u64), Just(1 << 30), Just(u64::MAX)],
        seed in 0u64..1_000_000,
        strict in any::<bool>(),
        m in prop_oneof![Just(1usize), Just(3)],
        cap in prop_oneof![Just(None), Just(Some(2u32))],
    ) {
        let opts = SplitterOptions {
            strict_paper_rule: strict,
            max_iterations: cap,
            probes_per_round: m,
            ..SplitterOptions::default()
        };
        let traced = |seeded: bool| {
            let cluster = ClusterConfig::small_cluster(p).with_trace(TraceConfig::On);
            let record = launch(&cluster, move |comm| {
                let n = if empty_mask >> comm.rank() & 1 == 1 { 0 } else { n_per };
                let local = keys_for(comm.rank(), n, modulus, seed);
                let caps: Vec<usize> = comm.allgather(local.len());
                let targets = perfect_targets(&caps);
                let res = if seeded {
                    find_splitters_seeded(comm, &local, &targets, 0, opts, &Vec::new())
                } else {
                    find_splitters(comm, &local, &targets, 0, opts)
                };
                (res.splitters.to_vec(), res.iterations, res.probes, res.degraded)
            })
            .expect("an inert fault plan is valid");
            let trace = record.trace.clone();
            let out = record.into_result().expect("a fault-free search completes");
            (out, trace)
        };
        let (cold, cold_trace) = traced(false);
        let (seeded, seeded_trace) = traced(true);
        prop_assert_eq!(&cold, &seeded);
        for (rank, (c, s)) in cold_trace.ranks.iter().zip(&seeded_trace.ranks).enumerate() {
            prop_assert_eq!(c.clock_ns, s.clock_ns, "rank {}", rank);
            prop_assert_eq!(&c.spans, &s.spans, "rank {}", rank);
            prop_assert_eq!(&c.events, &s.events, "rank {}", rank);
            prop_assert!(s.spans.iter().all(|span| span.name != "warm_start"), "rank {}", rank);
        }
    }
}

/// The result is one allocation per communicator: every rank of the
/// world points at the same splitters, and after a split (a HykSort
/// level) every rank of a group points at its group's — never at
/// another group's.
#[test]
fn splitters_are_shared_per_communicator() {
    let (p, groups) = (8usize, 2usize);
    let out = run(&ClusterConfig::small_cluster(p), move |comm| {
        let local = keys_for(comm.rank(), 200, 1 << 30, 11);
        let search = |c: &dhs::runtime::Comm| {
            let caps: Vec<usize> = c.allgather(local.len());
            find_splitters(c, &local, &perfect_targets(&caps), 0, Default::default())
        };
        let flat = search(comm);
        let group = comm.rank() * groups / p;
        let sub = comm.split(group as u64, comm.rank() as u64);
        (flat.splitters, group, search(&sub).splitters)
    });
    let (flat0, _, _) = &out[0].0;
    assert_eq!(flat0.len(), p - 1);
    for (rank, ((flat, group, grouped), _)) in out.iter().enumerate() {
        assert!(Arc::ptr_eq(flat, flat0), "rank {rank}: private flat result");
        assert_eq!(grouped.len(), p / groups - 1);
        for ((_, other_group, other), _) in &out {
            assert_eq!(
                Arc::ptr_eq(grouped, other),
                group == other_group,
                "rank {rank}: a group shares one result, groups share none"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Duplicate-heavy and adversarial key spaces stay inside the
    /// bounds the module promises: at the default width the search
    /// takes at most `BITS + 2` rounds of at most `P − 1` probes,
    /// never degrades, and — equal keys being split by count, not by
    /// value — lands every boundary exactly on its target at `ε = 0`,
    /// for balanced targets as for perfect ones. Under an iteration
    /// cap it stops on time and freezes every open splitter at the
    /// probe nearest its target, reporting `degraded` exactly when a
    /// boundary moved.
    #[test]
    fn duplicate_heavy_inputs_stay_bounded(
        dist in prop_oneof![
            Just(Distribution::AllEqual { value: 42 }),
            Just(Distribution::FewDistinct { k: 3 }),
            Just(Distribution::Zipf { items: 64, s: 1.2 }),
            Just(Distribution::Zipf { items: 1 << 16, s: 1.2 }),
        ],
        layout in prop_oneof![
            Just(Layout::Balanced),
            Just(Layout::SparseFront { empty_permille: 500 }),
            Just(Layout::Ramp { ratio: 8 }),
        ],
        p in prop_oneof![Just(2usize), Just(5), Just(8), Just(16)],
        n_total in 1usize..6000,
        balanced in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let find = move |cap: Option<u32>| {
            let out = run(&ClusterConfig::small_cluster(p), move |comm| {
                let mut local = rank_local_keys(dist, layout, n_total, p, comm.rank(), seed);
                local.sort_unstable();
                let caps: Vec<usize> = comm.allgather(local.len());
                let targets = if balanced {
                    balanced_targets(n_total as u64, p)
                } else {
                    perfect_targets(&caps)
                };
                let opts = SplitterOptions { max_iterations: cap, ..SplitterOptions::default() };
                (find_splitters(comm, &local, &targets, 0, opts), local)
            });
            let mut all: Vec<u64> = out.iter().flat_map(|((_, l), _)| l.iter().copied()).collect();
            all.sort_unstable();
            (out.into_iter().next().expect("p >= 2").0.0, all)
        };

        let (res, all) = find(None);
        prop_assert!(!res.degraded);
        prop_assert!(res.iterations <= u64::BITS + 2, "{} rounds", res.iterations);
        prop_assert!(
            res.probes <= u64::from(res.iterations) * (p as u64 - 1),
            "{} probes in {} rounds", res.probes, res.iterations
        );
        prop_assert_eq!(res.splitters.len(), p - 1);
        for s in res.splitters.iter() {
            prop_assert_eq!(s.realized, s.target, "ties must not move a boundary");
            prop_assert!(s.global_lower <= s.realized && s.realized <= s.global_upper);
        }

        // Round 1 of a cold search probes each target's interpolated
        // quantile; a cap of 1 freezes on that ladder.
        let span = u128::from(all[n_total - 1] - all[0]);
        let round1: Vec<(u64, u64)> = res
            .splitters
            .iter()
            .map(|s| all[0] + (span * u128::from(s.target) / n_total as u128) as u64)
            .map(|key| counts(&all, key))
            .collect();
        for cap in [1u32, 3] {
            let (capped, _) = find(Some(cap));
            prop_assert!(capped.iterations <= cap.min(res.iterations));
            prop_assert_eq!(capped.splitters.len(), p - 1);
            let mut moved = false;
            for s in capped.splitters.iter() {
                prop_assert_eq!((s.global_lower, s.global_upper), counts(&all, s.key));
                prop_assert_eq!(s.realized, s.target.clamp(s.global_lower, s.global_upper));
                moved |= s.realized != s.target;
                if cap == 1 {
                    let nearest = round1.iter().map(|&at| miss(s.target, at)).min();
                    prop_assert_eq!(Some(s.realized.abs_diff(s.target)), nearest);
                }
            }
            prop_assert_eq!(capped.degraded, moved, "cap {}", cap);
        }
    }
}

/// The search's result as the oracle states it.
fn as_oracle(res: &SplitterResult<u64>) -> Oracle {
    let splitters = res
        .splitters
        .iter()
        .map(|s| (s.key, s.realized, s.global_lower, s.global_upper))
        .collect();
    (splitters, res.iterations, res.probes, res.degraded)
}

/// The owner finish where it fires: at p = 256 with 16 uniform keys per
/// rank the rule takes it after round 1, priced below the allreduce it
/// skips; every rank's clock across it (the `owner_finish` span, from
/// the last reduction to the shared result) stays within that price,
/// and the result is the oracle's.
#[test]
fn owner_finish_stays_within_its_price() {
    let cluster = ClusterConfig::supermuc_phase2(256);
    finish_within_its_price(cluster, 16, 2);
}

/// The same under a link fault: an inter-node window that adds 200 ns
/// to every message for the whole search. Priced on the faulted model
/// that its allreduces are charged under, the finish no longer beats
/// round 2 at 32 keys per rank and fires after round 3; priced on the
/// base model, it would fire after round 1 and miss the oracle.
#[test]
fn owner_finish_is_priced_under_the_link_fault() {
    let slow = LinkFault {
        class: Some(LinkClass::InterNode),
        extra_alpha_ns: 200.0,
        beta_factor: 1.0,
        from_ns: 0,
        until_ns: u64::MAX,
    };
    let cluster =
        ClusterConfig::supermuc_phase2(256).with_fault(FaultPlan::default().with_link_fault(slow));
    finish_within_its_price(cluster, 32, 4);
}

/// Run the search on `cluster` over `n_per` uniform keys per rank and
/// hold it to the oracle priced on the same machine: the owner finish
/// fires, as search round `rounds`, priced below the allreduce it
/// skips, and every rank's clock across it stays within that price.
fn finish_within_its_price(cluster: ClusterConfig, n_per: usize, rounds: u32) {
    let (p, seed) = (cluster.ranks(), 5u64);
    let cluster = cluster.with_trace(TraceConfig::On);
    let locals: Vec<Vec<u64>> = (0..p).map(|r| keys_for(r, n_per, u64::MAX, seed)).collect();
    let targets = perfect_targets(&vec![n_per; p]);
    let mut all = locals.concat();
    all.sort_unstable();
    let machine = Machine::of(&cluster, &locals);
    let (expect, finish) = oracle(&all, &targets, 0, p - 1, None, None, &machine);
    let finish = finish.expect("the rule fires");
    assert!(finish.price < finish.round, "{finish:?}");
    assert_eq!(expect.1, rounds, "the finish replaces round {rounds}");

    let record = launch(&cluster, move |comm| {
        let local = keys_for(comm.rank(), n_per, u64::MAX, seed);
        let targets = perfect_targets(&vec![n_per; comm.size()]);
        find_splitters(comm, &local, &targets, 0, SplitterOptions::default())
    })
    .expect("a valid fault plan");
    let trace = record.trace.clone();
    let out = record
        .into_result()
        .expect("a search without crashes completes");
    for (rank, ((res, _), ranked)) in out.iter().zip(&trace.ranks).enumerate() {
        assert_eq!(as_oracle(res), expect, "rank {rank}");
        let across: Vec<u64> = ranked
            .spans
            .iter()
            .filter(|s| s.name == "owner_finish")
            .map(|s| s.duration_ns())
            .collect();
        assert_eq!(across.len(), 1, "rank {rank}: one owner finish");
        assert!(
            across[0] <= finish.price,
            "rank {rank}: {} ns across the finish, priced {}",
            across[0],
            finish.price
        );
    }
}

/// At p ≤ 64 under `supermuc_phase2` the finish's latency alone — one
/// `α` per round of the Bruck all-to-all and of the allgather,
/// `2⌈log₂P⌉α` — is no cheaper than the widest default round's
/// allreduce, so the rule never fires there; a world of 16 keys per
/// rank at p = 64, the smallest payload the finish could ship, shows no
/// owner finish.
#[test]
fn owner_finish_never_fires_at_64_ranks_or_fewer() {
    for p in 2..=64usize {
        let cluster = ClusterConfig::supermuc_phase2(p);
        let machine = Machine::of(&cluster, &[]);
        let (cost, link) = (&machine.cost, machine.link);
        let latency = cost.alltoallv_bruck_rank_ns(link, p, 0) + cost.allgather_ns(link, p, 0);
        assert!(latency >= 2 * u64::from(log2_ceil(p)) * cost.link(link).alpha_ns as u64);
        let widest = cost.allreduce_ns(link, p, 16 * (p as u64 - 1));
        assert!(
            latency >= widest,
            "p={p}: finish {latency} ns < round {widest} ns"
        );
    }
    let p = 64;
    let record = launch(
        &ClusterConfig::supermuc_phase2(p).with_trace(TraceConfig::On),
        move |comm| {
            let local = keys_for(comm.rank(), 16, u64::MAX, 3);
            find_splitters(
                comm,
                &local,
                &perfect_targets(&[16; 64]),
                0,
                Default::default(),
            )
        },
    )
    .expect("an inert fault plan is valid");
    assert!(record.ranks.iter().all(Result::is_ok));
    for ranked in &record.trace.ranks {
        assert!(ranked.spans.iter().all(|s| s.name != "owner_finish"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The oracle match at a rank count where the owner finish can fire:
    /// duplicates, empty ranks, both slacks, warm starts and the cap,
    /// at p = 256 and a few keys per rank.
    #[test]
    fn owner_finish_matches_the_oracle(
        n_per in 1usize..24,
        empty_permille in prop_oneof![Just(0u64), Just(0), Just(300), Just(900)],
        modulus in prop_oneof![Just(3u64), Just(50), Just(1 << 12), Just(1 << 30), Just(u64::MAX)],
        seed in 0u64..1_000_000,
        start in prop_oneof![
            Just(Start::MinMax),
            Just(Start::MinMax),
            Just(Start::Warm { extra: 0 }),
            Just(Start::Warm { extra: 3 }),
        ],
        cap in prop_oneof![Just(None), Just(None), Just(Some(2u32)), Just(Some(3u32))],
        epsilon in prop_oneof![Just(0.0), Just(0.05)],
    ) {
        let p = 256usize;
        let local_of = move |rank: usize| {
            let mixed = ((rank as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 1000;
            let n = if mixed < empty_permille { 0 } else { n_per };
            keys_for(rank, n, modulus, seed)
        };
        let locals: Vec<Vec<u64>> = (0..p).map(local_of).collect();
        let caps: Vec<usize> = locals.iter().map(Vec::len).collect();
        let targets = perfect_targets(&caps);
        let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
        let slack = slack_for(n_total, p, epsilon);
        let warm = match start {
            Start::Warm { extra } => keys_for(97, p - 1 + extra, modulus, seed ^ 0x5EED),
            Start::MinMax => Vec::new(),
        };
        let opts = SplitterOptions { max_iterations: cap, ..SplitterOptions::default() };
        let mut all = locals.concat();
        all.sort_unstable();
        let cluster = ClusterConfig::small_cluster(p);
        let expect = if all.is_empty() {
            (Vec::new(), 0, 0, false)
        } else {
            let first = (!warm.is_empty()).then(|| {
                targets
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        if warm.len() == targets.len() {
                            warm[i]
                        } else {
                            let q = t as f64 / n_total as f64;
                            warm[(q * (warm.len() - 1) as f64) as usize]
                        }
                    })
                    .collect()
            });
            let machine = Machine::of(&cluster, &locals);
            oracle(&all, &targets, slack, p - 1, cap, first, &machine).0
        };
        let out = run(&cluster, move |comm| {
            let local = local_of(comm.rank());
            find_splitters_seeded(comm, &local, &targets, slack, opts, &warm)
        });
        for (rank, (got, _)) in out.iter().enumerate() {
            prop_assert_eq!(&as_oracle(got), &expect, "rank {}", rank);
        }
    }
}

/// Round 1 of a dense shape (p = 256, 64 keys per rank: 255 probes over
/// a 64-key block) is located by one merge of the sorted probes and the
/// sorted block: rank 0's local histogram, from the end of the range
/// reduction to the start of round 1's allreduce, is charged exactly
/// `Compares(w + 2m)`.
#[test]
fn a_dense_round_is_charged_one_merge() {
    let (p, n_per, seed) = (256, 64, 3u64);
    let cluster = ClusterConfig::supermuc_phase2(p).with_trace(TraceConfig::On);
    let record = launch(&cluster, move |comm| {
        let local = keys_for(comm.rank(), n_per, u64::MAX, seed);
        let targets = perfect_targets(&vec![n_per; comm.size()]);
        find_splitters(comm, &local, &targets, 0, SplitterOptions::default());
    })
    .expect("a valid fault plan");
    let collectives: Vec<_> = record.trace.ranks[0]
        .spans
        .iter()
        .filter(|s| s.cat == "collective")
        .collect();
    let located = collectives[1].start_ns - collectives[0].end_ns;
    let (m, w) = (p as u64 - 1, n_per as u64);
    let merge = CostModel::default().work_ns(Work::Compares(w + 2 * m));
    assert_eq!(located, merge, "rank 0's round 1: {located} ns");
}
