//! The multi-probe bisection contract (property-based): for any data,
//! any rank count and any slack, the splitter search at
//! `probes_per_round ∈ {3, 7}` must accept exactly the splitter keys,
//! realized boundaries, and `degraded` flag of the classic
//! single-probe loop — a finer probe grid replays the same bisection
//! path, it can only accept *earlier* — while the round count drops to
//! `⌈steps / log₂(m+1)⌉` (plus restart head-room).

use std::sync::Arc;

use dhs::core::{
    balanced_targets, find_splitters_cfg, find_splitters_seeded, perfect_targets, slack_for,
    InitialBounds, SplitterOptions, SplitterResult,
};
use dhs::runtime::{run, ClusterConfig, RunnerEngine};
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
        find_splitters_cfg(comm, &local, &targets, slack, opts)
    });
    out.into_iter().next().expect("p >= 1").0
}

/// How [`oracle`] and the search under test start each splitter.
#[derive(Debug, Clone, Copy)]
enum Start {
    MinMax,
    Sampled { per_rank: usize },
    Warm { probe_first: bool },
}

/// What the oracle returns: per splitter `(key, realized, L, U)`, then
/// rounds, probes and the degraded flag.
type Oracle = (Vec<(u64, u64, u64, u64)>, u32, u64, bool);

/// Nodes of the `d`-level bisection tree of `[lo, hi]`.
fn grid_size(lo: u64, hi: u64, d: u32) -> u64 {
    if d == 0 || lo > hi {
        return 0;
    }
    let mid = lo + (hi - lo) / 2;
    let left = if mid > lo {
        grid_size(lo, mid - 1, d - 1)
    } else {
        0
    };
    let right = if mid < hi {
        grid_size(mid + 1, hi, d - 1)
    } else {
        0
    };
    1 + left + right
}

/// Single-process restatement of Algorithms 2/3 (relaxed acceptance)
/// over the concatenated data: every round each unsettled splitter
/// takes up to `d` bisection steps against the true global counts and
/// is billed the whole `d`-level probe tree of the interval it entered
/// the round with; `brackets` gives each splitter's first interval and
/// the one it restarts into (after that, the data range).
fn oracle(
    all: &[u64],
    targets: &[u64],
    slack: u64,
    d: u32,
    cap: Option<u32>,
    mut brackets: Vec<((u64, u64), (u64, u64))>,
) -> Oracle {
    let data = (all[0], all[all.len() - 1]);
    let mut last = vec![(0u64, 0u64, 0u64); targets.len()];
    let mut done: Vec<Option<(u64, u64, u64, u64)>> = vec![None; targets.len()];
    let (mut rounds, mut probes, mut degraded) = (0u32, 0u64, false);
    while done.iter().any(Option::is_none) {
        rounds += 1;
        for i in (0..targets.len())
            .filter(|&i| done[i].is_none())
            .collect::<Vec<_>>()
        {
            let ((mut lo, mut hi), fallback) = brackets[i];
            probes += grid_size(lo, hi, d);
            let t = targets[i];
            for _ in 0..d {
                let mid = lo + (hi - lo) / 2;
                let l = all.partition_point(|&x| x < mid) as u64;
                let u = all.partition_point(|&x| x <= mid) as u64;
                last[i] = (mid, l, u);
                if l.max(t.saturating_sub(slack)) <= u.min(t.saturating_add(slack)) {
                    done[i] = Some((mid, t.clamp(l, u), l, u));
                    break;
                }
                let too_high = l > t.saturating_add(slack);
                if mid == if too_high { lo } else { hi } {
                    ((lo, hi), brackets[i].1) = (fallback, data);
                    break;
                }
                if too_high {
                    hi = mid - 1;
                } else {
                    lo = mid + 1;
                }
            }
            brackets[i].0 = (lo, hi);
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

/// One key of margin either side of `t`'s quantile in `ladder`,
/// clamped to the data range; with the quantile's index.
fn quantile_bracket(ladder: &[u64], t: u64, n_total: u64, data: (u64, u64)) -> (usize, (u64, u64)) {
    let idx = ((t as f64 / n_total as f64) * (ladder.len() - 1) as f64) as usize;
    let lo = ladder[idx.saturating_sub(1)].max(data.0);
    let hi = ladder[(idx + 1).min(ladder.len() - 1)].min(data.1);
    (idx, if lo <= hi { (lo, hi) } else { data })
}

proptest! {
    // Restarts (a sampled or warm bracket that misses its splitter) are
    // the rare path; a few hundred cheap cases reach them reliably.
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    /// The replicated search state is advanced once per round by
    /// whichever rank completes the allreduce, and every rank narrows
    /// its own brackets from the shared verdicts: on both engines,
    /// every rank must still return the same result, and that result
    /// must be what a single process refining over the concatenated
    /// data computes — splitters, rounds, probes and degraded flag.
    #[test]
    fn shared_plan_matches_single_process_oracle(
        p in 2usize..10,
        n_per in 0usize..201,
        empty_mask in 0u32..512,
        modulus in prop_oneof![Just(3u64), Just(50), Just(1 << 30), Just(u64::MAX)],
        seed in 0u64..1_000_000,
        m in prop_oneof![Just(1usize), Just(3), Just(7)],
        start in prop_oneof![
            Just(Start::MinMax),
            Just(Start::Sampled { per_rank: 2 }),
            Just(Start::Warm { probe_first: false }),
            Just(Start::Warm { probe_first: true }),
        ],
        cap in prop_oneof![Just(None), Just(Some(2u32)), Just(Some(9u32))],
        epsilon in prop_oneof![Just(0.0), Just(0.05)],
    ) {
        let local_of = move |rank: usize| {
            let n = if empty_mask >> rank & 1 == 1 { 0 } else { n_per };
            keys_for(rank, n, modulus, seed)
        };
        let locals: Vec<Vec<u64>> = (0..p).map(local_of).collect();
        let caps: Vec<usize> = locals.iter().map(Vec::len).collect();
        let targets = perfect_targets(&caps);
        let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
        let slack = slack_for(n_total, p, epsilon);
        let warm = keys_for(97, p - 1, modulus, seed ^ 0x5EED);
        let opts = SplitterOptions {
            init: match start {
                Start::Sampled { per_rank } => InitialBounds::SampledQuantiles { per_rank },
                _ => InitialBounds::DataMinMax,
            },
            max_iterations: cap,
            probes_per_round: m,
            probe_warm_first: matches!(start, Start::Warm { probe_first: true }),
            ..SplitterOptions::default()
        };

        let mut all: Vec<u64> = locals.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Oracle = if all.is_empty() {
            (Vec::new(), 0, 0, false)
        } else {
            let data = (all[0], all[all.len() - 1]);
            let quantile_n = (*targets.last().expect("p >= 2")).max(1);
            let brackets = targets.iter().map(|&t| match start {
                Start::MinMax => (data, data),
                Start::Sampled { per_rank } => {
                    let mut pool: Vec<u64> = locals
                        .iter()
                        .filter(|l| !l.is_empty())
                        .flat_map(|l| {
                            (0..per_rank).map(|i| l[((i + 1) * l.len() / (per_rank + 1)).min(l.len() - 1)])
                        })
                        .collect();
                    pool.sort_unstable();
                    (quantile_bracket(&pool, t, quantile_n, data).1, data)
                }
                Start::Warm { probe_first } => {
                    let (idx, bracket) = quantile_bracket(&warm, t, quantile_n, data);
                    if probe_first {
                        let w = warm[idx].clamp(data.0, data.1);
                        ((w, w), bracket)
                    } else {
                        (bracket, data)
                    }
                }
            });
            oracle(&all, &targets, slack, (m as u64 + 1).ilog2(), cap, brackets.collect())
        };

        for engine in [RunnerEngine::Threads, RunnerEngine::Tasks { workers: 0 }] {
            let (targets, warm) = (targets.clone(), warm.clone());
            let cluster = ClusterConfig::small_cluster(p).with_engine(engine);
            let out = run(&cluster, move |comm| {
                let local = local_of(comm.rank());
                match start {
                    Start::Warm { .. } => find_splitters_seeded(comm, &local, &targets, slack, opts, &warm),
                    _ => find_splitters_cfg(comm, &local, &targets, slack, opts),
                }
            });
            for (rank, (got, _)) in out.iter().enumerate() {
                let splitters: Vec<(u64, u64, u64, u64)> = got
                    .splitters
                    .iter()
                    .map(|s| (s.key, s.realized, s.global_lower, s.global_upper))
                    .collect();
                let got = (splitters, got.iterations, got.probes, got.degraded);
                prop_assert_eq!(&got, &expect, "rank {} under {:?}", rank, engine);
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Grid invariance: splitter keys, realized boundaries, and the
    /// degraded flag are identical across m ∈ {1, 3, 7}, under both
    /// acceptance rules, with duplicates, slack, and iteration caps in
    /// play; and the m-round count respects the tree-depth bound.
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
        let base_opts = SplitterOptions {
            strict_paper_rule: strict,
            max_iterations: cap,
            ..SplitterOptions::default()
        };
        let base = search(p, n_per, modulus, seed, epsilon, base_opts);
        for m in [3usize, 7] {
            let multi = search(p, n_per, modulus, seed, epsilon, SplitterOptions {
                probes_per_round: m,
                ..base_opts
            });
            let d = (m as u64 + 1).ilog2();
            if base.degraded {
                // The cap froze the classic search mid-descent. The
                // finer grid gets d steps per round, so it may have
                // legitimately converged (or frozen elsewhere); only
                // the shape is comparable.
                prop_assert_eq!(multi.splitters.len(), base.splitters.len());
            } else {
                // The classic search converged in `base.iterations`
                // steps, so the grid converges in at most
                // ⌈steps / d⌉ rounds — inside any cap the classic
                // search met — onto the identical splitters.
                prop_assert!(!multi.degraded, "m={} must converge too", m);
                prop_assert_eq!(
                    &multi.splitters, &base.splitters,
                    "m={} must accept identical splitters", m
                );
                prop_assert!(
                    multi.iterations <= base.iterations.div_ceil(d),
                    "m={}: {} rounds vs {} steps", m, multi.iterations, base.iterations
                );
            }
        }
    }

    /// The uncapped round count respects `⌈(BITS + 2) / d⌉` for
    /// min/max initial bounds (no restarts possible).
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
        let d = (m as u64 + 1).ilog2();
        prop_assert!(
            on.iterations <= (64 + 2u32).div_ceil(d),
            "m={}: {} rounds exceeds the tree-depth bound", m, on.iterations
        );
    }

    /// Sampled-quantile starts can restart mid-descent; the
    /// grid-invariance of the *final partition* must survive that.
    #[test]
    fn sampled_starts_agree_on_boundaries(
        p in 2usize..7,
        n_per in 30usize..200,
        seed in 0u64..1_000_000,
    ) {
        let realized = |m: usize| {
            let res = search(p, n_per, 1 << 20, seed, 0.0, SplitterOptions {
                init: InitialBounds::SampledQuantiles { per_rank: 2 },
                probes_per_round: m,
                ..SplitterOptions::default()
            });
            res.splitters.iter().map(|s| s.realized).collect::<Vec<_>>()
        };
        let base = realized(1);
        prop_assert_eq!(realized(3), base.clone());
        prop_assert_eq!(realized(7), base);
    }
}

/// The result is one allocation per communicator: every rank of the
/// world points at the same splitters, and after a split (the second
/// level of a two-level sort) every rank of a group points at its
/// group's — never at another group's.
#[test]
fn splitters_are_shared_per_communicator() {
    let (p, groups) = (8usize, 2usize);
    let out = run(&ClusterConfig::small_cluster(p), move |comm| {
        let local = keys_for(comm.rank(), 200, 1 << 30, 11);
        let search = |c: &dhs::runtime::Comm| {
            let caps: Vec<usize> = c.allgather(local.len());
            find_splitters_cfg(c, &local, &perfect_targets(&caps), 0, Default::default())
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
    /// bounds the module promises: at one probe per round the search
    /// takes at most `BITS + 2` rounds and at most one probe per
    /// splitter per round, never degrades, and — equal keys being
    /// split by count, not by value — lands every boundary exactly on
    /// its target at `ε = 0`, for balanced targets as for perfect ones.
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
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = rank_local_keys(dist, layout, n_total, p, comm.rank(), seed);
            local.sort_unstable();
            let caps: Vec<usize> = comm.allgather(local.len());
            let targets = if balanced {
                balanced_targets(n_total as u64, p)
            } else {
                perfect_targets(&caps)
            };
            find_splitters_cfg(comm, &local, &targets, 0, SplitterOptions::default())
        });
        let res = &out[0].0;
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
    }
}
