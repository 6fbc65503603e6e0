//! `plan_exchange` finds every splitter's local `(lower, upper)`
//! by exponential search from the previous splitter's cut. The start of
//! a search must decide only what it costs: the cuts, and the virtual
//! time charged for them, have to equal those of a plan written here
//! with two independent full-width `partition_point`s per splitter —
//! for duplicate-heavy keys, empty ranks, splitter keys outside the
//! local range, accepted keys that do not ascend, and any splitter
//! count from one to `P − 1`. `exchange_data` must then deliver
//! segment `d` of a `w`-way plan to one member of the `d`-th of `w`
//! rank groups, and at `w = P` to rank `d`.

use std::sync::Arc;

use dhs_core::exchange::{exchange_data, plan_exchange};
use dhs_core::{Key, SplitterInfo, SplitterResult};
use dhs_runtime::{run, AllToAllAlgo, ClusterConfig, Comm, Work};
use dhs_workloads::Distribution;

/// Algorithm 4 with plain binary searches, against the runtime's public
/// surface only: the charges and the one exclusive scan of the plan
/// under test, in its order.
fn reference_cuts<K: Key>(comm: &Comm, sorted: &[K], splitters: &[SplitterInfo<K>]) -> Vec<usize> {
    let s = splitters.len() as u64;
    comm.charge(Work::BinarySearches {
        searches: 2 * s,
        n: sorted.len() as u64,
    });
    let lowers: Vec<u64> = splitters
        .iter()
        .map(|i| sorted.partition_point(|x| *x < i.key) as u64)
        .collect();
    let contingents: Vec<u64> = splitters
        .iter()
        .zip(&lowers)
        .map(|(i, l)| sorted.partition_point(|x| *x <= i.key) as u64 - l)
        .collect();
    let before_me = comm.exscan_sum_vec_shared(&contingents).to_vec();
    comm.charge(Work::Compares(s));
    let mut cuts = vec![0usize];
    for (i, info) in splitters.iter().enumerate() {
        let excess = info.realized - info.global_lower;
        let take = excess.saturating_sub(before_me[i]).min(contingents[i]);
        let cut = (lowers[i] + take) as usize;
        cuts.push(cut.max(*cuts.last().expect("starts non-empty")));
    }
    let end = sorted.len().max(*cuts.last().expect("starts non-empty"));
    cuts.push(end);
    cuts
}

/// How the accepted keys are laid out.
#[derive(Debug, Clone, Copy)]
enum Accepted {
    /// One key sampled from every rank's block, ascending.
    Ascending,
    /// The same keys in rank order of their donors: not ascending.
    AsGathered,
    /// Ascending, but the first below and the last above every key
    /// there is.
    PastBothEnds,
    /// One key for every splitter and one target: the equal-range case
    /// Algorithm 4's refinement exists for.
    AllOneKey,
    /// Equal targets on keys that descend.
    EqualTargetsDescending,
}

const LAYOUTS: [Accepted; 5] = [
    Accepted::Ascending,
    Accepted::AsGathered,
    Accepted::PastBothEnds,
    Accepted::AllOneKey,
    Accepted::EqualTargetsDescending,
];

/// The `s` splitters every rank agrees on for `how`, with the global
/// counts a finished search would have reduced for their keys.
fn accepted<K: Key>(
    comm: &Comm,
    sorted: &[K],
    how: Accepted,
    (lowest, highest): (K, K),
    s: usize,
) -> SplitterResult<K> {
    // One donated key per rank (an empty rank donates `lowest`).
    let donor = sorted.get(sorted.len() / 3).copied().unwrap_or(lowest);
    let mut keys: Vec<K> = comm.allgather(donor);
    keys.truncate(s);
    let n_total: u64 = comm.allreduce_sum(vec![sorted.len() as u64])[0];
    let w = s as u64 + 1;
    let mut targets: Vec<u64> = (1..w).map(|i| i * n_total / w).collect();
    match how {
        Accepted::Ascending => keys.sort_unstable(),
        Accepted::AsGathered => {}
        Accepted::PastBothEnds => {
            keys.sort_unstable();
            keys[0] = lowest;
            *keys.last_mut().expect("s >= 1") = highest;
        }
        Accepted::AllOneKey => {
            let one = keys[keys.len() / 2];
            keys.fill(one);
            targets.fill(n_total / 2);
        }
        Accepted::EqualTargetsDescending => {
            keys.sort_unstable_by(|a, b| b.cmp(a));
            targets.fill(n_total / 2);
        }
    }
    let mut bounds = Vec::with_capacity(2 * keys.len());
    for k in &keys {
        bounds.push(sorted.partition_point(|x| x < k) as u64);
        bounds.push(sorted.partition_point(|x| x <= k) as u64);
    }
    let bounds = comm.allreduce_sum(bounds);
    let splitters: Vec<SplitterInfo<K>> = keys
        .iter()
        .zip(&targets)
        .zip(bounds.chunks(2))
        .map(|((&key, &target), lu)| SplitterInfo {
            key,
            target,
            realized: target.clamp(lu[0], lu[1]),
            global_lower: lu[0],
            global_upper: lu[1],
        })
        .collect();
    SplitterResult {
        splitters: Arc::from(splitters),
        iterations: 0,
        probes: 0,
        degraded: false,
    }
}

/// The splitter counts a plan is checked at on `p` ranks: one (two
/// groups), `⌈√P⌉ − 1` (level 1 of the two-level sort) and `P − 1`.
fn splitter_counts(p: usize) -> Vec<usize> {
    let mut counts = vec![1, (p as f64).sqrt().ceil() as usize - 1, p - 1];
    counts.dedup();
    counts
}

/// Run every layout of accepted keys, at every splitter count, over
/// the blocks `block(rank)` on `p` ranks; the plan must agree with the
/// reference on cuts and on the virtual time both take from level
/// clocks.
fn check<K: Key + std::fmt::Debug>(
    p: usize,
    ends: (K, K),
    block: impl Fn(usize) -> Vec<K> + Send + Sync,
    cell: &str,
) {
    run(&ClusterConfig::small_cluster(p), |comm| {
        let mut local = block(comm.rank());
        local.sort_unstable();
        for (how, s) in LAYOUTS
            .into_iter()
            .flat_map(|how| splitter_counts(p).into_iter().map(move |s| (how, s)))
        {
            let found = accepted(comm, &local, how, ends, s);
            comm.barrier();
            let t0 = comm.now_ns();
            let plan = plan_exchange(comm, &local, &found);
            let took = comm.now_ns() - t0;
            comm.barrier();
            let t0 = comm.now_ns();
            let cuts = reference_cuts(comm, &local, &found.splitters);
            let reference_took = comm.now_ns() - t0;
            let at = format!("{cell}, {how:?}, s={s}, rank {} of {p}", comm.rank());
            assert_eq!(plan.cuts, cuts, "{at}");
            assert_eq!(took, reference_took, "virtual ns, {at}");
            // The segments are the cuts: with ascending accepted keys
            // segment d holds nothing outside (S_{d-1}, S_d) but copies
            // of the two splitter keys themselves.
            if matches!(how, Accepted::Ascending | Accepted::PastBothEnds) {
                for (d, seg) in plan.segments(&local).iter().enumerate() {
                    let above = d.checked_sub(1).map(|i| found.splitters[i].key);
                    let below = found.splitters.get(d).map(|s| s.key);
                    assert!(
                        seg.iter()
                            .all(|k| above.is_none_or(|a| a <= *k) && below.is_none_or(|b| *k <= b)),
                        "segment {d}, {at}"
                    );
                }
            }
        }
    });
}

const SIZES: [usize; 4] = [0, 1, 50, 100_000];
const RANKS: [usize; 3] = [2, 8, 64];

/// Every rank holds `n` keys of `dist` but rank 1, which holds none.
fn blocks(dist: Distribution, n: usize) -> impl Fn(usize) -> Vec<u64> + Send + Sync {
    move |rank| match rank {
        1 => Vec::new(),
        _ => dist.generate_u64(n, 0xD15 + rank as u64),
    }
}

#[test]
fn uniform_keys_every_shape() {
    for p in RANKS {
        for n in SIZES {
            // 64 × 100 000 keys would only repeat 8 × 100 000 slower.
            if p * n > 1_000_000 {
                continue;
            }
            let dist = Distribution::Uniform {
                lo: 10,
                hi: 1 << 40,
            };
            check(p, (0, u64::MAX), blocks(dist, n), &format!("uniform n={n}"));
        }
    }
}

#[test]
fn duplicate_heavy_keys() {
    let dists = [
        ("all-equal", Distribution::AllEqual { value: 7 }),
        ("few-distinct", Distribution::FewDistinct { k: 3 }),
        (
            "zipf",
            Distribution::Zipf {
                items: 1 << 10,
                s: 1.2,
            },
        ),
    ];
    for (name, dist) in dists {
        for p in RANKS {
            for n in [1, 50, 4_000] {
                check(p, (0, u64::MAX), blocks(dist, n), &format!("{name} n={n}"));
            }
        }
    }
}

#[test]
fn u32_keys() {
    let dist = Distribution::Zipf {
        items: 1 << 12,
        s: 0.9,
    };
    for p in [2, 8] {
        let narrow = move |rank: usize| -> Vec<u32> {
            blocks(dist, 3_000)(rank)
                .into_iter()
                .map(|k| k as u32)
                .collect()
        };
        check(p, (0, u32::MAX), narrow, "u32 zipf");
    }
}

/// What `histogram_sort_by` plans on: the keys of a block of records
/// sorted by key. The plan's segments then slice the records.
#[test]
fn record_key_view() {
    let p = 8;
    let dist = Distribution::FewDistinct { k: 5 };
    run(&ClusterConfig::small_cluster(p), |comm| {
        let mut records: Vec<(u64, u64)> = blocks(dist, 500)(comm.rank())
            .into_iter()
            .zip(0..)
            .collect();
        records.sort_by_key(|r| r.0);
        let view: Vec<u64> = records.iter().map(|r| r.0).collect();
        let found = accepted(comm, &view, Accepted::Ascending, (0, u64::MAX), p - 1);
        let plan = plan_exchange(comm, &view, &found);
        assert_eq!(plan.cuts, reference_cuts(comm, &view, &found.splitters));
        let sent: usize = plan.segments(&records).iter().map(|s| s.len()).sum();
        assert_eq!(sent, records.len());
    });
}

/// Segment `d` of a `w`-way plan lands on exactly one rank: the member
/// `q mod |group d|` of group `d` = ranks `⌊d·P/w⌋ .. ⌊(d+1)·P/w⌋`, for
/// sender `q`. At `w = P` that is rank `d`, the route of the flat sort.
#[test]
fn segments_land_on_their_group() {
    let dist = Distribution::FewDistinct { k: 5 };
    for p in [2, 8, 9, 64] {
        for s in splitter_counts(p) {
            run(&ClusterConfig::small_cluster(p), |comm| {
                let sorted = |q: usize| {
                    let mut b = blocks(dist, 60)(q);
                    b.sort_unstable();
                    b
                };
                let local = sorted(comm.rank());
                let found = accepted(comm, &local, Accepted::Ascending, (0, u64::MAX), s);
                let plan = plan_exchange(comm, &local, &found);
                let cuts: Vec<Vec<usize>> = comm.allgather(plan.cuts.clone());
                let received = exchange_data(comm, &local, &plan, AllToAllAlgo::OneFactor);
                let (me, w) = (comm.rank(), s + 1);
                for (q, got) in received.runs().enumerate() {
                    let theirs = sorted(q);
                    let segment = |d: usize| &theirs[cuts[q][d]..cuts[q][d + 1]];
                    let want: &[u64] = if w == p {
                        segment(me)
                    } else {
                        (0..w)
                            .find(|&d| {
                                let (first, end) = (d * p / w, (d + 1) * p / w);
                                me == first + q % (end - first)
                            })
                            .map_or(&[], segment)
                    };
                    assert_eq!(got, want, "p={p} s={s}: rank {me} from rank {q}");
                }
            });
        }
    }
}
