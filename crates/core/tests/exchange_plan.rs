//! `plan_exchange` finds every splitter's local `(lower, upper)`
//! by exponential search from the previous splitter's cut, and scans
//! the equal-key contingents only of the splitters realized strictly
//! inside their equal-key range. Neither may change a cut: the cuts
//! have to equal those of Algorithm 4 written here with two
//! independent full-width `partition_point`s per splitter and one
//! exclusive scan over every splitter, and the virtual time charged for
//! them that of the same plan scanning only the split splitters — for
//! duplicate-heavy keys, empty ranks, splitter keys outside the local
//! range, accepted keys that do not ascend, split splitters beside
//! splitters at range ends, an iteration-capped search, and any
//! splitter count from one to `P − 1`. `exchange_data` must then
//! deliver segment `d` of a `w`-way plan to one member of the `d`-th of
//! `w` rank groups, and at `w = P` to rank `d`, for keys and records
//! under every all-to-all schedule. The histogram sort itself plans
//! without `plan_exchange`: it cuts at the bounds its search located,
//! and those cuts must be the same full-width Algorithm 4's — on
//! duplicates, an empty rank, split splitters beside unsplit ones, a
//! capped search and after the owner finish — with no binary search in
//! its `prepare`.

use std::sync::Arc;

use dhs_core::exchange::{exchange_data, plan_exchange, ExchangePlan};
use dhs_core::splitter::{find_splitters, perfect_targets, SplitterOptions};
use dhs_core::{histogram_sort, histogram_sort_by, Key, SortConfig, SplitterInfo, SplitterResult};
use dhs_runtime::{launch, run, AllToAllAlgo, ClusterConfig, Comm, TraceConfig, Work};
use dhs_workloads::Distribution;

/// Algorithm 4 with plain binary searches, against the runtime's public
/// surface only: the plan's charges and one exclusive scan over every
/// splitter's contingent, as the paper writes it. The cut reference.
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

/// Whether Algorithm 4 must scan splitter `info`'s contingents: its
/// realized boundary lies strictly inside its equal-key range.
fn is_split<K: Key>(info: &SplitterInfo<K>) -> bool {
    info.global_lower < info.realized && info.realized < info.global_upper
}

/// Algorithm 4 as the plan under test runs it, written out here: the
/// same charges, then one exclusive scan over the contingents of the
/// split splitters only, skipped when there are none. A splitter at
/// an end of its range takes nothing (`realized == global_lower`) or
/// the whole contingent (`realized == global_upper`).
fn narrowed_cuts<K: Key>(comm: &Comm, sorted: &[K], splitters: &[SplitterInfo<K>]) -> Vec<usize> {
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
    let split: Vec<usize> = (0..splitters.len())
        .filter(|&i| is_split(&splitters[i]))
        .collect();
    let scanned: Vec<u64> = if split.is_empty() {
        Vec::new()
    } else {
        let mine: Vec<u64> = split.iter().map(|&i| contingents[i]).collect();
        comm.exscan_sum_vec_shared(&mine).to_vec()
    };
    comm.charge(Work::Compares(s));
    let mut cuts = vec![0usize];
    for (i, info) in splitters.iter().enumerate() {
        let take = match split.iter().position(|&j| j == i) {
            Some(k) => (info.realized - info.global_lower)
                .saturating_sub(scanned[k])
                .min(contingents[i]),
            None if info.realized == info.global_lower => 0,
            None => contingents[i],
        };
        let cut = (lowers[i] + take) as usize;
        cuts.push(cut.max(*cuts.last().expect("starts non-empty")));
    }
    let end = sorted.len().max(*cuts.last().expect("starts non-empty"));
    cuts.push(end);
    cuts
}

/// Run `f` between two barriers and return its result, the virtual
/// time it took and the collectives it issued on this rank.
fn measured<R>(comm: &Comm, f: impl FnOnce() -> R) -> (R, u64, u64) {
    comm.barrier();
    let (t0, c0) = (comm.now_ns(), comm.report().counters.collectives);
    let out = f();
    let (t1, c1) = (comm.now_ns(), comm.report().counters.collectives);
    (out, t1 - t0, c1 - c0)
}

/// The plan must cut where full-width Algorithm 4 cuts, take the
/// virtual time of [`narrowed_cuts`], and issue one collective fewer
/// than the full-width reference exactly when no splitter is split.
fn assert_plan<K: Key>(
    comm: &Comm,
    local: &[K],
    found: &SplitterResult<K>,
    at: &str,
) -> ExchangePlan {
    let (plan, took, issued) = measured(comm, || plan_exchange(comm, local, found));
    let (narrowed, narrowed_took, _) =
        measured(comm, || narrowed_cuts(comm, local, &found.splitters));
    let (cuts, _, full_issued) = measured(comm, || reference_cuts(comm, local, &found.splitters));
    assert_eq!(plan.cuts, cuts, "{at}");
    assert_eq!(narrowed, cuts, "narrowed reference, {at}");
    assert_eq!(took, narrowed_took, "virtual ns, {at}");
    let none_split = !found.splitters.iter().any(is_split);
    assert_eq!(issued + none_split as u64, full_issued, "collectives, {at}");
    plan
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
    /// Ascending, realized in turn at the lower end of the key's
    /// equal-key range, at its upper end and in its middle: split
    /// splitters beside unsplit ones.
    MixedEnds,
}

const LAYOUTS: [Accepted; 6] = [
    Accepted::Ascending,
    Accepted::AsGathered,
    Accepted::PastBothEnds,
    Accepted::AllOneKey,
    Accepted::EqualTargetsDescending,
    Accepted::MixedEnds,
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
        Accepted::Ascending | Accepted::MixedEnds => keys.sort_unstable(),
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
        .enumerate()
        .map(|(i, ((&key, &target), lu))| {
            let realized = match how {
                Accepted::MixedEnds => [lu[0], lu[1], lu[0] + (lu[1] - lu[0]) / 2][i % 3],
                _ => target.clamp(lu[0], lu[1]),
            };
            SplitterInfo {
                key,
                target,
                realized,
                global_lower: lu[0],
                global_upper: lu[1],
            }
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
/// groups), `⌈√P⌉ − 1` (a group cut of width `s < P − 1` between those
/// two) and `P − 1`.
fn splitter_counts(p: usize) -> Vec<usize> {
    let mut counts = vec![1, (p as f64).sqrt().ceil() as usize - 1, p - 1];
    counts.dedup();
    counts
}

/// Run every layout of accepted keys, at every splitter count, over
/// the blocks `block(rank)` on `p` ranks ([`assert_plan`] on each),
/// then the splitters of a search capped at one round.
fn check<K: Key + std::fmt::Debug>(
    p: usize,
    ends: (K, K),
    block: impl Fn(usize) -> Vec<K> + Send + Sync,
    cell: &str,
) -> bool {
    let out = run(&ClusterConfig::small_cluster(p), |comm| {
        let mut local = block(comm.rank());
        local.sort_unstable();
        for (how, s) in LAYOUTS
            .into_iter()
            .flat_map(|how| splitter_counts(p).into_iter().map(move |s| (how, s)))
        {
            let found = accepted(comm, &local, how, ends, s);
            let at = format!("{cell}, {how:?}, s={s}, rank {} of {p}", comm.rank());
            let plan = assert_plan(comm, &local, &found, &at);
            // The segments are the cuts: with ascending accepted keys
            // segment d holds nothing outside (S_{d-1}, S_d) but copies
            // of the two splitter keys themselves.
            if matches!(
                how,
                Accepted::Ascending | Accepted::PastBothEnds | Accepted::MixedEnds
            ) {
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
        // A degraded search: capped at one round, its splitters freeze
        // at the nearest probe, realized anywhere in that key's range.
        let n_total: u64 = comm.allreduce_sum(vec![local.len() as u64])[0];
        let targets: Vec<u64> = (1..p as u64).map(|i| i * n_total / p as u64).collect();
        let opts = SplitterOptions {
            max_iterations: Some(1),
            ..SplitterOptions::default()
        };
        let found = find_splitters(comm, &local, &targets, 0, opts);
        let at = format!("{cell}, one-round search, rank {} of {p}", comm.rank());
        assert_plan(comm, &local, &found, &at);
        found.degraded
    });
    out[0].0
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
    let mut degraded = 0;
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
            degraded += check(p, (0, u64::MAX), blocks(dist, n), &format!("uniform n={n}")) as u32;
        }
    }
    assert!(degraded > 0, "some one-round search must stop degraded");
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
        let plan = assert_plan(comm, &view, &found, "records");
        let sent: usize = plan.segments(&records).iter().map(|s| s.len()).sum();
        assert_eq!(sent, records.len());
    });
}

/// The schedules every routing check runs under: one rendezvous each,
/// so all must deliver the same bytes.
const SCHEDULES: [AllToAllAlgo; 4] = [
    AllToAllAlgo::OneFactor,
    AllToAllAlgo::Bruck,
    AllToAllAlgo::StagedKWay { k: 3 },
    AllToAllAlgo::Priced,
];

/// What rank `me` must receive from sender `q` of a `w`-way plan on
/// `p` ranks: segment `d` of `q`'s block (cut at `cuts`) where `me` is
/// member `q mod |group d|` of group `d` = ranks `⌊d·P/w⌋ ..
/// ⌊(d+1)·P/w⌋`, nothing otherwise. At `w = P` that is segment `me`.
fn routed<'a, T>(block: &'a [T], cuts: &[usize], q: usize, me: usize, p: usize) -> &'a [T] {
    let w = cuts.len() - 1;
    let segment = |d: usize| &block[cuts[d]..cuts[d + 1]];
    if w == p {
        return segment(me);
    }
    (0..w)
        .find(|&d| {
            let (first, end) = (d * p / w, (d + 1) * p / w);
            me == first + q % (end - first)
        })
        .map_or(&[], segment)
}

/// Segment `d` of a `w`-way plan lands on exactly one rank: the member
/// `q mod |group d|` of group `d` for sender `q`, at `w = P` rank `d`,
/// the route of the flat sort. Keys and 16-byte records go through the
/// same block-and-cuts view, under every schedule.
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
                // Records carry their sender and position past the key.
                let records = |q: usize| -> Vec<(u64, u64)> {
                    let tag = |i: usize| ((q as u64) << 32) | i as u64;
                    sorted(q)
                        .into_iter()
                        .enumerate()
                        .map(|(i, k)| (k, tag(i)))
                        .collect()
                };
                let me = comm.rank();
                let (local, local_records) = (sorted(me), records(me));
                let found = accepted(comm, &local, Accepted::Ascending, (0, u64::MAX), s);
                let plan = plan_exchange(comm, &local, &found);
                assert_eq!(plan.cuts.len(), s + 2);
                let cuts: Vec<Vec<usize>> = comm.allgather(plan.cuts.clone());
                for algo in SCHEDULES {
                    let received = exchange_data(comm, &local, &plan, algo);
                    for (q, got) in received.runs().enumerate() {
                        let want = routed(&sorted(q), &cuts[q], q, me, p).to_vec();
                        assert_eq!(got, want, "p={p} s={s} {algo:?}: keys to {me} from {q}");
                    }
                    let received = exchange_data(comm, &local_records, &plan, algo);
                    for (q, got) in received.runs().enumerate() {
                        let want = routed(&records(q), &cuts[q], q, me, p).to_vec();
                        assert_eq!(got, want, "p={p} s={s} {algo:?}: records to {me} from {q}");
                    }
                }
            });
        }
    }
}

/// On distinct keys every realized boundary sits at an end of its
/// one-key range, so the plan runs no scan: no `"exscan"` span on any
/// rank, where the full-width reference records one.
#[test]
fn distinct_keys_issue_no_scan() {
    let p = 16;
    let cfg = ClusterConfig::small_cluster(p).with_trace(TraceConfig::On);
    let record = launch(&cfg, |comm| {
        let local: Vec<u64> = (0..500).map(|i| (i * p + comm.rank()) as u64).collect();
        let targets: Vec<u64> = (1..p as u64).map(|i| i * 500).collect();
        let found = find_splitters(comm, &local, &targets, 0, SplitterOptions::default());
        assert!(!found.splitters.iter().any(is_split));
        let (plan, _, issued) = measured(comm, || plan_exchange(comm, &local, &found));
        assert_eq!(issued, 0, "rank {}", comm.rank());
        let (cuts, _, full_issued) =
            measured(comm, || reference_cuts(comm, &local, &found.splitters));
        assert_eq!((plan.cuts, full_issued), (cuts, 1), "rank {}", comm.rank());
    })
    .expect("an inert fault plan is valid");
    assert_eq!(record.failures().count(), 0);
    for rank in &record.trace.ranks {
        let scans = rank.spans.iter().filter(|s| s.name == "exscan").count();
        assert_eq!(scans, 1, "rank {}: only the reference scans", rank.rank);
    }
}

/// Run the histogram sort over 8-byte records tagged with their source
/// rank and hold the cuts it sent by — read back from where every
/// source's records landed — to [`reference_cuts`] over the splitters
/// of the same search, run beside it. Returns whether some splitter
/// was split, some sat at an end of its range, the search stopped
/// degraded, and the sort's owner finish fired on every rank.
fn sort_cuts_are_the_reference(
    cluster: ClusterConfig,
    block: impl Fn(usize) -> Vec<u64> + Send + Sync,
    cfg: SortConfig,
    cell: &str,
) -> (bool, bool, bool, bool) {
    let p = cluster.ranks();
    let record = launch(&cluster.with_trace(TraceConfig::On), |comm| {
        let me = comm.rank();
        let mut keys = block(me);
        keys.sort_unstable();
        // The sort's own search: perfect targets, ε = 0, the config's cap.
        let caps: Vec<usize> = comm.allgather(keys.len());
        let opts = SplitterOptions {
            max_iterations: cfg.max_splitter_iterations,
            ..SplitterOptions::default()
        };
        let found = find_splitters(comm, &keys, &perfect_targets(&caps), 0, opts);
        let cuts = reference_cuts(comm, &keys, &found.splitters);
        let mut records: Vec<(u64, u32)> = keys.iter().map(|&k| (k, me as u32)).collect();
        let stats = histogram_sort_by(comm, &mut records, |r| r.0, &cfg);
        assert_eq!(
            stats.iterations, found.iterations,
            "{cell}: the same search"
        );
        let mut landed = vec![0usize; p];
        for r in &records {
            landed[r.1 as usize] += 1;
        }
        let split = found.splitters.iter().any(is_split);
        let at_end = found.splitters.iter().any(|s| !is_split(s));
        (cuts, landed, [split, at_end, found.degraded])
    })
    .expect("an inert fault plan is valid");
    let finish = record
        .trace
        .ranks
        .iter()
        .all(|r| r.spans.iter().filter(|s| s.name == "owner_finish").count() == 2);
    let out = record.into_result().expect("no rank fails");
    for (q, ((cuts, ..), _)) in out.iter().enumerate() {
        let mut sent = vec![0];
        for ((_, landed, ..), _) in &out {
            sent.push(sent.last().expect("starts non-empty") + landed[q]);
        }
        assert_eq!(&sent, cuts, "{cell}: the cuts of rank {q}");
    }
    let any = |k: usize| out.iter().any(|((.., flags), _)| flags[k]);
    (any(0), any(1), any(2), finish)
}

/// The histogram sort cuts from the bounds its search located, with
/// Algorithm 4's scan alone; those cuts are full-width Algorithm 4's
/// on duplicate-heavy keys (split splitters beside splitters at the
/// ends of their ranges), an empty rank, and a search capped at one
/// round.
#[test]
fn the_sort_cuts_where_algorithm_4_cuts() {
    let dists = [
        (
            "uniform",
            Distribution::Uniform {
                lo: 10,
                hi: 1 << 40,
            },
        ),
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
    let (mut mixed, mut degraded) = (false, false);
    for (name, dist) in dists {
        for p in [2, 8, 64] {
            for cap in [None, Some(1)] {
                let cfg = SortConfig {
                    max_splitter_iterations: cap,
                    ..SortConfig::default()
                };
                let cell = format!("{name} p={p} cap={cap:?}");
                let cluster = ClusterConfig::small_cluster(p);
                let (split, at_end, capped, _) =
                    sort_cuts_are_the_reference(cluster, blocks(dist, 300), cfg, &cell);
                mixed |= split && at_end;
                degraded |= capped;
            }
        }
    }
    assert!(mixed, "some search splits one splitter and not another");
    assert!(degraded, "some one-round search stops degraded");
}

/// Where the owner finish settles the splitters (p = 256, 16 keys per
/// rank), the keys it settles are located inside their index brackets
/// and the cuts are still full-width Algorithm 4's.
#[test]
fn the_sort_cuts_where_algorithm_4_cuts_after_the_owner_finish() {
    let dist = Distribution::Uniform {
        lo: 0,
        hi: u64::MAX,
    };
    for (name, dist) in [
        ("uniform", dist),
        ("few-distinct", Distribution::FewDistinct { k: 3 }),
    ] {
        let cluster = ClusterConfig::supermuc_phase2(256);
        let block = move |rank: usize| dist.generate_u64(16, 0xF1 + rank as u64);
        let (.., finish) = sort_cuts_are_the_reference(cluster, block, SortConfig::default(), name);
        if name == "uniform" {
            assert!(finish, "the owner finish fires in the sort and beside it");
        }
    }
}

/// The histogram sort's `prepare` after its search is Algorithm 4's
/// scan alone: on distinct keys no splitter is split, so the span is
/// the scan's `s` compares and holds no binary search.
#[test]
fn the_sort_plans_without_searching() {
    let p = 16;
    let cfg = ClusterConfig::small_cluster(p).with_trace(TraceConfig::On);
    let record = launch(&cfg, |comm| {
        let mut local: Vec<u64> = (0..500).map(|i| (i * p + comm.rank()) as u64).collect();
        histogram_sort(comm, &mut local, &SortConfig::default());
        comm.cost_model().work_ns(Work::Compares(p as u64 - 1))
    })
    .expect("an inert fault plan is valid");
    let scan = record.ranks[0].as_ref().expect("rank 0 completes").0;
    for rank in &record.trace.ranks {
        let top: Vec<_> = rank.spans.iter().filter(|s| s.depth == 0).collect();
        let after = top
            .iter()
            .position(|s| s.name == "histogram")
            .expect("a search");
        let plan = top[after + 1];
        assert_eq!(plan.name, "prepare", "rank {}", rank.rank);
        assert_eq!(plan.end_ns - plan.start_ns, scan, "rank {}", rank.rank);
    }
}
