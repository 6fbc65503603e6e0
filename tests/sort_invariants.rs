//! Cross-crate integration: the paper's output invariants, checked on
//! randomized shapes with property-based testing.
//!
//! For every configuration the sorted output must be (a) a permutation
//! of the input multiset, (b) locally sorted, (c) globally ordered by
//! rank, and (d) sized according to the partitioning policy.

use std::collections::HashMap;

use dhs::core::{
    histogram_sort, histogram_sort_by, make_unique, strip_unique, MergeAlgo, Partitioning,
    SortConfig,
};
use dhs::runtime::{run, AllToAllAlgo, ClusterConfig, RunnerEngine};
use dhs::workloads::{rank_local_keys, Distribution, Layout};
use proptest::prelude::*;

/// Run the sort and verify all four invariants. Returns the per-rank
/// outputs.
fn sort_and_verify(
    p: usize,
    n_total: usize,
    dist: Distribution,
    layout: Layout,
    cfg: &SortConfig,
    seed: u64,
) -> Vec<Vec<u64>> {
    let cfg2 = cfg.clone();
    let out = run(&ClusterConfig::small_cluster(p), move |comm| {
        let mut local = rank_local_keys(dist, layout, n_total, p, comm.rank(), seed);
        let before = local.clone();
        histogram_sort(comm, &mut local, &cfg2);
        (before, local)
    });

    // (a) permutation of the input multiset.
    let mut in_counts: HashMap<u64, i64> = HashMap::new();
    let mut out_counts: HashMap<u64, i64> = HashMap::new();
    for ((before, after), _) in &out {
        for &k in before {
            *in_counts.entry(k).or_default() += 1;
        }
        for &k in after {
            *out_counts.entry(k).or_default() += 1;
        }
    }
    assert_eq!(
        in_counts, out_counts,
        "output must be a permutation of the input"
    );

    // (b) + (c) local sortedness and global rank ordering.
    let mut prev: Option<u64> = None;
    for ((_, after), _) in &out {
        for &k in after {
            if let Some(p) = prev {
                assert!(p <= k, "global order violated: {p} > {k}");
            }
            prev = Some(k);
        }
    }

    // (d) partition sizes.
    let sizes: Vec<usize> = out.iter().map(|((_, a), _)| a.len()).collect();
    match cfg.partitioning {
        Partitioning::Perfect if cfg.epsilon == 0.0 => {
            let expect = layout.sizes(n_total, p);
            assert_eq!(
                sizes, expect,
                "perfect partitioning must restore capacities"
            );
        }
        Partitioning::Balanced if cfg.epsilon == 0.0 => {
            let max = sizes.iter().max().copied().unwrap_or(0);
            let min = sizes.iter().min().copied().unwrap_or(0);
            assert!(max - min <= 1, "balanced partitioning: {sizes:?}");
        }
        Partitioning::Perfect => {
            // Each boundary may drift by at most the Definition 1 slack
            // from the capacity prefix, so each rank's size stays
            // within its own capacity ± 2·slack.
            let slack = ((n_total as f64) * cfg.epsilon / (2.0 * p as f64)).floor() as usize;
            let caps = layout.sizes(n_total, p);
            for (rank, (&got, &cap)) in sizes.iter().zip(&caps).enumerate() {
                assert!(
                    got.abs_diff(cap) <= 2 * slack,
                    "rank {rank}: size {got} vs capacity {cap} exceeds 2*slack {slack}"
                );
            }
        }
        Partitioning::Balanced => {
            let cap = ((n_total as f64) * (1.0 + cfg.epsilon) / p as f64).ceil() as usize + 1;
            assert!(
                sizes.iter().all(|&s| s <= cap),
                "epsilon bound violated: {sizes:?}"
            );
        }
    }
    out.into_iter().map(|((_, after), _)| after).collect()
}

fn sizes_of(outputs: &[Vec<u64>]) -> Vec<usize> {
    outputs.iter().map(Vec::len).collect()
}

fn arb_distribution() -> impl Strategy<Value = Distribution> {
    prop_oneof![
        Just(Distribution::paper_uniform()),
        Just(Distribution::Uniform {
            lo: 0,
            hi: u64::MAX
        }),
        Just(Distribution::Normal {
            mean: 0.0,
            std_dev: 1.0
        }),
        Just(Distribution::Zipf { items: 64, s: 1.2 }),
        Just(Distribution::NearlySorted {
            perturb_permille: 20
        }),
        Just(Distribution::FewDistinct { k: 3 }),
        Just(Distribution::AllEqual { value: 42 }),
    ]
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::Balanced),
        Just(Layout::SparseFront {
            empty_permille: 400
        }),
        Just(Layout::Ramp { ratio: 6 }),
        (0usize..4).prop_map(|h| Layout::SingleRank { holder: h }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn histogram_sort_invariants_hold(
        p in 2usize..9,
        n_total in 0usize..4000,
        dist in arb_distribution(),
        layout in arb_layout(),
        seed in 0u64..1_000_000,
        eps_pm in 0u32..3,
    ) {
        // SingleRank holder index must be valid for this p.
        let layout = match layout {
            Layout::SingleRank { holder } => Layout::SingleRank { holder: holder % p },
            other => other,
        };
        let cfg = SortConfig { epsilon: [0.0, 0.01, 0.1][eps_pm as usize], ..SortConfig::default() };
        sort_and_verify(p, n_total, dist, layout, &cfg, seed);
    }

    #[test]
    fn balanced_partitioning_invariants_hold(
        p in 2usize..9,
        n_total in 0usize..3000,
        dist in arb_distribution(),
        seed in 0u64..1_000_000,
    ) {
        let cfg = SortConfig { partitioning: Partitioning::Balanced, ..SortConfig::default() };
        let sizes = sizes_of(&sort_and_verify(p, n_total, dist, Layout::Balanced, &cfg, seed));
        prop_assert_eq!(sizes.iter().sum::<usize>(), n_total);
    }

    #[test]
    fn unique_keys_sort_like_plain_keys(
        p in 2usize..7,
        n_total in 1usize..2000,
        seed in 0u64..1_000_000,
    ) {
        // Heavy duplicates: the §V-A transform's motivating case. It
        // is not a sort option; `UniqueKey` is an ordinary `Key`.
        let dist = Distribution::FewDistinct { k: 4 };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut plain = rank_local_keys(dist, Layout::Balanced, n_total, p, comm.rank(), seed);
            let mut tagged = make_unique(&plain, comm.rank());
            histogram_sort(comm, &mut plain, &SortConfig::default());
            histogram_sort(comm, &mut tagged, &SortConfig::default());
            (plain, strip_unique(tagged))
        });
        for ((plain, stripped), _) in out {
            prop_assert_eq!(plain, stripped);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn two_level_sort_invariants_hold(
        p in 4usize..17,
        n_total in 0usize..3000,
        groups in 0usize..5,
        dist in arb_distribution(),
        seed in 0u64..1_000_000,
        balanced: bool,
        capped: bool,
        probes in 1usize..4,
    ) {
        let partitioning = if balanced { Partitioning::Balanced } else { Partitioning::Perfect };
        let cfg = SortConfig {
            partitioning,
            max_splitter_iterations: capped.then_some(1),
            probes_per_round: probes,
            ..SortConfig::default()
        };
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = rank_local_keys(dist, Layout::Balanced, n_total, p, comm.rank(), seed);
            let before = local.clone();
            dhs::core::histogram_sort_two_level(comm, &mut local, &cfg, groups);
            (before, local)
        });
        let mut input: Vec<u64> = out.iter().flat_map(|((b, _), _)| b.clone()).collect();
        let output: Vec<u64> = out.iter().flat_map(|((_, a), _)| a.clone()).collect();
        input.sort_unstable();
        prop_assert!(output.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(&input, &{ let mut o = output.clone(); o.sort_unstable(); o });
        // A capped search degrades the boundaries, never the order.
        if capped {
            return;
        }
        for (rank, ((before, after), _)) in out.iter().enumerate() {
            if balanced {
                let want = n_total * (rank + 1) / p - n_total * rank / p;
                prop_assert_eq!(after.len(), want, "balanced partitioning, rank {}", rank);
            } else {
                prop_assert_eq!(before.len(), after.len(), "perfect partitioning");
            }
        }
    }

    #[test]
    fn radix_local_sort_agrees(
        p in 2usize..8,
        n_total in 0usize..2000,
        dist in arb_distribution(),
        seed in 0u64..1_000_000,
    ) {
        let radix = SortConfig { local_sort: dhs::core::LocalSort::Radix, ..SortConfig::default() };
        let a = sort_and_verify(p, n_total, dist, Layout::Balanced, &SortConfig::default(), seed);
        let b = sort_and_verify(p, n_total, dist, Layout::Balanced, &radix, seed);
        prop_assert_eq!(a, b);
    }
}

/// Both merge charge models only price the merge step: each one meets
/// the invariants, and both give the same output, at one thread and at
/// four.
#[test]
fn all_merge_engines_integrate() {
    let mut first: Option<Vec<Vec<u64>>> = None;
    for merge in [MergeAlgo::Resort, MergeAlgo::KWay] {
        for threads in [1, 4] {
            let cfg = SortConfig {
                merge,
                threads_per_rank: threads,
                ..SortConfig::default()
            };
            let out = sort_and_verify(
                6,
                3000,
                Distribution::paper_uniform(),
                Layout::Balanced,
                &cfg,
                5,
            );
            let expect = first.get_or_insert_with(|| out.clone());
            assert_eq!(&out, expect, "{merge:?} at {threads} threads");
        }
    }
}

/// `Partitioning::Balanced` over a skewed layout makes every rank's
/// output size differ from its input size, so the run merge gets a
/// scratch (the dead send block) that is shorter than its receive
/// buffer on the ranks that started light, longer on the ones that
/// started heavy, and empty on the ones that held nothing.
#[test]
fn balanced_partitioning_over_skewed_layouts_resizes_the_merge_scratch() {
    for layout in [
        Layout::Ramp { ratio: 6 },
        Layout::SparseFront {
            empty_permille: 500,
        },
        Layout::SingleRank { holder: 2 },
    ] {
        for threads in [1, 4] {
            let cfg = SortConfig {
                partitioning: Partitioning::Balanced,
                threads_per_rank: threads,
                ..SortConfig::default()
            };
            let (p, n_total) = (6, 12_000);
            let outputs =
                sort_and_verify(p, n_total, Distribution::paper_uniform(), layout, &cfg, 3);
            let sizes = sizes_of(&outputs);
            assert_eq!(sizes.iter().sum::<usize>(), n_total);
            assert_ne!(sizes, layout.sizes(n_total, p), "{layout:?} must be skewed");
        }
    }
}

#[test]
fn large_rank_count_smoke() {
    // 64 ranks on the Table I topology, duplicates and sparseness.
    let cfg = SortConfig::default();
    sort_and_verify(
        64,
        64 * 500,
        Distribution::Zipf {
            items: 1000,
            s: 1.1,
        },
        Layout::SparseFront {
            empty_permille: 250,
        },
        &cfg,
        11,
    );
}

/// Sort records built by `make(key, origin rank, origin index)` with
/// `histogram_sort_by` and require the concatenated output to equal
/// the **stable** sort of the concatenated input, element for element:
/// equal keys keep (source rank, source index) order across the whole
/// machine, whichever kernel each local phase ran. Sorting the output
/// once more (every block presorted: one run, which the kernel's sweep
/// must recognise) changes nothing.
fn records_sort_globally_stable<T>(
    cluster: &ClusterConfig,
    dist: Distribution,
    layout: Layout,
    cfg: &SortConfig,
    make: fn(u64, usize, usize) -> T,
    key: fn(&T) -> u64,
) where
    T: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
{
    let (p, n_total) = (cluster.ranks(), cluster.ranks() * 1500);
    let cfg2 = cfg.clone();
    let out = run(cluster, move |comm| {
        let before: Vec<T> = rank_local_keys(dist, layout, n_total, p, comm.rank(), 23)
            .into_iter()
            .enumerate()
            .map(|(i, k)| make(k, comm.rank(), i))
            .collect();
        let mut local = before.clone();
        histogram_sort_by(comm, &mut local, key, &cfg2);
        let mut again = local.clone();
        histogram_sort_by(comm, &mut again, key, &cfg2);
        assert!(again == local, "re-sorting a sorted vector moved records");
        (before, local)
    });
    let mut expect: Vec<T> = out.iter().flat_map(|((b, _), _)| b.clone()).collect();
    expect.sort_by_key(key);
    let got: Vec<T> = out.iter().flat_map(|((_, a), _)| a.clone()).collect();
    let cell = format!("{dist:?} {layout:?} {cfg:?}");
    assert!(got == expect, "not the global stable sort: {cell}");
    let sizes: Vec<usize> = out.iter().map(|((_, a), _)| a.len()).collect();
    assert_eq!(sizes, layout.sizes(n_total, p), "{cell}");
}

/// Both arms of the record hooks' kernel rule — narrow-span keys take
/// the LSD kernel in the local sort and the merge, full-width keys and
/// heap-owning records the stable comparison sort — through the
/// borrowed exchange, for every thread budget, worker count and
/// schedule.
#[test]
fn record_sort_equals_the_global_stable_sort() {
    let dists = [
        Distribution::Zipf {
            items: 1 << 16,
            s: 1.2,
        },
        Distribution::FewDistinct { k: 3 },
        Distribution::AllEqual { value: 42 },
        Distribution::Uniform {
            lo: 0,
            hi: u64::MAX,
        },
    ];
    let layouts = [
        Layout::Balanced,
        Layout::SparseFront {
            empty_permille: 500,
        },
    ];
    for workers in [6, 0, 1] {
        let cluster = ClusterConfig::small_cluster(6).with_engine(RunnerEngine { workers });
        for algo in [AllToAllAlgo::OneFactor, AllToAllAlgo::StagedKWay { k: 4 }] {
            for threads in [1, 2, 4] {
                let cfg = SortConfig {
                    threads_per_rank: threads,
                    exchange_algo: algo,
                    ..SortConfig::default()
                };
                for dist in dists {
                    for layout in layouts {
                        records_sort_globally_stable(
                            &cluster,
                            dist,
                            layout,
                            &cfg,
                            |k, rank, i| (k, rank as u32, i as u32),
                            |r| r.0,
                        );
                    }
                }
                // `needs_drop`: every move is a real clone.
                records_sort_globally_stable(
                    &cluster,
                    Distribution::FewDistinct { k: 3 },
                    layouts[1],
                    &cfg,
                    |k, rank, i| (k, format!("{rank}/{i}")),
                    |r| r.0,
                );
            }
        }
    }
}
