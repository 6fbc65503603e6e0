//! The epoch service's contract: warm-starting is an *optimization
//! surface only*. For every stream, every policy, every worker count
//! and every thread budget, epoch outputs are byte-identical to a
//! cold-start sort of the same batch — and on stationary streams the
//! seeded-brackets policy collapses splitter search to at most one
//! histogram round from epoch 3 onward.

use dhs_core::{histogram_sort, EpochSorter, RecoveryPolicy, SortConfig, SortOutcome, WarmStart};
use dhs_runtime::{launch, run, ClusterConfig, FaultPlan, RunnerEngine};
use dhs_workloads::{epoch_rank_keys, Distribution, EpochProfile, Layout};
use proptest::prelude::*;

fn policy(ws: WarmStart) -> SortConfig {
    SortConfig {
        warm_start: ws,
        ..SortConfig::default()
    }
}

fn profiles() -> Vec<EpochProfile> {
    vec![
        EpochProfile::Stationary {
            dist: Distribution::paper_uniform(),
        },
        EpochProfile::ShiftingZipf {
            items: 1 << 10,
            s: 1.2,
            shift: 64,
        },
        EpochProfile::Churn {
            dist: Distribution::paper_uniform(),
            keep_permille: 900,
        },
    ]
}

/// Run `epochs` epochs of `profile` under `ws` and return, per rank,
/// the per-epoch `(output, rounds, makespan_ns)` triples.
fn run_stream(
    cluster: &ClusterConfig,
    profile: EpochProfile,
    ws: WarmStart,
    p: usize,
    n_total: usize,
    epochs: u64,
    seed: u64,
) -> Vec<Vec<(Vec<u64>, u32, u64)>> {
    let cfg = policy(ws);
    run(cluster, move |comm| {
        let mut svc: EpochSorter<u64> = EpochSorter::new(comm, cfg.clone());
        (0..epochs)
            .map(|e| {
                let mut batch =
                    epoch_rank_keys(profile, Layout::Balanced, n_total, p, comm.rank(), seed, e);
                let stats = svc.sort_epoch(&mut batch);
                (batch, stats.sort.iterations, stats.makespan_ns)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .map(|(v, _)| v)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Seeded epochs are byte-identical to a cold one-shot sort of the
    /// same batch, for every drift profile.
    #[test]
    fn seeded_epochs_match_cold_byte_for_byte(
        p in 2usize..9,
        seed in 0u64..1000,
        prof_ix in 0usize..3,
    ) {
        let profile = profiles()[prof_ix];
        let n_total = 64 * p;
        let epochs = 4u64;
        let cluster = ClusterConfig::small_cluster(p);
        let ws = WarmStart::SeededWithBrackets;
        let warm = run_stream(&cluster, profile, ws, p, n_total, epochs, seed);
        let cold = run_stream(&cluster, profile, WarmStart::Cold, p, n_total, epochs, seed);
        for rank in 0..p {
            for e in 0..epochs as usize {
                prop_assert_eq!(
                    &warm[rank][e].0, &cold[rank][e].0,
                    "rank {} epoch {}: warm output differs from cold", rank, e
                );
            }
        }
    }

    /// The whole multi-epoch stream is deterministic across the
    /// engine's worker counts (one rank at a time, the default, a slot
    /// per rank) and intra-rank thread budgets (t ∈ {1, 4}): outputs,
    /// rounds, and virtual makespans all agree byte-for-byte.
    #[test]
    fn epoch_streams_deterministic_across_engines_and_threads(
        seed in 0u64..1000,
        prof_ix in 0usize..3,
    ) {
        let p = 4;
        let profile = profiles()[prof_ix];
        let n_total = 256 * p;
        let epochs = 3u64;
        let mut reference = None;
        for workers in [p, 0, 1] {
            for threads in [1usize, 4] {
                let cluster =
                    ClusterConfig::small_cluster(p).with_engine(RunnerEngine { workers });
                let cfg = SortConfig { warm_start: WarmStart::SeededWithBrackets, threads_per_rank: threads, ..SortConfig::default() };
                let out = run(&cluster, move |comm| {
                    let mut svc: EpochSorter<u64> = EpochSorter::new(comm, cfg.clone());
                    (0..epochs)
                        .map(|e| {
                            let mut batch = epoch_rank_keys(
                                profile, Layout::Balanced, n_total, p, comm.rank(), seed, e,
                            );
                            let stats = svc.sort_epoch(&mut batch);
                            (batch, stats.sort.iterations, stats.makespan_ns)
                        })
                        .collect::<Vec<_>>()
                });
                let got: Vec<_> = out.into_iter().map(|(v, _)| v).collect();
                match &reference {
                    None => reference = Some(got),
                    Some(want) => prop_assert_eq!(
                        want, &got,
                        "{} workers x t={} diverged from {} workers x t=1", workers, threads, p
                    ),
                }
            }
        }
    }
}

/// The headline: a stationary stream under seeded-brackets needs at
/// most one histogram round from epoch 3 (index 2) onward, at several
/// world sizes.
#[test]
fn stationary_stream_collapses_to_one_round() {
    for p in [4usize, 8, 16] {
        let n_total = 512 * p;
        let cluster = ClusterConfig::small_cluster(p);
        let profile = EpochProfile::Stationary {
            dist: Distribution::paper_uniform(),
        };
        let out = run_stream(
            &cluster,
            profile,
            WarmStart::SeededWithBrackets,
            p,
            n_total,
            5,
            7,
        );
        let rounds: Vec<u32> = out[0].iter().map(|(_, r, _)| *r).collect();
        assert!(
            rounds.iter().skip(2).all(|&r| r <= 1),
            "p={p}: rounds per epoch {rounds:?} (expected <= 1 from epoch 3 on)"
        );
        // Cold never collapses at these sizes — the warm start is
        // doing the work, not the data.
        let cold = run_stream(&cluster, profile, WarmStart::Cold, p, n_total, 5, 7);
        let cold_rounds: Vec<u32> = cold[0].iter().map(|(_, r, _)| *r).collect();
        assert!(
            cold_rounds.iter().all(|&r| r > 1),
            "p={p}: cold rounds {cold_rounds:?} should not collapse"
        );
    }
}

/// Warm-start composes with shrink-and-recover: a rank crash in the
/// middle of the stream shrinks the world, the epoch that lost the
/// rank reports `Recovered`, and later epochs keep sorting (and keep
/// their outputs equal to a cold sort on the survivors).
#[test]
fn warm_start_survives_shrink_recovery() {
    let p = 8;
    let n_per = 2000;
    let victim = 3;
    let epochs = 4u64;
    let seed = 11;
    let profile = EpochProfile::Stationary {
        dist: Distribution::paper_uniform(),
    };
    // The victim dies mid-sort in the first epoch; the survivors
    // shrink once and run the remaining epochs at p - 1.
    let cluster =
        ClusterConfig::small_cluster(p).with_fault(FaultPlan::default().with_crash(victim, 50_000));
    let cfg = SortConfig {
        warm_start: WarmStart::SeededWithBrackets,
        recovery: RecoveryPolicy::Shrink,
        ..SortConfig::default()
    };
    let out = launch(&cluster, move |comm| {
        let mut svc: EpochSorter<u64> = EpochSorter::new(comm, cfg.clone());
        (0..epochs)
            .map(|e| {
                let mut batch = epoch_rank_keys(
                    profile,
                    Layout::Balanced,
                    n_per * p,
                    p,
                    comm.rank(),
                    seed,
                    e,
                );
                let stats = svc.sort_epoch(&mut batch);
                (batch, stats.sort.outcome.clone())
            })
            .collect::<Vec<_>>()
    })
    .expect("a valid fault plan");

    assert!(out.ranks[victim].is_err(), "the victim itself must fail");
    let mut recovered_anywhere = false;
    let mut survivor_epochs: Vec<Vec<Vec<u64>>> = Vec::new();
    for (rank, res) in out.ranks.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let (epochs_out, _) = res.as_ref().unwrap_or_else(|e| {
            panic!("survivor {rank} failed: {e}");
        });
        assert_eq!(epochs_out.len(), epochs as usize, "rank {rank} fell short");
        for (batch, outcome) in epochs_out {
            assert!(batch.windows(2).all(|w| w[0] <= w[1]), "rank {rank}");
            if let SortOutcome::Recovered { lost_ranks, .. } = outcome {
                assert_eq!(lost_ranks, &vec![victim]);
                recovered_anywhere = true;
            }
        }
        survivor_epochs.push(epochs_out.iter().map(|(b, _)| b.clone()).collect());
    }
    assert!(recovered_anywhere, "no epoch reported a recovery");

    // Post-crash epochs equal a cold histogram sort of the survivors'
    // batches: replay the survivors' world at p-1 and compare the
    // final epoch's global multiset + order.
    let last: Vec<u64> = {
        let mut all: Vec<u64> = survivor_epochs
            .iter()
            .flat_map(|per_rank| per_rank.last().expect("epochs >= 1").clone())
            .collect();
        all.sort_unstable();
        all
    };
    let mut want: Vec<u64> = (0..p)
        .filter(|&r| r != victim)
        .flat_map(|r| epoch_rank_keys(profile, Layout::Balanced, n_per * p, p, r, seed, epochs - 1))
        .collect();
    want.sort_unstable();
    assert_eq!(
        last, want,
        "final epoch must be the survivors' sorted union"
    );
}

/// A service configured cold behaves like independent one-shot sorts:
/// same rounds every epoch of a stationary stream (nothing carries
/// over), and identical to calling `histogram_sort` directly.
#[test]
fn cold_service_is_a_oneshot_sort_per_epoch() {
    let p = 6;
    let n_total = 300 * p;
    let seed = 3;
    let profile = EpochProfile::Stationary {
        dist: Distribution::paper_uniform(),
    };
    let cluster = ClusterConfig::small_cluster(p);
    let svc_out = run_stream(&cluster, profile, WarmStart::Cold, p, n_total, 3, seed);
    let rounds: Vec<u32> = svc_out[0].iter().map(|(_, r, _)| *r).collect();
    assert!(
        rounds.windows(2).all(|w| w[0] == w[1]),
        "cold epochs must not influence each other: {rounds:?}"
    );
    let direct = run(&cluster, move |comm| {
        let mut batch =
            epoch_rank_keys(profile, Layout::Balanced, n_total, p, comm.rank(), seed, 0);
        histogram_sort(comm, &mut batch, &SortConfig::default());
        batch
    });
    for (rank, (d, _)) in direct.into_iter().enumerate() {
        for (e, (out, _, _)) in svc_out[rank].iter().enumerate() {
            assert_eq!(out, &d, "rank {rank} epoch {e}");
        }
    }
}
