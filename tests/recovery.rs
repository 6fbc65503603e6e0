//! Shrink-and-recover: survivors of a mid-sort rank failure agree on
//! the survivor set, shrink onto a `p − f` communicator, roll back to
//! their retained checkpoint, and finish the sort
//! (`RecoveryPolicy::Shrink`). These tests pin the recovery driver's
//! correctness, determinism, and equivalence to a direct sort of the
//! survivors' inputs.

use dhs_core::{histogram_sort, histogram_sort_by, RecoveryPolicy, SortConfig, SortOutcome};
use dhs_runtime::{launch, run, ClusterConfig, FaultPlan, RankError};
use proptest::prelude::*;

fn keys_for(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
    let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % modulus
        })
        .collect()
}

fn shrink_cfg(threads: usize) -> SortConfig {
    SortConfig {
        recovery: RecoveryPolicy::Shrink,
        threads_per_rank: threads,
        ..SortConfig::default()
    }
}

/// A crash before the exchange commits: survivors must complete with
/// `SortOutcome::Recovered`, and the surviving output must be the
/// sorted union of the survivors' inputs.
#[test]
fn shrink_recovers_from_single_crash() {
    let p = 8;
    let n = 2000;
    let victim = 3;
    let cfg =
        ClusterConfig::small_cluster(p).with_fault(FaultPlan::default().with_crash(victim, 50_000));
    let sort_cfg = shrink_cfg(1);
    let out = launch(&cfg, move |comm| {
        let mut local = keys_for(comm.rank(), n, 1 << 20);
        let stats = histogram_sort(comm, &mut local, &sort_cfg);
        (local, stats)
    })
    .expect("a valid fault plan");

    assert!(out.ranks[victim].is_err(), "the victim itself must fail");
    let mut got = Vec::new();
    for (rank, res) in out.ranks.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let (local, stats) = match res {
            Ok(((local, stats), _)) => (local, stats),
            Err(e) => panic!("survivor {rank} failed: {e}"),
        };
        match &stats.outcome {
            SortOutcome::Recovered {
                lost_ranks,
                restarts,
                recovery_ns,
            } => {
                assert_eq!(lost_ranks, &vec![victim]);
                assert!(*restarts >= 1);
                assert!(*recovery_ns > 0);
            }
            other => panic!("survivor {rank}: expected Recovered, got {other:?}"),
        }
        assert!(
            local.windows(2).all(|w| w[0] <= w[1]),
            "rank {rank} not locally sorted"
        );
        got.extend_from_slice(local);
    }
    let mut expect: Vec<u64> = (0..p)
        .filter(|&r| r != victim)
        .flat_map(|r| keys_for(r, n, 1 << 20))
        .collect();
    expect.sort_unstable();
    assert_eq!(got, expect, "survivor output must be their sorted union");
}

/// Crash deadlines spanning every phase of the sort — from the very
/// first charge through the tail of the pipeline. Whatever the timing,
/// every survivor must complete and their concatenated output must be
/// the sorted union of the completers' inputs. (A deadline past the
/// victim's completion never fires; a post-exchange deadline hits the
/// commit point and the survivors finish without a restart.)
#[test]
fn shrink_completes_across_crash_phase_grid() {
    let p = 8;
    let n = 2000;
    let victim = 5;
    for at_ns in [1, 10_000, 50_000, 200_000, 800_000, 3_000_000] {
        let cfg = ClusterConfig::small_cluster(p)
            .with_fault(FaultPlan::default().with_crash(victim, at_ns));
        let sort_cfg = shrink_cfg(1);
        let out = launch(&cfg, move |comm| {
            let mut local = keys_for(comm.rank(), n, u64::MAX);
            let stats = histogram_sort(comm, &mut local, &sort_cfg);
            (local, stats)
        })
        .expect("a valid fault plan");
        let completers: Vec<usize> = (0..p).filter(|&r| out.ranks[r].is_ok()).collect();
        assert!(
            completers.iter().filter(|&&r| r != victim).count() == p - 1,
            "at_ns={at_ns}: every survivor must complete"
        );
        let mut got = Vec::new();
        for &r in &completers {
            let ((local, stats), _) = out.ranks[r].as_ref().expect("completer");
            assert!(local.windows(2).all(|w| w[0] <= w[1]));
            if let SortOutcome::Recovered { lost_ranks, .. } = &stats.outcome {
                assert_eq!(lost_ranks, &vec![victim], "at_ns={at_ns}");
                assert!(out.ranks[victim].is_err(), "at_ns={at_ns}");
            }
            got.extend_from_slice(local);
        }
        let mut expect: Vec<u64> = completers
            .iter()
            .flat_map(|&r| keys_for(r, n, u64::MAX))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "at_ns={at_ns}: completer output wrong");
    }
}

/// Two staggered crashes: the sort shrinks past both and the remaining
/// survivors still finish with the union of their inputs.
#[test]
fn shrink_survives_two_staggered_crashes() {
    let p = 8;
    let n = 1500;
    let cfg = ClusterConfig::small_cluster(p).with_fault(
        FaultPlan::default()
            .with_crash(2, 40_000)
            .with_crash(6, 50_000),
    );
    let sort_cfg = shrink_cfg(1);
    let out = launch(&cfg, move |comm| {
        let mut local = keys_for(comm.rank(), n, 1 << 30);
        let stats = histogram_sort(comm, &mut local, &sort_cfg);
        (local, stats)
    })
    .expect("a valid fault plan");
    let mut got = Vec::new();
    let mut lost_seen: Option<Vec<usize>> = None;
    for rank in (0..p).filter(|r| ![2, 6].contains(r)) {
        let ((local, stats), _) = out.ranks[rank]
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        match &stats.outcome {
            SortOutcome::Recovered {
                lost_ranks,
                restarts,
                ..
            } => {
                let mut sorted_lost = lost_ranks.clone();
                sorted_lost.sort_unstable();
                assert_eq!(sorted_lost, vec![2, 6], "rank {rank}");
                assert!(*restarts >= 1);
                match &lost_seen {
                    Some(prev) => assert_eq!(prev, lost_ranks, "lost set must agree"),
                    None => lost_seen = Some(lost_ranks.clone()),
                }
            }
            other => panic!("survivor {rank}: expected Recovered, got {other:?}"),
        }
        got.extend_from_slice(local);
    }
    let mut expect: Vec<u64> = (0..p)
        .filter(|r| ![2, 6].contains(r))
        .flat_map(|r| keys_for(r, n, 1 << 30))
        .collect();
    expect.sort_unstable();
    assert_eq!(got, expect);
}

/// Recovery is deterministic under the virtual clock: the same seed
/// produces byte-identical survivor outputs *and* identical per-rank
/// virtual makespans, for any intra-rank thread budget.
#[test]
fn shrink_recovery_is_deterministic() {
    let p = 8;
    let n = 2000;
    let victim = 4;
    let go = |threads: usize| {
        let cfg = ClusterConfig::small_cluster(p)
            .with_fault(FaultPlan::default().with_crash(victim, 50_000));
        let sort_cfg = shrink_cfg(threads);
        let out = launch(&cfg, move |comm| {
            let mut local = keys_for(comm.rank(), n, 1 << 22);
            let stats = histogram_sort(comm, &mut local, &sort_cfg);
            (local, stats)
        })
        .expect("a valid fault plan");
        out.ranks
            .into_iter()
            .map(|res| {
                res.ok()
                    .map(|((local, stats), rep)| (local, stats, rep.clock_ns))
            })
            .collect::<Vec<_>>()
    };
    let a = go(1);
    assert!(a[victim].is_none(), "the victim must die mid-sort");
    let (_, stats, _) = a[0].as_ref().expect("rank 0 survives");
    assert!(stats.outcome.is_recovered(), "{:?}", stats.outcome);
    let b = go(1);
    assert_eq!(a, b, "same seed must replay bit-for-bit");
    let c = go(4);
    for (rank, (x, y)) in a.iter().zip(&c).enumerate() {
        match (x, y) {
            (Some((la, sa, ka)), Some((lc, sc, kc))) => {
                assert_eq!(la, lc, "rank {rank}: output must not depend on threads");
                assert_eq!(sa, sc, "rank {rank}: stats must not depend on threads");
                assert_eq!(ka, kc, "rank {rank}: clock must not depend on threads");
            }
            (None, None) => {}
            _ => panic!("rank {rank}: completion must not depend on threads"),
        }
    }
}

/// The record-carrying entry point recovers the same way: survivors
/// shrink, retain every surviving payload exactly once, and end
/// globally ordered by key.
#[test]
fn shrink_recovers_record_sort() {
    let p = 6;
    let n = 800;
    let victim = 1;
    let cfg =
        ClusterConfig::small_cluster(p).with_fault(FaultPlan::default().with_crash(victim, 30_000));
    let sort_cfg = shrink_cfg(1);
    let out = launch(&cfg, move |comm| {
        let mut records: Vec<(u64, u32, u32)> = keys_for(comm.rank(), n, 1000)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, comm.rank() as u32, i as u32))
            .collect();
        let stats = histogram_sort_by(comm, &mut records, |r| r.0, &sort_cfg);
        (records, stats)
    })
    .expect("a valid fault plan");
    let mut all: Vec<(u64, u32, u32)> = Vec::new();
    for rank in (0..p).filter(|&r| r != victim) {
        let ((records, stats), _) = out.ranks[rank]
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        assert!(
            stats.outcome.is_recovered(),
            "survivor {rank}: expected Recovered, got {:?}",
            stats.outcome
        );
        assert!(records.windows(2).all(|w| w[0].0 <= w[1].0));
        all.extend_from_slice(records);
    }
    assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut origins: Vec<(u32, u32)> = all.iter().map(|r| (r.1, r.2)).collect();
    origins.sort_unstable();
    origins.dedup();
    assert_eq!(
        origins.len(),
        (p - 1) * n,
        "payloads must survive exactly once"
    );
    for &(k, r, i) in &all {
        assert_ne!(r as usize, victim, "the victim's data is lost with it");
        assert_eq!(keys_for(r as usize, n, 1000)[i as usize], k);
    }
}

/// The record exchange sends the sorted block *borrowed*: when a peer
/// dies inside the exchange itself, the survivors' interrupt unwinds
/// out of the collective with their views retracted and their blocks
/// intact, and the retry sorts the survivors' records — the stable
/// sort of their union, element for element.
#[test]
fn shrink_recovers_record_sort_from_crash_inside_exchange() {
    let p = 6;
    let n = 800;
    let victim = 1;
    let sort_cfg = shrink_cfg(1);
    let records_of = |rank: usize| -> Vec<(u64, u32, u32)> {
        keys_for(rank, n, 1000)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, rank as u32, i as u32))
            .collect()
    };
    let go = |cluster: &ClusterConfig| {
        let sort_cfg = sort_cfg.clone();
        launch(cluster, move |comm| {
            let mut records = records_of(comm.rank());
            let stats = histogram_sort_by(comm, &mut records, |r| r.0, &sort_cfg);
            (records, stats)
        })
        .expect("a valid fault plan")
    };

    // Where the victim's exchange phase begins on its virtual clock:
    // read off a fault-free run of the same sort.
    let clean = go(&ClusterConfig::small_cluster(p));
    let ((_, stats), _) = clean.ranks[victim].as_ref().expect("fault-free run");
    let exchange_begins = stats.local_sort_ns + stats.histogram_ns + stats.prepare_ns;
    assert!(stats.exchange_ns > 1);

    // One nanosecond in: the packing charge crosses the deadline, and
    // the victim dies entering the all-to-all its peers are blocked in.
    let at_ns = exchange_begins + 1;
    let out =
        go(&ClusterConfig::small_cluster(p)
            .with_fault(FaultPlan::default().with_crash(victim, at_ns)));
    assert_eq!(
        out.ranks[victim].as_ref().err(),
        Some(&RankError::Crashed {
            rank: victim,
            at_ns
        })
    );
    let mut got = Vec::new();
    for rank in (0..p).filter(|&r| r != victim) {
        let ((records, stats), _) = out.ranks[rank]
            .as_ref()
            .unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        match &stats.outcome {
            SortOutcome::Recovered {
                lost_ranks,
                restarts,
                ..
            } => assert_eq!((lost_ranks.as_slice(), *restarts), (&[victim][..], 1)),
            other => panic!("survivor {rank}: expected Recovered, got {other:?}"),
        }
        got.extend_from_slice(records);
    }
    let mut expect: Vec<(u64, u32, u32)> = (0..p)
        .filter(|&r| r != victim)
        .flat_map(records_of)
        .collect();
    expect.sort_by_key(|r| r.0);
    assert_eq!(got, expect);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Shrink-equivalence (ε = 0, perfect partitioning): the recovered
    /// survivor output is byte-identical to directly sorting the
    /// survivors' retained inputs on a fresh `p − f` communicator —
    /// across crash timing, stragglers on/off, and thread budgets.
    /// (With ε = 0 the realized boundaries are exact, so the output
    /// partition is independent of *which* splitter keys were accepted
    /// warm versus cold.)
    #[test]
    fn recovered_output_matches_direct_survivor_sort(
        crash_ns in 1u64..600_000,
        n in 400usize..1600,
        straggle in any::<bool>(),
        four_threads in any::<bool>(),
        modulus_pow in 3u32..40,
    ) {
        let p = 6;
        let victim = 2;
        let threads = if four_threads { 4 } else { 1 };
        let modulus = 1u64 << modulus_pow;

        let mut plan = FaultPlan::default().with_crash(victim, crash_ns);
        if straggle {
            plan = plan.with_straggler(4, 3.0);
        }
        let cluster = ClusterConfig::small_cluster(p).with_fault(plan);
        let sort_cfg = shrink_cfg(threads);
        let recovered = launch(&cluster, move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            histogram_sort(comm, &mut local, &sort_cfg);
            local
        })
        .expect("a valid fault plan");

        if recovered.ranks[victim].is_err() {
            // The crash fired: compare survivors against a direct
            // fault-free sort of exactly their inputs on p − 1 ranks.
            let survivors: Vec<usize> = (0..p).filter(|&r| r != victim).collect();
            let sv = survivors.clone();
            let direct_cfg = shrink_cfg(threads);
            let direct = run(&ClusterConfig::small_cluster(p - 1), move |comm| {
                let mut local = keys_for(sv[comm.rank()], n, modulus);
                histogram_sort(comm, &mut local, &direct_cfg);
                local
            });
            for (i, &r) in survivors.iter().enumerate() {
                let (got, _) = recovered.ranks[r].as_ref().expect("survivor completed");
                prop_assert_eq!(
                    got, &direct[i].0,
                    "survivor {} (new rank {}) output differs from direct sort", r, i
                );
            }
        } else {
            // Deadline fell past the victim's completion: nothing
            // crashed, so the run must equal the fault-free full sort.
            let direct_cfg = shrink_cfg(threads);
            let direct = run(&ClusterConfig::small_cluster(p), move |comm| {
                let mut local = keys_for(comm.rank(), n, modulus);
                histogram_sort(comm, &mut local, &direct_cfg);
                local
            });
            for (r, d) in direct.iter().enumerate().take(p) {
                let (got, _) = recovered.ranks[r].as_ref().expect("rank completed");
                prop_assert_eq!(got, &d.0, "rank {} output differs", r);
            }
        }
    }
}
