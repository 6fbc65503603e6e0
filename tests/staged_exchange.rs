//! The staged k-way exchange's end-to-end contract: pricing keys
//! through `⌈log_k P⌉` store-and-forward stages must be *invisible* in
//! the sorted output — every schedule delivers byte-identical data —
//! while remaining fully deterministic on the virtual clock (same seed
//! → same per-rank makespans, for any intra-rank thread budget, with
//! faults on or off). Being one rendezvous like every schedule, it
//! composes with shrink-and-recover.

use dhs_core::{histogram_sort, AllToAllAlgo, InvalidSortConfig, RecoveryPolicy, SortConfig};
use dhs_runtime::{run, try_run_partial, ClusterConfig, FaultPlan};
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

fn cfg_with(algo: AllToAllAlgo, threads: usize) -> SortConfig {
    SortConfig::builder()
        .exchange_algo(algo)
        .threads_per_rank(threads)
        .build()
        .expect("valid config")
}

/// One rank's view of a finished sort: its output block and its
/// virtual clock at the end of the run.
type RankOutcome = (Vec<u64>, u64);

fn sorted_run(
    p: usize,
    n: usize,
    modulus: u64,
    algo: AllToAllAlgo,
    threads: usize,
    faults: bool,
    seed: u64,
) -> Vec<RankOutcome> {
    let mut cluster = ClusterConfig::small_cluster(p);
    if faults {
        let slow = (seed % p as u64) as usize;
        cluster = cluster
            .with_fault(FaultPlan::seeded(seed).with_straggler(slow, 1.5 + (seed % 5) as f64));
    }
    let cfg = cfg_with(algo, threads);
    run(&cluster, move |comm| {
        let mut local = keys_for(comm.rank(), n, modulus);
        histogram_sort(comm, &mut local, &cfg);
        (local, comm.now_ns())
    })
    .into_iter()
    .map(|(v, _)| v)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For every fan-out, rank count, duplicate density, fault plan,
    /// and thread budget: (1) the staged sort's output is byte-
    /// identical to the one-factor sort's, and (2) the staged run is
    /// deterministic — replaying it reproduces both the data and every
    /// rank's virtual makespan exactly, and a four-thread budget
    /// changes neither.
    #[test]
    fn staged_sort_matches_one_factor_and_replays_exactly(
        k_idx in 0usize..3,
        p in 4usize..17,
        n in 100usize..700,
        modulus_pow in 2u32..40,
        faults: bool,
        seed in 0u64..10_000,
    ) {
        let k = [2usize, 4, 8][k_idx];
        let modulus = 1u64 << modulus_pow;
        let staged = AllToAllAlgo::StagedKWay { k };

        let base = sorted_run(p, n, modulus, AllToAllAlgo::OneFactor, 1, faults, seed);
        let s1 = sorted_run(p, n, modulus, staged, 1, faults, seed);
        let s1_replay = sorted_run(p, n, modulus, staged, 1, faults, seed);
        let s4 = sorted_run(p, n, modulus, staged, 4, faults, seed);

        for (rank, (b, s)) in base.iter().zip(&s1).enumerate() {
            prop_assert_eq!(
                &b.0, &s.0,
                "k={} rank {}: staged output must match one-factor", k, rank
            );
        }
        prop_assert_eq!(&s1, &s1_replay, "k={}: same seed must replay bit-for-bit", k);
        prop_assert_eq!(
            &s1, &s4,
            "k={}: output and makespans must not depend on the thread budget", k
        );
    }
}

/// All exchange schedules produce byte-identical sorted blocks on
/// every rank — the schedule moves bytes on different paths, never to
/// different places.
#[test]
fn all_schedules_sort_identically() {
    let p = 16;
    let n = 1200;
    let base = sorted_run(p, n, 1 << 24, AllToAllAlgo::OneFactor, 1, false, 0);
    for algo in [AllToAllAlgo::Bruck, AllToAllAlgo::StagedKWay { k: 4 }] {
        let other = sorted_run(p, n, 1 << 24, algo, 1, false, 0);
        for (rank, (b, o)) in base.iter().zip(&other).enumerate() {
            assert_eq!(b.0, o.0, "{algo:?} rank {rank}: output diverged");
        }
    }
}

/// Shrink-and-recover through a crash of rank 3 at 40 µs — before the
/// exchange — under `algo`: the victim fails, every survivor reports
/// `Recovered`, and the survivors' outputs are the sorted union of
/// their inputs.
fn assert_shrink_recovers(algo: AllToAllAlgo) {
    let p = 8;
    let n = 1500;
    let victim = 3;
    let cluster =
        ClusterConfig::small_cluster(p).with_fault(FaultPlan::seeded(7).with_crash(victim, 40_000));
    let cfg = SortConfig::builder()
        .recovery(RecoveryPolicy::Shrink)
        .exchange_algo(algo)
        .build()
        .expect("shrink composes with every schedule");
    let out = try_run_partial(&cluster, move |comm| {
        let mut local = keys_for(comm.rank(), n, 1 << 20);
        let stats = histogram_sort(comm, &mut local, &cfg);
        (local, stats.outcome.is_recovered())
    });
    assert!(
        out.ranks[victim].is_err(),
        "{algo:?}: the victim itself must fail"
    );
    let mut got = Vec::new();
    for rank in (0..p).filter(|&r| r != victim) {
        let ((local, recovered), _) = out.ranks[rank]
            .as_ref()
            .unwrap_or_else(|e| panic!("{algo:?}: survivor {rank} failed: {e}"));
        assert!(recovered, "{algo:?}: survivor {rank} must report Recovered");
        got.extend_from_slice(local);
    }
    let mut expect: Vec<u64> = (0..p)
        .filter(|&r| r != victim)
        .flat_map(|r| keys_for(r, n, 1 << 20))
        .collect();
    expect.sort_unstable();
    assert_eq!(
        got, expect,
        "{algo:?}: survivor output must be their sorted union"
    );
}

/// Every schedule is one rendezvous, so `Shrink` + `StagedKWay` builds
/// and recovers like the one-factor case below; only a degenerate
/// fan-out is a typed configuration error.
#[test]
fn shrink_with_staged_exchange_recovers() {
    for k in [2, 4] {
        assert_shrink_recovers(AllToAllAlgo::StagedKWay { k });
    }
    for k in [0usize, 1] {
        let err = SortConfig::builder()
            .recovery(RecoveryPolicy::Shrink)
            .exchange_algo(AllToAllAlgo::StagedKWay { k })
            .build()
            .expect_err("fan-out below 2 must not build");
        assert!(
            matches!(err, InvalidSortConfig::BadExchangeFanout(got) if got == k),
            "expected BadExchangeFanout({k}), got {err:?}"
        );
    }
}

/// Shrink recovery with the default one-factor exchange completes
/// through the same crash.
#[test]
fn shrink_with_single_stage_exchange_still_recovers() {
    assert_shrink_recovers(AllToAllAlgo::OneFactor);
}
