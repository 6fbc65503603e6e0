//! Engine equivalence: the host schedule cannot change a result. For
//! every cluster size, fault plan, recovery policy, and hybrid thread
//! budget, every worker count reproduces byte-identical sorted output,
//! per-rank virtual makespans, full counter reports, and failure
//! classifications. The reference is `workers = p` — no rank ever
//! waits for a slot, the host scheduler arbitrates as it did for
//! free-running threads — and the other extreme is `workers = 1`, one
//! rank executing at a time; the default and a pool of 2 sit between.
//! This is the contract that lets a grid run at whatever worker count
//! the host affords. (The tests are named `engines_agree_*`: what must
//! agree is the one engine with itself, under every host schedule.)

use dhs_core::{histogram_sort, RecoveryPolicy, SortConfig};
use dhs_runtime::{try_run_partial, ClusterConfig, FaultPlan, LossSpec, RankReport, RunnerEngine};
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

/// A rank's outcome as comparable plain values: sorted output +
/// recovery flag + the whole counter report on success, the failure
/// rendering otherwise.
type RankOutcome = Result<(Vec<u64>, bool, RankReport), String>;

/// One full distributed sort over `workers` slots, per rank.
fn sort_under(
    workers: usize,
    p: usize,
    n_per: usize,
    threads: usize,
    fault: FaultPlan,
    recovery: RecoveryPolicy,
) -> Vec<RankOutcome> {
    let cfg = ClusterConfig::small_cluster(p)
        .with_fault(fault)
        .with_engine(RunnerEngine { workers });
    let sort_cfg = SortConfig::builder()
        .recovery(recovery)
        .threads_per_rank(threads)
        .build()
        .expect("valid config");
    let out = try_run_partial(&cfg, move |comm| {
        let mut local = keys_for(comm.rank(), n_per, 1 << 20);
        let stats = histogram_sort(comm, &mut local, &sort_cfg);
        (local, stats)
    });
    // A lost wake-up must fail here, not pass as a slow round: no park
    // may come back by the timed backstop. A poisoned run is exempt —
    // its blocked ranks poll for the abort on that same timer.
    let poisoned = out.failures().any(|e| !e.is_root_cause());
    assert!(
        poisoned || out.park_backstops == 0,
        "{} park(s) ended by the backstop at {workers} workers (p={p}, t={threads})",
        out.park_backstops
    );
    out.ranks
        .into_iter()
        .map(|r| {
            r.map(|((local, stats), report)| (local, stats.outcome.is_recovered(), report))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Assert every worker count agrees rank by rank, with a labelled
/// context; returns what they agreed on.
fn assert_worker_counts_agree(
    label: &str,
    p: usize,
    n_per: usize,
    threads: usize,
    fault: FaultPlan,
    recovery: RecoveryPolicy,
) -> Vec<RankOutcome> {
    let reference = sort_under(p, p, n_per, threads, fault.clone(), recovery);
    for workers in [0, 2, 1] {
        let pooled = sort_under(workers, p, n_per, threads, fault.clone(), recovery);
        assert_eq!(reference.len(), pooled.len(), "{label}: rank count");
        for (rank, (a, b)) in reference.iter().zip(&pooled).enumerate() {
            assert_eq!(
                a, b,
                "{label}: rank {rank} diverges between {p} and {workers} workers \
                 (p={p}, n_per={n_per}, t={threads})"
            );
        }
    }
    reference
}

fn loss_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_straggler(1, 2.0)
        .with_loss(LossSpec {
            rate: 0.05,
            timeout_ns: 40_000,
            max_retries: 24,
            duplicate_rate: 0.05,
            backoff_factor: 1.3,
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Fault-free sorts: every (p, t) pair agrees across worker counts.
    #[test]
    fn engines_agree_fault_free(
        p_ix in 0usize..3,
        four_threads in any::<bool>(),
        n_per in 64usize..512,
    ) {
        let p = [3usize, 8, 16][p_ix];
        let threads = if four_threads { 4 } else { 1 };
        assert_worker_counts_agree(
            "fault-free",
            p,
            n_per,
            threads,
            FaultPlan::default(),
            RecoveryPolicy::Abort,
        );
    }

    /// Lossy links + a straggler (non-fatal faults): retries, timeouts,
    /// and duplicates land identically at every worker count.
    #[test]
    fn engines_agree_under_faults(
        p_ix in 0usize..3,
        four_threads in any::<bool>(),
        seed in 1u64..500,
    ) {
        let p = [3usize, 8, 16][p_ix];
        let threads = if four_threads { 4 } else { 1 };
        assert_worker_counts_agree(
            "lossy",
            p,
            256,
            threads,
            loss_plan(seed),
            RecoveryPolicy::Abort,
        );
    }

    /// A mid-sort crash with shrink-and-recover: the victim's typed
    /// failure and every survivor's recovered output + report agree.
    #[test]
    fn engines_agree_through_shrink_recovery(
        wide in any::<bool>(),
        four_threads in any::<bool>(),
        victim_seed in 0u64..100,
    ) {
        let p = if wide { 16 } else { 8 };
        let threads = if four_threads { 4 } else { 1 };
        let p_u64 = p as u64;
        let victim = (victim_seed % p_u64) as usize;
        let crash_ns = 15_000 + 7_000 * (victim_seed % 7);
        let fault = FaultPlan::seeded(victim_seed + 1).with_crash(victim, crash_ns);
        assert_worker_counts_agree(
            "shrink",
            p,
            512,
            threads,
            fault,
            RecoveryPolicy::Shrink,
        );
    }
}

/// Pinned deterministic spot-check (runs even with proptest shrunk
/// away): p=16, hybrid t=4, crash + shrink, all worker counts.
#[test]
fn engines_agree_pinned_shrink_case() {
    let fault = FaultPlan::seeded(7).with_crash(5, 27_000);
    let agreed =
        assert_worker_counts_agree("pinned-shrink", 16, 600, 4, fault, RecoveryPolicy::Shrink);
    // The deadline sits mid-histogram: the shrink path must have run.
    assert!(agreed[5].is_err(), "the victim must die");
    assert!(
        matches!(agreed[0], Ok((_, true, _))),
        "survivors must recover"
    );
}

/// Worker counts must also agree on runs that fail outright (no
/// recovery armed): same root cause, same collateral classification.
#[test]
fn engines_agree_on_fatal_crash() {
    let fault = FaultPlan::seeded(3).with_crash(2, 15_000);
    assert_worker_counts_agree("fatal", 8, 256, 1, fault, RecoveryPolicy::Abort);
}
