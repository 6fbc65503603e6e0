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
use dhs_runtime::{
    try_run, try_run_partial, try_run_traced, ClusterConfig, FaultPlan, LinkFault, PoolStats,
    RankReport, RunnerEngine, TraceConfig,
};
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

/// A straggler and a degraded-link window, both shaped by `seed`: the
/// window closes somewhere inside the sort.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::default()
        .with_straggler(1, 1.5 + (seed % 5) as f64 * 0.5)
        .with_link_fault(LinkFault {
            class: None,
            extra_alpha_ns: 2_000.0 + (seed % 7) as f64 * 1_000.0,
            beta_factor: 1.0 + (seed % 3) as f64,
            from_ns: 0,
            until_ns: 5_000 + 1_000 * seed,
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

    /// A straggler + a degraded-link window (non-fatal faults): the
    /// slowed charges and link-priced collectives land identically at
    /// every worker count.
    #[test]
    fn engines_agree_under_faults(
        p_ix in 0usize..3,
        four_threads in any::<bool>(),
        seed in 1u64..500,
    ) {
        let p = [3usize, 8, 16][p_ix];
        let threads = if four_threads { 4 } else { 1 };
        assert_worker_counts_agree(
            "faulty",
            p,
            256,
            threads,
            fault_plan(seed),
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
        let fault = FaultPlan::default().with_crash(victim, crash_ns);
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
    let fault = FaultPlan::default().with_crash(5, 27_000);
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
    let fault = FaultPlan::default().with_crash(2, 15_000);
    assert_worker_counts_agree("fatal", 8, 256, 1, fault, RecoveryPolicy::Abort);
}

/// Everything a traced sort leaves behind, per rank and for the run.
#[derive(Debug, PartialEq)]
struct SortRecord {
    /// Sorted output, counter report and buffer-pool counters, by rank.
    ranks: Vec<(Vec<u64>, RankReport, PoolStats)>,
    trace_summary: String,
}

/// One traced sort of a fixed input at p = 24, on the default worker
/// pool. Rank `k` must run on a thread named `rank-{k}`, and no park may
/// come back by the backstop.
fn traced_reference_sort() -> SortRecord {
    const P: usize = 24;
    let cfg = ClusterConfig::small_cluster(P).with_trace(TraceConfig::On);
    let sort_cfg = SortConfig::default();
    let run = try_run_traced(&cfg, |comm| {
        let thread = std::thread::current().name().map(str::to_string);
        let mut local = keys_for(comm.rank(), 300, 1 << 20);
        histogram_sort(comm, &mut local, &sort_cfg);
        (local, comm.pool().stats(), thread)
    })
    .expect("a fault-free sort completes");
    assert_eq!(run.park_backstops, 0, "a park ended by the backstop");
    let ranks = run
        .ranks
        .into_iter()
        .enumerate()
        .map(|(rank, ((local, pool, thread), report))| {
            assert_eq!(thread, Some(format!("rank-{rank}")), "rank {rank}'s thread");
            (local, report, pool)
        })
        .collect();
    SortRecord {
        ranks,
        trace_summary: run.trace.to_summary_json(),
    }
}

/// Rank threads outlive their world, so nothing a world leaves on them
/// may reach the next one. The reference sort runs first in this test
/// (no other test in this file goes above 16 ranks, so at least its
/// upper ranks start on fresh threads), then again after worlds of
/// other sizes, a world in which a rank panics, and a crash recovered
/// by shrinking — and must reproduce itself exactly.
#[test]
fn rank_threads_carry_nothing_between_worlds() {
    let first = traced_reference_sort();

    for p in [1, 7, 64] {
        let out = sort_under(0, p, 128, 1, FaultPlan::default(), RecoveryPolicy::Abort);
        assert!(out.iter().all(Result::is_ok), "p={p}: {out:?}");
    }
    let err = try_run(&ClusterConfig::small_cluster(5), |c| {
        if c.rank() == 2 {
            panic!("rank 2 exploded");
        }
        c.barrier();
    })
    .expect_err("a panicking rank fails the run");
    assert_eq!(err.root_causes().count(), 1);
    let fault = FaultPlan::default().with_crash(3, 20_000);
    let shrunk = sort_under(0, 8, 256, 1, fault, RecoveryPolicy::Shrink);
    assert!(shrunk[3].is_err(), "the victim must die");
    assert!(
        matches!(shrunk[0], Ok((_, true, _))),
        "survivors must recover"
    );

    assert_eq!(first, traced_reference_sort());
}
