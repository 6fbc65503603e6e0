//! The fault-injection contract: injected faults change *virtual time*
//! (and, for crashes, liveness) but never the *data* a surviving
//! computation produces; every fault is a pure function of the plan and
//! of virtual time, so faulty runs replay bit-for-bit.

use dhs::baselines::bitonic_sort;
use dhs::core::{histogram_sort, SortConfig, SortOutcome};
use dhs::runtime::fault::RankError;
use dhs::runtime::{
    launch, run, try_run, AllToAllAlgo, ClusterConfig, Comm, FaultPlan, FaultPlanError, LinkClass,
    LinkFault, RunError, RunSummary, RunnerEngine, TraceConfig,
};
use dhs::workloads::{rank_local_keys, Distribution, Layout};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run every collective once and return all data results, bit-for-bit
/// comparable across fault plans.
fn collective_suite(cfg: &ClusterConfig, seed: u64) -> Vec<CollectiveOutputs> {
    let out = run(cfg, move |comm| {
        let me = comm.rank() as u64;
        let p = comm.size();
        comm.barrier();
        let bcast = comm.broadcast(0, seed.wrapping_mul(31));
        let reduce = comm.allreduce_sum(vec![me + seed % 11, me * me]);
        let gather = comm.allgather(me * 3 + seed % 5);
        let send: Vec<Vec<u64>> = (0..p)
            .map(|d| vec![me * 1000 + d as u64; (seed as usize + d) % 4])
            .collect();
        let a2a: Vec<Vec<u64>> = comm.exchange(send, AllToAllAlgo::OneFactor).into_vecs();
        let scan = comm.exscan_sum_vec_shared(&[me + 1]).to_vec();
        CollectiveOutputs {
            bcast,
            reduce,
            gather,
            a2a,
            scan,
        }
    });
    out.into_iter().map(|(v, _)| v).collect()
}

#[derive(Debug, PartialEq, Eq)]
struct CollectiveOutputs {
    bcast: u64,
    reduce: Vec<u64>,
    gather: Vec<u64>,
    a2a: Vec<Vec<u64>>,
    scan: Vec<u64>,
}

/// Every rank's output of a bitonic sort of `n_per` uniform keys per
/// rank on `cluster`.
fn bitonic_under(cluster: &ClusterConfig, n_per: usize, seed: u64) -> Vec<Vec<u64>> {
    let p = cluster.ranks();
    let out = run(cluster, move |comm| {
        let mut local = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            p * n_per,
            p,
            comm.rank(),
            seed,
        );
        bitonic_sort(comm, &mut local);
        local
    });
    out.into_iter().map(|(v, _)| v).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Stragglers and degraded links reshape virtual time, but every
    /// collective must still return exactly the fault-free data on
    /// every rank.
    #[test]
    fn collectives_agree_bitwise_under_faults(
        p in 2usize..9,
        seed in 0u64..100_000,
        straggler_rank in 0usize..9,
        factor_tenths in 11u64..80,
        beta_tenths in 10u64..50,
    ) {
        let clean = ClusterConfig::small_cluster(p);
        let plan = FaultPlan::default()
            .with_straggler(straggler_rank % p, factor_tenths as f64 / 10.0)
            .with_link_fault(LinkFault {
                class: Some(LinkClass::IntraNode),
                extra_alpha_ns: 5_000.0,
                beta_factor: beta_tenths as f64 / 10.0,
                from_ns: 0,
                until_ns: u64::MAX,
            });
        let faulty = clean.clone().with_fault(plan);
        prop_assert_eq!(collective_suite(&clean, seed), collective_suite(&faulty, seed));
    }

    /// Bitonic — `log² p` compare-split rounds, each a one-peer
    /// `Comm::exchange` — under a straggler and a degraded-link window
    /// that may close mid-sort must produce exactly the fault-free
    /// output: faults move the clocks, never which block a rank merges.
    #[test]
    fn bitonic_sort_matches_fault_free_under_faults(
        log_p in 1u32..4,
        n_per in 50usize..300,
        seed in 0u64..50_000,
        straggler_rank in 0usize..8,
        factor_tenths in 11u64..80,
        beta_tenths in 10u64..50,
        window_us in 1u64..400,
    ) {
        let p = 1usize << log_p;
        let clean = ClusterConfig::small_cluster(p);
        let plan = FaultPlan::default()
            .with_straggler(straggler_rank % p, factor_tenths as f64 / 10.0)
            .with_link_fault(LinkFault {
                class: None,
                extra_alpha_ns: 5_000.0,
                beta_factor: beta_tenths as f64 / 10.0,
                from_ns: 0,
                until_ns: window_us * 1_000,
            });
        let faulty = clean.clone().with_fault(plan);
        prop_assert_eq!(bitonic_under(&clean, n_per, seed), bitonic_under(&faulty, n_per, seed));
    }
}

/// The acceptance scenario: rank k crashes mid-sort on a 32-rank
/// cluster. The run must return (not deadlock), name rank k as the root
/// cause, and replay identically — same failed set, same counters on
/// the survivors.
#[test]
fn crash_during_sort_is_reported_and_deterministic() {
    let p = 32;
    let crashed_rank = 13;
    let go = || {
        // Crash deadline chosen inside the run: compute+histogram are
        // well past 50us at this size, so the rank dies mid-pipeline.
        let cluster = ClusterConfig::supermuc_phase2(p)
            .with_fault(FaultPlan::default().with_crash(crashed_rank, 50_000));
        launch(&cluster, move |comm| {
            let mut local = rank_local_keys(
                Distribution::paper_uniform(),
                Layout::Balanced,
                p * 2000,
                p,
                comm.rank(),
                3,
            );
            histogram_sort(comm, &mut local, &SortConfig::default());
            local.len()
        })
        .expect("a valid fault plan")
    };
    let first = go();
    // Deterministic replay: identical outcome on every rank, failures
    // and the completers' counter reports alike.
    assert_eq!(first.ranks, go().ranks, "replay must fail identically");
    let err = first
        .into_result()
        .expect_err("crashed rank must fail the run");
    let roots: Vec<&RankError> = err.root_causes().collect();
    assert_eq!(roots.len(), 1, "exactly one root cause");
    match roots[0] {
        RankError::Crashed { rank, at_ns } => {
            assert_eq!(*rank, crashed_rank);
            assert_eq!(*at_ns, 50_000);
        }
        other => panic!("expected Crashed, got {other:?}"),
    }
    // Peers blocked on the dead rank surface as collateral, never as
    // spurious root causes.
    assert!(err.failed_ranks().contains(&crashed_rank));
    for e in err.failed() {
        assert!(e.rank() < p);
    }
}

/// What the `Fragile` records of one run did, for
/// `crash_mid_collective_releases_blocked_peers`.
#[derive(Default)]
struct CopyLog {
    /// `clone()` calls, the tripping one included.
    clones: AtomicUsize,
    /// Sender-side records dropped.
    dropped_senders: AtomicUsize,
    /// ... of which before every rank's copy-out was over.
    dropped_early: AtomicUsize,
}

/// `clone()` calls of one `"exchange borrowed, Clone panics"` run:
/// seven ranks clone their 16 records; rank 5 clones the six from
/// ranks 0–2 and trips on the seventh.
const FRAGILE_CLONE_CALLS: usize = 7 * 16 + 7;

/// A record whose `clone()` can panic and whose sender-side `drop`
/// checks that no copy-out is still running.
struct Fragile {
    trips: bool,
    /// The run's log; `None` on a receiver's clone.
    home: Option<Arc<CopyLog>>,
}

impl Clone for Fragile {
    fn clone(&self) -> Self {
        let log = self
            .home
            .as_ref()
            .expect("only senders' records are cloned");
        log.clones.fetch_add(1, Ordering::SeqCst);
        assert!(!self.trips, "clone tripped");
        Fragile {
            trips: false,
            home: None,
        }
    }
}

impl Drop for Fragile {
    fn drop(&mut self) {
        if let Some(log) = &self.home {
            log.dropped_senders.fetch_add(1, Ordering::SeqCst);
            // All copy-outs are over once the run's last clone call
            // has been made.
            if log.clones.load(Ordering::SeqCst) != FRAGILE_CLONE_CALLS {
                log.dropped_early.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// A crash must release every peer blocked in the rendezvous — at
/// every worker count and for every payload shape that goes through
/// the one collective protocol (owned inputs, borrowed views, exit
/// barrier), and also when the rank that dies is the one combining, or
/// unwinds out of its copy-out under the exit barrier — as typed
/// collateral, and through the event-driven wake path rather than a
/// park backstop.
#[test]
fn crash_mid_collective_releases_blocked_peers() {
    /// `dhs_runtime::sched::PARK_BACKSTOP`: a parked task whose wake
    /// was lost sleeps this long, so a run that beats it needed none.
    const PARK_BACKSTOP: Duration = Duration::from_millis(500);
    type Op = fn(&Comm);
    let ops: [(&str, Op); 5] = [
        ("barrier", |c| c.barrier()),
        ("allgather", |c| drop(c.allgather(c.rank() as u64))),
        ("allreduce_sum_shared", |c| {
            drop(c.allreduce_sum_shared(&[c.rank() as u64, 1]))
        }),
        ("exchange owned", |c| {
            let send: Vec<Vec<u64>> = (0..c.size()).map(|d| vec![d as u64; 3]).collect();
            drop(c.exchange(send, AllToAllAlgo::OneFactor))
        }),
        ("exchange borrowed", |c| {
            let data = vec![c.rank() as u64; 2 * c.size()];
            let send: Vec<&[u64]> = data.chunks(2).collect();
            drop(c.exchange(&send[..], AllToAllAlgo::OneFactor))
        }),
    ];
    // A slot per rank, the default, one rank at a time.
    for workers in [8, 0, 1] {
        let engine = RunnerEngine { workers };
        // The combining rank itself dies, inside the once-only finish
        // step of an allreduce: whichever rank arrived last is the root
        // cause, and the seven whose views it held abort as collateral
        // at once rather than waiting for an output that cannot come.
        let cell = format!("combiner panics in finish under {engine:?}");
        let cluster = ClusterConfig::small_cluster(8).with_engine(engine);
        let started = Instant::now();
        let err = try_run(&cluster, |comm| {
            let ones = [1u64; 4];
            comm.allreduce_sum_then(&ones, |sum| -> u64 { panic!("finish saw {sum:?}") });
        })
        .expect_err("a panicking finish must fail the run");
        let elapsed = started.elapsed();
        assert_eq!(err.failed().len(), 8, "{cell}: every rank reports");
        let roots: Vec<&RankError> = err.root_causes().collect();
        assert_eq!(roots.len(), 1, "{cell}: one root cause");
        assert!(
            matches!(roots[0], RankError::Panicked { message, .. } if message.contains("[8, 8, 8, 8]")),
            "{cell}: root cause {:?}",
            roots[0]
        );
        for (rank, e) in err.failed().iter().enumerate() {
            assert_eq!(e.rank(), rank, "{cell}: typed error names its rank");
            assert!(
                e.is_root_cause() || matches!(e, RankError::PeerFailed { .. }),
                "{cell}: rank {rank} failed with {e:?}"
            );
        }
        assert!(
            elapsed < PARK_BACKSTOP,
            "{cell}: took {elapsed:?}, peers waited on a dead combiner"
        );

        // A borrowed exchange of `Clone` records whose `clone()` panics
        // on rank 5 in the middle of its copy-out (window 4 of
        // `collective_view`): rank 5 is the one root cause, but it
        // serves the exit barrier before unwinding, so the other seven
        // finish copying out of its buffer, return, and are released
        // from the barrier after it as collateral.
        let cell = format!("exchange borrowed, Clone panics under {engine:?}");
        let log = Arc::new(CopyLog::default());
        let cluster = ClusterConfig::small_cluster(8).with_engine(engine);
        let started = Instant::now();
        let out = {
            let log = Arc::clone(&log);
            launch(&cluster, move |comm| {
                // Two records per destination; the ones from rank 3 up
                // that are bound for rank 5 trip when cloned.
                let data: Vec<Fragile> = (0..2 * comm.size())
                    .map(|i| Fragile {
                        trips: comm.rank() >= 3 && i / 2 == 5,
                        home: Some(Arc::clone(&log)),
                    })
                    .collect();
                let send: Vec<&[Fragile]> = data.chunks(2).collect();
                drop(comm.exchange(&send[..], AllToAllAlgo::OneFactor));
                comm.barrier();
            })
            .expect("an inert fault plan is valid")
        };
        let elapsed = started.elapsed();
        assert_eq!(out.failures().count(), 8, "{cell}: every rank reports");
        for (rank, e) in out.failures().enumerate() {
            match e {
                RankError::Panicked { rank: 5, message } if rank == 5 => {
                    assert!(message.contains("clone tripped"), "{cell}: {message}")
                }
                RankError::PeerFailed { rank: r } if rank != 5 => assert_eq!(*r, rank),
                other => panic!("{cell}: rank {rank} failed with {other:?}"),
            }
        }
        assert_eq!(out.park_backstops, 0, "{cell}: a park backstop fired");
        assert!(
            out.parks <= out.wakes + out.park_backstops,
            "{cell}: a park ended by neither a wake nor a backstop"
        );
        assert!(
            elapsed < PARK_BACKSTOP,
            "{cell}: took {elapsed:?}, peers waited on the unwinding rank"
        );
        // Every sender's buffer was dropped after the last clone call.
        assert_eq!(
            log.clones.load(Ordering::SeqCst),
            FRAGILE_CLONE_CALLS,
            "{cell}"
        );
        assert_eq!(log.dropped_senders.load(Ordering::SeqCst), 8 * 16, "{cell}");
        assert_eq!(
            log.dropped_early.load(Ordering::SeqCst),
            0,
            "{cell}: a sender's buffer was dropped while a peer was still copying"
        );

        for (name, op) in ops {
            let cluster = ClusterConfig::small_cluster(8)
                .with_fault(FaultPlan::default().with_crash(5, 1))
                .with_engine(engine);
            let started = Instant::now();
            let out = launch(&cluster, move |comm| {
                // Rank 5's clock passes 1ns on its first charge, so it
                // dies entering `op`; everyone else blocks inside it.
                comm.charge(dhs::runtime::Work::Compares(1000));
                op(comm);
            })
            .expect("a valid fault plan");
            let elapsed = started.elapsed();
            let cell = format!("{name} under {engine:?}");
            assert!(
                out.parks <= out.wakes + out.park_backstops,
                "{cell}: {} parks, {} wakes, {} backstops",
                out.parks,
                out.wakes,
                out.park_backstops
            );
            let err = out.into_result().expect_err("crash must fail the run");
            assert_eq!(err.failed().len(), 8, "{cell}: every rank reports");
            for (rank, e) in err.failed().iter().enumerate() {
                match e {
                    RankError::Crashed { rank: 5, .. } if rank == 5 => {}
                    RankError::PeerFailed { rank: r } if rank != 5 => assert_eq!(*r, rank),
                    other => panic!("{cell}: rank {rank} failed with {other:?}"),
                }
            }
            assert_eq!(err.root_causes().count(), 1, "{cell}: one root cause");
            assert!(
                elapsed < PARK_BACKSTOP,
                "{cell}: took {elapsed:?}, a park backstop fired"
            );
        }
    }
}

/// Faulty runs replay bit-for-bit — same plan, same makespan, same
/// counters — end-to-end through bitonic's 10 one-peer exchanges at
/// p = 16, and the faults cost virtual time over the clean run.
#[test]
fn faulty_sort_run_is_reproducible() {
    let p = 16;
    let plan = FaultPlan::default()
        .with_straggler(2, 4.0)
        .with_link_fault(LinkFault {
            class: None,
            extra_alpha_ns: 20_000.0,
            beta_factor: 3.0,
            from_ns: 0,
            until_ns: 200_000,
        });
    let go = |plan: &FaultPlan| {
        let cluster = ClusterConfig::supermuc_phase2(p).with_fault(plan.clone());
        let out = run(&cluster, move |comm| {
            let mut local = rank_local_keys(
                Distribution::paper_uniform(),
                Layout::Balanced,
                p * 1000,
                p,
                comm.rank(),
                11,
            );
            bitonic_sort(comm, &mut local);
            assert!(local.windows(2).all(|w| w[0] <= w[1]));
        });
        RunSummary::from_reports(out.iter().map(|(_, r)| r))
    };
    let a = go(&plan);
    let b = go(&plan);
    assert_eq!(a, b, "the same plan must replay identically");
    let clean = go(&FaultPlan::default());
    assert!(
        a.makespan_ns > clean.makespan_ns,
        "a straggler and a slow-link window must cost time: {a:?} vs {clean:?}"
    );
}

/// A crash deadline inside one of bitonic's merges fires at the next
/// runtime interaction: the entry of the following compare-split
/// exchange. The victim ends `Crashed`, every other rank is released
/// from that exchange as `PeerFailed` collateral by the event-driven
/// wake path, and no park needs the backstop.
#[test]
fn bitonic_crash_is_a_typed_root_cause() {
    let (p, victim) = (8, 5);
    let sort = move |comm: &Comm| {
        let mut local = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            p * 2000,
            p,
            comm.rank(),
            9,
        );
        bitonic_sort(comm, &mut local);
    };
    let traced = ClusterConfig::supermuc_phase2(p).with_trace(TraceConfig::On);
    let clean = launch(&traced, sort).expect("an inert fault plan is valid");
    assert_eq!(clean.failures().count(), 0, "the clean sort completes");
    // The victim's merge after the third of six exchanges.
    let merge = clean.trace.ranks[victim]
        .spans
        .iter()
        .filter(|s| s.name == "sort_merge")
        .nth(3)
        .expect("bitonic merges once per exchange")
        .clone();
    let at_ns = (merge.start_ns + merge.end_ns) / 2;
    let cluster = traced.with_fault(FaultPlan::default().with_crash(victim, at_ns));
    let out = launch(&cluster, sort).expect("a valid fault plan");
    for (rank, r) in out.ranks.iter().enumerate() {
        match r {
            Err(RankError::Crashed { rank: v, at_ns: t }) if rank == victim => {
                assert_eq!((*v, *t), (victim, at_ns))
            }
            Err(RankError::PeerFailed { rank: r }) if rank != victim => assert_eq!(*r, rank),
            other => panic!("rank {rank} ended {:?}", other.as_ref().err()),
        }
    }
    assert_eq!(out.park_backstops, 0, "a park backstop fired");
    let crash = out.trace.ranks[victim]
        .events
        .iter()
        .find(|e| e.name == "crash")
        .expect("the victim records its crash");
    assert_eq!(
        crash.at_ns, merge.end_ns,
        "the deadline fires when the merge ends, entering the next exchange"
    );
}

/// An inert (default) fault plan is byte-identical to no plan at all —
/// the zero-cost guarantee.
#[test]
fn default_fault_plan_is_inert() {
    let p = 16;
    let go = |fault: Option<FaultPlan>| {
        let mut cluster = ClusterConfig::supermuc_phase2(p);
        if let Some(f) = fault {
            cluster = cluster.with_fault(f);
        }
        run(&cluster, move |comm| {
            let mut local = rank_local_keys(
                Distribution::paper_uniform(),
                Layout::Balanced,
                p * 2000,
                p,
                comm.rank(),
                5,
            );
            let stats = histogram_sort(comm, &mut local, &SortConfig::default());
            assert_eq!(stats.outcome, SortOutcome::Exact);
            local
        })
    };
    assert_eq!(
        go(None),
        go(Some(FaultPlan::default())),
        "default plan must not perturb data, virtual time or counters"
    );
}

/// A fault plan that does not fit the cluster is a typed error from
/// both fallible launchers, returned before any rank starts, and the
/// message of `run`'s panic.
#[test]
fn bad_fault_plan_is_an_error_not_a_panic() {
    let started = AtomicUsize::new(0);
    let body = |_: &Comm| {
        started.fetch_add(1, Ordering::SeqCst);
    };
    let crash_9_of_4 =
        ClusterConfig::small_cluster(4).with_fault(FaultPlan::default().with_crash(9, 0));
    let out_of_range = FaultPlanError::CrashRankOutOfRange { rank: 9, ranks: 4 };
    assert!(matches!(
        try_run(&crash_9_of_4, body),
        Err(RunError::FaultPlan(e)) if e == out_of_range
    ));
    assert_eq!(launch(&crash_9_of_4, body).err(), Some(out_of_range));

    let nan_straggler = ClusterConfig::small_cluster(4)
        .with_fault(FaultPlan::default().with_straggler(1, f64::NAN));
    let is_nan_factor = |e: &FaultPlanError| match e {
        FaultPlanError::BadStragglerFactor { rank: 1, factor } => factor.is_nan(),
        _ => false,
    };
    assert!(matches!(
        try_run(&nan_straggler, body),
        Err(RunError::FaultPlan(e)) if is_nan_factor(&e)
    ));
    assert!(launch(&nan_straggler, body)
        .err()
        .is_some_and(|e| is_nan_factor(&e)));

    let panicked =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&crash_9_of_4, body)))
            .expect_err("run panics on a bad plan");
    assert_eq!(
        panicked.downcast_ref::<String>().map(String::as_str),
        Some("invalid fault plan: crash rank 9 out of range (cluster has 4)")
    );
    assert_eq!(started.load(Ordering::SeqCst), 0, "a rank started");
}
