//! The fault-injection contract: injected faults change *virtual time*
//! (and, for crashes, liveness) but never the *data* a surviving
//! computation produces; every fault is a pure function of the plan
//! seed, so faulty runs replay bit-for-bit.

use dhs::baselines::bitonic_sort;
use dhs::core::{histogram_sort, SortConfig, SortOutcome};
use dhs::runtime::fault::RankError;
use dhs::runtime::{
    run, run_summarized, try_run, try_run_partial, AllToAllAlgo, ClusterConfig, Comm, FaultPlan,
    LinkClass, LinkFault, LossSpec, RunnerEngine,
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
        // Two messages on one (source, tag) stream: an injected
        // duplicate of the first is still queued when the second is
        // received, and only the sequence numbers tell them apart.
        let peer = (comm.rank() + 1) % p;
        let from = (comm.rank() + p - 1) % p;
        comm.send(peer, 9, vec![me; 8]);
        comm.send(peer, 9, vec![me + 1; 3]);
        let mut ring: Vec<u64> = comm.recv(from, 9);
        ring.extend(comm.recv::<u64>(from, 9));
        CollectiveOutputs {
            bcast,
            reduce,
            gather,
            a2a,
            scan,
            ring,
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
    ring: Vec<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Stragglers, degraded links and lossy transports reshape virtual
    /// time, but every collective must still return exactly the
    /// fault-free data on every rank.
    #[test]
    fn collectives_agree_bitwise_under_faults(
        p in 2usize..9,
        seed in 0u64..100_000,
        straggler_rank in 0usize..9,
        factor_tenths in 11u64..80,
        beta_tenths in 10u64..50,
        loss_pct in 0u64..40,
    ) {
        let clean = ClusterConfig::small_cluster(p);
        let plan = FaultPlan::seeded(seed ^ 0xFA_117)
            .with_straggler(straggler_rank % p, factor_tenths as f64 / 10.0)
            .with_link_fault(LinkFault {
                class: Some(LinkClass::IntraNode),
                extra_alpha_ns: 5_000.0,
                beta_factor: beta_tenths as f64 / 10.0,
                from_ns: 0,
                until_ns: u64::MAX,
            })
            .with_loss(LossSpec {
                rate: loss_pct as f64 / 100.0,
                timeout_ns: 10_000,
                max_retries: 16,
                duplicate_rate: loss_pct as f64 / 200.0,
                backoff_factor: 1.0,
            });
        let faulty = clean.clone().with_fault(plan);
        prop_assert_eq!(collective_suite(&clean, seed), collective_suite(&faulty, seed));
    }

    /// A full sort over pure p2p — bitonic, `log² p` compare-split
    /// rounds of `Comm::exchange_pair` — under a lossy, duplicating
    /// transport must produce exactly the fault-free output: retried
    /// and duplicated blocks are deduplicated by sequence number, so
    /// every round merges its partner's block exactly once.
    #[test]
    fn lossy_pairwise_sort_matches_fault_free(
        log_p in 1u32..4,
        n_per in 50usize..300,
        seed in 0u64..50_000,
        loss_pct in 1u64..35,
    ) {
        let p = 1usize << log_p;
        let sort_under = |cluster: &ClusterConfig| {
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
            out.into_iter().map(|(v, _)| v).collect::<Vec<_>>()
        };
        let clean = ClusterConfig::small_cluster(p);
        let faulty = clean.clone().with_fault(FaultPlan::seeded(seed).with_loss(LossSpec {
            rate: loss_pct as f64 / 100.0,
            timeout_ns: 20_000,
            max_retries: 16,
            duplicate_rate: loss_pct as f64 / 100.0,
            backoff_factor: 1.0,
        }));
        prop_assert_eq!(sort_under(&clean), sort_under(&faulty));
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
            .with_fault(FaultPlan::seeded(7).with_crash(crashed_rank, 50_000));
        try_run(&cluster, move |comm| {
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
    };
    let err = go().expect_err("crashed rank must fail the run");
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
    for e in &err.failed {
        assert!(e.rank() < p);
    }

    // Deterministic replay: identical failure set and identical
    // counter snapshots from the ranks that completed.
    let err2 = go().expect_err("replay must fail identically");
    assert_eq!(err.failed_ranks(), err2.failed_ranks());
    assert_eq!(err.completed_reports, err2.completed_reports);
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
        assert_eq!(err.failed.len(), 8, "{cell}: every rank reports");
        let roots: Vec<&RankError> = err.root_causes().collect();
        assert_eq!(roots.len(), 1, "{cell}: one root cause");
        assert!(
            matches!(roots[0], RankError::Panicked { message, .. } if message.contains("[8, 8, 8, 8]")),
            "{cell}: root cause {:?}",
            roots[0]
        );
        for (rank, e) in err.failed.iter().enumerate() {
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
            try_run_partial(&cluster, move |comm| {
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
                .with_fault(FaultPlan::seeded(3).with_crash(5, 1))
                .with_engine(engine);
            let started = Instant::now();
            let err = try_run(&cluster, move |comm| {
                // Rank 5's clock passes 1ns on its first charge, so it
                // dies entering `op`; everyone else blocks inside it.
                comm.charge(dhs::runtime::Work::Compares(1000));
                op(comm);
            })
            .expect_err("crash must fail the run");
            let elapsed = started.elapsed();
            let cell = format!("{name} under {engine:?}");
            assert_eq!(err.failed.len(), 8, "{cell}: every rank reports");
            for (rank, e) in err.failed.iter().enumerate() {
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

/// Faulty runs replay bit-for-bit: same seed, same makespan, same
/// retry/duplicate counters — end-to-end through a sort that rides the
/// lossy p2p transport (bitonic: 160 messages at p = 16).
#[test]
fn faulty_sort_run_is_reproducible() {
    let p = 16;
    let plan = FaultPlan::seeded(0xDEED)
        .with_straggler(2, 4.0)
        .with_loss(LossSpec {
            rate: 0.15,
            timeout_ns: 30_000,
            max_retries: 16,
            duplicate_rate: 0.05,
            backoff_factor: 1.0,
        });
    let go = || {
        let cluster = ClusterConfig::supermuc_phase2(p).with_fault(plan.clone());
        run_summarized(&cluster, move |comm| {
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
        })
        .1
    };
    let a = go();
    let b = go();
    assert_eq!(a, b, "same plan seed must replay identically");
    assert!(
        a.p2p_retries > 0 && a.p2p_duplicates > 0,
        "15% loss and 5% duplicates across 160 messages must retry and dedup: {a:?}"
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
        run_summarized(&cluster, move |comm| {
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
    let (data_a, sum_a) = go(None);
    let (data_b, sum_b) = go(Some(FaultPlan::default()));
    assert_eq!(sum_a, sum_b, "default plan must not perturb virtual time");
    assert_eq!(data_a, data_b);
    assert_eq!(sum_a.p2p_retries, 0);
    assert_eq!(sum_a.p2p_duplicates, 0);
}
