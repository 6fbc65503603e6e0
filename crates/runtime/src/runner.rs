//! Launch a simulated cluster.
//!
//! Each simulated rank runs its body on a dedicated OS thread, driven
//! as a cooperatively-scheduled task over a small worker pool (see
//! [`crate::sched`]): at most `workers` ranks execute at any instant,
//! every blocking point parks the rank until its wake event, and the
//! host never sees thousands of runnable threads — which is what makes
//! p = 1024–8192 grids practical. The worker count
//! ([`RunnerEngine`] on [`ClusterConfig`]) is a host-side setting:
//! outputs and virtual times are byte-identical for every value.

use std::fmt;
use std::thread;

use crate::cost::CostModel;
use crate::fault::{FaultPlan, RankAbort, RankError};
use crate::sched::{RunnerEngine, TaskGuard};
use crate::state::{CommState, World};
use crate::stats::{RankReport, RunSummary};
use crate::topology::Topology;
use crate::trace::{RunTrace, TraceConfig};
use crate::Comm;

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Physical layout of ranks over NUMA domains and nodes.
    pub topology: Topology,
    /// The α–β communication cost model for the run.
    pub cost: CostModel,
    /// Faults to inject during the run; [`FaultPlan::default`] is a
    /// fault-free run with zero modelling overhead.
    pub fault: FaultPlan,
    /// Stack size per rank-thread. Rank bodies are shallow; a small
    /// stack keeps thousands of simulated ranks cheap.
    pub stack_bytes: usize,
    /// Span/event recording; [`TraceConfig::Off`] (the default) records
    /// nothing and never perturbs virtual time.
    pub trace: TraceConfig,
    /// Worker slots the rank tasks share (see [`RunnerEngine`]); never
    /// affects outputs or virtual time, only host behaviour.
    pub engine: RunnerEngine,
}

impl ClusterConfig {
    /// A SuperMUC-Phase-2-like cluster (Table I) with `ranks` ranks at
    /// 16 ranks/node.
    ///
    /// # Panics
    /// If `ranks` is zero — a cluster needs at least one rank.
    pub fn supermuc_phase2(ranks: usize) -> Self {
        assert!(ranks > 0, "a cluster needs at least one rank, got 0");
        Self {
            topology: Topology::supermuc_phase2(ranks),
            cost: CostModel::supermuc_phase2(),
            fault: FaultPlan::default(),
            stack_bytes: 1 << 20,
            trace: TraceConfig::default(),
            engine: RunnerEngine::default(),
        }
    }

    /// A small test cluster: up to 16 ranks per node, 4 NUMA domains.
    ///
    /// # Panics
    /// If `ranks` is zero — a cluster needs at least one rank.
    pub fn small_cluster(ranks: usize) -> Self {
        assert!(ranks > 0, "a cluster needs at least one rank, got 0");
        Self {
            topology: Topology::new(ranks, 16.min(ranks), 4, 7),
            cost: CostModel::supermuc_phase2(),
            fault: FaultPlan::default(),
            stack_bytes: 1 << 20,
            trace: TraceConfig::default(),
            engine: RunnerEngine::default(),
        }
    }

    /// One shared-memory node (Fig. 4): every rank on the same node,
    /// packed 7 per NUMA domain.
    ///
    /// # Panics
    /// If `ranks` is zero — a cluster needs at least one rank.
    pub fn single_node(ranks: usize) -> Self {
        assert!(ranks > 0, "a cluster needs at least one rank, got 0");
        Self {
            topology: Topology::single_node(ranks),
            cost: CostModel::supermuc_phase2(),
            fault: FaultPlan::default(),
            stack_bytes: 1 << 20,
            trace: TraceConfig::default(),
            engine: RunnerEngine::default(),
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attach a fault plan to the run. The plan is validated against
    /// the topology when the world is built.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Turn span/event recording on or off for the run.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Set the worker-slot count (the host-sized default unless a test
    /// pins one). Outputs, counters, and virtual times are
    /// byte-identical for every count.
    pub fn with_engine(mut self, engine: RunnerEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Total rank count of the configured topology.
    pub fn ranks(&self) -> usize {
        self.topology.ranks()
    }
}

/// A failed simulated run: every rank that did not complete, plus the
/// counter reports of those that did (or got far enough to snapshot).
#[derive(Debug)]
pub struct RunError {
    /// One entry per failed rank, ordered by rank id. Root causes
    /// (crashes, panics) and collateral [`RankError::PeerFailed`]
    /// entries are both present; filter with [`RunError::root_causes`].
    pub failed: Vec<RankError>,
    /// Counter snapshots of the ranks that returned normally.
    pub completed_reports: Vec<RankReport>,
}

impl RunError {
    /// Ids of every rank that failed, in ascending order.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.failed.iter().map(|e| e.rank()).collect()
    }

    /// The failures that started the cascade (crashes and panics, not
    /// peers merely caught blocking on a dead rank).
    pub fn root_causes(&self) -> impl Iterator<Item = &RankError> {
        self.failed.iter().filter(|e| e.is_root_cause())
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rank(s) failed:", self.failed.len())?;
        for e in &self.failed {
            write!(f, " [{e}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

/// A completed traced run: every rank's result and report, plus the
/// aggregated [`RunTrace`] (empty when the config had tracing off).
#[derive(Debug)]
pub struct TracedRun<R> {
    /// One `(value, report)` pair per rank, ordered by rank.
    pub ranks: Vec<(R, RankReport)>,
    /// The recorded trace (empty when tracing was off).
    pub trace: RunTrace,
    /// See [`PartialRun::park_backstops`].
    pub park_backstops: u64,
    /// See [`PartialRun::parks`].
    pub parks: u64,
    /// See [`PartialRun::wakes`].
    pub wakes: u64,
}

/// Run `f` once per rank on its own thread; returns each rank's result
/// and counter report ordered by rank, or a [`RunError`] naming every
/// rank that failed.
///
/// A failing rank (injected crash, panic in `f`) poisons the world so
/// no surviving rank deadlocks inside a collective; survivors that were
/// blocked on the dead rank surface as
/// [`RankError::PeerFailed`] collateral entries.
pub fn try_run<R, F>(cfg: &ClusterConfig, f: F) -> Result<Vec<(R, RankReport)>, RunError>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    try_run_traced(cfg, f).map(|t| t.ranks)
}

/// [`try_run`] plus the aggregated per-rank trace. With
/// [`TraceConfig::Off`] the trace is empty and the run is bit-identical
/// to [`try_run`]; with [`TraceConfig::On`] every rank's spans and
/// events are collected into a [`RunTrace`] ready for export.
pub fn try_run_traced<R, F>(cfg: &ClusterConfig, f: F) -> Result<TracedRun<R>, RunError>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    let partial = try_run_partial(cfg, f);
    let mut ok = Vec::with_capacity(partial.ranks.len());
    let mut failed = Vec::new();
    let mut completed_reports = Vec::new();
    for r in partial.ranks {
        match r {
            Ok((v, report)) => {
                completed_reports.push(report.clone());
                ok.push((v, report));
            }
            Err(e) => failed.push(e),
        }
    }
    if failed.is_empty() {
        Ok(TracedRun {
            ranks: ok,
            trace: partial.trace,
            park_backstops: partial.park_backstops,
            parks: partial.parks,
            wakes: partial.wakes,
        })
    } else {
        failed.sort_by_key(|e| e.rank());
        Err(RunError {
            failed,
            completed_reports,
        })
    }
}

/// A run in which some ranks may have failed while others completed:
/// the per-rank outcomes, ordered by rank, plus the aggregated trace.
/// This is the shape shrink-and-recover runs need —
/// [`RunError`] would discard the survivors' values.
#[derive(Debug)]
pub struct PartialRun<R> {
    /// One entry per rank, ordered by rank id: `Ok((value, report))`
    /// for ranks that returned, the structured [`RankError`] otherwise.
    pub ranks: Vec<Result<(R, RankReport), RankError>>,
    /// The recorded trace (empty when tracing was off).
    pub trace: RunTrace,
    /// Parks that the scheduler's timed backstop ended instead of a
    /// wake. A host observation, outside the determinism contract:
    /// nonzero means a rank sat blocked for a whole backstop period — a
    /// lost wake-up papered over by the timer, or a host stalled for
    /// that long.
    pub park_backstops: u64,
    /// Parks that gave their worker slot up, over all ranks: each is an
    /// OS-thread handoff out and one back in. A host observation like
    /// `park_backstops`; a collective costs a rank at most one, an
    /// exit-barrier collective (the borrowed all-to-all) at most two.
    pub parks: u64,
    /// Wakes that found their task parked and queued it. Every counted
    /// park is ended by one of these or by a backstop firing, so
    /// `parks <= wakes + park_backstops`; a wake can also reach a task
    /// that has not started yet (a failure registered ahead of its
    /// first instruction), hence not `==`.
    pub wakes: u64,
}

impl<R> PartialRun<R> {
    /// `(rank, value, report)` for every rank that completed.
    pub fn completed(&self) -> impl Iterator<Item = (usize, &R, &RankReport)> {
        self.ranks
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().ok().map(|(v, rep)| (i, v, rep)))
    }

    /// Errors of every rank that failed, ordered by rank id.
    pub fn failures(&self) -> impl Iterator<Item = &RankError> {
        self.ranks.iter().filter_map(|r| r.as_ref().err())
    }
}

/// Run `f` once per rank and report *every* rank's individual outcome,
/// keeping survivor values even when other ranks failed. Used by
/// recovery-policy sorts, where losing a rank is an expected outcome
/// rather than a run-level error.
pub fn try_run_partial<R, F>(cfg: &ClusterConfig, f: F) -> PartialRun<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    let world = World::new(
        cfg.topology.clone(),
        cfg.cost.clone(),
        cfg.fault.clone(),
        cfg.trace,
        cfg.engine,
    );
    let p = cfg.ranks();
    let root = CommState::new(world.clone(), (0..p).collect());
    let f = &f;

    let results: Vec<Result<(R, RankReport), RankError>> = thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let world = world.clone();
                let state = root.clone();
                thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(cfg.stack_bytes)
                    .spawn_scoped(s, move || {
                        // Hold a worker slot for the task's whole life;
                        // blocking points inside release and re-acquire
                        // it, and the guard frees it on return *or*
                        // unwind.
                        let _slot = TaskGuard::enter(world.sched.clone(), rank);
                        let comm = Comm::new(state, rank);
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                        match out {
                            Ok(v) => {
                                let report = comm.report();
                                Ok((v, report))
                            }
                            Err(e) => {
                                let err = classify_panic(rank, e);
                                // With recovery armed, a crashed rank
                                // is handled by its survivors
                                // (shrink-and-recover); only
                                // unrecoverable failures poison the run.
                                let recoverable = world.recovery_armed()
                                    && matches!(err, RankError::Crashed { .. });
                                if !recoverable {
                                    world.poison_now();
                                }
                                Err(err)
                            }
                        }
                    })
                    .expect("spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread not killed externally"))
            .collect()
    });

    PartialRun {
        ranks: results,
        trace: RunTrace::collect(&world),
        park_backstops: world.sched.backstop_firings(),
        parks: world.sched.parks(),
        wakes: world.sched.wakes(),
    }
}

/// Turn a rank thread's panic payload into a structured [`RankError`].
fn classify_panic(rank: usize, payload: Box<dyn std::any::Any + Send>) -> RankError {
    match payload.downcast::<RankAbort>() {
        Ok(abort) => abort.0,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            RankError::Panicked { rank, message }
        }
    }
}

/// Run `f` once per rank on its own thread; returns each rank's result
/// and counter report, ordered by rank.
///
/// # Panics
/// If any rank fails, with a message naming every failed rank. Use
/// [`try_run`] to handle failures structurally.
pub fn run<R, F>(cfg: &ClusterConfig, f: F) -> Vec<(R, RankReport)>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    try_run(cfg, f).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run`] plus the aggregated trace; panics on rank failure.
pub fn run_traced<R, F>(cfg: &ClusterConfig, f: F) -> TracedRun<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    try_run_traced(cfg, f).unwrap_or_else(|e| panic!("{e}"))
}

/// Convenience: run and fold the rank reports into a [`RunSummary`].
pub fn run_summarized<R, F>(cfg: &ClusterConfig, f: F) -> (Vec<R>, RunSummary)
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    let pairs = run(cfg, f);
    let reports: Vec<RankReport> = pairs.iter().map(|(_, r)| r.clone()).collect();
    let values = pairs.into_iter().map(|(v, _)| v).collect();
    (values, RunSummary::from_reports(&reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn runs_every_rank_in_order() {
        let out = run(&ClusterConfig::small_cluster(7), |c| c.rank() * 2);
        let vals: Vec<usize> = out.into_iter().map(|(v, _)| v).collect();
        assert_eq!(vals, vec![0, 2, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn summary_reflects_traffic() {
        let (_, summary) = run_summarized(&ClusterConfig::small_cluster(4), |c| {
            c.allreduce_sum(vec![1u64; 128]);
        });
        assert!(summary.makespan_ns > 0);
        assert_eq!(summary.collectives, 4);
    }

    #[test]
    fn rank_panic_propagates_without_deadlock() {
        let res = std::panic::catch_unwind(|| {
            run(&ClusterConfig::small_cluster(4), |c| {
                if c.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                // Other ranks block in a collective; poison must free them.
                c.barrier();
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn try_run_names_the_panicking_rank() {
        let err = try_run(&ClusterConfig::small_cluster(4), |c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
            c.barrier();
        })
        .unwrap_err();
        let roots: Vec<_> = err.root_causes().collect();
        assert_eq!(roots.len(), 1);
        assert!(
            matches!(roots[0], RankError::Panicked { rank: 2, message } if message.contains("exploded"))
        );
        // Every failed rank is reported, root cause included.
        assert!(err.failed_ranks().contains(&2));
        for e in &err.failed {
            if !e.is_root_cause() {
                assert!(matches!(e, RankError::PeerFailed { .. }));
            }
        }
    }

    #[test]
    fn try_run_reports_injected_crash() {
        let cfg =
            ClusterConfig::small_cluster(4).with_fault(FaultPlan::default().with_crash(1, 10));
        let err = try_run(&cfg, |c| {
            c.charge(crate::Work::Compares(1 << 20));
            c.barrier();
        })
        .unwrap_err();
        let roots: Vec<_> = err.root_causes().collect();
        assert_eq!(roots.len(), 1);
        assert!(matches!(roots[0], RankError::Crashed { rank: 1, .. }));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_cluster_is_rejected() {
        let _ = ClusterConfig::small_cluster(0);
    }

    #[test]
    fn single_rank_cluster_works() {
        let out = run(&ClusterConfig::small_cluster(1), |c| {
            c.barrier();
            let s = c.allreduce_sum(vec![5]);
            s[0]
        });
        assert_eq!(out[0].0, 5);
    }

    #[test]
    fn deterministic_virtual_time() {
        let go = || {
            let (_, s) = run_summarized(&ClusterConfig::supermuc_phase2(32), |c| {
                let xs = c.allgather(c.rank() as u64);
                c.allreduce_sum(xs)
            });
            s.makespan_ns
        };
        assert_eq!(go(), go());
    }

    /// A straggler and a degraded-link window replay exactly, through
    /// collectives and the pairwise exchange (one non-empty segment per
    /// rank) alike, and cost virtual time over the clean run.
    #[test]
    fn deterministic_virtual_time_under_faults() {
        let plan = FaultPlan::default()
            .with_straggler(3, 2.5)
            .with_link_fault(crate::LinkFault {
                class: None,
                extra_alpha_ns: 4_000.0,
                beta_factor: 3.0,
                from_ns: 0,
                until_ns: 50_000,
            });
        let go = |plan: &FaultPlan| {
            let cfg = ClusterConfig::supermuc_phase2(32).with_fault(plan.clone());
            let (_, s) = run_summarized(&cfg, |c| {
                let xs = c.allgather(c.rank() as u64);
                c.charge(crate::Work::Compares(10_000));
                let peer = c.rank() ^ 1;
                let mine = vec![c.rank() as u64; 64];
                let mut segs: Vec<&[u64]> = vec![&[]; c.size()];
                segs[peer] = &mine;
                let algo = crate::AllToAllAlgo::StagedKWay { k: c.size() };
                let got = c.exchange(&segs[..], algo).into_data();
                assert_eq!(got, vec![peer as u64; 64]);
                c.allreduce_sum(xs)
            });
            s.makespan_ns
        };
        let faulty = go(&plan);
        assert_eq!(faulty, go(&plan));
        assert!(faulty > go(&FaultPlan::default()));
    }
}
