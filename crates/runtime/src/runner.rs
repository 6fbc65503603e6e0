//! Launch a simulated cluster. [`launch`] runs one world and returns
//! its [`RunRecord`] — every rank's outcome, the trace, the scheduler's
//! counters; [`try_run`] and [`run`] are views of that record.
//!
//! Each simulated rank runs its body on an OS thread of its own, driven
//! as a cooperatively-scheduled task over a small worker pool (see
//! [`crate::sched`]): at most `workers` ranks execute at any instant,
//! every blocking point parks the rank until its wake event, and the
//! host never sees thousands of runnable threads — which is what makes
//! p = 1024–8192 grids practical. The worker count
//! ([`RunnerEngine`] on [`ClusterConfig`]) is a host-side setting:
//! outputs and virtual times are byte-identical for every value.
//!
//! # Rank threads outlive their world
//!
//! The threads come from one process-wide pool, as MPI processes are
//! started once and then sort many times: thread `k`, named `rank-{k}`,
//! serves rank `k` of every world. It is spawned the first time some
//! world has a rank `k` and parks on its inbox between worlds, so a run
//! wakes p threads instead of creating and joining p. When thread `k`
//! is still serving another world — two worlds at once, or a rank body
//! that starts a nested one — rank `k` gets a one-off thread (same
//! name, same stack size) that exits when the rank returns. Dispatch
//! never blocks. No runtime state lives on a thread: every [`Comm`]
//! owns its buffer pool and thread budget, so a world's outputs,
//! counters and virtual times do not depend on which worlds ran on the
//! same threads before it.

use std::fmt;
use std::sync::{mpsc, Arc};
use std::thread;

use parking_lot::{Condvar, Mutex};

use crate::cost::CostModel;
use crate::fault::{FaultPlan, FaultPlanError, RankAbort, RankError};
use crate::sched::{RunnerEngine, TaskGuard};
use crate::state::{CommState, World};
use crate::stats::RankReport;
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
            trace: TraceConfig::default(),
            engine: RunnerEngine::default(),
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attach a fault plan to the run. The launchers validate it
    /// against the topology before any rank starts.
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

/// A simulated run that did not complete.
#[derive(Debug)]
pub enum RunError {
    /// The config's fault plan does not fit its topology; no rank
    /// started.
    FaultPlan(FaultPlanError),
    /// One entry per failed rank, ordered by rank id. Root causes
    /// (crashes, panics) and collateral [`RankError::PeerFailed`]
    /// entries are both present; filter with [`RunError::root_causes`].
    Ranks(Vec<RankError>),
}

impl RunError {
    /// Every failed rank's error, ordered by rank id; empty when no
    /// rank started.
    pub fn failed(&self) -> &[RankError] {
        match self {
            RunError::FaultPlan(_) => &[],
            RunError::Ranks(failed) => failed,
        }
    }

    /// Ids of every rank that failed, in ascending order.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.failed().iter().map(|e| e.rank()).collect()
    }

    /// The failures that started the cascade (crashes and panics, not
    /// peers merely caught blocking on a dead rank).
    pub fn root_causes(&self) -> impl Iterator<Item = &RankError> {
        self.failed().iter().filter(|e| e.is_root_cause())
    }
}

impl From<FaultPlanError> for RunError {
    fn from(e: FaultPlanError) -> Self {
        RunError::FaultPlan(e)
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            RunError::Ranks(failed) => {
                write!(f, "{} rank(s) failed:", failed.len())?;
                for e in failed {
                    write!(f, " [{e}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Everything one world did: every rank's outcome, the trace, and the
/// scheduler's counters. [`try_run`] and [`run`] keep only the ranks'
/// values; shrink-and-recover runs read the record whole, since a lost
/// rank is an expected outcome there and the survivors' values count.
#[derive(Debug)]
pub struct RunRecord<R> {
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

impl<R> RunRecord<R> {
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

    /// Every rank's value and report, ordered by rank, or a
    /// [`RunError`] naming every rank that failed.
    pub fn into_result(self) -> Result<Vec<(R, RankReport)>, RunError> {
        let mut ok = Vec::with_capacity(self.ranks.len());
        let mut failed = Vec::new();
        for r in self.ranks {
            match r {
                Ok(pair) => ok.push(pair),
                Err(e) => failed.push(e),
            }
        }
        if failed.is_empty() {
            Ok(ok)
        } else {
            Err(RunError::Ranks(failed))
        }
    }
}

/// Run `f` once per rank, each on its rank thread (see the module
/// docs), and record every rank's outcome; the one launcher that
/// [`try_run`] and [`run`] view. A fault plan that does not fit the
/// topology is returned before any rank starts.
///
/// A failing rank (injected crash, panic in `f`) poisons the world so
/// no surviving rank deadlocks inside a collective; survivors that were
/// blocked on the dead rank surface as [`RankError::PeerFailed`]
/// collateral entries.
pub fn launch<R, F>(cfg: &ClusterConfig, f: F) -> Result<RunRecord<R>, FaultPlanError>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    let p = cfg.ranks();
    cfg.fault.validate(p)?;
    let world = World::new(
        cfg.topology.clone(),
        cfg.cost.clone(),
        cfg.fault.clone(),
        cfg.trace,
        cfg.engine,
    );
    let root = CommState::new(world.clone(), (0..p).collect());
    let slots: Vec<Mutex<Option<RankOutcome<R>>>> = (0..p).map(|_| Mutex::new(None)).collect();

    let rank_body = |rank: usize| {
        // Hold a worker slot for the task's whole life; blocking points
        // inside release and re-acquire it, and the guard frees it on
        // return *or* unwind.
        let _slot = TaskGuard::enter(world.sched.clone(), rank);
        let comm = Comm::new(root.clone(), rank);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
        let outcome = match out {
            Ok(v) => Ok((v, comm.report())),
            Err(e) => {
                let err = classify_panic(rank, e);
                // With recovery armed, a crashed rank is handled by its
                // survivors (shrink-and-recover); only unrecoverable
                // failures poison the run.
                let recoverable =
                    world.recovery_armed() && matches!(err, RankError::Crashed { .. });
                if !recoverable {
                    world.poison_now();
                }
                Err(err)
            }
        };
        *slots[rank].lock() = Some(outcome);
    };
    on_rank_threads(p, &world, &rank_body);

    Ok(RunRecord {
        ranks: slots
            .into_iter()
            .map(|s| s.into_inner().expect("every rank body ran to its end"))
            .collect(),
        trace: RunTrace::collect(&world),
        park_backstops: world.sched.backstop_firings(),
        parks: world.sched.parks(),
        wakes: world.sched.wakes(),
    })
}

/// [`launch`], keeping each rank's value and counter report ordered by
/// rank, or a [`RunError`] naming the bad fault plan or every rank that
/// failed.
pub fn try_run<R, F>(cfg: &ClusterConfig, f: F) -> Result<Vec<(R, RankReport)>, RunError>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    launch(cfg, f)?.into_result()
}

/// [`try_run`] for a run that must complete.
///
/// # Panics
/// On a bad fault plan or any failed rank, with the [`RunError`]'s
/// message.
pub fn run<R, F>(cfg: &ClusterConfig, f: F) -> Vec<(R, RankReport)>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    try_run(cfg, f).unwrap_or_else(|e| panic!("{e}"))
}

/// One rank's outcome in a [`RunRecord`].
type RankOutcome<R> = Result<(R, RankReport), RankError>;

/// Stack size of every rank thread. Rank bodies are shallow; a small
/// stack keeps thousands of simulated ranks cheap.
const RANK_STACK_BYTES: usize = 1 << 20;

/// The rank bodies of one world that have not returned yet.
#[derive(Default)]
struct Latch {
    left: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn wait(&self) {
        let mut left = self.left.lock();
        while *left > 0 {
            self.zero.wait(&mut left);
        }
    }
}

/// One rank's count on its world's [`Latch`]: up when the job is made,
/// down when it drops — after the rank body has returned or unwound,
/// or unrun if no thread could be spawned for it.
struct Pending(Arc<Latch>);

impl Pending {
    fn new(latch: &Arc<Latch>) -> Self {
        *latch.left.lock() += 1;
        Self(latch.clone())
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        let mut left = self.0.left.lock();
        *left -= 1;
        if *left == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// Rank `rank` of one world, handed to a rank thread.
struct Job {
    /// The world's rank body, its borrow erased: callable until
    /// `pending` drops (see [`on_rank_threads`]).
    body: &'static (dyn Fn(usize) + Sync),
    rank: usize,
    pending: Pending,
}

/// Rank thread `k` of the pool: its inbox, and whether it is serving
/// a world.
struct Resident {
    inbox: mpsc::Sender<Job>,
    busy: bool,
}

/// The process-wide rank threads; entry `k` is `None` until some world
/// first has a rank `k`.
static RESIDENTS: Mutex<Vec<Option<Resident>>> = Mutex::new(Vec::new());

/// Run `body(rank)` once for every rank of `0..p`, rank `k` on rank
/// thread `k`, and return when every call has returned. If dispatch
/// itself panics, `world` is poisoned so the ranks already started
/// abort out of their collectives, and they are still waited for.
fn on_rank_threads(p: usize, world: &World, body: &(dyn Fn(usize) + Sync)) {
    struct WaitAll<'w> {
        latch: Arc<Latch>,
        /// The world, until every rank has been dispatched: a world
        /// left short of a rank is poisoned before the wait.
        incomplete: Option<&'w World>,
    }
    impl Drop for WaitAll<'_> {
        fn drop(&mut self) {
            if let Some(world) = self.incomplete {
                world.poison_now();
            }
            self.latch.wait();
        }
    }
    let mut all = WaitAll {
        latch: Arc::default(),
        incomplete: Some(world),
    };
    // SAFETY: only the lifetime changes. `body` is borrowed for this
    // call, and every copy of the erased reference travels in a `Job`
    // that calls it before dropping its `Pending` (`serve`), or never
    // calls it (a job dropped unrun). `all` waits for every `Pending`
    // to drop before this function returns — and, being a drop guard,
    // before it unwinds — so no rank thread can reach `body` after the
    // borrow ends: the argument `std::thread::scope` makes for scoped
    // threads.
    let body = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    for rank in 0..p {
        dispatch(Job {
            body,
            rank,
            pending: Pending::new(&all.latch),
        });
    }
    all.incomplete = None;
}

/// Hand `job` to rank thread `job.rank`: wake it if it is parked, spawn
/// it if it does not exist yet, or spawn a one-off thread if it is
/// serving another world. Never waits for a thread.
fn dispatch(job: Job) {
    let rank = job.rank;
    let inbox = {
        let mut residents = RESIDENTS.lock();
        if residents.len() <= rank {
            residents.resize_with(rank + 1, || None);
        }
        match &mut residents[rank] {
            Some(r) if !r.busy => {
                r.busy = true;
                r.inbox
                    .send(job)
                    .expect("a resident rank thread holds its inbox until its entry is cleared");
                return;
            }
            Some(_) => None,
            entry @ None => {
                let (inbox, rx) = mpsc::channel();
                *entry = Some(Resident { inbox, busy: true });
                Some(rx)
            }
        }
    };
    let resident = inbox.is_some();
    let spawned = thread::Builder::new()
        .name(format!("rank-{rank}"))
        .stack_size(RANK_STACK_BYTES)
        .spawn(move || serve(job, inbox));
    if let Err(e) = spawned {
        if resident {
            RESIDENTS.lock()[rank] = None;
        }
        panic!("cannot spawn rank thread {rank}: {e}");
    }
}

/// A rank thread's life: run `first`, then — a resident, with an
/// `inbox` — every job the inbox brings, parked in between.
fn serve(first: Job, inbox: Option<mpsc::Receiver<Job>>) {
    let resident = inbox.is_some();
    for Job {
        body,
        rank,
        pending,
    } in std::iter::once(first).chain(inbox.into_iter().flatten())
    {
        // Lazily: a one-off must not even build an `Idle`, whose drop
        // would mark the busy resident `rank` free. On an unwind out of
        // `body`, `idle` drops before `pending`, as on return.
        let idle = resident.then(|| Idle(rank));
        body(rank);
        drop(idle);
        drop(pending);
    }
}

/// Marks resident thread `k` idle once its rank body has returned and
/// before the world's latch hears of it, so the world's next run finds
/// the thread free. A body that unwinds ends the thread: its entry is
/// cleared instead, and the next world spawns a new one.
struct Idle(usize);

impl Drop for Idle {
    fn drop(&mut self) {
        let mut residents = RESIDENTS.lock();
        if thread::panicking() {
            residents[self.0] = None;
        } else if let Some(r) = &mut residents[self.0] {
            r.busy = false;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::stats::RunSummary;

    /// [`run`], folded into a [`RunSummary`].
    fn summarized<R: Send>(
        cfg: &ClusterConfig,
        f: impl Fn(&Comm) -> R + Send + Sync,
    ) -> RunSummary {
        RunSummary::from_reports(run(cfg, f).iter().map(|(_, r)| r))
    }

    #[test]
    fn runs_every_rank_in_order() {
        let out = run(&ClusterConfig::small_cluster(7), |c| c.rank() * 2);
        let vals: Vec<usize> = out.into_iter().map(|(v, _)| v).collect();
        assert_eq!(vals, vec![0, 2, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn summary_reflects_traffic() {
        let summary = summarized(&ClusterConfig::small_cluster(4), |c| {
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
        for e in err.failed() {
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

    /// A rank body that starts worlds of its own, alone and then
    /// beside a second world started at once from another host thread.
    /// Rank threads busy elsewhere are stood in for by one-off threads;
    /// a one-off must not leave a later world handed to a thread that
    /// still serves another. Every world completes with its own
    /// results, and a hang fails the test instead of stalling the suite.
    #[test]
    fn concurrent_and_nested_worlds_complete() {
        // Every rank's view of `0 + 1 + … + (p − 1)`.
        fn sum_of_ranks(p: usize) -> Vec<u64> {
            run(&ClusterConfig::small_cluster(p), |c| {
                c.allreduce_sum(vec![c.rank() as u64])[0]
            })
            .into_iter()
            .map(|(v, _)| v)
            .collect()
        }
        // Rank 3 runs two nested worlds back to back while its peers
        // wait for it in an allreduce, still holding their threads.
        fn nested_world() {
            let out = run(&ClusterConfig::small_cluster(6), |c| {
                let inner = (c.rank() == 3).then(|| [sum_of_ranks(5), sum_of_ranks(4)]);
                (c.allreduce_sum(vec![c.rank() as u64])[0], inner)
            });
            for (rank, ((outer, inner), _)) in out.iter().enumerate() {
                assert_eq!(*outer, 15);
                assert_eq!(*inner, (rank == 3).then(|| [vec![10; 5], vec![6; 4]]));
            }
        }
        let (done, finished) = std::sync::mpsc::channel();
        let worlds = std::thread::spawn(move || {
            nested_world();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let nested = s.spawn(|| {
                    barrier.wait();
                    nested_world();
                });
                let plain = s.spawn(|| {
                    barrier.wait();
                    sum_of_ranks(8)
                });
                nested.join().expect("nested world");
                assert_eq!(plain.join().expect("plain world"), vec![28; 8]);
            });
            let _ = done.send(());
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert!(
            !matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "the worlds did not complete within 60 s"
        );
        worlds.join().expect("every world returns its own results");
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
            let s = summarized(&ClusterConfig::supermuc_phase2(32), |c| {
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
            let s = summarized(&cfg, |c| {
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
