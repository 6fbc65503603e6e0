//! Shared data plane backing a communicator.
//!
//! Every communicator owns two `CollectiveCell`s: generation-counted
//! rendezvous through which every exchange of data moves, used
//! alternately (generation `g` meets in cell `g % 2`). There is no
//! second transport: a pairwise step is a personalized exchange with
//! one non-empty segment. Payloads are type-erased so one cell serves
//! collectives of any element type. Beside the cells, a communicator
//! owns the scratch its personalized exchanges are routed and priced
//! with, reused by each exchange's combine.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::comm::Routing;
use crate::cost::CostModel;
use crate::fault::{FaultPlan, RankAbort, RankError};
use crate::recover::AgreeCell;
use crate::sched::{RunnerEngine, Scheduler};
use crate::stats::RankLocal;
use crate::topology::{worst_link_among, Placement, Topology};
use crate::trace::{TraceConfig, TraceSink};

/// Machine-wide immutable context shared by all communicators of a run.
pub struct World {
    /// Physical layout of ranks over NUMA domains and nodes.
    pub topology: Topology,
    /// The α–β communication cost model in effect.
    pub cost: CostModel,
    /// Fault-injection plan in effect (inert by default).
    pub fault: FaultPlan,
    /// Set when any rank panics so the rest can abort instead of
    /// deadlocking inside a collective.
    pub poison: AtomicBool,
    /// Per-global-rank clock and counters.
    pub locals: Vec<Arc<RankLocal>>,
    /// Per-global-rank trace sinks; `None` when tracing is off, so the
    /// record paths reduce to one `Option` check.
    pub traces: Option<Vec<TraceSink>>,
    /// Number of ranks currently inside a recoverable (shrink-policy)
    /// section. While > 0, a registered rank failure interrupts blocked
    /// survivors with a [`crate::recover::RecoveryInterrupt`] instead of
    /// poisoning the run.
    recovery_armed: AtomicUsize,
    /// Global ranks known dead, with their root causes. Written only by
    /// the failing rank itself, as its crash deadline fires: a rank
    /// still running is never registered.
    failed: Mutex<BTreeMap<usize, RankError>>,
    /// Rendezvous state for the fault-aware survivor agreement
    /// (see [`crate::recover`]).
    pub(crate) agree: AgreeCell,
    /// The rank scheduler: every blocking wait parks on it and every
    /// event is published through its wakes (see [`crate::sched`]).
    pub(crate) sched: Arc<Scheduler>,
}

impl World {
    /// A world over `topology` whose ranks share `engine`'s worker
    /// slots. `fault` must already fit the topology (the launchers
    /// validate it).
    pub fn new(
        topology: Topology,
        cost: CostModel,
        fault: FaultPlan,
        trace: TraceConfig,
        engine: RunnerEngine,
    ) -> Arc<Self> {
        crate::recover::install_quiet_panic_hook();
        let ranks = topology.ranks();
        let locals = (0..ranks).map(|_| Arc::new(RankLocal::default())).collect();
        let traces = trace
            .is_on()
            .then(|| (0..ranks).map(|_| TraceSink::default()).collect());
        Arc::new(Self {
            topology,
            cost,
            fault,
            poison: AtomicBool::new(false),
            locals,
            traces,
            recovery_armed: AtomicUsize::new(0),
            failed: Mutex::new(BTreeMap::new()),
            agree: AgreeCell::default(),
            sched: Scheduler::new(ranks, engine.workers),
        })
    }

    /// Whether any rank has failed (collectives must abort).
    pub fn poisoned(&self) -> bool {
        self.poison.load(Ordering::Relaxed)
    }

    /// Mark the run as failed so blocked peers abort; wakes every
    /// parked rank, so the abort is event-driven rather than waiting
    /// out a backstop period.
    pub fn poison_now(&self) {
        self.poison.store(true, Ordering::Relaxed);
        self.sched.wake_all();
    }

    /// Abort the calling rank because a peer failed: poison-propagation
    /// panic with a typed payload that [`crate::runner::try_run`]
    /// recognizes as collateral damage rather than a root cause.
    pub(crate) fn abort_peer_failed(&self, me_global: usize) -> ! {
        std::panic::panic_any(RankAbort(RankError::PeerFailed { rank: me_global }))
    }

    /// Whether any rank is currently inside a recoverable section.
    pub fn recovery_armed(&self) -> bool {
        self.recovery_armed.load(Ordering::Relaxed) > 0
    }

    pub(crate) fn arm_recovery(&self) {
        self.recovery_armed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn disarm_recovery(&self) {
        self.recovery_armed.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record a rank failure (idempotent: the first registered root
    /// cause wins). Safe to call whether or not recovery is armed.
    /// Wakes every parked task: blocked survivors re-check their
    /// recovery-interrupt predicate, and the agreement re-derives its
    /// dead set, without waiting out a poll interval.
    pub fn mark_rank_failed(&self, rank: usize, err: RankError) {
        self.failed.lock().entry(rank).or_insert(err);
        self.sched.wake_all();
    }

    /// Whether `rank` has registered its failure.
    pub(crate) fn rank_failed(&self, rank: usize) -> bool {
        self.failed.lock().contains_key(&rank)
    }

    /// Whether a blocked wait over `members` should unwind into the
    /// recovery layer: recovery is armed and a member of this
    /// communicator has failed.
    pub(crate) fn recovery_interrupt(&self, members: &[usize]) -> bool {
        if !self.recovery_armed() {
            return false;
        }
        let failed = self.failed.lock();
        members.iter().any(|r| failed.contains_key(r))
    }
}

/// The cause a blocked wait is asked to unwind for.
pub(crate) enum Unwind {
    /// The world is poisoned: a [`RankError::PeerFailed`] abort.
    Poison,
    /// Recovery is armed and a member of the waited-on communicator
    /// has failed: a [`crate::recover::RecoveryInterrupt`].
    Recovery,
}

/// A mutex-guarded state a rank can block on through
/// [`World::block_until`] (collective cell, survivor agreement).
/// Whoever changes the state under the lock publishes the change by
/// waking the ranks that may be parked on it.
#[derive(Default)]
pub(crate) struct Monitor<S> {
    pub(crate) state: Mutex<S>,
}

/// Type-erased rendezvous for collectives. All member ranks deposit an
/// input; the last arriver combines them (and decides the operation's
/// virtual end time); everyone picks up the shared output; the last
/// departer resets the cell for the next generation it serves.
pub(crate) type CollectiveCell = Monitor<CellState>;

pub(crate) struct CellState {
    /// The generation this cell serves next (its parity is the cell's
    /// index; a reset adds 2). A rank may only enter when it matches
    /// the number of collectives the rank has completed on this
    /// communicator.
    gen: u64,
    arrived: usize,
    departed: usize,
    inputs: Vec<Option<Box<dyn Any + Send>>>,
    clocks: Vec<u64>,
    output: Option<Arc<dyn Any + Send + Sync>>,
    /// Set when this generation's combine panicked: the output will
    /// never appear and no deposited view is read again, so every
    /// waiter may abort at once (the communicator is abandoned).
    combiner_died: bool,
    /// Per-rank virtual completion times.
    end_ns: Vec<u64>,
}

impl CollectiveCell {
    /// A cell for `size` ranks whose first generation is `first_gen`.
    pub fn new(size: usize, first_gen: u64) -> Self {
        Self {
            state: Mutex::new(CellState {
                gen: first_gen,
                arrived: 0,
                departed: 0,
                inputs: (0..size).map(|_| None).collect(),
                clocks: vec![0; size],
                output: None,
                combiner_died: false,
                end_ns: vec![0; size],
            }),
        }
    }
}

/// Context handed to the combine closure of a collective.
pub struct CollectiveCtx<'a> {
    /// The cost model of the run.
    pub cost: &'a CostModel,
    /// The topology of the run.
    pub topology: &'a Topology,
    /// Communicator-rank -> global-rank mapping.
    pub global_ranks: &'a [usize],
    /// Maximum entry clock over all participants: the earliest instant
    /// the collective can start.
    pub enter_max_ns: u64,
    /// Most expensive link class spanned by this communicator; the
    /// standard charge rate for synchronizing collectives.
    pub worst_link: crate::topology::LinkClass,
}

/// Virtual completion times decided by a combine closure.
pub enum EndTimes {
    /// All ranks finish together (synchronizing collectives).
    Uniform(u64),
    /// Rank `i` finishes at `v[i]` (personalized exchanges).
    PerRank(Vec<u64>),
}

/// Backing state of one communicator.
pub struct CommState {
    /// The machine-wide context this communicator lives in.
    pub world: Arc<World>,
    /// Communicator-rank -> global-rank.
    pub global_ranks: Vec<usize>,
    /// Most expensive link class spanned by the members.
    pub worst_link: crate::topology::LinkClass,
    /// Where each member sits (index = communicator rank).
    pub(crate) placement: Vec<Placement>,
    /// The rendezvous cells; generation `g` meets in `cells[g % 2]`.
    cells: [CollectiveCell; 2],
    /// The personalized exchanges' routing scratch, rebuilt by each
    /// exchange's combine. Only a combine takes the lock, and two
    /// combines of one communicator never overlap.
    pub(crate) routing: Mutex<Routing>,
}

impl CommState {
    /// A communicator over `global_ranks` (index = communicator rank).
    pub fn new(world: Arc<World>, global_ranks: Vec<usize>) -> Arc<Self> {
        let n = global_ranks.len();
        assert!(n > 0, "communicator must have at least one member");
        let placement: Vec<Placement> = global_ranks
            .iter()
            .map(|&g| world.topology.placement(g))
            .collect();
        let worst_link = worst_link_among(placement.iter().copied());
        Arc::new(Self {
            world,
            global_ranks,
            worst_link,
            placement,
            cells: [CollectiveCell::new(n, 0), CollectiveCell::new(n, 1)],
            routing: Mutex::default(),
        })
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.global_ranks.len()
    }

    /// Execute one collective as rank `rank` (communicator-local), whose
    /// completed-collective count is `my_gen` — the runtime's only
    /// rendezvous. Every rank deposits `input`; `combine` runs exactly
    /// once per generation, on the last arriver and under the cell
    /// lock, over all inputs ordered by rank; `extract` then runs once
    /// per rank against the shared output (an owned payload passes
    /// `Arc::clone` and no exit barrier). `exit_barrier` reads the
    /// output and says whether this generation holds every rank until
    /// all extracts are over: each rank asks it of the one shared
    /// output, so all of them get the same answer.
    ///
    /// # Two cells, one park
    ///
    /// Generation `g` meets in `cells[g % 2]`, so a rank re-entering
    /// after a collective never meets the cell it just left. With one
    /// cell it did, and usually before the slowest peer had departed:
    /// it parked once for the reset and once more for the output. With
    /// two, the cell of `g + 2` is always ready: a rank reaches `g + 2`
    /// only by returning from `g + 1`, whose output needed every
    /// member's deposit, and a member deposits in `g + 1` only after it
    /// departed `g` — so the last departer of `g` has reset that cell
    /// (to `g + 2`, under its lock) before anyone can ask for it. A
    /// collective costs a rank one park, for the output; the exit
    /// barrier, where the output asks for it, costs the second.
    ///
    /// # Safety contract
    ///
    /// Inputs may be **borrowed views of rank-local memory**, so no
    /// rank may unwind or return while a peer can still read its view.
    /// The protocol has four windows **per cell**; every `unsafe` read
    /// in `comm.rs` cites the one it relies on. The two cells share no
    /// state: a generation's inputs, output and counts live in its own
    /// cell from first deposit to reset, and the other cell holds only
    /// what the neighbouring generations own.
    ///
    /// 1. **Before deposit** (the cell serves our generation): by the
    ///    argument above this wait finds its predicate true and never
    ///    blocks; it stays as the guard of that argument. Nothing of
    ///    ours is published, so both unwind causes abort freely.
    /// 2. **Deposited, combine not started** (`arrived < size`): either
    ///    cause first retracts our input under the cell lock, so the
    ///    combine can never read it. The rendezvous then never
    ///    completes; the communicator is abandoned.
    /// 3. **Combine in flight** (`arrived == size`, no output): every
    ///    depositor is blocked in the output wait, so `combine` may
    ///    dereference every view. It never blocks, so it either
    ///    publishes the output or panics; a panic is caught on the
    ///    combining rank, which marks the cell `combiner_died` and
    ///    poisons the world before unwinding on — the views are never
    ///    read again, and every waiter aborts on its next pass instead
    ///    of hanging. Until one of the two happens no unwind cause is
    ///    taken here (a poison raised elsewhere must not pull a view
    ///    from under a live combine). The all-to-all's eager copy runs
    ///    here too, reading every sender's view for every receiver; it
    ///    catches a panicking `T::clone` per receiver and publishes the
    ///    payload in the output for that receiver's `extract` to resume,
    ///    so a record's panic is not the combiner's death.
    /// 4. **Output taken → cell reset**: neither unwind cause is
    ///    taken, so every rank that saw the output departs and the
    ///    last departer resets the cell for generation `g + 2`. When
    ///    the output asks for no exit barrier a rank departs first and
    ///    runs `extract` on its way out; `extract` may read only the
    ///    output's own data, and a panic in it unwinds freely. That is
    ///    every owned-payload collective, and the all-to-all whose
    ///    combine delivered the data itself (the eager path of
    ///    `Comm::alltoallv`): its extract takes the rank's own receive
    ///    buffer and counts out of the output and never reads a view.
    ///    Nobody waits for that reset (window 1), so it wakes nobody: a
    ///    wake there would only pull the ranks already parked for the
    ///    next output, in the other cell, through one more handoff
    ///    each. Under the exit barrier — only the all-to-all's pull
    ///    path asks for it — no rank **leaves** — returns *or unwinds*,
    ///    so no borrowed buffer can be dropped or mutated — until
    ///    **every** rank has finished its `extract`, which may then
    ///    dereference peers' views, as the all-to-all copy-out does;
    ///    the reset's wake serves exactly these waiters, and since none
    ///    of them has left, no member can be parked anywhere else.
    ///    `extract` runs user code there (`T::clone` of a record), so
    ///    it may panic: the panic is caught, the rank serves the exit
    ///    barrier like any other, and only then resumes unwinding —
    ///    its peers finish their copy-outs from its still-live buffer
    ///    and meet the failure at their next blocking point, as
    ///    collateral of this one root cause.
    pub fn collective_view<T, R, Q, F, G>(
        &self,
        rank: usize,
        my_gen: u64,
        input: T,
        combine: F,
        extract: G,
        exit_barrier: fn(&R) -> bool,
    ) -> Q
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, &CollectiveCtx<'_>) -> (R, EndTimes),
        G: FnOnce(&Arc<R>) -> Q,
    {
        let world = &self.world;
        let me_global = self.global_ranks[rank];
        let me = &world.locals[me_global];
        let enter_ns = me.now_ns();
        let size = self.size();

        // Window 1: our generation's cell, already reset for it.
        let cell = &self.cells[(my_gen % 2) as usize];
        let st = cell.state.lock();
        let mut st = self.wait_cell(cell, me_global, st, |st| st.gen == my_gen, |_, _| true);
        debug_assert!(st.inputs[rank].is_none(), "double entry into collective");
        st.inputs[rank] = Some(Box::new(input));
        st.clocks[rank] = enter_ns;
        st.arrived += 1;

        if st.arrived == size {
            // Last arriver: combine (window 3).
            let combined = panic::catch_unwind(AssertUnwindSafe(|| {
                let inputs: Vec<T> = st
                    .inputs
                    .iter_mut()
                    .map(|slot| {
                        *slot
                            .take()
                            .expect("all ranks deposited")
                            .downcast::<T>()
                            .expect("uniform collective payload type")
                    })
                    .collect();
                let enter_max_ns = st.clocks.iter().copied().max().unwrap_or(0);
                // Link-degradation windows are sampled at the collective's
                // start time, so a whole collective sees one (deterministic)
                // cost model.
                let cost_now = world.fault.cost_at(&world.cost, enter_max_ns);
                let ctx = CollectiveCtx {
                    cost: &cost_now,
                    topology: &world.topology,
                    global_ranks: &self.global_ranks,
                    enter_max_ns,
                    worst_link: self.worst_link,
                };
                combine(inputs, &ctx)
            }));
            let (out, ends) = match combined {
                Ok(done) => done,
                Err(payload) => {
                    // Release the blocked depositors now; this rank
                    // carries the root cause up to the runner.
                    st.combiner_died = true;
                    world.poison_now();
                    self.notify_cell();
                    drop(st);
                    panic::resume_unwind(payload);
                }
            };
            match ends {
                EndTimes::Uniform(t) => st.end_ns.iter_mut().for_each(|e| *e = t),
                EndTimes::PerRank(v) => {
                    assert_eq!(v.len(), size, "PerRank end times must cover every rank");
                    st.end_ns.copy_from_slice(&v);
                }
            }
            st.output = Some(Arc::new(out));
            self.notify_cell();
        } else {
            let has_output = |st: &mut CellState| st.output.is_some();
            st = self.wait_cell(cell, me_global, st, has_output, |st, why| match why {
                // Window 2: pull our input back before unwinding.
                _ if st.arrived < size => {
                    st.inputs[rank] = None;
                    st.arrived -= 1;
                    true
                }
                // Window 3: the output appears unless the combiner
                // died, which it reports itself (under poison).
                Unwind::Poison => st.combiner_died,
                Unwind::Recovery => false,
            });
        }

        let out = st
            .output
            .as_ref()
            .expect("output present")
            .clone()
            .downcast::<R>()
            .expect("uniform collective result type");
        let end = st.end_ns[rank];

        // Window 4. Extract runs outside the lock (it may copy a lot of
        // data): after departing when nothing borrowed is read, before
        // departing — and then holding every rank until the cell's
        // reset — when peers read views of this rank's memory.
        let result = if exit_barrier(&out) {
            drop(st);
            let extracted = panic::catch_unwind(AssertUnwindSafe(|| extract(&out)));
            let mut st = cell.state.lock();
            if self.depart(&mut st) {
                self.notify_cell();
            } else {
                drop(self.wait_cell(cell, me_global, st, |st| st.gen != my_gen, |_, _| false));
            }
            extracted.unwrap_or_else(|payload| panic::resume_unwind(payload))
        } else {
            self.depart(&mut st);
            drop(st);
            extract(&out)
        };

        // Advance this rank's clock to the collective's end and account
        // the waiting + transfer as communication time.
        me.advance_to_ns(end);
        me.counters
            .comm_ns
            .fetch_add(end.saturating_sub(enter_ns), Ordering::Relaxed);
        me.counters.collectives.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Count one departure; the last departer resets the cell for the
    /// next generation of its parity and reports `true`.
    fn depart(&self, st: &mut CellState) -> bool {
        st.departed += 1;
        let last = st.departed == self.size();
        if last {
            st.arrived = 0;
            st.departed = 0;
            st.output = None;
            st.gen += 2;
        }
        last
    }

    /// Block on `cell` until `ready` (see [`World::block_until`]).
    fn wait_cell<'a>(
        &'a self,
        cell: &'a CollectiveCell,
        me_global: usize,
        st: MutexGuard<'a, CellState>,
        mut ready: impl FnMut(&mut CellState) -> bool,
        may_unwind: impl FnMut(&mut CellState, Unwind) -> bool,
    ) -> MutexGuard<'a, CellState> {
        let (world, members) = (&self.world, &self.global_ranks);
        let ready = |st: &mut CellState| ready(st).then_some(());
        let (st, ()) = world.block_until(me_global, members, cell, st, ready, may_unwind);
        st
    }

    /// Publish a state change of one of the cells by waking the
    /// members. Call sites hold the cell's lock, so a waiter's token is
    /// always read either before or after the state change it guards.
    fn notify_cell(&self) {
        self.world.sched.wake(&self.global_ranks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::TaskGuard;
    use crate::topology::Topology;
    use std::time::Duration;

    fn world(p: usize) -> Arc<World> {
        World::new(
            Topology::new(p, p.min(16), 4, 7),
            CostModel::default(),
            FaultPlan::default(),
            TraceConfig::Off,
            RunnerEngine::default(),
        )
    }

    /// A rank may block only while it holds a worker slot, as the
    /// runner's rank threads do.
    fn slot(w: &World, rank: usize) -> TaskGuard {
        TaskGuard::enter(w.sched.clone(), rank)
    }

    /// An owned-payload collective through the single entry point: the
    /// extract is the identity on the shared output, no exit barrier.
    fn owned<T, R>(
        st: &CommState,
        rank: usize,
        gen: u64,
        input: T,
        combine: impl FnOnce(Vec<T>, &CollectiveCtx<'_>) -> (R, EndTimes),
    ) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
    {
        st.collective_view(rank, gen, input, combine, Arc::clone, |_| false)
    }

    #[test]
    fn single_rank_collective_combines_immediately() {
        let w = world(1);
        let st = CommState::new(w, vec![0]);
        let out = owned(&st, 0, 0, 41u32, |inputs, ctx| {
            assert_eq!(inputs, vec![41]);
            (inputs[0] + 1, EndTimes::Uniform(ctx.enter_max_ns + 5))
        });
        assert_eq!(*out, 42);
        assert_eq!(st.world.locals[0].now_ns(), 5);
    }

    #[test]
    fn multi_rank_collective_sums_and_syncs_clocks() {
        let w = world(4);
        let st = CommState::new(w.clone(), vec![0, 1, 2, 3]);
        // Give ranks skewed clocks.
        for (r, local) in w.locals.iter().enumerate() {
            local.advance_ns(10 * r as u64);
        }
        std::thread::scope(|s| {
            for r in 0..4 {
                let st = st.clone();
                s.spawn(move || {
                    let _slot = slot(&st.world, r);
                    let out = owned(&st, r, 0, r as u64, |xs, ctx| {
                        (
                            xs.iter().sum::<u64>(),
                            EndTimes::Uniform(ctx.enter_max_ns + 100),
                        )
                    });
                    assert_eq!(*out, 6);
                });
            }
        });
        for local in &w.locals {
            assert_eq!(local.now_ns(), 30 + 100);
        }
    }

    #[test]
    fn cell_is_reusable_across_generations() {
        let w = world(2);
        let st = CommState::new(w, vec![0, 1]);
        std::thread::scope(|s| {
            for r in 0..2 {
                let st = st.clone();
                s.spawn(move || {
                    let _slot = slot(&st.world, r);
                    for g in 0..50u64 {
                        let out = owned(&st, r, g, g, |xs, ctx| {
                            (xs[0] + xs[1], EndTimes::Uniform(ctx.enter_max_ns))
                        });
                        assert_eq!(*out, 2 * g);
                    }
                });
            }
        });
    }

    /// A rank that deposited and waits for a peer who never comes is
    /// released by poison (window 2: its deposit is retracted first).
    #[test]
    fn poison_unblocks_depositor_with_typed_abort() {
        let w = world(2);
        let st = CommState::new(w.clone(), vec![0, 1]);
        let payload = std::thread::scope(|s| {
            let wref = &w;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                wref.poison_now();
            });
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _slot = slot(wref, 0);
                owned(&st, 0, 0, 1u8, |_, ctx| {
                    ((), EndTimes::Uniform(ctx.enter_max_ns))
                });
            }))
            .expect_err("poison must abort the blocked depositor")
        });
        let abort = payload
            .downcast::<RankAbort>()
            .expect("typed abort payload");
        assert_eq!(abort.0, RankError::PeerFailed { rank: 0 });
        let cell = st.cells[0].state.lock();
        assert!(cell.arrived == 0 && cell.inputs[0].is_none());
    }
}
