//! The execution engine: simulated ranks as *tasks* over a small
//! worker pool, and the one loop every blocking point parks in.
//!
//! Each rank runs on an OS thread of its own for its world's whole run
//! (rank bodies are arbitrary closures, so their stacks must be real;
//! the threads come from the runner's process-wide pool and outlive the
//! world, see [`crate::runner`]), but at most `workers` of them are
//! *unparked* at any instant — the host never sees thousands of
//! runnable threads, which is what makes p = 1024–8192 grids
//! practical. Every blocking point in the runtime — the collective
//! rendezvous and its exit barrier, the recovery agreement — goes
//! through `World::block_until`, which releases the rank's worker slot
//! and parks on a per-task condvar until an event that can change its
//! wake predicate occurs; event sources (a collective's output, the
//! cell reset that ends an exit barrier, poison, failure registration)
//! publish each event once, by waking exactly the affected tasks.
//!
//! # The park/wake protocol
//!
//! Lost wakeups are prevented with a per-task wake *epoch* (an
//! eventcount): a task reads its epoch **before** evaluating the
//! predicate it is about to block on, and `Scheduler::park` returns
//! immediately if the epoch moved in between. Wakers always bump the
//! epoch before inspecting the task's state, so for any interleaving
//! either the parker observes the wake through the predicate or the
//! park is cut short. `token` and `park` are private to this module
//! and `World::block_until` is their only caller, so that order is
//! written once. A generous timed backstop (`PARK_BACKSTOP`) turns a
//! hypothetically missed wake into a slow poll instead of a hang;
//! correctness never depends on the timer, and every firing is counted
//! (`RunRecord::park_backstops`) so a lost wake fails a test instead
//! of reading as a slow run. Consecutive timed-out parks stretch the
//! backstop exponentially (a large-p collective round can occupy
//! seconds of host time, and p tasks re-polling twice a second through
//! it is a wake cascade that grows quadratically with p); any real
//! wake resets the stretch.
//!
//! # Determinism
//!
//! The scheduler decides only *when* a rank executes on the host, never
//! what it computes: virtual clocks advance through explicit charges,
//! and collectives combine rank-ordered deposits — the only way data
//! moves between ranks. The worker count therefore cannot change a
//! result: `workers = p` (no rank ever waits for a slot, the host
//! scheduler arbitrates) and `workers = 1` (one rank executes at a
//! time) are the two extremes, and both produce byte-identical outputs
//! and per-rank virtual makespans (pinned by
//! `tests/engine_equivalence.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::state::{Monitor, Unwind, World};
use crate::threads::host_parallelism;

/// Upper bound a parked task sleeps before re-checking its predicate
/// without an explicit wake. Purely a liveness backstop (see module
/// docs); large enough that steady-state runs never hit it.
const PARK_BACKSTOP: Duration = Duration::from_millis(500);

/// The backstop of a park in a poisoned world: a rank that must abort
/// is never more than this late even if the poison's own wake missed
/// it. Purely a liveness bound for error propagation.
const POISON_POLL: Duration = Duration::from_millis(25);

/// Cap on the exponential backstop stretch: 2^6 × [`PARK_BACKSTOP`]
/// = 32 s bounds the stall a (theoretically impossible) missed wake
/// could cost while keeping long quiescent waits nearly silent.
const BACKOFF_CAP: u32 = 6;

/// Floor for the default worker count. Every park→grant handoff pays
/// the host's thread-wake latency; with a single worker those
/// handoffs serialize (p of them per collective round), and on hosts
/// with slow wakeups (virtualized CPUs especially) the pool idles
/// between grants. A pool of a few in-flight tasks keeps wake chains
/// overlapped — measured on a 1-core host at p = 4096, workers = 16
/// is ~5× faster than workers = 1 — while still parking thousands.
const MIN_WORKERS: usize = 16;

/// How many worker slots the rank tasks of a run share (see
/// [`crate::sched`]): a host-side setting that can never change
/// outputs, counters or virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerEngine {
    /// Maximum number of rank tasks executing concurrently; `0` (the
    /// default) means the host's available parallelism, with a small
    /// floor that keeps wake-handoff chains overlapped. `workers = p`
    /// never makes a rank wait for a slot; `workers = 1` runs one rank
    /// at a time.
    pub workers: usize,
}

impl RunnerEngine {
    /// The default worker count; the same value as
    /// [`RunnerEngine::default`].
    pub fn tasks() -> Self {
        Self::default()
    }
}

/// Lifecycle of one rank task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Holds a worker slot and is executing.
    Running,
    /// Wants to run; waiting in the grant queue for a free slot.
    Queued,
    /// Blocked on a wake condition; holds no slot.
    Parked,
    /// Finished (returned or unwound); holds no slot.
    Done,
}

struct SchedInner {
    /// Number of tasks currently holding a worker slot.
    running: usize,
    /// FIFO of `Queued` tasks awaiting a slot grant.
    queue: VecDeque<usize>,
    state: Vec<TaskState>,
}

/// The worker-pool scheduler; one per [`World`]. Task ids are global
/// ranks.
pub(crate) struct Scheduler {
    workers: usize,
    inner: Mutex<SchedInner>,
    /// One condvar per task so grants and wakes never herd.
    cvs: Vec<Condvar>,
    /// Per-task wake epochs (see module docs).
    epochs: Vec<AtomicU64>,
    /// Per-task count of consecutive timed-out parks, the exponent of
    /// the backstop stretch. Only the owning task writes it.
    backoffs: Vec<AtomicU32>,
    /// Parks the timer brought back instead of a wake (a statistic:
    /// `Relaxed`). Zero in a healthy run — a rank blocked for a whole
    /// backstop period means a lost wake or a host stalled that long.
    backstop_firings: AtomicU64,
    /// Parks that gave the worker slot up (one OS-thread handoff out
    /// and, on the wake, one back in); a park cut short by a raced wake
    /// keeps the slot and is not counted. A statistic: `Relaxed`.
    parks: AtomicU64,
    /// Wakes that found their task parked and queued it; a wake of a
    /// running or already queued task only moves the epoch. `Relaxed`.
    wakes: AtomicU64,
}

impl Scheduler {
    /// A scheduler for `ranks` tasks over `workers` slots (`0` =>
    /// host parallelism).
    pub fn new(ranks: usize, workers: usize) -> Arc<Self> {
        let workers = match workers {
            0 => host_parallelism().max(MIN_WORKERS),
            w => w,
        };
        Arc::new(Self {
            workers,
            inner: Mutex::new(SchedInner {
                running: 0,
                queue: VecDeque::with_capacity(ranks),
                state: vec![TaskState::Parked; ranks],
            }),
            cvs: (0..ranks).map(|_| Condvar::new()).collect(),
            epochs: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            backoffs: (0..ranks).map(|_| AtomicU32::new(0)).collect(),
            backstop_firings: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        })
    }

    /// The worker-slot count (concurrent-execution bound).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// How many parks so far ended by the timed backstop requeueing
    /// the task rather than by a wake.
    pub fn backstop_firings(&self) -> u64 {
        self.backstop_firings.load(Ordering::Relaxed)
    }

    /// How many parks so far released their worker slot.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// How many wakes so far moved a parked task to the grant queue.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Queue every task of `ranks` that is parked, grant what slots are
    /// free, and count the wakes. Callers hold `inner` and have bumped
    /// the epochs already.
    fn queue_parked(&self, inner: &mut SchedInner, ranks: impl Iterator<Item = usize>) {
        let mut woken = 0;
        for r in ranks {
            if inner.state[r] == TaskState::Parked {
                inner.state[r] = TaskState::Queued;
                inner.queue.push_back(r);
                woken += 1;
            }
        }
        self.wakes.fetch_add(woken, Ordering::Relaxed);
        self.pump(inner);
    }

    /// Grant free slots to queued tasks, FIFO. Callers hold `inner`.
    fn pump(&self, inner: &mut SchedInner) {
        while inner.running < self.workers {
            let Some(next) = inner.queue.pop_front() else {
                break;
            };
            debug_assert_eq!(inner.state[next], TaskState::Queued);
            inner.state[next] = TaskState::Running;
            inner.running += 1;
            self.cvs[next].notify_all();
        }
    }

    /// Block until `me` is granted a worker slot; called once when the
    /// rank task starts. A fan-out wake (poison, failure registration)
    /// that lands before this call finds the not-yet-started task
    /// `Parked` and has already queued — or granted — it; queueing it
    /// again would count its slot twice.
    pub fn acquire(&self, me: usize) {
        let mut inner = self.inner.lock();
        if inner.state[me] == TaskState::Parked {
            inner.state[me] = TaskState::Queued;
            inner.queue.push_back(me);
            self.pump(&mut inner);
        }
        while inner.state[me] != TaskState::Running {
            self.cvs[me].wait(&mut inner);
        }
    }

    /// Release `me`'s slot for good; called when the rank task ends
    /// (normal return or unwind).
    pub fn finish(&self, me: usize) {
        let mut inner = self.inner.lock();
        match inner.state[me] {
            TaskState::Running => inner.running -= 1,
            TaskState::Queued => inner.queue.retain(|&r| r != me),
            TaskState::Parked | TaskState::Done => {}
        }
        inner.state[me] = TaskState::Done;
        self.pump(&mut inner);
    }

    /// `me`'s current wake epoch. Must be read *before* the caller
    /// evaluates the predicate it is about to park on.
    fn token(&self, me: usize) -> u64 {
        self.epochs[me].load(Ordering::SeqCst)
    }

    /// Park `me` until an event wakes it (or `backstop` elapses),
    /// then block until it regains a worker slot. Returns immediately —
    /// keeping the slot — if the epoch moved past `token`, i.e. a wake
    /// raced the caller's predicate check.
    fn park(&self, me: usize, token: u64, backstop: Duration) {
        let mut inner = self.inner.lock();
        if self.epochs[me].load(Ordering::SeqCst) != token {
            self.backoffs[me].store(0, Ordering::Relaxed);
            return;
        }
        debug_assert_eq!(inner.state[me], TaskState::Running);
        self.parks.fetch_add(1, Ordering::Relaxed);
        inner.state[me] = TaskState::Parked;
        inner.running -= 1;
        self.pump(&mut inner);
        // Stretch only the default backstop: the poison poll keeps its
        // fixed period, so an abort is never late.
        let shift = self.backoffs[me].load(Ordering::Relaxed).min(BACKOFF_CAP);
        let eff = if backstop >= PARK_BACKSTOP {
            backstop.saturating_mul(1 << shift)
        } else {
            backstop
        };
        let mut by_timer = false;
        loop {
            match inner.state[me] {
                TaskState::Running => {
                    if by_timer {
                        self.backoffs[me].store((shift + 1).min(BACKOFF_CAP), Ordering::Relaxed);
                    } else {
                        self.backoffs[me].store(0, Ordering::Relaxed);
                    }
                    return;
                }
                TaskState::Parked => {
                    let timed_out = self.cvs[me].wait_for(&mut inner, eff).timed_out();
                    if timed_out && inner.state[me] == TaskState::Parked {
                        // Liveness backstop: requeue so a missed wake
                        // degrades to a slow poll, never a hang.
                        by_timer = true;
                        self.backstop_firings.fetch_add(1, Ordering::Relaxed);
                        inner.state[me] = TaskState::Queued;
                        inner.queue.push_back(me);
                        self.pump(&mut inner);
                    }
                }
                TaskState::Queued => self.cvs[me].wait(&mut inner),
                TaskState::Done => unreachable!("a parked task cannot be done"),
            }
        }
    }

    /// Test hook: `me`'s current backstop-stretch exponent.
    #[cfg(test)]
    fn backoff(&self, me: usize) -> u32 {
        self.backoffs[me].load(Ordering::Relaxed)
    }

    /// Wake the tasks of `ranks`: bump their epochs, and schedule the
    /// parked ones under one scheduler-lock acquisition (the collective
    /// completion path wakes every member at once).
    pub fn wake(&self, ranks: &[usize]) {
        for &r in ranks {
            self.epochs[r].fetch_add(1, Ordering::SeqCst);
        }
        self.queue_parked(&mut self.inner.lock(), ranks.iter().copied());
    }

    /// Wake every task (poison and failure registration fan out to all
    /// blocked ranks).
    pub fn wake_all(&self) {
        for e in &self.epochs {
            e.fetch_add(1, Ordering::SeqCst);
        }
        self.queue_parked(&mut self.inner.lock(), 0..self.epochs.len());
    }
}

impl World {
    /// The one park loop: block rank `me_global` on monitor `on` until
    /// `ready` yields a value, returning it with the guard still held.
    /// Every blocking point of the runtime goes through here, so the
    /// no-lost-wakeup order — wake token read **before** the predicate,
    /// park after — is written once.
    ///
    /// A pass that is not ready offers the two unwind causes to
    /// `may_unwind`: poison first, then a failed rank among `members`
    /// while recovery is armed (pass `&[]` for the recovery layer's own
    /// waits). `may_unwind` may first put the guarded state in order
    /// (retract a deposit); on `true` the guard is dropped and the rank
    /// unwinds with the cause's typed panic.
    pub(crate) fn block_until<'a, T, R>(
        &self,
        me_global: usize,
        members: &[usize],
        on: &'a Monitor<T>,
        mut st: MutexGuard<'a, T>,
        mut ready: impl FnMut(&mut T) -> Option<R>,
        mut may_unwind: impl FnMut(&mut T, Unwind) -> bool,
    ) -> (MutexGuard<'a, T>, R) {
        loop {
            // A wake landing after this read cuts the park below short.
            let token = self.sched.token(me_global);
            if let Some(r) = ready(&mut st) {
                return (st, r);
            }
            if self.poisoned() && may_unwind(&mut st, Unwind::Poison) {
                drop(st);
                self.abort_peer_failed(me_global);
            }
            if self.recovery_interrupt(members) && may_unwind(&mut st, Unwind::Recovery) {
                drop(st);
                crate::recover::interrupt();
            }
            // Release the worker slot and park until an event wakes us.
            // The timed backstop is liveness-only; a poisoned world
            // shortens it, so no abort waits out the long backstop.
            drop(st);
            let backstop = if self.poisoned() {
                POISON_POLL
            } else {
                PARK_BACKSTOP
            };
            self.sched.park(me_global, token, backstop);
            st = on.state.lock();
        }
    }
}

/// RAII slot holder for one rank task: acquires a worker slot on
/// construction, releases it permanently on drop (including during an
/// unwind, so a crashed rank frees its slot for survivors).
pub(crate) struct TaskGuard {
    sched: Arc<Scheduler>,
    rank: usize,
}

impl TaskGuard {
    pub fn enter(sched: Arc<Scheduler>, rank: usize) -> Self {
        sched.acquire(rank);
        Self { sched, rank }
    }
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        self.sched.finish(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn never_exceeds_worker_slots() {
        let sched = Scheduler::new(8, 2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for me in 0..8 {
                let sched = sched.clone();
                let live = &live;
                let peak = &peak;
                s.spawn(move || {
                    let _guard = TaskGuard::enter(sched.clone(), me);
                    for _ in 0..20 {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                        // Token read before the self-wake: the park
                        // sees the epoch moved and returns at once,
                        // keeping the slot.
                        let token = sched.token(me);
                        sched.wake(&[me]);
                        sched.park(me, token, Duration::from_secs(5));
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {peak:?} > workers");
    }

    #[test]
    fn wake_all_before_acquire_grants_the_slot_once() {
        // A rank that crashes before its peers' threads have started
        // fans a wake out to tasks that never acquired.
        let sched = Scheduler::new(2, 1);
        sched.wake_all();
        sched.acquire(0);
        sched.finish(0);
        // The single slot must be free again for the late starter.
        sched.acquire(1);
        sched.finish(1);
        assert_eq!(sched.inner.lock().running, 0);
    }

    #[test]
    fn wake_before_park_keeps_the_slot() {
        let sched = Scheduler::new(1, 1);
        sched.acquire(0);
        let token = sched.token(0);
        sched.wake(&[0]);
        // The epoch moved between the predicate check and the park, so
        // the park must return immediately (no wake will ever come).
        sched.park(0, token, Duration::from_secs(60));
        // The slot was never given up: no handoff, nothing to count.
        assert_eq!((sched.parks(), sched.wakes()), (0, 0));
        sched.finish(0);
    }

    #[test]
    fn parked_task_frees_its_slot_for_a_queued_one() {
        let sched = Scheduler::new(2, 1);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let sched0 = sched.clone();
            let sched1 = sched.clone();
            let order = &order;
            s.spawn(move || {
                let _g = TaskGuard::enter(sched0.clone(), 0);
                let token = sched0.token(0);
                order.lock().push("0:parking");
                // Task 1 can only run once this park releases the slot.
                sched0.park(0, token, Duration::from_secs(30));
                order.lock().push("0:resumed");
            });
            s.spawn(move || {
                // Let task 0 grab the single slot first.
                while sched1.token(1) == 0 && order.lock().is_empty() {
                    std::thread::yield_now();
                }
                let _g = TaskGuard::enter(sched1.clone(), 1);
                order.lock().push("1:ran");
                sched1.wake(&[0]);
            });
        });
        let order = order.lock();
        let pos = |s: &str| order.iter().position(|x| *x == s).expect(s);
        assert!(pos("0:parking") < pos("1:ran"));
        assert!(pos("1:ran") < pos("0:resumed"));
    }

    #[test]
    fn backstop_requeues_a_missed_wake() {
        let sched = Scheduler::new(1, 1);
        sched.acquire(0);
        let token = sched.token(0);
        // Nobody will ever wake task 0; the backstop must still bring
        // it back within a bounded time.
        assert_eq!(sched.backstop_firings(), 0);
        sched.park(0, token, Duration::from_millis(10));
        assert_eq!(sched.backstop_firings(), 1);
        // One park, ended by the timer and not by a wake.
        assert_eq!((sched.parks(), sched.wakes()), (1, 0));
        sched.finish(0);
    }

    #[test]
    fn timed_out_parks_back_off_and_real_wakes_reset() {
        let sched = Scheduler::new(1, 1);
        sched.acquire(0);
        assert_eq!(sched.backoff(0), 0);
        // Two consecutive parks that only the timer brings back.
        sched.park(0, sched.token(0), Duration::from_millis(1));
        assert_eq!(sched.backoff(0), 1);
        sched.park(0, sched.token(0), Duration::from_millis(1));
        assert_eq!(sched.backoff(0), 2);
        // A raced wake (epoch moved before the park) resets the
        // stretch — it is a real event, not a quiescent timeout.
        let token = sched.token(0);
        sched.wake(&[0]);
        sched.park(0, token, Duration::from_secs(30));
        assert_eq!(sched.backoff(0), 0);
        sched.finish(0);
    }

    #[test]
    fn one_wake_schedules_every_member() {
        let sched = Scheduler::new(4, 4);
        std::thread::scope(|s| {
            for me in 0..4 {
                let sched = sched.clone();
                s.spawn(move || {
                    let _g = TaskGuard::enter(sched.clone(), me);
                    sched.park(me, sched.token(me), Duration::from_secs(30));
                });
            }
            let sched = sched.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                sched.wake(&[0, 1, 2, 3]);
            });
        });
    }
}
