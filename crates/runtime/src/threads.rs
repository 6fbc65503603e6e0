//! Intra-rank host threading: the fork–join primitives and the
//! per-rank [`ThreadPool`] behind hybrid rank×thread execution.
//!
//! Ranks in this runtime are OS threads whose *virtual* time advances
//! only through explicit charges; host threads spent inside a rank are
//! invisible to the cost model. The [`ThreadPool`] owned by each
//! [`crate::Comm`] carries a configurable *thread budget* (default 1)
//! that local compute phases may spend on the deterministic fork–join
//! primitives below. Everything here is order-restoring and uses fixed
//! split points, so results are byte-identical for every budget —
//! threads change host wall-clock, never output or virtual time.
//!
//! The sanctioned dependency set has no task scheduler, so parallel
//! kernels recurse with an explicit budget: every [`join`] gives half
//! the budget to a spawned scoped thread and keeps the rest. The
//! recursion depth is `O(log threads)`, so thread-spawn overhead stays
//! negligible next to the `O(n)`-sized leaf work.

use std::cell::Cell;

/// The host's available parallelism, probed once per process —
/// `std::thread::available_parallelism` reads the CPU affinity mask on
/// every call (and allocates for it), which would show up in the
/// allocation-budget guard and in per-iteration hot paths.
pub fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |v| v.get()))
}

/// Run `a` and `b`, possibly in parallel. `threads` is the total budget
/// for both branches; with a budget of one (or on spawn failure) both
/// run sequentially on the caller.
pub fn join<RA, RB, A, B>(threads: usize, a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce(usize) -> RA + Send,
    B: FnOnce(usize) -> RB + Send,
{
    if threads <= 1 {
        return (a(1), b(1));
    }
    let tb = threads / 2;
    let ta = threads - tb;
    std::thread::scope(|s| {
        let hb = s.spawn(move || b(tb));
        let ra = a(ta);
        let rb = hb.join().expect("forked branch panicked");
        (ra, rb)
    })
}

/// Run one closure per element of `items`, in parallel up to `threads`.
/// Returns outputs in input order regardless of the budget.
pub fn map_parallel<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    // Distribute items round-robin into one bucket per worker, run the
    // buckets on scoped threads, then restore input order.
    let mut buckets: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push((i, item));
    }
    let f = &f;
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                s.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Per-rank intra-rank thread budget, owned by [`crate::Comm`].
///
/// The pool runs nothing itself and keeps no worker threads alive
/// (the `dhs-shm` kernels spawn scoped threads on demand through
/// [`join`]/[`map_parallel`]); it is the *authority* on how many host
/// threads the local phases of this rank may use. Algorithms read the
/// budget once per phase and pass it down to those kernels: the local
/// sort and the merge fork, the splitter search's histogram pass does
/// not.
///
/// The budget has no effect on the virtual clock: charges are computed
/// from data sizes only, so every budget produces byte-identical
/// output *and* byte-identical virtual time (the hybrid-execution
/// determinism contract, pinned by `tests/hybrid_threads.rs`).
#[derive(Debug)]
pub struct ThreadPool {
    budget: Cell<usize>,
    /// Host-thread ceiling imposed by the runner (see
    /// [`ThreadPool::set_host_cap`]); `usize::MAX` means uncapped.
    host_cap: Cell<usize>,
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadPool {
    /// A serial pool (budget 1): every kernel runs on the rank thread.
    pub fn new() -> Self {
        Self {
            budget: Cell::new(1),
            host_cap: Cell::new(usize::MAX),
        }
    }

    /// Set the thread budget for subsequent local phases. A budget of
    /// `n` means a phase may occupy up to `n` host threads (including
    /// the rank thread itself).
    ///
    /// # Panics
    /// Panics when `budget` is 0 — a rank always has at least itself.
    pub fn configure(&self, budget: usize) {
        assert!(budget >= 1, "thread budget must be at least 1");
        self.budget.set(budget);
    }

    /// The current thread budget (≥ 1).
    pub fn budget(&self) -> usize {
        self.budget.get()
    }

    /// Cap the *execution* fan-out of this rank's local phases at
    /// `cap` host threads. Set by the runner so that the ranks that
    /// can run at once (`min(workers, ranks)`) cannot oversubscribe
    /// the host with their hybrid thread budgets: each gets its share
    /// of the cores. Like the host-parallelism clamp, this can never
    /// change results — only the configured [`Self::budget`] is part
    /// of the algorithm-selection contract.
    ///
    /// # Panics
    /// Panics when `cap` is 0 — a rank always has at least itself.
    pub fn set_host_cap(&self, cap: usize) {
        assert!(cap >= 1, "host cap must be at least 1");
        self.host_cap.set(cap);
    }

    /// The runner-imposed host-thread ceiling (`usize::MAX` for a
    /// pool no communicator owns).
    pub fn host_cap(&self) -> usize {
        self.host_cap.get()
    }

    /// The budget clamped to the host's available parallelism and the
    /// runner's [`Self::host_cap`]: the fan-out local phases should
    /// actually *execute* with. Spawning more threads than cores only
    /// adds scheduling overhead, so dispatch sites pass this to the
    /// kernels while the configured [`Self::budget`] governs algorithm
    /// selection and tracing. The clamp can never change results:
    /// every kernel produces identical output for every thread count.
    pub fn exec_budget(&self) -> usize {
        self.budget
            .get()
            .min(host_parallelism())
            .min(self.host_cap.get())
    }

    /// Whether local phases may fan out (`budget() > 1`).
    pub fn is_parallel(&self) -> bool {
        self.budget.get() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both_branches() {
        let (a, b) = join(4, |_| 1 + 1, |_| "x");
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn join_sequential_budget() {
        let (a, b) = join(1, |t| t, |t| t);
        assert_eq!((a, b), (1, 1));
    }

    #[test]
    fn join_splits_budget() {
        let (a, b) = join(8, |t| t, |t| t);
        assert_eq!(a + b, 8);
    }

    #[test]
    fn map_parallel_preserves_order() {
        let out = map_parallel(4, (0..100).collect::<Vec<u64>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn map_parallel_empty_and_single() {
        assert_eq!(map_parallel(4, Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(map_parallel(4, vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn pool_defaults_serial_and_configures() {
        let pool = ThreadPool::new();
        assert_eq!(pool.budget(), 1);
        assert!(!pool.is_parallel());
        pool.configure(4);
        assert_eq!(pool.budget(), 4);
        assert!(pool.is_parallel());
    }

    #[test]
    #[should_panic(expected = "thread budget")]
    fn pool_rejects_zero_budget() {
        ThreadPool::new().configure(0);
    }

    #[test]
    fn host_cap_clamps_execution_not_configuration() {
        let pool = ThreadPool::new();
        pool.configure(8);
        assert_eq!(pool.host_cap(), usize::MAX);
        pool.set_host_cap(2);
        assert_eq!(pool.host_cap(), 2);
        assert_eq!(pool.exec_budget(), 8.min(host_parallelism()).min(2));
        // The configured budget (the algorithm-selection contract) is
        // untouched by the cap.
        assert_eq!(pool.budget(), 8);
    }

    #[test]
    #[should_panic(expected = "host cap")]
    fn pool_rejects_zero_host_cap() {
        ThreadPool::new().set_host_cap(0);
    }
}
