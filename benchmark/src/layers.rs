//! The traced run's adapter: the sort pipeline replayed from the
//! layers' public functions, with a barrier between phases and an
//! in-memory span around each call into a layer.
//!
//! The replay follows `SortConfig::{local_sort, merge, exchange_algo,
//! kernels, probes_per_round, max_splitter_iterations, partitioning,
//! epsilon, warm_start}` at `threads_per_rank = 1`. It is compared
//! with the whole `histogram_sort` on the same input (output
//! fingerprint, rounds, probes, bytes), so a pipeline that drifts from
//! it is reported as diverged instead of silently mis-attributed.
//! Spans inside the program are a later change (ROADMAP item 1).

use std::time::Instant;

use dhs_core::exchange::{exchange_data, plan_exchange_with};
use dhs_core::{
    balanced_targets, find_splitters_seeded, histogram_sort, histogram_sort_by, perfect_targets,
    slack_for, Kernels, LocalSort, MergeAlgo, Partitioning, SortConfig, SortStats, SplitterOptions,
    WarmStart,
};
use dhs_merge::kway_merge;
use dhs_runtime::{Comm, Work};

use crate::measure::thread_cpu_ns;
use crate::verify::Elem;
use crate::workloads::Workload;

pub const LOCAL_SORT: &str = "core.sort.local_sort";
/// Global shape (`allgather` + targets + slack, and the records' key
/// view): reported under `core.exchange.plan`, as `SortStats::
/// prepare_ns` does.
pub const SHAPE: &str = "core.sort.shape";
pub const SPLITTER: &str = "core.splitter";
pub const PLAN: &str = "core.exchange.plan";
pub const DATA: &str = "core.exchange.data";
pub const MERGE: &str = "merge";
/// The inter-phase barriers: skew between ranks plus scheduling.
pub const WAIT: &str = "runtime.sched.wait";

/// One call into a layer on one rank. Its parent is the traced op
/// whose span list holds it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    /// Wall nanoseconds since the run's origin.
    pub wall_ns: (u64, u64),
    /// Thread-CPU nanoseconds of the rank's thread.
    pub cpu_ns: (u64, u64),
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        (self.wall_ns.1 - self.wall_ns.0) as f64 * 1e-9
    }
    pub fn cpu_s(&self) -> f64 {
        (self.cpu_ns.1 - self.cpu_ns.0) as f64 * 1e-9
    }
}

/// Per-rank span recorder of one traced op.
pub struct Tracer {
    origin: Instant,
    rank: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, rank: usize) -> Self {
        Self {
            origin,
            rank,
            spans: Vec::with_capacity(16),
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = (self.origin.elapsed().as_nanos() as u64, thread_cpu_ns());
        let out = f();
        let end = (self.origin.elapsed().as_nanos() as u64, thread_cpu_ns());
        self.spans.push(Span {
            name,
            rank: self.rank,
            wall_ns: (start.0, end.0),
            cpu_ns: (start.1, end.1),
        });
        out
    }

    fn wait(&mut self, comm: &Comm) {
        self.span(WAIT, || comm.barrier());
    }
}

/// What the fidelity gate compares besides the output itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Searched {
    pub rounds: u32,
    pub probes: u64,
}

/// An element type the benchmark can sort whole and replay by layer.
pub trait Layered: Elem {
    /// Per-rank blocks of the workload's input `index` for `seed`.
    fn generate(w: &Workload, seed: u64, index: usize) -> Vec<Vec<Self>>;

    /// The program's own entry point, untraced.
    fn sort(comm: &Comm, local: &mut Vec<Self>, cfg: &SortConfig) -> SortStats;

    /// The same pipeline from the layers' public functions. `warm` is
    /// the splitter ladder of the previous epoch (empty = cold) and
    /// receives this sort's.
    fn replay(
        comm: &Comm,
        local: &mut Vec<Self>,
        cfg: &SortConfig,
        warm: &mut Vec<u64>,
        tr: &mut Tracer,
    ) -> Searched;
}

fn shape(comm: &Comm, n_local: usize, cfg: &SortConfig) -> (Vec<u64>, u64) {
    let caps: Vec<usize> = comm.allgather(n_local);
    let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
    let p = comm.size();
    let targets = match cfg.partitioning {
        Partitioning::Perfect => perfect_targets(&caps),
        Partitioning::Balanced => balanced_targets(n_total, p),
    };
    (targets, slack_for(n_total, p, cfg.epsilon))
}

fn splitter_options(cfg: &SortConfig, kernels: Kernels) -> SplitterOptions {
    SplitterOptions {
        max_iterations: cfg.max_splitter_iterations,
        probes_per_round: cfg.probes_per_round,
        probe_warm_first: cfg.warm_start == WarmStart::SeededWithBrackets,
        kernels,
        ..SplitterOptions::default()
    }
}

fn sort_keys(comm: &Comm, data: &mut [u64], cfg: &SortConfig, kernels: Kernels) {
    let n = data.len() as u64;
    match cfg.local_sort {
        LocalSort::Comparison => {
            comm.charge(Work::SortElems { n, elem_bytes: 8 });
            data.sort_unstable();
        }
        LocalSort::Radix => {
            comm.charge(Work::MoveBytes(2 * 8 * n * 8));
            comm.charge(Work::RandomAccesses(8 * n / 8));
            kernels.radix_sort_u64(data);
        }
    }
}

impl Layered for u64 {
    fn generate(w: &Workload, seed: u64, index: usize) -> Vec<Vec<u64>> {
        w.keys(seed, index)
    }

    fn sort(comm: &Comm, local: &mut Vec<u64>, cfg: &SortConfig) -> SortStats {
        histogram_sort(comm, local, cfg)
    }

    fn replay(
        comm: &Comm,
        local: &mut Vec<u64>,
        cfg: &SortConfig,
        warm: &mut Vec<u64>,
        tr: &mut Tracer,
    ) -> Searched {
        let kernels = Kernels::for_policy(cfg.kernels);
        tr.span(LOCAL_SORT, || sort_keys(comm, local, cfg, kernels));
        tr.wait(comm);
        let (targets, slack) = tr.span(SHAPE, || shape(comm, local.len(), cfg));
        tr.wait(comm);
        let splitters = tr.span(SPLITTER, || {
            let opts = splitter_options(cfg, kernels);
            find_splitters_seeded(comm, local, &targets, slack, opts, warm)
        });
        *warm = splitters.splitters.iter().map(|s| s.key).collect();
        tr.wait(comm);
        let plan = tr.span(PLAN, || {
            plan_exchange_with(comm, local, &splitters, kernels)
        });
        tr.wait(comm);
        let received = tr.span(DATA, || {
            exchange_data(comm, local, &plan, cfg.exchange_algo)
        });
        tr.wait(comm);
        *local = tr.span(MERGE, || match cfg.merge {
            MergeAlgo::Resort => {
                let mut all = received.into_data();
                sort_keys(comm, &mut all, cfg, kernels);
                all
            }
            algo => {
                let ways = received.runs().filter(|r| !r.is_empty()).count() as u64;
                comm.charge(Work::MergeElems {
                    n: received.total_len() as u64,
                    ways: ways.max(2),
                    elem_bytes: 8,
                });
                kway_merge(algo, &received.as_slices())
            }
        });
        Searched {
            rounds: splitters.iterations,
            probes: splitters.probes,
        }
    }
}

impl Layered for (u64, u64) {
    fn generate(w: &Workload, seed: u64, index: usize) -> Vec<Vec<Self>> {
        w.records(seed, index)
    }

    fn sort(comm: &Comm, local: &mut Vec<Self>, cfg: &SortConfig) -> SortStats {
        histogram_sort_by(comm, local, |r: &(u64, u64)| r.0, cfg)
    }

    fn replay(
        comm: &Comm,
        local: &mut Vec<Self>,
        cfg: &SortConfig,
        warm: &mut Vec<u64>,
        tr: &mut Tracer,
    ) -> Searched {
        let kernels = Kernels::for_policy(cfg.kernels);
        let sort_records = |data: &mut Vec<Self>| {
            comm.charge(Work::SortElems {
                n: data.len() as u64,
                elem_bytes: 16,
            });
            data.sort_by_key(|r| r.0);
        };
        tr.span(LOCAL_SORT, || sort_records(local));
        tr.wait(comm);
        let (targets, slack, keys) = tr.span(SHAPE, || {
            let (targets, slack) = shape(comm, local.len(), cfg);
            let keys: Vec<u64> = local.iter().map(|r| r.0).collect();
            comm.charge(Work::MoveBytes(keys.len() as u64 * 8));
            (targets, slack, keys)
        });
        tr.wait(comm);
        let splitters = tr.span(SPLITTER, || {
            let opts = splitter_options(cfg, kernels);
            find_splitters_seeded(comm, &keys, &targets, slack, opts, warm)
        });
        *warm = splitters.splitters.iter().map(|s| s.key).collect();
        tr.wait(comm);
        let plan = tr.span(PLAN, || {
            plan_exchange_with(comm, &keys, &splitters, kernels)
        });
        tr.wait(comm);
        let received = tr.span(DATA, || {
            comm.charge(Work::MoveBytes(local.len() as u64 * 16));
            let buckets: Vec<Vec<Self>> = plan
                .segments(local)
                .into_iter()
                .map(|seg| seg.to_vec())
                .collect();
            comm.exchange(buckets, cfg.exchange_algo)
        });
        tr.wait(comm);
        *local = tr.span(MERGE, || {
            let mut all = received.into_data();
            sort_records(&mut all);
            all
        });
        Searched {
            rounds: splitters.iterations,
            probes: splitters.probes,
        }
    }
}
