//! Running one op: a whole (untraced) sort, its traced replay, or a
//! stream of epochs on one long-lived world. Timed windows contain the
//! program only; cloning, digesting and verifying happen outside them.

use std::sync::Mutex;
use std::time::Instant;

use dhs_core::{EpochSorter, SortConfig, SortStats};
use dhs_runtime::{try_run, Comm, CounterSnapshot, PoolStats, RunError};

use crate::layers::{Layered, Searched, Span, Tracer};
use crate::measure::{arm_alloc_counter, disarm_alloc_counter, Stopwatch};
use crate::verify::{digest, RankDigest};
use crate::workloads::{churn_step, Workload};

/// One rank's account of one whole sort.
struct RankOut {
    stats: SortStats,
    counters: CounterSnapshot,
    /// Virtual nanoseconds the op took on this rank.
    clock_ns: u64,
    pool: PoolStats,
}

/// The exact side of one whole sort: virtual clocks and counters that
/// repeat bit-for-bit for the same input on the same commit. Phase
/// times are maxima over ranks, traffic counters sums over ranks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exact {
    pub makespan_ns: u64,
    pub local_sort_ns: u64,
    pub histogram_ns: u64,
    pub prepare_ns: u64,
    pub exchange_ns: u64,
    pub merge_ns: u64,
    pub rounds: u32,
    pub probes: u64,
    pub p2p_messages: u64,
    pub p2p_retries: u64,
    pub collectives: u64,
    pub bytes_inter_node: u64,
    /// Self, intra-NUMA and intra-node bytes, as `RunSummary` folds them.
    pub bytes_intra_node: u64,
    /// Communication and compute nanoseconds on the makespan rank.
    pub comm_ns: u64,
    pub compute_ns: u64,
    pub pool_takes: u64,
    pub pool_hits: u64,
}

impl Exact {
    fn from_ranks(ranks: &[RankOut]) -> Self {
        let slowest = ranks
            .iter()
            .max_by_key(|r| r.clock_ns)
            .expect("a world has at least one rank");
        let mut e = Exact {
            makespan_ns: slowest.clock_ns,
            comm_ns: slowest.counters.comm_ns,
            compute_ns: slowest.counters.compute_ns,
            ..Exact::default()
        };
        for r in ranks {
            e.local_sort_ns = e.local_sort_ns.max(r.stats.local_sort_ns);
            e.histogram_ns = e.histogram_ns.max(r.stats.histogram_ns);
            e.prepare_ns = e.prepare_ns.max(r.stats.prepare_ns);
            e.exchange_ns = e.exchange_ns.max(r.stats.exchange_ns);
            e.merge_ns = e.merge_ns.max(r.stats.merge_ns);
            e.rounds = e.rounds.max(r.stats.iterations);
            e.probes = e.probes.max(r.stats.probes);
            e.p2p_messages += r.counters.p2p_messages;
            e.p2p_retries += r.counters.p2p_retries;
            e.collectives += r.counters.collectives;
            e.bytes_inter_node += r.counters.bytes_inter_node;
            e.bytes_intra_node += r.counters.total_bytes() - r.counters.bytes_inter_node;
            e.pool_takes += r.pool.takes;
            e.pool_hits += r.pool.hits;
        }
        e
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes_inter_node + self.bytes_intra_node
    }
}

/// One untraced call of the program's own entry point.
pub struct Whole {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub exact: Exact,
    pub output: Vec<RankDigest>,
}

/// Wall seconds, process-CPU seconds and (when counted) allocations of
/// one timed window.
type Window = (f64, f64, u64);

/// One replay of the pipeline by layer.
pub struct Traced {
    pub wall_s: f64,
    /// Process CPU of the traced op, the base of `layers.cpu_coverage`.
    pub cpu_s: f64,
    pub spans: Vec<Span>,
    pub output: Vec<RankDigest>,
    pub searched: Searched,
    pub total_bytes: u64,
}

impl Traced {
    /// Whether the replay did what the whole sort did on the same
    /// input: the fidelity gate of the per-layer host metrics.
    pub fn matches(&self, whole: &Whole) -> bool {
        self.output == whole.output
            && self.searched.rounds == whole.exact.rounds
            && self.searched.probes == whole.exact.probes
            && self.total_bytes == whole.exact.total_bytes()
    }
}

/// One op as the report sees it.
pub struct Op {
    /// Which of the run's seeded inputs this op sorted (epoch streams:
    /// the timed epoch's index).
    pub input_index: usize,
    pub input: Vec<RankDigest>,
    pub whole: Whole,
    pub traced: Option<Traced>,
}

/// Hand each rank its block exactly once (`try_run` takes an `Fn`).
struct Slots<T>(Vec<Mutex<Option<Vec<T>>>>);

impl<T> Slots<T> {
    fn new(blocks: Vec<Vec<T>>) -> Self {
        Self(blocks.into_iter().map(|b| Mutex::new(Some(b))).collect())
    }

    fn take(&self, rank: usize) -> Vec<T> {
        self.0[rank]
            .lock()
            .expect("no rank panics while holding its slot")
            .take()
            .expect("each rank takes its block once")
    }
}

/// `histogram_sort` / `histogram_sort_by` in a fresh world, timed
/// around `try_run` — what a user of the crate waits for. With
/// `count_allocs` also returns the allocations inside that window.
pub fn run_whole<T: Layered>(
    w: &Workload,
    cfg: &SortConfig,
    input: Vec<Vec<T>>,
    count_allocs: bool,
) -> Result<(Whole, u64), RunError> {
    let slots = Slots::new(input);
    if count_allocs {
        arm_alloc_counter();
    }
    let sw = Stopwatch::start();
    let ranks = try_run(&w.cluster(), |comm| {
        let mut local = slots.take(comm.rank());
        let stats = T::sort(comm, &mut local, cfg);
        (local, stats, comm.pool().stats())
    });
    let (wall_s, cpu_s) = sw.stop();
    let allocs = if count_allocs {
        disarm_alloc_counter()
    } else {
        0
    };
    let (outs, output): (Vec<RankOut>, Vec<RankDigest>) = ranks?
        .into_iter()
        .map(|((local, stats, pool), report)| {
            let out = RankOut {
                stats,
                counters: report.counters,
                clock_ns: report.clock_ns,
                pool,
            };
            (out, digest(&local))
        })
        .unzip();
    let whole = Whole {
        wall_s,
        cpu_s,
        exact: Exact::from_ranks(&outs),
        output,
    };
    Ok((whole, allocs))
}

/// The layer replay in a fresh world.
pub fn run_traced<T: Layered>(
    w: &Workload,
    cfg: &SortConfig,
    input: Vec<Vec<T>>,
    origin: Instant,
) -> Result<Traced, RunError> {
    let slots = Slots::new(input);
    let sw = Stopwatch::start();
    let ranks = try_run(&w.cluster(), |comm| {
        let mut local = slots.take(comm.rank());
        let mut tr = Tracer::new(origin, comm.rank());
        let searched = T::replay(comm, &mut local, cfg, &mut Vec::new(), &mut tr);
        (local, searched, tr.spans)
    })?;
    let (wall_s, cpu_s) = sw.stop();
    let mut traced = Traced {
        wall_s,
        cpu_s,
        spans: Vec::new(),
        output: Vec::new(),
        searched: ranks[0].0 .1,
        total_bytes: 0,
    };
    for ((local, _, spans), report) in ranks {
        traced.output.push(digest(&local));
        traced.spans.extend(spans);
        traced.total_bytes += report.counters.total_bytes();
    }
    Ok(traced)
}

fn counters_since(now: &CounterSnapshot, then: &CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        bytes_self: now.bytes_self - then.bytes_self,
        bytes_intra_numa: now.bytes_intra_numa - then.bytes_intra_numa,
        bytes_intra_node: now.bytes_intra_node - then.bytes_intra_node,
        bytes_inter_node: now.bytes_inter_node - then.bytes_inter_node,
        p2p_messages: now.p2p_messages - then.p2p_messages,
        p2p_retries: now.p2p_retries - then.p2p_retries,
        p2p_duplicates: now.p2p_duplicates - then.p2p_duplicates,
        collectives: now.collectives - then.collectives,
        compute_ns: now.compute_ns - then.compute_ns,
        comm_ns: now.comm_ns - then.comm_ns,
    }
}

/// Run `f` on every rank between two barrier pairs and let rank 0 open
/// and close the window while every other rank is blocked in a
/// barrier, so the window holds `f` on all ranks and nothing else.
/// Rank 0 gets the window; allocations are counted only when
/// `count_allocs`.
pub fn timed_by_rank0(comm: &Comm, count_allocs: bool, f: impl FnOnce()) -> Option<Window> {
    let rank0 = comm.rank() == 0;
    comm.barrier();
    if rank0 && count_allocs {
        arm_alloc_counter();
    }
    let sw = rank0.then(Stopwatch::start);
    comm.barrier();
    f();
    comm.barrier();
    let window = sw.map(|sw| {
        let (wall_s, cpu_s) = sw.stop();
        let allocs = if count_allocs {
            disarm_alloc_counter()
        } else {
            0
        };
        (wall_s, cpu_s, allocs)
    });
    comm.barrier();
    window
}

struct RankEpoch {
    input: RankDigest,
    output: RankDigest,
    out: RankOut,
    window: Option<Window>,
    traced: Option<RankTraced>,
}

struct RankTraced {
    output: RankDigest,
    searched: Searched,
    bytes: u64,
    spans: Vec<Span>,
    window: Option<Window>,
}

/// The timed epochs of one stream, plus the allocations of the last
/// warm-up epoch when `traced`.
pub struct EpochRun {
    pub ops: Vec<Op>,
    pub allocs: Option<u64>,
}

/// Sort a 10 %-churn stream through one `EpochSorter` on one world:
/// `w.warmup` untimed epochs, then timed epochs until `seconds` have
/// passed and at least `w.inputs` are done. With `traced`, every epoch
/// is also replayed by layer (own warm ladder, same batches).
pub fn run_epochs(
    w: &Workload,
    cfg: &SortConfig,
    seed: u64,
    base: Vec<Vec<u64>>,
    seconds: f64,
    traced: bool,
    origin: Instant,
) -> Result<EpochRun, RunError> {
    let slots = Slots::new(base);
    let ranks = try_run(&w.cluster(), |comm| {
        let rank = comm.rank();
        let mut batch = slots.take(rank);
        let mut svc = EpochSorter::new(comm, cfg.clone());
        let mut replay_warm: Vec<u64> = Vec::new();
        let mut epochs: Vec<RankEpoch> = Vec::new();
        let mut timed_since: Option<Instant> = None;
        let mut allocs: Option<u64> = None;
        for epoch in 0u64.. {
            if epoch > 0 {
                churn_step(&mut batch, seed, epoch, rank);
            }
            let warming = (epoch as usize) < w.warmup;
            let count_allocs = traced && epoch as usize + 1 == w.warmup;
            if !warming && timed_since.is_none() {
                timed_since = Some(Instant::now());
            }

            let mut sorted = batch.clone();
            let mut whole = None;
            let window = timed_by_rank0(comm, count_allocs, || {
                let before = comm.report().counters;
                let stats = svc.sort_epoch(&mut sorted);
                whole = Some(RankOut {
                    counters: counters_since(&comm.report().counters, &before),
                    clock_ns: stats.makespan_ns,
                    pool: stats.pool,
                    stats: stats.sort,
                });
            });
            if count_allocs {
                allocs = window.map(|(_, _, allocs)| allocs);
            }

            let replayed = traced.then(|| {
                let mut replay = batch.clone();
                let before = comm.report().counters;
                let mut tr = Tracer::new(origin, rank);
                let mut searched = None;
                let window = timed_by_rank0(comm, false, || {
                    searched = Some(u64::replay(
                        comm,
                        &mut replay,
                        cfg,
                        &mut replay_warm,
                        &mut tr,
                    ));
                });
                RankTraced {
                    output: digest(&replay),
                    searched: searched.expect("closure ran"),
                    bytes: counters_since(&comm.report().counters, &before).total_bytes(),
                    spans: tr.spans,
                    window,
                }
            });

            if !warming {
                epochs.push(RankEpoch {
                    input: digest(&batch),
                    output: digest(&sorted),
                    out: whole.expect("closure ran"),
                    window,
                    traced: replayed,
                });
            }
            let elapsed = timed_since.map_or(0.0, |t| t.elapsed().as_secs_f64());
            let more = warming || epochs.len() < w.inputs || elapsed < seconds;
            if !comm.broadcast(0, more) {
                break;
            }
        }
        (epochs, allocs)
    })?;

    // Transpose rank-major epoch lists into per-epoch ops.
    let allocs = ranks[0].0 .1;
    let mut per_rank: Vec<std::vec::IntoIter<RankEpoch>> = ranks
        .into_iter()
        .map(|((epochs, _), _)| epochs.into_iter())
        .collect();
    let mut ops = Vec::new();
    for _ in 0..per_rank[0].len() {
        let row: Vec<RankEpoch> = per_rank
            .iter_mut()
            .map(|epochs| epochs.next().expect("every rank ran every epoch"))
            .collect();
        let (wall_s, cpu_s, _) = row[0].window.expect("rank 0 times every epoch");
        let mut op = Op {
            input_index: ops.len(),
            input: row.iter().map(|r| r.input).collect(),
            whole: Whole {
                wall_s,
                cpu_s,
                exact: Exact::default(),
                output: row.iter().map(|r| r.output).collect(),
            },
            traced: None,
        };
        if let Some(t0) = &row[0].traced {
            let (wall_s, cpu_s, _) = t0.window.expect("rank 0 times every replay");
            let mut traced = Traced {
                wall_s,
                cpu_s,
                spans: Vec::new(),
                output: Vec::new(),
                searched: t0.searched,
                total_bytes: 0,
            };
            for t in row.iter().filter_map(|r| r.traced.as_ref()) {
                traced.output.push(t.output);
                traced.spans.extend_from_slice(&t.spans);
                traced.total_bytes += t.bytes;
            }
            op.traced = Some(traced);
        }
        let outs: Vec<RankOut> = row.into_iter().map(|r| r.out).collect();
        op.whole.exact = Exact::from_ranks(&outs);
        ops.push(op);
    }
    Ok(EpochRun { ops, allocs })
}

/// Start and stop an empty world at the workload's `(p, engine)`:
/// seconds from `try_run` to its return.
pub fn spawn_join_s(w: &Workload) -> f64 {
    let t = Instant::now();
    try_run(&w.cluster(), |_| ()).expect("an empty world starts and stops");
    t.elapsed().as_secs_f64()
}

/// Host cost of the runtime's own machinery at the workload's
/// `(p, engine)`, per call.
pub struct Probes {
    pub spawn_join_s: f64,
    pub barrier_us: f64,
    pub allreduce_us: f64,
    /// Process CPU per allreduce, all ranks together.
    pub allreduce_cpu_us: f64,
}

const PROBE_CALLS: usize = 16;

/// `PROBE_CALLS` barriers, then as many `allreduce_sum_shared` calls
/// of the splitter search's first-round width (two counters per
/// splitter), timed by rank 0 on one world.
pub fn micro_probes(w: &Workload) -> Probes {
    let spawns: Vec<f64> = (0..5).map(|_| spawn_join_s(w)).collect();
    let ranks = try_run(&w.cluster(), |comm| {
        let histogram = vec![1u64; 2 * (comm.size() - 1)];
        let barriers = timed_by_rank0(comm, false, || {
            for _ in 0..PROBE_CALLS {
                comm.barrier();
            }
        });
        let allreduces = timed_by_rank0(comm, false, || {
            for _ in 0..PROBE_CALLS {
                std::hint::black_box(comm.allreduce_sum_shared(&histogram));
            }
        });
        barriers.zip(allreduces)
    })
    .expect("collectives on a fault-free world");
    let (barriers, allreduces) = ranks[0].0.expect("rank 0 timed the probes");
    let per_call_us = |total_s: f64| total_s * 1e6 / PROBE_CALLS as f64;
    Probes {
        spawn_join_s: crate::measure::median(&spawns),
        barrier_us: per_call_us(barriers.0),
        allreduce_us: per_call_us(allreduces.0),
        allreduce_cpu_us: per_call_us(allreduces.1),
    }
}
