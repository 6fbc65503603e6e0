//! Figure 4 — shared-memory benchmark across NUMA domains (paper §VI-D).
//!
//! One node of the Table I machine: data is placed on 1-4 NUMA domains
//! and sorted with 7/14/21/28 cores. Normally distributed doubles (the
//! paper's workload). Three contenders:
//!
//! * `dash-histogram` — the paper's sort with one MPI-style rank per
//!   core (data moves across the node exactly once);
//! * `tbb-merge-sort` — Intel-Parallel-STL-like task merge sort with
//!   parallel merges (data crosses the node log₂(cores) times);
//! * `openmp-merge-sort` — task merge sort with sequential per-pair
//!   merges.
//!
//! A second table sweeps the hybrid rank×thread grid at a fixed core
//! count: every decomposition `ranks × threads_per_rank = 28` of one
//! Table I node, from pure MPI (28×1) to pure shared memory (1×28).
//! Virtual charges are functions of per-rank data sizes only, so the
//! grid isolates the *rank-level* trade-off the paper's hybrid design
//! exploits: fewer ranks shrink the splitter rounds and the exchange,
//! while the intra-rank threads are invisible to the virtual clock
//! (they only cut host wall time, see `wallclock.rs`).
//!
//! Optionally (`--wall`) also measures *real* wall-clock time of this
//! crate's actual shared-memory sorts (`dhs-shm`) on the host — only
//! meaningful on a multi-core host.
//!
//! Flags: `--n <total keys>` (default 2^21), `--reps`, `--wall`,
//! `--quick`.

use dhs_bench::sim_shm::{sim_openmp_merge_sort, sim_tbb_merge_sort};
use dhs_bench::stats::median_ci;
use dhs_bench::table::{fmt_secs, Table};
use dhs_bench::Args;
use dhs_core::{histogram_sort, OrderedF64, SortConfig};
use dhs_runtime::{run, ClusterConfig};
use dhs_workloads::{rank_seed, Distribution};

fn normal_keys(rank: usize, n: usize, seed: u64) -> Vec<OrderedF64> {
    Distribution::paper_normal()
        .generate_f64(n, rank_seed(seed, rank))
        .into_iter()
        .map(|x| OrderedF64(x * 1e6)) // the paper scales into [-1e6, 1e6]
        .collect()
}

fn simulated_time(cores: usize, n_total: usize, seed: u64, which: &str) -> f64 {
    let cluster = ClusterConfig::single_node(cores);
    let which = which.to_string();
    let out = run(&cluster, move |comm| {
        let n_local = n_total / comm.size();
        let mut local = normal_keys(comm.rank(), n_local, seed);
        let t0 = comm.now_ns();
        match which.as_str() {
            "dash" => {
                histogram_sort(comm, &mut local, &SortConfig::default());
            }
            "tbb" => sim_tbb_merge_sort(comm, &local),
            "openmp" => sim_openmp_merge_sort(comm, &local),
            other => panic!("unknown contender {other}"),
        }
        comm.now_ns() - t0
    });
    out.iter().map(|(t, _)| *t).max().expect("non-empty") as f64 * 1e-9
}

/// Simulated makespan of the histogram sort on `ranks` ranks with a
/// thread budget of `threads_per_rank` each (hybrid decomposition).
fn hybrid_time(ranks: usize, threads_per_rank: usize, n_total: usize, seed: u64) -> f64 {
    let cluster = ClusterConfig::single_node(ranks);
    let cfg = SortConfig {
        threads_per_rank,
        ..SortConfig::default()
    };
    let out = run(&cluster, move |comm| {
        let n_local = n_total / comm.size();
        let mut local = normal_keys(comm.rank(), n_local, seed);
        let t0 = comm.now_ns();
        histogram_sort(comm, &mut local, &cfg);
        comm.now_ns() - t0
    });
    out.iter().map(|(t, _)| *t).max().expect("non-empty") as f64 * 1e-9
}

fn main() {
    let args = Args::parse();
    let n_total: usize = if args.quick() {
        1 << 16
    } else {
        args.get("n", 1 << 21)
    };
    let reps: usize = if args.quick() { 2 } else { args.get("reps", 5) };
    let wall = args.has("wall");

    println!("# Figure 4: shared-memory strong scaling across NUMA domains");
    println!("# normal f64 scaled to [-1e6,1e6], N = {n_total} keys, {reps} reps");
    println!("# 7 cores per NUMA domain (Table I node); times are simulated seconds\n");

    let mut t = Table::new([
        "contender",
        "cores",
        "numa-domains",
        "median",
        "ci95",
        "speedup-vs-7",
    ]);
    for contender in ["dash", "tbb", "openmp"] {
        let mut base: Option<f64> = None;
        for domains in 1..=4usize {
            let cores = 7 * domains;
            let times: Vec<f64> = (0..reps)
                .map(|rep| simulated_time(cores, n_total, 0xF164 + rep as u64, contender))
                .collect();
            let m = median_ci(&times);
            let bt = *base.get_or_insert(m.median);
            let label = match contender {
                "dash" => "dash-histogram",
                "tbb" => "tbb-merge-sort",
                _ => "openmp-merge-sort",
            };
            t.row([
                label.to_string(),
                cores.to_string(),
                domains.to_string(),
                fmt_secs(m.median),
                format!("[{},{}]", fmt_secs(m.lo), fmt_secs(m.hi)),
                format!("{:.2}x", bt / m.median),
            ]);
        }
    }
    t.print();

    println!("\n## hybrid rank x thread grid (ranks * threads_per_rank = 28 cores)");
    println!("# virtual charges depend on per-rank data sizes only; threads are");
    println!("# invisible to the virtual clock (they cut host wall time instead)");
    let mut t = Table::new(["ranks", "threads/rank", "median", "ci95", "vs-28x1"]);
    let mut base: Option<f64> = None;
    for (ranks, threads) in [(28usize, 1usize), (14, 2), (7, 4), (4, 7), (2, 14), (1, 28)] {
        let times: Vec<f64> = (0..reps)
            .map(|rep| hybrid_time(ranks, threads, n_total, 0xF164 + rep as u64))
            .collect();
        let m = median_ci(&times);
        let bt = *base.get_or_insert(m.median);
        t.row([
            ranks.to_string(),
            threads.to_string(),
            fmt_secs(m.median),
            format!("[{},{}]", fmt_secs(m.lo), fmt_secs(m.hi)),
            format!("{:.2}x", bt / m.median),
        ]);
    }
    t.print();

    if wall {
        println!(
            "\n## real wall-clock of dhs-shm sorts on this host ({} cores)",
            host_cores()
        );
        println!("# only meaningful on a multi-core host");
        let mut t = Table::new(["sorter", "threads", "median-wall"]);
        for threads in [1usize, 2, 4, 7, 14, 28] {
            if threads > 2 * host_cores() {
                continue;
            }
            for (name, f) in [
                (
                    "parallel-merge-sort",
                    dhs_shm::parallel_merge_sort as fn(&mut [u64], usize),
                ),
                (
                    "task-merge-sort",
                    dhs_shm::task_merge_sort as fn(&mut [u64], usize),
                ),
            ] {
                let times: Vec<f64> = (0..reps)
                    .map(|rep| {
                        let mut data =
                            Distribution::paper_uniform().generate_u64(n_total, rep as u64);
                        // Host wall time on purpose: this figure
                        // measures the real shared-memory kernels.
                        let t0 = std::time::Instant::now(); // lint: allow-wall-clock
                        f(&mut data, threads);
                        t0.elapsed().as_secs_f64()
                    })
                    .collect();
                t.row([
                    name.to_string(),
                    threads.to_string(),
                    fmt_secs(median_ci(&times).median),
                ]);
            }
        }
        t.print();
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
