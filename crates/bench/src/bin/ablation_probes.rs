//! Ablation A6 — round width of the splitter search: sweep
//! `m ∈ {1, 3, 7, 15}` (a round histograms at most `m × (P − 1)` keys,
//! shared among the open splitters) over the Figure 2 strong-scaling
//! rank grid and locate the α/β crossover the cost model predicts:
//! each refinement round costs one allreduce latency, and a wider
//! round buys fewer of them with an up to `m`-fold fatter payload.
//! The partition is identical for every `m`, so rows differ only in
//! round count and cost — `m = 1` is the default.
//!
//! Reported per cell: histogram rounds (`ALLREDUCE`s), total probes,
//! the simulated histogram-phase time, the full-sort makespan, and the
//! round reduction versus `m = 1` at the same p.
//!
//! Flags: `--n <total keys>` (default 2^22), `--pmax <ranks>` (default
//! 256), `--reps <runs>` (default 3), `--quick`.

use dhs_bench::experiment::{run_distributed_sort, SortAlgo};
use dhs_bench::stats::median_ci;
use dhs_bench::table::{fmt_secs, Table};
use dhs_bench::Args;
use dhs_core::SortConfig;
use dhs_runtime::ClusterConfig;
use dhs_workloads::{Distribution, Layout};

fn main() {
    let args = Args::parse();
    let n_total: usize = if args.quick() {
        1 << 16
    } else {
        args.get("n", 1 << 22)
    };
    let p_max: usize = if args.quick() {
        64
    } else {
        args.get("pmax", 256)
    };
    let reps: usize = if args.quick() { 1 } else { args.get("reps", 3) };

    let ps: Vec<usize> = std::iter::successors(Some(16usize), |&p| Some(p * 2))
        .take_while(|&p| p <= p_max)
        .collect();
    let ms = [1usize, 3, 7, 15];

    println!("# Ablation A6: round width of the splitter search, uniform u64 in [0,1e9], N = {n_total} keys total");
    println!("# perfect partitioning (eps = 0), rounds m x (p - 1) probes wide, {reps} reps");
    println!("# rounds-x is the allreduce-round reduction vs m = 1 at the same p\n");

    let mut t = Table::new([
        "p",
        "m",
        "rounds",
        "probes",
        "histogram",
        "makespan",
        "rounds-x",
    ]);
    for &p in &ps {
        let cluster = ClusterConfig::supermuc_phase2(p);
        let mut base_rounds = 0u32;
        for &m in &ms {
            let cfg = SortConfig {
                probes_per_round: m,
                ..SortConfig::default()
            };
            let mut times = Vec::with_capacity(reps);
            let mut last = None;
            for rep in 0..reps {
                let run = run_distributed_sort(
                    &cluster,
                    &SortAlgo::Histogram(cfg.clone()),
                    Distribution::paper_uniform(),
                    Layout::Balanced,
                    n_total,
                    0xA6 + rep as u64,
                );
                times.push(run.makespan_s);
                last = Some(run);
            }
            let run = last.expect("reps >= 1");
            if m == 1 {
                base_rounds = run.iterations;
            }
            let hist_s = run
                .phases
                .iter()
                .find(|(name, _)| *name == "histogram")
                .map(|&(_, s)| s)
                .unwrap_or(0.0);
            t.row([
                p.to_string(),
                m.to_string(),
                run.iterations.to_string(),
                run.probes.to_string(),
                fmt_secs(hist_s),
                fmt_secs(median_ci(&times).median),
                format!("{:.2}x", base_rounds as f64 / run.iterations.max(1) as f64),
            ]);
        }
    }
    t.print();
}
