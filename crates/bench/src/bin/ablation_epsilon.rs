//! Ablation A1 — the ε sweep behind the paper's §VI-B remark: "We
//! certainly get a better scaling if we soften the perfect
//! partitioning requirement as the number of histogramming iterations
//! decreases."
//!
//! Sweeps the load-balance threshold ε at a fixed rank count and
//! reports iterations, simulated time and the realized imbalance.
//!
//! Flags: `--p <ranks>` (default 256), `--nper <keys/rank>` (default
//! 2^14), `--reps`, `--quick`.

use dhs_bench::experiment::{run_distributed_sort, SortAlgo};
use dhs_bench::stats::median_ci;
use dhs_bench::table::{fmt_secs, Table};
use dhs_bench::Args;
use dhs_core::SortConfig;
use dhs_runtime::ClusterConfig;
use dhs_workloads::{Distribution, Layout};

fn main() {
    let args = Args::parse();
    let p: usize = if args.quick() { 32 } else { args.get("p", 256) };
    let n_per: usize = if args.quick() {
        1 << 11
    } else {
        args.get("nper", 1 << 14)
    };
    let reps: usize = if args.quick() { 2 } else { args.get("reps", 5) };
    let n_total = p * n_per;

    println!("# Ablation A1: load-balance threshold sweep (5VI-B)");
    println!("# P = {p}, {n_per} keys/rank uniform u64 in [0,1e9], {reps} reps\n");

    let mut t = Table::new([
        "epsilon",
        "iterations",
        "median-time",
        "max-keys",
        "min-keys",
        "imbalance",
    ]);
    for eps in [0.0, 1e-4, 1e-3, 1e-2, 0.1] {
        let cfg = SortConfig {
            epsilon: eps,
            ..SortConfig::default()
        };
        let cluster = ClusterConfig::supermuc_phase2(p);
        let mut times = Vec::new();
        let mut last = None;
        for rep in 0..reps {
            let run = run_distributed_sort(
                &cluster,
                &SortAlgo::Histogram(cfg.clone()),
                Distribution::paper_uniform(),
                Layout::Balanced,
                n_total,
                0xAB1 + rep as u64,
            );
            times.push(run.makespan_s);
            last = Some(run);
        }
        let run = last.expect("reps >= 1");
        t.row([
            format!("{eps}"),
            run.iterations.to_string(),
            fmt_secs(median_ci(&times).median),
            run.max_keys.to_string(),
            run.min_keys.to_string(),
            format!("{:.4}", run.max_keys as f64 / n_per as f64 - 1.0),
        ]);
    }
    t.print();
}
