//! Figure 2 — strong scaling study (paper §VI-B).
//!
//! Fixed total problem size (uniform u64 in [0, 1e9], the paper's
//! workload), rank counts swept at 16 ranks/node, perfect partitioning
//! (ε = 0). Compares the paper's algorithm ("DASH") against Histogram
//! Sort with Sampling ("Charm++"). Prints:
//!
//! * Fig. 2a — median sorting time with 95% CI, speedup and parallel
//!   efficiency per rank count;
//! * Fig. 2b (`--breakdown`) — relative phase fractions per rank count
//!   for the DASH runs.
//!
//! Flags: `--n <total keys>` (default 2^22), `--pmax <ranks>` (default
//! 1024), `--reps <runs>` (default 5, paper uses 10), `--breakdown`,
//! `--quick`.

use dhs_baselines::Algorithm;
use dhs_bench::experiment::{run_distributed_sort, SortAlgo};
use dhs_bench::stats::{median_ci, strong_efficiency};
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
        args.get("n", 1 << 23)
    };
    let p_max: usize = if args.quick() {
        64
    } else {
        args.get("pmax", 2048)
    };
    let reps: usize = if args.quick() { 2 } else { args.get("reps", 3) };
    let breakdown = args.has("breakdown");

    let ps: Vec<usize> = std::iter::successors(Some(16usize), |&p| Some(p * 2))
        .take_while(|&p| p <= p_max)
        .collect();

    println!("# Figure 2: strong scaling, uniform u64 in [0,1e9], N = {n_total} keys total (paper: memory-bound sizes on up to 3584 cores)");
    println!("# perfect partitioning (eps = 0), 16 ranks/node, {reps} reps, median + 95% CI");
    println!("# times are simulated cluster seconds (alpha-beta cost model, see DESIGN.md)\n");

    let algos: Vec<SortAlgo> = vec![
        SortAlgo::Histogram(SortConfig::default()),
        SortAlgo::Baseline(Algorithm::Hss),
    ];

    let mut fig2a = Table::new([
        "algorithm",
        "ranks",
        "nodes",
        "median",
        "ci95",
        "speedup",
        "eff",
        "iters",
    ]);
    let mut breakdown_rows: Vec<(usize, Vec<(&'static str, f64)>)> = Vec::new();

    for algo in &algos {
        let mut base: Option<(usize, f64)> = None;
        for &p in &ps {
            let cluster = ClusterConfig::supermuc_phase2(p);
            let mut times = Vec::with_capacity(reps);
            let mut last = None;
            for rep in 0..reps {
                let run = run_distributed_sort(
                    &cluster,
                    algo,
                    Distribution::paper_uniform(),
                    Layout::Balanced,
                    n_total,
                    0xF162 + rep as u64,
                );
                times.push(run.makespan_s);
                last = Some(run);
            }
            let run = last.expect("reps >= 1");
            let m = median_ci(&times);
            let (bp, bt) = *base.get_or_insert((p, m.median));
            fig2a.row([
                algo.label().to_string(),
                p.to_string(),
                cluster.topology.nodes().to_string(),
                fmt_secs(m.median),
                format!("[{},{}]", fmt_secs(m.lo), fmt_secs(m.hi)),
                format!("{:.2}x", bt / m.median),
                format!("{:.2}", strong_efficiency(bt, bp, m.median, p)),
                run.iterations.to_string(),
            ]);
            if breakdown && matches!(algo, SortAlgo::Histogram(_)) {
                breakdown_rows.push((p, run.phase_fractions()));
            }
        }
    }
    println!("## Fig 2a: median sorting time vs cores");
    fig2a.print();

    if breakdown {
        println!("\n## Fig 2b: relative phase fractions (DASH)");
        let names: Vec<&str> = breakdown_rows
            .first()
            .map(|(_, f)| f.iter().map(|&(n, _)| n).collect())
            .unwrap_or_default();
        let mut t = Table::new(
            std::iter::once("ranks".to_string()).chain(names.iter().map(|s| s.to_string())),
        );
        for (p, fractions) in &breakdown_rows {
            t.row(
                std::iter::once(p.to_string())
                    .chain(fractions.iter().map(|&(_, f)| format!("{:.1}%", f * 100.0))),
            );
        }
        t.print();
    }
}
