//! Figure 3 — weak scaling study (paper §VI-C).
//!
//! Constant keys per rank (the paper holds 128 MB/rank; default here is
//! 2^16 keys/rank, scalable via `--nper`), rank counts swept at 16
//! ranks/node, uniform u64 keys, perfect partitioning. Prints:
//!
//! * Fig. 3a — median time and weak-scaling efficiency per rank count
//!   for DASH and Charm++/HSS;
//! * Fig. 3b (`--breakdown`) — phase fractions per rank count (DASH),
//!   showing the ALL-TO-ALLV exchange dominating as volume grows.
//!
//! Flags: `--nper <keys/rank>`, `--pmax <ranks>`, `--reps <runs>`,
//! `--breakdown`, `--quick`.

use dhs_baselines::Algorithm;
use dhs_bench::experiment::{run_distributed_sort, SortAlgo};
use dhs_bench::stats::{median_ci, weak_efficiency};
use dhs_bench::table::{fmt_bytes, fmt_secs, Table};
use dhs_bench::Args;
use dhs_core::SortConfig;
use dhs_runtime::ClusterConfig;
use dhs_workloads::{Distribution, Layout};

fn main() {
    let args = Args::parse();
    let n_per: usize = if args.quick() {
        1 << 12
    } else {
        args.get("nper", 1 << 19)
    };
    let p_max: usize = if args.quick() {
        64
    } else {
        args.get("pmax", 256)
    };
    let reps: usize = if args.quick() { 2 } else { args.get("reps", 3) };
    let breakdown = args.has("breakdown");

    let ps: Vec<usize> = std::iter::successors(Some(16usize), |&p| Some(p * 2))
        .take_while(|&p| p <= p_max)
        .collect();

    println!("# Figure 3: weak scaling, uniform u64 in [0,1e9], {n_per} keys/rank");
    println!("# perfect partitioning (eps = 0), 16 ranks/node, {reps} reps, median + 95% CI");
    println!("# times are simulated cluster seconds (alpha-beta cost model, see DESIGN.md)\n");

    let algos: Vec<SortAlgo> = vec![
        SortAlgo::Histogram(SortConfig::default()),
        SortAlgo::Baseline(Algorithm::Hss),
    ];

    let mut fig3a = Table::new([
        "algorithm",
        "ranks",
        "total-keys",
        "median",
        "ci95",
        "weak-eff",
        "iters",
        "inter-node",
    ]);
    let mut breakdown_rows: Vec<(usize, Vec<(&'static str, f64)>)> = Vec::new();

    for algo in &algos {
        let mut base: Option<f64> = None;
        for &p in &ps {
            let n_total = n_per * p;
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
                    0xF163 + rep as u64,
                );
                times.push(run.makespan_s);
                last = Some(run);
            }
            let run = last.expect("reps >= 1");
            let m = median_ci(&times);
            let bt = *base.get_or_insert(m.median);
            fig3a.row([
                algo.label().to_string(),
                p.to_string(),
                n_total.to_string(),
                fmt_secs(m.median),
                format!("[{},{}]", fmt_secs(m.lo), fmt_secs(m.hi)),
                format!("{:.2}", weak_efficiency(bt, m.median)),
                run.iterations.to_string(),
                fmt_bytes(run.inter_node_bytes),
            ]);
            if breakdown && matches!(algo, SortAlgo::Histogram(_)) {
                breakdown_rows.push((p, run.phase_fractions()));
            }
        }
    }
    println!("## Fig 3a: weak scaling efficiency");
    fig3a.print();

    if breakdown {
        println!("\n## Fig 3b: relative phase fractions (DASH)");
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
