//! Baseline sweep: every distributed sorter in the repository,
//! head-to-head across the paper's friendly and adversarial inputs —
//! including the distributions where the paper reports the Charm++
//! comparator struggling (normal keys) and the sparse layouts only the
//! histogram sort is claimed to handle gracefully. Every sorter reports
//! `SortStats`: `rounds` is its `iterations` (its splitter phase's
//! rounds), `conv` says its outcome is not `Degraded`.
//!
//! Flags: `--p <ranks>` (default 64), `--nper <keys/rank>` (default
//! 2^13), `--reps`, `--quick`.

use dhs_baselines::Algorithm;
use dhs_bench::experiment::{run_distributed_sort, SortAlgo};
use dhs_bench::stats::median_ci;
use dhs_bench::table::{fmt_secs, Table};
use dhs_bench::Args;
use dhs_core::SortConfig;
use dhs_runtime::ClusterConfig;
use dhs_workloads::{Distribution, Layout};

fn main() {
    let args = Args::parse();
    let p: usize = if args.quick() { 8 } else { args.get("p", 64) };
    let n_per: usize = if args.quick() {
        1 << 10
    } else {
        args.get("nper", 1 << 13)
    };
    let reps: usize = if args.quick() { 1 } else { args.get("reps", 3) };
    let n_total = p * n_per;

    println!("# Baseline sweep: all algorithms x distributions x layouts");
    println!("# P = {p}, {n_per} keys/rank, median over {reps} reps, simulated seconds");
    println!("# balance = max output keys / ideal; conv = splitter phase met tolerance\n");

    let algos: Vec<SortAlgo> = vec![
        SortAlgo::Histogram(SortConfig::default()),
        SortAlgo::Baseline(Algorithm::Hss),
        SortAlgo::Baseline(Algorithm::SampleSort),
        SortAlgo::Baseline(Algorithm::Psrs),
        SortAlgo::Baseline(Algorithm::HykSort),
        SortAlgo::Baseline(Algorithm::Ams),
        SortAlgo::Baseline(Algorithm::Bitonic),
    ];
    let dists: Vec<(&str, Distribution)> = vec![
        ("uniform", Distribution::paper_uniform()),
        ("normal", Distribution::paper_normal()),
        (
            "zipf",
            Distribution::Zipf {
                items: 1 << 16,
                s: 1.2,
            },
        ),
        (
            "nearly-sorted",
            Distribution::NearlySorted {
                perturb_permille: 10,
            },
        ),
        ("few-distinct", Distribution::FewDistinct { k: 16 }),
        ("all-equal", Distribution::AllEqual { value: 7 }),
    ];
    let layouts: Vec<(&str, Layout)> = vec![
        ("balanced", Layout::Balanced),
        (
            "sparse-front",
            Layout::SparseFront {
                empty_permille: 500,
            },
        ),
    ];

    for (lname, layout) in &layouts {
        println!("## layout: {lname}");
        let mut t = Table::new([
            "distribution",
            "algorithm",
            "median",
            "rounds",
            "conv",
            "balance",
        ]);
        for (dname, dist) in &dists {
            for algo in &algos {
                let equal_sizes = matches!(layout, Layout::Balanced);
                if matches!(algo, SortAlgo::Baseline(a) if !a.supports(p, equal_sizes)) {
                    t.row([
                        dname.to_string(),
                        algo.label().to_string(),
                        "unsupported".to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    continue;
                }
                let cluster = ClusterConfig::supermuc_phase2(p);
                let mut times = Vec::new();
                let mut last = None;
                for rep in 0..reps {
                    let run = run_distributed_sort(
                        &cluster,
                        algo,
                        *dist,
                        *layout,
                        n_total,
                        0x5EE9 + rep as u64,
                    );
                    times.push(run.makespan_s);
                    last = Some(run);
                }
                let run = last.expect("reps >= 1");
                t.row([
                    dname.to_string(),
                    algo.label().to_string(),
                    fmt_secs(median_ci(&times).median),
                    run.iterations.to_string(),
                    if run.converged { "yes" } else { "NO" }.to_string(),
                    format!("{:.2}", run.max_keys as f64 * p as f64 / n_total as f64),
                ]);
            }
        }
        t.print();
        println!();
    }
}
