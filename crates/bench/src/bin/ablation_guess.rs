//! Ablation A3 — initial splitter guesses (§III-B): the paper skips
//! per-round sampling and instead "focuses on optimizing the initial
//! splitter guesses". This ablation compares three starts of the
//! splitter search:
//!
//! * `full-domain` — brackets span the whole key domain;
//! * `data-minmax` — the data's min/max (the paper's choice), round 1
//!   probing each target's interpolated quantile;
//! * `sampled-quantiles` — the same brackets, round 1 probing each
//!   target's quantile in a one-shot regular sample.
//!
//! Reported per distribution: histogramming iterations and splitter
//! phase time.
//!
//! Flags: `--p <ranks>`, `--nper <keys/rank>`, `--reps`, `--quick`.

use dhs_bench::stats::median_ci;
use dhs_bench::table::{fmt_secs, Table};
use dhs_bench::Args;
use dhs_core::{find_splitters_cfg, perfect_targets, InitialBounds, SplitterOptions};
use dhs_runtime::{run, ClusterConfig};
use dhs_workloads::{rank_local_keys, Distribution, Layout};

fn measure(
    p: usize,
    n_per: usize,
    reps: usize,
    dist: Distribution,
    init: InitialBounds,
) -> (f64, f64) {
    let mut iters = Vec::new();
    let mut times = Vec::new();
    for rep in 0..reps {
        let out = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
            let mut local = rank_local_keys(
                dist,
                Layout::Balanced,
                n_per * p,
                p,
                comm.rank(),
                0xAB3 + rep as u64,
            );
            local.sort_unstable();
            let caps: Vec<usize> = comm.allgather(local.len());
            let targets = perfect_targets(&caps);
            let t0 = comm.now_ns();
            let opts = SplitterOptions {
                init,
                ..SplitterOptions::default()
            };
            let res = find_splitters_cfg(comm, &local, &targets, 0, opts);
            (res.iterations, comm.now_ns() - t0)
        });
        iters.push(out.iter().map(|((it, _), _)| *it).max().expect("non-empty") as f64);
        times.push(out.iter().map(|((_, t), _)| *t).max().expect("non-empty") as f64 * 1e-9);
    }
    (median_ci(&iters).median, median_ci(&times).median)
}

fn main() {
    let args = Args::parse();
    let p: usize = if args.quick() { 16 } else { args.get("p", 128) };
    let n_per: usize = if args.quick() {
        1 << 11
    } else {
        args.get("nper", 1 << 14)
    };
    let reps: usize = if args.quick() { 1 } else { args.get("reps", 3) };

    println!("# Ablation A3: initial splitter guesses (5III-B)");
    println!("# P = {p}, {n_per} keys/rank, eps = 0, median over {reps} reps\n");

    let inits = [
        ("full-domain", InitialBounds::FullDomain),
        ("data-minmax", InitialBounds::DataMinMax),
        (
            "sampled-quantiles",
            InitialBounds::SampledQuantiles { per_rank: 8 },
        ),
    ];
    let dists = [
        ("uniform [0,1e9]", Distribution::paper_uniform()),
        (
            "uniform full-range",
            Distribution::Uniform {
                lo: 0,
                hi: u64::MAX,
            },
        ),
        ("normal", Distribution::paper_normal()),
        (
            "zipf",
            Distribution::Zipf {
                items: 1 << 20,
                s: 1.1,
            },
        ),
        (
            "nearly-sorted",
            Distribution::NearlySorted {
                perturb_permille: 10,
            },
        ),
    ];

    let mut t = Table::new([
        "distribution",
        "initialization",
        "iterations",
        "splitter-time",
    ]);
    for (dname, dist) in dists {
        for (iname, init) in inits {
            let (iters, time) = measure(p, n_per, reps, dist, init);
            t.row([
                dname.to_string(),
                iname.to_string(),
                format!("{iters:.0}"),
                fmt_secs(time),
            ]);
        }
    }
    t.print();
}
