//! Ablation A4 — the §VI-E1 exchange engineering: what the merge after
//! the monolithic `ALL-TO-ALLV` costs, and the store-and-forward
//! (Bruck) and staged schedules for small messages.
//!
//! Part 1: exchange + merge at fixed shape — `ALL-TO-ALLV` followed by
//! the sorts' merge step, charged as the paper's re-sort or as one
//! k-way merge.
//!
//! Part 2: schedule crossover — 1-factor vs Bruck vs `staged:8` as N/P
//! shrinks (the paper: store-and-forward "for a relatively small N/P"),
//! and the priced pick, the sort's default, beside them.
//!
//! Flags: `--p <ranks>`, `--nper <keys/rank>`, `--reps`, `--quick`.

use dhs_bench::stats::median_ci;
use dhs_bench::table::{fmt_secs, Table};
use dhs_bench::Args;
use dhs_core::{
    exchange::{exchange_data, plan_exchange},
    find_splitters, merge_received, perfect_targets, LocalSort, MergeAlgo, SplitterOptions,
};
use dhs_runtime::{run, AllToAllAlgo, ClusterConfig};
use dhs_workloads::{rank_local_keys, Distribution, Layout};

fn merged_exchange_time(p: usize, n_per: usize, seed: u64, merge: MergeAlgo) -> f64 {
    let out = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let mut local = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            n_per * p,
            p,
            comm.rank(),
            seed,
        );
        local.sort_unstable();
        let caps: Vec<usize> = comm.allgather(local.len());
        let res = find_splitters(
            comm,
            &local,
            &perfect_targets(&caps),
            0,
            SplitterOptions::default(),
        );
        let plan = plan_exchange(comm, &local, &res);
        let t0 = comm.now_ns();
        let received = exchange_data(comm, &local, &plan, AllToAllAlgo::OneFactor);
        merge_received(comm, received, local, merge, LocalSort::Comparison);
        comm.now_ns() - t0
    });
    out.iter().map(|(t, _)| *t).max().expect("non-empty") as f64 * 1e-9
}

fn schedule_time(p: usize, n_per: usize, seed: u64, algo: AllToAllAlgo) -> f64 {
    let out = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let local = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            n_per * p,
            p,
            comm.rank(),
            seed,
        );
        let buckets: Vec<Vec<u64>> = local
            .chunks(local.len().div_ceil(p).max(1))
            .map(|c| c.to_vec())
            .chain(std::iter::repeat_with(Vec::new))
            .take(p)
            .collect();
        let t0 = comm.now_ns();
        let _ = comm.exchange(buckets, algo);
        comm.now_ns() - t0
    });
    out.iter().map(|(t, _)| *t).max().expect("non-empty") as f64 * 1e-9
}

fn main() {
    let args = Args::parse();
    let p: usize = if args.quick() { 16 } else { args.get("p", 128) };
    let n_per: usize = if args.quick() {
        1 << 11
    } else {
        args.get("nper", 1 << 16)
    };
    let reps: usize = if args.quick() { 1 } else { args.get("reps", 3) };

    println!("# Ablation A4: exchange scheduling and the merge behind it (5VI-E1)");
    println!("# P = {p}, {n_per} keys/rank, {reps} reps\n");

    println!("## exchange + merge strategy (simulated time of exchange+merge phases)");
    let mut t = Table::new(["strategy", "median"]);
    for (strategy, merge) in [
        ("alltoallv+resort", MergeAlgo::Resort),
        ("alltoallv+tournament", MergeAlgo::KWay),
    ] {
        let times: Vec<f64> = (0..reps)
            .map(|rep| merged_exchange_time(p, n_per, 0xAB4 + rep as u64, merge))
            .collect();
        t.row([strategy.to_string(), fmt_secs(median_ci(&times).median)]);
    }
    t.print();

    println!("\n## all-to-all schedule crossover (pure exchange, varying N/P)");
    let mut t2 = Table::new([
        "keys/rank",
        "1-factor",
        "bruck",
        "staged:8",
        "winner",
        "priced pick",
    ]);
    for shift in [2usize, 6, 10, 14, 18] {
        let nper = 1usize << shift;
        let mut medians = Vec::new();
        for algo in [
            AllToAllAlgo::OneFactor,
            AllToAllAlgo::Bruck,
            AllToAllAlgo::StagedKWay { k: 8 },
            AllToAllAlgo::Priced,
        ] {
            let times: Vec<f64> = (0..reps)
                .map(|r| schedule_time(p, nper, r as u64, algo))
                .collect();
            medians.push(median_ci(&times).median);
        }
        let names = ["1-factor", "bruck", "staged:8"];
        let winner = names[medians[..3]
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .map(|(i, _)| i)
            .unwrap_or(0)];
        t2.row([
            nper.to_string(),
            fmt_secs(medians[0]),
            fmt_secs(medians[1]),
            fmt_secs(medians[2]),
            winner.to_string(),
            fmt_secs(medians[3]),
        ]);
    }
    t2.print();
}
