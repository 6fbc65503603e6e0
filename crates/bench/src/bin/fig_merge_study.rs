//! §VI-E2 merge study: k-way merging of equally sized sorted chunks,
//! varying the chunk count and (on a multi-core host) the thread
//! count. The paper's findings to reproduce in shape:
//!
//! * with few large chunks, merging beats re-sorting;
//! * with many small chunks, per-element tree/heap overhead and cache
//!   misses degrade merging until "processing ... with another
//!   parallel sort clearly outperforms merging".
//!
//! These are *real wall-clock* measurements of the actual engines in
//! `dhs-merge`/`dhs-shm` (no simulation); absolute numbers are
//! host-dependent.
//!
//! Flags: `--n <total keys>` (default 2^22), `--reps`, `--quick`.

use dhs_bench::stats::median_ci;
use dhs_bench::table::Table;
use dhs_bench::Args;
use dhs_merge::{tournament_merge, ENGINES};
use dhs_shm::parallel_kway_chunked;
use dhs_workloads::{rank_local_keys, Distribution, Layout};

fn chunks(n_total: usize, k: usize, seed: u64) -> Vec<Vec<u64>> {
    (0..k)
        .map(|i| {
            let mut c: Vec<u64> = rank_local_keys(
                Distribution::Uniform {
                    lo: 0,
                    hi: u32::MAX as u64,
                },
                Layout::Balanced,
                n_total,
                k,
                i,
                seed,
            );
            c.sort_unstable();
            c
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let n_total: usize = if args.quick() {
        1 << 18
    } else {
        args.get("n", 1 << 22)
    };
    let reps: usize = if args.quick() { 2 } else { args.get("reps", 3) };
    let ks: Vec<usize> = if args.quick() {
        vec![2, 16, 128]
    } else {
        vec![2, 4, 8, 16, 32, 64, 128, 256, 512]
    };
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("# Merge study (paper 5VI-E2): k-way merge of equal sorted chunks");
    println!("# N = {n_total} u64 keys total, wall-clock ns/element, median of {reps} reps");
    println!("# host has {host} core(s); thread rows beyond that are oversubscribed\n");

    println!("## sequential engines vs chunk count");
    let mut t = Table::new(
        std::iter::once("engine".to_string()).chain(ks.iter().map(|k| format!("k={k}"))),
    );
    for (label, merge) in ENGINES {
        let mut cells = vec![label.to_string()];
        for &k in &ks {
            let runs = chunks(n_total, k, 0x6E);
            let times: Vec<f64> = (0..reps)
                .map(|_| {
                    // Real merge-kernel wall time on purpose.
                    let t0 = std::time::Instant::now(); // lint: allow-wall-clock
                    let out = merge(&runs);
                    let dt = t0.elapsed().as_secs_f64();
                    assert_eq!(out.len(), n_total);
                    dt
                })
                .collect();
            cells.push(format!(
                "{:.1}",
                median_ci(&times).median * 1e9 / n_total as f64
            ));
        }
        t.row(cells);
    }
    t.print();

    println!("\n## parallel chunked k-way merge (tournament leaves) vs threads");
    let threads: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= 2 * host)
        .collect();
    let mut t2 = Table::new(
        std::iter::once("threads".to_string()).chain(ks.iter().map(|k| format!("k={k}"))),
    );
    for &th in &threads {
        let mut cells = vec![th.to_string()];
        for &k in &ks {
            let runs = chunks(n_total, k, 0x6E);
            let times: Vec<f64> = (0..reps)
                .map(|_| {
                    // Real merge-kernel wall time on purpose.
                    let t0 = std::time::Instant::now(); // lint: allow-wall-clock
                    let out = parallel_kway_chunked(&runs, th, tournament_merge);
                    let dt = t0.elapsed().as_secs_f64();
                    assert_eq!(out.len(), n_total);
                    dt
                })
                .collect();
            cells.push(format!(
                "{:.1}",
                median_ci(&times).median * 1e9 / n_total as f64
            ));
        }
        t2.row(cells);
    }
    t2.print();
}
