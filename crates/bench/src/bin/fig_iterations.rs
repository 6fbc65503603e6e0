//! §V-A iteration-count study: "the number of iterations is bound by
//! the key size ... The number of processors does not impact the
//! number of iterations."
//!
//! Sweeps key type (u32/u64/f32/f64) × distribution × rank count and
//! prints the histogramming iteration counts of the splitter search
//! (median over reps), for both acceptance rules:
//!
//! * **strict** — the paper's literal Algorithm 2 (`L < K ≤ U`):
//!   splitters land on data keys; iterations reach the key width
//!   (the paper's anchors: f64 ~60-64, f32 ~25-35);
//! * **relaxed** (this library's default) — gap boundaries with the
//!   exact count are accepted too, roughly halving the iterations
//!   (~log₂ of the key range actually occupied).
//!
//! Flags: `--nper <keys/rank>` (default 2^14), `--reps`, `--quick`.

use dhs_bench::stats::median_ci;
use dhs_bench::table::Table;
use dhs_bench::Args;
use dhs_core::{find_splitters, perfect_targets, Key, OrderedF32, OrderedF64, SplitterOptions};
use dhs_runtime::{run, ClusterConfig};
use dhs_workloads::{rank_seed, Distribution};

fn iterations_for<K, F>(p: usize, n_per: usize, reps: usize, strict: bool, make: F) -> f64
where
    K: Key,
    F: Fn(usize, usize, u64) -> Vec<K> + Send + Sync + Copy,
{
    let opts = SplitterOptions {
        strict_paper_rule: strict,
        ..SplitterOptions::default()
    };
    let samples: Vec<f64> = (0..reps)
        .map(|rep| {
            let out = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
                let mut local = make(comm.rank(), n_per, 0x17E7 + rep as u64);
                local.sort_unstable();
                let caps: Vec<usize> = comm.allgather(local.len());
                let targets = perfect_targets(&caps);
                find_splitters(comm, &local, &targets, 0, opts).iterations
            });
            out.iter().map(|(it, _)| *it).max().expect("non-empty") as f64
        })
        .collect();
    median_ci(&samples).median
}

fn main() {
    let args = Args::parse();
    let n_per: usize = if args.quick() {
        1 << 10
    } else {
        args.get("nper", 1 << 14)
    };
    let reps: usize = if args.quick() { 1 } else { args.get("reps", 3) };
    let ps: Vec<usize> = if args.quick() {
        vec![4, 16]
    } else {
        vec![4, 16, 64, 256]
    };

    println!("# Splitter-search iteration counts (paper 5V-A)");
    println!("# {n_per} keys/rank, eps = 0, median over {reps} reps");
    println!("# paper anchors (strict rule): f64 ~60-64, f32 ~25-35, flat in P\n");

    let u64_full = |rank: usize, n: usize, seed: u64| -> Vec<u64> {
        Distribution::Uniform {
            lo: 0,
            hi: u64::MAX,
        }
        .generate_u64(n, rank_seed(seed, rank))
    };
    let u64_paper = |rank: usize, n: usize, seed: u64| -> Vec<u64> {
        Distribution::paper_uniform().generate_u64(n, rank_seed(seed, rank))
    };
    let u32_full = |rank: usize, n: usize, seed: u64| -> Vec<u32> {
        Distribution::Uniform {
            lo: 0,
            hi: u32::MAX as u64,
        }
        .generate_u64(n, rank_seed(seed, rank))
        .into_iter()
        .map(|x| x as u32)
        .collect()
    };
    let f64_norm = |rank: usize, n: usize, seed: u64| -> Vec<OrderedF64> {
        Distribution::paper_normal()
            .generate_f64(n, rank_seed(seed, rank))
            .into_iter()
            .map(OrderedF64)
            .collect()
    };
    let f32_norm = |rank: usize, n: usize, seed: u64| -> Vec<OrderedF32> {
        Distribution::paper_normal()
            .generate_f64(n, rank_seed(seed, rank))
            .into_iter()
            .map(|x| OrderedF32(x as f32))
            .collect()
    };
    let u64_zipf = |rank: usize, n: usize, seed: u64| -> Vec<u64> {
        Distribution::Zipf {
            items: 1 << 20,
            s: 1.1,
        }
        .generate_u64(n, rank_seed(seed, rank))
    };

    for strict in [true, false] {
        println!(
            "## {} acceptance rule",
            if strict {
                "strict (paper Algorithm 2)"
            } else {
                "relaxed (library default)"
            }
        );
        let mut t = Table::new(
            std::iter::once("workload".to_string()).chain(ps.iter().map(|p| format!("P={p}"))),
        );
        macro_rules! row {
            ($name:expr, $make:expr) => {
                t.row(
                    std::iter::once($name.to_string()).chain(
                        ps.iter().map(|&p| {
                            format!("{:.0}", iterations_for(p, n_per, reps, strict, $make))
                        }),
                    ),
                );
            };
        }
        row!("u64 uniform full-range", u64_full);
        row!("u64 uniform [0,1e9]", u64_paper);
        row!("u32 uniform full-range", u32_full);
        row!("f64 normal(0,1)", f64_norm);
        row!("f32 normal(0,1)", f32_norm);
        row!("u64 zipf (duplicates)", u64_zipf);
        t.print();
        println!();
    }
}
