//! Sparse-matrix load balancing — the paper's closing use case: "we
//! can handle sparse data structures where a fraction of all
//! processors do not contribute local elements. This is useful for
//! example in numerical algorithms to load balance sparse matrices."
//!
//! A block-diagonal-ish sparse matrix arrives with all nonzeros
//! crammed onto a quarter of the ranks (e.g. after reading a file in
//! parallel). Sorting the nonzeros by (row, col) with *balanced*
//! partitioning redistributes them evenly while keeping row segments
//! contiguous — ready for a balanced SpMV.
//!
//! ```sh
//! cargo run --release --example sparse_matrix_balance
//! ```

use dhs::core::{histogram_sort, Partitioning, SortConfig};
use dhs::runtime::{run, ClusterConfig};
use dhs::workloads::{rank_seed, Mt19937_64};

/// Pack a (row, col) coordinate into one sortable key: row-major order.
fn coo_key(row: u32, col: u32) -> u64 {
    ((row as u64) << 32) | col as u64
}

fn coo_unkey(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

fn main() {
    let ranks = 16;
    let n_rows = 1 << 20;
    let nnz_total = 800_000;
    let holders = ranks / 4; // only 4 of 16 ranks hold data initially
    let cluster = ClusterConfig::supermuc_phase2(ranks);

    println!(
        "# Sparse matrix rebalancing: {nnz_total} nonzeros initially on {holders}/{ranks} ranks"
    );
    let results = run(&cluster, |comm| {
        // Sparse input: most ranks contribute nothing.
        let mut nnz: Vec<u64> = if comm.rank() < holders {
            let mut g = Mt19937_64::new(rank_seed(31, comm.rank()));
            (0..nnz_total / holders)
                .map(|_| {
                    // Banded structure: columns near the diagonal.
                    let row = g.below(n_rows as u64) as u32;
                    let col = (row as i64 + g.below(2048) as i64 - 1024).clamp(0, n_rows as i64 - 1)
                        as u32;
                    coo_key(row, col)
                })
                .collect()
        } else {
            Vec::new()
        };
        let before = nnz.len();

        let cfg = SortConfig {
            partitioning: Partitioning::Balanced,
            ..SortConfig::default()
        };
        let stats = histogram_sort(comm, &mut nnz, &cfg);

        let rows = nnz.iter().map(|&k| coo_unkey(k).0);
        let (row_lo, row_hi) = rows.fold((u32::MAX, 0u32), |(lo, hi), r| (lo.min(r), hi.max(r)));
        (before, nnz.len(), row_lo, row_hi, stats.iterations)
    });

    println!(
        "{:>4}  {:>10}  {:>10}  {:>22}",
        "rank", "nnz-before", "nnz-after", "row-range-after"
    );
    for (rank, ((before, after, lo, hi, _), _)) in results.iter().enumerate() {
        println!("{rank:>4}  {before:>10}  {after:>10}  [{lo:>9}, {hi:>9}]");
    }
    let loads: Vec<usize> = results.iter().map(|((_, a, _, _, _), _)| *a).collect();
    let max = loads.iter().max().copied().unwrap_or(0);
    let min = loads.iter().min().copied().unwrap_or(0);
    assert!(max - min <= 1, "nonzeros must be evenly spread");
    println!("rebalanced: every rank now holds {min}-{max} nonzeros, row-contiguous ✓");
}
