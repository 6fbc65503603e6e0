//! N-body load balancing via space-filling curves — the motivating
//! application of the paper's introduction: "Irregular applications,
//! like N-Body particle simulations, can achieve load balancing
//! through space filling curves (e.g., Morton Order) by sorting
//! n-dimensional coordinates according to a projection into the
//! 1-dimensional space."
//!
//! A clustered 3D particle distribution (a Plummer-like blob per rank)
//! is encoded in Morton order and sorted with *balanced* partitioning:
//! afterwards every rank owns an equal share of a contiguous segment
//! of the space-filling curve — spatially compact work units.
//!
//! ```sh
//! cargo run --release --example nbody_morton
//! ```

use dhs::core::{histogram_sort, Partitioning, SortConfig};
use dhs::runtime::{run, ClusterConfig};
use dhs::workloads::{rank_seed, Mt19937_64};

/// Interleave the low 21 bits of x, y, z into a 63-bit Morton code.
fn morton3(x: u32, y: u32, z: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut v = v as u64 & 0x1F_FFFF; // 21 bits
        v = (v | (v << 32)) & 0x1F00000000FFFF;
        v = (v | (v << 16)) & 0x1F0000FF0000FF;
        v = (v | (v << 8)) & 0x100F00F00F00F00F;
        v = (v | (v << 4)) & 0x10C30C30C30C30C3;
        v = (v | (v << 2)) & 0x1249249249249249;
        v
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

/// Invert one spread axis of a Morton code.
fn compact(v: u64) -> u32 {
    let mut v = v & 0x1249249249249249;
    v = (v | (v >> 2)) & 0x10C30C30C30C30C3;
    v = (v | (v >> 4)) & 0x100F00F00F00F00F;
    v = (v | (v >> 8)) & 0x1F0000FF0000FF;
    v = (v | (v >> 16)) & 0x1F00000000FFFF;
    v = (v | (v >> 32)) & 0x1F_FFFF;
    v as u32
}

fn demorton3(m: u64) -> (u32, u32, u32) {
    (compact(m), compact(m >> 1), compact(m >> 2))
}

fn main() {
    let ranks = 16;
    let particles_per_rank = 50_000;
    let cluster = ClusterConfig::supermuc_phase2(ranks);

    println!("# N-body Morton-order load balancing, {ranks} ranks");
    let results = run(&cluster, |comm| {
        // Each rank spawns a clustered blob of particles around a
        // rank-specific center: a *skewed* spatial distribution, the
        // hard case for static domain decomposition.
        let mut g = Mt19937_64::new(rank_seed(9, comm.rank()));
        let center = (
            (comm.rank() as u32 % 4) * 400_000 + 200_000,
            (comm.rank() as u32 / 4 % 4) * 400_000 + 200_000,
            g.below(1 << 21) as u32 / 4,
        );
        let mut codes: Vec<u64> = (0..particles_per_rank)
            .map(|_| {
                let mut jitter = |c: u32| {
                    let d = (g.below(100_000) as i64 - 50_000) / 2;
                    (c as i64 + d).clamp(0, (1 << 21) - 1) as u32
                };
                let (x, y, z) = (jitter(center.0), jitter(center.1), jitter(center.2));
                morton3(x, y, z)
            })
            .collect();

        // Sort along the space-filling curve with globally balanced
        // output (boundaries at N·i/P, not at the input capacities).
        let cfg = SortConfig {
            partitioning: Partitioning::Balanced,
            ..SortConfig::default()
        };
        let stats = histogram_sort(comm, &mut codes, &cfg);

        // Each rank's curve segment is spatially compact: report its
        // bounding box.
        let bbox = codes.iter().fold(
            ((u32::MAX, u32::MAX, u32::MAX), (0u32, 0u32, 0u32)),
            |(lo, hi), &m| {
                let (x, y, z) = demorton3(m);
                (
                    (lo.0.min(x), lo.1.min(y), lo.2.min(z)),
                    (hi.0.max(x), hi.1.max(y), hi.2.max(z)),
                )
            },
        );
        (codes.len(), bbox, stats.iterations)
    });

    for (rank, ((n, (lo, hi), iters), _)) in results.iter().enumerate() {
        println!(
            "rank {rank:>2}: {n:>6} particles  box x:[{:>7},{:>7}] y:[{:>7},{:>7}]  ({iters} iters)",
            lo.0, hi.0, lo.1, hi.1
        );
    }
    let loads: Vec<usize> = results.iter().map(|((n, _, _), _)| *n).collect();
    let (min, max) = (
        loads.iter().min().copied().unwrap_or(0),
        loads.iter().max().copied().unwrap_or(0),
    );
    println!(
        "load balance: min {min}, max {max} (imbalance {:.2}%)",
        (max as f64 / (particles_per_rank as f64) - 1.0) * 100.0
    );
    assert!(
        max - min <= 1,
        "balanced partitioning must even out the load"
    );
}
