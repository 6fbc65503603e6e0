//! Micro-benchmarks of the k-way merge engines (§V-C): few large
//! chunks vs many small chunks, the axis of the §VI-E2 study.

use criterion::{criterion_group, criterion_main, Criterion};
use dhs_merge::ENGINES;
use dhs_workloads::Mt19937_64;

fn sorted_chunks(n_total: usize, k: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut g = Mt19937_64::new(seed);
    (0..k)
        .map(|_| {
            let mut v: Vec<u64> = (0..n_total / k).map(|_| g.next_u64()).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

fn bench_merge(c: &mut Criterion) {
    let n = 1 << 20;
    for k in [4usize, 64, 512] {
        let runs = sorted_chunks(n, k, k as u64);
        let mut group = c.benchmark_group(format!("kway-merge-k{k}"));
        group.sample_size(10);
        for (label, merge) in ENGINES {
            group.bench_function(label, |b| b.iter(|| merge(&runs)));
        }
        group.finish();
    }
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
