//! Scaled-down runs of every figure experiment so `cargo bench`
//! exercises the full harness end-to-end (one point per figure; the
//! real sweeps live in the `fig*`/`ablation*` binaries).

use criterion::{criterion_group, criterion_main, Criterion};
use dhs_baselines::Algorithm;
use dhs_bench::experiment::{run_distributed_sort, SortAlgo};
use dhs_bench::sim_shm::{sim_openmp_merge_sort, sim_tbb_merge_sort};
use dhs_core::{histogram_sort, SortConfig};
use dhs_runtime::{run, ClusterConfig};
use dhs_workloads::{Distribution, Layout};

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures-quick");
    group.sample_size(10);

    // Fig 2/3 point: DASH vs HSS at P=32.
    let cluster = ClusterConfig::supermuc_phase2(32);
    group.bench_function("fig2-dash-p32", |b| {
        b.iter(|| {
            run_distributed_sort(
                &cluster,
                &SortAlgo::Histogram(SortConfig::default()),
                Distribution::paper_uniform(),
                Layout::Balanced,
                1 << 15,
                1,
            )
        })
    });
    group.bench_function("fig2-hss-p32", |b| {
        b.iter(|| {
            run_distributed_sort(
                &cluster,
                &SortAlgo::Baseline(Algorithm::Hss),
                Distribution::paper_uniform(),
                Layout::Balanced,
                1 << 15,
                1,
            )
        })
    });

    // Fig 4 point: one node, 28 cores.
    let node = ClusterConfig::single_node(28);
    group.bench_function("fig4-dash-28c", |b| {
        b.iter(|| {
            run(&node, |comm| {
                let mut local: Vec<u64> =
                    Distribution::paper_uniform().generate_u64(1 << 11, comm.rank() as u64);
                histogram_sort(comm, &mut local, &SortConfig::default());
            })
        })
    });
    group.bench_function("fig4-tbb-28c", |b| {
        b.iter(|| {
            run(&node, |comm| {
                let local: Vec<u64> =
                    Distribution::paper_uniform().generate_u64(1 << 11, comm.rank() as u64);
                sim_tbb_merge_sort(comm, &local);
            })
        })
    });
    group.bench_function("fig4-openmp-28c", |b| {
        b.iter(|| {
            run(&node, |comm| {
                let local: Vec<u64> =
                    Distribution::paper_uniform().generate_u64(1 << 11, comm.rank() as u64);
                sim_openmp_merge_sort(comm, &local);
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
