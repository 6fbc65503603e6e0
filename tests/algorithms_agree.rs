//! All seven distributed sorters must produce the *same* globally sorted
//! sequence (when concatenated by rank) on the same input — the
//! cross-algorithm oracle for the baseline implementations — and report
//! it in the same five phases.

use dhs::baselines::{run_algorithm, Algorithm};
use dhs::runtime::{launch, run, ClusterConfig, TraceConfig};
use dhs::workloads::{rank_local_keys, Distribution, Layout};

fn global_output(algo: Algorithm, p: usize, n_total: usize, dist: Distribution) -> Vec<u64> {
    let out = run(&ClusterConfig::small_cluster(p), move |comm| {
        let mut local = rank_local_keys(dist, Layout::Balanced, n_total, p, comm.rank(), 77);
        run_algorithm(comm, algo, &mut local);
        local
    });
    out.into_iter().flat_map(|(l, _)| l).collect()
}

#[test]
fn agree_on_uniform_keys() {
    let p = 8;
    let n = 8 * 512;
    let dist = Distribution::paper_uniform();
    let reference = global_output(Algorithm::HistogramSort, p, n, dist);
    let mut sorted_ref = reference.clone();
    sorted_ref.sort_unstable();
    assert_eq!(reference, sorted_ref, "reference itself must be sorted");
    for algo in Algorithm::ALL {
        assert_eq!(global_output(algo, p, n, dist), reference, "{algo:?}");
    }
}

#[test]
fn agree_on_adversarial_distributions() {
    let p = 4;
    let n = 4 * 300;
    for dist in [
        Distribution::Normal {
            mean: 0.0,
            std_dev: 1.0,
        },
        Distribution::Zipf { items: 32, s: 1.3 },
        Distribution::NearlySorted {
            perturb_permille: 15,
        },
        Distribution::FewDistinct { k: 2 },
        Distribution::AllEqual { value: 9 },
    ] {
        let reference = global_output(Algorithm::HistogramSort, p, n, dist);
        for algo in Algorithm::ALL {
            if !algo.supports(p, true) {
                continue;
            }
            assert_eq!(
                global_output(algo, p, n, dist),
                reference,
                "{algo:?} on {dist:?}"
            );
        }
    }
}

#[test]
fn agree_on_non_power_of_two_ranks() {
    let p = 6;
    let n = 6 * 256;
    let dist = Distribution::paper_uniform();
    let reference = global_output(Algorithm::HistogramSort, p, n, dist);
    for algo in Algorithm::ALL {
        if !algo.supports(p, true) {
            continue; // bitonic sits this one out, like the Charm++ code
        }
        assert_eq!(global_output(algo, p, n, dist), reference, "{algo:?}");
    }
}

/// Every sorter spans its work under the histogram sort's five phase
/// names only, its `SortStats` phases equal those spans' totals, and on
/// every rank they sum to the virtual time of the call: the invariant
/// the pipeline debug-asserts.
#[test]
fn phases_cover_the_virtual_time_of_every_sorter() {
    const PHASES: [&str; 5] = ["local_sort", "histogram", "prepare", "exchange", "merge"];
    let p = 8;
    let n_total = 8 * 300;
    let dist = Distribution::Zipf { items: 64, s: 1.1 };
    for algo in Algorithm::ALL {
        let cluster = ClusterConfig::small_cluster(p).with_trace(TraceConfig::On);
        let record = launch(&cluster, move |comm| {
            let mut local = rank_local_keys(dist, Layout::Balanced, n_total, p, comm.rank(), 5);
            let t0 = comm.now_ns();
            let stats = run_algorithm(comm, algo, &mut local);
            (stats, comm.now_ns() - t0)
        })
        .expect("an inert fault plan is valid");
        let trace = record.trace.clone();
        let out = record.into_result().expect("a fault-free sort completes");
        for (rank, ((stats, elapsed), _)) in out.iter().enumerate() {
            assert_eq!(stats.total_ns(), *elapsed, "{algo:?} rank {rank}");
            let totals = trace.ranks[rank].phase_totals();
            for (name, ns) in &totals {
                assert!(PHASES.contains(&name.as_str()), "{algo:?} spans {name}");
                let stat = match name.as_str() {
                    "local_sort" => stats.local_sort_ns,
                    "histogram" => stats.histogram_ns,
                    "prepare" => stats.prepare_ns,
                    "exchange" => stats.exchange_ns,
                    _ => stats.merge_ns,
                };
                assert_eq!(stat, *ns, "{algo:?} rank {rank} {name}");
            }
            assert!(stats.iterations > 0, "{algo:?} reports its rounds");
        }
    }
}
