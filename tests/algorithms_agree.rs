//! All seven distributed sorters must produce the *same* globally sorted
//! sequence (when concatenated by rank) on the same input — the
//! cross-algorithm oracle for the baseline implementations.

use dhs::baselines::{run_algorithm, Algorithm};
use dhs::runtime::{run, ClusterConfig};
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
