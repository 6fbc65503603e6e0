//! The simulator's promises: identical seeds give bit-identical
//! virtual times and traffic, and the cost model produces the
//! qualitative shapes the figures depend on.

use dhs::baselines::hss_sort;
use dhs::core::{histogram_sort, SortConfig};
use dhs::runtime::{run, AllToAllAlgo, ClusterConfig, Comm, RunSummary};
use dhs::workloads::{rank_local_keys, Distribution, Layout};

/// [`run`], folded into a [`RunSummary`].
fn summarized<R: Send>(cfg: &ClusterConfig, f: impl Fn(&Comm) -> R + Send + Sync) -> RunSummary {
    RunSummary::from_reports(run(cfg, f).iter().map(|(_, r)| r))
}

fn one_sort_summary(p: usize, n_total: usize, seed: u64) -> RunSummary {
    summarized(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let mut local = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            n_total,
            p,
            comm.rank(),
            seed,
        );
        histogram_sort(comm, &mut local, &SortConfig::default())
    })
}

#[test]
fn virtual_time_is_reproducible() {
    let a = one_sort_summary(32, 32 * 1000, 9);
    let b = one_sort_summary(32, 32 * 1000, 9);
    assert_eq!(a, b, "same seed must give identical virtual results");
    let c = one_sort_summary(32, 32 * 1000, 10);
    assert_ne!(
        a.makespan_ns, c.makespan_ns,
        "different data, different time"
    );
}

#[test]
fn strong_scaling_monotone_then_saturating() {
    // Fixed N: more ranks must reduce simulated time at small P; the
    // histogram collectives eventually flatten the curve (the Fig. 2
    // shape), so perfect scaling is NOT expected.
    let n_total = 1 << 18;
    let t16 = one_sort_summary(16, n_total, 4).makespan_ns;
    let t64 = one_sort_summary(64, n_total, 4).makespan_ns;
    assert!(t64 < t16, "t64 {t64} should beat t16 {t16}");
    let speedup = t16 as f64 / t64 as f64;
    assert!(
        speedup < 4.0,
        "speedup {speedup} cannot be ideal with collective overhead"
    );
    assert!(speedup > 1.3, "speedup {speedup} suspiciously poor");
}

#[test]
fn weak_scaling_exchange_dominates_histogram() {
    // Fig. 3b's claim: at a realistic volume per rank (the paper uses
    // 128 MB/rank; 8 MB/rank suffices here) the ALL-TO-ALL payload
    // dwarfs the ALLREDUCE histogramming overhead.
    let p = 32;
    let out = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let mut local = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            p * (1 << 20),
            p,
            comm.rank(),
            3,
        );
        histogram_sort(comm, &mut local, &SortConfig::default())
    });
    let max_exchange = out.iter().map(|(s, _)| s.exchange_ns).max().unwrap_or(0);
    let max_hist = out.iter().map(|(s, _)| s.histogram_ns).max().unwrap_or(0);
    assert!(
        max_exchange > max_hist,
        "weak scaling: exchange {max_exchange} should dominate histogram {max_hist}"
    );
}

/// The fast path prices co-located peers at shared-memory rates, so it
/// helps every schedule charged per peer — the one-factor rounds. The
/// priced default is never slower with it; here (64 ranks × 4 Ki keys)
/// it picks Bruck, whose rounds are charged at the communicator's worst
/// link either way.
#[test]
fn intranode_fastpath_saves_time() {
    let p = 64;
    let n_total = p * (1 << 12);
    let go = |fastpath: bool, exchange_algo: AllToAllAlgo| {
        let mut cfg = ClusterConfig::supermuc_phase2(p);
        cfg.cost.intranode_fastpath = fastpath;
        let sort_cfg = SortConfig {
            exchange_algo,
            ..SortConfig::default()
        };
        let s = summarized(&cfg, move |comm| {
            let mut local = rank_local_keys(
                Distribution::paper_uniform(),
                Layout::Balanced,
                n_total,
                p,
                comm.rank(),
                8,
            );
            histogram_sort(comm, &mut local, &sort_cfg)
        });
        s.makespan_ns
    };
    let one_factor = AllToAllAlgo::OneFactor;
    assert!(
        go(true, one_factor) < go(false, one_factor),
        "shared-memory windows must help"
    );
    let priced = AllToAllAlgo::Priced;
    assert!(go(true, priced) <= go(false, priced));
}

#[test]
fn histogram_iterations_do_not_grow_with_ranks() {
    // §V-A: "The number of processors does not impact the number of
    // iterations." — at fixed TOTAL problem size (the paper's strong
    // scaling setting). Iterations track the key resolution ~log₂(N),
    // not P; the max over more splitters adds at most a little.
    let n_total = 1 << 19;
    let iters = |p: usize| {
        let out = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
            let mut local = rank_local_keys(
                Distribution::paper_uniform(),
                Layout::Balanced,
                n_total,
                p,
                comm.rank(),
                6,
            );
            histogram_sort(comm, &mut local, &SortConfig::default()).iterations
        });
        out.into_iter().map(|(i, _)| i).max().unwrap_or(0)
    };
    let i8 = iters(8);
    let i128 = iters(128);
    assert!(
        i128 <= i8 + 6,
        "iterations should be flat in P at fixed N: P=8 -> {i8}, P=128 -> {i128}"
    );
    // And always bounded by the key width (u64).
    assert!(i8 <= 65 && i128 <= 65);
}

#[test]
fn hss_traffic_exceeds_bisection_histogramming() {
    // HSS ships sampled keys every round; the paper's bisection ships
    // only counts. Compare total traffic at equal shape.
    let p = 32;
    let n_total = p * 4096;
    let traffic = |hss: bool| {
        let s = summarized(&ClusterConfig::supermuc_phase2(p), move |comm| {
            let mut local = rank_local_keys(
                Distribution::paper_uniform(),
                Layout::Balanced,
                n_total,
                p,
                comm.rank(),
                12,
            );
            if hss {
                hss_sort(comm, &mut local);
            } else {
                histogram_sort(comm, &mut local, &SortConfig::default());
            }
        });
        s.inter_node_bytes + s.intra_node_bytes
    };
    // Both must at least ship the payload once.
    let payload = (n_total * 8) as u64;
    assert!(traffic(false) >= payload);
    assert!(traffic(true) >= payload);
}
