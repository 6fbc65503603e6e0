//! The shared experiment runner: execute one distributed sort on a
//! simulated cluster and fold the per-rank reports into the figures the
//! paper plots (median time, phase fractions, traffic, balance).

use dhs_baselines::{run_algorithm, Algorithm};
use dhs_core::{histogram_sort, SortConfig, SortOutcome};
use dhs_runtime::{launch, run, ClusterConfig, RunSummary};
use dhs_workloads::{rank_local_keys, Distribution, Layout};

/// Which sorter to run.
#[derive(Debug, Clone)]
pub enum SortAlgo {
    /// The paper's algorithm (labelled "DASH" in Figures 2-4), with its
    /// configuration: the only way to run it.
    Histogram(SortConfig),
    /// A baseline of [`Algorithm`] — any but `HistogramSort` — with its
    /// default configuration, run by [`run_algorithm`] (`Algorithm::Hss`
    /// is the "Charm++" comparator of Figures 2-3).
    Baseline(Algorithm),
}

impl SortAlgo {
    pub fn label(&self) -> &'static str {
        match self {
            SortAlgo::Histogram(_) => Algorithm::HistogramSort.label(),
            SortAlgo::Baseline(algo) => algo.label(),
        }
    }
}

/// Aggregated outcome of one simulated sort run.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// Simulated makespan in seconds (max rank completion time).
    pub makespan_s: f64,
    /// Per-phase maxima over ranks, in seconds: (name, time).
    pub phases: Vec<(&'static str, f64)>,
    /// Histogramming/splitter rounds (max over ranks).
    pub iterations: u32,
    /// Candidate keys histogrammed across all rounds (max over ranks;
    /// identical on every rank for the histogram sort). Zero for
    /// algorithms that do not histogram.
    pub probes: u64,
    /// Total bytes that crossed node boundaries.
    pub inter_node_bytes: u64,
    /// Total bytes that stayed inside nodes.
    pub intra_node_bytes: u64,
    /// Largest / smallest output partition.
    pub max_keys: usize,
    pub min_keys: usize,
    /// Whether the splitter phase met its tolerance everywhere.
    pub converged: bool,
}

impl DistributedRun {
    /// Phase fractions of the summed phase time (Fig. 2b / 3b bars).
    pub fn phase_fractions(&self) -> Vec<(&'static str, f64)> {
        let total: f64 = self.phases.iter().map(|&(_, t)| t).sum();
        if total <= 0.0 {
            return self.phases.iter().map(|&(n, _)| (n, 0.0)).collect();
        }
        self.phases.iter().map(|&(n, t)| (n, t / total)).collect()
    }
}

/// Execute one sort of `n_total` keys drawn from `dist`/`layout` on the
/// given cluster. Deterministic in `seed`.
pub fn run_distributed_sort(
    cluster: &ClusterConfig,
    algo: &SortAlgo,
    dist: Distribution,
    layout: Layout,
    n_total: usize,
    seed: u64,
) -> DistributedRun {
    let p = cluster.ranks();
    assert!(
        !matches!(algo, SortAlgo::Baseline(Algorithm::HistogramSort)),
        "the histogram sort runs as SortAlgo::Histogram"
    );
    let algo = algo.clone();
    let out = run(cluster, move |comm| {
        let mut local = rank_local_keys(dist, layout, n_total, p, comm.rank(), seed);
        let t0 = comm.now_ns();
        let (phases, iterations, probes, converged) = match &algo {
            SortAlgo::Histogram(cfg) => {
                let s = histogram_sort(comm, &mut local, cfg);
                (
                    vec![
                        ("local-sort", s.local_sort_ns),
                        ("histogram", s.histogram_ns),
                        ("exchange", s.exchange_ns),
                        ("merge", s.merge_ns),
                        ("other", s.prepare_ns),
                    ],
                    s.iterations,
                    s.probes,
                    !s.outcome.is_degraded(),
                )
            }
            SortAlgo::Baseline(algo) => {
                let s = run_algorithm(comm, *algo, &mut local);
                (algo_phases(&s), s.rounds, 0, s.converged)
            }
        };
        let total_ns = comm.now_ns() - t0;
        (phases, iterations, probes, converged, local.len(), total_ns)
    });

    let mut phase_max: Vec<(&'static str, u64)> = Vec::new();
    let mut makespan_ns = 0u64;
    let mut iterations = 0u32;
    let mut probes = 0u64;
    let mut converged = true;
    let mut max_keys = 0usize;
    let mut min_keys = usize::MAX;
    for ((phases, iters, probe_count, conv, n_out, total_ns), _) in &out {
        makespan_ns = makespan_ns.max(*total_ns);
        iterations = iterations.max(*iters);
        probes = probes.max(*probe_count);
        converged &= conv;
        max_keys = max_keys.max(*n_out);
        min_keys = min_keys.min(*n_out);
        if phase_max.is_empty() {
            phase_max = phases.clone();
        } else {
            for (slot, &(_, t)) in phase_max.iter_mut().zip(phases) {
                slot.1 = slot.1.max(t);
            }
        }
    }
    let traffic = RunSummary::from_reports(out.iter().map(|(_, r)| r));
    DistributedRun {
        makespan_s: makespan_ns as f64 * 1e-9,
        phases: phase_max
            .into_iter()
            .map(|(n, t)| (n, t as f64 * 1e-9))
            .collect(),
        iterations,
        probes,
        inter_node_bytes: traffic.inter_node_bytes,
        intra_node_bytes: traffic.intra_node_bytes,
        max_keys,
        min_keys,
        converged,
    }
}

/// Outcome of one histogram-sort run under injected rank failures —
/// the unit of the chaos-sweep recovery grid. All times are virtual.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// Ranks that returned a result (survivors, plus any planned
    /// victim whose deadline fell past its completion).
    pub completed_ranks: usize,
    /// Ranks the fault plan did *not* schedule to crash.
    pub expected_survivors: usize,
    /// Every expected survivor completed.
    pub completed: bool,
    /// At least one completer reported [`SortOutcome::Recovered`]
    /// (i.e. the sort actually shrank past a failure).
    pub recovered: bool,
    /// Shrink-and-restart cycles (max over completers).
    pub restarts: u32,
    /// Ranks declared dead by the survivor agreement, ascending.
    pub lost_ranks: Vec<usize>,
    /// Max completer end-to-end virtual time, in seconds.
    pub makespan_s: f64,
    /// Max completer recovery overhead (failed attempts + agreement +
    /// rollback), in seconds.
    pub recovery_overhead_s: f64,
    /// The completers' concatenated output is globally sorted and is
    /// exactly the multiset of their inputs.
    pub sorted_ok: bool,
}

/// Execute one histogram sort of `n_total` keys on a cluster whose
/// fault plan may kill ranks, tolerating partial completion. The
/// planned crash victims are read from the cluster's fault plan;
/// everything else mirrors [`run_distributed_sort`]. Deterministic in
/// `seed`.
pub fn run_recovery_sort(
    cluster: &ClusterConfig,
    cfg: &SortConfig,
    dist: Distribution,
    layout: Layout,
    n_total: usize,
    seed: u64,
) -> RecoveryRun {
    let p = cluster.ranks();
    let victims: Vec<usize> = cluster.fault.crashes.iter().map(|c| c.rank).collect();
    let cfg = cfg.clone();
    let out = launch(cluster, move |comm| {
        let mut local = rank_local_keys(dist, layout, n_total, p, comm.rank(), seed);
        let stats = histogram_sort(comm, &mut local, &cfg);
        (local, stats)
    })
    .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));

    let mut completed_ranks = 0usize;
    let mut completed = true;
    let mut recovered = false;
    let mut restarts = 0u32;
    let mut lost_ranks: Vec<usize> = Vec::new();
    let mut makespan_ns = 0u64;
    let mut overhead_ns = 0u64;
    let mut got: Vec<u64> = Vec::new();
    let mut expect: Vec<u64> = Vec::new();
    for (rank, res) in out.ranks.iter().enumerate() {
        match res {
            Ok(((local, stats), _)) => {
                completed_ranks += 1;
                makespan_ns = makespan_ns.max(stats.total_ns());
                if let SortOutcome::Recovered {
                    lost_ranks: lost,
                    restarts: r,
                    recovery_ns,
                } = &stats.outcome
                {
                    recovered = true;
                    restarts = restarts.max(*r);
                    overhead_ns = overhead_ns.max(*recovery_ns);
                    if lost.len() > lost_ranks.len() {
                        lost_ranks = lost.clone();
                    }
                }
                got.extend_from_slice(local);
                expect.extend(rank_local_keys(dist, layout, n_total, p, rank, seed));
            }
            Err(_) => {
                if !victims.contains(&rank) {
                    completed = false;
                }
            }
        }
    }
    expect.sort_unstable();
    // A post-commit crash legitimately leaves the victim's keys in the
    // completers' outputs (the exchange had already delivered them),
    // so the exact multiset check only applies to recovered runs; the
    // global-order invariant applies always.
    let sorted = got.windows(2).all(|w| w[0] <= w[1]);
    let sorted_ok = sorted && (!recovered || got == expect);
    RecoveryRun {
        completed_ranks,
        expected_survivors: p - victims.len(),
        completed,
        recovered,
        restarts,
        lost_ranks,
        makespan_s: makespan_ns as f64 * 1e-9,
        recovery_overhead_s: overhead_ns as f64 * 1e-9,
        sorted_ok,
    }
}

fn algo_phases(s: &dhs_baselines::AlgoStats) -> Vec<(&'static str, u64)> {
    vec![
        ("splitting", s.splitter_ns),
        ("exchange", s.exchange_ns),
        ("sort+merge", s.sort_merge_ns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_run_produces_sane_report() {
        let cluster = ClusterConfig::supermuc_phase2(16);
        let run = run_distributed_sort(
            &cluster,
            &SortAlgo::Histogram(SortConfig::default()),
            Distribution::paper_uniform(),
            Layout::Balanced,
            1 << 14,
            42,
        );
        assert!(run.makespan_s > 0.0);
        assert!(run.iterations > 0);
        assert!(run.converged);
        assert_eq!(run.max_keys, run.min_keys, "perfect partitioning");
        let fr: f64 = run.phase_fractions().iter().map(|&(_, f)| f).sum();
        assert!((fr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_in_seed() {
        let cluster = ClusterConfig::supermuc_phase2(8);
        let go = |seed| {
            run_distributed_sort(
                &cluster,
                &SortAlgo::Baseline(Algorithm::Hss),
                Distribution::paper_uniform(),
                Layout::Balanced,
                1 << 12,
                seed,
            )
            .makespan_s
        };
        assert_eq!(go(1), go(1));
        assert_ne!(go(1), go(2));
    }

    #[test]
    fn all_algorithms_run_under_harness() {
        let cluster = ClusterConfig::supermuc_phase2(8);
        let baselines = Algorithm::ALL
            .into_iter()
            .filter(|&a| a != Algorithm::HistogramSort)
            .map(SortAlgo::Baseline);
        let histogram = SortAlgo::Histogram(SortConfig::default());
        for algo in std::iter::once(histogram).chain(baselines) {
            let run = run_distributed_sort(
                &cluster,
                &algo,
                Distribution::paper_uniform(),
                Layout::Balanced,
                1 << 12,
                7,
            );
            assert!(run.makespan_s > 0.0, "{}", algo.label());
        }
    }
}
