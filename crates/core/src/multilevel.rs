//! Two-level histogram sort — the paper's §VII future work: "We see
//! the most potential in efficient sampling mechanisms to reduce the
//! number of histogramming rounds, while *reducing the group size of
//! communicating ranks* at the same time."
//!
//! Level 1 splits the machine into `g` processor groups: only `g-1`
//! splitters are histogrammed machine-wide, and one all-to-all moves
//! every key into its group. Level 2 then runs the ordinary histogram
//! sort *inside* each group: its `ALLREDUCE`s span `P/g` ranks instead
//! of `P`, attacking exactly the strong-scaling bottleneck Fig. 2b
//! exposes — at the price the paper acknowledges for such schemes: the
//! data moves twice, and each level pays a communicator split.
//!
//! Only the choice of level-1 targets lives here. Level 1 cuts and
//! routes with the shared [`plan_exchange`] and [`exchange_data`] (a
//! `g`-way plan sends group `d`'s segment to one of its members) and
//! merges what it received with the shared [`merge_received`]; the
//! local sort and the whole of level 2 are the shared pipeline of
//! [`mod@crate::sort`], run on the split communicator with the group's
//! share of the targets.

use dhs_merge::MergeAlgo;
use dhs_runtime::{AllToAllAlgo, Comm};

use crate::exchange::{exchange_data, group_of, group_range, plan_exchange};
use crate::key::Key;
use crate::sort::{
    attempt, histogram_sort, local_phase, merge_received, Keys, Shape, SortConfig, SortStats,
};
use crate::splitter::{find_splitters, SplitterOptions};

/// Sort with one level of group splitting. `groups` controls the
/// level-1 fan-out; `0` picks `⌈√P⌉` (the AMS/HykSort convention the
/// paper cites), and a fan-out of 1 or `P` degenerates to
/// [`histogram_sort`]. Every [`SortConfig`] field applies as for the
/// flat sort, except that [`SortConfig::recovery`] is not consulted
/// between the levels (a rank failure aborts the run) and the level-1
/// splitter search always runs cold with one probe per round.
///
/// # Panics
/// Panics when `cfg` fails [`SortConfig::validate`].
pub fn histogram_sort_two_level<K: Key>(
    comm: &Comm,
    local: &mut Vec<K>,
    cfg: &SortConfig,
    groups: usize,
) -> SortStats {
    let p = comm.size();
    let g = if groups == 0 {
        (p as f64).sqrt().ceil() as usize
    } else {
        groups
    };
    let g = g.clamp(1, p);
    if g <= 1 || g >= p {
        return histogram_sort(comm, local, cfg);
    }

    let t_begin = comm.now_ns();
    let mut stats = local_phase(comm, local, &Keys, cfg);

    // The partitioning policy fixes where every rank's output block
    // ends; both levels read their targets off those boundaries.
    let sp = comm.span("prepare");
    let shape = Shape::gather(comm, local, cfg);
    stats.prepare_ns += sp.finish();
    if shape.n_total == 0 {
        stats.n_out = local.len();
        return stats;
    }
    let my_group = group_of(comm.rank(), p, g);
    let members = group_range(my_group, p, g);
    let base = members.start.checked_sub(1).map_or(0, |r| shape.targets[r]);

    // Level 1: g-1 group splitters where the groups' outputs end, one
    // cold search on the whole communicator.
    let sp = comm.span("histogram");
    let l1_targets: Vec<u64> = (1..g)
        .map(|grp| shape.targets[group_range(grp, p, g).start - 1])
        .collect();
    let l1 = find_splitters(
        comm,
        local,
        &l1_targets,
        shape.slack,
        SplitterOptions::default(),
    );
    stats.iterations += l1.iterations;
    stats.probes += l1.probes;
    stats.histogram_ns += sp.finish();

    let sp = comm.span("prepare");
    let plan = plan_exchange(comm, local, &l1);
    stats.prepare_ns += sp.finish();

    // A g-way plan sends group `d`'s segment to one member of
    // `group_range(d, p, g)`: one sorted run per source, merged by the
    // shared merge step and charged as a re-sort.
    let sp = comm.span("exchange");
    let received = exchange_data(comm, local, &plan, AllToAllAlgo::OneFactor);
    let scratch = std::mem::take(local);
    *local = merge_received(comm, received, scratch, MergeAlgo::Resort, cfg.local_sort);
    stats.exchange_ns += sp.finish();

    // Level 2: the shared pipeline inside the group, aiming at the
    // group members' own output boundaries (not the transient level-1
    // distribution). The communicator split — the blocking,
    // linear-cost collective the paper warns about — and the
    // group-emptiness allreduce are exchange *preparation*.
    let sp = comm.span("prepare");
    let sub = comm.split(my_group as u64, comm.rank() as u64);
    let l2 = sub.allreduce_sum_then(&[local.len() as u64], |group_total| Shape {
        // An entirely empty group (possible under sparse layouts) has
        // nothing left to do; `attempt` returns at once.
        n_total: group_total[0],
        targets: shape.targets[members.start..members.end - 1]
            .iter()
            .map(|t| t - base)
            .collect(),
        slack: shape.slack,
    });
    stats.prepare_ns += sp.finish();
    attempt(&sub, local, &Keys, cfg, &mut stats, &mut None, Some(l2));

    stats.n_out = local.len();
    debug_assert_eq!(
        stats.total_ns(),
        comm.now_ns() - t_begin,
        "span-derived phase totals must cover the sort's virtual time"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect()
    }

    fn check(p: usize, n: usize, modulus: u64, groups: usize) {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            let stats = histogram_sort_two_level(comm, &mut local, &SortConfig::default(), groups);
            (local, stats)
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|((l, _), _)| l.clone()).collect();
        assert_eq!(got, expect, "p={p} g={groups}");
        for ((l, _), _) in &out {
            assert_eq!(l.len(), n, "perfect partitioning per rank");
        }
    }

    #[test]
    fn sorts_with_sqrt_groups() {
        check(16, 300, u64::MAX, 0);
        check(9, 200, u64::MAX, 3);
        check(8, 250, 13, 2);
    }

    #[test]
    fn degenerate_group_counts() {
        check(6, 100, 1 << 20, 1); // falls back to flat
        check(6, 100, 1 << 20, 6); // every rank its own group
    }

    #[test]
    fn uneven_group_sizes() {
        check(10, 150, u64::MAX, 3);
        check(7, 120, 100, 2);
    }

    #[test]
    fn sparse_input() {
        let out = run(&ClusterConfig::small_cluster(8), |comm| {
            let mut local = if comm.rank() < 2 {
                keys_for(comm.rank(), 400, 1 << 20)
            } else {
                Vec::new()
            };
            histogram_sort_two_level(comm, &mut local, &SortConfig::default(), 0);
            local.len()
        });
        let sizes: Vec<usize> = out.into_iter().map(|(l, _)| l).collect();
        assert_eq!(sizes, vec![400, 400, 0, 0, 0, 0, 0, 0]);
    }

    /// Per-rank (output, stats) of a two-level sort at p=16, g=4.
    fn run_with(cfg: SortConfig) -> Vec<(Vec<u64>, SortStats)> {
        run(&ClusterConfig::small_cluster(16), move |comm| {
            let mut local = keys_for(comm.rank(), 1500, 1 << 40);
            let stats = histogram_sort_two_level(comm, &mut local, &cfg, 4);
            (local, stats)
        })
        .into_iter()
        .map(|(out, _)| out)
        .collect()
    }

    #[test]
    fn level_two_honours_the_probe_grid() {
        let with_probes = |m| {
            run_with(SortConfig {
                probes_per_round: m,
                ..SortConfig::default()
            })
        };
        let (one, seven) = (with_probes(1), with_probes(7));
        for ((out1, stats1), (out7, stats7)) in one.iter().zip(&seven) {
            assert_eq!(out1, out7, "the probe grid never changes the output");
            assert!(
                stats7.iterations < stats1.iterations,
                "7 probes/round must cut level-2 rounds: {} vs {}",
                stats7.iterations,
                stats1.iterations
            );
        }
    }

    #[test]
    fn thread_budget_changes_neither_output_nor_clock() {
        let with_threads = |t| {
            run_with(SortConfig {
                threads_per_rank: t,
                ..SortConfig::default()
            })
        };
        let (serial, hybrid) = (with_threads(1), with_threads(4));
        for ((out1, stats1), (out4, stats4)) in serial.iter().zip(&hybrid) {
            assert_eq!(out1, out4);
            assert_eq!(stats1.total_ns(), stats4.total_ns());
        }
    }

    #[test]
    fn level_iterations_accumulate() {
        let out = run(&ClusterConfig::small_cluster(16), |comm| {
            let mut local = keys_for(comm.rank(), 2000, 1 << 30);
            histogram_sort_two_level(comm, &mut local, &SortConfig::default(), 4)
        });
        for (stats, _) in out {
            assert!(stats.iterations > 0);
            assert_eq!(stats.n_out, 2000);
        }
    }
}
