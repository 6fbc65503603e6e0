//! Engine equivalence through the splitter search's owner finish, in a
//! binary of its own: its p = 256 world would otherwise warm rank
//! threads 64..256 of the process-wide pool, and
//! `engine_equivalence.rs`'s `rank_threads_carry_nothing_between_worlds`
//! needs the upper ranks of its p = 72 reference sort to start on fresh
//! threads.

use dhs_core::{histogram_sort, SortConfig};
use dhs_runtime::{launch, ClusterConfig, RunnerEngine, TraceConfig};

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

/// The owner finish (p = 256, 16 keys per rank, where the splitter
/// search settles its open splitters at their owners after round 1)
/// moves keys through its own all-to-all and allgather: output and
/// counter reports are byte-identical at one worker and the default
/// pool, at one and two threads per rank, traced or not.
#[test]
fn engines_agree_through_the_owner_finish() {
    let (p, n_per) = (256, 16);
    let sort = |workers: usize, threads: usize, trace: TraceConfig| {
        let cfg = ClusterConfig::supermuc_phase2(p)
            .with_engine(RunnerEngine { workers })
            .with_trace(trace);
        let sort_cfg = SortConfig {
            threads_per_rank: threads,
            ..SortConfig::default()
        };
        let out = launch(&cfg, move |comm| {
            let mut local = keys_for(comm.rank(), n_per, u64::MAX);
            let stats = histogram_sort(comm, &mut local, &sort_cfg);
            (local, stats.iterations)
        })
        .expect("an inert fault plan is valid");
        assert_eq!(out.park_backstops, 0, "a park ended by the backstop");
        assert_eq!(out.lost_wakes, 0, "a wake was lost");
        let finished = out.trace.ranks.len() == p
            && out.trace.ranks.iter().all(|rank| {
                let spans = &rank.spans;
                spans.iter().any(|s| s.name == "owner_finish")
            });
        (
            out.into_result().expect("a fault-free sort completes"),
            finished,
        )
    };
    let (reference, _) = sort(0, 1, TraceConfig::Off);
    for workers in [1, 0] {
        for threads in [1, 2] {
            for trace in [TraceConfig::Off, TraceConfig::On] {
                let (got, finished) = sort(workers, threads, trace);
                assert!(
                    got == reference,
                    "{workers} workers, {threads} threads, {trace:?}"
                );
                assert_eq!(
                    finished,
                    trace.is_on(),
                    "every traced rank finishes at the owners"
                );
            }
        }
    }
}
