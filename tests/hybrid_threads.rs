//! The hybrid rank×thread determinism contract: for every
//! `threads_per_rank`, the sort produces byte-identical output AND
//! byte-identical virtual time on every rank. Host threads spent
//! inside a rank are invisible to the cost model — charges are pure
//! functions of data sizes — so budgets 1, 2 and 4 must replay the
//! exact same simulation, with or without injected faults.
//!
//! Every cluster here runs on one worker slot ([`ONE_AT_A_TIME`]): the
//! runner splits the host's cores between the ranks that can compute
//! at once, so under the default pool a p = 4 world on a 2- or 4-core
//! CI runner would cap every rank at one thread and compare serial
//! with serial.

use dhs::core::{histogram_sort, histogram_sort_by, Key, LocalSort, SortConfig};
use dhs::runtime::threads::host_parallelism;
use dhs::runtime::{run, ClusterConfig, FaultPlan, LinkClass, LinkFault, RankReport, RunnerEngine};
use dhs::workloads::{rank_local_keys, Distribution, Layout};
use proptest::prelude::*;

/// One full sort of the blocks `input(rank)`: per-rank `(sorted data,
/// RankReport)` — the report carries the virtual completion clock, all
/// message/byte counters and the depth-0 phase totals, so equality is
/// the whole simulation.
fn sort_keys<K: Key>(
    cluster: &ClusterConfig,
    cfg: SortConfig,
    input: impl Fn(usize) -> Vec<K> + Send + Sync,
) -> Vec<(Vec<K>, RankReport)> {
    run(cluster, move |comm| {
        let mut local = input(comm.rank());
        histogram_sort(comm, &mut local, &cfg);
        local
    })
}

/// [`sort_keys`] of uniform `u64` keys under the default configuration
/// at one thread budget.
fn sort_with_threads(
    cluster: &ClusterConfig,
    p: usize,
    n_per: usize,
    seed: u64,
    threads: usize,
) -> Vec<(Vec<u64>, RankReport)> {
    sort_with_threads_probes(cluster, p, n_per, seed, threads, 1)
}

/// [`sort_with_threads`] with a multi-probe splitter search: the
/// fatter histogram rounds dispatch per-splitter probe batches to the
/// thread pool, so the m > 1 path needs its own budget-invariance
/// coverage (output AND virtual makespan, via the `RankReport`s).
fn sort_with_threads_probes(
    cluster: &ClusterConfig,
    p: usize,
    n_per: usize,
    seed: u64,
    threads: usize,
    probes: usize,
) -> Vec<(Vec<u64>, RankReport)> {
    let cfg = SortConfig {
        threads_per_rank: threads,
        probes_per_round: probes,
        ..SortConfig::default()
    };
    sort_keys(cluster, cfg, |rank| {
        rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            p * n_per,
            p,
            rank,
            seed,
        )
    })
}

/// Record sort: `(key, provenance)` pairs ordered by key only, so the
/// provenance tags witness the *stable* permutation byte-for-byte.
fn sort_by_with_threads(
    cluster: &ClusterConfig,
    p: usize,
    n_per: usize,
    seed: u64,
    threads: usize,
) -> Vec<(Vec<(u64, u32)>, RankReport)> {
    let cfg = SortConfig {
        threads_per_rank: threads,
        ..SortConfig::default()
    };
    run(cluster, move |comm| {
        let keys = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            p * n_per,
            p,
            comm.rank(),
            seed,
        );
        // Key space collapsed mod 97: plenty of global duplicates, so
        // only a genuinely stable path reproduces the serial order.
        let mut records: Vec<(u64, u32)> = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k % 97, (comm.rank() * 1_000_000 + i) as u32))
            .collect();
        histogram_sort_by(comm, &mut records, |r| r.0, &cfg);
        records
    })
}

/// One rank computes at a time and owns every core of the host while
/// it does, so budgets 2 and 4 really fork wherever the host has ≥ 2
/// cores.
const ONE_AT_A_TIME: RunnerEngine = RunnerEngine { workers: 1 };

fn clean(p: usize) -> ClusterConfig {
    ClusterConfig::small_cluster(p).with_engine(ONE_AT_A_TIME)
}

fn faulty(p: usize, seed: u64) -> ClusterConfig {
    clean(p).with_fault(
        FaultPlan::default()
            .with_straggler(seed as usize % p, 2.5)
            .with_link_fault(LinkFault {
                class: Some(LinkClass::IntraNode),
                extra_alpha_ns: 3_000.0,
                beta_factor: 1.8,
                from_ns: 0,
                until_ns: u64::MAX,
            }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// `histogram_sort`: output and per-rank virtual clocks identical
    /// for budgets 1, 2 and 4, on clean and faulty clusters alike.
    #[test]
    fn keys_identical_across_thread_budgets(
        p in 2usize..7,
        n_per in 50usize..400,
        seed in 0u64..100_000,
        with_faults in any::<bool>(),
    ) {
        let cluster = if with_faults {
            faulty(p, seed)
        } else {
            clean(p)
        };
        let serial = sort_with_threads(&cluster, p, n_per, seed, 1);
        for threads in [2usize, 4] {
            let hybrid = sort_with_threads(&cluster, p, n_per, seed, threads);
            prop_assert_eq!(&serial, &hybrid, "threads={}", threads);
        }
    }

    /// Multi-probe splitter rounds (`probes_per_round = 7`): the
    /// threaded probe-counting kernel must keep sorted output and the
    /// per-rank virtual clocks byte-identical across budgets, and the
    /// simulation itself must match the single-probe one (same m ⇒
    /// same collective schedule regardless of threads; any m ⇒ same
    /// sorted output).
    #[test]
    fn multi_probe_identical_across_thread_budgets(
        p in 2usize..7,
        n_per in 50usize..400,
        seed in 0u64..100_000,
        with_faults in any::<bool>(),
    ) {
        let cluster = if with_faults {
            faulty(p, seed)
        } else {
            clean(p)
        };
        let serial = sort_with_threads_probes(&cluster, p, n_per, seed, 1, 7);
        for threads in [2usize, 4] {
            let hybrid = sort_with_threads_probes(&cluster, p, n_per, seed, threads, 7);
            prop_assert_eq!(&serial, &hybrid, "threads={}", threads);
        }
        // Same sorted keys as the classic single-probe search (the
        // virtual clocks legitimately differ: fewer, fatter rounds).
        let classic = sort_with_threads(&cluster, p, n_per, seed, 1);
        for ((keys_m, _), (keys_1, _)) in serial.iter().zip(&classic) {
            prop_assert_eq!(keys_m, keys_1);
        }
    }

    /// `histogram_sort_by` (stable record path): the duplicate-heavy
    /// key space makes any stability violation visible in the tags.
    #[test]
    fn records_identical_across_thread_budgets(
        p in 2usize..6,
        n_per in 50usize..300,
        seed in 0u64..100_000,
        with_faults in any::<bool>(),
    ) {
        let cluster = if with_faults {
            faulty(p, seed)
        } else {
            clean(p)
        };
        let serial = sort_by_with_threads(&cluster, p, n_per, seed, 1);
        for threads in [2usize, 4] {
            let hybrid = sort_by_with_threads(&cluster, p, n_per, seed, threads);
            prop_assert_eq!(&serial, &hybrid, "threads={}", threads);
        }
    }
}

/// Above the shm kernels' serial-fallback grain the parallel code paths
/// actually fork; the contract must hold there too, not just in the
/// small-n regime the proptests cover.
#[test]
fn large_local_blocks_identical_across_budgets() {
    let p = 4;
    let n_per = 40_000; // > SORT_GRAIN per rank: kernels really fork
    let cluster = ClusterConfig::supermuc_phase2(p).with_engine(ONE_AT_A_TIME);
    if host_parallelism() >= 2 {
        // Not vacuous: the hybrid runs below execute on > 1 thread.
        let budgets = run(&cluster, |comm| {
            comm.threads().configure(4);
            comm.threads().exec_budget()
        });
        assert!(budgets.iter().all(|(budget, _)| *budget > 1));
    }
    let serial = sort_with_threads(&cluster, p, n_per, 42, 1);
    for threads in [2usize, 4] {
        let hybrid = sort_with_threads(&cluster, p, n_per, 42, threads);
        assert_eq!(serial, hybrid, "threads={threads}");
    }
    let serial_by = sort_by_with_threads(&cluster, p, n_per, 42, 1);
    for threads in [2usize, 4] {
        let hybrid = sort_by_with_threads(&cluster, p, n_per, 42, threads);
        assert_eq!(serial_by, hybrid, "threads={threads}");
    }
    let serial_m = sort_with_threads_probes(&cluster, p, n_per, 42, 1, 7);
    for threads in [2usize, 4] {
        let hybrid = sort_with_threads_probes(&cluster, p, n_per, 42, threads, 7);
        assert_eq!(serial_m, hybrid, "threads={threads} probes=7");
    }
}

/// Every key width the radix leaf treats differently — `u64` and `u32`
/// take the monomorphic byte-wise kernel, `i64` the bit-image LSD sort
/// — under both local sorts, on blocks above the fork grain: unique,
/// duplicate-heavy and half-empty worlds. Each sort equals the global
/// sort cut at the input block sizes (perfect partitioning), output
/// and simulation are identical across thread budgets, and `i64` keys
/// replay the exact simulation of the same data as sign-flipped `u64`
/// (one splitter search path: same probes, same rounds).
#[test]
fn key_types_and_local_sorts_identical_across_budgets() {
    let p = 4;
    let cluster = ClusterConfig::supermuc_phase2(p).with_engine(ONE_AT_A_TIME);
    // Full-width xorshift words; `sparse` empties the odd ranks.
    let block = |rank: usize, n: usize, modulus: u64, sparse: bool| -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let n = if sparse && rank % 2 == 1 { 0 } else { n };
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect()
    };
    /// Sort `input` at budgets 1 and 4; check both against the global
    /// sort and each other; return the serial run.
    fn check<K: Key + std::fmt::Debug>(
        cluster: &ClusterConfig,
        local_sort: LocalSort,
        input: impl Fn(usize) -> Vec<K> + Send + Sync,
        what: &str,
    ) -> Vec<(Vec<K>, RankReport)> {
        let run_at = |threads: usize| {
            let cfg = SortConfig {
                local_sort,
                threads_per_rank: threads,
                ..SortConfig::default()
            };
            sort_keys(cluster, cfg, &input)
        };
        let serial = run_at(1);
        let mut expect: Vec<K> = (0..serial.len()).flat_map(&input).collect();
        expect.sort_unstable();
        let got: Vec<K> = serial.iter().flat_map(|(out, _)| out.clone()).collect();
        assert_eq!(got, expect, "{what}: not the global sort");
        for (rank, (out, _)) in serial.iter().enumerate() {
            assert_eq!(out.len(), input(rank).len(), "{what}: rank {rank} size");
        }
        assert_eq!(serial, run_at(4), "{what}: budgets 1 and 4 diverged");
        serial
    }
    for (modulus, sparse) in [(u64::MAX, false), (97, false), (3, true)] {
        for local_sort in [LocalSort::Comparison, LocalSort::Radix] {
            let what = format!("{local_sort:?} mod {modulus} sparse {sparse}");
            let words = |rank: usize| block(rank, 20_000, modulus, sparse);
            check(&cluster, local_sort, words, &format!("u64 {what}"));
            let narrow = |rank: usize| words(rank).iter().map(|&x| x as u32).collect();
            check::<u32>(&cluster, local_sort, narrow, &format!("u32 {what}"));
            // Centre the small moduli on zero so both signs occur.
            let signed = |rank: usize| -> Vec<i64> {
                let shift = if modulus == u64::MAX { 0 } else { modulus / 2 };
                words(rank)
                    .iter()
                    .map(|&x| x.wrapping_sub(shift) as i64)
                    .collect()
            };
            let as_signed = check(&cluster, local_sort, signed, &format!("i64 {what}"));
            let flipped = |rank: usize| signed(rank).iter().map(|&k| k.to_bits() as u64).collect();
            let as_words = check::<u64>(&cluster, local_sort, flipped, &format!("flipped {what}"));
            for ((signed, a), (words, b)) in as_signed.iter().zip(&as_words) {
                let image: Vec<u64> = signed.iter().map(|&k| k.to_bits() as u64).collect();
                assert_eq!(&image, words, "{what}: i64 vs flipped u64 output");
                assert_eq!(a, b, "{what}: i64 vs flipped u64 simulation");
            }
        }
    }
}
