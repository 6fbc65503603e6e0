//! Wall-clock (host time) harness — the one place in the repo where
//! real time is measured on purpose. Every other crate runs purely on
//! the virtual clock; this binary establishes the *host-side*
//! performance trajectory the zero-copy work is judged against, and
//! that every later perf PR extends.
//!
//! Six benchmark groups, written to `BENCH_wallclock.json`
//! (schema `dhs-wallclock/v10`) at the repo root:
//!
//! * `full_sort` — end-to-end histogram sort at several (p, n/p)
//!   points: host seconds per run, plus the (unchanged) virtual
//!   makespan for cross-reference.
//! * `local_merge_ab` — the post-exchange merge A/B at t = 1 over an
//!   (r runs, n keys) grid: `serial` is `sort_unstable` of the flat
//!   receive buffer (what `MergeAlgo::Resort` is charged as, and what
//!   it executed at `threads_per_rank = 1` through PR 14), `hybrid` is
//!   `dhs_shm::merge_runs_in_place` over the same buffer and a warm
//!   scratch (what used to run only at `threads_per_rank > 1`). The
//!   grid brackets the crossover of `dhs_shm::run_merge_beats_resort`
//!   — the rule that now picks between the two for every thread
//!   budget — so its constant can be read off the `speedup` column.
//!   `p` is the number of non-empty runs, `n_per` their mean length.
//! * `record_sort_ab` — the record path's local phases A/B at t = 1:
//!   `stable_sort` is `sort_by_key` (what `histogram_sort_by` ran for
//!   both its local sort and its merge of received runs through
//!   PR 16), `lsd` is `dhs_shm::lsd_sort_if` forced over the same
//!   16-byte records. The grid crosses block size, live key span and
//!   {unsorted, 32 sorted runs, already sorted}, so both sides of
//!   `dhs_shm::lsd_beats_comparison` — the rule that picks between the
//!   two inside the record hooks — are on file; one plain u64-key row
//!   per size records the same kernel against `sort_unstable`.
//! * `exchange_algo_ab` — the exchange *schedule* A/B, measured on the
//!   **virtual** clock (the one place in this harness where the metric
//!   is simulated α–β time, not host seconds — schedule quality is a
//!   property of the cost model, not the host): the single-stage
//!   one-factor exchange versus the staged k-way exchange
//!   (`AllToAllAlgo::StagedKWay`) at latency-bound scale points. At
//!   small per-peer payloads the staged schedule pays `⌈log_k p⌉·k`
//!   latencies instead of `p-1`, so the speedup column must exceed 1
//!   at `p = 256` — that is the acceptance check for the staged
//!   exchange. Virtual time is deterministic, so a single rep is
//!   exact; both sides are asserted byte-identical.
//! * `largep_scaling` — p = 1024–8192 strong/weak scaling grids: the
//!   full histogram sort with the one-factor exchange versus the
//!   staged k-way exchange (`k = 16`), compared on the **virtual**
//!   clock where the `⌈log_k p⌉·k` versus `p−1` latency formulas
//!   actually bite. Host seconds per cell are recorded as capability
//!   evidence; virtual time is deterministic, so a single rep is
//!   exact.
//! * `splitter_ab` — the splitter search A/B: rounds `P − 1` probes
//!   wide (`probes_per_round = 1`, side `classic`) versus rounds seven
//!   times as wide (`probes_per_round = 7`, side `multi_probe`), so
//!   the A/B isolates the rounds-for-bytes trade. Both sides cut the
//!   data at the same boundaries. Through PR 17 the sides were
//!   one-midpoint bisection and its 3-level probe tree (2.1–2.4×);
//!   since the search places its probes from the reduced counts the
//!   default side needs a third of those rounds and the trade is
//!   close to even.
//!
//! The run merge wins on a single core wherever runs are long enough
//! (a streaming pairwise merge tree over sorted runs does `O(n log k)`
//! branchless moves where a re-sort pays `O(n log n)` compares). The
//! recorded `host_parallelism` field says what the host offered.
//!
//! Flags: `--smoke` (tiny grid for CI), `--out <path>`.

use std::fmt::Write as _;
use std::time::Instant; // lint: allow-wall-clock

use dhs_bench::experiment::{run_distributed_sort, SortAlgo};
use dhs_bench::Args;
use dhs_core::{find_splitters_cfg, perfect_targets, SortConfig, SplitterOptions};
use dhs_runtime::{run, AllToAllAlgo, ClusterConfig};
use dhs_workloads::{rank_local_keys, Distribution, Layout};

/// Min and median of a sample of host-seconds.
fn min_median(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let min = xs.first().copied().unwrap_or(0.0);
    let median = if xs.is_empty() { 0.0 } else { xs[xs.len() / 2] };
    (min, median)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

struct FullSortCase {
    label: String,
    p: usize,
    n_per: usize,
    reps: usize,
    host_min_s: f64,
    host_median_s: f64,
    virtual_makespan_s: f64,
}

fn bench_full_sort(grid: &[(usize, usize)], reps: usize) -> Vec<FullSortCase> {
    let mut out = Vec::new();
    for &(p, n_per) in grid {
        let cluster = ClusterConfig::supermuc_phase2(p);
        let algo = SortAlgo::Histogram(SortConfig::default());
        let mut times = Vec::with_capacity(reps);
        let mut makespan = 0.0;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = run_distributed_sort(
                &cluster,
                &algo,
                Distribution::paper_uniform(),
                Layout::Balanced,
                p * n_per,
                7,
            );
            times.push(secs(t0));
            makespan = r.makespan_s;
        }
        let (host_min_s, host_median_s) = min_median(times);
        println!(
            "full_sort      p={p:<4} n/p={n_per:<7} host {host_median_s:>9.4}s (min {host_min_s:.4}s)"
        );
        out.push(FullSortCase {
            label: format!("p{p}_n{n_per}"),
            p,
            n_per,
            reps,
            host_min_s,
            host_median_s,
            virtual_makespan_s: makespan,
        });
    }
    out
}

struct AbCase {
    label: String,
    p: usize,
    n_per: usize,
    reps: usize,
    legacy_min_s: f64,
    legacy_median_s: f64,
    zero_copy_min_s: f64,
    zero_copy_median_s: f64,
}

impl AbCase {
    fn speedup(&self) -> f64 {
        self.legacy_median_s / self.zero_copy_median_s.max(f64::MIN_POSITIVE)
    }
}

/// A/B the post-exchange merge at one thread: `sort_unstable` of the
/// flat receive buffer versus `merge_runs_in_place` over it. Grid
/// entries are `(slots, runs, n)`: `n` uniform keys in `runs` sorted
/// non-empty runs of (near-)equal length, spread over `slots` source
/// slots (the rest empty, as after a sparse exchange). Clones and the
/// scratch (the warm dead send block of a real sort) are made outside
/// the timed region. Small cells repeat until ~2 Mi keys have been
/// merged per side, so a µs-scale cell still has a stable median.
fn bench_local_merge(grid: &[(usize, usize, usize)], min_reps: usize) -> Vec<AbCase> {
    let mut merges = Vec::new();
    for &(slots, runs, n) in grid {
        let mut counts = vec![0usize; slots];
        for i in 0..runs {
            counts[i * slots / runs] = n / runs + usize::from(i < n % runs);
        }
        let mut base =
            rank_local_keys(Distribution::paper_uniform(), Layout::Balanced, n, 1, 0, 11);
        let mut at = 0;
        for &c in &counts {
            base[at..at + c].sort_unstable();
            at += c;
        }
        let reps = min_reps.max(((1usize << 21) / n).min(1000));
        let mut resort = Vec::with_capacity(reps);
        let mut run_merge = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut flat = base.clone();
            let t = Instant::now();
            flat.sort_unstable();
            resort.push(secs(t));
            std::hint::black_box(&flat);

            let mut merged = base.clone();
            let mut scratch = base.clone();
            let ends = counts.clone();
            let t = Instant::now();
            dhs_shm::merge_runs_in_place(&mut merged, ends, &mut scratch, 1, &u64::cmp);
            run_merge.push(secs(t));
            assert_eq!(merged, flat, "run merge must equal the re-sort");
        }
        let (legacy_min_s, legacy_median_s) = min_median(resort);
        let (zero_copy_min_s, zero_copy_median_s) = min_median(run_merge);
        let case = AbCase {
            label: format!("r{runs}_n{n}"),
            p: runs,
            n_per: n / runs,
            reps,
            legacy_min_s,
            legacy_median_s,
            zero_copy_min_s,
            zero_copy_median_s,
        };
        println!(
            "local_merge_ab r={runs:<4} n={n:<8} re-sort {legacy_median_s:>10.7}s  run-merge {zero_copy_median_s:>10.7}s  speedup {:.2}x  (rule picks {})",
            case.speedup(),
            if dhs_shm::run_merge_beats_resort(runs, n) { "run-merge" } else { "re-sort" }
        );
        merges.push(case);
    }
    merges
}

/// A/B the record path's two local phases at one thread: the stable
/// comparison sort (`sort_by_key`, what both phases ran through PR 16
/// and still run where the rule says so) versus the stable LSD kernel
/// (`dhs_shm::lsd_sort_if`, forced on both sides of the rule).
/// Grid entries are `(n, span, runs)`: `n` 16-byte `(u64 key, u64
/// payload)` records whose keys are uniform over `span` live bits,
/// either unsorted (`runs = n`: the local sort, LSD scratch a fresh
/// empty vector as in the hook) or held in `runs` sorted runs of equal
/// length (the merge of received runs, LSD scratch a warm `n`-sized
/// vector — the dead send block; `runs = 1` is the presorted block of
/// a re-sort, which both sides must get through in one sweep). The
/// rule is asked about the runs the kernel counts in the block, as in
/// the hooks. `span = 0` marks the plain-key row:
/// `n` 8-byte `paper_uniform` u64 keys, unsorted, `sort_unstable`
/// (what `LocalSort::Comparison` runs) against the same kernel. `p`
/// is the run count, `n_per` the mean run length. Small cells repeat
/// until ~2 Mi records have been sorted per side.
fn bench_record_sort(grid: &[(usize, u32, usize)], min_reps: usize) -> Vec<AbCase> {
    fn time_both<T: Clone + PartialEq + std::fmt::Debug>(
        base: &[T],
        reps: usize,
        warm_scratch: bool,
        stable_sort: impl Fn(&mut Vec<T>),
        bits: impl Fn(&T) -> u128,
    ) -> (Vec<f64>, Vec<f64>) {
        let (mut cmp_side, mut lsd_side) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let mut sorted = base.to_vec();
            let t = Instant::now();
            stable_sort(&mut sorted);
            cmp_side.push(secs(t));

            // The block is written last on both sides, as the exchange
            // has just written the one the merge hook gets.
            let mut scratch = if warm_scratch {
                base.to_vec()
            } else {
                Vec::new()
            };
            let mut v = base.to_vec();
            let t = Instant::now();
            dhs_shm::lsd_sort_if(&mut v, &mut scratch, &bits, |_, _, _| true);
            lsd_side.push(secs(t));
            assert_eq!(v, sorted, "LSD must equal the stable sort");
        }
        (cmp_side, lsd_side)
    }

    let mut out = Vec::new();
    for &(n, span, runs) in grid {
        let reps = min_reps.max(((1usize << 21) / n).min(1000));
        let (label, seen_runs, (cmp_side, lsd_side)) = if span == 0 {
            let keys =
                rank_local_keys(Distribution::paper_uniform(), Layout::Balanced, n, 1, 0, 17);
            let sides = time_both(&keys, reps, false, |v| v.sort_unstable(), |&k| k as u128);
            (format!("n{n}_u64_keys_unsorted"), runs, sides)
        } else {
            let full_width = Distribution::Uniform {
                lo: 0,
                hi: u64::MAX,
            };
            let mut records: Vec<(u64, u64)> =
                rank_local_keys(full_width, Layout::Balanced, n, 1, 0, 17)
                    .into_iter()
                    .enumerate()
                    .map(|(i, x)| (x >> (64 - span), i as u64))
                    .collect();
            let shape = if runs == n {
                "unsorted".to_string()
            } else {
                for run in records.chunks_mut(n.div_ceil(runs)) {
                    run.sort_by_key(|r| r.0);
                }
                match runs {
                    1 => "sorted".to_string(),
                    _ => format!("runs{runs}"),
                }
            };
            let sides = time_both(
                &records,
                reps,
                runs != n,
                |v| v.sort_by_key(|r| r.0),
                |r| r.0 as u128,
            );
            let seen_runs = 1 + records.windows(2).filter(|w| w[1].0 < w[0].0).count();
            (format!("n{n}_span{span}_{shape}"), seen_runs, sides)
        };
        let (legacy_min_s, legacy_median_s) = min_median(cmp_side);
        let (zero_copy_min_s, zero_copy_median_s) = min_median(lsd_side);
        let case = AbCase {
            label,
            p: runs,
            n_per: n / runs,
            reps,
            legacy_min_s,
            legacy_median_s,
            zero_copy_min_s,
            zero_copy_median_s,
        };
        println!(
            "record_sort_ab {:<28} stable sort {legacy_median_s:>10.7}s  lsd {zero_copy_median_s:>10.7}s  speedup {:.2}x  ({seen_runs} runs seen, rule picks {})",
            case.label,
            case.speedup(),
            match span {
                0 => "nothing: keys take SortConfig::local_sort",
                _ if dhs_shm::lsd_beats_comparison(n, seen_runs, span, false) => "lsd",
                _ => "stable sort",
            }
        );
        out.push(case);
    }
    out
}

/// A/B the exchange schedule on the virtual clock. Grid entries are
/// `(p, k, per_peer)`: every rank sends `per_peer` keys to every rank
/// (the dense latency-bound pattern) once through the one-factor
/// schedule and once through the staged k-way schedule. Virtual time
/// is deterministic — one rep is exact — and the received data is
/// asserted byte-identical between the two schedules on every rank.
/// The reported sample is the worst rank's virtual cost (the exchange
/// makespan).
fn bench_exchange_algo(grid: &[(usize, usize, usize)]) -> Vec<AbCase> {
    let mut out = Vec::new();
    for &(p, k, per_peer) in grid {
        let results = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
            let send: Vec<Vec<u64>> = (0..p)
                .map(|d| vec![(comm.rank() * p + d) as u64; per_peer])
                .collect();

            let t0 = comm.now_ns();
            let a = comm.exchange(send.clone(), AllToAllAlgo::OneFactor);
            let one_factor_ns = comm.now_ns() - t0;

            let t0 = comm.now_ns();
            let b = comm.exchange(send, AllToAllAlgo::StagedKWay { k });
            let staged_ns = comm.now_ns() - t0;

            assert_eq!(
                a.into_data(),
                b.into_data(),
                "staged exchange must deliver byte-identical data"
            );
            (one_factor_ns, staged_ns)
        });
        let one_factor_s = results.iter().map(|(r, _)| r.0).max().unwrap_or(0) as f64 * 1e-9;
        let staged_s = results.iter().map(|(r, _)| r.1).max().unwrap_or(0) as f64 * 1e-9;
        let case = AbCase {
            label: format!("p{p}_k{k}"),
            p,
            n_per: per_peer,
            reps: 1,
            legacy_min_s: one_factor_s,
            legacy_median_s: one_factor_s,
            zero_copy_min_s: staged_s,
            zero_copy_median_s: staged_s,
        };
        println!(
            "exchange_algo  p={p:<4} k={k:<3} n/peer={per_peer:<4} one-factor {one_factor_s:>12.9}s  staged {staged_s:>12.9}s  (virtual) speedup {:.2}x",
            case.speedup()
        );
        out.push(case);
    }
    out
}

/// A/B the splitter search on identical sorted local data: rounds
/// `P − 1` probes wide (`probes_per_round = 1`, the default) versus
/// rounds seven times as wide (`m = 7`). Each rep is timed
/// between barriers on every rank; rank 0's samples are reported (all
/// ranks rendezvous in the per-round allreduce, so rank 0 observes the
/// full critical path). Both sides cut the data at the same boundaries
/// — asserted per rep — so the A/B measures pure search cost.
fn bench_splitter(grid: &[(usize, usize)], reps: usize) -> Vec<AbCase> {
    let mut out = Vec::new();
    for &(p, n_per) in grid {
        let results = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
            let mut local = rank_local_keys(
                Distribution::paper_uniform(),
                Layout::Balanced,
                p * n_per,
                p,
                comm.rank(),
                7,
            );
            local.sort_unstable();
            let caps: Vec<usize> = comm.allgather(local.len());
            let targets = perfect_targets(&caps);

            let classic = SplitterOptions {
                probes_per_round: 1,
                ..SplitterOptions::default()
            };
            let tuned = SplitterOptions {
                probes_per_round: 7,
                ..SplitterOptions::default()
            };
            let mut legacy = Vec::with_capacity(reps);
            let mut multi = Vec::with_capacity(reps);
            for _ in 0..reps {
                comm.barrier();
                let t = Instant::now();
                let a = find_splitters_cfg(comm, &local, &targets, 0, classic);
                legacy.push(secs(t));
                std::hint::black_box(&a);

                comm.barrier();
                let t = Instant::now();
                let b = find_splitters_cfg(comm, &local, &targets, 0, tuned);
                multi.push(secs(t));
                std::hint::black_box(&b);
                assert!(
                    a.splitters
                        .iter()
                        .map(|s| s.realized)
                        .eq(b.splitters.iter().map(|s| s.realized)),
                    "the partition must not follow the width"
                );
            }
            (legacy, multi)
        });
        let (legacy, multi) = results[0].0.clone();
        let (legacy_min_s, legacy_median_s) = min_median(legacy);
        let (zero_copy_min_s, zero_copy_median_s) = min_median(multi);
        let case = AbCase {
            label: format!("p{p}_n{n_per}"),
            p,
            n_per,
            reps,
            legacy_min_s,
            legacy_median_s,
            zero_copy_min_s,
            zero_copy_median_s,
        };
        println!(
            "splitter_ab    p={p:<4} n/p={n_per:<7} classic {legacy_median_s:>9.6}s  multi-probe {zero_copy_median_s:>9.6}s  speedup {:.2}x",
            case.speedup()
        );
        out.push(case);
    }
    out
}

struct ScaleCase {
    label: String,
    mode: &'static str,
    p: usize,
    n_per: usize,
    one_factor_makespan_s: f64,
    one_factor_host_s: f64,
    staged_makespan_s: f64,
    staged_host_s: f64,
}

impl ScaleCase {
    fn virtual_speedup(&self) -> f64 {
        self.one_factor_makespan_s / self.staged_makespan_s.max(f64::MIN_POSITIVE)
    }
}

/// The large-p scaling grids: full histogram sort,
/// one-factor versus staged k-way exchange, compared on the virtual
/// clock. `rows` are `(mode, p, n_per)` cells; everything except the
/// exchange schedule is the default configuration, so the A/B isolates
/// the schedule.
fn bench_largep(rows: &[(&'static str, usize, usize)], k: usize) -> Vec<ScaleCase> {
    let mut out = Vec::new();
    for &(mode, p, n_per) in rows {
        let cell = |algo: AllToAllAlgo| {
            let cfg = SortConfig {
                exchange_algo: algo,
                ..SortConfig::default()
            };
            let cluster = ClusterConfig::supermuc_phase2(p);
            let t0 = Instant::now();
            let r = run_distributed_sort(
                &cluster,
                &SortAlgo::Histogram(cfg),
                Distribution::paper_uniform(),
                Layout::Balanced,
                p * n_per,
                7,
            );
            (r.makespan_s, secs(t0))
        };
        let (one_factor_makespan_s, one_factor_host_s) = cell(AllToAllAlgo::OneFactor);
        let (staged_makespan_s, staged_host_s) = cell(AllToAllAlgo::StagedKWay { k });
        let case = ScaleCase {
            label: format!("{mode}_p{p}_n{n_per}"),
            mode,
            p,
            n_per,
            one_factor_makespan_s,
            one_factor_host_s,
            staged_makespan_s,
            staged_host_s,
        };
        println!(
            "largep_scaling {mode:<6} p={p:<5} n/p={n_per:<5} one-factor {one_factor_makespan_s:>9.4}s  staged:{k} {staged_makespan_s:>9.4}s  (virtual) speedup {:.2}x  [host {:.0}s+{:.0}s]",
            case.virtual_speedup(),
            one_factor_host_s,
            staged_host_s,
        );
        out.push(case);
    }
    out
}

fn json_ab(cases: &[AbCase], a_key: &str, b_key: &str) -> String {
    let mut s = String::new();
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{\"label\": \"{}\", \"p\": {}, \"n_per\": {}, \"reps\": {}, \
             \"{a_key}\": {{\"min_s\": {:.9}, \"median_s\": {:.9}}}, \
             \"{b_key}\": {{\"min_s\": {:.9}, \"median_s\": {:.9}}}, \
             \"speedup\": {:.4}}}{}",
            c.label,
            c.p,
            c.n_per,
            c.reps,
            c.legacy_min_s,
            c.legacy_median_s,
            c.zero_copy_min_s,
            c.zero_copy_median_s,
            c.speedup(),
            if i + 1 < cases.len() { "," } else { "" }
        );
    }
    s
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke") || args.quick();
    let out_path = args
        .raw("out")
        .unwrap_or("BENCH_wallclock.json")
        .to_string();

    let (sort_grid, sort_reps): (Vec<(usize, usize)>, usize) = if smoke {
        (vec![(4, 1024), (8, 4096)], 2)
    } else {
        (vec![(8, 4096), (16, 32768), (32, 131072)], 3)
    };
    // Minimum repetitions of the one-thread local-phase cells.
    let local_reps: usize = if smoke { 3 } else { 5 };
    // (slots, non-empty runs, total keys): the benchmark workloads'
    // shapes (8 × 128 Ki `local_heavy`, 32 × 1 Ki `epoch_stream`,
    // 1024 slots holding 256 one-key runs `latency_bound`), more runs
    // at 1 Ki, and mean run lengths 16/32/64 on either side of the
    // re-sort rule's boundary.
    let merge_grid: Vec<(usize, usize, usize)> = if smoke {
        vec![(8, 8, 8 << 11), (64, 64, 64 << 5), (1024, 256, 256)]
    } else {
        vec![
            (8, 8, 8 << 17),
            (32, 32, 32 << 10),
            (64, 64, 64 << 10),
            (256, 256, 256 << 10),
            (64, 64, 64 << 6),
            (64, 64, 64 << 5),
            (64, 64, 64 << 4),
            (256, 256, 256 << 6),
            (256, 256, 256 << 5),
            (256, 256, 256 << 4),
            (1024, 1024, 1024 << 2),
            (1024, 256, 256),
        ]
    };
    // (records, live key bits, sorted runs): both record phases — the
    // unsorted block (`runs = n`) and 32 received runs — plus the
    // presorted block of a re-sort (`runs = 1`), at an L1-sized, the
    // `records_skew` and an out-of-L2 block, over spans on either side
    // of `dhs_shm::lsd_beats_comparison`; span 0 is the plain u64-key
    // row (ROADMAP 3a).
    let record_grid: Vec<(usize, u32, usize)> = if smoke {
        vec![
            (1 << 12, 17, 1 << 12),
            (1 << 12, 64, 32),
            (1 << 12, 64, 1),
            (1 << 12, 0, 1 << 12),
        ]
    } else {
        [1usize << 12, 1 << 17, 1 << 20]
            .into_iter()
            .flat_map(|n| {
                let records = [8u32, 17, 30, 64]
                    .into_iter()
                    .flat_map(move |span| [(n, span, n), (n, span, 32), (n, span, 1)]);
                records.chain([(n, 0, n)])
            })
            .collect()
    };
    let (splitter_grid, splitter_reps): (Vec<(usize, usize)>, usize) = if smoke {
        (vec![(8, 8192)], 3)
    } else {
        (vec![(16, 65536), (32, 65536), (64, 32768)], 5)
    };
    // Virtual time is deterministic and cheap to simulate even at
    // p = 256, so the schedule A/B runs the full grid in smoke mode
    // too — CI asserts the p = 256 win on the smoke output.
    let algo_grid: Vec<(usize, usize, usize)> = vec![(16, 4, 4), (64, 8, 4), (256, 16, 4)];
    // The strong-scaling rows hold n_total = 2^22 keys; the
    // weak-scaling rows hold n/p = 256. Host time per cell is set by
    // the O(p²)-wide histogram collectives, not by n/p, so smoke mode
    // keeps only the p = 1024 cells.
    let largep_rows: Vec<(&'static str, usize, usize)> = if smoke {
        vec![("weak", 1024, 256), ("strong", 1024, 4096)]
    } else {
        vec![
            ("weak", 1024, 256),
            ("weak", 2048, 256),
            ("weak", 4096, 256),
            ("weak", 8192, 256),
            ("strong", 1024, 4096),
            ("strong", 2048, 2048),
            ("strong", 4096, 1024),
            ("strong", 8192, 512),
        ]
    };
    println!("# wall-clock harness (host time; virtual clock unaffected)");
    println!("# smoke = {smoke}\n");
    let full = bench_full_sort(&sort_grid, sort_reps);
    let local_merges = bench_local_merge(&merge_grid, local_reps);
    let record_sorts = bench_record_sort(&record_grid, local_reps);
    let splitter = bench_splitter(&splitter_grid, splitter_reps);
    let exchange_algo = bench_exchange_algo(&algo_grid);
    let largep = bench_largep(&largep_rows, 16);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"dhs-wallclock/v10\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let host = std::thread::available_parallelism().map_or(1, |v| v.get());
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"groups\": [");
    let _ = writeln!(json, "    {{\"name\": \"full_sort\", \"cases\": [");
    for (i, c) in full.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"label\": \"{}\", \"p\": {}, \"n_per\": {}, \"reps\": {}, \
             \"host\": {{\"min_s\": {:.9}, \"median_s\": {:.9}}}, \
             \"virtual_makespan_s\": {:.9}}}{}",
            c.label,
            c.p,
            c.n_per,
            c.reps,
            c.host_min_s,
            c.host_median_s,
            c.virtual_makespan_s,
            if i + 1 < full.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]}},");
    let _ = writeln!(json, "    {{\"name\": \"local_merge_ab\", \"cases\": [");
    let _ = write!(json, "{}", json_ab(&local_merges, "serial", "hybrid"));
    let _ = writeln!(json, "    ]}},");
    let _ = writeln!(json, "    {{\"name\": \"record_sort_ab\", \"cases\": [");
    let _ = write!(json, "{}", json_ab(&record_sorts, "stable_sort", "lsd"));
    let _ = writeln!(json, "    ]}},");
    let _ = writeln!(json, "    {{\"name\": \"splitter_ab\", \"cases\": [");
    let _ = write!(json, "{}", json_ab(&splitter, "classic", "multi_probe"));
    let _ = writeln!(json, "    ]}},");
    let _ = writeln!(json, "    {{\"name\": \"exchange_algo_ab\", \"cases\": [");
    let _ = write!(json, "{}", json_ab(&exchange_algo, "one_factor", "staged"));
    let _ = writeln!(json, "    ]}},");
    let _ = writeln!(json, "    {{\"name\": \"largep_scaling\", \"cases\": [");
    for (i, c) in largep.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"label\": \"{}\", \"mode\": \"{}\", \"p\": {}, \"n_per\": {}, \
             \"one_factor\": {{\"virtual_makespan_s\": {:.9}, \"host_s\": {:.3}}}, \
             \"staged\": {{\"virtual_makespan_s\": {:.9}, \"host_s\": {:.3}}}, \
             \"virtual_speedup\": {:.4}}}{}",
            c.label,
            c.mode,
            c.p,
            c.n_per,
            c.one_factor_makespan_s,
            c.one_factor_host_s,
            c.staged_makespan_s,
            c.staged_host_s,
            c.virtual_speedup(),
            if i + 1 < largep.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]}}");
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write wallclock JSON");
    println!("\nwrote {out_path}");
}
