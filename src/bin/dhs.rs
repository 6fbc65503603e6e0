//! `dhs` — command-line driver for the distributed histogram sort and
//! its baselines on the simulated cluster.
//!
//! ```sh
//! dhs sort --algo histogram --ranks 64 --nper 65536 --dist zipf
//! dhs sort --algo hyksort --ranks 256 --verify
//! dhs sort --threads 4 --verify        # hybrid rank×thread execution
//! dhs serve --ranks 32 --epochs 5 --profile stationary --verify
//! dhs select --ranks 32 --nper 10000 --k 160000
//! dhs topology --ranks 64
//! ```

use dhs::baselines::{run_algorithm, Algorithm};
use dhs::core::global_fingerprint;
use dhs::prelude::*;
use dhs_bench::Args;

const USAGE: &str = "usage: dhs <sort|serve|select|topology> [--flags]\n\
    \n\
    sort     --algo histogram|hss|sample|psrs|hyksort|ams|bitonic\n\
    \x20        --ranks N --nper N --dist uniform|normal|zipf|nearly-sorted|\n\
    \x20        few-distinct|all-equal --layout balanced|sparse|ramp\n\
    \x20        --seed N --verify\n\
    \x20        --engine tasks|tasks:<workers> (worker slots the ranks share)\n\
    \x20        --trace out.json --trace-format chrome|summary\n\
    \x20      sort-config flags (histogram only):\n\
    \x20        --eps F --merge resort|kway (how the merge is charged)\n\
    \x20        --local-sort comparison|radix\n\
    \x20        --partitioning perfect|balanced --max-iters N\n\
    \x20        --probes M (histogram round width in units of P-1)\n\
    \x20        --threads T (intra-rank thread budget)\n\
    \x20        --recovery abort|shrink (response to rank failures)\n\
    \x20        --exchange-algo priced|one-factor|bruck|staged:<k>\n\
    \x20          (default priced: the schedule priced cheapest per exchange)\n\
    \x20        --warm-start cold|seeded-brackets (repeated sorts)\n\
    serve    --ranks N --nper N --epochs E --seed N --verify\n\
    \x20        --profile stationary|shifting-zipf|churn (epoch stream)\n\
    \x20        --warm-start cold|seeded-brackets\n\
    \x20          (default seeded-brackets; plus all sort-config flags)\n\
    \x20        --assert-converged (exit 1 unless the final epoch\n\
    \x20          needed at most one histogram round)\n\
    select   --ranks N --nper N --k N --dist ... --seed N\n\
    topology --ranks N";

/// Value flags that shape the cluster and the input — shared by `dhs
/// sort` and `dhs serve`.
const INPUT_FLAGS: [&str; 6] = ["ranks", "nper", "seed", "dist", "layout", "engine"];

/// Value flags that shape the `SortConfig`: `dhs serve` and the
/// histogram sorts of `dhs sort` read them, the baselines take none.
const SORT_CONFIG_FLAGS: [&str; 10] = [
    "eps",
    "partitioning",
    "merge",
    "local-sort",
    "probes",
    "threads",
    "recovery",
    "exchange-algo",
    "warm-start",
    "max-iters",
];

/// Bad invocation: say why, print the usage text, exit 2.
fn usage_exit(why: &str) -> ! {
    eprintln!("dhs: {why}\n\n{USAGE}");
    std::process::exit(2)
}

/// `--key value` parsed as `T` (or `default` when absent); a value
/// that does not parse is a usage error, not a silent default.
fn num<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> T {
    args.try_get(key, default)
        .unwrap_or_else(|e| usage_exit(&e))
}

/// `--ranks N` (or `default` when absent): a cluster has at least one
/// rank.
fn ranks_of(args: &Args, default: usize) -> usize {
    let ranks = num(args, "ranks", default);
    if ranks == 0 {
        usage_exit("--ranks: a cluster needs at least one rank, got 0");
    }
    ranks
}

/// `--key <name>` looked up in `table` (`default` when absent). A name
/// the table does not hold is a usage error naming the flag and the
/// names it takes.
fn choice<T: Clone>(args: &Args, key: &str, default: &str, table: &[(&str, T)]) -> T {
    let name = args.raw(key).unwrap_or(default);
    match table.iter().find(|(n, _)| *n == name) {
        Some((_, value)) => value.clone(),
        None => {
            let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            usage_exit(&format!(
                "--{key}: unknown value {name:?} (expected {})",
                names.join("|")
            ))
        }
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.first().is_none_or(|a| a.starts_with("--")) {
        "help".to_string()
    } else {
        argv.remove(0)
    };
    let args = Args::from_args(argv);
    // Every command names the flags it reads; anything else (a typo, a
    // value flag without its value) must not silently run the default.
    let config = |extra: &[&'static str]| [&INPUT_FLAGS[..], &SORT_CONFIG_FLAGS, extra].concat();
    type Command = (Vec<&'static str>, &'static [&'static str], fn(&Args));
    let (values, switches, run): Command = match command.as_str() {
        "sort" => (
            config(&["algo", "trace", "trace-format"]),
            &["verify"],
            cmd_sort,
        ),
        "serve" => (
            config(&["epochs", "profile"]),
            &["verify", "assert-converged"],
            cmd_serve,
        ),
        "select" => (vec!["ranks", "nper", "seed", "dist", "k"], &[], cmd_select),
        "topology" => (vec!["ranks"], &[], cmd_topology),
        _ => {
            eprintln!("{USAGE}");
            return;
        }
    };
    if let Some(flag) = args.unknown(&values, switches) {
        usage_exit(&format!(
            "unrecognised argument {flag:?} for `dhs {command}`"
        ));
    }
    run(&args)
}

fn dist_of(args: &Args) -> Distribution {
    let table = [
        ("uniform", Distribution::paper_uniform()),
        (
            "uniform-full",
            Distribution::Uniform {
                lo: 0,
                hi: u64::MAX,
            },
        ),
        ("normal", Distribution::paper_normal()),
        (
            "zipf",
            Distribution::Zipf {
                items: 1 << 16,
                s: 1.2,
            },
        ),
        (
            "nearly-sorted",
            Distribution::NearlySorted {
                perturb_permille: 10,
            },
        ),
        ("few-distinct", Distribution::FewDistinct { k: 16 }),
        ("all-equal", Distribution::AllEqual { value: 7 }),
    ];
    choice(args, "dist", "uniform", &table)
}

fn layout_of(args: &Args) -> Layout {
    let table = [
        ("balanced", Layout::Balanced),
        (
            "sparse",
            Layout::SparseFront {
                empty_permille: 500,
            },
        ),
        ("ramp", Layout::Ramp { ratio: 8 }),
    ];
    choice(args, "layout", "balanced", &table)
}

/// Parse `--exchange-algo priced|one-factor|bruck|staged:<k>`; the
/// default, `priced`, leaves the pick to the exchange.
fn exchange_algo_of(args: &Args) -> AllToAllAlgo {
    match args
        .raw("exchange-algo")
        .and_then(|s| s.strip_prefix("staged:"))
    {
        Some(k) => AllToAllAlgo::StagedKWay {
            k: k.parse().unwrap_or_else(|_| {
                usage_exit(&format!(
                    "--exchange-algo: staged:<k> takes an integer fan-out, got {k:?}"
                ))
            }),
        },
        None => {
            // `staged:<k>` is listed so the usage error names it.
            let table = [
                ("priced", AllToAllAlgo::Priced),
                ("one-factor", AllToAllAlgo::OneFactor),
                ("bruck", AllToAllAlgo::Bruck),
                ("staged:<k>", AllToAllAlgo::Priced),
            ];
            choice(args, "exchange-algo", "priced", &table)
        }
    }
}

fn sort_config(args: &Args) -> SortConfig {
    sort_config_with(args, "cold")
}

/// The `SortConfig` the shared flags describe. `default_warm` names
/// the `--warm-start` policy of a run without the flag (`dhs sort`
/// defaults cold, `dhs serve` seeded-brackets).
fn sort_config_with(args: &Args, default_warm: &str) -> SortConfig {
    let warm_starts = [
        ("cold", WarmStart::Cold),
        ("seeded-brackets", WarmStart::SeededWithBrackets),
    ];
    let partitionings = [
        ("perfect", Partitioning::Perfect),
        ("balanced", Partitioning::Balanced),
    ];
    let merges = [("resort", MergeAlgo::Resort), ("kway", MergeAlgo::KWay)];
    let local_sorts = [
        ("comparison", LocalSort::Comparison),
        ("radix", LocalSort::Radix),
    ];
    let recoveries = [
        ("abort", RecoveryPolicy::Abort),
        ("shrink", RecoveryPolicy::Shrink),
    ];
    let cfg = SortConfig {
        warm_start: choice(args, "warm-start", default_warm, &warm_starts),
        epsilon: num(args, "eps", 0.0),
        partitioning: choice(args, "partitioning", "perfect", &partitionings),
        merge: choice(args, "merge", "resort", &merges),
        local_sort: choice(args, "local-sort", "comparison", &local_sorts),
        probes_per_round: num(args, "probes", 1),
        threads_per_rank: num(args, "threads", 1),
        recovery: choice(args, "recovery", "abort", &recoveries),
        exchange_algo: exchange_algo_of(args),
        max_splitter_iterations: args.raw("max-iters").map(|_| num(args, "max-iters", 0u32)),
        ..SortConfig::default()
    };
    if let Err(e) = cfg.validate() {
        usage_exit(&format!("invalid sort configuration: {e}"));
    }
    cfg
}

fn cmd_sort(args: &Args) {
    let ranks = ranks_of(args, 16);
    let nper: usize = num(args, "nper", 1 << 14);
    let seed: u64 = num(args, "seed", 1);
    // `--algo`: the sorter `dhs sort` runs, one name per `Algorithm`.
    let algos = [
        ("histogram", Algorithm::HistogramSort),
        ("hss", Algorithm::Hss),
        ("sample", Algorithm::SampleSort),
        ("psrs", Algorithm::Psrs),
        ("hyksort", Algorithm::HykSort),
        ("ams", Algorithm::Ams),
        ("bitonic", Algorithm::Bitonic),
    ];
    let algo = choice(args, "algo", "histogram", &algos);
    if algo != Algorithm::HistogramSort {
        if let Some(flag) = SORT_CONFIG_FLAGS.iter().find(|f| args.raw(f).is_some()) {
            usage_exit(&format!(
                "--{flag}: --algo {} takes no sort-config flag (only histogram does)",
                args.raw("algo").unwrap_or_default()
            ));
        }
    }
    let verify = args.has("verify");
    let trace_formats = [("chrome", true), ("summary", false)];
    let chrome_trace = choice(args, "trace-format", "chrome", &trace_formats);
    let dist = dist_of(args);
    let layout = layout_of(args);
    if !algo.supports(ranks, matches!(layout, Layout::Balanced)) {
        usage_exit(
            "--algo bitonic: needs a power-of-two --ranks and --layout balanced \
             (equal local sizes)",
        );
    }
    let cfg = sort_config(args);
    // Opened before the sort, so a path that cannot be written is
    // rejected up front instead of after the whole run.
    let trace = args.raw("trace").map(|path| {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| usage_exit(&format!("--trace: cannot create {path:?}: {e}")));
        (path, file)
    });
    let mut cluster = ClusterConfig::supermuc_phase2(ranks).with_engine(args.engine());
    if trace.is_some() {
        cluster = cluster.with_trace(TraceConfig::On);
    }
    let n_total = ranks * nper;

    println!(
        "# dhs sort: algo={} ranks={ranks} keys/rank={nper} dist={} layout={}",
        args.raw("algo").unwrap_or("histogram"),
        dist.label(),
        layout.label()
    );

    type RankOutcome = (SortStats, bool);
    let mut record = launch(&cluster, move |comm| {
        let mut local = rank_local_keys(dist, layout, n_total, ranks, comm.rank(), seed);
        let fp = verify.then(|| {
            let sp = comm.span("fingerprint");
            let fp = global_fingerprint(comm, &local);
            sp.finish();
            fp
        });
        let stats = match algo {
            Algorithm::HistogramSort => histogram_sort(comm, &mut local, &cfg),
            baseline => run_algorithm(comm, baseline, &mut local),
        };
        let ok = match fp {
            Some((fp, n)) => {
                let sp = comm.span("verify");
                let ok = verify_sorted(comm, &local, fp, n).is_none();
                sp.finish();
                ok
            }
            None => true,
        };
        (stats, ok)
    })
    .expect("dhs sort injects no faults");
    let run_trace = std::mem::take(&mut record.trace);
    let (park_backstops, lost_wakes, parks) =
        (record.park_backstops, record.lost_wakes, record.parks);
    let out: Vec<(RankOutcome, RankReport)> =
        record.into_result().unwrap_or_else(|e| panic!("{e}"));

    let summary = RunSummary::from_reports(out.iter().map(|(_, r)| r));
    let max_keys = out.iter().map(|((s, _), _)| s.n_out).max().unwrap_or(0);
    let min_keys = out.iter().map(|((s, _), _)| s.n_out).min().unwrap_or(0);
    println!(
        "simulated makespan : {:.3} ms",
        summary.makespan_secs() * 1e3
    );
    println!("inter-node traffic : {} bytes", summary.inter_node_bytes);
    println!("intra-node traffic : {} bytes", summary.intra_node_bytes);
    println!("output keys/rank   : {min_keys}..{max_keys}");
    // Host-side health of the scheduler: a park the timer ended is a
    // lost wake-up or a rank parked through a 500 ms phase; the lost
    // wakes are the firings after which the rank's condition already
    // held without a wake.
    println!("park backstops     : {park_backstops}");
    println!("lost wakes         : {lost_wakes}");
    // One handoff per rank per collective is the floor (two for the
    // exit-barrier all-to-all); every blocking point is a collective.
    println!(
        "parks per rank per collective : {:.3}",
        parks as f64 / summary.collectives.max(1) as f64
    );
    let stats = &out[0].0 .0;
    println!(
        "phases (rank 0)    : sort {:.3} ms | histogram {:.3} ms ({} iters, {} probes) | \
         exchange {:.3} ms | merge {:.3} ms | other {:.3} ms",
        stats.local_sort_ns as f64 / 1e6,
        stats.histogram_ns as f64 / 1e6,
        stats.iterations,
        stats.probes,
        stats.exchange_ns as f64 / 1e6,
        stats.merge_ns as f64 / 1e6,
        stats.prepare_ns as f64 / 1e6,
    );
    // Sample sort, PSRS and AMS cut at sampled keys and aim at no
    // boundary: their balance is the keys/rank spread above.
    let sampled = matches!(
        algo,
        Algorithm::SampleSort | Algorithm::Psrs | Algorithm::Ams
    );
    match &stats.outcome {
        SortOutcome::Exact if sampled => println!("partitioning       : sampled (no targets)"),
        SortOutcome::Exact => println!("partitioning       : exact"),
        SortOutcome::Degraded {
            achieved_epsilon,
            iterations,
        } => println!(
            "partitioning       : degraded (achieved eps {achieved_epsilon:.4} \
             after iteration cap at {iterations})"
        ),
        SortOutcome::Recovered {
            lost_ranks,
            restarts,
            recovery_ns,
        } => println!(
            "partitioning       : recovered (lost ranks {lost_ranks:?}, {restarts} \
             restart(s), {:.3} ms recovery overhead)",
            *recovery_ns as f64 / 1e6
        ),
    }
    if let Some(mib) = peak_rss_mib() {
        println!("peak RSS           : {mib} MiB");
    }
    if let Some((path, mut file)) = trace {
        let json = if chrome_trace {
            run_trace.to_chrome_json()
        } else {
            run_trace.to_summary_json()
        };
        if let Err(e) = std::io::Write::write_all(&mut file, json.as_bytes()) {
            eprintln!("dhs: cannot write trace to {path:?}: {e}");
            std::process::exit(1);
        }
        println!("trace              : {path}");
    }
    if verify {
        let ok = out.iter().all(|((_, ok), _)| *ok);
        println!("verification       : {}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            std::process::exit(1);
        }
    }
}

/// This process's peak resident set in MiB, rounded: `VmHWM` in
/// `/proc/self/status`, where that file exists.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().next()?.parse().ok()?;
    Some((kib + 512) / 1024)
}

/// Parse `--profile stationary|shifting-zipf|churn` for `dhs serve`.
fn profile_of(args: &Args) -> EpochProfile {
    let dist = dist_of(args);
    let table = [
        ("stationary", EpochProfile::Stationary { dist }),
        (
            "shifting-zipf",
            EpochProfile::ShiftingZipf {
                items: 1 << 16,
                s: 1.2,
                shift: 1 << 10,
            },
        ),
        (
            "churn",
            EpochProfile::Churn {
                dist,
                keep_permille: 900,
            },
        ),
    ];
    choice(args, "profile", "stationary", &table)
}

fn cmd_serve(args: &Args) {
    let ranks = ranks_of(args, 16);
    let nper: usize = num(args, "nper", 1 << 14);
    let epochs: u64 = num(args, "epochs", 5);
    let seed: u64 = num(args, "seed", 1);
    let verify = args.has("verify");
    let assert_converged = args.has("assert-converged");
    let profile = profile_of(args);
    let layout = layout_of(args);
    let cfg = sort_config_with(args, "seeded-brackets");
    let cluster = ClusterConfig::supermuc_phase2(ranks).with_engine(args.engine());
    let n_total = ranks * nper;

    println!(
        "# dhs serve: ranks={ranks} keys/rank={nper} epochs={epochs} profile={} warm-start={:?}",
        profile.label(),
        cfg.warm_start,
    );

    let out = run(&cluster, move |comm| {
        let mut svc: EpochSorter<u64> = EpochSorter::new(comm, cfg.clone());
        let mut history: Vec<EpochStats> = Vec::with_capacity(epochs as usize);
        let mut all_ok = true;
        for epoch in 0..epochs {
            let mut batch =
                epoch_rank_keys(profile, layout, n_total, ranks, comm.rank(), seed, epoch);
            let fp = verify.then(|| global_fingerprint(svc.comm(), &batch));
            let stats = svc.sort_epoch(&mut batch);
            if let Some((fp, n)) = fp {
                all_ok &= verify_sorted(svc.comm(), &batch, fp, n).is_none();
            }
            history.push(stats);
        }
        (history, all_ok)
    });

    let (history, _) = &out[0].0;
    for e in history {
        println!(
            "epoch {:>3}: rounds {:>2} | probes {:>5} | makespan {:>9.3} ms | \
             pool reuse {:>5.1}% | warm ladder {} keys",
            e.epoch,
            e.sort.iterations,
            e.sort.probes,
            e.makespan_ns as f64 / 1e6,
            e.pool.hit_rate() * 100.0,
            e.warm_len,
        );
    }
    if verify {
        let ok = out.iter().all(|((_, ok), _)| *ok);
        println!("verification       : {}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            std::process::exit(1);
        }
    }
    if assert_converged {
        let last = history.last().expect("at least one epoch");
        if last.sort.iterations > 1 {
            eprintln!(
                "assert-converged: final epoch used {} histogram rounds (expected <= 1)",
                last.sort.iterations
            );
            std::process::exit(1);
        }
        println!(
            "convergence        : final epoch at {} round(s)",
            last.sort.iterations
        );
    }
}

fn cmd_select(args: &Args) {
    let ranks = ranks_of(args, 16);
    let nper: usize = num(args, "nper", 1 << 14);
    let seed: u64 = num(args, "seed", 1);
    let n_total = ranks * nper;
    let k: u64 = num(args, "k", (n_total / 2) as u64);
    if k >= n_total as u64 {
        usage_exit(&format!(
            "--k: order statistic {k} out of range for {n_total} keys (--ranks x --nper)"
        ));
    }
    let dist = dist_of(args);
    let cluster = ClusterConfig::supermuc_phase2(ranks);

    let out = run(&cluster, move |comm| {
        let local = rank_local_keys(dist, Layout::Balanced, n_total, ranks, comm.rank(), seed);
        dselect(comm, &local, k)
    });
    println!(
        "# dhs select: order statistic k={k} of {n_total} keys over {ranks} ranks = {}",
        out[0].0
    );
}

fn cmd_topology(args: &Args) {
    let ranks = ranks_of(args, 32);
    let cluster = ClusterConfig::supermuc_phase2(ranks);
    let t = &cluster.topology;
    println!(
        "# {} ranks on {} nodes ({} ranks/node, {} NUMA domains x {} cores)",
        t.ranks(),
        t.nodes(),
        t.ranks_per_node(),
        t.numa_per_node(),
        t.cores_per_numa()
    );
    for r in 0..ranks.min(64) {
        let p = t.placement(r);
        println!(
            "rank {r:>4}: node {:>3} numa {} core {}",
            p.node, p.numa, p.core
        );
    }
    if ranks > 64 {
        println!("... ({} more ranks)", ranks - 64);
    }
}
