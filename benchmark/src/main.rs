//! The repo benchmark: four workloads, end-to-end metrics on both
//! clocks, an outside-in layer profile. See `README.md` beside this
//! crate and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! dhs-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! dhs-benchmark run   --seed <n> [--seconds <s>] [--smoke]   # every workload, both ways
//! dhs-benchmark agree --seed <n> [--seconds <s>] [--smoke]   # the full set twice, compared
//! ```

mod bench;
mod layers;
mod measure;
mod ops;
mod report;
mod verify;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use bench::RunArgs;
use report::{Agreement, MetricDef, RunResult, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().ok_or("missing command")?,
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut seed = None;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("non-negative seconds"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cli.seed = seed.ok_or("--seed is required")?;
    Ok(cli)
}

impl Cli {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.3 } else { RUN_SECONDS })
    }
}

/// Commit, seed and host facts, recorded at the top of every output.
fn print_header(cli: &Cli, w: &workloads::Workload, nproc: usize, pinned: Option<usize>) {
    let commit = std::env::var("DHS_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let pinned = pinned.map_or("none".to_string(), |cpu| cpu.to_string());
    println!(
        "# dhs-benchmark workload={} trace={} seed={} seconds={} smoke={}",
        w.name,
        u8::from(cli.trace),
        cli.seed,
        cli.seconds(),
        cli.smoke
    );
    println!(
        "# commit={commit} nproc={nproc} pinned_cpu={pinned} host_parallelism={} kernel_backend={} engine={:?}",
        dhs_runtime::threads::host_parallelism(),
        dhs_core::Kernels::auto().backend_name(),
        w.engine
    );
    println!(
        "# p={} n_total={} kind={:?} inputs={} warmup={}",
        w.p, w.n_total, w.kind, w.inputs, w.warmup
    );
}

/// The contract's single run: one workload, in this process.
fn run_one(cli: &Cli, name: &str) -> ExitCode {
    let Some(workload) = workloads::by_name(name, cli.smoke) else {
        eprintln!("unknown workload {name}; known: {:?}", workloads::NAMES);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = measure::pin_to_one_cpu();
    print_header(cli, &workload, nproc, pinned);
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace,
        setup_seconds: if cli.smoke { 0.25 } else { 2.0 },
    };
    let Some(result) = bench::run(&args) else {
        eprintln!("no op completed");
        return ExitCode::FAILURE;
    };
    print!("{}", result.table());
    println!("{}", result.json_line());
    ExitCode::SUCCESS
}

/// Run one workload one way in a fresh child process; its output is
/// echoed and its result line read back.
fn run_child(cli: &Cli, name: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{name} trace={trace}: child exited {}", out.status));
    }
    stdout
        .lines()
        .last()
        .and_then(RunResult::parse_json_line)
        .ok_or(format!("{name} trace={trace}: no result line"))
}

/// One full set: every workload, untraced then traced.
fn run_set(cli: &Cli) -> Result<Vec<(&'static str, bool, RunResult)>, String> {
    let mut set = Vec::new();
    for name in workloads::NAMES {
        for trace in [false, true] {
            set.push((name, trace, run_child(cli, name, trace)?));
        }
    }
    Ok(set)
}

fn run_all(cli: &Cli) -> ExitCode {
    match run_set(cli) {
        Ok(set) if set.iter().all(|(_, _, r)| r.correct) => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("some ops failed verification");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Compare two runs of one workload metric by metric; returns the
/// number of pairs outside their agreement rule.
fn compare(name: &str, defs: &[MetricDef], first: &RunResult, second: &RunResult) -> usize {
    let mut bad = 0;
    for d in defs {
        let (Some(a), Some(b)) = (first.get(d.name), second.get(d.name)) else {
            println!("{name:<14} {:<34} missing", d.name);
            bad += 1;
            continue;
        };
        let rel = if a == b { 0.0 } else { (b - a) / a.abs() };
        let (rule, ok) = match d.agreement {
            Agreement::Within(bound) => (format!("within {bound}"), rel.abs() <= bound),
            Agreement::Exact => ("exact".to_string(), a == b),
            Agreement::Free => ("free".to_string(), true),
        };
        println!(
            "{name:<14} {:<34} {a:>16.6} {b:>16.6} {:>+8.2}% {rule:<12} {}",
            d.name,
            rel * 100.0,
            if ok { "ok" } else { "DISAGREE" }
        );
        bad += usize::from(!ok);
    }
    bad
}

fn agree(cli: &Cli) -> ExitCode {
    let (first, second) = match (run_set(cli), run_set(cli)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in a.err().iter().chain(b.err().iter()) {
                eprintln!("{e}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# agree seed={}: workload, metric, first, second, difference, rule",
        cli.seed
    );
    let mut bad = 0;
    for ((name, trace, a), (_, _, b)) in first.iter().zip(&second) {
        let defs: &[MetricDef] = if *trace { &PER_LAYER } else { &END_TO_END };
        bad += compare(name, defs, a, b);
        bad += usize::from(!(a.correct && b.correct));
    }
    if bad == 0 {
        println!("# agree: the two sets agree within the benchmark's own bounds");
        ExitCode::SUCCESS
    } else {
        println!("# agree: {bad} disagreements");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\nusage: dhs-benchmark run|agree --seed <n> [--workload <name>] [--seconds <s>] [--trace 0|1] [--smoke]");
            return ExitCode::from(2);
        }
    };
    match (cli.command.as_str(), &cli.workload) {
        ("run", Some(name)) => run_one(&cli, name),
        ("run", None) => run_all(&cli),
        ("agree", None) => agree(&cli),
        _ => {
            eprintln!("unknown command {}", cli.command);
            ExitCode::from(2)
        }
    }
}
