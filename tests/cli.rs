//! The `dhs` driver end to end, through the built binary: a good
//! invocation sorts and verifies, and a flag or value the driver does
//! not read — `--pairwise`, deleted with the exchange strategy it
//! selected; `--kernels`, deleted with the backend it selected;
//! `--engine threads`, deleted with the engine it selected;
//! `--exchange-algo leaders`, deleted with the schedule it selected —
//! is a usage error, not a silently ignored word or a panic. So is
//! input the driver can check before any rank runs.

use std::process::{Command, Output};

fn dhs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dhs"))
        .args(args)
        .output()
        .expect("spawn the dhs binary")
}

#[test]
fn sort_verifies_and_rejects_unknown_flags() {
    let ok = dhs(&[
        "sort", "--ranks", "4", "--nper", "64", "--engine", "tasks:3", "--verify",
    ]);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(ok.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("verification       : PASS"), "{stdout}");
    assert!(stdout.contains("park backstops     : 0"), "{stdout}");

    // A deleted flag is rejected, not ignored.
    for invocation in [
        &["sort", "--pairwise"][..],
        &["sort", "--kernels", "scalar"],
        &["serve", "--kernels", "auto"],
    ] {
        let bad = dhs(invocation);
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(2), "{invocation:?}: {stderr}");
        let flag = invocation[1].trim_start_matches("--");
        assert!(
            stderr.contains(&format!("unrecognised argument {flag:?}")),
            "{stderr}"
        );
        assert!(
            stderr.contains("usage: dhs <sort|serve|select|topology>"),
            "{stderr}"
        );
        assert!(bad.stdout.is_empty(), "a rejected invocation must not run");
    }

    // `--engine` takes a worker count and nothing else.
    for (command, value) in [
        ("sort", "threads"),
        ("serve", "threads"),
        ("sort", "fibers"),
    ] {
        let bad = dhs(&[command, "--engine", value]);
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(2), "{command} {value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
        assert!(stderr.contains("unknown engine"), "{stderr}");
        assert!(bad.stdout.is_empty(), "a rejected invocation must not run");
    }
}

/// Shrink recovery composes with the staged schedule: the pair builds
/// and sorts.
#[test]
fn shrink_recovery_runs_with_staged_exchange() {
    let ok = dhs(&[
        "sort",
        "--ranks",
        "8",
        "--nper",
        "512",
        "--recovery",
        "shrink",
        "--exchange-algo",
        "staged:4",
        "--verify",
    ]);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(stdout.contains("verification       : PASS"), "{stdout}");
}

/// `--exchange-algo priced` parses, is what `dhs sort` and `dhs serve`
/// run without the flag, and resolves per exchange: at 64 ranks × 64
/// keys it prices Bruck cheapest and runs exactly as `bruck` does, not
/// as `one-factor`. An unknown value names the four the flag takes.
#[test]
fn exchange_algo_priced_is_the_default() {
    // Everything but the handoff count, which follows the host.
    let run = |extra: &[&str]| {
        let mut args = vec!["sort", "--ranks", "64", "--nper", "64", "--verify"];
        args.extend_from_slice(extra);
        let out = dhs(&args);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {stdout}");
        assert!(stdout.contains("verification       : PASS"), "{stdout}");
        stdout
            .lines()
            .filter(|l| !l.starts_with("parks per rank"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let default = run(&[]);
    assert_eq!(run(&["--exchange-algo", "priced"]), default);
    assert_eq!(run(&["--exchange-algo", "bruck"]), default);
    assert_ne!(run(&["--exchange-algo", "one-factor"]), default);

    let serve = |extra: &[&str]| {
        let mut args = vec!["serve", "--ranks", "8", "--nper", "256", "--epochs", "2"];
        args.extend_from_slice(extra);
        let out = dhs(&args);
        assert_eq!(out.status.code(), Some(0), "{extra:?}");
        out.stdout
    };
    assert_eq!(serve(&["--exchange-algo", "priced"]), serve(&[]));

    for command in ["sort", "serve"] {
        assert_usage_error(
            &[command, "--exchange-algo", "cheapest"],
            "(expected priced|one-factor|bruck|staged:<k>)",
        );
    }
}

/// A flag the driver reads, given a value it does not take: one
/// `dhs: …` line naming the flag, the usage text, exit 2 — never a
/// panic, and nothing runs.
#[test]
fn bad_flag_values_are_usage_errors() {
    for (command, flag, value, names) in [
        ("sort", "--merge", "foo", "--merge"),
        // The k-way engines are one value, `kway`, not four.
        ("sort", "--merge", "binary", "--merge"),
        ("sort", "--merge", "heap", "--merge"),
        ("sort", "--merge", "funnel", "--merge"),
        ("sort", "--local-sort", "quick", "--local-sort"),
        ("sort", "--partitioning", "fair", "--partitioning"),
        ("sort", "--recovery", "retry", "--recovery"),
        ("sort", "--exchange-algo", "ring", "--exchange-algo"),
        ("sort", "--exchange-algo", "leaders", "--exchange-algo"),
        ("sort", "--exchange-algo", "staged:four", "--exchange-algo"),
        ("sort", "--warm-start", "hot", "--warm-start"),
        ("sort", "--dist", "cauchy", "--dist"),
        ("sort", "--layout", "diagonal", "--layout"),
        ("sort", "--algo", "quick", "--algo"),
        ("sort", "--trace-format", "xml", "--trace-format"),
        ("serve", "--profile", "bursty", "--profile"),
        ("serve", "--merge", "foo", "--merge"),
        ("select", "--dist", "cauchy", "--dist"),
        // Values that parse but describe no executable configuration.
        (
            "sort",
            "--eps",
            "-0.5",
            "invalid sort configuration: epsilon",
        ),
        (
            "sort",
            "--exchange-algo",
            "staged:1",
            "invalid sort configuration: StagedKWay",
        ),
    ] {
        assert_usage_error(&[command, flag, value], names);
    }
}

/// The baselines run with their own fixed settings: a sort-config flag
/// given to one is a usage error naming the flag and the algorithm,
/// not a silently ignored word. The histogram sorts take them all.
#[test]
fn baselines_reject_sort_config_flags() {
    for (algo, flag, value) in [
        ("psrs", "--recovery", "shrink"),
        ("hss", "--merge", "kway"),
        ("sample", "--threads", "4"),
        ("hyksort", "--exchange-algo", "staged:4"),
        ("ams", "--eps", "0.1"),
        ("bitonic", "--max-iters", "3"),
    ] {
        let names = format!("{flag}: --algo {algo} takes no sort-config flag");
        assert_usage_error(&["sort", "--algo", algo, flag, value], &names);
    }
    for algo in ["histogram", "two-level"] {
        let ok = dhs(&[
            "sort",
            "--algo",
            algo,
            "--ranks",
            "4",
            "--nper",
            "256",
            "--merge",
            "kway",
            "--threads",
            "2",
            "--recovery",
            "shrink",
            "--verify",
        ]);
        let stdout = String::from_utf8_lossy(&ok.stdout);
        assert_eq!(ok.status.code(), Some(0), "{algo}: {stdout}");
        assert!(stdout.contains("verification       : PASS"), "{stdout}");
    }
}

/// `invocation` is rejected before anything runs: exit 2, a first
/// stderr line `dhs: …` containing `names`, the usage text, no panic.
fn assert_usage_error(invocation: &[&str], names: &str) {
    let bad = dhs(invocation);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(2), "{invocation:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("dhs: ") && first.contains(names),
        "{invocation:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(
        stderr.contains("usage: dhs <sort|serve|select|topology>"),
        "{stderr}"
    );
    assert!(bad.stdout.is_empty(), "a rejected invocation must not run");
}

/// Input that parses but that no rank could run: rejected up front
/// with one `dhs: …` line naming the flag, exit 2 — where the ranks
/// themselves would each have panicked.
#[test]
fn unrunnable_input_is_a_usage_error() {
    for (invocation, names) in [
        (&["sort", "--ranks", "0"][..], "--ranks"),
        (&["serve", "--ranks", "0"], "--ranks"),
        (&["select", "--ranks", "0"], "--ranks"),
        (&["topology", "--ranks", "0"], "--ranks"),
        (
            &["select", "--ranks", "4", "--nper", "10", "--k", "40"],
            "--k",
        ),
        (
            &["select", "--ranks", "4", "--nper", "0", "--k", "0"],
            "--k",
        ),
        (&["sort", "--algo", "bitonic", "--ranks", "6"], "--algo"),
        // The trace file is opened before the sort, not after it.
        (
            &[
                "sort",
                "--ranks",
                "4",
                "--trace",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/no-such-dir/trace.json"),
            ],
            "--trace",
        ),
    ] {
        assert_usage_error(invocation, names);
    }
}
