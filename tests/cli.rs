//! The `dhs` driver end to end, through the built binary: a good
//! invocation sorts and verifies, and a flag or value the driver does
//! not read — `--pairwise`, deleted with the exchange strategy it
//! selected; `--engine threads`, deleted with the engine it selected —
//! is a usage error, not a silently ignored word.

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

    let bad = dhs(&["sort", "--pairwise"]);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unrecognised argument \"pairwise\""),
        "{stderr}"
    );
    assert!(
        stderr.contains("usage: dhs <sort|serve|select|topology>"),
        "{stderr}"
    );
    assert!(bad.stdout.is_empty(), "a rejected invocation must not run");

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
