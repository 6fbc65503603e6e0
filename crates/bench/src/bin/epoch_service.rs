//! Epoch-service study — warm-started splitter search over batch
//! streams: run the long-lived `EpochSorter` on the three drift
//! profiles (stationary, shifting-zipf, churn) under both `WarmStart`
//! policies and record rounds-to-convergence, probes, virtual makespan
//! and buffer-pool reuse per epoch.
//!
//! Every epoch of every cell is checked **byte-identical to a
//! cold-start sort of the same batch** on the same world (the seeded ==
//! cold invariant the service relies on); the run aborts on the first
//! divergence. For the stationary × seeded-brackets cell the bench
//! additionally asserts the headline property: at most one histogram
//! round from epoch 3 (index 2) onward.
//!
//! Writes `results/epoch_service.json` (schema `dhs-epoch-service/v1`).
//! Rounds, probes, ladder sizes and the per-epoch byte-identity are
//! bit-exact across hosts; virtual makespans are bit-exact too (the
//! simulated clock), so the whole file is reproducible byte-for-byte.
//!
//! Flags: `--p <ranks>` (default 32), `--n <total keys>` (default
//! 2^20), `--epochs <E>` (default 8), `--seed <s>` (default 1),
//! `--engine tasks[:<workers>]`, `--out <path>`, `--quick` (p=8, n=2^15,
//! 5 epochs).

use dhs_bench::table::Table;
use dhs_bench::Args;
use dhs_core::{histogram_sort, EpochSorter, SortConfig, WarmStart};
use dhs_runtime::{run, ClusterConfig};
use dhs_workloads::{epoch_rank_keys, Distribution, EpochProfile, Layout};

/// One epoch of one grid cell, aggregated across ranks.
struct EpochRow {
    rounds: u32,
    probes: u64,
    makespan_s: f64,
    pool_hit_rate: f64,
    warm_len: usize,
    cold_identical: bool,
}

struct Cell {
    profile: &'static str,
    policy: &'static str,
    epochs: Vec<EpochRow>,
}

fn policy_label(ws: WarmStart) -> &'static str {
    match ws {
        WarmStart::Cold => "cold",
        WarmStart::SeededWithBrackets => "seeded-brackets",
    }
}

fn run_cell(
    cluster: &ClusterConfig,
    profile: EpochProfile,
    policy: WarmStart,
    n_total: usize,
    epochs: u64,
    seed: u64,
) -> Cell {
    let p = cluster.topology.ranks();
    let cfg = SortConfig {
        warm_start: policy,
        ..SortConfig::default()
    };
    let cold_cfg = SortConfig {
        warm_start: WarmStart::Cold,
        ..SortConfig::default()
    };

    let out = run(cluster, move |comm| {
        let mut svc: EpochSorter<u64> = EpochSorter::new(comm, cfg.clone());
        let mut rows = Vec::with_capacity(epochs as usize);
        for epoch in 0..epochs {
            let mut batch = epoch_rank_keys(
                profile,
                Layout::Balanced,
                n_total,
                p,
                comm.rank(),
                seed,
                epoch,
            );
            let mut cold_ref = batch.clone();
            let stats = svc.sort_epoch(&mut batch);
            // The seeded == cold invariant: a cold one-shot sort of the
            // same batch on the same world must produce bit-identical
            // per-rank output, whatever path the warm search took.
            histogram_sort(svc.comm(), &mut cold_ref, &cold_cfg);
            let identical = batch == cold_ref;
            rows.push((
                stats.sort.iterations,
                stats.sort.probes,
                stats.makespan_ns,
                stats.pool,
                stats.warm_len,
                identical,
            ));
        }
        rows
    });

    // Rounds/probes are collective (identical on every rank); makespan
    // is the slowest rank's epoch span; identity must hold everywhere.
    let epochs_out: Vec<EpochRow> = (0..epochs as usize)
        .map(|e| {
            let rounds = out[0].0[e].0;
            let probes = out[0].0[e].1;
            debug_assert!(out
                .iter()
                .all(|(r, _)| r[e].0 == rounds && r[e].1 == probes));
            let makespan_ns = out.iter().map(|(r, _)| r[e].2).max().expect("p >= 1");
            let takes: u64 = out.iter().map(|(r, _)| r[e].3.takes).sum();
            let hits: u64 = out.iter().map(|(r, _)| r[e].3.hits).sum();
            EpochRow {
                rounds,
                probes,
                makespan_s: makespan_ns as f64 / 1e9,
                pool_hit_rate: if takes == 0 {
                    0.0
                } else {
                    hits as f64 / takes as f64
                },
                warm_len: out[0].0[e].4,
                cold_identical: out.iter().all(|(r, _)| r[e].5),
            }
        })
        .collect();

    for (e, row) in epochs_out.iter().enumerate() {
        assert!(
            row.cold_identical,
            "epoch {e} of {}/{}: warm output diverged from cold",
            profile.label(),
            policy_label(policy),
        );
    }

    Cell {
        profile: profile.label(),
        policy: policy_label(policy),
        epochs: epochs_out,
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.quick();
    let p: usize = if quick { 8 } else { args.get("p", 32) };
    let n_total: usize = if quick {
        1 << 15
    } else {
        args.get("n", 1 << 20)
    };
    let epochs: u64 = if quick { 5 } else { args.get("epochs", 8) };
    let seed: u64 = args.get("seed", 1);
    let out_path = args
        .raw("out")
        .unwrap_or("results/epoch_service.json")
        .to_string();

    let cluster = ClusterConfig::supermuc_phase2(p).with_engine(args.engine());

    let profiles = [
        EpochProfile::Stationary {
            dist: Distribution::paper_uniform(),
        },
        EpochProfile::ShiftingZipf {
            items: 1 << 16,
            s: 1.2,
            shift: 1 << 10,
        },
        EpochProfile::Churn {
            dist: Distribution::paper_uniform(),
            keep_permille: 900,
        },
    ];
    let policies = [WarmStart::Cold, WarmStart::SeededWithBrackets];

    println!(
        "# Epoch service: p={p}, N={n_total} keys/epoch, {epochs} epochs, \
         every epoch checked byte-identical to cold"
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut t = Table::new([
        "profile", "policy", "epoch", "rounds", "probes", "makespan", "reuse",
    ]);
    for profile in profiles {
        for policy in policies {
            let cell = run_cell(&cluster, profile, policy, n_total, epochs, seed);
            for (e, row) in cell.epochs.iter().enumerate() {
                t.row([
                    cell.profile.to_string(),
                    cell.policy.to_string(),
                    e.to_string(),
                    row.rounds.to_string(),
                    row.probes.to_string(),
                    format!("{:.3} ms", row.makespan_s * 1e3),
                    format!("{:.1}%", row.pool_hit_rate * 100.0),
                ]);
            }
            cells.push(cell);
        }
    }
    t.print();

    // The headline claim: a stationary stream under seeded-brackets
    // collapses to at most one histogram round from epoch 3 onward.
    let headline = cells
        .iter()
        .find(|c| c.profile == "stationary" && c.policy == "seeded-brackets")
        .expect("grid covers the headline cell");
    for (e, row) in headline.epochs.iter().enumerate().skip(2) {
        assert!(
            row.rounds <= 1,
            "stationary/seeded-brackets epoch {e} used {} rounds (expected <= 1)",
            row.rounds
        );
    }
    println!(
        "\nheadline: stationary/seeded-brackets rounds per epoch = {:?}",
        headline.epochs.iter().map(|r| r.rounds).collect::<Vec<_>>()
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"dhs-epoch-service/v1\",\n");
    json.push_str(&format!("  \"p\": {p},\n"));
    json.push_str(&format!("  \"n_total\": {n_total},\n"));
    json.push_str(&format!("  \"epochs\": {epochs},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str("  \"grid\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"profile\": \"{}\", \"policy\": \"{}\", \"epochs\": [\n",
            c.profile, c.policy
        ));
        for (e, r) in c.epochs.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"epoch\": {e}, \"rounds\": {}, \"probes\": {}, \
                 \"makespan_s\": {:.9}, \"pool_hit_rate\": {:.6}, \
                 \"warm_len\": {}, \"cold_identical\": {}}}{}\n",
                r.rounds,
                r.probes,
                r.makespan_s,
                r.pool_hit_rate,
                r.warm_len,
                r.cold_identical,
                if e + 1 == c.epochs.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write epoch service JSON");
    println!("wrote {out_path}");
}
