//! Chaos sweep: the histogram sort against three baselines under fault
//! injection — straggler slowdowns and degraded links of increasing
//! severity. Every fault is a deterministic function of the plan and of
//! virtual time, so each cell of the sweep is exactly reproducible.
//! Every sorter moves its data through the one collective rendezvous
//! (bitonic's compare-split is a one-peer exchange), so both families
//! reach all four.
//!
//! Prints a table per fault family and writes the full grid as JSON to
//! `results/chaos_sweep.json`. A per-fault-family phase breakdown —
//! every sorter's `SortStats` in the paper's five phases (local sort,
//! histogram, exchange, merge, other) — is printed after the main table
//! and written next to the grid as `<out>_phases.json`; the main grid's
//! bytes are independent of phase attribution so existing consumers are
//! unaffected.
//!
//! A recovery grid follows the fault sweep: seeded rank *crashes*
//! (count × phase) against both [`RecoveryPolicy`] settings, written
//! as `<out stem>_recovery.json`. Under `Abort` a crash kills the run
//! (completion rate < 1); under `Shrink` the survivors agree, shrink,
//! and finish with `SortOutcome::Recovered`. Crash deadlines are
//! placed from a fault-free probe run's phase boundaries, so the grid
//! hits the same phases at every scale.
//!
//! Flags: `--p <ranks>` (default 32), `--nper <keys/rank>` (default
//! 2^12), `--threads <threads/rank>` (default 1), `--out <path>`,
//! `--quick`, `--recovery <shrink|abort|both>` (run *only* the
//! recovery grid, restricted to the given policies — the CI smoke
//! subset), `--engine tasks|tasks:<workers>` (worker slots the ranks
//! share), `--largep` (run the reduced large-p grid instead of the
//! main sweep). The `--threads` and `--engine` flags exercise hybrid
//! rank×thread execution and the task scheduler; by the determinism
//! contract the emitted JSON is byte-identical for every value (only
//! host wall-clock changes).
//!
//! `--largep` sweeps p ∈ {512, 1024} and writes a separate
//! `results/chaos_sweep_largep.json`; the main sweep's outputs are
//! untouched.

use std::fmt::Write as _;

use dhs_baselines::Algorithm;
use dhs_bench::experiment::{run_distributed_sort, run_recovery_sort, DistributedRun, SortAlgo};
use dhs_bench::table::{fmt_secs, Table};
use dhs_bench::Args;
use dhs_core::{RecoveryPolicy, SortConfig};
use dhs_runtime::{ClusterConfig, FaultPlan, LinkClass, LinkFault, RunnerEngine};
use dhs_workloads::{Distribution, Layout};

/// One fault scenario applied to every algorithm.
struct Scenario {
    name: &'static str,
    family: &'static str,
    severity: f64,
    plan: FaultPlan,
}

fn scenarios(p: usize) -> Vec<Scenario> {
    let mut out = vec![Scenario {
        name: "baseline",
        family: "none",
        severity: 0.0,
        plan: FaultPlan::default(),
    }];

    // Stragglers: the slowest quarter of the ranks computes `f`x slower.
    for (name, factor) in [
        ("stragglers-mild", 1.5),
        ("stragglers-moderate", 3.0),
        ("stragglers-severe", 8.0),
    ] {
        let mut plan = FaultPlan::default();
        for rank in (0..p).filter(|r| r % 4 == 3) {
            plan = plan.with_straggler(rank, factor);
        }
        out.push(Scenario {
            name,
            family: "straggler",
            severity: factor,
            plan,
        });
    }

    // Inter-node link degradation for the middle third of the run
    // (virtual time window chosen to overlap the exchange phase).
    for (name, beta_factor) in [
        ("link-slow-2x", 2.0),
        ("link-slow-4x", 4.0),
        ("link-slow-16x", 16.0),
    ] {
        let plan = FaultPlan::default().with_link_fault(LinkFault {
            class: Some(LinkClass::InterNode),
            extra_alpha_ns: 10_000.0,
            beta_factor,
            from_ns: 0,
            until_ns: u64::MAX,
        });
        out.push(Scenario {
            name,
            family: "link",
            severity: beta_factor,
            plan,
        });
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn run_json(r: &DistributedRun) -> String {
    format!(
        "{{\"makespan_s\": {:.9}, \"iterations\": {}, \"converged\": {}, \
         \"max_keys\": {}, \"min_keys\": {}, \"inter_node_bytes\": {}}}",
        r.makespan_s, r.iterations, r.converged, r.max_keys, r.min_keys, r.inter_node_bytes,
    )
}

/// The crash grid: scenario name × (victim, deadline) list, with
/// deadlines placed from the probe run's fault-free phase maxima so
/// each scenario lands in the intended phase at any problem size. All
/// deadlines are pre-commit (before the all-to-allv completes): a
/// later deadline hits the exchange's commit point, where survivors
/// finish without a restart and there is nothing to recover.
fn crash_scenarios(p: usize, probe: &DistributedRun) -> Vec<(&'static str, Vec<(usize, u64)>)> {
    let phase_s = |name: &str| {
        probe
            .phases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, s)| s)
            .unwrap_or(0.0)
    };
    let ns = |s: f64| (s * 1e9).ceil() as u64;
    let ls = phase_s("local-sort");
    let hist = phase_s("histogram");
    vec![
        ("crash1-local-sort", vec![(p / 4, ns(ls * 0.5))]),
        (
            "crash1-histogram-early",
            vec![(p / 4, ns(ls + hist * 0.25))],
        ),
        ("crash1-histogram-late", vec![(p / 4, ns(ls + hist * 0.9))]),
        (
            "crash2-staggered",
            vec![(p / 4, ns(ls * 0.5)), (p / 2 + 1, ns(ls + hist * 0.5))],
        ),
    ]
}

/// Run the recovery grid and write `<out stem>_recovery.json`.
fn recovery_grid(
    p: usize,
    n_per: usize,
    threads: usize,
    engine: RunnerEngine,
    policies: &[(&'static str, RecoveryPolicy)],
    out_path: &str,
) {
    let n_total = p * n_per;
    let seed = 0x5EED;
    let base = SortConfig {
        threads_per_rank: threads,
        ..SortConfig::default()
    };
    let probe = run_distributed_sort(
        &ClusterConfig::supermuc_phase2(p).with_engine(engine),
        &SortAlgo::Histogram(base),
        Distribution::paper_uniform(),
        Layout::Balanced,
        n_total,
        seed,
    );

    println!("\n# Recovery grid: rank crashes x policy");
    let mut table = Table::new([
        "scenario",
        "policy",
        "completed",
        "recovered",
        "restarts",
        "overhead",
        "makespan",
    ]);
    let scens = crash_scenarios(p, &probe);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"ranks\": {p},");
    let _ = writeln!(json, "  \"keys_per_rank\": {n_per},");
    let _ = writeln!(json, "  \"grid\": [");
    for (si, (name, crashes)) in scens.iter().enumerate() {
        for (pi, (policy_name, policy)) in policies.iter().enumerate() {
            let mut plan = FaultPlan::default();
            for &(rank, at_ns) in crashes {
                plan = plan.with_crash(rank, at_ns);
            }
            let cluster = ClusterConfig::supermuc_phase2(p)
                .with_fault(plan)
                .with_engine(engine);
            let cfg = SortConfig {
                threads_per_rank: threads,
                recovery: *policy,
                ..SortConfig::default()
            };
            let r = run_recovery_sort(
                &cluster,
                &cfg,
                Distribution::paper_uniform(),
                Layout::Balanced,
                n_total,
                seed,
            );
            table.row([
                name.to_string(),
                policy_name.to_string(),
                format!("{}/{}", r.completed_ranks, r.expected_survivors),
                if r.recovered { "yes" } else { "no" }.to_string(),
                r.restarts.to_string(),
                fmt_secs(r.recovery_overhead_s),
                fmt_secs(r.makespan_s),
            ]);
            let lost = r
                .lost_ranks
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                json,
                "    {{\"scenario\": \"{}\", \"crashes\": {}, \"policy\": \"{}\", \"result\": \
                 {{\"completed\": {}, \"completed_ranks\": {}, \"expected_survivors\": {}, \
                 \"recovered\": {}, \"restarts\": {}, \"lost_ranks\": [{}], \
                 \"makespan_s\": {:.9}, \"recovery_overhead_s\": {:.9}, \"sorted_ok\": {}}}}}{}",
                json_escape(name),
                crashes.len(),
                json_escape(policy_name),
                r.completed,
                r.completed_ranks,
                r.expected_survivors,
                r.recovered,
                r.restarts,
                lost,
                r.makespan_s,
                r.recovery_overhead_s,
                r.sorted_ok,
                if si + 1 < scens.len() || pi + 1 < policies.len() {
                    ","
                } else {
                    ""
                }
            );
        }
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    table.print();

    let recovery_path = out_path
        .strip_suffix(".json")
        .map(|stem| format!("{stem}_recovery.json"))
        .unwrap_or_else(|| format!("{out_path}_recovery.json"));
    if let Some(dir) = std::path::Path::new(&recovery_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
    }
    std::fs::write(&recovery_path, &json).expect("write recovery grid JSON");
    println!("\nwrote {recovery_path}");
}

/// The reduced large-p grid: p ∈ {512, 1024}, one representative
/// severity per fault family, the histogram sort and the bitonic
/// baseline (`log² P` one-peer exchanges against one all-to-all).
/// Written as a separate file so the main sweep's bytes — pinned by
/// CI — are never disturbed.
fn largep_sweep(engine: RunnerEngine, out_path: &str) {
    let seed = 0x5EED;
    let n_per = 256usize;
    let algos = [
        SortAlgo::Histogram(SortConfig::default()),
        SortAlgo::Baseline(Algorithm::Bitonic),
    ];

    println!("# Chaos sweep (large-p grid, {engine:?})");
    println!("# {n_per} keys/rank, uniform keys, fault plans fixed\n");
    let mut table = Table::new(["p", "scenario", "algorithm", "makespan", "slowdown"]);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"keys_per_rank\": {n_per},");
    let _ = writeln!(json, "  \"grids\": [");
    let ps = [512usize, 1024];
    for (gi, &p) in ps.iter().enumerate() {
        let keep = ["baseline", "stragglers-moderate", "link-slow-4x"];
        let scens: Vec<Scenario> = scenarios(p)
            .into_iter()
            .filter(|s| keep.contains(&s.name))
            .collect();
        let _ = writeln!(json, "    {{\"ranks\": {p}, \"scenarios\": [");
        let mut baselines: Vec<f64> = Vec::new();
        for (si, sc) in scens.iter().enumerate() {
            let cluster = ClusterConfig::supermuc_phase2(p)
                .with_fault(sc.plan.clone())
                .with_engine(engine);
            let mut cells = String::new();
            for (ai, algo) in algos.iter().enumerate() {
                let label = algo.label();
                let run = run_distributed_sort(
                    &cluster,
                    algo,
                    Distribution::paper_uniform(),
                    Layout::Balanced,
                    p * n_per,
                    seed,
                );
                if sc.family == "none" {
                    baselines.push(run.makespan_s);
                }
                let slowdown = run.makespan_s / baselines[ai].max(f64::MIN_POSITIVE);
                table.row([
                    p.to_string(),
                    sc.name.to_string(),
                    label.to_string(),
                    fmt_secs(run.makespan_s),
                    format!("{slowdown:.2}x"),
                ]);
                let _ = write!(
                    cells,
                    "          {{\"algorithm\": \"{}\", \"result\": {}}}{}",
                    json_escape(label),
                    run_json(&run),
                    if ai + 1 < algos.len() { ",\n" } else { "\n" }
                );
            }
            let _ = writeln!(
                json,
                "      {{\"name\": \"{}\", \"family\": \"{}\", \"severity\": {}, \"runs\": [",
                json_escape(sc.name),
                json_escape(sc.family),
                sc.severity
            );
            let _ = write!(json, "{cells}");
            let _ = writeln!(
                json,
                "      ]}}{}",
                if si + 1 < scens.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "    ]}}{}", if gi + 1 < ps.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    table.print();

    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
    }
    std::fs::write(out_path, &json).expect("write large-p chaos JSON");
    println!("\nwrote {out_path}");
}

fn main() {
    let args = Args::parse();
    let p: usize = if args.quick() { 8 } else { args.get("p", 32) };
    let n_per: usize = if args.quick() {
        1 << 9
    } else {
        args.get("nper", 1 << 12)
    };
    let threads: usize = args.get("threads", 1);
    let engine = args.engine();

    if args.has("largep") {
        let out = args
            .raw("out")
            .unwrap_or("results/chaos_sweep_largep.json")
            .to_string();
        largep_sweep(engine, &out);
        return;
    }

    let out_path = args
        .raw("out")
        .unwrap_or("results/chaos_sweep.json")
        .to_string();
    let n_total = p * n_per;
    let seed = 0x5EED;

    // `--recovery <policy>` runs only the recovery grid (the CI smoke
    // subset); without it the full sweep runs and the grid follows.
    if let Some(which) = args.raw("recovery") {
        let policies: Vec<(&'static str, RecoveryPolicy)> = match which {
            "shrink" => vec![("shrink", RecoveryPolicy::Shrink)],
            "abort" => vec![("abort", RecoveryPolicy::Abort)],
            "both" => vec![
                ("abort", RecoveryPolicy::Abort),
                ("shrink", RecoveryPolicy::Shrink),
            ],
            other => panic!("unknown recovery policy {other} (expected shrink|abort|both)"),
        };
        println!("# Chaos sweep (recovery subset)");
        println!("# P = {p}, {n_per} keys/rank, uniform keys, fault plans fixed");
        recovery_grid(p, n_per, threads, engine, &policies, &out_path);
        return;
    }

    let algos = [
        SortAlgo::Histogram(SortConfig {
            threads_per_rank: threads,
            ..SortConfig::default()
        }),
        SortAlgo::Baseline(Algorithm::Bitonic),
        SortAlgo::Baseline(Algorithm::Hss),
        SortAlgo::Baseline(Algorithm::SampleSort),
    ];

    println!("# Chaos sweep: fault injection across sorters");
    println!("# P = {p}, {n_per} keys/rank, uniform keys, fault plans fixed\n");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"ranks\": {p},");
    let _ = writeln!(json, "  \"keys_per_rank\": {n_per},");
    let _ = writeln!(json, "  \"scenarios\": [");

    let scens = scenarios(p);
    let mut table = Table::new(["scenario", "algorithm", "makespan", "slowdown", "conv"]);
    // (family, scenario, algorithm, phases) for the breakdown report.
    type PhaseRow = (String, String, String, Vec<(&'static str, f64)>);
    let mut phase_rows: Vec<PhaseRow> = Vec::new();
    let mut baselines: Vec<f64> = Vec::new();
    for (si, sc) in scens.iter().enumerate() {
        let cluster = ClusterConfig::supermuc_phase2(p)
            .with_fault(sc.plan.clone())
            .with_engine(engine);
        let mut cells = String::new();
        for (ai, algo) in algos.iter().enumerate() {
            let label = algo.label();
            let run = run_distributed_sort(
                &cluster,
                algo,
                Distribution::paper_uniform(),
                Layout::Balanced,
                n_total,
                seed,
            );
            if sc.family == "none" {
                baselines.push(run.makespan_s);
            }
            let slowdown = run.makespan_s / baselines[ai].max(f64::MIN_POSITIVE);
            table.row([
                sc.name.to_string(),
                label.to_string(),
                fmt_secs(run.makespan_s),
                format!("{slowdown:.2}x"),
                if run.converged { "yes" } else { "NO" }.to_string(),
            ]);
            phase_rows.push((
                sc.family.to_string(),
                sc.name.to_string(),
                label.to_string(),
                run.phases.clone(),
            ));
            let _ = write!(
                cells,
                "        {{\"algorithm\": \"{}\", \"result\": {}}}{}",
                json_escape(label),
                run_json(&run),
                if ai + 1 < algos.len() { ",\n" } else { "\n" }
            );
        }
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"family\": \"{}\", \"severity\": {}, \"runs\": [",
            json_escape(sc.name),
            json_escape(sc.family),
            sc.severity
        );
        let _ = write!(json, "{cells}");
        let _ = writeln!(
            json,
            "    ]}}{}",
            if si + 1 < scens.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    table.print();

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write chaos sweep JSON");
    println!("\nwrote {out_path}");

    // Phase breakdown per fault family: where does each fault family
    // put the extra time? (Max over ranks per phase, so shares can sum
    // past 100% when the critical rank differs by phase.)
    let mut families: Vec<String> = Vec::new();
    for (family, ..) in &phase_rows {
        if !families.contains(family) {
            families.push(family.clone());
        }
    }
    for family in &families {
        println!("\n## phase breakdown: {family}");
        let mut t = Table::new(["scenario", "algorithm", "phases (max over ranks)"]);
        for (fam, scen, algo, phases) in &phase_rows {
            if fam != family {
                continue;
            }
            let total: f64 = phases.iter().map(|(_, s)| s).sum();
            let breakdown = phases
                .iter()
                .map(|(name, secs)| {
                    format!(
                        "{name} {} ({:.0}%)",
                        fmt_secs(*secs),
                        100.0 * secs / total.max(f64::MIN_POSITIVE)
                    )
                })
                .collect::<Vec<_>>()
                .join(" | ");
            t.row([scen.clone(), algo.clone(), breakdown]);
        }
        t.print();
    }

    let phases_path = out_path
        .strip_suffix(".json")
        .map(|stem| format!("{stem}_phases.json"))
        .unwrap_or_else(|| format!("{out_path}_phases.json"));
    let mut pj = String::new();
    let _ = writeln!(pj, "[");
    for (i, (family, scen, algo, phases)) in phase_rows.iter().enumerate() {
        let body = phases
            .iter()
            .map(|(name, secs)| format!("\"{}\": {:.9}", json_escape(name), secs))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            pj,
            "  {{\"scenario\": \"{}\", \"family\": \"{}\", \"algorithm\": \"{}\", \"phases\": {{{}}}}}{}",
            json_escape(scen),
            json_escape(family),
            json_escape(algo),
            body,
            if i + 1 < phase_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(pj, "]");
    std::fs::write(&phases_path, &pj).expect("write chaos phase JSON");
    println!("wrote {phases_path}");

    recovery_grid(
        p,
        n_per,
        threads,
        engine,
        &[
            ("abort", RecoveryPolicy::Abort),
            ("shrink", RecoveryPolicy::Shrink),
        ],
        &out_path,
    );
}
