//! One run of one workload: set-up, warm-up, the timed loop, host-side
//! verification of every op, and the fold into named metrics.

use std::fmt::Write as _;
use std::time::Instant;

use dhs_core::SortConfig;

use crate::layers::{self, Layered, Span};
use crate::measure::{median, peak_rss_mb, quantile, tail_percentile};
use crate::ops::{
    micro_probes, run_epochs, run_traced, run_whole, spawn_join_s, Exact, Op, Probes, Traced,
};
use crate::report::{Metric, RunResult, END_TO_END, PER_LAYER};
use crate::verify::{digest, verify, RankDigest};
use crate::workloads::{Kind, Workload};

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// `false`: whole sorts only, end-to-end metrics. `true`: every op
    /// is also replayed by layer, per-layer metrics.
    pub trace: bool,
    /// Set-up is repeated for this long (and at least
    /// [`MIN_SETUPS`] times); `setup_s` is the first decile.
    pub setup_seconds: f64,
}

const MIN_SETUPS: usize = 5;

/// Everything the timed part of a run produced.
struct Measured {
    ops: Vec<Op>,
    /// Ops whose world ended in a `RunError`.
    run_errors: u64,
    allocs: Option<u64>,
    probes: Option<Probes>,
}

/// Generate the run's inputs and start a world, repeatedly. Returns
/// the last set of inputs and every set-up's seconds.
fn set_up<I>(a: &RunArgs, generate: impl Fn() -> I) -> (I, Vec<f64>) {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut inputs = None;
    while samples.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < a.setup_seconds {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(generate());
        spawn_join_s(&a.workload);
        samples.push(t.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), samples)
}

fn one_shot<T: Layered>(a: &RunArgs, cfg: &SortConfig, origin: Instant) -> (Vec<f64>, Measured) {
    let w = &a.workload;
    let (inputs, setup_s) = set_up(a, || {
        (0..w.inputs)
            .map(|i| T::generate(w, a.seed, i))
            .collect::<Vec<_>>()
    });
    let digests: Vec<Vec<RankDigest>> = inputs
        .iter()
        .map(|blocks| blocks.iter().map(|b| digest(b)).collect())
        .collect();
    let mut m = Measured {
        ops: Vec::new(),
        run_errors: 0,
        allocs: None,
        probes: None,
    };
    for i in 0..w.warmup {
        // The traced run counts the allocations of its last warm-up op.
        let count = a.trace && i + 1 == w.warmup;
        if let Ok((_, allocs)) = run_whole(w, cfg, inputs[i % inputs.len()].clone(), count) {
            m.allocs = count.then_some(allocs);
        }
    }
    let started = Instant::now();
    if a.trace {
        m.probes = Some(micro_probes(w));
    }
    for i in 0.. {
        let index = i % inputs.len();
        let whole = run_whole(w, cfg, inputs[index].clone(), false);
        let traced = a
            .trace
            .then(|| run_traced(w, cfg, inputs[index].clone(), origin));
        match (whole, traced.transpose()) {
            (Ok((whole, _)), Ok(traced)) => m.ops.push(Op {
                input_index: index,
                input: digests[index].clone(),
                whole,
                traced,
            }),
            (whole, traced) => {
                for e in whole.err().iter().chain(traced.err().iter()) {
                    eprintln!("op {i} failed: {e}");
                }
                m.run_errors += 1;
            }
        }
        if i + 1 >= inputs.len() && started.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
    }
    (setup_s, m)
}

fn epochs(a: &RunArgs, cfg: &SortConfig, origin: Instant) -> (Vec<f64>, Measured) {
    let w = &a.workload;
    let (base, setup_s) = set_up(a, || w.keys(a.seed, 0));
    let started = Instant::now();
    let probes = a.trace.then(|| micro_probes(w));
    let seconds = a.seconds - started.elapsed().as_secs_f64();
    let run = run_epochs(w, cfg, a.seed, base, seconds, a.trace, origin);
    if let Err(e) = &run {
        eprintln!("epoch stream failed: {e}");
    }
    let m = Measured {
        run_errors: u64::from(run.is_err()),
        allocs: run.as_ref().ok().and_then(|r| r.allocs),
        ops: run.map_or_else(|_| Vec::new(), |r| r.ops),
        probes,
    };
    (setup_s, m)
}

/// Run one workload once and report its metrics: end-to-end without
/// `trace`, per-layer with it. `None` when no op completed.
pub fn run(a: &RunArgs) -> Option<RunResult> {
    let w = &a.workload;
    let cfg = w.sort_config();
    let origin = Instant::now();
    let (setup_s, m) = match w.kind {
        Kind::Keys => one_shot::<u64>(a, &cfg, origin),
        Kind::Records => one_shot::<(u64, u64)>(a, &cfg, origin),
        Kind::Epochs => epochs(a, &cfg, origin),
    };
    if m.ops.is_empty() {
        return None;
    }

    // Host-side verification of every op, and the determinism of the
    // exact side: a later op on the same input must reproduce the
    // first one's virtual clocks and counters bit for bit.
    let mut failed = m.run_errors;
    let mut imbalance = 1.0f64;
    let mut firsts: Vec<Option<&Op>> = vec![None; w.inputs];
    for (i, op) in m.ops.iter().enumerate() {
        let verdict = verify(&op.input, &op.whole.output);
        imbalance = imbalance.max(verdict.imbalance_factor);
        // (Epochs past the exact window are each their own input.)
        let drifted = firsts
            .get_mut(op.input_index)
            .is_some_and(|first| first.get_or_insert(op).whole.exact != op.whole.exact);
        if let Some(why) = &verdict.rejected {
            eprintln!("op {i} rejected: {why:?}");
        }
        if drifted {
            eprintln!(
                "op {i} drifted from the first op on input {}",
                op.input_index
            );
        }
        failed += u64::from(verdict.rejected.is_some() || drifted);
    }
    let firsts: Vec<&Op> = firsts.into_iter().flatten().collect();
    assert_eq!(firsts.len(), w.inputs, "the loop covers every input");

    let metrics = if a.trace {
        per_layer(a, &m, &firsts)
    } else {
        end_to_end(&m, &firsts, &setup_s, imbalance)
    };
    let result = RunResult {
        correct: failed == 0,
        attempted: m.ops.len() as u64 + m.run_errors,
        failed,
        metrics,
    };
    result.assert_covers(if a.trace { &PER_LAYER } else { &END_TO_END });
    Some(result)
}

/// Sample count, the low end, the median, and the highest percentile
/// with ten samples beyond it.
fn sample_note(xs: &[f64]) -> String {
    let mut note = format!(
        "p10 of n={}, min={:.6} median={:.6}",
        xs.len(),
        quantile(xs, 0.0),
        median(xs)
    );
    if let Some((pct, v)) = tail_percentile(xs) {
        let _ = write!(note, " p{pct:.1}={v:.6}");
    }
    note
}

/// A host timing is reported as its first decile over the run's
/// samples. Noise on the shared hosts this is gated on is one-sided and
/// comes in phases of seconds to minutes; between runs the first decile
/// spread half as much as the median whenever a phase hit (README,
/// "Steadiness"). The median is printed beside it.
const GATE_QUANTILE: f64 = 0.1;

fn timing(name: &str, unit: &str, xs: &[f64]) -> Metric {
    Metric {
        name: name.into(),
        value: quantile(xs, GATE_QUANTILE),
        unit: unit.into(),
        note: sample_note(xs),
    }
}

fn plain(name: &str, unit: &str, value: f64, note: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
        note: note.into(),
    }
}

/// Mean over the run's inputs of one exact quantity.
fn mean_exact(firsts: &[&Op], f: impl Fn(&Exact) -> f64) -> f64 {
    firsts.iter().map(|op| f(&op.whole.exact)).sum::<f64>() / firsts.len() as f64
}

fn end_to_end(m: &Measured, firsts: &[&Op], setup_s: &[f64], imbalance: f64) -> Vec<Metric> {
    let wall: Vec<f64> = m.ops.iter().map(|op| op.whole.wall_s).collect();
    let cpu: Vec<f64> = m.ops.iter().map(|op| op.whole.cpu_s).collect();
    let exact_note = format!("mean over {} inputs, exact per seed", firsts.len());
    vec![
        timing("setup_s", "s", setup_s),
        timing("host_sort_s", "s", &wall),
        timing("cpu_sort_s", "s", &cpu),
        plain(
            "virtual_makespan_s",
            "s_virtual",
            mean_exact(firsts, |e| e.makespan_ns as f64) * 1e-9,
            &exact_note,
        ),
        plain("peak_rss_mb", "MiB", peak_rss_mb(), "VmHWM of this process"),
        plain(
            "imbalance_factor",
            "ratio",
            imbalance,
            "1 + achieved epsilon, max over ops",
        ),
    ]
}

/// `(cpu summed over ranks, rank-0 wall)` of the spans named in
/// `phases` within one traced op.
fn phase_cost(spans: &[Span], phases: &[&str]) -> (f64, f64) {
    let mine = spans.iter().filter(|s| phases.contains(&s.name));
    mine.fold((0.0, 0.0), |(cpu, wall), s| {
        let rank0_wall = if s.rank == 0 { s.wall_s() } else { 0.0 };
        (cpu + s.cpu_s(), wall + rank0_wall)
    })
}

/// Name, unit and the quantity of one sort.
type ExactRow = (&'static str, &'static str, fn(&Exact) -> f64);

/// The exact per-layer rows.
const EXACT_ROWS: [ExactRow; 14] = [
    ("core.sort.local_sort.virtual_s", "s_virtual", |e| {
        e.local_sort_ns as f64 * 1e-9
    }),
    ("core.splitter.virtual_s", "s_virtual", |e| {
        e.histogram_ns as f64 * 1e-9
    }),
    ("core.splitter.rounds", "count", |e| f64::from(e.rounds)),
    ("core.splitter.probes", "count", |e| e.probes as f64),
    ("core.exchange.plan.virtual_s", "s_virtual", |e| {
        e.prepare_ns as f64 * 1e-9
    }),
    ("core.exchange.data.virtual_s", "s_virtual", |e| {
        e.exchange_ns as f64 * 1e-9
    }),
    ("merge.virtual_s", "s_virtual", |e| e.merge_ns as f64 * 1e-9),
    ("runtime.comm.p2p_messages", "count", |e| {
        e.p2p_messages as f64
    }),
    ("runtime.comm.p2p_retries", "count", |e| {
        e.p2p_retries as f64
    }),
    ("runtime.comm.collectives", "count", |e| {
        e.collectives as f64
    }),
    ("runtime.comm.bytes_inter_node", "B", |e| {
        e.bytes_inter_node as f64
    }),
    ("runtime.comm.bytes_intra_node", "B", |e| {
        e.bytes_intra_node as f64
    }),
    ("runtime.cost.comm_share", "ratio", |e| {
        e.comm_ns as f64 / (e.comm_ns + e.compute_ns).max(1) as f64
    }),
    ("runtime.buffer.pool_hit_rate", "ratio", |e| {
        e.pool_hits as f64 / e.pool_takes.max(1) as f64
    }),
];

fn per_layer(a: &RunArgs, m: &Measured, firsts: &[&Op]) -> Vec<Metric> {
    let exact_note = format!("mean over {} inputs, exact per seed", firsts.len());
    let mut out: Vec<Metric> = EXACT_ROWS
        .iter()
        .map(|(name, unit, f)| plain(name, unit, mean_exact(firsts, f), &exact_note))
        .collect();

    // Host rows from the replay's spans. A replay that diverged from
    // the whole sort attributes time to a pipeline the program does
    // not run: the rows are still printed, marked unresolved.
    let traced: Vec<(&Op, &Traced)> = m
        .ops
        .iter()
        .filter_map(|op| Some((op, op.traced.as_ref()?)))
        .collect();
    let diverged = traced
        .iter()
        .filter(|(op, t)| !t.matches(&op.whole))
        .count();
    if diverged > 0 {
        let line = format!(
            "layer_replay_diverged: {diverged} of {} traced ops",
            traced.len()
        );
        println!("{line}");
        eprintln!("{line}");
    }
    let host = |name: &str, xs: &[f64]| -> Metric {
        let mut metric = timing(name, "s", xs);
        if diverged > 0 {
            metric.note.push_str(" UNRESOLVED (replay diverged)");
        }
        metric
    };
    let mut covered = vec![0.0; traced.len()];
    for (layer, phases) in [
        ("core.sort.local_sort", &[layers::LOCAL_SORT][..]),
        ("core.splitter", &[layers::SPLITTER]),
        ("core.exchange.plan", &[layers::SHAPE, layers::PLAN]),
        ("core.exchange.data", &[layers::DATA]),
        ("merge", &[layers::MERGE]),
    ] {
        let (cpu, wall): (Vec<f64>, Vec<f64>) = traced
            .iter()
            .map(|(_, t)| phase_cost(&t.spans, phases))
            .unzip();
        for (c, cpu) in covered.iter_mut().zip(&cpu) {
            *c += cpu;
        }
        out.push(host(&format!("{layer}.cpu_s"), &cpu));
        out.push(host(&format!("{layer}.wall_s"), &wall));
    }
    let waits: Vec<f64> = traced
        .iter()
        .map(|(_, t)| phase_cost(&t.spans, &[layers::WAIT]).1)
        .collect();
    out.push(host("runtime.sched.wait_s", &waits));

    let probes = m.probes.as_ref().expect("a traced run probes the runtime");
    let allocs = m.allocs.expect("a traced run counts one op's allocations");
    let coverage: Vec<f64> = traced
        .iter()
        .zip(&covered)
        .map(|((_, t), cpu)| cpu / t.cpu_s)
        .collect();
    let whole_wall: Vec<f64> = m.ops.iter().map(|op| op.whole.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|(_, t)| t.wall_s).collect();
    let overhead =
        quantile(&traced_wall, GATE_QUANTILE) / quantile(&whole_wall, GATE_QUANTILE) - 1.0;
    let per_call = "per call, rank 0's window";
    out.extend([
        plain(
            "runtime.runner.spawn_join_s",
            "s",
            probes.spawn_join_s,
            "median of 5 empty worlds",
        ),
        plain(
            "runtime.sched.barrier_us",
            "us",
            probes.barrier_us,
            per_call,
        ),
        plain(
            "runtime.comm.allreduce_us",
            "us",
            probes.allreduce_us,
            per_call,
        ),
        plain(
            "runtime.comm.allreduce.cpu_us",
            "us",
            probes.allreduce_cpu_us,
            "per call, process CPU of all ranks",
        ),
        plain(
            "runtime.buffer.allocs_per_sort",
            "count",
            allocs as f64,
            "last warm-up op, counting allocator",
        ),
        plain(
            "layers.cpu_coverage",
            "ratio",
            median(&coverage),
            "layer cpu / process cpu of the traced op, median over ops",
        ),
        plain(
            "layers.replay_diverged",
            "count",
            diverged as f64,
            "traced ops whose replay differs from the whole sort",
        ),
        plain(
            "trace.overhead",
            "ratio",
            overhead,
            "traced / untraced host_sort_s - 1, same run",
        ),
    ]);

    write_spans(a, &traced);
    out
}

/// Write the traced run's spans beside the benchmark's executable
/// (inside the build directory, so inside the checkout).
fn write_spans(a: &RunArgs, traced: &[(&Op, &Traced)]) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("bench-out")))
    else {
        return;
    };
    let ops: Vec<String> = traced
        .iter()
        .enumerate()
        .map(|(i, (op, t))| {
            format!(
                "{{\"op\": {i}, \"input\": {}, \"wall_s\": {}, \"process_cpu_s\": {}, \"diverged\": {}}}",
                op.input_index,
                t.wall_s,
                t.cpu_s,
                !t.matches(&op.whole)
            )
        })
        .collect();
    let spans: Vec<String> = traced
        .iter()
        .enumerate()
        .flat_map(|(i, (_, t))| {
            t.spans.iter().map(move |s| {
                format!(
                    "{{\"name\": \"{}\", \"rank\": {}, \"op\": {i}, \"wall_ns\": [{}, {}], \"thread_cpu_ns\": [{}, {}]}}",
                    s.name, s.rank, s.wall_ns.0, s.wall_ns.1, s.cpu_ns.0, s.cpu_ns.1
                )
            })
        })
        .collect();
    let json = format!(
        "{{\"ops\": [\n{}\n], \"spans\": [\n{}\n]}}\n",
        ops.join(",\n"),
        spans.join(",\n")
    );
    let path = dir.join(format!("spans-{}-{}.json", a.workload.name, a.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, NAMES};

    /// Every workload, shrunk, runs both ways, verifies every op,
    /// reports every metric of its table, and its replay matches.
    #[test]
    fn smoke_runs_report_every_metric() {
        for name in NAMES {
            for trace in [false, true] {
                let a = RunArgs {
                    workload: by_name(name, true).expect("known workload"),
                    seed: 11,
                    seconds: 0.2,
                    trace,
                    setup_seconds: 0.0,
                };
                let r = run(&a).expect("ops complete");
                assert!(r.correct, "{name} trace={trace}: {}", r.table());
                assert!(r.attempted >= a.workload.inputs as u64);
                if trace {
                    assert_eq!(r.get("layers.replay_diverged"), Some(0.0), "{name}");
                } else {
                    assert_eq!(r.get("imbalance_factor"), Some(1.0), "{name}");
                }
            }
        }
    }

    #[test]
    fn exact_metrics_repeat_for_a_seed() {
        let a = RunArgs {
            workload: by_name("latency_bound", true).expect("known workload"),
            seed: 5,
            seconds: 0.0,
            trace: false,
            setup_seconds: 0.0,
        };
        let (x, y) = (run(&a).expect("ran"), run(&a).expect("ran"));
        assert_eq!(x.get("virtual_makespan_s"), y.get("virtual_makespan_s"));
        let other = RunArgs { seed: 6, ..a };
        let z = run(&other).expect("ran");
        assert_ne!(x.get("virtual_makespan_s"), z.get("virtual_makespan_s"));
    }
}
