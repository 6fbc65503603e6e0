//! Metric names, units and bounds, and the result line the contract
//! in `BENCHMARK.json` asks for.

use std::fmt::Write as _;

/// How two runs of the same commit and seed must agree on a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agreement {
    /// A host measurement: the two runs may differ by at most this
    /// share of the first.
    Within(f64),
    /// A virtual clock or counter: bit-identical.
    Exact,
    /// A diagnostic with no bound.
    Free,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub agreement: Agreement,
}

const fn def(name: &'static str, unit: &'static str, agreement: Agreement) -> MetricDef {
    MetricDef {
        name,
        unit,
        agreement,
    }
}

use Agreement::{Exact, Free, Within};

/// What a user of the crate sees; reported by `--trace 0` runs. Lower
/// is better for every one. The host bounds are those of
/// `BENCHMARK.json`; `virtual_makespan_s` and `imbalance_factor` repeat
/// exactly for one seed (their `BENCHMARK.json` bounds only cover the
/// spread across seeds).
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s", Within(0.25)),
    def("host_sort_s", "s", Within(0.25)),
    def("cpu_sort_s", "s", Within(0.25)),
    def("virtual_makespan_s", "s_virtual", Exact),
    def("peak_rss_mb", "MiB", Within(0.25)),
    def("imbalance_factor", "ratio", Exact),
];

/// Single layers; reported by `--trace 1` runs.
pub const PER_LAYER: [MetricDef; 33] = [
    // Exact, from the whole sorts' `SortStats` and rank counters.
    def("core.sort.local_sort.virtual_s", "s_virtual", Exact),
    def("core.splitter.virtual_s", "s_virtual", Exact),
    def("core.splitter.rounds", "count", Exact),
    def("core.splitter.probes", "count", Exact),
    def("core.exchange.plan.virtual_s", "s_virtual", Exact),
    def("core.exchange.data.virtual_s", "s_virtual", Exact),
    def("merge.virtual_s", "s_virtual", Exact),
    def("runtime.comm.p2p_messages", "count", Exact),
    def("runtime.comm.p2p_retries", "count", Exact),
    def("runtime.comm.collectives", "count", Exact),
    def("runtime.comm.bytes_inter_node", "B", Exact),
    def("runtime.comm.bytes_intra_node", "B", Exact),
    def("runtime.cost.comm_share", "ratio", Exact),
    def("runtime.buffer.pool_hit_rate", "ratio", Exact),
    // Host, from the spans of the traced replay.
    def("core.sort.local_sort.cpu_s", "s", Free),
    def("core.sort.local_sort.wall_s", "s", Free),
    def("core.splitter.cpu_s", "s", Free),
    def("core.splitter.wall_s", "s", Free),
    def("core.exchange.plan.cpu_s", "s", Free),
    def("core.exchange.plan.wall_s", "s", Free),
    def("core.exchange.data.cpu_s", "s", Free),
    def("core.exchange.data.wall_s", "s", Free),
    def("merge.cpu_s", "s", Free),
    def("merge.wall_s", "s", Free),
    def("runtime.sched.wait_s", "s", Free),
    // Host micro-probes at the workload's own (p, engine).
    def("runtime.runner.spawn_join_s", "s", Free),
    def("runtime.sched.barrier_us", "us", Free),
    def("runtime.comm.allreduce_us", "us", Free),
    def("runtime.comm.allreduce.cpu_us", "us", Free),
    def("runtime.buffer.allocs_per_sort", "count", Free),
    // Bookkeeping.
    def("layers.cpu_coverage", "ratio", Free),
    def("layers.replay_diverged", "count", Exact),
    def("trace.overhead", "ratio", Free),
];

/// One measured value with the note printed beside it (sample count,
/// tail percentile).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub note: String,
}

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Check that the run measured exactly the metrics of `defs`, in
    /// order, each a finite number.
    pub fn assert_covers(&self, defs: &[MetricDef]) {
        let named = |m: &'_ Metric| -> (String, String) { (m.name.clone(), m.unit.clone()) };
        let got: Vec<(String, String)> = self.metrics.iter().map(named).collect();
        let want: Vec<(String, String)> = defs
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(got, want, "a run reports every metric of its table");
        for m in &self.metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<36} {:>18} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        let _ = writeln!(
            out,
            "  ops attempted {} failed {} -> {}",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        out
    }

    /// The contract's result line: one JSON object, every value with
    /// all its digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line written by [`RunResult::json_line`] (the `run` and
    /// `agree` commands read their children's results back). Not a
    /// general JSON parser.
    pub fn parse_json_line(line: &str) -> Option<Self> {
        let field = |key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let (_, mut rest) = line.split_once("\"metrics\": {")?;
        let mut metrics = Vec::new();
        while let Some((_, after)) = rest.split_once('"') {
            let (name, after) = after.split_once("\": {\"value\": ")?;
            let (value, after) = after.split_once(", \"unit\": \"")?;
            let (unit, after) = after.split_once("\"}")?;
            metrics.push(Metric {
                name: name.to_string(),
                value: value.parse().ok()?,
                unit: unit.to_string(),
                note: String::new(),
            });
            rest = after;
        }
        Some(RunResult {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "host_sort_s".into(),
                    value: 0.123456789012,
                    unit: "s".into(),
                    note: String::new(),
                },
                Metric {
                    name: "runtime.comm.allreduce.cpu_us".into(),
                    value: 61234.5,
                    unit: "us".into(),
                    note: String::new(),
                },
            ],
        };
        let line = r.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0,"));
        assert_eq!(RunResult::parse_json_line(&line), Some(r));
        assert_eq!(RunResult::parse_json_line("not a result"), None);
    }

    /// `BENCHMARK.json` at the repo root is what the driver reads; the
    /// tables above are what the program prints. They must name the
    /// same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for name in crate::workloads::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\":")));
        }
    }
}
