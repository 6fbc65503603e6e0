//! Span-based tracing over the virtual clock.
//!
//! Every rank owns one [`TraceSink`]; spans are opened and closed
//! against the rank's *virtual* clock, so recording a trace never
//! perturbs simulated time: a [`TraceConfig::Off`] run is bit-identical to a
//! traced run in makespan and counters, by construction (the trace
//! layer only ever *reads* `now_ns`, it never advances the clock).
//! Because spans carry virtual timestamps only, traces are likewise
//! byte-identical across worker counts ([`crate::RunnerEngine`]).
//!
//! The produced [`RunTrace`] exports to
//! * Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`),
//!   one track per rank, and
//! * a compact phase-summary JSON with cross-rank percentiles.

use std::borrow::Cow;
use std::fmt::Write as _;

use parking_lot::Mutex;

use crate::state::World;
use crate::topology::LinkClass;

/// Whether the runtime records spans and events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceConfig {
    /// No recording: the runtime allocates no sinks and every record
    /// call is a single `Option` check. Virtual time is unaffected in
    /// both modes, so `Off` exists purely to avoid memory growth.
    #[default]
    Off,
    /// Record every span, collective, one-sided transfer and fault
    /// event on every rank.
    On,
}

impl TraceConfig {
    /// Whether tracing is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, TraceConfig::On)
    }
}

/// One closed span on a rank's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (phase label or operation name).
    pub name: Cow<'static, str>,
    /// Category: `"phase"` for user spans, `"collective"` for
    /// auto-recorded runtime operations.
    pub cat: &'static str,
    /// Virtual open time of the span, in nanoseconds.
    pub start_ns: u64,
    /// Virtual close time of the span, in nanoseconds.
    pub end_ns: u64,
    /// Nesting depth at open time (0 = top-level phase).
    pub depth: usize,
    /// Bytes attributed to this span (collective payloads).
    pub bytes: u64,
}

impl SpanRecord {
    /// Virtual duration covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One instantaneous event on a rank's timeline (one-sided transfer,
/// crash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Event name (`"onesided"` or `"crash"`).
    pub name: &'static str,
    /// Virtual timestamp of the event, in nanoseconds.
    pub at_ns: u64,
    /// Link class the event's traffic crossed, when it carried any.
    pub link: Option<LinkClass>,
    /// Payload bytes the event carried (0 for pure control events).
    pub bytes: u64,
    /// Event-specific detail: the peer rank of a one-sided transfer,
    /// the deadline of a crash.
    pub info: u64,
}

#[derive(Default)]
struct SinkInner {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    /// Indices into `spans` of currently-open spans, innermost last.
    open: Vec<usize>,
}

/// Per-rank trace recorder. Only the owning rank-thread writes to it
/// while the run is live; the runner drains it afterwards.
#[derive(Default)]
pub struct TraceSink {
    inner: Mutex<SinkInner>,
}

impl TraceSink {
    /// Open a nested span at `start_ns`; returns a slot to close later.
    pub(crate) fn open(&self, name: Cow<'static, str>, cat: &'static str, start_ns: u64) -> usize {
        let mut inner = self.inner.lock();
        let depth = inner.open.len();
        let idx = inner.spans.len();
        inner.spans.push(SpanRecord {
            name,
            cat,
            start_ns,
            end_ns: start_ns,
            depth,
            bytes: 0,
        });
        inner.open.push(idx);
        idx
    }

    /// Close the span at `slot` (must be the innermost open span).
    pub(crate) fn close(&self, slot: usize, end_ns: u64) {
        let mut inner = self.inner.lock();
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(slot), "spans must close LIFO");
        inner.spans[slot].end_ns = end_ns;
    }

    /// Record an already-closed span at the current nesting depth.
    pub(crate) fn complete(
        &self,
        name: Cow<'static, str>,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
    ) {
        let mut inner = self.inner.lock();
        let depth = inner.open.len();
        inner.spans.push(SpanRecord {
            name,
            cat,
            start_ns,
            end_ns,
            depth,
            bytes,
        });
    }

    /// Add `bytes` to the most recently recorded span (used by the
    /// collective wrappers, which learn their payload size only after
    /// the rendezvous returns).
    pub(crate) fn attribute_bytes(&self, bytes: u64) {
        let mut inner = self.inner.lock();
        if let Some(s) = inner.spans.last_mut() {
            s.bytes += bytes;
        }
    }

    /// Record an instantaneous event.
    pub(crate) fn event(
        &self,
        name: &'static str,
        at_ns: u64,
        link: Option<LinkClass>,
        bytes: u64,
        info: u64,
    ) {
        self.inner.lock().events.push(EventRecord {
            name,
            at_ns,
            link,
            bytes,
            info,
        });
    }

    /// Move the recorded spans and events out of the sink.
    pub(crate) fn drain(&self) -> (Vec<SpanRecord>, Vec<EventRecord>) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.open.is_empty(), "draining with open spans");
        (
            std::mem::take(&mut inner.spans),
            std::mem::take(&mut inner.events),
        )
    }
}

/// RAII timer over the virtual clock, returned by
/// [`crate::Comm::span`]. Always measures elapsed virtual time —
/// [`SpanGuard::finish`] works identically whether tracing is on or
/// off — and additionally records a [`SpanRecord`] when it is on.
pub struct SpanGuard<'a> {
    local: &'a crate::stats::RankLocal,
    sink: Option<(&'a TraceSink, usize)>,
    start_ns: u64,
    finished: bool,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn new(
        local: &'a crate::stats::RankLocal,
        sink: Option<&'a TraceSink>,
        name: Cow<'static, str>,
    ) -> Self {
        let start_ns = local.now_ns();
        let sink = sink.map(|s| (s, s.open(name, "phase", start_ns)));
        Self {
            local,
            sink,
            start_ns,
            finished: false,
        }
    }

    /// Virtual time at which the span opened.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Virtual nanoseconds elapsed since the span opened.
    pub fn elapsed_ns(&self) -> u64 {
        self.local.now_ns().saturating_sub(self.start_ns)
    }

    /// Close the span and return its virtual duration. Equivalent to
    /// dropping the guard, but hands back the elapsed time so phase
    /// statistics can be derived from the span itself.
    pub fn finish(mut self) -> u64 {
        let end = self.local.now_ns();
        if let Some((sink, slot)) = self.sink {
            sink.close(slot, end);
        }
        self.finished = true;
        end.saturating_sub(self.start_ns)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            if let Some((sink, slot)) = self.sink {
                sink.close(slot, self.local.now_ns());
            }
        }
    }
}

/// The trace of one rank over a whole run.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    /// The rank this trace belongs to.
    pub rank: usize,
    /// The rank's virtual clock when the run finished (its makespan).
    pub clock_ns: u64,
    /// Every closed span, in open order.
    pub spans: Vec<SpanRecord>,
    /// Every instantaneous event, in record order.
    pub events: Vec<EventRecord>,
}

impl RankTrace {
    /// Depth-0 span totals by name, first-appearance order.
    pub fn phase_totals(&self) -> Vec<(String, u64)> {
        let mut totals: Vec<(String, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.depth == 0) {
            let d = s.duration_ns();
            match totals.iter_mut().find(|(n, _)| n == s.name.as_ref()) {
                Some((_, t)) => *t += d,
                None => totals.push((s.name.to_string(), d)),
            }
        }
        totals
    }
}

/// All ranks' traces, aggregated by the runner.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// One trace per rank, indexed by rank id.
    pub ranks: Vec<RankTrace>,
}

/// Cross-rank statistics for one top-level phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase (top-level span) name.
    pub name: String,
    /// Fastest rank's time in this phase.
    pub min_ns: u64,
    /// Median across ranks.
    pub median_ns: u64,
    /// 95th percentile across ranks.
    pub p95_ns: u64,
    /// Slowest rank's time in this phase.
    pub max_ns: u64,
    /// Rank that spent the longest in this phase.
    pub max_rank: usize,
    /// Sum over all ranks.
    pub total_ns: u64,
}

/// Compact run-level phase summary derived from a [`RunTrace`].
#[derive(Debug, Clone, Default)]
pub struct PhaseSummary {
    /// Max rank clock at completion.
    pub makespan_ns: u64,
    /// Rank holding the makespan: the critical path ends on it.
    pub critical_rank: usize,
    /// Per-phase cross-rank statistics, first-appearance order.
    pub phases: Vec<PhaseStat>,
    /// Per-rank sum of top-level span durations (should equal the
    /// rank's clock when the whole run body is covered by spans).
    pub per_rank_total_ns: Vec<u64>,
    /// Per-rank virtual clock at completion.
    pub rank_clock_ns: Vec<u64>,
}

impl RunTrace {
    /// Drain every rank's sink into a plain-value trace. Returns an
    /// empty trace when the world recorded nothing
    /// ([`TraceConfig::Off`]).
    pub(crate) fn collect(world: &World) -> Self {
        let Some(sinks) = world.traces.as_ref() else {
            return RunTrace::default();
        };
        let ranks = sinks
            .iter()
            .enumerate()
            .map(|(rank, sink)| {
                let (spans, events) = sink.drain();
                RankTrace {
                    rank,
                    clock_ns: world.locals[rank].now_ns(),
                    spans,
                    events,
                }
            })
            .collect();
        RunTrace { ranks }
    }

    /// Whether any rank recorded anything (false under [`TraceConfig::Off`]).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Cross-rank phase percentiles (nearest-rank) over depth-0 spans.
    pub fn phase_summary(&self) -> PhaseSummary {
        let mut summary = PhaseSummary::default();
        if self.ranks.is_empty() {
            return summary;
        }
        // Phase names in first appearance order across ranks.
        let mut names: Vec<String> = Vec::new();
        let mut per_rank: Vec<Vec<(String, u64)>> = Vec::with_capacity(self.ranks.len());
        for rt in &self.ranks {
            let totals = rt.phase_totals();
            for (n, _) in &totals {
                if !names.iter().any(|m| m == n) {
                    names.push(n.clone());
                }
            }
            per_rank.push(totals);
        }
        for name in &names {
            // One sample per rank; ranks that never entered the phase
            // contribute zero (they genuinely spent no time in it).
            let samples: Vec<(u64, usize)> = per_rank
                .iter()
                .enumerate()
                .map(|(rank, totals)| {
                    let v = totals
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0, |(_, t)| *t);
                    (v, rank)
                })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let nth = |q_num: usize, q_den: usize| {
                // Nearest-rank percentile on the sorted samples.
                let n = sorted.len();
                let ix = (q_num * n).div_ceil(q_den).max(1) - 1;
                sorted[ix.min(n - 1)].0
            };
            let (max_ns, max_rank) = *sorted.last().expect("at least one rank");
            summary.phases.push(PhaseStat {
                name: name.clone(),
                min_ns: sorted[0].0,
                median_ns: nth(1, 2),
                p95_ns: nth(95, 100),
                max_ns,
                max_rank,
                total_ns: samples.iter().map(|(v, _)| v).sum(),
            });
        }
        summary.per_rank_total_ns = per_rank
            .iter()
            .map(|totals| totals.iter().map(|(_, t)| t).sum())
            .collect();
        summary.rank_clock_ns = self.ranks.iter().map(|r| r.clock_ns).collect();
        let (critical_rank, makespan_ns) = self
            .ranks
            .iter()
            .map(|r| (r.rank, r.clock_ns))
            .max_by_key(|&(r, c)| (c, usize::MAX - r))
            .expect("at least one rank");
        summary.makespan_ns = makespan_ns;
        summary.critical_rank = critical_rank;
        summary
    }

    /// Export as Chrome trace-event JSON (object form), loadable in
    /// Perfetto and `chrome://tracing`. One `tid` per rank; `ts`/`dur`
    /// are virtual microseconds with nanosecond precision.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: &str, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(s);
        };
        for rt in &self.ranks {
            emit(
                &format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"rank {}\"}}}}",
                    rt.rank, rt.rank
                ),
                &mut out,
            );
        }
        for rt in &self.ranks {
            for s in &rt.spans {
                emit(
                    &format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                         \"ts\":{},\"dur\":{},\"args\":{{\"depth\":{},\"bytes\":{}}}}}",
                        rt.rank,
                        json_escape(&s.name),
                        s.cat,
                        micros(s.start_ns),
                        micros(s.duration_ns()),
                        s.depth,
                        s.bytes
                    ),
                    &mut out,
                );
            }
            for e in &rt.events {
                let mut args = format!("\"bytes\":{},\"info\":{}", e.bytes, e.info);
                if let Some(link) = e.link {
                    let _ = write!(args, ",\"link\":\"{}\"", link_label(link));
                }
                emit(
                    &format!(
                        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"event\",\
                         \"ts\":{},\"s\":\"t\",\"args\":{{{}}}}}",
                        rt.rank,
                        json_escape(e.name),
                        micros(e.at_ns),
                        args
                    ),
                    &mut out,
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Export the phase summary as compact JSON for `results/`.
    pub fn to_summary_json(&self) -> String {
        let s = self.phase_summary();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = write!(
            out,
            "  \"makespan_ns\": {},\n  \"critical_rank\": {},\n",
            s.makespan_ns, s.critical_rank
        );
        out.push_str("  \"phases\": [\n");
        for (i, p) in s.phases.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}, \
                 \"max_ns\": {}, \"max_rank\": {}, \"total_ns\": {}}}{}",
                json_escape(&p.name),
                p.min_ns,
                p.median_ns,
                p.p95_ns,
                p.max_ns,
                p.max_rank,
                p.total_ns,
                if i + 1 == s.phases.len() { "" } else { "," }
            );
        }
        out.push_str("  ],\n  \"per_rank_total_ns\": [");
        for (i, t) in s.per_rank_total_ns.iter().enumerate() {
            let _ = write!(out, "{}{}", if i == 0 { "" } else { ", " }, t);
        }
        out.push_str("],\n  \"rank_clock_ns\": [");
        for (i, t) in s.rank_clock_ns.iter().enumerate() {
            let _ = write!(out, "{}{}", if i == 0 { "" } else { ", " }, t);
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Nanoseconds → microseconds with 3 decimals, as a JSON number.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn link_label(link: LinkClass) -> &'static str {
    match link {
        LinkClass::SelfLoop => "self",
        LinkClass::IntraNuma => "intra_numa",
        LinkClass::IntraNode => "intra_node",
        LinkClass::InterNode => "inter_node",
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ----------------------------------------------------------------------
// Minimal JSON reader + Chrome-trace validator (used by the checker bin
// and the golden tests; no external JSON crate is available).
// ----------------------------------------------------------------------

/// A parsed JSON value. Deliberately minimal: enough to validate our
/// own exports, not a general-purpose JSON library.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (all numbers parse as `f64`).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<JsonValue>),
    /// JSON object, as ordered key–value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup; `None` for non-objects or absent keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy a full UTF-8 run up to the next quote/backslash.
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| "invalid UTF-8".to_string())?,
                );
            }
        }
    }
}

/// What [`validate_chrome_trace`] verified about a trace file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeTraceCheck {
    /// Distinct rank tracks seen.
    pub ranks: usize,
    /// `"X"` (complete) events checked.
    pub complete_events: usize,
    /// `"i"` (instant) events seen.
    pub instant_events: usize,
}

/// Validate a Chrome trace-event JSON export: parses the document,
/// requires a `traceEvents` array, and checks that within each
/// `(tid, depth)` track the complete spans are monotone and
/// non-overlapping (virtual time never runs backwards on a rank).
pub fn validate_chrome_trace(input: &str) -> Result<ChromeTraceCheck, String> {
    let doc = parse_json(input)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut check = ChromeTraceCheck::default();
    let mut tids: Vec<u64> = Vec::new();
    // (tid, depth) -> (start_ns, end_ns) list.
    type Track = ((u64, u64), Vec<(u64, u64)>);
    let mut tracks: Vec<Track> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        match ph {
            "X" => {
                check.complete_events += 1;
                let ts = ev
                    .get("ts")
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| format!("event {i}: X without ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
                ev.get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("event {i}: X without name"))?;
                let depth = ev
                    .get("args")
                    .and_then(|a| a.get("depth"))
                    .and_then(JsonValue::as_num)
                    .unwrap_or(0.0) as u64;
                let start = (ts * 1000.0).round() as u64;
                let end = start + (dur * 1000.0).round() as u64;
                let key = (tid, depth);
                match tracks.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v.push((start, end)),
                    None => tracks.push((key, vec![(start, end)])),
                }
            }
            "i" => check.instant_events += 1,
            "M" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for ((tid, depth), mut spans) in tracks {
        spans.sort_unstable();
        for w in spans.windows(2) {
            let (s0, e0) = w[0];
            let (s1, _) = w[1];
            if s1 < e0 {
                return Err(format!(
                    "rank {tid} depth {depth}: span starting at {s1}ns overlaps \
                     previous span [{s0}, {e0}]ns"
                ));
            }
        }
    }
    check.ranks = tids.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RunTrace {
        let mk = |rank: usize, phases: &[(&'static str, u64, u64)]| RankTrace {
            rank,
            clock_ns: phases.iter().map(|&(_, _, e)| e).max().unwrap_or(0),
            spans: phases
                .iter()
                .map(|&(n, s, e)| SpanRecord {
                    name: Cow::Borrowed(n),
                    cat: "phase",
                    start_ns: s,
                    end_ns: e,
                    depth: 0,
                    bytes: 0,
                })
                .collect(),
            events: vec![EventRecord {
                name: "onesided",
                at_ns: 5,
                link: Some(LinkClass::InterNode),
                bytes: 64,
                info: 1,
            }],
        };
        RunTrace {
            ranks: vec![
                mk(0, &[("sort", 0, 100), ("exchange", 100, 250)]),
                mk(1, &[("sort", 0, 140), ("exchange", 140, 300)]),
            ],
        }
    }

    #[test]
    fn sink_nests_and_drains() {
        let sink = TraceSink::default();
        let a = sink.open(Cow::Borrowed("outer"), "phase", 0);
        let b = sink.open(Cow::Borrowed("inner"), "phase", 10);
        sink.close(b, 20);
        sink.complete(Cow::Borrowed("coll"), "collective", 20, 30, 8);
        sink.close(a, 40);
        let (spans, _) = sink.drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].depth, 1);
        assert_eq!(spans[0].end_ns, 40);
        assert_eq!(spans[2].bytes, 8);
    }

    #[test]
    fn phase_totals_groups_by_name_in_order() {
        let sink = TraceSink::default();
        sink.complete(Cow::Borrowed("a"), "phase", 0, 10, 0);
        sink.complete(Cow::Borrowed("b"), "phase", 10, 30, 0);
        sink.complete(Cow::Borrowed("a"), "phase", 30, 35, 0);
        let (spans, events) = sink.drain();
        let rank = RankTrace {
            rank: 0,
            clock_ns: 35,
            spans,
            events,
        };
        assert_eq!(
            rank.phase_totals(),
            vec![("a".to_string(), 15), ("b".to_string(), 20)]
        );
    }

    #[test]
    fn chrome_export_validates() {
        let json = sample_trace().to_chrome_json();
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.ranks, 2);
        assert_eq!(check.complete_events, 4);
        assert_eq!(check.instant_events, 2);
    }

    #[test]
    fn validator_rejects_overlap() {
        let mut t = sample_trace();
        t.ranks[0].spans[1].start_ns = 50; // overlaps [0, 100] at depth 0
        let err = validate_chrome_trace(&t.to_chrome_json()).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("{not json").is_err());
        assert!(validate_chrome_trace("{\"x\": 1}").is_err());
    }

    #[test]
    fn phase_summary_percentiles() {
        let s = sample_trace().phase_summary();
        assert_eq!(s.makespan_ns, 300);
        assert_eq!(s.critical_rank, 1);
        assert_eq!(s.phases.len(), 2);
        let sort = &s.phases[0];
        assert_eq!(sort.name, "sort");
        assert_eq!(sort.min_ns, 100);
        assert_eq!(sort.max_ns, 140);
        assert_eq!(sort.max_rank, 1);
        assert_eq!(sort.total_ns, 240);
        assert_eq!(s.per_rank_total_ns, vec![250, 300]);
    }

    #[test]
    fn summary_json_parses() {
        let json = sample_trace().to_summary_json();
        let doc = parse_json(&json).expect("valid summary json");
        assert_eq!(
            doc.get("makespan_ns").and_then(JsonValue::as_num),
            Some(300.0)
        );
        assert_eq!(
            doc.get("phases")
                .and_then(JsonValue::as_arr)
                .map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn json_parser_roundtrips_escapes() {
        let v = parse_json(r#"{"a\"b": [1, -2.5e1, true, null, "xA"]}"#).unwrap();
        let arr = v.get("a\"b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-25.0));
        assert_eq!(arr[4].as_str(), Some("xA"));
    }
}
