//! Trace-layer guarantees: traced runs export valid, deterministic
//! Chrome traces whose phase accounting exactly covers each rank's
//! virtual makespan, and tracing is observationally free — a traced
//! run and an untraced run of the same sort are bit-identical in
//! makespan and counters.

use dhs::prelude::*;
use dhs::runtime::validate_chrome_trace;
use proptest::prelude::*;

fn traced_sort(p: usize, n_per: usize, seed: u64, trace: TraceConfig) -> RunRecord<usize> {
    let cluster = ClusterConfig::supermuc_phase2(p).with_trace(trace);
    let n_total = p * n_per;
    let record = launch(&cluster, move |comm| {
        let mut local = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::Balanced,
            n_total,
            p,
            comm.rank(),
            seed,
        );
        histogram_sort(comm, &mut local, &SortConfig::default());
        local.len()
    })
    .expect("an inert fault plan is valid");
    assert_eq!(record.failures().count(), 0, "a fault-free sort completes");
    record
}

#[test]
fn traced_sort_exports_valid_chrome_trace() {
    let traced = traced_sort(4, 2000, 7, TraceConfig::On);
    assert!(!traced.trace.is_empty(), "tracing on must record spans");

    let json = traced.trace.to_chrome_json();
    let check = validate_chrome_trace(&json).expect("exported trace must validate");
    assert_eq!(check.ranks, 4);
    assert!(check.complete_events > 0, "spans must be exported");

    // The sort's five phases appear, in pipeline order.
    let summary = traced.trace.phase_summary();
    let names: Vec<&str> = summary.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        ["local_sort", "prepare", "histogram", "exchange", "merge"],
        "depth-0 phases in first-appearance order"
    );
}

#[test]
fn traced_exports_are_deterministic() {
    let a = traced_sort(4, 1500, 11, TraceConfig::On);
    let b = traced_sort(4, 1500, 11, TraceConfig::On);
    assert_eq!(
        a.trace.to_chrome_json(),
        b.trace.to_chrome_json(),
        "identical runs must export byte-identical Chrome traces"
    );
    assert_eq!(a.trace.to_summary_json(), b.trace.to_summary_json());
}

#[test]
fn trace_off_records_nothing() {
    let traced = traced_sort(4, 1000, 3, TraceConfig::Off);
    assert!(
        traced.trace.is_empty(),
        "TraceConfig::Off must record nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every rank's depth-0 phase durations sum to exactly its virtual
    /// makespan: no virtual time escapes phase attribution.
    #[test]
    fn phase_totals_cover_rank_makespan(
        p in 2usize..9,
        n_per in 1usize..800,
        seed in 0u64..1000,
    ) {
        let traced = traced_sort(p, n_per, seed, TraceConfig::On);
        let summary = traced.trace.phase_summary();
        prop_assert_eq!(summary.per_rank_total_ns.len(), p);
        for (rank, (total, clock)) in summary
            .per_rank_total_ns
            .iter()
            .zip(&summary.rank_clock_ns)
            .enumerate()
        {
            prop_assert_eq!(total, clock, "rank {} phase totals vs clock", rank);
        }
        // The trace's phases cover each rank's reported clock.
        for ((_, _, report), rank_trace) in traced.completed().zip(&traced.trace.ranks) {
            let from_trace: u64 = rank_trace.phase_totals().iter().map(|(_, ns)| ns).sum();
            prop_assert_eq!(from_trace, report.clock_ns);
        }
    }

    /// Tracing must not perturb the simulation: makespans and counters
    /// of a traced run equal those of an untraced run.
    #[test]
    fn tracing_is_observationally_free(
        p in 2usize..9,
        n_per in 1usize..800,
        seed in 0u64..1000,
    ) {
        let on = traced_sort(p, n_per, seed, TraceConfig::On);
        let off = traced_sort(p, n_per, seed, TraceConfig::Off);
        for ((_, n_on, r_on), (_, n_off, r_off)) in on.completed().zip(off.completed()) {
            prop_assert_eq!(n_on, n_off);
            prop_assert_eq!(r_on.clock_ns, r_off.clock_ns);
            prop_assert_eq!(r_on.counters, r_off.counters);
        }
    }
}
