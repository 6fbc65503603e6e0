//! A batched compute charge must be **observably identical** to the
//! per-item sequence it replaces: same clock, same `compute_ns`, and —
//! on a rank with a crash deadline — the same `RankError::Crashed`,
//! the same clock at death and the same `"crash"` trace event, wherever
//! the deadline lands relative to the batch. Per-item pricing (`ceil`,
//! then the straggler factor's `ceil`) must survive the batching too.
//!
//! Two ways of charging the same items are held against one model of
//! the per-item semantics written out in plain arithmetic: `charge` one
//! by one, and `charge_all` (one `Charges` batch, one `Comm::post`).

use dhs_runtime::fault::RankAbort;
use dhs_runtime::{
    launch, ClusterConfig, Comm, CostModel, EventRecord, FaultPlan, RankError, TraceConfig, Work,
};
use proptest::prelude::*;

/// Clock before the batch starts (a prelude charge), so a deadline can
/// land *before* the first item without killing the rank earlier.
const PRELUDE_NS: u64 = 100;

fn items_for(seed: u64, len: usize) -> Vec<Work> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..len)
        .map(|_| match next() % 6 {
            0 => Work::BinarySearches {
                searches: 2 * (next() % 8),
                n: next() % 5000,
            },
            1 => Work::Compares(next() % 300),
            2 => Work::MoveBytes(next() % 4000),
            3 => Work::RandomAccesses(next() % 50),
            4 => Work::SortElems {
                n: next() % 64,
                elem_bytes: 8,
            },
            // Zero-cost items keep the running clock still between two
            // crash checks.
            _ => Work::Ns(next() % 3),
        })
        .collect()
}

/// What one item costs a rank with `factor`, as `Comm::charge` always
/// priced it.
fn priced(cost: &CostModel, work: Work, factor: f64) -> u64 {
    let ns = cost.work_ns(work);
    if factor != 1.0 {
        (ns as f64 * factor).ceil() as u64
    } else {
        ns
    }
}

/// What a rank observes after charging: its clock, its `compute_ns`,
/// how it died (if it did) and its trace events.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    now_ns: u64,
    compute_ns: u64,
    died: Option<RankError>,
    events: Vec<EventRecord>,
}

/// The per-item semantics in plain arithmetic over the priced charges
/// (prelude first): a crash check before every charge, one more at the
/// next runtime interaction (a barrier).
fn model(prices: &[u64], deadline: Option<u64>) -> Observed {
    let mut now = 0u64;
    let mut died = None;
    for &ns in prices {
        if deadline.is_some_and(|d| now >= d) {
            died = deadline;
            break;
        }
        now += ns;
    }
    if died.is_none() && deadline.is_some_and(|d| now >= d) {
        died = deadline; // at the barrier
    }
    Observed {
        now_ns: now,
        compute_ns: now,
        died: died.map(|at_ns| RankError::Crashed { rank: 0, at_ns }),
        events: died
            .map(|at_ns| EventRecord {
                name: "crash",
                at_ns: now,
                link: None,
                bytes: 0,
                info: at_ns,
            })
            .into_iter()
            .collect(),
    }
}

/// Run `charge_items` on a one-rank world under `plan`, followed by a
/// barrier, catching the rank's own crash so its counters stay
/// readable.
fn observe(plan: &FaultPlan, charge_items: impl Fn(&Comm) + Send + Sync) -> Observed {
    let cfg = ClusterConfig::small_cluster(1)
        .with_fault(plan.clone())
        .with_trace(TraceConfig::On);
    let traced = launch(&cfg, |comm| {
        let body = std::panic::AssertUnwindSafe(|| {
            comm.charge(Work::Ns(PRELUDE_NS));
            charge_items(comm);
            comm.barrier();
        });
        let died = std::panic::catch_unwind(body).err().map(|payload| {
            payload
                .downcast::<RankAbort>()
                .expect("only the crash may unwind")
                .0
        });
        (comm.now_ns(), comm.report().counters.compute_ns, died)
    })
    .expect("a valid fault plan");
    let ((now_ns, compute_ns, died), _) = traced.ranks[0]
        .clone()
        .expect("the rank catches its own crash");
    Observed {
        now_ns,
        compute_ns,
        died,
        events: traced.trace.ranks[0].events.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn batched_charge_is_the_per_item_sequence(
        seed in 0u64..1_000_000,
        len in 0usize..24,
        factor in prop_oneof![Just(1.0f64), Just(1.5), Just(2.37)],
        // The deadline sits on the clock just before item `boundary`
        // (`len` = after the last one), nudged by `jitter - 1`: before
        // the batch, on and around every item boundary, after it.
        crash in any::<bool>(),
        boundary in 0usize..26,
        jitter in 0u64..3,
    ) {
        let items = items_for(seed, len);
        let cost = CostModel::supermuc_phase2();
        let prices: Vec<u64> = std::iter::once(Work::Ns(PRELUDE_NS))
            .chain(items.iter().copied())
            .map(|w| priced(&cost, w, factor))
            .collect();
        let before: u64 = prices.iter().take(1 + boundary).sum();
        let deadline = crash.then_some((before + jitter).saturating_sub(1).max(1));

        let mut plan = FaultPlan::default();
        if factor != 1.0 {
            plan = plan.with_straggler(0, factor);
        }
        if let Some(at_ns) = deadline {
            plan = plan.with_crash(0, at_ns);
        }

        let expect = model(&prices, deadline);
        let one_by_one = observe(&plan, |comm| items.iter().for_each(|&w| comm.charge(w)));
        prop_assert_eq!(&one_by_one, &expect, "charge, item by item");
        let batched = observe(&plan, |comm| comm.charge_all(items.iter().copied()));
        prop_assert_eq!(&batched, &expect, "charge_all");
    }
}
