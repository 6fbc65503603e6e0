//! A collective costs a rank **one** park: the wait for the output.
//! Leaving it costs none — generation `g + 1` meets in the other cell,
//! which is always ready — and only the exit barrier of a borrowed
//! exchange adds a second. Counted, not timed: `RunRecord::parks` is
//! every park that gave its worker slot up.

use dhs_runtime::{launch, AllToAllAlgo, ClusterConfig, Comm, RunnerEngine};

const P: usize = 64;
const K: u64 = 50;

type Op = fn(&Comm);

/// Parks per rank of `K` back-to-back calls of `op` on `p` ranks
/// sharing `workers` slots (0 = the default count).
fn parks_per_rank(p: usize, workers: usize, op: Op) -> f64 {
    let cfg = ClusterConfig::small_cluster(p).with_engine(RunnerEngine { workers });
    let out = launch(&cfg, move |comm| (0..K).for_each(|_| op(comm)))
        .expect("an inert fault plan is valid");
    assert_eq!(out.failures().count(), 0, "a fault-free run completes");
    assert_eq!(out.park_backstops, 0, "a wake was lost");
    // Collectives wake no task that has not started, so every counted
    // park was ended by exactly one counted wake.
    assert_eq!(out.parks, out.wakes);
    out.parks as f64 / p as f64
}

#[test]
fn a_collective_parks_each_rank_once() {
    let ops: [(&str, Op); 2] = [
        ("barrier", |c| c.barrier()),
        ("allreduce_sum_shared", |c| {
            drop(c.allreduce_sum_shared(&[c.rank() as u64, 1]))
        }),
    ];
    for (name, op) in ops {
        // One worker runs one task at a time, so the count is exact:
        // the last arriver of a round never parks, nobody parks twice.
        let serial = parks_per_rank(P, 1, op);
        assert!(
            serial <= (K + 2) as f64,
            "{name}, 1 worker: {serial} parks per rank for {K} collectives"
        );
        let pooled = parks_per_rank(P, 4, op);
        assert!(
            pooled <= 1.25 * K as f64 + 2.0,
            "{name}, 4 workers: {pooled} parks per rank for {K} collectives"
        );
        // The default count at p = 8 is above p: every rank holds a
        // slot for its whole life and the host scheduler arbitrates.
        let free = parks_per_rank(8, 0, op);
        assert!(
            free <= 1.25 * K as f64 + 2.0,
            "{name}, p = 8 under the default workers: {free} parks per rank for {K} collectives"
        );
    }
}

#[test]
fn the_exit_barrier_is_the_only_second_park() {
    let exchange: Op = |c| {
        let data = vec![c.rank() as u64; 2 * c.size()];
        let send: Vec<&[u64]> = data.chunks(2).collect();
        let got = c.exchange(&send[..], AllToAllAlgo::OneFactor);
        assert_eq!(got.total_len(), 2 * c.size());
    };
    let serial = parks_per_rank(P, 1, exchange);
    assert!(
        serial <= (2 * K + 2) as f64,
        "{serial} parks per rank for {K} exit-barrier exchanges"
    );
    // The barrier is real: everybody but the last departer waits in it.
    assert!(serial > 1.5 * K as f64, "{serial} parks per rank");
}
