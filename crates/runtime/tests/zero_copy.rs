//! The two payload forms of `Comm::exchange`: `exchange(Vec<Vec<T>>,
//! algo)` is an adapter over `exchange(&[&[T]], algo)`, so it must
//! deliver exactly the same bytes and — because the α–β cost model
//! reads only message *lengths*, never payloads — the same per-rank
//! virtual clocks to the nanosecond, under every schedule and with
//! fault injection on or off.

use dhs_runtime::{run, AllToAllAlgo, ClusterConfig, FaultPlan};
use proptest::prelude::*;

/// Deterministic bucket of keys rank `src` sends to rank `dst`.
fn bucket(seed: u64, src: usize, dst: usize, max_len: usize) -> Vec<u64> {
    let mut x = seed ^ ((src as u64) << 32) ^ (dst as u64) ^ 0x9E37_79B9_7F4A_7C15;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let len = (step() % (max_len as u64 + 1)) as usize;
    (0..len).map(|_| step()).collect()
}

fn cluster(p: usize, seed: u64, faults: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::supermuc_phase2(p);
    if faults {
        let slow = (seed % p as u64) as usize;
        cfg.fault = FaultPlan::default().with_straggler(slow, 1.0 + (seed % 7) as f64 * 0.5);
    }
    cfg
}

/// One rank's view of a finished exchange: the received keys per
/// source and the rank's virtual clock afterwards.
type RankOutcome = (Vec<Vec<u64>>, u64);

fn run_owned(
    p: usize,
    seed: u64,
    max_len: usize,
    algo: AllToAllAlgo,
    faults: bool,
) -> Vec<RankOutcome> {
    run(&cluster(p, seed, faults), move |comm| {
        let send: Vec<Vec<u64>> = (0..p)
            .map(|d| bucket(seed, comm.rank(), d, max_len))
            .collect();
        let received = comm.exchange(send, algo).into_vecs();
        (received, comm.now_ns())
    })
    .into_iter()
    .map(|(v, _)| v)
    .collect()
}

fn run_zero_copy(
    p: usize,
    seed: u64,
    max_len: usize,
    algo: AllToAllAlgo,
    faults: bool,
) -> Vec<RankOutcome> {
    run(&cluster(p, seed, faults), move |comm| {
        let send: Vec<Vec<u64>> = (0..p)
            .map(|d| bucket(seed, comm.rank(), d, max_len))
            .collect();
        let views: Vec<&[u64]> = send.iter().map(|b| b.as_slice()).collect();
        let received = comm.exchange(&views[..], algo);
        let per_src: Vec<Vec<u64>> = (0..p).map(|s| received.run(s).to_vec()).collect();
        assert_eq!(received.num_runs(), p);
        assert_eq!(
            received.total_len(),
            per_src.iter().map(Vec::len).sum::<usize>(),
            "counts must cover the contiguous buffer exactly"
        );
        (per_src, comm.now_ns())
    })
    .into_iter()
    .map(|(v, _)| v)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn owned_payload_matches_borrowed_data_and_virtual_time(
        p in 2usize..9,
        max_len in 0usize..24,
        seed in 0u64..u64::MAX,
        algo_idx in 0usize..3,
        faults: bool,
    ) {
        let algo = [
            AllToAllAlgo::OneFactor,
            AllToAllAlgo::Bruck,
            AllToAllAlgo::StagedKWay { k: 3 },
        ][algo_idx];
        let owned = run_owned(p, seed, max_len, algo, faults);
        let zero_copy = run_zero_copy(p, seed, max_len, algo, faults);
        for (rank, (l, z)) in owned.iter().zip(&zero_copy).enumerate() {
            prop_assert_eq!(&l.0, &z.0, "received data diverged on rank {}", rank);
            prop_assert_eq!(l.1, z.1, "virtual clock diverged on rank {}", rank);
        }
    }
}

/// A non-`Copy` element through the owned payload: every element is
/// delivered exactly once, in source order.
#[test]
fn owned_payload_delivers_strings_once_in_source_order() {
    let p = 5;
    let sent = |src: usize, dst: usize| -> Vec<String> {
        (0..(src + 2 * dst) % 4)
            .map(|i| format!("{src}>{dst}#{i}"))
            .collect()
    };
    let out = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let send: Vec<Vec<String>> = (0..p).map(|d| sent(comm.rank(), d)).collect();
        comm.exchange(send, AllToAllAlgo::OneFactor).into_vecs()
    });
    for (dst, (received, _)) in out.iter().enumerate() {
        let expect: Vec<Vec<String>> = (0..p).map(|src| sent(src, dst)).collect();
        assert_eq!(received, &expect, "rank {dst}");
    }
}
