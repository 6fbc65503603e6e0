//! Property tests of the simulated runtime's collectives against
//! sequential reference semantics, over random rank counts, payloads
//! and interleavings.

use dhs::runtime::{run, AllToAllAlgo, ClusterConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn allreduce_matches_reference(
        p in 1usize..10,
        width in 0usize..20,
        seed in 0u64..100_000,
    ) {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let xs: Vec<u64> = (0..width)
                .map(|i| seed.wrapping_mul(comm.rank() as u64 + 1).wrapping_add(i as u64))
                .collect();
            (xs.clone(), comm.allreduce_sum(xs))
        });
        let mut expect = vec![0u64; width];
        for ((xs, _), _) in &out {
            for (e, x) in expect.iter_mut().zip(xs) {
                *e = e.wrapping_add(*x);
            }
        }
        for ((_, got), _) in &out {
            prop_assert_eq!(got, &expect);
        }
    }

    #[test]
    fn exscan_matches_reference(
        p in 1usize..10,
        width in 0usize..12,
        seed in 0u64..100_000,
    ) {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let xs: Vec<u64> =
                (0..width).map(|i| (comm.rank() as u64 + 2) * (i as u64 + 1) + seed % 7).collect();
            let scan = comm.exscan_sum_vec_shared(&xs).to_vec();
            (xs, scan)
        });
        let mut acc = vec![0u64; width];
        for ((xs, got), _) in &out {
            prop_assert_eq!(got, &acc);
            for (a, x) in acc.iter_mut().zip(xs) {
                *a += *x;
            }
        }
    }

    #[test]
    fn exchange_is_a_transpose(
        p in 1usize..8,
        algo_ix in 0usize..3,
        seed in 0u64..100_000,
    ) {
        let algo = [AllToAllAlgo::OneFactor, AllToAllAlgo::Bruck,
                    AllToAllAlgo::StagedKWay { k: 2 }][algo_ix];
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let r = comm.rank();
            // Variable-size buckets keyed by (src, dst).
            let send: Vec<Vec<u64>> = (0..p)
                .map(|d| vec![(r * p + d) as u64; (r + d + seed as usize) % 4])
                .collect();
            comm.exchange(send, algo).into_vecs()
        });
        for (dst, (recv, _)) in out.iter().enumerate() {
            for (src, bucket) in recv.iter().enumerate() {
                prop_assert_eq!(bucket.len(), (src + dst + seed as usize) % 4);
                prop_assert!(bucket.iter().all(|&x| x == (src * p + dst) as u64));
            }
        }
    }

    #[test]
    fn broadcast_and_gather_roundtrip(
        p in 1usize..10,
        root in 0usize..10,
        value in any::<u64>(),
    ) {
        let root = root % p;
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mine = if comm.rank() == root { value } else { 0 };
            let b = comm.broadcast(root, mine);
            let g = comm.allgather(b);
            (b, g)
        });
        for ((b, g), _) in out {
            prop_assert_eq!(b, value);
            prop_assert_eq!(g, vec![value; p]);
        }
    }

    #[test]
    fn split_partitions_consistently(
        p in 2usize..12,
        colors in 1usize..4,
    ) {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let color = (comm.rank() % colors) as u64;
            let sub = comm.split(color, comm.rank() as u64);
            let members: Vec<usize> = sub.allgather(comm.rank());
            (color, sub.rank(), members)
        });
        for (rank, ((color, sub_rank, members), _)) in out.iter().enumerate() {
            let expect: Vec<usize> =
                (0..p).filter(|r| (r % colors) as u64 == *color).collect();
            prop_assert_eq!(members, &expect);
            prop_assert_eq!(members[*sub_rank], rank);
        }
    }
}
