//! The personalized all-to-all against a dense reference that reads
//! the whole `P × P` count matrix: what every receiver gets, what
//! every rank's virtual clock reads after each schedule, and the bytes
//! each rank is counted for per link class. The exchange itself only
//! touches the non-empty segments (`dhs_runtime::comm`, "The
//! exchange's host cost"); the dense extract, pricing and accounting
//! live here and nowhere else.
//!
//! Count matrices are random and sparse at `P ∈ 1..=64`, with empty
//! ranks, self-only senders and one-peer senders mixed in, and go
//! through every payload form: a [`CutBlock`] at `w = P` and at a
//! random `w < P` (the group cuts of HykSort),
//! `&[&[T]]` and `Vec<Vec<T>>`.

use dhs_runtime::comm::group_range;
use dhs_runtime::cost::ceil_ns;
use dhs_runtime::{run, AllToAllAlgo, ClusterConfig, CostModel, CutBlock, LinkClass, Topology};
use proptest::prelude::*;

/// SplitMix64 of `x`: the test's one source of randomness.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One random exchange: `p` ranks, the width `w < P` of the group
/// cuts, and the length of every segment (a group cut sends the first
/// `w` of each rank's).
#[derive(Clone, Debug)]
struct Case {
    p: usize,
    w: usize,
    /// `lens[s][g]`: elements in segment `g` of rank `s`, `g < P`.
    lens: Vec<Vec<usize>>,
}

impl Case {
    /// Each rank is, by its draw, empty, self-only, one-peer, or sends
    /// each segment with probability `density / 8`.
    fn new(seed: u64, p: usize, w: usize, density: u64) -> Self {
        let lens = (0..p)
            .map(|s| {
                let draw = |salt: u64| mix(seed ^ mix(((s as u64) << 20) ^ salt));
                let peer = (draw(1) % p as u64) as usize;
                (0..p)
                    .map(|g| {
                        let len = 1 + (draw(100 + g as u64) % 5) as usize;
                        let keep = match draw(0) % 8 {
                            0 => false,
                            1 => g == s,
                            2 => g == peer,
                            _ => draw(200 + g as u64) % 8 < density,
                        };
                        if keep {
                            len
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        Self { p, w, lens }
    }

    /// Where segment `g` of rank `s` goes at width `w`.
    fn dest(&self, w: usize, s: usize, g: usize) -> usize {
        let group = group_range(g, self.p, w);
        group.start + s % group.len()
    }

    /// The element `i` of segment `g` of rank `s`.
    fn elem(s: usize, g: usize, i: usize) -> u64 {
        ((s as u64) << 40) | ((g as u64) << 20) | i as u64
    }

    /// Rank `s`'s block and its cuts at width `w`.
    fn block(&self, s: usize, w: usize) -> (Vec<u64>, Vec<usize>) {
        let mut block = Vec::new();
        let mut cuts = vec![0];
        for g in 0..w {
            block.extend((0..self.lens[s][g]).map(|i| Self::elem(s, g, i)));
            cuts.push(block.len());
        }
        (block, cuts)
    }

    /// The dense count matrix at width `w`: `count[s][d]`.
    fn counts(&self, w: usize) -> Vec<Vec<u64>> {
        let mut count = vec![vec![0u64; self.p]; self.p];
        for s in 0..self.p {
            for g in 0..w {
                count[s][self.dest(w, s, g)] += self.lens[s][g] as u64;
            }
        }
        count
    }

    /// The dense extract: every receiver's runs, one per source.
    fn received(&self, w: usize) -> Vec<Vec<Vec<u64>>> {
        let mut runs = vec![vec![Vec::new(); self.p]; self.p];
        for s in 0..self.p {
            for g in 0..w {
                let run = &mut runs[self.dest(w, s, g)][s];
                run.extend((0..self.lens[s][g]).map(|i| Self::elem(s, g, i)));
            }
        }
        runs
    }
}

/// The payload forms of `Comm::exchange`.
#[derive(Clone, Copy, Debug)]
enum Form {
    /// A block and its `P + 1` cuts.
    Cut,
    /// A block and its `w + 1` group cuts, `w < P`.
    GroupCut,
    /// One borrowed slice per destination.
    Slices,
    /// One owned bucket per destination.
    Buckets,
}

/// The dense reference prices of every rank under one schedule,
/// reading every `(s, d)` pair of the matrix.
struct Dense<'a> {
    cost: &'a CostModel,
    topology: &'a Topology,
    count: &'a [Vec<u64>],
}

impl Dense<'_> {
    fn link(&self, s: usize, d: usize) -> LinkClass {
        self.topology.link(s, d)
    }

    fn one_factor(&self) -> Vec<u64> {
        let p = self.count.len();
        let term = |s: usize, d: usize| {
            self.cost
                .alltoallv_peer_ns(self.link(s, d), self.count[s][d] * 8)
        };
        (0..p)
            .map(|r| {
                let send = (0..p).fold(0.0, |sum, d| sum + term(r, d));
                let recv = (0..p).fold(0.0, |sum, s| sum + term(s, r));
                ceil_ns(send).max(ceil_ns(recv))
            })
            .collect()
    }

    fn bruck(&self) -> Vec<u64> {
        let p = self.count.len();
        let members: Vec<usize> = (0..p).collect();
        let worst = self.topology.worst_link(&members);
        self.count
            .iter()
            .map(|row| {
                let total: u64 = row.iter().sum();
                self.cost.alltoallv_bruck_rank_ns(worst, p, total * 8)
            })
            .collect()
    }

    /// The staged `k`-way recursion over the dense matrix: every
    /// `(holder, dst, bytes)` block, destination-major.
    fn staged(&self, k: usize) -> Vec<u64> {
        let p = self.count.len();
        let mut units: Vec<(usize, usize, u64)> = (0..p)
            .flat_map(|d| (0..p).map(move |s| (s, d)))
            .filter(|&(s, d)| self.count[s][d] > 0)
            .map(|(s, d)| (s, d, self.count[s][d] * 8 + 8))
            .collect();
        let mut ends = vec![0; p];
        self.stage(k, 0, p, 0, &mut units, &mut ends);
        ends
    }

    fn stage(
        &self,
        k: usize,
        lo: usize,
        q: usize,
        start: u64,
        units: &mut [(usize, usize, u64)],
        ends: &mut [u64],
    ) {
        if q <= 1 {
            ends[lo] = start;
            return;
        }
        let kk = k.min(q);
        let subs: Vec<(usize, usize)> = (0..kk).map(|g| (g * q / kk, (g + 1) * q / kk)).collect();
        let block_of = |r: usize| subs.iter().position(|&(a, b)| (a..b).contains(&r)).unwrap();
        let carrier = |m: usize, g: usize| {
            let mine = block_of(m);
            if g == mine {
                m
            } else {
                let (a, b) = subs[g];
                a + (m - subs[mine].0) % (b - a)
            }
        };
        let mut bytes = vec![vec![0u64; kk]; q];
        for u in units.iter_mut() {
            let (m, g) = (u.0 - lo, block_of(u.1 - lo));
            bytes[m][g] += u.2;
            u.0 = lo + carrier(m, g);
        }
        let (mut send, mut recv) = (vec![0.0f64; q], vec![0.0f64; q]);
        for m in 0..q {
            for g in (0..kk).filter(|&g| bytes[m][g] > 0) {
                let to = carrier(m, g);
                let term = self
                    .cost
                    .alltoallv_peer_ns(self.link(lo + m, lo + to), bytes[m][g]);
                send[m] += term;
                recv[to] += term;
            }
        }
        let stage_end = |m: usize| start + ceil_ns(send[m]).max(ceil_ns(recv[m]));
        if kk == q {
            for m in 0..q {
                ends[lo + m] = stage_end(m);
            }
            return;
        }
        let members: Vec<usize> = (lo..lo + q).collect();
        let split = self
            .cost
            .comm_split_ns(self.topology.worst_link(&members), q);
        let next = (0..q).map(stage_end).max().unwrap_or(start) + split;
        let mut rest = units;
        for (a, b) in subs {
            let cut = rest.partition_point(|u| u.1 < lo + b);
            let (inside, tail) = rest.split_at_mut(cut);
            self.stage(k, lo + a, b - a, next, inside, ends);
            rest = tail;
        }
    }
}

/// The schedules every case runs, the priced pick last.
fn schedules(p: usize) -> Vec<AllToAllAlgo> {
    let mut algos = vec![AllToAllAlgo::OneFactor, AllToAllAlgo::Bruck];
    for k in [2, 3, 4, 8, p.max(2), p + 3] {
        algos.push(AllToAllAlgo::StagedKWay { k });
    }
    algos.push(AllToAllAlgo::Priced);
    algos
}

/// What one rank saw of one exchange: its runs, its clock on entry
/// and exit, and the bytes it was counted for per link class.
type Seen = (Vec<Vec<u64>>, u64, u64, [u64; 4]);

/// Run every schedule over `form` in one world; per schedule, every
/// rank's [`Seen`].
fn exchange_all(case: &Case, form: Form) -> Vec<Vec<Seen>> {
    let (p, w) = (
        case.p,
        if matches!(form, Form::GroupCut) {
            case.w
        } else {
            case.p
        },
    );
    let case = case.clone();
    let per_rank = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
        let me = comm.rank();
        let (block, cuts) = case.block(me, w);
        let buckets: Vec<Vec<u64>> = (0..p)
            .map(|g| {
                (0..case.lens[me][g])
                    .map(|i| Case::elem(me, g, i))
                    .collect()
            })
            .collect();
        let mut seen = Vec::new();
        for (i, algo) in schedules(p).into_iter().enumerate() {
            // Ranks enter at ragged clocks.
            comm.charge(dhs_runtime::Work::Ns(mix((me * 31 + i) as u64) % 5_000));
            let enter = comm.now_ns();
            let before = comm.report().counters;
            let got = match form {
                Form::Cut | Form::GroupCut => comm.exchange(
                    CutBlock {
                        block: &block,
                        cuts: &cuts,
                    },
                    algo,
                ),
                Form::Slices => {
                    let slices: Vec<&[u64]> = buckets.iter().map(Vec::as_slice).collect();
                    comm.exchange(&slices[..], algo)
                }
                Form::Buckets => comm.exchange(buckets.clone(), algo),
            };
            let after = comm.report().counters;
            let bytes = [
                after.bytes_self - before.bytes_self,
                after.bytes_intra_numa - before.bytes_intra_numa,
                after.bytes_intra_node - before.bytes_intra_node,
                after.bytes_inter_node - before.bytes_inter_node,
            ];
            assert_eq!(got.num_runs(), p);
            seen.push((got.into_vecs(), enter, comm.now_ns(), bytes));
        }
        seen
    });
    let n = schedules(p).len();
    (0..n)
        .map(|i| per_rank.iter().map(|(seen, _)| seen[i].clone()).collect())
        .collect()
}

fn check(case: &Case, form: Form) {
    let p = case.p;
    let w = if matches!(form, Form::GroupCut) {
        case.w
    } else {
        p
    };
    let cfg = ClusterConfig::supermuc_phase2(p);
    let count = case.counts(w);
    let dense = Dense {
        cost: &cfg.cost,
        topology: &cfg.topology,
        count: &count,
    };
    let received = case.received(w);
    let bytes: Vec<[u64; 4]> = (0..p)
        .map(|s| {
            let mut by_class = [0u64; 4];
            for d in 0..p {
                by_class[dense.link(s, d) as usize] += count[s][d] * 8;
            }
            by_class
        })
        .collect();
    let mut fan_outs = vec![AllToAllAlgo::OneFactor, AllToAllAlgo::Bruck];
    fan_outs.extend(
        std::iter::successors(Some(4.min(p)), |&k| (k < p).then(|| (2 * k).min(p)))
            .map(|k| AllToAllAlgo::StagedKWay { k }),
    );
    let price = |algo: AllToAllAlgo| match algo {
        AllToAllAlgo::OneFactor => dense.one_factor(),
        AllToAllAlgo::Bruck => dense.bruck(),
        AllToAllAlgo::StagedKWay { k } => dense.staged(k),
        AllToAllAlgo::Priced => unreachable!("an arm"),
    };
    let cell = format!("{form:?} p {p} w {w} lens {:?}", case.lens);
    for (algo, seen) in schedules(p).into_iter().zip(exchange_all(case, form)) {
        let enter_max = seen.iter().map(|s| s.1).max().unwrap_or(0);
        let ends: Vec<u64> = seen.iter().map(|s| s.2 - enter_max).collect();
        for (r, s) in seen.iter().enumerate() {
            assert_eq!(s.0, received[r], "{algo:?} runs of rank {r}, {cell}");
            assert_eq!(s.3, bytes[r], "{algo:?} bytes of rank {r}, {cell}");
        }
        match algo {
            // The pick is made from the totals alone; its price is the
            // dense price of one of the arms it weighs.
            AllToAllAlgo::Priced => assert!(
                fan_outs.iter().any(|&arm| price(arm) == ends),
                "priced ends {ends:?} match no arm, {cell}"
            ),
            arm => assert_eq!(ends, price(arm), "{arm:?} ends, {cell}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every payload form, every schedule, against the dense reference.
    #[test]
    fn sparse_exchange_matches_the_dense_reference(
        p in 1usize..65,
        seed in 0u64..u64::MAX,
        density in 0u64..9,
        width in 0usize..1000,
    ) {
        let w = 1 + width % p;
        let case = Case::new(seed, p, w, density);
        for form in [Form::Cut, Form::GroupCut, Form::Slices, Form::Buckets] {
            check(&case, form);
        }
    }
}

/// The shapes the random draw may miss: one rank, all ranks empty, a
/// fully dense matrix, and a ring of one-peer senders.
#[test]
fn edge_shapes_match_the_dense_reference() {
    for (p, density, salt) in [(1, 8, 1), (5, 0, 2), (7, 8, 3), (16, 8, 4), (33, 1, 5)] {
        let mut case = Case::new(salt, p, p.div_ceil(2), density);
        if density == 0 {
            case.lens.iter_mut().flatten().for_each(|len| *len = 0);
        }
        if density == 8 {
            case.lens
                .iter_mut()
                .flatten()
                .for_each(|len| *len = 1 + *len % 3);
        }
        for form in [Form::Cut, Form::GroupCut, Form::Slices, Form::Buckets] {
            check(&case, form);
        }
    }
    let p = 12;
    let ring = Case {
        p,
        w: p,
        lens: (0..p)
            .map(|s| (0..p).map(|d| usize::from(d == (s + 1) % p) * 3).collect())
            .collect(),
    };
    check(&ring, Form::Cut);
}
