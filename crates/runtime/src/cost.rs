//! The α–β communication cost model and compute work charging.
//!
//! Virtual time is kept in integer nanoseconds. A one-sided transfer
//! between two ranks costs `α(link) + bytes · β(link)`; collectives use the
//! standard recursive-doubling / binomial-tree formulas over `⌈log₂ P⌉`
//! rounds at the worst link class present in the communicator, except
//! two. The allreduce is priced as the cheaper of recursive doubling and
//! reduce-scatter + allgather ([`AllreduceArm`]), the long-vector switch
//! of an MPI library (Thakur, Rabenseifner & Gropp 2005); the exclusive
//! scan keeps recursive doubling. The personalized all-to-all exchanges
//! are charged per peer under the schedule the priced pick resolves
//! (the 1-factor pairwise schedule is Sanders & Träff \[34\] in the
//! paper).
//!
//! Compute work is charged explicitly by the algorithms through
//! [`Work`] values so that simulated times are deterministic and
//! independent of host oversubscription.

use crate::comm::AllToAllAlgo;
use crate::topology::{worst_link_among, LinkClass, Placement};

/// Latency/bandwidth parameters for one link class.
#[derive(Debug, Clone, Copy)]
pub struct LinkCost {
    /// Per-message latency in nanoseconds.
    pub alpha_ns: f64,
    /// Per-byte transfer cost in nanoseconds.
    pub beta_ns_per_byte: f64,
}

/// Full machine cost model: one [`LinkCost`] per link class plus compute
/// constants calibrated to the Table I Haswell node.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Same-rank copies (memcpy within the local partition).
    pub self_loop: LinkCost,
    /// Shared-memory copy within one NUMA domain.
    pub intra_numa: LinkCost,
    /// Shared-memory copy crossing NUMA domains of one node.
    pub intra_node: LinkCost,
    /// Network transfer between nodes.
    pub inter_node: LinkCost,
    /// When `true`, collective payload between co-located ranks is
    /// charged at shared-memory rates (the DASH/MPI-3 shared window fast
    /// path of Section VI-A1); when `false`, every peer pays network
    /// rates, mimicking an MPI library without shared-memory windows
    /// (the IBM POE case the paper had to exclude).
    pub intranode_fastpath: bool,
    /// Cost of one key comparison (branchy, cached).
    pub compare_ns: f64,
    /// Cost of moving one byte within the local memory hierarchy
    /// (sequential streams).
    pub move_byte_ns: f64,
    /// Cost of one dependent random access (binary-search probes, heap
    /// pokes): dominated by cache misses.
    pub random_access_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::supermuc_phase2()
    }
}

impl CostModel {
    /// Constants approximating the Table I machine: FDR14 InfiniBand
    /// (~1.5 µs MPI latency, ~6 GB/s effective per-rank bandwidth), QPI
    /// cross-socket copies (~10 GB/s) and intra-NUMA copies (~20 GB/s).
    pub fn supermuc_phase2() -> Self {
        Self {
            self_loop: LinkCost {
                alpha_ns: 0.0,
                beta_ns_per_byte: 0.03,
            },
            intra_numa: LinkCost {
                alpha_ns: 300.0,
                beta_ns_per_byte: 0.05,
            },
            intra_node: LinkCost {
                alpha_ns: 600.0,
                beta_ns_per_byte: 0.10,
            },
            inter_node: LinkCost {
                alpha_ns: 1500.0,
                beta_ns_per_byte: 0.16,
            },
            intranode_fastpath: true,
            compare_ns: 1.0,
            move_byte_ns: 0.10,
            random_access_ns: 6.0,
        }
    }

    /// Cost parameters for one link class, honouring the intra-node fast
    /// path switch: with the fast path disabled, any non-self transfer is
    /// charged at inter-node rates.
    pub fn link(&self, class: LinkClass) -> LinkCost {
        if !self.intranode_fastpath && class != LinkClass::SelfLoop {
            return self.inter_node;
        }
        match class {
            LinkClass::SelfLoop => self.self_loop,
            LinkClass::IntraNuma => self.intra_numa,
            LinkClass::IntraNode => self.intra_node,
            LinkClass::InterNode => self.inter_node,
        }
    }

    /// Cost of one transfer of `bytes` between two ranks over `class`
    /// (a one-sided get/put, or the shared-memory traffic of the Fig. 4
    /// model).
    pub fn p2p_ns(&self, class: LinkClass, bytes: u64) -> u64 {
        let l = self.link(class);
        ceil_ns(l.alpha_ns + bytes as f64 * l.beta_ns_per_byte)
    }

    /// Barrier: two sweeps of a binomial tree.
    pub fn barrier_ns(&self, class: LinkClass, p: usize) -> u64 {
        let rounds = log2_ceil(p) as f64;
        ceil_ns(2.0 * rounds * self.link(class).alpha_ns)
    }

    /// Binomial-tree broadcast of `bytes` per rank.
    pub fn bcast_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        ceil_ns(rounds * (l.alpha_ns + bytes as f64 * l.beta_ns_per_byte))
    }

    /// Allreduce of `bytes` per rank under the arm
    /// [`CostModel::allreduce_arm`] picks: the cheaper of the two.
    pub fn allreduce_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        self.allreduce_arm_ns(self.allreduce_arm(class, p, bytes), class, p, bytes)
    }

    /// The allreduce schedule an MPI library runs for `bytes` per rank
    /// on `p` ranks whose worst link is `class`: the cheaper arm under
    /// this model, recursive doubling on a tie. A pure function of its
    /// arguments, so every rank picks the same arm.
    pub fn allreduce_arm(&self, class: LinkClass, p: usize, bytes: u64) -> AllreduceArm {
        let rsag = AllreduceArm::ReduceScatterAllgather;
        if self.allreduce_arm_ns(rsag, class, p, bytes)
            < self.allreduce_arm_ns(AllreduceArm::RecursiveDoubling, class, p, bytes)
        {
            rsag
        } else {
            AllreduceArm::RecursiveDoubling
        }
    }

    /// The price of one allreduce arm; includes the per-byte reduction
    /// work `γ`.
    ///
    /// - Recursive doubling: the whole vector in each of `⌈log₂P⌉`
    ///   rounds, `⌈log₂P⌉·(α + n·(β + γ))`.
    /// - Reduce-scatter + allgather (Rabenseifner): on `P' = 2^⌊log₂P⌋`
    ///   ranks, `2·log₂P'·α + 2·(P'−1)/P'·n·β + (P'−1)/P'·n·γ`; when
    ///   `P ≠ P'`, the `P − P'` extra ranks first fold their vector
    ///   into a partner (`α + n·β + n·γ`) and get the result back
    ///   afterwards (`α + n·β`), as MPICH does.
    pub fn allreduce_arm_ns(
        &self,
        arm: AllreduceArm,
        class: LinkClass,
        p: usize,
        bytes: u64,
    ) -> u64 {
        let l = self.link(class);
        let gamma = self.move_byte_ns + 0.2; // combine = load + op per byte
        let n = bytes as f64;
        match arm {
            AllreduceArm::RecursiveDoubling => {
                let rounds = log2_ceil(p) as f64;
                ceil_ns(rounds * (l.alpha_ns + n * (l.beta_ns_per_byte + gamma)))
            }
            AllreduceArm::ReduceScatterAllgather => {
                let pp = pow2_floor(p);
                let frac = (pp - 1) as f64 / pp as f64;
                let rounds = pp.trailing_zeros() as f64;
                let fold = if pp == p {
                    0.0
                } else {
                    2.0 * l.alpha_ns + 2.0 * n * l.beta_ns_per_byte + n * gamma
                };
                ceil_ns(
                    2.0 * rounds * l.alpha_ns
                        + 2.0 * frac * n * l.beta_ns_per_byte
                        + frac * n * gamma
                        + fold,
                )
            }
        }
    }

    /// Recursive-doubling allgather: `bytes` contributed per rank,
    /// `(p-1)·bytes` received.
    pub fn allgather_ns(&self, class: LinkClass, p: usize, bytes_per_rank: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        let recv = (p.saturating_sub(1)) as f64 * bytes_per_rank as f64;
        ceil_ns(rounds * l.alpha_ns + recv * l.beta_ns_per_byte)
    }

    /// Exclusive scan by recursive doubling, `⌈log₂P⌉·(α + n·(β + γ))`:
    /// MPICH's `MPI_Exscan` has no reduce-scatter arm.
    pub fn exscan_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        self.allreduce_arm_ns(AllreduceArm::RecursiveDoubling, class, p, bytes)
    }

    /// One peer's term of a personalized all-to-all: `α + bytes·β` at
    /// the peer's link class, a memcpy for the rank's own diagonal
    /// block. A rank's side of an exchange is the sum of its peers'
    /// terms, rounded up once ([`ceil_ns`]); the same `(link, bytes)`
    /// term is a summand of the sender's send side and of the
    /// receiver's receive side.
    #[inline]
    pub fn alltoallv_peer_ns(&self, class: LinkClass, bytes: u64) -> f64 {
        let l = self.link(class);
        if class == LinkClass::SelfLoop {
            bytes as f64 * l.beta_ns_per_byte
        } else {
            l.alpha_ns + bytes as f64 * l.beta_ns_per_byte
        }
    }

    /// Bruck-style store-and-forward all-to-all: `⌈log₂P⌉` rounds, each
    /// shipping about half of the rank's total personalized payload.
    /// Latency-optimal (log P messages instead of P-1) at the price of
    /// moving the data `~log₂(P)/2` times — the paper's recommendation
    /// "for a relatively small N/P" (§VI-E1).
    pub fn alltoallv_bruck_rank_ns(&self, class: LinkClass, p: usize, total_bytes: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        ceil_ns(rounds * (l.alpha_ns + (total_bytes as f64 / 2.0) * l.beta_ns_per_byte))
    }

    /// MPI-style communicator split: linear in the parent communicator
    /// size plus an allgather of the (color, key) pairs.
    pub fn comm_split_ns(&self, class: LinkClass, p: usize) -> u64 {
        let gather = self.allgather_ns(class, p, 16);
        gather + ceil_ns(p as f64 * 20.0)
    }

    /// Convert a [`Work`] charge into nanoseconds.
    #[inline]
    pub fn work_ns(&self, work: Work) -> u64 {
        let ns = match work {
            Work::Compares(n) => n as f64 * self.compare_ns,
            Work::MoveBytes(b) => b as f64 * self.move_byte_ns,
            Work::RandomAccesses(n) => n as f64 * self.random_access_ns,
            Work::SortElems { n, elem_bytes } => {
                // Comparison sort: n·log₂n compare+move steps.
                if n < 2 {
                    0.0
                } else {
                    let levels = (n as f64).log2();
                    n as f64 * levels * (self.compare_ns + elem_bytes as f64 * self.move_byte_ns)
                }
            }
            Work::MergeElems {
                n,
                ways,
                elem_bytes,
            } => {
                // k-way merge: each element crosses log₂(k) compare/move
                // levels (binary tree) or one O(log k) heap operation
                // (tournament tree) -- same leading term.
                if n == 0 || ways < 2 {
                    0.0
                } else {
                    let levels = (ways as f64).log2().max(1.0);
                    n as f64 * levels * (self.compare_ns + elem_bytes as f64 * self.move_byte_ns)
                }
            }
            Work::BinarySearches { searches, n } => {
                searches as f64 * search_probes(n) as f64 * self.random_access_ns
            }
            Work::Ns(ns) => ns as f64,
        };
        ceil_ns(ns)
    }
}

/// Bytes a staged exchange charges per forwarded `(src, dst)` block
/// for its routing header ([`AllToAllAlgo::StagedKWay`]).
pub(crate) const STAGE_HEADER_BYTES: u64 = 8;

/// How far an arm's price must undercut the pick so far to replace it:
/// in a near tie the estimates' error could flip the order, so the
/// better-priced arm stays.
const PICK_MARGIN: f64 = 0.05;

/// The exchange schedule §VI-E1 picks by message size, chosen by price:
/// [`AllToAllAlgo::OneFactor`], [`AllToAllAlgo::Bruck`] or
/// [`AllToAllAlgo::StagedKWay`] with `k = 4, 8, …` or `k = P` (one
/// sparsely charged stage), for an exchange of `elem_bytes`-byte
/// elements under `cost` among the ranks at `placement` (rank `i` at
/// index `i`).
///
/// The rule reads what a rank of a real machine holds without an extra
/// collective: `P`, the link classes, the cost model and every rank's
/// send and receive totals in elements — in the histogram sort the
/// `Shape` allgather carries the first, the accepted splitters'
/// realized ranks the second. It never sees the `P × P` count matrix,
/// so it prices each arm over the matrix the totals describe, every
/// source spread over the destinations in proportion to their receive
/// totals:
///
/// - one-factor: the exact latency sum over the rank's peers, plus its
///   larger total at the mean per-byte rate of its peers;
/// - Bruck: exact, since its charge reads the send totals and the
///   communicator's worst link only;
/// - staged: the charged recursion, block by block. What a rank holds
///   goes to its carriers in proportion to the sub-blocks' receive
///   totals; a stage pays the messages a rank sends and receives — for
///   the receiver, the expected number of holders with data for its
///   sub-block plus a balls-into-bins deviation for the busiest one —
///   at the mean α and β of the ranks outside its sub-block, and a
///   block sync pays [`CostModel::comm_split_ns`]. `k = 2` is left
///   out: it pays Bruck's `⌈log₂P⌉` latencies plus a split per stage.
///
/// Bruck replaces one-factor, and then the cheapest staged arm (the
/// first of equal ones in ascending `k`) the pick so far, only by
/// undercutting it by 5 % (`PICK_MARGIN`). Every arm is priced to the
/// end. Every rank computes the same pick from the same replicated
/// inputs, in `O(P log³ P)`.
pub(crate) fn pick_schedule(
    cost: &CostModel,
    placement: &[Placement],
    elem_bytes: u64,
    send_totals: &[u64],
    recv_totals: &[u64],
) -> AllToAllAlgo {
    let p = placement.len();
    assert!(
        send_totals.len() == p && recv_totals.len() == p,
        "one send and one receive total per rank"
    );
    if p < 2 {
        return AllToAllAlgo::OneFactor;
    }
    // One-factor's estimate is exact but for how its bytes spread over
    // link classes, Bruck's is exact, the staged arms' are models.
    let estimate = Estimate::new(cost, placement, elem_bytes, send_totals, recv_totals);
    let one_factor = estimate.one_factor();
    let bruck = estimate.bruck();
    let (pick, price) = if bruck < one_factor * (1.0 - PICK_MARGIN) {
        (AllToAllAlgo::Bruck, bruck)
    } else {
        (AllToAllAlgo::OneFactor, one_factor)
    };
    let fan_outs = std::iter::successors(Some(4.min(p)), |&k| (k < p).then(|| (2 * k).min(p)));
    let (mut k, mut staged) = (p, f64::INFINITY);
    for fan_out in fan_outs {
        let end = estimate.staged(fan_out);
        if end < staged {
            (k, staged) = (fan_out, end);
        }
    }
    if staged < price * (1.0 - PICK_MARGIN) {
        AllToAllAlgo::StagedKWay { k }
    } else {
        pick
    }
}

/// How many of a rank's peers sit at each link class: same NUMA
/// domain, same node across domains, other nodes.
type PeerMix = [usize; 3];

const PEER_CLASSES: [LinkClass; 3] = [
    LinkClass::IntraNuma,
    LinkClass::IntraNode,
    LinkClass::InterNode,
];

/// Per-class α and β of a cost model, with the self-copy rate.
struct Rates {
    alpha: [f64; 3],
    beta: [f64; 3],
    beta_self: f64,
}

impl Rates {
    fn of(cost: &CostModel) -> Self {
        Self {
            alpha: PEER_CLASSES.map(|c| cost.link(c).alpha_ns),
            beta: PEER_CLASSES.map(|c| cost.link(c).beta_ns_per_byte),
            beta_self: cost.link(LinkClass::SelfLoop).beta_ns_per_byte,
        }
    }

    /// One message to every peer of `mix`.
    fn alpha(&self, mix: &PeerMix) -> f64 {
        (0..3).map(|c| mix[c] as f64 * self.alpha[c]).sum()
    }

    /// The mean `(α, β)` over the peers of `mix`; zero without peers.
    fn mean(&self, mix: &PeerMix) -> (f64, f64) {
        let n: usize = mix.iter().sum();
        if n == 0 {
            return (0.0, 0.0);
        }
        let per = |rate: &[f64; 3]| (0..3).map(|c| mix[c] as f64 * rate[c]).sum::<f64>() / n as f64;
        (per(&self.alpha), per(&self.beta))
    }

    /// The per-byte rate of bytes spread evenly over the peers of `mix`
    /// and the rank itself.
    fn mean_beta(&self, mix: &PeerMix) -> f64 {
        let n: usize = mix.iter().sum();
        let spread: f64 = (0..3).map(|c| mix[c] as f64 * self.beta[c]).sum();
        (spread + self.beta_self) / (n + 1) as f64
    }
}

/// The estimates of one exchange (see [`pick_schedule`]): what they
/// read of the communicator and the totals.
struct Estimate<'a> {
    cost: &'a CostModel,
    placement: &'a [Placement],
    elem_bytes: u64,
    send: &'a [u64],
    recv: &'a [u64],
    rates: Rates,
    /// The busiest receiver's balls-into-bins factor, `2 ln P`.
    deviation: f64,
    /// What each rank holds entering the exchange.
    held: Vec<Held>,
    /// Each rank's [`PeerMix`] in the communicator.
    mix: Vec<PeerMix>,
}

/// What one rank holds entering a stage: elements, and `(src, dst)`
/// blocks (one routing header each).
#[derive(Clone, Copy, Default)]
struct Held {
    elems: f64,
    units: f64,
}

impl<'a> Estimate<'a> {
    fn new(
        cost: &'a CostModel,
        placement: &'a [Placement],
        elem_bytes: u64,
        send: &'a [u64],
        recv: &'a [u64],
    ) -> Self {
        let receivers = received(recv).1;
        let held = send
            .iter()
            .map(|&s| Held {
                elems: s as f64,
                units: (s as f64).min(receivers),
            })
            .collect();
        Estimate {
            cost,
            placement,
            elem_bytes,
            send,
            recv,
            rates: Rates::of(cost),
            deviation: 2.0 * (placement.len() as f64).ln(),
            held,
            mix: peer_mix(placement),
        }
    }

    /// One-factor's estimate: the busiest rank's.
    fn one_factor(&self) -> f64 {
        let elem = self.elem_bytes as f64;
        let ranks = self.mix.iter().zip(self.send).zip(self.recv);
        ranks
            .map(|((mix, &s), &r)| {
                self.rates.alpha(mix) + s.max(r) as f64 * elem * self.rates.mean_beta(mix)
            })
            .fold(0.0, f64::max)
    }

    /// Bruck's charge: it grows with a rank's send total, so the busiest
    /// sender's.
    fn bruck(&self) -> f64 {
        let worst = worst_link_among(self.placement.iter().copied());
        let top = self.send.iter().copied().max().unwrap_or(0);
        let p = self.placement.len();
        self.cost
            .alltoallv_bruck_rank_ns(worst, p, top * self.elem_bytes) as f64
    }

    /// The staged `k`-way arm's latest estimated end over every rank.
    fn staged(&self, k: usize) -> f64 {
        self.block(k, 0, &self.held, &self.mix, 0.0)
    }

    /// The latest estimated end in the block of ranks from `lo` that
    /// hold `held`, with their [`PeerMix`]es `mix` in the block, entered
    /// at `start`: its stage, then, unless that is the last stage
    /// (`min(k, q) == q`), its split and its sub-blocks.
    fn block(&self, k: usize, lo: usize, held: &[Held], mix: &[PeerMix], start: f64) -> f64 {
        let q = held.len();
        if q <= 1 {
            return start;
        }
        let kk = k.min(q);
        // The last stage's sub-blocks are single ranks, without peers.
        let sub_mix: Vec<PeerMix> = if kk == q {
            vec![[0; 3]; q]
        } else {
            sub_blocks(q, kk)
                .flat_map(|(a, b)| peer_mix(&self.placement[lo + a..lo + b]))
                .collect()
        };
        let (stage, arrived) = self.stage(lo, held, mix, &sub_mix, kk);
        if kk == q {
            return start + stage;
        }
        let members = self.placement[lo..lo + q].iter().copied();
        let split = self.cost.comm_split_ns(worst_link_among(members), q) as f64;
        let next = start + stage + split;
        sub_blocks(q, kk)
            .map(|(a, b)| self.block(k, lo + a, &arrived[a..b], &sub_mix[a..b], next))
            .fold(next, f64::max)
    }

    /// The stage of the block of ranks from `lo` that hold `held`, cut
    /// into `kk` sub-blocks ([`sub_blocks`]; `sub_mix` is each member's
    /// [`PeerMix`] in its sub-block): its latest estimated end after its
    /// members enter, and what each member holds after it. Every holder
    /// splits what it holds over the sub-blocks in proportion to their
    /// receive totals, and its carrier in sub-block `g` — the member at
    /// its offset — takes `g`'s share, as the charged schedule routes it.
    fn stage(
        &self,
        lo: usize,
        held: &[Held],
        mix: &[PeerMix],
        sub_mix: &[PeerMix],
        kk: usize,
    ) -> (f64, Vec<Held>) {
        let q = held.len();
        let (block_total, block_receivers) = received(&self.recv[lo..lo + q]);
        // The member at offset `o` of sub-block `g` carries for the
        // members at offset `o` modulo `g`'s size of every sub-block;
        // sub-blocks come in at most two sizes, with a column each.
        let sizes = [q / kk, q.div_ceil(kk)];
        let columns = sizes.map(|size| {
            let mut columns = vec![Column::default(); size];
            for (a, b) in sub_blocks(q, kk) {
                for (o, &h) in held[a..b].iter().enumerate() {
                    columns[o % size].add(h);
                }
            }
            columns
        });
        let mut stage = 0.0f64;
        let mut arrived = Vec::with_capacity(q);
        for (a, b) in sub_blocks(q, kk) {
            let (total, receivers) = received(&self.recv[lo + a..lo + b]);
            let share = total / block_total.max(1.0);
            let share_units = receivers / block_receivers.max(1.0);
            let columns = &columns[usize::from(b - a == sizes[1])];
            for m in a..b {
                let out: PeerMix = std::array::from_fn(|i| mix[m][i] - sub_mix[m][i]);
                let rates = self.rates.mean(&out);
                let (mine, col) = (held[m], columns[m - a]);
                let keep = Held {
                    elems: mine.elems * share,
                    units: mine.units * share_units,
                };
                let (senders, var) = col.senders(share);
                let me = (mine.units * share).min(1.0);
                let (others, var) = (senders - me, var - me * (1.0 - me));
                let elems = col.held.elems * share;
                let into = Held {
                    elems,
                    units: elems.min((col.held.units * share_units).max(senders)),
                };
                arrived.push(into);
                let moved_out = mine.minus(keep);
                let moved_in = into.minus(keep);
                let fan_out = ((kk - 1) as f64).min(moved_out.units);
                // The busiest receiver's deviation counts only below
                // the other two bounds.
                let fan_in = ((kk - 1) as f64).min(moved_in.units);
                let fan_in = if others < fan_in {
                    fan_in.min(others + (self.deviation * var.max(0.0)).sqrt())
                } else {
                    fan_in
                };
                let cost = self
                    .side(rates, fan_out, moved_out, keep)
                    .max(self.side(rates, fan_in, moved_in, keep));
                stage = stage.max(cost);
            }
        }
        (stage, arrived)
    }

    /// One side of one rank's stage: `moved` crosses to or from the
    /// other sub-blocks in `messages` messages at the mean `(α, β)` of
    /// the ranks there; `kept` is the rank's self-copy.
    fn side(&self, (alpha, beta): (f64, f64), messages: f64, moved: Held, kept: Held) -> f64 {
        let header = STAGE_HEADER_BYTES as f64;
        let bytes = |h: Held| h.elems * self.elem_bytes as f64 + h.units * header;
        let stay = bytes(kept) * self.rates.beta_self;
        if messages <= 0.0 {
            return stay;
        }
        messages * alpha + bytes(moved) * beta + stay
    }
}

/// Receive total and receiving ranks of ranks with receive totals
/// `recv`.
fn received(recv: &[u64]) -> (f64, f64) {
    recv.iter().fold((0.0, 0.0), |(total, ranks), &r| {
        (total + r as f64, ranks + f64::from(u8::from(r > 0)))
    })
}

/// Every rank's [`PeerMix`] among the ranks at `placement`, in any
/// order: grouped by node and NUMA domain after sorting their indices.
fn peer_mix(placement: &[Placement]) -> Vec<PeerMix> {
    let q = placement.len();
    let mut mix = vec![[0; 3]; q];
    let mut order: Vec<usize> = (0..q).collect();
    order.sort_unstable_by_key(|&i| (placement[i].node, placement[i].numa));
    // Runs of equal node `[a, b)` and, inside, of equal domain `[c, e)`.
    let mut a = 0;
    while a < q {
        let node = placement[order[a]].node;
        let mut b = a;
        while b < q && placement[order[b]].node == node {
            b += 1;
        }
        let mut c = a;
        while c < b {
            let numa = placement[order[c]].numa;
            let mut e = c;
            while e < b && placement[order[e]].numa == numa {
                e += 1;
            }
            for &i in &order[c..e] {
                mix[i] = [e - c - 1, (b - a) - (e - c), q - (b - a)];
            }
            c = e;
        }
        a = b;
    }
    mix
}

/// The `kk` sub-blocks `[g·q/kk, (g+1)·q/kk)` of a block of `q` ranks:
/// the cut of one stage of a staged exchange, charged and estimated.
pub(crate) fn sub_blocks(q: usize, kk: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..kk).map(move |g| (g * q / kk, (g + 1) * q / kk))
}

impl Held {
    fn minus(self, other: Held) -> Held {
        Held {
            elems: (self.elems - other.elems).max(0.0),
            units: (self.units - other.units).max(0.0),
        }
    }
}

/// The holders at one offset of a stage's sub-blocks: what they hold
/// together, how many hold anything, and the most blocks one holds.
#[derive(Clone, Copy, Default)]
struct Column {
    held: Held,
    holders: f64,
    max_units: f64,
}

impl Column {
    fn add(&mut self, h: Held) {
        self.held.elems += h.elems;
        self.held.units += h.units;
        if h.units > 0.0 {
            self.holders += 1.0;
        }
        self.max_units = self.max_units.max(h.units);
    }

    /// The expected number of holders with a block among a share
    /// `share` of the receivers — one with `u` blocks has one with
    /// probability `min(1, u · share)` — and its variance, taking the
    /// largest holder as it is and the others as holding evenly.
    fn senders(&self, share: f64) -> (f64, f64) {
        if self.holders == 0.0 || share <= 0.0 {
            return (0.0, 0.0);
        }
        let top = (self.max_units * share).min(1.0);
        let rest = self.holders - 1.0;
        let each = if rest > 0.0 {
            ((self.held.units - self.max_units) * share / rest).min(1.0)
        } else {
            0.0
        };
        (
            top + rest * each,
            top * (1.0 - top) + rest * each * (1.0 - each),
        )
    }
}

/// A unit of local computation to charge to a rank's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// `n` key comparisons.
    Compares(u64),
    /// Sequentially streaming `b` bytes (copies, partitions).
    MoveBytes(u64),
    /// `n` dependent random memory accesses.
    RandomAccesses(u64),
    /// Comparison-sorting `n` elements of `elem_bytes` each.
    SortElems {
        /// Element count.
        n: u64,
        /// Size of one element in bytes.
        elem_bytes: u64,
    },
    /// Merging `n` total elements from `ways` sorted runs.
    MergeElems {
        /// Total element count across all runs.
        n: u64,
        /// Number of sorted input runs.
        ways: u64,
        /// Size of one element in bytes.
        elem_bytes: u64,
    },
    /// `searches` binary searches over a sorted run of length `n`.
    ///
    /// `n` is the length of the run *actually searched*: callers that
    /// confine a search to a known sub-range (the splitter search's
    /// shrinking index brackets) pass the bracket width, and the charge
    /// honestly drops to `⌈log₂ width⌉` probes per search — the
    /// virtual-time counterpart of the host-time win. A degenerate run
    /// (`n < 2`) still charges one probe per search: the search must
    /// touch the run to learn it is exhausted.
    BinarySearches {
        /// Number of searches.
        searches: u64,
        /// Length of the sorted run searched.
        n: u64,
    },
    /// A raw nanosecond charge.
    Ns(u64),
}

/// Probes one binary search over a run of `n` elements is charged:
/// `⌈log₂ n⌉`, and one for a degenerate run (`n < 2`).
///
/// The splitter search asks this once per active splitter per round
/// per rank, so it is integer arithmetic. The charge was defined as
/// `(n as f64).log2().ceil()`, which an `f64` logarithm rounds *down*
/// to `k` just above a large power of two (`n = 2^k + 1`, `k ≥ 49` on
/// this libm); the two agree below `2^32` with more than `2^15` ulps
/// to spare, and longer runs (no rank holds one) keep the float
/// formula so that every charge stays bit-identical.
fn search_probes(n: u64) -> u32 {
    if n < 2 {
        1
    } else if n <= u32::MAX as u64 {
        log2_ceil(n as usize)
    } else {
        (n as f64).log2().ceil() as u32
    }
}

/// The two allreduce schedules of [`CostModel::allreduce_arm_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceArm {
    /// Every rank exchanges the whole vector in each of `⌈log₂P⌉`
    /// rounds: latency-optimal, the short-vector schedule.
    RecursiveDoubling,
    /// Reduce-scatter then allgather over `2^⌊log₂P⌋` ranks (plus a
    /// fold of the rest): each rank moves `~2n` bytes instead of
    /// `n·log₂P`, the long-vector schedule.
    ReduceScatterAllgather,
}

impl AllreduceArm {
    /// Bytes one rank sends under this arm for a `bytes`-long vector
    /// on `p` ranks: the `β` terms of [`CostModel::allreduce_arm_ns`],
    /// `n·⌈log₂P⌉` or `2·n·(P'−1)/P'` plus `2n` for the fold.
    pub fn bytes_sent(self, p: usize, bytes: u64) -> u64 {
        match self {
            AllreduceArm::RecursiveDoubling => bytes * log2_ceil(p) as u64,
            AllreduceArm::ReduceScatterAllgather => {
                let pp = pow2_floor(p) as u64;
                let fold = if pp == p as u64 { 0 } else { 2 * bytes };
                2 * bytes * (pp - 1) / pp + fold
            }
        }
    }
}

/// `2^⌊log₂ p⌋`, and 1 for `p ≤ 1`.
fn pow2_floor(p: usize) -> usize {
    if p <= 1 {
        1
    } else {
        1 << (usize::BITS - 1 - p.leading_zeros())
    }
}

/// `⌈log₂ p⌉`, with `log2_ceil(0) == 0` and `log2_ceil(1) == 0`.
pub fn log2_ceil(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// `x.ceil() as u64` without the library call: the charge rounding of
/// every pricing formula. Baseline x86-64 has no rounding instruction,
/// so `f64::ceil` is a call into the soft `ceil`; a truncating cast
/// (which saturates, and sends NaN to 0 like the cast after `ceil`)
/// plus one compare is exact. Below `2^53` the cast of `t` back is
/// exact, so `t < x` holds just when `x` has a fraction; at and above
/// it every `f64` is an integer and `t == x` up to the saturation at
/// `u64::MAX`, where `ceil` saturates too.
#[inline]
pub fn ceil_ns(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    /// The charge rounding is `x.ceil() as u64` on every input.
    #[test]
    fn ceil_ns_matches_the_library_ceil() {
        let two53 = (1u64 << 53) as f64;
        let two63 = (1u64 << 63) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            2.0,
            1e6,
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            f64::EPSILON,
            1.0 + f64::EPSILON,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            two53 - 0.5,
            two63,
            two63 * 1.5,
            two63 * 2.0,
            two63 * 4.0,
            f64::MAX,
            -0.5,
            -1.0,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        // A seeded sweep over sixty-odd binades, fractions included.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64;
            let exp = (state % 70) as i32 - 4;
            xs.push(mantissa * 2f64.powi(exp));
        }
        for x in xs {
            assert_eq!(
                ceil_ns(x),
                x.ceil() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    /// The per-rank link-class counts the schedule rule reads, against
    /// a pairwise count, in ranges of ranks of placements in block
    /// order and shuffled (a sub-communicator may list its members in
    /// any order).
    #[test]
    fn peer_mix_counts_every_pair() {
        use crate::topology::Topology;
        let topology = Topology::new(40, 16, 4, 7);
        let mut ranks: Vec<usize> = (0..40).collect();
        for shuffle in [false, true] {
            if shuffle {
                ranks.sort_by_key(|&r| (r * 17 + 5) % 40);
            }
            let placed: Vec<Placement> = ranks.iter().map(|&r| topology.placement(r)).collect();
            for (lo, hi) in [(0, 40), (0, 1), (3, 9), (5, 21), (14, 37), (39, 40)] {
                let mix = peer_mix(&placed[lo..hi]);
                for i in lo..hi {
                    let mut want = [0; 3];
                    for j in (lo..hi).filter(|&j| j != i) {
                        let class = placed[i].link_to(placed[j]);
                        want[PEER_CLASSES.iter().position(|&c| c == class).unwrap()] += 1;
                    }
                    let cell = format!("rank {} of {lo}..{hi}, shuffled {shuffle}", ranks[i]);
                    assert_eq!(mix[i - lo], want, "{cell}");
                }
            }
        }
    }

    #[test]
    fn p2p_scales_with_bytes_and_link() {
        let m = CostModel::default();
        let small = m.p2p_ns(LinkClass::InterNode, 64);
        let large = m.p2p_ns(LinkClass::InterNode, 1 << 20);
        assert!(large > small);
        assert!(m.p2p_ns(LinkClass::IntraNuma, 1 << 20) < m.p2p_ns(LinkClass::InterNode, 1 << 20));
    }

    #[test]
    fn fastpath_toggle_upgrades_intranode_to_network() {
        let mut m = CostModel::default();
        let fast = m.p2p_ns(LinkClass::IntraNuma, 1 << 20);
        m.intranode_fastpath = false;
        let slow = m.p2p_ns(LinkClass::IntraNuma, 1 << 20);
        assert!(slow > fast);
        assert_eq!(slow, m.p2p_ns(LinkClass::InterNode, 1 << 20));
    }

    /// The allreduce price is the cheaper of the two arms' formulas,
    /// written out here; it is the recursive-doubling price of before
    /// for short vectors, never falls as the vector grows, and is
    /// strictly cheaper for the splitter search's 16 KiB rounds at
    /// P = 1024. The exclusive scan keeps the recursive-doubling price.
    #[test]
    fn allreduce_pick_grid() {
        let ps = [2, 3, 5, 8, 16, 17, 64, 128, 256, 1000, 1024, 4096];
        let mut sizes: Vec<u64> = (1..=256).map(|i| 8 * i).collect();
        while *sizes.last().unwrap() < 1 << 20 {
            let next = (sizes.last().unwrap() * 5 / 4).min(1 << 20);
            sizes.push(next);
        }
        let classes = [
            LinkClass::SelfLoop,
            LinkClass::IntraNuma,
            LinkClass::IntraNode,
            LinkClass::InterNode,
        ];
        for fastpath in [true, false] {
            let m = CostModel {
                intranode_fastpath: fastpath,
                ..CostModel::default()
            };
            let gamma = m.move_byte_ns + 0.2;
            for class in classes {
                let l = m.link(class);
                for p in ps {
                    let log_p = (p as f64).log2();
                    let pp = 2f64.powf(log_p.floor());
                    let frac = (pp - 1.0) / pp;
                    let mut last = 0;
                    for &bytes in &sizes {
                        let n = bytes as f64;
                        let rd = (log_p.ceil() * (l.alpha_ns + n * (l.beta_ns_per_byte + gamma)))
                            .ceil() as u64;
                        let fold = if pp as usize == p {
                            0.0
                        } else {
                            2.0 * l.alpha_ns + 2.0 * n * l.beta_ns_per_byte + n * gamma
                        };
                        let rsag = (2.0 * pp.log2() * l.alpha_ns
                            + 2.0 * frac * n * l.beta_ns_per_byte
                            + frac * n * gamma
                            + fold)
                            .ceil() as u64;
                        let cell = format!("{class:?} fastpath {fastpath} p {p} bytes {bytes}");
                        let price = m.allreduce_ns(class, p, bytes);
                        assert_eq!(price, rd.min(rsag), "{cell}");
                        assert_eq!(m.exscan_ns(class, p, bytes), rd, "{cell}");
                        let arm = m.allreduce_arm(class, p, bytes);
                        let want = if rsag < rd {
                            AllreduceArm::ReduceScatterAllgather
                        } else {
                            AllreduceArm::RecursiveDoubling
                        };
                        assert_eq!(arm, want, "{cell}");
                        assert!(price >= last, "{cell}: price fell from {last} to {price}");
                        last = price;
                        // Short vectors keep the recursive-doubling
                        // price wherever a communicator of `p` ranks
                        // can have `class` as its worst link: never a
                        // self loop, and an intra-NUMA domain of at
                        // most 64 cores (the shipped topologies have 7).
                        // A zero-latency link, or a 128-rank domain at
                        // 300 ns, would pick the long-vector arm at
                        // 1 KiB already.
                        let reachable = class != LinkClass::SelfLoop
                            && !(fastpath && class == LinkClass::IntraNuma && p > 64);
                        if bytes <= 1024 && reachable {
                            assert_eq!(price, rd, "{cell}");
                        }
                    }
                }
            }
        }
        let m = CostModel::default();
        let (class, p, bytes) = (LinkClass::InterNode, 1024, 16 << 10);
        let rd = m.allreduce_arm_ns(AllreduceArm::RecursiveDoubling, class, p, bytes);
        assert!(m.allreduce_ns(class, p, bytes) < rd);
        assert_eq!(
            m.allreduce_arm(class, p, bytes),
            AllreduceArm::ReduceScatterAllgather
        );
    }

    /// The bytes an arm sends are its formula's `β` terms.
    #[test]
    fn allreduce_arm_bytes_follow_the_formulas() {
        use AllreduceArm::*;
        assert_eq!(RecursiveDoubling.bytes_sent(1024, 100), 1000);
        assert_eq!(RecursiveDoubling.bytes_sent(1000, 100), 1000);
        assert_eq!(ReduceScatterAllgather.bytes_sent(1024, 1024), 2 * 1023);
        // 1000 ranks: 512 in the power-of-two core, plus the fold.
        assert_eq!(
            ReduceScatterAllgather.bytes_sent(1000, 1024),
            2 * 1022 + 2048
        );
        assert_eq!(ReduceScatterAllgather.bytes_sent(1, 1024), 0);
        assert_eq!(RecursiveDoubling.bytes_sent(1, 1024), 0);
    }

    #[test]
    fn collectives_grow_logarithmically() {
        let m = CostModel::default();
        let a = m.allreduce_ns(LinkClass::InterNode, 16, 8);
        let b = m.allreduce_ns(LinkClass::InterNode, 256, 8);
        // 256 ranks = 8 rounds vs 4 rounds: exactly 2x for fixed payload.
        assert_eq!(b, 2 * a);
    }

    #[test]
    fn allgather_volume_dominates_at_scale() {
        let m = CostModel::default();
        let per_rank = 1 << 16;
        let c = m.allgather_ns(LinkClass::InterNode, 64, per_rank);
        let volume = 63 * per_rank;
        assert!(c as f64 > volume as f64 * m.inter_node.beta_ns_per_byte);
    }

    #[test]
    fn bracketed_binary_searches_charge_less() {
        let m = CostModel::default();
        let full = m.work_ns(Work::BinarySearches {
            searches: 6,
            n: 1 << 20,
        });
        let bracketed = m.work_ns(Work::BinarySearches {
            searches: 6,
            n: 1 << 5,
        });
        // 20 probe levels vs 5: a 4x virtual-time win per search.
        assert_eq!(full, 4 * bracketed);
        // Degenerate runs still pay one probe per search.
        for n in [0u64, 1] {
            let one = m.work_ns(Work::BinarySearches { searches: 6, n });
            assert_eq!(one, m.work_ns(Work::RandomAccesses(6)));
        }
    }

    /// The integer probe count must charge exactly what the float
    /// formula it replaced did, for every run length.
    #[test]
    fn integer_search_probes_charge_bit_identically() {
        let m = CostModel::default();
        let float_ns = |searches: u64, n: u64| {
            let probes = if n < 2 { 1.0 } else { (n as f64).log2().ceil() };
            (searches as f64 * probes * m.random_access_ns).ceil() as u64
        };
        let edges = (1..=52u32).flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        for n in (0..=65_536u64).chain(edges) {
            for searches in [2u64, 14, 30] {
                assert_eq!(
                    m.work_ns(Work::BinarySearches { searches, n }),
                    float_ns(searches, n),
                    "n={n} searches={searches}"
                );
            }
        }
    }

    #[test]
    fn sort_work_superlinear() {
        let m = CostModel::default();
        let one = m.work_ns(Work::SortElems {
            n: 1 << 20,
            elem_bytes: 8,
        });
        let two = m.work_ns(Work::SortElems {
            n: 1 << 21,
            elem_bytes: 8,
        });
        assert!(two > 2 * one);
    }

    #[test]
    fn trivial_work_is_zero() {
        let m = CostModel::default();
        assert_eq!(
            m.work_ns(Work::SortElems {
                n: 1,
                elem_bytes: 8
            }),
            0
        );
        assert_eq!(
            m.work_ns(Work::MergeElems {
                n: 0,
                ways: 8,
                elem_bytes: 8
            }),
            0
        );
        assert_eq!(m.work_ns(Work::Compares(0)), 0);
    }

    #[test]
    fn alltoallv_self_block_has_no_latency() {
        let m = CostModel::default();
        let only_self = ceil_ns(m.alltoallv_peer_ns(LinkClass::SelfLoop, 1024));
        assert!((only_self as f64) < m.inter_node.alpha_ns);
    }
}
