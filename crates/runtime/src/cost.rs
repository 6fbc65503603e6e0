//! The α–β communication cost model and compute work charging: the
//! one home of every price the virtual clock pays.
//!
//! Virtual time is kept in integer nanoseconds. A one-sided transfer
//! between two ranks costs `α(link) + bytes · β(link)`; collectives use the
//! standard recursive-doubling / binomial-tree formulas over `⌈log₂ P⌉`
//! rounds at the worst link class present in the communicator, except
//! two. The allreduce is priced as the cheaper of recursive doubling and
//! reduce-scatter + allgather ([`AllreduceArm`]), the long-vector switch
//! of an MPI library (Thakur, Rabenseifner & Gropp 2005); the exclusive
//! scan keeps recursive doubling. Each synchronizing collective's time
//! formula sits next to the bytes one rank is counted for under it.
//!
//! The personalized all-to-all is charged per peer under the schedule
//! it runs (the 1-factor pairwise schedule is Sanders & Träff \[34\] in
//! the paper; Bruck; the staged `k`-way recursion), by the crate-private
//! `alltoallv_ns`; the schedule the priced pick resolves to is chosen by
//! estimates of those same charges (`pick_schedule`). The communicator
//! ([`crate::comm`]) only moves data and calls one price per collective.
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

    /// Bytes one rank is counted for in [`CostModel::bcast_ns`]'s
    /// broadcast: the payload in each of its `⌈log₂P⌉` rounds.
    pub(crate) fn bcast_bytes(p: usize, bytes: u64) -> u64 {
        bytes * log2_ceil(p) as u64
    }

    /// Allreduce of `bytes` per rank under the arm
    /// [`CostModel::allreduce_arm`] picks: the cheaper of the two.
    pub fn allreduce_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        self.allreduce_arm(class, p, bytes).1
    }

    /// The allreduce schedule an MPI library runs for `bytes` per rank
    /// on `p` ranks whose worst link is `class`, and its price: the
    /// cheaper arm under this model, recursive doubling on a tie. A
    /// pure function of its arguments, so every rank picks the same
    /// arm; the arm's [`AllreduceArm::bytes_sent`] are what each rank
    /// is counted for.
    pub fn allreduce_arm(&self, class: LinkClass, p: usize, bytes: u64) -> (AllreduceArm, u64) {
        let priced = |arm| (arm, self.allreduce_arm_ns(arm, class, p, bytes));
        let rd = priced(AllreduceArm::RecursiveDoubling);
        let rsag = priced(AllreduceArm::ReduceScatterAllgather);
        if rsag.1 < rd.1 {
            rsag
        } else {
            rd
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

    /// Bytes one rank is counted for in [`CostModel::allgather_ns`]'s
    /// allgather: its own `bytes` to each of its `p − 1` peers.
    pub(crate) fn allgather_bytes(p: usize, bytes: u64) -> u64 {
        bytes * p.saturating_sub(1) as u64
    }

    /// Exclusive scan by recursive doubling, `⌈log₂P⌉·(α + n·(β + γ))`:
    /// MPICH's `MPI_Exscan` has no reduce-scatter arm.
    pub fn exscan_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        self.allreduce_arm_ns(AllreduceArm::RecursiveDoubling, class, p, bytes)
    }

    /// Bytes one rank is counted for in [`CostModel::exscan_ns`]'s scan:
    /// those of recursive doubling.
    pub(crate) fn exscan_bytes(p: usize, bytes: u64) -> u64 {
        AllreduceArm::RecursiveDoubling.bytes_sent(p, bytes)
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

/// The count matrix of one personalized exchange as [`alltoallv_ns`]
/// reads it: by its non-empty blocks only, receiver by receiver, and
/// every member's send and receive totals in elements. The
/// communicator's combine serves it from the segment index it builds
/// for the exchange (`crate::comm`, "The exchange's host cost").
pub(crate) trait Blocks {
    /// Every member's send total: the matrix's row sums.
    fn send(&self) -> &[u64];
    /// Every member's receive total: its column sums.
    fn recv(&self) -> &[u64];
    /// Receiver `dst`'s non-empty blocks as `(source, length)`, sources
    /// ascending.
    fn received(&self, dst: usize) -> impl Iterator<Item = (usize, u64)> + '_;
}

/// Every member's price of one personalized all-to-all under `algo`,
/// from the exchange's start: member `s` sends member `d` the elements
/// of `elem_bytes` bytes that `blocks` lists (none where it lists
/// nothing), the members sit at `placement` (member `i` at index `i`).
/// The model reads only lengths and link classes, never the payloads.
/// [`AllToAllAlgo::Priced`] is resolved here by [`pick_schedule`], from
/// the send and receive totals alone, and priced as the arm it picks.
/// Bruck reads the totals only and the staged arms the non-empty
/// blocks; the one-factor arm charges α for every peer, so it walks
/// all `P²` pairs.
pub(crate) fn alltoallv_ns(
    cost: &CostModel,
    placement: &[Placement],
    elem_bytes: u64,
    algo: AllToAllAlgo,
    blocks: &impl Blocks,
) -> Vec<u64> {
    let p = placement.len();
    let algo = match algo {
        AllToAllAlgo::Priced => {
            pick_schedule(cost, placement, elem_bytes, blocks.send(), blocks.recv())
        }
        algo => algo,
    };
    match algo {
        // Each rank pays the larger of its two sides, each rounded up.
        AllToAllAlgo::OneFactor => {
            let (send, recv) = one_factor_sides(cost, placement, elem_bytes, blocks);
            send.iter()
                .zip(&recv)
                .map(|(&s, &r)| ceil_ns(s).max(ceil_ns(r)))
                .collect()
        }
        // Store-and-forward: log P rounds at the worst link,
        // shipping ~half the personalized payload per round.
        AllToAllAlgo::Bruck => {
            let worst = worst_link_among(placement.iter().copied());
            blocks
                .send()
                .iter()
                .map(|&total| cost.alltoallv_bruck_rank_ns(worst, p, total * elem_bytes))
                .collect()
        }
        // Every non-empty block, listed in destination order so that
        // each sub-block's blocks are one run at every stage.
        AllToAllAlgo::StagedKWay { k } => {
            let mut units: Vec<Routed> = (0..p)
                .flat_map(|dst| {
                    blocks.received(dst).map(move |(holder, len)| Routed {
                        holder,
                        dst,
                        bytes: len * elem_bytes + STAGE_HEADER_BYTES,
                    })
                })
                .collect();
            let mut ends = vec![0u64; p];
            price_stages(cost, placement, k, (0, p), 0, &mut units, &mut ends);
            ends
        }
        AllToAllAlgo::Priced => unreachable!("resolved to an arm above"),
    }
}

/// The unrounded send-side and receive-side sums of every rank under
/// the 1-factor schedule, each the sum of [`CostModel::alltoallv_peer_ns`]
/// over the rank's `P` peers, empty ones included. Every `(link, bytes)`
/// term belongs to two of those `2·P` sums — its sender's and its
/// receiver's — so one pass over the `P²` pairs, receiver by receiver,
/// adds it to both, reading the lengths off the receiver's non-empty
/// blocks. Peers are met in ascending order on either side (`send[s]`
/// over `d`, `recv[d]` over `s`), the order the per-rank formula sums
/// them in: each f64 sum, and so each end time, is the same to the bit.
fn one_factor_sides(
    cost: &CostModel,
    placement: &[Placement],
    elem: u64,
    blocks: &impl Blocks,
) -> (Vec<f64>, Vec<f64>) {
    let p = placement.len();
    let mut send = vec![0.0f64; p];
    let mut recv = Vec::with_capacity(p);
    for (d, to) in placement.iter().enumerate() {
        let mut received = blocks.received(d).peekable();
        let mut col = 0.0f64;
        for (s, (from, row)) in placement.iter().zip(&mut send).enumerate() {
            let len = received
                .next_if(|&(src, _)| src == s)
                .map_or(0, |(_, len)| len);
            let link = if s == d {
                LinkClass::SelfLoop
            } else {
                from.link_to(*to)
            };
            let term = cost.alltoallv_peer_ns(link, len * elem);
            *row += term;
            col += term;
        }
        recv.push(col);
    }
    (send, recv)
}

/// Bytes a staged exchange charges per forwarded `(src, dst)` block
/// for its routing header ([`AllToAllAlgo::StagedKWay`]).
const STAGE_HEADER_BYTES: u64 = 8;

/// One non-empty `(src, dst)` block of a staged exchange, forwarded
/// whole from stage to stage: the member carrying it into the current
/// stage, its final destination, and its wire size (payload plus
/// routing header).
struct Routed {
    holder: usize,
    dst: usize,
    bytes: u64,
}

/// Price one stage of the block of `q` members starting at `lo`, which
/// every member enters at `start`, then recurse into its sub-blocks.
/// `units` are the blocks bound inside it, in destination order. The
/// block is cut into `min(k, q)` contiguous [`sub_blocks`]; each rank
/// sends everything bound for sub-block `g` as one message to its
/// carrier there (itself for its own sub-block, else the rank at its
/// offset within its own sub-block, wrapped into `g`'s size). A rank
/// pays `max(send, recv)`, each side the sum of
/// [`CostModel::alltoallv_peer_ns`] over its peers in ascending order,
/// rounded up once. The final stage (`kk == q`) ends per rank; any
/// other opens every sub-block at its last member's end plus the
/// block's [`CostModel::comm_split_ns`].
fn price_stages(
    cost: &CostModel,
    placement: &[Placement],
    k: usize,
    (lo, q): (usize, usize),
    start: u64,
    units: &mut [Routed],
    ends: &mut [u64],
) {
    if q <= 1 {
        ends[lo] = start;
        return;
    }
    let kk = k.min(q);
    // Sub-block `g` spans `subs[g]`; `block_of` inverts it.
    let subs: Vec<(usize, usize)> = sub_blocks(q, kk).collect();
    let block_of = |r: usize| ((r + 1) * kk - 1) / q;
    let carrier = |m: usize, g: usize| {
        let mine = block_of(m);
        if g == mine {
            m
        } else {
            let (a, b) = subs[g];
            a + (m - subs[mine].0) % (b - a)
        }
    };
    let mut bytes = vec![0u64; q * kk];
    for u in units.iter_mut() {
        let (m, g) = (u.holder - lo, block_of(u.dst - lo));
        bytes[m * kk + g] += u.bytes;
        u.holder = lo + carrier(m, g);
    }
    // Carriers ascend with `g` and senders with `m`: each side meets
    // its peers in ascending order, as the one-factor sides sum them.
    let members = &placement[lo..lo + q];
    let (mut send, mut recv) = (vec![0.0f64; q], vec![0.0f64; q]);
    for (m, row) in bytes.chunks_exact(kk).enumerate() {
        for (g, &b) in row.iter().enumerate().filter(|&(_, &b)| b > 0) {
            let to = carrier(m, g);
            let link = if to == m {
                LinkClass::SelfLoop
            } else {
                members[m].link_to(members[to])
            };
            let term = cost.alltoallv_peer_ns(link, b);
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
    let split = cost.comm_split_ns(worst_link_among(members.iter().copied()), q);
    let next = (0..q).map(stage_end).max().unwrap_or(start) + split;
    let mut rest = units;
    for (a, b) in subs {
        let sub = (lo + a, b - a);
        let cut = rest.partition_point(|u| u.dst < sub.0 + sub.1);
        let (inside, tail) = rest.split_at_mut(cut);
        price_stages(cost, placement, k, sub, next, inside, ends);
        rest = tail;
    }
}

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
fn pick_schedule(
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
fn sub_blocks(q: usize, kk: usize) -> impl Iterator<Item = (usize, usize)> {
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
pub(crate) fn search_probes(n: u64) -> u32 {
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
    use crate::fault::unit_draw;
    use crate::topology::Topology;

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
                        let (arm, arm_price) = m.allreduce_arm(class, p, bytes);
                        let want = if rsag < rd {
                            AllreduceArm::ReduceScatterAllgather
                        } else {
                            AllreduceArm::RecursiveDoubling
                        };
                        assert_eq!((arm, arm_price), (want, price), "{cell}");
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
            m.allreduce_arm(class, p, bytes).0,
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

    /// The count matrix `count` over `p` members as [`alltoallv_ns`]
    /// reads it.
    struct Matrix {
        send: Vec<u64>,
        recv: Vec<u64>,
        cols: Vec<Vec<(usize, u64)>>,
    }

    fn dense(p: usize, count: &dyn Fn(usize, usize) -> u64) -> Matrix {
        let cols: Vec<Vec<(usize, u64)>> = (0..p)
            .map(|d| {
                (0..p)
                    .map(|s| (s, count(s, d)))
                    .filter(|&(_, len)| len > 0)
                    .collect()
            })
            .collect();
        let mut send = vec![0; p];
        for &(s, len) in cols.iter().flatten() {
            send[s] += len;
        }
        let recv = cols.iter().map(|c| c.iter().map(|b| b.1).sum()).collect();
        Matrix { send, recv, cols }
    }

    impl Blocks for Matrix {
        fn send(&self) -> &[u64] {
            &self.send
        }

        fn recv(&self) -> &[u64] {
            &self.recv
        }

        fn received(&self, dst: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
            self.cols[dst].iter().copied()
        }
    }

    /// The placements of the members `global_ranks` of `topology`.
    fn placements(topology: &Topology, global_ranks: &[usize]) -> Vec<Placement> {
        global_ranks
            .iter()
            .map(|&g| topology.placement(g))
            .collect()
    }

    /// The one-factor price as the per-rank formula states it — a send
    /// side and a receive side per rank, each a column or a row of
    /// [`Topology::link`] lookups — which [`alltoallv_ns`] must
    /// reproduce to the bit.
    fn one_factor_reference(
        cost: &CostModel,
        topology: &Topology,
        global_ranks: &[usize],
        elem: u64,
        count: &dyn Fn(usize, usize) -> u64,
    ) -> Vec<u64> {
        let p = global_ranks.len();
        (0..p)
            .map(|r| {
                let term = |s: usize, d: usize| {
                    let link = topology.link(global_ranks[s], global_ranks[d]);
                    cost.alltoallv_peer_ns(link, count(s, d) * elem)
                };
                let send_cost = ceil_ns((0..p).fold(0.0, |sum, d| sum + term(r, d)));
                let recv_cost = ceil_ns((0..p).fold(0.0, |sum, s| sum + term(s, r)));
                send_cost.max(recv_cost)
            })
            .collect()
    }

    /// Charge and reference over the members `global_ranks` of a
    /// `nodes × numa × cores` machine, on a seeded ragged count matrix
    /// (about `empty_permille` of its blocks empty), priced at virtual
    /// time `at_ns` of a plan with a link-degradation window. Returns
    /// the link classes the members span.
    fn check_one_factor(
        (nodes, numa, cores): (usize, usize, usize),
        global_ranks: &[usize],
        (seed, empty_permille, elem): (u64, u64, u64),
        at_ns: u64,
    ) -> std::collections::BTreeSet<LinkClass> {
        let per_node = numa * cores;
        let topology = Topology::new(nodes * per_node, per_node, numa, cores);
        let fault = crate::FaultPlan::default().with_link_fault(crate::LinkFault {
            class: Some(LinkClass::InterNode),
            extra_alpha_ns: 731.5,
            beta_factor: 3.7,
            from_ns: 1_000,
            until_ns: 2_000,
        });
        let base = CostModel::supermuc_phase2();
        let cost = fault.cost_at(&base, at_ns);
        let p = global_ranks.len();
        let counts: Vec<u64> = (0..p * p)
            .map(|i| {
                let draw = |salt: u64| unit_draw(seed, &[i as u64, salt]);
                if draw(0) * 1000.0 < empty_permille as f64 {
                    0
                } else {
                    (draw(1) * draw(2) * (1u64 << 24) as f64) as u64
                }
            })
            .collect();
        let count = |s: usize, d: usize| counts[s * p + d];
        let cell = format!("{nodes}x{numa}x{cores} members {global_ranks:?} seed {seed}");
        let placed = placements(&topology, global_ranks);
        let index = dense(p, &count);
        assert_eq!(
            alltoallv_ns(&cost, &placed, elem, AllToAllAlgo::OneFactor, &index),
            one_factor_reference(&cost, &topology, global_ranks, elem, &count),
            "{cell}"
        );
        // The rounding above forgives a reordered sum; the sums
        // themselves do not. Each side against its own plain loop.
        let term = |s: usize, d: usize| {
            let link = topology.link(global_ranks[s], global_ranks[d]);
            cost.alltoallv_peer_ns(link, count(s, d) * elem)
        };
        let bits = |sums: Vec<f64>| sums.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let (send, recv) = one_factor_sides(&cost, &placed, elem, &index);
        let plain = |side: &dyn Fn(usize, usize) -> f64| {
            (0..p)
                .map(|r| (0..p).fold(0.0, |sum, peer| sum + side(r, peer)))
                .collect::<Vec<f64>>()
        };
        assert_eq!(bits(send), bits(plain(&term)), "send, {cell}");
        assert_eq!(bits(recv), bits(plain(&|r, s| term(s, r))), "recv, {cell}");
        (0..p * p)
            .map(|i| topology.link(global_ranks[i / p], global_ranks[i % p]))
            .collect()
    }

    #[test]
    fn one_factor_sweep_covers_all_link_classes() {
        // Ranks 0, 1 share a NUMA domain, 2 sits in the next one, 4 on
        // the next node; as a sub-communicator in non-identity order.
        let classes = check_one_factor((2, 2, 2), &[4, 0, 2, 1], (9, 250, 8), 1_500);
        assert_eq!(classes.len(), 4, "{classes:?}");
        // All blocks empty: latencies only.
        check_one_factor((2, 2, 2), &[4, 0, 2, 1], (9, 1000, 8), 0);
        // One rank: the self block alone.
        check_one_factor((1, 1, 1), &[0], (3, 0, 16), 0);
    }

    /// The pairwise step's price. One non-empty off-diagonal block per
    /// rank, swapped symmetrically with partner `r ^ mask` as bitonic's
    /// compare-split does: under `StagedKWay { k ≥ P }` every rank pays
    /// one `α + (bytes + 8)·β` term at its partner's link class, and
    /// nothing for its empty peers. The one-factor arm — the histogram
    /// sort's — still charges α for every empty non-self peer.
    #[test]
    fn one_peer_exchange_is_priced_sparsely() {
        // 2 nodes × 2 NUMA domains × 2 cores: masks 1, 2 and 4 pair
        // ranks inside a NUMA domain, across domains, across nodes.
        let topology = Topology::new(8, 4, 2, 2);
        let cost = CostModel::supermuc_phase2();
        let members: Vec<usize> = (0..8).collect();
        let placed = placements(&topology, &members);
        let (p, elem) = (members.len(), 8);
        for mask in [1, 2, 4] {
            let count = |s: usize, d: usize| {
                if d == s ^ mask {
                    5 + 3 * s.min(d) as u64
                } else {
                    0
                }
            };
            let link = |s: usize, d: usize| cost.link(topology.link(s, d));
            let index = dense(p, &count);
            let mut staged = Vec::new();
            for k in [p, p + 5] {
                staged = alltoallv_ns(&cost, &placed, elem, AllToAllAlgo::StagedKWay { k }, &index);
                for (r, &end) in staged.iter().enumerate() {
                    let (l, bytes) = (link(r, r ^ mask), count(r, r ^ mask) * elem + 8);
                    let term = l.alpha_ns + bytes as f64 * l.beta_ns_per_byte;
                    assert_eq!(end, term.ceil() as u64, "mask {mask} k {k} r {r}");
                }
            }
            let one_factor = alltoallv_ns(&cost, &placed, elem, AllToAllAlgo::OneFactor, &index);
            for (r, &end) in one_factor.iter().enumerate() {
                let row = (0..p).filter(|&d| d != r).fold(0.0, |sum, d| {
                    let l = link(r, d);
                    sum + l.alpha_ns + (count(r, d) * elem) as f64 * l.beta_ns_per_byte
                });
                assert_eq!(end, row.ceil() as u64, "mask {mask} r {r}");
                assert!(end > staged[r], "mask {mask} r {r}");
            }
        }
    }

    /// Send totals and receive weights, `nper` keys per rank on
    /// average, of the schedule-rule grid's patterns: 0 uniform, 1
    /// sparse (one rank in eight holds the keys), 2 one heavy sender
    /// (rank 0 holds half of them), 3 one heavy receiver (rank `P − 1`
    /// is bound half of them).
    fn grid_totals(pattern: usize, p: usize, nper: u64) -> (Vec<u64>, Vec<u64>) {
        let n = p as u64 * nper;
        let even = |total: u64| -> Vec<u64> {
            (0..p as u64)
                .map(|i| total / p as u64 + u64::from(i < total % p as u64))
                .collect()
        };
        match pattern {
            0 => (even(n), even(n)),
            1 => {
                let send = (0..p)
                    .map(|s| if s % 8 == 0 { 8 * nper } else { 0 })
                    .collect();
                (send, even(n))
            }
            2 => {
                let mut send = even(n / 2);
                send[0] += n - n / 2;
                (send, even(n))
            }
            _ => {
                let mut recv = even(n / 2);
                recv[p - 1] += n - n / 2;
                (even(n), recv)
            }
        }
    }

    /// The count matrix the totals describe: source `s` spreads its
    /// send total over the destinations in proportion to their
    /// weights, by systematic sampling from a seeded phase.
    fn grid_matrix<'a>(send: &'a [u64], weights: &[u64]) -> impl Fn(usize, usize) -> u64 + 'a {
        let mut cum = vec![0u64];
        for &w in weights {
            cum.push(cum.last().unwrap() + w);
        }
        let n = cum.last().unwrap().max(&1).to_owned();
        let phase: Vec<u64> = (0..send.len())
            .map(|s| (unit_draw(0x5eed, &[s as u64]) * n as f64) as u64 % n)
            .collect();
        move |s: usize, d: usize| {
            let at = |c: u64| ((c as u128 * send[s] as u128 + phase[s] as u128) / n as u128) as u64;
            at(cum[d + 1]) - at(cum[d])
        }
    }

    /// Every arm weighed against the pick: one-factor, Bruck and staged
    /// `k = 2, 4, …` up to one stage (`k = P`).
    fn grid_arms(p: usize) -> Vec<AllToAllAlgo> {
        let mut arms = vec![AllToAllAlgo::OneFactor, AllToAllAlgo::Bruck];
        let mut k = 2;
        loop {
            arms.push(AllToAllAlgo::StagedKWay { k: k.min(p) });
            if k >= p {
                return arms;
            }
            k *= 2;
        }
    }

    /// The charged price of `algo`: the latest end over the ranks.
    fn charged(
        cost: &CostModel,
        placed: &[Placement],
        elem: u64,
        algo: AllToAllAlgo,
        index: &impl Blocks,
    ) -> u64 {
        let ends = alltoallv_ns(cost, placed, elem, algo, index);
        ends.into_iter().max().unwrap_or(0)
    }

    /// The pick over one count matrix, with every arm's charged price.
    fn grid_pick(
        cost: &CostModel,
        placed: &[Placement],
        elem: u64,
        count: &dyn Fn(usize, usize) -> u64,
    ) -> (AllToAllAlgo, Vec<(AllToAllAlgo, u64)>) {
        let index = dense(placed.len(), count);
        let pick = pick_schedule(cost, placed, elem, index.send(), index.recv());
        let prices = grid_arms(placed.len())
            .into_iter()
            .map(|a| (a, charged(cost, placed, elem, a, &index)))
            .collect();
        (pick, prices)
    }

    /// The schedule rule's grid over `ps`, on the Table I cluster and
    /// the one-node Fig. 4 machine (and the small test cluster where it
    /// places ranks differently, below 16), 4 to 256 Ki `u64` keys per
    /// rank, the four [`grid_totals`] patterns:
    /// - the pick is charged no more than one-factor;
    /// - where an arm undercuts one-factor by more than 10 %, the pick
    ///   is within 5 % of the cheapest arm.
    ///
    /// A matrix the totals cannot tell from uniform — nearly sorted
    /// input, where each rank keeps half its keys and sends its next
    /// neighbour the rest — is held to the first bound only.
    ///
    /// Every pick is pinned besides: each topology × P is one line of
    /// [`GOLDEN_PICKS`], its 25 picks in `nper`-major order.
    fn check_pick_grid(ps: &[usize]) {
        let cost = CostModel::supermuc_phase2();
        let elem = 8;
        let mut moved = Vec::new();
        for &p in ps {
            let members: Vec<usize> = (0..p).collect();
            let mut topologies = vec![
                ("cluster", Topology::supermuc_phase2(p)),
                ("node", Topology::single_node(p)),
            ];
            if p < 16 {
                topologies.push(("small", Topology::new(p, p, 4, 7)));
            }
            for (name, topology) in &topologies {
                let placed = placements(topology, &members);
                let mut line = format!("{name} {p}:");
                for nper in [4u64, 1 << 6, 1 << 10, 1 << 14, 1 << 18] {
                    for pattern in 0..5 {
                        let (send, recv) = grid_totals(pattern.min(3), p, nper);
                        let spread = grid_matrix(&send, &recv);
                        let sorted = |s: usize, d: usize| {
                            let half = nper / 2;
                            u64::from(d == s) * (nper - half) + u64::from(d == (s + 1) % p) * half
                        };
                        let count: &dyn Fn(usize, usize) -> u64 =
                            if pattern < 4 { &spread } else { &sorted };
                        let (pick, prices) = grid_pick(&cost, &placed, elem, count);
                        let price =
                            |a: AllToAllAlgo| prices.iter().find(|x| x.0 == a).expect("an arm").1;
                        let (one_factor, picked) = (price(AllToAllAlgo::OneFactor), price(pick));
                        let best = prices.iter().map(|x| x.1).min().expect("arms");
                        let cell = format!("{topology:?} pattern {pattern} nper {nper}: pick {pick:?} {picked}, arms {prices:?}");
                        assert!(picked <= one_factor, "{cell}");
                        if pattern < 4 && (best as f64) < 0.9 * one_factor as f64 {
                            assert!(picked as f64 <= 1.05 * best as f64, "{cell}");
                        }
                        line += &match pick {
                            AllToAllAlgo::OneFactor => " 1f".to_string(),
                            AllToAllAlgo::Bruck => " br".to_string(),
                            AllToAllAlgo::StagedKWay { k } => format!(" s{k}"),
                            AllToAllAlgo::Priced => unreachable!("an arm"),
                        };
                    }
                }
                if !GOLDEN_PICKS.lines().any(|l| l == line) {
                    moved.push(line);
                }
            }
        }
        assert!(moved.is_empty(), "picks moved:\n{}", moved.join("\n"));
    }

    /// The pick on every cell of [`check_pick_grid`]: `1f` one-factor,
    /// `br` Bruck, `s<k>` staged `k`-way.
    const GOLDEN_PICKS: &str = include_str!("pick_schedule_golden.txt");

    #[test]
    fn pick_schedule_grid() {
        check_pick_grid(&[2, 3, 4, 5, 8, 16, 17, 32, 64, 128, 256]);
    }

    /// The grid from `P = 512` to `4096`: minutes of pricing and a few
    /// hundred MiB for the dense staged cells, so release mode only.
    #[test]
    #[ignore = "release-mode sweep: cargo test --release -p dhs-runtime --lib -- --ignored pick_schedule_grid_at_scale"]
    fn pick_schedule_grid_at_scale() {
        check_pick_grid(&[512, 1024, 2048, 4096]);
    }

    /// The pick is the A4 winner on every row of the schedule crossover
    /// (`ablation_exchange`, P = 128 on the Table I cluster, each rank's
    /// keys cut into `⌈n/P⌉`-key chunks for the first destinations):
    /// Bruck at 4, 64 and 1 Ki keys per rank, `staged:8` at 16 Ki,
    /// one-factor at 256 Ki — and no more expensive than the winner.
    #[test]
    fn pick_is_the_a4_winner() {
        let cost = CostModel::supermuc_phase2();
        let p = 128;
        let members: Vec<usize> = (0..p).collect();
        let placed = placements(&Topology::supermuc_phase2(p), &members);
        let rows = [
            (4u64, AllToAllAlgo::Bruck),
            (1 << 6, AllToAllAlgo::Bruck),
            (1 << 10, AllToAllAlgo::Bruck),
            (1 << 14, AllToAllAlgo::StagedKWay { k: 8 }),
            (1 << 18, AllToAllAlgo::OneFactor),
        ];
        for (nper, winner) in rows {
            let chunk = nper.div_ceil(p as u64);
            let count = |_: usize, d: usize| chunk.min(nper.saturating_sub(d as u64 * chunk));
            let a4 = [
                AllToAllAlgo::OneFactor,
                AllToAllAlgo::Bruck,
                AllToAllAlgo::StagedKWay { k: 8 },
            ]
            .map(|a| (a, charged(&cost, &placed, 8, a, &dense(p, &count))));
            let cheapest = a4.iter().min_by_key(|x| x.1).expect("three arms");
            assert_eq!(cheapest.0, winner, "nper {nper}: {a4:?}");
            let (pick, _) = grid_pick(&cost, &placed, 8, &count);
            assert_eq!(pick, winner, "nper {nper}: {a4:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Bit for bit on ragged matrices, every machine shape up to
        /// 4 × 4 × 3, sub-communicators picked and ordered by a seeded
        /// shuffle, inside and outside the degradation window.
        #[test]
        fn one_factor_sweep_matches_the_per_rank_formula(
            shape in (1usize..5, 1usize..5, 1usize..4),
            (seed, empty_permille) in (0u64..1_000_000, 0u64..1001),
            keep_permille in 100u64..1001,
            elem in 0usize..4,
            at in 0usize..4,
        ) {
            let ranks = shape.0 * shape.1 * shape.2;
            let mut members: Vec<usize> = (0..ranks)
                .filter(|&r| unit_draw(seed, &[r as u64, 7]) * 1000.0 < keep_permille as f64)
                .collect();
            if members.is_empty() {
                members.push(ranks - 1);
            }
            let order = |r: &usize| unit_draw(seed, &[*r as u64, 8]);
            members.sort_by(|a, b| order(a).total_cmp(&order(b)));
            let matrix = (seed, empty_permille, [1, 4, 8, 16][elem]);
            check_one_factor(shape, &members, matrix, [0, 1_000, 1_999, 2_000][at]);
        }
    }
}
