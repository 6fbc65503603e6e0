//! The α–β communication cost model and compute work charging.
//!
//! Virtual time is kept in integer nanoseconds. A one-sided transfer
//! between two ranks costs `α(link) + bytes · β(link)`; collectives use the
//! standard recursive-doubling / binomial-tree formulas over `⌈log₂ P⌉`
//! rounds at the worst link class present in the communicator, except the
//! personalized all-to-all exchanges which are charged per peer along a
//! 1-factor pairwise schedule (Sanders & Träff \[34\] in the paper).
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

    /// Recursive-doubling allreduce of `bytes` per rank; includes the
    /// per-byte reduction work.
    pub fn allreduce_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        let gamma = self.move_byte_ns + 0.2; // combine = load + op per byte
        ceil_ns(rounds * (l.alpha_ns + bytes as f64 * (l.beta_ns_per_byte + gamma)))
    }

    /// Recursive-doubling allgather: `bytes` contributed per rank,
    /// `(p-1)·bytes` received.
    pub fn allgather_ns(&self, class: LinkClass, p: usize, bytes_per_rank: u64) -> u64 {
        let l = self.link(class);
        let rounds = log2_ceil(p) as f64;
        let recv = (p.saturating_sub(1)) as f64 * bytes_per_rank as f64;
        ceil_ns(rounds * l.alpha_ns + recv * l.beta_ns_per_byte)
    }

    /// Exclusive scan: same round structure as allreduce.
    pub fn exscan_ns(&self, class: LinkClass, p: usize, bytes: u64) -> u64 {
        self.allreduce_ns(class, p, bytes)
    }

    /// Personalized all-to-all along a 1-factor schedule: the rank pays
    /// `α + bytes·β` per peer at that peer's link class (plus a memcpy
    /// for its own diagonal block). `per_peer` yields `(link, bytes)` for
    /// every peer of this rank.
    pub fn alltoallv_rank_ns<I>(&self, per_peer: I) -> u64
    where
        I: IntoIterator<Item = (LinkClass, u64)>,
    {
        let mut total = 0.0;
        for (class, bytes) in per_peer {
            total += self.alltoallv_peer_ns(class, bytes);
        }
        ceil_ns(total)
    }

    /// One peer's term of [`CostModel::alltoallv_rank_ns`], before the
    /// sum is rounded: the same `(link, bytes)` term is a summand of the
    /// sender's send side and of the receiver's receive side.
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
/// Bruck replaces one-factor, and then the cheapest staged arm the pick
/// so far, only by undercutting it by 5 % (`PICK_MARGIN`). A staged arm
/// is priced level by level and dropped as soon as its running bound
/// reaches that bar or the cheapest staged arm so far, since it can no
/// longer be picked. Every rank computes the same pick from the same
/// replicated inputs, in `O(P log² P)`.
pub fn pick_schedule(
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
    let mut estimate = Estimate::new(cost, placement, elem_bytes, send_totals, recv_totals);
    let one_factor = estimate.one_factor(recv_totals);
    let bruck = estimate.bruck();
    let (pick, price) = if bruck < one_factor * (1.0 - PICK_MARGIN) {
        (AllToAllAlgo::Bruck, bruck)
    } else {
        (AllToAllAlgo::OneFactor, one_factor)
    };
    // The cheapest staged arm replaces the pick only below `bar`.
    let bar = price * (1.0 - PICK_MARGIN);
    let mut best: Option<(AllToAllAlgo, f64)> = None;
    let fan_outs = std::iter::successors(Some(4.min(p)), |&k| (k < p).then(|| (2 * k).min(p)));
    for k in fan_outs {
        let cap = best.map_or(bar, |b| b.1);
        if let Some(price) = estimate.staged(k, cap) {
            best = Some((AllToAllAlgo::StagedKWay { k }, price));
        }
    }
    best.map_or(pick, |b| b.0)
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
/// read of the communicator and the totals, and one working [`Slot`]
/// per rank, reused from arm to arm.
struct Estimate<'a> {
    cost: &'a CostModel,
    placement: &'a [Placement],
    elem_bytes: u64,
    send: &'a [u64],
    rates: Rates,
    /// Whether `placement` is in block order (sorted by node, then
    /// domain): the world's, and any split's that keeps rank order.
    block_order: bool,
    /// Receive total and receiving ranks of the communicator.
    recv_total: (f64, f64),
    /// The busiest receiver's balls-into-bins factor, `2 ln P`.
    deviation: f64,
    slots: Vec<Slot>,
    /// The staged recursion's blocks, level after level.
    blocks: Vec<Block>,
}

/// One rank's working state in an [`Estimate`].
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Its node's and its NUMA domain's runs of ranks `[lo, hi)`, in
    /// block order.
    runs: [(usize, usize); 2],
    /// Receive total and receiving ranks of the ranks before it.
    before: (f64, f64),
    /// What it holds entering its block, in the communicator and then
    /// at an odd and an even level ([`Block::buffer`]).
    held: [Held; 3],
    /// Its [`PeerMix`] in its block, by level like `held`.
    mix: [PeerMix; 3],
    /// The current stage's two [`Column`]s at its offset in its block.
    columns: [Column; 2],
}

/// A block of the staged recursion: `q` ranks from `lo`, which its
/// members enter at `start`, at recursion depth `level`.
#[derive(Clone, Copy)]
struct Block {
    lo: usize,
    q: usize,
    start: f64,
    level: usize,
}

impl Block {
    /// The slot entries a block at `level` reads: the communicator's
    /// (`0`, never written) at level 0, below it two that alternate.
    fn buffer(level: usize) -> usize {
        if level == 0 {
            0
        } else {
            1 + level % 2
        }
    }
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
        recv: &[u64],
    ) -> Self {
        let p = placement.len();
        let key = |i: usize| (placement[i].node, placement[i].numa);
        let block_order = (1..p).all(|i| key(i - 1) <= key(i));
        let mut slots = vec![Slot::default(); p];
        let mut received = (0.0, 0.0);
        for (slot, &r) in slots.iter_mut().zip(recv) {
            slot.before = received;
            received = (
                received.0 + r as f64,
                received.1 + f64::from(u8::from(r > 0)),
            );
        }
        for (slot, &s) in slots.iter_mut().zip(send) {
            slot.held[0] = Held {
                elems: s as f64,
                units: (s as f64).min(received.1),
            };
        }
        if block_order {
            let mut a = 0;
            while a < p {
                let node = placement[a].node;
                let b = a + placement[a..].iter().take_while(|x| x.node == node).count();
                let mut c = a;
                while c < b {
                    let numa = placement[c].numa;
                    let e = c + placement[c..b]
                        .iter()
                        .take_while(|x| x.numa == numa)
                        .count();
                    for slot in &mut slots[c..e] {
                        slot.runs = [(a, b), (c, e)];
                    }
                    c = e;
                }
                a = b;
            }
        }
        let mut estimate = Estimate {
            cost,
            placement,
            elem_bytes,
            send,
            rates: Rates::of(cost),
            block_order,
            recv_total: received,
            deviation: 2.0 * (p as f64).ln(),
            slots,
            blocks: Vec::new(),
        };
        estimate.mix_in(0, p, |slot| &mut slot.mix[0]);
        estimate
    }

    /// The [`PeerMix`] of each of ranks `lo..hi` among the others, into
    /// `into` of its slot: in block order in O(1) a rank from its runs,
    /// else by grouping the ranks.
    fn mix_in(&mut self, lo: usize, hi: usize, into: impl Fn(&mut Slot) -> &mut PeerMix) {
        if !self.block_order {
            let mix = peer_mix(&self.placement[lo..hi]);
            for (slot, mix) in self.slots[lo..hi].iter_mut().zip(mix) {
                *into(slot) = mix;
            }
            return;
        }
        for slot in &mut self.slots[lo..hi] {
            let [node, numa] = slot.runs;
            let numa = numa.1.min(hi) - numa.0.max(lo);
            let node = node.1.min(hi) - node.0.max(lo);
            *into(slot) = [numa - 1, node - numa, (hi - lo) - node];
        }
    }

    /// Receive total and receiving ranks of ranks `a..b`.
    fn received(&self, a: usize, b: usize) -> (f64, f64) {
        let top = self
            .slots
            .get(b)
            .map_or(self.recv_total, |slot| slot.before);
        let bottom = self.slots[a].before;
        (top.0 - bottom.0, top.1 - bottom.1)
    }

    /// One-factor's estimate: the busiest rank's.
    fn one_factor(&self, recv: &[u64]) -> f64 {
        let elem = self.elem_bytes as f64;
        // Ranks of one domain share their peer mix, and so its rates.
        let mut rates = ([usize::MAX; 3], 0.0, 0.0);
        let ranks = self.slots.iter().zip(self.send).zip(recv);
        ranks
            .map(|((slot, &s), &r)| {
                let mix = &slot.mix[0];
                if *mix != rates.0 {
                    rates = (*mix, self.rates.alpha(mix), self.rates.mean_beta(mix));
                }
                rates.1 + s.max(r) as f64 * elem * rates.2
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

    /// The staged `k`-way arm's latest estimated end over every rank,
    /// or `None` as soon as it is bound to reach `cap`: every end below
    /// a block is at least its members' entry plus its split, or plus
    /// any part of its stage. Blocks are priced level after level.
    fn staged(&mut self, k: usize, cap: f64) -> Option<f64> {
        let p = self.slots.len();
        let root = Block {
            lo: 0,
            q: p,
            start: 0.0,
            level: 0,
        };
        if k >= p {
            // One stage, and no block below it.
            return self.stage(root, p, cap).filter(|&end| end < cap);
        }
        self.blocks.clear();
        self.blocks.push(root);
        let mut end = 0.0f64;
        let mut next_block = 0;
        while let Some(&block) = self.blocks.get(next_block) {
            next_block += 1;
            let Block {
                lo,
                q,
                start,
                level,
            } = block;
            if q <= 1 {
                end = end.max(start);
                continue;
            }
            let kk = k.min(q);
            if kk == q {
                end = end.max(start + self.stage(block, kk, cap)?);
            } else {
                let members = self.placement[lo..lo + q].iter().copied();
                let split = self.cost.comm_split_ns(worst_link_among(members), q) as f64;
                if start + split >= cap {
                    return None;
                }
                let next = start + self.stage(block, kk, cap)? + split;
                end = end.max(next);
                self.blocks.extend(sub_blocks(q, kk).map(|(a, b)| Block {
                    lo: lo + a,
                    q: b - a,
                    start: next,
                    level: level + 1,
                }));
            }
            if end >= cap {
                return None;
            }
        }
        Some(end)
    }

    /// The stage of `block`, cut into `kk` sub-blocks `g·q/kk`: its
    /// latest estimated end after its members enter, or `None` once the
    /// entry plus the stage so far reaches `cap`. Unless it is the last
    /// stage (`kk == q`), it writes what each member holds after it,
    /// and its [`PeerMix`] in its sub-block, for the next level. Every
    /// holder splits what it holds over the sub-blocks in proportion to
    /// their receive totals, and its carrier in sub-block `g` — the
    /// member at its offset — takes `g`'s share, as the charged
    /// schedule routes it.
    fn stage(&mut self, block: Block, kk: usize, cap: f64) -> Option<f64> {
        let Block {
            lo,
            q,
            start,
            level,
        } = block;
        let (now, then) = (Block::buffer(level), Block::buffer(level + 1));
        let last = kk == q;
        let (block_total, block_receivers) = self.received(lo, lo + q);
        // The member at offset `o` of sub-block `g` carries for the
        // members at offset `o` modulo `g`'s size of every sub-block;
        // sub-blocks come in at most two sizes, with a column each.
        let sizes = [q / kk, q.div_ceil(kk)];
        let two = sizes[1] != sizes[0];
        for slot in &mut self.slots[lo..lo + sizes[1]] {
            slot.columns = Default::default();
        }
        for (a, b) in sub_blocks(q, kk) {
            for (c, size) in sizes.into_iter().take(1 + usize::from(two)).enumerate() {
                let mut at = lo;
                for m in lo + a..lo + b {
                    let held = self.slots[m].held[now];
                    self.slots[at].columns[c].add(held);
                    at = if at + 1 == lo + size { lo } else { at + 1 };
                }
            }
        }
        let mut stage = 0.0f64;
        // Members of one domain in one sub-block meet the same peers
        // outside it: their mean rates are computed once.
        let mut rates = ([usize::MAX; 3], (0.0, 0.0));
        for (a, b) in sub_blocks(q, kk) {
            let (lo_g, hi_g) = (lo + a, lo + b);
            let (total, receivers) = self.received(lo_g, hi_g);
            let share = total / block_total.max(1.0);
            let share_units = receivers / block_receivers.max(1.0);
            let c = usize::from(two && b - a == sizes[1]);
            if !last {
                self.mix_in(lo_g, hi_g, |slot| &mut slot.mix[then]);
            }
            for m in lo_g..hi_g {
                let Slot { held, mix, .. } = &self.slots[m];
                let out: PeerMix = if last {
                    mix[now]
                } else {
                    std::array::from_fn(|i| mix[now][i] - mix[then][i])
                };
                if out != rates.0 {
                    rates = (out, self.rates.mean(&out));
                }
                let mine = held[now];
                let col = self.slots[lo + (m - lo_g)].columns[c];
                let keep = Held {
                    elems: mine.elems * share,
                    units: mine.units * share_units,
                };
                let (senders, var) = col.senders(share);
                let me = (mine.units * share).min(1.0);
                let (others, var) = (senders - me, var - me * (1.0 - me));
                let elems = col.held.elems * share;
                let arrived = Held {
                    elems,
                    units: elems.min((col.held.units * share_units).max(senders)),
                };
                self.slots[m].held[then] = arrived;
                let moved_out = mine.minus(keep);
                let moved_in = arrived.minus(keep);
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
                    .side(rates.1, fan_out, moved_out, keep)
                    .max(self.side(rates.1, fan_in, moved_in, keep));
                stage = stage.max(cost);
            }
            if start + stage >= cap {
                return None;
            }
        }
        Some(stage)
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

/// The `kk` sub-blocks `[g·q/kk, (g+1)·q/kk)` of a block of `q`
/// ranks, stepped without a division per bound.
fn sub_blocks(q: usize, kk: usize) -> impl Iterator<Item = (usize, usize)> {
    let (len, rem) = (q / kk, q % kk);
    let (mut at, mut carry) = (0, 0);
    (0..kk).map(move |_| {
        carry += rem;
        let wide = carry >= kk;
        carry -= if wide { kk } else { 0 };
        let block = (at, at + len + usize::from(wide));
        at = block.1;
        block
    })
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
    /// order (counted from the runs) and shuffled (a sub-communicator
    /// may list its members in any order; counted by grouping).
    #[test]
    fn peer_mix_counts_every_pair() {
        use crate::topology::Topology;
        let topology = Topology::new(40, 16, 4, 7);
        let cost = CostModel::default();
        let totals = vec![1; 40];
        let mut ranks: Vec<usize> = (0..40).collect();
        for shuffle in [false, true] {
            if shuffle {
                ranks.sort_by_key(|&r| (r * 17 + 5) % 40);
            }
            let placed: Vec<Placement> = ranks.iter().map(|&r| topology.placement(r)).collect();
            let mut estimate = Estimate::new(&cost, &placed, 8, &totals, &totals);
            assert_eq!(estimate.block_order, !shuffle);
            for (lo, hi) in [(0, 40), (0, 1), (3, 9), (5, 21), (14, 37), (39, 40)] {
                estimate.mix_in(lo, hi, |slot| &mut slot.mix[1]);
                for i in lo..hi {
                    let mut want = [0; 3];
                    for j in (lo..hi).filter(|&j| j != i) {
                        let class = placed[i].link_to(placed[j]);
                        want[PEER_CLASSES.iter().position(|&c| c == class).unwrap()] += 1;
                    }
                    let cell = format!("rank {} of {lo}..{hi}, shuffled {shuffle}", ranks[i]);
                    assert_eq!(estimate.slots[i].mix[1], want, "{cell}");
                    if (lo, hi) == (0, 40) {
                        assert_eq!(estimate.slots[i].mix[0], want, "{cell}");
                    }
                }
            }
        }
    }

    /// The staged estimate's sub-blocks are `[g·q/kk, (g+1)·q/kk)`.
    #[test]
    fn sub_blocks_cut_at_the_division_bounds() {
        for q in 1..70 {
            for kk in 1..=q {
                let want: Vec<(usize, usize)> =
                    (0..kk).map(|g| (g * q / kk, (g + 1) * q / kk)).collect();
                assert_eq!(sub_blocks(q, kk).collect::<Vec<_>>(), want, "q {q} kk {kk}");
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
        let only_self = m.alltoallv_rank_ns([(LinkClass::SelfLoop, 1024)]);
        assert!((only_self as f64) < m.inter_node.alpha_ns);
    }
}
