//! The communicator handle: the MPI-like surface algorithms program to.
//!
//! A [`Comm`] belongs to exactly one rank-thread. Collectives move real
//! data through shared memory while virtual time advances according to
//! the cost model (see [`crate::cost`]). They are the only transport:
//! a pairwise step (bitonic's compare-split) is a [`Comm::exchange`]
//! with one non-empty segment, priced sparsely by
//! [`AllToAllAlgo::StagedKWay`] with `k ≥ P`.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::mem;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::buffer::{BufferPool, RecvRuns, SharedSlice};
use crate::cost::{ceil_ns, pick_schedule, CostModel, Work, STAGE_HEADER_BYTES};
use crate::fault::{RankAbort, RankError};
use crate::state::{CollectiveCtx, CommState, EndTimes, World};
use crate::stats::{RankLocal, RankReport};
use crate::threads::ThreadPool;
use crate::topology::{LinkClass, Placement, Topology};
use crate::trace::{SpanGuard, TraceSink};

/// Schedule used for the personalized all-to-all exchange (§VI-E1 of
/// the paper discusses picking per message size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllToAllAlgo {
    /// Pairwise 1-factorization: `P-1` direct rounds; bandwidth-optimal
    /// (each byte crosses once), `O(P)` message latencies. Recorded win
    /// (A4, P = 128): 492.3 µs vs `staged:8` 594.7 µs vs Bruck 1.18 ms
    /// at 256 Ki keys/rank.
    OneFactor,
    /// Bruck-style store-and-forward: `⌈log₂P⌉` rounds; latency-optimal
    /// for small `N/P`, but bytes travel `~log₂(P)/2` hops. Recorded
    /// win (ablation A4, `results/full_suite.txt`, P = 128): 10.5 µs vs
    /// `staged:8` 31.2 µs vs one-factor 176.3 µs at 4 keys/rank, and
    /// still 15.1 vs 33.3 µs at 1024 keys/rank; `staged:8` takes over
    /// at 16 Ki keys/rank (66.3 vs 83.9 µs).
    Bruck,
    /// HykSort-style recursive `k`-way staging: the communicator is
    /// cut into `k` contiguous blocks, every rank forwards each
    /// destination block's traffic (tagged with its final destination)
    /// to one peer of that block, then the blocks recurse — `⌈log_k
    /// P⌉` stages of at most `k − 1` messages each instead of the
    /// one-factor's `P − 1` direct messages. Latency drops from `O(P·α)`
    /// to `O(k·log_k P·α)`; bytes pay β once **per stage**, so large
    /// payloads should stay on the bandwidth-optimal
    /// [`AllToAllAlgo::OneFactor`]. Like the other variants it is a
    /// charging formula over one rendezvous: the combine prices every
    /// stage's hops over the count matrix, and each sub-block opens at
    /// its parent's last hop plus the [`Comm::split`] that would carve
    /// it. Recorded win (A4, P = 128): `staged:8` 66.3 µs vs Bruck
    /// 83.9 µs vs one-factor 195.9 µs at 16 Ki keys/rank.
    StagedKWay {
        /// Fan-out per stage (number of blocks); at least 2. Fan-outs
        /// `k ≥ P` degenerate to one direct (sparsely charged) stage:
        /// a one-peer exchange (bitonic's compare-split) pays one
        /// `α + (bytes + 8)·β` term per side and nothing for the empty
        /// peers the one-factor arm would charge α for.
        k: usize,
    },
    /// The schedule priced cheapest for this exchange:
    /// [`crate::cost::pick_schedule`] over the deposited send and
    /// receive totals resolves it to one of the arms above, inside
    /// [`Comm::exchange`], the same on every rank. The default of the
    /// histogram sort.
    Priced,
}

/// A communicator handle for one rank. Cheap to pass around by
/// reference; owned by a single thread.
pub struct Comm {
    state: Arc<CommState>,
    rank: usize,
    /// Number of collectives this rank has completed on this
    /// communicator (the cell generation it may enter next).
    gen: Cell<u64>,
    /// Fault plan lookups cached per communicator handle (all `None`/1.0
    /// on a healthy rank, so the hot-path checks are branch-predictable).
    crash_at_ns: Option<u64>,
    straggler_factor: f64,
    /// Scratch-buffer free lists reused across collective rounds.
    pool: BufferPool,
    /// Intra-rank host-thread budget for hybrid rank×thread execution.
    threads: ThreadPool,
}

/// Compute charges priced for one rank and summed off its clock (see
/// [`Comm::charges`], [`Comm::post`]). Plain data: a worker thread can
/// fill a [`Charges::fork`] of its own and the owner
/// [`Charges::append`]s the forks in item order.
pub struct Charges<'a> {
    cost: &'a CostModel,
    straggler_factor: f64,
    /// Sum of the priced items.
    ns: u64,
    /// The priced items one by one, kept only on a rank with a crash
    /// deadline: [`Comm::post`] must find the item it dies before.
    items: Option<Vec<u64>>,
}

impl Charges<'_> {
    /// Price `work` for this rank — per item, exactly as a lone
    /// [`Comm::charge`] does — and add it to the batch.
    #[inline]
    pub fn add(&mut self, work: Work) {
        let mut ns = self.cost.work_ns(work);
        if self.straggler_factor != 1.0 {
            ns = ceil_ns(ns as f64 * self.straggler_factor);
        }
        self.ns += ns;
        if let Some(items) = &mut self.items {
            items.push(ns);
        }
    }

    /// An empty batch priced like this one, for a share of the items
    /// that is charged elsewhere (another thread) and appended later.
    pub fn fork(&self) -> Self {
        Self {
            ns: 0,
            items: self.items.as_ref().map(|_| Vec::new()),
            ..*self
        }
    }

    /// Append the items of `later` after this batch's own.
    pub fn append(&mut self, later: Self) {
        self.ns += later.ns;
        if let (Some(items), Some(more)) = (&mut self.items, later.items) {
            items.extend(more);
        }
    }
}

/// A type-erased borrowed view of slices living on the depositing
/// rank's stack, deposited into [`CommState::collective_view`] and read
/// only under that function's safety contract.
struct RawParts<T> {
    parts: Vec<(*const T, usize)>,
}

// SAFETY: a `RawParts` is a list of `&[T]` with the lifetime erased, so
// it crosses threads under the rule for `&[T]`: moving it to another
// thread lets that thread read the `T`s through `slice`, which is sound
// for `T: Sync`. The erased lifetime is restored by `slice`'s contract
// (windows 3–4 of `collective_view`), not by this impl.
unsafe impl<T: Sync> Send for RawParts<T> {}
// SAFETY: `&RawParts<T>` offers `len` (plain data) and `slice`, shared
// reads of the `T`s from several threads at once: sound for `T: Sync`.
unsafe impl<T: Sync> Sync for RawParts<T> {}

impl<T> RawParts<T> {
    fn of(slices: &[&[T]]) -> Self {
        Self {
            parts: slices.iter().map(|s| (s.as_ptr(), s.len())).collect(),
        }
    }

    fn len(&self, i: usize) -> usize {
        self.parts[i].1
    }

    /// # Safety
    /// Call only from a `collective_view` combine (window 3) or from an
    /// extract under the exit barrier (window 4).
    unsafe fn slice(&self, i: usize) -> &[T] {
        let (ptr, len) = self.parts[i];
        // SAFETY: `(ptr, len)` came from a live `&[T]` in `of`; inside
        // the windows the caller vouches for, the depositing rank is
        // still blocked in the collective, so the slice is alive and
        // nobody writes it.
        std::slice::from_raw_parts(ptr, len)
    }
}

/// Per-rank cost of the pairwise 1-factor schedule: max(send side,
/// recv side), each side [`CostModel::alltoallv_rank_ns`] over the
/// rank's `P` peers.
fn one_factor_costs(
    ctx: &CollectiveCtx<'_>,
    placed: &[Placement],
    elem: u64,
    count: impl Fn(usize, usize) -> u64,
) -> Vec<u64> {
    let (send, recv) = one_factor_sides(ctx, placed, elem, count);
    send.iter()
        .zip(&recv)
        .map(|(&s, &r)| ceil_ns(s).max(ceil_ns(r)))
        .collect()
}

/// The unrounded send-side and receive-side sums of every rank under
/// the 1-factor schedule. Every `(link, bytes)` term belongs to two of
/// those `2·P` sums — its sender's and its receiver's — so one
/// row-major pass over the count matrix, over the `P` placements `placed`
/// looked up once, adds it to both. Peers are met in ascending order on
/// either side (`send[s]` over `d`, `recv[d]` over `s`), the order the
/// per-rank formula sums them in: each f64 sum, and so each end time,
/// is the same to the bit.
fn one_factor_sides(
    ctx: &CollectiveCtx<'_>,
    placed: &[Placement],
    elem: u64,
    count: impl Fn(usize, usize) -> u64,
) -> (Vec<f64>, Vec<f64>) {
    let p = placed.len();
    let mut send = Vec::with_capacity(p);
    let mut recv = vec![0.0f64; p];
    for (s, from) in placed.iter().enumerate() {
        let mut row = 0.0f64;
        for (d, (to, col)) in placed.iter().zip(&mut recv).enumerate() {
            let link = if s == d {
                LinkClass::SelfLoop
            } else {
                from.link_to(*to)
            };
            let term = ctx.cost.alltoallv_peer_ns(link, count(s, d) * elem);
            row += term;
            *col += term;
        }
        send.push(row);
    }
    (send, recv)
}

/// Per-rank virtual end times of a personalized all-to-all under
/// `algo`, where `count(s, d)` is the number of elements rank `s`
/// sends rank `d`. The model reads only lengths and link classes,
/// never the payloads. [`AllToAllAlgo::Priced`] is resolved here, from
/// the matrix's row and column totals alone, and priced as the arm it
/// picks.
fn alltoallv_end_times(
    ctx: &CollectiveCtx<'_>,
    p: usize,
    elem: u64,
    algo: AllToAllAlgo,
    count: impl Fn(usize, usize) -> u64,
) -> Vec<u64> {
    let placed: Vec<Placement> = ctx.global_ranks[..p]
        .iter()
        .map(|&g| ctx.topology.placement(g))
        .collect();
    let mut send_totals = None;
    let algo = match algo {
        AllToAllAlgo::Priced => {
            let (send, recv) = exchange_totals(p, &count);
            let pick = pick_schedule(ctx.cost, &placed, elem, &send, &recv);
            send_totals = Some(send);
            pick
        }
        algo => algo,
    };
    let mut ends = match algo {
        AllToAllAlgo::OneFactor => one_factor_costs(ctx, &placed, elem, &count),
        // Store-and-forward: log P rounds at the worst link,
        // shipping ~half the personalized payload per round.
        AllToAllAlgo::Bruck => send_totals
            .unwrap_or_else(|| exchange_totals(p, &count).0)
            .into_iter()
            .map(|total| {
                ctx.cost
                    .alltoallv_bruck_rank_ns(ctx.worst_link, p, total * elem)
            })
            .collect(),
        AllToAllAlgo::StagedKWay { k } => staged_costs(ctx, p, elem, k, count),
        AllToAllAlgo::Priced => unreachable!("resolved to an arm above"),
    };
    for end in &mut ends {
        *end += ctx.enter_max_ns;
    }
    ends
}

/// Every rank's send total (row sums) and receive total (column sums)
/// of the count matrix, in elements.
fn exchange_totals(p: usize, count: impl Fn(usize, usize) -> u64) -> (Vec<u64>, Vec<u64>) {
    let mut send = Vec::with_capacity(p);
    let mut recv = vec![0u64; p];
    for s in 0..p {
        let mut row = 0;
        for (d, col) in recv.iter_mut().enumerate() {
            let c = count(s, d);
            row += c;
            *col += c;
        }
        send.push(row);
    }
    (send, recv)
}

/// One non-empty `(src, dst)` block of a staged exchange, forwarded
/// whole from stage to stage: the communicator rank carrying it into
/// the current stage, its final destination, and its wire size
/// (payload plus routing header).
struct Routed {
    holder: usize,
    dst: usize,
    bytes: u64,
}

/// Per-rank cost of the staged `k`-way schedule
/// ([`AllToAllAlgo::StagedKWay`]), relative to the exchange's start:
/// [`price_stages`] over every non-empty block, listed in destination
/// order so that each sub-block's blocks are one run at every stage.
fn staged_costs(
    ctx: &CollectiveCtx<'_>,
    p: usize,
    elem: u64,
    k: usize,
    count: impl Fn(usize, usize) -> u64,
) -> Vec<u64> {
    let count = &count;
    let mut units: Vec<Routed> = (0..p)
        .flat_map(|dst| (0..p).map(move |holder| (holder, dst, count(holder, dst))))
        .filter(|&(.., c)| c > 0)
        .map(|(holder, dst, c)| Routed {
            holder,
            dst,
            bytes: c * elem + STAGE_HEADER_BYTES,
        })
        .collect();
    let mut ends = vec![0u64; p];
    price_stages(ctx, k, (0, p), 0, &mut units, &mut ends);
    ends
}

/// Price one stage of the block of `q` communicator ranks starting at
/// `lo`, which every member enters at `start`, then recurse into its
/// sub-blocks. `units` are the blocks bound inside it, in destination
/// order. The block is cut into `min(k, q)` contiguous sub-blocks
/// `g·q/kk`; each rank sends everything bound for sub-block `g` as one
/// message to its carrier there (itself for its own sub-block, else
/// the rank at its offset within its own sub-block, wrapped into `g`'s
/// size). A rank pays `max(send, recv)`, each side
/// [`CostModel::alltoallv_rank_ns`] over its peers in ascending order.
/// The final stage (`kk == q`) ends per rank; any other opens every
/// sub-block at its last member's end plus the block's
/// [`CostModel::comm_split_ns`].
fn price_stages(
    ctx: &CollectiveCtx<'_>,
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
    // Sub-block `g` spans `[gs(g), gs(g + 1))`; `block_of` inverts it.
    let gs = |g: usize| g * q / kk;
    let block_of = |r: usize| ((r + 1) * kk - 1) / q;
    let carrier = |m: usize, g: usize| {
        let mine = block_of(m);
        if g == mine {
            m
        } else {
            gs(g) + (m - gs(mine)) % (gs(g + 1) - gs(g))
        }
    };
    let mut bytes = vec![0u64; q * kk];
    for u in units.iter_mut() {
        let (m, g) = (u.holder - lo, block_of(u.dst - lo));
        bytes[m * kk + g] += u.bytes;
        u.holder = lo + carrier(m, g);
    }
    // Carriers ascend with `g` and senders with `m`: each side meets
    // its peers in ascending order, as `alltoallv_rank_ns` sums them.
    let members = &ctx.global_ranks[lo..lo + q];
    let (mut send, mut recv) = (vec![0.0f64; q], vec![0.0f64; q]);
    for (m, row) in bytes.chunks_exact(kk).enumerate() {
        for (g, &b) in row.iter().enumerate().filter(|&(_, &b)| b > 0) {
            let to = carrier(m, g);
            let link = ctx.topology.link(members[m], members[to]);
            let term = ctx.cost.alltoallv_peer_ns(link, b);
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
    let split = ctx.cost.comm_split_ns(ctx.topology.worst_link(members), q);
    let next = (0..q).map(stage_end).max().unwrap_or(start) + split;
    let mut rest = units;
    for g in 0..kk {
        let sub = (lo + gs(g), gs(g + 1) - gs(g));
        let cut = rest.partition_point(|u| u.dst < sub.0 + sub.1);
        let (inside, tail) = rest.split_at_mut(cut);
        price_stages(ctx, k, sub, next, inside, ends);
        rest = tail;
    }
}

/// Payload forms accepted by [`Comm::exchange`] — the single entry
/// point of the personalized all-to-all. `&[&[T]]` sends borrowed
/// segments of an already-ordered local array (any `T: Clone`: each
/// element is cloned once, by its receiver); `Vec<Vec<T>>` is the same
/// exchange over the buckets' slices, the buckets dropped afterwards.
/// Both deliver into one contiguous
/// [`RecvRuns`] buffer, under every schedule.
pub trait ExchangePayload<T> {
    /// Run the personalized exchange of this payload under `algo`.
    fn exchange_via(self, comm: &Comm, algo: AllToAllAlgo) -> RecvRuns<T>;
}

impl<T: Clone + Send + Sync + 'static> ExchangePayload<T> for Vec<Vec<T>> {
    fn exchange_via(self, comm: &Comm, algo: AllToAllAlgo) -> RecvRuns<T> {
        let views: Vec<&[T]> = self.iter().map(Vec::as_slice).collect();
        comm.alltoallv_direct_slices(&views, algo)
    }
}

impl<'a, T: Clone + Send + Sync + 'static> ExchangePayload<T> for &'a [&'a [T]] {
    fn exchange_via(self, comm: &Comm, algo: AllToAllAlgo) -> RecvRuns<T> {
        comm.alltoallv_direct_slices(self, algo)
    }
}

impl Comm {
    pub(crate) fn new(state: Arc<CommState>, rank: usize) -> Self {
        assert!(rank < state.size());
        let me_global = state.global_ranks[rank];
        let crash_at_ns = state.world.fault.crash_deadline(me_global);
        let straggler_factor = state.world.fault.straggler_factor(me_global);
        let threads = ThreadPool::new();
        // Up to `workers` ranks — and no more than there are — compute
        // concurrently; split the host's cores between them so hybrid
        // thread budgets cannot oversubscribe the worker pool.
        // Execution-only: results never depend on fan-out.
        let world = &state.world;
        let concurrent = world.sched.workers().min(world.topology.ranks());
        threads.set_host_cap((crate::threads::host_parallelism() / concurrent).max(1));
        Self {
            state,
            rank,
            gen: Cell::new(0),
            crash_at_ns,
            straggler_factor,
            pool: BufferPool::default(),
            threads,
        }
    }

    /// Kill this rank if its fault-plan crash deadline has passed. The
    /// check runs at every runtime interaction, so a crash surfaces at
    /// the first charge or collective at or after the deadline —
    /// a pure function of virtual time, hence fully deterministic.
    fn check_crash(&self) {
        if let Some(deadline) = self.crash_at_ns {
            if self.local().now_ns() >= deadline {
                if let Some(sink) = self.sink() {
                    sink.event("crash", self.local().now_ns(), None, 0, deadline);
                }
                let err = RankError::Crashed {
                    rank: self.state.global_ranks[self.rank],
                    at_ns: deadline,
                };
                // Register the death so armed survivors can detect it
                // and recover (harmless when recovery is not armed).
                self.world()
                    .mark_rank_failed(self.state.global_ranks[self.rank], err.clone());
                std::panic::panic_any(RankAbort(err));
            }
        }
    }

    /// This rank's id within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.state.size()
    }

    /// Global (world) rank of a communicator-local rank.
    pub fn global_rank(&self, local: usize) -> usize {
        self.state.global_ranks[local]
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.state.world.topology
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.state.world.cost
    }

    /// Scratch-buffer pool owned by this rank's handle. Algorithms use
    /// it to recycle per-round vectors (histogram counts, exchange
    /// staging) instead of reallocating every refinement round.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Intra-rank thread pool of this rank's handle. Local compute
    /// phases read its budget (configured per sort via
    /// `SortConfig::threads_per_rank` in `dhs-core`) and spend it on
    /// the deterministic `dhs-shm` fork–join kernels. The budget never
    /// influences the virtual clock — see [`crate::threads`].
    pub fn threads(&self) -> &ThreadPool {
        &self.threads
    }

    /// Open a span attributing local compute to the intra-rank thread
    /// pool: named `"{phase}@t{budget}"`, nested inside the phase's own
    /// span. Returns `None` with a serial budget so traces of the
    /// default configuration are unchanged. Spans never advance the
    /// clock, so this preserves the traced/untraced and
    /// any-`threads_per_rank` bit-identity contracts.
    pub fn intra_span(&self, phase: &str) -> Option<SpanGuard<'_>> {
        let t = self.threads.budget();
        (t > 1).then(|| self.span(format!("{phase}@t{t}")))
    }

    pub(crate) fn world(&self) -> &Arc<World> {
        &self.state.world
    }

    fn local(&self) -> &RankLocal {
        &self.state.world.locals[self.state.global_ranks[self.rank]]
    }

    /// This rank's trace sink, when tracing is on.
    fn sink(&self) -> Option<&TraceSink> {
        self.state
            .world
            .traces
            .as_ref()
            .map(|t| &t[self.state.global_ranks[self.rank]])
    }

    /// Open a named span over this rank's virtual clock. The returned
    /// RAII guard closes the span when dropped; [`SpanGuard::finish`]
    /// additionally hands back the elapsed virtual nanoseconds, which
    /// is how phase statistics are derived. Spans nest (LIFO).
    ///
    /// The guard measures time in both trace modes; with
    /// [`crate::TraceConfig::Off`] nothing is recorded and the call is
    /// a clock read plus one `Option` check.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> SpanGuard<'_> {
        SpanGuard::new(self.local(), self.sink(), name.into())
    }

    /// Current virtual time of this rank, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.local().now_ns()
    }

    /// Charge local computation to this rank's virtual clock. A
    /// straggling rank (see [`crate::fault::FaultPlan`]) pays its
    /// slowdown factor on every charge. The one-item case of
    /// [`Comm::charge_all`].
    pub fn charge(&self, work: Work) {
        self.charge_all([work]);
    }

    /// Charge a sequence of work items with one clock update: prices
    /// them into a [`Charges`] batch and [`Comm::post`]s it.
    pub fn charge_all(&self, items: impl IntoIterator<Item = Work>) {
        let mut batch = self.charges();
        for work in items {
            batch.add(work);
        }
        self.post(batch);
    }

    /// An empty batch of compute charges priced for this rank. Hot
    /// loops [`Charges::add`] to it next to the work being charged —
    /// plain integer adds, no runtime call — and [`Comm::post`] the
    /// sum once.
    pub fn charges(&self) -> Charges<'_> {
        Charges {
            cost: &self.state.world.cost,
            straggler_factor: self.straggler_factor,
            ns: 0,
            items: self.crash_at_ns.map(|_| Vec::new()),
        }
    }

    /// Post a batch of compute charges: one clock advance and one
    /// `compute_ns` add, **observably identical to charging its items
    /// one by one** in the order they were added. Pricing is per item
    /// (`ceil`, then the straggler factor's `ceil`), so the sum is the
    /// per-item sum. A per-item charge checks the crash deadline
    /// before each item; here a rank with a deadline replays its items
    /// against the running clock and stops before the first one that
    /// would have started at or past it — it dies with the same clock,
    /// `compute_ns` and `"crash"` event. A deadline reached only by
    /// the *last* item fires at the next runtime interaction, like any
    /// deadline that passes between two of them.
    pub fn post(&self, batch: Charges<'_>) {
        let me = self.local();
        let mut ns = batch.ns;
        let mut dies = false;
        if let (Some(deadline), Some(items)) = (self.crash_at_ns, &batch.items) {
            let room = deadline.saturating_sub(me.now_ns());
            let mut spent = 0u64;
            for &item in items {
                if spent >= room {
                    (ns, dies) = (spent, true);
                    break;
                }
                spent += item;
            }
        }
        me.advance_ns(ns);
        me.counters.compute_ns.fetch_add(ns, Ordering::Relaxed);
        if dies {
            self.check_crash();
        }
    }

    /// Charge a one-sided transfer of `bytes` between this rank and
    /// communicator-local `peer`: time at the link's α–β rate plus
    /// traffic accounting. Used by the PGAS layer's get/put.
    pub fn charge_onesided(&self, peer: usize, bytes: u64) {
        self.check_crash();
        let link = self.topology().link(
            self.state.global_ranks[self.rank],
            self.state.global_ranks[peer],
        );
        let me = self.local();
        let world = self.world();
        let ns = world
            .fault
            .cost_at(&world.cost, me.now_ns())
            .p2p_ns(link, bytes);
        me.advance_ns(ns);
        me.counters.comm_ns.fetch_add(ns, Ordering::Relaxed);
        me.counters.add_bytes(link, bytes);
        if let Some(sink) = self.sink() {
            sink.event(
                "onesided",
                me.now_ns(),
                Some(link),
                bytes,
                self.state.global_ranks[peer] as u64,
            );
        }
    }

    /// Snapshot this rank's counters and clock.
    pub fn report(&self) -> RankReport {
        self.local().report()
    }

    /// An owned-payload collective: [`Comm::run_collective_view`] whose
    /// extract is the identity on the shared output, no exit barrier.
    fn run_collective<T, R, F>(&self, name: &'static str, input: T, combine: F) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, &CollectiveCtx<'_>) -> (R, EndTimes),
    {
        self.run_collective_view(name, input, combine, Arc::clone, false)
    }

    /// Run one collective on this communicator: crash check, generation
    /// ticket, the rendezvous itself, and its trace span. The input may
    /// be a [`RawParts`] view of this rank's buffers; `combine` and
    /// `extract` then read it under the windows of
    /// [`CommState::collective_view`].
    fn run_collective_view<T, R, Q, F, G>(
        &self,
        name: &'static str,
        input: T,
        combine: F,
        extract: G,
        exit_barrier: bool,
    ) -> Q
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, &CollectiveCtx<'_>) -> (R, EndTimes),
        G: FnOnce(&Arc<R>) -> Q,
    {
        self.check_crash();
        let g = self.gen.get();
        self.gen.set(g + 1);
        let enter_ns = self.local().now_ns();
        let out = self
            .state
            .collective_view(self.rank, g, input, combine, extract, exit_barrier);
        self.trace_collective(name, enter_ns);
        out
    }

    /// Record the just-finished collective `name` as a span from
    /// `enter_ns` to now, when tracing is on.
    fn trace_collective(&self, name: &'static str, enter_ns: u64) {
        if let Some(sink) = self.sink() {
            let now = self.local().now_ns();
            sink.complete(Cow::Borrowed(name), "collective", enter_ns, now, 0);
        }
    }

    // ------------------------------------------------------------------
    // Synchronizing collectives
    // ------------------------------------------------------------------

    /// Block until all ranks arrive.
    pub fn barrier(&self) {
        let p = self.size();
        self.run_collective("barrier", (), move |_, ctx| {
            (
                (),
                EndTimes::Uniform(ctx.enter_max_ns + ctx.cost.barrier_ns(ctx.worst_link, p)),
            )
        });
    }

    /// Broadcast `value` from `root`. Every rank passes its local
    /// `value`; each receives a clone of the root's.
    pub fn broadcast<T>(&self, root: usize, value: T) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        let p = self.size();
        let bytes = mem::size_of::<T>() as u64;
        let out = self.run_collective("broadcast", value, move |mut xs, ctx| {
            let v = xs.swap_remove(root);
            let end = ctx.enter_max_ns + ctx.cost.bcast_ns(ctx.worst_link, p, bytes);
            (v, EndTimes::Uniform(end))
        });
        self.account_collective_bytes(bytes * crate::cost::log2_ceil(p) as u64);
        out.as_ref().clone()
    }

    /// Element-wise allreduce followed by a once-only `finish`: all
    /// ranks pass equally long vectors; element `i` of the reduction is
    /// the fold of element `i` over ranks. `finish` then runs exactly
    /// once for the whole communicator — on the last arriver, right
    /// after the fold — and every rank receives its result as one
    /// shared allocation.
    ///
    /// Every rank must pass a `finish` computing the same pure function
    /// of the reduction and of *replicated* data: which rank's copy
    /// runs is a host scheduling accident. The virtual clock and the
    /// collective schedule cannot observe it — the charge, the byte
    /// accounting and the trace span are those of the plain allreduce.
    /// A `finish` that panics fails the run with that rank as the root
    /// cause; its peers abort as collateral at once (see
    /// [`CommState::collective_view`]).
    pub fn allreduce_with_then<T, R, F, G>(&self, xs: Vec<T>, op: F, finish: G) -> Arc<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
        G: FnOnce(Vec<T>) -> R,
    {
        let p = self.size();
        let bytes = (xs.len() * mem::size_of::<T>()) as u64;
        let out = self.run_collective("allreduce", xs, move |inputs, ctx| {
            let mut it = inputs.into_iter();
            let mut acc = it.next().expect("at least one rank");
            for x in it {
                assert_eq!(
                    x.len(),
                    acc.len(),
                    "allreduce inputs must have equal length"
                );
                for (a, b) in acc.iter_mut().zip(&x) {
                    *a = op(a, b);
                }
            }
            let end = ctx.enter_max_ns + ctx.cost.allreduce_ns(ctx.worst_link, p, bytes);
            (finish(acc), EndTimes::Uniform(end))
        });
        self.account_collective_bytes(bytes * crate::cost::log2_ceil(p) as u64);
        out
    }

    /// Element-wise allreduce, one clone of the reduced vector per
    /// rank: the identity-finish case of [`Comm::allreduce_with_then`].
    pub fn allreduce_with<T, F>(&self, xs: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.allreduce_with_then(xs, op, |reduced| reduced)
            .as_ref()
            .clone()
    }

    /// Sum-allreduce over a borrowed `u64` slice followed by a
    /// once-only `finish` (see [`Comm::allreduce_with_then`] for its
    /// contract) — the histogramming workhorse. The input is viewed in
    /// place (no send-side copy); the splitter search advances its
    /// replicated state here, once per round instead of once per rank.
    pub fn allreduce_sum_then<R, G>(&self, xs: &[u64], finish: G) -> Arc<R>
    where
        R: Send + Sync + 'static,
        G: FnOnce(Vec<u64>) -> R,
    {
        let p = self.size();
        let view = RawParts::of(&[xs]);
        let out: Arc<R> = self.run_collective_view(
            "allreduce",
            view,
            move |inputs: Vec<RawParts<u64>>, ctx| {
                let width = inputs.first().map_or(0, |v| v.len(0));
                let mut acc = vec![0u64; width];
                for x in &inputs {
                    assert_eq!(x.len(0), width, "allreduce inputs must have equal length");
                    // SAFETY: combine, window 3 of `collective_view`.
                    let s = unsafe { x.slice(0) };
                    for (a, b) in acc.iter_mut().zip(s) {
                        *a = a.wrapping_add(*b);
                    }
                }
                let bytes = (width * mem::size_of::<u64>()) as u64;
                let end = ctx.enter_max_ns + ctx.cost.allreduce_ns(ctx.worst_link, p, bytes);
                (finish(acc), EndTimes::Uniform(end))
            },
            Arc::clone,
            false,
        );
        self.account_collective_bytes(
            mem::size_of_val(xs) as u64 * crate::cost::log2_ceil(p) as u64,
        );
        out
    }

    /// Sum-allreduce sharing the reduced vector with all ranks: the
    /// identity-finish case of [`Comm::allreduce_sum_then`].
    pub fn allreduce_sum_shared(&self, xs: &[u64]) -> Arc<Vec<u64>> {
        self.allreduce_sum_then(xs, |sum| sum)
    }

    /// Owning sum-allreduce over `u64` vectors.
    pub fn allreduce_sum(&self, xs: Vec<u64>) -> Vec<u64> {
        self.allreduce_sum_shared(&xs).as_ref().clone()
    }

    /// Gather one value per rank, then run `finish` once over the
    /// gathered values (ordered by rank; see
    /// [`Comm::allreduce_with_then`] for the contract) and share its
    /// result. Charged and traced exactly as the plain allgather.
    pub fn allgather_then<T, R, G>(&self, x: T, finish: G) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        G: FnOnce(Vec<T>) -> R,
    {
        let p = self.size();
        let bytes = mem::size_of::<T>() as u64;
        let out = self.run_collective("allgather", x, move |xs, ctx| {
            let end = ctx.enter_max_ns + ctx.cost.allgather_ns(ctx.worst_link, p, bytes);
            (finish(xs), EndTimes::Uniform(end))
        });
        self.account_collective_bytes(bytes * p.saturating_sub(1) as u64);
        out
    }

    /// Gather one value per rank onto every rank, ordered by rank: the
    /// identity-finish case of [`Comm::allgather_then`], cloned once
    /// per rank.
    pub fn allgather<T>(&self, x: T) -> Vec<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.allgather_then(x, |gathered| gathered).as_ref().clone()
    }

    /// Gather a variable-length vector per rank, then run `finish`
    /// once over the gathered vectors (ordered by rank; see
    /// [`Comm::allreduce_with_then`] for the contract) and share its
    /// result. Charged and traced exactly as the plain allgatherv.
    pub fn allgatherv_then<T, R, G>(&self, xs: Vec<T>, finish: G) -> Arc<R>
    where
        T: Send + Sync + 'static,
        R: Send + Sync + 'static,
        G: FnOnce(Vec<Vec<T>>) -> R,
    {
        let p = self.size();
        let my_bytes = (xs.len() * mem::size_of::<T>()) as u64;
        let out = self.run_collective("allgatherv", xs, move |inputs, ctx| {
            let max_bytes = inputs
                .iter()
                .map(|v| (v.len() * mem::size_of::<T>()) as u64)
                .max()
                .unwrap_or(0);
            let end = ctx.enter_max_ns + ctx.cost.allgather_ns(ctx.worst_link, p, max_bytes);
            (finish(inputs), EndTimes::Uniform(end))
        });
        self.account_collective_bytes(my_bytes * p.saturating_sub(1) as u64);
        out
    }

    /// Gather a variable-length vector per rank onto every rank: the
    /// identity-finish case of [`Comm::allgatherv_then`], cloned once
    /// per rank.
    pub fn allgatherv<T>(&self, xs: Vec<T>) -> Vec<Vec<T>>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.allgatherv_then(xs, |gathered| gathered)
            .as_ref()
            .clone()
    }

    /// Exclusive prefix scan of equally long `u64` vectors with
    /// element-wise sums; rank 0 receives zeros. Charged at the
    /// vector's true byte width.
    ///
    /// The input is viewed in place and the scan is computed **once**
    /// into a flat `p × width` buffer shared by all ranks; the returned
    /// [`SharedSlice`] is this rank's window into it.
    pub fn exscan_sum_vec_shared(&self, xs: &[u64]) -> SharedSlice<u64> {
        let p = self.size();
        let me = self.rank;
        let width_in = xs.len();
        let view = RawParts::of(&[xs]);
        let out: Arc<Vec<u64>> = self.run_collective_view(
            "exscan",
            view,
            move |inputs: Vec<RawParts<u64>>, ctx| {
                let width = inputs.first().map_or(0, |v| v.len(0));
                let mut flat = vec![0u64; p * width];
                let mut acc = vec![0u64; width];
                for (r, x) in inputs.iter().enumerate() {
                    assert_eq!(x.len(0), width, "exscan inputs must have equal length");
                    flat[r * width..(r + 1) * width].copy_from_slice(&acc);
                    // SAFETY: combine, window 3 of `collective_view`.
                    let s = unsafe { x.slice(0) };
                    for (a, b) in acc.iter_mut().zip(s) {
                        *a = a.wrapping_add(*b);
                    }
                }
                let bytes = (width * mem::size_of::<u64>()) as u64;
                let end = ctx.enter_max_ns + ctx.cost.exscan_ns(ctx.worst_link, p, bytes);
                (flat, EndTimes::Uniform(end))
            },
            Arc::clone,
            false,
        );
        self.account_collective_bytes(
            mem::size_of_val(xs) as u64 * crate::cost::log2_ceil(p) as u64,
        );
        SharedSlice::new(out, me * width_in, width_in)
    }

    /// Gather every rank's vector to a (virtual) root, combine with
    /// `f`, and hand every rank a clone of the combined result — the
    /// "central processor" step of sample sort without materializing
    /// the full gathered set on every rank. `result_bytes` sizes the
    /// broadcast payload for the cost model.
    pub fn gather_reduce<T, R, F, B>(&self, xs: Vec<T>, f: F, result_bytes: B) -> R
    where
        T: Send + Sync + 'static,
        R: Clone + Send + Sync + 'static,
        F: FnOnce(Vec<Vec<T>>) -> R,
        B: FnOnce(&R) -> u64,
    {
        let p = self.size();
        let in_bytes = (xs.len() * mem::size_of::<T>()) as u64;
        let out = self.run_collective("gather_reduce", xs, move |inputs, ctx| {
            let total_bytes: u64 = inputs
                .iter()
                .map(|v| (v.len() * mem::size_of::<T>()) as u64)
                .sum();
            let gather = ctx
                .cost
                .allgather_ns(ctx.worst_link, p, total_bytes / p.max(1) as u64);
            let r = f(inputs);
            let bcast = ctx.cost.bcast_ns(ctx.worst_link, p, result_bytes(&r));
            (r, EndTimes::Uniform(ctx.enter_max_ns + gather + bcast))
        });
        self.account_collective_bytes(in_bytes);
        out.as_ref().clone()
    }

    // ------------------------------------------------------------------
    // Personalized exchanges
    // ------------------------------------------------------------------

    /// The personalized all-to-all — the `MPI_Alltoallv` of the
    /// data-exchange superstep, unified over every payload form and
    /// schedule.
    ///
    /// `payload[d]` is what this rank sends to rank `d`, either as a
    /// borrowed segment of an already-ordered local array (`&[&[T]]`)
    /// or as an owned bucket (`Vec<Vec<T>>`, sent through the same
    /// path). The receive side is always one contiguous [`RecvRuns`]
    /// buffer whose per-source runs can be merged in place or
    /// flattened for free.
    ///
    /// `algo` picks the schedule (§VI-E1: "For a relatively small N/P
    /// we utilize store-and-forward algorithms ... For larger messages
    /// we schedule flat handshakes or 1-factorization algorithms").
    /// All schedules are one rendezvous delivering byte-identical data;
    /// only the virtual clock differs.
    pub fn exchange<T, P>(&self, payload: P, algo: AllToAllAlgo) -> RecvRuns<T>
    where
        P: ExchangePayload<T>,
    {
        payload.exchange_via(self, algo)
    }

    /// The one all-to-all body, for every schedule: `send[d]` is a
    /// **borrowed** segment of this rank's (typically already-sorted)
    /// local array destined for rank `d`. Each element is copied
    /// exactly once, from the sender's buffer straight into the
    /// receiver's single contiguous [`RecvRuns`] buffer — real
    /// `MPI_Alltoallv` semantics, with `(counts, displs)` marking the
    /// per-source runs.
    ///
    /// `T: Clone` is enough — the copy-out is `extend_from_slice` — so
    /// records travel this path too. A `Clone` may panic where a `Copy`
    /// cannot; the exit barrier is unwind-safe for exactly that case
    /// (window 4 of `collective_view`).
    fn alltoallv_direct_slices<T>(&self, send: &[&[T]], algo: AllToAllAlgo) -> RecvRuns<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        let p = self.size();
        assert_eq!(
            send.len(),
            p,
            "alltoallv needs one bucket per destination rank"
        );
        if let AllToAllAlgo::StagedKWay { k } = algo {
            assert!(k >= 2, "staged exchange needs fan-out k >= 2");
        }
        let sent_bytes =
            self.account_alltoallv_send(send.iter().map(|s| s.len()), mem::size_of::<T>());
        let me = self.rank;
        let view = RawParts::of(send);
        let out = self.run_collective_view(
            "alltoallv",
            view,
            move |views: Vec<RawParts<T>>, ctx| {
                let elem = mem::size_of::<T>() as u64;
                let ends = alltoallv_end_times(ctx, p, elem, algo, |s, d| views[s].len(d) as u64);
                (views, EndTimes::PerRank(ends))
            },
            move |views: &Arc<Vec<RawParts<T>>>| {
                let counts: Vec<usize> = views.iter().map(|v| v.len(me)).collect();
                let total: usize = counts.iter().sum();
                let mut data: Vec<T> = Vec::with_capacity(total);
                for v in views.iter() {
                    // SAFETY: extract under the exit barrier, window 4
                    // of `collective_view`: every sender is held inside
                    // the collective — returning or unwinding — until
                    // all extracts are over, so its segments are alive
                    // and unmutated here. That includes an extract
                    // that panics: if `T::clone` unwinds out of this
                    // loop, `data` (our own clones) drops, the rank
                    // serves the barrier, and only then resumes.
                    data.extend_from_slice(unsafe { v.slice(me) });
                }
                RecvRuns::from_parts(data, counts)
            },
            true,
        );
        if let Some(sink) = self.sink() {
            sink.attribute_bytes(sent_bytes);
        }
        out
    }

    /// Per-link byte accounting for this rank's outgoing personalized
    /// traffic: one placement lookup per non-empty segment, one counter
    /// add per link class. Returns the total for span attribution
    /// (which must happen after the collective records its span).
    fn account_alltoallv_send(&self, lens: impl Iterator<Item = usize>, elem: usize) -> u64 {
        let topo = self.topology();
        let me = topo.placement(self.state.global_ranks[self.rank]);
        let classes = [
            LinkClass::SelfLoop,
            LinkClass::IntraNuma,
            LinkClass::IntraNode,
            LinkClass::InterNode,
        ];
        let mut by_class = [0u64; 4];
        for (dst, len) in lens.enumerate().filter(|&(_, len)| len > 0) {
            let link = if dst == self.rank {
                LinkClass::SelfLoop
            } else {
                me.link_to(topo.placement(self.state.global_ranks[dst]))
            };
            by_class[link as usize] += (len * elem) as u64;
        }
        let counters = &self.local().counters;
        for (class, &bytes) in classes.iter().zip(&by_class) {
            if bytes > 0 {
                counters.add_bytes(*class, bytes);
            }
        }
        by_class.iter().sum()
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Split the communicator by `color`; ranks sharing a color form a
    /// new communicator ordered by `(key, rank)`. Charged linearly in
    /// the parent size, as the paper notes for `MPI_Comm_split`.
    pub fn split(&self, color: u64, key: u64) -> Comm {
        let p = self.size();
        let me = self.rank;
        let out = self.run_collective("split", (color, key), move |xs, ctx| {
            let mut groups: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
            for (rank, &(c, k)) in xs.iter().enumerate() {
                groups.entry(c).or_default().push((k, rank));
            }
            let end = ctx.enter_max_ns + ctx.cost.comm_split_ns(ctx.worst_link, p);
            (groups, EndTimes::Uniform(end))
        });
        let world = self.world().clone();
        let members = &out[&color];
        let mut sorted = members.clone();
        sorted.sort_unstable();
        let global: Vec<usize> = sorted
            .iter()
            .map(|&(_, r)| self.state.global_ranks[r])
            .collect();
        let new_rank = sorted
            .iter()
            .position(|&(_, r)| r == me)
            .expect("calling rank is a member of its color group");
        // Everyone in the group must agree on one CommState instance:
        // derive it through a second rendezvous keyed by color.
        let state = self.run_collective("split", (color, global.clone()), move |xs, ctx| {
            let mut states: BTreeMap<u64, Arc<CommState>> = BTreeMap::new();
            for (c, g) in xs {
                states
                    .entry(c)
                    .or_insert_with(|| CommState::new(world.clone(), g));
            }
            ((states), EndTimes::Uniform(ctx.enter_max_ns))
        });
        let comm = Comm::new(state[&color].clone(), new_rank);
        // The sub-communicator runs this rank's local phases at the
        // same intra-rank thread budget as its parent.
        comm.threads.configure(self.threads.budget());
        comm
    }

    /// Arm shrink-and-recover for the lifetime of the returned guard:
    /// while any rank holds a live guard, a registered rank failure
    /// interrupts blocked survivors with a
    /// [`crate::recover::RecoveryInterrupt`] (instead of poisoning the
    /// whole run) so they can [`Comm::shrink`] and retry. A rank that
    /// dies while armed intentionally leaks its arm — the world stays
    /// armed throughout its survivors' recovery.
    pub fn arm_recovery(&self) -> crate::recover::RecoveryGuard {
        crate::recover::RecoveryGuard::new(self.world().clone())
    }

    /// ULFM-style shrink: run the fault-aware survivor agreement for
    /// restart round `epoch` (the caller's count of prior shrinks on
    /// this run) and renumber this rank into a fresh communicator over
    /// the survivors, compacted in old-global-rank order.
    ///
    /// Panics with the caller's own root cause if the caller itself is
    /// dead (crash deadline passed). The old communicator is *revoked*
    /// afterwards: its collective cells may be wedged mid-generation,
    /// so no further operations may be issued on it.
    pub fn shrink(&self, epoch: u64) -> crate::recover::Shrunk {
        let me_g = self.state.global_ranks[self.rank];
        let enter_ns = self.local().now_ns();
        let agreement =
            crate::recover::agree_survivors(self.world(), &self.state.global_ranks, me_g, epoch);
        let new_rank = agreement
            .survivors
            .binary_search(&me_g)
            .expect("agreement always includes the live caller");
        self.trace_collective("shrink", enter_ns);
        let comm = Comm::new(agreement.state.clone(), new_rank);
        // Carry the intra-rank thread budget across the shrink.
        comm.threads.configure(self.threads.budget());
        crate::recover::Shrunk {
            comm,
            survivors: agreement.survivors.clone(),
            lost: agreement.dead.clone(),
        }
    }

    /// Account `bytes` of collective traffic at the communicator's
    /// worst link class, and attribute them to the just-recorded
    /// collective span when tracing is on.
    fn account_collective_bytes(&self, bytes: u64) {
        self.local()
            .counters
            .add_bytes(self.state.worst_link, bytes);
        if let Some(sink) = self.sink() {
            sink.attribute_bytes(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::unit_draw;
    use crate::runner::{run, ClusterConfig};

    fn cfg(p: usize) -> ClusterConfig {
        ClusterConfig::small_cluster(p)
    }

    #[test]
    fn broadcast_delivers_root_value() {
        let vals = run(&cfg(8), |comm| {
            let v = if comm.rank() == 3 { 99u64 } else { 0 };
            comm.broadcast(3, v)
        });
        assert!(vals.iter().all(|(v, _)| *v == 99));
    }

    #[test]
    fn allreduce_sum_vectors() {
        let vals = run(&cfg(4), |comm| {
            comm.allreduce_sum(vec![comm.rank() as u64, 1])
        });
        for (v, _) in vals {
            assert_eq!(v, vec![1 + 2 + 3, 4]);
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        let vals = run(&cfg(5), |comm| comm.allgather(comm.rank() as u32 * 10));
        for (v, _) in vals {
            assert_eq!(v, vec![0, 10, 20, 30, 40]);
        }
    }

    #[test]
    fn allgatherv_variable_lengths() {
        let vals = run(&cfg(3), |comm| {
            comm.allgatherv(vec![comm.rank(); comm.rank()])
        });
        for (v, _) in vals {
            assert_eq!(v, vec![vec![], vec![1], vec![2, 2]]);
        }
    }

    #[test]
    fn exscan_sum_vec_elementwise() {
        let vals = run(&cfg(4), |comm| {
            comm.exscan_sum_vec_shared(&[comm.rank() as u64 + 1, 10])
                .to_vec()
        });
        let got: Vec<Vec<u64>> = vals.into_iter().map(|(v, _)| v).collect();
        assert_eq!(got, vec![vec![0, 0], vec![1, 10], vec![3, 20], vec![6, 30]]);
    }

    #[test]
    fn gather_reduce_combines_once_and_broadcasts() {
        let vals = run(&cfg(5), |comm| {
            comm.gather_reduce(
                vec![comm.rank() as u64; comm.rank()],
                |inputs| {
                    // Sees every rank's vector, ordered by rank.
                    assert_eq!(inputs.len(), 5);
                    inputs.iter().flatten().sum::<u64>()
                },
                |_| 8,
            )
        });
        let expect: u64 = (0..5u64).map(|r| r * r).sum();
        assert!(vals.iter().all(|(v, _)| *v == expect));
    }

    #[test]
    fn exchange_transposes() {
        let vals = run(&cfg(4), |comm| {
            let p = comm.size();
            let r = comm.rank();
            let send: Vec<Vec<u64>> = (0..p).map(|d| vec![(r * 100 + d) as u64; r + 1]).collect();
            comm.exchange(send, AllToAllAlgo::OneFactor).into_vecs()
        });
        for (dst, (recv, _)) in vals.into_iter().enumerate() {
            for (src, bucket) in recv.into_iter().enumerate() {
                assert_eq!(bucket.len(), src + 1);
                assert!(bucket.iter().all(|&x| x == (src * 100 + dst) as u64));
            }
        }
    }

    #[test]
    fn alltoallv_schedules_agree_on_data() {
        for algo in [
            AllToAllAlgo::OneFactor,
            AllToAllAlgo::Bruck,
            AllToAllAlgo::StagedKWay { k: 2 },
            AllToAllAlgo::StagedKWay { k: 4 },
        ] {
            let vals = run(&ClusterConfig::supermuc_phase2(32), move |comm| {
                let p = comm.size();
                let r = comm.rank();
                let send: Vec<Vec<u64>> = (0..p).map(|d| vec![(r * p + d) as u64; 3]).collect();
                comm.exchange(send, algo).into_vecs()
            });
            for (dst, (recv, _)) in vals.into_iter().enumerate() {
                for (src, bucket) in recv.into_iter().enumerate() {
                    assert_eq!(bucket, vec![(src * 32 + dst) as u64; 3], "{algo:?}");
                }
            }
        }
    }

    /// The staged driver must deliver exactly the direct exchange's
    /// per-source runs at awkward sizes too: non-divisible p, k that
    /// doesn't divide p, k ≥ p (degenerate single stage), and ragged
    /// per-peer counts including empty buckets.
    #[test]
    fn staged_matches_one_factor_on_ragged_sizes() {
        for (p, k) in [
            (2, 2),
            (5, 2),
            (7, 3),
            (9, 2),
            (13, 4),
            (16, 4),
            (6, 8),
            (12, 12),
        ] {
            let payload = move |comm: &Comm, algo: AllToAllAlgo| {
                let p = comm.size();
                let r = comm.rank();
                // Ragged: rank r sends (r*7 + d*3) % 5 elements to d
                // (some buckets empty), values encode (src, dst, i).
                let send: Vec<Vec<u64>> = (0..p)
                    .map(|d| {
                        let n = (r * 7 + d * 3) % 5;
                        (0..n).map(|i| (r * 1000 + d * 10 + i) as u64).collect()
                    })
                    .collect();
                let recv = comm.exchange(send, algo);
                (recv.counts().to_vec(), recv.into_data())
            };
            let direct = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
                payload(comm, AllToAllAlgo::OneFactor)
            });
            let staged = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
                payload(comm, AllToAllAlgo::StagedKWay { k })
            });
            for (r, (d, s)) in direct.iter().zip(staged.iter()).enumerate() {
                assert_eq!(d.0, s.0, "p={p} k={k} rank={r}");
            }
        }
    }

    /// The point of staging: at large p and tiny per-peer payloads the
    /// one-factor's P−1 per-peer latencies dominate, and ⌈log_k P⌉
    /// stages of ≤ k−1 messages (plus the split costs) win in virtual
    /// time. Large payloads must flip the ordering — bytes pay β once
    /// per stage.
    #[test]
    fn staged_beats_one_factor_on_small_payloads_at_scale() {
        let time = |p: usize, algo: AllToAllAlgo, per_peer: usize| {
            let out = run(&ClusterConfig::supermuc_phase2(p), move |comm| {
                let send: Vec<Vec<u64>> = (0..comm.size()).map(|_| vec![0u64; per_peer]).collect();
                let t0 = comm.now_ns();
                let _ = comm.exchange(send, algo);
                comm.now_ns() - t0
            });
            out.into_iter().map(|(t, _)| t).max().unwrap_or(0)
        };
        let staged = time(256, AllToAllAlgo::StagedKWay { k: 16 }, 1);
        let direct = time(256, AllToAllAlgo::OneFactor, 1);
        assert!(
            staged < direct,
            "staged k=16 should beat one-factor at p=256 on tiny payloads: {staged} vs {direct}"
        );
        // Bytes pay β once per stage, so larger payloads flip the
        // ordering (checked at p=64 to keep host memory modest).
        let staged_big = time(64, AllToAllAlgo::StagedKWay { k: 8 }, 1 << 12);
        let direct_big = time(64, AllToAllAlgo::OneFactor, 1 << 12);
        assert!(
            staged_big > direct_big,
            "large payloads must prefer the bandwidth-optimal schedule: \
             {staged_big} vs {direct_big}"
        );
    }

    /// Elements rank `r` sends rank `d` under count pattern `pattern`:
    /// 0 ragged (some empty), 1 sparse (≈ 10 % non-empty), 2 one heavy
    /// destination per rank over a thin ragged floor.
    fn staged_golden_count(pattern: usize, p: usize, r: usize, d: usize) -> usize {
        match pattern {
            0 => (r * 7 + d * 3 + p) % 11,
            1 => {
                let draw = unit_draw(p as u64, &[r as u64, d as u64]);
                if draw < 0.1 {
                    1 + (draw * 640.0) as usize
                } else {
                    0
                }
            }
            _ => {
                if d == (r * 5 + 1) % p {
                    4096
                } else {
                    (r + d) % 3
                }
            }
        }
    }

    /// One staged exchange of the golden grid, every rank entering at
    /// its own clock: the end-time vector's FNV-1a hash and its max.
    fn staged_golden_cell(small: bool, p: usize, k: usize, pattern: usize) -> (u64, u64) {
        let cfg = if small {
            ClusterConfig::small_cluster(p)
        } else {
            ClusterConfig::supermuc_phase2(p)
        };
        let out = run(&cfg, move |comm| {
            let r = comm.rank();
            let skew = unit_draw(7 + pattern as u64, &[p as u64, k as u64, r as u64]);
            comm.charge(Work::Ns((skew * 20_000.0) as u64));
            let send: Vec<Vec<u64>> = (0..p)
                .map(|d| vec![r as u64; staged_golden_count(pattern, p, r, d)])
                .collect();
            let _ = comm.exchange(send, AllToAllAlgo::StagedKWay { k });
            comm.now_ns()
        });
        let ends: Vec<u64> = out.into_iter().map(|(t, _)| t).collect();
        let hash = ends
            .iter()
            .flat_map(|t| t.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            });
        (hash, ends.iter().copied().max().unwrap_or(0))
    }

    /// The priced staged arm reproduces, bit for bit, the per-rank end
    /// times the executed hop-by-hop driver recorded before it was
    /// deleted: p ∈ {2, …, 130} × k ∈ {2, …, 200} (k ≥ p included) on
    /// both test clusters, three count patterns, ragged entry clocks.
    #[test]
    fn staged_pricing_matches_the_executed_driver() {
        let golden = include_str!("../testdata/staged_golden.txt");
        let mut cells = 0;
        for line in golden.lines().filter(|l| !l.starts_with('#')) {
            let mut fields = line.split(" | ");
            let head: Vec<&str> = fields.next().unwrap().split(' ').collect();
            let (p, k) = (head[1].parse().unwrap(), head[2].parse().unwrap());
            for (pattern, want) in fields.enumerate() {
                let (hash, max) = staged_golden_cell(head[0] == "small_cluster", p, k, pattern);
                assert_eq!(
                    format!("{max} {hash:016x}"),
                    want,
                    "{line}, pattern {pattern}"
                );
                cells += 1;
            }
        }
        assert_eq!(cells, 288);
    }

    #[test]
    fn bruck_beats_one_factor_on_tiny_messages_only() {
        let time = |algo: AllToAllAlgo, per_peer: usize| {
            let out = run(&ClusterConfig::supermuc_phase2(64), move |comm| {
                let send: Vec<Vec<u64>> = (0..comm.size()).map(|_| vec![0u64; per_peer]).collect();
                let t0 = comm.now_ns();
                let _ = comm.exchange(send, algo);
                comm.now_ns() - t0
            });
            out.into_iter().map(|(t, _)| t).max().unwrap_or(0)
        };
        assert!(time(AllToAllAlgo::Bruck, 1) < time(AllToAllAlgo::OneFactor, 1));
        assert!(
            time(AllToAllAlgo::Bruck, 1 << 16) > time(AllToAllAlgo::OneFactor, 1 << 16),
            "large payloads must prefer the bandwidth-optimal schedule"
        );
    }

    /// Send accounting skips empty segments and adds one total per
    /// link class: the per-class counters of a sparse exchange, on the
    /// world and on a strided sub-communicator, equal the sums of a
    /// [`Topology::link`] lookup per destination.
    #[test]
    fn sparse_exchange_counts_bytes_per_link_class() {
        let p = 40; // two full nodes and a half-full third
        let cfg = ClusterConfig::supermuc_phase2(p);
        let topology = cfg.topology.clone();
        let len = |s: usize, d: usize| {
            if (s * 7 + d * 3).is_multiple_of(5) {
                1 + (s + d) % 4
            } else {
                0
            }
        };
        let out = run(&cfg, move |comm| {
            let sub = comm.split((comm.rank() % 3 == 0) as u64, comm.rank() as u64);
            let counts = |c: &Comm| {
                let before = c.report().counters;
                let send: Vec<Vec<u64>> =
                    (0..c.size()).map(|d| vec![7; len(c.rank(), d)]).collect();
                let _ = c.exchange(send, AllToAllAlgo::OneFactor);
                let after = c.report().counters;
                [
                    after.bytes_self - before.bytes_self,
                    after.bytes_intra_numa - before.bytes_intra_numa,
                    after.bytes_intra_node - before.bytes_intra_node,
                    after.bytes_inter_node - before.bytes_inter_node,
                ]
            };
            let members: Vec<usize> = (0..sub.size()).map(|r| sub.global_rank(r)).collect();
            (counts(comm), counts(&sub), sub.rank(), members)
        });
        for (me, ((world, sub, sub_rank, members), _)) in out.iter().enumerate() {
            let want = |me: usize, rank: usize, members: &[usize]| {
                let mut by_class = [0u64; 4];
                for (d, &g) in members.iter().enumerate() {
                    by_class[topology.link(me, g) as usize] += 8 * len(rank, d) as u64;
                }
                by_class
            };
            let world_members: Vec<usize> = (0..p).collect();
            assert_eq!(*world, want(me, me, &world_members), "rank {me}");
            assert_eq!(*sub, want(me, *sub_rank, members), "rank {me} in its split");
            assert!(world.iter().filter(|&&b| b > 0).count() >= 2, "rank {me}");
        }
    }

    #[test]
    fn split_forms_coherent_subgroups() {
        let vals = run(&cfg(8), |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color, comm.rank() as u64);
            let members = sub.allgather(comm.rank());
            (sub.rank(), sub.size(), members)
        });
        for (rank, (v, _)) in vals.into_iter().enumerate() {
            let (sub_rank, sub_size, members) = v;
            assert_eq!(sub_size, 4);
            let expect: Vec<usize> = (0..8).filter(|r| r % 2 == rank % 2).collect();
            assert_eq!(members, expect);
            assert_eq!(members[sub_rank], rank);
        }
    }

    #[test]
    fn split_subcomms_are_independent() {
        let vals = run(&cfg(4), |comm| {
            let sub = comm.split((comm.rank() / 2) as u64, 0);
            // Different groups do different numbers of collectives.
            let mut acc = 0u64;
            for _ in 0..(comm.rank() / 2 + 1) {
                acc = sub.allreduce_sum(vec![1])[0];
            }
            acc
        });
        assert!(vals.iter().all(|(v, _)| *v == 2));
    }

    #[test]
    fn split_carries_the_thread_budget() {
        let vals = run(&cfg(4), |comm| {
            comm.threads().configure(3);
            comm.split((comm.rank() % 2) as u64, 0).threads().budget()
        });
        assert!(vals.iter().all(|(budget, _)| *budget == 3));
    }

    /// The host's cores are split between the ranks that can compute
    /// at once — `min(workers, ranks)`, not the floored worker count —
    /// so a small world fans its hybrid budget out.
    #[test]
    fn host_cap_divides_the_cores_among_concurrent_ranks() {
        let host = crate::threads::host_parallelism();
        let exec_budget = |p: usize| {
            run(&cfg(p), |comm| {
                comm.threads().configure(2);
                comm.threads().exec_budget()
            })
        };
        if host >= 2 {
            assert_eq!(exec_budget(1)[0].0, 2, "one rank owns the host");
        }
        let crowded = exec_budget(host.max(2));
        assert!(crowded.iter().all(|(budget, _)| *budget == 1));
    }

    #[test]
    fn collective_traffic_is_accounted() {
        let vals = run(&cfg(4), |comm| {
            comm.allreduce_sum(vec![0u64; 1024]);
            comm.report()
        });
        for (report, _) in vals {
            assert!(report.counters.total_bytes() > 0);
            assert_eq!(report.counters.collectives, 1);
            assert!(report.counters.comm_ns > 0);
        }
    }

    #[test]
    fn charge_work_advances_clock_deterministically() {
        let a = run(&cfg(2), |comm| {
            comm.charge(Work::SortElems {
                n: 1000,
                elem_bytes: 8,
            });
            comm.now_ns()
        });
        let b = run(&cfg(2), |comm| {
            comm.charge(Work::SortElems {
                n: 1000,
                elem_bytes: 8,
            });
            comm.now_ns()
        });
        assert_eq!(
            a.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            b.iter().map(|(v, _)| *v).collect::<Vec<_>>()
        );
        assert!(a[0].0 > 0);
    }
    /// The one-factor cost as the per-rank formula states it — a send
    /// side and a receive side per rank, each a column or a row of link
    /// lookups — which [`one_factor_costs`] must reproduce to the bit.
    fn one_factor_reference(
        ctx: &CollectiveCtx<'_>,
        p: usize,
        elem: u64,
        count: &dyn Fn(usize, usize) -> u64,
    ) -> Vec<u64> {
        (0..p)
            .map(|r| {
                let gr = ctx.global_ranks[r];
                let send_cost = ctx.cost.alltoallv_rank_ns((0..p).map(|d| {
                    (
                        ctx.topology.link(gr, ctx.global_ranks[d]),
                        count(r, d) * elem,
                    )
                }));
                let recv_cost = ctx.cost.alltoallv_rank_ns((0..p).map(|s| {
                    (
                        ctx.topology.link(ctx.global_ranks[s], gr),
                        count(s, r) * elem,
                    )
                }));
                send_cost.max(recv_cost)
            })
            .collect()
    }

    /// Sweep and reference over the members `global_ranks` of a
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
        let ctx = CollectiveCtx {
            cost: &cost,
            topology: &topology,
            global_ranks,
            enter_max_ns: at_ns,
            worst_link: topology.worst_link(global_ranks),
        };
        let count = |s: usize, d: usize| counts[s * p + d];
        let cell = format!("{nodes}x{numa}x{cores} members {global_ranks:?} seed {seed}");
        let placed: Vec<Placement> = global_ranks
            .iter()
            .map(|&g| topology.placement(g))
            .collect();
        assert_eq!(
            one_factor_costs(&ctx, &placed, elem, count),
            one_factor_reference(&ctx, p, elem, &count),
            "{cell}"
        );
        // The rounding above forgives a reordered sum; the sums
        // themselves do not. Each side against its own plain loop.
        let term = |s: usize, d: usize| {
            let link = topology.link(global_ranks[s], global_ranks[d]);
            cost.alltoallv_peer_ns(link, count(s, d) * elem)
        };
        let bits = |sums: Vec<f64>| sums.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let (send, recv) = one_factor_sides(&ctx, &placed, elem, count);
        let plain = |side: &dyn Fn(usize, usize) -> f64| {
            (0..p)
                .map(|r| (0..p).fold(0.0, |sum, peer| sum + side(r, peer)))
                .collect::<Vec<f64>>()
        };
        assert_eq!(bits(send), bits(plain(&term)), "send, {cell}");
        assert_eq!(bits(recv), bits(plain(&|r, s| term(s, r))), "recv, {cell}");
        let ends = alltoallv_end_times(&ctx, p, elem, AllToAllAlgo::OneFactor, count);
        assert!(ends.iter().all(|&e| e >= at_ns));
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
    /// compare-split does: under `StagedKWay { k ≥ P }` every rank ends
    /// one `α + (bytes + 8)·β` term at its partner's link class after
    /// the latest entry, and pays nothing for its empty peers. The
    /// one-factor arm — the histogram sort's — still charges α for
    /// every empty non-self peer.
    #[test]
    fn one_peer_exchange_is_priced_sparsely() {
        // 2 nodes × 2 NUMA domains × 2 cores: masks 1, 2 and 4 pair
        // ranks inside a NUMA domain, across domains, across nodes.
        let topology = Topology::new(8, 4, 2, 2);
        let cost = CostModel::supermuc_phase2();
        let members: Vec<usize> = (0..8).collect();
        let enter_max_ns = 1_234;
        let ctx = CollectiveCtx {
            cost: &cost,
            topology: &topology,
            global_ranks: &members,
            enter_max_ns,
            worst_link: topology.worst_link(&members),
        };
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
            let mut staged = Vec::new();
            for k in [p, p + 5] {
                staged = alltoallv_end_times(&ctx, p, elem, AllToAllAlgo::StagedKWay { k }, count);
                for (r, &end) in staged.iter().enumerate() {
                    let (l, bytes) = (link(r, r ^ mask), count(r, r ^ mask) * elem + 8);
                    let term = l.alpha_ns + bytes as f64 * l.beta_ns_per_byte;
                    assert_eq!(
                        end,
                        enter_max_ns + term.ceil() as u64,
                        "mask {mask} k {k} r {r}"
                    );
                }
            }
            let one_factor = alltoallv_end_times(&ctx, p, elem, AllToAllAlgo::OneFactor, count);
            for (r, &end) in one_factor.iter().enumerate() {
                let row = (0..p).filter(|&d| d != r).fold(0.0, |sum, d| {
                    let l = link(r, d);
                    sum + l.alpha_ns + (count(r, d) * elem) as f64 * l.beta_ns_per_byte
                });
                assert_eq!(end, enter_max_ns + row.ceil() as u64, "mask {mask} r {r}");
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

    /// A members-`0..p` context of `topology` with every rank entering
    /// at 0, and its placements.
    fn grid_ctx<'a>(
        cost: &'a CostModel,
        topology: &'a Topology,
        members: &'a [usize],
    ) -> CollectiveCtx<'a> {
        CollectiveCtx {
            cost,
            topology,
            global_ranks: members,
            enter_max_ns: 0,
            worst_link: topology.worst_link(members),
        }
    }

    /// The charged price of `algo`: the latest end over the ranks.
    fn charged(
        ctx: &CollectiveCtx<'_>,
        elem: u64,
        algo: AllToAllAlgo,
        count: &dyn Fn(usize, usize) -> u64,
    ) -> u64 {
        let p = ctx.global_ranks.len();
        let ends = alltoallv_end_times(ctx, p, elem, algo, count);
        ends.into_iter().max().unwrap_or(0)
    }

    /// The pick over one count matrix, with every arm's charged price.
    fn grid_pick(
        ctx: &CollectiveCtx<'_>,
        elem: u64,
        count: &dyn Fn(usize, usize) -> u64,
    ) -> (AllToAllAlgo, Vec<(AllToAllAlgo, u64)>) {
        let p = ctx.global_ranks.len();
        let placed: Vec<Placement> = ctx
            .global_ranks
            .iter()
            .map(|&g| ctx.topology.placement(g))
            .collect();
        let (send, recv) = exchange_totals(p, count);
        let pick = pick_schedule(ctx.cost, &placed, elem, &send, &recv);
        let prices = grid_arms(p)
            .into_iter()
            .map(|a| (a, charged(ctx, elem, a, count)))
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
    fn check_pick_grid(ps: &[usize]) {
        let cost = CostModel::supermuc_phase2();
        let elem = 8;
        for &p in ps {
            let members: Vec<usize> = (0..p).collect();
            let mut topologies = vec![Topology::supermuc_phase2(p), Topology::single_node(p)];
            if p < 16 {
                topologies.push(Topology::new(p, p, 4, 7));
            }
            for topology in &topologies {
                let ctx = grid_ctx(&cost, topology, &members);
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
                        let (pick, prices) = grid_pick(&ctx, elem, count);
                        let price =
                            |a: AllToAllAlgo| prices.iter().find(|x| x.0 == a).expect("an arm").1;
                        let (one_factor, picked) = (price(AllToAllAlgo::OneFactor), price(pick));
                        let best = prices.iter().map(|x| x.1).min().expect("arms");
                        let cell = format!("{topology:?} pattern {pattern} nper {nper}: pick {pick:?} {picked}, arms {prices:?}");
                        assert!(picked <= one_factor, "{cell}");
                        if pattern < 4 && (best as f64) < 0.9 * one_factor as f64 {
                            assert!(picked as f64 <= 1.05 * best as f64, "{cell}");
                        }
                    }
                }
            }
        }
    }

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
        let topology = Topology::supermuc_phase2(p);
        let members: Vec<usize> = (0..p).collect();
        let ctx = grid_ctx(&cost, &topology, &members);
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
            .map(|a| (a, charged(&ctx, 8, a, &count)));
            let cheapest = a4.iter().min_by_key(|x| x.1).expect("three arms");
            assert_eq!(cheapest.0, winner, "nper {nper}: {a4:?}");
            let (pick, _) = grid_pick(&ctx, 8, &count);
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
