//! The communicator handle: the MPI-like surface algorithms program to.
//!
//! A [`Comm`] belongs to exactly one rank-thread. Collectives move real
//! data through shared memory while virtual time advances according to
//! the cost model. This module only holds the rendezvous and moves the
//! data: each collective makes one call into [`crate::cost`] for its
//! time and one for the bytes a rank is counted for, and the
//! personalized exchange's per-rank charge under every schedule, the
//! priced pick included, is computed there too. Collectives are the
//! only transport: a pairwise step (bitonic's compare-split) is a
//! [`Comm::exchange`] with one non-empty segment, priced sparsely by
//! [`AllToAllAlgo::StagedKWay`] with `k ≥ P`.
//!
//! # The exchange's host cost
//!
//! The personalized all-to-all costs the host `O(P + s)` per rank, `s`
//! the non-empty segments the rank sends and receives, and never
//! `O(P²)` (the one-factor arm's price aside, which charges α to every
//! peer and so reads all `P²` pairs):
//!
//! - **Sender.** One walk over its own segments packs a bitmap of the
//!   non-empty ones (`⌈w/64⌉` words, a scratch of the
//!   rank's [`Comm`] reused by every exchange), then accounts the bytes
//!   of the set bits per link class. At `w = P` a segment's destination
//!   is its index, without a division.
//! - **Combine.** One pass over the senders' bitmaps, senders
//!   ascending, writes each non-empty segment's source into its
//!   receiver's inbox — the receiver's receive-counts buffer, taken
//!   from its [`BufferPool`] and lent to the combine — and adds up every
//!   rank's send and receive totals in the communicator's routing
//!   scratch. The inboxes are the exchange's count matrix transposed:
//!   each receiver's sources, ascending. The pick and Bruck read the
//!   totals, the staged arm its units from the inboxes.
//! - **Receiver.** One of two paths, picked by the combine from the
//!   exchange's total payload, once for every rank:
//!   - *Eager*, at most `P ×` [`EAGER_BYTES_PER_RANK`] (4 KiB) bytes in
//!     all: the combine itself copies every receiver's runs, senders
//!     ascending, into one buffer per receiver and turns each inbox
//!     into dense receive counts, in window 3, while every sender is
//!     still blocked. Each rank's extract takes its own buffer out of
//!     the output, and it leaves without the exit barrier: one park
//!     per exchange instead of two. These buffers are allocated on the
//!     combining thread and hold at most `P ×` 4 KiB in all.
//!   - *Pull*, above the limit: its extract (window 4, under the exit
//!     barrier) reads only its own inbox: it finds every listed run
//!     (one pass, so the misses on the senders' cuts overlap), copies
//!     each once, in source order, then turns the list into its dense
//!     receive counts in place. Delivering everything in the combine
//!     would put every receive buffer of a large exchange in the
//!     combining thread's allocator arena, where freed buffers stay.
//!
//!   The limit's cells, whole-process wall time of `dhs sort --engine
//!   tasks --seed 7` with the eager path forced on against forced off
//!   (pinned, three runs each), are quoted at the constant: eager wins
//!   at 2 and 8 KiB per receiver at p = 1 024, about ties at 32 KiB at
//!   p = 256 and loses a little at 256 KiB at p = 32; the limit stays
//!   low for the arena's sake. A `T::clone` that panics in an eager
//!   copy stops that receiver's copy only: the combine serves the
//!   others and hands the payload to the receiver's extract, which
//!   resumes it, so the panic stays with the rank that cloned, as on
//!   the pull path.
//!
//! Nothing that grows with the count of non-empty segments is
//! allocated beyond the received data itself: the inboxes are the
//! receive counts every exchange returns anyway.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::mem;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;

use crate::buffer::{BufferPool, RecvRuns, SharedSlice};
use crate::cost::{alltoallv_ns, ceil_ns, AllreduceArm, Blocks, CostModel, Work};
use crate::fault::{RankAbort, RankError};
use crate::state::{CollectiveCtx, CommState, EndTimes, World};
use crate::stats::{RankLocal, RankReport};
use crate::threads::ThreadPool;
use crate::topology::{LinkClass, Topology};
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
    /// The schedule priced cheapest for this exchange: the cost model's
    /// pick over the deposited send and receive totals resolves it to
    /// one of the arms above, inside [`Comm::exchange`], the same on
    /// every rank. The default of the histogram sort.
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
    /// The bitmap of the non-empty segments this rank's exchanges send,
    /// `⌈w/64⌉` words: room for `⌈P/64⌉` is made once, with the handle,
    /// and every exchange reuses it.
    segs: Cell<Vec<u64>>,
    /// Intra-rank host-thread budget for hybrid rank×thread execution.
    threads: ThreadPool,
}

/// Compute charges priced for one rank and summed off its clock (see
/// [`Comm::charges`], [`Comm::post`]), filled in item order on the
/// rank's own thread.
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
}

/// A type-erased borrowed slice of the depositing rank's memory,
/// deposited into [`CommState::collective_view`] and read only under
/// that function's safety contract.
struct RawSlice<T> {
    ptr: *const T,
    len: usize,
}

// SAFETY: a `RawSlice` is a `&[T]` with the lifetime erased, so it
// crosses threads under the rule for `&[T]`: moving it to another
// thread lets that thread read the `T`s through `get`, which is sound
// for `T: Sync`. The erased lifetime is restored by `get`'s contract
// (windows 3–4 of `collective_view`), not by this impl.
unsafe impl<T: Sync> Send for RawSlice<T> {}
// SAFETY: `&RawSlice<T>` offers `len` (plain data) and `get`, shared
// reads of the `T`s from several threads at once: sound for `T: Sync`.
unsafe impl<T: Sync> Sync for RawSlice<T> {}

impl<T> RawSlice<T> {
    fn of(slice: &[T]) -> Self {
        Self {
            ptr: slice.as_ptr(),
            len: slice.len(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// # Safety
    /// Call only from a `collective_view` combine (window 3) or from an
    /// extract under the exit barrier (window 4).
    unsafe fn get(&self) -> &[T] {
        // SAFETY: `(ptr, len)` came from a live `&[T]` in `of`; inside
        // the windows the caller vouches for, the depositing rank is
        // still blocked in the collective, so the slice is alive and
        // nobody writes it.
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

/// What one rank deposits into the all-to-all: a borrowed view of the
/// data it sends, of the bitmap of its non-empty segments, and of its
/// inbox.
struct RawSend<T> {
    data: RawData<T>,
    /// Which segments of `data` are non-empty, one bit per segment (bit
    /// `d % 64` of word `d / 64` for segment `d`). Only the combine reads
    /// it.
    segs: RawSlice<u64>,
    /// This rank's receive counts, lent to the combine as its inbox.
    inbox: RawInbox,
    /// How many sources the combine listed in `inbox`: set on the
    /// combine's own copy of the deposits, which it publishes.
    received: usize,
}

/// The data of a [`RawSend`]: O(1) for a [`CutBlock`], one slice per
/// destination for the list payloads.
enum RawData<T> {
    /// A [`CutBlock`] of the sender `rank`, which picks the member of
    /// each destination group.
    Cut {
        block: RawSlice<T>,
        cuts: RawSlice<usize>,
        rank: usize,
    },
    /// `&[&[T]]` and `Vec<Vec<T>>`: slice `d` goes to rank `d`.
    Parts(Vec<RawSlice<T>>),
}

impl<T> RawData<T> {
    /// The rank of `p` that segment `seg` goes to.
    fn dest(&self, p: usize, seg: usize) -> usize {
        match self {
            Self::Cut { cuts, rank, .. } => segment_dest(*rank, p, cuts.len() - 1, seg),
            Self::Parts(_) => seg,
        }
    }

    /// The segment that would go to rank `dst` of `p`, were it not
    /// empty: the one the combine found bound there, for a source
    /// listed in `dst`'s inbox. At `w = P`, and for the list payloads,
    /// segment `dst`; at `w < P` the group holding `dst` ([`group_of`]
    /// inverts [`segment_dest`]).
    fn segment_to(&self, p: usize, dst: usize) -> usize {
        match self {
            Self::Cut { cuts, .. } if cuts.len() - 1 != p => group_of(dst, p, cuts.len() - 1),
            _ => dst,
        }
    }

    /// Segment `seg`.
    ///
    /// # Safety
    /// As for [`RawSlice::get`].
    unsafe fn segment(&self, seg: usize) -> &[T] {
        // SAFETY: both arms read the deposited slices under the window
        // the caller vouches for; `CutBlock::exchange_via` checked that
        // the cuts ascend inside the block before depositing.
        match self {
            Self::Cut { block, cuts, .. } => {
                let cuts = cuts.get();
                &block.get()[cuts[seg]..cuts[seg + 1]]
            }
            Self::Parts(parts) => parts[seg].get(),
        }
    }
}

impl<T> RawSend<T> {
    /// This sender's row of the exchange, read off its own segment
    /// bitmap: its non-empty segments as `(destination, length)`,
    /// destinations ascending.
    ///
    /// # Safety
    /// Call only from the combine (window 3 of `collective_view`).
    unsafe fn sent(&self, p: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        // SAFETY: in window 3 the sender is blocked in the collective,
        // so its segment bitmap, cuts and slices are alive and unmutated.
        set_bits(self.segs.get())
            .map(move |seg| (self.data.dest(p, seg), self.data.segment(seg).len() as u64))
    }
}

/// A receiver's inbox: its receive-counts buffer, `P` zeros when
/// deposited. The combine writes the sources of the non-empty segments
/// bound to the receiver into its first entries, ascending — the
/// receiver's slice of the exchange's transposed segment index — and
/// the receiver turns them into its receive counts in place.
struct RawInbox {
    ptr: *mut usize,
    len: usize,
}

// SAFETY: a `RawInbox` is a `&mut [usize]` with the lifetime erased,
// lent to the combine: only the combine writes or reads through it
// (window 3), while its owner, blocked in the collective, does not
// touch the buffer; the owner reads it again, through its own `Vec`,
// only after the combine has published its output.
unsafe impl Send for RawInbox {}
// SAFETY: `&RawInbox` reaches other threads only in the published
// output, after the combine, when nothing reads or writes through it.
unsafe impl Sync for RawInbox {}

impl RawInbox {
    fn of(buf: &mut [usize]) -> Self {
        Self {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    /// Write `src` at `at`.
    ///
    /// # Safety
    /// Call only from the combine (window 3 of `collective_view`), while
    /// no slice from [`RawInbox::get`] is alive.
    unsafe fn put(&self, at: usize, src: usize) {
        assert!(at < self.len, "one segment per source and receiver");
        // SAFETY: `at` is inside the buffer, which came from a live
        // `&mut [usize]` in `of`; its owner neither reads nor writes it
        // until the combine is over, and no shared slice of it is alive.
        self.ptr.add(at).write(src)
    }

    /// The first `n` entries.
    ///
    /// # Safety
    /// Call only from the combine (window 3 of `collective_view`); no
    /// [`RawInbox::put`] may run while the slice is alive.
    unsafe fn get(&self, n: usize) -> &[usize] {
        // SAFETY: as for `put`: the buffer is alive and only the combine
        // touches it, which writes nothing while this slice lives.
        std::slice::from_raw_parts(self.ptr, n.min(self.len))
    }

    /// Turn the `sources` listed sources into dense receive counts in
    /// place ([`densify`]), `len(src)` elements from each.
    ///
    /// # Safety
    /// Call only from the combine (window 3 of `collective_view`), while
    /// no slice from [`RawInbox::get`] is alive.
    unsafe fn densify(&self, sources: usize, len: impl Fn(usize) -> usize) {
        // SAFETY: as for `put`: the buffer is alive, its owner does not
        // touch it until the combine is over, and no other slice of it
        // is alive while this one is.
        densify(
            std::slice::from_raw_parts_mut(self.ptr, self.len),
            sources,
            len,
        )
    }
}

/// Turn an inbox — the receiver's `sources` sources, ascending, in its
/// first entries, zeros after — into dense receive counts in place,
/// `len(src)` elements from each source. Entry `i` names a source
/// `s ≥ i`, so filling in `counts[s]` from the last entry back never
/// overwrites an entry still to be read.
fn densify(counts: &mut [usize], sources: usize, len: impl Fn(usize) -> usize) {
    for i in (0..sources).rev() {
        let src = mem::take(&mut counts[i]);
        counts[src] = len(src);
    }
}

/// The combine's per-member scratch of a personalized exchange, owned
/// by the communicator ([`CommState`]) and reused by each of its
/// exchanges: every member's send and receive totals in elements, and
/// how many sources each receiver's inbox holds.
#[derive(Default)]
pub(crate) struct Routing {
    send: Vec<u64>,
    recv: Vec<u64>,
    filled: Vec<usize>,
}

impl Routing {
    /// Zero every entry for an exchange among `p` members.
    fn reset(&mut self, p: usize) {
        for v in [&mut self.send, &mut self.recv] {
            v.clear();
            v.resize(p, 0);
        }
        self.filled.clear();
        self.filled.resize(p, 0);
    }
}

/// The count matrix of one exchange as its combine prices it: the
/// routing totals and the receivers' filled inboxes. Built and read
/// only inside the combine (window 3 of `collective_view`), after the
/// last [`RawInbox::put`].
struct Inboxes<'a, T> {
    views: &'a [RawSend<T>],
    routing: &'a Routing,
}

impl<T> Blocks for Inboxes<'_, T> {
    fn send(&self) -> &[u64] {
        &self.routing.send
    }

    fn recv(&self) -> &[u64] {
        &self.routing.recv
    }

    fn received(&self, dst: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let p = self.views.len();
        let inbox = &self.views[dst];
        // SAFETY: combine, window 3 of `collective_view`, after the last
        // `put` (the type's contract): every deposit is readable.
        let sources = unsafe { inbox.inbox.get(inbox.received) };
        sources.iter().map(move |&src| {
            let from = &self.views[src].data;
            // SAFETY: as above.
            let len = unsafe { from.segment(from.segment_to(p, dst)) }.len();
            (src, len as u64)
        })
    }
}

/// The eager limit of the personalized all-to-all, in bytes per member:
/// an exchange whose payload is at most `P ×` this many bytes in total
/// is delivered by its combine, and its ranks leave without the exit
/// barrier (module docs, "The exchange's host cost"). Recorded cells
/// (EXPERIMENTS.md, "Eager delivery of small all-to-alls"): whole-process
/// wall time of `dhs sort --engine tasks --seed 7`, pinned to one CPU,
/// three runs each, eager forced on against pull forced on — 2 KiB per
/// receiver at p = 1 024 265–301 against 284–365 ms; 8 KiB at p = 1 024
/// 457–599 against 487–751 ms; 32 KiB at p = 256 130–164 against
/// 134–172 ms; 256 KiB at p = 32 62–68 against 60–65 ms. The limit
/// sits well below where the gain fades because every eager buffer is
/// allocated on the combining thread: delivering every exchange there
/// raised the benchmark's `peak_rss_mb` from 268 to 660 MiB on
/// `local_heavy` and from 294 to 513 MiB on `records_skew`.
const EAGER_BYTES_PER_RANK: u64 = 4096;

/// What an all-to-all's combine publishes: every rank's deposit and, on
/// the eager path, every receiver's runs, copied by the combine.
struct Delivery<T> {
    views: Vec<RawSend<T>>,
    /// Receiver `r`'s buffer, or the panic its copy raised (which `r`'s
    /// extract resumes); `None` on the pull path, where each receiver
    /// copies its own under the exit barrier.
    eager: Option<Vec<Mutex<thread::Result<Vec<T>>>>>,
}

/// The eager path's copy: each receiver's runs, senders ascending, into
/// one buffer of its `recv` elements, and its inbox turned into its
/// dense receive counts. A panic in `T::clone` stops that receiver's
/// copy only: the other receivers are still served, and the payload is
/// kept for the receiver's extract.
///
/// # Safety
/// Call only from the all-to-all's combine (window 3 of
/// `collective_view`), after the last [`RawInbox::put`] and while no
/// slice from [`RawInbox::get`] is alive.
unsafe fn deliver<T: Clone>(
    views: &[RawSend<T>],
    recv: &[u64],
) -> Vec<Mutex<thread::Result<Vec<T>>>> {
    let p = views.len();
    let run = |src: usize, dst: usize| {
        let from = &views[src].data;
        // SAFETY: window 3, as the caller vouches: every sender is
        // blocked in the collective, so its deposit is alive and unmutated.
        unsafe { from.segment(from.segment_to(p, dst)) }
    };
    (0..p)
        .zip(recv)
        .map(|(dst, &len)| {
            let inbox = &views[dst];
            let copied = panic::catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: after the last `put` (the caller's contract);
                // the slice is dropped before `densify` below.
                let sources = unsafe { inbox.inbox.get(inbox.received) };
                let mut data = Vec::with_capacity(len as usize);
                for &src in sources {
                    data.extend_from_slice(run(src, dst));
                }
                data
            }));
            if copied.is_ok() {
                // SAFETY: as above; no inbox slice is alive.
                unsafe {
                    inbox
                        .inbox
                        .densify(inbox.received, |src| run(src, dst).len())
                };
            }
            Mutex::new(copied)
        })
        .collect()
}

/// The set bits of a segment bitmap, ascending: the non-empty segments.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

/// The ranks of group `d` when `p` ranks form `w ≤ p` contiguous
/// groups: `⌊d·p/w⌋ .. ⌊(d+1)·p/w⌋`. Segment `d` of a `w`-way
/// [`CutBlock`] goes into this range, so a caller that goes on to sort
/// inside the groups splits its communicator by [`group_of`].
pub fn group_range(d: usize, p: usize, w: usize) -> Range<usize> {
    d * p / w..(d + 1) * p / w
}

/// The group `d` whose [`group_range`]`(d, p, w)` holds `rank`: the
/// largest `d` with `⌊d·p/w⌋ ≤ rank`, i.e. `d·p < (rank + 1)·w`.
pub fn group_of(rank: usize, p: usize, w: usize) -> usize {
    ((rank + 1) * w - 1) / p
}

/// Where segment `d` of `rank`'s `w`-way [`CutBlock`] goes: member
/// `rank mod |group d|` of [`group_range`]`(d, p, w)`, so the senders
/// spread over the group; at `w = p` that is rank `d`, without a
/// division.
fn segment_dest(rank: usize, p: usize, w: usize, d: usize) -> usize {
    if w == p {
        return d;
    }
    let group = group_range(d, p, w);
    group.start + rank % group.len()
}

/// A sorted block and its cut array — `MPI_Alltoallv`'s send buffer
/// and `sdispls` — sent by [`Comm::exchange`] without a list per
/// destination: the all-to-all deposits a view of the two slices.
///
/// `cuts` holds `w + 1` ascending offsets into `block`, `1 ≤ w ≤ P`.
/// Segment `d` is `block[cuts[d]..cuts[d + 1]]` and goes to member
/// `rank mod |group d|` of [`group_range`]`(d, P, w)`; at `w = P` that
/// is rank `d`.
#[derive(Debug, Clone, Copy)]
pub struct CutBlock<'a, T> {
    /// The send buffer.
    pub block: &'a [T],
    /// The `w + 1` segment bounds inside `block`.
    pub cuts: &'a [usize],
}

/// Payload forms accepted by [`Comm::exchange`] — the single entry
/// point of the personalized all-to-all. A [`CutBlock`] sends the
/// segments of one ordered block; `&[&[T]]` sends one borrowed slice
/// per destination; `Vec<Vec<T>>` is the same exchange over the
/// buckets' slices, the buckets dropped afterwards. Any `T: Clone`:
/// each element is cloned once, by its receiver. All deliver into one
/// contiguous [`RecvRuns`] buffer, under every schedule.
pub trait ExchangePayload<T> {
    /// Run the personalized exchange of this payload under `algo`.
    fn exchange_via(self, comm: &Comm, algo: AllToAllAlgo) -> RecvRuns<T>;
}

impl<'a, T: Clone + Send + Sync + 'static> ExchangePayload<T> for CutBlock<'a, T> {
    fn exchange_via(self, comm: &Comm, algo: AllToAllAlgo) -> RecvRuns<T> {
        let (p, rank) = (comm.size(), comm.rank());
        let ways = self.cuts.len().wrapping_sub(1);
        assert!((1..=p).contains(&ways), "a cut block has 1..=P segments");
        assert!(
            self.cuts.windows(2).all(|w| w[0] <= w[1]) && self.cuts[ways] <= self.block.len(),
            "cuts must ascend inside the block"
        );
        let data = RawData::Cut {
            block: RawSlice::of(self.block),
            cuts: RawSlice::of(self.cuts),
            rank,
        };
        let nonempty = self.cuts.windows(2).map(|c| c[0] < c[1]);
        let len = |d: usize| self.cuts[d + 1] - self.cuts[d];
        comm.alltoallv(data, nonempty, len, algo)
    }
}

impl<T: Clone + Send + Sync + 'static> ExchangePayload<T> for Vec<Vec<T>> {
    fn exchange_via(self, comm: &Comm, algo: AllToAllAlgo) -> RecvRuns<T> {
        let data = RawData::Parts(self.iter().map(|b| RawSlice::of(b)).collect());
        let nonempty = self.iter().map(|b| !b.is_empty());
        comm.alltoallv(data, nonempty, |d| self[d].len(), algo)
    }
}

impl<'a, T: Clone + Send + Sync + 'static> ExchangePayload<T> for &'a [&'a [T]] {
    fn exchange_via(self, comm: &Comm, algo: AllToAllAlgo) -> RecvRuns<T> {
        let data = RawData::Parts(self.iter().map(|s| RawSlice::of(s)).collect());
        let nonempty = self.iter().map(|s| !s.is_empty());
        comm.alltoallv(data, nonempty, |d| self[d].len(), algo)
    }
}

impl Comm {
    pub(crate) fn new(state: Arc<CommState>, rank: usize) -> Self {
        assert!(rank < state.size());
        let me_global = state.global_ranks[rank];
        let crash_at_ns = state.world.fault.crash_deadline(me_global);
        let straggler_factor = state.world.fault.straggler_factor(me_global);
        let threads = ThreadPool::new();
        let segs = Vec::with_capacity(state.size().div_ceil(64));
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
            segs: Cell::new(segs),
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

    /// The most expensive link class among this communicator's
    /// members: the class its collectives are priced at.
    pub fn worst_link(&self) -> LinkClass {
        self.state.worst_link
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
        self.run_collective_view(name, input, combine, Arc::clone, |_| false)
    }

    /// Run one collective on this communicator: crash check, generation
    /// ticket, the rendezvous itself, and its trace span. The input may
    /// be a [`RawSlice`] or [`RawSend`] view of this rank's buffers;
    /// `combine` and `extract` then read it under the windows of
    /// [`CommState::collective_view`].
    fn run_collective_view<T, R, Q, F, G>(
        &self,
        name: &'static str,
        input: T,
        combine: F,
        extract: G,
        exit_barrier: fn(&R) -> bool,
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
        self.account_collective_bytes(CostModel::bcast_bytes(p, bytes));
        out.as_ref().clone()
    }

    /// Element-wise allreduce followed by a once-only `finish`: all
    /// ranks pass equally long slices; element `i` of the reduction is
    /// the fold of element `i` over ranks by `op`, in rank order. The
    /// input is viewed in place (no send-side copy). `finish` then runs
    /// exactly once for the whole communicator — on the last arriver,
    /// right after the fold — and every rank receives its result as one
    /// shared allocation: the splitter search advances its replicated
    /// state here, once per round instead of once per rank. `finish`
    /// also receives the cost model the allreduce is charged under —
    /// the run's, degraded by the link-fault windows open at the
    /// collective's start ([`crate::fault::FaultPlan::cost_at`]) — so
    /// that what it prices, it prices as this collective was.
    ///
    /// Every rank must pass a `finish` computing the same pure function
    /// of the reduction and of *replicated* data: which rank's copy
    /// runs is a host scheduling accident. The virtual clock and the
    /// collective schedule cannot observe it — the charge, the byte
    /// accounting and the trace span are those of the plain allreduce.
    /// A `finish` that panics fails the run with that rank as the root
    /// cause; its peers abort as collateral at once (see
    /// [`CommState::collective_view`]).
    pub fn allreduce_with_then<T, R, F, G>(&self, xs: &[T], op: F, finish: G) -> Arc<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
        G: FnOnce(Vec<T>, &CostModel) -> R,
    {
        let p = self.size();
        let bytes = mem::size_of_val(xs) as u64;
        let (out, arm): (Arc<R>, AllreduceArm) = self.run_collective_view(
            "allreduce",
            RawSlice::of(xs),
            move |inputs: Vec<RawSlice<T>>, ctx| {
                let width = inputs.first().map_or(0, RawSlice::len);
                let mut slices = inputs.iter().map(|x| {
                    assert_eq!(x.len(), width, "allreduce inputs must have equal length");
                    // SAFETY: combine, window 3 of `collective_view`.
                    unsafe { x.get() }
                });
                let mut acc = slices.next().map_or_else(Vec::new, <[T]>::to_vec);
                for s in slices {
                    for (a, b) in acc.iter_mut().zip(s) {
                        *a = op(a, b);
                    }
                }
                let (arm, ns) = ctx.cost.allreduce_arm(ctx.worst_link, p, bytes);
                (
                    (Arc::new(finish(acc, ctx.cost)), arm),
                    EndTimes::Uniform(ctx.enter_max_ns + ns),
                )
            },
            |settled| settled.as_ref().clone(),
            |_| false,
        );
        self.account_collective_bytes(arm.bytes_sent(p, bytes));
        out
    }

    /// Element-wise allreduce, one clone of the reduced vector per
    /// rank: the identity-finish case of [`Comm::allreduce_with_then`].
    pub fn allreduce_with<T, F>(&self, xs: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.allreduce_with_then(&xs, op, |reduced, _| reduced)
            .as_ref()
            .clone()
    }

    /// Sum-allreduce over a borrowed `u64` slice followed by a
    /// once-only `finish` — the histogramming workhorse: the wrapping
    /// sum case of [`Comm::allreduce_with_then`].
    pub fn allreduce_sum_then<R, G>(&self, xs: &[u64], finish: G) -> Arc<R>
    where
        R: Send + Sync + 'static,
        G: FnOnce(Vec<u64>, &CostModel) -> R,
    {
        self.allreduce_with_then(xs, |a, b| a.wrapping_add(*b), finish)
    }

    /// Sum-allreduce sharing the reduced vector with all ranks: the
    /// identity-finish case of [`Comm::allreduce_sum_then`].
    pub fn allreduce_sum_shared(&self, xs: &[u64]) -> Arc<Vec<u64>> {
        self.allreduce_sum_then(xs, |sum, _| sum)
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
        self.account_collective_bytes(CostModel::allgather_bytes(p, bytes));
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
        self.account_collective_bytes(CostModel::allgather_bytes(p, my_bytes));
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
    /// [`SharedSlice`] is this rank's window into it. Algorithm 4
    /// (`dhs_core::exchange::plan_exchange`) passes one element per
    /// splitter that splits its equal-key range, so the buffer is
    /// `p × (split splitters)` and never built on distinct keys.
    pub fn exscan_sum_vec_shared(&self, xs: &[u64]) -> SharedSlice<u64> {
        let p = self.size();
        let me = self.rank;
        let width_in = xs.len();
        let out: Arc<Vec<u64>> = self.run_collective_view(
            "exscan",
            RawSlice::of(xs),
            move |inputs: Vec<RawSlice<u64>>, ctx| {
                let width = inputs.first().map_or(0, RawSlice::len);
                let mut flat = vec![0u64; p * width];
                let mut acc = vec![0u64; width];
                for (r, x) in inputs.iter().enumerate() {
                    assert_eq!(x.len(), width, "exscan inputs must have equal length");
                    flat[r * width..(r + 1) * width].copy_from_slice(&acc);
                    // SAFETY: combine, window 3 of `collective_view`.
                    let s = unsafe { x.get() };
                    for (a, b) in acc.iter_mut().zip(s) {
                        *a = a.wrapping_add(*b);
                    }
                }
                let bytes = (width * mem::size_of::<u64>()) as u64;
                let end = ctx.enter_max_ns + ctx.cost.exscan_ns(ctx.worst_link, p, bytes);
                (flat, EndTimes::Uniform(end))
            },
            Arc::clone,
            |_| false,
        );
        self.account_collective_bytes(CostModel::exscan_bytes(p, mem::size_of_val(xs) as u64));
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
    /// The payload is an already-ordered block and its cuts
    /// ([`CutBlock`], the sorters' form: the rank deposits a view of
    /// the two slices and nothing per destination), or one slice per
    /// destination rank, borrowed (`&[&[T]]`) or owned (`Vec<Vec<T>>`).
    /// The receive side is always one contiguous [`RecvRuns`] buffer
    /// whose per-source runs can be merged in place or flattened for
    /// free.
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

    /// The one all-to-all body, for every payload form and schedule:
    /// `data` borrows what this rank sends, `nonempty` says which of its
    /// segments hold data, in segment order, and segment `d` holds
    /// `len(d)` elements. Each element is copied exactly once,
    /// from the sender's buffer straight into the receiver's single
    /// contiguous [`RecvRuns`] buffer — real `MPI_Alltoallv` semantics,
    /// with the receive counts (taken from this rank's [`BufferPool`])
    /// marking the per-source runs.
    ///
    /// The host pays `O(P + non-empty segments)` per rank (module docs,
    /// "The exchange's host cost"): the sender walks its own segments
    /// once into a bitmap of the non-empty ones; the combine walks the
    /// bitmaps once, writing each segment's source into its receiver's
    /// inbox (its receive-counts buffer) and adding up the totals, and
    /// prices the exchange from them; each receiver reads only its own
    /// inbox.
    ///
    /// An exchange of at most `P ×` [`EAGER_BYTES_PER_RANK`] bytes is
    /// copied by its combine and needs no exit barrier; a larger one is
    /// copied by each receiver under it (module docs).
    ///
    /// `T: Clone` is enough — the copy-out is `extend_from_slice` — so
    /// records travel this path too. A `Clone` may panic where a `Copy`
    /// cannot: the eager copy catches it per receiver and the receiver's
    /// extract resumes it, and the exit barrier is unwind-safe for
    /// exactly that case (window 4 of `collective_view`).
    fn alltoallv<T>(
        &self,
        data: RawData<T>,
        nonempty: impl ExactSizeIterator<Item = bool>,
        len: impl Fn(usize) -> usize,
        algo: AllToAllAlgo,
    ) -> RecvRuns<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        let p = self.size();
        if let RawData::Parts(parts) = &data {
            assert_eq!(
                parts.len(),
                p,
                "alltoallv needs one bucket per destination rank"
            );
        }
        if let AllToAllAlgo::StagedKWay { k } = algo {
            assert!(k >= 2, "staged exchange needs fan-out k >= 2");
        }
        let mut segs = self.segs.take();
        let sent_bytes = self.walk_segments(&data, nonempty, len, &mut segs);
        let mut counts = self.pool.take_usize();
        counts.resize(p, 0);
        let view = RawSend {
            data,
            segs: RawSlice::of(&segs),
            inbox: RawInbox::of(&mut counts),
            received: 0,
        };
        let me = self.rank;
        let state = &self.state;
        let out = self.run_collective_view(
            "alltoallv",
            view,
            move |mut views: Vec<RawSend<T>>, ctx| {
                let mut routing = state.routing.lock();
                let routing = &mut *routing;
                routing.reset(p);
                for (s, total) in routing.send.iter_mut().enumerate() {
                    // SAFETY: combine, window 3 of `collective_view`.
                    for (dst, len) in unsafe { views[s].sent(p) } {
                        let at = &mut routing.filled[dst];
                        // SAFETY: combine, window 3 of `collective_view`;
                        // no inbox slice is alive.
                        unsafe { views[dst].inbox.put(*at, s) };
                        *at += 1;
                        routing.recv[dst] += len;
                        *total += len;
                    }
                }
                for (view, &received) in views.iter_mut().zip(&routing.filled) {
                    view.received = received;
                }
                let inboxes = Inboxes {
                    views: &views,
                    routing,
                };
                let elem = mem::size_of::<T>() as u64;
                let mut ends = alltoallv_ns(ctx.cost, &state.placement, elem, algo, &inboxes);
                for end in &mut ends {
                    *end += ctx.enter_max_ns;
                }
                let bytes = routing.send.iter().sum::<u64>().saturating_mul(elem);
                // SAFETY: combine, window 3 of `collective_view`, after
                // the last `put` and the pricing's inbox reads.
                let eager = (bytes <= p as u64 * EAGER_BYTES_PER_RANK)
                    .then(|| unsafe { deliver(&views, &routing.recv) });
                (Delivery { views, eager }, EndTimes::PerRank(ends))
            },
            move |out: &Arc<Delivery<T>>| {
                if let Some(eager) = &out.eager {
                    // The combine copied our runs and wrote our counts;
                    // nothing of a peer's is read here.
                    let copied = mem::replace(&mut *eager[me].lock(), Ok(Vec::new()));
                    let data = copied.unwrap_or_else(|payload| panic::resume_unwind(payload));
                    return RecvRuns::from_parts(data, counts);
                }
                let views = &out.views;
                let sources = views[me].received;
                // Find every run first, so that the misses on the
                // senders' cuts overlap; the copy below finds them cached.
                let mut total = 0;
                for &src in &counts[..sources] {
                    let from = &views[src].data;
                    // SAFETY: as for the copy below.
                    total += unsafe { from.segment(from.segment_to(p, me)) }.len();
                }
                let mut data: Vec<T> = Vec::with_capacity(total);
                for &src in &counts[..sources] {
                    let from = &views[src].data;
                    // SAFETY: extract under the exit barrier, window 4
                    // of `collective_view`: every sender is held inside
                    // the collective — returning or unwinding — until
                    // all extracts are over, so its block, cuts and
                    // slices are alive and unmutated here. That
                    // includes an extract that panics: if `T::clone`
                    // unwinds out of this copy, `data` (our own clones)
                    // drops, the rank serves the barrier, and only then
                    // resumes.
                    data.extend_from_slice(unsafe { from.segment(from.segment_to(p, me)) });
                }
                densify(&mut counts, sources, |src| {
                    let from = &views[src].data;
                    // SAFETY: as for the copy above.
                    unsafe { from.segment(from.segment_to(p, me)) }.len()
                });
                RecvRuns::from_parts(data, counts)
            },
            |out| out.eager.is_none(),
        );
        self.segs.set(segs);
        if let Some(sink) = self.sink() {
            sink.attribute_bytes(sent_bytes);
        }
        out
    }

    /// The sender's one walk over its own segments, `nonempty` in
    /// segment order, segment `d` holding `len(d)` elements: writes their
    /// bitmap into `segs` (one bit per segment, set where it holds data)
    /// and accounts the non-empty ones' bytes per link class — one
    /// destination per set bit, one counter add per link class. Returns
    /// the total for span attribution (which must happen after the
    /// collective records its span).
    fn walk_segments<T>(
        &self,
        data: &RawData<T>,
        nonempty: impl ExactSizeIterator<Item = bool>,
        len: impl Fn(usize) -> usize,
        segs: &mut Vec<u64>,
    ) -> u64 {
        let p = self.size();
        let ways = nonempty.len();
        segs.clear();
        let mut word = 0;
        for (seg, set) in nonempty.enumerate() {
            word |= u64::from(set) << (seg % 64);
            if seg % 64 == 63 {
                segs.push(mem::take(&mut word));
            }
        }
        if !ways.is_multiple_of(64) {
            segs.push(word);
        }
        let placement = &self.state.placement;
        let me = placement[self.rank];
        let classes = [
            LinkClass::SelfLoop,
            LinkClass::IntraNuma,
            LinkClass::IntraNode,
            LinkClass::InterNode,
        ];
        let mut by_class = [0u64; 4];
        for seg in set_bits(segs) {
            let dst = data.dest(p, seg);
            let link = if dst == self.rank {
                LinkClass::SelfLoop
            } else {
                me.link_to(placement[dst])
            };
            by_class[link as usize] += (len(seg) * mem::size_of::<T>()) as u64;
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

    /// Segment routing at `w = P` (the division-free path) and at
    /// `w < P`: segment `d` lands in group `d` ([`group_of`] inverts
    /// it), at member `rank mod |group d|`, a rank's segments go to
    /// distinct ranks, and the receiver's `segment_to` names `d` back.
    #[test]
    fn segment_dest_is_inverted_by_group_of() {
        for p in 1..=40 {
            for w in 1..=p {
                let cuts = vec![0usize; w + 1];
                for rank in 0..p {
                    let data = RawData::<u64>::Cut {
                        block: RawSlice::of(&[]),
                        cuts: RawSlice::of(&cuts),
                        rank,
                    };
                    let mut seen = vec![false; p];
                    for d in 0..w {
                        let dst = segment_dest(rank, p, w, d);
                        assert_eq!(data.dest(p, d), dst);
                        assert_eq!(data.segment_to(p, dst), d, "p {p} w {w} rank {rank}");
                        let group = group_range(d, p, w);
                        assert_eq!(dst, group.start + rank % group.len(), "p {p} w {w}");
                        assert_eq!(group_of(dst, p, w), d, "p {p} w {w} rank {rank}");
                        assert!(!std::mem::replace(&mut seen[dst], true));
                        if w == p {
                            assert_eq!(dst, d);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_delivers_root_value() {
        let vals = run(&cfg(8), |comm| {
            let v = if comm.rank() == 3 { 99u64 } else { 0 };
            comm.broadcast(3, v)
        });
        assert!(vals.iter().all(|(v, _)| *v == 99));
    }

    /// The allreduce charges and counts the arm it picks. On 40 ranks
    /// over three nodes a 16 KiB vector goes reduce-scatter +
    /// allgather: `2·n·31/32` bytes in the 32-rank core plus `2n` for
    /// the fold of the other 8. A 32-byte one goes recursive doubling,
    /// `n` in each of 6 rounds. Inside a link-degradation window the
    /// pick is made under the degraded model: 10 µs more latency per
    /// message sends the 16 KiB vector back to recursive doubling, and
    /// its bytes with it. The generic and the summing forms agree.
    #[test]
    fn allreduce_counts_the_bytes_of_its_arm() {
        use crate::fault::{FaultPlan, LinkFault};
        use crate::topology::LinkClass::InterNode;
        use AllreduceArm::*;
        let p = 40;
        let (long, short) = (16 << 10, 32);
        let slow = FaultPlan::default().with_link_fault(LinkFault {
            class: Some(InterNode),
            extra_alpha_ns: 10_000.0,
            beta_factor: 4.0,
            from_ns: 0,
            until_ns: u64::MAX,
        });
        for (fault, long_arm) in [
            (FaultPlan::default(), ReduceScatterAllgather),
            (slow, RecursiveDoubling),
        ] {
            let cfg = ClusterConfig {
                fault,
                ..ClusterConfig::supermuc_phase2(p)
            };
            let cost = cfg.fault.cost_at(&cfg.cost, 0).into_owned();
            let out = run(&cfg, |comm| {
                let measure = |len: usize, generic: bool| {
                    let (t0, b0) = (comm.now_ns(), comm.report().counters.bytes_inter_node);
                    if generic {
                        comm.allreduce_with(vec![1u64; len], |a, b| a + b);
                    } else {
                        comm.allreduce_sum(vec![1; len]);
                    }
                    let b1 = comm.report().counters.bytes_inter_node;
                    (comm.now_ns() - t0, b1 - b0)
                };
                [
                    measure(2048, false),
                    measure(2048, true),
                    measure(4, false),
                    measure(4, true),
                ]
            });
            assert_eq!(cost.allreduce_arm(InterNode, p, long).0, long_arm);
            assert_eq!(cost.allreduce_arm(InterNode, p, short).0, RecursiveDoubling);
            let long_bytes = match long_arm {
                ReduceScatterAllgather => 2 * long * 31 / 32 + 2 * long,
                RecursiveDoubling => long * 6,
            };
            let want_long = (cost.allreduce_ns(InterNode, p, long), long_bytes);
            let want_short = (cost.allreduce_ns(InterNode, p, short), short * 6);
            for (rank, (got, _)) in out.iter().enumerate() {
                assert_eq!(
                    *got,
                    [want_long, want_long, want_short, want_short],
                    "rank {rank}, long vector by {long_arm:?}"
                );
            }
        }
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
}
