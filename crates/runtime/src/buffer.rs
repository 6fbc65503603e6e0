//! Zero-copy payload containers for the communicator layer.
//!
//! [`RecvRuns`] is the contiguous receive side of a personalized
//! all-to-all: one flat buffer plus per-source `counts` — the
//! `MPI_Alltoallv` memory layout, the runs back to back. [`SharedSlice`]
//! is a rank's view into a collectively-owned vector (one allocation
//! shared by all ranks of a communicator instead of one clone per
//! rank). [`BufferPool`] recycles scratch vectors across the O(log P)
//! histogram rounds of a sort and into the exchange after them.

use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::sync::Arc;

/// Variable-length per-source runs received into one contiguous buffer.
///
/// `run(s)` is the data sent by rank `s`: the `counts[s]` elements
/// after those of ranks `0..s`. Runs are ordered by source rank, so a
/// sorted-input exchange yields `p` sorted runs ready for a k-way merge
/// without any intermediate `Vec<Vec<T>>` materialization. No
/// displacement array is kept: [`RecvRuns::runs`] walks the counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvRuns<T> {
    data: Vec<T>,
    counts: Vec<usize>,
}

impl<T> RecvRuns<T> {
    /// Build from a flat buffer and per-source counts.
    pub fn from_parts(data: Vec<T>, counts: Vec<usize>) -> Self {
        let total: usize = counts.iter().sum();
        assert_eq!(total, data.len(), "counts must cover the buffer exactly");
        Self { data, counts }
    }

    /// Number of source runs (the communicator size).
    pub fn num_runs(&self) -> usize {
        self.counts.len()
    }

    /// Total received elements.
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// Elements received from rank `src`.
    pub fn count(&self, src: usize) -> usize {
        self.counts[src]
    }

    /// Per-source element counts, ordered by source rank.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The run received from rank `src` (`O(src)`: its offset is the
    /// sum of the counts before it).
    pub fn run(&self, src: usize) -> &[T] {
        let start: usize = self.counts[..src].iter().sum();
        &self.data[start..start + self.counts[src]]
    }

    /// All runs as borrowed slices, ordered by source rank.
    pub fn as_slices(&self) -> Vec<&[T]> {
        self.runs().collect()
    }

    /// Iterate the runs in source-rank order.
    pub fn runs(&self) -> impl Iterator<Item = &[T]> {
        let mut rest = &self.data[..];
        self.counts.iter().map(move |&c| {
            let (run, tail) = rest.split_at(c);
            rest = tail;
            run
        })
    }

    /// Take the flat buffer without copying.
    pub fn into_data(self) -> Vec<T> {
        self.data
    }

    /// Take the flat buffer and the per-source counts without copying
    /// — what an in-place merge of the runs consumes.
    pub fn into_parts(self) -> (Vec<T>, Vec<usize>) {
        (self.data, self.counts)
    }

    /// Split the runs back into owned per-source vectors (the legacy
    /// `alltoallv` return shape). One copy per element — prefer
    /// [`RecvRuns::as_slices`] / [`RecvRuns::into_data`] where the
    /// contiguous layout can be consumed in place.
    pub fn into_vecs(self) -> Vec<Vec<T>> {
        let counts = self.counts;
        let mut it = self.data.into_iter();
        counts
            .iter()
            .map(|&c| it.by_ref().take(c).collect())
            .collect()
    }
}

/// A rank's window into a vector owned collectively by all ranks.
///
/// Produced by scan-style collectives: the combine computes one flat
/// `p × width` result, and every rank gets an [`Arc`] plus its own
/// `[start, start + len)` range — zero per-rank clones. Dereferences to
/// `&[T]`.
#[derive(Debug, Clone)]
pub struct SharedSlice<T> {
    buf: Arc<Vec<T>>,
    start: usize,
    len: usize,
}

impl<T> SharedSlice<T> {
    /// A view of `buf[start..start + len]`.
    ///
    /// # Panics
    /// Panics when the window exceeds the buffer.
    pub fn new(buf: Arc<Vec<T>>, start: usize, len: usize) -> Self {
        assert!(start + len <= buf.len(), "view out of bounds");
        Self { buf, start, len }
    }

    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl<T> AsRef<[T]> for SharedSlice<T> {
    fn as_ref(&self) -> &[T] {
        self
    }
}

impl<T: Clone> SharedSlice<T> {
    /// Copy the viewed range into an owned vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_ref().to_vec()
    }
}

/// Free lists of scratch buffers, one pool per communicator handle.
///
/// A histogram-splitter run performs O(log P) refinement rounds, each
/// of which used to allocate a fresh counts vector; the pool hands the
/// same allocation back every round. Single-threaded by construction
/// ([`crate::Comm`] is owned by one rank-thread), hence `RefCell`.
#[derive(Default)]
pub struct BufferPool {
    u64s: RefCell<Vec<Vec<u64>>>,
    /// Lifetime count of `take_u64` calls on this pool.
    takes: Cell<u64>,
    /// Lifetime count of `take_u64` calls satisfied from a recycled
    /// allocation (a pool *hit*, i.e. no fresh allocation needed).
    hits: Cell<u64>,
}

/// Monotone reuse counters of a [`BufferPool`], for steady-state
/// telemetry: diff two snapshots to get the per-epoch hit rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Scratch-vector requests served by the pool so far.
    pub takes: u64,
    /// Requests that reused a recycled allocation instead of starting
    /// from a fresh zero-capacity vector.
    pub hits: u64,
}

impl PoolStats {
    /// `hits / takes` over this snapshot window, `0.0` when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.takes == 0 {
            0.0
        } else {
            self.hits as f64 / self.takes as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot of the same pool.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            takes: self.takes - earlier.takes,
            hits: self.hits - earlier.hits,
        }
    }
}

impl BufferPool {
    /// Take a cleared `u64` scratch vector (capacity retained from
    /// previous uses when available).
    pub fn take_u64(&self) -> Vec<u64> {
        self.takes.set(self.takes.get() + 1);
        let mut v = match self.u64s.borrow_mut().pop() {
            Some(v) => {
                self.hits.set(self.hits.get() + 1);
                v
            }
            None => Vec::new(),
        };
        v.clear();
        v
    }

    /// Snapshot of the pool's lifetime reuse counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            takes: self.takes.get(),
            hits: self.hits.get(),
        }
    }

    /// Return a scratch vector to the pool for reuse.
    pub fn recycle_u64(&self, v: Vec<u64>) {
        if v.capacity() > 0 {
            self.u64s.borrow_mut().push(v);
        }
    }

    /// [`BufferPool::take_u64`] as a vector of indices — cut positions,
    /// receive counts — out of the same free list, so the exchange
    /// reuses the allocation the splitter search's histogram leaves.
    pub fn take_usize(&self) -> Vec<usize> {
        recast(self.take_u64())
    }

    /// Return an index vector to the pool ([`BufferPool::take_usize`]).
    pub fn recycle_usize(&self, v: Vec<usize>) {
        self.recycle_u64(recast(v));
    }
}

/// The two integer types whose vectors share the pool's free list.
trait Word: Copy {}
impl Word for u64 {}
impl Word for usize {}

const _: () = assert!(
    std::mem::size_of::<usize>() == std::mem::size_of::<u64>()
        && std::mem::align_of::<usize>() == std::mem::align_of::<u64>(),
    "the buffer pool shares one free list between u64 and usize vectors"
);

/// A vector of one [`Word`] type as the other, allocation and contents
/// kept.
fn recast<A: Word, B: Word>(v: Vec<A>) -> Vec<B> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: `A` and `B` are `u64` and `usize`, of one size and
    // alignment (checked at compile time above), so the allocation has
    // the layout `Vec<B>` frees it with, the `len` initialized
    // elements are valid `B`s (every bit pattern is an integer), and
    // `v` is never dropped as a `Vec<A>`.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast::<B>(), v.len(), v.capacity()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_runs_layout() {
        let r = RecvRuns::from_parts(vec![1u64, 2, 3, 4, 5, 6], vec![2, 0, 3, 1]);
        assert_eq!(r.num_runs(), 4);
        assert_eq!(r.total_len(), 6);
        assert_eq!(r.run(0), &[1, 2]);
        assert_eq!(r.run(1), &[] as &[u64]);
        assert_eq!(r.run(2), &[3, 4, 5]);
        assert_eq!(r.run(3), &[6]);
        assert_eq!(r.as_slices().len(), 4);
        assert_eq!(r.clone().into_data(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(r.into_parts(), (vec![1, 2, 3, 4, 5, 6], vec![2, 0, 3, 1]));
    }

    #[test]
    #[should_panic(expected = "counts must cover the buffer exactly")]
    fn recv_runs_rejects_mismatched_counts() {
        let _ = RecvRuns::from_parts(vec![1u64, 2], vec![1]);
    }

    #[test]
    fn shared_slice_views_range() {
        let buf = Arc::new(vec![10u64, 11, 12, 13]);
        let s = SharedSlice::new(buf.clone(), 1, 2);
        assert_eq!(&*s, &[11, 12]);
        assert_eq!(s.to_vec(), vec![11, 12]);
        let empty = SharedSlice::new(buf, 4, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn pool_recycles_capacity() {
        let pool = BufferPool::default();
        let mut v = pool.take_u64();
        v.extend_from_slice(&[1, 2, 3, 4]);
        let cap = v.capacity();
        pool.recycle_u64(v);
        let v2 = pool.take_u64();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
    }

    #[test]
    fn index_vectors_share_the_free_list() {
        let pool = BufferPool::default();
        let mut v = pool.take_u64();
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        pool.recycle_u64(v);
        let mut cuts = pool.take_usize();
        assert!(cuts.is_empty());
        assert_eq!(cuts.capacity(), cap);
        cuts.extend_from_slice(&[0, 5, 9]);
        pool.recycle_usize(cuts);
        assert_eq!(pool.take_u64().capacity(), cap);
        assert_eq!(pool.stats(), PoolStats { takes: 3, hits: 2 });
    }

    #[test]
    fn pool_stats_count_hits_and_misses() {
        let pool = BufferPool::default();
        assert_eq!(pool.stats(), PoolStats::default());
        let mut v = pool.take_u64(); // miss
        v.push(7);
        pool.recycle_u64(v);
        let _ = pool.take_u64(); // hit
        let _ = pool.take_u64(); // miss: the hit was dropped, not recycled
        let s = pool.stats();
        assert_eq!(s, PoolStats { takes: 3, hits: 1 });
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        let earlier = PoolStats { takes: 1, hits: 0 };
        assert_eq!(s.since(&earlier), PoolStats { takes: 2, hits: 1 });
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }
}
