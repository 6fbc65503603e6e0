//! Runtime-dispatched SIMD kernels for the node-local hot loops.
//!
//! This module is the **only** place in the workspace allowed to name
//! `std::arch` or `is_x86_feature_detected!` (CI greps for strays).
//! Everything else goes through a [`Kernels`] handle: a tiny copyable
//! token that records which backend — portable scalar or AVX2 — a
//! process uses, chosen **once per process** by [`Kernels::auto`] and
//! overridable per call site with [`Kernels::for_policy`] so the
//! wall-clock harness can A/B both backends inside one process.
//!
//! Three kernel families back the local phases of the distributed
//! sort:
//!
//! * **k-way classification** ([`Kernels::ladder_bounds_u64`] and
//!   friends): the `lower_bound`/`upper_bound` pairs of a ladder of
//!   splitter keys against a sorted slice, computed by *branchless*
//!   binary search. The AVX2 backend descends four (u64) or eight
//!   (u32) searches in lockstep with gathered probes — the
//!   trip count of a branchless search depends only on the slice
//!   length, so independent needles share one loop and their cache
//!   misses overlap. [`Kernels::classify_counts_u64`] is the
//!   sorted-or-unsorted variant: a flattened implicit (Eytzinger)
//!   search tree over the ladder classifies a slice in one pass.
//! * **LSD radix pre-pass** ([`Kernels::radix_sort_u64`] /
//!   [`Kernels::radix_sort_u32`]): monomorphic byte-wise radix sort
//!   with an occupancy pre-pass (a vectorized OR/AND fold finds the
//!   byte positions that actually vary, skipping dead passes without
//!   a counting sweep) and cache-sized per-pass counting buckets.
//! * **two-way merge core** ([`Kernels::merge_u64`] /
//!   [`Kernels::merge_u32`], generic form [`merge_two_into_slice`]):
//!   the leaf merge of the in-place run-merge tree, one two-ended
//!   conditional-move scalar loop on every backend (an AVX2
//!   bitonic-network core lost to the one-ended loop at 0.97× and was
//!   deleted).
//!
//! ## Determinism contract
//!
//! The scalar backend is the **reference**: for every kernel and
//! every input, the AVX2 backend must produce *byte-identical*
//! output. This is structural, not incidental — classification
//! returns exact `partition_point` ranks and sorting integers has a
//! unique sorted permutation — and it is pinned by proptests across
//! lane widths, unaligned heads and remainder tails. Virtual time never sees the
//! backend at all: `Work` charges are computed from data sizes at the
//! call sites, so the virtual clock is bit-identical under either
//! backend (ROADMAP item 5's "virtual time is blind to SIMD").
//!
//! Generic call sites route through the `*_typed` bridges
//! ([`ladder_bounds_typed`], [`merge_typed`], [`radix_sort_typed`]),
//! which monomorphize to the `u64`/`u32` kernels via `TypeId` and
//! report `false` for every other element type so the caller keeps
//! its portable path.

use std::any::TypeId;

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Which kernel backend a sort is allowed to use — the knob surfaced
/// as `SortConfig::kernels` and `--kernels scalar|auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Force the portable scalar reference kernels.
    Scalar,
    /// Use the best backend the host supports (AVX2 when detected,
    /// scalar otherwise). The default; output is byte-identical to
    /// [`KernelPolicy::Scalar`] either way.
    #[default]
    Auto,
}

impl KernelPolicy {
    /// Stable label for logs and JSON (`"scalar"` / `"auto"`).
    pub fn label(self) -> &'static str {
        match self {
            KernelPolicy::Scalar => "scalar",
            KernelPolicy::Auto => "auto",
        }
    }
}

impl std::str::FromStr for KernelPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(KernelPolicy::Scalar),
            "auto" => Ok(KernelPolicy::Auto),
            other => Err(format!(
                "unknown kernel policy {other:?} (expected scalar|auto)"
            )),
        }
    }
}

/// The backend actually selected for a [`Kernels`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// Process-wide backend choice, detected once.
fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// A dispatched-kernel handle: copy it freely, pass it by value.
///
/// All kernel methods produce output byte-identical to the scalar
/// reference regardless of the backend; only host time differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernels {
    backend: Backend,
}

impl Default for Kernels {
    fn default() -> Self {
        Kernels::auto()
    }
}

impl Kernels {
    /// The portable scalar reference backend.
    pub fn scalar() -> Self {
        Kernels {
            backend: Backend::Scalar,
        }
    }

    /// The best backend this host supports, detected once per process
    /// and cached.
    pub fn auto() -> Self {
        use std::sync::OnceLock;
        static CHOICE: OnceLock<Backend> = OnceLock::new();
        Kernels {
            backend: *CHOICE.get_or_init(detect),
        }
    }

    /// Resolve a policy to a handle.
    pub fn for_policy(policy: KernelPolicy) -> Self {
        match policy {
            KernelPolicy::Scalar => Kernels::scalar(),
            KernelPolicy::Auto => Kernels::auto(),
        }
    }

    /// `true` when this handle dispatches to a SIMD backend.
    pub fn is_accelerated(&self) -> bool {
        self.backend != Backend::Scalar
    }

    /// Stable backend name for logs and JSON (`"scalar"` / `"avx2"`).
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
        }
    }

    /// For every needle key push `base + lower_bound` and
    /// `base + upper_bound` (two `u64`s, in needle order) of the
    /// needle within `sorted` — exactly
    /// `sorted.partition_point(|x| *x < n)` / `(|x| *x <= n)`.
    /// Allocation-free beyond `out`'s own growth; needles may appear
    /// in any order.
    pub fn ladder_bounds_u64(
        &self,
        sorted: &[u64],
        needles: &[u64],
        base: u64,
        out: &mut Vec<u64>,
    ) {
        self.ladder_bounds_u64_by(sorted, needles.len(), |i| needles[i], base, out);
    }

    /// [`Kernels::ladder_bounds_u64`] over `u32` keys (eight lanes per
    /// AVX2 block instead of four).
    pub fn ladder_bounds_u32(
        &self,
        sorted: &[u32],
        needles: &[u32],
        base: u64,
        out: &mut Vec<u64>,
    ) {
        self.ladder_bounds_u32_by(sorted, needles.len(), |i| needles[i], base, out);
    }

    /// Needle-accessor form of [`Kernels::ladder_bounds_u64`]: needle
    /// `i` is `get(i)`, letting callers feed probe keys straight from
    /// wider storage (e.g. the splitter loop's `u128` probe grid)
    /// without materializing a needle buffer.
    pub fn ladder_bounds_u64_by(
        &self,
        sorted: &[u64],
        n_needles: usize,
        get: impl Fn(usize) -> u64,
        base: u64,
        out: &mut Vec<u64>,
    ) {
        out.reserve(2 * n_needles);
        let mut i = 0;
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Avx2 {
            while i + 4 <= n_needles {
                let needles = [get(i), get(i + 1), get(i + 2), get(i + 3)];
                // SAFETY: backend is Avx2 only when AVX2 was detected.
                let (lo, hi) = unsafe { avx2::bounds4_u64(sorted, needles) };
                for l in 0..4 {
                    out.push(base + lo[l] as u64);
                    out.push(base + hi[l] as u64);
                }
                i += 4;
            }
        }
        while i < n_needles {
            let (l, u) = scalar::bounds_u64(sorted, get(i));
            out.push(base + l as u64);
            out.push(base + u as u64);
            i += 1;
        }
    }

    /// Needle-accessor form of [`Kernels::ladder_bounds_u32`].
    pub fn ladder_bounds_u32_by(
        &self,
        sorted: &[u32],
        n_needles: usize,
        get: impl Fn(usize) -> u32,
        base: u64,
        out: &mut Vec<u64>,
    ) {
        out.reserve(2 * n_needles);
        let mut i = 0;
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Avx2 && sorted.len() <= i32::MAX as usize {
            while i + 8 <= n_needles {
                let mut needles = [0u32; 8];
                for (l, n) in needles.iter_mut().enumerate() {
                    *n = get(i + l);
                }
                // SAFETY: backend is Avx2 only when AVX2 was detected.
                let (lo, hi) = unsafe { avx2::bounds8_u32(sorted, needles) };
                for l in 0..8 {
                    out.push(base + lo[l] as u64);
                    out.push(base + hi[l] as u64);
                }
                i += 8;
            }
        }
        while i < n_needles {
            let (l, u) = scalar::bounds_u32(sorted, get(i));
            out.push(base + l as u64);
            out.push(base + u as u64);
            i += 1;
        }
    }

    /// One-pass k-way classification of a **sorted or unsorted** slice
    /// against an ascending splitter ladder, via a flattened implicit
    /// (Eytzinger) search tree. `counts[d]` receives the number of
    /// keys whose destination is `d`, where a key's destination is the
    /// number of ladder entries `<= key` (`upper_bound` rank);
    /// `counts` must have `ladder.len() + 1` slots and is overwritten.
    pub fn classify_counts_u64(&self, data: &[u64], ladder: &[u64], counts: &mut [u64]) {
        assert_eq!(
            counts.len(),
            ladder.len() + 1,
            "need one bucket per destination"
        );
        debug_assert!(ladder.windows(2).all(|w| w[0] <= w[1]));
        counts.fill(0);
        if ladder.is_empty() {
            counts[0] = data.len() as u64;
            return;
        }
        let (tree, height) = build_eytzinger_u64(ladder);
        match self.backend {
            Backend::Scalar => scalar::classify_u64(data, &tree, height, ladder.len(), counts),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: backend is Avx2 only when AVX2 was detected.
            Backend::Avx2 => unsafe {
                avx2::classify_u64(data, &tree, height, ladder.len(), counts)
            },
        }
    }

    /// [`Kernels::classify_counts_u64`] over `u32` keys.
    pub fn classify_counts_u32(&self, data: &[u32], ladder: &[u32], counts: &mut [u64]) {
        assert_eq!(
            counts.len(),
            ladder.len() + 1,
            "need one bucket per destination"
        );
        debug_assert!(ladder.windows(2).all(|w| w[0] <= w[1]));
        counts.fill(0);
        if ladder.is_empty() {
            counts[0] = data.len() as u64;
            return;
        }
        let (tree, height) = build_eytzinger_u32(ladder);
        match self.backend {
            Backend::Scalar => scalar::classify_u32(data, &tree, height, ladder.len(), counts),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: backend is Avx2 only when AVX2 was detected.
            Backend::Avx2 => unsafe {
                avx2::classify_u32(data, &tree, height, ladder.len(), counts)
            },
        }
    }

    /// Monomorphic LSD radix sort with an occupancy pre-pass: an
    /// OR/AND fold (vectorized under AVX2) finds the byte positions
    /// that vary across the input, and only those get a counting +
    /// scatter pass. Output equals `data.sort_unstable()`.
    pub fn radix_sort_u64(&self, data: &mut [u64]) {
        match self.backend {
            Backend::Scalar => scalar::radix_sort_u64(data),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: backend is Avx2 only when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::radix_sort_u64(data) },
        }
    }

    /// [`Kernels::radix_sort_u64`] over `u32` keys.
    pub fn radix_sort_u32(&self, data: &mut [u32]) {
        match self.backend {
            Backend::Scalar => scalar::radix_sort_u32(data),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: backend is Avx2 only when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::radix_sort_u32(data) },
        }
    }

    /// Two-way merge of sorted slices into an exactly-sized output
    /// window: [`merge_two_into_slice`] on every backend.
    pub fn merge_u64(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        scalar::merge_into(a, b, out)
    }

    /// [`Kernels::merge_u64`] over `u32` keys.
    pub fn merge_u32(&self, a: &[u32], b: &[u32], out: &mut [u32]) {
        scalar::merge_into(a, b, out)
    }
}

pub use scalar::merge_into as merge_two_into_slice;

/// Flatten an ascending ladder into a complete implicit search tree
/// (root at index 0, children of `i` at `2i+1`/`2i+2`), padded to a
/// full `height`-level tree with `u64::MAX` sentinels. Descending the
/// tree with the branchless rule `i -> 2i + 1 + (tree[i] <= key)`
/// lands on leaf number `upper_bound(padded ladder, key)`; clamping at
/// the real ladder length removes the sentinel ranks exactly.
fn build_eytzinger_u64(ladder: &[u64]) -> (Vec<u64>, u32) {
    let height = (ladder.len() + 1).next_power_of_two().trailing_zeros();
    let nodes = (1usize << height) - 1;
    let mut tree = vec![u64::MAX; nodes];
    // In-order fill: an in-order walk of the complete tree visits the
    // padded sorted ladder left to right.
    fn fill(tree: &mut [u64], node: usize, ladder: &[u64], next: &mut usize) {
        if node >= tree.len() {
            return;
        }
        fill(tree, 2 * node + 1, ladder, next);
        tree[node] = ladder.get(*next).copied().unwrap_or(u64::MAX);
        *next += 1;
        fill(tree, 2 * node + 2, ladder, next);
    }
    let mut next = 0;
    fill(&mut tree, 0, ladder, &mut next);
    (tree, height)
}

/// `u32` twin of [`build_eytzinger_u64`] (sentinel `u32::MAX`).
fn build_eytzinger_u32(ladder: &[u32]) -> (Vec<u32>, u32) {
    let height = (ladder.len() + 1).next_power_of_two().trailing_zeros();
    let nodes = (1usize << height) - 1;
    let mut tree = vec![u32::MAX; nodes];
    fn fill(tree: &mut [u32], node: usize, ladder: &[u32], next: &mut usize) {
        if node >= tree.len() {
            return;
        }
        fill(tree, 2 * node + 1, ladder, next);
        tree[node] = ladder.get(*next).copied().unwrap_or(u32::MAX);
        *next += 1;
        fill(tree, 2 * node + 2, ladder, next);
    }
    let mut next = 0;
    fill(&mut tree, 0, ladder, &mut next);
    (tree, height)
}

/// `true` when `T` routes to the monomorphic integer kernels (`T` is
/// exactly `u64` or `u32`). Callers use this to pick the kernel path
/// before committing to a recursion shape.
pub fn kernel_element<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<u64>() || TypeId::of::<T>() == TypeId::of::<u32>()
}

/// Reinterpret `&[T]` as `&[u64]` when `T` *is* `u64`.
fn as_u64s<T: 'static>(s: &[T]) -> Option<&[u64]> {
    (TypeId::of::<T>() == TypeId::of::<u64>())
        // SAFETY: T == u64 exactly (same layout, same lifetime).
        .then(|| unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u64>(), s.len()) })
}

/// Reinterpret `&[T]` as `&[u32]` when `T` *is* `u32`.
fn as_u32s<T: 'static>(s: &[T]) -> Option<&[u32]> {
    (TypeId::of::<T>() == TypeId::of::<u32>())
        // SAFETY: T == u32 exactly.
        .then(|| unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u32>(), s.len()) })
}

/// Mutable twin of [`as_u64s`].
fn as_u64s_mut<T: 'static>(s: &mut [T]) -> Option<&mut [u64]> {
    (TypeId::of::<T>() == TypeId::of::<u64>())
        // SAFETY: T == u64 exactly; the borrow is exclusive.
        .then(|| unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u64>(), s.len()) })
}

/// Mutable twin of [`as_u32s`].
fn as_u32s_mut<T: 'static>(s: &mut [T]) -> Option<&mut [u32]> {
    (TypeId::of::<T>() == TypeId::of::<u32>())
        // SAFETY: T == u32 exactly; the borrow is exclusive.
        .then(|| unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u32>(), s.len()) })
}

/// Generic bridge to the classification kernel: needle `i`'s key bits
/// are `get_bits(i)` (must fit the element type's value range). Routes
/// `u64`/`u32` element types to the monomorphic kernels and returns
/// `true`; any other `T` returns `false` untouched so the caller keeps
/// its portable `partition_point` path.
pub fn ladder_bounds_typed<T: 'static>(
    kernels: Kernels,
    sorted: &[T],
    n_needles: usize,
    get_bits: impl Fn(usize) -> u64,
    base: u64,
    out: &mut Vec<u64>,
) -> bool {
    if let Some(s) = as_u64s(sorted) {
        kernels.ladder_bounds_u64_by(s, n_needles, get_bits, base, out);
        return true;
    }
    if let Some(s) = as_u32s(sorted) {
        kernels.ladder_bounds_u32_by(s, n_needles, |i| get_bits(i) as u32, base, out);
        return true;
    }
    false
}

/// Generic bridge to the two-way merge kernel: merges `a` and `b`
/// (sorted) into `out` and returns `true` for `u64`/`u32` elements,
/// `false` (output untouched) otherwise.
pub fn merge_typed<T: 'static + Copy>(kernels: Kernels, a: &[T], b: &[T], out: &mut [T]) -> bool {
    if let (Some(a), Some(b)) = (as_u64s(a), as_u64s(b)) {
        let out = as_u64s_mut(out).expect("out has the same element type");
        kernels.merge_u64(a, b, out);
        return true;
    }
    if let (Some(a), Some(b)) = (as_u32s(a), as_u32s(b)) {
        let out = as_u32s_mut(out).expect("out has the same element type");
        kernels.merge_u32(a, b, out);
        return true;
    }
    false
}

/// Generic bridge to the radix kernel: sorts `data` ascending and
/// returns `true` for `u64`/`u32` elements, `false` (data untouched)
/// otherwise.
pub fn radix_sort_typed<T: 'static>(kernels: Kernels, data: &mut [T]) -> bool {
    if let Some(d) = as_u64s_mut(data) {
        kernels.radix_sort_u64(d);
        return true;
    }
    if let Some(d) = as_u32s_mut(data) {
        kernels.radix_sort_u32(d);
        return true;
    }
    false
}
