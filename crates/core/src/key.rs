//! Sortable keys with an order-preserving bit representation.
//!
//! The splitter search (Algorithm 3) bisects the *key space*: each
//! iteration probes the midpoint of the remaining `[lo, hi]` key range.
//! That requires keys to expose a totally ordered integer image. All
//! primitive integers map trivially; floats use the classic
//! sign-magnitude flip (through [`OrderedF32`]/[`OrderedF64`], since raw
//! floats are not `Ord` in Rust); composite keys concatenate fields.

/// A key type usable by the distributed histogram sort.
///
/// Laws (checked by property tests):
/// * `a <= b` iff `a.to_bits() <= b.to_bits()` (order embedding);
/// * `from_bits(to_bits(x)) == x` for every value `x` in the domain;
/// * `to_bits(x) < (1 << BITS)` — the image fits in `BITS` bits.
pub trait Key: Ord + Copy + Send + Sync + 'static {
    /// Number of significant bits in the image; the splitter search
    /// converges in at most `BITS + 1` iterations.
    const BITS: u32;

    /// Order-preserving map into the unsigned integers.
    fn to_bits(self) -> u128;

    /// Inverse of [`Key::to_bits`]. Only called with values that lie
    /// between the bit images of two existing keys, so every such
    /// pattern must decode to a valid key.
    fn from_bits(bits: u128) -> Self;

    /// The midpoint of the key interval `[lo, hi]` in bit space.
    /// (Named `mid_key` to avoid colliding with the inherent
    /// `midpoint` on primitive integers.)
    fn mid_key(lo: Self, hi: Self) -> Self {
        let a = lo.to_bits();
        let b = hi.to_bits();
        debug_assert!(a <= b);
        Self::from_bits(a + (b - a) / 2)
    }

    /// Serial LSD radix sort of a block of keys: the leaf of
    /// `LocalSort::Radix`. The default sorts by the bit image; key
    /// types that *are* a machine word override it with the
    /// monomorphic byte-wise kernel, the faster of the two below
    /// ~1 Mi keys (EXPERIMENTS.md, "One kernel backend").
    fn radix_sort(data: &mut [Self]) {
        dhs_shm::radix_sort_by_bits(data, |x| x.to_bits(), Self::BITS);
    }
}

macro_rules! unsigned_key {
    ($($t:ty : $bits:expr $(=> $radix:path)?),*) => {$(
        impl Key for $t {
            const BITS: u32 = $bits;
            #[inline]
            fn to_bits(self) -> u128 {
                self as u128
            }
            #[inline]
            fn from_bits(bits: u128) -> Self {
                bits as $t
            }
            $(fn radix_sort(data: &mut [Self]) {
                $radix(data);
            })?
        }
    )*};
}

unsigned_key!(
    u8: 8,
    u16: 16,
    u32: 32 => dhs_shm::radix_sort_u32,
    u64: 64 => dhs_shm::radix_sort_u64
);

macro_rules! signed_key {
    ($($t:ty => $u:ty : $bits:expr),*) => {$(
        impl Key for $t {
            const BITS: u32 = $bits;
            #[inline]
            fn to_bits(self) -> u128 {
                // Shift the sign: i::MIN -> 0, i::MAX -> 2^BITS - 1.
                ((self as $u) ^ (1 << ($bits - 1))) as u128
            }
            #[inline]
            fn from_bits(bits: u128) -> Self {
                ((bits as $u) ^ (1 << ($bits - 1))) as $t
            }
        }
    )*};
}

signed_key!(i8 => u8: 8, i16 => u16: 16, i32 => u32: 32, i64 => u64: 64);

/// A totally ordered `f64` (no NaN allowed), usable as a sort [`Key`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl OrderedF64 {
    /// Wrap a float.
    ///
    /// # Panics
    /// Panics on NaN, which has no total order.
    pub fn new(x: f64) -> Self {
        assert!(!x.is_nan(), "OrderedF64 cannot hold NaN");
        OrderedF64(x)
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.to_bits().cmp(&other.to_bits())
    }
}

impl Key for OrderedF64 {
    const BITS: u32 = 64;
    #[inline]
    fn to_bits(self) -> u128 {
        let b = self.0.to_bits();
        (if b & (1 << 63) != 0 {
            !b
        } else {
            b | (1 << 63)
        }) as u128
    }
    #[inline]
    fn from_bits(bits: u128) -> Self {
        let b = bits as u64;
        let raw = if b & (1 << 63) != 0 {
            b & !(1 << 63)
        } else {
            !b
        };
        OrderedF64(f64::from_bits(raw))
    }
}

/// A totally ordered `f32` (no NaN allowed), usable as a sort [`Key`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF32(pub f32);

impl OrderedF32 {
    /// Wrap a float.
    ///
    /// # Panics
    /// Panics on NaN, which has no total order.
    pub fn new(x: f32) -> Self {
        assert!(!x.is_nan(), "OrderedF32 cannot hold NaN");
        OrderedF32(x)
    }
}

impl Eq for OrderedF32 {}

impl PartialOrd for OrderedF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.to_bits().cmp(&other.to_bits())
    }
}

impl Key for OrderedF32 {
    const BITS: u32 = 32;
    #[inline]
    fn to_bits(self) -> u128 {
        let b = self.0.to_bits();
        (if b & (1 << 31) != 0 {
            !b
        } else {
            b | (1 << 31)
        }) as u128
    }
    #[inline]
    fn from_bits(bits: u128) -> Self {
        let b = bits as u32;
        let raw = if b & (1 << 31) != 0 {
            b & !(1 << 31)
        } else {
            !b
        };
        OrderedF32(f32::from_bits(raw))
    }
}

/// The uniqueness transform of §V-A: every key is extended with its
/// origin `(processor id, local index)`, making all keys globally
/// distinct ("each key x is defined as a triple (x, y, z)"). Costs 8
/// extra bytes of metadata per key during histogramming, as the paper
/// notes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UniqueKey<K: Key> {
    /// The original key (most significant in the ordering).
    pub key: K,
    /// Origin rank of the key (first tiebreaker).
    pub rank: u32,
    /// Position within the origin rank's block (second tiebreaker).
    pub index: u32,
}

impl<K: Key> Key for UniqueKey<K> {
    const BITS: u32 = K::BITS + 64;

    #[inline]
    fn to_bits(self) -> u128 {
        debug_assert!(K::BITS <= 64, "composite keys need K::BITS <= 64");
        (self.key.to_bits() << 64) | ((self.rank as u128) << 32) | self.index as u128
    }

    #[inline]
    fn from_bits(bits: u128) -> Self {
        UniqueKey {
            key: K::from_bits(bits >> 64),
            rank: ((bits >> 32) & 0xFFFF_FFFF) as u32,
            index: (bits & 0xFFFF_FFFF) as u32,
        }
    }
}

/// Wrap a rank's local keys with their origin coordinates.
pub fn make_unique<K: Key>(local: &[K], rank: usize) -> Vec<UniqueKey<K>> {
    assert!(rank <= u32::MAX as usize && local.len() <= u32::MAX as usize);
    local
        .iter()
        .enumerate()
        .map(|(i, &key)| UniqueKey {
            key,
            rank: rank as u32,
            index: i as u32,
        })
        .collect()
}

/// Drop the origin coordinates again.
pub fn strip_unique<K: Key>(wrapped: Vec<UniqueKey<K>>) -> Vec<K> {
    wrapped.into_iter().map(|u| u.key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_embedding<K: Key + std::fmt::Debug>(values: &[K]) {
        for &a in values {
            assert_eq!(K::from_bits(a.to_bits()), a, "roundtrip {a:?}");
            assert!(
                a.to_bits() >> K::BITS == 0 || K::BITS == 128,
                "fits in BITS {a:?}"
            );
            for &b in values {
                assert_eq!(a <= b, a.to_bits() <= b.to_bits(), "order {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn unsigned_embedding() {
        check_embedding(&[0u64, 1, 42, u64::MAX / 2, u64::MAX]);
        check_embedding(&[0u32, 7, u32::MAX]);
    }

    #[test]
    fn signed_embedding() {
        check_embedding(&[i64::MIN, -5, -1, 0, 1, 5, i64::MAX]);
        check_embedding(&[i32::MIN, -1, 0, i32::MAX]);
    }

    #[test]
    fn float_embedding() {
        let vals: Vec<OrderedF64> = [
            -f64::INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.25,
            1e300,
            f64::INFINITY,
        ]
        .iter()
        .map(|&x| OrderedF64(x))
        .collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1]);
            assert!(w[0].to_bits() <= w[1].to_bits());
        }
        for &v in &vals {
            let rt = OrderedF64::from_bits(v.to_bits());
            assert_eq!(rt.0.to_bits(), v.0.to_bits());
        }
    }

    #[test]
    fn float32_embedding() {
        let vals: Vec<OrderedF32> = [-1e30f32, -1.5, 0.0, 2.25, 1e30]
            .iter()
            .map(|&x| OrderedF32(x))
            .collect();
        for w in vals.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits());
        }
    }

    #[test]
    fn midpoint_stays_inside_and_makes_progress() {
        let lo = 10u64;
        let hi = 11u64;
        assert_eq!(<u64 as Key>::mid_key(lo, hi), 10);
        assert_eq!(<u64 as Key>::mid_key(0, u64::MAX), u64::MAX / 2);
        let m = OrderedF64::mid_key(OrderedF64(1.0), OrderedF64(2.0));
        assert!((1.0..=2.0).contains(&m.0));
    }

    #[test]
    fn unique_key_orders_by_key_then_origin() {
        let a = UniqueKey {
            key: 5u64,
            rank: 0,
            index: 9,
        };
        let b = UniqueKey {
            key: 5u64,
            rank: 1,
            index: 0,
        };
        let c = UniqueKey {
            key: 6u64,
            rank: 0,
            index: 0,
        };
        assert!(a < b && b < c);
        assert!(a.to_bits() < b.to_bits() && b.to_bits() < c.to_bits());
        assert_eq!(UniqueKey::<u64>::from_bits(b.to_bits()), b);
    }

    #[test]
    fn make_unique_distinguishes_duplicates() {
        let keys = vec![7u64, 7, 7];
        let mut wrapped = make_unique(&keys, 3);
        wrapped.sort_unstable();
        wrapped.dedup();
        assert_eq!(wrapped.len(), 3, "duplicates must become distinct");
        assert_eq!(strip_unique(wrapped), keys);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ordered_f64_rejects_nan() {
        OrderedF64::new(f64::NAN);
    }
}
