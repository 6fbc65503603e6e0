//! STL-like global algorithms over [`GlobalArray`]s — DASH's
//! "containers and algorithms to operate on global data" surface
//! (paper §VI-A1, ref \[33\]). Every function is collective and follows
//! the owner-computes model: each rank scans its local block, then one
//! reduction combines the partial results.

use dhs_runtime::{Comm, Work};

use crate::array::GlobalArray;

/// Smallest element and its global index (first occurrence), or `None`
/// for an empty array.
pub fn min_element<T>(comm: &Comm, arr: &GlobalArray<T>) -> Option<(usize, T)>
where
    T: Ord + Copy + Send + Sync + 'static,
{
    extremum(comm, arr, |a, b| a < b)
}

/// Largest element and its global index (first occurrence), or `None`
/// for an empty array.
pub fn max_element<T>(comm: &Comm, arr: &GlobalArray<T>) -> Option<(usize, T)>
where
    T: Ord + Copy + Send + Sync + 'static,
{
    extremum(comm, arr, |a, b| a > b)
}

fn extremum<T>(
    comm: &Comm,
    arr: &GlobalArray<T>,
    better: impl Fn(&T, &T) -> bool,
) -> Option<(usize, T)>
where
    T: Ord + Copy + Send + Sync + 'static,
{
    let offset = arr.pattern().offset_of(comm.rank());
    let local_best: Option<(usize, T)> = arr.with_local(|l| {
        comm.charge(Work::Compares(l.len() as u64));
        let mut best: Option<(usize, T)> = None;
        for (i, &x) in l.iter().enumerate() {
            if best.is_none_or(|(_, b)| better(&x, &b)) {
                best = Some((offset + i, x));
            }
        }
        best
    });
    // Reduce by (value, index): better value wins; ties take the lower
    // global index.
    let combined = comm.allreduce_with(vec![local_best], |a, b| match (a, b) {
        (None, x) => *x,
        (x, None) => *x,
        (Some((ia, va)), Some((ib, vb))) => {
            if better(vb, va) || (va == vb && ib < ia) {
                Some((*ib, *vb))
            } else {
                Some((*ia, *va))
            }
        }
    });
    combined.into_iter().next().expect("one element")
}

/// Count elements matching `pred` over the whole array.
pub fn count_if<T, F>(comm: &Comm, arr: &GlobalArray<T>, pred: F) -> u64
where
    T: Copy + Send + Sync + 'static,
    F: Fn(&T) -> bool,
{
    let local = arr.with_local(|l| {
        comm.charge(Work::Compares(l.len() as u64));
        l.iter().filter(|x| pred(x)).count() as u64
    });
    comm.allreduce_sum(vec![local])[0]
}

/// Global sum of a projection of every element.
pub fn sum_by<T, F>(comm: &Comm, arr: &GlobalArray<T>, f: F) -> u64
where
    T: Copy + Send + Sync + 'static,
    F: Fn(&T) -> u64,
{
    let local = arr.with_local(|l| {
        comm.charge(Work::MoveBytes(std::mem::size_of_val(l) as u64));
        l.iter().map(&f).fold(0u64, u64::wrapping_add)
    });
    comm.allreduce_sum(vec![local])[0]
}

/// Apply `f` to every local element in place (owner computes; no
/// communication).
pub fn transform_local<T, F>(comm: &Comm, arr: &GlobalArray<T>, f: F)
where
    T: Copy + Send + Sync + 'static,
    F: Fn(T) -> T,
{
    arr.with_local_mut(|l| {
        comm.charge(Work::MoveBytes((l.len() * std::mem::size_of::<T>()) as u64));
        for x in l.iter_mut() {
            *x = f(*x);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    fn make(comm: &Comm, vals: Vec<u64>) -> GlobalArray<u64> {
        let arr = GlobalArray::from_local(comm, vals);
        arr.fence(comm);
        arr
    }

    #[test]
    fn min_max_with_indices() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let arr = make(comm, vec![10 + comm.rank() as u64, 5 - comm.rank() as u64]);
            (min_element(comm, &arr), max_element(comm, &arr))
        });
        // Layout: [10, 5, 11, 4, 12, 3].
        for ((min, max), _) in out {
            assert_eq!(min, Some((5, 3)));
            assert_eq!(max, Some((4, 12)));
        }
    }

    #[test]
    fn min_ties_take_lowest_index() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let arr = make(comm, vec![7u64, 7]);
            min_element(comm, &arr)
        });
        for (min, _) in out {
            assert_eq!(min, Some((0, 7)));
        }
    }

    #[test]
    fn empty_array_has_no_extrema() {
        let out = run(&ClusterConfig::small_cluster(2), |comm| {
            let arr = make(comm, Vec::<u64>::new());
            (
                min_element(comm, &arr),
                max_element(comm, &arr),
                count_if(comm, &arr, |_| true),
            )
        });
        for ((min, max, cnt), _) in out {
            assert_eq!(min, None);
            assert_eq!(max, None);
            assert_eq!(cnt, 0);
        }
    }

    #[test]
    fn count_and_sum() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let arr = make(comm, vec![comm.rank() as u64; 10]);
            (
                count_if(comm, &arr, |&x| x >= 2),
                sum_by(comm, &arr, |&x| x),
            )
        });
        for ((cnt, sum), _) in out {
            assert_eq!(cnt, 20); // ranks 2 and 3
            assert_eq!(sum, 10 * (1 + 2 + 3));
        }
    }

    #[test]
    fn transform_is_local_and_visible() {
        let out = run(&ClusterConfig::small_cluster(2), |comm| {
            let arr = make(comm, vec![comm.rank() as u64 + 1]);
            transform_local(comm, &arr, |x| x * 100);
            arr.fence(comm);
            arr.get_range(comm, 0, 2)
        });
        for (v, _) in out {
            assert_eq!(v, vec![100, 200]);
        }
    }
}
