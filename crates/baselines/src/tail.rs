//! The steps the splitter-based baselines share, written once: the
//! charged local sort, the regular pick of splitters from a gathered
//! sample, the upper-bound cut, and the level loop of HykSort and AMS.
//! The exchange and the merge after it are the histogram sort's own,
//! [`dhs_core::route_merge`] and [`dhs_core::merge_received`]. What is
//! left in each baseline's module is how it chooses its splitters.
//!
//! Each step opens the histogram sort's span for its phase and adds the
//! span's virtual time to that phase of the [`SortStats`].

use dhs_core::exchange::ExchangePlan;
use dhs_core::{Key, SortStats};
use dhs_runtime::{Comm, Work};

fn elem_bytes<K>() -> u64 {
    std::mem::size_of::<K>() as u64
}

/// Sort the local block, charged as one comparison sort; sets `n_in`.
pub(crate) fn sort_local<K: Key>(comm: &Comm, local: &mut [K], stats: &mut SortStats) {
    stats.n_in = local.len();
    let sp = comm.span("local_sort");
    local.sort_unstable();
    comm.charge(Work::SortElems {
        n: local.len() as u64,
        elem_bytes: elem_bytes::<K>(),
    });
    stats.local_sort_ns += sp.finish();
}

/// Gather every rank's `sample` at one processor, sort the pool and
/// broadcast its `m − 1` keys at the regular positions `i·|pool|/m` —
/// none when every sample is empty. Collective.
pub(crate) fn regular_splitters<K: Key>(comm: &Comm, sample: Vec<K>, m: usize) -> Vec<K> {
    comm.gather_reduce(
        sample,
        move |gathered| {
            let mut pool: Vec<K> = gathered.into_iter().flatten().collect();
            pool.sort_unstable();
            (1..m)
                .filter_map(|i| pool.get(i * pool.len() / m).copied())
                .collect()
        },
        |r: &Vec<K>| r.len() as u64 * elem_bytes::<K>(),
    )
}

/// Cut the sorted block after the last key `≤` each splitter (the
/// `prepare` phase): segment `d` goes to rank `d`, and without
/// splitters (every sample was empty) everything goes to rank 0. The
/// cuts come from the rank's buffer pool, to which
/// [`dhs_core::route_merge`] returns them.
pub(crate) fn upper_bound_cut<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    splitters: &[K],
    stats: &mut SortStats,
) -> ExchangePlan {
    let sp = comm.span("prepare");
    let n = sorted_local.len();
    comm.charge(Work::BinarySearches {
        searches: splitters.len() as u64,
        n: n as u64,
    });
    let mut cuts = comm.pool().take_usize();
    cuts.reserve(comm.size() + 1);
    cuts.push(0);
    cuts.extend(
        splitters
            .iter()
            .map(|s| sorted_local.partition_point(|x| x <= s)),
    );
    cuts.resize(comm.size() + 1, n);
    stats.prepare_ns += sp.finish();
    ExchangePlan {
        cuts,
        scanned: Vec::new(),
    }
}

/// Run `level` on ever smaller communicators until one has a single
/// rank: it sorts one level and returns this rank's group, or `None`
/// when the communicator holds no key.
pub(crate) fn recurse_levels(comm: &Comm, mut level: impl FnMut(&Comm) -> Option<Comm>) {
    let mut next = (comm.size() > 1).then(|| level(comm)).flatten();
    while let Some(cur) = next.filter(|c| c.size() > 1) {
        next = level(&cur);
    }
}
