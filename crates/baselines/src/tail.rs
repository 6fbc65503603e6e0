//! The steps the splitter-based baselines share, written once: the
//! charged local sort, the regular pick of splitters from a gathered
//! sample, the upper-bound cut with its borrowed-segment exchange, the
//! charged merge of the received runs, and the level loop of HykSort
//! and AMS. What is left in each baseline's module is how it chooses
//! its splitters.
//!
//! Each step opens the histogram sort's span for its phase and adds the
//! span's virtual time to that phase of the [`SortStats`].

use dhs_core::exchange::{exchange_data, ExchangePlan};
use dhs_core::{Key, LocalSort, SortStats};
use dhs_merge::MergeAlgo;
use dhs_runtime::{AllToAllAlgo, Comm, RecvRuns, Work};

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
/// `prepare` phase) and send segment `d` to rank `d`, borrowed (the
/// `exchange` phase). Without splitters (every sample was empty)
/// everything goes to rank 0.
pub(crate) fn upper_bound_exchange<K: Key>(
    comm: &Comm,
    sorted_local: &[K],
    splitters: &[K],
    stats: &mut SortStats,
) -> RecvRuns<K> {
    let sp = comm.span("prepare");
    let n = sorted_local.len();
    comm.charge(Work::BinarySearches {
        searches: splitters.len() as u64,
        n: n as u64,
    });
    let mut cuts = Vec::with_capacity(comm.size() + 1);
    cuts.push(0);
    cuts.extend(
        splitters
            .iter()
            .map(|s| sorted_local.partition_point(|x| x <= s)),
    );
    cuts.resize(comm.size() + 1, n);
    stats.prepare_ns += sp.finish();
    let plan = ExchangePlan {
        cuts,
        scanned: Vec::new(),
    };
    let sp = comm.span("exchange");
    let received = exchange_data(comm, sorted_local, &plan, AllToAllAlgo::OneFactor);
    stats.exchange_ns += sp.finish();
    received
}

/// Merge the received sorted runs into the rank's new block with the
/// histogram sort's own merge step, [`dhs_core::merge_received`]:
/// `merge` prices it (`Resort` as a comparison sort, `KWay` as a k-way
/// merge), the in-place run merge executes it.
/// `scratch` is the rank's dead send block.
pub(crate) fn merge_received<K: Key>(
    comm: &Comm,
    received: RecvRuns<K>,
    scratch: Vec<K>,
    merge: MergeAlgo,
    stats: &mut SortStats,
) -> Vec<K> {
    let sp = comm.span("merge");
    let merged = dhs_core::merge_received(comm, received, scratch, merge, LocalSort::Comparison);
    stats.merge_ns += sp.finish();
    merged
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
