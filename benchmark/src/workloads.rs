//! The four workloads and their seeded input generators.
//!
//! Every workload sorts on `ClusterConfig::supermuc_phase2(p)` with
//! `SortConfig::default()` — what a `dhs::prelude` user gets, so a
//! later change of the defaults shows as a gain or a loss here.

use dhs_core::{SortConfig, WarmStart};
use dhs_runtime::{ClusterConfig, RunnerEngine};
use dhs_workloads::{rank_local_keys, rank_seed, Distribution, Layout, SplitMix64};

/// What one op of the workload sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `histogram_sort` of u64 keys in a fresh world.
    Keys,
    /// One `histogram_sort_by` of `(u64 key, u64 payload)` records in
    /// a fresh world.
    Records,
    /// One `EpochSorter::sort_epoch` of a churning stream on one
    /// long-lived world.
    Epochs,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub p: usize,
    /// Global element count of one op.
    pub n_total: usize,
    pub dist: Distribution,
    pub layout: Layout,
    pub engine: RunnerEngine,
    /// Untimed ops that fill caches and the allocator before timing.
    pub warmup: usize,
    /// Distinct seeded inputs a run cycles through. The exact (virtual
    /// clock, counter) metrics are means over exactly these inputs —
    /// for [`Kind::Epochs`] over the first `inputs` timed epochs — so
    /// they do not depend on how many ops fit into the run.
    pub inputs: usize,
}

pub const NAMES: [&str; 4] = [
    "local_heavy",
    "latency_bound",
    "records_skew",
    "epoch_stream",
];

/// Look a workload up by name; `smoke` shrinks it to a fraction of a
/// second per op under the same name and metric set.
pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    let w = match name {
        // Local sort + re-sort merge dominate; 8 MiB per rank exceeds
        // the private L2.
        "local_heavy" => Workload {
            name: "local_heavy",
            kind: Kind::Keys,
            p: 8,
            n_total: 8 * pick(1 << 20, 1 << 13),
            dist: Distribution::paper_uniform(),
            layout: Layout::Balanced,
            engine: RunnerEngine::default(),
            warmup: pick(3, 1),
            inputs: 2,
        },
        // 256 keys per rank: almost all host time is the splitter
        // search's allreduce rounds over parked rank tasks.
        "latency_bound" => Workload {
            name: "latency_bound",
            kind: Kind::Keys,
            p: pick(1024, 64),
            n_total: pick(1024, 64) * pick(256, 64),
            dist: Distribution::paper_uniform(),
            layout: Layout::Balanced,
            engine: RunnerEngine::tasks(),
            warmup: pick(2, 1),
            inputs: 4,
        },
        // The `_by` twin of the pipeline on duplicate-heavy 16-byte
        // records with half the ranks empty.
        "records_skew" => Workload {
            name: "records_skew",
            kind: Kind::Records,
            p: pick(64, 16),
            n_total: pick(1 << 22, 1 << 14),
            dist: Distribution::Zipf {
                items: 1 << 16,
                s: 1.2,
            },
            layout: Layout::SparseFront {
                empty_permille: 500,
            },
            engine: RunnerEngine::default(),
            warmup: pick(3, 1),
            inputs: 2,
        },
        // One long-lived world, warm-started splitters, pooled scratch.
        "epoch_stream" => Workload {
            name: "epoch_stream",
            kind: Kind::Epochs,
            p: pick(32, 8),
            n_total: pick(32, 8) * pick(32768, 2048),
            dist: Distribution::paper_uniform(),
            layout: Layout::Balanced,
            engine: RunnerEngine::default(),
            warmup: pick(8, 2),
            inputs: pick(128, 8),
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig::supermuc_phase2(self.p).with_engine(self.engine)
    }

    pub fn sort_config(&self) -> SortConfig {
        let mut cfg = SortConfig::default();
        if self.kind == Kind::Epochs {
            // `dhs serve`'s default.
            cfg.warm_start = WarmStart::SeededWithBrackets;
        }
        cfg
    }

    /// Per-rank key blocks of input `index` for `seed`.
    pub fn keys(&self, seed: u64, index: usize) -> Vec<Vec<u64>> {
        let seed = rank_seed(seed, index);
        (0..self.p)
            .map(|rank| rank_local_keys(self.dist, self.layout, self.n_total, self.p, rank, seed))
            .collect()
    }

    /// [`Workload::keys`] with each key's global input position as its
    /// payload, so every record is distinct.
    pub fn records(&self, seed: u64, index: usize) -> Vec<Vec<(u64, u64)>> {
        let mut next = 0u64;
        self.keys(seed, index)
            .into_iter()
            .map(|block| {
                block
                    .into_iter()
                    .map(|key| {
                        next += 1;
                        (key, next - 1)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Advance one rank's batch of the 10 %-churn stream from epoch
/// `epoch − 1` to `epoch`: a seeded tenth of the positions is redrawn
/// from the paper's uniform key range. Incremental, so a long stream
/// costs O(n) per epoch (`dhs_workloads::epoch_rank_keys` replays every
/// generation from epoch 0).
pub fn churn_step(batch: &mut [u64], seed: u64, epoch: u64, rank: usize) {
    let mut g = SplitMix64(rank_seed(
        seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        rank,
    ));
    for slot in batch {
        if g.next_u64().is_multiple_of(10) {
            *slot = g.next_u64() % 1_000_000_001;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_is_deterministic_in_seed_epoch_rank() {
        let base: Vec<u64> = (0..4096).collect();
        let step = |seed, epoch, rank| {
            let mut b = base.clone();
            churn_step(&mut b, seed, epoch, rank);
            b
        };
        let a = step(7, 3, 2);
        assert_eq!(a, step(7, 3, 2));
        assert_ne!(a, step(8, 3, 2));
        assert_ne!(a, step(7, 4, 2));
        assert_ne!(a, step(7, 3, 1));
        let changed = a.iter().zip(&base).filter(|(x, y)| x != y).count();
        assert!((300..520).contains(&changed), "about a tenth: {changed}");
    }

    #[test]
    fn inputs_follow_seed_and_index() {
        let w = by_name("records_skew", true).expect("known workload");
        let a = w.records(1, 0);
        assert_eq!(a, w.records(1, 0));
        assert_ne!(a, w.records(2, 0));
        assert_ne!(a, w.records(1, 1));
        assert_eq!(a.len(), w.p);
        assert!(a[..w.p / 2].iter().all(Vec::is_empty), "sparse front");
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), w.n_total);
    }

    #[test]
    fn smoke_keeps_every_name() {
        for name in NAMES {
            let (full, small) = (by_name(name, false), by_name(name, true));
            assert_eq!(full.expect("full").name, small.expect("smoke").name);
        }
        assert!(by_name("nope", false).is_none());
    }
}
