//! Builder for [`SortConfig`].
//!
//! The builder is the single sanctioned construction path: `build()`
//! runs [`SortConfig::validate`], so an unexecutable configuration
//! (negative ε, zero iteration cap) is rejected at construction time
//! instead of deep inside a sort. `SortConfig::default()` remains for
//! the paper's evaluation setup, and this module is the only place a
//! `SortConfig` struct literal is written.

use dhs_merge::MergeAlgo;
use dhs_runtime::AllToAllAlgo;

use crate::kernels::KernelPolicy;
use crate::sort::{
    InvalidSortConfig, LocalSort, Partitioning, RecoveryPolicy, SortConfig, WarmStart,
};

/// Typed, chainable constructor for [`SortConfig`].
///
/// ```
/// use dhs_core::{Partitioning, SortConfig};
///
/// let cfg = SortConfig::builder()
///     .epsilon(0.03)
///     .partitioning(Partitioning::Balanced)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.epsilon, 0.03);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SortConfigBuilder {
    cfg: SortConfig,
}

impl SortConfigBuilder {
    /// Start from the paper's evaluation defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load-balance threshold `ε ≥ 0`; `0` demands exact boundaries.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.cfg.epsilon = epsilon;
        self
    }

    /// Boundary placement policy.
    pub fn partitioning(mut self, partitioning: Partitioning) -> Self {
        self.cfg.partitioning = partitioning;
        self
    }

    /// Engine for the local merge of received runs.
    pub fn merge(mut self, merge: MergeAlgo) -> Self {
        self.cfg.merge = merge;
        self
    }

    /// Node-local sorting engine.
    pub fn local_sort(mut self, local_sort: LocalSort) -> Self {
        self.cfg.local_sort = local_sort;
        self
    }

    /// Cap splitter refinement at `iterations` rounds (degrading
    /// gracefully when the cap bites). `build()` rejects a cap of 0.
    pub fn max_splitter_iterations(mut self, iterations: u32) -> Self {
        self.cfg.max_splitter_iterations = Some(iterations);
        self
    }

    /// Remove the iteration cap (the default): the splitter search
    /// runs to its key-width convergence bound.
    pub fn no_splitter_iteration_cap(mut self) -> Self {
        self.cfg.max_splitter_iterations = None;
        self
    }

    /// Width of a splitter-refinement round in units of `P − 1`
    /// candidate keys, shared among the splitters still open. `1` (the
    /// default) starts at one probe per splitter; wider rounds trade a
    /// fatter allreduce payload for fewer rounds with the same
    /// partition. `build()` rejects 0.
    pub fn probes_per_round(mut self, probes: usize) -> Self {
        self.cfg.probes_per_round = probes;
        self
    }

    /// Intra-rank host thread budget for the local phases (hybrid
    /// rank×thread execution). `1` (the default) keeps the fully
    /// serial paths. Output and virtual clock are byte-identical for
    /// every budget; `build()` rejects a budget of 0.
    pub fn threads_per_rank(mut self, threads: usize) -> Self {
        self.cfg.threads_per_rank = threads;
        self
    }

    /// Response to a mid-sort rank failure: abort the run (the
    /// default) or shrink onto the survivors and restart from the
    /// retained checkpoint. Either policy composes with every exchange
    /// schedule.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.cfg.recovery = recovery;
        self
    }

    /// Collective schedule of the data-exchange superstep's
    /// personalized all-to-all. One-factor (the default) is
    /// bandwidth-optimal; [`AllToAllAlgo::StagedKWay`] trades per-stage
    /// β for `⌈log_k P⌉·k` message latencies. `build()` rejects a
    /// staged fan-out below 2.
    pub fn exchange_algo(mut self, algo: AllToAllAlgo) -> Self {
        self.cfg.exchange_algo = algo;
        self
    }

    /// Splitter warm-start policy for repeated sorts over one world
    /// (the epoch service): reuse a caller-held stash of previously
    /// accepted splitters to seed the next search.
    /// [`WarmStart::Cold`] (the default) ignores and clears the
    /// stash, reproducing the one-shot sort exactly.
    ///
    /// ```
    /// use dhs_core::{SortConfig, WarmStart};
    ///
    /// let cfg = SortConfig::builder()
    ///     .warm_start(WarmStart::SeededWithBrackets)
    ///     .build()
    ///     .expect("valid config");
    /// assert_eq!(cfg.warm_start, WarmStart::SeededWithBrackets);
    /// ```
    pub fn warm_start(mut self, warm_start: WarmStart) -> Self {
        self.cfg.warm_start = warm_start;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<SortConfig, InvalidSortConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl SortConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> SortConfigBuilder {
        SortConfigBuilder::new()
    }
}

impl Default for SortConfig {
    fn default() -> Self {
        // The paper's evaluation setup: perfect partitioning, ε = 0,
        // re-sort as the merge step, monolithic all-to-allv.
        Self {
            epsilon: 0.0,
            partitioning: Partitioning::Perfect,
            merge: MergeAlgo::Resort,
            local_sort: LocalSort::Comparison,
            max_splitter_iterations: None,
            probes_per_round: 1,
            threads_per_rank: 1,
            recovery: RecoveryPolicy::Abort,
            exchange_algo: AllToAllAlgo::OneFactor,
            warm_start: WarmStart::Cold,
            kernels: KernelPolicy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        let built = SortConfig::builder().build().expect("defaults are valid");
        let def = SortConfig::default();
        assert_eq!(built.epsilon, def.epsilon);
        assert_eq!(built.partitioning, def.partitioning);
        assert_eq!(built.merge, def.merge);
        assert_eq!(built.local_sort, def.local_sort);
        assert_eq!(built.max_splitter_iterations, def.max_splitter_iterations);
        assert_eq!(built.probes_per_round, def.probes_per_round);
        assert_eq!(built.threads_per_rank, def.threads_per_rank);
        assert_eq!(built.recovery, def.recovery);
        assert_eq!(built.exchange_algo, def.exchange_algo);
        assert_eq!(built.warm_start, def.warm_start);
        assert_eq!(def.warm_start, WarmStart::Cold, "cold start is the default");
        assert_eq!(def.threads_per_rank, 1, "default must be fully serial");
        assert_eq!(
            def.probes_per_round, 1,
            "default round is P - 1 probes wide"
        );
        assert_eq!(def.recovery, RecoveryPolicy::Abort, "abort is the default");
        assert_eq!(
            def.exchange_algo,
            AllToAllAlgo::OneFactor,
            "one-factor is the default schedule"
        );
    }

    #[test]
    fn builder_rejects_degenerate_staged_fanout() {
        for k in [0, 1] {
            let err = SortConfig::builder()
                .exchange_algo(AllToAllAlgo::StagedKWay { k })
                .build();
            assert!(
                matches!(err, Err(InvalidSortConfig::BadExchangeFanout(got)) if got == k),
                "fan-out {k} must be rejected"
            );
        }
    }

    #[test]
    fn builder_exchange_algo_roundtrip() {
        let cfg = SortConfig::builder()
            .exchange_algo(AllToAllAlgo::StagedKWay { k: 8 })
            .build()
            .expect("staged k=8 is valid");
        assert_eq!(cfg.exchange_algo, AllToAllAlgo::StagedKWay { k: 8 });
    }

    #[test]
    fn builder_recovery_roundtrip() {
        let cfg = SortConfig::builder()
            .recovery(RecoveryPolicy::Shrink)
            .build()
            .expect("shrink over all-to-allv is valid");
        assert_eq!(cfg.recovery, RecoveryPolicy::Shrink);
    }

    #[test]
    fn builder_warm_start_roundtrip() {
        for ws in [WarmStart::Cold, WarmStart::SeededWithBrackets] {
            let cfg = SortConfig::builder()
                .warm_start(ws)
                .build()
                .expect("every warm-start policy is valid alone");
            assert_eq!(cfg.warm_start, ws);
        }
    }

    #[test]
    fn builder_rejects_zero_probes() {
        let err = SortConfig::builder().probes_per_round(0).build();
        assert!(matches!(err, Err(InvalidSortConfig::ZeroProbes)));
    }

    #[test]
    fn builder_probes_roundtrip() {
        let cfg = SortConfig::builder()
            .probes_per_round(7)
            .build()
            .expect("7 probes per round is valid");
        assert_eq!(cfg.probes_per_round, 7);
    }

    #[test]
    fn builder_rejects_zero_threads() {
        let err = SortConfig::builder().threads_per_rank(0).build();
        assert!(matches!(err, Err(InvalidSortConfig::ZeroThreads)));
    }

    #[test]
    fn builder_threads_roundtrip() {
        let cfg = SortConfig::builder()
            .threads_per_rank(4)
            .build()
            .expect("4 threads per rank is valid");
        assert_eq!(cfg.threads_per_rank, 4);
    }

    #[test]
    fn builder_rejects_bad_epsilon() {
        for eps in [-0.5, f64::NAN, f64::INFINITY] {
            let err = SortConfig::builder().epsilon(eps).build();
            assert!(
                matches!(err, Err(InvalidSortConfig::BadEpsilon(_))),
                "epsilon {eps} must be rejected"
            );
        }
    }

    #[test]
    fn builder_rejects_zero_iteration_cap() {
        let err = SortConfig::builder().max_splitter_iterations(0).build();
        assert!(matches!(err, Err(InvalidSortConfig::ZeroIterationCap)));
    }

    #[test]
    fn builder_cap_roundtrip() {
        let cfg = SortConfig::builder()
            .max_splitter_iterations(3)
            .build()
            .expect("cap of 3 is valid");
        assert_eq!(cfg.max_splitter_iterations, Some(3));
        let cfg = SortConfigBuilder::new()
            .max_splitter_iterations(3)
            .no_splitter_iteration_cap()
            .build()
            .expect("uncapped is valid");
        assert_eq!(cfg.max_splitter_iterations, None);
    }
}
