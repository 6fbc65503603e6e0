//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] rides on [`crate::ClusterConfig`] and describes three
//! orthogonal fault classes:
//!
//! - **stragglers** — a multiplicative slowdown on chosen ranks'
//!   compute charges ([`crate::Comm::charge`]);
//! - **link degradation** — extra α and a β multiplier on chosen link
//!   classes during virtual-time windows, applied wherever the cost
//!   model is consulted (collectives, one-sided transfers);
//! - **rank crashes** — a rank dies at the first runtime interaction
//!   at or after a virtual deadline, surfacing as a structured
//!   [`RankError`] through [`crate::runner::try_run`].
//!
//! Every decision is a pure function of the plan and of virtual time —
//! never of host scheduling — so the same plan reproduces identical
//! makespans and outcomes under every worker count
//! ([`crate::RunnerEngine`]): the task scheduler changes when host
//! threads run, never which fault fires. An inert plan (the default)
//! changes nothing: the cost model is borrowed unmodified.

use std::borrow::Cow;
use std::fmt;

use crate::cost::CostModel;
use crate::topology::LinkClass;

/// Multiplicative compute slowdown on one rank (global rank id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Global rank id the slowdown applies to.
    pub rank: usize,
    /// Compute charges on this rank are multiplied by this factor
    /// (must be >= 1: faults slow ranks down, never speed them up).
    pub factor: f64,
}

/// Degraded link parameters during a virtual-time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Affected link class; `None` degrades every class.
    pub class: Option<LinkClass>,
    /// Added to the class's per-message latency.
    pub extra_alpha_ns: f64,
    /// Multiplies the class's per-byte cost (>= 1).
    pub beta_factor: f64,
    /// Window start, inclusive, in virtual nanoseconds.
    pub from_ns: u64,
    /// Window end, exclusive; `u64::MAX` means "until the end".
    pub until_ns: u64,
}

/// Kill one rank at a virtual-time deadline. The rank dies at its
/// first runtime interaction (charge, collective) at or after
/// `at_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// Global rank id to kill.
    pub rank: usize,
    /// Virtual deadline; the rank dies at its next interaction.
    pub at_ns: u64,
}

/// A complete description of what goes wrong during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-rank compute slowdowns.
    pub stragglers: Vec<Straggler>,
    /// Degraded-link windows.
    pub link_faults: Vec<LinkFault>,
    /// Rank kills at virtual deadlines.
    pub crashes: Vec<Crash>,
}

impl FaultPlan {
    /// Add a compute-slowdown straggler.
    pub fn with_straggler(mut self, rank: usize, factor: f64) -> Self {
        self.stragglers.push(Straggler { rank, factor });
        self
    }

    /// Add a degraded-link window.
    pub fn with_link_fault(mut self, fault: LinkFault) -> Self {
        self.link_faults.push(fault);
        self
    }

    /// Kill `rank` at virtual time `at_ns`.
    pub fn with_crash(mut self, rank: usize, at_ns: u64) -> Self {
        self.crashes.push(Crash { rank, at_ns });
        self
    }

    /// True when the plan injects nothing; the runtime then behaves
    /// byte-identically to a build without the fault layer.
    pub fn is_inert(&self) -> bool {
        self.stragglers.is_empty() && self.link_faults.is_empty() && self.crashes.is_empty()
    }

    /// Check that the plan references only ranks in `[0, ranks)` and
    /// carries sensible parameters; returns the first violation as a
    /// typed [`FaultPlanError`].
    pub fn validate(&self, ranks: usize) -> Result<(), FaultPlanError> {
        for s in &self.stragglers {
            if s.rank >= ranks {
                return Err(FaultPlanError::StragglerRankOutOfRange {
                    rank: s.rank,
                    ranks,
                });
            }
            if !(s.factor.is_finite() && s.factor >= 1.0) {
                return Err(FaultPlanError::BadStragglerFactor {
                    rank: s.rank,
                    factor: s.factor,
                });
            }
        }
        for w in &self.link_faults {
            if !(w.extra_alpha_ns.is_finite() && w.extra_alpha_ns >= 0.0) {
                return Err(FaultPlanError::BadLinkAlpha {
                    extra_alpha_ns: w.extra_alpha_ns,
                });
            }
            if !(w.beta_factor.is_finite() && w.beta_factor >= 1.0) {
                return Err(FaultPlanError::BadLinkBeta {
                    beta_factor: w.beta_factor,
                });
            }
            if w.from_ns >= w.until_ns {
                return Err(FaultPlanError::EmptyLinkWindow {
                    from_ns: w.from_ns,
                    until_ns: w.until_ns,
                });
            }
        }
        for c in &self.crashes {
            if c.rank >= ranks {
                return Err(FaultPlanError::CrashRankOutOfRange {
                    rank: c.rank,
                    ranks,
                });
            }
        }
        Ok(())
    }

    /// Compute-slowdown factor for a global rank (1.0 when healthy).
    pub fn straggler_factor(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| s.factor)
            .fold(1.0, |acc, f| acc * f)
    }

    /// Earliest crash deadline for a global rank, if any.
    pub fn crash_deadline(&self, rank: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.rank == rank)
            .map(|c| c.at_ns)
            .min()
    }

    /// The cost model in effect at virtual time `now_ns`: borrowed
    /// unchanged when no degradation window is active, otherwise a
    /// clone with the active windows' penalties applied.
    pub fn cost_at<'a>(&self, base: &'a CostModel, now_ns: u64) -> Cow<'a, CostModel> {
        let mut active = self
            .link_faults
            .iter()
            .filter(|w| w.from_ns <= now_ns && now_ns < w.until_ns)
            .peekable();
        if active.peek().is_none() {
            return Cow::Borrowed(base);
        }
        let mut degraded = base.clone();
        for w in active {
            let classes = [
                LinkClass::SelfLoop,
                LinkClass::IntraNuma,
                LinkClass::IntraNode,
                LinkClass::InterNode,
            ];
            for class in classes {
                if w.class.is_some_and(|c| c != class) {
                    continue;
                }
                let link = match class {
                    LinkClass::SelfLoop => &mut degraded.self_loop,
                    LinkClass::IntraNuma => &mut degraded.intra_numa,
                    LinkClass::IntraNode => &mut degraded.intra_node,
                    LinkClass::InterNode => &mut degraded.inter_node,
                };
                link.alpha_ns += w.extra_alpha_ns;
                link.beta_ns_per_byte *= w.beta_factor;
            }
        }
        Cow::Owned(degraded)
    }
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
///
/// Display messages keep the historical assertion wording so callers
/// (and the panicking shim) stay grep- and test-compatible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A straggler entry names a rank outside `[0, ranks)`.
    StragglerRankOutOfRange {
        /// Offending rank id.
        rank: usize,
        /// Cluster size the plan was validated against.
        ranks: usize,
    },
    /// A straggler factor is not finite or is below 1.
    BadStragglerFactor {
        /// Rank the straggler entry applies to.
        rank: usize,
        /// Offending factor.
        factor: f64,
    },
    /// A link fault's extra latency is not finite or is negative.
    BadLinkAlpha {
        /// Offending extra alpha.
        extra_alpha_ns: f64,
    },
    /// A link fault's beta multiplier is not finite or is below 1.
    BadLinkBeta {
        /// Offending beta factor.
        beta_factor: f64,
    },
    /// A link fault window with `from_ns >= until_ns` matches nothing.
    EmptyLinkWindow {
        /// Window start.
        from_ns: u64,
        /// Window end.
        until_ns: u64,
    },
    /// A crash entry names a rank outside `[0, ranks)`.
    CrashRankOutOfRange {
        /// Offending rank id.
        rank: usize,
        /// Cluster size the plan was validated against.
        ranks: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::StragglerRankOutOfRange { rank, ranks } => {
                write!(
                    f,
                    "straggler rank {rank} out of range (cluster has {ranks})"
                )
            }
            FaultPlanError::BadStragglerFactor { rank, factor } => write!(
                f,
                "straggler factor {factor} on rank {rank} must be finite and >= 1"
            ),
            FaultPlanError::BadLinkAlpha { extra_alpha_ns } => write!(
                f,
                "link fault extra_alpha_ns {extra_alpha_ns} must be finite and >= 0"
            ),
            FaultPlanError::BadLinkBeta { beta_factor } => write!(
                f,
                "link fault beta_factor {beta_factor} must be finite and >= 1"
            ),
            FaultPlanError::EmptyLinkWindow { from_ns, until_ns } => {
                write!(f, "link fault window is empty ({from_ns}..{until_ns})")
            }
            FaultPlanError::CrashRankOutOfRange { rank, ranks } => {
                write!(f, "crash rank {rank} out of range (cluster has {ranks})")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One uniform draw in `[0, 1)`, a pure function of a seed and a
/// stable coordinate tuple (SplitMix64 over the folded coordinates):
/// the seeded matrices and member sets of the runtime's own tests.
#[cfg(test)]
pub(crate) fn unit_draw(seed: u64, coords: &[u64]) -> f64 {
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    for &c in coords {
        state = mix(state ^ c);
    }
    (mix(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Structured description of why a rank did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankError {
    /// The rank was killed by the fault plan at a virtual deadline.
    Crashed {
        /// The killed rank.
        rank: usize,
        /// The virtual deadline that fired.
        at_ns: u64,
    },
    /// The rank's body panicked on its own.
    Panicked {
        /// The panicking rank.
        rank: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The rank aborted a blocking operation because some other rank
    /// failed first (poison propagation, not a root cause).
    PeerFailed {
        /// The aborting rank (not the root cause).
        rank: usize,
    },
}

impl RankError {
    /// Global rank this error is attributed to.
    pub fn rank(&self) -> usize {
        match *self {
            RankError::Crashed { rank, .. }
            | RankError::Panicked { rank, .. }
            | RankError::PeerFailed { rank } => rank,
        }
    }

    /// True for errors that started the failure (crashes and panics),
    /// false for collateral peer aborts.
    pub fn is_root_cause(&self) -> bool {
        !matches!(self, RankError::PeerFailed { .. })
    }
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::Crashed { rank, at_ns } => {
                write!(f, "rank {rank} crashed at virtual t={at_ns}ns")
            }
            RankError::Panicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RankError::PeerFailed { rank } => {
                write!(f, "rank {rank} aborted because a peer rank failed")
            }
        }
    }
}

/// Typed panic payload used to carry a [`RankError`] out of a rank
/// thread; [`crate::runner::try_run`] downcasts it back.
pub struct RankAbort(pub RankError);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::default().is_inert());
        assert!(!FaultPlan::default().with_straggler(0, 2.0).is_inert());
        assert!(!FaultPlan::default().with_crash(1, 10).is_inert());
    }

    #[test]
    fn draws_are_deterministic_and_uniformish() {
        let a = unit_draw(1, &[2, 3, 4]);
        assert_eq!(a, unit_draw(1, &[2, 3, 4]));
        assert_ne!(a, unit_draw(1, &[2, 3, 5]));
        assert_ne!(a, unit_draw(2, &[2, 3, 4]));
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| unit_draw(42, &[i])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn cost_at_borrows_outside_windows() {
        let base = CostModel::default();
        let plan = FaultPlan::default().with_link_fault(LinkFault {
            class: Some(LinkClass::InterNode),
            extra_alpha_ns: 1000.0,
            beta_factor: 4.0,
            from_ns: 100,
            until_ns: 200,
        });
        assert!(matches!(plan.cost_at(&base, 50), Cow::Borrowed(_)));
        assert!(matches!(plan.cost_at(&base, 200), Cow::Borrowed(_)));
        let degraded = plan.cost_at(&base, 150);
        assert_eq!(
            degraded.inter_node.alpha_ns,
            base.inter_node.alpha_ns + 1000.0
        );
        assert_eq!(
            degraded.inter_node.beta_ns_per_byte,
            base.inter_node.beta_ns_per_byte * 4.0
        );
        // Unaffected class untouched.
        assert_eq!(degraded.intra_node.alpha_ns, base.intra_node.alpha_ns);
    }

    #[test]
    fn straggler_factors_multiply() {
        let plan = FaultPlan::default()
            .with_straggler(3, 2.0)
            .with_straggler(3, 1.5);
        assert_eq!(plan.straggler_factor(3), 3.0);
        assert_eq!(plan.straggler_factor(0), 1.0);
    }

    #[test]
    fn crash_deadline_takes_earliest() {
        let plan = FaultPlan::default().with_crash(1, 500).with_crash(1, 100);
        assert_eq!(plan.crash_deadline(1), Some(100));
        assert_eq!(plan.crash_deadline(0), None);
    }

    #[test]
    fn validate_rejects_out_of_range_rank() {
        assert_eq!(
            FaultPlan::default().with_crash(8, 0).validate(8),
            Err(FaultPlanError::CrashRankOutOfRange { rank: 8, ranks: 8 })
        );
        assert_eq!(
            FaultPlan::default().with_straggler(9, 2.0).validate(8),
            Err(FaultPlanError::StragglerRankOutOfRange { rank: 9, ranks: 8 })
        );
    }

    #[test]
    fn validate_rejects_speedup_straggler() {
        assert_eq!(
            FaultPlan::default().with_straggler(0, 0.5).validate(4),
            Err(FaultPlanError::BadStragglerFactor {
                rank: 0,
                factor: 0.5
            })
        );
    }

    #[test]
    fn validate_accepts_sane_plans() {
        assert_eq!(FaultPlan::default().validate(1), Ok(()));
        let plan = FaultPlan::default()
            .with_straggler(0, 2.0)
            .with_crash(3, 100);
        assert_eq!(plan.validate(4), Ok(()));
    }
}
