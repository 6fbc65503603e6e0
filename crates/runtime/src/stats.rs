//! Per-rank counters: virtual clock, traffic volumes, operation counts.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::topology::LinkClass;

/// State owned by one rank-thread but shared between all communicators
/// that rank participates in (the virtual clock is a property of the
/// rank, not of a communicator).
#[derive(Debug, Default)]
pub struct RankLocal {
    /// Virtual time in nanoseconds.
    clock_ns: AtomicU64,
    /// Counters, split out for reporting.
    pub counters: Counters,
}

/// Traffic and operation counters for one rank. All loads/stores are
/// relaxed: each instance is only ever written by its own rank-thread.
#[derive(Debug, Default)]
pub struct Counters {
    /// Bytes this rank sent to itself (self-loop copies).
    pub bytes_self: AtomicU64,
    /// Bytes sent to ranks on the same NUMA domain.
    pub bytes_intra_numa: AtomicU64,
    /// Bytes sent to ranks on the same node, across NUMA domains.
    pub bytes_intra_node: AtomicU64,
    /// Bytes sent to ranks on other nodes.
    pub bytes_inter_node: AtomicU64,
    /// Collective operations this rank participated in.
    pub collectives: AtomicU64,
    /// Virtual nanoseconds attributed to local compute charges.
    pub compute_ns: AtomicU64,
    /// Virtual nanoseconds attributed to communication.
    pub comm_ns: AtomicU64,
}

impl Counters {
    /// Credit `bytes` of traffic to the counter for `class`.
    pub fn add_bytes(&self, class: LinkClass, bytes: u64) {
        let slot = match class {
            LinkClass::SelfLoop => &self.bytes_self,
            LinkClass::IntraNuma => &self.bytes_intra_numa,
            LinkClass::IntraNode => &self.bytes_intra_node,
            LinkClass::InterNode => &self.bytes_inter_node,
        };
        slot.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total bytes this rank sent, across all link classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_self.load(Ordering::Relaxed)
            + self.bytes_intra_numa.load(Ordering::Relaxed)
            + self.bytes_intra_node.load(Ordering::Relaxed)
            + self.bytes_inter_node.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            bytes_self: self.bytes_self.load(Ordering::Relaxed),
            bytes_intra_numa: self.bytes_intra_numa.load(Ordering::Relaxed),
            bytes_intra_node: self.bytes_intra_node.load(Ordering::Relaxed),
            bytes_inter_node: self.bytes_inter_node.load(Ordering::Relaxed),
            p2p_messages: 0,
            p2p_retries: 0,
            p2p_duplicates: 0,
            collectives: self.collectives.load(Ordering::Relaxed),
            compute_ns: self.compute_ns.load(Ordering::Relaxed),
            comm_ns: self.comm_ns.load(Ordering::Relaxed),
        }
    }
}

impl RankLocal {
    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }

    /// Advance the clock by `ns` (never rewinds).
    pub fn advance_ns(&self, ns: u64) {
        self.clock_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Jump the clock forward to `target` if it is ahead of now.
    pub fn advance_to_ns(&self, target: u64) {
        self.clock_ns.fetch_max(target, Ordering::Relaxed);
    }

    /// Copy out a plain-value report.
    pub fn report(&self) -> RankReport {
        RankReport {
            clock_ns: self.now_ns(),
            counters: self.counters.snapshot(),
        }
    }
}

/// Plain-value snapshot of a rank's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Bytes this rank sent to itself (self-loop copies).
    pub bytes_self: u64,
    /// Bytes sent to ranks on the same NUMA domain.
    pub bytes_intra_numa: u64,
    /// Bytes sent to ranks on the same node, across NUMA domains.
    pub bytes_intra_node: u64,
    /// Bytes sent to ranks on other nodes.
    pub bytes_inter_node: u64,
    /// Always 0: there is no point-to-point transport. Kept because
    /// the repository benchmark names it; goes with ROADMAP item 1.
    pub p2p_messages: u64,
    /// Always 0, as `p2p_messages`.
    pub p2p_retries: u64,
    /// Always 0, as `p2p_messages`.
    pub p2p_duplicates: u64,
    /// Collective operations this rank participated in.
    pub collectives: u64,
    /// Virtual nanoseconds attributed to local compute charges.
    pub compute_ns: u64,
    /// Virtual nanoseconds attributed to communication.
    pub comm_ns: u64,
}

impl CounterSnapshot {
    /// Total bytes this rank sent, across all link classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_self + self.bytes_intra_numa + self.bytes_intra_node + self.bytes_inter_node
    }
}

/// Final per-rank report returned by the runner: the rank's virtual
/// clock and flat counters. The span-derived phase breakdown lives in
/// the run's [`crate::RunTrace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankReport {
    /// Virtual completion time in nanoseconds.
    pub clock_ns: u64,
    /// Flat traffic and operation counters.
    pub counters: CounterSnapshot,
}

/// Aggregate a set of rank reports into run-level figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunSummary {
    /// Simulated makespan: the max rank clock, in nanoseconds.
    pub makespan_ns: u64,
    /// Sum of all bytes crossing node boundaries.
    pub inter_node_bytes: u64,
    /// Sum of all bytes moved inside nodes (incl. self copies).
    pub intra_node_bytes: u64,
    /// Total collective invocations (summed over ranks).
    pub collectives: u64,
    /// Total compute nanoseconds over all ranks.
    pub compute_ns: u64,
    /// Total communication nanoseconds over all ranks.
    pub comm_ns: u64,
}

impl RunSummary {
    /// Aggregate per-rank reports (max clock, summed traffic).
    pub fn from_reports<'a>(reports: impl IntoIterator<Item = &'a RankReport>) -> Self {
        let mut s = RunSummary::default();
        for r in reports {
            s.makespan_ns = s.makespan_ns.max(r.clock_ns);
            s.inter_node_bytes += r.counters.bytes_inter_node;
            s.intra_node_bytes +=
                r.counters.bytes_self + r.counters.bytes_intra_numa + r.counters.bytes_intra_node;
            s.collectives += r.counters.collectives;
            s.compute_ns += r.counters.compute_ns;
            s.comm_ns += r.counters.comm_ns;
        }
        s
    }

    /// Makespan in seconds, for printing.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan_ns as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_never_rewinds() {
        let r = RankLocal::default();
        r.advance_ns(100);
        r.advance_to_ns(50);
        assert_eq!(r.now_ns(), 100);
        r.advance_to_ns(250);
        assert_eq!(r.now_ns(), 250);
    }

    #[test]
    fn byte_accounting_by_class() {
        let c = Counters::default();
        c.add_bytes(LinkClass::InterNode, 10);
        c.add_bytes(LinkClass::IntraNuma, 5);
        c.add_bytes(LinkClass::SelfLoop, 1);
        assert_eq!(c.total_bytes(), 16);
        assert_eq!(c.bytes_inter_node.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn summary_takes_max_clock_and_sums_traffic() {
        let mut a = RankReport {
            clock_ns: 10,
            ..RankReport::default()
        };
        a.counters.bytes_inter_node = 100;
        let mut b = RankReport {
            clock_ns: 30,
            ..RankReport::default()
        };
        b.counters.bytes_intra_numa = 7;
        let s = RunSummary::from_reports(&[a, b]);
        assert_eq!(s.makespan_ns, 30);
        assert_eq!(s.inter_node_bytes, 100);
        assert_eq!(s.intra_node_bytes, 7);
    }
}
