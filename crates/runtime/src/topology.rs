//! Cluster topology: how simulated ranks map onto nodes and NUMA domains.
//!
//! The paper's testbed (SuperMUC Phase 2, Table I) is an island of nodes,
//! each with two Intel Xeon E5-2697v3 sockets exposing four NUMA domains
//! and 28 cores, interconnected by an InfiniBand FDR14 fat tree. The
//! topology determines the *link class* between any pair of ranks, which
//! the cost model translates into latency/bandwidth parameters.

/// Communication link classes between two ranks, ordered from cheapest to
/// most expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkClass {
    /// Both endpoints are the same rank (self-copy).
    SelfLoop,
    /// Same node, same NUMA domain: shared-memory copy within a memory
    /// controller's reach.
    IntraNuma,
    /// Same node, different NUMA domain: shared-memory copy crossing the
    /// on-chip interconnect (QPI on the Table I machine).
    IntraNode,
    /// Different nodes: traffic crosses the network interconnect.
    InterNode,
}

/// Placement of a rank on the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Node index.
    pub node: usize,
    /// NUMA domain index within the node.
    pub numa: usize,
    /// Core index within the NUMA domain.
    pub core: usize,
}

impl Placement {
    /// Link class between the rank placed here and a **different** rank
    /// placed at `other` ([`Topology::link`] with both placements
    /// already looked up).
    #[inline]
    pub fn link_to(self, other: Placement) -> LinkClass {
        if self.node != other.node {
            LinkClass::InterNode
        } else if self.numa != other.numa {
            LinkClass::IntraNode
        } else {
            LinkClass::IntraNuma
        }
    }
}

/// Describes the simulated machine: a set of identical nodes, each split
/// into NUMA domains with a fixed number of cores, and a block-wise
/// rank-to-core assignment (ranks `0..ranks_per_node` on node 0, etc.),
/// matching the usual `--map-by core` MPI placement the paper uses.
#[derive(Debug, Clone)]
pub struct Topology {
    ranks_per_node: usize,
    numa_per_node: usize,
    cores_per_numa: usize,
    ranks: usize,
}

impl Topology {
    /// A topology with `ranks` ranks placed block-wise on nodes with
    /// `ranks_per_node` ranks each, `numa_per_node` NUMA domains per node
    /// and `cores_per_numa` cores per domain.
    ///
    /// # Panics
    /// Panics if any dimension is zero or if `ranks_per_node` exceeds the
    /// number of cores in a node.
    pub fn new(
        ranks: usize,
        ranks_per_node: usize,
        numa_per_node: usize,
        cores_per_numa: usize,
    ) -> Self {
        assert!(ranks > 0, "topology needs at least one rank");
        assert!(ranks_per_node > 0 && numa_per_node > 0 && cores_per_numa > 0);
        assert!(
            ranks_per_node <= numa_per_node * cores_per_numa,
            "more ranks per node ({ranks_per_node}) than cores ({})",
            numa_per_node * cores_per_numa
        );
        Self {
            ranks_per_node,
            numa_per_node,
            cores_per_numa,
            ranks,
        }
    }

    /// The SuperMUC Phase 2 node of Table I: 2x E5-2697v3 = 4 NUMA
    /// domains x 7 cores, with the paper's 16-ranks-per-node schedule.
    pub fn supermuc_phase2(ranks: usize) -> Self {
        Self::new(ranks, 16, 4, 7)
    }

    /// A single shared-memory node (used by the Fig. 4 study): ranks are
    /// packed NUMA domain by NUMA domain, 7 cores each.
    pub fn single_node(ranks: usize) -> Self {
        let numa = ranks.div_ceil(7).max(1);
        Self::new(ranks, ranks, numa, 7)
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Ranks scheduled per node.
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Number of nodes actually occupied.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ranks_per_node)
    }

    /// NUMA domains per node.
    pub fn numa_per_node(&self) -> usize {
        self.numa_per_node
    }

    /// Cores per NUMA domain.
    pub fn cores_per_numa(&self) -> usize {
        self.cores_per_numa
    }

    /// Where rank `r` lives. Ranks fill nodes block-wise and NUMA domains
    /// round-robin-by-block within the node (rank k on a node sits on
    /// domain `k / ceil(rpn/numa)`), mimicking compact pinning.
    pub fn placement(&self, rank: usize) -> Placement {
        assert!(rank < self.ranks, "rank {rank} out of range {}", self.ranks);
        let node = rank / self.ranks_per_node;
        let local = rank % self.ranks_per_node;
        let per_numa = self.ranks_per_node.div_ceil(self.numa_per_node);
        let numa = (local / per_numa).min(self.numa_per_node - 1);
        let core = local % per_numa;
        Placement { node, numa, core }
    }

    /// Link class between two ranks.
    pub fn link(&self, a: usize, b: usize) -> LinkClass {
        if a == b {
            return LinkClass::SelfLoop;
        }
        self.placement(a).link_to(self.placement(b))
    }

    /// The most expensive link class present among the given global
    /// ranks; collectives are charged at this class.
    pub fn worst_link(&self, ranks: &[usize]) -> LinkClass {
        if ranks.len() <= 1 {
            return LinkClass::SelfLoop;
        }
        let first = self.placement(ranks[0]);
        let mut worst = LinkClass::SelfLoop;
        for &r in &ranks[1..] {
            let p = self.placement(r);
            let class = if p.node != first.node {
                LinkClass::InterNode
            } else if p.numa != first.numa {
                LinkClass::IntraNode
            } else {
                LinkClass::IntraNuma
            };
            worst = worst.max(class);
            if worst == LinkClass::InterNode {
                break;
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement() {
        let t = Topology::new(32, 16, 4, 7);
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.placement(0).node, 0);
        assert_eq!(t.placement(15).node, 0);
        assert_eq!(t.placement(16).node, 1);
        assert_eq!(t.placement(31).node, 1);
    }

    #[test]
    fn numa_assignment_spreads_blocks() {
        let t = Topology::new(16, 16, 4, 7);
        // 16 ranks over 4 domains -> 4 per domain.
        assert_eq!(t.placement(0).numa, 0);
        assert_eq!(t.placement(3).numa, 0);
        assert_eq!(t.placement(4).numa, 1);
        assert_eq!(t.placement(15).numa, 3);
    }

    #[test]
    fn link_classes() {
        let t = Topology::new(32, 16, 4, 7);
        assert_eq!(t.link(0, 0), LinkClass::SelfLoop);
        assert_eq!(t.link(0, 1), LinkClass::IntraNuma);
        assert_eq!(t.link(0, 5), LinkClass::IntraNode);
        assert_eq!(t.link(0, 16), LinkClass::InterNode);
    }

    #[test]
    fn worst_link_over_groups() {
        let t = Topology::new(32, 16, 4, 7);
        assert_eq!(t.worst_link(&[3]), LinkClass::SelfLoop);
        assert_eq!(t.worst_link(&[0, 1, 2]), LinkClass::IntraNuma);
        assert_eq!(t.worst_link(&[0, 1, 6]), LinkClass::IntraNode);
        assert_eq!(t.worst_link(&[0, 1, 30]), LinkClass::InterNode);
    }

    #[test]
    fn single_node_constructor() {
        let t = Topology::single_node(28);
        assert_eq!(t.nodes(), 1);
        assert_eq!(t.numa_per_node(), 4);
        assert_eq!(t.placement(27).numa, 3);
    }

    #[test]
    fn link_ordering_cheapest_first() {
        assert!(LinkClass::SelfLoop < LinkClass::IntraNuma);
        assert!(LinkClass::IntraNuma < LinkClass::IntraNode);
        assert!(LinkClass::IntraNode < LinkClass::InterNode);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placement_rejects_out_of_range() {
        Topology::new(4, 4, 1, 7).placement(4);
    }

    #[test]
    #[should_panic]
    fn rejects_oversubscribed_node() {
        Topology::new(64, 64, 4, 7);
    }
}
