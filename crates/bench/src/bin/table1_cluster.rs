//! Table I — the simulated cluster configuration standing in for one
//! SuperMUC Phase 2 island, including the cost-model constants derived
//! from it (see DESIGN.md for the substitution rationale).

use dhs_runtime::{CostModel, LinkClass, Topology};

fn main() {
    let topo = Topology::supermuc_phase2(16);
    let cost = CostModel::supermuc_phase2();

    println!("# Table I: simulated single-node specification (SuperMUC Phase 2)");
    println!(
        "CPU                 2 x E5-2697v3 (modelled: 4 NUMA domains x {} cores)",
        topo.cores_per_numa()
    );
    println!("Memory              64GB (56GB usable) -- capacity not enforced by the simulator");
    println!("Network             InfiniBand FDR14 fat tree (alpha-beta model below)");
    println!("Compiler            rustc (this crate) in place of ICC 18.0.2");
    println!("MPI library         dhs-runtime simulated collectives in place of Intel MPI 2018.2");
    println!("Ranks per node      {}", topo.ranks_per_node());
    println!();
    println!("# Cost model constants (nanoseconds)");
    for (name, class) in [
        ("self-loop  ", LinkClass::SelfLoop),
        ("intra-NUMA ", LinkClass::IntraNuma),
        ("intra-node ", LinkClass::IntraNode),
        ("inter-node ", LinkClass::InterNode),
    ] {
        let l = cost.link(class);
        let bw = if l.beta_ns_per_byte > 0.0 {
            1.0 / l.beta_ns_per_byte
        } else {
            f64::INFINITY
        };
        println!(
            "{name} alpha = {:>7.1} ns   beta = {:.3} ns/B  (~{:.1} GB/s)",
            l.alpha_ns, l.beta_ns_per_byte, bw
        );
    }
    println!();
    println!("compare         {:.2} ns", cost.compare_ns);
    println!("move            {:.2} ns/B", cost.move_byte_ns);
    println!("random access   {:.2} ns", cost.random_access_ns);
    println!("intra-node fast path: {}", cost.intranode_fastpath);
}
