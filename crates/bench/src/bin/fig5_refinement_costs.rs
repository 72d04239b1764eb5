//! Figure 5 (and the Section 3.3 worked example): the refinement
//! transition cost matrix for Query 1 — for each transition
//! `rᵢ → rᵢ₊₁`, the packets sent to the stream processor if only the
//! filter executes on the switch (N₁), if the reduce executes too
//! (N₂), and the register state it needs (B).
//!
//! Paper shape: filtering through a coarser level first slashes both
//! N₁ and B at the finer level (the 8→32 row needs a fraction of the
//! *→32 row's state), while N₂ stays tiny everywhere — that asymmetry
//! is exactly why the planner's chosen chain (*→8→32 in the paper)
//! beats both no-refinement and fixed one-level-at-a-time zooming.

use sonata_bench::{write_csv, ExperimentCtx};
use sonata_packet::Packet;
use sonata_planner::costs::{estimate_costs, CostConfig};
use sonata_query::catalog::{self, Thresholds};

fn main() {
    let ctx = ExperimentCtx::default();
    let trace = ctx.evaluation_trace();
    let windows: Vec<&[Packet]> = trace.windows(3_000).map(|(_, p)| p).collect();
    let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
    let cfg = CostConfig {
        levels: Some(vec![8, 16, 32]),
        ..Default::default()
    };
    let costs = estimate_costs(&q, &windows, &cfg).expect("estimable");

    println!("# Figure 5: Query 1 refinement transition costs");
    println!(
        "{:>9} | {:>10} | {:>8} | {:>10}",
        "r_i→r_i+1", "N1 (pkts)", "N2", "B (Kb)"
    );
    println!("----------+------------+----------+-----------");
    let mut rows = Vec::new();
    let mut table = std::collections::BTreeMap::new();
    for (&(prev, level), t) in &costs.transitions {
        let bc = &t.branches[0];
        // N1: everything except the reduce on the switch (the unit
        // just before the stateful one — uniform across transitions
        // whether or not a dynamic filter was prepended).
        let n1 = bc.n[bc.max_units - 1];
        let n2 = bc.n[bc.max_units]; // after the reduce (thresholded)
        let b_bits = bc.register_bits(0, 1.5, 2);
        let label = match prev {
            None => format!("*→{level}"),
            Some(p) => format!("{p}→{level}"),
        };
        println!(
            "{:>9} | {:>10.0} | {:>8.0} | {:>10.1}",
            label,
            n1,
            n2,
            b_bits as f64 / 1000.0
        );
        rows.push(format!("{label},{n1:.0},{n2:.0},{}", b_bits));
        table.insert((prev, level), (n1, n2, b_bits));
    }
    write_csv(
        "fig5_refinement_costs.csv",
        "transition,n1,n2,b_bits",
        &rows,
    );

    // Shape assertions against the paper's Figure 5 relationships.
    let star32 = table[&(None, 32u8)];
    let f8_32 = table[&(Some(8u8), 32u8)];
    let star8 = table[&(None, 8u8)];
    assert!(
        f8_32.0 < star32.0,
        "filtering via /8 must cut fine-level packets: {} vs {}",
        f8_32.0,
        star32.0
    );
    assert!(
        f8_32.2 < star32.2,
        "filtering via /8 must cut fine-level state: {} vs {}",
        f8_32.2,
        star32.2
    );
    assert!(
        star8.2 < star32.2 / 4,
        "coarse aggregation needs far less state"
    );
    assert!(star8.1 <= star8.0 && star32.1 <= star32.0, "N2 ≤ N1 always");

    // The Section 3.3 worked-example structure: full-query-on-switch
    // reports orders of magnitude fewer tuples than filter-only.
    assert!(
        star32.1 * 50.0 < star32.0,
        "reduce on switch must dominate filter-only: {} vs {}",
        star32.1,
        star32.0
    );
    println!("\nshape checks passed (coarse filtering slashes N1 and B downstream)");
}
