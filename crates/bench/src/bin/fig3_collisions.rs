//! Figure 3: hash-collision rate as the number of unique incoming
//! keys (k) grows relative to the register sizing estimate (n), for
//! d = 1..4 register arrays.
//!
//! Paper shape: the rate climbs with k/n and drops as d grows; at
//! k/n ≲ 0.5 collisions are negligible for d ≥ 2, and by k/n = 2 the
//! d = 1 curve is far above the d = 4 curve.

use sonata_bench::write_csv;
use sonata_pisa::registers::collision_rate;

fn main() {
    let n = 16_384;
    let ds = [1usize, 2, 3, 4];
    let trials = 5;
    println!("# Figure 3: collision rate vs. incoming keys (n = {n})");
    println!(
        "{:>5} | {:>8} {:>8} {:>8} {:>8}",
        "k/n", "d=1", "d=2", "d=3", "d=4"
    );
    let mut rows = Vec::new();
    let mut curve: Vec<Vec<f64>> = vec![Vec::new(); ds.len()];
    for step in 0..=20 {
        let ratio = step as f64 / 10.0; // 0.0 ..= 2.0
        let keys = (ratio * n as f64) as usize;
        let mut cells = Vec::new();
        for (di, &d) in ds.iter().enumerate() {
            let rate: f64 = (0..trials)
                .map(|t| collision_rate(n, d, keys, 1000 + t))
                .sum::<f64>()
                / trials as f64;
            curve[di].push(rate);
            cells.push(rate);
        }
        println!(
            "{:>5.2} | {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            ratio, cells[0], cells[1], cells[2], cells[3]
        );
        rows.push(format!(
            "{:.2},{:.6},{:.6},{:.6},{:.6}",
            ratio, cells[0], cells[1], cells[2], cells[3]
        ));
    }
    write_csv("fig3_collisions.csv", "k_over_n,d1,d2,d3,d4", &rows);

    // Shape assertions matching the paper's figure.
    for c in &curve {
        assert!(c[0] == 0.0, "no keys, no collisions");
        // Monotone non-decreasing in load (within simulation noise).
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 1e-3, "rate must climb with load");
        }
    }
    // A single array collides heavily past the estimate; each extra
    // array cuts the rate by an order of magnitude at full load.
    assert!(
        curve[0].last().unwrap() > &0.3,
        "d=1 at k/n=2 should be high"
    );
    for w in curve.windows(2) {
        assert!(
            *w[1].last().unwrap() <= w[0].last().unwrap() * 0.5,
            "d+1 must collide far less"
        );
    }
    let half_load_d2 = curve[1][5]; // k/n = 0.5, d = 2
    assert!(
        half_load_d2 < 0.08,
        "d=2 at half load ≈ collision-free, got {half_load_d2}"
    );
    println!("\nshape checks passed (rates climb with k/n, fall with d)");
}
