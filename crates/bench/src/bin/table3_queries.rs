//! Table 3: the eleven telemetry queries, with the lines-of-code
//! comparison — Sonata source vs. the code each task needs on the raw
//! targets (our generated P4 program and Spark-style stream plan).
//!
//! The paper's absolute numbers come from its hand-written P4/Spark
//! programs; ours come from this repository's code generators, so the
//! comparison target is the *shape*: every task fits in ≤ 20 lines of
//! Sonata while the per-target programs are one to two orders larger.

use sonata_bench::write_csv;
use sonata_pisa::codegen::p4_loc;
use sonata_pisa::compile::{compile_pipeline, max_switch_units, table_specs, RegisterSizing};
use sonata_pisa::{PisaProgram, TaskId};
use sonata_query::catalog::{self, Thresholds};
use sonata_stream::stream_loc;

fn main() {
    let queries = catalog::all(&Thresholds::default());
    println!("# Table 3: Implemented Sonata queries (lines of code)");
    println!(
        "{:>2} | {:<22} | {:>6} | {:>4} | {:>6}",
        "#", "query", "Sonata", "P4", "Stream"
    );
    println!("---+------------------------+--------+------+-------");
    let mut rows = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        // Compile every branch at its maximum partition into one
        // program — the P4 Sonata would generate for this task.
        let mut program = PisaProgram::default();
        let mut branches: Vec<&sonata_query::Pipeline> = vec![&q.pipeline];
        if let Some(j) = &q.join {
            branches.push(&j.right);
        }
        let mut reg_base = 0;
        let mut meta_base = 0;
        for (b, pipeline) in branches.iter().enumerate() {
            let specs = table_specs(pipeline);
            let k = max_switch_units(&specs);
            let stateful = specs.iter().take(k).filter(|s| s.stateful).count();
            let mut stages = Vec::new();
            let mut cur = 0;
            for s in specs.iter().take(k) {
                stages.push(cur);
                cur += s.stage_cost;
            }
            let compiled = compile_pipeline(
                pipeline,
                TaskId {
                    query: q.id,
                    level: 32,
                    branch: b as u8,
                },
                &stages,
                &vec![RegisterSizing::default(); stateful],
                meta_base,
                reg_base,
            )
            .expect("catalog query compiles");
            meta_base = compiled.fragment.meta_slots.max(meta_base);
            reg_base += compiled.fragment.registers.len() as u32;
            program.merge(compiled.fragment);
        }
        let sonata = q.sonata_loc();
        let p4 = p4_loc(&program);
        let stream = stream_loc(q);
        println!(
            "{:>2} | {:<22} | {:>6} | {:>4} | {:>6}",
            i + 1,
            q.name,
            sonata,
            p4,
            stream
        );
        rows.push(format!("{},{},{},{},{}", i + 1, q.name, sonata, p4, stream));
        assert!(sonata <= 20, "paper: every task under 20 Sonata lines");
        assert!(p4 > sonata * 3, "P4 must dwarf the Sonata source");
    }
    write_csv(
        "table3_queries.csv",
        "num,query,sonata_loc,p4_loc,stream_loc",
        &rows,
    );
}
