//! `bench_suite --compare A.json B.json`: one row per workload ×
//! end-to-end metric, judged against the bounds `BENCHMARK.json` fixes.

use crate::stats::{self, Better, Verdict};
use sonata_obs::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

/// The end-to-end runs of one `--all --out` file.
#[derive(Default)]
struct RunSet {
    /// `(workload, metric)` → one value per run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// workload → `(windows failed, windows attempted)` over its runs.
    failures: BTreeMap<String, (u64, u64)>,
}

impl RunSet {
    fn failure_share(&self, workload: &str) -> f64 {
        match self.failures.get(workload) {
            Some(&(failed, attempted)) if attempted > 0 => failed as f64 / attempted as f64,
            _ => 0.0,
        }
    }
}

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_set(doc: &JsonValue) -> Result<RunSet, String> {
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("no `runs` array: not a `--all --out` file")?;
    let mut set = RunSet::default();
    for run in runs {
        if run.get("trace").and_then(JsonValue::as_u64) != Some(0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("a run has no workload")?;
        let result = run.get("result").ok_or("a run has no result")?;
        let count = |k: &str| result.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        let f = set.failures.entry(workload.to_owned()).or_default();
        f.0 += count("failed");
        f.1 += count("attempted");
        let metrics = result.get("metrics").and_then(JsonValue::as_object);
        for (name, m) in metrics.into_iter().flatten() {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                set.values
                    .entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// `(name, unit, better, bound)` of every end-to-end metric.
fn bounds(benchmark: &JsonValue) -> Result<Vec<(String, String, Better, f64)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` array")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(JsonValue::as_str);
            let name = text("name").ok_or("an end_to_end metric has no name")?;
            let better = match text("better") {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: `better` is neither higher nor lower")),
            };
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            let unit = text("unit").unwrap_or("").to_owned();
            Ok((name.to_owned(), unit, better, bound))
        })
        .collect()
}

pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<(), String> {
    let benchmark = read_json(benchmark)?;
    let metrics = bounds(&benchmark)?;
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(JsonValue::as_array)
        .into_iter()
        .flatten()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    let (set_a, set_b) = (run_set(&read_json(a)?)?, run_set(&read_json(b)?)?);

    println!(
        "{:<17} {:<16} {:>5} | {:>36} | {:>36} | {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A  q1 / median / q3",
        "B  q1 / median / q3",
        "worse",
        "bound"
    );
    let mut regressions = 0;
    let mut unresolved = 0;
    for w in &workloads {
        for (name, unit, better, bound) in &metrics {
            let key = (w.to_string(), name.clone());
            let (Some(va), Some(vb)) = (set_a.values.get(&key), set_b.values.get(&key)) else {
                return Err(format!("{w} × {name}: missing from one of the files"));
            };
            let (worse, verdict) = stats::compare(va, vb, *better, *bound);
            let q = |v: &[f64]| {
                let [q1, q2, q3] = stats::quartiles(v);
                format!("{q1:>11.4} {q2:>11.4} {q3:>11.4}")
            };
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => {
                    regressions += 1;
                    "REGRESSION"
                }
                Verdict::Unresolved => {
                    unresolved += 1;
                    "unresolved"
                }
            };
            println!(
                "{w:<17} {name:<16} {unit:>5} | {} | {} | {:>+7.2}% {:>5.0}%  {label}",
                q(va),
                q(vb),
                worse * 100.0,
                bound * 100.0
            );
        }
        let (fa, fb) = (set_a.failure_share(w), set_b.failure_share(w));
        let label = if fb > fa {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{w:<17} {:<16} {:>5} | {fa:>36.6} | {fb:>36.6} | {:>8} {:>6}  {label}",
            "failure_share", "share", "", ""
        );
    }
    println!(
        "{regressions} regressions, {unresolved} unresolved (runs per side: A {}, B {})",
        set_a.values.values().map(Vec::len).max().unwrap_or(0),
        set_b.values.values().map(Vec::len).max().unwrap_or(0)
    );
    if regressions > 0 {
        return Err(format!("{regressions} regressions"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = r#"{"seconds":1,"env":{},"runs":[
      {"workload":"w","seed":1,"trace":0,"result":{"correct":true,"attempted":32,"failed":0,
        "metrics":{"pps":{"value":100.5,"unit":"1/s"}}}},
      {"workload":"w","seed":1,"trace":1,"result":{"correct":true,"attempted":32,"failed":0,
        "metrics":{"pisa.tasks":{"value":19,"unit":"count"}}}},
      {"workload":"w","seed":2,"trace":0,"result":{"correct":false,"attempted":32,"failed":16,
        "metrics":{"pps":{"value":99.5,"unit":"1/s"}}}}]}"#;

    #[test]
    fn run_set_keeps_end_to_end_runs_and_sums_failures() {
        let set = run_set(&parse(FILE).unwrap()).unwrap();
        assert_eq!(set.values.len(), 1);
        assert_eq!(set.values[&("w".into(), "pps".into())], [100.5, 99.5]);
        assert_eq!(set.failures["w"], (16, 64));
        assert_eq!(set.failure_share("w"), 0.25);
        assert_eq!(set.failure_share("absent"), 0.0);
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let b = parse(
            r#"{"end_to_end":[{"name":"pps","unit":"1/s","better":"higher","bound":0.08},
                              {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        let m = bounds(&b).unwrap();
        assert_eq!(m[0], ("pps".into(), "1/s".into(), Better::Higher, 0.08));
        assert_eq!(m[1].2, Better::Lower);
        assert!(bounds(&parse(r#"{"end_to_end":[{"name":"x","better":"up"}]}"#).unwrap()).is_err());
    }
}
