//! `bench_suite` — the repo's benchmark: five pinned workloads that each
//! load a different layer, end-to-end pps / window latency /
//! tuples-to-SP measured with tracing off, and a separate traced run
//! whose per-layer numbers decompose them. README.md in this directory
//! has the glossary, the layer → metric → workload predictions and how
//! to run, trace and compare.
//!
//! ```text
//! bench_suite --workload NAME --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//! bench_suite --all [--seed N] [--seconds S] [--runs K] [--trace 0|1|both] [--out FILE]
//! bench_suite --compare A.json B.json [--benchmark BENCHMARK.json]
//! bench_suite --smoke
//! ```

mod alloc;
mod compare;
mod e2e;
mod env;
mod spans;
mod staged;
mod stats;
mod workloads;

use sonata_obs::json::JsonWriter;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Golden replay digests for seed 1 at full size, `workload digest`
/// per line. A behaviour change that alters any window's packets,
/// tuples or alerts must update this file in the change that makes it.
const GOLDEN_SEED1: &str = include_str!("golden_seed1.txt");

fn golden(workload: &str) -> Option<u64> {
    GOLDEN_SEED1.lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        (name == workload).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

/// How much one run does. `FULL` is what `BENCHMARK.json` measures;
/// `SMOKE` walks the same code on two windows.
struct Sizes {
    windows: u32,
    /// Timed replays at least, more if `--seconds` allows: every
    /// window's time is the fastest of at least this many samples.
    min_replays: usize,
    warmups: usize,
    /// Set-ups per run; `setup_s` is the fastest.
    setups: usize,
    /// Upper limit on a workload's trace scale (cost estimation at
    /// scale 0.1 takes seconds, too long for a smoke run).
    scale_cap: f64,
    /// Where the traced run writes its spans; `None` keeps them in memory.
    spans_dir: Option<PathBuf>,
}

impl Sizes {
    fn full(spans_dir: PathBuf) -> Self {
        Sizes {
            windows: workloads::WINDOWS,
            min_replays: 7,
            warmups: 3,
            setups: 3,
            scale_cap: f64::INFINITY,
            spans_dir: Some(spans_dir),
        }
    }

    const SMOKE: Sizes = Sizes {
        windows: 2,
        min_replays: 1,
        warmups: 0,
        setups: 1,
        scale_cap: 0.02,
        spans_dir: None,
    };
}

/// The result of one run, as the contract's last output line reports it.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct");
        w.value_bool(self.correct);
        w.key("attempted");
        w.value_u64(self.attempted);
        w.key("failed");
        w.value_u64(self.failed);
        w.key("metrics");
        w.begin_object();
        for (name, value, unit) in &self.metrics {
            w.key(name);
            w.begin_object();
            w.key("value");
            w.value_f64(*value);
            w.key("unit");
            w.value_str(unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// One run of one workload: end-to-end (`trace == false`) or traced.
/// Prints every metric by name with its unit, then the failure notes.
fn run_one(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
) -> Result<Outcome, String> {
    let w = &Workload {
        scale: w.scale.min(sizes.scale_cap),
        ..*w
    };
    println!(
        "workload {} seed {seed} trace {} windows {} scale {} ({})",
        w.name,
        u8::from(trace),
        sizes.windows,
        w.scale,
        w.why
    );
    let (tally, metrics) = if trace {
        let t = staged::run(w, seed, sizes.windows, seconds)?;
        if let Some(dir) = &sizes.spans_dir {
            let path = dir.join(format!("spans_{}_seed{seed}.jsonl", w.name));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(&path))
                .map(std::io::BufWriter::new)
                .and_then(|mut f| {
                    t.tracer.write_jsonl(w.name, &mut f)?;
                    std::io::Write::flush(&mut f)
                });
            match written {
                Ok(()) => println!("spans {} -> {}", t.tracer.spans.len(), path.display()),
                Err(e) => return Err(format!("writing {}: {e}", path.display())),
            }
        }
        (t.tally, t.metrics)
    } else {
        // A fixed count: how many set-ups ran shows in `peak_rss_mb`.
        let mut setup_s = Vec::with_capacity(sizes.setups);
        let mut prepared = None;
        for _ in 0..sizes.setups.max(1) {
            let (p, s) = workloads::prepare(w, seed, sizes.windows, &mut Tracer::new())?;
            setup_s.push(s);
            prepared = Some(p);
        }
        let p = prepared.expect("at least one set-up ran");
        let full = sizes.windows == workloads::WINDOWS;
        let golden = (seed == 1 && full).then(|| golden(w.name)).flatten();
        let m = e2e::measure(w, &p, seconds, sizes.min_replays, sizes.warmups, golden)?;
        println!(
            "replays {} (samples per window) windows {} packets_per_replay {} tuples_per_replay {}",
            m.replays_ms.len(),
            m.window_best_ms().len(),
            m.packets_per_replay,
            m.tuples_per_replay
        );
        let [q1, q2, q3] = stats::quartiles(&m.pps_per_replay());
        println!("pps_over_replays q1 {q1:.0} median {q2:.0} q3 {q3:.0}");
        println!("digest {} {:016x}", w.name, m.digest);
        // The fastest set-up, for the reason `e2e::Measured` gives.
        let metrics = e2e::metrics(&m, setup_s.iter().copied().fold(f64::INFINITY, f64::min));
        (m.tally, metrics)
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    for note in &tally.notes {
        println!("FAILED {note}");
    }
    for remark in &tally.remarks {
        println!("NOTE {remark}");
    }
    println!(
        "windows_failed {} of windows_attempted {}",
        tally.failed, tally.attempted
    );
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Every workload, both run kinds, two windows, one replay: exercises
/// every code path in seconds.
fn smoke() -> Result<(), String> {
    for w in &workloads::ALL {
        for trace in [false, true] {
            let o = run_one(w, 1, 0.0, trace, &Sizes::SMOKE)?;
            if !o.correct {
                return Err(format!("{}: {} windows failed", w.name, o.failed));
            }
        }
    }
    Ok(())
}

/// Run every workload in a child process each (so `peak_rss_mb` is the
/// workload's own), `runs` times with seeds `seed, seed+1, …`, and
/// collect the result lines into one JSON document.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let start = env::Env::capture();
    let mut runs: Vec<String> = Vec::new();
    let mut any_failed = false;
    for run in 0..args.runs {
        let seed = args.seed + run;
        for w in &workloads::ALL {
            for trace in [0u8, 1] {
                if args.trace.is_some_and(|t| t != trace) {
                    continue;
                }
                let out = std::process::Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .args(["--spans-dir".as_ref(), args.spans_dir.as_os_str()])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawning {}: {e}", w.name))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                let last = stdout.lines().last().unwrap_or_default();
                let failed = sonata_obs::json::parse(last)
                    .ok()
                    .filter(|_| out.status.success())
                    .and_then(|v| v.get("failed").and_then(|f| f.as_u64()))
                    .ok_or(format!("{} seed {seed} trace {trace}: no result", w.name))?;
                any_failed |= failed > 0;
                runs.push(format!(
                    "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\"result\":{last}}}",
                    w.name
                ));
            }
        }
    }
    let text = format!(
        "{{\"seconds\":{},\"env\":{},\"runs\":[\n{}\n]}}\n",
        args.seconds,
        start.to_json(&[("seed", args.seed as f64), ("runs", args.runs as f64)]),
        runs.join(",\n")
    );
    match &args.out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?
        }
        None => print!("{text}"),
    }
    if any_failed {
        return Err("some windows failed".into());
    }
    Ok(())
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<u8>,
    runs: u64,
    all: bool,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
    out: Option<PathBuf>,
    spans_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    // Build outputs are the one place a checkout lets a run write.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut a = Args {
        seed: 1,
        seconds: 12.0,
        runs: 1,
        benchmark: "BENCHMARK.json".into(),
        spans_dir: PathBuf::from(target).join("bench_suite"),
        ..Default::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => Some(0),
                    "1" => Some(1),
                    "both" => None,
                    other => return Err(format!("--trace: `{other}` is not 0, 1 or both")),
                }
            }
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((value()?.into(), value()?.into())),
            "--benchmark" => a.benchmark = value()?.into(),
            "--out" => a.out = Some(value()?.into()),
            "--spans-dir" => a.spans_dir = value()?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !a.seconds.is_finite() || a.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b, &args.benchmark);
    }
    if args.smoke {
        return smoke();
    }
    if args.all {
        return run_all(&args);
    }
    let name = args
        .workload
        .as_deref()
        .ok_or("give --workload NAME, --all, --smoke or --compare A B")?;
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {names:?}")
    })?;
    let start = env::Env::capture();
    let sizes = Sizes::full(args.spans_dir.clone());
    let outcome = run_one(w, args.seed, args.seconds, args.trace == Some(1), &sizes)?;
    let params = [
        ("seed", args.seed as f64),
        ("seconds", args.seconds),
        ("windows", f64::from(sizes.windows)),
        ("min_replays", sizes.min_replays as f64),
        ("setups", sizes.setups as f64),
        ("scale", w.scale),
    ];
    println!("env {}", start.to_json(&params));
    println!("{}", outcome.to_json());
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_suite: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench_suite --smoke`: every workload, end to end and traced.
    #[test]
    fn smoke_runs_every_workload_green() {
        smoke().expect("smoke run");
    }

    #[test]
    fn every_workload_has_a_golden_digest() {
        for w in &workloads::ALL {
            assert!(golden(w.name).is_some(), "no golden digest for {}", w.name);
        }
        assert_eq!(golden("no_such_workload"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 112,
            failed: 0,
            metrics: vec![("pps", 512_345.678_9, "1/s"), ("setup_s", 2.5, "s")],
        };
        let v = sonata_obs::json::parse(&o.to_json()).expect("valid JSON");
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let pps = v.get("metrics").and_then(|m| m.get("pps")).unwrap();
        assert_eq!(
            pps.get("value").and_then(|x| x.as_f64()),
            Some(512_345.678_9)
        );
        assert_eq!(pps.get("unit").and_then(|x| x.as_str()), Some("1/s"));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload rt_sonata_q1 --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("rt_sonata_q1"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, Some(1)));
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
