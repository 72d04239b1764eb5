//! The run environment, recorded with every result so two sets of
//! numbers can be told apart by more than their values.

use sonata_obs::json::JsonWriter;
use std::process::Command;

pub struct Env {
    nproc: usize,
    rustc: String,
    commit: String,
    load_1m_start: f64,
}

/// 1-minute load average, 0 where `/proc/loadavg` is missing.
fn load_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next()?.parse().ok())
        .unwrap_or(0.0)
}

/// First line of a command's output; "unknown" if it cannot run (the
/// driver's checkout, for one, is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

impl Env {
    /// Capture at the start of a run. A load average above the core
    /// count means something else is competing for the two cores the
    /// numbers assume: warn, but measure anyway.
    pub fn capture() -> Self {
        let env = Env {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line("rustc", &["-V"]),
            commit: first_line("git", &["rev-parse", "HEAD"]),
            load_1m_start: load_1m(),
        };
        if env.load_1m_start > env.nproc as f64 {
            eprintln!(
                "bench_suite: warning: 1-min load average {} exceeds the {} cores; timings will be noisy",
                env.load_1m_start, env.nproc
            );
        }
        env
    }

    /// The environment as one JSON object, closed with the load average
    /// now and the run's own parameters.
    pub fn to_json(&self, params: &[(&str, f64)]) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("nproc");
        w.value_u64(self.nproc as u64);
        w.key("rustc");
        w.value_str(&self.rustc);
        w.key("commit");
        w.value_str(&self.commit);
        w.key("load_1m_start");
        w.value_f64(self.load_1m_start);
        w.key("load_1m_end");
        w.value_f64(load_1m());
        for (k, v) in params {
            w.key(k);
            w.value_f64(*v);
        }
        w.end_object();
        w.finish()
    }
}
