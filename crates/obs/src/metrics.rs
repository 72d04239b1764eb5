//! The lock-cheap metrics registry.
//!
//! Metrics are addressed as `name{label=value}`. Registration (a
//! mutex-guarded map lookup) happens once, at component construction;
//! the handles it returns ([`Counter`], [`Gauge`], [`Histogram`]) are
//! plain `Arc`s over atomics, so the hot path is an atomic add with no
//! locking and no allocation. Handles from a *disabled* registry are
//! identical atomics that simply aren't registered anywhere — callers
//! instrument unconditionally and pay only the atomic add.

use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Render `name{k=v,...}` (or bare `name` without labels).
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

/// A monotonic counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value set to the latest observation.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency buckets in nanoseconds: 1 µs → ~10 s, one decade
/// split 1/2.5/5 (a log-linear ladder).
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
];

#[derive(Debug)]
pub(crate) struct HistogramInner {
    /// Upper bounds (inclusive) per bucket; an implicit +Inf bucket
    /// follows.
    bounds: Box<[u64]>,
    /// One count per bound, plus the +Inf overflow bucket.
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations (nanoseconds, by
/// convention, for every `*_ns` metric).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    pub(crate) fn with_bounds(bounds: &[u64]) -> Self {
        let counts: Vec<AtomicU64> = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.into(),
            counts: counts.into_boxed_slice(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let inner = &*self.0;
        let idx = inner.bounds.partition_point(|&b| b < v);
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let inner = &*self.0;
        let mut buckets = Vec::with_capacity(inner.bounds.len() + 1);
        let mut cumulative = 0u64;
        for (i, &bound) in inner.bounds.iter().enumerate() {
            cumulative += inner.counts[i].load(Ordering::Relaxed);
            buckets.push((Some(bound), cumulative));
        }
        cumulative += inner.counts[inner.bounds.len()].load(Ordering::Relaxed);
        buckets.push((None, cumulative));
        HistogramSnapshot {
            name: name.to_string(),
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(LATENCY_BUCKETS_NS)
    }
}

/// A histogram frozen for export: cumulative bucket counts keyed by
/// inclusive upper bound (`None` = +Inf).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `name{labels}` key.
    pub name: String,
    /// `(upper_bound, cumulative_count)`; `None` bound is +Inf.
    pub buckets: Vec<(Option<u64>, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observation, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metrics registry: a mutex-guarded name → handle map. The mutex
/// is only taken at registration and snapshot time, never on the
/// metric hot path.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Get or create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = metric_key(name, labels);
        self.inner
            .lock()
            .unwrap()
            .counters
            .entry(key)
            .or_default()
            .clone()
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = metric_key(name, labels);
        self.inner
            .lock()
            .unwrap()
            .gauges
            .entry(key)
            .or_default()
            .clone()
    }

    /// Get or create a histogram with the default latency buckets.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, labels, LATENCY_BUCKETS_NS)
    }

    /// Get or create a histogram with explicit bucket bounds.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        let key = metric_key(name, labels);
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(key)
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Freeze every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| h.snapshot(k))
                .collect(),
        }
    }
}

/// A point-in-time copy of every metric, sorted by key — the
/// machine-readable face of a run ([`Self::to_json`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(key, value)` per counter, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// `(key, value)` per gauge, sorted by key.
    pub gauges: Vec<(String, u64)>,
    /// One snapshot per histogram, sorted by key.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Look a counter up by its full `name{labels}` key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Look a gauge up by its full key.
    pub fn gauge(&self, key: &str) -> Option<u64> {
        self.gauges
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Look a histogram up by its full key.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == key)
    }

    /// Sum of every counter whose name part (before `{`) equals
    /// `name`, across label sets.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k == name || (k.starts_with(name) && k[name.len()..].starts_with('{')))
            .map(|(_, v)| v)
            .sum()
    }

    /// Render as JSON (the schema `validate_snapshot_json` documents
    /// and checks).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (k, v) in &self.counters {
            w.key(k);
            w.value_u64(*v);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (k, v) in &self.gauges {
            w.key(k);
            w.value_u64(*v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_array();
        for h in &self.histograms {
            w.begin_object();
            w.key("name");
            w.value_str(&h.name);
            w.key("count");
            w.value_u64(h.count);
            w.key("sum_ns");
            w.value_u64(h.sum);
            w.key("buckets");
            w.begin_array();
            for (bound, count) in &h.buckets {
                w.begin_object();
                w.key("le_ns");
                match bound {
                    Some(b) => w.value_u64(*b),
                    None => w.value_null(),
                }
                w.key("count");
                w.value_u64(*count);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_with_and_without_labels() {
        assert_eq!(metric_key("a_total", &[]), "a_total");
        assert_eq!(
            metric_key("a_total", &[("q", "1"), ("kind", "shunt")]),
            "a_total{q=\"1\",kind=\"shunt\"}"
        );
    }

    #[test]
    fn registry_interns_handles() {
        let r = Registry::default();
        let c1 = r.counter("x_total", &[("a", "1")]);
        let c2 = r.counter("x_total", &[("a", "1")]);
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x_total{a=\"1\"}"), Some(4));
        assert_eq!(snap.counter_sum("x_total"), 4);
    }

    #[test]
    fn gauge_holds_latest() {
        let r = Registry::default();
        let g = r.gauge("occupancy", &[]);
        g.set(10);
        g.set(7);
        assert_eq!(r.snapshot().gauge("occupancy"), Some(7));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::default();
        let h = r.histogram_with("lat_ns", &[], &[10, 100, 1000]);
        for v in [5u64, 50, 500, 5000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("lat_ns").unwrap();
        assert_eq!(
            hs.buckets,
            vec![(Some(10), 1), (Some(100), 2), (Some(1000), 3), (None, 4)]
        );
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 5555);
        assert_eq!(hs.mean(), Some(5555.0 / 4.0));
    }

    #[test]
    fn counter_sum_does_not_match_prefixes() {
        let r = Registry::default();
        r.counter("x", &[]).add(1);
        r.counter("x_extra", &[]).add(10);
        r.counter("x", &[("l", "v")]).add(2);
        assert_eq!(r.snapshot().counter_sum("x"), 3);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let r = Registry::default();
        r.counter("c_total", &[]).add(5);
        r.histogram("h_ns", &[]).observe(42);
        let json = r.snapshot().to_json();
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("c_total"))
                .and_then(crate::json::JsonValue::as_u64),
            Some(5)
        );
    }
}
