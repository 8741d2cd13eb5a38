//! Latency histograms and the live [`MetricsRegistry`] backing the
//! `orderlight serve` telemetry plane.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fixed-bucket latency histogram.
///
/// Buckets are defined by ascending *inclusive upper edges*; one
/// overflow bucket catches everything above the last edge. Recording is
/// O(log buckets).
///
/// # Example
///
/// ```
/// use orderlight_trace::Histogram;
/// let mut h = Histogram::new(vec![10, 100, 1000]);
/// h.record(10);   // first bucket (edge inclusive)
/// h.record(11);   // second bucket
/// h.record(5000); // overflow
/// assert_eq!(h.counts(), &[1, 1, 0, 1]);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    edges: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram over `edges` (ascending inclusive upper
    /// bounds) plus an overflow bucket.
    ///
    /// # Panics
    /// Panics if `edges` is empty or not strictly ascending.
    #[must_use]
    pub fn new(edges: Vec<u64>) -> Self {
        assert!(!edges.is_empty(), "a histogram needs at least one edge");
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "bucket edges must be strictly ascending");
        let n = edges.len() + 1;
        Histogram { edges, counts: vec![0; n], total: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// A doubling-edge histogram: up to `count` edges starting at
    /// `first` (`first`, `2*first`, `4*first`, …) — the usual shape for
    /// cycle latencies spanning several orders of magnitude. Doubling
    /// stops early if the next edge would overflow `u64`.
    ///
    /// # Panics
    /// Panics if `first` is zero or `count` is zero.
    #[must_use]
    pub fn exponential(first: u64, count: usize) -> Self {
        assert!(first > 0 && count > 0, "exponential histogram needs first > 0, count > 0");
        let mut edges = Vec::with_capacity(count);
        let mut e = first;
        for _ in 0..count {
            edges.push(e);
            if e > u64::MAX / 2 {
                break;
            }
            e *= 2;
        }
        Histogram::new(edges)
    }

    /// A log-linear (HDR-style) histogram: each octave `[2^k, 2^(k+1))`
    /// for `k < octaves` splits into `per_octave` equal-width buckets
    /// (at least one value wide), plus a first bucket for 0 and 1. A
    /// bucket's upper edge then overstates any value in it by at most a
    /// factor `1 + 1/per_octave`, so [`percentile`](Self::percentile)
    /// is within 6.25% of the exact nearest-rank value at 16 per
    /// octave, where doubling edges allow 2x.
    ///
    /// # Panics
    /// Panics if `per_octave` is not a power of two or `octaves` is not
    /// in `1..64`.
    #[must_use]
    pub fn log_linear(per_octave: u64, octaves: u32) -> Self {
        assert!(
            per_octave.is_power_of_two() && (1..64).contains(&octaves),
            "log-linear histogram shape"
        );
        let mut edges = vec![1];
        for k in 0..octaves {
            let low = 1u64 << k;
            // Equal widths of `low / per_octave`, or of one value while
            // the octave holds fewer values than buckets.
            let width = (low >> per_octave.trailing_zeros()).max(1);
            let mut edge = low;
            while edge < 2 * low {
                edge += width;
                edges.push(edge);
            }
        }
        Histogram::new(edges)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = self.edges.partition_point(|&e| e < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The bucket edges.
    #[must_use]
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Per-bucket counts (`edges.len() + 1` entries; last = overflow).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded values.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Bucket-resolution estimate of the `p`-th percentile (`0.0..=1.0`)
    /// of the recorded values; `None` when empty.
    ///
    /// Walks the cumulative counts to the bucket holding the requested
    /// rank and reports that bucket's inclusive upper edge, clamped to
    /// the recorded `min`/`max` so boundary percentiles are exact and
    /// the estimate never leaves the observed range. The overflow
    /// bucket reports `max`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank of the percentile value, 1-based (ceil, so p=1.0 is the
        // last recorded value and p=0.0 the first).
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let est = self.edges.get(i).copied().unwrap_or(self.max);
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Sum of recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `(label, count)` rows for chart rendering: `"<=N"` per edge plus
    /// a final `">N"` overflow row.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = self
            .edges
            .iter()
            .zip(&self.counts)
            .map(|(e, c)| (format!("<={e}"), *c as f64))
            .collect();
        rows.push((
            format!(">{}", self.edges.last().expect("non-empty edges")),
            *self.counts.last().expect("overflow bucket") as f64,
        ));
        rows
    }
}

// ---------------------------------------------------------------------------
// Live metrics: the service telemetry plane
// ---------------------------------------------------------------------------

/// A monotonically increasing live counter: one relaxed atomic add per
/// event, shareable across threads behind an `Arc`.
///
/// Counters are written concurrently by connection handlers and
/// workers while the daemon runs, and read at any time by a metrics
/// snapshot.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A live gauge: a signed point-in-time level (queue depth, busy
/// workers, cache size) that moves both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `d` (negative to decrease).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The live, named metrics surface of a long-running process — the
/// registry `orderlight serve` snapshots on every `metrics` wire
/// request.
///
/// Names are dotted (`"requests.result"`, `"timing.run_us"`); the first
/// segment groups related metrics in the snapshot so deterministic
/// request/cache counters and wall-clock timing distributions live in
/// distinct, separately comparable sections. Registration (rare, at
/// service start) takes a registry lock once and hands back an `Arc`
/// handle; the hot path then touches only that handle — a relaxed
/// atomic for counters/gauges, the histogram's mutex for histograms.
///
/// # Example
///
/// ```
/// use orderlight_trace::MetricsRegistry;
/// let reg = MetricsRegistry::new();
/// let hits = reg.counter("cache.hits");
/// hits.inc();
/// let snap = reg.snapshot_json();
/// assert!(snap.contains("\"cache\":{\"hits\":1}"));
/// assert!(reg.to_text().contains("orderlight_cache_hits 1"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    ///
    /// # Panics
    /// Panics if the registry mutex is poisoned.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created at zero on first use.
    ///
    /// # Panics
    /// Panics if the registry mutex is poisoned.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use as a copy of
    /// `empty`, which fixes its bucket edges. Later calls return the
    /// existing histogram whatever `empty` is.
    ///
    /// # Panics
    /// Panics if the registry mutex is poisoned.
    #[must_use]
    pub fn histogram(&self, name: &str, empty: &Histogram) -> Arc<Mutex<Histogram>> {
        let mut map = self.histograms.lock().expect("metrics registry lock");
        Arc::clone(
            map.entry(name.to_string()).or_insert_with(|| Arc::new(Mutex::new(empty.clone()))),
        )
    }

    /// A point-in-time snapshot as a canonical JSON value: metrics
    /// grouped by the first dotted name segment, counters/gauges as
    /// numbers, histograms as `{count, sum, min, max, p50, p95, p99}`
    /// objects. `BTreeMap` ordering end to end makes equal snapshots
    /// serialise to equal bytes.
    ///
    /// # Panics
    /// Panics if a registry mutex is poisoned.
    #[must_use]
    pub fn snapshot_value(&self) -> Value {
        let mut groups: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
        let mut place = |name: &str, v: Value| {
            let (group, key) = name.split_once('.').unwrap_or(("misc", name));
            groups.entry(group.to_string()).or_default().insert(key.to_string(), v);
        };
        for (name, c) in self.counters.lock().expect("metrics registry lock").iter() {
            place(name, c.get().into());
        }
        for (name, g) in self.gauges.lock().expect("metrics registry lock").iter() {
            place(name, g.get().into());
        }
        for (name, h) in self.histograms.lock().expect("metrics registry lock").iter() {
            let fields = summary(&h.lock().expect("histogram lock"));
            place(name, Value::obj(fields.map(|(key, v)| (key, v.into()))));
        }
        Value::Obj(groups.into_iter().map(|(g, metrics)| (g, Value::Obj(metrics))).collect())
    }

    /// [`MetricsRegistry::snapshot_value`] serialised as canonical JSON.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        self.snapshot_value().to_json()
    }

    /// The text exposition format: one `orderlight_<name> <value>` line
    /// per metric, sorted, dots flattened to underscores; histograms
    /// expand into `_count`/`_sum`/`_min`/`_max`/`_p50`/`_p95`/`_p99`
    /// lines. The shape is Prometheus-scrapeable without requiring any
    /// client library.
    ///
    /// # Panics
    /// Panics if a registry mutex is poisoned.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        let flat = |name: &str| format!("orderlight_{}", name.replace('.', "_"));
        for (name, c) in self.counters.lock().expect("metrics registry lock").iter() {
            lines.push(format!("{} {}", flat(name), c.get()));
        }
        for (name, g) in self.gauges.lock().expect("metrics registry lock").iter() {
            lines.push(format!("{} {}", flat(name), g.get()));
        }
        for (name, h) in self.histograms.lock().expect("metrics registry lock").iter() {
            let base = flat(name);
            for (key, v) in summary(&h.lock().expect("histogram lock")) {
                lines.push(format!("{base}_{key} {v}"));
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

/// What a snapshot reports of a histogram: its count, sum, min, max and
/// p50/p95/p99, each 0 while it is empty.
fn summary(h: &Histogram) -> [(&'static str, u64); 7] {
    let pct = |p| h.percentile(p).unwrap_or(0);
    [
        ("count", h.total()),
        ("sum", h.sum()),
        ("min", h.min().unwrap_or(0)),
        ("max", h.max().unwrap_or(0)),
        ("p50", pct(0.50)),
        ("p95", pct(0.95)),
        ("p99", pct(0.99)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(vec![8, 64, 512]);
        // Exactly on an edge -> that bucket.
        h.record(8);
        h.record(64);
        h.record(512);
        // One past an edge -> the next bucket.
        h.record(9);
        h.record(65);
        h.record(513);
        // Zero -> first bucket.
        h.record(0);
        assert_eq!(h.counts(), &[2, 2, 2, 1]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(513));
    }

    #[test]
    fn exponential_edges_double() {
        let h = Histogram::exponential(4, 5);
        assert_eq!(h.edges(), &[4, 8, 16, 32, 64]);
        assert_eq!(h.counts().len(), 6);
    }

    #[test]
    fn exponential_edges_stop_before_overflowing() {
        let h = Histogram::exponential(1 << 40, 30);
        assert!(h.edges().windows(2).all(|w| w[0] < w[1]));
        assert!(h.edges().len() < 30, "doubling must stop before overflow");
        assert_eq!(*h.edges().last().unwrap(), 1u64 << 63);
    }

    #[test]
    fn log_linear_edges_split_each_octave() {
        let h = Histogram::log_linear(4, 4);
        // Unit-wide buckets until an octave holds more than 4 values.
        assert_eq!(h.edges(), &[1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16]);
        let h = Histogram::log_linear(16, 63);
        assert!(h.edges().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*h.edges().last().unwrap(), 1u64 << 63);
    }

    /// Seeded samples over six decades: every log-linear percentile is
    /// at or above the exact nearest-rank value and within 1/16 of it.
    #[test]
    fn log_linear_percentiles_are_within_a_sixteenth_of_nearest_rank() {
        // SplitMix64 (this crate has no dependencies to borrow one from).
        let mut state = 0x0516_0c7a_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for round in 0..20 {
            let mut h = Histogram::log_linear(16, 40);
            let n = 1 + next() % 500;
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    let decade = 10u64.pow((next() % 6) as u32);
                    decade + next() % (9 * decade)
                })
                .collect();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            for p in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let rank = ((p * n as f64).ceil() as usize).max(1);
                let exact = samples[rank - 1];
                let est = h.percentile(p).expect("non-empty");
                assert!(
                    est >= exact && est as f64 <= exact as f64 * (1.0 + 1.0 / 16.0),
                    "round {round}: p{p} estimate {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn mean_and_empty_behaviour() {
        let mut h = Histogram::new(vec![10]);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        h.record(4);
        h.record(8);
        assert!((h.mean() - 6.0).abs() < f64::EPSILON);
    }

    #[test]
    fn percentiles_walk_the_cumulative_counts() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        assert_eq!(h.percentile(0.5), None, "empty histogram has no percentiles");
        for v in [5, 6, 7, 50, 60, 70, 80, 500, 600, 5000] {
            h.record(v);
        }
        // 10 values: ranks 1-3 in <=10, 4-7 in <=100, 8-9 in <=1000,
        // 10 in overflow.
        assert_eq!(h.percentile(0.5), Some(100));
        assert_eq!(h.percentile(0.9), Some(1000));
        assert_eq!(h.percentile(1.0), Some(5000), "overflow bucket reports max");
        assert_eq!(h.percentile(0.0), Some(10), "lowest rank clamps into bucket edge");
    }

    #[test]
    fn percentile_clamps_to_observed_range() {
        let mut h = Histogram::new(vec![1000]);
        h.record(3);
        h.record(4);
        // Bucket edge is 1000 but nothing above 4 was seen.
        assert_eq!(h.percentile(0.5), Some(4));
        assert_eq!(h.percentile(0.99), Some(4));
        let mut h = Histogram::exponential(1, 8);
        h.record(40);
        assert_eq!(h.percentile(0.5), Some(40), "single value is every percentile");
    }

    #[test]
    fn rows_label_every_bucket() {
        let mut h = Histogram::new(vec![10, 100]);
        h.record(5);
        h.record(1000);
        let rows = h.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], ("<=10".to_string(), 1.0));
        assert_eq!(rows[2], (">100".to_string(), 1.0));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_edges_panic() {
        let _ = Histogram::new(vec![10, 10]);
    }

    #[test]
    fn live_counter_and_gauge_move_as_expected() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn registry_handles_are_shared_and_snapshot_groups_by_prefix() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests.result");
        let b = reg.counter("requests.result");
        a.add(2);
        b.inc();
        reg.gauge("queue.depth").set(4);
        reg.histogram("timing.run_us", &Histogram::exponential(1, 16)).lock().unwrap().record(12);
        let snap = reg.snapshot_value();
        let requests = snap.get("requests").expect("requests group");
        assert_eq!(requests.get("result").and_then(Value::as_f64), Some(3.0));
        assert_eq!(
            snap.get("queue").and_then(|q| q.get("depth")).and_then(Value::as_f64),
            Some(4.0)
        );
        let run = snap.get("timing").and_then(|t| t.get("run_us")).expect("histogram entry");
        assert_eq!(run.get("count").and_then(Value::as_f64), Some(1.0));
        assert_eq!(run.get("min").and_then(Value::as_f64), Some(12.0));
        // Equal state serialises to equal bytes.
        assert_eq!(reg.snapshot_json(), reg.snapshot_json());
    }

    #[test]
    fn text_exposition_flattens_names() {
        let reg = MetricsRegistry::new();
        reg.counter("cache.hits").inc();
        reg.histogram("timing.queue_wait_us", &Histogram::exponential(1, 4))
            .lock()
            .unwrap()
            .record(3);
        let text = reg.to_text();
        assert!(text.contains("orderlight_cache_hits 1\n"), "{text}");
        assert!(text.contains("orderlight_timing_queue_wait_us_count 1\n"), "{text}");
        assert!(text.contains("orderlight_timing_queue_wait_us_sum 3\n"), "{text}");
    }
}
