//! Deterministic metrics registry: counters, gauges and histograms keyed
//! by a `'static` name plus a small label set, timestamped in **sim
//! time** (never wall clock), owned per instrumented component (one per
//! `Simulator`) — no global state, no interior mutability.
//!
//! Determinism rules (DESIGN.md §5.3):
//! * values are integers only — no float accumulation order to worry
//!   about;
//! * storage is a `BTreeMap` so the JSON snapshot iterates in one fixed
//!   order regardless of insertion order;
//! * a **disabled** registry (the default) returns from every `record`
//!   call after a single branch, so the hot path of an uninstrumented
//!   simulation pays ~one predictable branch per event.

use crate::json::JsonBuf;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Up to two `(key, value)` integer labels attached to a series.
///
/// Two is enough for every site in this workspace (`node` + `port`);
/// keeping the set inline and `Copy` means building a key allocates
/// nothing. Label *keys* are `'static` by construction so a series name
/// can never be built from runtime strings (another determinism rule —
/// and it keeps the record path allocation-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Labels {
    labels: [Option<(&'static str, u64)>; 2],
}

impl Labels {
    /// No labels.
    pub const fn none() -> Self {
        Self { labels: [None, None] }
    }

    /// One label.
    pub const fn one(k: &'static str, v: u64) -> Self {
        Self { labels: [Some((k, v)), None] }
    }

    /// Two labels.
    pub const fn two(k1: &'static str, v1: u64, k2: &'static str, v2: u64) -> Self {
        Self { labels: [Some((k1, v1)), Some((k2, v2))] }
    }

    /// Render the series key `name{k=v,k=v}` (bare `name` when
    /// unlabelled) into `out`, replacing its contents.
    fn write_key(&self, name: &str, out: &mut String) {
        out.clear();
        out.push_str(name);
        let mut open = false;
        for (k, v) in self.labels.iter().flatten() {
            out.push(if open { ',' } else { '{' });
            open = true;
            let _ = write!(out, "{k}={v}");
        }
        if open {
            out.push('}');
        }
    }
}

type Key = (&'static str, Labels);

/// JSON keys of the 65 log2 buckets, so rendering a histogram formats no
/// integers.
const BUCKET_KEYS: [&str; 65] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27", "28", "29", "30", "31", "32",
    "33", "34", "35", "36", "37", "38", "39", "40", "41", "42", "43", "44", "45", "46", "47", "48",
    "49", "50", "51", "52", "53", "54", "55", "56", "57", "58", "59", "60", "61", "62", "63", "64",
];

/// A gauge sample: last value and the sim time it was set.
#[derive(Debug, Clone, Copy)]
struct Gauge {
    value: i64,
    at_ns: u64,
}

/// Power-of-two bucketed histogram (bucket `i` counts values whose
/// bit-length is `i`, i.e. `0`, `1`, `2–3`, `4–7`, …). Coarse, but
/// integer-exact and fixed-shape, which is what the determinism
/// guarantee needs.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: 0, max: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        let b = &mut self.buckets[(64 - v.leading_zeros()) as usize];
        *b = b.saturating_add(1);
    }

    /// Fold another histogram into this one (fieldwise: counts and
    /// buckets add, min/max widen, sum saturates). Exact regardless of
    /// merge order, which is what lets per-domain registries reproduce
    /// the single-loop registry byte-for-byte.
    fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// The registry. One per instrumented component; dropped with it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, Gauge>,
    histograms: BTreeMap<Key, Histogram>,
}

impl MetricsRegistry {
    /// A disabled registry: every record call is a single branch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable recording. Series recorded so far are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is the registry recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        if !self.enabled {
            return;
        }
        let c = self.counters.entry((name, labels)).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn counter_inc(&mut self, name: &'static str, labels: Labels) {
        self.counter_add(name, labels, 1);
    }

    /// Set a gauge to `value` at sim time `at_ns`.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, value: i64, at_ns: u64) {
        if !self.enabled {
            return;
        }
        self.gauges.insert((name, labels), Gauge { value, at_ns });
    }

    /// Record one histogram observation.
    #[inline]
    pub fn histogram_record(&mut self, name: &'static str, labels: Labels, value: u64) {
        if !self.enabled {
            return;
        }
        self.histograms.entry((name, labels)).or_default().record(value);
    }

    /// Current value of a counter (0 when never recorded).
    pub fn counter(&self, name: &'static str, labels: Labels) -> u64 {
        self.counters.get(&(name, labels)).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Option<i64> {
        self.gauges.get(&(name, labels)).map(|g| g.value)
    }

    /// Histogram for a series, if any observation was recorded.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Option<&Histogram> {
        self.histograms.get(&(name, labels))
    }

    /// Number of live series across all kinds.
    pub fn series(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Add an outside counter value into a series (saturating). This is
    /// aggregation, not recording: it ignores `enabled`, so a disabled
    /// registry can collect values counted elsewhere (the simulator's dense
    /// series, per-domain totals). A zero value creates no series — a
    /// series exists only once something was counted.
    pub fn merge_counter(&mut self, name: &'static str, labels: Labels, value: u64) {
        if value == 0 {
            return;
        }
        let c = self.counters.entry((name, labels)).or_insert(0);
        *c = c.saturating_add(value);
    }

    /// Fold an outside histogram into a series: counts and buckets add,
    /// min/max widen, the sum saturates — exact in any fold order. Ignores
    /// `enabled`; an empty histogram creates no series.
    pub fn merge_histogram(&mut self, name: &'static str, labels: Labels, h: &Histogram) {
        if h.count == 0 {
            return;
        }
        match self.histograms.entry((name, labels)) {
            Entry::Vacant(e) => {
                e.insert(h.clone());
            }
            Entry::Occupied(mut e) => e.get_mut().merge(h),
        }
    }

    /// Deterministic JSON snapshot.
    ///
    /// Series keys flatten to `name{k=v,k=v}`; kinds are grouped under
    /// `"counters"` / `"gauges"` / `"histograms"`; everything iterates
    /// `BTreeMap` order, so two registries holding the same data render
    /// byte-identically.
    pub fn snapshot_json(&self) -> String {
        let mut j = JsonBuf::new();
        self.snapshot_into(&mut j);
        j.finish()
    }

    /// Render the snapshot as the next value in an existing [`JsonBuf`]
    /// — the embedding hook the streaming epoch writer uses to put a
    /// metrics snapshot inside each epoch line without an intermediate
    /// `String` per epoch.
    pub fn snapshot_into(&self, j: &mut JsonBuf) {
        let mut key = String::new();
        j.obj_open();
        j.key("counters").obj_open();
        for ((name, labels), v) in &self.counters {
            labels.write_key(name, &mut key);
            j.key(&key).u64(*v);
        }
        j.obj_close();
        j.key("gauges").obj_open();
        for ((name, labels), g) in &self.gauges {
            labels.write_key(name, &mut key);
            j.key(&key);
            j.obj_open();
            j.key("value").i64(g.value);
            j.key("at_ns").u64(g.at_ns);
            j.obj_close();
        }
        j.obj_close();
        j.key("histograms").obj_open();
        for ((name, labels), h) in &self.histograms {
            labels.write_key(name, &mut key);
            j.key(&key);
            j.obj_open();
            j.key("count").u64(h.count);
            j.key("sum").u64(h.sum);
            j.key("min").u64(h.min);
            j.key("max").u64(h.max);
            j.key("log2_buckets").obj_open();
            for (n, bucket) in h.buckets.iter().zip(BUCKET_KEYS) {
                if *n > 0 {
                    j.key(bucket).u64(*n);
                }
            }
            j.obj_close();
            j.obj_close();
        }
        j.obj_close();
        j.obj_close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::new();
        m.counter_inc("x", Labels::none());
        m.gauge_set("g", Labels::none(), 5, 1);
        m.histogram_record("h", Labels::none(), 9);
        assert_eq!(m.series(), 0);
        assert_eq!(m.counter("x", Labels::none()), 0);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_add("frames", Labels::one("node", 3), 2);
        m.counter_inc("frames", Labels::one("node", 3));
        m.gauge_set("depth", Labels::two("node", 1, "port", 0), -4, 77);
        m.histogram_record("qlen", Labels::none(), 0);
        m.histogram_record("qlen", Labels::none(), 7);
        assert_eq!(m.counter("frames", Labels::one("node", 3)), 3);
        assert_eq!(m.gauge("depth", Labels::two("node", 1, "port", 0)), Some(-4));
        let h = m.histogram("qlen", Labels::none()).unwrap();
        assert_eq!((h.count(), h.sum(), h.max()), (2, 7, 7));
    }

    #[test]
    fn snapshot_is_order_independent() {
        let build = |order_flip: bool| {
            let mut m = MetricsRegistry::new();
            m.set_enabled(true);
            let keys = if order_flip { ["b", "a"] } else { ["a", "b"] };
            for k in keys {
                m.counter_inc(if k == "a" { "a" } else { "b" }, Labels::none());
            }
            m.snapshot_json()
        };
        assert_eq!(build(false), build(true));
        assert_eq!(
            build(false),
            r#"{"counters":{"a":1,"b":1},"gauges":{},"histograms":{}}"#
        );
    }

    #[test]
    fn label_suffix_renders_in_key() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_inc("drops", Labels::two("node", 2, "port", 1));
        assert!(m.snapshot_json().contains(r#""drops{node=2,port=1}":1"#));
    }

    #[test]
    fn counter_saturates_at_u64_max() {
        // Satellite audit: giant-run counters must saturate, not wrap or
        // panic, at the u64 boundary.
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_add("big", Labels::none(), u64::MAX - 1);
        m.counter_add("big", Labels::none(), 5);
        assert_eq!(m.counter("big", Labels::none()), u64::MAX);
        m.counter_inc("big", Labels::none());
        assert_eq!(m.counter("big", Labels::none()), u64::MAX);
    }

    #[test]
    fn histogram_boundary_values_round_trip() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.histogram_record("h", Labels::none(), u64::MAX);
        m.histogram_record("h", Labels::none(), u64::MAX);
        let h = m.histogram("h", Labels::none()).unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (2, u64::MAX, u64::MAX));
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
    }

    #[test]
    fn merged_shards_render_like_one_registry() {
        // The parallel-DES aggregation contract: split the same record
        // stream across per-domain accumulators, fold them in either
        // order, and the snapshot must match the one an unsplit registry
        // renders.
        let mut whole = MetricsRegistry::new();
        whole.set_enabled(true);
        let mut frames = [[0u64; 3]; 2];
        let mut qlen = [Histogram::default(), Histogram::default()];
        for i in 0..100u64 {
            whole.counter_add("frames", Labels::one("node", i % 3), i);
            whole.histogram_record("qlen", Labels::none(), i * 7);
            let d = (i % 2) as usize;
            frames[d][(i % 3) as usize] += i;
            qlen[d].record(i * 7);
        }
        for order in [[0, 1], [1, 0]] {
            let mut m = MetricsRegistry::new();
            for d in order {
                for (node, &v) in frames[d].iter().enumerate() {
                    m.merge_counter("frames", Labels::one("node", node as u64), v);
                }
                m.merge_histogram("qlen", Labels::none(), &qlen[d]);
            }
            assert_eq!(m.snapshot_json(), whole.snapshot_json());
        }
    }

    #[test]
    fn snapshot_renders_edge_cases_byte_exactly() {
        // Pins the rendered bytes: 0/1/2-label keys in BTreeMap order
        // (label values compare as integers, so node=1 sorts before
        // node=10), extreme integers, and the first and last log2 buckets.
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_add("c", Labels::two("node", 3, "port", 0), 2);
        m.counter_add("c", Labels::one("node", 3), 1);
        m.counter_add("c", Labels::none(), u64::MAX);
        m.counter_inc("b", Labels::one("node", u64::MAX));
        m.gauge_set("g", Labels::none(), i64::MIN, 7);
        m.gauge_set("g", Labels::one("shard", 1), i64::MAX, u64::MAX);
        m.histogram_record("h", Labels::two("node", 1, "port", 2), 0);
        m.histogram_record("h", Labels::two("node", 1, "port", 2), u64::MAX);
        m.histogram_record("h", Labels::one("node", 10), 5);
        m.histogram_record("h", Labels::none(), 1);
        assert_eq!(
            m.snapshot_json(),
            concat!(
                r#"{"counters":{"b{node=18446744073709551615}":1,"c":18446744073709551615,"#,
                r#""c{node=3}":1,"c{node=3,port=0}":2},"#,
                r#""gauges":{"g":{"value":-9223372036854775808,"at_ns":7},"#,
                r#""g{shard=1}":{"value":9223372036854775807,"at_ns":18446744073709551615}},"#,
                r#""histograms":{"h":{"count":1,"sum":1,"min":1,"max":1,"log2_buckets":{"1":1}},"#,
                r#""h{node=1,port=2}":{"count":2,"sum":18446744073709551615,"min":0,"#,
                r#""max":18446744073709551615,"log2_buckets":{"0":1,"64":1}},"#,
                r#""h{node=10}":{"count":1,"sum":5,"min":5,"max":5,"log2_buckets":{"3":1}}}}"#,
            )
        );
    }

    #[test]
    fn merge_helpers_fold_outside_values_like_recording() {
        // Folding dense outside values must render exactly like recording
        // the same observations, whether or not the target is enabled, and
        // zero values must not create series.
        let mut recorded = MetricsRegistry::new();
        recorded.set_enabled(true);
        let mut h = Histogram::default();
        for v in [0, 3, 900] {
            recorded.histogram_record("q", Labels::two("node", 4, "port", 1), v);
            h.record(v);
        }
        recorded.counter_add("f", Labels::one("node", 4), 6);

        let mut folded = MetricsRegistry::new();
        assert!(!folded.enabled());
        folded.merge_counter("f", Labels::one("node", 4), 2);
        folded.merge_counter("f", Labels::one("node", 4), 4);
        folded.merge_counter("f", Labels::one("node", 5), 0);
        folded.merge_histogram("q", Labels::two("node", 4, "port", 1), &h);
        folded.merge_histogram("q", Labels::two("node", 5, "port", 0), &Histogram::default());
        assert_eq!(folded.series(), 2, "zero values create no series");
        assert_eq!(folded.snapshot_json(), recorded.snapshot_json());

        folded.merge_counter("f", Labels::one("node", 4), u64::MAX);
        assert_eq!(folded.counter("f", Labels::one("node", 4)), u64::MAX, "saturates");
    }

    #[test]
    fn snapshot_into_composes_with_outer_document() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_inc("x", Labels::none());
        let mut j = JsonBuf::new();
        j.obj_open();
        j.key("metrics");
        m.snapshot_into(&mut j);
        j.key("tail").u64(1);
        j.obj_close();
        assert_eq!(
            j.finish(),
            format!(r#"{{"metrics":{},"tail":1}}"#, m.snapshot_json())
        );
    }
}
