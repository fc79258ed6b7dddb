//! Typed, lock-light metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! that callers stash once and update on the hot path without touching the
//! registry again: counters and gauges are single atomics, histograms take
//! one short mutex per sample. Labelled families ([`CounterFamily`],
//! [`HistogramFamily`]) bound their cardinality — past the limit every new
//! label lands in a shared `_overflow` slot instead of growing memory.
//!
//! [`Registry::snapshot`] produces a point-in-time [`RegistrySnapshot`]
//! renderable as JSON or Prometheus text; both renders come from the same
//! sample list, so they cannot drift apart.
//!
//! [`MetricsBridge`] adapts the registry to the tracing layer: it is a
//! [`Sink`] that derives span/event count and duration metrics from every
//! record that passes through, so any instrumented stage gets metrics for
//! free.

use crate::export::{json_f64, json_str};
use crate::{Record, Sink};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Label slot used once a family reaches its cardinality bound.
pub const OVERFLOW_LABEL: &str = "_overflow";

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Monotonically increasing `u64` counter. Clone freely; clones share state.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero (unregistered; prefer [`Registry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `v` if it is below it, for mirroring a
    /// monotone count kept elsewhere.
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A `u64` gauge: settable, steppable, with a monotone-max helper.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh gauge at zero (unregistered; prefer [`Registry::gauge`]).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under races is the caller's
    /// responsibility; pairs of `add`/`sub` balance exactly).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it.
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Windowed histogram: keeps the most recent `capacity` samples for
/// quantiles while counting every sample ever recorded.
#[derive(Clone)]
pub struct Histogram(Arc<Mutex<Window>>);

struct Window {
    samples: Vec<f64>,
    cursor: usize,
    recorded: u64,
    capacity: usize,
}

/// Point-in-time quantile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Samples ever recorded (not just the retained window).
    pub count: u64,
    /// Median over the retained window (0.0 when empty).
    pub p50: f64,
    /// 95th percentile over the retained window (0.0 when empty).
    pub p95: f64,
}

impl Histogram {
    /// A fresh histogram retaining `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Histogram {
        assert!(capacity > 0, "histogram capacity must be positive");
        Histogram(Arc::new(Mutex::new(Window {
            samples: Vec::new(),
            cursor: 0,
            recorded: 0,
            capacity,
        })))
    }

    /// Records one sample, evicting the oldest once the window is full.
    pub fn record(&self, v: f64) {
        let mut w = lock(&self.0);
        if w.samples.len() < w.capacity {
            w.samples.push(v);
        } else {
            let cursor = w.cursor;
            w.samples[cursor] = v;
        }
        w.cursor = (w.cursor + 1) % w.capacity;
        w.recorded += 1;
    }

    /// Nearest-rank quantile over the retained window (0.0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let w = lock(&self.0);
        quantile_of(&w.samples, q)
    }

    /// Samples ever recorded.
    pub fn count(&self) -> u64 {
        lock(&self.0).recorded
    }

    /// Number of samples currently retained (at most the window capacity).
    pub fn buffered(&self) -> usize {
        lock(&self.0).samples.len()
    }

    /// Count plus p50/p95 in one lock acquisition.
    pub fn summary(&self) -> HistogramSummary {
        let w = lock(&self.0);
        HistogramSummary {
            count: w.recorded,
            p50: quantile_of(&w.samples, 0.50),
            p95: quantile_of(&w.samples, 0.95),
        }
    }
}

/// Nearest-rank quantile of `samples` (unsorted input; 0.0 when empty).
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct FamilyInner<T> {
    label_key: &'static str,
    max_cardinality: usize,
    slots: Mutex<Vec<(String, T)>>,
    overflow: T,
}

impl<T: Clone> FamilyInner<T> {
    fn with_label(&self, label: &str, make: impl FnOnce() -> T) -> T {
        let mut slots = lock(&self.slots);
        if let Some((_, handle)) = slots.iter().find(|(l, _)| l == label) {
            return handle.clone();
        }
        if slots.len() >= self.max_cardinality {
            return self.overflow.clone();
        }
        let handle = make();
        slots.push((label.to_string(), handle.clone()));
        handle
    }

    fn labelled(&self) -> Vec<(String, T)> {
        lock(&self.slots).clone()
    }
}

/// Counters sharing a name, split by one label with bounded cardinality.
#[derive(Clone)]
pub struct CounterFamily(Arc<FamilyInner<Counter>>);

impl CounterFamily {
    /// A fresh family keyed by `label_key`, capped at `max_cardinality`
    /// distinct labels (prefer [`Registry::counter_family`]).
    pub fn new(label_key: &'static str, max_cardinality: usize) -> CounterFamily {
        CounterFamily(Arc::new(FamilyInner {
            label_key,
            max_cardinality,
            slots: Mutex::new(Vec::new()),
            overflow: Counter::new(),
        }))
    }

    /// The counter for `label`, creating it if the bound allows; past the
    /// bound, the shared [`OVERFLOW_LABEL`] counter.
    pub fn with_label(&self, label: &str) -> Counter {
        self.0.with_label(label, Counter::new)
    }

    /// Distinct labels currently registered (overflow excluded).
    pub fn cardinality(&self) -> usize {
        lock(&self.0.slots).len()
    }
}

/// Histograms sharing a name, split by one label with bounded cardinality.
#[derive(Clone)]
pub struct HistogramFamily {
    inner: Arc<FamilyInner<Histogram>>,
    capacity: usize,
}

impl HistogramFamily {
    /// A fresh family keyed by `label_key`: up to `max_cardinality` labels,
    /// each retaining `capacity` samples (prefer
    /// [`Registry::histogram_family`]).
    pub fn new(
        label_key: &'static str,
        capacity: usize,
        max_cardinality: usize,
    ) -> HistogramFamily {
        assert!(capacity > 0, "histogram capacity must be positive");
        HistogramFamily {
            inner: Arc::new(FamilyInner {
                label_key,
                max_cardinality,
                slots: Mutex::new(Vec::new()),
                overflow: Histogram::new(capacity),
            }),
            capacity,
        }
    }

    /// Records `v` under `label` (or under the overflow slot past the bound).
    pub fn record(&self, label: &str, v: f64) {
        self.with_label(label).record(v);
    }

    /// The histogram for `label`, creating it if the bound allows.
    pub fn with_label(&self, label: &str) -> Histogram {
        let capacity = self.capacity;
        self.inner.with_label(label, || Histogram::new(capacity))
    }

    /// Distinct labels currently registered (overflow excluded).
    pub fn cardinality(&self) -> usize {
        lock(&self.inner.slots).len()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
    counter_families: Vec<(String, CounterFamily)>,
    histogram_families: Vec<(String, HistogramFamily)>,
}

/// Named home for metric handles; the single source for snapshots.
///
/// `register-or-get` semantics: asking twice for the same name returns a
/// handle to the same underlying metric, so independent subsystems can share
/// a metric by name without plumbing handles around.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = lock(&self.inner);
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = lock(&self.inner);
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// The histogram named `name`, registering it with `capacity` retained
    /// samples on first use (later calls reuse the original capacity).
    pub fn histogram(&self, name: &str, capacity: usize) -> Histogram {
        let mut inner = lock(&self.inner);
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new(capacity);
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Records into the named histogram without holding its handle.
    pub fn observe(&self, name: &str, capacity: usize, v: f64) {
        self.histogram(name, capacity).record(v);
    }

    /// The counter family named `name`, registering it on first use.
    pub fn counter_family(
        &self,
        name: &str,
        label_key: &'static str,
        max_cardinality: usize,
    ) -> CounterFamily {
        let mut inner = lock(&self.inner);
        if let Some((_, f)) = inner.counter_families.iter().find(|(n, _)| n == name) {
            return f.clone();
        }
        let f = CounterFamily::new(label_key, max_cardinality);
        inner.counter_families.push((name.to_string(), f.clone()));
        f
    }

    /// The histogram family named `name`, registering it on first use.
    pub fn histogram_family(
        &self,
        name: &str,
        label_key: &'static str,
        capacity: usize,
        max_cardinality: usize,
    ) -> HistogramFamily {
        let mut inner = lock(&self.inner);
        if let Some((_, f)) = inner.histogram_families.iter().find(|(n, _)| n == name) {
            return f.clone();
        }
        let f = HistogramFamily::new(label_key, capacity, max_cardinality);
        inner.histogram_families.push((name.to_string(), f.clone()));
        f
    }

    /// A consistent point-in-time sample of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = lock(&self.inner);
        let mut counters = Vec::new();
        for (name, c) in &inner.counters {
            counters.push(CounterSample {
                name: name.clone(),
                label: None,
                value: c.get(),
            });
        }
        for (name, family) in &inner.counter_families {
            let key = family.0.label_key;
            for (label, c) in family.0.labelled() {
                counters.push(CounterSample {
                    name: name.clone(),
                    label: Some((key.to_string(), label)),
                    value: c.get(),
                });
            }
            let overflow = family.0.overflow.get();
            if overflow > 0 {
                counters.push(CounterSample {
                    name: name.clone(),
                    label: Some((key.to_string(), OVERFLOW_LABEL.to_string())),
                    value: overflow,
                });
            }
        }
        let gauges = inner
            .gauges
            .iter()
            .map(|(name, g)| GaugeSample {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let mut histograms = Vec::new();
        for (name, h) in &inner.histograms {
            histograms.push(HistogramSample {
                name: name.clone(),
                label: None,
                summary: h.summary(),
            });
        }
        for (name, family) in &inner.histogram_families {
            let key = family.inner.label_key;
            for (label, h) in family.inner.labelled() {
                histograms.push(HistogramSample {
                    name: name.clone(),
                    label: Some((key.to_string(), label)),
                    summary: h.summary(),
                });
            }
            let overflow = family.inner.overflow.summary();
            if overflow.count > 0 {
                histograms.push(HistogramSample {
                    name: name.clone(),
                    label: Some((key.to_string(), OVERFLOW_LABEL.to_string())),
                    summary: overflow,
                });
            }
        }
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter sample inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// `(key, value)` label pair for family members, `None` for plain
    /// counters.
    pub label: Option<(String, String)>,
    /// Sampled value.
    pub value: u64,
}

/// One gauge sample inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sampled value.
    pub value: u64,
}

/// One histogram sample inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// `(key, value)` label pair for family members, `None` for plain
    /// histograms.
    pub label: Option<(String, String)>,
    /// Count and window quantiles.
    pub summary: HistogramSummary,
}

/// Point-in-time sample of a [`Registry`], renderable as JSON or Prometheus
/// text.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// All counter samples (plain, then family members).
    pub counters: Vec<CounterSample>,
    /// All gauge samples.
    pub gauges: Vec<GaugeSample>,
    /// All histogram samples (plain, then family members).
    pub histograms: Vec<HistogramSample>,
}

/// Splits a metric name into its JSON key path: one level per `.`-separated
/// part, with a counter's `_total` suffix dropped from the last part.
fn json_path(name: &str, counter: bool) -> Vec<String> {
    let name = if counter {
        name.strip_suffix("_total").unwrap_or(name)
    } else {
        name
    };
    name.split('.').map(str::to_string).collect()
}

/// The Prometheus series name of a metric: `prefix` plus the name with
/// every `.` turned into `_`.
fn prom_name(prefix: &str, name: &str) -> String {
    format!("{prefix}{}", name.replace('.', "_"))
}

fn prom_series(prefix: &str, name: &str, label: &Option<(String, String)>) -> String {
    let name = prom_name(prefix, name);
    match label {
        None => name,
        Some((k, v)) => format!("{name}{{{k}=\"{}\"}}", escape_label_value(v)),
    }
}

/// Escapes a label value per the Prometheus exposition format: backslash,
/// double quote, and line feed must be written as `\\`, `\"`, and `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A JSON object under construction: keys in first-insertion order, each
/// holding an already rendered value or a nested object.
#[derive(Default)]
struct JsonTree(Vec<(String, JsonNode)>);

enum JsonNode {
    Value(String),
    Object(JsonTree),
}

impl JsonTree {
    /// Places `value` at `path`, creating the objects along the way. A path
    /// that runs into a value already placed is dropped: two metrics whose
    /// names collide after rendering keep the first.
    fn insert(&mut self, path: &[String], value: String) {
        let Some((key, rest)) = path.split_first() else {
            return;
        };
        let existing = self.0.iter().position(|(k, _)| k == key);
        if rest.is_empty() {
            if existing.is_none() {
                self.0.push((key.clone(), JsonNode::Value(value)));
            }
            return;
        }
        let i = existing.unwrap_or_else(|| {
            self.0
                .push((key.clone(), JsonNode::Object(JsonTree::default())));
            self.0.len() - 1
        });
        if let JsonNode::Object(tree) = &mut self.0[i].1 {
            tree.insert(rest, value);
        }
    }

    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, node)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(key));
            out.push(':');
            match node {
                JsonNode::Value(v) => out.push_str(v),
                JsonNode::Object(tree) => tree.write(out),
            }
        }
        out.push('}');
    }
}

impl RegistrySnapshot {
    /// The plain counter `name` (`label: None`) or one family member.
    pub fn counter(&self, name: &str, label: Option<&str>) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && label_is(&c.label, label))
            .map(|c| c.value)
    }

    /// The gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The plain histogram `name` (`label: None`) or one family member.
    pub fn histogram(&self, name: &str, label: Option<&str>) -> Option<HistogramSummary> {
        self.histograms
            .iter()
            .find(|h| h.name == name && label_is(&h.label, label))
            .map(|h| h.summary)
    }

    /// Renders the snapshot as one JSON object. A counter renders under its
    /// name without the `_total` suffix, a gauge under its name, a
    /// histogram as `{"count":…,"p50":…,"p95":…}`, and a family as an
    /// object keyed by label value. Each `.` in a name nests one level, so
    /// the counter `cache.evictions_total` renders at `cache.evictions`.
    pub fn to_json(&self) -> String {
        let mut tree = JsonTree::default();
        let labelled = |mut path: Vec<String>, label: &Option<(String, String)>| {
            path.extend(label.as_ref().map(|(_, v)| v.clone()));
            path
        };
        for c in &self.counters {
            let path = labelled(json_path(&c.name, true), &c.label);
            tree.insert(&path, c.value.to_string());
        }
        for g in &self.gauges {
            tree.insert(&json_path(&g.name, false), g.value.to_string());
        }
        for h in &self.histograms {
            let path = labelled(json_path(&h.name, false), &h.label);
            let value = format!(
                "{{\"count\":{},\"p50\":{},\"p95\":{}}}",
                h.summary.count,
                json_f64(h.summary.p50),
                json_f64(h.summary.p95),
            );
            tree.insert(&path, value);
        }
        let mut out = String::new();
        tree.write(&mut out);
        out
    }

    /// Renders the snapshot in Prometheus text exposition format, every
    /// series name prefixed with `prefix` and every `.` in a name written
    /// as `_`. Each metric name gets one `# TYPE` line. Histograms emit
    /// `<name>{quantile="0.5"|"0.95"}` summary series plus `<name>_count`.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        let mut typed = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if typed != name {
                typed = name.to_string();
                let _ = writeln!(out, "# TYPE {} {kind}", prom_name(prefix, name));
            }
        };
        for c in &self.counters {
            type_line(&mut out, &c.name, "counter");
            let _ = writeln!(
                out,
                "{} {}",
                prom_series(prefix, &c.name, &c.label),
                c.value
            );
        }
        for g in &self.gauges {
            type_line(&mut out, &g.name, "gauge");
            let _ = writeln!(out, "{} {}", prom_name(prefix, &g.name), g.value);
        }
        for h in &self.histograms {
            type_line(&mut out, &h.name, "summary");
            let name = prom_name(prefix, &h.name);
            let (extra_label, label_prefix) = match &h.label {
                None => (String::new(), String::new()),
                Some((k, v)) => {
                    let v = escape_label_value(v);
                    (format!("{k}=\"{v}\","), format!("{k}=\"{v}\""))
                }
            };
            let _ = writeln!(
                out,
                "{name}{{{extra_label}quantile=\"0.5\"}} {}",
                fmt_prom_f64(h.summary.p50)
            );
            let _ = writeln!(
                out,
                "{name}{{{extra_label}quantile=\"0.95\"}} {}",
                fmt_prom_f64(h.summary.p95)
            );
            if label_prefix.is_empty() {
                let _ = writeln!(out, "{name}_count {}", h.summary.count);
            } else {
                let _ = writeln!(out, "{name}_count{{{label_prefix}}} {}", h.summary.count);
            }
        }
        out
    }
}

fn label_is(sample: &Option<(String, String)>, label: Option<&str>) -> bool {
    sample.as_ref().map(|(_, v)| v.as_str()) == label
}

/// Renders whole-valued floats without a trailing `.0`, matching the
/// Prometheus convention used elsewhere in the workspace.
pub fn fmt_prom_f64(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// [`Sink`] that derives registry metrics from trace records.
///
/// For every span it bumps `span_total{span=<name>}` and records the span's
/// duration into `span_duration_ms{span=<name>}`; spans closed by a panic
/// additionally bump `span_unwound_total`. Events bump
/// `event_total{event=<name>}`.
pub struct MetricsBridge {
    span_total: CounterFamily,
    span_duration_ms: HistogramFamily,
    span_unwound_total: Counter,
    event_total: CounterFamily,
}

impl MetricsBridge {
    /// Registers the bridge's metric families in `registry` and returns the
    /// sink. Span-name cardinality is bounded at `max_cardinality`.
    pub fn new(registry: &Registry, window: usize, max_cardinality: usize) -> MetricsBridge {
        MetricsBridge {
            span_total: registry.counter_family("span_total", "span", max_cardinality),
            span_duration_ms: registry.histogram_family(
                "span_duration_ms",
                "span",
                window,
                max_cardinality,
            ),
            span_unwound_total: registry.counter("span_unwound_total"),
            event_total: registry.counter_family("event_total", "event", max_cardinality),
        }
    }
}

impl Sink for MetricsBridge {
    fn record(&self, record: Record) {
        match &record {
            Record::Span(s) => {
                self.span_total.with_label(s.name).inc();
                self.span_duration_ms
                    .record(s.name, s.dur_ns as f64 / 1_000_000.0);
                if s.closed_by_unwind {
                    self.span_unwound_total.inc();
                }
            }
            Record::Event(e) => {
                self.event_total.with_label(e.name).inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldValue, SpanRecord};

    fn span(name: &'static str, dur_ns: u64, unwound: bool) -> Record {
        Record::Span(SpanRecord {
            seq: 0,
            name,
            tid: 1,
            depth: 0,
            start_ns: 0,
            dur_ns,
            fields: vec![("k", FieldValue::U64(1))],
            closed_by_unwind: unwound,
        })
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let reg = Registry::new();
        let hostile = "he said \"hi\\there\"\nand left";
        reg.counter_family("solve_total", "layer", 8)
            .with_label(hostile)
            .inc();
        reg.histogram_family("solve_ms", "layer", 16, 8)
            .with_label(hostile)
            .record(2.0);
        let prom = reg.snapshot().to_prometheus("thistle_");
        let escaped = "he said \\\"hi\\\\there\\\"\\nand left";
        assert!(
            prom.contains(&format!("thistle_solve_total{{layer=\"{escaped}\"}} 1")),
            "counter label must be escaped:\n{prom}"
        );
        assert!(
            prom.contains(&format!("layer=\"{escaped}\",quantile=\"0.5\"")),
            "histogram quantile label must be escaped:\n{prom}"
        );
        assert!(
            prom.contains(&format!("thistle_solve_ms_count{{layer=\"{escaped}\"}} 1")),
            "histogram count label must be escaped:\n{prom}"
        );
        // No raw newline survives inside any sample line.
        for line in prom.lines() {
            assert!(!line.contains("and left") || line.contains("\\nand left"));
        }
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn counters_and_gauges_share_state_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("requests").get(), 3);

        let g = reg.gauge("in_flight");
        g.add(5);
        g.sub(2);
        g.max(2); // below current value: no effect
        assert_eq!(reg.gauge("in_flight").get(), 3);
        g.max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_window_rotates_without_growing() {
        let reg = Registry::new();
        let h = reg.histogram("lat", 8);
        for i in 0..100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100, "every sample is counted");
        assert_eq!(h.buffered(), 8, "only the window is retained");
        // Window holds 92..=99; median of those is ~95/96.
        let p50 = h.quantile(0.5);
        assert!((92.0..=99.0).contains(&p50), "p50 {p50} from recent window");
        assert!(h.quantile(0.95) >= p50);
        assert_eq!(Histogram::new(4).quantile(0.5), 0.0, "empty window is 0");
    }

    #[test]
    fn label_cardinality_is_bounded() {
        let family = CounterFamily::new("span", 3);
        for name in ["a", "b", "c", "d", "e", "a"] {
            family.with_label(name).inc();
        }
        assert_eq!(family.cardinality(), 3, "only the first 3 labels register");
        assert_eq!(family.with_label("a").get(), 2);
        // "d" and "e" both landed on the shared overflow counter.
        assert_eq!(family.with_label("zzz").get(), 2);

        let hf = HistogramFamily::new("span", 16, 2);
        for name in ["a", "b", "c", "d"] {
            hf.record(name, 1.0);
        }
        assert_eq!(hf.cardinality(), 2);
        assert_eq!(hf.with_label("anything-new").count(), 2);
    }

    #[test]
    fn json_nests_by_dot_and_label_and_prometheus_types_each_name() {
        let reg = Registry::new();
        reg.counter("requests_total").add(7);
        reg.counter("cache.evictions_total").add(1);
        reg.counter_family("span_total", "span", 8)
            .with_label("gp_solve")
            .add(3);
        reg.gauge("in_flight").set(2);
        reg.gauge("cache.len").set(4);
        let h = reg.histogram("solve_latency_ms", 16);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let family = reg.histogram_family("span_duration_ms", "span", 16, 8);
        family.record("gp_solve", 5.0);
        family.record("rescore", 0.5);

        let snap = reg.snapshot();
        assert_eq!(
            snap.to_json(),
            concat!(
                r#"{"requests":7,"cache":{"evictions":1,"len":4},"span":{"gp_solve":3},"#,
                r#""in_flight":2,"solve_latency_ms":{"count":4,"p50":3,"p95":4},"#,
                r#""span_duration_ms":{"gp_solve":{"count":1,"p50":5,"p95":5},"#,
                r#""rescore":{"count":1,"p50":0.5,"p95":0.5}}}"#
            )
        );

        let prom = snap.to_prometheus("thistle_");
        for line in [
            "# TYPE thistle_requests_total counter",
            "thistle_requests_total 7",
            "# TYPE thistle_cache_evictions_total counter",
            "thistle_cache_evictions_total 1",
            "thistle_span_total{span=\"gp_solve\"} 3",
            "# TYPE thistle_cache_len gauge",
            "thistle_cache_len 4",
            "# TYPE thistle_solve_latency_ms summary",
            "thistle_solve_latency_ms{quantile=\"0.5\"} 3",
            "thistle_solve_latency_ms_count 4",
            "thistle_span_duration_ms{span=\"rescore\",quantile=\"0.95\"} 0.5",
            "thistle_span_duration_ms_count{span=\"gp_solve\"} 1",
        ] {
            assert!(prom.lines().any(|l| l == line), "missing {line}:\n{prom}");
        }
        // One `# TYPE` line per metric name, families included.
        let types = prom.lines().filter(|l| l.starts_with("# TYPE")).count();
        assert_eq!(types, 7, "{prom}");

        // The lookup helpers read the same samples.
        assert_eq!(snap.counter("requests_total", None), Some(7));
        assert_eq!(snap.counter("span_total", Some("gp_solve")), Some(3));
        assert_eq!(snap.counter("span_total", Some("rescore")), None);
        assert_eq!(snap.gauge("cache.len"), Some(4));
        assert_eq!(
            snap.histogram("span_duration_ms", Some("rescore"))
                .map(|s| s.count),
            Some(1)
        );
        assert_eq!(
            snap.histogram("solve_latency_ms", None).map(|s| s.p95),
            Some(4.0)
        );
    }

    #[test]
    fn bridge_derives_span_metrics() {
        let reg = Registry::new();
        let bridge = MetricsBridge::new(&reg, 64, 16);
        bridge.record(span("gp_solve", 2_000_000, false));
        bridge.record(span("gp_solve", 4_000_000, false));
        bridge.record(span("integerize", 1_000_000, true));
        let snap = reg.snapshot();
        let find = |name: &str, label: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name && c.label.as_ref().is_some_and(|(_, l)| l == label))
                .map(|c| c.value)
        };
        assert_eq!(find("span_total", "gp_solve"), Some(2));
        assert_eq!(find("span_total", "integerize"), Some(1));
        assert_eq!(
            snap.counters
                .iter()
                .find(|c| c.name == "span_unwound_total")
                .map(|c| c.value),
            Some(1)
        );
        let dur = snap
            .histograms
            .iter()
            .find(|h| {
                h.name == "span_duration_ms"
                    && h.label.as_ref().is_some_and(|(_, l)| l == "gp_solve")
            })
            .expect("duration family sample");
        assert_eq!(dur.summary.count, 2);
        assert!((dur.summary.p50 - 3.0).abs() < 1.01, "ms conversion");
    }
}
