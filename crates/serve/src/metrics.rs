//! Service counters, gauges and latency histograms.
//!
//! All metric state lives in a [`thistle_obs::Registry`]: counters and
//! gauges are lock-free atomics, latencies go into windowed histograms
//! (solves are milliseconds-to-seconds long, so the per-sample locks are
//! uncontended noise next to them). [`Metrics`] holds typed handles into
//! the registry; `GET /metrics` is the registry's own JSON or Prometheus
//! rendering of a [`thistle_obs::RegistrySnapshot`]. Pipeline stages are
//! timed by the service's [`thistle_obs::MetricsBridge`], which files each
//! closed span under `span_duration_ms{span}`.

use crate::json::Json;
use crate::lru::LruStats;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use thistle::FailureLedger;
use thistle_obs::{Counter, Gauge, Histogram, HistogramFamily, Registry};

/// Number of recent latencies kept per histogram window for percentile
/// estimates.
pub(crate) const WINDOW: usize = 1024;

/// Queue-depth samples retained in arrival order for the dashboard
/// sparkline (the windowed histogram keeps more, but loses ordering).
const QUEUE_RING: usize = 240;

/// Distinct labels allowed in the phase and sweep-cause families (well
/// above their six and ten members; the registry overflow slot catches
/// programming errors).
const FAMILY_CARDINALITY: usize = 16;

/// Recent per-request latency breakdowns kept in arrival order for the
/// dashboard's phase-stacked view of recent solves.
const BREAKDOWN_RING: usize = 32;

/// Shared service metrics. All methods take `&self`.
///
/// Every counter, gauge, and histogram is a handle into one
/// [`thistle_obs::Registry`], so `GET /metrics` and the registry debug
/// surfaces sample the same state. The handles are resolved once at
/// construction; the hot path never searches the registry by name.
pub struct Metrics {
    registry: Arc<Registry>,
    requests: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    coalesced: Counter,
    solve_errors: Counter,
    timeouts: Counter,
    in_flight: Gauge,
    /// Largest timeout cap ever recorded, in whole milliseconds.
    solve_timeout_ms: Gauge,
    worker_respawns: Counter,
    solve_retries: Counter,
    cancelled_solves: Counter,
    breaker_opened: Counter,
    breaker_fastfails: Counter,
    degraded_results: Counter,
    near_miss_hits: Counter,
    /// Requests rejected with `503` to protect the service: hard queue-cap
    /// sheds, brown-out sheds, and breaker fast-fails all count here.
    shed: Counter,
    /// Subset of `shed`: cold misses rejected while the service is in
    /// brown-out (serving hits and warm starts only).
    browned_out: Counter,
    /// Connections rejected at the accept side because both the connection
    /// cap and the accept backlog were full.
    conn_capped: Counter,
    /// Connections closed because a read phase overran its deadline
    /// (slowloris defense, rendered as `408`).
    deadline_closed: Counter,
    /// Pool jobs submitted but not yet picked up by a worker, sampled at
    /// each admission decision.
    queue_depth: Gauge,
    /// 1 while the admission controller is between its watermarks (cold
    /// misses shed, hits and warm starts served), else 0.
    brownout_active: Gauge,
    /// Distribution of the admission-time queue-depth samples.
    queue_depths: Histogram,
    /// The same samples in arrival order, bounded, for the dashboard
    /// sparkline.
    queue_ring: Mutex<VecDeque<f64>>,
    /// Cache entries restored from the atlas snapshot at startup.
    atlas_restored_entries: Gauge,
    /// Damaged snapshot records skipped at startup (plus one if the file
    /// itself failed to open for a reason other than not existing).
    atlas_load_errors: Gauge,
    /// LRU occupancy and lifetime counts, copied from the cache by
    /// [`Metrics::record_cache_occupancy`] whenever a snapshot is taken.
    cache_len: Gauge,
    cache_capacity: Gauge,
    cache_insertions: Counter,
    cache_evictions: Counter,
    /// `sweep_total{cause}`: sweep failure/recovery counts summed across
    /// completed solves, one member per [`ledger_causes`] entry.
    sweep: [Counter; 10],
    latencies: Histogram,
    /// Time each pool job sat queued before a worker picked it up. The
    /// wait crosses threads, so no span can time it.
    queue_wait: Histogram,
    /// Per-phase request-breakdown histograms
    /// ([`LatencyBreakdown::PHASES`] labels).
    phases: HistogramFamily,
    /// Recent complete breakdowns in arrival order, bounded, for the
    /// dashboard's phase-stacked view.
    breakdown_ring: Mutex<VecDeque<LatencyBreakdown>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::on_registry(Arc::new(Registry::new()))
    }
}

/// Where one request's wall-clock time went, phase by phase, in
/// milliseconds.
///
/// The service fills the middle four phases (`queue_wait` from the pool
/// job stamps, `lock_wait` from the thread-local contention accumulator,
/// `coalesce_wait` for requests that rode another's flight, `solve` from
/// the worker); the HTTP layer wraps those with `parse` and `serialize`.
/// Responses built through the embedding API (no HTTP framing) leave the
/// outer two at zero. The phases are critical-path durations, so their sum
/// approximates — never exceeds by design — the end-to-end latency; gaps
/// (dispatch, response adaptation) are deliberately unattributed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    pub parse_ms: f64,
    pub queue_wait_ms: f64,
    pub lock_wait_ms: f64,
    pub coalesce_wait_ms: f64,
    pub solve_ms: f64,
    pub serialize_ms: f64,
}

impl LatencyBreakdown {
    /// Stable phase names, in rendering order, shared by the `/optimize`
    /// response JSON, the `phase_latency_ms` histograms, and the loadgen
    /// aggregation.
    pub const PHASES: [&'static str; 6] = [
        "parse",
        "queue_wait",
        "lock_wait",
        "coalesce_wait",
        "solve",
        "serialize",
    ];

    /// `(phase, milliseconds)` pairs in [`LatencyBreakdown::PHASES`] order.
    pub fn phases(&self) -> [(&'static str, f64); 6] {
        [
            ("parse", self.parse_ms),
            ("queue_wait", self.queue_wait_ms),
            ("lock_wait", self.lock_wait_ms),
            ("coalesce_wait", self.coalesce_wait_ms),
            ("solve", self.solve_ms),
            ("serialize", self.serialize_ms),
        ]
    }

    /// Sum of all six phases.
    pub fn total_ms(&self) -> f64 {
        self.phases().iter().map(|(_, ms)| ms).sum()
    }

    /// The object embedded under `"breakdown"` in `/optimize` responses.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.phases()
                .iter()
                .map(|&(phase, ms)| (format!("{phase}_ms"), Json::Num(ms)))
                .collect(),
        )
    }
}

/// `(cause, count)` pairs of a [`FailureLedger`], in the order of the
/// `sweep_total{cause}` family members.
fn ledger_causes(ledger: &FailureLedger) -> [(&'static str, u64); 10] {
    [
        ("generation", ledger.generation_failures),
        ("infeasible", ledger.infeasible),
        ("numerical", ledger.numerical),
        ("invalid", ledger.invalid),
        ("cancelled", ledger.cancelled),
        ("solver_panic", ledger.solver_panics),
        ("integerize_panic", ledger.integerize_panics),
        ("recovered", ledger.recovered),
        ("degraded", ledger.degraded_solves),
        ("stalled", ledger.stalled_solves),
    ]
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Builds the service metrics on an existing registry, registering each
    /// metric under its Prometheus-style name. The phase histograms and the
    /// sweep counters are families, pre-registered so that snapshots report
    /// every member, including ones that have not fired yet.
    pub fn on_registry(registry: Arc<Registry>) -> Self {
        let phases =
            registry.histogram_family("phase_latency_ms", "phase", WINDOW, FAMILY_CARDINALITY);
        for phase in LatencyBreakdown::PHASES {
            phases.with_label(phase);
        }
        let causes = registry.counter_family("sweep_total", "cause", FAMILY_CARDINALITY);
        let sweep = ledger_causes(&FailureLedger::default()).map(|(c, _)| causes.with_label(c));
        Metrics {
            requests: registry.counter("requests_total"),
            cache_hits: registry.counter("cache_hits_total"),
            cache_misses: registry.counter("cache_misses_total"),
            coalesced: registry.counter("coalesced_total"),
            solve_errors: registry.counter("solve_errors_total"),
            timeouts: registry.counter("timeouts_total"),
            in_flight: registry.gauge("in_flight"),
            solve_timeout_ms: registry.gauge("solve_timeout_ms"),
            worker_respawns: registry.counter("worker_respawns_total"),
            solve_retries: registry.counter("solve_retries_total"),
            cancelled_solves: registry.counter("cancelled_solves_total"),
            breaker_opened: registry.counter("breaker_opened_total"),
            breaker_fastfails: registry.counter("breaker_fastfails_total"),
            degraded_results: registry.counter("degraded_results_total"),
            near_miss_hits: registry.counter("near_miss_hits_total"),
            shed: registry.counter("shed_total"),
            browned_out: registry.counter("browned_out_total"),
            conn_capped: registry.counter("conn_capped_total"),
            deadline_closed: registry.counter("deadline_closed_total"),
            queue_depth: registry.gauge("queue_depth"),
            brownout_active: registry.gauge("brownout_active"),
            queue_depths: registry.histogram("queue_depth_dist", WINDOW),
            queue_ring: Mutex::new(VecDeque::new()),
            atlas_restored_entries: registry.gauge("atlas_restored_entries"),
            atlas_load_errors: registry.gauge("atlas_load_errors"),
            cache_len: registry.gauge("cache.len"),
            cache_capacity: registry.gauge("cache.capacity"),
            cache_insertions: registry.counter("cache.insertions_total"),
            cache_evictions: registry.counter("cache.evictions_total"),
            sweep,
            latencies: registry.histogram("solve_latency_ms", WINDOW),
            queue_wait: registry.histogram("queue_wait_ms", WINDOW),
            phases,
            breakdown_ring: Mutex::new(VecDeque::new()),
            registry,
        }
    }

    /// The registry backing every metric here, for debug surfaces that want
    /// the raw sample view ([`thistle_obs::RegistrySnapshot`]).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Marks a request as started; the guard un-marks it on drop (including
    /// panics and early returns).
    pub fn request_started(&self) -> InFlightGuard<'_> {
        self.requests.inc();
        self.in_flight.add(1);
        InFlightGuard { metrics: self }
    }

    pub fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    pub fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    pub fn record_coalesced(&self) {
        self.coalesced.inc();
    }

    pub fn record_solve_error(&self) {
        self.solve_errors.inc();
    }

    pub fn record_worker_respawn(&self) {
        self.worker_respawns.inc();
    }

    pub fn record_solve_retry(&self) {
        self.solve_retries.inc();
    }

    pub fn record_cancelled_solve(&self) {
        self.cancelled_solves.inc();
    }

    pub fn record_breaker_opened(&self) {
        self.breaker_opened.inc();
    }

    /// A breaker fast-fail is one of the protective 503s, so it counts
    /// toward the overall `shed` total as well.
    pub fn record_breaker_fastfail(&self) {
        self.breaker_fastfails.inc();
        self.shed.inc();
    }

    /// Marks a request rejected by admission control (hard queue cap, memory
    /// watermark, or injected `serve.queue.full`).
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Marks a cold miss rejected while the service is in brown-out mode
    /// (hits and warm starts still served). Counts toward `shed` too.
    pub fn record_brownout_shed(&self) {
        self.browned_out.inc();
        self.shed.inc();
    }

    /// Marks a connection rejected at the accept side because both the
    /// connection cap and the accept backlog were full.
    pub fn record_conn_capped(&self) {
        self.conn_capped.inc();
    }

    /// Marks a connection closed because a read phase overran its deadline
    /// (slowloris defense; the client sees `408`).
    pub fn record_deadline_closed(&self) {
        self.deadline_closed.inc();
    }

    /// Samples the pool queue depth at an admission decision: updates the
    /// gauge, the percentile window, and the bounded arrival-order ring the
    /// dashboard sparkline draws from.
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.set(depth);
        self.queue_depths.record(depth as f64);
        let mut ring = self.queue_ring.lock().expect("queue ring lock");
        if ring.len() >= QUEUE_RING {
            ring.pop_front();
        }
        ring.push_back(depth as f64);
    }

    /// Flags whether brown-out shedding is currently active.
    pub fn set_brownout(&self, active: bool) {
        self.brownout_active.set(active as u64);
    }

    /// The most recent queue-depth samples in arrival order, bounded at the
    /// ring capacity, for the dashboard sparkline.
    pub fn queue_depth_recent(&self) -> Vec<f64> {
        self.queue_ring
            .lock()
            .expect("queue ring lock")
            .iter()
            .copied()
            .collect()
    }

    /// Marks a cache miss that was answered by a warm-started near-miss
    /// solve (seeded from a stored same-family entry) instead of a cold
    /// sweep.
    pub fn record_near_miss_hit(&self) {
        self.near_miss_hits.inc();
    }

    /// Records the outcome of the startup atlas restore: how many cache
    /// entries survived, and how many records (or whole files) were lost.
    pub fn record_atlas_restore(&self, restored: u64, errors: u64) {
        self.atlas_restored_entries.set(restored);
        self.atlas_load_errors.set(errors);
    }

    /// Folds one completed solve's sweep accounting into the service totals
    /// (and bumps the degraded-result counter if the point is marked so).
    pub fn record_solve_outcome(&self, ledger: &FailureLedger, degraded: bool) {
        for (counter, (_, n)) in self.sweep.iter().zip(ledger_causes(ledger)) {
            counter.add(n);
        }
        if degraded {
            self.degraded_results.inc();
        }
    }

    /// Records a request that hit its deadline. The wait is entered into the
    /// latency window *capped at the timeout* — a censored sample. Dropping
    /// it entirely (the old behavior) biased p50/p95 low exactly when the
    /// service was slowest; the cap is still an underestimate of the true
    /// solve time, so the `solve_timeout_ms` gauge reports the cap for
    /// reading the percentiles honestly.
    pub fn record_timeout(&self, cap: Duration) {
        self.timeouts.inc();
        let cap_ms = cap.as_secs_f64() * 1e3;
        self.solve_timeout_ms.max(cap_ms.ceil() as u64);
        self.latencies.record(cap_ms);
    }

    pub fn record_solve_latency(&self, elapsed: Duration) {
        self.latencies.record(elapsed.as_secs_f64() * 1e3);
    }

    /// Records how long one pool job waited in the queue.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait.as_secs_f64() * 1e3);
    }

    /// Copies the LRU cache's occupancy and lifetime counts into the
    /// `cache.*` gauges and counters.
    pub fn record_cache_occupancy(&self, len: usize, capacity: usize, stats: LruStats) {
        self.cache_len.set(len as u64);
        self.cache_capacity.set(capacity as u64);
        self.cache_insertions.raise_to(stats.insertions);
        self.cache_evictions.raise_to(stats.evictions);
    }

    /// Folds one completed request's latency breakdown into the per-phase
    /// histograms and the bounded recent-breakdowns ring.
    pub fn record_breakdown(&self, breakdown: &LatencyBreakdown) {
        for (phase, ms) in breakdown.phases() {
            self.phases.record(phase, ms);
        }
        let mut ring = self.breakdown_ring.lock().expect("breakdown ring lock");
        if ring.len() >= BREAKDOWN_RING {
            ring.pop_front();
        }
        ring.push_back(*breakdown);
    }

    /// The most recent request breakdowns in arrival order, bounded at the
    /// ring capacity, for the dashboard's phase-stacked view.
    pub fn recent_breakdowns(&self) -> Vec<LatencyBreakdown> {
        self.breakdown_ring
            .lock()
            .expect("breakdown ring lock")
            .iter()
            .copied()
            .collect()
    }
}

/// RAII guard for the in-flight gauge.
pub struct InFlightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thistle_obs::{HistogramSummary, MetricsBridge, ObservedMutex, RegistrySnapshot, TraceCtx};

    fn snap(m: &Metrics) -> RegistrySnapshot {
        m.registry().snapshot()
    }

    fn solve_latency(m: &Metrics) -> HistogramSummary {
        snap(m)
            .histogram("solve_latency_ms", None)
            .expect("solve latency registered")
    }

    #[test]
    fn counters_and_gauge_track() {
        let m = Metrics::new();
        {
            let _g = m.request_started();
            m.record_cache_miss();
            assert_eq!(snap(&m).gauge("in_flight"), Some(1));
        }
        {
            let _g = m.request_started();
            m.record_cache_hit();
        }
        let s = snap(&m);
        assert_eq!(s.counter("requests_total", None), Some(2));
        assert_eq!(s.gauge("in_flight"), Some(0));
        assert_eq!(s.counter("cache_hits_total", None), Some(1));
        assert_eq!(s.counter("cache_misses_total", None), Some(1));
    }

    #[test]
    fn percentiles_over_the_window() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record_solve_latency(Duration::from_millis(i));
        }
        let s = solve_latency(&m);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.0).abs() <= 1.0, "p50 {}", s.p50);
        assert!((s.p95 - 95.0).abs() <= 1.0, "p95 {}", s.p95);
    }

    #[test]
    fn window_wraps_without_growing() {
        let m = Metrics::new();
        for i in 0..3000u64 {
            m.record_solve_latency(Duration::from_micros(i));
        }
        assert_eq!(solve_latency(&m).count, 3000);
        assert_eq!(m.latencies.buffered(), WINDOW);
    }

    #[test]
    fn wrapped_window_keeps_only_the_newest_samples() {
        // 1024 slow samples (1000 ms), then WINDOW fast ones (1 ms). After
        // wrapping, every retained sample is fast, so the percentiles must
        // reflect only the newest WINDOW samples.
        let m = Metrics::new();
        for _ in 0..WINDOW {
            m.record_solve_latency(Duration::from_millis(1000));
        }
        for _ in 0..WINDOW {
            m.record_solve_latency(Duration::from_millis(1));
        }
        let s = solve_latency(&m);
        assert_eq!(s.count, 2 * WINDOW as u64);
        assert!((s.p50 - 1.0).abs() < 1e-9, "p50 {}", s.p50);
        assert!((s.p95 - 1.0).abs() < 1e-9, "p95 {}", s.p95);

        // Partial wrap: 600 new fast samples leave a ~60/40 mix, so p50 is
        // fast and p95 still slow.
        let m = Metrics::new();
        for _ in 0..WINDOW {
            m.record_solve_latency(Duration::from_millis(1000));
        }
        for _ in 0..600 {
            m.record_solve_latency(Duration::from_millis(1));
        }
        let s = solve_latency(&m);
        assert!(s.p50 <= 1.0 + 1e-9, "p50 {}", s.p50);
        assert!((s.p95 - 1000.0).abs() < 1e-9, "p95 {}", s.p95);
    }

    #[test]
    fn percentiles_on_known_distributions() {
        // Uniform 1..=1000: nearest-rank p50/p95 land on 500/950.
        let m = Metrics::new();
        for i in 1..=1000u64 {
            m.record_solve_latency(Duration::from_millis(i));
        }
        let s = solve_latency(&m);
        assert!((s.p50 - 500.0).abs() <= 1.0, "{}", s.p50);
        assert!((s.p95 - 950.0).abs() <= 1.0, "{}", s.p95);

        // Bimodal: 90 fast (10 ms) + 10 slow (2000 ms) — p50 fast, p95 slow.
        let m = Metrics::new();
        for _ in 0..90 {
            m.record_solve_latency(Duration::from_millis(10));
        }
        for _ in 0..10 {
            m.record_solve_latency(Duration::from_millis(2000));
        }
        let s = solve_latency(&m);
        assert!((s.p50 - 10.0).abs() < 1e-9);
        assert!((s.p95 - 2000.0).abs() < 1e-9);

        // Constant distribution: all percentiles equal the constant.
        let m = Metrics::new();
        for _ in 0..37 {
            m.record_solve_latency(Duration::from_millis(42));
        }
        let s = solve_latency(&m);
        assert!((s.p50 - 42.0).abs() < 1e-9);
        assert!((s.p95 - 42.0).abs() < 1e-9);
    }

    #[test]
    fn timeouts_enter_the_window_capped() {
        // Nine fast solves and one timeout at 5 s: the timeout must appear
        // in the window (p95 = the cap), not vanish from the percentiles.
        let m = Metrics::new();
        for _ in 0..9 {
            m.record_solve_latency(Duration::from_millis(10));
        }
        m.record_timeout(Duration::from_secs(5));
        let s = snap(&m);
        assert_eq!(s.counter("timeouts_total", None), Some(1));
        assert_eq!(s.gauge("solve_timeout_ms"), Some(5000));
        let lat = solve_latency(&m);
        assert_eq!(lat.count, 10);
        assert!((lat.p95 - 5000.0).abs() < 1e-9, "{}", lat.p95);
        // The cap tracks the largest deadline seen.
        m.record_timeout(Duration::from_secs(2));
        assert_eq!(snap(&m).gauge("solve_timeout_ms"), Some(5000));
    }

    #[test]
    fn sweep_causes_and_cache_occupancy_live_in_the_registry() {
        let m = Metrics::new();
        // Every cause is reported before any solve completes.
        let s = snap(&m);
        for (cause, _) in ledger_causes(&FailureLedger::default()) {
            assert_eq!(s.counter("sweep_total", Some(cause)), Some(0), "{cause}");
        }
        let ledger = FailureLedger {
            infeasible: 3,
            recovered: 1,
            ..FailureLedger::default()
        };
        m.record_solve_outcome(&ledger, true);
        m.record_solve_outcome(&ledger, false);
        m.record_cache_occupancy(
            3,
            16,
            LruStats {
                insertions: 4,
                evictions: 1,
                ..LruStats::default()
            },
        );
        m.record_queue_wait(Duration::from_millis(7));
        let s = snap(&m);
        assert_eq!(s.counter("sweep_total", Some("infeasible")), Some(6));
        assert_eq!(s.counter("sweep_total", Some("recovered")), Some(2));
        assert_eq!(s.counter("degraded_results_total", None), Some(1));
        assert_eq!(s.gauge("cache.len"), Some(3));
        assert_eq!(s.gauge("cache.capacity"), Some(16));
        assert_eq!(s.counter("cache.insertions_total", None), Some(4));
        assert_eq!(s.counter("cache.evictions_total", None), Some(1));
        assert_eq!(s.histogram("queue_wait_ms", None).map(|h| h.count), Some(1));

        let json = Json::parse(&s.to_json()).expect("registry JSON parses");
        let at = |path: &[&str]| {
            path.iter()
                .try_fold(&json, |v, key| v.get(key))
                .and_then(Json::as_f64)
        };
        assert_eq!(at(&["sweep", "infeasible"]), Some(6.0));
        assert_eq!(at(&["cache", "evictions"]), Some(1.0));
        assert_eq!(at(&["queue_wait_ms", "p50"]), Some(7.0));
        assert_eq!(at(&["degraded_results"]), Some(1.0));
    }

    #[test]
    fn prometheus_and_json_render_the_same_snapshot() {
        let registry = Arc::new(Registry::new());
        let m = Metrics::on_registry(Arc::clone(&registry));
        {
            let _g = m.request_started();
            m.record_cache_miss();
            m.record_solve_latency(Duration::from_millis(40));
        }
        {
            let _g = m.request_started();
            m.record_cache_hit();
        }
        m.record_timeout(Duration::from_millis(500));
        m.record_near_miss_hit();
        m.record_atlas_restore(5, 2);
        m.record_shed();
        m.record_brownout_shed();
        m.record_conn_capped();
        m.record_deadline_closed();
        m.record_queue_depth(3);
        m.record_queue_depth(7);
        m.record_queue_wait(Duration::from_micros(1500));
        m.set_brownout(true);
        m.record_breakdown(&LatencyBreakdown {
            solve_ms: 12.5,
            ..LatencyBreakdown::default()
        });
        m.record_cache_occupancy(3, 16, LruStats::default());
        m.record_solve_outcome(
            &FailureLedger {
                stalled_solves: 2,
                ..FailureLedger::default()
            },
            false,
        );
        // The families the service's other writers register: per-lock
        // contention and the span bridge.
        let lock = ObservedMutex::observed("solve_cache", 0u32, &registry);
        *lock.lock() += 1;
        let ctx = TraceCtx::new(Arc::new(MetricsBridge::new(&registry, WINDOW, 8)));
        drop(ctx.span("gp_solve"));
        assert_eq!(m.queue_depth_recent(), vec![3.0, 7.0]);

        let snap = registry.snapshot();
        let json = Json::parse(&snap.to_json()).expect("registry JSON parses");
        let text = snap.to_prometheus("thistle_");
        let prom = |series: &str| -> f64 {
            text.lines()
                .find_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    (name == series).then(|| value.parse().expect("numeric sample"))
                })
                .unwrap_or_else(|| panic!("missing {series} in:\n{text}"))
        };
        let at = |path: &[String]| -> f64 {
            path.iter()
                .try_fold(&json, |v, key| v.get(key))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("JSON path {path:?} missing"))
        };
        // The spec both renderers implement: `_total` dropped and `.` nested
        // in JSON, `.` written as `_` in Prometheus, labels as one more
        // JSON level and as `{key="value"}`.
        let json_path = |name: &str, counter: bool, label: &Option<(String, String)>| {
            let name = if counter {
                name.strip_suffix("_total").unwrap_or(name)
            } else {
                name
            };
            let mut path: Vec<String> = name.split('.').map(String::from).collect();
            path.extend(label.iter().map(|(_, v)| v.clone()));
            path
        };
        let series = |name: &str, suffix: &str, labels: &[String]| {
            let name = format!("thistle_{}{suffix}", name.replace('.', "_"));
            if labels.is_empty() {
                name
            } else {
                format!("{name}{{{}}}", labels.join(","))
            }
        };
        let label_pair = |label: &Option<(String, String)>| -> Vec<String> {
            label.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect()
        };
        let mut samples = 0;
        for c in &snap.counters {
            let value = prom(&series(&c.name, "", &label_pair(&c.label)));
            assert_eq!(at(&json_path(&c.name, true, &c.label)), value, "{}", c.name);
            assert_eq!(value, c.value as f64);
            samples += 1;
        }
        for g in &snap.gauges {
            let value = prom(&series(&g.name, "", &[]));
            assert_eq!(at(&json_path(&g.name, false, &None)), value, "{}", g.name);
            assert_eq!(value, g.value as f64);
            samples += 1;
        }
        for h in &snap.histograms {
            let base = json_path(&h.name, false, &h.label);
            let labels = label_pair(&h.label);
            let count = prom(&series(&h.name, "_count", &labels));
            assert_eq!(at(&[base.clone(), vec!["count".into()]].concat()), count);
            assert_eq!(count, h.summary.count as f64);
            for (key, q) in [("p50", "0.5"), ("p95", "0.95")] {
                let mut with_q = labels.clone();
                with_q.push(format!("quantile=\"{q}\""));
                let value = prom(&series(&h.name, "", &with_q));
                assert_eq!(at(&[base.clone(), vec![key.into()]].concat()), value);
            }
            samples += 1;
        }
        // Spot checks that the loop above saw the interesting samples.
        assert!(samples > 40, "only {samples} samples");
        assert_eq!(prom("thistle_shed_total"), 2.0);
        assert_eq!(prom("thistle_cache_len"), 3.0);
        assert_eq!(prom("thistle_sweep_total{cause=\"stalled\"}"), 2.0);
        assert_eq!(
            prom("thistle_lock_acquisitions_total{lock=\"solve_cache\"}"),
            1.0
        );
        assert_eq!(
            prom("thistle_span_duration_ms_count{span=\"gp_solve\"}"),
            1.0
        );
        assert_eq!(
            prom("thistle_phase_latency_ms{phase=\"solve\",quantile=\"0.5\"}"),
            12.5
        );
        assert_eq!(prom("thistle_queue_wait_ms{quantile=\"0.5\"}"), 1.5);
    }
}
