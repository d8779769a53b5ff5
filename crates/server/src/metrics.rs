//! The server's counters, and the one table that exports them at
//! `GET /metrics`.
//!
//! Lock-free atomics on a fixed route table: recording a sample is a
//! handful of relaxed atomic adds plus one histogram record, cheap
//! enough to run on every request. Latencies land in a log-bucketed
//! [`Histogram`] per route, so `/metrics` serves p50/p90/p99/p999 (and
//! still the exact average and max — the histogram tracks an exact sum
//! and max beside its buckets).
//!
//! Every exported metric is one row of `METRICS`: its Prometheus name,
//! kind, help text, label dimension, JSON path and value accessor. A
//! `Readout` walks that table into the JSON body and into Prometheus
//! text exposition, so both formats carry the same metrics, labels and
//! values by construction, and a new metric is one new row.

use crate::cache::{CacheStats, SingleFlightCache, TierKey};
use crate::json::Json;
use crate::server::ServerState;
use crate::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use hyperline_util::failpoint;
use hyperline_util::telemetry::{Histogram, HistogramSnapshot};
use std::time::Duration;

/// The server's routes (fixed at compile time so metrics need no map).
///
/// The discriminant is the index into [`Route::ALL`] and the metrics
/// table — pinned by `route_index_is_discriminant` below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Route {
    /// `GET /` — endpoint index.
    Index,
    /// `GET /healthz`.
    Health,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/pipeline` — per-dataset pipeline stage spans.
    DebugPipeline,
    /// `GET /datasets`.
    ListDatasets,
    /// `POST /datasets`.
    AddDataset,
    /// `GET /datasets/{d}/stats`.
    Stats,
    /// `GET /datasets/{d}/slg`.
    Slg,
    /// `GET /datasets/{d}/components`.
    Components,
    /// `GET /datasets/{d}/betweenness`.
    Betweenness,
    /// `GET /datasets/{d}/spectrum`.
    Spectrum,
    /// `GET /datasets/{d}/sweep`.
    Sweep,
    /// `POST /query` (batched sub-queries).
    Query,
    /// `POST /admin/drain` — graceful drain trigger.
    AdminDrain,
    /// Anything else.
    NotFound,
}

impl Route {
    /// Every route, in `/metrics` display order.
    pub const ALL: [Route; 15] = [
        Route::Index,
        Route::Health,
        Route::Metrics,
        Route::DebugPipeline,
        Route::ListDatasets,
        Route::AddDataset,
        Route::Stats,
        Route::Slg,
        Route::Components,
        Route::Betweenness,
        Route::Spectrum,
        Route::Sweep,
        Route::Query,
        Route::AdminDrain,
        Route::NotFound,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Route::Index => "index",
            Route::Health => "healthz",
            Route::Metrics => "metrics",
            Route::DebugPipeline => "debug_pipeline",
            Route::ListDatasets => "list_datasets",
            Route::AddDataset => "add_dataset",
            Route::Stats => "stats",
            Route::Slg => "slg",
            Route::Components => "components",
            Route::Betweenness => "betweenness",
            Route::Spectrum => "spectrum",
            Route::Sweep => "sweep",
            Route::Query => "query",
            Route::AdminDrain => "admin_drain",
            Route::NotFound => "not_found",
        }
    }

    /// Index into [`Route::ALL`] — a direct discriminant cast, O(1) on
    /// every request record.
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Counters for one route.
#[derive(Debug, Default)]
pub struct EndpointCounters {
    /// Requests served (any status).
    pub requests: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Handling latencies, microseconds (p50/p99 plus exact sum/max).
    pub latency: Histogram,
}

/// All server counters.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    endpoints: [EndpointCounters; Route::ALL.len()],
    /// Connections registered with the event loop.
    pub connections_accepted: AtomicU64,
    /// 503 sheds: connections turned away while draining, plus requests
    /// refused because the worker queue was full.
    pub connections_rejected: AtomicU64,
    /// Requests whose parse failed (400/417/501 responses that close
    /// the connection).
    pub bad_requests: AtomicU64,
    /// Responses streamed (chunked or close-delimited) instead of
    /// rendered into a fixed-length buffer.
    pub streamed_responses: AtomicU64,
    /// Streamed responses compressed with gzip (negotiated via
    /// `Accept-Encoding`).
    pub gzip_responses: AtomicU64,
    /// Gauge: requests waiting in the worker queue right now.
    pub queue_depth: AtomicI64,
    /// Gauge: workers currently serving a request.
    pub busy_workers: AtomicI64,
    /// Time requests spent in the worker queue before a worker picked
    /// them up, microseconds.
    pub queue_wait: Histogram,
    /// Wall time spent inside the streaming gzip encoder per response,
    /// microseconds.
    pub gzip_encode: Histogram,
    /// Mid-stream client disconnects (`EPIPE`/`ECONNRESET`) handled as
    /// quiet closes instead of generic writer-stack errors.
    pub client_aborts: AtomicU64,
    /// Responses aborted because no write progress happened within the
    /// write timeout: either the worker's bounded hand-off buffer
    /// stayed full (`TimedOut` from the buffer) or the event loop's
    /// socket flush moved no bytes for the whole budget — both mean a
    /// dead or pathologically slow reader.
    pub write_stalls: AtomicU64,
    /// Request heads abandoned by the cumulative head deadline
    /// (slow-loris defense).
    pub slow_loris_closes: AtomicU64,
    /// Requests whose deadline expired before their response finished
    /// (answered 504 or aborted mid-stream).
    pub deadline_expired: AtomicU64,
    /// Keep-alive connections that finished their in-flight work and
    /// closed cleanly during a drain.
    pub drained_connections: AtomicU64,
    /// Connections hard-closed because they outlived the drain bound.
    pub aborted_connections: AtomicU64,
    /// Gauge: connections currently owned by the event loop (accepted,
    /// not yet closed).
    pub event_loop_connections: AtomicI64,
    /// `epoll_wait` returns (readiness wakeups, including injected
    /// spurious ones under the `epoll.wait` failpoint).
    pub event_loop_wakeups: AtomicU64,
    /// Socket drains that stopped early on `EAGAIN` and re-armed
    /// `EPOLLOUT` — each one is backpressure from a reader slower than
    /// the response producer.
    pub eagain_yields: AtomicU64,
}

/// RAII increment of a gauge: `enter` adds one, dropping subtracts it.
/// Worker panics unwind through the guard, so gauges never drift.
pub struct GaugeGuard<'a>(&'a AtomicI64);

impl<'a> GaugeGuard<'a> {
    /// Increments `gauge` until the guard drops.
    pub fn enter(gauge: &'a AtomicI64) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request on `route`.
    pub fn record(&self, route: Route, status: u16, elapsed: Duration) {
        let counters = &self.endpoints[route.index()];
        counters.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        counters.latency.record_micros(elapsed);
    }

    /// The counters of one route.
    pub fn endpoint(&self, route: Route) -> &EndpointCounters {
        &self.endpoints[route.index()]
    }
}

/// One sample's value. Its variant is the metric's Prometheus type.
pub(crate) enum Value {
    /// A monotonic count.
    Counter(u64),
    /// A level that rises and falls.
    Gauge(i64),
    /// A gauge JSON shows as `true`/`false` (Prometheus: `1`/`0`).
    Flag(bool),
    /// A distribution: JSON shows its summary, Prometheus its cumulative
    /// buckets plus `_sum` and `_count`.
    Histogram(HistogramSnapshot),
    /// Build metadata: JSON shows each pair as a string, Prometheus as
    /// the labels of a constant-1 gauge.
    Info(&'static [Label]),
}

/// One label: `(name, value)`.
pub(crate) type Label = (&'static str, &'static str);

/// A metric's label dimension, with the accessor that reads one sample.
pub(crate) enum Read {
    /// One unlabelled sample.
    Plain(fn(&ServerState) -> Value),
    /// One sample per route, labelled `route`, in [`Route::ALL`] order.
    Route(fn(&EndpointCounters) -> Value),
    /// One sample per cache tier, labelled `tier`.
    Tier(fn(&TierStats<'_>) -> Value),
}

/// One exported metric: a row of [`METRICS`].
pub(crate) struct Metric {
    /// Prometheus family name.
    pub name: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// Dotted JSON path; a `*` segment stands for the label value.
    pub path: &'static str,
    /// Label dimension and value accessor; the [`Value`] variant the
    /// accessor returns is the metric's kind.
    pub read: Read,
}

/// One cache tier's statistics, read once per [`Readout`].
pub(crate) struct TierStats<'a> {
    stats: CacheStats,
    lock_hold: &'a Histogram,
}

/// The version and commit `/metrics` reports.
const BUILD: &[Label] = &[
    ("version", env!("CARGO_PKG_VERSION")),
    ("commit", env!("HYPERLINE_GIT_COMMIT")),
];

/// Every metric `GET /metrics` exports, in JSON body order.
pub(crate) static METRICS: &[Metric] = &[
    Metric {
        name: "hyperline_build_info",
        help: "Build metadata (value is always 1).",
        path: "build",
        read: Read::Plain(|_| Value::Info(BUILD)),
    },
    Metric {
        name: "hyperline_process_start_time_seconds",
        help: "Unix time the server started.",
        path: "build.started_unix",
        read: Read::Plain(|s| Value::Gauge(s.started_unix as i64)),
    },
    Metric {
        name: "hyperline_uptime_seconds",
        help: "Seconds since the server started.",
        path: "build.uptime_secs",
        read: Read::Plain(|s| Value::Gauge(s.started.elapsed().as_secs() as i64)),
    },
    Metric {
        name: "hyperline_connections_accepted_total",
        help: "Connections registered with the event loop.",
        path: "connections.accepted",
        read: Read::Plain(|s| Value::Counter(s.metrics.connections_accepted.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_connections_rejected_total",
        help: "Connections shed with 503 while draining, plus requests answered 503 because the worker queue was full.",
        path: "connections.rejected",
        read: Read::Plain(|s| Value::Counter(s.metrics.connections_rejected.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_bad_requests_total",
        help: "Requests whose HTTP parse failed.",
        path: "connections.bad_requests",
        read: Read::Plain(|s| Value::Counter(s.metrics.bad_requests.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_queue_depth",
        help: "Requests waiting in the worker queue.",
        path: "pool.queue_depth",
        read: Read::Plain(|s| Value::Gauge(s.metrics.queue_depth.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_busy_workers",
        help: "Workers currently serving a request.",
        path: "pool.busy_workers",
        read: Read::Plain(|s| Value::Gauge(s.metrics.busy_workers.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_queue_wait_micros",
        help: "Time requests waited in the worker queue, microseconds.",
        path: "pool.queue_wait",
        read: Read::Plain(|s| Value::Histogram(s.metrics.queue_wait.snapshot())),
    },
    Metric {
        name: "hyperline_streamed_responses_total",
        help: "Responses streamed instead of buffered.",
        path: "transport.streamed_responses",
        read: Read::Plain(|s| Value::Counter(s.metrics.streamed_responses.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_gzip_responses_total",
        help: "Streamed responses compressed with gzip.",
        path: "transport.gzip_responses",
        read: Read::Plain(|s| Value::Counter(s.metrics.gzip_responses.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_client_aborts_total",
        help: "Mid-stream client disconnects handled as quiet closes.",
        path: "transport.client_aborts",
        read: Read::Plain(|s| Value::Counter(s.metrics.client_aborts.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_write_stalls_total",
        help: "Response writes aborted because the socket stalled past the write timeout.",
        path: "transport.write_stalls",
        read: Read::Plain(|s| Value::Counter(s.metrics.write_stalls.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_gzip_encode_micros",
        help: "Time the gzip encoder spent compressing per response (CRC, matching, Huffman coding; not its writes to the socket buffer), microseconds.",
        path: "transport.gzip_encode",
        read: Read::Plain(|s| Value::Histogram(s.metrics.gzip_encode.snapshot())),
    },
    Metric {
        name: "hyperline_event_loop_open_connections",
        help: "Connections currently owned by the event loop.",
        path: "transport.event_loop.open_connections",
        read: Read::Plain(|s| Value::Gauge(s.metrics.event_loop_connections.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_event_loop_wakeups_total",
        help: "epoll_wait returns processed by the event loop.",
        path: "transport.event_loop.wakeups",
        read: Read::Plain(|s| Value::Counter(s.metrics.event_loop_wakeups.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_event_loop_eagain_total",
        help: "Socket drains that yielded on EAGAIN and re-armed EPOLLOUT.",
        path: "transport.event_loop.eagain_yields",
        read: Read::Plain(|s| Value::Counter(s.metrics.eagain_yields.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_deadline_expired_total",
        help: "Requests whose deadline expired before their response finished.",
        path: "lifecycle.deadline_expired",
        read: Read::Plain(|s| Value::Counter(s.metrics.deadline_expired.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_slow_loris_closes_total",
        help: "Request heads abandoned by the cumulative head deadline.",
        path: "lifecycle.slow_loris_closes",
        read: Read::Plain(|s| Value::Counter(s.metrics.slow_loris_closes.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_watchdog_expired_total",
        help: "Request deadlines the watchdog fired while still armed.",
        path: "lifecycle.watchdog_expired",
        read: Read::Plain(|s| Value::Counter(s.watchdog.expired_total())),
    },
    Metric {
        name: "hyperline_draining",
        help: "1 while a graceful drain is in progress.",
        path: "drain.draining",
        read: Read::Plain(|s| Value::Flag(s.draining.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_drained_connections_total",
        help: "Keep-alive connections that closed cleanly during a drain.",
        path: "drain.drained_connections",
        read: Read::Plain(|s| Value::Counter(s.metrics.drained_connections.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_aborted_connections_total",
        help: "Connections hard-closed because they outlived the drain bound.",
        path: "drain.aborted_connections",
        read: Read::Plain(|s| Value::Counter(s.metrics.aborted_connections.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_faults_injected_total",
        help: "Failpoint faults injected (always zero in release builds).",
        path: "faults.injected",
        read: Read::Plain(|_| Value::Counter(failpoint::total_fired())),
    },
    Metric {
        name: "hyperline_cache_hits_total",
        help: "Cache hits, by tier.",
        path: "cache.*.hits",
        read: Read::Tier(|t| Value::Counter(t.stats.hits)),
    },
    Metric {
        name: "hyperline_cache_misses_total",
        help: "Cache misses, by tier.",
        path: "cache.*.misses",
        read: Read::Tier(|t| Value::Counter(t.stats.misses)),
    },
    Metric {
        name: "hyperline_cache_coalesced_total",
        help: "Cache coalesced, by tier.",
        path: "cache.*.coalesced",
        read: Read::Tier(|t| Value::Counter(t.stats.coalesced)),
    },
    Metric {
        name: "hyperline_cache_evictions_total",
        help: "Cache evictions, by tier.",
        path: "cache.*.evictions",
        read: Read::Tier(|t| Value::Counter(t.stats.evictions)),
    },
    Metric {
        name: "hyperline_cache_negative_hits_total",
        help: "Cache negative_hits, by tier.",
        path: "cache.*.negative_hits",
        read: Read::Tier(|t| Value::Counter(t.stats.negative_hits)),
    },
    Metric {
        name: "hyperline_cache_gave_up_total",
        help: "Cache gave_up, by tier.",
        path: "cache.*.gave_up",
        read: Read::Tier(|t| Value::Counter(t.stats.gave_up)),
    },
    Metric {
        name: "hyperline_cache_cancelled_total",
        help: "Cache cancelled, by tier.",
        path: "cache.*.cancelled",
        read: Read::Tier(|t| Value::Counter(t.stats.cancelled)),
    },
    Metric {
        name: "hyperline_cache_entries",
        help: "Live cache entries, by tier.",
        path: "cache.*.entries",
        read: Read::Tier(|t| Value::Gauge(t.stats.entries as i64)),
    },
    Metric {
        name: "hyperline_cache_used_bytes",
        help: "Bytes resident in the cache, by tier.",
        path: "cache.*.used_bytes",
        read: Read::Tier(|t| Value::Gauge(t.stats.used_bytes as i64)),
    },
    Metric {
        name: "hyperline_cache_budget_bytes",
        help: "Cache byte budget, by tier.",
        path: "cache.*.budget_bytes",
        read: Read::Tier(|t| Value::Gauge(t.stats.budget_bytes as i64)),
    },
    Metric {
        name: "hyperline_cache_lock_hold_micros",
        help: "Time the cache mutex was held per acquisition, microseconds.",
        path: "cache.*.lock_hold",
        read: Read::Tier(|t| Value::Histogram(t.lock_hold.snapshot())),
    },
    Metric {
        name: "hyperline_requests_total",
        help: "Requests served, by route.",
        path: "endpoints.*.requests",
        read: Read::Route(|e| Value::Counter(e.requests.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_request_errors_total",
        help: "Requests answered 4xx/5xx, by route.",
        path: "endpoints.*.errors",
        read: Read::Route(|e| Value::Counter(e.errors.load(Ordering::Relaxed))),
    },
    Metric {
        name: "hyperline_request_duration_micros",
        help: "Request handling latency, microseconds, by route.",
        path: "endpoints.*.latency",
        read: Read::Route(|e| Value::Histogram(e.latency.snapshot())),
    },
];

/// What one `/metrics` response reads. Each cache tier's statistics are
/// taken once, up front — reading them takes the tier's lock, which
/// records a lock-hold sample — so both renderings of one readout agree.
pub(crate) struct Readout<'a> {
    state: &'a ServerState,
    tiers: [(&'static str, TierStats<'a>); 2],
}

impl<'a> Readout<'a> {
    /// Reads `state`'s cache-tier statistics.
    pub(crate) fn new(state: &'a ServerState) -> Self {
        fn tier<K: TierKey, V>(cache: &SingleFlightCache<K, V>) -> TierStats<'_> {
            let lock_hold = cache.lock_hold_histogram();
            TierStats {
                stats: cache.stats(),
                lock_hold,
            }
        }
        let tiers = [
            ("artifacts", tier(&state.cache)),
            ("metrics", tier(&state.metric_cache)),
        ];
        Readout { state, tiers }
    }

    /// `metric`'s samples: each one's label, when the metric has a
    /// label dimension, and its value.
    pub(crate) fn samples(&self, metric: &Metric) -> Vec<(Option<Label>, Value)> {
        match metric.read {
            Read::Plain(read) => vec![(None, read(self.state))],
            Read::Route(read) => {
                let m = &self.state.metrics;
                let sample = |&r: &Route| (Some(("route", r.name())), read(m.endpoint(r)));
                Route::ALL.iter().map(sample).collect()
            }
            Read::Tier(read) => self
                .tiers
                .iter()
                .map(|(tier, stats)| (Some(("tier", *tier)), read(stats)))
                .collect(),
        }
    }

    /// The JSON body: every sample at its metric's path, a `*` segment
    /// replaced by the sample's label value.
    pub(crate) fn json(&self) -> Json {
        let mut root = Vec::new();
        for metric in METRICS {
            for (label, value) in self.samples(metric) {
                let leaf = match value {
                    Value::Counter(v) => Json::from(v),
                    Value::Gauge(v) => Json::from(v),
                    Value::Flag(b) => Json::Bool(b),
                    Value::Histogram(h) => {
                        let count = h.count();
                        let field = |key: &str, v: u64| (key.to_string(), Json::from(v));
                        Json::Obj(vec![
                            field("count", count),
                            field("avg_micros", h.sum().checked_div(count).unwrap_or(0)),
                            field("max_micros", h.max()),
                            field("p50", h.quantile(0.50)),
                            field("p90", h.quantile(0.90)),
                            field("p99", h.quantile(0.99)),
                            field("p999", h.quantile(0.999)),
                        ])
                    }
                    Value::Info(pairs) => Json::Obj(
                        pairs
                            .iter()
                            .map(|&(k, v)| (k.to_string(), v.into()))
                            .collect(),
                    ),
                };
                let mut path = metric.path.split('.').map(|segment| match label {
                    Some((_, label)) if segment == "*" => label,
                    _ => segment,
                });
                if let Some(key) = path.next() {
                    insert(&mut root, key, path, leaf);
                }
            }
        }
        Json::Obj(root)
    }

    /// Prometheus text exposition format 0.0.4: one family per metric,
    /// histograms as cumulative `_bucket{le=...}` series plus
    /// `_sum`/`_count`.
    pub(crate) fn exposition(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(8 * 1024);
        for metric in METRICS {
            let name = metric.name;
            let samples = self.samples(metric);
            let kind = match samples.first() {
                Some((_, Value::Counter(_))) => "counter",
                Some((_, Value::Histogram(_))) => "histogram",
                Some((_, Value::Gauge(_) | Value::Flag(_) | Value::Info(_))) | None => "gauge",
            };
            let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", metric.help);
            for (label, value) in samples {
                let pairs = match &value {
                    Value::Info(pairs) => pairs,
                    _ => label.as_slice(),
                };
                // `key="value",` per label: bucket rows append `le`, the
                // others drop the trailing comma.
                let pairs: String = pairs.iter().map(|(k, v)| format!("{k}=\"{v}\",")).collect();
                let labels = match pairs.strip_suffix(',') {
                    Some(inner) => format!("{{{inner}}}"),
                    None => String::new(),
                };
                let _ = match value {
                    Value::Counter(v) => writeln!(out, "{name}{labels} {v}"),
                    Value::Gauge(v) => writeln!(out, "{name}{labels} {v}"),
                    Value::Flag(b) => writeln!(out, "{name}{labels} {}", u8::from(b)),
                    Value::Info(_) => writeln!(out, "{name}{labels} 1"),
                    Value::Histogram(h) => {
                        for (le, cumulative) in h.cumulative_buckets() {
                            let _ =
                                writeln!(out, "{name}_bucket{{{pairs}le=\"{le}\"}} {cumulative}");
                        }
                        let count = h.count();
                        let _ = writeln!(out, "{name}_bucket{{{pairs}le=\"+Inf\"}} {count}");
                        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                        writeln!(out, "{name}_count{labels} {count}")
                    }
                };
            }
        }
        out
    }
}

/// Adds `leaf` to an object's `fields` at `key` followed by the `rest`
/// of its path, finding or creating each intermediate object in order.
fn insert<'p>(
    fields: &mut Vec<(String, Json)>,
    key: &str,
    mut rest: impl Iterator<Item = &'p str>,
    leaf: Json,
) {
    let Some(next) = rest.next() else {
        fields.push((key.to_string(), leaf));
        return;
    };
    if let Some((_, Json::Obj(children))) = fields.iter_mut().find(|(k, _)| k == key) {
        return insert(children, next, rest, leaf);
    }
    let mut children = Vec::new();
    insert(&mut children, next, rest, leaf);
    fields.push((key.to_string(), Json::Obj(children)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_route() {
        let m = ServerMetrics::new();
        m.record(Route::Slg, 200, Duration::from_micros(120));
        m.record(Route::Slg, 200, Duration::from_micros(80));
        m.record(Route::Slg, 404, Duration::from_micros(10));
        m.record(Route::Health, 200, Duration::from_micros(5));
        let slg = m.endpoint(Route::Slg);
        assert_eq!(slg.requests.load(Ordering::Relaxed), 3);
        assert_eq!(slg.errors.load(Ordering::Relaxed), 1);
        assert_eq!(slg.latency.count(), 3);
        assert_eq!(slg.latency.sum(), 210);
        assert_eq!(slg.latency.max(), 120);
        assert_eq!(
            m.endpoint(Route::Health).requests.load(Ordering::Relaxed),
            1
        );
        assert_eq!(m.endpoint(Route::Sweep).requests.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn route_names_unique() {
        let mut names: Vec<&str> = Route::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Route::ALL.len());
    }

    #[test]
    fn gauge_guard_balances_even_on_unwind() {
        let gauge = AtomicI64::new(0);
        {
            let _g = GaugeGuard::enter(&gauge);
            assert_eq!(gauge.load(Ordering::Relaxed), 1);
            let _h = GaugeGuard::enter(&gauge);
            assert_eq!(gauge.load(Ordering::Relaxed), 2);
        }
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        // A panic unwinding through the guard still releases it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = GaugeGuard::enter(&gauge);
            panic!("worker died");
        }));
        assert!(result.is_err());
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn route_index_is_discriminant() {
        // The O(1) cast must agree with the table position for every
        // route — pins ALL's order to the enum declaration order.
        for (pos, &route) in Route::ALL.iter().enumerate() {
            assert_eq!(route.index(), pos, "{route:?}");
            assert_eq!(Route::ALL[route.index()], route);
        }
    }
}
