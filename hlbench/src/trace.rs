//! The traced run's second half: replay each traced request's layer
//! calls as direct public calls, then fold the spans and the server's
//! own counters into the per-layer table.
//!
//! A replayed call is a span whose parent is the request it models and
//! which shares that request's id. Replays run after the traced window,
//! one at a time, on the same inputs the server saw (datasets rebuilt
//! from their generator seed in a scratch registry, the exact request
//! heads and bodies, the bodies the server answered). A replayed span
//! therefore covers its parent by duration, not by wall-clock overlap.

use crate::stats;
use crate::workload::{
    profile, query_keys, Log, Logged, Op, Query, Request, Span, DENSE, INSTANCE_SEED,
};
use hyperline_server::json::Json;
use hyperline_server::{
    gzip, http, AlgoKind, CacheKey, CacheStats, DatasetRegistry, MetricKey, MetricKind, Route,
    ServerState,
};
use hyperline_slinegraph::{
    algo2_slinegraph, algo2_slinegraph_weighted, ensemble_slinegraphs, AlgoStats, SLineGraph,
    Strategy,
};
use hyperline_util::telemetry::HistogramSnapshot;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The server counters the per-layer table reads, at one instant.
pub struct Counters {
    artifacts: CacheStats,
    metrics: CacheStats,
    lock_hold: [HistogramSnapshot; 2],
    queue_wait: HistogramSnapshot,
    handle: Vec<HistogramSnapshot>,
    gzip_encode: HistogramSnapshot,
    wakeups: u64,
    eagain: u64,
}

impl Counters {
    pub fn read(state: &ServerState) -> Counters {
        let m = &state.metrics;
        Counters {
            artifacts: state.cache.stats(),
            metrics: state.metric_cache.stats(),
            lock_hold: [
                state.cache.lock_hold_histogram().snapshot(),
                state.metric_cache.lock_hold_histogram().snapshot(),
            ],
            queue_wait: m.queue_wait.snapshot(),
            handle: Route::ALL
                .iter()
                .filter(|&&r| r != Route::Metrics)
                .map(|&r| m.endpoint(r).latency.snapshot())
                .collect(),
            gzip_encode: m.gzip_encode.snapshot(),
            wakeups: m.event_loop_wakeups.load(Ordering::Relaxed),
            eagain: m.eagain_yields.load(Ordering::Relaxed),
        }
    }
}

/// `hits / (hits + misses + coalesced)` between two tier snapshots,
/// with its base.
fn hit_ratio(before: &CacheStats, after: &CacheStats) -> (f64, u64) {
    let hits = after.hits - before.hits;
    let base = hits + (after.misses - before.misses) + (after.coalesced - before.coalesced);
    (
        if base == 0 {
            0.0
        } else {
            hits as f64 / base as f64
        },
        base,
    )
}

/// Layer of a replayed span name (`"slinegraph.algo2"` → `"slinegraph"`).
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

const LAYERS: [&str; 7] = [
    "slinegraph",
    "graph",
    "cache",
    "http",
    "json",
    "gzip",
    "registry",
];

/// Replays layer calls and collects their spans.
struct Replay<'a> {
    live: &'a ServerState,
    scratch: DatasetRegistry,
    seed: u64,
    strategy: Strategy,
    /// Artifacts the server held at this point: `(dataset, s, weighted)`.
    artifacts: HashMap<(String, u32, bool), Arc<SLineGraph>>,
    /// Metric-tier entries the server held at this point.
    metrics: HashSet<(String, MetricKind)>,
    spans: Vec<Span>,
    counting: Vec<(f64, AlgoStats)>,
    gzip_bytes: (u64, u64),
    probes: u64,
}

/// Runs `f` as one span.
fn time<T>(
    spans: &mut Vec<Span>,
    name: &str,
    parent: u64,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let end = Instant::now();
    spans.push(Span {
        id: crate::workload::next_id(),
        parent,
        request,
        name: name.to_string(),
        start,
        end,
        first_byte: None,
    });
    out
}

impl Replay<'_> {
    fn timed<T>(&mut self, name: &str, parent: u64, request: u64, f: impl FnOnce() -> T) -> T {
        time(&mut self.spans, name, parent, request, f)
    }

    fn last_secs(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.ms() / 1e3)
    }

    /// Every layer call one request causes, in the server's order.
    fn request(&mut self, logged: &Logged) {
        let (parent, id) = (logged.span, logged.span);
        let wire = logged.request.wire();
        let mut raw = wire.head.clone();
        raw.extend_from_slice(&wire.body);
        let _ = self.timed("http.parse_head", parent, id, || http::parse_head(&raw));
        match &logged.request {
            Request::Load { dataset } => {
                let scratch = &self.scratch;
                let _ = time(&mut self.spans, "registry.load_profile", parent, id, || {
                    scratch.load_profile(profile(dataset), INSTANCE_SEED, Some(dataset))
                });
                self.artifacts.retain(|(d, _, _), _| d != dataset);
                self.metrics.retain(|(d, _)| d != dataset);
            }
            Request::Get { query, .. } => self.query(query, parent),
            Request::Batch { items, .. } => {
                let text = String::from_utf8_lossy(&wire.body).into_owned();
                let _ = self.timed("json.parse", parent, id, || Json::parse(&text));
                for item in items {
                    self.query(item, parent);
                }
            }
        }
        if logged.request.gzipped() {
            self.gzip(&logged.body, parent, id);
        }
    }

    fn gzip(&mut self, body: &[u8], parent: u64, request: u64) {
        let out = self.timed("gzip.encode", parent, request, || {
            gzip::compress_with(body, gzip::Effort::Fast)
        });
        self.gzip_bytes.0 += body.len() as u64;
        self.gzip_bytes.1 += out.len() as u64;
    }

    fn artifact_key(dataset: &str, s: u32, weighted: bool) -> CacheKey {
        CacheKey {
            dataset: dataset.to_string(),
            s,
            algorithm: AlgoKind::Algo2,
            weighted,
        }
    }

    fn lookup_artifact(&mut self, dataset: &str, s: u32, weighted: bool, parent: u64) {
        let key = Self::artifact_key(dataset, s, weighted);
        let live = self.live;
        self.timed("cache.lookup", parent, parent, || live.cache.lookup(&key));
    }

    /// The artifact for `(dataset, s, weighted)`, built as the server's
    /// cache fill builds it when absent.
    fn artifact(&mut self, dataset: &str, s: u32, weighted: bool, parent: u64) -> Arc<SLineGraph> {
        if let Some(g) = self.artifacts.get(&(dataset.to_string(), s, weighted)) {
            return Arc::clone(g);
        }
        let h = self
            .scratch
            .get(dataset)
            .expect("replayed dataset")
            .hypergraph;
        let st = self.strategy;
        let edges = if weighted {
            let (mut triples, stats) = self.timed("slinegraph.weighted", parent, parent, || {
                algo2_slinegraph_weighted(&h, s, &st)
            });
            self.counting.push((self.last_secs(), stats));
            for t in triples.iter_mut() {
                if t.0 > t.1 {
                    *t = (t.1, t.0, t.2);
                }
            }
            triples.sort_unstable();
            triples.iter().map(|&(i, j, _)| (i, j)).collect()
        } else {
            let r = self.timed("slinegraph.algo2", parent, parent, || {
                algo2_slinegraph(&h, s, &st)
            });
            self.counting.push((self.last_secs(), r.stats));
            r.edges
        };
        let m = h.num_edges();
        let g = Arc::new(self.timed("slinegraph.squeeze", parent, parent, || {
            SLineGraph::new_squeezed(s, m, edges)
        }));
        self.artifacts
            .insert((dataset.to_string(), s, weighted), Arc::clone(&g));
        g
    }

    fn query(&mut self, q: &Query, parent: u64) {
        let d = q.dataset;
        let metric = |s: u32, metric: MetricKind| MetricKey {
            artifact: Self::artifact_key(d, s, false),
            metric,
        };
        let (key, kind) = match q.op {
            Op::Slg { s, weighted, .. } => {
                self.lookup_artifact(d, s, weighted, parent);
                self.artifact(d, s, weighted, parent);
                return;
            }
            Op::Sweep { max_s } => (
                metric(0, MetricKind::Sweep { max_s }),
                MetricKind::Sweep { max_s },
            ),
            Op::Components { s, .. } => (metric(s, MetricKind::Components), MetricKind::Components),
            Op::Spectrum { s } => (metric(s, MetricKind::Spectrum), MetricKind::Spectrum),
            Op::Betweenness { s, samples, .. } => {
                let m = self.scratch.get(d).map_or(0, |x| x.hypergraph.num_edges());
                let samples = samples.min(m as u32);
                let kind = MetricKind::Betweenness {
                    samples,
                    seed: if samples == 0 { 0 } else { 42 },
                };
                (metric(s, kind), kind)
            }
        };
        let live = self.live;
        self.timed("cache.lookup", parent, parent, || {
            live.metric_cache.lookup(&key)
        });
        if !self.metrics.insert((d.to_string(), kind)) {
            return; // warm: the metric tier answers
        }
        match q.op {
            Op::Sweep { max_s } => {
                let mut missing = Vec::new();
                for s in 1..=max_s {
                    self.lookup_artifact(d, s, false, parent);
                    if !self.artifacts.contains_key(&(d.to_string(), s, false)) {
                        missing.push(s);
                    }
                }
                if !missing.is_empty() {
                    self.ensemble(d, &missing, parent);
                }
            }
            Op::Components { s, .. } => {
                self.lookup_artifact(d, s, false, parent);
                let g = self.artifact(d, s, false, parent);
                self.timed("graph.components", parent, parent, || {
                    g.connected_components()
                });
            }
            Op::Spectrum { s } => {
                self.lookup_artifact(d, s, false, parent);
                let g = self.artifact(d, s, false, parent);
                self.timed("graph.diameter", parent, parent, || g.s_diameter());
                self.timed("graph.algebraic_connectivity", parent, parent, || {
                    g.algebraic_connectivity()
                });
            }
            Op::Betweenness { s, .. } => {
                self.lookup_artifact(d, s, false, parent);
                let g = self.artifact(d, s, false, parent);
                let MetricKind::Betweenness { samples, seed } = kind else {
                    unreachable!("betweenness key")
                };
                self.timed("graph.betweenness", parent, parent, || {
                    g.betweenness_sampled(samples as usize, seed)
                });
            }
            Op::Slg { .. } => unreachable!("handled above"),
        }
    }

    /// `build_slinegraphs_over_s`, split into its counting pass
    /// (`ensemble_slinegraphs`, which also reports `AlgoStats`) and the
    /// per-s squeeze — exactly that function's body.
    fn ensemble(&mut self, dataset: &str, s_values: &[u32], parent: u64) {
        let h = self
            .scratch
            .get(dataset)
            .expect("replayed dataset")
            .hypergraph;
        let st = self.strategy;
        let result = self.timed("slinegraph.ensemble", parent, parent, || {
            ensemble_slinegraphs(&h, s_values, &st)
        });
        self.counting.push((self.last_secs(), result.stats));
        let m = h.num_edges();
        for (s, edges) in result.per_s {
            let g = self.timed("slinegraph.squeeze", parent, parent, || {
                SLineGraph::new_squeezed(s, m, edges)
            });
            self.artifacts
                .insert((dataset.to_string(), s, false), Arc::new(g));
        }
    }

    /// Calls each layer function the workload never called, once, on
    /// the workload's own inputs: the dense dataset, its own streamed
    /// response bodies (gzip), the seed's batch bodies (JSON). Every
    /// per-layer metric is then measured on every workload. Probe spans
    /// hang off a probe root, never off a request, so they count toward
    /// no request's coverage.
    fn probes(&mut self, bodies: &[Arc<Vec<u8>>]) {
        let root = crate::workload::next_id();
        let called = |r: &Replay, name: &str| r.spans.iter().any(|s| s.name == name);
        let before = self.spans.len();
        if self.scratch.get(DENSE).is_none() {
            let scratch = &self.scratch;
            let _ = time(&mut self.spans, "registry.load_profile", root, 0, || {
                scratch.load_profile(profile(DENSE), INSTANCE_SEED, Some(DENSE))
            });
        }
        let fresh = |r: &mut Replay| {
            r.artifacts.clear();
            r.metrics.clear();
        };
        if !called(self, "slinegraph.algo2") || !called(self, "slinegraph.squeeze") {
            fresh(self);
            self.artifact(DENSE, 2, false, root);
        }
        if !called(self, "slinegraph.weighted") {
            fresh(self);
            self.artifact(DENSE, 2, true, root);
        }
        if !called(self, "slinegraph.ensemble") {
            fresh(self);
            self.ensemble(DENSE, &(1..=8).collect::<Vec<_>>(), root);
        }
        for (name, op) in [
            ("graph.components", Op::Components { s: 4, limit: 10 }),
            ("graph.diameter", Op::Spectrum { s: 8 }),
        ] {
            if !called(self, name) {
                fresh(self);
                self.query(&Query { dataset: DENSE, op }, root);
            }
        }
        if !called(self, "gzip.encode") {
            for body in bodies {
                self.gzip(body, root, 0);
            }
        }
        if !called(self, "json.parse") {
            for request in query_keys(self.seed) {
                if let Request::Batch { .. } = request {
                    let text = String::from_utf8_lossy(&request.wire().body).into_owned();
                    let _ = self.timed("json.parse", root, 0, || Json::parse(&text));
                }
            }
        }
        // Probe spans are not attributed to requests.
        for span in &mut self.spans[before..] {
            span.parent = root;
            span.request = 0;
        }
        self.probes = (self.spans.len() - before) as u64;
    }
}

/// What the traced run reports.
pub struct TraceReport {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub lines: Vec<String>,
    pub spans: Vec<Span>,
}

/// Which requests each operation class of the workload is made of.
pub struct OpClass {
    pub name: &'static str,
    /// Untraced median of the class's end-to-end metric, ms.
    pub untraced_ms: f64,
    /// Top-level spans of the class (sessions, or requests).
    pub ops: Vec<u64>,
}

/// Replays the traced requests and builds the per-layer table.
#[allow(clippy::too_many_arguments)]
pub fn report(
    live: &ServerState,
    seed: u64,
    log: Log,
    replay_ids: &HashSet<u64>,
    window_requests: &[u64],
    classes: &[OpClass],
    before: &Counters,
    after: &Counters,
) -> TraceReport {
    let mut replay = Replay {
        live,
        scratch: DatasetRegistry::new(),
        seed,
        strategy: Strategy::default(),
        artifacts: HashMap::new(),
        metrics: HashSet::new(),
        spans: Vec::new(),
        counting: Vec::new(),
        gzip_bytes: (0, 0),
        probes: 0,
    };
    let replay_started = Instant::now();
    for logged in log.requests.iter().filter(|l| replay_ids.contains(&l.span)) {
        replay.request(logged);
    }
    let streamed: Vec<Arc<Vec<u8>>> = log
        .requests
        .iter()
        .filter(|l| replay_ids.contains(&l.span))
        .filter(|l| match &l.request {
            Request::Get { query, .. } => query.streams(),
            Request::Batch { items, .. } => items.iter().any(Query::streams),
            Request::Load { .. } => false,
        })
        .map(|l| Arc::clone(&l.body))
        .collect();
    replay.probes(&streamed);
    let replay_secs = replay_started.elapsed().as_secs_f64();

    let mut lines = Vec::new();
    let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
    let spans_named = |name: &str| -> Vec<f64> {
        replay
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let mut calls: BTreeMap<String, usize> = BTreeMap::new();
    for s in &replay.spans {
        *calls.entry(s.name.clone()).or_default() += 1;
    }
    // Mean per call for the kernels; median per call for the
    // microsecond-scale calls, whose means a single preemption skews.
    let mean_ms = |name: &str| stats::mean(&spans_named(name));
    let median_ms = |name: &str| stats::median(&spans_named(name));

    // slinegraph
    let wedges: u64 = replay
        .counting
        .iter()
        .map(|(_, s)| s.total().wedge_visits)
        .sum();
    let emitted: u64 = replay
        .counting
        .iter()
        .map(|(_, s)| s.total().edges_emitted)
        .sum();
    let counting_secs: f64 = replay.counting.iter().map(|(t, _)| t).sum();
    let imbalance: Vec<f64> = replay
        .counting
        .iter()
        .map(|(_, s)| s.visit_summary().imbalance())
        .collect();
    metrics.push(("slinegraph.algo2_ms", "ms", mean_ms("slinegraph.algo2")));
    metrics.push((
        "slinegraph.weighted_ms",
        "ms",
        mean_ms("slinegraph.weighted"),
    ));
    metrics.push((
        "slinegraph.ensemble_ms",
        "ms",
        mean_ms("slinegraph.ensemble"),
    ));
    metrics.push(("slinegraph.squeeze_ms", "ms", mean_ms("slinegraph.squeeze")));
    metrics.push(("slinegraph.wedges", "count", wedges as f64));
    metrics.push((
        "slinegraph.wedges_per_s",
        "1/s",
        if counting_secs > 0.0 {
            wedges as f64 / counting_secs
        } else {
            0.0
        },
    ));
    metrics.push((
        "slinegraph.emitted_per_wedge",
        "ratio",
        if wedges > 0 {
            emitted as f64 / wedges as f64
        } else {
            0.0
        },
    ));
    metrics.push((
        "slinegraph.worker_imbalance",
        "ratio",
        stats::mean(&imbalance),
    ));
    // graph (Stage 5)
    metrics.push(("graph.components_ms", "ms", mean_ms("graph.components")));
    metrics.push(("graph.diameter_ms", "ms", mean_ms("graph.diameter")));
    metrics.push((
        "graph.algebraic_connectivity_ms",
        "ms",
        mean_ms("graph.algebraic_connectivity"),
    ));
    // cache
    let (art_ratio, art_base) = hit_ratio(&before.artifacts, &after.artifacts);
    let (met_ratio, met_base) = hit_ratio(&before.metrics, &after.metrics);
    let lock = stats::merge(&[
        stats::delta(&before.lock_hold[0], &after.lock_hold[0]),
        stats::delta(&before.lock_hold[1], &after.lock_hold[1]),
    ]);
    metrics.push(("cache.artifacts.hit_ratio", "ratio", art_ratio));
    metrics.push(("cache.metrics.hit_ratio", "ratio", met_ratio));
    metrics.push(("cache.lookup_ns", "ns", median_ms("cache.lookup") * 1e6));
    metrics.push((
        "cache.lock_hold_p99_us",
        "us",
        stats::bucket_quantile(&lock, 0.99),
    ));
    // http
    metrics.push((
        "http.parse_head_ns",
        "ns",
        median_ms("http.parse_head") * 1e6,
    ));
    // pool
    let queue = stats::delta(&before.queue_wait, &after.queue_wait);
    metrics.push((
        "pool.queue_wait_p50_us",
        "us",
        stats::bucket_quantile(&queue, 0.5),
    ));
    metrics.push((
        "pool.queue_wait_p99_us",
        "us",
        stats::bucket_quantile(&queue, 0.99),
    ));
    // server dispatch
    let handle = stats::merge(
        &before
            .handle
            .iter()
            .zip(&after.handle)
            .map(|(b, a)| stats::delta(b, a))
            .collect::<Vec<_>>(),
    );
    metrics.push((
        "server.handle_p50_us",
        "us",
        stats::bucket_quantile(&handle, 0.5),
    ));
    // event loop, from the client spans of the traced window
    let window: HashSet<u64> = window_requests.iter().copied().collect();
    let request_spans: Vec<&Span> = log
        .spans
        .iter()
        .filter(|s| s.name == "request" && window.contains(&s.id))
        .collect();
    let ttfb: Vec<f64> = request_spans
        .iter()
        .filter_map(|s| Some((s.first_byte? - s.start).as_secs_f64() * 1e3))
        .collect();
    let body: Vec<f64> = request_spans
        .iter()
        .filter_map(|s| Some((s.end - s.first_byte?).as_secs_f64() * 1e3))
        .collect();
    let requests = request_spans.len().max(1) as f64;
    metrics.push(("event.ttfb_ms", "ms", stats::median(&ttfb)));
    metrics.push(("event.body_ms", "ms", stats::median(&body)));
    metrics.push((
        "event.wakeups_per_req",
        "ratio",
        (after.wakeups - before.wakeups) as f64 / requests,
    ));
    metrics.push((
        "event.eagain_yields_per_req",
        "ratio",
        (after.eagain - before.eagain) as f64 / requests,
    ));
    // gzip
    let encode = spans_named("gzip.encode");
    let encode_secs: f64 = encode.iter().sum::<f64>() / 1e3;
    let server_gzip = stats::delta(&before.gzip_encode, &after.gzip_encode);
    metrics.push(("gzip.encode_ms", "ms", stats::mean(&encode)));
    metrics.push((
        "gzip.mb_per_s",
        "MB/s",
        if encode_secs > 0.0 {
            replay.gzip_bytes.0 as f64 / encode_secs / 1e6
        } else {
            0.0
        },
    ));
    metrics.push((
        "gzip.ratio",
        "ratio",
        if replay.gzip_bytes.1 > 0 {
            replay.gzip_bytes.0 as f64 / replay.gzip_bytes.1 as f64
        } else {
            0.0
        },
    ));
    // json, registry
    metrics.push(("json.parse_us", "us", median_ms("json.parse") * 1e3));
    metrics.push(("registry.load_ms", "ms", mean_ms("registry.load_profile")));

    // The server's own encode histogram: printed, but not a per-layer
    // metric of the result line, since on `cold` nothing is gzipped and
    // it reads 0 on every run.
    lines.push(format!(
        "gzip.encode_p50_us (server histogram) {:.3} us over {} encodes",
        stats::bucket_quantile(&server_gzip, 0.5),
        stats::bucket_count(&server_gzip)
    ));
    // Bases behind the ratios and means.
    lines.push(format!(
        "bases: counting calls {} (wedges {wedges}, emitted {emitted}), artifact-tier lookups {art_base}, \
         metric-tier lookups {met_base}, lock acquisitions {}, queue waits {}, handled requests {}, \
         client request spans {}, server gzip encodes {}, gzip bytes in/out {}/{}, probe spans {}",
        replay.counting.len(),
        stats::bucket_count(&lock),
        stats::bucket_count(&queue),
        stats::bucket_count(&handle),
        request_spans.len(),
        stats::bucket_count(&server_gzip),
        replay.gzip_bytes.0,
        replay.gzip_bytes.1,
        replay.probes,
    ));
    lines.push(format!(
        "replayed calls ({replay_secs:.2} s): {}",
        calls
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // Self time and coverage per operation class.
    let by_parent: HashMap<u64, Vec<&Span>> = {
        let mut map: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in &replay.spans {
            map.entry(s.parent).or_default().push(s);
        }
        map
    };
    let children_of: HashMap<u64, Vec<&Span>> = {
        let mut map: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in &log.spans {
            map.entry(s.parent).or_default().push(s);
        }
        map
    };
    let span_by_id: HashMap<u64, &Span> = log.spans.iter().map(|s| (s.id, s)).collect();
    for class in classes {
        let replayed: Vec<u64> = class
            .ops
            .iter()
            .copied()
            .filter(|op| {
                replay_ids.contains(op)
                    || children_of
                        .get(op)
                        .is_some_and(|c| c.iter().any(|r| replay_ids.contains(&r.id)))
            })
            .collect();
        if replayed.is_empty() {
            continue;
        }
        let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut covered = Vec::new();
        let mut durations = Vec::new();
        for op in &replayed {
            let Some(span) = span_by_id.get(op) else {
                continue;
            };
            // A session's requests, or the request itself.
            let requests: Vec<u64> = match children_of.get(op) {
                Some(c) if span.name.starts_with("session") => c.iter().map(|r| r.id).collect(),
                _ => vec![*op],
            };
            let mut layer_ms: BTreeMap<&str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
            for r in &requests {
                for child in by_parent.get(r).into_iter().flatten() {
                    *layer_ms.entry(layer(&child.name)).or_default() += child.ms();
                }
            }
            covered.push(layer_ms.values().sum::<f64>());
            durations.push(span.ms());
            for (l, ms) in layer_ms {
                per_layer.entry(l).or_default().push(ms);
            }
        }
        let traced = stats::median(&durations);
        let base = class.untraced_ms;
        let pct = |ms: f64| if base > 0.0 { 100.0 * ms / base } else { 0.0 };
        lines.push(format!(
            "{}: {} replayed of {} traced; untraced median {base:.3} ms, traced median {traced:.3} ms, \
             tracing overhead {:+.3} ms",
            class.name,
            replayed.len(),
            class.ops.len(),
            traced - base
        ));
        for (l, values) in &per_layer {
            let ms = stats::mean(values);
            lines.push(format!(
                "  {l:<11} self {ms:>10.3} ms/op  {:>6.1}% of median",
                pct(ms)
            ));
        }
        let cover = stats::mean(&covered);
        // The replay runs later than the window, on a host whose speed
        // drifts, so also give the share of the replayed ops' own time.
        let own: Vec<f64> = covered
            .iter()
            .zip(&durations)
            .map(|(c, d)| 100.0 * c / d)
            .collect();
        lines.push(format!(
            "  spans cover {cover:.3} ms/op = {:.1}% of the median ({:.1}% of the replayed ops' own \
             traced time); uncovered remainder {:.3} ms ({:.1}%)",
            pct(cover),
            stats::median(&own),
            base - cover,
            pct(base - cover)
        ));
    }
    let mut spans = log.spans;
    spans.extend(replay.spans);
    TraceReport {
        metrics,
        lines,
        spans,
    }
}
