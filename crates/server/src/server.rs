//! The server proper: TCP lifecycle, routing and endpoint handlers.
//!
//! `bind` → `spawn` starts the epoll readiness loop
//! ([`crate::event`]): one thread owns every socket, parses request
//! heads incrementally, and hands complete requests to a fixed worker
//! pool through a bounded queue — so open keep-alive connections cost
//! a buffer each, not a thread each. Workers answer through a bounded
//! per-connection hand-off buffer the loop drains as the socket
//! accepts bytes. Query endpoints resolve through a two-tier
//! single-flight LRU cache: the **artifact tier** builds each s-line
//! graph at most once per `(dataset, s, algorithm)`, and the **metric
//! tier** layered on top computes each Stage-5 result (components,
//! betweenness, spectrum, sweep counts) at most once per
//! `(artifact, metric, params)` — so warm metric queries are O(1)
//! lookups plus rendering instead of parallel kernel runs.
//! `POST /query` answers a JSON array of sub-queries in one round-trip
//! under one compute budget.
//!
//! Counting happens once per dataset, not once per `s` (the paper's
//! Algorithm 3, applied across requests): every Algorithm-2 artifact
//! carries each edge's overlap count, so a missing `L_s` is filtered
//! from the cached Algorithm-2 artifact with the largest `s0 ≤ s`, and
//! the wedge-counting kernel runs only when no such artifact exists.
//! The same counts render `weighted=1` rows, so plain and weighted
//! `/slg` share one artifact, and `/sweep` reads every `|E(L_s)|` off
//! `L₁`'s.

use crate::access_log::{AccessLog, AccessRecord, RequestIds};
use crate::cache::{
    AlgoKind, ArtifactCache, CacheKey, CacheOutcome, MetricKey, MetricKind, SingleFlightCache,
};
use crate::event::{spawn_event_loop, RequestJob, RUN, STOP_AFTER_DRAIN, STOP_NOW};
use crate::gzip::GzipWriter;
use crate::http::{self, Params, Request};
use crate::json::{Json, StreamFragment};
use crate::metrics::{Readout, Route, ServerMetrics};
use crate::registry::{DatasetRegistry, DatasetSource};
use crate::sync::atomic::{AtomicU32, Ordering};
use crate::sync::{Arc, Mutex};
use crate::sys;
use hyperline_hypergraph::Hypergraph;
use hyperline_slinegraph::{
    algo1_slinegraph, algo2_slinegraph_weighted, edge_counts_from_overlaps, naive_slinegraph,
    spgemm_slinegraph, SLineGraph, Strategy,
};
use hyperline_util::cancel::{self, Deadline};
use hyperline_util::telemetry::{self, Span, StageAgg};
use hyperline_util::FxHashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Server configuration (all fields have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads; 0 means available parallelism.
    pub threads: usize,
    /// Artifact-cache budget in mebibytes.
    pub cache_mb: usize,
    /// Bounded worker-queue depth: parsed requests wait here for a
    /// worker (overflow answers 503).
    pub queue_depth: usize,
    /// Idle keep-alive / slow-client read timeout.
    pub read_timeout: Duration,
    /// Directory `POST /datasets?path=` may load files from. `None`
    /// (the default) disables path loading entirely — without a sandbox
    /// root, that endpoint would let any client read server files.
    pub data_root: Option<std::path::PathBuf>,
    /// JSONL access-log sink (`--access-log`); `None` disables request
    /// logging.
    pub access_log: Option<std::path::PathBuf>,
    /// Keep one access-log record in this many (0 and 1 both log every
    /// request).
    pub access_log_sample: u64,
    /// Cumulative budget for reading one request head once its first
    /// byte has arrived (slow-loris defense; `read_timeout` alone only
    /// bounds the gap *between* bytes, so a client dribbling one byte
    /// per interval could hold a worker forever).
    pub head_timeout: Duration,
    /// Socket write timeout: a response write stalled longer than this
    /// (dead or pathologically slow reader) aborts the stream and frees
    /// the worker.
    pub write_timeout: Duration,
    /// Wall-clock budget per request, dispatch through response write,
    /// fired from the event loop's timer heap; expiry cancels the
    /// compute (once every interested request gave up) and answers 504.
    /// `None` disables request deadlines.
    pub request_deadline: Option<Duration>,
    /// Per-route deadline overrides; an entry here wins over
    /// `request_deadline` for that route.
    pub route_deadlines: Vec<(Route, Duration)>,
    /// Default bound for a graceful drain (`POST /admin/drain` without
    /// `?deadline_ms=`): connections get this long to finish before the
    /// event loop closes the rest. [`ServerHandle::drain`] takes its
    /// own bound.
    pub drain_deadline: Duration,
    /// Negative-cache TTL: a failed compute's error is re-served for
    /// this long before a recompute is allowed, so a deterministically
    /// failing query cannot thundering-herd the kernels. Zero disables.
    pub negative_ttl: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            threads: 0,
            cache_mb: 256,
            queue_depth: 1024,
            read_timeout: Duration::from_secs(10),
            data_root: None,
            access_log: None,
            access_log_sample: 1,
            head_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: None,
            route_deadlines: Vec::new(),
            drain_deadline: Duration::from_secs(5),
            negative_ttl: Duration::from_millis(250),
        }
    }
}

/// A cached artifact: the s-line graph plus, for Algorithm 2, the
/// overlap count of each of its edges.
pub struct Artifact {
    /// The queryable line graph.
    pub slg: SLineGraph,
    /// `overlaps[k]` is the overlap of `slg.edges[k]`. `Some` on every
    /// Algorithm-2 artifact (a higher-`s` artifact is filtered from
    /// these, and `weighted=1` rows render them); `None` for the other
    /// algorithms.
    pub overlaps: Option<Vec<u32>>,
}

impl Artifact {
    /// Rough resident size, for the cache's byte budget.
    pub fn approx_bytes(&self) -> usize {
        let slg = &self.slg;
        // Edge list (8 B) + CSR adjacency (2×4 B per direction) + offsets.
        slg.num_edges() * (8 + 16)
            + slg.num_vertices() * 24
            + self.overlaps.as_ref().map_or(0, |w| w.len() * 4)
            + 128
    }

    /// The artifact with the byte size the cache accounts it at.
    fn sized(self) -> (Artifact, usize) {
        let bytes = self.approx_bytes();
        (self, bytes)
    }
}

/// A cached Stage-5 metric result — the metric tier's value type. Full,
/// untruncated results are cached; render-time parameters (`top`,
/// `limit`) apply when the response body is built, so every truncation
/// of one ranking shares one compute.
pub enum MetricResult {
    /// s-connected components, largest first.
    Components(Vec<Vec<u32>>),
    /// `(original hyperedge ID, score)` by descending score.
    Betweenness(Vec<(u32, f64)>),
    /// The spectrum summary.
    Spectrum {
        /// Squeezed vertex count of the line graph.
        num_vertices: usize,
        /// Edge count of the line graph.
        num_edges: usize,
        /// s-diameter.
        diameter: u32,
        /// Normalized algebraic connectivity of the largest component.
        algebraic_connectivity: f64,
        /// Whether the Lanczos run behind `algebraic_connectivity` met
        /// its residual bound; served so an estimate is never silent.
        algebraic_connectivity_converged: bool,
    },
    /// `(s, |E(L_s)|)` for `s = 1..=max_s`.
    Sweep(Vec<(u32, usize)>),
}

impl MetricResult {
    /// Rough resident size, for the metric tier's byte budget.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        64 + match self {
            MetricResult::Components(comps) => comps
                .iter()
                .map(|c| size_of::<Vec<u32>>() + c.len() * size_of::<u32>())
                .sum::<usize>(),
            MetricResult::Betweenness(ranking) => ranking.len() * size_of::<(u32, f64)>(),
            MetricResult::Spectrum { .. } => 0,
            MetricResult::Sweep(counts) => counts.len() * size_of::<(u32, usize)>(),
        }
    }
}

/// Streams `/slg` edge rows (`[i,j]` or `[i,j,overlap]`) straight from
/// the cached artifact: the response holds the `Arc`, not a rendered
/// body, so a full edge list serializes with O(1) buffering. The row
/// shape is the request's: one artifact serves both.
struct EdgeRows {
    artifact: Arc<Artifact>,
    limit: usize,
    weighted: bool,
}

impl StreamFragment for EdgeRows {
    fn write_json(&self, out: &mut dyn Write) -> std::io::Result<()> {
        out.write_all(b"[")?;
        let edges = &self.artifact.slg.edges;
        let overlaps = self.artifact.overlaps.as_ref().filter(|_| self.weighted);
        if let Some(overlaps) = overlaps {
            let rows = edges.iter().zip(overlaps).take(self.limit);
            for (n, (&(i, j), w)) in rows.enumerate() {
                if n > 0 {
                    out.write_all(b",")?;
                }
                write!(out, "[{i},{j},{w}]")?;
            }
        } else {
            for (n, &(i, j)) in edges.iter().take(self.limit).enumerate() {
                if n > 0 {
                    out.write_all(b",")?;
                }
                write!(out, "[{i},{j}]")?;
            }
        }
        out.write_all(b"]")
    }
}

/// Streams `/sweep` `[s, count]` rows from the cached metric result.
struct SweepRows {
    result: Arc<MetricResult>,
}

impl StreamFragment for SweepRows {
    fn write_json(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let MetricResult::Sweep(counts) = &*self.result else {
            unreachable!("sweep fragment holds a sweep result")
        };
        out.write_all(b"[")?;
        for (n, &(s, count)) in counts.iter().enumerate() {
            if n > 0 {
                out.write_all(b",")?;
            }
            write!(out, "[{s},{count}]")?;
        }
        out.write_all(b"]")
    }
}

/// Streams `/components` member arrays from the cached metric result.
struct ComponentRows {
    result: Arc<MetricResult>,
    limit: usize,
}

impl StreamFragment for ComponentRows {
    fn write_json(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let MetricResult::Components(components) = &*self.result else {
            unreachable!("component fragment holds a components result")
        };
        out.write_all(b"[")?;
        for (n, comp) in components.iter().take(self.limit).enumerate() {
            if n > 0 {
                out.write_all(b",")?;
            }
            out.write_all(b"[")?;
            for (m, id) in comp.iter().enumerate() {
                if m > 0 {
                    out.write_all(b",")?;
                }
                write!(out, "{id}")?;
            }
            out.write_all(b"]")?;
        }
        out.write_all(b"]")
    }
}

/// Shared state every worker sees.
pub struct ServerState {
    /// Named datasets.
    pub registry: DatasetRegistry,
    /// The artifact tier: s-line graphs keyed by
    /// `(dataset, s, algorithm)`.
    pub cache: ArtifactCache<Artifact>,
    /// The metric tier: Stage-5 results keyed by
    /// `(artifact key, metric, metric params)`.
    pub metric_cache: SingleFlightCache<MetricKey, MetricResult>,
    /// Request counters.
    pub metrics: ServerMetrics,
    /// Artifact computations currently running (divides the compute
    /// thread budget so concurrent misses don't oversubscribe cores).
    active_computations: std::sync::atomic::AtomicUsize,
    /// Sandbox root for `POST /datasets?path=` (None = disabled).
    data_root: Option<std::path::PathBuf>,
    pub(crate) started: Instant,
    /// Unix seconds at startup (`/metrics` build info).
    pub(crate) started_unix: u64,
    /// Aggregated pipeline stage spans per dataset, collected from cold
    /// computations (`GET /debug/pipeline`, `/datasets/{d}/stats`).
    pipeline_spans: Mutex<FxHashMap<String, FxHashMap<String, StageAgg>>>,
    /// Structured request log, when enabled.
    access_log: Option<AccessLog>,
    /// Request-ID generator for the access log.
    request_ids: RequestIds,
    /// The drain instant, set once when a drain begins: from then on
    /// the event loop sheds new connections and keep-alive responses
    /// switch to `Connection: close`; at the instant the loop closes
    /// the connections still open.
    drain_at: OnceLock<Instant>,
    /// Wall-clock budget per request (`None` = no deadline).
    request_deadline: Option<Duration>,
    /// Per-route overrides over `request_deadline`.
    route_deadlines: Vec<(Route, Duration)>,
    /// Bound a `POST /admin/drain` without `?deadline_ms=` uses.
    drain_deadline: Duration,
    /// Cumulative head+body read budget per request (slow-loris
    /// defense), enforced by the event loop's `Request` timer.
    pub(crate) head_timeout: Duration,
    /// Write-stall budget (bounded-stall defense): bounds both a
    /// worker's wait for hand-off buffer space and the event loop's
    /// zero-progress window while flushing.
    pub(crate) write_timeout: Duration,
}

impl ServerState {
    /// Drops every cached entry derived from `dataset` — **both tiers**
    /// — and bumps their invalidation generations so in-flight
    /// computations against the replaced data are never cached. Stale
    /// metric results must go even when their artifact survives nowhere;
    /// invalidating only one tier would let the other serve the old
    /// dataset forever.
    pub fn invalidate_dataset(&self, dataset: &str) {
        self.cache.invalidate_dataset(dataset);
        self.metric_cache.invalidate_dataset(dataset);
    }

    /// Folds a collected stage report into `dataset`'s aggregate span
    /// tree. Reports come from cold computations only (cache flights),
    /// so warm traffic never touches this lock.
    fn record_pipeline(&self, dataset: &str, report: &telemetry::StageReport) {
        if report.is_empty() {
            return;
        }
        let mut spans = self.pipeline_spans.lock().unwrap();
        report.merge_into(spans.entry(dataset.to_string()).or_default());
    }

    /// The access log, when enabled (tests flush it).
    pub fn access_log(&self) -> Option<&AccessLog> {
        self.access_log.as_ref()
    }

    /// The deadline budget for one request on `route`: the per-route
    /// override wins, then the global default; `None` when neither is
    /// configured (deadlines disabled).
    fn deadline_budget(&self, route: Route) -> Option<Duration> {
        self.route_deadlines
            .iter()
            .find(|(r, _)| *r == route)
            .map(|&(_, d)| d)
            .or(self.request_deadline)
    }

    /// Begins a drain ending `bound` from now; `false` when a drain had
    /// already begun (its instant stands).
    fn begin_drain(&self, bound: Duration) -> bool {
        self.drain_at.set(Instant::now() + bound).is_ok()
    }

    /// The drain instant, once a drain has begun.
    pub(crate) fn drain_at(&self) -> Option<Instant> {
        self.drain_at.get().copied()
    }

    /// Whether a drain has begun (new connections are shed and
    /// keep-alive connections close after their in-flight response).
    pub fn is_draining(&self) -> bool {
        self.drain_at.get().is_some()
    }

    /// Connections the event loop holds open.
    pub fn live_connections(&self) -> usize {
        let open = self.metrics.event_loop_connections.load(Ordering::Relaxed);
        usize::try_from(open).unwrap_or(0)
    }
}

/// A bound-but-not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServerConfig,
}

impl Server {
    /// Binds the listener and allocates shared state. No thread starts
    /// until [`Server::spawn`], so datasets can be preloaded in between.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        sys::listen_at_max_backlog(&listener)?;
        let access_log = match &config.access_log {
            Some(path) => Some(AccessLog::to_file(path, config.access_log_sample)?),
            None => None,
        };
        let state = Arc::new(ServerState {
            registry: DatasetRegistry::new(),
            cache: ArtifactCache::new(config.cache_mb.saturating_mul(1024 * 1024)),
            // Metric results are far smaller than the artifacts they
            // derive from; a quarter of the artifact budget is generous.
            metric_cache: SingleFlightCache::new(
                (config.cache_mb / 4).max(1).saturating_mul(1024 * 1024),
            ),
            metrics: ServerMetrics::new(),
            active_computations: std::sync::atomic::AtomicUsize::new(0),
            data_root: config.data_root.clone(),
            started: Instant::now(),
            started_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            pipeline_spans: Mutex::new(FxHashMap::default()),
            access_log,
            request_ids: RequestIds::new(),
            drain_at: OnceLock::new(),
            request_deadline: config.request_deadline,
            route_deadlines: config.route_deadlines.clone(),
            drain_deadline: config.drain_deadline,
            head_timeout: config.head_timeout,
            write_timeout: config.write_timeout,
        });
        // Failed computes back off through the negative cache in both
        // tiers — a deterministically failing query is re-answered from
        // its cached error instead of re-running kernels per request.
        state.cache.set_negative_ttl(config.negative_ttl);
        state.metric_cache.set_negative_ttl(config.negative_ttl);
        Ok(Server {
            listener,
            state,
            config,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// The shared state (registry preloading, test assertions).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// The dataset registry.
    pub fn registry(&self) -> &DatasetRegistry {
        &self.state.registry
    }

    /// Resolved worker-thread count.
    pub fn threads(&self) -> usize {
        if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.config.threads
        }
    }

    /// Starts the worker pool and the event-loop thread; returns a
    /// handle that can stop them.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let threads = self.threads();
        let stop = Arc::new(AtomicU32::new(RUN));
        let state = Arc::clone(&self.state);
        let (loop_thread, waker) = spawn_event_loop(
            self.listener,
            Arc::clone(&state),
            threads,
            self.config.queue_depth,
            self.config.read_timeout,
            Arc::clone(&stop),
        );
        ServerHandle {
            addr,
            stop,
            waker,
            loop_thread: Some(loop_thread),
            state,
        }
    }

    /// Serves in the foreground until the process exits (the CLI path).
    pub fn run(self) {
        let handle = self.spawn();
        // The event loop never exits unless shut down; park forever.
        if let Some(loop_thread) = handle.loop_thread {
            let _ = loop_thread.join();
        }
    }
}

/// A running server; dropping it leaks the threads, so call
/// [`ServerHandle::shutdown`] for an orderly stop (tests do).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicU32>,
    waker: Arc<sys::Waker>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (for assertions and metrics scraping).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Gracefully drains, then stops: stop accepting (new connections
    /// are shed with `503` + `Retry-After`), let in-flight connections
    /// finish — keep-alive loops close after their current response —
    /// and at `bound` from now close the stragglers (a drain already
    /// begun by `POST /admin/drain` keeps its own instant). The event
    /// loop stops once every connection is closed, and its pool is torn
    /// down. Returns `(drained, aborted)` connection counts.
    // lint: request-root
    pub fn drain(mut self, bound: Duration) -> (u64, u64) {
        self.state.begin_drain(bound);
        self.stop(STOP_AFTER_DRAIN);
        let metrics = &self.state.metrics;
        (
            metrics.drained_connections.load(Ordering::Relaxed),
            metrics.aborted_connections.load(Ordering::Relaxed),
        )
    }

    /// Stops the event loop (which closes every connection and drains
    /// the worker pool) and joins it.
    pub fn shutdown(mut self) {
        self.stop(STOP_NOW);
    }

    fn stop(&mut self, request: u32) {
        // ordering: publishes all writes before the request (a drain
        // instant included) to the event loop's Acquire load of it.
        self.stop.store(request, Ordering::Release);
        // Interrupt `epoll_wait` so the request is seen immediately.
        self.waker.wake();
        if let Some(loop_thread) = self.loop_thread.take() {
            let _ = loop_thread.join();
        }
    }
}

/// Books a failed response write under the right counter: a deadline
/// abort (`deadline` is the writer's, absent on a 504, which booked at
/// dispatch), a quiet client disconnect, or a stalled socket.
fn classify_write_error(state: &ServerState, error: &std::io::Error, deadline: Option<&Deadline>) {
    use std::io::ErrorKind;
    if deadline.is_some_and(Deadline::expired) {
        state
            .metrics
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        return;
    }
    match error.kind() {
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
            state.metrics.client_aborts.fetch_add(1, Ordering::Relaxed);
        }
        // The hand-off buffer's stall verdict.
        ErrorKind::TimedOut => {
            state.metrics.write_stalls.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
}

/// Serves one parsed request on a worker thread: per-request deadline
/// (fired by the event loop), dispatch through the cache tiers, the 504 override,
/// metrics and access-log accounting, and the response written through
/// the job's bounded hand-off buffer back to the event loop. The
/// connection lifecycle (keep-alive, timeouts, drain awareness) lives
/// in [`crate::event`]; this function ends by reporting `keep_alive`
/// and whether the buffered response should be flushed.
// lint: request-root
pub(crate) fn handle_request(state: &Arc<ServerState>, job: RequestJob, queue_wait: Duration) {
    let request = &job.request;
    let keep_alive = request.keep_alive() && !state.is_draining();
    let resolved = resolve_route(request);
    let route = resolved.unwrap_or(Route::NotFound);
    let deadline = state
        .deadline_budget(route)
        .map(|budget| job.start_deadline(budget));
    let started = Instant::now();
    let (status, body, meta) = dispatch_full(state, request, resolved, deadline.as_ref());
    // A request that outlived its deadline answers 504 even when the
    // handler finished: the result (cached for later requests) missed
    // *this* request's budget.
    let (status, body) = match &deadline {
        Some(d) if d.expired() && status < 500 => {
            (504, Json::obj().set("error", cancel::CANCELLED))
        }
        _ => (status, body),
    };
    if status == 504 {
        state
            .metrics
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
    }
    // Latency is recorded before the body is transmitted: it measures
    // server work, not how fast the client drains a streamed multi-MB
    // edge list.
    let handled = started.elapsed();
    state.metrics.record(route, status, handled);
    // The 504 *is* the deadline's verdict: writing it happens after
    // expiry by definition, so it is exempt — refusing would turn every
    // expiry into a silent close.
    let write_deadline = deadline.as_ref().filter(|_| status != 504);
    let mut out = http::ResponseWriter::new(job.writer(), write_deadline);
    let sent = respond(state, &mut out, request, status, &body, keep_alive);
    if let Some(log) = &state.access_log {
        log.record(&AccessRecord {
            id: state.request_ids.next_id(),
            route: route.name(),
            dataset: meta.dataset,
            s: meta.s,
            status,
            bytes_out: out.bytes(),
            gzip: http::accepts_gzip(request) && body.is_streaming() && request.method != "HEAD",
            cache: meta.cache,
            queue_wait_micros: queue_wait.as_micros() as u64,
            handle_micros: handled.as_micros() as u64,
        });
    }
    match sent {
        // Buffered cleanly: the loop flushes, then keeps or closes.
        Ok(keep) => job.complete(keep, true),
        Err(error) => {
            classify_write_error(state, &error, write_deadline);
            // No flush: delivering a half-written body helps no one,
            // and the loop closing immediately cannot double-book the
            // stall the classification above already counted.
            job.complete(false, false);
        }
    }
}

/// Writes one response through `out`. Bodies without a stream fragment
/// (preformatted text included) and every HEAD answer are fixed-length;
/// streamed bodies go out chunked (HTTP/1.1) or close-delimited
/// (HTTP/1.0), gzip-compressed when the request negotiated it. Generic
/// over the sink so tests run it against byte buffers. Returns whether
/// the connection can serve another request.
fn respond<W: Write>(
    state: &ServerState,
    out: &mut http::ResponseWriter<'_, W>,
    request: &Request,
    status: u16,
    body: &Json,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let head_only = request.method == "HEAD";
    if head_only || !body.is_streaming() {
        // HEAD carries the length the GET body would have, counted for
        // a streamed body without allocating it, and in identity coding
        // (legal whatever Accept-Encoding says): a gzip length would
        // cost a full compression pass with nothing to send.
        let rendered;
        let (content_type, text, length) = match body {
            Json::Text { content_type, body } => (*content_type, body.as_str(), body.len()),
            _ if body.is_streaming() => {
                let mut counter = http::ResponseWriter::new(std::io::sink(), None);
                body.write_into(&mut counter)?;
                counter.finish()?;
                (http::CONTENT_TYPE_JSON, "", counter.bytes() as usize)
            }
            _ => {
                rendered = body.render();
                (http::CONTENT_TYPE_JSON, rendered.as_str(), rendered.len())
            }
        };
        let length = length.to_string();
        out.head(
            status,
            content_type,
            keep_alive,
            &[("content-length", &length)],
        )?;
        if !head_only {
            out.write_all(text.as_bytes())?;
        }
        out.finish()?;
        return Ok(keep_alive);
    }
    let gzip = http::accepts_gzip(request);
    state
        .metrics
        .streamed_responses
        .fetch_add(1, Ordering::Relaxed);
    if gzip {
        state.metrics.gzip_responses.fetch_add(1, Ordering::Relaxed);
    }
    // HTTP/1.0 has no chunked framing: the body is delimited by closing
    // the connection. Transfer-Encoding applies over Content-Encoding:
    // the gzip stream is what gets chunk-framed.
    let keep_alive = keep_alive && !request.http10;
    const GZIP: (&str, &str) = ("content-encoding", "gzip");
    const CHUNKED: (&str, &str) = ("transfer-encoding", "chunked");
    let extra: &[(&str, &str)] = match (gzip, request.http10) {
        (true, false) => &[GZIP, CHUNKED],
        (false, false) => &[CHUNKED],
        (true, true) => &[GZIP],
        (false, true) => &[],
    };
    out.head(status, http::CONTENT_TYPE_JSON, keep_alive, extra)?;
    if gzip {
        let mut gz = GzipWriter::new(&mut *out);
        body.write_into(&mut gz)?;
        // The encoder's own time, not its writes into `out`.
        let (_, spent) = gz.finish_timed()?;
        state.metrics.gzip_encode.record_micros(spent);
    } else {
        body.write_into(out)?;
    }
    out.finish()?;
    Ok(keep_alive)
}

/// What a handled request exposes to the access log beyond its route
/// and status: the dataset and `s` it addressed, and the cache outcome
/// when a cache tier answered it.
#[derive(Debug, Default)]
struct RequestMeta {
    dataset: Option<String>,
    s: Option<u32>,
    cache: Option<&'static str>,
}

/// The wire name of a cache outcome (response bodies, access logs).
fn outcome_name(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Coalesced => "coalesced",
    }
}

/// Routes a request the way [`handle_request`] does and dispatches it,
/// without the access-log metadata (tests).
#[cfg(test)]
fn dispatch(state: &Arc<ServerState>, request: &Request) -> (Route, u16, Json) {
    let resolved = resolve_route(request);
    let (status, body, _) = dispatch_full(state, request, resolved, None);
    (resolved.unwrap_or(Route::NotFound), status, body)
}

/// The route a request addresses, resolved once, before dispatch, so
/// its deadline can be armed first. Each path names its GET and its
/// POST route; HEAD routes as GET. `Err` is the refusal: 405 when the
/// path exists under another method, 404 when no route has it (and
/// under any method but GET at `/`). An unknown `/datasets/{d}/{op}`
/// resolves to [`Route::NotFound`] under GET; its handler answers 404.
fn resolve_route(request: &Request) -> Result<Route, u16> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    let (get, post) = match segments.as_slice() {
        [] if !matches!(method, "GET" | "HEAD") => return Err(404),
        [] => (Some(Route::Index), None),
        ["healthz"] => (Some(Route::Health), None),
        ["metrics"] => (Some(Route::Metrics), None),
        ["debug", "pipeline"] => (Some(Route::DebugPipeline), None),
        ["datasets"] => (Some(Route::ListDatasets), Some(Route::AddDataset)),
        ["query"] => (None, Some(Route::Query)),
        ["admin", "drain"] => (None, Some(Route::AdminDrain)),
        ["datasets", _, op] => (Some(dataset_route(op).unwrap_or(Route::NotFound)), None),
        _ => return Err(404),
    };
    match method {
        "GET" | "HEAD" => get,
        "POST" => post,
        _ => None,
    }
    .ok_or(405)
}

/// Dispatches one request on its [`resolve_route`] result. Returns
/// `(status, body, meta)` — the body as a [`Json`] tree so the response
/// writer can choose the fixed-length or streaming path (and HEAD can
/// count without sending), plus the metadata the access log records.
/// `deadline` is the request's running deadline, if any; compute
/// handlers thread it into the cache tiers so expired requests stop
/// waiting (and cancel abandoned flights).
fn dispatch_full(
    state: &Arc<ServerState>,
    request: &Request,
    resolved: Result<Route, u16>,
    deadline: Option<&Deadline>,
) -> (u16, Json, RequestMeta) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let mut meta = RequestMeta::default();
    let result = match (resolved, segments.as_slice()) {
        (Err(405), _) => {
            // HEAD is GET without the body (suppressed in `respond`).
            let method = match request.method.as_str() {
                "HEAD" => "GET",
                m => m,
            };
            Err((405, format!("method {method} not allowed here")))
        }
        (Ok(Route::Index), _) => handle_index(),
        (Ok(Route::Health), _) => Ok((200, handle_health(state))),
        (Ok(Route::Metrics), _) => match request.query_param("format") {
            None | Some("json") => Ok((200, Readout::new(state).json())),
            Some("prometheus") => Ok((
                200,
                Json::Text {
                    content_type: http::CONTENT_TYPE_PROMETHEUS,
                    body: Readout::new(state).exposition(),
                },
            )),
            Some(other) => Err((400, format!("unknown metrics format {other:?}"))),
        },
        (Ok(Route::DebugPipeline), _) => Ok((200, handle_debug_pipeline(state))),
        (Ok(Route::ListDatasets), _) => Ok((200, handle_list(state))),
        (Ok(Route::AddDataset), _) => handle_add_dataset(state, request),
        (Ok(Route::Query), _) => handle_query(state, request, deadline),
        (Ok(Route::AdminDrain), _) => handle_admin_drain(state, request),
        (Ok(_), ["datasets", name, op]) => {
            handle_dataset_op(state, &request.params(), name, op, &mut meta, deadline)
        }
        _ => Err((404, format!("no such endpoint {}", request.path))),
    };
    match result {
        Ok((status, body)) => (status, body, meta),
        Err((status, message)) => (status, Json::obj().set("error", message), meta),
    }
}

type HandlerResult = Result<(u16, Json), (u16, String)>;

fn handle_index() -> HandlerResult {
    let endpoints = vec![
        Json::from("GET /healthz"),
        Json::from("GET /metrics  (?format=prometheus for text exposition)"),
        Json::from("GET /debug/pipeline"),
        Json::from("GET /datasets"),
        Json::from("POST /datasets?name=&profile=&seed= | ?name=&path="),
        Json::from("POST /query  (body: JSON array of {dataset, op, ...params})"),
        Json::from("GET /datasets/{d}/stats"),
        Json::from("GET /datasets/{d}/slg?s=&algo=&weighted=&limit="),
        Json::from("GET /datasets/{d}/components?s=&limit="),
        Json::from("GET /datasets/{d}/betweenness?s=&top=&samples=&seed="),
        Json::from("GET /datasets/{d}/spectrum?s="),
        Json::from("GET /datasets/{d}/sweep?max_s="),
    ];
    Ok((
        200,
        Json::obj()
            .set("service", "hyperline-server")
            .set("version", env!("CARGO_PKG_VERSION"))
            .set("endpoints", Json::Arr(endpoints)),
    ))
}

/// `POST /admin/drain?deadline_ms=` — begins a graceful drain and
/// answers `202` immediately (waiting here would hold a worker on its
/// own connection); the event loop sheds from its next turn and closes
/// the stragglers at the drain instant. Idempotent: a second call
/// reports the drain already under way and leaves its instant alone.
fn handle_admin_drain(state: &ServerState, request: &Request) -> HandlerResult {
    let deadline_ms: u64 = request
        .query_or("deadline_ms", state.drain_deadline.as_millis() as u64)
        .map_err(|e| (400, e))?;
    let already = !state.begin_drain(Duration::from_millis(deadline_ms));
    Ok((
        202,
        Json::obj()
            .set("draining", true)
            .set("already_draining", already)
            .set("deadline_ms", deadline_ms),
    ))
}

fn handle_health(state: &ServerState) -> Json {
    Json::obj()
        .set("ok", true)
        .set("datasets", state.registry.len())
        .set("uptime_secs", state.started.elapsed().as_secs())
}

fn handle_list(state: &ServerState) -> Json {
    let datasets: Vec<Json> = state
        .registry
        .list()
        .into_iter()
        .map(|(name, d)| {
            let source = match &d.source {
                DatasetSource::File(path) => Json::obj().set("file", path.as_str()),
                DatasetSource::Profile { profile, seed } => Json::obj()
                    .set("profile", profile.as_str())
                    .set("seed", *seed),
                DatasetSource::Inline => Json::obj().set("inline", true),
            };
            Json::obj()
                .set("name", name)
                .set("vertices", d.hypergraph.num_vertices())
                .set("hyperedges", d.hypergraph.num_edges())
                .set("incidences", d.hypergraph.num_incidences())
                .set("source", source)
        })
        .collect();
    Json::obj().set("datasets", Json::Arr(datasets))
}

fn handle_add_dataset(state: &ServerState, request: &Request) -> HandlerResult {
    let name = request.query_param("name");
    let seed: u64 = request.query_or("seed", 42).map_err(|e| (400, e))?;
    let loaded = match (request.query_param("profile"), request.query_param("path")) {
        (Some(profile), None) => state.registry.load_profile(profile, seed, name),
        (None, Some(path)) => {
            let full = resolve_data_path(state, path)?;
            state.registry.load_file(&full, name)
        }
        _ => {
            return Err((
                400,
                "exactly one of ?profile= or ?path= is required".to_string(),
            ))
        }
    };
    let name = loaded.map_err(|e| (400, e))?;
    // A replaced dataset must not serve artifacts *or metrics* of its
    // predecessor; both tiers invalidate together.
    state.invalidate_dataset(&name);
    // The dataset was inserted a moment ago, but a concurrent DELETE may
    // race the re-read; answer 500 rather than panic the worker.
    let Some(d) = state.registry.get(&name) else {
        return Err((500, format!("dataset '{name}' vanished during load")));
    };
    Ok((
        201,
        Json::obj()
            .set("name", name)
            .set("vertices", d.hypergraph.num_vertices())
            .set("hyperedges", d.hypergraph.num_edges()),
    ))
}

/// Resolves a client-supplied `path=` against the configured data root.
/// Paths must be relative, `..`-free, and the feature must be enabled —
/// this is an HTTP-reachable file read, so it never touches anything
/// outside the sandbox (no absolute paths, no traversal, no existence
/// oracle for the rest of the filesystem).
fn resolve_data_path(state: &ServerState, path: &str) -> Result<String, (u16, String)> {
    use std::path::Component;
    let Some(root) = &state.data_root else {
        return Err((
            403,
            "path loading is disabled; start the server with --data-root=DIR".to_string(),
        ));
    };
    let requested = std::path::Path::new(path);
    let traversal = requested
        .components()
        .any(|c| !matches!(c, Component::Normal(_) | Component::CurDir));
    if requested.is_absolute() || traversal {
        return Err((
            403,
            format!("path {path:?} must be relative to the data root, without '..'"),
        ));
    }
    Ok(root.join(requested).to_string_lossy().into_owned())
}

/// Shared parameter parsing for the per-dataset query endpoints.
struct QueryParams {
    s: u32,
    algorithm: AlgoKind,
    weighted: bool,
}

fn parse_query_params(params: &Params<'_>) -> Result<QueryParams, (u16, String)> {
    let s: u32 = params.parse_or("s", 2).map_err(|e| (400, e))?;
    if s == 0 {
        return Err((400, "s must be at least 1".to_string()));
    }
    let algorithm = match params.get("algo") {
        None => AlgoKind::Algo2,
        Some(raw) => {
            AlgoKind::from_name(raw).ok_or_else(|| (400, format!("unknown algorithm {raw:?}")))?
        }
    };
    let weighted = matches!(params.get("weighted"), Some("1" | "true"));
    if weighted && algorithm != AlgoKind::Algo2 {
        return Err((400, "weighted=1 requires algo=algo2".to_string()));
    }
    Ok(QueryParams {
        s,
        algorithm,
        weighted,
    })
}

/// The route of a per-dataset operation name, if it exists.
fn dataset_route(op: &str) -> Option<Route> {
    match op {
        "stats" => Some(Route::Stats),
        "slg" => Some(Route::Slg),
        "components" => Some(Route::Components),
        "betweenness" => Some(Route::Betweenness),
        "spectrum" => Some(Route::Spectrum),
        "sweep" => Some(Route::Sweep),
        _ => None,
    }
}

fn handle_dataset_op(
    state: &ServerState,
    params: &Params<'_>,
    name: &str,
    op: &str,
    meta: &mut RequestMeta,
    deadline: Option<&Deadline>,
) -> HandlerResult {
    let Some(route) = dataset_route(op) else {
        return Err((404, format!("no such dataset operation {op:?}")));
    };
    meta.dataset = Some(name.to_string());
    let Some(dataset) = state.registry.get(name) else {
        return Err((404, format!("no dataset named {name:?}")));
    };
    match route {
        Route::Stats => handle_stats(state, name, &dataset.hypergraph),
        Route::Sweep => handle_sweep(state, params, name, meta, deadline),
        _ => handle_cached_op(state, params, route, name, meta, deadline),
    }
}

/// Maps a cache-tier failure to an HTTP one: a cancellation is the
/// request's own deadline (504); everything else is a compute error.
fn cache_err(message: String) -> (u16, String) {
    if message == cancel::CANCELLED {
        (504, message)
    } else {
        (500, message)
    }
}

/// Runs `f` with the core budget split across the requests currently in
/// a compute-heavy handler: with `C` cores and `N` such requests, each
/// gets `max(1, C / N)` workers. A burst of cache misses or Stage-5
/// metric queries (betweenness runs a parallel kernel per request)
/// degrades to pipelining instead of spawning `N × C` threads.
///
/// Call sites are structured so these sections never nest (a metric
/// flight resolves its artifact *before* entering its own budget
/// section; a batch wraps nothing itself) — nesting would register one
/// request twice and halve its own budget, so keep it that way.
fn with_compute_budget<T>(state: &ServerState, f: impl FnOnce() -> T) -> T {
    struct ActiveGuard<'a>(&'a std::sync::atomic::AtomicUsize);
    impl Drop for ActiveGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let active = state.active_computations.fetch_add(1, Ordering::Relaxed) + 1;
    let _guard = ActiveGuard(&state.active_computations);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hyperline_util::parallel::with_threads((cores / active).max(1), f)
}

fn handle_stats(state: &ServerState, name: &str, h: &Hypergraph) -> HandlerResult {
    let pipeline = {
        let spans = state.pipeline_spans.lock().unwrap();
        spans.get(name).map(stage_tree).unwrap_or_else(Json::obj)
    };
    Ok((
        200,
        Json::obj()
            .set("dataset", name)
            .set("vertices", h.num_vertices())
            .set("hyperedges", h.num_edges())
            .set("incidences", h.num_incidences())
            .set("mean_vertex_degree", h.mean_vertex_degree())
            .set("mean_edge_size", h.mean_edge_size())
            .set("max_vertex_degree", h.max_vertex_degree())
            .set("max_edge_size", h.max_edge_size())
            // Aggregated cold-computation stage spans — empty until the
            // first cache miss computes something for this dataset.
            .set("pipeline", pipeline),
    ))
}

/// Renders one dataset's aggregated stage spans: stage path →
/// `{count, total_micros, max_micros}`, paths sorted so nested stages
/// (`counting/worker`) print under their parents.
fn stage_tree(stages: &FxHashMap<String, StageAgg>) -> Json {
    let mut paths: Vec<&String> = stages.keys().collect();
    paths.sort_unstable();
    let mut tree = Json::obj();
    for path in paths {
        let agg = &stages[path];
        tree = tree.set(
            path.as_str(),
            Json::obj()
                .set("count", agg.count)
                .set("total_micros", agg.total_nanos / 1_000)
                .set("max_micros", agg.max_nanos / 1_000),
        );
    }
    tree
}

/// `GET /debug/pipeline` — every dataset's aggregated stage spans.
fn handle_debug_pipeline(state: &ServerState) -> Json {
    let spans = state.pipeline_spans.lock().unwrap();
    let mut names: Vec<&String> = spans.keys().collect();
    names.sort_unstable();
    let mut datasets = Json::obj();
    for name in names {
        datasets = datasets.set(name.as_str(), stage_tree(&spans[name]));
    }
    Json::obj().set("datasets", datasets)
}

/// Resolves `key` through the artifact tier. A miss on an Algorithm-2
/// key derives from the cached Algorithm-2 artifact with the largest
/// `s0 ≤ s` when one exists, and counts otherwise.
fn get_artifact(
    state: &ServerState,
    key: &CacheKey,
    deadline: Option<&Deadline>,
) -> Result<(Arc<Artifact>, CacheOutcome), (u16, String)> {
    state
        .cache
        .get_or_compute_cancellable(key, deadline, || {
            // Stage spans are collected on cold computations only —
            // the flight owner pays a thread-local context, warm
            // traffic pays nothing.
            let (result, report) = telemetry::collect(|| {
                // A derive source is fenced like the hypergraph below:
                // an invalidation removes every source of the dataset,
                // and one landing after the flight started blocks
                // caching the derived value.
                if let Some(derived) = derive_from_cache(state, key) {
                    return Ok(derived.sized());
                }
                // The hypergraph is re-fetched *inside* the flight: a
                // replacement racing an earlier lookup would otherwise
                // slip past the cache's generation check and pin a
                // stale artifact. Any invalidation after this point
                // bumps the generation the flight observed, which
                // blocks caching.
                let h = state
                    .registry
                    .get(&key.dataset)
                    .ok_or_else(|| format!("dataset {:?} was removed", key.dataset))?
                    .hypergraph;
                with_compute_budget(state, || compute_artifact(&h, key))
            });
            state.record_pipeline(&key.dataset, &report);
            result
        })
        .map_err(cache_err)
}

/// Filters `key`'s artifact from the cached Algorithm-2 artifact with
/// the largest `s0 ≤ key.s` (see [`derive_artifact`]), under a `derive`
/// span; `None` when no such artifact is resident.
fn derive_from_cache(state: &ServerState, key: &CacheKey) -> Option<Artifact> {
    if key.algorithm != AlgoKind::Algo2 {
        return None;
    }
    let source = state.cache.lookup_floor(key)?;
    let overlaps = source.overlaps.as_deref()?;
    let _derive = Span::enter("derive");
    Some(with_compute_budget(state, || {
        derive_artifact(&source.slg, overlaps, key.s)
    }))
}

/// `GET /datasets/{d}/sweep?max_s=` — `|E(L_s)|` for `s = 1..=max_s`,
/// answered from the metric tier. Its flight resolves `L₁` through the
/// artifact tier (counted once, then resident) and counts the overlaps
/// reaching each `s` in one pass over `L₁`'s: every `L_s` edge is an
/// `L₁` edge whose overlap is at least `s`. No other `L_s` is built.
fn handle_sweep(
    state: &ServerState,
    params: &Params<'_>,
    name: &str,
    meta: &mut RequestMeta,
    deadline: Option<&Deadline>,
) -> HandlerResult {
    let max_s: u32 = params.parse_or("max_s", 16).map_err(|e| (400, e))?;
    if !(1..=4096).contains(&max_s) {
        return Err((400, "max_s must be in 1..=4096".to_string()));
    }
    let metric_key = MetricKey {
        artifact: sweep_pseudo_key(name),
        metric: MetricKind::Sweep { max_s },
    };
    let (result, outcome) = state
        .metric_cache
        .get_or_compute_cancellable(&metric_key, deadline, || {
            // Resolved inside the metric flight for the same fencing as
            // the Stage-5 metrics (see `handle_cached_op`).
            let (l1, _) = get_artifact(state, &artifact_key(name, 1, AlgoKind::Algo2), deadline)
                .map_err(|(_, message)| message)?;
            let overlaps = l1
                .overlaps
                .as_deref()
                .ok_or_else(|| "Algorithm-2 artifact carries no overlaps".to_string())?;
            let s_values: Vec<u32> = (1..=max_s).collect();
            let result = MetricResult::Sweep(edge_counts_from_overlaps(
                overlaps.iter().copied(),
                &s_values,
            ));
            let bytes = result.approx_bytes();
            Ok((result, bytes))
        })
        .map_err(cache_err)?;
    meta.cache = Some(outcome_name(outcome));
    debug_assert!(matches!(&*result, MetricResult::Sweep(_)));
    Ok((
        200,
        Json::obj()
            .set("dataset", name)
            .set("max_s", max_s)
            .set("counts", Json::Stream(Arc::new(SweepRows { result }))),
    ))
}

/// The artifact-tier key of `L_s` on `name` built by `algorithm`. The
/// server builds every artifact key here, always with `weighted: false`
/// (the row shape is a render parameter).
fn artifact_key(name: &str, s: u32, algorithm: AlgoKind) -> CacheKey {
    CacheKey {
        dataset: name.to_string(),
        s,
        algorithm,
        weighted: false,
    }
}

/// The artifact slot of a whole-sweep metric entry (`s = 0` is not a
/// valid query, so it cannot collide with a real artifact key).
fn sweep_pseudo_key(name: &str) -> CacheKey {
    artifact_key(name, 0, AlgoKind::Algo2)
}

/// The per-dataset query endpoints answered from the cache tiers:
/// `/slg` from the artifact tier, the Stage-5 metrics (components,
/// betweenness, spectrum) from the metric tier layered over it.
fn handle_cached_op(
    state: &ServerState,
    params: &Params<'_>,
    route: Route,
    name: &str,
    meta: &mut RequestMeta,
    deadline: Option<&Deadline>,
) -> HandlerResult {
    let query = parse_query_params(params)?;
    meta.s = Some(query.s);
    let key = artifact_key(name, query.s, query.algorithm);
    let base = Json::obj()
        .set("dataset", name)
        .set("s", query.s)
        .set("algorithm", query.algorithm.name());

    if route == Route::Slg {
        // Validate render-time params before resolving the artifact: a
        // doomed request must 400 without running the construction.
        let limit: usize = params.parse_or("limit", 100_000).map_err(|e| (400, e))?;
        let (artifact, outcome) = get_artifact(state, &key, deadline)?;
        let slg = &artifact.slg;
        // `weighted=1` requires Algorithm 2, whose artifacts always carry
        // overlaps; a missing one would mean a build bug serving the
        // wrong row shape, so fail loudly instead of answering 200.
        if query.weighted && artifact.overlaps.is_none() {
            return Err((500, "cached artifact carries no overlaps".to_string()));
        }
        meta.cache = Some(outcome_name(outcome));
        return Ok((
            200,
            base.set("cache", outcome_name(outcome))
                .set("num_vertices", slg.num_vertices())
                .set("num_edges", slg.num_edges())
                .set("truncated", slg.num_edges() > limit)
                // The edge list streams from the cached artifact at write
                // time — the response never materializes a body-sized
                // buffer, which is what keeps a `?limit=`-less full edge
                // list O(1) in memory.
                .set(
                    "edges",
                    Json::Stream(Arc::new(EdgeRows {
                        artifact,
                        limit,
                        weighted: query.weighted,
                    })),
                ),
        ));
    }

    // Stage-5 metric routes: resolved through the metric tier. The
    // response body deliberately carries no per-request cache-outcome
    // field — repeated identical requests must be **byte-identical**
    // (outcomes are visible in `/metrics` per tier). Render-time
    // parameters (`top`, `limit`) are validated before the compute so a
    // doomed request answers 400 without running a Stage-5 kernel.
    let metric = match route {
        Route::Components => {
            params
                .parse_or::<usize>("limit", 1_000)
                .map_err(|e| (400, e))?;
            MetricKind::Components
        }
        Route::Betweenness => {
            params.parse_or::<usize>("top", 10).map_err(|e| (400, e))?;
            let samples: u32 = params.parse_or("samples", 0).map_err(|e| (400, e))?;
            let seed: u64 = params.parse_or("seed", 42).map_err(|e| (400, e))?;
            // Normalize the key so equivalent requests share one entry:
            // the sampler clamps its source count to the line graph's
            // vertex count n, and n ≤ the dataset's hyperedge count m —
            // so any samples ≥ m computes the same ranking as samples=m
            // (n itself is unknown until the artifact is built, so m is
            // the tightest cheap bound). The seed only affects sampling;
            // pinning it for the exact variant keeps `?seed=7` and
            // `?seed=42` from computing identical rankings twice.
            let num_hyperedges = state
                .registry
                .get(name)
                .map(|d| d.hypergraph.num_edges())
                .unwrap_or(usize::MAX);
            let samples = samples.min(u32::try_from(num_hyperedges).unwrap_or(u32::MAX));
            MetricKind::Betweenness {
                samples,
                seed: if samples == 0 { 0 } else { seed },
            }
        }
        Route::Spectrum => MetricKind::Spectrum,
        _ => unreachable!("handle_cached_op only serves cached routes"),
    };
    let metric_key = MetricKey {
        artifact: key.clone(),
        metric,
    };
    let (result, outcome) = state
        .metric_cache
        .get_or_compute_cancellable(&metric_key, deadline, || {
            // Resolving the artifact *inside* the metric flight re-runs
            // the registry fetch under the artifact tier's generation
            // fence; the metric tier's own fence (bumped by the same
            // invalidation) then blocks caching a result computed from a
            // replaced dataset. The deadline attaches to the nested
            // artifact flight too — both interests release at expiry.
            let (artifact, _) =
                get_artifact(state, &key, deadline).map_err(|(_, message)| message)?;
            let (result, report) = telemetry::collect(|| {
                let _stage5 = Span::enter("stage5");
                with_compute_budget(state, || compute_metric(&artifact.slg, metric))
            });
            state.record_pipeline(name, &report);
            let bytes = result.approx_bytes();
            Ok((result, bytes))
        })
        .map_err(cache_err)?;
    meta.cache = Some(outcome_name(outcome));
    render_metric(base, params, &result)
}

/// Runs one Stage-5 kernel (the expensive, cache-once part).
fn compute_metric(slg: &SLineGraph, metric: MetricKind) -> MetricResult {
    match metric {
        MetricKind::Components => MetricResult::Components(slg.connected_components()),
        MetricKind::Betweenness { samples, seed } => MetricResult::Betweenness(if samples == 0 {
            slg.betweenness()
        } else {
            slg.betweenness_sampled(samples as usize, seed)
        }),
        MetricKind::Spectrum => {
            let lambda2 = slg.lambda2();
            MetricResult::Spectrum {
                num_vertices: slg.num_vertices(),
                num_edges: slg.num_edges(),
                diameter: slg.s_diameter(),
                algebraic_connectivity: lambda2.value,
                algebraic_connectivity_converged: lambda2.converged,
            }
        }
        MetricKind::Sweep { .. } => unreachable!("sweep counts in handle_sweep"),
    }
}

/// Renders a cached metric result with this request's render-time
/// parameters (`limit`, `top`). Takes the `Arc` so potentially large
/// results (component lists) stream from the cached value instead of
/// being rendered into the response tree.
fn render_metric(base: Json, params: &Params<'_>, result: &Arc<MetricResult>) -> HandlerResult {
    match &**result {
        MetricResult::Components(components) => {
            let limit: usize = params.parse_or("limit", 1_000).map_err(|e| (400, e))?;
            let total = components.len();
            Ok((
                200,
                base.set("count", total)
                    .set("truncated", total > limit)
                    .set(
                        "components",
                        Json::Stream(Arc::new(ComponentRows {
                            result: Arc::clone(result),
                            limit,
                        })),
                    ),
            ))
        }
        MetricResult::Betweenness(ranking) => {
            let top: usize = params.parse_or("top", 10).map_err(|e| (400, e))?;
            let rows: Vec<Json> = ranking
                .iter()
                .take(top)
                .map(|&(edge, score)| Json::obj().set("edge", edge).set("score", score))
                .collect();
            Ok((200, base.set("top", top).set("ranking", Json::Arr(rows))))
        }
        MetricResult::Spectrum {
            num_vertices,
            num_edges,
            diameter,
            algebraic_connectivity,
            algebraic_connectivity_converged,
        } => Ok((
            200,
            base.set("num_vertices", *num_vertices)
                .set("num_edges", *num_edges)
                .set("diameter", *diameter)
                .set("algebraic_connectivity", *algebraic_connectivity)
                .set(
                    "algebraic_connectivity_converged",
                    *algebraic_connectivity_converged,
                ),
        )),
        MetricResult::Sweep(_) => unreachable!("sweep renders in handle_sweep"),
    }
}

/// Maximum number of sub-queries one `POST /query` batch may carry.
const MAX_BATCH_QUERIES: usize = 64;

/// `POST /query` — a JSON array of sub-queries answered in one
/// round-trip. Each sub-query is an object with `dataset` and `op`
/// (any per-dataset operation: `stats`, `slg`, `components`,
/// `betweenness`, `spectrum`, `sweep`) plus that operation's usual
/// query parameters as scalar fields. Items run sequentially, so the
/// batch never holds more than one compute-budget slot — a 64-item
/// batch competes for cores like one request, not 64 — and failures are
/// reported per item, so one bad sub-query does not void the rest.
fn handle_query(
    state: &ServerState,
    request: &Request,
    deadline: Option<&Deadline>,
) -> HandlerResult {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| (400, "request body is not UTF-8".to_string()))?;
    if text.trim().is_empty() {
        return Err((
            400,
            "request body must be a JSON array of sub-queries".to_string(),
        ));
    }
    let parsed = Json::parse(text).map_err(|e| (400, format!("invalid JSON body: {e}")))?;
    let items = parsed.as_array().ok_or_else(|| {
        (
            400,
            "request body must be a JSON array of sub-queries".to_string(),
        )
    })?;
    if items.is_empty() {
        return Err((400, "batch needs at least one sub-query".to_string()));
    }
    if items.len() > MAX_BATCH_QUERIES {
        return Err((
            400,
            format!("batch exceeds {MAX_BATCH_QUERIES} sub-queries"),
        ));
    }
    // Items run sequentially, so the batch occupies at most one
    // compute-budget slot at a time — each sub-query's own kernels
    // register exactly like the equivalent GET would. No outer budget
    // wrapper: it would pin a slot even while the batch is merely
    // waiting on another request's flight or rendering cache hits,
    // shrinking every concurrent request's budget for no compute.
    let results: Vec<Json> = items
        .iter()
        .map(|item| match answer_sub_query(state, item, deadline) {
            Ok((_, body)) => body,
            Err((status, message)) => {
                // Tag failures with whatever identifies the item, so
                // mixed success/failure batches stay correlatable.
                let mut failure = Json::obj().set("status", status).set("error", message);
                if let Some(dataset) = item.get("dataset").and_then(Json::as_str) {
                    failure = failure.set("dataset", dataset);
                }
                if let Some(op) = item.get("op").and_then(Json::as_str) {
                    failure = failure.set("op", op);
                }
                failure
            }
        })
        .collect();
    Ok((
        200,
        Json::obj()
            .set("count", results.len())
            .set("results", Json::Arr(results)),
    ))
}

/// Answers one sub-query of a batch by converting its scalar fields to
/// the common parameter form and reusing the per-dataset handlers — a
/// batch item produces the same body as the equivalent GET, plus an
/// `op` tag so callers can correlate items.
fn answer_sub_query(
    state: &ServerState,
    item: &Json,
    deadline: Option<&Deadline>,
) -> HandlerResult {
    let Some(fields) = item.entries() else {
        return Err((400, "sub-query must be a JSON object".to_string()));
    };
    let dataset = item.get("dataset").and_then(Json::as_str).ok_or_else(|| {
        (
            400,
            "sub-query needs a string \"dataset\" field".to_string(),
        )
    })?;
    let op = item
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| (400, "sub-query needs a string \"op\" field".to_string()))?;
    let mut pairs: Vec<(String, String)> = Vec::with_capacity(fields.len());
    for (key, value) in fields {
        if key == "dataset" || key == "op" {
            continue;
        }
        let rendered = match value {
            Json::Str(s) => s.clone(),
            Json::Int(i) => i.to_string(),
            Json::Float(x) => format!("{x}"),
            Json::Bool(b) => b.to_string(),
            Json::Null => continue, // explicit null = absent
            _ => return Err((400, format!("sub-query field {key:?} must be a scalar"))),
        };
        pairs.push((key.clone(), rendered));
    }
    // Batch items share the batch's access-log line; per-item metadata
    // is discarded.
    let mut meta = RequestMeta::default();
    let result = handle_dataset_op(state, &Params(&pairs), dataset, op, &mut meta, deadline);
    // Tag the body with the op so batch callers can correlate items.
    result.map(|(status, body)| (status, body.set("op", op)))
}

/// Builds the artifact for `key` from the hypergraph (runs outside the
/// cache lock; the single-flight layer guarantees one concurrent builder
/// per key).
///
/// Algorithm 2 counts once with [`algo2_slinegraph_weighted`] and splits
/// its triples into edges and overlaps. The triples come back with
/// `i < j` and strictly ascending, the order of the unweighted edge
/// list, so they need no re-normalization or re-sort.
fn compute_artifact(h: &Hypergraph, key: &CacheKey) -> Result<(Artifact, usize), String> {
    let strategy = Strategy::default();
    let (edges, overlaps) = match key.algorithm {
        AlgoKind::Algo2 => {
            let (triples, _stats) = algo2_slinegraph_weighted(h, key.s, &strategy);
            let (edges, overlaps) = triples.into_iter().map(|(i, j, n)| ((i, j), n)).unzip();
            (edges, Some(overlaps))
        }
        AlgoKind::Algo1 => (algo1_slinegraph(h, key.s, &strategy).edges, None),
        AlgoKind::Naive => (naive_slinegraph(h, key.s, &strategy).edges, None),
        AlgoKind::Spgemm => (spgemm_slinegraph(h, key.s, true).edges, None),
    };
    let slg = SLineGraph::new_squeezed(key.s, h.num_edges(), edges);
    Ok(Artifact { slg, overlaps }.sized())
}

/// The Algorithm-2 artifact at `s`, derived from one built at `s0 ≤ s`
/// (its line graph and overlaps) by keeping the edges whose overlap
/// reaches `s`, with their overlaps. Needs no hypergraph, and equals a
/// direct count at `s`:
///
/// * degree pruning at `s0` skipped only source hyperedges smaller than
///   `s0 ≤ s`, and no edge of `L_s` touches one;
/// * every other pair's count is exact;
/// * filtering a sorted list keeps its order, so the edges, the squeezed
///   IDs and the CSR come out as a direct build's.
fn derive_artifact(source: &SLineGraph, overlaps: &[u32], s: u32) -> Artifact {
    let (edges, overlaps): (Vec<(u32, u32)>, Vec<u32>) = source
        .edges
        .iter()
        .zip(overlaps)
        .filter(|&(_, &n)| n >= s)
        .unzip();
    let slg = SLineGraph::new_squeezed(s, source.num_hyperedges, edges);
    Artifact {
        slg,
        overlaps: Some(overlaps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server() -> Server {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            cache_mb: 16,
            queue_depth: 16,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        })
        .unwrap();
        server
            .registry()
            .insert("paper", Hypergraph::paper_example(), DatasetSource::Inline);
        server
    }

    fn request(path: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), http::parse_query(q).unwrap()),
            None => (path.to_string(), Vec::new()),
        };
        Request {
            method: "GET".to_string(),
            path,
            query,
            headers: Vec::new(),
            body: Vec::new(),
            http10: false,
        }
    }

    /// Dispatches and renders the body — most tests assert on the
    /// rendered text regardless of whether the tree streams.
    fn dispatch_text(state: &Arc<ServerState>, request: &Request) -> (Route, u16, String) {
        let (route, status, body) = dispatch(state, request);
        (route, status, body.render())
    }

    #[test]
    fn dispatch_routes_and_statuses() {
        let server = test_server();
        let state = server.state();
        let (_, status, body) = dispatch_text(state, &request("/datasets/paper/slg?s=2"));
        assert_eq!(status, 200);
        assert!(body.contains("\"cache\":\"miss\""), "{body}");
        let (_, status, body) = dispatch_text(state, &request("/datasets/paper/slg?s=2"));
        assert_eq!(status, 200);
        assert!(body.contains("\"cache\":\"hit\""), "{body}");

        use Route::*;
        const WRONG: (Route, u16) = (NotFound, 405);
        const MISSING: (Route, u16) = (NotFound, 404);
        // (route, status) under GET, HEAD, POST and DELETE. HEAD routes
        // as GET; a path that exists under another method is 405 (but
        // `/` is 404), any other is 404. `POST /admin/drain` comes last:
        // it begins a drain.
        let get = |route, status| [(route, status), (route, status), WRONG, WRONG];
        let both = [
            (ListDatasets, 200),
            (ListDatasets, 200),
            (AddDataset, 400),
            WRONG,
        ];
        let table = [
            ("/", [(Index, 200), (Index, 200), MISSING, MISSING]),
            ("/healthz", get(Health, 200)),
            ("/metrics", get(Metrics, 200)),
            ("/metrics?format=xml", get(Metrics, 400)),
            ("/debug/pipeline", get(DebugPipeline, 200)),
            ("/datasets", both),
            ("/datasets/paper/stats", get(Stats, 200)),
            ("/datasets/paper/slg?s=3", get(Slg, 200)),
            ("/datasets/paper/components?s=2", get(Components, 200)),
            ("/datasets/paper/betweenness?s=2", get(Betweenness, 200)),
            ("/datasets/paper/spectrum?s=2", get(Spectrum, 200)),
            ("/datasets/paper/sweep", get(Sweep, 200)),
            ("/datasets/missing/slg", get(Slg, 404)),
            ("/datasets/paper/bogus", get(NotFound, 404)),
            ("/datasets/paper", [MISSING; 4]),
            ("/nope", [MISSING; 4]),
            ("/query", [WRONG, WRONG, (Query, 400), WRONG]),
            ("/admin/drain", [WRONG, WRONG, (AdminDrain, 202), WRONG]),
        ];
        for (path, expected) in table {
            for (method, want) in ["GET", "HEAD", "POST", "DELETE"].into_iter().zip(expected) {
                let mut req = request(path);
                req.method = method.to_string();
                let (route, status, body) = dispatch_text(state, &req);
                assert_eq!((route, status), want, "{method} {path}: {body}");
            }
        }
        // The refusals keep their bodies; HEAD is named GET in a 405.
        let mut req = request("/query");
        req.method = "HEAD".to_string();
        let (_, _, body) = dispatch_text(state, &req);
        assert_eq!(body, r#"{"error":"method GET not allowed here"}"#);
        let (_, _, body) = dispatch_text(state, &request("/nope"));
        assert_eq!(body, r#"{"error":"no such endpoint /nope"}"#);
        let (_, _, body) = dispatch_text(state, &request("/datasets/paper/bogus"));
        assert_eq!(body, r#"{"error":"no such dataset operation \"bogus\""}"#);
    }

    #[test]
    fn slg_body_contains_paper_triangle() {
        let server = test_server();
        let (_, status, body) = dispatch_text(server.state(), &request("/datasets/paper/slg?s=2"));
        assert_eq!(status, 200);
        assert!(body.contains("\"edges\":[[0,1],[0,2],[1,2]]"), "{body}");
        assert!(body.contains("\"num_edges\":3"));
    }

    #[test]
    fn weighted_slg_reports_overlaps() {
        let server = test_server();
        let (_, status, body) = dispatch_text(
            server.state(),
            &request("/datasets/paper/slg?s=2&weighted=1"),
        );
        assert_eq!(status, 200);
        // inc(0,1)=2, inc(0,2)=3, inc(1,2)=3 on the paper example.
        assert!(
            body.contains("\"edges\":[[0,1,2],[0,2,3],[1,2,3]]"),
            "{body}"
        );
    }

    #[test]
    fn derived_artifacts_equal_direct_counts() {
        // Every pair s0 <= s up to one past the largest overlap: the
        // artifact filtered from the one counted at s0 must equal the
        // one counted at s, down to the squeezed IDs and the CSR.
        let model = hyperline_gen::UniformModel {
            num_vertices: 40,
            num_edges: 60,
            edge_size_min: 1,
            edge_size_max: 12,
            edge_size_exponent: 0.5,
        };
        let key = |s| artifact_key("random", s, AlgoKind::Algo2);
        for seed in 1..=4 {
            let h = model.generate(seed);
            let (l1, _) = compute_artifact(&h, &key(1)).unwrap();
            let s_high = l1.overlaps.as_ref().unwrap().iter().max().unwrap() + 1;
            assert!(s_high > 2, "seed {seed}: overlaps too small to test");
            let direct: Vec<Artifact> = (1..=s_high)
                .map(|s| compute_artifact(&h, &key(s)).unwrap().0)
                .collect();
            assert!(direct[(s_high - 1) as usize].slg.edges.is_empty());
            for s0 in 1..=s_high {
                let source = &direct[(s0 - 1) as usize];
                let overlaps = source.overlaps.as_deref().unwrap();
                for s in s0..=s_high {
                    let derived = derive_artifact(&source.slg, overlaps, s);
                    let counted = &direct[(s - 1) as usize];
                    let at = format!("seed {seed}, s0 {s0}, s {s}");
                    assert_eq!(derived.slg.s, s, "{at}");
                    assert_eq!(derived.slg.num_hyperedges, h.num_edges(), "{at}");
                    assert_eq!(derived.slg.edges, counted.slg.edges, "{at}");
                    assert_eq!(derived.overlaps, counted.overlaps, "{at}");
                    let n = derived.slg.num_vertices();
                    assert_eq!(n, counted.slg.num_vertices(), "{at}");
                    for v in 0..n as u32 {
                        assert_eq!(
                            derived.slg.original_id(v),
                            counted.slg.original_id(v),
                            "{at}"
                        );
                    }
                    assert_eq!(derived.slg.graph(), counted.slg.graph(), "{at}");
                    let weights = derived.overlaps.as_deref().unwrap();
                    for (&(i, j), &w) in derived.slg.edges.iter().zip(weights) {
                        assert_eq!(w as usize, h.inc(i, j), "{at}: ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn bad_parameters_answer_400() {
        let server = test_server();
        let state = server.state();
        for path in [
            "/datasets/paper/slg?s=0",
            "/datasets/paper/slg?s=banana",
            "/datasets/paper/slg?algo=quantum",
            "/datasets/paper/slg?weighted=1&algo=naive",
            "/datasets/paper/sweep?max_s=0",
        ] {
            let (_, status, _) = dispatch_text(state, &request(path));
            assert_eq!(status, 400, "{path}");
        }
    }

    #[test]
    fn components_betweenness_spectrum_sweep() {
        let server = test_server();
        let state = server.state();
        let (_, status, body) = dispatch_text(state, &request("/datasets/paper/components?s=2"));
        assert_eq!(status, 200);
        assert!(body.contains("\"count\":1"));
        assert!(body.contains("[0,1,2]"));
        let (_, status, body) =
            dispatch_text(state, &request("/datasets/paper/betweenness?s=2&top=2"));
        assert_eq!(status, 200);
        assert!(body.contains("\"ranking\""));
        let (_, status, body) = dispatch_text(state, &request("/datasets/paper/spectrum?s=2"));
        assert_eq!(status, 200);
        assert!(body.contains("\"algebraic_connectivity\""));
        assert!(
            body.contains("\"algebraic_connectivity_converged\":true"),
            "{body}"
        );
        let (_, status, body) = dispatch_text(state, &request("/datasets/paper/sweep?max_s=4"));
        assert_eq!(status, 200);
        assert!(
            body.contains("\"counts\":[[1,4],[2,3],[3,2],[4,0]]"),
            "{body}"
        );
    }

    #[test]
    fn path_loading_is_sandboxed() {
        // Disabled without a data root.
        let server = test_server();
        let mut req = request("/datasets?path=somefile.hgr");
        req.method = "POST".to_string();
        let (_, status, body) = dispatch_text(server.state(), &req);
        assert_eq!(status, 403, "{body}");
        assert!(body.contains("data-root"), "{body}");

        // With a data root: relative paths inside it load; absolute and
        // traversing paths are rejected without touching the filesystem.
        let dir = std::env::temp_dir().join("hyperline-server-data-root");
        std::fs::create_dir_all(&dir).unwrap();
        hyperline_hypergraph::io::save_edge_list(
            &Hypergraph::paper_example(),
            dir.join("inside.hgr"),
        )
        .unwrap();
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_root: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let state = server.state();
        let mut req = request("/datasets?path=inside.hgr");
        req.method = "POST".to_string();
        let (_, status, body) = dispatch_text(state, &req);
        assert_eq!(status, 201, "{body}");
        assert!(state.registry.get("inside").is_some());
        for bad in [
            "/datasets?path=/etc/passwd",
            "/datasets?path=../outside.hgr",
            "/datasets?path=ok/../../outside.hgr",
        ] {
            let mut req = request(bad);
            req.method = "POST".to_string();
            let (_, status, _) = dispatch_text(state, &req);
            assert_eq!(status, 403, "{bad}");
        }
        std::fs::remove_file(dir.join("inside.hgr")).ok();
    }

    #[test]
    fn post_datasets_loads_profiles() {
        let server = test_server();
        let state = server.state();
        let mut req = request("/datasets?profile=lesMis&seed=7");
        req.method = "POST".to_string();
        let (route, status, body) = dispatch_text(state, &req);
        assert_eq!((route, status), (Route::AddDataset, 201));
        assert!(body.contains("\"name\":\"lesMis\""));
        assert!(state.registry.get("lesMis").is_some());
        // Missing source → 400.
        let mut req = request("/datasets?name=x");
        req.method = "POST".to_string();
        let (_, status, _) = dispatch_text(state, &req);
        assert_eq!(status, 400);
    }

    #[test]
    fn empty_query_values_fall_back_to_defaults() {
        let server = test_server();
        let state = server.state();
        // `?s=` previously failed u32 parsing with a confusing 400; it
        // must behave exactly like an absent parameter.
        let (_, status, body) = dispatch_text(state, &request("/datasets/paper/slg?s="));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"s\":2"), "{body}");
        let (_, status, _) =
            dispatch_text(state, &request("/datasets/paper/slg?s=&algo=&weighted="));
        assert_eq!(status, 200);
        let (_, status, body) = dispatch_text(state, &request("/datasets/paper/sweep?max_s="));
        assert_eq!(status, 200, "{body}");
    }

    #[test]
    fn metric_tier_serves_stage5_results_byte_identically() {
        let server = test_server();
        let state = server.state();
        for path in [
            "/datasets/paper/betweenness?s=2&top=3",
            "/datasets/paper/components?s=2",
            "/datasets/paper/spectrum?s=2",
        ] {
            let (_, status, first) = dispatch_text(state, &request(path));
            assert_eq!(status, 200, "{path}");
            let (_, status, second) = dispatch_text(state, &request(path));
            assert_eq!(status, 200, "{path}");
            assert_eq!(first, second, "{path}: repeated response diverged");
        }
        let stats = state.metric_cache.stats();
        assert_eq!((stats.misses, stats.hits), (3, 3));
        // A different render-time `top` shares the cached ranking: hits
        // grow, misses do not.
        let (_, status, body) =
            dispatch_text(state, &request("/datasets/paper/betweenness?s=2&top=1"));
        assert_eq!(status, 200);
        assert!(body.contains("\"top\":1"), "{body}");
        let stats = state.metric_cache.stats();
        assert_eq!((stats.misses, stats.hits), (3, 4));
        // Different compute-time params (sampled betweenness) are a
        // distinct metric entry.
        let (_, status, _) =
            dispatch_text(state, &request("/datasets/paper/betweenness?s=2&samples=2"));
        assert_eq!(status, 200);
        assert_eq!(state.metric_cache.stats().misses, 4);
        // But an exact request never reads the seed, so `?seed=` does
        // not mint a duplicate exact entry...
        let (_, status, _) =
            dispatch_text(state, &request("/datasets/paper/betweenness?s=2&seed=7"));
        assert_eq!(status, 200);
        assert_eq!(state.metric_cache.stats().misses, 4);
        // ...while for sampled requests the seed is part of the key.
        let (_, status, _) = dispatch_text(
            state,
            &request("/datasets/paper/betweenness?s=2&samples=2&seed=7"),
        );
        assert_eq!(status, 200);
        assert_eq!(state.metric_cache.stats().misses, 5);
        // Oversized sample counts normalize to the hyperedge count
        // (m = 4 on the paper example), so equivalent oversampled
        // requests share one entry instead of re-running the kernel.
        let (_, status, _) = dispatch_text(
            state,
            &request("/datasets/paper/betweenness?s=2&samples=100"),
        );
        assert_eq!(status, 200);
        assert_eq!(state.metric_cache.stats().misses, 6);
        let (_, status, _) = dispatch_text(
            state,
            &request("/datasets/paper/betweenness?s=2&samples=4000"),
        );
        assert_eq!(status, 200);
        assert_eq!(
            state.metric_cache.stats().misses,
            6,
            "duplicate entry minted"
        );
    }

    #[test]
    fn bad_render_params_answer_400_without_computing() {
        let server = test_server();
        let state = server.state();
        for path in [
            "/datasets/paper/betweenness?s=2&top=abc",
            "/datasets/paper/components?s=2&limit=abc",
            "/datasets/paper/slg?s=2&limit=abc",
        ] {
            let (_, status, _) = dispatch_text(state, &request(path));
            assert_eq!(status, 400, "{path}");
        }
        // The doomed requests must not have run (or cached) a kernel.
        let stats = state.metric_cache.stats();
        assert_eq!((stats.misses, stats.entries), (0, 0));
        assert_eq!(state.cache.stats().misses, 0, "no artifact was built");
    }

    #[test]
    fn sweep_counts_from_a_resident_l1() {
        let server = test_server();
        let state = server.state();
        let runs = |stage: &str| {
            let spans = state.pipeline_spans.lock().unwrap();
            spans
                .get("paper")
                .and_then(|stages| stages.get(stage))
                .map_or(0, |agg| agg.count)
        };
        let (_, status, cold) = dispatch_text(state, &request("/datasets/paper/sweep?max_s=4"));
        assert_eq!(status, 200);
        assert!(
            cold.contains("\"counts\":[[1,4],[2,3],[3,2],[4,0]]"),
            "{cold}"
        );
        // The sweep counted L₁ once and left it as its only artifact.
        assert_eq!(runs("counting"), 1);
        assert_eq!(state.cache.stats().entries, 1);
        assert!(state
            .cache
            .lookup(&artifact_key("paper", 1, AlgoKind::Algo2))
            .is_some());

        // A later s=3 is derived from L₁, with no second count, and
        // matches the direct count (Figure 2).
        let (_, status, body) = dispatch_text(state, &request("/datasets/paper/slg?s=3"));
        assert_eq!(status, 200);
        assert!(body.contains("\"cache\":\"miss\""), "{body}");
        assert!(body.contains("\"edges\":[[0,2],[1,2]]"), "{body}");
        assert_eq!((runs("counting"), runs("derive")), (1, 1));

        // A repeated sweep is a metric-tier hit with a byte-identical body.
        let (_, status, warm) = dispatch_text(state, &request("/datasets/paper/sweep?max_s=4"));
        assert_eq!(status, 200);
        assert_eq!(cold, warm, "sweep bodies diverged");
        assert!(state.metric_cache.stats().hits >= 1);
        // A longer sweep reads the same resident L₁.
        let (_, _, body) = dispatch_text(state, &request("/datasets/paper/sweep?max_s=6"));
        assert!(body.contains("[4,0],[5,0],[6,0]"), "{body}");
        assert_eq!(runs("counting"), 1);
    }

    #[test]
    fn replacing_a_dataset_invalidates_both_tiers() {
        let server = test_server();
        let state = server.state();
        let (_, _, triangle_bc) = dispatch_text(state, &request("/datasets/paper/betweenness?s=2"));
        let (_, _, triangle_sweep) =
            dispatch_text(state, &request("/datasets/paper/sweep?max_s=2"));
        assert!(triangle_sweep.contains("\"counts\":[[1,4],[2,3]]"));

        // Replace `paper` with a generated lesMis profile under the same
        // name: every per-s result changes shape.
        let mut req = request("/datasets?profile=lesMis&seed=1&name=paper");
        req.method = "POST".to_string();
        let (_, status, _) = dispatch_text(state, &req);
        assert_eq!(status, 201);

        let (_, status, new_bc) = dispatch_text(state, &request("/datasets/paper/betweenness?s=2"));
        assert_eq!(status, 200);
        assert_ne!(triangle_bc, new_bc, "stale betweenness served");
        let (_, status, new_sweep) =
            dispatch_text(state, &request("/datasets/paper/sweep?max_s=2"));
        assert_eq!(status, 200);
        assert_ne!(triangle_sweep, new_sweep, "stale sweep served");
    }

    #[test]
    fn sweep_racing_replacement_never_pins_stale_artifacts() {
        use hyperline_hypergraph::Hypergraph;
        // The replacement hypergraph (two copies of {0, 1}) has sweep
        // counts [[1,1],[2,1]] vs the paper example's [[1,4],[2,3]].
        let replacement = || Hypergraph::from_edge_lists(&[vec![0, 1], vec![0, 1]], 2);
        for _ in 0..20 {
            let server = test_server();
            let state = server.state();
            std::thread::scope(|scope| {
                let sweeper =
                    scope.spawn(|| dispatch_text(state, &request("/datasets/paper/sweep?max_s=2")));
                // Replace mid-flight (whichever side wins the race, the
                // invariant below must hold).
                state
                    .registry
                    .insert("paper", replacement(), DatasetSource::Inline);
                state.invalidate_dataset("paper");
                let (_, status, _) = sweeper.join().unwrap();
                assert_eq!(status, 200);
            });
            // After the replacement, served artifacts and sweep counts
            // must reflect the new dataset — a stale pinned per-s entry
            // would surface here.
            let (_, _, sweep) = dispatch_text(state, &request("/datasets/paper/sweep?max_s=2"));
            assert!(sweep.contains("\"counts\":[[1,1],[2,1]]"), "{sweep}");
            let (_, _, slg) = dispatch_text(state, &request("/datasets/paper/slg?s=2"));
            assert!(slg.contains("\"edges\":[[0,1]]"), "{slg}");
        }
    }

    #[test]
    fn batch_query_answers_subqueries_with_per_item_errors() {
        let server = test_server();
        let state = server.state();
        let mut req = request("/query");
        req.method = "POST".to_string();
        req.body = br#"[
            {"dataset":"paper","op":"stats"},
            {"dataset":"paper","op":"slg","s":2,"limit":2},
            {"dataset":"paper","op":"betweenness","s":2,"top":1},
            {"dataset":"ghost","op":"stats"},
            {"dataset":"paper","op":"sweep","max_s":2},
            {"dataset":"paper","op":"slg","s":0},
            {"dataset":"paper","op":"spectrum","s":2}
        ]"#
        .to_vec();
        let (route, status, body) = dispatch_text(state, &req);
        assert_eq!((route, status), (Route::Query, 200), "{body}");
        assert!(body.contains("\"count\":7"), "{body}");
        assert!(
            body.contains("\"algebraic_connectivity_converged\":true"),
            "{body}"
        );
        assert!(body.contains("\"hyperedges\":4"), "{body}");
        assert!(body.contains("\"truncated\":true"), "{body}");
        assert!(body.contains("\"ranking\""), "{body}");
        assert!(body.contains(r#"no dataset named \"ghost\""#), "{body}");
        // Failed items carry their identifying tags for correlation.
        assert!(
            body.contains("\"dataset\":\"ghost\",\"op\":\"stats\""),
            "{body}"
        );
        assert!(body.contains("\"counts\":[[1,4],[2,3]]"), "{body}");
        assert!(body.contains("s must be at least 1"), "{body}");
        // Batch items populate the same tiers as GETs: this betweenness
        // request is now warm.
        assert!(state.metric_cache.stats().misses >= 1);
        let (_, status, single) =
            dispatch_text(state, &request("/datasets/paper/betweenness?s=2&top=1"));
        assert_eq!(status, 200);
        assert!(single.contains("\"ranking\""));
        assert!(state.metric_cache.stats().hits >= 1);
    }

    #[test]
    fn batch_query_rejects_malformed_bodies() {
        let server = test_server();
        let state = server.state();
        let bodies: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"not json".to_vec(),
            b"{\"dataset\":\"paper\"}".to_vec(), // object, not array
            b"[]".to_vec(),
            b"[1,2]".to_vec(),                // items must be objects
            b"[{\"op\":\"stats\"}]".to_vec(), // missing dataset (per-item)
            format!(
                "[{}]",
                vec!["{\"dataset\":\"paper\",\"op\":\"stats\"}"; 65].join(",")
            )
            .into_bytes(),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let mut req = request("/query");
            req.method = "POST".to_string();
            req.body = body;
            let (_, status, response) = dispatch_text(state, &req);
            if i == 4 || i == 5 {
                // Item-level failures: the batch succeeds, the item errors.
                assert_eq!(status, 200, "case {i}: {response}");
                assert!(response.contains("\"error\""), "case {i}: {response}");
            } else {
                assert_eq!(status, 400, "case {i}: {response}");
            }
        }
        // Wrong method on /query is 405.
        let (_, status, _) = dispatch_text(state, &request("/query"));
        assert_eq!(status, 405);
    }

    #[test]
    fn metrics_report_both_tiers() {
        let server = test_server();
        let state = server.state();
        let (_, _, _) = dispatch_text(state, &request("/datasets/paper/betweenness?s=2"));
        let (_, _, _) = dispatch_text(state, &request("/datasets/paper/betweenness?s=2"));
        let (_, status, body) = dispatch_text(state, &request("/metrics"));
        assert_eq!(status, 200);
        assert!(
            body.contains("\"cache\":{\"artifacts\":{\"hits\":0,\"misses\":1"),
            "{body}"
        );
        assert!(
            body.contains("\"metrics\":{\"hits\":1,\"misses\":1"),
            "{body}"
        );
        assert!(body.contains("\"query\":{\"requests\":0"), "{body}");
    }

    #[test]
    fn metrics_json_reports_histograms_and_build_info() {
        let server = test_server();
        let state = server.state();
        state
            .metrics
            .record(Route::Slg, 200, Duration::from_micros(250));
        let (_, status, body) = dispatch_text(state, &request("/metrics"));
        assert_eq!(status, 200);
        let parsed = Json::parse(&body).expect("metrics body parses");
        let build = parsed.get("build").expect("build section");
        assert_eq!(
            build.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(build
            .get("commit")
            .unwrap()
            .as_str()
            .is_some_and(|c| !c.is_empty()));
        assert!(build.get("started_unix").unwrap().as_int().unwrap() > 0);
        // Per-route latency histograms carry quantiles alongside the
        // exact average/max.
        let slg = parsed
            .get("endpoints")
            .and_then(|e| e.get("slg"))
            .expect("slg endpoint");
        let latency = slg.get("latency").expect("latency histogram");
        assert_eq!(latency.get("count").unwrap().as_int(), Some(1));
        for field in ["avg_micros", "max_micros", "p50", "p90", "p99", "p999"] {
            assert!(latency.get(field).is_some(), "missing {field}");
        }
        // The recorded 250µs sample lands inside the log-bucket spread.
        let p50 = latency.get("p50").unwrap().as_int().unwrap();
        assert!((250..300).contains(&p50), "p50 = {p50}");
        // Pool, transport and cache sections expose their histograms.
        assert!(parsed
            .get("pool")
            .and_then(|p| p.get("queue_wait"))
            .is_some());
        assert!(parsed
            .get("transport")
            .and_then(|t| t.get("gzip_encode"))
            .is_some());
        assert!(parsed
            .get("cache")
            .and_then(|c| c.get("artifacts"))
            .and_then(|a| a.get("lock_hold"))
            .is_some());
    }

    /// Validates Prometheus text exposition 0.0.4: every line is a
    /// comment (`# HELP` / `# TYPE`) or `name[{labels}] value`, label
    /// blocks are well-formed, and every sample belongs to a family
    /// declared by a preceding `# TYPE`.
    fn assert_valid_exposition(text: &str) {
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().expect("family name");
                let kind = parts.next().expect("family kind");
                assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
                typed.push(name.to_string());
                continue;
            }
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP "), "{line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("{line}"));
            let name = match series.split_once('{') {
                Some((name, labels)) => {
                    assert!(labels.ends_with('}'), "{line}");
                    for pair in labels.trim_end_matches('}').split(',') {
                        let (key, val) = pair.split_once('=').expect("label pair");
                        assert!(!key.is_empty(), "{line}");
                        assert!(
                            val.starts_with('"') && val.ends_with('"') && val.len() >= 2,
                            "{line}"
                        );
                    }
                    name
                }
                None => series,
            };
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{line}"
            );
            let family = typed.iter().any(|t| {
                name == t
                    || name == format!("{t}_bucket")
                    || name == format!("{t}_sum")
                    || name == format!("{t}_count")
            });
            assert!(family, "sample {name} has no # TYPE declaration");
        }
        assert!(!typed.is_empty(), "no families declared");
    }

    #[test]
    fn metrics_format_prometheus_is_valid_exposition() {
        let server = test_server();
        let state = server.state();
        // Traffic first, so histograms have buckets to expose. The
        // route counter records in the connection loop, which unit
        // tests bypass — record the sample directly.
        let (_, _, _) = dispatch_text(state, &request("/datasets/paper/slg?s=2"));
        state
            .metrics
            .record(Route::Slg, 200, Duration::from_micros(300));
        let req = request("/metrics?format=prometheus");
        let (route, status, body) = dispatch(state, &req);
        assert_eq!((route, status), (Route::Metrics, 200));
        let Json::Text {
            content_type,
            body: text,
        } = &body
        else {
            panic!("prometheus body must be preformatted text");
        };
        assert_eq!(*content_type, http::CONTENT_TYPE_PROMETHEUS);
        assert_valid_exposition(text);
        for family in [
            "hyperline_build_info{",
            "hyperline_requests_total{route=\"slg\"} 1",
            "hyperline_request_duration_micros_bucket{route=\"slg\",le=\"",
            "hyperline_request_duration_micros_sum{route=\"slg\"}",
            "hyperline_request_duration_micros_count{route=\"slg\"} 1",
            "hyperline_cache_misses_total{tier=\"artifacts\"} 1",
            "hyperline_cache_lock_hold_micros_count{tier=\"metrics\"}",
            "hyperline_queue_depth ",
            "hyperline_busy_workers ",
            "hyperline_queue_wait_micros_count ",
        ] {
            assert!(text.contains(family), "missing {family:?} in:\n{text}");
        }
        // The response writer serves the text verbatim with its own
        // content-type, for GET and HEAD alike, in one write.
        let (keep, writes) = respond_writes(state, &req, status, &body, true);
        assert_eq!((keep, writes.len()), (true, 1));
        let (head, raw_body) = split_response(&writes[0]);
        assert!(
            head.contains("content-type: text/plain; version=0.0.4"),
            "{head}"
        );
        assert_eq!(raw_body, text.as_bytes());
        let mut head_req = request("/metrics?format=prometheus");
        head_req.method = "HEAD".to_string();
        let (_, status, head_body) = dispatch(state, &head_req);
        let (keep, writes) = respond_writes(state, &head_req, status, &head_body, true);
        assert_eq!((keep, writes.len()), (true, 1));
        let (head, raw_body) = split_response(&writes[0]);
        assert!(raw_body.is_empty(), "HEAD must not send the exposition");
        assert!(head.contains("content-length:"), "{head}");
    }

    /// Both `/metrics` formats, row by row: for every label value, the
    /// JSON leaf at the row's path and the Prometheus sample of its
    /// family hold the same number (a histogram's `count` its `_count`),
    /// and the exposition declares exactly the table's families.
    #[test]
    fn metrics_json_and_prometheus_agree_on_every_row() {
        use crate::metrics::{Value, METRICS};
        let server = test_server();
        let state = server.state();
        // Distinct nonzero values everywhere, so a value rendered under
        // another row's name would show.
        let m = &state.metrics;
        let counters = [
            &m.connections_accepted,
            &m.connections_rejected,
            &m.bad_requests,
            &m.streamed_responses,
            &m.gzip_responses,
            &m.client_aborts,
            &m.write_stalls,
            &m.slow_loris_closes,
            &m.deadline_expired,
            &m.deadlines_fired,
            &m.drained_connections,
            &m.aborted_connections,
            &m.event_loop_wakeups,
            &m.eagain_yields,
        ];
        for (counter, v) in counters.iter().zip(101..) {
            counter.store(v, Ordering::Relaxed);
        }
        let gauges = [&m.queue_depth, &m.busy_workers, &m.event_loop_connections];
        for (gauge, v) in gauges.iter().zip(201..) {
            gauge.store(v, Ordering::Relaxed);
        }
        m.queue_wait.record(17);
        m.gzip_encode.record(900);
        for (i, &route) in Route::ALL.iter().enumerate() {
            for _ in 0..=i {
                let status = if i % 2 == 0 { 200 } else { 500 };
                m.record(route, status, Duration::from_micros(10 * i as u64 + 1));
            }
        }
        let _ = dispatch_text(state, &request("/datasets/paper/betweenness?s=2"));
        let _ = dispatch_text(state, &request("/datasets/paper/betweenness?s=2"));

        // One readout renders both formats, so they see the same values.
        let readout = Readout::new(state);
        let json = readout.json();
        let text = readout.exposition();
        assert_valid_exposition(&text);
        let samples: std::collections::HashMap<&str, &str> = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.rsplit_once(' '))
            .collect();
        let families: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
            .collect();
        let names: std::collections::BTreeSet<&str> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), METRICS.len(), "a family name repeats");
        assert_eq!(families, names);

        let mut exported = Vec::new();
        for metric in METRICS {
            for (label, value) in readout.samples(metric) {
                let (path, labels) = match label {
                    Some((key, v)) => (metric.path.replace('*', v), format!("{{{key}=\"{v}\"}}")),
                    None => (metric.path.to_string(), String::new()),
                };
                let leaf = path
                    .split('.')
                    .try_fold(&json, |node, key| node.get(key))
                    .unwrap_or_else(|| panic!("no JSON leaf at {path}"));
                let sample = |suffix: &str, labels: &str| {
                    let series = format!("{}{suffix}{labels}", metric.name);
                    samples.get(series.as_str()).map(|v| v.to_string())
                };
                // Prometheus naming: counters, and only counters, end in
                // `_total`.
                let counter = matches!(value, Value::Counter(_));
                assert_eq!(counter, metric.name.ends_with("_total"), "{}", metric.name);
                match value {
                    Value::Counter(_) | Value::Gauge(_) | Value::Flag(_) => {
                        let number = match leaf {
                            Json::Int(v) => *v,
                            Json::Bool(b) => i128::from(*b),
                            other => panic!("{path}: {other:?}"),
                        };
                        exported.push(number);
                        assert_eq!(sample("", &labels), Some(number.to_string()), "{path}");
                    }
                    Value::Histogram(_) => {
                        let count = leaf.get("count").and_then(Json::as_int);
                        let count = count.map(|c| c.to_string());
                        assert_eq!(sample("_count", &labels), count, "{path}");
                    }
                    Value::Info(pairs) => {
                        let labels: Vec<String> =
                            pairs.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                        let labels = format!("{{{}}}", labels.join(","));
                        assert_eq!(sample("", &labels).as_deref(), Some("1"));
                        for (key, v) in pairs {
                            assert_eq!(leaf.get(key).and_then(Json::as_str), Some(*v));
                        }
                    }
                }
            }
        }
        for seeded in (101..=114).chain(201..=203) {
            assert!(
                exported.contains(&seeded),
                "seeded {seeded} is not exported"
            );
        }
    }

    #[test]
    fn metrics_unknown_format_is_400() {
        let server = test_server();
        let (_, status, body) = dispatch_text(server.state(), &request("/metrics?format=yaml"));
        assert_eq!(status, 400, "{body}");
        // The JSON default still answers with and without ?format=json.
        let (_, status, _) = dispatch_text(server.state(), &request("/metrics?format=json"));
        assert_eq!(status, 200);
    }

    #[test]
    fn debug_pipeline_exposes_stage_tree_after_cold_query() {
        let server = test_server();
        let state = server.state();
        // Nothing collected yet: the tree is empty.
        let (route, status, body) = dispatch_text(state, &request("/debug/pipeline"));
        assert_eq!((route, status), (Route::DebugPipeline, 200));
        assert_eq!(body, "{\"datasets\":{}}");
        // One cold metric query drives the full pipeline: artifact
        // construction (counting → merge → postprocess → csr) plus the
        // Stage-5 kernel.
        let (_, status, _) = dispatch_text(state, &request("/datasets/paper/spectrum?s=2"));
        assert_eq!(status, 200);
        let (_, status, body) = dispatch_text(state, &request("/debug/pipeline"));
        assert_eq!(status, 200);
        let parsed = Json::parse(&body).unwrap();
        let stages = parsed
            .get("datasets")
            .and_then(|d| d.get("paper"))
            .expect("paper has collected stages");
        for stage in ["counting", "merge", "postprocess", "csr", "stage5"] {
            let agg = stages
                .get(stage)
                .unwrap_or_else(|| panic!("missing stage {stage}: {body}"));
            assert!(agg.get("count").unwrap().as_int().unwrap() >= 1, "{stage}");
            assert!(agg.get("total_micros").is_some() && agg.get("max_micros").is_some());
        }
        // Stage-5 kernels nest under the stage5 span.
        assert!(body.contains("\"stage5/"), "{body}");
        // Warm repeats collect nothing new: counts are stable.
        let before = body.clone();
        let (_, _, _) = dispatch_text(state, &request("/datasets/paper/spectrum?s=2"));
        let (_, _, after) = dispatch_text(state, &request("/debug/pipeline"));
        assert_eq!(before, after, "warm traffic must not collect spans");
        // /stats carries the same tree under "pipeline".
        let (_, _, stats) = dispatch_text(state, &request("/datasets/paper/stats"));
        assert!(stats.contains("\"pipeline\":{\"counting\""), "{stats}");
        // Wrong method on the debug route is 405, like the other fixed
        // routes.
        let mut req = request("/debug/pipeline");
        req.method = "POST".to_string();
        let (_, status, _) = dispatch_text(state, &req);
        assert_eq!(status, 405);
    }

    #[test]
    fn distinct_algorithms_are_distinct_cache_entries() {
        let server = test_server();
        let state = server.state();
        let (_, _, body) = dispatch_text(state, &request("/datasets/paper/slg?s=2&algo=algo1"));
        assert!(body.contains("\"cache\":\"miss\""));
        let (_, _, body) = dispatch_text(state, &request("/datasets/paper/slg?s=2&algo=spgemm"));
        assert!(body.contains("\"cache\":\"miss\""));
        let (_, _, body) = dispatch_text(state, &request("/datasets/paper/slg?s=2&algo=algo1"));
        assert!(body.contains("\"cache\":\"hit\""));
        assert_eq!(state.cache.stats().entries, 2);
    }

    /// Writes one response through a deadline-free
    /// [`http::ResponseWriter`]; returns whether the connection stays
    /// open and every write its sink received (all counted in `bytes`).
    fn respond_writes(
        state: &ServerState,
        request: &Request,
        status: u16,
        body: &Json,
        keep_alive: bool,
    ) -> (bool, Vec<Vec<u8>>) {
        let mut sink = http::RecordedWrites::default();
        let mut out = http::ResponseWriter::new(&mut sink, None);
        let keep = respond(state, &mut out, request, status, body, keep_alive).unwrap();
        assert_eq!(out.bytes(), sink.0.concat().len() as u64);
        (keep, sink.0)
    }

    /// Splits a raw response into `(head, body bytes)`.
    fn split_response(wire: &[u8]) -> (String, Vec<u8>) {
        let boundary = wire
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head/body boundary");
        (
            String::from_utf8(wire[..boundary].to_vec()).unwrap(),
            wire[boundary + 4..].to_vec(),
        )
    }

    /// Reassembles a chunked body (shared strict helper, unwrapped).
    fn dechunk(body: &[u8]) -> Vec<u8> {
        http::dechunk(body).expect("well-formed chunked body")
    }

    #[test]
    fn streamed_responses_chunk_and_gzip_byte_identically() {
        let server = test_server();
        let state = server.state();
        let req = request("/datasets/paper/slg?s=2");
        let (_, status, body) = dispatch(state, &req);
        assert_eq!(status, 200);
        assert!(body.is_streaming(), "/slg bodies stream");
        let buffered = body.render();

        // Identity: chunked framing, no content-length, de-chunks to
        // exactly the buffered rendering. One frame is one write.
        let (keep, writes) = respond_writes(state, &req, status, &body, true);
        assert_eq!((keep, writes.len()), (true, 1));
        let (head, raw_body) = split_response(&writes[0]);
        assert!(head.contains("transfer-encoding: chunked"), "{head}");
        assert!(!head.contains("content-length"), "{head}");
        assert!(head.contains("connection: keep-alive"), "{head}");
        assert_eq!(dechunk(&raw_body), buffered.as_bytes());

        // Gzip negotiated: content-encoding header, and the de-chunked,
        // decompressed body round-trips byte-identical.
        let mut gz_req = req.clone();
        gz_req
            .headers
            .push(("accept-encoding".to_string(), "gzip".to_string()));
        let (keep, writes) = respond_writes(state, &gz_req, status, &body, true);
        assert_eq!((keep, writes.len()), (true, 1));
        let (head, raw_body) = split_response(&writes[0]);
        assert!(head.contains("content-encoding: gzip"), "{head}");
        assert!(head.contains("transfer-encoding: chunked"), "{head}");
        let decoded = crate::gzip::decode(&dechunk(&raw_body)).expect("valid gzip body");
        assert_eq!(decoded, buffered.as_bytes());

        // `Accept-Encoding: gzip;q=0` refuses compression.
        let mut refuse = req.clone();
        refuse
            .headers
            .push(("accept-encoding".to_string(), "gzip;q=0".to_string()));
        let (_, writes) = respond_writes(state, &refuse, status, &body, true);
        let (head, _) = split_response(&writes[0]);
        assert!(!head.contains("content-encoding"), "{head}");

        // HTTP/1.0 has no chunked framing: the raw body ends at the
        // close, whatever keep-alive the caller offered.
        let mut http10 = req.clone();
        http10.http10 = true;
        let (keep, writes) = respond_writes(state, &http10, status, &body, true);
        let (head, raw_body) = split_response(&writes.concat());
        assert!(!keep && head.contains("connection: close"), "{head}");
        assert!(!head.contains("transfer-encoding"), "{head}");
        assert_eq!(raw_body, buffered.as_bytes(), "body delimited by close");

        let transported = state.metrics.streamed_responses.load(Ordering::Relaxed);
        let gzipped = state.metrics.gzip_responses.load(Ordering::Relaxed);
        assert_eq!((transported, gzipped), (4, 1));
    }

    /// A streamed identity body of more than two frames reaches the sink
    /// one write per frame: every frame but the last carries exactly
    /// `CHUNK_BYTES`, and the last one's write also carries the terminal
    /// chunk.
    #[test]
    fn streamed_frames_reach_the_sink_one_write_each() {
        let server = test_server();
        // A star: every pair of its 120 edges meets in vertex 0.
        let lists: Vec<Vec<u32>> = (1..=120u32).map(|v| vec![0, v]).collect();
        let star = Hypergraph::from_edge_lists(&lists, 121);
        server
            .registry()
            .insert("star", star, DatasetSource::Inline);
        let req = request("/datasets/star/slg?s=1");
        let (_, status, body) = dispatch(server.state(), &req);
        let rendered = body.render().into_bytes();
        let mut frames: Vec<Vec<u8>> = rendered
            .chunks(http::CHUNK_BYTES)
            .map(|p| [format!("{:x}\r\n", p.len()).as_bytes(), p, b"\r\n"].concat())
            .collect();
        assert!(frames.len() > 2 && frames.last().unwrap().len() < http::CHUNK_BYTES);
        frames.last_mut().unwrap().extend_from_slice(b"0\r\n\r\n");
        let (_, writes) = respond_writes(server.state(), &req, status, &body, true);
        let (head, first) = split_response(&writes[0]);
        assert!(head.contains("transfer-encoding: chunked"), "{head}");
        assert_eq!([vec![first], writes[1..].to_vec()].concat(), frames);
    }

    #[test]
    fn head_responses_carry_exact_length_and_no_body() {
        let server = test_server();
        let state = server.state();
        for path in [
            "/healthz",
            "/datasets/paper/slg?s=2",
            "/datasets/paper/sweep?max_s=3",
        ] {
            // Prime the caches, then compare warm GET vs HEAD (the
            // /slg cache-outcome tag flips miss→hit on the first pair).
            let get = request(path);
            let (_, status, _) = dispatch(state, &get);
            assert_eq!(status, 200, "{path}");
            let (_, _, warm_body) = dispatch(state, &get);
            let expected_len = warm_body.render().len() as u64;

            let mut head_req = request(path);
            head_req.method = "HEAD".to_string();
            let (_, head_status, head_body) = dispatch(state, &head_req);
            assert_eq!(head_status, 200, "HEAD routes like GET: {path}");
            let (keep, writes) = respond_writes(state, &head_req, head_status, &head_body, true);
            let (_, get_writes) = respond_writes(state, &get, 200, &warm_body, true);
            // HEAD keeps the connection alive; HEAD and the small GET
            // alike reach the sink in one write.
            let shape = (keep, writes.len(), get_writes.len());
            assert_eq!(shape, (true, 1, 1), "{path}");
            let (head, raw_body) = split_response(&writes[0]);
            assert!(raw_body.is_empty(), "{path}: HEAD must not send a body");
            assert!(
                head.contains(&format!("content-length: {expected_len}")),
                "{path}: expected length {expected_len} in {head}"
            );
            assert!(!head.contains("transfer-encoding"), "{head}");
        }
        // HEAD on a POST-only route is 405, like any other wrong method.
        let mut head_req = request("/query");
        head_req.method = "HEAD".to_string();
        let (_, status, _) = dispatch(state, &head_req);
        assert_eq!(status, 405);
    }

    #[test]
    fn batch_responses_stream_when_items_stream() {
        let server = test_server();
        let state = server.state();
        let mut req = request("/query");
        req.method = "POST".to_string();
        req.body = br#"[{"dataset":"paper","op":"slg","s":2},
                        {"dataset":"paper","op":"sweep","max_s":2}]"#
            .to_vec();
        let (_, status, body) = dispatch(state, &req);
        assert_eq!(status, 200);
        assert!(body.is_streaming(), "batch inherits streamed items");
        let buffered = body.render();
        let wire = respond_writes(state, &req, status, &body, true).1.concat();
        let (_, raw_body) = split_response(&wire);
        assert_eq!(dechunk(&raw_body), buffered.as_bytes());
    }
}
