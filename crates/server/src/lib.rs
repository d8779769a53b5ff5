//! `hyperline serve` — a zero-dependency concurrent query server with an
//! s-line-graph cache.
//!
//! The paper computes s-line graphs `L_s(H)` precisely so that downstream
//! s-metric queries (components, betweenness, s-distance, spectra) become
//! cheap graph operations. This crate turns that observation into a
//! long-lived service: load hypergraphs once, build each requested
//! `L_s(H)` at most once — counting overlaps once per dataset and
//! filtering every higher `s` from the cached counts, the paper's
//! Algorithm 3 applied across requests — and answer many cheap queries
//! from the cached artifact: the architecture of high-performance tile
//! servers (IIPImage) applied to hypergraph analytics.
//!
//! Everything is `std`-only: `TcpListener` + scoped threads, a
//! hand-rolled HTTP/1.1 parser, and a write-only JSON builder.
//!
//! ## Architecture
//!
//! * [`registry`] — named, immutable, `Arc`-shared datasets, loaded from
//!   edge-list files or generator profiles at startup or via
//!   `POST /datasets`;
//! * [`cache`] — the **two cache tiers** on one single-flight LRU
//!   engine: the artifact tier holds computed [`SLineGraph`]s keyed by
//!   `(dataset, s, algorithm)`, each Algorithm-2 one with the overlap
//!   count of every edge, so a missing `L_s` is filtered from the
//!   cached one with the largest `s0 ≤ s` instead of recounted (and
//!   `weighted=1` rows render from the same entry); the metric tier
//!   layered over
//!   it holds Stage-5 results (components, betweenness rankings,
//!   spectra, sweep counts) keyed by `(artifact, metric, params)`, so
//!   warm metric queries skip the parallel kernels entirely. Both tiers
//!   are LRU-evicted under byte budgets, deduplicate concurrent misses,
//!   and invalidate together (generation-fenced) when a dataset is
//!   replaced;
//! * [`server`] / [`event`] — an **evented core**: a single epoll
//!   readiness loop owns every socket (nonblocking accept, resumable
//!   head parsing, EAGAIN-aware response flushing) and hands complete
//!   requests to a fixed worker pool over a bounded queue; workers speak
//!   HTTP/1.1 keep-alive (HEAD, `Expect: 100-continue` and desync-safe
//!   error handling included) into a bounded hand-off buffer the loop
//!   drains under `EPOLLOUT`. `GET /datasets/{d}/sweep` reads every
//!   `|E(L_s)|` off the overlaps of one resident `L₁`, and `POST /query`
//!   answers a JSON batch of sub-queries in one round-trip under one
//!   compute budget. Large bodies (edge lists, sweeps, components) **stream**
//!   from the cached `Arc` artifacts through a chunked (and, when
//!   negotiated, gzip) writer stack with O(1) buffering;
//! * [`http`] / [`json`] — the wire-format helpers: percent-decoding
//!   request parser, chunked-transfer writer, `Accept-Encoding`
//!   negotiation; JSON builder + strict parser + streaming serializer
//!   ([`json::StreamFragment`]);
//! * [`gzip`] — a std-only streaming gzip encoder (LZ77 + per-block
//!   dynamic/fixed/stored DEFLATE selection) and a strict decoder for
//!   tests and benchmarks;
//! * [`metrics`] — per-endpoint request counters and latency
//!   *histograms* (p50/p90/p99/p999), per-tier cache hit/miss and
//!   transport (streamed/gzipped) reporting at `GET /metrics` — as JSON
//!   or Prometheus text exposition (`?format=prometheus`), both walked
//!   from one table that declares each metric once; pipeline stage
//!   spans aggregate per dataset at `GET /debug/pipeline`;
//! * [`access_log`] — structured JSONL request logs (request ID, route,
//!   cache outcome, queue wait, bytes out) on a non-blocking writer
//!   thread, enabled with `--access-log`.
//!
//! ## Quick start
//!
//! ```
//! use hyperline_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! server
//!     .registry()
//!     .load_profile("lesMis", 42, None)
//!     .unwrap();
//! let handle = server.spawn();
//! // GET http://{handle.addr()}/datasets/lesMis/slg?s=2 ...
//! handle.shutdown();
//! ```
//!
//! [`SLineGraph`]: hyperline_slinegraph::SLineGraph

#![warn(missing_docs)]

pub use hyperline_util::sync;

pub mod access_log;
pub mod cache;
pub mod event;
pub mod gzip;
pub mod http;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod server;
pub(crate) mod sys;

pub use access_log::{AccessLog, AccessRecord, RequestIds};
pub use cache::{
    AlgoKind, ArtifactCache, CacheKey, CacheOutcome, CacheStats, MetricKey, MetricKind,
    SingleFlightCache, TierKey,
};
pub use metrics::{Route, ServerMetrics};
pub use registry::{Dataset, DatasetRegistry, DatasetSource};
pub use server::{Artifact, MetricResult, Server, ServerConfig, ServerHandle, ServerState};
