//! The three workloads, their set-up, and their output checks.
//!
//! Everything the server sees is generated: the dataset instances
//! (`POST /datasets?profile=&seed=` with fixed generator seeds), and,
//! from the workload seed, the request order and the batch contents.

use crate::client::{Conn, Response, Wire};
use hyperline_hypergraph::Hypergraph;
use hyperline_server::json::Json;
use hyperline_server::{gzip, Server, ServerConfig, ServerHandle};
use hyperline_slinegraph::{algo2_slinegraph, algo2_slinegraph_weighted, SLineGraph, Strategy};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm datasets (`export`, `queries`).
pub const DENSE: &str = "dense";
pub const SPARSE: &str = "sparse";
/// The same instances under the names cold sessions replace, so cold
/// traffic never invalidates the warm datasets it is interleaved with.
pub const COLD_DENSE: &str = "dense-cold";
pub const COLD_SPARSE: &str = "sparse-cold";

/// Profile behind each dataset name: `genomics` is wedge-dense (about
/// 315 wedges per source hyperedge at s=2), `IMDB` wedge-sparse (about
/// 65) — the two sides of the per-profile counter choice.
pub fn profile(dataset: &str) -> &'static str {
    if dataset.starts_with(DENSE) {
        "genomics"
    } else {
        "IMDB"
    }
}

/// Generator seed of every dataset instance. It is fixed, not drawn
/// from the workload seed: instances of one profile differ by up to
/// ±12% in L₂ size, more than any bound a regression gate can use, so
/// runs on different workload seeds must do the same work.
pub const INSTANCE_SEED: u64 = 1;
/// `limit` that returns a whole edge list.
pub const FULL: u64 = 1_000_000_000;

/// SplitMix64: one well-mixed 64-bit value per `(seed, tag)`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded stream of draws (request order, batch contents).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (mix(self.0, 0) % n as u64) as usize
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    Slg { s: u32, weighted: bool, limit: u64 },
    Sweep { max_s: u32 },
    Components { s: u32, limit: u32 },
    Spectrum { s: u32 },
    Betweenness { s: u32, samples: u32, top: u32 },
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Query {
    pub dataset: &'static str,
    pub op: Op,
}

impl Query {
    fn target(&self) -> String {
        let d = self.dataset;
        match self.op {
            Op::Slg { s, weighted, limit } => {
                let w = if weighted { "&weighted=1" } else { "" };
                format!("/datasets/{d}/slg?s={s}{w}&limit={limit}")
            }
            Op::Sweep { max_s } => format!("/datasets/{d}/sweep?max_s={max_s}"),
            Op::Components { s, limit } => format!("/datasets/{d}/components?s={s}&limit={limit}"),
            Op::Spectrum { s } => format!("/datasets/{d}/spectrum?s={s}"),
            Op::Betweenness { s, samples, top } => {
                format!("/datasets/{d}/betweenness?s={s}&samples={samples}&top={top}")
            }
        }
    }

    /// The same query as a `POST /query` batch item.
    fn item(&self) -> String {
        let d = self.dataset;
        match self.op {
            Op::Slg { s, weighted, limit } => format!(
                r#"{{"dataset":"{d}","op":"slg","s":{s},"weighted":{weighted},"limit":{limit}}}"#
            ),
            Op::Sweep { max_s } => format!(r#"{{"dataset":"{d}","op":"sweep","max_s":{max_s}}}"#),
            Op::Components { s, limit } => {
                format!(r#"{{"dataset":"{d}","op":"components","s":{s},"limit":{limit}}}"#)
            }
            Op::Spectrum { s } => format!(r#"{{"dataset":"{d}","op":"spectrum","s":{s}}}"#),
            Op::Betweenness { s, samples, top } => format!(
                r#"{{"dataset":"{d}","op":"betweenness","s":{s},"samples":{samples},"top":{top}}}"#
            ),
        }
    }

    /// Whether the server streams this body (and so gzips it when
    /// negotiated); small summaries go out fixed-length, uncompressed.
    pub fn streams(&self) -> bool {
        matches!(
            self.op,
            Op::Slg { .. } | Op::Sweep { .. } | Op::Components { .. }
        )
    }
}

/// One request of a workload.
#[derive(Clone, Debug)]
pub enum Request {
    /// `POST /datasets`: generate and (re)place a dataset instance.
    Load {
        dataset: &'static str,
    },
    Get {
        query: Query,
        gzip: bool,
    },
    Batch {
        items: Vec<Query>,
        gzip: bool,
    },
}

impl Request {
    pub fn wire(&self) -> Wire {
        match self {
            Request::Load { dataset } => Wire::post(
                &format!(
                    "/datasets?name={dataset}&profile={}&seed={INSTANCE_SEED}",
                    profile(dataset)
                ),
                b"",
                false,
            ),
            Request::Get { query, gzip } => Wire::get(&query.target(), *gzip),
            Request::Batch { items, gzip } => {
                let body: Vec<String> = items.iter().map(Query::item).collect();
                Wire::post("/query", format!("[{}]", body.join(",")).as_bytes(), *gzip)
            }
        }
    }

    /// Whether the response body is gzip-encoded when negotiated.
    pub fn gzipped(&self) -> bool {
        match self {
            Request::Load { .. } => false,
            Request::Get { query, gzip } => *gzip && query.streams(),
            Request::Batch { items, gzip } => *gzip && items.iter().any(Query::streams),
        }
    }

    fn expected_status(&self) -> u16 {
        match self {
            Request::Load { .. } => 201,
            _ => 200,
        }
    }
}

pub fn dense_script() -> Vec<Query> {
    let q = |op| Query {
        dataset: COLD_DENSE,
        op,
    };
    vec![
        q(Op::Slg {
            s: 2,
            weighted: false,
            limit: 16,
        }),
        q(Op::Slg {
            s: 2,
            weighted: true,
            limit: 16,
        }),
        q(Op::Sweep { max_s: 8 }),
        q(Op::Components { s: 4, limit: 10 }),
        q(Op::Spectrum { s: 8 }),
    ]
}

/// The dense script minus `sweep` (on IMDB it builds L₁ with 4.3M
/// edges), with components at s=2.
pub fn sparse_script() -> Vec<Query> {
    let q = |op| Query {
        dataset: COLD_SPARSE,
        op,
    };
    vec![
        q(Op::Slg {
            s: 2,
            weighted: false,
            limit: 16,
        }),
        q(Op::Slg {
            s: 2,
            weighted: true,
            limit: 16,
        }),
        q(Op::Components { s: 2, limit: 10 }),
        q(Op::Spectrum { s: 8 }),
    ]
}

pub fn export_query() -> Query {
    Query {
        dataset: DENSE,
        op: Op::Slg {
            s: 2,
            weighted: false,
            limit: FULL,
        },
    }
}

/// The warm small queries of the `queries` mix.
pub fn query_singles() -> Vec<Query> {
    let mut out = Vec::new();
    for dataset in [DENSE, SPARSE] {
        let q = |op| Query { dataset, op };
        for s in [2, 4, 8] {
            out.push(q(Op::Slg {
                s,
                weighted: false,
                limit: 16,
            }));
        }
        out.push(q(Op::Components { s: 8, limit: 10 }));
        out.push(q(Op::Spectrum { s: 8 }));
        if dataset == DENSE {
            out.push(q(Op::Sweep { max_s: 8 }));
        }
        out.push(q(Op::Betweenness {
            s: 8,
            samples: 32,
            top: 10,
        }));
    }
    out
}

pub const BATCH_ITEMS: usize = 8;
/// One request in this many of the `queries` mix is a batch.
pub const BATCH_ONE_IN: usize = 8;

/// Every distinct request of the `queries` mix: the singles, then one
/// batch per single (all sent with `Accept-Encoding: gzip`). Batch `b`
/// holds shuffled singles `b..b+8` (cyclically), so every single sits
/// in exactly 8 batches and only the seeded shuffle varies.
pub fn query_keys(seed: u64) -> Vec<Request> {
    let singles = query_singles();
    let n = singles.len();
    let mut keys: Vec<Request> = singles
        .iter()
        .map(|&query| Request::Get { query, gzip: true })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(mix(seed, 0x400));
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    for b in 0..n {
        let items = (0..BATCH_ITEMS)
            .map(|j| singles[order[(b + j) % n]])
            .collect();
        keys.push(Request::Batch { items, gzip: true });
    }
    keys
}

// ---------------------------------------------------------------------
// Client spans
// ---------------------------------------------------------------------

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A timed interval: a client span (session, request, set-up) or a
/// replayed layer call. Children share their request's `request` id.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    /// Request spans: time of the first response byte.
    pub first_byte: Option<Instant>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A traced request, kept for the replay.
pub struct Logged {
    pub span: u64,
    pub request: Request,
    /// The identity (decoded) response body.
    pub body: Arc<Vec<u8>>,
}

/// The spans and requests of a traced run.
#[derive(Default)]
pub struct Log {
    pub spans: Vec<Span>,
    pub requests: Vec<Logged>,
}

// ---------------------------------------------------------------------
// Run state
// ---------------------------------------------------------------------

/// One burst of the `queries` mix: requests completed, its duration,
/// and its latency quantiles.
#[derive(Clone, Copy, Debug)]
pub struct Burst {
    pub requests: usize,
    pub seconds: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// Every timed operation of a run, by metric.
#[derive(Default, Clone)]
pub struct Tally {
    pub dense_ms: Vec<f64>,
    pub sparse_ms: Vec<f64>,
    pub identity_ms: Vec<f64>,
    pub gzip_ms: Vec<f64>,
    pub gzip_kb: Vec<f64>,
    pub query_ms: Vec<f64>,
    /// One entry per `queries` burst.
    pub bursts: Vec<Burst>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.query_ms.extend(other.query_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Library results a cold session's bodies must match.
struct ColdExpect {
    slg2: (i128, i128, Vec<Vec<i128>>),
    weighted: (i128, Vec<Vec<i128>>),
    sweep: Vec<Vec<i128>>,
    components: i128,
    spectrum: (i128, i128, i128),
}

/// A `queries` key: the request, its warm raw body (as sent, possibly
/// gzip-encoded), and that body decoded.
type QueryRef = (Request, Vec<u8>, Arc<Vec<u8>>);

/// A running server plus the benchmark's connection to it.
pub struct Env {
    pub handle: ServerHandle,
    pub workers: usize,
    seed: u64,
    conn: Conn,
    pub tally: Tally,
    /// Traced spans, when tracing.
    pub log: Option<Log>,
    /// Datasets the server currently holds.
    loaded: HashSet<&'static str>,
    cold_expect: HashMap<&'static str, Arc<ColdExpect>>,
    /// The `queries` clients' connections and draw streams, kept across
    /// bursts.
    query_clients: Vec<(Conn, Rng)>,
    /// Warm reference bodies of the `queries` keys.
    query_refs: Option<Arc<Vec<QueryRef>>>,
    /// Warm reference body of the full export.
    export_ref: Option<Arc<Vec<u8>>>,
}

/// Starts a server on an ephemeral port at its default worker count.
pub fn start(seed: u64) -> Env {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let workers = server.threads();
    let handle = server.spawn();
    let conn = Conn::new(handle.addr());
    Env {
        handle,
        workers,
        seed,
        conn,
        tally: Tally::default(),
        log: None,
        loaded: HashSet::new(),
        cold_expect: HashMap::new(),
        query_clients: Vec::new(),
        query_refs: None,
        export_ref: None,
    }
}

fn decode(response: &Response) -> Result<Vec<u8>, String> {
    if response.gzip {
        gzip::decode(&response.body)
    } else {
        Ok(response.body.clone())
    }
}

/// Sends one request on `conn`, counting it and its failures; returns
/// the response when the status is the expected one.
fn exchange(
    conn: &mut Conn,
    tally: &mut Tally,
    request: &Request,
    wire: &Wire,
) -> Option<Response> {
    tally.attempted += 1;
    match conn.send(wire) {
        Ok(r) if r.status == request.expected_status() => Some(r),
        Ok(r) => {
            let text = String::from_utf8_lossy(&r.body)
                .chars()
                .take(200)
                .collect::<String>();
            tally.fail(format!("{request:?}: status {} {text}", r.status));
            None
        }
        Err(e) => {
            tally.fail(format!("{request:?}: {e}"));
            None
        }
    }
}

/// Records a traced request span (and keeps it for the replay).
fn log_request(log: &mut Log, group: u64, request: &Request, r: &Response, body: Arc<Vec<u8>>) {
    let id = next_id();
    log.spans.push(Span {
        id,
        parent: group,
        request: id,
        name: "request".to_string(),
        start: r.sent,
        end: r.last_byte,
        first_byte: Some(r.first_byte),
    });
    log.requests.push(Logged {
        span: id,
        request: request.clone(),
        body,
    });
}

impl Env {
    /// Sends `request` on the main connection.
    fn send(&mut self, request: &Request, group: u64) -> Option<Response> {
        let response = exchange(&mut self.conn, &mut self.tally, request, &request.wire())?;
        if let Some(log) = self.log.as_mut() {
            let body = decode(&response).unwrap_or_default();
            log_request(log, group, request, &response, Arc::new(body));
        }
        Some(response)
    }

    /// Opens a group span (session or set-up) in the trace.
    pub fn open(&self) -> (u64, Instant) {
        (next_id(), Instant::now())
    }

    pub fn close(&mut self, (id, start): (u64, Instant), name: &str, end: Instant) {
        if let Some(log) = self.log.as_mut() {
            log.spans.push(Span {
                id,
                parent: 0,
                request: 0,
                name: name.to_string(),
                start,
                end,
                first_byte: None,
            });
        }
    }

    /// `POST /datasets`: (re)places `dataset` with its instance.
    pub fn load(&mut self, dataset: &'static str, group: u64) -> bool {
        let ok = self.send(&Request::Load { dataset }, group).is_some();
        if ok {
            self.loaded.insert(dataset);
        }
        ok
    }

    fn hypergraph(&self, dataset: &str) -> Arc<Hypergraph> {
        self.handle
            .state()
            .registry
            .get(dataset)
            .expect("loaded dataset")
            .hypergraph
    }

    // -----------------------------------------------------------------
    // cold
    // -----------------------------------------------------------------

    /// One analyst session on a freshly replaced dataset: the
    /// replacement happens before (and outside) the session's timer, so
    /// both cache tiers start empty. Records the session time and
    /// checks every body against direct library results.
    pub fn cold_session(&mut self, dataset: &'static str) {
        if !self.load(dataset, 0) {
            return;
        }
        let dense = dataset == COLD_DENSE;
        let script = if dense {
            dense_script()
        } else {
            sparse_script()
        };
        let group = self.open();
        let mut first_sent = None;
        let mut last_byte = None;
        let mut bodies = Vec::new();
        for query in &script {
            let request = Request::Get {
                query: *query,
                gzip: false,
            };
            let Some(r) = self.send(&request, group.0) else {
                return;
            };
            first_sent.get_or_insert(r.sent);
            last_byte = Some(r.last_byte);
            bodies.push((*query, r.body));
        }
        let (Some(start), Some(end)) = (first_sent, last_byte) else {
            return;
        };
        let ms = (end - start).as_secs_f64() * 1e3;
        if dense {
            self.tally.dense_ms.push(ms);
        } else {
            self.tally.sparse_ms.push(ms);
        }
        self.close((group.0, start), &format!("session.{dataset}"), end);
        // Output checks, outside the timer.
        let expect = match self.cold_expect.get(dataset) {
            Some(e) => Arc::clone(e),
            None => {
                let e = Arc::new(cold_expect(&self.hypergraph(dataset), dense));
                self.cold_expect.insert(dataset, Arc::clone(&e));
                e
            }
        };
        for (query, body) in bodies {
            if let Err(e) = check_cold(&query, &body, &expect) {
                self.tally.fail(format!("{query:?}: {e}"));
            }
        }
    }

    // -----------------------------------------------------------------
    // export
    // -----------------------------------------------------------------

    /// Loads the export dataset (unless present) and warms the full
    /// edge list in both encodings; keeps the warm identity body as the
    /// reference every export must reproduce.
    pub fn export_setup(&mut self, group: u64) {
        if !self.loaded.contains(DENSE) {
            self.load(DENSE, group);
        }
        let query = export_query();
        let identity = Request::Get { query, gzip: false };
        let gzipped = Request::Get { query, gzip: true };
        self.send(&identity, group);
        let reference = self.send(&identity, group).map(|r| r.body);
        self.send(&gzipped, group);
        self.export_ref = reference.map(Arc::new);
    }

    /// Checks the reference body against the library: it must hold
    /// exactly `num_edges` rows, and `num_edges` must equal Algorithm
    /// 2's edge count on the same dataset.
    pub fn export_check(&mut self) {
        let Some(reference) = self.export_ref.clone() else {
            self.tally.fail("export: no warm reference body".into());
            return;
        };
        let h = self.hypergraph(DENSE);
        let expected = algo2_slinegraph(&h, 2, &Strategy::default()).edges.len() as i128;
        let verdict = parse(&reference).and_then(|json| {
            let num_edges = int(&json, "num_edges")?;
            let rows = json
                .get("edges")
                .and_then(Json::as_array)
                .ok_or("no edges array")?
                .len() as i128;
            if num_edges == expected && rows == expected {
                Ok(())
            } else {
                Err(format!(
                    "num_edges {num_edges}, rows {rows}, library {expected}"
                ))
            }
        });
        if let Err(e) = verdict {
            self.tally.fail(format!("export reference: {e}"));
        }
    }

    /// One identity or gzip export of the full edge list.
    pub fn export_once(&mut self, gzip: bool) {
        let request = Request::Get {
            query: export_query(),
            gzip,
        };
        let Some(r) = self.send(&request, 0) else {
            return;
        };
        let reference = self.export_ref.clone().unwrap_or_default();
        if gzip {
            self.tally.gzip_ms.push(r.total_ms());
            self.tally.gzip_kb.push(r.body.len() as f64 / 1024.0);
            match gzip::decode(&r.body) {
                Ok(decoded) if decoded == *reference => {}
                Ok(_) => self.tally.fail("gzip export: decoded body differs".into()),
                Err(e) => self.tally.fail(format!("gzip export: {e}")),
            }
        } else {
            self.tally.identity_ms.push(r.total_ms());
            if r.body != *reference {
                self.tally
                    .fail("identity export: body differs from warm reference".into());
            }
        }
    }

    // -----------------------------------------------------------------
    // queries
    // -----------------------------------------------------------------

    /// Loads both datasets (unless present) and warms every key of the
    /// mix twice; the second (warm) body is the key's reference.
    pub fn queries_setup(&mut self, group: u64) {
        for dataset in [DENSE, SPARSE] {
            if !self.loaded.contains(dataset) {
                self.load(dataset, group);
            }
        }
        let mut refs = Vec::new();
        for request in query_keys(self.seed) {
            let first = self.send(&request, group);
            let Some(second) = self.send(&request, group) else {
                continue;
            };
            let identity = match decode(&second) {
                Ok(b) => b,
                Err(e) => {
                    self.tally.fail(format!("{request:?}: {e}"));
                    continue;
                }
            };
            // A miss and its warm repeat carry the same data; `/slg`
            // bodies only differ in their cache tag.
            let untag = |b: &[u8]| {
                String::from_utf8_lossy(b)
                    .replace("\"cache\":\"miss\"", "\"cache\":\"hit\"")
                    .replace("\"cache\":\"coalesced\"", "\"cache\":\"hit\"")
            };
            if let Some(first) = first {
                let cold = decode(&first).unwrap_or_default();
                if untag(&cold) != untag(&identity) || parse(&identity).is_err() {
                    self.tally
                        .fail(format!("{request:?}: warm body differs from cold body"));
                }
            }
            refs.push((request, second.body, Arc::new(identity)));
        }
        self.query_refs = Some(Arc::new(refs));
    }

    /// Closed loop of `clients` keep-alive clients for `window`; every
    /// body must be byte-identical to its key's warm reference.
    pub fn queries_window(&mut self, clients: usize, window: Duration) {
        let Some(refs) = self.query_refs.clone() else {
            self.tally.fail("queries: no warm references".into());
            return;
        };
        let singles = query_singles().len();
        let batches = refs.len() - singles.min(refs.len());
        while self.query_clients.len() < clients {
            let c = self.query_clients.len() as u64;
            let rng = Rng::new(mix(self.seed, 0x300 + c));
            self.query_clients
                .push((Conn::new(self.handle.addr()), rng));
        }
        let wires: Vec<Wire> = refs.iter().map(|(r, _, _)| r.wire()).collect();
        let tracing = self.log.is_some();
        let started = Instant::now();
        let deadline = started + window;
        let results: Vec<(Tally, Option<Log>, Instant)> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .query_clients
                .iter_mut()
                .take(clients)
                .map(|(conn, rng)| {
                    let (refs, wires) = (&refs, &wires);
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        let mut log = tracing.then(Log::default);
                        let mut last = started;
                        while Instant::now() < deadline {
                            let key = if batches > 0 && rng.below(BATCH_ONE_IN) == 0 {
                                singles + rng.below(batches)
                            } else {
                                rng.below(singles)
                            };
                            let (request, raw, identity) = &refs[key];
                            let Some(r) = exchange(conn, &mut tally, request, &wires[key]) else {
                                continue;
                            };
                            last = r.last_byte;
                            tally.query_ms.push(r.total_ms());
                            if r.body != *raw {
                                tally
                                    .fail(format!("{request:?}: body differs from warm reference"));
                            }
                            if let Some(log) = log.as_mut() {
                                log_request(log, 0, request, &r, Arc::clone(identity));
                            }
                        }
                        (tally, log, last)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("query client"))
                .collect()
        });
        let mut end = started;
        let mut latencies = Vec::new();
        for (tally, log, last) in results {
            latencies.extend_from_slice(&tally.query_ms);
            self.tally.absorb(tally);
            end = end.max(last);
            if let (Some(mine), Some(theirs)) = (self.log.as_mut(), log) {
                mine.spans.extend(theirs.spans);
                mine.requests.extend(theirs.requests);
            }
        }
        if !latencies.is_empty() {
            self.tally.bursts.push(Burst {
                requests: latencies.len(),
                seconds: (end - started).as_secs_f64(),
                p50_ms: crate::stats::quantile(&latencies, 0.5),
                p99_ms: crate::stats::quantile(&latencies, 0.99),
            });
        }
    }

    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

pub fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text)
}

fn int(json: &Json, key: &str) -> Result<i128, String> {
    json.get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| format!("no integer {key:?}"))
}

fn rows(json: &Json, key: &str) -> Result<Vec<Vec<i128>>, String> {
    json.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("no array {key:?}"))?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or("row is not an array")?
                .iter()
                .map(|v| v.as_int().ok_or("non-integer cell".to_string()))
                .collect()
        })
        .collect()
}

fn cold_expect(h: &Hypergraph, dense: bool) -> ColdExpect {
    let st = Strategy::default();
    let m = h.num_edges();
    let max_s = if dense { 8 } else { 1 };
    let mut counts: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
    for s in (1..=max_s).chain([2, 4, 8]) {
        counts
            .entry(s)
            .or_insert_with(|| algo2_slinegraph(h, s, &st).edges);
    }
    let graph = |s: u32| SLineGraph::new_squeezed(s, m, counts[&s].clone());
    let first = |edges: &[(u32, u32)]| -> Vec<Vec<i128>> {
        edges
            .iter()
            .take(16)
            .map(|&(i, j)| vec![i128::from(i), i128::from(j)])
            .collect()
    };
    let l2 = graph(2);
    let (mut triples, _) = algo2_slinegraph_weighted(h, 2, &st);
    for t in triples.iter_mut() {
        if t.0 > t.1 {
            *t = (t.1, t.0, t.2);
        }
    }
    triples.sort_unstable();
    let components = if dense {
        graph(4).connected_components().len()
    } else {
        l2.connected_components().len()
    };
    let l8 = graph(8);
    ColdExpect {
        slg2: (
            l2.num_vertices() as i128,
            l2.num_edges() as i128,
            first(&l2.edges),
        ),
        weighted: (
            triples.len() as i128,
            triples
                .iter()
                .take(16)
                .map(|&(i, j, w)| vec![i.into(), j.into(), w.into()])
                .collect(),
        ),
        sweep: if dense {
            (1..=8)
                .map(|s| vec![i128::from(s), counts[&s].len() as i128])
                .collect()
        } else {
            Vec::new()
        },
        components: components as i128,
        spectrum: (
            l8.num_vertices() as i128,
            l8.num_edges() as i128,
            i128::from(l8.s_diameter()),
        ),
    }
}

fn check_cold(query: &Query, body: &[u8], e: &ColdExpect) -> Result<(), String> {
    let json = parse(body)?;
    let same = |what: &str, got: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
        let (g, w) = (format!("{got:?}"), format!("{want:?}"));
        if g == w {
            Ok(())
        } else {
            Err(format!("{what}: server {g}, library {w}"))
        }
    };
    match query.op {
        Op::Slg {
            weighted: false, ..
        } => {
            let got = (
                int(&json, "num_vertices")?,
                int(&json, "num_edges")?,
                rows(&json, "edges")?,
            );
            same("slg", &got, &e.slg2)
        }
        Op::Slg { weighted: true, .. } => {
            let got = (int(&json, "num_edges")?, rows(&json, "edges")?);
            same("weighted slg", &got, &e.weighted)
        }
        Op::Sweep { .. } => same("sweep", &rows(&json, "counts")?, &e.sweep),
        Op::Components { .. } => same("components", &int(&json, "count")?, &e.components),
        Op::Spectrum { .. } => {
            let got = (
                int(&json, "num_vertices")?,
                int(&json, "num_edges")?,
                int(&json, "diameter")?,
            );
            same("spectrum", &got, &e.spectrum)
        }
        Op::Betweenness { .. } => Ok(()),
    }
}
