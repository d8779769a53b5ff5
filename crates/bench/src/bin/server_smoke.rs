//! Server smoke benchmark: cold vs warm latency of the cache-backed
//! endpoints plus bytes-on-wire of the streamed edge-list path,
//! recorded to `BENCH_server.json`.
//!
//! Starts a real `hyperline-server` on an ephemeral port, loads a
//! generator profile, and measures — over raw TCP, like a client —
//! the cold (first, cache-miss) and warm (repeated, metric-tier hit)
//! latencies of `/sweep?max_s=8` and `/betweenness?s=2`, plus a warm
//! `/slg` artifact-tier read. A second section fetches the **full**
//! (un-`limit`ed) edge list cold and warm, with and without
//! `Accept-Encoding: gzip`, recording body bytes on the wire and the
//! peak-RSS proxy of each path: the streamed response renders through
//! fixed-size writer buffers, versus the body-sized buffer the old
//! render-then-send path would have allocated. A concurrency section
//! parks 100/1k/10k open keep-alive sockets (capped by the fd limit)
//! against the evented core and records request p50/p99 at each tier.
//! The JSON report is the bench trajectory's record of the cache +
//! transport behavior; `scripts/check.sh` runs this after the test
//! suite.
//!
//! `cargo run -p hyperline-bench --release --bin server_smoke`
//! Options: `--profile=genomics --seed=42 --reps=9 --out=BENCH_server.json`

use hyperline_bench::{arg, flag, print_header};
use hyperline_hypergraph::Hypergraph;
use hyperline_server::json::Json;
use hyperline_server::{gzip, http, DatasetSource, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One GET with optional extra headers; returns the raw response bytes.
fn get_raw(addr: SocketAddr, target: &str, extra_headers: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: bench\r\n{extra_headers}connection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    raw
}

/// One `Connection: close` GET; returns `(status, body)` with chunked
/// bodies reassembled.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let raw = get_raw(addr, target, "");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let body = if head
        .lines()
        .any(|l| l.eq_ignore_ascii_case("transfer-encoding: chunked"))
    {
        String::from_utf8(dechunk(body.as_bytes())).expect("UTF-8 chunked body")
    } else {
        body.to_string()
    };
    (status, body)
}

/// Reassembles a chunked body (shared strict helper, unwrapped).
fn dechunk(body: &[u8]) -> Vec<u8> {
    hyperline_server::http::dechunk(body).expect("well-formed chunked body")
}

/// Fault-tolerant GET for the overload burst: a shed connection may be
/// closed (or reset) before the request bytes are even read, and that
/// is the behavior under test, not an error.
fn try_get_status(addr: SocketAddr, target: &str) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    text.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))
}

fn percentile(sorted_micros: &[f64], p: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_micros.len() as f64 - 1.0) * p).round() as usize;
    sorted_micros[idx]
}

/// Queue-saturation and deadline-expiry behavior, measured against a
/// deliberately tiny second server (2 workers, queue depth 4, 100 ms
/// request deadline) so the main measurements stay undisturbed:
///
/// * a 64-connection burst of *distinct* betweenness keys (every
///   request computes; nothing coalesces) — how much is shed with 503,
///   and the client-side p99 of what completes under saturation;
/// * sequential requests against a star hypergraph whose `L_1` is far
///   beyond the deadline budget — how promptly expiry turns into 504.
fn overload_section() -> Json {
    let threads = 2usize;
    let queue_depth = 4usize;
    let deadline = Duration::from_millis(100);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        cache_mb: 64,
        queue_depth,
        read_timeout: Duration::from_secs(5),
        request_deadline: Some(deadline),
        ..ServerConfig::default()
    })
    .expect("bind overload server");
    server
        .registry()
        .load_profile("lesMis", 42, None)
        .expect("load overload profile");
    // Star: 3000 hyperedges sharing vertex 0, so L_1 is the complete
    // graph (~4.5M line edges) — reliably past any 100 ms budget.
    let lists: Vec<Vec<u32>> = (0..3000u32)
        .map(|i| vec![0, 2 * i + 1, 2 * i + 2])
        .collect();
    server.registry().insert(
        "star",
        Hypergraph::from_edge_lists(&lists, 6001),
        DatasetSource::Inline,
    );
    let handle = server.spawn();
    let addr = handle.addr();

    let connections = 64usize;
    let outcomes: Vec<(Option<u16>, f64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|i| {
                scope.spawn(move || {
                    let started = Instant::now();
                    // samples=i+1 makes every key distinct: single-flight
                    // cannot coalesce the burst away.
                    let status = try_get_status(
                        addr,
                        &format!("/datasets/lesMis/betweenness?s=2&samples={}", i + 1),
                    )
                    .ok();
                    (status, started.elapsed().as_secs_f64() * 1e6)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("overload client"))
            .collect()
    });
    let count = |code: u16| outcomes.iter().filter(|(s, _)| *s == Some(code)).count();
    let (completed, shed, expired) = (count(200), count(503), count(504));
    let transport_errors = outcomes.iter().filter(|(s, _)| s.is_none()).count();
    let mut completed_micros: Vec<f64> = outcomes
        .iter()
        .filter(|(s, _)| *s == Some(200))
        .map(|&(_, micros)| micros)
        .collect();
    completed_micros.sort_by(|a, b| a.total_cmp(b));

    let expiry_reps = 5usize;
    let mut expiry_micros = Vec::with_capacity(expiry_reps);
    let mut expiry_504s = 0usize;
    for _ in 0..expiry_reps {
        let started = Instant::now();
        if matches!(try_get_status(addr, "/datasets/star/slg?s=1"), Ok(504)) {
            expiry_504s += 1;
        }
        expiry_micros.push(started.elapsed().as_secs_f64() * 1e6);
    }
    expiry_micros.sort_by(|a, b| a.total_cmp(b));
    let expiry_median = percentile(&expiry_micros, 0.5);
    handle.shutdown();

    println!(
        "overload       {connections} conns -> {completed}x200 {shed}x503 {expired}x504 \
         ({transport_errors} io)   completed p99 {:.0}us   504 median {:.0}us (budget {}ms)",
        percentile(&completed_micros, 0.99),
        expiry_median,
        deadline.as_millis(),
    );
    Json::obj()
        .set("threads", threads)
        .set("queue_depth", queue_depth)
        .set("connections", connections)
        .set("completed_200", completed)
        .set("shed_503", shed)
        .set("expired_504", expired)
        .set("transport_errors", transport_errors)
        .set("shed_rate", shed as f64 / connections as f64)
        .set("completed_p50_micros", percentile(&completed_micros, 0.5))
        .set("completed_p99_micros", percentile(&completed_micros, 0.99))
        .set(
            "deadline",
            Json::obj()
                .set("deadline_ms", deadline.as_millis() as u64)
                .set("requests", expiry_reps)
                .set("expired_504", expiry_504s)
                .set("latency_micros_median", expiry_median)
                .set(
                    "overshoot_micros_median",
                    expiry_median - deadline.as_secs_f64() * 1e6,
                ),
        )
}

/// Soft fd limit from `/proc/self/limits` (`Max open files`).
fn read_fd_limit() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Reads one keep-alive response off `stream` (content-length framed,
/// which is what `/healthz` answers).
fn read_keep_alive_response(stream: &mut TcpStream) -> Result<String, String> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("keep-alive read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        raw.extend_from_slice(&buf[..n]);
        let text = String::from_utf8_lossy(&raw);
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            let len = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse::<usize>().ok())?
                })
                .expect("content-length framing");
            if body.len() >= len {
                return Ok(text.into_owned());
            }
        }
    }
}

/// Concurrent-connections section: the evented core's headline claim.
/// Parks 100 / 1k / 10k open keep-alive sockets (capped by the fd
/// limit — each in-process client costs two fds: the client end and
/// the server socket) and measures request p50/p99 with all of them
/// open. Idle sockets cost the loop nothing but a timer entry, so
/// latency should stay flat across tiers. Each tier reports as
/// `connections` the loop's own connection gauge, read just before the
/// probes.
///
/// The probed sockets are the tier's last 50, connected only once the
/// rest of the tier is registered: each socket's idle timer starts at
/// accept, so probing the oldest sockets instead would race their idle
/// timeout against however long the tier took to set up.
fn concurrency_section() -> Json {
    let fd_limit = read_fd_limit().unwrap_or(1024);
    let max_open = (fd_limit.saturating_sub(512) / 2).max(64);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        queue_depth: 256,
        // Generous idle budget: parked sockets must survive the slower
        // tiers' setup, not be reaped as idle keep-alives.
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind concurrency server");
    let handle = server.spawn();
    let addr = handle.addr();
    let gauge = || {
        handle
            .state()
            .metrics
            .event_loop_connections
            .load(std::sync::atomic::Ordering::Relaxed)
    };

    let mut tiers = Vec::new();
    let mut max_sustained = 0i64;
    let mut capped = false;
    for target in [100usize, 1000, 10000] {
        let open = target.min(max_open);
        if open < target {
            capped = true;
            println!("concurrency: tier {target} capped to {open} by fd limit {fd_limit}");
        }
        let sample = open.min(50);
        let mut parked: Vec<TcpStream> = Vec::with_capacity(open);
        // The loop owns a connection once it is epoll-registered; wait
        // for the gauge to account for `count` parked sockets. Returns
        // false when the wait timed out.
        let park = |parked: &mut Vec<TcpStream>, count: usize| {
            while parked.len() < count {
                let stream = TcpStream::connect(addr).expect("connect parked socket");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                parked.push(stream);
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            while gauge() < count as i64 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            gauge() >= count as i64
        };
        let bulk_registered = park(&mut parked, open - sample);
        // The probed sockets connect last, so their idle timers start
        // just before the probes however long the bulk took.
        let all_registered = park(&mut parked, open);
        let connections = gauge();
        assert!(
            bulk_registered && all_registered,
            "tier {target}: the loop holds {connections} of {open} parked sockets"
        );
        max_sustained = max_sustained.max(connections);
        // p50/p99 of sequential probes round-robined over the newest
        // parked (live, keep-alive) sockets.
        let probes = 200usize;
        let mut micros = Vec::with_capacity(probes);
        for i in 0..probes {
            let stream = &mut parked[open - sample + i % sample];
            let started = Instant::now();
            write!(stream, "GET /healthz HTTP/1.1\r\nhost: bench\r\n\r\n").expect("probe write");
            let response = read_keep_alive_response(stream).unwrap_or_else(|e| {
                panic!(
                    "probe {i} at the {open}-socket tier: {e} (gauge {})",
                    gauge()
                )
            });
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            micros.push(started.elapsed().as_secs_f64() * 1e6);
        }
        micros.sort_by(|a, b| a.total_cmp(b));
        let (p50, p99) = (percentile(&micros, 0.5), percentile(&micros, 0.99));
        println!(
            "concurrency    {connections:>6} open sockets   p50 {p50:>7.0} us   p99 {p99:>7.0} us"
        );
        tiers.push(
            Json::obj()
                .set("target", target)
                .set("connections", connections)
                .set("p50_micros", p50)
                .set("p99_micros", p99),
        );
        drop(parked);
        // Let the loop reap the mass close before the next tier piles on.
        let deadline = Instant::now() + Duration::from_secs(20);
        while gauge() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    handle.shutdown();
    println!("concurrency: sustained {max_sustained} connections");
    Json::obj()
        .set("fd_limit", fd_limit)
        .set("capped", capped)
        .set("max_sustained", max_sustained)
        .set("tiers", Json::Arr(tiers))
}

/// Cold latency + median warm latency (of `reps` repeats) for `target`,
/// asserting 200s and byte-identical repeated bodies along the way
/// (modulo the `/slg` cache-outcome tag, which legitimately flips from
/// `miss` to `hit`).
fn measure(addr: SocketAddr, target: &str, reps: usize) -> (f64, f64) {
    fn normalize(body: &str) -> String {
        body.replace("\"cache\":\"miss\"", "\"cache\":\"hit\"")
            .replace("\"cache\":\"coalesced\"", "\"cache\":\"hit\"")
    }
    let started = Instant::now();
    let (status, cold_body) = get(addr, target);
    let cold = started.elapsed().as_secs_f64() * 1e6;
    assert_eq!(status, 200, "{target}: {cold_body}");
    let mut warm: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let started = Instant::now();
            let (status, body) = get(addr, target);
            assert_eq!(status, 200);
            assert_eq!(
                normalize(&body),
                normalize(&cold_body),
                "{target}: response diverged"
            );
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    warm.sort_by(|a, b| a.total_cmp(b));
    (cold, warm[warm.len() / 2])
}

fn endpoint_report(
    name: &str,
    cold_micros: f64,
    warm_micros: f64,
    metrics: &Json,
) -> hyperline_server::json::Json {
    // Alongside the client-side round-trips, read the server's own
    // latency histogram for the route: p50/p99 of every request it
    // handled, measured server-side (parse to response, no socket).
    let (p50, p99) = route_quantiles(metrics, name);
    println!(
        "{name:<14} cold {:>10.0} us   warm {:>8.0} us   speedup {:>8.1}x   server p50 {p50:>6} us  p99 {p99:>6} us",
        cold_micros,
        warm_micros,
        cold_micros / warm_micros
    );
    Json::obj()
        .set("endpoint", name)
        .set("cold_micros", cold_micros)
        .set("warm_micros_median", warm_micros)
        .set("speedup", cold_micros / warm_micros)
        .set("server_p50_micros", p50)
        .set("server_p99_micros", p99)
}

/// `(p50, p99)` of a route's server-side latency histogram in a parsed
/// `/metrics` body.
fn route_quantiles(metrics: &Json, route: &str) -> (i64, i64) {
    let hist = metrics
        .get("endpoints")
        .and_then(|e| e.get(route))
        .and_then(|r| r.get("latency"))
        .unwrap_or_else(|| panic!("no latency histogram for route {route}"));
    let q = |key: &str| hist.get(key).and_then(Json::as_int).unwrap_or(0) as i64;
    (q("p50"), q("p99"))
}

/// Numeric field lookup in a parsed JSON object.
fn num(obj: &Json, key: &str) -> Option<f64> {
    match obj.get(key)? {
        Json::Int(i) => Some(*i as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

/// Rewrites the checked-in `/metrics` key-set snapshot
/// (`scripts/metrics_schema.txt`) from a live `/metrics` body. The
/// server's integration tests compare the two, so this is how a
/// deliberate schema change is accepted.
fn update_metrics_schema(metrics: &Json, snapshot_path: &str) {
    std::fs::write(snapshot_path, metrics.key_schema()).expect("write schema snapshot");
    println!("metrics schema: updated {snapshot_path}");
}

fn main() {
    print_header("server smoke: cold vs warm latency of the two-tier cache");
    let profile: String = arg("profile", "genomics".to_string());
    let seed: u64 = arg("seed", 42);
    let reps: usize = arg("reps", 9);
    let out: String = arg("out", "BENCH_server.json".to_string());

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let name = server
        .registry()
        .load_profile(&profile, seed, None)
        .expect("load profile");
    let handle = server.spawn();
    let addr = handle.addr();

    // `/slg` first: after the sweep below, its L2 would be derived from
    // the sweep's resident L1, hiding the count a cold artifact pays.
    let (slg_cold, slg_warm) = measure(addr, &format!("/datasets/{name}/slg?s=2&limit=16"), reps);
    let (sweep_cold, sweep_warm) = measure(addr, &format!("/datasets/{name}/sweep?max_s=8"), reps);
    let (bc_cold, bc_warm) = measure(addr, &format!("/datasets/{name}/betweenness?s=2"), reps);

    // Wire section: the full (un-`limit`ed) edge list, cold and warm,
    // identity and gzip, on a second dataset instance so the cold
    // request genuinely builds its artifact.
    let wire_name = handle
        .state()
        .registry
        .load_profile(&profile, seed + 1, Some("wire"))
        .expect("load wire profile");
    let wire_target = format!("/datasets/{wire_name}/slg?s=2&limit=1000000000");
    let split_body = |raw: &[u8]| -> Vec<u8> {
        let boundary = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head/body boundary");
        dechunk(&raw[boundary + 4..])
    };
    let started = Instant::now();
    let _ = get_raw(addr, &wire_target, "");
    let wire_cold = started.elapsed().as_secs_f64() * 1e6;
    let started = Instant::now();
    let warm_raw = get_raw(addr, &wire_target, "");
    let wire_warm = started.elapsed().as_secs_f64() * 1e6;
    let identity_body = split_body(&warm_raw);
    let started = Instant::now();
    let gzip_raw = get_raw(addr, &wire_target, "accept-encoding: gzip\r\n");
    let wire_warm_gzip = started.elapsed().as_secs_f64() * 1e6;
    let gzip_body = split_body(&gzip_raw);
    let decoded = gzip::decode(&gzip_body).expect("valid gzip body");
    assert_eq!(
        decoded, identity_body,
        "gzip body must round-trip byte-identical"
    );
    let gzip_ratio = identity_body.len() as f64 / gzip_body.len() as f64;
    // The encoder alone on the same body (median of 5 one-shot encodes),
    // and on a small query body, where per-block setup dominates.
    let median_secs = |reps: usize, body: &[u8]| -> f64 {
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(gzip::compress(std::hint::black_box(body)));
                }
                t.elapsed().as_secs_f64() / reps as f64
            })
            .collect();
        times.sort_by(|a, b| a.total_cmp(b));
        times[times.len() / 2]
    };
    let encode_secs = median_secs(1, &identity_body);
    let encode_bytes = gzip::compress(&identity_body).len();
    let encode_mbps = identity_body.len() as f64 / encode_secs / 1e6;
    let (status, small_body) = get(addr, &format!("/datasets/{wire_name}/slg?s=2&limit=10"));
    assert_eq!(status, 200);
    let small_micros = median_secs(2000, small_body.as_bytes()) * 1e6;
    // Peak-RSS proxy of the response path: the streamed writer stack
    // buffers one chunk frame plus the gzip stream's bounded state,
    // versus the body-sized String the buffered path would allocate.
    let streamed_buffer_bytes = http::CHUNK_BYTES + gzip::STREAM_BUFFER_BYTES;
    println!(
        "slg-full       cold {:>10.0} us   warm {:>8.0} us   gzip-warm {:>8.0} us",
        wire_cold, wire_warm, wire_warm_gzip
    );
    println!(
        "wire bytes     identity {:>9}   gzip {:>9}   ratio {:>6.2}x   body-buffer {} B (streamed) vs {} B (buffered)",
        identity_body.len(),
        gzip_body.len(),
        gzip_ratio,
        streamed_buffer_bytes,
        identity_body.len(),
    );
    println!(
        "gzip encode    {:>7.1} MB/s ({} B)   {:.1} us per {} B body",
        encode_mbps,
        encode_bytes,
        small_micros,
        small_body.len(),
    );

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics_json = Json::parse(&metrics).expect("/metrics body parses");
    if flag("update-schema") {
        update_metrics_schema(
            &metrics_json,
            &arg("schema", "scripts/metrics_schema.txt".to_string()),
        );
    }
    // The previous report, for the warn-only trajectory comparison.
    let previous = std::fs::read_to_string(&out)
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let endpoints = vec![
        endpoint_report("slg", slg_cold, slg_warm, &metrics_json),
        endpoint_report("sweep", sweep_cold, sweep_warm, &metrics_json),
        endpoint_report("betweenness", bc_cold, bc_warm, &metrics_json),
    ];
    // Warn-only: flag any endpoint whose latency regressed > 20% vs the
    // previous run (client round-trips and server-side quantiles alike).
    // Sub-50µs numbers are scheduler noise, not signal.
    let mut warnings = 0usize;
    if let Some(prev_endpoints) = previous
        .as_ref()
        .and_then(|p| p.get("endpoints"))
        .and_then(Json::as_array)
    {
        for entry in &endpoints {
            let endpoint = entry.get("endpoint").and_then(Json::as_str).unwrap();
            let Some(prev) = prev_endpoints
                .iter()
                .find(|p| p.get("endpoint").and_then(Json::as_str) == Some(endpoint))
            else {
                continue;
            };
            for field in [
                "cold_micros",
                "warm_micros_median",
                "server_p50_micros",
                "server_p99_micros",
            ] {
                let (Some(old), Some(new)) = (num(prev, field), num(entry, field)) else {
                    continue;
                };
                if old > 50.0 && new > old * 1.2 {
                    warnings += 1;
                    println!(
                        "  WARN {endpoint} {field}: {old:.0}us -> {new:.0}us (+{:.0}%)",
                        (new / old - 1.0) * 100.0
                    );
                }
            }
        }
    }
    let overload = overload_section();
    let concurrency = concurrency_section();
    let report = Json::obj()
        .set("profile", name.as_str())
        .set("seed", seed)
        .set("reps", reps)
        .set("endpoints", Json::Arr(endpoints))
        .set("overload", overload)
        .set("concurrency", concurrency)
        .set(
            "wire",
            Json::obj()
                .set("endpoint", "slg-full")
                .set("dataset", wire_name.as_str())
                .set("cold_micros", wire_cold)
                .set("warm_micros_identity", wire_warm)
                .set("warm_micros_gzip", wire_warm_gzip)
                .set("body_bytes_identity", identity_body.len())
                .set("body_bytes_gzip", gzip_body.len())
                .set("wire_bytes_identity_total", warm_raw.len())
                .set("wire_bytes_gzip_total", gzip_raw.len())
                .set("gzip_ratio", gzip_ratio)
                .set(
                    "gzip_encode",
                    Json::obj()
                        .set("micros", encode_secs * 1e6)
                        .set("bytes", encode_bytes)
                        .set("mb_per_s", encode_mbps)
                        .set("small_body_bytes", small_body.len())
                        .set("small_body_micros", small_micros),
                )
                .set("streamed", true)
                .set("peak_body_buffer_bytes_streamed", streamed_buffer_bytes)
                .set("peak_body_buffer_bytes_buffered", identity_body.len()),
        );
    std::fs::write(&out, report.render()).expect("write report");
    println!(
        "\nwrote {out}{}",
        if warnings > 0 {
            format!(" ({warnings} warn-only regressions vs previous run)")
        } else {
            String::new()
        }
    );
    // Surface the tier counters so a broken cache is visible in CI logs.
    if let Some(cache) = metrics
        .split("\"cache\":")
        .nth(1)
        .and_then(|rest| rest.split("},\"endpoints\"").next())
    {
        println!("cache tiers: {cache}}}");
    }
    handle.shutdown();
}
