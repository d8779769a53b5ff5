//! End-to-end tests: a real listener on an ephemeral port, raw TCP
//! clients, concurrency, cache behavior and the wire protocol.

use hyperline_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Minimal HTTP/1.1 client: one request, `Connection: close`, returns
/// `(status, body)`.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

fn post(addr: SocketAddr, target: &str) -> (u16, String) {
    post_body(addr, target, "")
}

fn post_body(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw, ""));
    let chunked = head
        .lines()
        .any(|l| l.eq_ignore_ascii_case("transfer-encoding: chunked"));
    let body = if chunked {
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

fn start_server(profile: &str, threads: usize) -> (hyperline_server::ServerHandle, String) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        cache_mb: 64,
        queue_depth: 256,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let name = server
        .registry()
        .load_profile(profile, 42, None)
        .expect("load profile");
    (server.spawn(), name)
}

#[test]
fn serves_basic_endpoints_over_tcp() {
    let (handle, name) = start_server("lesMis", 2);
    let addr = handle.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "{body}");

    let (status, body) = get(addr, "/datasets");
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"name\":\"{name}\"")), "{body}");

    let (status, body) = get(addr, &format!("/datasets/{name}/stats"));
    assert_eq!(status, 200);
    assert!(body.contains("\"hyperedges\":400"), "{body}");

    let (status, _) = get(addr, &format!("/datasets/{name}/slg?s=2&limit=5"));
    assert_eq!(status, 200);

    let (status, body) = get(addr, "/datasets/ghost/slg");
    assert_eq!(status, 404);
    assert!(body.contains("error"), "{body}");

    handle.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let (handle, _) = start_server("lesMis", 2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for i in 0..3 {
        write!(stream, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
        // Read exactly one response: headers + fixed content-length body.
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            buf.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&buf).to_string();
        assert!(head.starts_with("HTTP/1.1 200"), "request {i}: {head}");
        assert!(head.contains("connection: keep-alive"), "request {i}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        assert!(String::from_utf8_lossy(&body).contains("\"ok\":true"));
    }
    handle.shutdown();
}

#[test]
fn post_datasets_then_query() {
    let (handle, _) = start_server("lesMis", 2);
    let addr = handle.addr();
    let (status, body) = post(addr, "/datasets?profile=compBoard&seed=7&name=boards");
    assert_eq!(status, 201, "{body}");
    let (status, body) = get(addr, "/datasets/boards/spectrum?s=2");
    assert_eq!(status, 200);
    assert!(body.contains("\"algebraic_connectivity\""), "{body}");
    assert!(
        body.contains("\"algebraic_connectivity_converged\":true"),
        "{body}"
    );
    let (status, _) = post(addr, "/datasets?profile=not-a-profile");
    assert_eq!(status, 400);
    handle.shutdown();
}

/// Acceptance: ≥ 64 concurrent connections answered correctly — every
/// response is 200 and identical up to the cache-outcome field, and the
/// expensive construction ran exactly once (single-flight).
#[test]
fn sixty_four_concurrent_clients_get_identical_answers() {
    let (handle, name) = start_server("genomics", 8);
    let addr = handle.addr();
    let target = format!("/datasets/{name}/slg?s=2&limit=8");

    let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..64)
            .map(|_| scope.spawn(|| get(addr, &target)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let normalize = |body: &str| {
        body.replace("\"cache\":\"miss\"", "\"cache\":\"_\"")
            .replace("\"cache\":\"hit\"", "\"cache\":\"_\"")
            .replace("\"cache\":\"coalesced\"", "\"cache\":\"_\"")
    };
    let reference = normalize(&responses[0].1);
    assert!(reference.contains("\"num_edges\""), "{reference}");
    for (i, (status, body)) in responses.iter().enumerate() {
        assert_eq!(*status, 200, "client {i}");
        assert_eq!(normalize(body), reference, "client {i} diverged");
    }

    let stats = handle.state().cache.stats();
    assert_eq!(stats.misses, 1, "construction must run exactly once");
    assert_eq!(
        stats.hits + stats.coalesced,
        63,
        "everyone else shares the artifact"
    );
    handle.shutdown();
}

/// Acceptance: a repeated s-line-graph query is served from cache with
/// ≥ 10× lower latency than the cold first request.
#[test]
fn cached_queries_are_at_least_ten_times_faster() {
    let (handle, name) = start_server("genomics", 4);
    let addr = handle.addr();
    let target = format!("/datasets/{name}/slg?s=2&limit=8");

    let cold_started = Instant::now();
    let (status, body) = get(addr, &target);
    let cold = cold_started.elapsed();
    assert_eq!(status, 200);
    assert!(body.contains("\"cache\":\"miss\""), "{body}");

    // Median of several warm requests to damp scheduler noise.
    let mut warm_times: Vec<Duration> = (0..7)
        .map(|_| {
            let started = Instant::now();
            let (status, body) = get(addr, &target);
            assert_eq!(status, 200);
            assert!(body.contains("\"cache\":\"hit\""), "{body}");
            started.elapsed()
        })
        .collect();
    warm_times.sort();
    let warm = warm_times[warm_times.len() / 2];

    assert!(
        cold >= warm * 10,
        "cold {cold:?} vs warm {warm:?}: expected ≥ 10× speedup from the cache"
    );
    handle.shutdown();
}

#[test]
fn metrics_reflect_traffic_and_cache_state() {
    let (handle, name) = start_server("lesMis", 2);
    let addr = handle.addr();
    for _ in 0..3 {
        let (status, _) = get(addr, &format!("/datasets/{name}/slg?s=2&limit=4"));
        assert_eq!(status, 200);
    }
    let (status, _) = get(addr, "/datasets/ghost/components");
    assert_eq!(status, 404);

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"artifacts\":{\"hits\":2,\"misses\":1"),
        "{body}"
    );
    assert!(body.contains("\"endpoints\""), "{body}");
    // The slg endpoint saw 3 requests, none failed.
    assert!(
        body.contains("\"slg\":{\"requests\":3,\"errors\":0"),
        "{body}"
    );
    // The 404 was recorded on components.
    assert!(
        body.contains("\"components\":{\"requests\":1,\"errors\":1"),
        "{body}"
    );
    handle.shutdown();
}

/// Dashboards and scrapers key on the `/metrics` JSON paths, so the key
/// set changes only deliberately: it must match the checked-in snapshot,
/// which `server_smoke --update-schema` rewrites. The set is fixed by the
/// route list and the cache tiers, so an idle server with no datasets
/// shows all of it.
/// A `/metrics` scrape reads each cache tier's statistics without
/// timing the tier's lock, so scraping an idle server never feeds the
/// `lock_hold` histograms.
#[test]
fn metrics_scrapes_record_no_lock_hold() {
    let (handle, _) = start_server("lesMis", 1);
    let state = handle.state();
    let holds = || {
        [
            state.cache.lock_hold_histogram(),
            state.metric_cache.lock_hold_histogram(),
        ]
        .map(|h| h.count())
    };
    for target in ["/metrics", "/metrics?format=prometheus"] {
        let (status, _) = get(handle.addr(), target);
        assert_eq!(status, 200);
        assert_eq!(holds(), [0, 0], "{target} recorded a lock hold");
    }
    handle.shutdown();
}

#[test]
fn metrics_key_set_matches_the_checked_in_schema() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let handle = server.spawn();
    let (status, body) = get(handle.addr(), "/metrics");
    handle.shutdown();
    assert_eq!(status, 200);
    let current = hyperline_server::json::Json::parse(&body)
        .expect("/metrics body parses")
        .key_schema();
    let expected = include_str!("../../../scripts/metrics_schema.txt");
    if current != expected {
        for path in expected
            .lines()
            .filter(|p| !current.lines().any(|c| c == *p))
        {
            eprintln!("  removed: {path}");
        }
        for path in current
            .lines()
            .filter(|p| !expected.lines().any(|e| e == *p))
        {
            eprintln!("  added:   {path}");
        }
        panic!(
            "/metrics key set diverged from scripts/metrics_schema.txt; rerun \
             `cargo run --release -p hyperline-bench --bin server_smoke -- --update-schema` \
             if the change is deliberate"
        );
    }
}

#[test]
fn malformed_requests_get_400_and_close() {
    let (handle, _) = start_server("lesMis", 2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "BOGUS\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    handle.shutdown();
}

/// EOF inside a request head answers 400 and counts a bad request; EOF
/// between requests is a quiet keep-alive close that counts nothing.
#[test]
fn eof_mid_head_is_a_bad_request_and_eof_between_requests_is_not() {
    let (handle, _) = start_server("lesMis", 2);
    let addr = handle.addr();
    let metrics = &handle.state().metrics;
    let bad_requests = || metrics.bad_requests.load(Ordering::Relaxed);
    // Sends `bytes`, shuts the write half, and reads until the server
    // closes.
    let exchange = |bytes: &[u8]| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    };

    let raw = exchange(b"GET / HTTP/1.1\r\nHost: a\r\n");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("connection closed mid-headers"), "{raw}");
    assert_eq!(bad_requests(), 1);

    // A close before the first byte, and one right after a complete
    // keep-alive exchange. Wait until the loop has registered and
    // closed both, so the check cannot run ahead of the EOFs.
    drop(TcpStream::connect(addr).unwrap());
    let raw = exchange(b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.connections_accepted.load(Ordering::Relaxed) < 3
        || metrics.event_loop_connections.load(Ordering::Relaxed) > 0
    {
        assert!(Instant::now() < deadline, "connections never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        bad_requests(),
        1,
        "a close between requests is no bad request"
    );
    handle.shutdown();
}

/// Acceptance: warm `/sweep?max_s=8` and warm `/betweenness` are each
/// ≥ 5× faster than cold, repeated identical requests return
/// byte-identical bodies, and the metric-tier hits are visible in
/// `/metrics`.
#[test]
fn warm_sweep_and_betweenness_are_five_times_faster() {
    let (handle, name) = start_server("genomics", 4);
    let addr = handle.addr();

    let timed = |target: &str| {
        let cold_started = Instant::now();
        let (status, cold_body) = get(addr, target);
        let cold = cold_started.elapsed();
        assert_eq!(status, 200, "{target}: {cold_body}");
        let mut warm_times: Vec<Duration> = Vec::new();
        for _ in 0..7 {
            let started = Instant::now();
            let (status, warm_body) = get(addr, target);
            warm_times.push(started.elapsed());
            assert_eq!(status, 200);
            assert_eq!(
                cold_body, warm_body,
                "{target}: repeated responses diverged"
            );
        }
        warm_times.sort();
        let warm = warm_times[warm_times.len() / 2];
        assert!(
            cold >= warm * 5,
            "{target}: cold {cold:?} vs warm {warm:?}: expected ≥ 5× speedup"
        );
    };

    timed(&format!("/datasets/{name}/sweep?max_s=8"));
    timed(&format!("/datasets/{name}/betweenness?s=2&top=10"));

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    // 16 requests, 2 metric-tier computes: 14 hits.
    assert!(
        body.contains("\"metrics\":{\"hits\":14,\"misses\":2"),
        "{body}"
    );
    handle.shutdown();
}

/// Acceptance: `POST /query` answers a batch of sub-queries in one
/// round-trip, reporting failures per item.
#[test]
fn batch_query_over_tcp() {
    let (handle, name) = start_server("lesMis", 2);
    let addr = handle.addr();
    let body = format!(
        r#"[{{"dataset":"{name}","op":"stats"}},
            {{"dataset":"{name}","op":"sweep","max_s":3}},
            {{"dataset":"{name}","op":"slg","s":2,"limit":4}},
            {{"dataset":"{name}","op":"betweenness","s":2,"top":3}},
            {{"dataset":"ghost","op":"stats"}}]"#
    );
    let (status, response) = post_body(addr, "/query", &body);
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"count\":5"), "{response}");
    assert!(response.contains("\"hyperedges\":400"), "{response}");
    assert!(response.contains("\"counts\":[[1,"), "{response}");
    assert!(response.contains("\"ranking\""), "{response}");
    assert!(response.contains("\"error\""), "{response}");

    // The batch populated both tiers: the equivalent GETs are warm.
    let (status, body) = get(addr, &format!("/datasets/{name}/slg?s=2&limit=4"));
    assert_eq!(status, 200);
    assert!(body.contains("\"cache\":\"hit\""), "{body}");

    // A malformed body is a 400 for the whole batch.
    let (status, response) = post_body(addr, "/query", "this is not json");
    assert_eq!(status, 400);
    assert!(response.contains("error"), "{response}");
    handle.shutdown();
}

/// Percent-encoded paths and query values resolve to the same resources
/// (and the same cache keys) as their literal spellings.
#[test]
fn percent_encoded_requests_resolve() {
    let (handle, name) = start_server("lesMis", 2);
    let addr = handle.addr();

    let (status, plain) = get(addr, &format!("/datasets/{name}/slg?s=2&limit=4"));
    assert_eq!(status, 200);
    assert!(plain.contains("\"cache\":\"miss\""), "{plain}");
    // `%32` is '2'; the encoded spelling must hit the artifact the plain
    // one cached (same key), not mint a new one.
    let (status, encoded) = get(addr, &format!("/datasets/{name}/slg?s=%32&limit=4"));
    assert_eq!(status, 200);
    assert!(encoded.contains("\"cache\":\"hit\""), "{encoded}");
    assert_eq!(
        plain.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
        encoded
    );
    // The dataset name is decodable in the path position too.
    let encoded_name: String = name.bytes().map(|b| format!("%{b:02x}")).collect();
    let (status, _) = get(addr, &format!("/datasets/{encoded_name}/stats"));
    assert_eq!(status, 200);

    // Invalid escapes are a 400, not a silent passthrough.
    let (status, body) = get(addr, &format!("/datasets/{name}/slg?s=%zz"));
    assert_eq!(status, 400, "{body}");
    let (status, _) = get(addr, "/datasets/bad%2name/stats");
    assert_eq!(status, 400);
    handle.shutdown();
}

#[test]
fn sweep_and_weighted_agree_with_library() {
    use hyperline_slinegraph::{algo2_slinegraph, algo2_slinegraph_weighted, Strategy};

    let (handle, name) = start_server("lesMis", 2);
    let addr = handle.addr();
    let h = hyperline_gen::Profile::LesMis.generate(42);

    // Sweep counts match direct library calls.
    let (status, body) = get(addr, &format!("/datasets/{name}/sweep?max_s=3"));
    assert_eq!(status, 200);
    for s in 1..=3u32 {
        let count = algo2_slinegraph(&h, s, &Strategy::default()).edges.len();
        assert!(
            body.contains(&format!("[{s},{count}]")),
            "s={s} count={count}: {body}"
        );
    }

    // Weighted edges are (i, j, overlap) with overlap >= s. The sweep
    // left L1 resident, with its overlaps, so L3 is derived from it
    // without a second count.
    let counted = pipeline_count(addr, &name, "counting");
    let derived = pipeline_count(addr, &name, "derive");
    let (status, body) = get(
        addr,
        &format!("/datasets/{name}/slg?s=3&weighted=1&limit=100000"),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"cache\":\"miss\""), "{body}");
    assert_eq!(pipeline_count(addr, &name, "counting"), counted);
    assert_eq!(pipeline_count(addr, &name, "derive"), derived + 1);
    let (expected, _) = algo2_slinegraph_weighted(&h, 3, &Strategy::default());
    assert!(
        body.contains(&format!("\"num_edges\":{}", expected.len())),
        "{body}"
    );
    let rows: Vec<String> = expected
        .iter()
        .map(|(i, j, n)| format!("[{i},{j},{n}]"))
        .collect();
    assert!(
        body.contains(&format!("\"edges\":[{}]", rows.join(","))),
        "{body}"
    );
    handle.shutdown();
}

/// The `count` of `stage` on dataset `name` in `/debug/pipeline`.
fn pipeline_count(addr: SocketAddr, name: &str, stage: &str) -> i128 {
    use hyperline_server::json::Json;
    let (status, body) = get(addr, "/debug/pipeline");
    assert_eq!(status, 200);
    Json::parse(&body)
        .unwrap()
        .get("datasets")
        .and_then(|d| d.get(name))
        .and_then(|d| d.get(stage))
        .and_then(|s| s.get("count"))
        .and_then(Json::as_int)
        .unwrap_or(0)
}

#[test]
fn derived_and_counted_answers_are_byte_identical() {
    let (handle, name) = start_server("genomics", 2);
    let addr = handle.addr();
    // Ascending s: each L_s after the first derives from a lower one.
    let ascending = [
        "slg?s=2",
        "slg?s=2&weighted=1",
        "slg?s=3&weighted=1",
        "components?s=3",
        "spectrum?s=8",
        "slg?s=8",
        "sweep?max_s=8",
    ];
    // Descending s: no lower artifact exists, so each s counts.
    let descending = [
        "spectrum?s=8",
        "slg?s=8",
        "slg?s=3&weighted=1",
        "components?s=3",
        "slg?s=2&weighted=1",
        "slg?s=2",
        "sweep?max_s=8",
    ];
    // The /slg cache tag is the one field allowed to differ.
    let answer = |query: &str| {
        let (status, body) = get(addr, &format!("/datasets/{name}/{query}&limit=100000"));
        assert_eq!(status, 200, "{query}: {body}");
        ["miss", "hit", "coalesced"].iter().fold(body, |body, tag| {
            body.replace(&format!("\"cache\":\"{tag}\","), "")
        })
    };
    let counting = || pipeline_count(addr, &name, "counting");

    let before = counting();
    let derived: Vec<String> = ascending.iter().map(|q| answer(q)).collect();
    // Counted at s=2 and, for the sweep, at s=1; everything else derived.
    assert_eq!(counting() - before, 2);
    assert!(pipeline_count(addr, &name, "derive") >= 2);

    let (status, _) = post(
        addr,
        &format!("/datasets?profile=genomics&seed=42&name={name}"),
    );
    assert_eq!(status, 201);
    let before = counting();
    let counted: Vec<String> = descending.iter().map(|q| answer(q)).collect();
    // Counted at s=8, 3, 2 and, for the sweep, at s=1.
    assert_eq!(counting() - before, 4);

    for (k, query) in ascending.iter().enumerate() {
        let j = descending.iter().position(|q| q == query).unwrap();
        assert_eq!(derived[k], counted[j], "{query}");
    }
    // The bodies are not trivially empty, up to L8.
    assert!(derived[2].contains("\"edges\":[["), "{}", derived[2]);
    assert!(derived[5].contains("\"edges\":[["), "{}", derived[5]);
    handle.shutdown();
}

#[test]
fn access_log_and_pipeline_observability_end_to_end() {
    use hyperline_server::json::Json;

    let log_path =
        std::env::temp_dir().join(format!("hyperline-access-log-{}.jsonl", std::process::id()));
    std::fs::remove_file(&log_path).ok();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_mb: 64,
        access_log: Some(log_path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let name = server
        .registry()
        .load_profile("lesMis", 42, None)
        .expect("load profile");
    let handle = server.spawn();
    let addr = handle.addr();

    // A cold metric query exercises the full pipeline; a warm repeat
    // gives the log a cache-hit line.
    let (status, _) = get(addr, &format!("/datasets/{name}/spectrum?s=2"));
    assert_eq!(status, 200);
    let (status, _) = get(addr, &format!("/datasets/{name}/spectrum?s=2"));
    assert_eq!(status, 200);
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    // /debug/pipeline shows the collected stage tree over HTTP.
    let (status, body) = get(addr, "/debug/pipeline");
    assert_eq!(status, 200);
    for stage in ["counting", "merge", "postprocess", "csr", "stage5"] {
        assert!(body.contains(&format!("\"{stage}\"")), "{stage}: {body}");
    }

    // The Prometheus exposition serves over HTTP with its content-type.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET /metrics?format=prometheus HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.contains("content-type: text/plain; version=0.0.4"),
        "{raw}"
    );
    assert!(
        raw.contains("hyperline_requests_total{route=\"spectrum\"} 2"),
        "{raw}"
    );

    // Queue-wait samples were recorded for every handled connection.
    let (_, metrics) = get(addr, "/metrics");
    let parsed = Json::parse(&metrics).unwrap();
    let queue_wait = parsed
        .get("pool")
        .and_then(|p| p.get("queue_wait"))
        .expect("queue_wait histogram");
    assert!(queue_wait.get("count").unwrap().as_int().unwrap() >= 5);

    // Every request so far produced one structured JSONL line.
    handle.state().access_log().expect("log enabled").flush();
    let text = std::fs::read_to_string(&log_path).expect("log file exists");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 6, "expected >= 6 lines, got {}", lines.len());
    let records: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).expect("log line parses"))
        .collect();
    for record in &records {
        for field in [
            "id",
            "route",
            "status",
            "bytes_out",
            "gzip",
            "queue_wait_micros",
            "handle_micros",
        ] {
            assert!(record.get(field).is_some(), "missing {field}: {record:?}");
        }
        assert!(record.get("bytes_out").unwrap().as_int().unwrap() > 0);
    }
    // The cold/warm spectrum pair logs miss then hit, with dataset + s.
    let spectra: Vec<&Json> = records
        .iter()
        .filter(|r| r.get("route").and_then(Json::as_str) == Some("spectrum"))
        .collect();
    assert_eq!(spectra.len(), 2, "{text}");
    assert_eq!(spectra[0].get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(spectra[1].get("cache").unwrap().as_str(), Some("hit"));
    for r in &spectra {
        assert_eq!(r.get("dataset").unwrap().as_str(), Some(name.as_str()));
        assert_eq!(r.get("s").unwrap().as_int(), Some(2));
    }
    // Request IDs are unique and share one startup nonce.
    let ids: Vec<&str> = records
        .iter()
        .map(|r| r.get("id").unwrap().as_str().unwrap())
        .collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate request IDs");

    handle.shutdown();
    std::fs::remove_file(&log_path).ok();
}
