//! Chaos suite: deadlines, cancellation, slow-client defense, graceful
//! drain, and deterministic fault injection.
//!
//! The invariants under test, per ISSUE 9:
//!
//! * no request outlives its deadline by more than 500 ms;
//! * the server never answers `200` with a truncated body — chunked
//!   framing makes truncation client-visible, so every parsed `200`
//!   here must dechunk cleanly (or match its `content-length`);
//! * every injected fault lands in a telemetry counter;
//! * a drain completes within its bound, and workers never leak;
//! * a connection costs the server one fd, and a burst of connects
//!   waits in the listen backlog, not on a SYN retransmit.
//!
//! The failpoint registry is process-global, so every test serializes
//! on [`SERIAL`]; failpoint-driven tests are additionally
//! `#[cfg(debug_assertions)]` because the registry compiles to a no-op
//! in release builds.

use hyperline_hypergraph::Hypergraph;
use hyperline_server::cache::{AlgoKind, CacheKey, SingleFlightCache};
use hyperline_server::{DatasetSource, Route, Server, ServerConfig, ServerHandle};
use hyperline_util::failpoint;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Failpoints are process-global, and the fd test counts the whole
/// process's fds; chaos tests must not overlap. Poisoning is irrelevant
/// for a test-only lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// One-shot HTTP/1.1 GET over raw TCP, `Connection: close`.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let raw = get_raw(addr, target).expect("request io");
    parse_checked(&raw).expect("well-framed response")
}

/// Like [`get`] but surfaces transport errors instead of panicking —
/// under injected socket faults a dropped connection is expected.
fn get_raw(addr: SocketAddr, target: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Ok(String::from_utf8_lossy(&raw).into_owned())
}

fn post(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\ncontent-length: 0\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_checked(&raw).expect("well-framed response")
}

/// Parses a raw response and *verifies framing integrity*: a chunked
/// body must dechunk (terminal chunk present), a `content-length` body
/// must be complete. Returns `None` for responses truncated before the
/// header/body split — callers under fault injection decide whether
/// that is acceptable for the status they saw.
fn parse_checked(raw: &str) -> Option<(u16, String)> {
    let status: u16 = raw.split_whitespace().nth(1)?.parse().ok()?;
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let chunked = head
        .lines()
        .any(|l| l.eq_ignore_ascii_case("transfer-encoding: chunked"));
    if chunked {
        let body = hyperline_server::http::dechunk(body.as_bytes()).ok()?;
        return Some((status, String::from_utf8_lossy(&body).into_owned()));
    }
    if let Some(len) = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    }) {
        if body.len() < len {
            return None;
        }
        return Some((status, body[..len].to_string()));
    }
    Some((status, body.to_string()))
}

/// A star hypergraph: `n` hyperedges of size 3 all sharing vertex 0, so
/// `L_1(H)` is the complete graph on `n` nodes — `n·(n−1)/2` line edges
/// from a tiny input. The cheapest way to make one request arbitrarily
/// compute- and byte-heavy.
fn star(n: u32) -> Hypergraph {
    let lists: Vec<Vec<u32>> = (0..n).map(|i| vec![0, 2 * i + 1, 2 * i + 2]).collect();
    Hypergraph::from_edge_lists(&lists, 2 * n as usize + 1)
}

fn bind_star(n: u32, config: ServerConfig) -> ServerHandle {
    let server = Server::bind(config).expect("bind ephemeral port");
    server
        .registry()
        .insert("star", star(n), DatasetSource::Inline);
    server.spawn()
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_mb: 64,
        queue_depth: 64,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// Polls `probe` every 10 ms until it returns true or `bound` elapses.
fn eventually(bound: Duration, probe: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < bound {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    probe()
}

#[test]
fn deadline_expiry_is_a_prompt_504_and_workers_survive() {
    let _guard = serialize();
    // Global deadline is generous; the Slg route override is what
    // expires. stats (same dataset, no override) must still answer 200.
    let handle = bind_star(
        3000,
        ServerConfig {
            request_deadline: Some(Duration::from_secs(30)),
            route_deadlines: vec![(Route::Slg, Duration::from_millis(50))],
            ..base_config()
        },
    );
    let addr = handle.addr();

    let start = Instant::now();
    let (status, body) = get(addr, "/datasets/star/slg?s=1");
    let elapsed = start.elapsed();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("request deadline exceeded"), "{body}");
    // The hard invariant: deadline + 500 ms, however slow the kernel.
    assert!(
        elapsed < Duration::from_millis(50 + 500),
        "504 took {elapsed:?}, deadline was 50ms"
    );

    let metrics = &handle.state().metrics;
    assert!(metrics.deadline_expired.load(Ordering::Relaxed) >= 1);

    // Cancellation must not leak the worker or poison the cache slot:
    // the same route with a live budget (global 30 s) is untouched, and
    // an un-deadlined route still answers.
    let (status, body) = get(addr, "/datasets/star/stats");
    assert_eq!(status, 200, "{body}");
    assert!(
        eventually(Duration::from_secs(10), || {
            handle.state().metrics.busy_workers.load(Ordering::Relaxed) == 0
        }),
        "busy_workers did not return to 0"
    );
    handle.shutdown();
}

#[test]
fn slow_loris_head_is_cut_at_the_cumulative_deadline() {
    let _guard = serialize();
    let handle = bind_star(
        4,
        ServerConfig {
            read_timeout: Duration::from_secs(2),
            head_timeout: Duration::from_millis(300),
            ..base_config()
        },
    );
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let start = Instant::now();
    // Dribble a request head one byte at a time, each write inside the
    // 2 s idle timeout, the whole head far beyond the 300 ms cumulative
    // head deadline. Detect the server-side close via a write error
    // (one extra write may succeed into the dead socket's buffer).
    let head = b"GET /healthz HTTP/1.1\r\nhost: chaos\r\n";
    let mut closed = false;
    for chunk in head.iter().cycle().take(100) {
        if stream.write_all(std::slice::from_ref(chunk)).is_err() {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    let elapsed = start.elapsed();
    assert!(closed, "server never closed the dribbled head");
    assert!(
        elapsed < Duration::from_millis(300 + 1200),
        "slow-loris close took {elapsed:?}, head deadline was 300ms"
    );
    assert!(
        handle
            .state()
            .metrics
            .slow_loris_closes
            .load(Ordering::Relaxed)
            >= 1,
        "slow-loris close not counted"
    );
    // A normal request on a fresh connection is unaffected.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn slow_clients_abort_quietly_and_stalled_writes_are_bounded() {
    let _guard = serialize();
    // L_1 of star(1600) is ~1.28M line edges — tens of megabytes on the
    // wire, far beyond any loopback socket buffering.
    let handle = bind_star(
        1600,
        ServerConfig {
            write_timeout: Duration::from_millis(500),
            ..base_config()
        },
    );
    let addr = handle.addr();
    let metrics = &handle.state().metrics;
    let target = "/datasets/star/slg?s=1&limit=2000000";

    // Scenario A — mid-stream abort: read a little, then close with
    // unread data queued (the kernel turns that into an RST). The
    // server's next write fails EPIPE/ECONNRESET and must be counted
    // as a client abort, not an error.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n"
        )
        .unwrap();
        let mut first = [0u8; 1024];
        let _ = stream.read(&mut first).expect("first bytes");
        // Drop: close with megabytes still in flight.
    }
    assert!(
        eventually(Duration::from_secs(60), || {
            metrics.client_aborts.load(Ordering::Relaxed) >= 1
        }),
        "client abort not counted"
    );

    // Scenario B — write stall: request the same artifact (now cached)
    // and never read. Once the socket buffers fill, the server's write
    // must give up at the 500 ms write timeout instead of hanging.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    write!(
        stalled,
        "GET {target} HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    assert!(
        eventually(Duration::from_secs(60), || {
            metrics.write_stalls.load(Ordering::Relaxed) >= 1
        }),
        "write stall not counted"
    );
    drop(stalled);

    assert!(
        eventually(Duration::from_secs(10), || {
            metrics.busy_workers.load(Ordering::Relaxed) == 0
        }),
        "busy_workers did not return to 0 after slow clients"
    );
    handle.shutdown();
}

#[cfg(debug_assertions)]
#[test]
fn socket_faults_never_truncate_a_200() {
    let _guard = serialize();
    let server = Server::bind(base_config()).expect("bind");
    server.registry().load_profile("lesMis", 42, None).unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    let targets = [
        "/healthz",
        "/datasets/lesMis/stats",
        "/datasets",
        "/metrics",
    ];
    // Short writes are exercised separately (write_all retries them, so
    // they must be invisible to clients *and* to the error counters).
    failpoint::arm("socket.write=short@500", 5).expect("arm short writes");
    for target in targets {
        let (status, body) = get(addr, target);
        assert_eq!(status, 200, "short writes must be retried: {body}");
    }
    assert!(
        failpoint::fired("socket.write") > 0,
        "short schedule never fired"
    );
    for seed in [1u64, 7, 1234] {
        failpoint::arm("socket.read=err@120,socket.write=err@150", seed).expect("arm failpoints");
        for i in 0..24 {
            let target = targets[i % targets.len()];
            // Transport errors and truncated error responses are the
            // injected faults doing their job; the invariant is only
            // about *successful* responses.
            let Ok(raw) = get_raw(addr, target) else {
                continue;
            };
            if parse_checked(&raw).is_none() && raw.starts_with("HTTP/1.1 200") {
                // An injected socket fault may cut a 200 short, but the
                // truncation must be *client-detectable*: the head must
                // carry explicit framing (content-length or chunked),
                // never a close-delimited body that silently ends. A
                // head truncated before the blank line is malformed and
                // therefore also detectable.
                if let Some((head, _)) = raw.split_once("\r\n\r\n") {
                    let framed = head.lines().any(|l| {
                        l.to_ascii_lowercase().starts_with("content-length:")
                            || l.eq_ignore_ascii_case("transfer-encoding: chunked")
                    });
                    assert!(framed, "undetectably truncated 200 for {target}: {head}");
                }
            }
        }
        assert!(
            failpoint::total_fired() > 0,
            "schedule with seed {seed} never fired"
        );
    }
    failpoint::disarm();

    // Every injected write fault must have landed in a transport
    // counter (aborts or stalls), and the server must still be healthy.
    let m = &handle.state().metrics;
    assert!(
        m.client_aborts.load(Ordering::Relaxed) + m.write_stalls.load(Ordering::Relaxed) >= 1,
        "injected socket faults left no telemetry trace"
    );
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"faults\""), "{body}");
    handle.shutdown();
}

#[cfg(debug_assertions)]
#[test]
fn dataset_read_fault_is_a_clean_client_error() {
    let _guard = serialize();
    let dir = std::env::temp_dir().join("hyperline-chaos-data");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.hgr");
    hyperline_hypergraph::io::save_edge_list(&star(4), &path).unwrap();

    let server = Server::bind(ServerConfig {
        data_root: Some(dir.clone()),
        ..base_config()
    })
    .expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    failpoint::arm("dataset.read=err@1000", 9).expect("arm");
    let (status, body) = post(addr, "/datasets?path=chaos.hgr&name=chaos");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("injected fault at dataset.read"), "{body}");
    assert_eq!(failpoint::fired("dataset.read"), 1);
    failpoint::disarm();

    // The failure was transient config, not state: the same load
    // succeeds once the fault clears.
    let (status, body) = post(addr, "/datasets?path=chaos.hgr&name=chaos");
    assert_eq!(status, 201, "{body}");
    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[cfg(debug_assertions)]
#[test]
fn cache_insert_fault_serves_without_retaining() {
    let _guard = serialize();
    let server = Server::bind(base_config()).expect("bind");
    server.registry().load_profile("lesMis", 42, None).unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    failpoint::arm("cache.insert=err@1000", 3).expect("arm");
    // Every insert fails, so both identical requests recompute — and
    // both still answer 200 with the value that could not be cached.
    let (s1, b1) = get(addr, "/datasets/lesMis/slg?s=2&limit=5");
    let (s2, b2) = get(addr, "/datasets/lesMis/slg?s=2&limit=5");
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(
        b1.replace(char::is_numeric, ""),
        b2.replace(char::is_numeric, "")
    );
    assert!(failpoint::fired("cache.insert") >= 2, "inserts not retried");
    failpoint::disarm();

    // With the fault cleared the third request populates the cache.
    let (status, _) = get(addr, "/datasets/lesMis/slg?s=2&limit=5");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn single_flight_leader_panic_does_not_poison_the_slot() {
    let _guard = serialize();
    let cache: Arc<SingleFlightCache<CacheKey, u32>> = Arc::new(SingleFlightCache::new(1 << 20));
    // A live negative TTL proves panics are *not* negative-cached: the
    // recompute below must run, not be answered from the error cache.
    cache.set_negative_ttl(Duration::from_secs(10));
    let key = CacheKey {
        dataset: "d".to_string(),
        s: 1,
        algorithm: AlgoKind::Algo2,
        weighted: false,
    };

    let in_flight = Arc::new(Barrier::new(2));
    let leader = {
        let cache = Arc::clone(&cache);
        let key = key.clone();
        let in_flight = Arc::clone(&in_flight);
        std::thread::spawn(move || {
            cache.get_or_compute(&key, || {
                in_flight.wait();
                // Give the waiter time to join the flight before dying.
                std::thread::sleep(Duration::from_millis(150));
                panic!("leader died mid-compute");
            })
        })
    };
    in_flight.wait();
    std::thread::sleep(Duration::from_millis(30));
    let waiter_result = cache.get_or_compute(&key, || Ok((99, 4)));

    let leader_result = leader.join().expect("leader thread itself must not die");
    let leader_err = leader_result.expect_err("leader must see the panic as an error");
    assert!(leader_err.contains("panicked"), "{leader_err}");
    // The waiter either coalesced onto the doomed flight (clean error)
    // or raced in after cleanup and computed fresh — both are sound;
    // a hang or panic here is the regression.
    if let Err(e) = &waiter_result {
        assert!(e.contains("panicked"), "{e}");
    }

    // The slot recovered: the next compute wins and is cached.
    let (value, _) = cache
        .get_or_compute(&key, || Ok((7, 4)))
        .expect("recompute");
    assert_eq!(*value, 7);
    assert_eq!(*cache.get_or_compute(&key, || Ok((8, 4))).unwrap().0, 7);
}

#[test]
fn negative_cache_backs_off_thundering_herds() {
    let _guard = serialize();
    let cache: SingleFlightCache<CacheKey, u32> = SingleFlightCache::new(1 << 20);
    cache.set_negative_ttl(Duration::from_millis(200));
    let key = CacheKey {
        dataset: "d".to_string(),
        s: 1,
        algorithm: AlgoKind::Algo2,
        weighted: false,
    };
    let computes = AtomicU32::new(0);
    let failing = || {
        computes.fetch_add(1, Ordering::Relaxed);
        Err::<(u32, usize), String>("disk on fire".to_string())
    };

    assert_eq!(
        cache.get_or_compute(&key, failing).unwrap_err(),
        "disk on fire"
    );
    // Inside the TTL the error is served from the negative cache: the
    // compute does not run again, and the hit is counted.
    assert_eq!(
        cache.get_or_compute(&key, failing).unwrap_err(),
        "disk on fire"
    );
    assert_eq!(computes.load(Ordering::Relaxed), 1);
    assert_eq!(cache.stats().negative_hits, 1);

    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(
        cache.get_or_compute(&key, failing).unwrap_err(),
        "disk on fire"
    );
    assert_eq!(
        computes.load(Ordering::Relaxed),
        2,
        "TTL expiry must recompute"
    );
}

#[test]
fn admin_drain_closes_keep_alive_and_sheds_new_connections() {
    let _guard = serialize();
    // Two parked keep-alive connections + the drain trigger + the shed
    // probe: enough workers that nobody waits on an idle timeout.
    let server = Server::bind(ServerConfig {
        threads: 4,
        ..base_config()
    })
    .expect("bind");
    server.registry().load_profile("lesMis", 42, None).unwrap();
    let handle = server.spawn();
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    // Two keep-alive connections established before the drain: once
    // draining starts, *new* connections are shed at accept, so both
    // the drain trigger's idempotency check and the keep-alive close
    // must ride connections that predate it.
    let mut keep_alive = TcpStream::connect(addr).expect("connect");
    keep_alive
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(keep_alive, "GET /healthz HTTP/1.1\r\nhost: chaos\r\n\r\n").unwrap();
    let first = read_one_response(&mut keep_alive);
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");
    assert!(!header_says_close(&first), "{first}");

    let mut second_trigger = TcpStream::connect(addr).expect("connect");
    second_trigger
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        second_trigger,
        "GET /healthz HTTP/1.1\r\nhost: chaos\r\n\r\n"
    )
    .unwrap();
    let _ = read_one_response(&mut second_trigger);

    let drain_started = Instant::now();
    let (status, body) = post(addr, "/admin/drain?deadline_ms=3000");
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"draining\":true"), "{body}");
    assert!(state.is_draining());

    // The drain is idempotent: a second trigger (over a pre-drain
    // connection — new ones are already being shed) reports it was
    // already under way instead of spawning another drain.
    write!(
        second_trigger,
        "POST /admin/drain HTTP/1.1\r\nhost: chaos\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    let again = read_one_response(&mut second_trigger);
    assert!(again.starts_with("HTTP/1.1 202"), "{again}");
    assert!(again.contains("\"already_draining\":true"), "{again}");
    drop(second_trigger);

    // The pre-drain connection finishes its in-flight work, then is
    // told to close.
    write!(keep_alive, "GET /healthz HTTP/1.1\r\nhost: chaos\r\n\r\n").unwrap();
    let second = read_one_response(&mut keep_alive);
    assert!(second.starts_with("HTTP/1.1 200"), "{second}");
    assert!(
        header_says_close(&second),
        "drain did not close keep-alive: {second}"
    );
    drop(keep_alive);

    // New connections are shed with 503 + Retry-After before any
    // request byte is sent (the shed happens at accept).
    let mut shed = TcpStream::connect(addr).expect("connect");
    shed.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut raw = String::new();
    shed.read_to_string(&mut raw).expect("shed response");
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(
        raw.to_ascii_lowercase().contains("retry-after:"),
        "shed 503 without retry-after: {raw}"
    );

    // The drain itself completes within its bound: every connection
    // accounted for — ours drained (not aborted) — and the counters say
    // which.
    assert!(
        eventually(Duration::from_secs(4), || state.live_connections() == 0),
        "drain left live connections"
    );
    assert!(drain_started.elapsed() < Duration::from_secs(4));
    assert!(state.metrics.drained_connections.load(Ordering::Relaxed) >= 1);
    handle.shutdown();
}

#[test]
fn handle_drain_aborts_idle_stragglers_at_the_bound() {
    let _guard = serialize();
    let server = Server::bind(base_config()).expect("bind");
    server.registry().load_profile("lesMis", 42, None).unwrap();
    let handle = server.spawn();
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    // An idle keep-alive connection that will never finish on its own.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(idle, "GET /healthz HTTP/1.1\r\nhost: chaos\r\n\r\n").unwrap();
    let _ = read_one_response(&mut idle);

    let start = Instant::now();
    let (_drained, aborted) = handle.drain(Duration::from_millis(400));
    let elapsed = start.elapsed();
    assert!(aborted >= 1, "idle connection was not hard-closed");
    assert!(
        elapsed < Duration::from_secs(3),
        "bounded drain took {elapsed:?}"
    );
    assert_eq!(
        state.metrics.aborted_connections.load(Ordering::Relaxed),
        aborted
    );

    // The hard close is visible client-side as EOF or a reset.
    let mut buf = [0u8; 64];
    match idle.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => {
            // Tolerate a final in-flight error response, then EOF.
            assert!(n <= buf.len());
        }
    }
}

#[test]
fn deadline_fires_after_its_client_left() {
    let _guard = serialize();
    let handle = bind_star(
        3000,
        ServerConfig {
            route_deadlines: vec![(Route::Slg, Duration::from_millis(50))],
            ..base_config()
        },
    );
    let addr = handle.addr();
    let state = Arc::clone(handle.state());
    let cancelled_before = state.cache.stats().cancelled;

    // A quick request pipelined ahead of the slow one. The client closes
    // as soon as a worker has taken the slow one, with the quick one's
    // response unread, so the close is a reset the loop sees at once:
    // the slow request's connection is gone while it computes. Its
    // deadline must still fire and cancel the compute.
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nhost: chaos\r\n\r\n\
         GET /datasets/star/slg?s=1 HTTP/1.1\r\nhost: chaos\r\n\r\n"
    )
    .unwrap();
    assert!(
        eventually(Duration::from_secs(5), || state.metrics.queue_wait.count()
            == 2),
        "the slow request never reached a worker"
    );
    drop(stream);

    assert!(
        eventually(Duration::from_millis(550), || {
            state.cache.stats().cancelled > cancelled_before
                && state.metrics.busy_workers.load(Ordering::Relaxed) == 0
        }),
        "compute not cancelled within 550 ms ({:?}, busy {})",
        start.elapsed(),
        state.metrics.busy_workers.load(Ordering::Relaxed)
    );
    assert_eq!(state.live_connections(), 0, "the reset left a connection");
    assert_eq!(state.metrics.deadlines_fired.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn admin_drain_closes_an_idle_straggler_at_its_instant() {
    let _guard = serialize();
    let handle = bind_star(4, base_config());
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    // An idle keep-alive connection that never closes by itself (its
    // idle timeout is 5 s).
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(idle, "GET /healthz HTTP/1.1\r\nhost: chaos\r\n\r\n").unwrap();
    let first = read_one_response(&mut idle);
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");

    let start = Instant::now();
    let (status, body) = post(addr, "/admin/drain?deadline_ms=200");
    assert_eq!(status, 202, "{body}");
    assert!(
        eventually(Duration::from_millis(700), || state.live_connections() == 0),
        "straggler still open {:?} after the drain began",
        start.elapsed()
    );
    assert!(
        start.elapsed() >= Duration::from_millis(200),
        "the straggler was closed before the drain instant"
    );
    let m = &state.metrics;
    assert_eq!(m.aborted_connections.load(Ordering::Relaxed), 1);
    // The trigger's own connection closed after its response: drained.
    assert_eq!(m.drained_connections.load(Ordering::Relaxed), 1);
    let mut buf = [0u8; 64];
    assert!(
        matches!(idle.read(&mut buf), Ok(0) | Err(_)),
        "the straggler's client did not see the close"
    );
    handle.shutdown();
}

#[test]
fn parked_connections_cost_the_server_one_fd_each() {
    let _guard = serialize();
    let handle = bind_star(4, base_config());
    let addr = handle.addr();
    let state = Arc::clone(handle.state());
    let open_fds = || {
        std::fs::read_dir("/proc/self/fd")
            .expect("list /proc/self/fd")
            .count()
    };

    // Each in-process connection has a client end and a server socket:
    // two fds, plus slack for the harness.
    let before = open_fds();
    let parked: Vec<TcpStream> = (0..200)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    assert!(
        eventually(Duration::from_secs(10), || state.live_connections() == 200),
        "the loop registered {} of 200 connections",
        state.live_connections()
    );
    let grown = open_fds() - before;
    assert!(
        grown <= 2 * 200 + 4,
        "{grown} new fds for 200 parked connections"
    );
    drop(parked);
    handle.shutdown();
}

#[test]
fn connects_beyond_128_unaccepted_wait_in_the_backlog() {
    let _guard = serialize();
    let server = Server::bind(base_config()).expect("bind");
    let addr = server.local_addr();
    // The kernel caps the backlog at `net.core.somaxconn` (4096 by
    // default since Linux 5.4); std's `bind` alone listens with 128.
    let somaxconn: usize = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(4096);
    let count = somaxconn.min(300);

    // Nothing accepts before `spawn`, so every connect waits in the
    // listen backlog; a full backlog drops the SYN and the client only
    // retries a second later.
    let waiting: Vec<TcpStream> = (0..count)
        .map(|i| {
            TcpStream::connect_timeout(&addr, Duration::from_millis(1500))
                .unwrap_or_else(|e| panic!("connect {i} of {count}: {e}"))
        })
        .collect();
    let handle = server.spawn();
    let state = Arc::clone(handle.state());
    assert!(
        eventually(Duration::from_secs(10), || state.live_connections()
            == count),
        "the loop accepted {} of {count} waiting connections",
        state.live_connections()
    );
    drop(waiting);
    handle.shutdown();
}

#[test]
fn evented_split_head_delivery_is_reassembled() {
    let _guard = serialize();
    let handle = bind_star(4, base_config());
    let addr = handle.addr();

    // A slow-loris-shaped delivery that stays inside the head budget:
    // the incremental parser must reassemble the head across arbitrary
    // TCP segment boundaries and answer normally.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = b"GET /datasets/star/stats HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n";
    for chunk in head.chunks(3) {
        stream.write_all(chunk).expect("dribble head");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (status, body) = parse_checked(&raw).expect("well-framed response");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"vertices\""), "{body}");
    handle.shutdown();
}

#[test]
fn evented_pipelined_requests_answer_in_order() {
    let _guard = serialize();
    let handle = bind_star(4, base_config());
    let addr = handle.addr();

    // Two keep-alive requests in one TCP segment: the loop must carry
    // the second head over in its buffer and serve it after the first
    // response flushes, not drop or reorder it.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nhost: chaos\r\n\r\nGET /datasets/star/stats HTTP/1.1\r\nhost: chaos\r\n\r\n"
    )
    .unwrap();
    let first = read_one_response(&mut stream);
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");
    assert!(first.contains("\"ok\":true"), "{first}");
    let second = read_one_response(&mut stream);
    assert!(second.starts_with("HTTP/1.1 200"), "{second}");
    assert!(second.contains("\"vertices\""), "{second}");
    handle.shutdown();
}

#[test]
fn evented_partial_writes_backpressure_without_truncation() {
    let _guard = serialize();
    // Tens of megabytes on the wire (see the slow-clients test): far
    // beyond loopback socket buffering, so the loop's drain must hit
    // EAGAIN and park on EPOLLOUT at least once.
    let handle = bind_star(1600, base_config());
    let addr = handle.addr();
    let metrics = &handle.state().metrics;

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        stream,
        "GET /datasets/star/slg?s=1&limit=2000000 HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    // Wait for the stream to start, then stop reading: every buffer
    // between the worker and this socket fills, and the loop's next
    // drain must park on EAGAIN rather than block or truncate.
    let mut first = [0u8; 1024];
    let n = stream.read(&mut first).expect("first bytes");
    std::thread::sleep(Duration::from_millis(700));
    let mut raw = Vec::from(&first[..n]);
    stream.read_to_end(&mut raw).expect("read full response");
    let raw = String::from_utf8_lossy(&raw).into_owned();
    // The stall must never yield a truncated 200 behind valid framing.
    let (status, body) = parse_checked(&raw).expect("well-framed response despite backpressure");
    assert_eq!(status, 200);
    assert!(body.contains("\"edges\""), "truncated body");
    assert!(
        metrics.eagain_yields.load(Ordering::Relaxed) >= 1,
        "a multi-megabyte response never hit EAGAIN"
    );
    handle.shutdown();
}

#[cfg(debug_assertions)]
#[test]
fn evented_epoll_wait_faults_degrade_gracefully() {
    let _guard = serialize();
    let handle = bind_star(4, base_config());
    let addr = handle.addr();

    failpoint::arm("epoll.wait=err@300", 11).expect("arm");
    for _ in 0..8 {
        let (status, body) = get(addr, "/datasets/star/stats");
        assert_eq!(status, 200, "{body}");
    }
    assert!(
        failpoint::fired("epoll.wait") > 0,
        "epoll.wait schedule never fired"
    );
    failpoint::disarm();
    handle.shutdown();
}

#[cfg(debug_assertions)]
#[test]
fn evented_accept_faults_only_delay_admission() {
    let _guard = serialize();
    let handle = bind_star(4, base_config());
    let addr = handle.addr();

    // A skipped accept round leaves the connection in the kernel
    // backlog; level-triggered epoll re-reports it, so every client is
    // eventually served — faults delay, never drop.
    failpoint::arm("socket.accept=err@400", 23).expect("arm");
    for _ in 0..8 {
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
    }
    assert!(
        failpoint::fired("socket.accept") > 0,
        "socket.accept schedule never fired"
    );
    failpoint::disarm();
    handle.shutdown();
}

/// Reads exactly one keep-alive HTTP response: headers, then (for the
/// chunked bodies this server sends) through the terminal chunk. Bytes
/// are peeked first and consumed only up to the response's end, so a
/// pipelined response that arrived in the same segment stays unread for
/// the next call.
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.peek(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let mut seen = raw.clone();
                seen.extend_from_slice(&buf[..n]);
                let end = response_end(&seen);
                let take = end.map_or(n, |end| end - raw.len());
                stream
                    .read_exact(&mut buf[..take])
                    .expect("read peeked bytes");
                raw.extend_from_slice(&buf[..take]);
                if end.is_some() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("mid-response read error: {e}"),
        }
    }
    String::from_utf8_lossy(&raw).into_owned()
}

/// Where the first response in `raw` ends, once it is complete: after
/// `content-length` body bytes, after the terminal chunk, or, with
/// neither, at the end of what has arrived once the head is complete.
fn response_end(raw: &[u8]) -> Option<usize> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    if head
        .lines()
        .any(|l| l.eq_ignore_ascii_case("transfer-encoding: chunked"))
    {
        // The terminal chunk follows the head's or the last chunk's CRLF.
        let terminal = b"\r\n0\r\n\r\n";
        let at = raw[head_end + 2..]
            .windows(terminal.len())
            .position(|w| w == terminal)?;
        return Some(head_end + 2 + at + terminal.len());
    }
    let length = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    });
    match length {
        Some(len) => (raw.len() >= head_end + 4 + len).then_some(head_end + 4 + len),
        None => Some(raw.len()),
    }
}

fn header_says_close(raw: &str) -> bool {
    raw.split("\r\n\r\n")
        .next()
        .unwrap_or("")
        .lines()
        .any(|l| l.eq_ignore_ascii_case("connection: close"))
}
