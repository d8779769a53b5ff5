//! End-to-end and per-layer benchmark of `hyperline-server`.
//!
//! ```text
//! bash hlbench/run.sh --workload cold|export|queries --seed N --seconds S --trace 0|1
//! bash hlbench/run.sh --repeat 10 --seconds S [--seed N]
//! ```
//!
//! One process starts a real server on an ephemeral port (default
//! worker count) and drives it over TCP. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` repeats the workload with client
//! spans on and replays each traced request's layer calls to build the
//! per-layer table. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--repeat` runs
//! each workload several times as separate processes, alternating the
//! workload order, and prints each end-to-end metric's median and
//! quartiles. See `hlbench/README.md` for the workloads and metrics.

mod calib;
mod client;
mod stats;
mod trace;
mod workload;

use hyperline_server::json::Json;
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use workload::{Env, Log, Tally, COLD_DENSE, COLD_SPARSE};

/// Where span files and repeat summaries go (relative to the checkout).
const OUT_DIR: &str = "hlbench/out";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Cold,
    Export,
    Queries,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Cold, Workload::Export, Workload::Queries];

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Export => "export",
            Workload::Queries => "queries",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups per run: `setup_s` reports their median.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Queries => 3,
            _ => 5,
        }
    }
}

/// Closed-loop clients (and connections) of the `queries` workload:
/// never more than the host's cores.
fn query_clients() -> usize {
    nproc().clamp(1, 2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Traced operations replayed per class (cold sessions per dataset,
/// exports, query requests).
const REPLAY_SESSIONS: usize = 3;
const REPLAY_EXPORTS: usize = 8;
const REPLAY_QUERIES: usize = 4000;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Cold,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 0,
    };
    let mut have_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?;
                have_workload = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--repeat" => args.repeat = value()?.parse().map_err(|_| "bad --repeat")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !have_workload && args.repeat == 0 {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The program's own record of its commit (`/metrics` build info).
fn server_commit(env: &Env) -> String {
    let mut conn = client::Conn::new(env.handle.addr());
    conn.send(&client::Wire::get("/metrics", false))
        .ok()
        .and_then(|r| workload::parse(&r.body).ok())
        .and_then(|j| {
            j.get("build")
                .and_then(|b| b.get("commit"))
                .and_then(|c| c.as_str().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Export pairs in one `export` slot.
const EXPORT_PAIRS_PER_SLOT: usize = 3;
/// Seconds of one `queries` burst.
const QUERY_BURST_S: f64 = 0.6;

impl Workload {
    fn others(self) -> [Workload; 2] {
        match self {
            Workload::Cold => [Workload::Export, Workload::Queries],
            Workload::Export => [Workload::Queries, Workload::Cold],
            Workload::Queries => [Workload::Cold, Workload::Export],
        }
    }
}

/// Loads (and, for the warm workloads, warms) what `workload` needs.
fn prepare(env: &mut Env, workload: Workload, group: u64) {
    match workload {
        Workload::Cold => {
            env.load(COLD_DENSE, group);
            env.load(COLD_SPARSE, group);
        }
        Workload::Export => env.export_setup(group),
        Workload::Queries => env.queries_setup(group),
    }
}

/// One slot of `workload`'s traffic, in its own runs or as another
/// run's companion: a dense then a sparse cold session, a few export
/// pairs, or one `queries` burst.
fn play(env: &mut Env, workload: Workload) {
    match workload {
        Workload::Cold => {
            env.cold_session(COLD_DENSE);
            env.cold_session(COLD_SPARSE);
        }
        Workload::Export => {
            for _ in 0..EXPORT_PAIRS_PER_SLOT {
                env.export_once(false);
                env.export_once(true);
            }
        }
        Workload::Queries => {
            env.queries_window(query_clients(), Duration::from_secs_f64(QUERY_BURST_S))
        }
    }
}

/// Starts the server and prepares the workload; returns the env and
/// the set-up time.
fn setup(workload: Workload, seed: u64, started: Instant, log: bool) -> (Env, f64) {
    let mut env = workload::start(seed);
    if log {
        env.log = Some(Log::default());
    }
    let group = env.open();
    prepare(&mut env, workload, group.0);
    let end = Instant::now();
    env.close(group, "setup", end);
    (env, (end - started).as_secs_f64())
}

/// The workload's own traffic alone, for `seconds` (traced runs).
fn window(env: &mut Env, workload: Workload, seconds: f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        play(env, workload);
    }
}

/// An untraced run's measured time: each slot of the workload's own
/// traffic is followed by a companion slot of one of the other two, in
/// turn, until `seconds` are up and both companions have played. The
/// workload's own traffic gets half the time, each companion a quarter.
/// Interleaving spreads every metric's samples over the whole run.
/// Returns the host-speed references timed before every slot and after
/// the last.
fn rounds(env: &mut Env, workload: Workload, seconds: f64) -> (Vec<f64>, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let others = workload.others();
    let mut reference = calib::Reference::start().expect("loopback reference");
    let (mut cpu, mut wake) = (Vec::new(), Vec::new());
    let mut played = [false; 2];
    let mut i = 0;
    while Instant::now() < deadline || !played.iter().all(|&p| p) {
        for w in [workload, others[i % 2]] {
            cpu.push(reference.cpu_ms());
            wake.push(reference.wake_us());
            play(env, w);
        }
        played[i % 2] = true;
        i += 1;
    }
    cpu.push(reference.cpu_ms());
    wake.push(reference.wake_us());
    env.export_check();
    (cpu, wake)
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// The end-to-end metrics of a tally, plus report lines giving each
/// one's sample count and tail percentile.
fn end_to_end(tally: &Tally, setups: &[f64], rss: f64) -> (Metrics, Vec<String>) {
    let mut metrics = Vec::new();
    let mut lines = Vec::new();
    let mut timing = |name: &'static str, values: &[f64], metrics: &mut Metrics| {
        let (label, tail) = stats::tail(values);
        metrics.push((name, "ms", stats::median(values)));
        lines.push(format!(
            "{name:<20} median {:>10.3} ms  {label} {tail:>10.3} ms  n={}",
            stats::median(values),
            values.len()
        ));
    };
    timing("dense_session_ms", &tally.dense_ms, &mut metrics);
    timing("sparse_session_ms", &tally.sparse_ms, &mut metrics);
    timing("identity_export_ms", &tally.identity_ms, &mut metrics);
    timing("gzip_export_ms", &tally.gzip_ms, &mut metrics);
    let kb = stats::median(&tally.gzip_kb);
    metrics.push(("gzip_export_kb", "KiB", kb));
    // Medians over bursts: a burst that meets a hiccup of the host
    // moves a pooled quantile, not the median of the bursts'.
    let bursts = &tally.bursts;
    let per_burst = |f: fn(&workload::Burst) -> f64| -> Vec<f64> { bursts.iter().map(f).collect() };
    let rps = stats::median(&per_burst(|b| b.requests as f64 / b.seconds.max(1e-9)));
    let (p50, p99) = (
        stats::median(&per_burst(|b| b.p50_ms)),
        stats::median(&per_burst(|b| b.p99_ms)),
    );
    metrics.push(("query_rps", "req/s", rps));
    metrics.push(("query_p50_ms", "ms", p50));
    metrics.push(("query_p99_ms", "ms", p99));
    let setup = stats::median(setups);
    metrics.push(("setup_s", "s", setup));
    metrics.push(("peak_rss_mb", "MiB", rss));
    let (label, tail) = stats::tail(&tally.query_ms);
    lines.push(format!(
        "{:<20} median {kb:>10.3} KiB  n={}",
        "gzip_export_kb",
        tally.gzip_kb.len()
    ));
    let seconds: f64 = bursts.iter().map(|b| b.seconds).sum();
    lines.push(format!(
        "{:<20} median of {} bursts: {rps:.1} req/s, p50 {p50:.4} ms, p99 {p99:.4} ms",
        "queries",
        bursts.len(),
    ));
    lines.push(format!(
        "{:<20} pooled: {:.1} req/s, p50 {:.4} ms, p99 {:.4} ms, {label} {tail:.4} ms  n={} in {seconds:.3} s",
        "queries",
        tally.query_ms.len() as f64 / seconds.max(1e-9),
        stats::quantile(&tally.query_ms, 0.5),
        stats::quantile(&tally.query_ms, 0.99),
        tally.query_ms.len(),
    ));
    lines.push(format!(
        "{:<20} median {setup:.4} s  n={}  ({})",
        "setup_s",
        setups.len(),
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.push(format!("{:<20} {rss:.1} MiB  n=1", "peak_rss_mb"));
    lines.push(format!(
        "{:<20} {:.6}  ({} failed of {} attempted)",
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    (metrics, lines)
}

fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    )
}

fn print_header(args: &Args, env: &Env) {
    // Each client thread owns one keep-alive connection.
    let clients = if args.workload == Workload::Queries {
        query_clients()
    } else {
        1
    };
    println!(
        "hlbench workload={} seed={} seconds={} trace={} nproc={} server_workers={} \
         client_threads={clients} connections={clients} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        env.workers,
        server_commit(env),
    );
}

/// One untraced run: set up several times, prepare the companion
/// traffic, then the interleaved rounds; all end-to-end metrics.
fn run(args: &Args) -> (Tally, Metrics) {
    let started = *PROCESS_START.get().expect("set in main");
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..args.workload.setup_reps() {
        let t0 = if rep == 0 { started } else { Instant::now() };
        let (env, secs) = setup(args.workload, args.seed, t0, false);
        setups.push(secs);
        if let Some(previous) = kept.replace(env) {
            previous.shutdown();
        }
    }
    let mut env = kept.expect("at least one set-up");
    print_header(args, &env);
    for other in args.workload.others() {
        prepare(&mut env, other, 0);
    }
    let (cpu, wake) = rounds(&mut env, args.workload, args.seconds);
    let rss = peak_rss_mb();
    let (raw, lines) = end_to_end(&env.tally, &setups, rss);
    println!("as measured:");
    for line in lines {
        println!("  {line}");
    }
    let slowness = calib::slowness(&cpu, &wake);
    println!(
        "host references: cpu kernel median {:.4} ms (n={}, nominal {}), loopback round trip \
         median {:.3} us (n={}, nominal {}); slowness {slowness:.4}",
        stats::median(&cpu),
        cpu.len(),
        calib::CPU_NOMINAL_MS,
        stats::median(&wake),
        wake.len(),
        calib::WAKE_NOMINAL_US,
    );
    // Timings divide by the slowness and the rate multiplies by it;
    // sizes, memory and set-up stay as measured.
    let metrics: Metrics = raw
        .into_iter()
        .map(|(name, unit, value)| match name {
            "query_rps" => (name, unit, value * slowness),
            "gzip_export_kb" | "setup_s" | "peak_rss_mb" => (name, unit, value),
            _ => (name, unit, value / slowness),
        })
        .collect();
    println!("normalized to the nominal host speed:");
    for (name, unit, value) in &metrics {
        println!("  {name:<20} {value:>12.4} {unit}");
    }
    for f in &env.tally.failures {
        println!("FAILED: {f}");
    }
    let tally = env.tally.clone();
    env.shutdown();
    (tally, metrics)
}

/// One traced run: the workload's own traffic alone, first untraced
/// (the overhead baseline) then traced, half the run each, then the
/// replay; per-layer metrics.
fn run_traced(args: &Args) -> (Tally, Metrics) {
    let started = *PROCESS_START.get().expect("set in main");
    let (mut env, _) = setup(args.workload, args.seed, started, true);
    print_header(args, &env);
    let setup_log = env.log.take().unwrap_or_default();
    window(&mut env, args.workload, args.seconds / 2.0);
    let untraced = std::mem::take(&mut env.tally);
    let before = trace::Counters::read(env.handle.state());
    env.log = Some(setup_log);
    let first_window_span = workload::next_id();
    window(&mut env, args.workload, args.seconds / 2.0);
    let after = trace::Counters::read(env.handle.state());
    let log = env.log.take().unwrap_or_default();

    let in_window = |id: u64| id >= first_window_span;
    let window_requests: Vec<u64> = log
        .requests
        .iter()
        .filter(|l| in_window(l.span))
        .map(|l| l.span)
        .collect();
    // Replay every set-up request plus a bounded prefix of the window.
    let mut replay_ids: HashSet<u64> = log
        .requests
        .iter()
        .filter(|l| !in_window(l.span))
        .map(|l| l.span)
        .collect();
    let mut classes = Vec::new();
    match args.workload {
        Workload::Cold => {
            // Each session starts with its dataset's replacement, which
            // resets that dataset's cache state: keep the first
            // REPLAY_SESSIONS sessions of each dataset, in order.
            let mut taken: BTreeMap<&str, usize> = BTreeMap::new();
            let mut keep = false;
            for l in log.requests.iter().filter(|l| in_window(l.span)) {
                if let workload::Request::Load { dataset } = l.request {
                    let n = taken.entry(dataset).or_default();
                    *n += 1;
                    keep = *n <= REPLAY_SESSIONS;
                }
                if keep {
                    replay_ids.insert(l.span);
                }
            }
            for (dataset, untraced_ms) in [
                (COLD_DENSE, &untraced.dense_ms),
                (COLD_SPARSE, &untraced.sparse_ms),
            ] {
                let name = if dataset == COLD_DENSE {
                    "dense_session_ms"
                } else {
                    "sparse_session_ms"
                };
                let session = format!("session.{dataset}");
                classes.push(trace::OpClass {
                    name,
                    untraced_ms: stats::median(untraced_ms),
                    ops: log
                        .spans
                        .iter()
                        .filter(|s| s.name == session && in_window(s.id))
                        .map(|s| s.id)
                        .collect(),
                });
            }
        }
        Workload::Export => {
            for gz in [false, true] {
                let ops: Vec<u64> = log
                    .requests
                    .iter()
                    .filter(|l| in_window(l.span) && l.request.gzipped() == gz)
                    .map(|l| l.span)
                    .collect();
                replay_ids.extend(ops.iter().take(REPLAY_EXPORTS / 2));
                classes.push(trace::OpClass {
                    name: if gz {
                        "gzip_export_ms"
                    } else {
                        "identity_export_ms"
                    },
                    untraced_ms: stats::median(if gz {
                        &untraced.gzip_ms
                    } else {
                        &untraced.identity_ms
                    }),
                    ops,
                });
            }
        }
        Workload::Queries => {
            replay_ids.extend(window_requests.iter().take(REPLAY_QUERIES));
            classes.push(trace::OpClass {
                name: "query_p50_ms",
                untraced_ms: stats::quantile(&untraced.query_ms, 0.5),
                ops: window_requests.clone(),
            });
        }
    }
    let traced_tally = env.tally.clone();
    let report = trace::report(
        env.handle.state(),
        args.seed,
        log,
        &replay_ids,
        &window_requests,
        &classes,
        &before,
        &after,
    );
    println!(
        "per-layer table ({} workload, traced window):",
        args.workload.name()
    );
    for (name, unit, value) in &report.metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    for line in &report.lines {
        println!("{line}");
    }
    match write_spans(args, &report.spans) {
        Ok(path) => println!("spans: {} written to {path}", report.spans.len()),
        Err(e) => println!("spans: not written ({e})"),
    }
    let mut tally = untraced;
    tally.attempted += traced_tally.attempted;
    tally.failed += traced_tally.failed;
    tally.failures.extend(traced_tally.failures);
    for f in &tally.failures {
        println!("FAILED: {f}");
    }
    env.shutdown();
    (tally, report.metrics)
}

/// Writes the span file: one JSON object per line with name, start and
/// end (microseconds since process start), parent, and request id.
fn write_spans(args: &Args, spans: &[workload::Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!(
        "{OUT_DIR}/spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    );
    let epoch = *PROCESS_START.get().expect("set in main");
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{},"request":{},"id":{}}}"#,
            s.name,
            us(s.start),
            us(s.end),
            s.parent,
            s.request,
            s.id
        )?;
    }
    out.flush()?;
    Ok(path)
}

/// `--repeat N`: every workload N times, each run its own process with
/// seed `seed + i`, alternating the workload order between rounds.
fn repeat(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    let mut failed = 0;
    for i in 0..args.repeat {
        let mut order = Workload::ALL;
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = args.seed + i as u64;
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .output()
                .expect("spawn benchmark run");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let parsed = Json::parse(last).ok();
            let ok = output.status.success()
                && parsed
                    .as_ref()
                    .and_then(|j| j.get("correct"))
                    .and_then(|c| c.as_bool())
                    == Some(true);
            if !ok {
                failed += 1;
                eprintln!("run {} seed {seed} failed:\n{stdout}", w.name());
                continue;
            }
            let index = Workload::ALL.iter().position(|&x| x == w).unwrap_or(0);
            let number = |j: Option<&Json>| match j {
                Some(Json::Float(x)) => Some(*x),
                Some(Json::Int(x)) => Some(*x as f64),
                _ => None,
            };
            let metrics = parsed
                .as_ref()
                .and_then(|j| j.get("metrics"))
                .and_then(|m| m.entries());
            for (name, m) in metrics.into_iter().flatten() {
                if let Some(v) = number(m.get("value")) {
                    values.entry((index, name.clone())).or_default().push(v);
                }
            }
            println!("round {i} {} seed {seed}: ok", w.name());
        }
    }
    println!(
        "{:<8} {:<20} {:>12} {:>12} {:>12} {:>8} {:>3}",
        "workload", "metric", "q1", "median", "q3", "spread", "n"
    );
    let mut summary = Vec::new();
    for ((index, name), v) in &values {
        let (q1, q2, q3) = stats::quartiles(v);
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        let w = Workload::ALL[*index].name();
        println!(
            "{w:<8} {name:<20} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {:>3}",
            v.len()
        );
        summary.push(format!(
            r#"{{"workload":"{w}","metric":"{name}","q1":{q1:?},"median":{q2:?},"q3":{q3:?},"spread":{spread:?},"values":{v:?}}}"#
        ));
    }
    let path = format!(
        "{OUT_DIR}/repeat-{}x{}-seed{}.json",
        args.repeat, args.seconds, args.seed
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("[{}]\n", summary.join(",\n"))));
    match written {
        Ok(()) => println!("summary written to {path}"),
        Err(e) => println!("summary not written: {e}"),
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    PROCESS_START.get_or_init(Instant::now);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hlbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        return repeat(&args);
    }
    let (tally, metrics) = if args.trace {
        run_traced(&args)
    } else {
        run(&args)
    };
    println!("{}", result_line(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
