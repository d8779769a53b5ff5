//! `hyperline` — command-line s-line-graph analysis of hypergraphs.
//!
//! A thin CLI over the library for downstream users who just have a
//! hypergraph file and want s-line graphs and s-metrics without writing
//! Rust. Input format: one hyperedge per line, whitespace-separated
//! vertex IDs (`#`/`%` comments); or `edge vertex` pairs with `--pairs`.
//!
//! ```text
//! hyperline stats      <file>                    input characteristics
//! hyperline slg        <file> --s=8 [--out=f]    s-line graph edge list
//! hyperline components <file> --s=8              s-connected components
//! hyperline between    <file> --s=8 [--top=10] [--samples=64]  s-betweenness ranking
//! hyperline spectrum   <file> --s=8              algebraic connectivity
//! hyperline sweep      <file> --max-s=16         |E(L_s)| for s = 1..max
//! hyperline gen        <profile> --out=<f>       write a synthetic dataset
//! hyperline serve      <file|profile:NAME>...    HTTP query server w/ cache
//! ```

use hyperline::gen::Profile;
use hyperline::hypergraph::{io, toplex, Hypergraph};
use hyperline::prelude::*;
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hyperline <command> [args]\n\
         commands:\n  \
         stats      <file>                      input characteristics\n  \
         slg        <file> --s=N [--out=FILE]   s-line graph edge list\n  \
         components <file> --s=N                s-connected components\n  \
         between    <file> --s=N [--top=K] [--samples=K] s-betweenness ranking (sampled if --samples)\n  \
         spectrum   <file> --s=N                normalized algebraic connectivity\n  \
         sweep      <file> [--max-s=N]          edge counts for s = 1..N\n  \
         draw       <file> --s=N [--out=FILE]   weighted s-line graph as Graphviz DOT\n  \
         gen        <profile> --out=FILE        write a synthetic dataset\n  \
         serve      <file|profile:NAME>... [--port=7878] [--threads=N]\n  \
                    [--cache-mb=256] [--queue=1024] [--seed=N] [--data-root=DIR]\n  \
                    [--access-log=FILE] [--access-log-sample=N]\n  \
                    [--request-deadline-ms=N] [--route-deadline-ms=ROUTE=MS]...\n  \
                    [--head-timeout-ms=N] [--write-timeout-ms=N]\n  \
                    [--drain-deadline-ms=N] [--negative-ttl-ms=N]\n  \
                    concurrent HTTP/1.1 JSON query server with a\n  \
                    two-tier (artifact + Stage-5 metric) cache and\n  \
                    batched POST /query (GET / lists the endpoints;\n  \
                    --data-root sandboxes POST /datasets?path= loading;\n  \
                    --access-log writes JSONL request logs, keeping\n  \
                    1-in-N with --access-log-sample)\n\
         common flags: --pairs (input is `edge vertex` lines), --seed=N, --sclique\n\
         profiles: {}",
        Profile::ALL.map(|p| p.name()).join(", ")
    );
    ExitCode::FAILURE
}

fn opt<T: std::str::FromStr>(name: &str, default: T) -> T {
    let prefix = format!("--{name}=");
    std::env::args()
        .find_map(|a| a.strip_prefix(&prefix).and_then(|v| v.parse().ok()))
        .unwrap_or(default)
}

fn has_flag(name: &str) -> bool {
    let bare = format!("--{name}");
    std::env::args().any(|a| a == bare)
}

fn load(path: &str) -> Result<Hypergraph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let h = if has_flag("pairs") {
        io::read_bipartite_pairs(file)
    } else {
        io::read_edge_list(file)
    }
    .map_err(|e| format!("parse error in {path}: {e}"))?;
    // The s-clique view analyzes the dual hypergraph with the same code.
    Ok(if has_flag("sclique") { h.dual() } else { h })
}

fn build(h: &Hypergraph, s: u32) -> SLineGraph {
    let run = run_pipeline(
        h,
        &PipelineConfig {
            s,
            run_components: false,
            ..PipelineConfig::new(s)
        },
    );
    run.line_graph
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(command) = args.get(1) else {
        return usage();
    };
    // `serve` can start empty (datasets arrive via POST /datasets); every
    // other command needs its file/profile argument.
    let empty = String::new();
    let target = match args.get(2) {
        Some(t) => t,
        None if command == "serve" => &empty,
        None => return usage(),
    };
    let s: u32 = opt("s", 2);
    match command.as_str() {
        "stats" => {
            let h = match load(target) {
                Ok(h) => h,
                Err(e) => return fail(&e),
            };
            println!("vertices:            {}", h.num_vertices());
            println!("hyperedges:          {}", h.num_edges());
            println!("incidences:          {}", h.num_incidences());
            println!("mean vertex degree:  {:.2}", h.mean_vertex_degree());
            println!("mean edge size:      {:.2}", h.mean_edge_size());
            println!("max vertex degree:   {}", h.max_vertex_degree());
            println!("max edge size:       {}", h.max_edge_size());
            let t = toplex::toplexes(&h);
            println!(
                "toplexes:            {} ({})",
                t.toplex_ids.len(),
                if t.toplex_ids.len() == h.num_edges() {
                    "simple"
                } else {
                    "not simple"
                }
            );
        }
        "slg" => {
            let h = match load(target) {
                Ok(h) => h,
                Err(e) => return fail(&e),
            };
            let r = algo2_slinegraph(&h, s, &Strategy::default());
            let out_path: String = opt("out", String::new());
            if out_path.is_empty() {
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                for (a, b) in &r.edges {
                    let _ = writeln!(lock, "{a} {b}");
                }
            } else {
                let mut f = match std::fs::File::create(&out_path) {
                    Ok(f) => std::io::BufWriter::new(f),
                    Err(e) => return fail(&format!("cannot create {out_path}: {e}")),
                };
                for (a, b) in &r.edges {
                    let _ = writeln!(f, "{a} {b}");
                }
                eprintln!("wrote {} edges to {out_path}", r.edges.len());
            }
        }
        "components" => {
            let h = match load(target) {
                Ok(h) => h,
                Err(e) => return fail(&e),
            };
            let slg = build(&h, s);
            let comps = slg.connected_components();
            println!("{} {s}-connected component(s):", comps.len());
            for comp in comps {
                let ids: Vec<String> = comp.iter().map(u32::to_string).collect();
                println!("  [{}]", ids.join(", "));
            }
        }
        "between" => {
            let h = match load(target) {
                Ok(h) => h,
                Err(e) => return fail(&e),
            };
            let top: usize = opt("top", 10);
            // --samples=K switches to the Brandes–Pich approximation
            // (deterministic in --seed), for large line graphs where only
            // the top ranking matters.
            let samples: usize = opt("samples", 0);
            let slg = build(&h, s);
            let ranking = if samples == 0 {
                slg.betweenness()
            } else {
                slg.betweenness_sampled(samples, opt("seed", 42))
            };
            for (e, score) in ranking.into_iter().take(top) {
                println!("{e}\t{score:.6}");
            }
        }
        "spectrum" => {
            let h = match load(target) {
                Ok(h) => h,
                Err(e) => return fail(&e),
            };
            let slg = build(&h, s);
            let lambda2 = slg.lambda2();
            println!(
                "s = {s}: |V| = {}, |E| = {}, diameter = {}, normalized algebraic connectivity = {:.6}",
                slg.num_vertices(),
                slg.num_edges(),
                slg.s_diameter(),
                lambda2.value
            );
            if !lambda2.converged {
                eprintln!(
                    "warning: the normalized algebraic connectivity did not converge \
                     within the Lanczos step cap; the value is an estimate"
                );
            }
        }
        "sweep" => {
            let h = match load(target) {
                Ok(h) => h,
                Err(e) => return fail(&e),
            };
            let max_s: u32 = opt("max-s", 16);
            let s_values: Vec<u32> = (1..=max_s).collect();
            for (s, count) in
                hyperline::slinegraph::edge_counts_over_s(&h, &s_values, &Strategy::default())
            {
                println!("{s}\t{count}");
            }
        }
        "draw" => {
            let h = match load(target) {
                Ok(h) => h,
                Err(e) => return fail(&e),
            };
            let (edges, _) = algo2_slinegraph_weighted(&h, s, &Strategy::default());
            let squeezer =
                hyperline::util::IdSqueezer::from_ids(edges.iter().flat_map(|&(a, b, _)| [a, b]));
            let compact: Vec<(u32, u32, u32)> = edges
                .iter()
                .map(|&(a, b, w)| {
                    (
                        squeezer.squeeze(a).unwrap(),
                        squeezer.squeeze(b).unwrap(),
                        w,
                    )
                })
                .collect();
            let wg = hyperline::graph::WeightedGraph::from_edges(squeezer.len().max(1), &compact);
            let dot_text =
                hyperline::graph::dot::to_dot_weighted(&wg, |v| squeezer.unsqueeze(v).to_string());
            let out_path: String = opt("out", String::new());
            if out_path.is_empty() {
                print!("{dot_text}");
            } else if let Err(e) = std::fs::write(&out_path, &dot_text) {
                return fail(&format!("cannot write {out_path}: {e}"));
            } else {
                eprintln!(
                    "wrote {} vertices / {} weighted edges to {out_path}",
                    wg.graph.num_vertices(),
                    wg.graph.num_edges()
                );
            }
        }
        "serve" => {
            use hyperline::server::{Route, Server, ServerConfig};
            use std::time::Duration;
            let port: u16 = opt("port", 7878);
            let host: String = opt("host", "127.0.0.1".to_string());
            let data_root: String = opt("data-root", String::new());
            let access_log: String = opt("access-log", String::new());
            let defaults = ServerConfig::default();
            // Per-route deadline overrides: repeatable
            // `--route-deadline-ms=ROUTE=MS` (route names as in /metrics).
            let mut route_deadlines = Vec::new();
            for spec in std::env::args()
                .filter_map(|a| a.strip_prefix("--route-deadline-ms=").map(str::to_string))
            {
                let parsed = spec.split_once('=').and_then(|(route, ms)| {
                    let route = *Route::ALL.iter().find(|r| r.name() == route)?;
                    Some((route, Duration::from_millis(ms.parse().ok()?)))
                });
                match parsed {
                    Some(entry) => route_deadlines.push(entry),
                    None => {
                        return fail(&format!(
                            "bad --route-deadline-ms={spec:?} (want ROUTE=MILLIS)"
                        ))
                    }
                }
            }
            let request_deadline_ms: u64 = opt("request-deadline-ms", 0);
            let config = ServerConfig {
                addr: format!("{host}:{port}"),
                threads: opt("threads", 0),
                cache_mb: opt("cache-mb", 256),
                queue_depth: opt("queue", 1024),
                data_root: (!data_root.is_empty()).then(|| data_root.clone().into()),
                access_log: (!access_log.is_empty()).then(|| access_log.clone().into()),
                access_log_sample: opt("access-log-sample", 1),
                request_deadline: (request_deadline_ms > 0)
                    .then(|| Duration::from_millis(request_deadline_ms)),
                route_deadlines,
                head_timeout: Duration::from_millis(opt(
                    "head-timeout-ms",
                    defaults.head_timeout.as_millis() as u64,
                )),
                write_timeout: Duration::from_millis(opt(
                    "write-timeout-ms",
                    defaults.write_timeout.as_millis() as u64,
                )),
                drain_deadline: Duration::from_millis(opt(
                    "drain-deadline-ms",
                    defaults.drain_deadline.as_millis() as u64,
                )),
                negative_ttl: Duration::from_millis(opt(
                    "negative-ttl-ms",
                    defaults.negative_ttl.as_millis() as u64,
                )),
                ..defaults
            };
            let server = match Server::bind(config) {
                Ok(s) => s,
                Err(e) => return fail(&format!("cannot bind {host}:{port}: {e}")),
            };
            let seed: u64 = opt("seed", 42);
            // Positional arguments are datasets: files, or `profile:NAME`.
            for spec in args.iter().skip(2).filter(|a| !a.starts_with("--")) {
                let loaded = match spec.strip_prefix("profile:") {
                    Some(profile) => server.registry().load_profile(profile, seed, None),
                    None => server.registry().load_file(spec, None),
                };
                match loaded {
                    Ok(name) => {
                        let d = server.registry().get(&name).unwrap();
                        eprintln!(
                            "loaded {name} ({} vertices, {} hyperedges)",
                            d.hypergraph.num_vertices(),
                            d.hypergraph.num_edges()
                        );
                    }
                    Err(e) => return fail(&e),
                }
            }
            eprintln!(
                "hyperline-server listening on http://{} ({} threads, {} MiB cache)",
                server.local_addr(),
                server.threads(),
                opt("cache-mb", 256usize),
            );
            server.run();
        }
        "gen" => {
            let Some(profile) = Profile::from_name(target) else {
                return fail(&format!("unknown profile {target:?}"));
            };
            let seed: u64 = opt("seed", 42);
            let out_path: String = opt("out", format!("{}.hgr", profile.name()));
            let h = profile.generate(seed);
            if let Err(e) = io::save_edge_list(&h, &out_path) {
                return fail(&format!("cannot write {out_path}: {e}"));
            }
            eprintln!(
                "wrote {} ({} vertices, {} edges) to {out_path}",
                profile.name(),
                h.num_vertices(),
                h.num_edges()
            );
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}
