//! `hyperline-lint` — workspace static analyzer.
//!
//! Grown from a token/line matcher into a real analyzer: a std-only
//! lexer ([`lexer`]) and tolerant recursive-descent parser ([`parser`])
//! cover every `.rs` file in the workspace (asserted by the self-parse
//! test), feeding a symbol table and call graph ([`callgraph`]) for the
//! interprocedural rules ([`rules`]). The original line rules live in
//! [`lines`].
//!
//! Rules:
//! * **HL001** — every non-`Relaxed` atomic ordering must carry an
//!   adjacent `// ordering:` comment explaining the fence.
//! * **HL002** — no `partial_cmp(..).unwrap()`; floats compare with
//!   `total_cmp`.
//! * **HL003** — no `unsafe` anywhere in the workspace, except the
//!   sanctioned syscall shim `crates/server/src/sys.rs`.
//! * **HL004** — kernel crates (`graph`, `slinegraph`, `sparse`) stay
//!   clock-free.
//! * **HL005** — fallback: no `.unwrap()` / `.expect(` in
//!   `crates/server/src` files the parser could not resolve.
//! * **HL006** — no external dependencies in any `Cargo.toml`.
//! * **HL007** — no panic sink reachable from a `// lint: request-root`
//!   function via the call graph (full chain reported per finding).
//! * **HL008** — no cycles in the static lock-acquisition graph.
//! * **HL009** — every Release store on an atomic field has a matching
//!   Acquire load site, and vice versa.
//! * **HL010** — every `unsafe` block carries an adjacent
//!   `// safety:` comment justifying its soundness.
//!
//! Suppressions live in `scripts/lint_allow.txt`, one per line:
//! `RULE <path-substring> <finding-substring-or-*> # justification`.
//! HL007 entries key on the space-free chain suffix
//! (`<fn>:<sink>`, e.g. `handle_stats:.unwrap()`). Stale entries fail
//! the build.

pub mod callgraph;
pub mod lexer;
pub mod lines;
pub mod parser;
pub mod rules;

use std::cell::Cell;
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One rule violation.
#[derive(Debug)]
pub struct Finding {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`HL001` … `HL010`).
    pub rule: &'static str,
    /// Human- and allowlist-facing description.
    pub what: String,
    /// Remediation hint.
    pub hint: &'static str,
}

/// One `scripts/lint_allow.txt` entry.
pub struct Allow {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Path substring filter.
    pub path: String,
    /// Finding-text substring; `"*"` matches any.
    pub needle: String,
    /// Set once the entry suppressed something (stale detection).
    pub used: Cell<bool>,
    /// Original line, for stale-entry reporting.
    pub raw: String,
}

impl Allow {
    /// Whether this entry suppresses `f` (marks the entry used).
    pub fn matches(&self, f: &Finding) -> bool {
        let hit = self.rule == f.rule
            && f.file.contains(&self.path)
            && (self.needle == "*" || f.what.contains(&self.needle));
        if hit {
            self.used.set(true);
        }
        hit
    }
}

/// Loads the allowlist; exits with status 2 on malformed entries.
pub fn load_allowlist(path: &Path) -> Vec<Allow> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut parts = body.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(needle)) => out.push(Allow {
                rule: rule.to_string(),
                path: path.to_string(),
                needle: needle.to_string(),
                used: Cell::new(false),
                raw: body.to_string(),
            }),
            _ => {
                eprintln!(
                    "scripts/lint_allow.txt:{}: malformed entry `{body}` (want: RULE path substring # why)",
                    i + 1
                );
                std::process::exit(2);
            }
        }
    }
    out
}

/// Collects lintable files (`.rs` + `Cargo.toml`) under `dir`, skipping
/// build output, dot-directories and test fixture corpora.
pub fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy().into_owned();
        if p.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect(&p, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(p);
        }
    }
}

/// Per-rule outcome for the summary line and `--json` output.
#[derive(Clone, Copy, Default)]
pub struct RuleStat {
    /// Findings before suppression.
    pub findings: usize,
    /// Wall time spent in the rule (microseconds).
    pub micros: u128,
}

/// Full analyzer output over one source set.
pub struct Report {
    /// All findings, sorted by (file, line, rule), before suppression.
    pub findings: Vec<Finding>,
    /// Per-phase stats in execution order (`parse`, `callgraph`,
    /// `HL001`…`HL010`).
    pub stats: Vec<(&'static str, RuleStat)>,
    /// Number of `.rs` sources analyzed.
    pub rs_files: usize,
    /// Number of manifests analyzed.
    pub manifests: usize,
    /// Files whose lex/parse failed (line-rule fallback applies there).
    pub parse_failures: Vec<String>,
    /// Call sites that resolved to no workspace function.
    pub unresolved_calls: usize,
    /// HL007 root/reachability counts.
    pub panics: rules::panics::PanicsInfo,
    /// Distinct lock-order edges (HL008) and atomic fields (HL009).
    pub lock_edges: usize,
    /// Distinct atomic fields pooled by HL009.
    pub atomic_fields: usize,
    /// Total analyzer wall time (microseconds).
    pub total_micros: u128,
}

fn timed<F: FnOnce(&mut Vec<Finding>)>(
    name: &'static str,
    findings: &mut Vec<Finding>,
    stats: &mut Vec<(&'static str, RuleStat)>,
    f: F,
) {
    let before = findings.len();
    let t = Instant::now();
    f(findings);
    stats.push((
        name,
        RuleStat {
            findings: findings.len() - before,
            micros: t.elapsed().as_micros(),
        },
    ));
}

/// Runs every rule over in-memory sources (`(repo-relative path,
/// contents)`); the entry point for both the CLI and the fixture tests.
pub fn analyze(sources: &[(String, String)]) -> Report {
    let t_total = Instant::now();
    let mut findings = Vec::new();
    let mut stats: Vec<(&'static str, RuleStat)> = Vec::new();

    let rs: Vec<&(String, String)> = sources.iter().filter(|(p, _)| p.ends_with(".rs")).collect();
    let manifests: Vec<&(String, String)> = sources
        .iter()
        .filter(|(p, _)| p.ends_with("Cargo.toml"))
        .collect();

    let t = Instant::now();
    let asts: Vec<parser::FileAst> = rs.iter().map(|(p, s)| parser::parse_file(p, s)).collect();
    let ctxs: Vec<lines::LineCtx> = rs.iter().map(|(p, s)| lines::line_ctx(p, s)).collect();
    stats.push((
        "parse",
        RuleStat {
            findings: 0,
            micros: t.elapsed().as_micros(),
        },
    ));
    let parse_failures: Vec<String> = asts
        .iter()
        .filter(|a| !a.errors.is_empty())
        .map(|a| a.path.clone())
        .collect();
    let failed: HashSet<&str> = parse_failures.iter().map(|s| s.as_str()).collect();

    timed("HL001", &mut findings, &mut stats, |f| {
        for ctx in &ctxs {
            lines::hl001(ctx, f);
        }
    });
    timed("HL002", &mut findings, &mut stats, |f| {
        for ctx in &ctxs {
            lines::hl002(ctx, f);
        }
    });
    timed("HL003", &mut findings, &mut stats, |f| {
        for ctx in &ctxs {
            lines::hl003(ctx, f);
        }
    });
    timed("HL004", &mut findings, &mut stats, |f| {
        for ctx in &ctxs {
            lines::hl004(ctx, f);
        }
    });
    // HL005 is the parse-fallback: line-level panic matching only where
    // the call-graph rule (HL007) has no AST to work with.
    timed("HL005", &mut findings, &mut stats, |f| {
        for ctx in ctxs.iter().filter(|c| failed.contains(c.rel.as_str())) {
            lines::hl005(ctx, f);
        }
    });
    timed("HL006", &mut findings, &mut stats, |f| {
        for (p, s) in &manifests {
            lines::lint_manifest(p, s, f);
        }
    });
    timed("HL010", &mut findings, &mut stats, |f| {
        for ctx in &ctxs {
            lines::hl010(ctx, f);
        }
    });

    let t = Instant::now();
    let graph = callgraph::CallGraph::build(&asts);
    stats.push((
        "callgraph",
        RuleStat {
            findings: 0,
            micros: t.elapsed().as_micros(),
        },
    ));

    let mut panics_info = rules::panics::PanicsInfo::default();
    timed("HL007", &mut findings, &mut stats, |f| {
        panics_info = rules::panics::run(&graph, f);
    });
    let mut lock_edges = 0usize;
    timed("HL008", &mut findings, &mut stats, |f| {
        lock_edges = rules::locks::run(&graph, f);
    });
    let mut atomic_fields = 0usize;
    timed("HL009", &mut findings, &mut stats, |f| {
        atomic_fields = rules::atomics::run(&graph, f);
    });

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        findings,
        stats,
        rs_files: rs.len(),
        manifests: manifests.len(),
        parse_failures,
        unresolved_calls: graph.unresolved,
        panics: panics_info,
        lock_edges,
        atomic_fields,
        total_micros: t_total.elapsed().as_micros(),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> (String, String) {
        (path.to_string(), text.to_string())
    }

    #[test]
    fn hl005_applies_only_to_parse_failed_server_files() {
        // Parseable server file with an unwrap: HL007's job (and with a
        // root present + unreachable fn, it stays silent), HL005 silent.
        let parseable = src(
            "crates/server/src/ok.rs",
            "// lint: request-root\nfn root() {}\nfn cold(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let report = analyze(std::slice::from_ref(&parseable));
        assert!(
            report.findings.is_empty(),
            "{:?}",
            report
                .findings
                .iter()
                .map(|f| (&f.file, f.line, f.rule))
                .collect::<Vec<_>>()
        );
        // Same file with a top-level syntax error: parser bails, HL005
        // fallback takes over conservatively.
        let broken = src(
            "crates/server/src/broken.rs",
            "// lint: request-root\nfn root() {}\nlet stray = 1;\nfn cold(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let report = analyze(&[parseable, broken]);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["HL005"], "{:?}", report.parse_failures);
        assert_eq!(report.parse_failures, vec!["crates/server/src/broken.rs"]);
    }

    #[test]
    fn stats_cover_every_rule_in_order() {
        let report = analyze(&[src("crates/x/src/a.rs", "fn f() {}\n")]);
        let names: Vec<&str> = report.stats.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "parse",
                "HL001",
                "HL002",
                "HL003",
                "HL004",
                "HL005",
                "HL006",
                "HL010",
                "callgraph",
                "HL007",
                "HL008",
                "HL009"
            ]
        );
    }

    #[test]
    fn json_escape_handles_quotes_and_control() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
