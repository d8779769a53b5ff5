//! Line/token-level rules (HL001–HL006) and the masking machinery.
//!
//! These predate the parser and remain the right tool where syntax
//! depth buys nothing: adjacency of a `// ordering:` comment (HL001),
//! pattern bans (HL002/HL003/HL004), and manifest policy (HL006).
//! HL005 is the *fallback* panic rule: the interprocedural HL007
//! supersedes it wherever the parser succeeds, so the caller applies
//! HL005 only to server files whose parse failed — conservative
//! line-level coverage for code the analyzer cannot resolve.
//!
//! `mask()` blanks comments and string/char literals (preserving line
//! structure) so rule patterns never match inside them; nested block
//! comments, multi-hash raw strings (`r##"…"##`) and byte/raw-byte
//! strings (`b"…"`, `br"…"`) all blank correctly.

use crate::Finding;

/// Per-file precomputed context shared by the line rules, so masking
/// and test-region detection run once while each rule is timed alone.
pub struct LineCtx {
    /// Repo-relative path.
    pub rel: String,
    /// Raw source lines.
    pub raw: Vec<String>,
    /// Masked source lines (same count as `raw`).
    pub masked: Vec<String>,
    /// True where the line sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// File lives under a kernel crate's `src/`.
    pub kernel: bool,
    /// File lives under `crates/server/src/`.
    pub server: bool,
}

/// Builds the shared context for one file.
pub fn line_ctx(rel: &str, text: &str) -> LineCtx {
    let masked_text = mask(text);
    let masked: Vec<String> = masked_text.lines().map(|l| l.to_string()).collect();
    let masked_refs: Vec<&str> = masked.iter().map(|s| s.as_str()).collect();
    let in_test = test_regions(&masked_refs);
    LineCtx {
        rel: rel.to_string(),
        raw: text.lines().map(|l| l.to_string()).collect(),
        masked,
        in_test,
        kernel: [
            "crates/graph/src/",
            "crates/slinegraph/src/",
            "crates/sparse/src/",
        ]
        .iter()
        .any(|p| rel.starts_with(p)),
        server: rel.starts_with("crates/server/src/"),
    }
}

/// HL001: non-Relaxed orderings need an adjacent `// ordering:` note.
pub fn hl001(ctx: &LineCtx, findings: &mut Vec<Finding>) {
    for (i, m) in ctx.masked.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let raw = ctx.raw.get(i).map(|s| s.as_str()).unwrap_or("");
        for ord in [
            "Ordering::Acquire",
            "Ordering::Release",
            "Ordering::AcqRel",
            "Ordering::SeqCst",
        ] {
            if m.contains(ord) {
                // Accept a trailing comment on the same line, or an
                // `// ordering:` anywhere in the contiguous comment
                // block directly above.
                let mut documented = raw.contains("// ordering:");
                let mut k = i;
                while !documented && k > 0 {
                    let above = ctx.raw[k - 1].trim_start();
                    if !above.starts_with("//") {
                        break;
                    }
                    documented = above.starts_with("// ordering:");
                    k -= 1;
                }
                if !documented {
                    findings.push(Finding {
                        file: ctx.rel.clone(),
                        line: i + 1,
                        rule: "HL001",
                        what: format!("undocumented `{ord}`"),
                        hint: "add an adjacent `// ordering: <why this fence>` comment, or relax to Ordering::Relaxed",
                    });
                }
            }
        }
    }
}

/// HL002: `partial_cmp(..).unwrap()` — panics on NaN.
pub fn hl002(ctx: &LineCtx, findings: &mut Vec<Finding>) {
    for (i, m) in ctx.masked.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if let Some(at) = m.find("partial_cmp") {
            let next = ctx.masked.get(i + 1).map(|s| s.as_str()).unwrap_or("");
            if m[at..].contains(".unwrap()") || next.trim_start().starts_with(".unwrap()") {
                findings.push(Finding {
                    file: ctx.rel.clone(),
                    line: i + 1,
                    rule: "HL002",
                    what: "`partial_cmp(..).unwrap()` panics on NaN".to_string(),
                    hint: "use f64::total_cmp (NaN-total, never panics) for metric ordering",
                });
            }
        }
    }
}

/// HL003: no `unsafe` anywhere — even inside `#[cfg(test)]` — except
/// the one sanctioned syscall shim (`crates/server/src/sys.rs`), where
/// HL010 takes over and demands a `// safety:` note per block.
pub fn hl003(ctx: &LineCtx, findings: &mut Vec<Finding>) {
    if ctx.rel == "crates/server/src/sys.rs" {
        return;
    }
    for (i, m) in ctx.masked.iter().enumerate() {
        if has_word(m, "unsafe") {
            let raw = ctx.raw.get(i).map(|s| s.as_str()).unwrap_or("");
            findings.push(Finding {
                file: ctx.rel.clone(),
                line: i + 1,
                rule: "HL003",
                what: format!("`unsafe` is forbidden in this workspace: {}", raw.trim()),
                hint: "rewrite with safe primitives; syscall shims belong in crates/server/src/sys.rs",
            });
        }
    }
}

/// HL010: every `unsafe` block needs an adjacent `// safety:` note —
/// on the same line or in the contiguous comment block directly above
/// (the HL001 adjacency shape). Runs everywhere, but only the
/// sanctioned shim file legitimately reaches it: elsewhere HL003
/// already bans the keyword outright.
pub fn hl010(ctx: &LineCtx, findings: &mut Vec<Finding>) {
    for (i, m) in ctx.masked.iter().enumerate() {
        if !has_word(m, "unsafe") {
            continue;
        }
        let raw = ctx.raw.get(i).map(|s| s.as_str()).unwrap_or("");
        let mut documented = raw.contains("// safety:");
        let mut k = i;
        while !documented && k > 0 {
            let above = ctx.raw[k - 1].trim_start();
            if !above.starts_with("//") {
                break;
            }
            documented = above.starts_with("// safety:");
            k -= 1;
        }
        if !documented {
            findings.push(Finding {
                file: ctx.rel.clone(),
                line: i + 1,
                rule: "HL010",
                what: format!("undocumented `unsafe`: {}", raw.trim()),
                hint: "add an adjacent `// safety: <why this is sound>` comment",
            });
        }
    }
}

/// HL004: kernel crates stay clock-free.
pub fn hl004(ctx: &LineCtx, findings: &mut Vec<Finding>) {
    if !ctx.kernel {
        return;
    }
    for (i, m) in ctx.masked.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if m.contains("Instant::now") || m.contains("SystemTime") {
            let raw = ctx.raw.get(i).map(|s| s.as_str()).unwrap_or("");
            findings.push(Finding {
                file: ctx.rel.clone(),
                line: i + 1,
                rule: "HL004",
                what: format!("wall-clock access in a kernel crate: {}", raw.trim()),
                hint: "kernel crates must be deterministic; thread timing through the caller (bench/server layers)",
            });
        }
    }
}

/// HL005 (fallback): no `.unwrap()` / `.expect(` on server paths. The
/// caller applies this only to server files the parser could not
/// resolve; HL007 covers the rest with call-graph precision.
pub fn hl005(ctx: &LineCtx, findings: &mut Vec<Finding>) {
    if !ctx.server {
        return;
    }
    for (i, m) in ctx.masked.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let raw = ctx.raw.get(i).map(|s| s.as_str()).unwrap_or("");
        for pat in [".unwrap()", ".expect("] {
            if m.contains(pat) {
                findings.push(Finding {
                    file: ctx.rel.clone(),
                    line: i + 1,
                    rule: "HL005",
                    what: format!("`{pat}..` on a server path (parse-fallback): {}", raw.trim()),
                    hint: "return a logged 500 / Option instead, or allowlist in scripts/lint_allow.txt with a justification",
                });
            }
        }
    }
}

/// True at index i if the line is inside a `#[cfg(test)]` item body.
pub fn test_regions(masked_lines: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; masked_lines.len()];
    let mut i = 0;
    while i < masked_lines.len() {
        if masked_lines[i].contains("#[cfg(test)]") || masked_lines[i].contains("#[cfg(all(test") {
            // Skip to the matching close brace of the annotated item.
            // Attributes may stack, so scan forward for the first `{`.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < masked_lines.len() {
                for c in masked_lines[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                flags[j] = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replace comments and string/char literals with spaces, preserving
/// line structure, so rule patterns never match inside them.
pub fn mask(text: &str) -> String {
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(usize),
    }
    let b = text.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match st {
            St::Code => {
                // Raw-string opener? `r`/`br` + hashes + quote, not an
                // identifier tail (`for r in ..` stays code).
                let raw_at = match c {
                    b'r' => Some(i),
                    b'b' if b.get(i + 1) == Some(&b'r') => Some(i + 1),
                    _ => None,
                };
                let raw_open = raw_at.and_then(|r| {
                    let ident_prefix = i > 0 && is_ident(b[i - 1]);
                    let mut hashes = 0;
                    let mut j = r + 1;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    (!ident_prefix && b.get(j) == Some(&b'"')).then_some((hashes, j))
                });
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    st = St::Line;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'"' {
                    st = St::Str;
                    out.push(b' ');
                    i += 1;
                } else if let Some((hashes, quote_at)) = raw_open {
                    st = St::RawStr(hashes);
                    out.resize(out.len() + (quote_at + 1 - i), b' ');
                    i = quote_at + 1;
                } else if c == b'\'' {
                    // Char literal vs lifetime: a literal closes within a
                    // few bytes ('x', '\n', '\u{7f}'); a lifetime doesn't.
                    let mut j = i + 1;
                    if b.get(j) == Some(&b'\\') {
                        j += 1;
                        while j < b.len() && b[j] != b'\'' && j - i < 12 {
                            j += 1;
                        }
                    } else if j < b.len() {
                        j += 1;
                        while j < b.len() && (b[j] & 0xC0) == 0x80 {
                            j += 1; // skip UTF-8 continuation bytes
                        }
                    }
                    if b.get(j) == Some(&b'\'') && j > i + 1 {
                        out.resize(out.len() + (j + 1 - i), b' ');
                        i = j + 1;
                    } else {
                        out.push(c); // lifetime tick
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::Line => {
                if c == b'\n' {
                    st = St::Code;
                    out.push(c);
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            St::Block(d) => {
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(d + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == b'\\' && i + 1 < b.len() {
                    out.extend_from_slice(if b[i + 1] == b'\n' { b" \n" } else { b"  " });
                    i += 2;
                } else {
                    if c == b'"' {
                        st = St::Code;
                    }
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            St::RawStr(h) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut k = 0;
                    while k < h && b.get(j) == Some(&b'#') {
                        k += 1;
                        j += 1;
                    }
                    if k == h {
                        st = St::Code;
                        out.resize(out.len() + (j - i), b' ');
                        i = j;
                        continue;
                    }
                }
                out.push(if c == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

// ---------------------------------------------------------------------
// Manifest rule (HL006)
// ---------------------------------------------------------------------

/// HL006: every manifest dependency must be an in-repo `path` dep.
pub fn lint_manifest(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let mut in_deps = false;
    let mut table_dep: Option<(String, usize, bool)> = None; // [dependencies.NAME]
    for (i, line) in text.lines().enumerate() {
        let body = line.split('#').next().unwrap_or("").trim();
        if body.starts_with('[') {
            if let Some((name, at, saw_path)) = table_dep.take() {
                if !saw_path {
                    push_dep_finding(rel, at, &name, findings);
                }
            }
            let section = body.trim_matches(['[', ']']);
            in_deps = matches!(
                section,
                "dependencies"
                    | "dev-dependencies"
                    | "build-dependencies"
                    | "workspace.dependencies"
            );
            for prefix in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                if let Some(name) = section.strip_prefix(prefix) {
                    table_dep = Some((name.to_string(), i + 1, false));
                }
            }
            continue;
        }
        if let Some((_, _, saw_path)) = &mut table_dep {
            if body.starts_with("path ") || body.starts_with("path=") || body.starts_with("path =")
            {
                *saw_path = true;
            }
            continue;
        }
        if in_deps && !body.is_empty() {
            let Some((name, spec)) = body.split_once('=') else {
                continue;
            };
            if !spec.contains("path") {
                push_dep_finding(rel, i + 1, name.trim(), findings);
            }
        }
    }
    if let Some((name, at, saw_path)) = table_dep {
        if !saw_path {
            push_dep_finding(rel, at, &name, findings);
        }
    }
}

fn push_dep_finding(rel: &str, line: usize, name: &str, findings: &mut Vec<Finding>) {
    findings.push(Finding {
        file: rel.to_string(),
        line,
        rule: "HL006",
        what: format!("external dependency `{name}`"),
        hint: "the workspace is std-only; vendor needed code under crates/ as a path dependency",
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every line rule (HL005 unconditionally) — mirrors the old
    /// fused-loop behavior for these unit tests.
    fn rules_on(rel: &str, src: &str) -> Vec<(usize, &'static str)> {
        let ctx = line_ctx(rel, src);
        let mut f = Vec::new();
        hl001(&ctx, &mut f);
        hl002(&ctx, &mut f);
        hl003(&ctx, &mut f);
        hl004(&ctx, &mut f);
        hl005(&ctx, &mut f);
        hl010(&ctx, &mut f);
        f.sort_by_key(|x| x.line);
        f.into_iter().map(|x| (x.line, x.rule)).collect()
    }

    #[test]
    fn mask_blanks_strings_and_comments_but_keeps_lines() {
        let src = "let a = \"unsafe\"; // unsafe in a comment\nlet b = 1; /* unsafe\nstill comment */ let c = 'x';\n";
        let m = mask(src);
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(
            !m.contains("unsafe"),
            "patterns inside strings/comments must not survive: {m}"
        );
        assert!(m.contains("let a"), "code must survive masking");
    }

    #[test]
    fn mask_keeps_lifetimes_but_blanks_char_literals() {
        let m = mask("fn f<'a>(x: &'a str) { let c = '\\n'; let d = 'q'; }");
        assert!(m.contains("<'a>"), "lifetime ticks must survive: {m}");
        assert!(
            !m.contains('q'),
            "char literal contents must be blanked: {m}"
        );
    }

    #[test]
    fn mask_blanks_nested_block_comments() {
        let src = "/* outer /* unsafe inner */ still outer */ let x = 1;\n";
        let m = mask(src);
        assert!(!m.contains("unsafe"), "nested comment leaked: {m}");
        assert!(
            m.contains("let x = 1;"),
            "code after the comment must survive: {m}"
        );
    }

    #[test]
    fn mask_blanks_multi_hash_raw_strings() {
        let src = "let s = r##\"unsafe \"# not-the-end\"##; let t = 2;\n";
        let m = mask(src);
        assert!(!m.contains("unsafe"), "raw string leaked: {m}");
        assert!(
            !m.contains("not-the-end"),
            "early terminator honored too eagerly: {m}"
        );
        assert!(
            m.contains("let t = 2;"),
            "code after the raw string must survive: {m}"
        );
    }

    #[test]
    fn mask_handles_byte_raw_strings_without_desync() {
        // In a raw byte string the backslash is NOT an escape; the first
        // closing quote ends it, so the code after stays visible.
        let src = "let a = br\"\\\"; unsafe_marker();\n";
        let m = mask(src);
        assert!(
            m.contains("unsafe_marker"),
            "br\"..\" must not desync the masker: {m}"
        );
        let hashed = "let a = br#\"x\"y\"#; keep_me();\n";
        let m = mask(hashed);
        assert!(
            m.contains("keep_me"),
            "br#\"..\"# must close at the hash: {m}"
        );
        assert!(
            !m.contains('x') || !m.contains('y'),
            "contents must blank: {m}"
        );
    }

    #[test]
    fn hl001_requires_an_ordering_note_and_accepts_block_comments() {
        let bad = "use std::sync::atomic::Ordering;\nfn f(a: &AB) { a.load(Ordering::Acquire); }\n";
        assert_eq!(rules_on("crates/x/src/a.rs", bad), vec![(2, "HL001")]);
        let good = "// ordering: pairs with the Release store in g()\n// (multi-line block is fine)\nfn f(a: &AB) { a.load(Ordering::Acquire); }\n";
        assert!(rules_on("crates/x/src/a.rs", good).is_empty());
        let trailing = "fn f(a: &AB) { a.load(Ordering::Release); } // ordering: publishes init\n";
        assert!(rules_on("crates/x/src/a.rs", trailing).is_empty());
    }

    #[test]
    fn hl002_flags_partial_cmp_unwrap_even_split_across_lines() {
        let bad = "v.sort_by(|a, b| a.partial_cmp(b)\n    .unwrap());\n";
        assert_eq!(rules_on("crates/x/src/a.rs", bad), vec![(1, "HL002")]);
        let good = "v.sort_by(|a, b| a.total_cmp(b));\n";
        assert!(rules_on("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn hl003_fires_even_inside_cfg_test() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { danger() } }\n}\n";
        assert_eq!(
            rules_on("crates/x/src/a.rs", src),
            vec![(3, "HL003"), (3, "HL010")]
        );
    }

    #[test]
    fn hl003_exempts_the_syscall_shim_but_hl010_still_guards_it() {
        // The shim file may use unsafe — with a safety note.
        let documented =
            "// safety: fd is owned and open.\nfn f() { let _ = unsafe { close(3) }; }\n";
        assert!(rules_on("crates/server/src/sys.rs", documented).is_empty());
        // Mutation: strip the note and HL010 (not HL003) fires.
        let stripped = "fn f() { let _ = unsafe { close(3) }; }\n";
        assert_eq!(
            rules_on("crates/server/src/sys.rs", stripped),
            vec![(1, "HL010")]
        );
    }

    #[test]
    fn hl010_accepts_same_line_and_block_above_notes() {
        let trailing = "fn f() { let _ = unsafe { close(3) }; } // safety: fd is ours\n";
        assert!(rules_on("crates/server/src/sys.rs", trailing).is_empty());
        let block = "// safety: the buffer outlives the call\n// (spans two lines)\nfn f() { let _ = unsafe { read(0, p, 1) }; }\n";
        assert!(rules_on("crates/server/src/sys.rs", block).is_empty());
        // An unrelated comment between the note and the block breaks
        // adjacency only if the block stops being contiguous comments.
        let interrupted =
            "// safety: stale note\nfn g() {}\nfn f() { let _ = unsafe { close(3) }; }\n";
        assert_eq!(
            rules_on("crates/server/src/sys.rs", interrupted),
            vec![(3, "HL010")]
        );
    }

    #[test]
    fn hl004_only_fires_in_kernel_crate_src() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_on("crates/graph/src/a.rs", src), vec![(1, "HL004")]);
        assert!(rules_on("crates/bench/src/a.rs", src).is_empty());
    }

    #[test]
    fn hl005_skips_cfg_test_modules() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert_eq!(rules_on("crates/server/src/a.rs", src), vec![(1, "HL005")]);
    }

    #[test]
    fn hl006_accepts_path_deps_and_flags_external_ones() {
        let mut f = Vec::new();
        lint_manifest(
            "crates/x/Cargo.toml",
            "[dependencies]\nhyperline-util = { path = \"../util\" }\nserde = \"1\"\n\n[dev-dependencies.hyperline-sched]\npath = \"../sched\"\n",
            &mut f,
        );
        let got: Vec<_> = f.iter().map(|x| (x.line, x.rule, x.what.clone())).collect();
        assert_eq!(got.len(), 1, "only serde should be flagged: {got:?}");
        assert_eq!(got[0].0, 3);
        assert!(got[0].2.contains("serde"));
    }
}
