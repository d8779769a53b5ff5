//! Tolerant recursive-descent parser over the [`crate::lexer`] stream.
//!
//! Parses every workspace file to the depth the interprocedural rules
//! need: item structure (modules, impls, traits, structs, statics) is
//! parsed for real; `fn` bodies are walked as balanced token trees from
//! which the analyzer extracts
//!
//! * **call sites** — free/path calls and method calls, with the path
//!   qualifier and the set of locks held at the call;
//! * **panic sinks** — `.unwrap()`, `.expect(`, `panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!`, and slice indexing;
//! * **lock events** — `.lock()`/`.read()`/`.write()` acquisitions with
//!   guard-scope tracking (`let`-bound guards live to the end of their
//!   block or an explicit `drop(guard)`; temporaries to the statement);
//! * **atomic operations** — `load`/`store`/RMW calls with their
//!   `Ordering::*` arguments and an alias-resolved receiver.
//!
//! Closure bodies are attributed to the defining function, which is
//! what makes higher-order seams (`with_compute_budget(state, || ...)`)
//! analyze conservatively: the closure's calls are edges out of the
//! *caller*, so reachability never depends on resolving the `f()`
//! inside the helper.
//!
//! Anything the parser does not model (unknown item forms, macro
//! bodies) is skipped as a balanced token tree; a construct that cannot
//! even be skipped safely is recorded in [`FileAst::errors`], and the
//! self-parse test keeps that list empty for the whole workspace.

use crate::lexer::{lex, Tok, Token};

/// A lock-relevant method call kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockKind {
    /// `Mutex::lock`.
    Mutex,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

/// One lock acquisition inside a function body.
#[derive(Clone, Debug)]
pub struct LockAcq {
    /// Dotted receiver chain as written (`self.state`, alias-resolved).
    pub chain: String,
    /// Which primitive method was called.
    pub kind: LockKind,
    /// 1-based source line.
    pub line: u32,
    /// Receiver chains of locks held when this one was taken.
    pub held: Vec<String>,
}

/// One atomic operation inside a function body.
#[derive(Clone, Debug)]
pub struct AtomicOp {
    /// Dotted receiver chain, alias-resolved.
    pub chain: String,
    /// Method name (`load`, `store`, `fetch_add`, `compare_exchange`…).
    pub method: String,
    /// The `Ordering::X` idents that appear in the argument list.
    pub orderings: Vec<String>,
    /// 1-based source line.
    pub line: u32,
}

/// A panicking sink inside a function body.
#[derive(Clone, Debug)]
pub struct Sink {
    /// Compact sink name: `.unwrap()`, `.expect(`, `panic!`,
    /// `unreachable!`, `todo!`, `unimplemented!`, `index[]`.
    pub what: &'static str,
    /// 1-based source line.
    pub line: u32,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name (last path segment or method name).
    pub name: String,
    /// Path qualifier directly before the name (`http` in
    /// `http::write_response`, `Json` in `Json::obj`, `Self`), if any.
    pub qual: Option<String>,
    /// True for `recv.name(...)` method-call syntax.
    pub method: bool,
    /// Dotted receiver chain for method calls on simple chains
    /// (`self.pool`), alias-resolved; `None` for free calls and for
    /// receivers that are themselves call results.
    pub recv: Option<String>,
    /// 1-based source line.
    pub line: u32,
    /// Receiver chains of locks held across this call.
    pub held: Vec<String>,
}

/// One parsed `fn`.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Bare name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, when any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when under `#[cfg(test)]` / `#[test]` or in a tests file.
    pub in_test: bool,
    /// Defined inside a `trait` declaration or an `impl Trait for Type`
    /// block — i.e. callable through dynamic (trait-object) dispatch.
    pub via_trait: bool,
    /// `// lint: <marker>` annotations attached to this fn.
    pub markers: Vec<String>,
    /// Calls out of this fn (closure bodies included).
    pub calls: Vec<CallSite>,
    /// Panic sinks syntactically inside this fn.
    pub sinks: Vec<Sink>,
    /// Lock acquisitions inside this fn.
    pub locks: Vec<LockAcq>,
    /// Atomic operations inside this fn.
    pub atomics: Vec<AtomicOp>,
    /// Declared local types, in binding order: parameter `name: Ty`
    /// pairs plus `let x: Ty = ..` annotations and `let x = Ty::ctor(..)`
    /// constructor bindings. Used to type single-segment method
    /// receivers; later bindings shadow earlier ones.
    pub locals: Vec<(String, String)>,
}

impl FnDef {
    /// `Type::name` when inside an impl/trait, else the bare name.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One struct field (named fields only; tuple fields are opaque).
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Source text of the type.
    pub ty: String,
}

/// A parsed struct definition.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Named fields.
    pub fields: Vec<Field>,
}

/// A parsed `static` item (atomics live here too).
#[derive(Clone, Debug)]
pub struct StaticDef {
    /// Item name.
    pub name: String,
    /// Source text of the type.
    pub ty: String,
}

/// Everything extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileAst {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Functions (methods included), in source order.
    pub fns: Vec<FnDef>,
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Static items.
    pub statics: Vec<StaticDef>,
    /// True when the file imports through the `hyperline_util::sync`
    /// seam (directly or via a re-export) — the scope gate for the
    /// lock-order and ordering-pairing rules.
    pub uses_sync_seam: bool,
    /// Parse/lex errors; non-empty disables interprocedural rules for
    /// this file and re-enables the HL005 line fallback.
    pub errors: Vec<String>,
}

/// Parses one file. Never panics; problems land in [`FileAst::errors`].
pub fn parse_file(path: &str, src: &str) -> FileAst {
    let lexed = lex(src);
    let mut ast = FileAst {
        path: path.to_string(),
        uses_sync_seam: detects_sync_seam(src),
        errors: lexed.errors,
        ..FileAst::default()
    };
    if !ast.errors.is_empty() {
        return ast;
    }
    let markers = scan_markers(src);
    let file_in_test = path.contains("/tests/") || path.contains("/benches/");
    let mut p = Parser {
        src,
        toks: &lexed.tokens,
        pos: 0,
        ast: &mut ast,
    };
    p.items(None, file_in_test, false, None);
    // Attach each `// lint: X` marker to the first fn defined after it.
    for (marker_line, marker) in markers {
        if let Some(f) = ast
            .fns
            .iter_mut()
            .filter(|f| f.line > marker_line)
            .min_by_key(|f| f.line)
        {
            f.markers.push(marker);
        }
    }
    ast
}

/// `// lint: request-root`-style annotations, scanned from raw lines
/// (the lexer drops comments).
fn scan_markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("// lint:") {
            out.push(((i + 1) as u32, rest.trim().to_string()));
        }
    }
    out
}

/// Whether the file imports sync primitives through the seam.
fn detects_sync_seam(src: &str) -> bool {
    [
        "use crate::sync",
        "hyperline_util::sync",
        "use crate::sync::atomic",
    ]
    .iter()
    .any(|needle| src.contains(needle))
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    pos: usize,
    ast: &'a mut FileAst,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn text(&self, t: &Token) -> &'a str {
        t.text(self.src)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == Tok::Ident && self.text(t) == word)
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if self.at_ident(word) {
            self.pos += 1;
            return true;
        }
        false
    }

    /// Skips a balanced token tree starting at an `Open` token. Returns
    /// the token range of the *contents* (open/close excluded).
    fn skip_tree(&mut self) -> (usize, usize) {
        let Some(open) = self.peek() else {
            return (self.pos, self.pos);
        };
        let Tok::Open(delim) = open.kind else {
            self.pos += 1;
            return (self.pos, self.pos);
        };
        self.pos += 1;
        let start = self.pos;
        let mut depth = 1usize;
        while let Some(t) = self.peek() {
            match t.kind {
                Tok::Open(_) => depth += 1,
                Tok::Close(_) => {
                    depth -= 1;
                    if depth == 0 {
                        let end = self.pos;
                        self.pos += 1;
                        let _ = delim;
                        return (start, end);
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        (start, self.pos)
    }

    /// Skips a `<...>` generics list if the cursor is on `<`.
    fn skip_generics(&mut self) {
        if !matches!(self.peek(), Some(t) if t.kind == Tok::Punct(b'<')) {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.kind {
                Tok::Punct(b'<') => depth += 1,
                Tok::Punct(b'>') => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
                Tok::Open(_) => {
                    self.skip_tree();
                    continue;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips tokens until a `;` or an `Open({)` at delimiter depth 0;
    /// consumes the `;` but leaves the `{`. Returns true when a body
    /// brace follows.
    fn skip_to_body_or_semi(&mut self) -> bool {
        while let Some(t) = self.peek() {
            match t.kind {
                Tok::Punct(b';') => {
                    self.pos += 1;
                    return false;
                }
                Tok::Open(b'{') => return true,
                Tok::Open(_) => {
                    self.skip_tree();
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
        false
    }

    /// Consumes one attribute `#[...]` / `#![...]`; returns its text.
    fn attr_text(&mut self) -> String {
        // Cursor on `#`.
        self.pos += 1;
        if matches!(self.peek(), Some(t) if t.kind == Tok::Punct(b'!')) {
            self.pos += 1;
        }
        let lo = self.pos;
        let (start, end) = self.skip_tree();
        let _ = lo;
        self.toks[start..end]
            .iter()
            .map(|t| t.text(self.src))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses an item sequence until EOF or the enclosing `}`.
    fn items(
        &mut self,
        self_ty: Option<&str>,
        in_test: bool,
        via_trait: bool,
        until_close: Option<()>,
    ) {
        loop {
            let Some(t) = self.peek() else { return };
            if until_close.is_some() {
                if let Tok::Close(b'{') = t.kind {
                    self.pos += 1;
                    return;
                }
            }
            let mut item_test = in_test;
            // Attributes (stacked); `cfg(test)` / `test` mark the item.
            while matches!(self.peek(), Some(t) if t.kind == Tok::Punct(b'#')) {
                let attr = self.attr_text();
                if attr.contains("cfg ( test")
                    || attr.contains("cfg ( all ( test")
                    || attr == "test"
                    || attr.starts_with("test ")
                {
                    item_test = true;
                }
            }
            // Visibility.
            if self.eat_ident("pub") && matches!(self.peek(), Some(t) if t.kind == Tok::Open(b'('))
            {
                self.skip_tree();
            }
            let Some(t) = self.peek() else { return };
            let word = if t.kind == Tok::Ident {
                self.text(t)
            } else {
                ""
            };
            match word {
                "fn" => self.item_fn(self_ty, item_test, via_trait),
                "unsafe" | "async" | "const" if self.is_fn_modifier() => {
                    // `const fn` / (hypothetical) `unsafe fn` prefix.
                    self.pos += 1;
                }
                "struct" => self.item_struct(),
                "enum" | "union" => {
                    self.pos += 1;
                    self.bump(); // name
                    self.skip_generics();
                    if self.skip_to_body_or_semi() {
                        self.skip_tree();
                    }
                }
                "trait" => {
                    self.pos += 1;
                    let name = self.bump().map(|t| t.text(self.src).to_string());
                    self.skip_generics();
                    if self.skip_to_body_or_semi() {
                        self.pos += 1; // consume `{`
                        self.items(name.as_deref(), item_test, true, Some(()));
                    }
                }
                "impl" => self.item_impl(item_test),
                "mod" => {
                    self.pos += 1;
                    self.bump(); // name
                    match self.peek().map(|t| t.kind) {
                        Some(Tok::Punct(b';')) => {
                            self.pos += 1;
                        }
                        Some(Tok::Open(b'{')) => {
                            self.pos += 1;
                            self.items(self_ty, item_test, via_trait, Some(()));
                        }
                        _ => {
                            self.error_here("malformed mod item");
                        }
                    }
                }
                "use" | "type" | "extern" => {
                    self.pos += 1;
                    self.skip_item_to_semi();
                }
                "static" | "const" => {
                    self.pos += 1;
                    self.item_static_or_const();
                }
                "macro_rules" => {
                    self.pos += 1;
                    // `! name { ... }`
                    if matches!(self.peek(), Some(t) if t.kind == Tok::Punct(b'!')) {
                        self.pos += 1;
                    }
                    self.bump(); // name
                    if matches!(self.peek(), Some(t) if matches!(t.kind, Tok::Open(_))) {
                        self.skip_tree();
                    }
                }
                _ => {
                    // Item-level macro invocation `name!(...);` or
                    // `path::name! { ... }`.
                    if t.kind == Tok::Ident && self.is_macro_invocation() {
                        self.skip_macro_invocation();
                    } else {
                        self.error_here("unexpected item-level token");
                        self.pos += 1;
                    }
                }
            }
        }
    }

    fn is_fn_modifier(&self) -> bool {
        matches!(self.toks.get(self.pos + 1), Some(t) if t.kind == Tok::Ident
            && matches!(t.text(self.src), "fn" | "unsafe" | "extern"))
    }

    fn is_macro_invocation(&self) -> bool {
        let mut k = self.pos;
        // name (:: name)* !
        loop {
            match self.toks.get(k).map(|t| t.kind) {
                Some(Tok::Ident) => k += 1,
                _ => return false,
            }
            match self.toks.get(k).map(|t| t.kind) {
                Some(Tok::PathSep) => k += 1,
                Some(Tok::Punct(b'!')) => return true,
                _ => return false,
            }
        }
    }

    fn skip_macro_invocation(&mut self) {
        while let Some(t) = self.peek() {
            match t.kind {
                Tok::Punct(b'!') => {
                    self.pos += 1;
                    break;
                }
                Tok::Ident | Tok::PathSep => self.pos += 1,
                _ => break,
            }
        }
        if matches!(self.peek(), Some(t) if matches!(t.kind, Tok::Open(_))) {
            let braces = matches!(self.peek(), Some(t) if t.kind == Tok::Open(b'{'));
            self.skip_tree();
            if !braces && matches!(self.peek(), Some(t) if t.kind == Tok::Punct(b';')) {
                self.pos += 1;
            }
        }
    }

    /// Skips to the `;` ending a non-brace item, honoring token trees.
    fn skip_item_to_semi(&mut self) {
        while let Some(t) = self.peek() {
            match t.kind {
                Tok::Punct(b';') => {
                    self.pos += 1;
                    return;
                }
                Tok::Open(_) => {
                    self.skip_tree();
                }
                Tok::Close(_) => return, // tolerate missing `;` at scope end
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    fn error_here(&mut self, what: &str) {
        let (line, text) = match self.peek() {
            Some(t) => (t.line, self.text(t).to_string()),
            None => (0, "<eof>".to_string()),
        };
        self.ast
            .errors
            .push(format!("line {line}: {what} `{text}`"));
    }

    fn item_static_or_const(&mut self) {
        // (already past the keyword) [mut] NAME : TYPE = ... ;
        self.eat_ident("mut");
        let name = match self.peek() {
            Some(t) if t.kind == Tok::Ident => {
                let n = self.text(t).to_string();
                self.pos += 1;
                n
            }
            // `const fn` handled by the caller; `const _ :` etc.
            _ => String::new(),
        };
        // Type text: between `:` and `=`/`;` at depth 0.
        let mut ty = String::new();
        if matches!(self.peek(), Some(t) if t.kind == Tok::Punct(b':')) {
            self.pos += 1;
            let ty_start = self.peek().map(|t| t.lo as usize);
            let mut ty_end = ty_start;
            while let Some(t) = self.peek() {
                match t.kind {
                    Tok::Punct(b'=') | Tok::Punct(b';') => break,
                    Tok::Open(_) => {
                        let before_close = self.skip_tree().1;
                        ty_end = self.toks.get(before_close).map(|t| t.hi as usize);
                        continue;
                    }
                    _ => {
                        ty_end = Some(t.hi as usize);
                        self.pos += 1;
                    }
                }
            }
            if let (Some(lo), Some(hi)) = (ty_start, ty_end) {
                if lo <= hi && hi <= self.src.len() {
                    ty = self.src[lo..hi].to_string();
                }
            }
        }
        self.skip_item_to_semi();
        if !name.is_empty() {
            self.ast.statics.push(StaticDef { name, ty });
        }
    }

    fn item_struct(&mut self) {
        self.pos += 1; // `struct`
        let Some(name_tok) = self.bump() else { return };
        let name = name_tok.text(self.src).to_string();
        self.skip_generics();
        // where-clause then `{ fields }`, `( tuple );`, or `;`.
        let mut fields = Vec::new();
        loop {
            match self.peek().map(|t| t.kind) {
                Some(Tok::Punct(b';')) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Open(b'(')) => {
                    self.skip_tree();
                }
                Some(Tok::Open(b'{')) => {
                    let (start, end) = self.skip_tree();
                    fields = self.parse_fields(start, end);
                    break;
                }
                Some(_) => {
                    self.pos += 1;
                }
                None => break,
            }
        }
        self.ast.structs.push(StructDef { name, fields });
    }

    /// Parses named fields from the token range of a struct body.
    fn parse_fields(&self, start: usize, end: usize) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut k = start;
        while k < end {
            // Skip attributes and visibility.
            while k < end && self.toks[k].kind == Tok::Punct(b'#') {
                k += 1;
                if k < end {
                    k = skip_tree_at(self.toks, k, end);
                }
            }
            if k < end && self.toks[k].kind == Tok::Ident && self.toks[k].text(self.src) == "pub" {
                k += 1;
                if k < end && self.toks[k].kind == Tok::Open(b'(') {
                    k = skip_tree_at(self.toks, k, end);
                }
            }
            // name : type , — commas inside (), [], {} and <> don't end
            // the field.
            if k + 1 < end
                && self.toks[k].kind == Tok::Ident
                && self.toks[k + 1].kind == Tok::Punct(b':')
            {
                let name = self.toks[k].text(self.src).to_string();
                k += 2;
                let ty_lo = self.toks.get(k).map(|t| t.lo as usize);
                let mut ty_hi = ty_lo;
                let mut angle = 0i32;
                while k < end {
                    match self.toks[k].kind {
                        Tok::Punct(b',') if angle == 0 => break,
                        Tok::Punct(b'<') => angle += 1,
                        Tok::Punct(b'>') => angle -= 1,
                        Tok::Open(_) => {
                            let after = skip_tree_at(self.toks, k, end);
                            ty_hi = self.toks.get(after - 1).map(|t| t.hi as usize);
                            k = after;
                            continue;
                        }
                        _ => {}
                    }
                    ty_hi = Some(self.toks[k].hi as usize);
                    k += 1;
                }
                if let (Some(lo), Some(hi)) = (ty_lo, ty_hi) {
                    if lo <= hi && hi <= self.src.len() {
                        fields.push(Field {
                            name,
                            ty: self.src[lo..hi].to_string(),
                        });
                    }
                }
            }
            // Consume the separating comma (or make progress).
            if k < end {
                k += 1;
            } else {
                break;
            }
        }
        fields
    }

    fn item_impl(&mut self, in_test: bool) {
        self.pos += 1; // `impl`
        self.skip_generics();
        // Collect path tokens up to `{`; the self type is the segment
        // after `for` when present, else the first path.
        let mut segments: Vec<String> = Vec::new();
        let mut after_for: Option<usize> = None;
        while let Some(t) = self.peek() {
            match t.kind {
                Tok::Open(b'{') => break,
                Tok::Ident => {
                    let word = self.text(t);
                    if word == "for" {
                        after_for = Some(segments.len());
                    } else if word == "where" {
                        // bounds — stop collecting type segments
                        if self.skip_to_body_or_semi() {
                            break;
                        }
                        return;
                    } else {
                        segments.push(word.to_string());
                    }
                    self.pos += 1;
                }
                Tok::Punct(b'<') => self.skip_generics(),
                Tok::Open(_) => {
                    self.skip_tree();
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
        let self_ty = match after_for {
            Some(ix) => segments.get(ix).cloned(),
            // `impl Foo` — last segment of the (possibly qualified) path.
            None => segments.last().cloned(),
        };
        if matches!(self.peek(), Some(t) if t.kind == Tok::Open(b'{')) {
            self.pos += 1;
            self.items(self_ty.as_deref(), in_test, after_for.is_some(), Some(()));
        }
    }

    fn item_fn(&mut self, self_ty: Option<&str>, in_test: bool, via_trait: bool) {
        let fn_tok_line = self.peek().map(|t| t.line).unwrap_or(0);
        self.pos += 1; // `fn`
        let Some(name_tok) = self.bump() else { return };
        let name = name_tok.text(self.src).to_string();
        self.skip_generics();
        let mut locals: Vec<(String, String)> = Vec::new();
        if matches!(self.peek(), Some(t) if t.kind == Tok::Open(b'(')) {
            let (start, end) = self.skip_tree(); // params
            locals = param_types(self.src, &self.toks[start..end]);
        }
        let has_body = self.skip_to_body_or_semi();
        let mut def = FnDef {
            name,
            self_ty: self_ty.map(|s| s.to_string()),
            line: fn_tok_line,
            in_test,
            via_trait,
            markers: Vec::new(),
            calls: Vec::new(),
            sinks: Vec::new(),
            locks: Vec::new(),
            atomics: Vec::new(),
            locals,
        };
        if has_body {
            let (start, end) = self.skip_tree();
            walk_body(self.src, &self.toks[start..end], &mut def);
        }
        self.ast.fns.push(def);
    }
}

/// Extracts `name: Type` pairs from a parameter token slice (the
/// tokens between the parens). `self` receivers and pattern parameters
/// are skipped; the type text runs to the next top-level comma, which
/// truncates inside generic argument lists — harmless, since receiver
/// classification only reads the head of the type.
fn param_types(src: &str, toks: &[Token]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut k = 0usize;
    while k < toks.len() {
        match toks[k].kind {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth = depth.saturating_sub(1),
            Tok::Ident
                if depth == 0
                    && toks.get(k + 1).map(|t| t.kind) == Some(Tok::Punct(b':'))
                    && toks[k].text(src) != "self" =>
            {
                let name = toks[k].text(src).to_string();
                let Some(first) = toks.get(k + 2) else { break };
                let lo = first.lo;
                let mut j = k + 2;
                let mut d = 0usize;
                while j < toks.len() {
                    match toks[j].kind {
                        Tok::Open(_) => d += 1,
                        Tok::Close(_) => d = d.saturating_sub(1),
                        Tok::Punct(b',') if d == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j > k + 2 {
                    out.push((name, src[lo as usize..toks[j - 1].hi as usize].to_string()));
                }
                k = j + 1;
                continue;
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// Type of a `let` binding at token `k` (the `let`): an explicit
/// `let x: Ty = ..` annotation, or the qualifier of a constructor call
/// `let x = Ty::ctor(..)`. Returns `None` for untypable initializers.
fn let_type(src: &str, toks: &[Token], k: usize) -> Option<String> {
    let mut j = k + 1;
    if matches!(toks.get(j), Some(t) if t.kind == Tok::Ident && t.text(src) == "mut") {
        j += 1;
    }
    if toks.get(j).map(|t| t.kind) != Some(Tok::Ident) {
        return None; // pattern binding
    }
    match toks.get(j + 1).map(|t| t.kind) {
        Some(Tok::Punct(b':')) => {
            let lo = toks.get(j + 2)?.lo;
            let mut i = j + 2;
            let mut d = 0usize;
            while i < toks.len() {
                match toks[i].kind {
                    Tok::Open(_) => d += 1,
                    Tok::Close(_) => {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                    }
                    Tok::Punct(b'=') | Tok::Punct(b';') if d == 0 => break,
                    _ => {}
                }
                i += 1;
            }
            (i > j + 2).then(|| src[lo as usize..toks[i - 1].hi as usize].to_string())
        }
        Some(Tok::Punct(b'=')) => {
            // `let x = Ty::ctor(..)` — uppercase head + `::` is a
            // constructor-ish path; anything else stays untyped.
            let head = toks.get(j + 2)?;
            if head.kind == Tok::Ident
                && toks.get(j + 3).map(|t| t.kind) == Some(Tok::PathSep)
                && head.text(src).starts_with(|c: char| c.is_ascii_uppercase())
                // `Arc::clone(&x)`-style wrapper paths are aliases,
                // not constructors — the alias map owns those.
                && !matches!(head.text(src), "Arc" | "Rc" | "Box")
            {
                Some(head.text(src).to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Skips a balanced tree in a token slice starting at `k` (an `Open`);
/// returns the index one past the matching close.
fn skip_tree_at(toks: &[Token], k: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut k = k;
    while k < end {
        match toks[k].kind {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    end
}

const PANIC_MACROS: [(&str, &str); 4] = [
    ("panic", "panic!"),
    ("unreachable", "unreachable!"),
    ("todo", "todo!"),
    ("unimplemented", "unimplemented!"),
];

const KEYWORDS_NOT_CALLS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "break",
    "continue",
];

/// Methods that acquire a lock when called with zero arguments.
fn lock_method(name: &str) -> Option<LockKind> {
    match name {
        "lock" => Some(LockKind::Mutex),
        "read" => Some(LockKind::Read),
        "write" => Some(LockKind::Write),
        _ => None,
    }
}

/// Atomic read/write classification for HL009.
pub fn atomic_method(name: &str) -> Option<(bool, bool)> {
    // (reads, writes)
    match name {
        "load" => Some((true, false)),
        "store" => Some((false, true)),
        "swap"
        | "compare_exchange"
        | "compare_exchange_weak"
        | "fetch_add"
        | "fetch_sub"
        | "fetch_and"
        | "fetch_or"
        | "fetch_xor"
        | "fetch_nand"
        | "fetch_min"
        | "fetch_max"
        | "fetch_update" => Some((true, true)),
        _ => None,
    }
}

/// One held guard during the body walk.
struct Held {
    chain: String,
    binding: Option<String>,
    /// Brace depth at acquisition; `None` marks a statement temporary.
    scope: Option<usize>,
}

/// Walks one fn body's token slice, filling `def`.
fn walk_body(src: &str, toks: &[Token], def: &mut FnDef) {
    let text = |k: usize| toks[k].text(src);
    let kind = |k: usize| toks.get(k).map(|t| t.kind);
    let mut held: Vec<Held> = Vec::new();
    let mut aliases: Vec<(String, String)> = Vec::new(); // name -> chain
    let mut depth = 0usize;
    let mut stmt_start = true;
    let mut stmt_binding: Option<String> = None;

    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            Tok::Open(b'{') => {
                depth += 1;
                stmt_start = true;
                stmt_binding = None;
                k += 1;
                continue;
            }
            Tok::Close(b'{') => {
                // Scoped guards die with their block; a surviving
                // statement temporary is a tail-expression guard that
                // also dies at the block end.
                held.retain(|h| h.scope.is_some_and(|s| s < depth));
                depth = depth.saturating_sub(1);
                stmt_start = true;
                stmt_binding = None;
                k += 1;
                continue;
            }
            Tok::Punct(b';') => {
                // Statement temporaries release here.
                held.retain(|h| h.scope.is_some());
                stmt_start = true;
                stmt_binding = None;
                k += 1;
                continue;
            }
            _ => {}
        }
        // `let` binding name (first ident after `let`, skipping `mut`
        // and tuple/struct pattern sugar — good enough for guards).
        if stmt_start && t.kind == Tok::Ident && text(k) == "let" {
            let mut j = k + 1;
            while j < toks.len() {
                match toks[j].kind {
                    Tok::Ident if text(j) == "mut" => j += 1,
                    Tok::Ident => {
                        stmt_binding = Some(text(j).to_string());
                        break;
                    }
                    Tok::Open(_) | Tok::Punct(b'&') => j += 1,
                    _ => break,
                }
            }
            stmt_start = false;
            // Alias tracking: `let a = Arc::clone(&b);` / `let a = b.clone();`
            if let Some(name) = &stmt_binding {
                if let Some(target) = alias_target(src, toks, k) {
                    let resolved = resolve_alias(&aliases, &target);
                    aliases.retain(|(n, _)| n != name);
                    aliases.push((name.clone(), resolved));
                }
                if let Some(ty) = let_type(src, toks, k) {
                    def.locals.push((name.clone(), ty));
                }
            }
            k += 1;
            continue;
        }
        stmt_start = false;

        // `drop(guard)` releases a named guard.
        if t.kind == Tok::Ident
            && text(k) == "drop"
            && kind(k + 1) == Some(Tok::Open(b'('))
            && kind(k + 2) == Some(Tok::Ident)
            && kind(k + 3) == Some(Tok::Close(b'('))
        {
            let name = text(k + 2).to_string();
            held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
            k += 4;
            continue;
        }

        // Macro sinks + macro calls: IDENT `!` `(`/`[`/`{` (the
        // delimiter requirement keeps `x != y` from matching).
        if t.kind == Tok::Ident
            && kind(k + 1) == Some(Tok::Punct(b'!'))
            && matches!(kind(k + 2), Some(Tok::Open(_)))
        {
            let name = text(k);
            if let Some((_, label)) = PANIC_MACROS.iter().find(|(m, _)| *m == name) {
                def.sinks.push(Sink {
                    what: label,
                    line: t.line,
                });
            }
            k += 2;
            continue;
        }

        // Method calls: `.` IDENT `(`.
        if t.kind == Tok::Punct(b'.')
            && kind(k + 1) == Some(Tok::Ident)
            && kind(k + 2) == Some(Tok::Open(b'('))
        {
            let name = text(k + 1);
            let line = toks[k + 1].line;
            let arg_count = count_args(toks, k + 2);
            // Sinks.
            if name == "unwrap" && arg_count == 0 {
                def.sinks.push(Sink {
                    what: ".unwrap()",
                    line,
                });
            } else if name == "expect" {
                def.sinks.push(Sink {
                    what: ".expect(",
                    line,
                });
            }
            let chain = receiver_chain(src, toks, k).map(|c| resolve_alias(&aliases, &c));
            // Lock acquisitions: zero-arg lock()/read()/write() on a
            // simple receiver chain.
            if let (Some(lk), Some(chain), 0) = (lock_method(name), chain.as_ref(), arg_count) {
                def.locks.push(LockAcq {
                    chain: chain.clone(),
                    kind: lk,
                    line,
                    held: held.iter().map(|h| h.chain.clone()).collect(),
                });
                held.push(Held {
                    chain: chain.clone(),
                    binding: stmt_binding.clone(),
                    scope: stmt_binding.as_ref().map(|_| depth),
                });
            }
            // Atomic ops with Ordering arguments.
            if let (Some(_), Some(chain)) = (atomic_method(name), chain.as_ref()) {
                let orderings = collect_orderings(src, toks, k + 2);
                if !orderings.is_empty() {
                    def.atomics.push(AtomicOp {
                        chain: chain.clone(),
                        method: name.to_string(),
                        orderings,
                        line,
                    });
                }
            }
            def.calls.push(CallSite {
                name: name.to_string(),
                qual: None,
                method: true,
                recv: chain,
                line,
                held: held.iter().map(|h| h.chain.clone()).collect(),
            });
            k += 2; // land on `(` so the args are walked too
            continue;
        }

        // Free / path calls: IDENT `(` not preceded by `.` or `fn`.
        if t.kind == Tok::Ident && kind(k + 1) == Some(Tok::Open(b'(')) {
            let name = text(k);
            let prev = k.checked_sub(1).and_then(|p| toks.get(p));
            let prev_kind = prev.map(|t| t.kind);
            let prev_is_dot = prev_kind == Some(Tok::Punct(b'.'));
            let prev_is_fn = matches!(prev, Some(p) if p.kind == Tok::Ident && p.text(src) == "fn");
            if !prev_is_dot && !prev_is_fn && !KEYWORDS_NOT_CALLS.contains(&name) {
                let qual = if prev_kind == Some(Tok::PathSep) {
                    k.checked_sub(2)
                        .and_then(|p| toks.get(p))
                        .filter(|t| t.kind == Tok::Ident)
                        .map(|t| t.text(src).to_string())
                } else {
                    None
                };
                def.calls.push(CallSite {
                    name: name.to_string(),
                    qual,
                    method: false,
                    recv: None,
                    line: t.line,
                    held: held.iter().map(|h| h.chain.clone()).collect(),
                });
            }
            k += 1; // land on `(`
            continue;
        }

        // Indexing sink: IDENT `[` or `)` `[` / `]` `[` (only meaningful
        // for `// lint: hot-path` functions; always recorded, filtered
        // at rule time).
        if matches!(t.kind, Tok::Open(b'['))
            && k > 0
            && matches!(
                toks[k - 1].kind,
                Tok::Ident | Tok::Close(b'(') | Tok::Close(b'[')
            )
        {
            def.sinks.push(Sink {
                what: "index[]",
                line: t.line,
            });
        }

        k += 1;
    }
}

/// Counts top-level comma-separated arguments inside the tree opening
/// at `open` (an `Open('(')` index). Zero when the parens are empty.
fn count_args(toks: &[Token], open: usize) -> usize {
    let end = skip_tree_at(toks, open, toks.len());
    if end <= open + 2 {
        return 0; // `()`
    }
    let mut commas = 0usize;
    let mut depth = 0usize;
    for t in &toks[open + 1..end - 1] {
        match t.kind {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth = depth.saturating_sub(1),
            Tok::Punct(b',') if depth == 0 => commas += 1,
            _ => {}
        }
    }
    commas + 1
}

/// Extracts the dotted receiver chain ending at the `.` at index `dot`:
/// `self.state.lock()` → `self.state`. Only simple `ident(.ident)*`
/// chains resolve; anything else (calls, indexing, literals) is opaque.
fn receiver_chain(src: &str, toks: &[Token], dot: usize) -> Option<String> {
    let mut names: Vec<&str> = Vec::new();
    let mut k = dot; // at `.`
    loop {
        let prev = k.checked_sub(1)?;
        let t = toks.get(prev)?;
        if t.kind != Tok::Ident {
            return None;
        }
        names.push(t.text(src));
        let Some(before) = prev.checked_sub(1).and_then(|p| toks.get(p)) else {
            break;
        };
        if before.kind == Tok::Punct(b'.') {
            k = prev - 1;
            continue;
        }
        // A path separator (`Ordering::Relaxed.foo`) or anything else
        // ends the chain; `&` and friends are fine chain starts.
        break;
    }
    names.reverse();
    if names.is_empty() || KEYWORDS_NOT_CALLS.contains(&names[0]) {
        return None;
    }
    Some(names.join("."))
}

/// `Ordering::X` idents inside the call tree opening at `open`.
fn collect_orderings(src: &str, toks: &[Token], open: usize) -> Vec<String> {
    let end = skip_tree_at(toks, open, toks.len());
    let mut out = Vec::new();
    let mut k = open;
    while k + 2 < end {
        if toks[k].kind == Tok::Ident
            && toks[k].text(src) == "Ordering"
            && toks[k + 1].kind == Tok::PathSep
            && toks[k + 2].kind == Tok::Ident
        {
            out.push(toks[k + 2].text(src).to_string());
            k += 3;
            continue;
        }
        k += 1;
    }
    out
}

/// Detects `let NAME = Arc::clone(&CHAIN)` / `let NAME = CHAIN.clone()`
/// at the `let` at index `k`; returns the aliased chain.
fn alias_target(src: &str, toks: &[Token], k: usize) -> Option<String> {
    // Find `=` within the statement.
    let mut j = k;
    let mut eq = None;
    while j < toks.len() && j < k + 8 {
        if toks[j].kind == Tok::Punct(b'=') {
            eq = Some(j);
            break;
        }
        if toks[j].kind == Tok::Punct(b';') {
            return None;
        }
        j += 1;
    }
    let eq = eq?;
    // Arc::clone(&chain) | chain.clone()
    let t = |i: usize| toks.get(i);
    if t(eq + 1).is_some_and(|x| x.kind == Tok::Ident && x.text(src) == "Arc")
        && t(eq + 2).is_some_and(|x| x.kind == Tok::PathSep)
        && t(eq + 3).is_some_and(|x| x.kind == Tok::Ident && x.text(src) == "clone")
        && t(eq + 4).is_some_and(|x| x.kind == Tok::Open(b'('))
    {
        let end = skip_tree_at(toks, eq + 4, toks.len());
        let mut names = Vec::new();
        for tok in &toks[eq + 5..end.saturating_sub(1)] {
            match tok.kind {
                Tok::Ident => names.push(tok.text(src)),
                Tok::Punct(b'&') | Tok::Punct(b'.') => {}
                _ => return None,
            }
        }
        if names.is_empty() {
            return None;
        }
        return Some(names.join("."));
    }
    // chain.clone()
    let mut j = eq + 1;
    let mut names = Vec::new();
    while let Some(tok) = t(j) {
        match tok.kind {
            Tok::Ident if tok.text(src) == "clone" && names.is_empty() => return None,
            Tok::Ident => {
                names.push(tok.text(src));
                j += 1;
            }
            Tok::Punct(b'.') => {
                if t(j + 1).is_some_and(|x| x.kind == Tok::Ident && x.text(src) == "clone")
                    && t(j + 2).is_some_and(|x| x.kind == Tok::Open(b'('))
                    && t(j + 3).is_some_and(|x| x.kind == Tok::Close(b'('))
                    && t(j + 4).is_none_or(|x| x.kind == Tok::Punct(b';'))
                {
                    if names.is_empty() {
                        return None;
                    }
                    return Some(names.join("."));
                }
                j += 1;
            }
            Tok::Punct(b'&') => j += 1,
            _ => return None,
        }
    }
    None
}

/// Resolves a chain's first segment through the alias map.
fn resolve_alias(aliases: &[(String, String)], chain: &str) -> String {
    let mut parts: Vec<&str> = chain.split('.').collect();
    if let Some((_, target)) = aliases.iter().rev().find(|(n, _)| n == parts[0]) {
        let mut resolved: Vec<&str> = target.split('.').collect();
        resolved.extend(parts.drain(1..));
        return resolved.join(".");
    }
    chain.to_string()
}
