//! Workspace-wide symbol table and call graph over parsed files.
//!
//! Call resolution is **conservative** — a call site resolves to every
//! non-test function it could plausibly mean, so reachability
//! over-approximates (sound for the panic rule) — but it is also
//! **type-aware** where the parse gives us types, which is what keeps
//! the over-approximation from swallowing the whole workspace.
//! Resolution order per site:
//!
//! 1. `Type::name(..)` / `Self::name(..)` — methods/assoc fns of that
//!    impl type; `module::name(..)` — functions in files whose stem
//!    matches the qualifier (`http::parse_head` →
//!    `crates/server/src/http.rs`). A qualifier matching neither a
//!    workspace type nor a module stem is a std/external path
//!    (`Vec::new`, `thread::spawn`) and resolves to nothing — falling
//!    back to bare-name matching here is what used to connect every
//!    constructor in the workspace to every other.
//! 2. `recv.name(..)` where `recv` is `self` or a field-access chain
//!    (`self.pool`, `state.queue`): the receiver type is looked up in
//!    the parsed struct fields, std wrappers (`Arc`/`Rc`/`Box`/`&`)
//!    are peeled, and the call resolves against that type's impls. A
//!    receiver typed as a std container (`Vec`, `Mutex`, …) resolves
//!    to nothing: `state.queue.len()` is `VecDeque::len`, not some
//!    workspace `len`.
//! 3. `recv.name(..)` with an untypable receiver (locals, call
//!    results, `dyn Trait` fields) — every impl method with that name
//!    anywhere in the workspace (this is what keeps `dyn Trait`
//!    dispatch sound);
//! 4. bare `name(..)` — same-file functions first, else every function
//!    with that name (covers `use`-imported free functions); a
//!    `crate::`/`hyperline_*::`-qualified free call gets the same
//!    bare-name treatment since it is workspace-internal by
//!    construction.
//!
//! Sites that resolve to nothing (std methods, macros expanded away)
//! are counted in [`CallGraph::unresolved`] for the summary line but
//! never reported: closure bodies are attributed to their defining
//! function by the parser, so a `f()` call through a function-typed
//! parameter never hides reachable work.
//!
//! `#[cfg(test)]` functions and files under `tests/`/`benches/` are
//! excluded from the graph entirely — they are neither roots nor
//! callees.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::parser::{FileAst, FnDef};

/// What we could learn about a method receiver from field types.
enum RecvTy<'a> {
    /// A workspace type with impls — resolve against its methods.
    Known(&'a str),
    /// A std/external type (`Vec`, `Mutex`, …) — the call cannot land
    /// on workspace code.
    Opaque,
    /// Untypable (local variable, call result, `dyn Trait`) — fall
    /// back to name-based method matching.
    Unknown,
}

/// Peels `&`/`mut` and transparent wrappers (`Arc<`, `Rc<`, `Box<`)
/// off a field type and classifies what remains. `dyn` types stay
/// [`RecvTy::Unknown`] so trait-object dispatch resolves by name.
fn classify_ty<'a>(ty: &'a str, known: &HashSet<&'a str>) -> RecvTy<'a> {
    if ty.contains("dyn") {
        return RecvTy::Unknown;
    }
    let mut rest = ty.trim_start_matches(['&', ' ']);
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix("mut ") {
            rest = r;
            continue;
        }
        let end = rest
            .find(|c: char| !c.is_alphanumeric() && c != '_')
            .unwrap_or(rest.len());
        let head = &rest[..end];
        if head.is_empty() {
            return RecvTy::Opaque;
        }
        if matches!(head, "Arc" | "Rc" | "Box") {
            match rest[end..].trim_start().strip_prefix('<') {
                Some(inner) => {
                    rest = inner;
                    continue;
                }
                None => return RecvTy::Opaque,
            }
        }
        return match known.get(head) {
            Some(&t) => RecvTy::Known(t),
            None => RecvTy::Opaque,
        };
    }
}

/// One graph node: a non-test function and its defining file.
pub struct Node<'a> {
    /// Repo-relative path of the defining file.
    pub file: &'a str,
    /// The parsed definition.
    pub def: &'a FnDef,
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    /// All parsed files (including ones with no functions).
    pub files: &'a [FileAst],
    /// Graph nodes, in deterministic (file, definition) order.
    pub nodes: Vec<Node<'a>>,
    /// Resolved callee ids per node, deduped and sorted.
    pub edges: Vec<Vec<usize>>,
    /// Call sites that resolved to no workspace function.
    pub unresolved: usize,
}

/// File stem (`http` for `crates/server/src/http.rs`).
fn stem(path: &str) -> &str {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base)
}

impl<'a> CallGraph<'a> {
    /// Builds the graph from parsed files.
    pub fn build(files: &'a [FileAst]) -> CallGraph<'a> {
        let mut nodes = Vec::new();
        for f in files {
            for def in &f.fns {
                if !def.in_test {
                    nodes.push(Node {
                        file: f.path.as_str(),
                        def,
                    });
                }
            }
        }
        // Indexes. Values are node ids in insertion (deterministic) order.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut methods: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_ty: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut by_mod: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (id, n) in nodes.iter().enumerate() {
            let name = n.def.name.as_str();
            by_name.entry(name).or_default().push(id);
            by_mod.entry((stem(n.file), name)).or_default().push(id);
            if let Some(ty) = &n.def.self_ty {
                methods.entry(name).or_default().push(id);
                by_ty.entry((ty.as_str(), name)).or_default().push(id);
            }
        }
        // Types that have at least one impl, and field name -> owning
        // struct + declared type, for typed receiver resolution.
        let known_tys: HashSet<&str> = by_ty.keys().map(|&(t, _)| t).collect();
        // Method names reachable through trait-object dispatch: declared
        // in a `trait` block or defined in an `impl Trait for Type`.
        // Only these may resolve by bare name on an untyped receiver —
        // an inherent method can only be called through a receiver of
        // its concrete type, which the typed path already handles.
        let dyn_names: HashSet<&str> = nodes
            .iter()
            .filter(|n| n.def.via_trait)
            .map(|n| n.def.name.as_str())
            .collect();
        let mut fields: HashMap<&str, Vec<(&str, &str)>> = HashMap::new();
        for f in files {
            for s in &f.structs {
                for fld in &s.fields {
                    fields
                        .entry(fld.name.as_str())
                        .or_default()
                        .push((s.name.as_str(), fld.ty.as_str()));
                }
            }
        }
        // Classifies a dotted receiver chain: `self` by the impl type,
        // a single segment by the caller's declared locals (params and
        // typed `let` bindings), longer chains by field declarations.
        let recv_ty = |recv: &str, def: &'a FnDef| -> RecvTy<'a> {
            let caller_ty = def.self_ty.as_deref();
            let segs: Vec<&str> = recv.split('.').collect();
            if segs == ["self"] {
                return match caller_ty.and_then(|t| known_tys.get(t)) {
                    Some(&t) => RecvTy::Known(t),
                    None => RecvTy::Unknown,
                };
            }
            if segs.len() < 2 {
                // Later bindings shadow earlier ones.
                return match def.locals.iter().rev().find(|(n, _)| n == segs[0]) {
                    Some((_, ty)) => classify_ty(ty, &known_tys),
                    None => RecvTy::Unknown,
                };
            }
            let last = segs[segs.len() - 1];
            let owners = match fields.get(last) {
                Some(o) => o,
                None => return RecvTy::Unknown,
            };
            // `self.field` on a known impl type picks that struct's
            // declaration; otherwise the field name must be
            // unambiguous across the workspace.
            let ty = if segs.len() == 2 && segs[0] == "self" {
                match caller_ty.and_then(|c| owners.iter().find(|(o, _)| *o == c)) {
                    Some((_, ty)) => *ty,
                    None => return RecvTy::Unknown,
                }
            } else {
                let first = owners[0].1;
                if owners.iter().any(|(_, t)| *t != first) {
                    return RecvTy::Unknown;
                }
                first
            };
            classify_ty(ty, &known_tys)
        };
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        let mut unresolved = 0usize;
        for n in &nodes {
            let mut out: Vec<usize> = Vec::new();
            for call in &n.def.calls {
                let name = call.name.as_str();
                let targets: Option<&Vec<usize>> = if call.method {
                    let recv = call.recv.as_deref();
                    let dyn_targets = || {
                        if dyn_names.contains(name) {
                            methods.get(name)
                        } else {
                            None
                        }
                    };
                    match recv.map_or(RecvTy::Unknown, |r| recv_ty(r, n.def)) {
                        // Typed lookup, with a dyn-dispatch fallback
                        // for trait methods the parser filed under the
                        // trait's name rather than the impl type's.
                        RecvTy::Known(t) => by_ty.get(&(t, name)).or_else(dyn_targets),
                        RecvTy::Opaque => None,
                        RecvTy::Unknown => dyn_targets(),
                    }
                } else if let Some(q) = &call.qual {
                    let q = if q == "Self" {
                        n.def.self_ty.as_deref().unwrap_or("Self")
                    } else {
                        q.as_str()
                    };
                    by_ty
                        .get(&(q, name))
                        .or_else(|| by_mod.get(&(q, name)))
                        .or_else(|| {
                            // `crate::f()` / `hyperline_x::f()` are
                            // workspace-internal; anything else
                            // (`Vec::new`, `thread::spawn`) is std.
                            if q == "crate" || q.starts_with("hyperline_") {
                                by_name.get(name)
                            } else {
                                None
                            }
                        })
                } else {
                    by_name.get(name)
                };
                match targets {
                    Some(ids) => {
                        // Bare same-file calls prefer same-file targets.
                        if !call.method && call.qual.is_none() {
                            let local: Vec<usize> = ids
                                .iter()
                                .copied()
                                .filter(|&id| nodes[id].file == n.file)
                                .collect();
                            if !local.is_empty() {
                                out.extend(local);
                                continue;
                            }
                        }
                        out.extend(ids.iter().copied());
                    }
                    None => unresolved += 1,
                }
            }
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }
        CallGraph {
            files,
            nodes,
            edges,
            unresolved,
        }
    }

    /// Node ids carrying a `// lint: <marker>` annotation.
    pub fn marked(&self, marker: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.def.markers.iter().any(|m| m == marker))
            .map(|(id, _)| id)
            .collect()
    }

    /// BFS from `roots`. Returns per-node `Option<parent>`; a root's
    /// parent is itself, unvisited nodes are `None`.
    pub fn bfs(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut q = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                q.push_back(r);
            }
        }
        while let Some(u) = q.pop_front() {
            for &v in &self.edges[u] {
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    q.push_back(v);
                }
            }
        }
        parent
    }

    /// Renders the shortest discovered call chain `root->..->id` using
    /// `Type::method` names, separated by `->` (no spaces, so a chain
    /// suffix works as an allowlist needle).
    pub fn chain(&self, parent: &[Option<usize>], id: usize) -> String {
        let mut names = Vec::new();
        let mut cur = id;
        loop {
            names.push(self.nodes[cur].def.qual_name());
            match parent[cur] {
                Some(p) if p != cur => cur = p,
                _ => break,
            }
        }
        names.reverse();
        names.join("->")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph_of(files: &[FileAst]) -> CallGraph<'_> {
        CallGraph::build(files)
    }

    fn callees(g: &CallGraph<'_>, name: &str) -> Vec<String> {
        let id = g
            .nodes
            .iter()
            .position(|n| n.def.name == name)
            .expect("caller node");
        g.edges[id]
            .iter()
            .map(|&id| g.nodes[id].def.qual_name())
            .collect()
    }

    #[test]
    fn resolves_free_module_and_typed_method_calls() {
        let a = parse_file(
            "crates/x/src/main.rs",
            "fn top(obj: V, v: Vec<u32>) { helper(); http::read(); obj.render(); v.len(); }\n\
             fn helper() {}\n",
        );
        let b = parse_file("crates/x/src/http.rs", "pub fn read() {}\n");
        let c = parse_file(
            "crates/x/src/view.rs",
            "struct V;\nimpl V { fn render(&self) {} fn len(&self) -> usize { 0 } }\n",
        );
        let files = vec![a, b, c];
        let g = graph_of(&files);
        let callees = callees(&g, "top");
        assert!(callees.contains(&"helper".to_string()), "{callees:?}");
        assert!(callees.contains(&"read".to_string()), "{callees:?}");
        assert!(callees.contains(&"V::render".to_string()), "{callees:?}");
        // `v` is a std Vec: its `len` is not the workspace `V::len`.
        assert!(!callees.contains(&"V::len".to_string()), "{callees:?}");
    }

    #[test]
    fn untyped_receivers_resolve_only_through_trait_dispatch() {
        let f = parse_file(
            "crates/x/src/lib.rs",
            "trait Frag { fn emit(&self); }\n\
             struct A;\nimpl Frag for A { fn emit(&self) {} }\n\
             struct B;\nimpl B { fn only(&self) {} }\n\
             fn go(frags: Vec<Box<dyn Frag>>) { for f in frags { f.emit(); f.only(); } }\n",
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        let files = vec![f];
        let g = graph_of(&files);
        let callees = callees(&g, "go");
        assert!(
            callees.contains(&"A::emit".to_string()),
            "dyn trait dispatch must stay sound: {callees:?}"
        );
        assert!(
            !callees.contains(&"B::only".to_string()),
            "an inherent method must not resolve on an untyped receiver: {callees:?}"
        );
    }

    #[test]
    fn let_bindings_type_single_segment_receivers() {
        let f = parse_file(
            "crates/x/src/lib.rs",
            "struct J;\n\
             impl J { fn obj() -> J { J } fn render(&self) {} fn clear(&self) {} }\n\
             fn go() { let j = J::obj(); j.render(); let s = String::new(); s.clear(); }\n",
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        let files = vec![f];
        let g = graph_of(&files);
        let callees = callees(&g, "go");
        assert!(callees.contains(&"J::obj".to_string()), "{callees:?}");
        assert!(callees.contains(&"J::render".to_string()), "{callees:?}");
        // `s` is a String: its `clear` is not the workspace `J::clear`.
        assert!(!callees.contains(&"J::clear".to_string()), "{callees:?}");
    }

    #[test]
    fn bfs_chain_spans_hops_and_skips_test_fns() {
        let f = parse_file(
            "crates/x/src/lib.rs",
            concat!(
                "// lint: request-root\n",
                "fn root() { mid(); }\n",
                "fn mid() { leaf(); }\n",
                "fn leaf() {}\n",
                "#[cfg(test)]\nmod tests { fn leaf() {} }\n",
            ),
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        let files = vec![f];
        let g = graph_of(&files);
        assert_eq!(g.nodes.len(), 3, "test fn must be excluded");
        let roots = g.marked("request-root");
        assert_eq!(roots.len(), 1);
        let parent = g.bfs(&roots);
        let leaf = g.nodes.iter().position(|n| n.def.name == "leaf").unwrap();
        assert_eq!(g.chain(&parent, leaf), "root->mid->leaf");
    }
}
