//! HL008 — static lock-order cycle detection.
//!
//! Builds the workspace lock-acquisition graph: a directed edge
//! `A -> B` means some function acquires lock `B` while holding lock
//! `A`, either directly or by calling (transitively) into a function
//! that may acquire `B`. Any cycle — including the self-loop of
//! re-locking a held lock — is a potential deadlock and fails the
//! build.
//!
//! Locks are identified by struct field (`Pair.a`) when the field can
//! be typed against a workspace struct whose field type mentions
//! `Mutex</RwLock</Condvar`, falling back to the bare field name when
//! ambiguous; chains that resolve to no known lock field (e.g.
//! `io::Read::read` calls) are ignored. Scope: files that import
//! through the `hyperline_util::sync` seam, excluding `crates/sched/`
//! (which *implements* the primitives) and test code.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::Finding;

/// Maps field names to the workspace structs declaring them with a
/// lock type, plus lock-typed statics.
struct LockUniverse {
    field_owners: HashMap<String, Vec<String>>,
    statics: HashSet<String>,
}

fn lock_type(ty: &str) -> bool {
    ty.contains("Mutex<") || ty.contains("RwLock<") || ty.contains("Condvar")
}

impl LockUniverse {
    fn build(graph: &CallGraph<'_>) -> LockUniverse {
        let mut field_owners: HashMap<String, Vec<String>> = HashMap::new();
        let mut statics = HashSet::new();
        for f in graph.files {
            for s in &f.structs {
                for field in &s.fields {
                    if lock_type(&field.ty) {
                        field_owners
                            .entry(field.name.clone())
                            .or_default()
                            .push(s.name.clone());
                    }
                }
            }
            for st in &f.statics {
                if lock_type(&st.ty) {
                    statics.insert(st.name.clone());
                }
            }
        }
        LockUniverse {
            field_owners,
            statics,
        }
    }

    /// Stable lock id for a receiver chain, or `None` when the chain's
    /// final segment is not a known lock field/static.
    fn id(&self, chain: &str, self_ty: Option<&str>) -> Option<String> {
        let field = chain.rsplit('.').next().unwrap_or(chain);
        if let Some(owners) = self.field_owners.get(field) {
            if chain.starts_with("self.") {
                if let Some(ty) = self_ty {
                    if owners.iter().any(|o| o == ty) {
                        return Some(format!("{ty}.{field}"));
                    }
                }
            }
            let unique: HashSet<&String> = owners.iter().collect();
            if unique.len() == 1 {
                return Some(format!("{}.{field}", owners[0]));
            }
            return Some(field.to_string());
        }
        if self.statics.contains(field) {
            return Some(field.to_string());
        }
        None
    }
}

/// Whether a node is in scope for lock tracking.
fn in_scope(file: &str, uses_seam: bool) -> bool {
    uses_seam && !file.starts_with("crates/sched/")
}

/// Runs HL008 over the graph. Returns the number of lock-graph edges
/// for the summary line.
pub fn run(graph: &CallGraph<'_>, findings: &mut Vec<Finding>) -> usize {
    let universe = LockUniverse::build(graph);
    let seam: HashSet<&str> = graph
        .files
        .iter()
        .filter(|f| f.uses_sync_seam)
        .map(|f| f.path.as_str())
        .collect();
    let scoped: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| in_scope(n.file, seam.contains(n.file)))
        .collect();

    let lock_id = |acq_chain: &str, node: usize| {
        universe.id(acq_chain, graph.nodes[node].def.self_ty.as_deref())
    };

    // may_acquire: per node, the set of lock ids it (transitively) may
    // take. Fixpoint over the call graph; out-of-scope nodes contribute
    // nothing directly but still propagate their callees' sets.
    let n = graph.nodes.len();
    let mut may: Vec<HashSet<String>> = vec![HashSet::new(); n];
    for id in 0..n {
        if !scoped[id] {
            continue;
        }
        for acq in &graph.nodes[id].def.locks {
            if let Some(l) = lock_id(&acq.chain, id) {
                may[id].insert(l);
            }
        }
    }
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds < n + 1 {
        changed = false;
        rounds += 1;
        for u in 0..n {
            for vi in 0..graph.edges[u].len() {
                let v = graph.edges[u][vi];
                if v == u || may[v].is_empty() {
                    continue;
                }
                let add: Vec<String> = may[v].difference(&may[u]).cloned().collect();
                if !add.is_empty() {
                    changed = true;
                    may[u].extend(add);
                }
            }
        }
    }

    // Edge provenance: held -> acquired, first site wins (BTreeMap for
    // deterministic iteration).
    let mut lock_edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    let mut note_edge = |held: &str, acquired: &str, file: &str, line: u32, via: &str| {
        lock_edges
            .entry((held.to_string(), acquired.to_string()))
            .or_insert_with(|| (file.to_string(), line, via.to_string()));
    };
    for id in (0..n).filter(|&id| scoped[id]) {
        let node = &graph.nodes[id];
        let resolve_held = |acq_held: &[String]| -> Vec<String> {
            acq_held.iter().filter_map(|h| lock_id(h, id)).collect()
        };
        for acq in &node.def.locks {
            let Some(acquired) = lock_id(&acq.chain, id) else {
                continue;
            };
            for held in resolve_held(&acq.held) {
                note_edge(&held, &acquired, node.file, acq.line, &node.def.qual_name());
            }
        }
        for call in &node.def.calls {
            if call.held.is_empty() {
                continue;
            }
            let held_ids = resolve_held(&call.held);
            if held_ids.is_empty() {
                continue;
            }
            // Everything the callee may acquire is taken while `held`.
            // Edges are per-node, so match callees back to this site by
            // name.
            let mut acquired: HashSet<&String> = HashSet::new();
            for &callee in &graph.edges[id] {
                if graph.nodes[callee].def.name != call.name {
                    continue;
                }
                acquired.extend(may[callee].iter());
            }
            for a in acquired {
                for held in &held_ids {
                    if held != a {
                        note_edge(held, a, node.file, call.line, &node.def.qual_name());
                    }
                }
            }
        }
    }

    // Self-loops are immediate re-entrancy deadlocks.
    for id in (0..n).filter(|&id| scoped[id]) {
        let node = &graph.nodes[id];
        for acq in &node.def.locks {
            let Some(acquired) = lock_id(&acq.chain, id) else {
                continue;
            };
            let held_ids: Vec<String> = acq.held.iter().filter_map(|h| lock_id(h, id)).collect();
            if held_ids.contains(&acquired) {
                findings.push(Finding {
                    file: node.file.to_string(),
                    line: acq.line as usize,
                    rule: "HL008",
                    what: format!(
                        "lock-order cycle {acquired}->{acquired} (re-lock while held in {})",
                        node.def.qual_name()
                    ),
                    hint: "a lock is re-acquired while already held on this path — restructure so the guard is dropped first",
                });
            }
        }
    }

    // Cross-lock cycles: adjacency over ids, report each cycle once via
    // a canonical rotation of the id list.
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (held, acquired) in lock_edges.keys() {
        adj.entry(held).or_default().push(acquired);
    }
    let mut reported: HashSet<String> = HashSet::new();
    for ((a, b), (file, line, via)) in &lock_edges {
        if a == b {
            continue; // handled as self-loop above (direct case)
        }
        // Path b ->* a?
        if let Some(path) = shortest_path(&adj, b, a) {
            // Cycle: a -> b -> ... -> a.
            let mut cycle: Vec<&String> = vec![a, b];
            cycle.extend(path.iter().skip(1)); // path starts at b, ends at a
            cycle.pop(); // drop trailing a (implicit wrap)
            let key = canonical_cycle(&cycle);
            if reported.insert(key) {
                let rendered: Vec<&str> = cycle
                    .iter()
                    .map(|s| s.as_str())
                    .chain(std::iter::once(cycle[0].as_str()))
                    .collect();
                findings.push(Finding {
                    file: file.clone(),
                    line: *line as usize,
                    rule: "HL008",
                    what: format!("lock-order cycle {} (edge taken in {via})", rendered.join("->")),
                    hint: "impose a single global acquisition order for these locks (or drop one guard before taking the next)",
                });
            }
        }
    }
    lock_edges.len()
}

/// BFS shortest path `from ->* to` over the lock adjacency; returns the
/// node list starting at `from` and ending at `to`.
fn shortest_path<'m>(
    adj: &'m BTreeMap<&'m String, Vec<&'m String>>,
    from: &'m String,
    to: &'m String,
) -> Option<Vec<&'m String>> {
    let mut parent: HashMap<&String, &String> = HashMap::new();
    let mut q = VecDeque::new();
    q.push_back(from);
    let mut seen: HashSet<&String> = HashSet::new();
    seen.insert(from);
    while let Some(u) = q.pop_front() {
        if u == to {
            let mut path = vec![u];
            let mut cur = u;
            while let Some(&p) = parent.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &v in adj.get(u).into_iter().flatten() {
            if seen.insert(v) {
                parent.insert(v, u);
                q.push_back(v);
            }
        }
    }
    None
}

/// Canonical form of a cycle: rotate so the lexicographically smallest
/// id comes first.
fn canonical_cycle(cycle: &[&String]) -> String {
    if cycle.is_empty() {
        return String::new();
    }
    let min_at = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.as_str())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    for k in 0..cycle.len() {
        out.push(cycle[(min_at + k) % cycle.len()].as_str());
    }
    out.join("->")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let asts: Vec<_> = files.iter().map(|(p, s)| parse_file(p, s)).collect();
        let graph = CallGraph::build(&asts);
        let mut findings = Vec::new();
        run(&graph, &mut findings);
        findings
    }

    const ABBA: &str = concat!(
        "use crate::sync::Mutex;\n",
        "struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n",
        "impl Pair {\n",
        "    fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n",
        "    fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }\n",
        "}\n",
    );

    #[test]
    fn direct_abba_inversion_is_a_cycle() {
        let findings = run_on(&[("crates/util/src/pair.rs", ABBA)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "HL008");
        assert!(
            findings[0].what.contains("Pair.a->Pair.b->Pair.a"),
            "{}",
            findings[0].what
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = ABBA.replace(
            "fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }",
            "fn ba(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }",
        );
        assert!(run_on(&[("crates/util/src/pair.rs", &src)]).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = concat!(
            "use crate::sync::Mutex;\n",
            "struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n",
            "impl Pair {\n",
            "    fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n",
            "    fn ba(&self) { let gb = self.b.lock(); drop(gb); let ga = self.a.lock(); }\n",
            "}\n",
        );
        assert!(run_on(&[("crates/util/src/pair.rs", src)]).is_empty());
    }

    #[test]
    fn interprocedural_inversion_is_caught() {
        let src = concat!(
            "use crate::sync::Mutex;\n",
            "struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n",
            "impl Pair {\n",
            "    fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n",
            "    fn ba(&self) { let gb = self.b.lock(); self.grab_a(); }\n",
            "    fn grab_a(&self) { let ga = self.a.lock(); }\n",
            "}\n",
        );
        let findings = run_on(&[("crates/util/src/pair.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].what.contains("lock-order cycle"));
    }

    #[test]
    fn relock_while_held_is_a_self_loop() {
        let src = concat!(
            "use crate::sync::Mutex;\n",
            "struct S { a: Mutex<u32> }\n",
            "impl S { fn f(&self) { let g1 = self.a.lock(); let g2 = self.a.lock(); } }\n",
        );
        let findings = run_on(&[("crates/util/src/s.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].what.contains("S.a->S.a"),
            "{}",
            findings[0].what
        );
    }
}
