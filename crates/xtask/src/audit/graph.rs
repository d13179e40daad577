//! Workspace call graph: flattens every parsed function into one index,
//! resolves call expressions to candidate definitions by name (with
//! qualifier narrowing), and computes reachability from the declared
//! hot-path roots.
//!
//! Resolution is deliberately conservative: an unqualified name that
//! matches several workspace functions links to all of them. A spurious
//! edge costs at most one suppression; a missing edge is a hole in the
//! audit. Two traversal boundaries keep the over-approximation honest:
//!
//! * `#[cold]` functions are frontier nodes — reachability stops at
//!   them. Cold reconfiguration paths (arena growth, allocation-matrix
//!   install) are *allowed* to allocate; that is the paper's design.
//! * Boundary method names (`handle`, `classify`, `report`, `merged`)
//!   are dyn-dispatch seams: the app handler boundary (handler cost IS
//!   the measured workload, not dispatch machinery) and the teardown
//!   reporting boundary (runs once, after the loop exits).

use std::collections::BTreeMap;

use super::parser::{FnItem, ParsedFile};

/// Method names whose call edges are not traversed (see module docs).
pub const BOUNDARY_METHODS: &[&str] = &["handle", "classify", "report", "merged"];

/// Crates excluded from edge targets and roots (file-scope rules A4/A5
/// still apply to them):
///
/// * `check` — the model checker itself; its `Core`/`Execution` shims are
///   lock-based test infrastructure sharing method names (`load`,
///   `store`, `lock`) with the production atomics.
/// * `sim` — the virtual-time experiment driver; it hosts the engines
///   but its own loop is not the wall-clock hot path.
pub const EXCLUDED_CRATES: &[&str] = &["check", "sim"];

/// Trait methods that are *not* rooted: they run once at wiring or
/// teardown (`set_telemetry` before the loop starts, `Select::build` and
/// `Select::lanes` inside the engine constructor, `report` and
/// `drain_all` after the loop exits — engine.rs documents `drain_all` as
/// "orderly teardown"), not per request.
pub const ROOT_EXCLUDE_METHODS: &[&str] =
    &["report", "set_telemetry", "drain_all", "build", "lanes"];

/// The flattened workspace: every function with its file, plus edges.
pub struct Graph<'a> {
    pub files: &'a [ParsedFile],
    /// (file index, fn index) per flattened id.
    pub fns: Vec<(usize, usize)>,
    /// Outgoing call edges per flattened id.
    pub edges: Vec<Vec<usize>>,
    /// BFS predecessor for reachable nodes (for `via` diagnostics).
    pub pred: Vec<Option<usize>>,
    /// Reachability from the root set (cold/test/boundary rules applied).
    pub reachable: Vec<bool>,
    /// Ids that were selected as roots.
    pub roots: Vec<usize>,
}

impl<'a> Graph<'a> {
    pub fn item(&self, id: usize) -> &'a FnItem {
        let (fi, ni) = self.fns[id];
        &self.files[fi].fns[ni]
    }

    pub fn file(&self, id: usize) -> &'a ParsedFile {
        let (fi, _) = self.fns[id];
        &self.files[fi]
    }

    /// Human-readable `crate::Type::fn` label.
    pub fn label(&self, id: usize) -> String {
        let it = self.item(id);
        match &it.self_ty {
            Some(ty) => format!("{}::{}", ty, it.name),
            None => it.name.clone(),
        }
    }

    /// Root-to-here call chain, e.g. `run_dispatcher → poll → helper`.
    pub fn via(&self, id: usize) -> String {
        let mut chain = vec![self.label(id)];
        let mut cur = id;
        while let Some(p) = self.pred[cur] {
            chain.push(self.label(p));
            cur = p;
        }
        chain.reverse();
        chain.join(" → ")
    }
}

/// File-stem of a workspace-relative path (`queue` for `…/src/queue.rs`).
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

/// True when `qualifier` plausibly names the definition site of `it`
/// (its impl type, file, in-file module, or crate).
fn qualifier_matches(qualifier: &str, it: &FnItem, file: &ParsedFile) -> bool {
    if it.self_ty.as_deref() == Some(qualifier) {
        return true;
    }
    if file_stem(&file.path) == qualifier {
        return true;
    }
    if it.module.iter().any(|m| m == qualifier) {
        return true;
    }
    // `persephone_core::helper(…)` → crate dir `core`.
    if let Some(suffix) = qualifier.strip_prefix("persephone_") {
        if suffix == file.crate_name {
            return true;
        }
    }
    qualifier == file.crate_name
}

/// True when a call in `caller` may target a function in `callee`:
/// same crate, or `callee` is in `caller`'s transitive dependency
/// closure. An empty map disables the filter (unit-test graphs).
fn crate_allowed(
    deps: &BTreeMap<String, std::collections::BTreeSet<String>>,
    caller: &str,
    callee: &str,
) -> bool {
    caller == callee || deps.is_empty() || deps.get(caller).is_some_and(|d| d.contains(callee))
}

/// Builds the call graph and runs reachability from the given roots.
///
/// `root_fns` selects free functions by name; `root_traits` selects every
/// method of every `impl Trait for …` block (and trait default bodies)
/// whose trait name matches; `root_types` selects every method of the
/// named types. `deps` is the per-crate transitive dependency closure
/// (dir names); candidates outside the caller's closure are pruned —
/// `core` cannot call into `sim`, so a name collision there is noise.
pub fn build<'a>(
    files: &'a [ParsedFile],
    root_fns: &[&str],
    root_traits: &[&str],
    root_types: &[&str],
    deps: &BTreeMap<String, std::collections::BTreeSet<String>>,
) -> Graph<'a> {
    let mut fns = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (ni, _) in f.fns.iter().enumerate() {
            fns.push((fi, ni));
        }
    }
    // Name index over non-test functions outside excluded crates.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, &(fi, ni)) in fns.iter().enumerate() {
        let it = &files[fi].fns[ni];
        if !it.is_test
            && !files[fi].file_is_test
            && !EXCLUDED_CRATES.contains(&files[fi].crate_name.as_str())
        {
            by_name.entry(it.name.as_str()).or_default().push(id);
        }
    }

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (id, &(fi, ni)) in fns.iter().enumerate() {
        let caller = &files[fi].fns[ni];
        if caller.is_test || files[fi].file_is_test {
            continue;
        }
        for call in &caller.facts.calls {
            if call.method && BOUNDARY_METHODS.contains(&call.name.as_str()) {
                continue;
            }
            let Some(cands) = by_name.get(call.name.as_str()) else {
                continue;
            };
            let cands: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| {
                    let (cfi, _) = fns[c];
                    crate_allowed(deps, &files[fi].crate_name, &files[cfi].crate_name)
                })
                .collect();
            if cands.is_empty() {
                continue;
            }
            let mut chosen: Vec<usize> = Vec::new();
            if call.method {
                // Method call: any workspace method of that name.
                chosen.extend(cands.iter().filter(|&&c| {
                    let (cfi, cni) = fns[c];
                    files[cfi].fns[cni].has_self
                }));
            } else if let Some(q) = &call.qualifier {
                let q = if q == "Self" {
                    caller.self_ty.clone().unwrap_or_default()
                } else {
                    q.clone()
                };
                chosen.extend(cands.iter().filter(|&&c| {
                    let (cfi, cni) = fns[c];
                    qualifier_matches(&q, &files[cfi].fns[cni], &files[cfi])
                }));
                if chosen.is_empty() && !q.is_empty() {
                    // Unknown qualifier (std type, renamed import): treat as
                    // external rather than linking to every same-named fn.
                    continue;
                }
            } else {
                // Plain call: prefer same-crate free functions.
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let (cfi, _) = fns[c];
                        files[cfi].crate_name == files[fi].crate_name
                    })
                    .collect();
                let pool = if same_crate.is_empty() {
                    cands.clone()
                } else {
                    same_crate
                };
                let free: Vec<usize> = pool
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let (cfi, cni) = fns[c];
                        !files[cfi].fns[cni].has_self
                    })
                    .collect();
                chosen.extend(if free.is_empty() { pool } else { free });
            }
            for c in chosen {
                if c != id && !edges[id].contains(&c) {
                    edges[id].push(c);
                }
            }
        }
    }

    // Root selection. `report`/`set_telemetry` are wiring/teardown, not
    // per-request; ROOT_TYPES only roots `self` methods (constructors
    // and associated helpers are setup, reached through real roots when
    // they matter).
    let mut roots = Vec::new();
    for (id, &(fi, ni)) in fns.iter().enumerate() {
        let it = &files[fi].fns[ni];
        if it.is_test
            || files[fi].file_is_test
            || EXCLUDED_CRATES.contains(&files[fi].crate_name.as_str())
            || ROOT_EXCLUDE_METHODS.contains(&it.name.as_str())
        {
            continue;
        }
        let is_root = root_fns.contains(&it.name.as_str())
            || it
                .trait_impl
                .as_deref()
                .is_some_and(|t| root_traits.contains(&t))
            || it
                .self_ty
                .as_deref()
                .is_some_and(|t| root_traits.contains(&t))
            || (it.has_self
                && it
                    .self_ty
                    .as_deref()
                    .is_some_and(|t| root_types.contains(&t)));
        if is_root {
            roots.push(id);
        }
    }

    // BFS; do not expand test or #[cold] nodes.
    let mut reachable = vec![false; fns.len()];
    let mut pred: Vec<Option<usize>> = vec![None; fns.len()];
    let mut queue = std::collections::VecDeque::new();
    for &r in &roots {
        if !reachable[r] {
            reachable[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        let (fi, ni) = fns[u];
        if files[fi].fns[ni].is_cold {
            continue; // frontier: the cold path is exempt by design
        }
        for &v in &edges[u] {
            if !reachable[v] {
                reachable[v] = true;
                pred[v] = Some(u);
                queue.push_back(v);
            }
        }
    }

    Graph {
        files,
        fns,
        edges,
        pred,
        reachable,
        roots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::parser::parse_file;

    fn ws(srcs: &[(&str, &str)]) -> Vec<ParsedFile> {
        srcs.iter().map(|(p, s)| parse_file(p, s)).collect()
    }

    #[test]
    fn reachability_stops_at_cold() {
        let files = ws(&[(
            "crates/demo/src/lib.rs",
            r#"
            pub fn run_dispatcher() { hot_helper(); }
            fn hot_helper() { grow(); }
            #[cold]
            fn grow() { deep(); }
            fn deep() {}
            fn unrelated() {}
            "#,
        )]);
        let g = build(&files, &["run_dispatcher"], &[], &[], &BTreeMap::new());
        let id = |name: &str| (0..g.fns.len()).find(|&i| g.item(i).name == name).unwrap();
        assert!(g.reachable[id("hot_helper")]);
        assert!(
            g.reachable[id("grow")],
            "cold fn is a reachable frontier node"
        );
        assert!(!g.reachable[id("deep")], "but nothing past it is");
        assert!(!g.reachable[id("unrelated")]);
    }

    #[test]
    fn trait_impl_methods_are_roots() {
        let files = ws(&[(
            "crates/demo/src/lib.rs",
            r#"
            impl ScheduleEngine<R> for Engine {
                fn poll(&mut self) { self.inner_poll(); }
            }
            impl Engine {
                fn inner_poll(&mut self) {}
                fn not_reached(&mut self) {}
            }
            "#,
        )]);
        let g = build(&files, &[], &["ScheduleEngine"], &[], &BTreeMap::new());
        let id = |name: &str| (0..g.fns.len()).find(|&i| g.item(i).name == name).unwrap();
        assert!(g.reachable[id("poll")]);
        assert!(g.reachable[id("inner_poll")]);
        assert!(!g.reachable[id("not_reached")]);
    }

    #[test]
    fn boundary_methods_are_not_traversed() {
        let files = ws(&[(
            "crates/demo/src/lib.rs",
            r#"
            pub fn run_worker(h: &dyn Handler) { h.handle(1); }
            impl AppHandler { fn handle(&self, x: u32) { self.app_alloc(); } }
            impl AppHandler { fn app_alloc(&self) {} }
            "#,
        )]);
        let g = build(&files, &["run_worker"], &[], &[], &BTreeMap::new());
        let id = |name: &str| (0..g.fns.len()).find(|&i| g.item(i).name == name).unwrap();
        assert!(!g.reachable[id("handle")], "dyn app boundary");
        assert!(!g.reachable[id("app_alloc")]);
    }

    #[test]
    fn qualifier_narrows_resolution() {
        let files = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn run_dispatcher() { wire::decode(); }",
            ),
            ("crates/a/src/wire.rs", "pub fn decode() {}"),
            (
                "crates/b/src/other.rs",
                "pub fn decode() { std::thread::sleep(d); }",
            ),
        ]);
        let g = build(&files, &["run_dispatcher"], &[], &[], &BTreeMap::new());
        let reach: Vec<String> = (0..g.fns.len())
            .filter(|&i| g.reachable[i])
            .map(|i| format!("{}:{}", g.file(i).path, g.item(i).name))
            .collect();
        assert!(reach.contains(&"crates/a/src/wire.rs:decode".to_string()));
        assert!(
            !reach.iter().any(|s| s.starts_with("crates/b/")),
            "{reach:?}"
        );
    }

    #[test]
    fn calls_from_test_code_do_not_leak_roots() {
        let files = ws(&[(
            "crates/demo/src/lib.rs",
            r#"
            fn quiet() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { run_dispatcher(); quiet(); }
            }
            pub fn run_dispatcher() {}
            "#,
        )]);
        let g = build(&files, &["run_dispatcher"], &[], &[], &BTreeMap::new());
        let id = |name: &str| (0..g.fns.len()).find(|&i| g.item(i).name == name).unwrap();
        assert!(!g.reachable[id("quiet")]);
    }

    #[test]
    fn root_types_select_methods() {
        let files = ws(&[(
            "crates/demo/src/lib.rs",
            r#"
            impl ArenaRing {
                pub fn push(&mut self) { self.bump(); }
                fn bump(&mut self) {}
            }
            "#,
        )]);
        let g = build(&files, &[], &[], &["ArenaRing"], &BTreeMap::new());
        assert!(g.reachable.iter().all(|&r| r), "both methods reachable");
    }

    #[test]
    fn via_chain_reads_root_first() {
        let files = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn run_dispatcher() { mid(); } fn mid() { leaf(); } fn leaf() {}",
        )]);
        let g = build(&files, &["run_dispatcher"], &[], &[], &BTreeMap::new());
        let leaf = (0..g.fns.len())
            .find(|&i| g.item(i).name == "leaf")
            .unwrap();
        assert_eq!(g.via(leaf), "run_dispatcher → mid → leaf");
    }
}
