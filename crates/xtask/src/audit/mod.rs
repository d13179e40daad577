//! `cargo xtask audit` — whole-workspace interprocedural static audit.
//!
//! Where `xtask lint` (R1–R6) checks single lines against allowlists,
//! the audit builds a call graph over every workspace crate and proves
//! reachability properties from the declared hot-path roots: no panic
//! path (A1), no allocation (A2), and no blocking call (A3) reachable
//! from the dispatch/worker/rack loops or any `ScheduleEngine` method,
//! plus two whole-workspace discipline rules — every `Relaxed` ordering
//! needs an `audit:ordering:` justification (A4, closing lint R2's
//! aliasing gap), and every `SAFETY:` comment must name the
//! invariant-owning type (A5).
//!
//! The pipeline: [`lexer`] → [`parser`] → [`graph`] → [`rules`] →
//! [`report`] (`AUDIT.json` baseline). Everything is hand-rolled and
//! dependency-free, same offline constraint as the rest of the tree.

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

/// Free functions rooted by name: the three event loops.
pub const ROOT_FNS: &[&str] = &["run_dispatcher", "run_worker", "run_rack_scheduled"];

/// Traits whose every impl method (and default body) is a root: the
/// engine's verbs and the per-policy selection rules they call into.
pub const ROOT_TRAITS: &[&str] = &["ScheduleEngine", "Select"];

/// Types whose every `self` method is a root: the hot-path containers.
pub const ROOT_TYPES: &[&str] = &["ArenaRing", "TypedQueue", "WorkerTable"];

/// Full analysis result.
pub struct Audit {
    pub findings: Vec<rules::Finding>,
    pub suppressions: Vec<rules::Suppression>,
    /// Rendered `AUDIT.json` contents (findings included, empty when clean).
    pub json: String,
}

fn rel(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Per-crate transitive dependency closure, keyed by crate dir name.
/// Read from each `crates/<dir>/Cargo.toml`'s `[dependencies]` section
/// (`persephone-<dir>` lines); call resolution uses this to rule out
/// edges into crates the caller cannot see.
fn crate_deps(
    root: &Path,
) -> std::collections::BTreeMap<String, std::collections::BTreeSet<String>> {
    let mut deps: std::collections::BTreeMap<String, std::collections::BTreeSet<String>> =
        Default::default();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return deps;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let Ok(toml) = std::fs::read_to_string(e.path().join("Cargo.toml")) else {
            continue;
        };
        let mut in_deps = false;
        let mut direct = std::collections::BTreeSet::new();
        for line in toml.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
            } else if in_deps {
                if let Some(rest) = line.strip_prefix("persephone-") {
                    let dep: String = rest
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                        .collect();
                    direct.insert(dep);
                }
            }
        }
        deps.insert(name, direct);
    }
    // Tiny graph: iterate to the transitive fixpoint.
    loop {
        let mut changed = false;
        let names: Vec<String> = deps.keys().cloned().collect();
        for n in &names {
            let cur = deps[n].clone();
            let mut grown = cur.clone();
            for d in &cur {
                if let Some(dd) = deps.get(d) {
                    grown.extend(dd.iter().cloned());
                }
            }
            if grown.len() != cur.len() {
                deps.insert(n.clone(), grown);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    deps
}

/// Runs the audit over the workspace at `root`.
pub fn analyze(root: &Path) -> Audit {
    analyze_with_overrides(root, &[])
}

/// Like [`analyze`], but file contents for workspace-relative paths in
/// `overrides` replace what is on disk. This is the mutation-test hook:
/// self-tests inject a violation into a real hot-path file in memory and
/// assert the corresponding rule fires, without touching the tree.
pub fn analyze_with_overrides(root: &Path, overrides: &[(&str, String)]) -> Audit {
    let mut paths: Vec<PathBuf> = Vec::new();
    crate::lint::collect_rs_files(root, &mut paths);
    paths.sort();

    let mut files = Vec::new();
    for path in &paths {
        let rp = rel(path, root);
        let src = match overrides.iter().find(|(p, _)| *p == rp) {
            Some((_, s)) => s.clone(),
            None => match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(_) => continue,
            },
        };
        files.push(parser::parse_file(&rp, &src));
    }

    let mut types: Vec<String> = files.iter().flat_map(|f| f.types.iter().cloned()).collect();
    types.sort();
    types.dedup();

    let deps = crate_deps(root);
    let g = graph::build(&files, ROOT_FNS, ROOT_TRAITS, ROOT_TYPES, &deps);
    let outcome = rules::run(&g, &types);

    let roots: Vec<String> = g
        .roots
        .iter()
        .map(|&id| format!("{}:{}", g.file(id).path, g.label(id)))
        .collect();
    let stats = report::Stats {
        files: files.len(),
        functions: g.fns.len(),
        edges: g.edges.iter().map(|e| e.len()).sum(),
        roots: g.roots.len(),
        reachable: g.reachable.iter().filter(|&&r| r).count(),
    };
    let json = report::render(&roots, &stats, &outcome.suppressions, &outcome.findings);
    Audit {
        findings: outcome.findings,
        suppressions: outcome.suppressions,
        json,
    }
}

/// Debug aid: prints every parsed function (with self type, flags, and
/// fact counts) for one workspace-relative file. Used when a rule seems
/// to miss or over-report — `cargo xtask audit --dump crates/core/src/dispatch/darc.rs`.
pub fn dump(root: &Path, rel_path: &str) {
    let Ok(src) = std::fs::read_to_string(root.join(rel_path)) else {
        eprintln!("xtask audit: cannot read {rel_path}");
        return;
    };
    let pf = parser::parse_file(rel_path, &src);
    for f in &pf.fns {
        println!(
            "{}:{} {}{} [test={} cold={} self={}] calls={} panics={} allocs={} blocking={} indexing={}",
            rel_path,
            f.line,
            f.self_ty.as_deref().map(|t| format!("{t}::")).unwrap_or_default(),
            f.name,
            f.is_test,
            f.is_cold,
            f.has_self,
            f.facts.calls.len(),
            f.facts.panics.len(),
            f.facts.allocs.len(),
            f.facts.blocking.len(),
            f.facts.indexing.len(),
        );
        for c in &f.facts.calls {
            println!("    call {}:{} {}", rel_path, c.line, c.name);
        }
    }
    println!(
        "{} fns, {} types, {} relaxed, {} unsafe",
        pf.fns.len(),
        pf.types.len(),
        pf.relaxed_sites.len(),
        pf.unsafe_sites.len()
    );
}

/// CLI entry: `cargo xtask audit [--json] [--write-baseline] [root]`.
///
/// Exit is non-zero on any finding, and — unless `--write-baseline` was
/// given — when the rendered report differs from the committed
/// `AUDIT.json` (the baseline must be regenerated explicitly so the diff
/// shows up in review).
pub fn cli(root: &Path, print_json: bool, write_baseline: bool) -> bool {
    let audit = analyze(root);
    if print_json {
        print!("{}", audit.json);
    }
    for f in &audit.findings {
        eprintln!(
            "{}:{}: [{}] {}{}",
            f.file,
            f.line,
            f.rule,
            f.what,
            if f.via.is_empty() {
                String::new()
            } else {
                format!("  (via {})", f.via)
            }
        );
    }
    let baseline_path = root.join("AUDIT.json");
    let mut ok = audit.findings.is_empty();
    if write_baseline {
        if let Err(e) = std::fs::write(&baseline_path, &audit.json) {
            eprintln!("xtask audit: cannot write {}: {e}", baseline_path.display());
            ok = false;
        } else {
            eprintln!(
                "xtask audit: baseline written to {}",
                baseline_path.display()
            );
        }
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(committed) if committed == audit.json => {}
            Ok(_) => {
                eprintln!(
                    "xtask audit: report differs from committed AUDIT.json — \
                     run `cargo xtask audit --write-baseline` and commit the diff"
                );
                ok = false;
            }
            Err(_) => {
                eprintln!(
                    "xtask audit: no committed AUDIT.json baseline — \
                     run `cargo xtask audit --write-baseline`"
                );
                ok = false;
            }
        }
    }
    if ok {
        eprintln!(
            "xtask audit: clean ({} suppressions in ledger)",
            audit.suppressions.len()
        );
    } else {
        eprintln!("xtask audit: {} finding(s)", audit.findings.len());
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("xtask lives two levels below the workspace root")
            .to_path_buf()
    }

    /// The committed workspace must audit clean — this is the self-audit:
    /// the analyzer's own source (`crates/xtask`) is part of the scan.
    #[test]
    fn real_workspace_is_audit_clean() {
        let audit = analyze(&workspace_root());
        assert!(
            audit.findings.is_empty(),
            "workspace has audit findings:\n{}",
            audit
                .findings
                .iter()
                .map(|f| format!(
                    "{}:{}: [{}] {} (via {})",
                    f.file, f.line, f.rule, f.what, f.via
                ))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// The committed AUDIT.json must match a fresh render byte-for-byte.
    #[test]
    fn committed_baseline_is_current() {
        let root = workspace_root();
        let audit = analyze(&root);
        let committed = std::fs::read_to_string(root.join("AUDIT.json"))
            .expect("AUDIT.json baseline is committed at the workspace root");
        assert_eq!(
            committed, audit.json,
            "AUDIT.json is stale — run `cargo xtask audit --write-baseline`"
        );
    }

    fn read(root: &Path, rel: &str) -> String {
        std::fs::read_to_string(root.join(rel)).expect(rel)
    }

    fn findings_for<'a>(audit: &'a Audit, rule: &str, file: &str) -> Vec<&'a rules::Finding> {
        audit
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.file == file)
            .collect()
    }

    /// Mutation: an `unwrap()` injected under `run_dispatcher` trips A1.
    #[test]
    fn mutation_unwrap_under_dispatcher_trips_a1() {
        let root = workspace_root();
        let rel = "crates/runtime/src/dispatcher.rs";
        let src = read(&root, rel);
        let anchor = "let mut idle_spins: u32 = 0;";
        assert!(src.contains(anchor), "anchor moved; update this test");
        let mutated = src.replace(
            anchor,
            "let mut idle_spins: u32 = 0;\n    held.first().unwrap();",
        );
        let audit = analyze_with_overrides(&root, &[(rel, mutated)]);
        let hits = findings_for(&audit, "A1", rel);
        assert!(!hits.is_empty(), "injected unwrap not caught");
        assert!(
            hits.iter().any(|f| f.via.starts_with("run_dispatcher")),
            "{:?}",
            hits[0].via
        );
    }

    /// Mutation: a `Box::new` injected under `run_worker` trips A2.
    #[test]
    fn mutation_alloc_under_worker_trips_a2() {
        let root = workspace_root();
        let rel = "crates/runtime/src/worker.rs";
        let src = read(&root, rel);
        let anchor = "let mut idle_spins: u32 = 0;";
        assert!(src.contains(anchor), "anchor moved; update this test");
        let mutated = src.replace(
            anchor,
            "let mut idle_spins: u32 = 0;\n    let _leak = Box::new(0u64);",
        );
        let audit = analyze_with_overrides(&root, &[(rel, mutated)]);
        assert!(
            !findings_for(&audit, "A2", rel).is_empty(),
            "injected Box::new not caught"
        );
    }

    /// Mutation: an unguarded `Mutex::lock` in a `ScheduleEngine` method
    /// trips A3 (engine methods are roots in their own right).
    #[test]
    fn mutation_lock_in_engine_method_trips_a3() {
        let root = workspace_root();
        let rel = "crates/core/src/dispatch/engine.rs";
        let src = read(&root, rel);
        // Inject at the top of the one `enqueue` body (the trait's
        // declaration ends in `;`, so only the impl matches).
        let mutated = src.replacen(
            "fn enqueue(&mut self, ty: TypeId, req: R, now: Nanos) -> Result<(), R> {",
            "fn enqueue(&mut self, ty: TypeId, req: R, now: Nanos) -> Result<(), R> { self.mu.lock();",
            1,
        );
        assert_ne!(mutated, src, "enqueue signature moved; update this test");
        let audit = analyze_with_overrides(&root, &[(rel, mutated)]);
        assert!(
            !findings_for(&audit, "A3", rel).is_empty(),
            "injected lock() not caught"
        );
    }

    /// Mutation: an `unwrap()` injected into a `Select` method trips A1 —
    /// policy code lives in selection rules, so they are roots too.
    #[test]
    fn mutation_unwrap_in_select_method_trips_a1() {
        let root = workspace_root();
        let rel = "crates/core/src/dispatch/baselines.rs";
        let src = read(&root, rel);
        // The first `select` in the file is c-FCFS's.
        let mutated = src.replacen(
            "fn select<R>(&self, core: &EngineCore<R>) -> Option<Pick> {",
            "fn select<R>(&self, core: &EngineCore<R>) -> Option<Pick> { core.lanes.first().unwrap();",
            1,
        );
        assert_ne!(mutated, src, "select signature moved; update this test");
        let audit = analyze_with_overrides(&root, &[(rel, mutated)]);
        let hits = findings_for(&audit, "A1", rel);
        assert!(!hits.is_empty(), "injected unwrap not caught");
        assert!(
            hits.iter().any(|f| f.via.starts_with("Cfcfs::select")),
            "{:?}",
            hits[0].via
        );
    }

    /// The rules' method names must stay clear of the rack tier's
    /// `RackPolicy::pick`: method calls resolve by name, so a shared name
    /// would wire every rack steering call into the engine rules.
    #[test]
    fn select_methods_do_not_alias_rack_policy() {
        let root = workspace_root();
        let methods_of = |rel: &str, trait_name: &str| -> Vec<String> {
            parser::parse_file(rel, &read(&root, rel))
                .fns
                .iter()
                .filter(|f| f.trait_impl.as_deref() == Some(trait_name))
                .map(|f| f.name.clone())
                .collect()
        };
        let mut select = methods_of("crates/core/src/dispatch/baselines.rs", "Select");
        select.extend(methods_of("crates/core/src/dispatch/darc.rs", "Select"));
        let rack_policy = methods_of("crates/rack/src/policy.rs", "RackPolicy");
        assert!(select.contains(&"select".to_string()), "{select:?}");
        assert!(rack_policy.contains(&"pick".to_string()), "{rack_policy:?}");
        for name in &select {
            assert!(!rack_policy.contains(name), "`{name}` aliases RackPolicy");
        }
    }

    /// Mutation: an unannotated aliased `Relaxed` trips A4 — including
    /// the `use … Ordering::{self, Relaxed}` spelling lint R2 missed.
    #[test]
    fn mutation_unannotated_relaxed_trips_a4() {
        let root = workspace_root();
        let rel = "crates/core/src/lib.rs";
        let mut src = read(&root, rel);
        src.push_str(
            "\npub fn zz_a4_probe(c: &std::sync::atomic::AtomicU64) -> u64 {\n    use std::sync::atomic::Ordering::{self, Relaxed};\n    let _ = Ordering::SeqCst;\n    c.load(Relaxed)\n}\n",
        );
        let audit = analyze_with_overrides(&root, &[(rel, src)]);
        assert!(
            !findings_for(&audit, "A4", rel).is_empty(),
            "aliased Relaxed not caught"
        );
    }

    /// Mutation: a SAFETY comment that names no type trips A5.
    #[test]
    fn mutation_vague_safety_comment_trips_a5() {
        let root = workspace_root();
        let rel = "crates/core/src/lib.rs";
        let mut src = read(&root, rel);
        src.push_str(
            "\n// SAFETY: this is fine, trust the caller\npub fn zz_a5_probe(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        );
        let audit = analyze_with_overrides(&root, &[(rel, src)]);
        assert!(
            !findings_for(&audit, "A5", rel).is_empty(),
            "vague SAFETY not caught"
        );
    }

    /// Mutation: deleting a line a suppression excuses turns the marker
    /// itself into a finding (stale allowances fail the build).
    #[test]
    fn mutation_stale_suppression_is_flagged() {
        let root = workspace_root();
        let rel = "crates/core/src/lib.rs";
        let mut src = read(&root, rel);
        src.push_str(
            "\npub fn zz_stale_probe() {\n    // audit:allow(A1): excuse for a line that does not exist\n    let _x = 1u64;\n}\n",
        );
        let audit = analyze_with_overrides(&root, &[(rel, src)]);
        assert!(
            audit
                .findings
                .iter()
                .any(|f| f.rule == "suppression" && f.file == rel),
            "stale suppression not flagged"
        );
    }

    /// Torture fixture: the lexer/parser must survive pathological but
    /// valid Rust and still extract the right call edges.
    #[test]
    fn torture_fixture_parses_with_correct_edges() {
        let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/audit/torture.rs");
        let src = std::fs::read_to_string(&fixture).expect("torture fixture present");
        let pf = parser::parse_file("crates/demo/src/torture.rs", &src);
        let names: Vec<&str> = pf.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"entry"), "{names:?}");
        assert!(names.contains(&"called_for_real"), "{names:?}");
        assert!(
            !names.contains(&"phantom"),
            "fn inside raw string must not parse: {names:?}"
        );
        let entry = pf.fns.iter().find(|f| f.name == "entry").unwrap();
        assert!(
            entry
                .facts
                .calls
                .iter()
                .any(|c| c.name == "called_for_real"),
            "call edge through the torture constructs survives"
        );
        assert!(
            !entry.facts.calls.iter().any(|c| c.name == "never_called"),
            "identifiers inside strings/comments must not become edges"
        );
        let gated = pf.fns.iter().find(|f| f.name == "cfg_gated").unwrap();
        assert!(gated.is_test, "#[cfg(test)] item is test code");
    }

    /// The analyzer finishes well inside the 5 s acceptance budget.
    #[test]
    fn audit_is_fast() {
        let root = workspace_root();
        let t0 = std::time::Instant::now();
        let _ = analyze(&root);
        assert!(t0.elapsed().as_secs() < 5, "audit took {:?}", t0.elapsed());
    }
}
