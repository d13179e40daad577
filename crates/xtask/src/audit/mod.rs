//! `cargo xtask audit` — the workspace's static checker.
//!
//! The audit builds a call graph over every workspace crate and proves
//! reachability properties from the declared hot-path roots: no panic
//! path (A1), no allocation (A2), and no blocking call (A3) reachable
//! from the dispatch/worker/rack loops or any `ScheduleEngine` method.
//! Three file-scope rules run over the same parse: `Relaxed` only in
//! allowlisted files, each use argued with `audit:ordering:` (A4);
//! `unsafe` only in allowlisted files, under a `SAFETY:` comment that
//! names the invariant-owning type, in crates that deny
//! `unsafe_op_in_unsafe_fn` (A5); and a table of names each module
//! family has ruled out — wall-clock calls in the virtual-time crates,
//! stdout and `.unwrap()` in hot-path modules, node-based containers in
//! the request plane, `lock`-prefixed RMWs on the single-writer
//! telemetry cells (A6).
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

/// Appends every `.rs` file under `dir` to `out`, skipping build output,
/// VCS metadata, and fixture trees.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | "fixtures" | ".cargo" | "related"
            ) {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Parses every workspace `.rs` file, sorted by path; contents for
/// workspace-relative paths in `overrides` replace what is on disk.
fn parse_workspace(root: &Path, overrides: &[(&str, String)]) -> Vec<parser::ParsedFile> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, &mut paths);
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
    files
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
    let files = parse_workspace(root, overrides);

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
    for s in &pf.names {
        println!(
            "    name {}:{} {} [test={} use={}]",
            rel_path, s.line, s.name, s.in_test, s.in_use
        );
    }
    println!(
        "{} fns, {} types, inner attributes {:?}",
        pf.fns.len(),
        pf.types.len(),
        pf.inner_attrs
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

    /// Mutation: an unannotated aliased `Relaxed` in an allowlisted file
    /// trips A4 — including the `use … Ordering::{self, Relaxed}` spelling.
    #[test]
    fn mutation_unannotated_relaxed_trips_a4() {
        let root = workspace_root();
        let rel = "crates/telemetry/src/counters.rs";
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
        let rel = "crates/net/src/mpsc.rs";
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

    /// One injected violation (or a near miss) in a real workspace file.
    /// `rule` names the property the case pins — by the id it had in the
    /// former line lint (R1–R6) or, for rows added since, by name;
    /// [`audit_rule`] maps it to the audit rule that checks it. `None`
    /// marks a negative case that must trip nothing. An empty `anchor`
    /// appends `snippet` to the file; otherwise the first `anchor` is
    /// replaced by it.
    struct Case {
        rule: Option<&'static str>,
        file: &'static str,
        anchor: &'static str,
        snippet: &'static str,
    }

    const CASES: &[Case] = &[
        // R1-confine: `unsafe` outside the allowlisted files.
        Case {
            rule: Some("R1-confine"),
            file: "crates/core/src/arena.rs",
            anchor: "",
            snippet: "\n// SAFETY: UnsafeCell probe, the caller owns `p`\npub fn zz_probe(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        },
        // R1-safety: `unsafe` in an allowlisted file, no SAFETY comment.
        Case {
            rule: Some("R1-safety"),
            file: "crates/net/src/spsc.rs",
            anchor: "",
            snippet: "\npub fn zz_probe(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        },
        // R2, qualified: an ordering justification does not excuse a
        // `Relaxed` outside the allowlisted files.
        Case {
            rule: Some("R2-relaxed"),
            file: "crates/core/src/lib.rs",
            anchor: "",
            snippet: "\npub fn zz_probe(c: &std::sync::atomic::AtomicU64) -> u64 {\n    // audit:ordering: probe counter, nothing depends on it\n    c.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
        },
        // R2, use-aliased.
        Case {
            rule: Some("R2-relaxed"),
            file: "crates/runtime/src/dispatcher.rs",
            anchor: "",
            snippet: "\npub fn zz_probe(c: &std::sync::atomic::AtomicU64) -> u64 {\n    use std::sync::atomic::Ordering::{self, Relaxed};\n    let _ = Ordering::SeqCst;\n    c.load(Relaxed)\n}\n",
        },
        // R3: wall-clock reads and sleeps in the virtual-time crates.
        Case {
            rule: Some("R3-virtual-time"),
            file: "crates/sim/src/lib.rs",
            anchor: "",
            snippet: "\npub fn zz_probe() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        },
        Case {
            rule: Some("R3-virtual-time"),
            file: "crates/core/src/dispatch/darc.rs",
            anchor: "",
            snippet: "\npub fn zz_probe() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n",
        },
        // R4: stdout and `.unwrap()` in the hot-path modules.
        Case {
            rule: Some("R4-hotpath"),
            file: "crates/runtime/src/worker.rs",
            anchor: "",
            snippet: "\npub fn zz_probe() {\n    println!(\"probe\");\n}\n",
        },
        Case {
            rule: Some("R4-hotpath"),
            file: "crates/net/src/udp.rs",
            anchor: "",
            snippet: "\npub fn zz_probe(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        },
        // R5: a crate with `unsafe` whose root drops the unsafe-fn lint.
        Case {
            rule: Some("R5-unsafe-fn"),
            file: "crates/net/src/lib.rs",
            anchor: "#![deny(unsafe_op_in_unsafe_fn)]",
            snippet: "",
        },
        // R6: node-based containers in the request plane.
        Case {
            rule: Some("R6-dense"),
            file: "crates/core/src/queue.rs",
            anchor: "",
            snippet: "\npub type ZzProbe = std::collections::HashMap<u8, u8>;\n",
        },
        Case {
            rule: Some("R6-dense"),
            file: "crates/core/src/arena.rs",
            anchor: "",
            snippet: "\npub type ZzProbe = std::collections::VecDeque<u8>;\n",
        },
        Case {
            rule: Some("R6-dense"),
            file: "crates/core/src/dispatch/engine.rs",
            anchor: "",
            snippet: "\npub type ZzProbe = std::collections::BTreeMap<u8, u8>;\n",
        },
        // Single-writer telemetry: a `lock`-prefixed RMW on a cell that
        // only its owner thread writes, in either spelling.
        Case {
            rule: Some("single-writer"),
            file: "crates/telemetry/src/hist.rs",
            anchor: "",
            snippet: "\npub fn zz_probe(c: &AtomicU64) {\n    // audit:ordering: probe counter, nothing depends on it\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
        },
        Case {
            rule: Some("single-writer"),
            file: "crates/telemetry/src/counters.rs",
            anchor: "",
            snippet: "\npub fn zz_probe(c: &AtomicU64) {\n    // audit:ordering: probe high-water mark, nothing depends on it\n    c.fetch_max(1, Ordering::Relaxed);\n}\n",
        },
        // Negatives: a string literal, a doc comment, and test code.
        Case {
            rule: None,
            file: "crates/core/src/lib.rs",
            anchor: "",
            snippet: "\npub const ZZ_PROBE: &str = \"Relaxed\";\n",
        },
        Case {
            rule: None,
            file: "crates/runtime/src/dispatcher.rs",
            anchor: "",
            snippet: "\n/// Never call `x.unwrap()` here.\npub fn zz_probe() {}\n",
        },
        Case {
            rule: None,
            file: "crates/core/src/queue.rs",
            anchor: "",
            snippet: "\n#[cfg(test)]\nmod zz_probe {\n    pub type M = std::collections::HashMap<u8, u8>;\n    fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n        let _ = std::time::Instant::now();\n        c.load(std::sync::atomic::Ordering::Relaxed)\n    }\n}\n",
        },
    ];

    /// The contents of `case.file` with the case's edit applied.
    fn mutated(root: &Path, case: &Case) -> String {
        let src = read(root, case.file);
        if case.anchor.is_empty() {
            return format!("{src}{}", case.snippet);
        }
        assert!(src.contains(case.anchor), "{}: anchor moved", case.file);
        src.replacen(case.anchor, case.snippet, 1)
    }

    /// The audit rule that enforces each pinned property.
    fn audit_rule(rule: &str) -> &'static str {
        match rule {
            "R1-confine" | "R1-safety" | "R5-unsafe-fn" => "A5",
            "R2-relaxed" => "A4",
            "R3-virtual-time" | "R4-hotpath" | "R6-dense" | "single-writer" => "A6",
            other => panic!("unmapped rule {other}"),
        }
    }

    /// Every pinned case fires exactly its mapped audit rule; the
    /// negative cases fire nothing.
    #[test]
    fn pinned_cases_trip_the_mapped_audit_rule() {
        let root = workspace_root();
        for (i, case) in CASES.iter().enumerate() {
            let audit = analyze_with_overrides(&root, &[(case.file, mutated(&root, case))]);
            let mut fired: Vec<&str> = audit.findings.iter().map(|f| f.rule.as_str()).collect();
            fired.sort();
            fired.dedup();
            let expected: Vec<&str> = case.rule.map(audit_rule).into_iter().collect();
            assert_eq!(fired, expected, "case {i} in {}", case.file);
        }
    }

    /// Every name and path the rule tables key on still exists, so a
    /// rename cannot switch a rule off silently.
    #[test]
    fn configuration_tables_match_the_code() {
        let files = parse_workspace(&workspace_root(), &[]);
        let fns: Vec<&str> = files
            .iter()
            .flat_map(|f| f.fns.iter().filter(|it| !it.is_test))
            .map(|it| it.name.as_str())
            .collect();
        for name in ROOT_FNS {
            assert!(fns.contains(name), "ROOT_FNS: no fn `{name}`");
        }
        // The single-writer row's remedy.
        assert!(
            files
                .iter()
                .any(|f| f.path == "crates/telemetry/src/counters.rs"
                    && f.fns.iter().any(|it| it.name == "bump" && !it.is_test)),
            "A6: the single-writer row names `counters::bump`, which is gone"
        );
        let types: Vec<&str> = files
            .iter()
            .flat_map(|f| f.types.iter().map(String::as_str))
            .collect();
        let type_tables = [
            ("ROOT_TRAITS", ROOT_TRAITS),
            ("ROOT_TYPES", ROOT_TYPES),
            ("INDEX_EXEMPT_TYPES", rules::INDEX_EXEMPT_TYPES),
        ];
        for (table, names) in type_tables {
            for name in names {
                assert!(types.contains(name), "{table}: no declaration of `{name}`");
            }
        }
        let scopes = [rules::UNSAFE_ALLOW, rules::RELAXED_ALLOW]
            .into_iter()
            .chain(rules::A6.iter().map(|row| row.scope));
        for scope in scopes {
            for entry in scope {
                assert!(
                    files.iter().any(|f| rules::in_scope(&f.path, &[entry])),
                    "scope entry {entry} matches no file"
                );
            }
        }
        for name in graph::EXCLUDED_CRATES {
            assert!(
                workspace_root().join("crates").join(name).is_dir(),
                "EXCLUDED_CRATES: no crate directory `crates/{name}`"
            );
        }
    }

    /// Backticked workspace paths in `doc` that name no file or
    /// directory under `root`. Templates (`<`, `*`, `{`) are skipped; a
    /// span's first word is the path, minus any `:line` suffix.
    fn dangling_doc_paths(root: &Path, doc: &str) -> Vec<String> {
        const PREFIXES: &[&str] = &[
            "crates/",
            "tests/",
            "examples/",
            "scenarios/",
            "benchmark/",
            "src/",
            ".github/",
        ];
        doc.split('`')
            .skip(1)
            .step_by(2)
            .filter_map(|span| span.split_whitespace().next())
            .filter(|tok| PREFIXES.iter().any(|p| tok.starts_with(p)))
            .filter(|tok| !tok.contains(['<', '*', '{']))
            .map(|tok| tok.split(':').next().unwrap_or(tok))
            .filter(|path| !root.join(path).exists())
            .map(str::to_string)
            .collect()
    }

    /// Every workspace path the prose docs cite in backticks exists, so
    /// a deletion or rename cannot leave a doc pointing at nothing.
    #[test]
    fn doc_paths_resolve() {
        let root = workspace_root();
        for doc in [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "benchmark/README.md",
        ] {
            let dangling = dangling_doc_paths(&root, &read(&root, doc));
            assert!(
                dangling.is_empty(),
                "{doc} cites missing paths: {dangling:?}"
            );
        }
        let injected = "see `crates/store/src/kv.rs` and `crates/core/src/lib.rs:12`";
        assert_eq!(
            dangling_doc_paths(&root, injected),
            ["crates/store/src/kv.rs"],
            "an injected stale path must be reported, a live one must not"
        );
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
