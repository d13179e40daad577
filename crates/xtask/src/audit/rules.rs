//! Audit rules A1–A6 over the call graph and the parsed files, plus the
//! inline suppression mechanism.
//!
//! | rule | property | scope |
//! |------|----------|-------|
//! | A1 | no panic path (`unwrap`/`expect`/panic macros/indexing on non-exempt types) | reachable from roots |
//! | A2 | no allocation outside pre-warmed arenas / `#[cold]` paths | reachable from roots |
//! | A3 | no blocking call (`sleep`/`lock`/`wait`) outside the idle-backoff ladder | reachable from roots |
//! | A4 | `Relaxed` (however spelled) only in [`RELAXED_ALLOW`], each site with `// audit:ordering: why` | whole workspace, non-test |
//! | A5 | `unsafe` only in [`UNSAFE_ALLOW`], each site with a `SAFETY:` comment; its crate root (or test file) denies `unsafe_op_in_unsafe_fn` | whole workspace, test code included |
//! | A5 | … and that comment names the invariant-owning type | whole workspace, non-test |
//! | A6 | no name from an [`A6`] row inside that row's scope | per row, non-test |
//!
//! Scope lists hold workspace-relative paths: an entry ending in `/` is
//! a directory and matches every file below it; any other entry matches
//! exactly one file.
//!
//! Suppression: `// audit:allow(A1): reason` on the offending line or up
//! to [`SUPPRESS_WINDOW`] lines above it. The reason is mandatory, and a
//! suppression that stops matching any finding fails the audit — stale
//! allowances cannot outlive the code they excused.

use super::graph::Graph;
use super::parser::{ParsedFile, Site};

/// Lines below a marker comment that it still covers (same line counts).
pub const SUPPRESS_WINDOW: u32 = 3;

/// Lines above an `unsafe` site searched for its `SAFETY:` comment.
const SAFETY_WINDOW: u32 = 6;

/// Files allowed to contain `unsafe` (A5): the two rings, the model
/// checker's cell shim, and the allocation-counting and litmus tests.
pub const UNSAFE_ALLOW: &[&str] = &[
    "crates/net/src/spsc.rs",
    "crates/net/src/mpsc.rs",
    "crates/check/src/sync/cell.rs",
    "crates/telemetry/tests/no_alloc.rs",
    "crates/core/tests/no_alloc_dispatch.rs",
    "crates/sim/tests/no_alloc_arrivals.rs",
    "crates/check/tests/litmus.rs",
    "crates/check/tests/mutation.rs",
];

/// Files allowed to use `Relaxed` in non-test code (A4). Each use still
/// needs its own `audit:ordering:` argument.
pub const RELAXED_ALLOW: &[&str] = &[
    "crates/net/src/spsc.rs",
    "crates/net/src/mpsc.rs",
    // udp.rs: per-socket datagram counters are independent monotone
    // event counts; no cross-thread control flow reads them.
    "crates/net/src/udp.rs",
    "crates/telemetry/src/ring.rs",
    "crates/telemetry/src/counters.rs",
    "crates/telemetry/src/hist.rs",
    "crates/telemetry/src/snapshot.rs",
];

/// Inner attributes that opt a crate (or a test file) into unsafe-fn
/// hygiene (A5).
const UNSAFE_FN_ATTRS: &[&str] = &["deny(unsafe_op_in_unsafe_fn)", "forbid(unsafe_code)"];

/// One A6 row: `names` may not appear in non-test code of files in
/// `scope`. Names are Rust snippets matched token for token.
pub struct Forbidden {
    pub names: &'static [&'static str],
    pub scope: &'static [&'static str],
    pub why: &'static str,
}

/// The A6 table: names each module family has ruled out.
pub const A6: &[Forbidden] = &[
    Forbidden {
        names: &["Instant::now", "thread::sleep"],
        scope: &["crates/core/src/", "crates/sim/src/"],
        why: "wall-clock call in a virtual-time crate (core and sim run on simulated ns)",
    },
    Forbidden {
        names: &["println!", ".unwrap()"],
        scope: &[
            "crates/runtime/src/dispatcher.rs",
            "crates/runtime/src/worker.rs",
            "crates/net/src/spsc.rs",
            "crates/net/src/mpsc.rs",
            "crates/net/src/nic.rs",
            "crates/net/src/udp.rs",
        ],
        why: "in a hot-path module (stdout lock in the loop; use `.expect(\"reason\")` or handle)",
    },
    Forbidden {
        names: &["HashMap", "VecDeque", "BTreeMap"],
        scope: &[
            "crates/core/src/queue.rs",
            "crates/core/src/arena.rs",
            "crates/core/src/dispatch/",
            "crates/runtime/src/dispatcher.rs",
            "crates/runtime/src/worker.rs",
        ],
        why: "in a request-plane module; use dense type-indexed arrays or the arena ring",
    },
    Forbidden {
        names: &["fetch_add", "fetch_max"],
        scope: &[
            "crates/telemetry/src/snapshot.rs",
            "crates/telemetry/src/counters.rs",
            "crates/telemetry/src/hist.rs",
        ],
        why: "on a single-writer telemetry cell (a `lock`-prefixed RMW on the dispatch path); use `counters::bump`",
    },
];

/// True when `path` is one of `scope`'s files or lies under one of its
/// directories (entries ending in `/`).
pub fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| {
        if s.ends_with('/') {
            path.starts_with(s)
        } else {
            path == *s
        }
    })
}

/// Types whose *internal* indexing is exempt from A1: their dense arrays
/// are sized at construction (`num_types` × `num_workers` slots, arena
/// capacity) and never shrink, and the index invariants are covered by
/// the model checker and targeted tests. Indexing anywhere else — free
/// functions, net code, new engines — is flagged.
pub const INDEX_EXEMPT_TYPES: &[&str] = &[
    // hot-path containers: slot indices are generation-checked handles
    "ArenaRing",
    "TypedQueue",
    "WorkerTable",
    // engine core and rules: dense per-type/per-lane/per-worker arrays
    // sized at construction
    "Profiler",
    "Engine",
    "EngineCore",
    "Darc",
    "FixedPriority",
    // rings: power-of-two capacity, masked indices
    "Ring",
    "Producer",
    "Consumer",
    "Sender",
    "Receiver",
    "EventRing",
    "SchedEvent",
    // telemetry: per-type/per-worker counter arrays sized at init
    "Telemetry",
    "AtomicHist",
    "LogHist",
    // length-validated byte buffer (`len <= data.len()` invariant)
    "PacketBuf",
];

/// Std types accepted as invariant owners in SAFETY comments, alongside
/// every workspace-declared type.
const STD_INVARIANT_TYPES: &[&str] = &[
    "UnsafeCell",
    "MaybeUninit",
    "NonNull",
    "Cell",
    "AtomicUsize",
    "AtomicU64",
    "AtomicU32",
];

/// One audit finding.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub what: String,
    /// Root-to-site call chain for reachability rules; empty otherwise.
    pub via: String,
}

/// One parsed `audit:allow` marker.
#[derive(Clone, Debug)]
pub struct Suppression {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub reason: String,
    pub used: bool,
}

/// Everything the rules produced: unsuppressed findings plus the full
/// suppression ledger (used ones feed the baseline; unused ones are
/// findings themselves).
pub struct RuleOutcome {
    pub findings: Vec<Finding>,
    pub suppressions: Vec<Suppression>,
}

/// True for plain `//` line comments — doc comments (`///`, `//!`) and
/// block comments never carry audit markers, so prose that *describes*
/// the syntax (like this module's docs) cannot accidentally invoke it.
fn is_marker_comment(text: &str) -> bool {
    text.starts_with("//") && !text.starts_with("///") && !text.starts_with("//!")
}

/// Parses `audit:allow(RULE): reason` markers out of a file's comments.
fn collect_suppressions(file: &ParsedFile) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &file.comments {
        if !is_marker_comment(&c.text) {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("audit:allow(") {
            rest = &rest[pos + "audit:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            let after = &rest[close + 1..];
            let reason = after
                .strip_prefix(':')
                .map(|r| {
                    let line_end = r.find('\n').unwrap_or(r.len());
                    r[..line_end].trim().to_string()
                })
                .unwrap_or_default();
            out.push(Suppression {
                file: file.path.clone(),
                line: c.line,
                rule,
                reason,
                used: false,
            });
            rest = after;
        }
    }
    out
}

/// True when a comment in `file` marks `line` with `audit:ordering: why`.
fn has_ordering_marker(file: &ParsedFile, line: u32) -> bool {
    file.comments.iter().any(|c| {
        is_marker_comment(&c.text)
            && c.line <= line
            && line - c.line <= SUPPRESS_WINDOW
            && c.text
                .find("audit:ordering:")
                .map(|p| !c.text[p + "audit:ordering:".len()..].trim().is_empty())
                .unwrap_or(false)
    })
}

/// True when `file` opts into unsafe-fn hygiene itself or, for non-test
/// files, through its crate root: the `lib.rs` (else `main.rs`) beside
/// the nearest enclosing `src/` directory.
fn unsafe_fn_denied(file: &ParsedFile, files: &[ParsedFile]) -> bool {
    let denies = |f: &ParsedFile| {
        f.inner_attrs
            .iter()
            .any(|a| UNSAFE_FN_ATTRS.contains(&a.as_str()))
    };
    if denies(file) {
        return true;
    }
    if file.file_is_test {
        return false;
    }
    let dirs: Vec<&str> = file.path.split('/').collect();
    let Some(src) = dirs[..dirs.len() - 1].iter().rposition(|d| *d == "src") else {
        return false;
    };
    let src_dir = dirs[..=src].join("/");
    ["lib.rs", "main.rs"]
        .iter()
        .find_map(|root| files.iter().find(|f| f.path == format!("{src_dir}/{root}")))
        .is_some_and(denies)
}

/// Extracts CamelCase words (at least one lowercase after an uppercase
/// start) from a comment — candidate type names.
fn camel_words(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = None;
    let b = text.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        let word_char = c.is_ascii_alphanumeric() || c == b'_';
        match start {
            None if word_char => start = Some(i),
            Some(s) if !word_char => {
                out.push(&text[s..i]);
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push(&text[s..]);
    }
    out.retain(|w| {
        let mut chars = w.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_uppercase())
            && w.chars().any(|c| c.is_ascii_lowercase())
    });
    out
}

/// Runs all rules. `workspace_types` is the union of declared type names
/// across every parsed file (A5's accepted invariant owners).
pub fn run(graph: &Graph<'_>, workspace_types: &[String]) -> RuleOutcome {
    let mut findings = Vec::new();
    let mut suppressions: Vec<Suppression> = Vec::new();
    for f in graph.files {
        suppressions.extend(collect_suppressions(f));
    }

    // --- Reachability rules: A1 / A2 / A3 -------------------------------
    for id in 0..graph.fns.len() {
        if !graph.reachable[id] {
            continue;
        }
        let it = graph.item(id);
        let file = graph.file(id);
        if it.is_cold || it.is_test || file.file_is_test {
            // Cold paths are the sanctioned slow lane (arena growth,
            // allocation-matrix install): exempt by design.
            continue;
        }
        let via = graph.via(id);
        let index_exempt = it
            .self_ty
            .as_deref()
            .is_some_and(|t| INDEX_EXEMPT_TYPES.contains(&t));
        let indexing: &[Site] = if index_exempt {
            &[]
        } else {
            &it.facts.indexing
        };
        let checks = [
            ("A1", "panic path", &it.facts.panics[..]),
            ("A1", "unchecked indexing on", indexing),
            ("A2", "allocation", &it.facts.allocs[..]),
            ("A3", "blocking call", &it.facts.blocking[..]),
        ];
        for (rule, label, sites) in checks {
            for s in sites {
                findings.push(Finding {
                    rule: rule.into(),
                    file: file.path.clone(),
                    line: s.line,
                    what: format!("{label} `{}`", s.what),
                    via: via.clone(),
                });
            }
        }
    }

    // --- File-scope rules: A4 / A5 / A6 ---------------------------------
    for f in graph.files {
        let mut flag = |rule: &str, line: u32, what: &str| {
            findings.push(Finding {
                rule: rule.into(),
                file: f.path.clone(),
                line,
                what: what.into(),
                via: String::new(),
            })
        };
        for s in f.sites("Relaxed").filter(|s| !s.in_test && !s.in_use) {
            if !in_scope(&f.path, RELAXED_ALLOW) {
                flag("A4", s.line, "Relaxed outside the allowlisted files");
            } else if !has_ordering_marker(f, s.line) {
                flag("A4", s.line, "Relaxed without `// audit:ordering: why`");
            }
        }
        for s in f.sites("unsafe") {
            if !in_scope(&f.path, UNSAFE_ALLOW) {
                flag("A5", s.line, "unsafe outside the allowlisted files");
                continue;
            }
            let line = s.line;
            let nearby: String = f
                .comments
                .iter()
                .filter(|c| {
                    c.end_line <= line && line - c.end_line <= SAFETY_WINDOW || c.line == line
                })
                .map(|c| c.text.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            if !nearby.contains("SAFETY") {
                flag("A5", line, "unsafe without a SAFETY: comment");
                continue;
            }
            let names_type = camel_words(&nearby)
                .iter()
                .any(|w| workspace_types.iter().any(|t| t == w) || STD_INVARIANT_TYPES.contains(w));
            if !names_type && !s.in_test {
                flag("A5", line, "SAFETY: comment names no invariant-owning type");
            }
        }
        let first_unsafe = f.sites("unsafe").next();
        if let Some(s) = first_unsafe.filter(|_| !unsafe_fn_denied(f, graph.files)) {
            flag(
                "A5",
                s.line,
                "unsafe without #![deny(unsafe_op_in_unsafe_fn)]",
            );
        }
        for row in A6.iter().filter(|row| in_scope(&f.path, row.scope)) {
            for &name in row.names {
                for s in f.sites(name).filter(|s| !s.in_test) {
                    flag("A6", s.line, &format!("`{name}` {}", row.why));
                }
            }
        }
    }

    // --- Apply suppressions ---------------------------------------------
    findings.retain(|fd| {
        for s in suppressions.iter_mut() {
            if s.file == fd.file
                && s.rule == fd.rule
                && s.line <= fd.line
                && fd.line - s.line <= SUPPRESS_WINDOW
            {
                if s.reason.is_empty() {
                    // Reason-less allowances do not suppress; the marker
                    // itself becomes a finding below.
                    continue;
                }
                s.used = true;
                return false;
            }
        }
        true
    });

    // Reason-less or stale markers fail the audit.
    for s in &suppressions {
        if s.reason.is_empty() {
            findings.push(Finding {
                rule: "suppression".into(),
                file: s.file.clone(),
                line: s.line,
                what: format!("audit:allow({}) without a reason", s.rule),
                via: String::new(),
            });
        } else if !s.used {
            findings.push(Finding {
                rule: "suppression".into(),
                file: s.file.clone(),
                line: s.line,
                what: format!(
                    "unused suppression audit:allow({}): the line it excused is gone — remove it",
                    s.rule
                ),
                via: String::new(),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    suppressions.retain(|s| s.used);
    suppressions.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    RuleOutcome {
        findings,
        suppressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::graph::build;
    use crate::audit::parser::parse_file;

    fn audit(src: &str) -> RuleOutcome {
        audit_at("crates/demo/src/lib.rs", src)
    }

    fn audit_at(path: &str, src: &str) -> RuleOutcome {
        let files = vec![parse_file(path, src)];
        let types: Vec<String> = files.iter().flat_map(|f| f.types.clone()).collect();
        let g = build(
            &files,
            &["run_dispatcher", "run_worker"],
            &["ScheduleEngine"],
            &[],
            &std::collections::BTreeMap::new(),
        );
        run(&g, &types)
    }

    fn rules_of(o: &RuleOutcome) -> Vec<&str> {
        o.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn a1_fires_on_reachable_unwrap() {
        let o = audit("pub fn run_dispatcher(x: Option<u32>) { helper(x); }\nfn helper(x: Option<u32>) { x.unwrap(); }");
        assert_eq!(rules_of(&o), ["A1"]);
        assert!(o.findings[0].via.contains("run_dispatcher → helper"));
    }

    #[test]
    fn a1_ignores_unreachable_unwrap() {
        let o = audit("pub fn run_dispatcher() {}\nfn cold_code(x: Option<u32>) { x.unwrap(); }");
        assert!(o.findings.is_empty(), "{:?}", o.findings);
    }

    #[test]
    fn a2_fires_on_reachable_alloc_but_not_cold() {
        let o = audit(
            "pub fn run_dispatcher() { a(); b(); }\nfn a() { let v: Vec<u32> = Vec::new(); }\n#[cold]\nfn b() { let v: Vec<u32> = Vec::new(); }",
        );
        assert_eq!(rules_of(&o), ["A2"]);
        assert_eq!(o.findings[0].line, 2);
    }

    #[test]
    fn a3_fires_on_reachable_sleep() {
        let o = audit("pub fn run_worker(d: Duration) { std::thread::sleep(d); }");
        assert_eq!(rules_of(&o), ["A3"]);
    }

    const RELAXED_OK: &str = "crates/telemetry/src/counters.rs";
    const UNSAFE_OK: &str = "crates/net/src/spsc.rs";

    #[test]
    fn a4_fires_without_marker_and_not_with() {
        let bad = audit_at(
            RELAXED_OK,
            "fn f(c: &AtomicU64) { c.load(std::sync::atomic::Ordering::Relaxed); }",
        );
        assert_eq!(rules_of(&bad), ["A4"]);
        let good = audit_at(
            RELAXED_OK,
            "fn f(c: &AtomicU64) {\n    // audit:ordering: monotonic counter, no cross-thread edge\n    c.load(std::sync::atomic::Ordering::Relaxed);\n}",
        );
        assert!(good.findings.is_empty(), "{:?}", good.findings);
    }

    #[test]
    fn a4_catches_aliased_relaxed() {
        let o = audit_at(
            RELAXED_OK,
            "use std::sync::atomic::Ordering as O;\nfn f(c: &AtomicU64) { c.load(O::Relaxed); }",
        );
        assert_eq!(rules_of(&o), ["A4"]);
    }

    #[test]
    fn a5_requires_type_name_in_safety() {
        let bad = audit_at(
            UNSAFE_OK,
            "#![deny(unsafe_op_in_unsafe_fn)]\nstruct Ring;\n// SAFETY: this is fine\nfn f(p: *const u8) { unsafe { p.read() }; }",
        );
        assert_eq!(rules_of(&bad), ["A5"]);
        let good = audit_at(
            UNSAFE_OK,
            "#![deny(unsafe_op_in_unsafe_fn)]\nstruct Ring;\n// SAFETY: Ring guarantees the slot is initialized before publish\nfn f(p: *const u8) { unsafe { p.read() }; }",
        );
        assert!(good.findings.is_empty(), "{:?}", good.findings);
    }

    #[test]
    fn scopes_match_files_and_directory_prefixes_only() {
        let scope = ["crates/core/src/dispatch/", "crates/net/src/udp.rs"];
        assert!(in_scope("crates/core/src/dispatch/darc.rs", &scope));
        assert!(in_scope("crates/net/src/udp.rs", &scope));
        assert!(!in_scope("crates/net/src/udp.rs.bak", &scope));
        assert!(!in_scope("benchmark/crates/net/src/udp.rs", &scope));
        assert!(!in_scope("crates/core/src/dispatch.rs", &scope));
    }

    #[test]
    fn suppression_with_reason_works_and_is_tracked() {
        let o = audit(
            "pub fn run_dispatcher(x: Option<u32>) {\n    // audit:allow(A1): spawn-time protocol check, runs once\n    x.unwrap();\n}",
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        assert_eq!(o.suppressions.len(), 1);
        assert!(o.suppressions[0].used);
    }

    #[test]
    fn reasonless_suppression_is_a_finding() {
        let o = audit(
            "pub fn run_dispatcher(x: Option<u32>) {\n    // audit:allow(A1)\n    x.unwrap();\n}",
        );
        let r = rules_of(&o);
        assert!(r.contains(&"A1"), "not suppressed");
        assert!(r.contains(&"suppression"), "marker flagged");
    }

    #[test]
    fn stale_suppression_is_a_finding() {
        let o = audit("pub fn run_dispatcher() {\n    // audit:allow(A1): excuse with nothing left to excuse\n    let x = 1;\n}");
        assert_eq!(rules_of(&o), ["suppression"]);
        assert!(o.findings[0].what.contains("unused"));
    }

    #[test]
    fn index_exempt_types_skip_a1_indexing() {
        let o = audit(
            "impl ArenaRing { fn get(&self, i: usize) -> u32 { self.slots[i] } }\npub fn run_dispatcher(a: &ArenaRing) { a.get(0); }",
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        let o2 = audit("pub fn run_dispatcher(held: &[u32], w: usize) { let _ = held[w]; }");
        assert_eq!(rules_of(&o2), ["A1"]);
    }

    #[test]
    fn test_code_is_exempt_from_style_rules_but_not_from_unsafe_hygiene() {
        let o = audit_at(
            "crates/runtime/src/worker.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(c: &AtomicU64) { c.load(std::sync::atomic::Ordering::Relaxed); x.unwrap(); }\n}",
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings);
        let test_mod = |safety: &str| {
            format!("#![deny(unsafe_op_in_unsafe_fn)]\n#[cfg(test)]\nmod tests {{\n    {safety}\n    fn t() {{ unsafe {{ x() }}; }}\n}}")
        };
        let vague = audit_at(UNSAFE_OK, &test_mod("// SAFETY: x has no preconditions"));
        assert!(vague.findings.is_empty(), "{:?}", vague.findings);
        let missing = audit_at(UNSAFE_OK, &test_mod(""));
        assert_eq!(rules_of(&missing), ["A5"]);
        let outside = audit(&test_mod("// SAFETY: x has no preconditions"));
        assert_eq!(rules_of(&outside), ["A5"]);
    }
}
