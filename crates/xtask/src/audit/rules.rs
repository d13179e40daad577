//! Audit rules A1–A5 over the call graph, plus the inline suppression
//! mechanism.
//!
//! | rule | property | scope |
//! |------|----------|-------|
//! | A1 | no panic path (`unwrap`/`expect`/panic macros/indexing on non-exempt types) | reachable from roots |
//! | A2 | no allocation outside pre-warmed arenas / `#[cold]` paths | reachable from roots |
//! | A3 | no blocking call (`sleep`/`lock`/`wait`) outside the idle-backoff ladder | reachable from roots |
//! | A4 | every `Ordering::Relaxed` site (however spelled) carries `// audit:ordering: why` | whole workspace, non-test |
//! | A5 | every `unsafe` site's `SAFETY:` comment names the invariant-owning type | whole workspace, non-test |
//!
//! Suppression: `// audit:allow(A1): reason` on the offending line or up
//! to [`SUPPRESS_WINDOW`] lines above it. The reason is mandatory, and a
//! suppression that stops matching any finding fails the audit — stale
//! allowances cannot outlive the code they excused.

use super::graph::Graph;
use super::parser::ParsedFile;

/// Lines below a marker comment that it still covers (same line counts).
pub const SUPPRESS_WINDOW: u32 = 3;

/// Lines above an `unsafe` site searched for its `SAFETY:` comment
/// (mirrors the R1 lint walk).
const SAFETY_WINDOW: u32 = 6;

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
        for s in &it.facts.panics {
            findings.push(Finding {
                rule: "A1".into(),
                file: file.path.clone(),
                line: s.line,
                what: format!("panic path: {}", s.what),
                via: via.clone(),
            });
        }
        let index_exempt = it
            .self_ty
            .as_deref()
            .is_some_and(|t| INDEX_EXEMPT_TYPES.contains(&t));
        if !index_exempt {
            for s in &it.facts.indexing {
                findings.push(Finding {
                    rule: "A1".into(),
                    file: file.path.clone(),
                    line: s.line,
                    what: format!("unchecked indexing on `{}`", s.what),
                    via: via.clone(),
                });
            }
        }
        for s in &it.facts.allocs {
            findings.push(Finding {
                rule: "A2".into(),
                file: file.path.clone(),
                line: s.line,
                what: format!("allocation: {}", s.what),
                via: via.clone(),
            });
        }
        for s in &it.facts.blocking {
            findings.push(Finding {
                rule: "A3".into(),
                file: file.path.clone(),
                line: s.line,
                what: format!("blocking call: {}", s.what),
                via: via.clone(),
            });
        }
    }

    // --- File-scope rules: A4 / A5 --------------------------------------
    for f in graph.files {
        for &(line, in_test) in &f.relaxed_sites {
            if in_test || f.file_is_test {
                continue;
            }
            if !has_ordering_marker(f, line) {
                findings.push(Finding {
                    rule: "A4".into(),
                    file: f.path.clone(),
                    line,
                    what: "Relaxed ordering without `// audit:ordering: why` justification".into(),
                    via: String::new(),
                });
            }
        }
        for &(line, in_test) in &f.unsafe_sites {
            if in_test || f.file_is_test {
                continue;
            }
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
                // R1 already fails this; A5 restates it so the audit is
                // self-contained.
                findings.push(Finding {
                    rule: "A5".into(),
                    file: f.path.clone(),
                    line,
                    what: "unsafe without a SAFETY: comment".into(),
                    via: String::new(),
                });
                continue;
            }
            let names_type = camel_words(&nearby)
                .iter()
                .any(|w| workspace_types.iter().any(|t| t == w) || STD_INVARIANT_TYPES.contains(w));
            if !names_type {
                findings.push(Finding {
                    rule: "A5".into(),
                    file: f.path.clone(),
                    line,
                    what: "SAFETY: comment does not name the invariant-owning type".into(),
                    via: String::new(),
                });
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
        let files = vec![parse_file("crates/demo/src/lib.rs", src)];
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

    #[test]
    fn a4_fires_without_marker_and_not_with() {
        let bad = audit("fn f(c: &AtomicU64) { c.load(std::sync::atomic::Ordering::Relaxed); }");
        assert_eq!(rules_of(&bad), ["A4"]);
        let good = audit(
            "fn f(c: &AtomicU64) {\n    // audit:ordering: monotonic counter, no cross-thread edge\n    c.load(std::sync::atomic::Ordering::Relaxed);\n}",
        );
        assert!(good.findings.is_empty(), "{:?}", good.findings);
    }

    #[test]
    fn a4_catches_aliased_relaxed() {
        let o = audit(
            "use std::sync::atomic::Ordering as O;\nfn f(c: &AtomicU64) { c.load(O::Relaxed); }",
        );
        assert_eq!(rules_of(&o), ["A4"]);
    }

    #[test]
    fn a5_requires_type_name_in_safety() {
        let bad = audit(
            "struct Ring;\n// SAFETY: this is fine\nfn f(p: *const u8) { unsafe { p.read() }; }",
        );
        assert_eq!(rules_of(&bad), ["A5"]);
        let good = audit(
            "struct Ring;\n// SAFETY: Ring guarantees the slot is initialized before publish\nfn f(p: *const u8) { unsafe { p.read() }; }",
        );
        assert!(good.findings.is_empty(), "{:?}", good.findings);
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
    fn test_code_is_exempt_from_file_scope_rules() {
        let o = audit(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(c: &AtomicU64) { c.load(std::sync::atomic::Ordering::Relaxed); unsafe { x() }; }\n}",
        );
        assert!(o.findings.is_empty(), "{:?}", o.findings);
    }
}
