//! `AUDIT.json` rendering: a stable, diffable snapshot of the audit —
//! the root set, rule inventory, graph stats, and the full suppression
//! ledger. Committed at the workspace root and byte-diffed in CI (same
//! workflow as the `BENCH_*.json` trajectory): any change to findings or
//! allowances must arrive as an explicit `--write-baseline` diff.
//!
//! Suppression entries deliberately omit line numbers — the ledger keys
//! on (file, rule, reason) with a count, so unrelated edits in the same
//! file do not churn the baseline. Staleness is enforced separately by
//! the unused-suppression rule at analysis time.

use std::collections::BTreeMap;

use super::rules::{Finding, Suppression};

/// Graph-level counters surfaced in the baseline.
pub struct Stats {
    pub files: usize,
    pub functions: usize,
    pub edges: usize,
    pub roots: usize,
    pub reachable: usize,
}

const RULES: &[(&str, &str)] = &[
    (
        "A1",
        "no panic path (unwrap/expect/panic!/indexing on non-exempt types) reachable from a root",
    ),
    (
        "A2",
        "no allocation reachable from a root outside pre-warmed arenas and #[cold] paths",
    ),
    (
        "A3",
        "no blocking call reachable from a root outside the idle-backoff ladder",
    ),
    (
        "A4",
        "Relaxed orderings only in the allowlisted files, each site with an `audit:ordering:` justification",
    ),
    (
        "A5",
        "unsafe only in the allowlisted files, each site with a SAFETY: comment (naming the invariant-owning type outside tests), under #![deny(unsafe_op_in_unsafe_fn)]",
    ),
    (
        "A6",
        "no wall-clock call in the virtual-time crates, no println!/.unwrap() in the hot-path modules, no HashMap/VecDeque/BTreeMap in the request plane, no fetch_add/fetch_max on the single-writer telemetry cells",
    ),
];

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the baseline document. `roots` are resolved root labels
/// (`file:Type::fn`), pre-sorted by the caller or sorted here.
pub fn render(
    roots: &[String],
    stats: &Stats,
    suppressions: &[Suppression],
    findings: &[Finding],
) -> String {
    let mut roots = roots.to_vec();
    roots.sort();
    roots.dedup();

    // Ledger: (file, rule, reason) -> count.
    let mut ledger: BTreeMap<(String, String, String), u32> = BTreeMap::new();
    for s in suppressions {
        *ledger
            .entry((s.file.clone(), s.rule.clone(), s.reason.clone()))
            .or_insert(0) += 1;
    }

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"persephone-audit/v1\",\n");
    out.push_str("  \"rules\": {\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        let comma = if i + 1 < RULES.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": \"{}\"{}\n", id, esc(desc), comma));
    }
    out.push_str("  },\n");
    out.push_str("  \"roots\": [\n");
    for (i, r) in roots.iter().enumerate() {
        let comma = if i + 1 < roots.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\"{}\n", esc(r), comma));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"stats\": {{ \"files\": {}, \"functions\": {}, \"edges\": {}, \"roots\": {}, \"reachable\": {} }},\n",
        stats.files, stats.functions, stats.edges, stats.roots, stats.reachable
    ));
    out.push_str("  \"suppressions\": [\n");
    let n = ledger.len();
    for (i, ((file, rule, reason), count)) in ledger.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"file\": \"{}\", \"rule\": \"{}\", \"count\": {}, \"reason\": \"{}\" }}{}\n",
            esc(file),
            esc(rule),
            count,
            esc(reason),
            comma
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"what\": \"{}\", \"via\": \"{}\" }}{}\n",
            esc(&f.rule),
            esc(&f.file),
            f.line,
            esc(&f.what),
            esc(&f.via),
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_escapes() {
        let stats = Stats {
            files: 1,
            functions: 2,
            edges: 3,
            roots: 1,
            reachable: 2,
        };
        let sup = vec![
            Suppression {
                file: "crates/a/src/lib.rs".into(),
                line: 10,
                rule: "A1".into(),
                reason: "spawn-time \"check\"".into(),
                used: true,
            },
            Suppression {
                file: "crates/a/src/lib.rs".into(),
                line: 20,
                rule: "A1".into(),
                reason: "spawn-time \"check\"".into(),
                used: true,
            },
        ];
        let a = render(&["b".into(), "a".into()], &stats, &sup, &[]);
        let b = render(&["a".into(), "b".into()], &stats, &sup, &[]);
        assert_eq!(a, b, "root order does not leak into output");
        assert!(a.contains("\\\"check\\\""));
        assert!(
            a.contains("\"count\": 2"),
            "identical suppressions merge: {a}"
        );
        assert!(a.contains("\"findings\": [\n  ]"), "{a}");
    }
}
