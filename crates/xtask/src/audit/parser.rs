//! Item-level parser: extracts `fn` items, impl blocks, declared types,
//! inner attributes, per-function facts (calls, panic/alloc/blocking
//! sites, indexing), and file-wide occurrences of the names the
//! file-scope rules watch (`unsafe`, `Relaxed`, the A6 table) from a
//! lexed token stream.
//!
//! This is a recursive-descent walk over the token stream with brace
//! balancing, not a full grammar — it only understands as much Rust as
//! the audit rules need, and errs on the side of over-reporting facts
//! (a fact the rules ignore is free; a missed call edge is a hole).

use super::lexer::{lex, Comment, Tok, Token};
use super::rules::A6;

/// A single rule-relevant occurrence inside a function body.
#[derive(Clone, Debug)]
pub struct Site {
    /// What was seen (`"unwrap"`, `"vec!"`, receiver name for indexing…).
    pub what: String,
    pub line: u32,
}

/// A call expression: `foo(…)`, `path::to::foo(…)`, or `recv.foo(…)`.
#[derive(Clone, Debug)]
pub struct Call {
    /// Final path segment / method name.
    pub name: String,
    /// Second-to-last path segment (`wire` in `wire::decode`), if any.
    pub qualifier: Option<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    pub line: u32,
}

/// Facts harvested from one function body.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pub calls: Vec<Call>,
    pub panics: Vec<Site>,
    pub allocs: Vec<Site>,
    pub blocking: Vec<Site>,
    pub indexing: Vec<Site>,
}

/// One parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Surrounding impl/trait type name (`DarcEngine`), if any.
    pub self_ty: Option<String>,
    /// Trait name when declared in `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// Module path inside the file (`["tests"]`).
    pub module: Vec<String>,
    pub line: u32,
    pub is_test: bool,
    pub is_cold: bool,
    pub has_self: bool,
    pub facts: Facts,
}

/// One occurrence of a watched name (see [`watched`]) anywhere in a file.
#[derive(Clone, Debug)]
pub struct NameSite {
    /// The watched pattern, as written in the rule table.
    pub name: &'static str,
    pub line: u32,
    /// Inside test code: a test file, `#[cfg(test)]` item, or `#[test]` fn.
    pub in_test: bool,
    /// Inside a `use` declaration.
    pub in_use: bool,
}

/// A whole parsed source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Owning crate (directory name under `crates/`).
    pub crate_name: String,
    /// True when the whole file is test code (see [`is_test_path`]).
    pub file_is_test: bool,
    pub fns: Vec<FnItem>,
    /// Type names declared in this file (struct/enum/union/trait/type).
    pub types: Vec<String>,
    pub comments: Vec<Comment>,
    /// Inner attributes (`#![…]`), bracket contents with whitespace
    /// removed: `deny(unsafe_op_in_unsafe_fn)`.
    pub inner_attrs: Vec<String>,
    /// Every occurrence of a watched name, in source order.
    pub names: Vec<NameSite>,
}

impl ParsedFile {
    /// The occurrences of one watched name.
    pub fn sites<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a NameSite> + 'a {
        self.names.iter().filter(move |s| s.name == name)
    }
}

/// True for a workspace-relative path whose file is test code as a
/// whole: anything under a `tests/` or `benches/` directory.
pub fn is_test_path(rel_path: &str) -> bool {
    let mut dirs = rel_path.split('/').rev().skip(1);
    dirs.any(|d| d == "tests" || d == "benches")
}

/// The names the file-scope rules need located: `unsafe` (A5),
/// `Relaxed` (A4), and every A6 row's names. Each is a snippet of Rust
/// matched token for token, so `.unwrap()` or `Instant::now` never
/// match inside a string, a comment, or a longer identifier.
fn watched() -> impl Iterator<Item = &'static str> {
    ["unsafe", "Relaxed"]
        .into_iter()
        .chain(A6.iter().flat_map(|row| row.names.iter().copied()))
}

/// Panic-producing macros (A1). `debug_assert*` is excluded: it compiles
/// out of release builds, which are what the latency claims run on.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Allocating macros (A2).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Panic-producing methods (A1).
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Allocating methods (A2). `.push` is deliberately absent: it cannot be
/// told apart from arena/ring pushes syntactically; growth-free pushes
/// are covered dynamically by the counting-allocator test instead.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
    "extend_from_slice",
    "into_boxed_slice",
];

/// Types whose associated constructors allocate (A2).
const ALLOC_TYPES: &[&str] = &[
    "Box", "String", "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap",
];

/// Blocking method names (A3).
const BLOCK_METHODS: &[&str] = &["lock", "wait", "wait_timeout", "recv_timeout"];

/// Blocking free/path calls (A3).
const BLOCK_CALLS: &[&str] = &["sleep", "park", "park_timeout"];

/// Parses one file. `rel_path` is the workspace-relative path.
pub fn parse_file(rel_path: &str, src: &str) -> ParsedFile {
    let lexed = lex(src);
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
        .unwrap_or("")
        .to_string();
    let file_is_test = is_test_path(rel_path);
    let mut pf = ParsedFile {
        path: rel_path.to_string(),
        crate_name,
        file_is_test,
        comments: lexed.comments,
        ..ParsedFile::default()
    };
    let toks = &lexed.tokens;
    let mut p = Parser {
        toks,
        i: 0,
        out: &mut pf,
        use_spans: Vec::new(),
        test_spans: Vec::new(),
    };
    p.items(&Ctx {
        module: Vec::new(),
        in_test: file_is_test,
        self_ty: None,
        trait_impl: None,
    });
    let use_spans = p.use_spans.clone();
    let test_spans = p.test_spans.clone();
    drop(p);
    // File-scope scan for A4–A6: it must see code outside fn bodies too
    // (statics, type aliases, `unsafe impl`, `use` declarations).
    let in_spans =
        |spans: &[(usize, usize)], idx: usize| spans.iter().any(|&(a, b)| idx >= a && idx < b);
    let patterns: Vec<(&'static str, Vec<Token>)> =
        watched().map(|name| (name, lex(name).tokens)).collect();
    for (idx, t) in toks.iter().enumerate() {
        for (name, pat) in &patterns {
            if pat[0].text != t.text {
                continue;
            }
            let hit = toks[idx..].get(..pat.len()).is_some_and(|window| {
                window
                    .iter()
                    .zip(pat)
                    .all(|(w, p)| w.kind == p.kind && w.text == p.text)
            });
            if hit {
                pf.names.push(NameSite {
                    name,
                    line: t.line,
                    in_test: file_is_test || in_spans(&test_spans, idx),
                    in_use: in_spans(&use_spans, idx),
                });
            }
        }
    }
    pf
}

struct Ctx {
    module: Vec<String>,
    in_test: bool,
    self_ty: Option<String>,
    trait_impl: Option<String>,
}

struct Parser<'a> {
    toks: &'a [Token],
    i: usize,
    out: &'a mut ParsedFile,
    /// Token-index spans of `use` declarations (excluded from A4 scan).
    use_spans: Vec<(usize, usize)>,
    /// Token-index spans of test items (`#[cfg(test)]` mods, `#[test]` fns).
    test_spans: Vec<(usize, usize)>,
}

impl<'a> Parser<'a> {
    fn peek(&self, off: usize) -> Option<&Token> {
        self.toks.get(self.i + off)
    }

    fn is_punct(&self, off: usize, c: char) -> bool {
        matches!(self.peek(off), Some(t) if t.kind == Tok::Punct && t.text.as_bytes()[0] as char == c)
    }

    fn is_ident(&self, off: usize, s: &str) -> bool {
        matches!(self.peek(off), Some(t) if t.kind == Tok::Ident && t.text == s)
    }

    /// Skips a balanced `open…close` group starting at the current token
    /// (which must be `open`); leaves the cursor just past the close.
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if t.kind == Tok::Punct {
                let c = t.text.as_bytes()[0] as char;
                if c == open {
                    depth += 1;
                } else if c == close {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
            }
            self.i += 1;
        }
    }

    /// Parses items at one brace level until the matching `}` or EOF.
    fn items(&mut self, ctx: &Ctx) {
        let mut attr_test = false;
        let mut attr_cold = false;
        loop {
            let Some(t) = self.peek(0) else { return };
            match (t.kind, t.text.as_str()) {
                (Tok::Punct, "}") => {
                    self.i += 1;
                    return;
                }
                (Tok::Punct, "#") => {
                    if self.is_punct(1, '!') {
                        self.i += 2; // inner attribute `#![…]`
                        if self.is_punct(0, '[') {
                            let start = self.i + 1;
                            self.skip_balanced('[', ']');
                            let end = self.i.saturating_sub(1).max(start);
                            let text: String = self.toks[start..end]
                                .iter()
                                .map(|t| t.text.as_str())
                                .collect();
                            self.out.inner_attrs.push(text);
                        }
                        continue;
                    }
                    self.i += 1;
                    let start = self.i;
                    if self.is_punct(0, '[') {
                        self.skip_balanced('[', ']');
                    }
                    let words: Vec<&str> = self.toks[start..self.i]
                        .iter()
                        .filter(|t| t.kind == Tok::Ident)
                        .map(|t| t.text.as_str())
                        .collect();
                    if words.contains(&"test") && !words.contains(&"not") {
                        attr_test = true;
                    }
                    if words.contains(&"cold") {
                        attr_cold = true;
                    }
                }
                (Tok::Ident, "mod") => {
                    let name = self.peek(1).map(|t| t.text.clone()).unwrap_or_default();
                    self.i += 2;
                    if self.is_punct(0, ';') {
                        self.i += 1;
                    } else if self.is_punct(0, '{') {
                        let body_start = self.i;
                        self.i += 1;
                        let mut module = ctx.module.clone();
                        module.push(name.clone());
                        let in_test = ctx.in_test || attr_test || name == "tests";
                        self.items(&Ctx {
                            module,
                            in_test,
                            self_ty: None,
                            trait_impl: None,
                        });
                        if in_test && !ctx.in_test {
                            self.test_spans.push((body_start, self.i));
                        }
                    }
                    attr_test = false;
                    attr_cold = false;
                }
                (Tok::Ident, "impl") => {
                    self.i += 1;
                    if self.is_punct(0, '<') {
                        self.skip_angles();
                    }
                    let first = self.type_path();
                    let (trait_impl, self_ty) = if self.is_ident(0, "for") {
                        self.i += 1;
                        let second = self.type_path();
                        (first, second)
                    } else {
                        (None, first)
                    };
                    // skip where-clause up to the body
                    while !self.is_punct(0, '{') && !self.is_punct(0, ';') && self.peek(0).is_some()
                    {
                        if self.is_punct(0, '<') {
                            self.skip_angles();
                        } else {
                            self.i += 1;
                        }
                    }
                    if self.is_punct(0, '{') {
                        let body_start = self.i;
                        self.i += 1;
                        let in_test = ctx.in_test || attr_test;
                        self.items(&Ctx {
                            module: ctx.module.clone(),
                            in_test,
                            self_ty: self_ty.clone(),
                            trait_impl,
                        });
                        if in_test && !ctx.in_test {
                            self.test_spans.push((body_start, self.i));
                        }
                    } else {
                        self.i += 1;
                    }
                    attr_test = false;
                    attr_cold = false;
                }
                (Tok::Ident, "trait") => {
                    let name = self.peek(1).map(|t| t.text.clone()).unwrap_or_default();
                    self.out.types.push(name.clone());
                    self.i += 2;
                    while !self.is_punct(0, '{') && !self.is_punct(0, ';') && self.peek(0).is_some()
                    {
                        if self.is_punct(0, '<') {
                            self.skip_angles();
                        } else {
                            self.i += 1;
                        }
                    }
                    if self.is_punct(0, '{') {
                        self.i += 1;
                        self.items(&Ctx {
                            module: ctx.module.clone(),
                            in_test: ctx.in_test || attr_test,
                            self_ty: Some(name),
                            trait_impl: None,
                        });
                    } else {
                        self.i += 1;
                    }
                    attr_test = false;
                    attr_cold = false;
                }
                (Tok::Ident, "struct" | "enum" | "union") => {
                    if let Some(n) = self.peek(1) {
                        if n.kind == Tok::Ident {
                            self.out.types.push(n.text.clone());
                        }
                    }
                    self.i += 2;
                    // skip to `;` (unit/tuple struct) or past the body braces
                    while let Some(t) = self.peek(0) {
                        if t.kind == Tok::Punct {
                            match t.text.as_bytes()[0] {
                                b';' => {
                                    self.i += 1;
                                    break;
                                }
                                b'{' => {
                                    self.skip_balanced('{', '}');
                                    break;
                                }
                                b'(' => {
                                    self.skip_balanced('(', ')');
                                    continue;
                                }
                                b'<' => {
                                    self.skip_angles();
                                    continue;
                                }
                                _ => {}
                            }
                        }
                        self.i += 1;
                    }
                    attr_test = false;
                    attr_cold = false;
                }
                (Tok::Ident, "type") => {
                    if let Some(n) = self.peek(1) {
                        if n.kind == Tok::Ident {
                            self.out.types.push(n.text.clone());
                        }
                    }
                    self.skip_to_semi();
                    attr_test = false;
                    attr_cold = false;
                }
                (Tok::Ident, "use") => {
                    let start = self.i;
                    self.skip_to_semi();
                    self.use_spans.push((start, self.i));
                }
                (Tok::Ident, "static" | "const") => {
                    // `const fn` is handled by the `fn` arm on the next spin.
                    if self.is_ident(1, "fn") {
                        self.i += 1;
                    } else {
                        self.skip_to_semi();
                        attr_test = false;
                        attr_cold = false;
                    }
                }
                (Tok::Ident, "macro_rules") => {
                    self.i += 1; // `!` name
                    while !self.is_punct(0, '{') && self.peek(0).is_some() {
                        self.i += 1;
                    }
                    self.skip_balanced('{', '}');
                    attr_test = false;
                    attr_cold = false;
                }
                (Tok::Ident, "fn") => {
                    let fn_start = self.i;
                    self.parse_fn(ctx, attr_test, attr_cold);
                    if attr_test && !ctx.in_test {
                        self.test_spans.push((fn_start, self.i));
                    }
                    attr_test = false;
                    attr_cold = false;
                }
                (Tok::Punct, "{") => {
                    // stray block (e.g. `extern "C" { … }` body reached here)
                    self.skip_balanced('{', '}');
                }
                _ => self.i += 1,
            }
        }
    }

    /// Skips a balanced angle-bracket group. Shift operators cannot appear
    /// in the positions this is called from (generic parameter lists).
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if t.kind == Tok::Punct {
                match t.text.as_bytes()[0] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            return;
                        }
                    }
                    b';' | b'{' => return, // malformed; bail safely
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    /// Skips to just past the next `;` at the current nesting level,
    /// balancing braces/brackets/parens in between.
    fn skip_to_semi(&mut self) {
        while let Some(t) = self.peek(0) {
            if t.kind == Tok::Punct {
                match t.text.as_bytes()[0] {
                    b';' => {
                        self.i += 1;
                        return;
                    }
                    b'{' => {
                        self.skip_balanced('{', '}');
                        continue;
                    }
                    b'(' => {
                        self.skip_balanced('(', ')');
                        continue;
                    }
                    b'[' => {
                        self.skip_balanced('[', ']');
                        continue;
                    }
                    b'}' => return, // end of enclosing block; malformed item
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    /// Parses a type path (`dispatch::common::WorkerTable<R>`), returning
    /// the last identifier. Leaves the cursor after the path.
    fn type_path(&mut self) -> Option<String> {
        let mut last = None;
        loop {
            // leading `&`, `dyn`, `mut`, lifetimes
            while self.is_punct(0, '&')
                || self.is_ident(0, "dyn")
                || self.is_ident(0, "mut")
                || matches!(self.peek(0), Some(t) if t.kind == Tok::Lifetime)
            {
                self.i += 1;
            }
            match self.peek(0) {
                Some(t) if t.kind == Tok::Ident => {
                    last = Some(t.text.clone());
                    self.i += 1;
                }
                _ => return last,
            }
            if self.is_punct(0, '<') {
                self.skip_angles();
            }
            if self.is_punct(0, ':') && self.is_punct(1, ':') {
                self.i += 2;
                continue;
            }
            return last;
        }
    }

    fn parse_fn(&mut self, ctx: &Ctx, attr_test: bool, attr_cold: bool) {
        self.i += 1; // past `fn`
        let Some(name_tok) = self.peek(0) else { return };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        self.i += 1;
        if self.is_punct(0, '<') {
            self.skip_angles();
        }
        // Parameter list.
        let mut has_self = false;
        if self.is_punct(0, '(') {
            let params_start = self.i + 1;
            self.skip_balanced('(', ')');
            let params_end = self.i.saturating_sub(1).max(params_start);
            for t in &self.toks[params_start..params_end] {
                match t.kind {
                    // `&`, `&'a`, and `mut` precede `self` in receivers.
                    Tok::Ident if t.text == "mut" => continue,
                    Tok::Ident => {
                        has_self = t.text == "self";
                        break;
                    }
                    Tok::Punct if t.text == "," => break,
                    _ => continue,
                }
            }
        }
        // Return type / where clause, then body or `;`.
        loop {
            let Some(t) = self.peek(0) else { return };
            if t.kind == Tok::Punct {
                match t.text.as_bytes()[0] {
                    b';' => {
                        self.i += 1;
                        return; // bodyless declaration
                    }
                    b'{' => break,
                    b'<' => {
                        self.skip_angles();
                        continue;
                    }
                    b'(' => {
                        self.skip_balanced('(', ')');
                        continue;
                    }
                    b'[' => {
                        self.skip_balanced('[', ']');
                        continue;
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
        let body_start = self.i + 1;
        self.skip_balanced('{', '}');
        let body_end = self.i.saturating_sub(1);
        let facts = scan_facts(&self.toks[body_start..body_end.max(body_start)]);
        self.out.fns.push(FnItem {
            name,
            self_ty: ctx.self_ty.clone(),
            trait_impl: ctx.trait_impl.clone(),
            module: ctx.module.clone(),
            line,
            is_test: ctx.in_test || attr_test,
            is_cold: attr_cold,
            has_self,
            facts,
        });
    }
}

/// Scans a function body token slice for calls and rule facts.
fn scan_facts(toks: &[Token]) -> Facts {
    let mut f = Facts::default();
    let punct = |j: usize, c: char| matches!(toks.get(j), Some(t) if t.kind == Tok::Punct && t.text.as_bytes()[0] as char == c);
    let ident = |j: usize| -> Option<&str> {
        match toks.get(j) {
            Some(t) if t.kind == Tok::Ident => Some(t.text.as_str()),
            _ => None,
        }
    };
    let mut j = 0usize;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            Tok::Ident => {
                // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
                if punct(j + 1, '!')
                    && (punct(j + 2, '(') || punct(j + 2, '[') || punct(j + 2, '{'))
                {
                    let m = t.text.as_str();
                    if PANIC_MACROS.contains(&m) {
                        f.panics.push(Site {
                            what: format!("{m}!"),
                            line: t.line,
                        });
                    } else if ALLOC_MACROS.contains(&m) {
                        f.allocs.push(Site {
                            what: format!("{m}!"),
                            line: t.line,
                        });
                    }
                    j += 2;
                    continue;
                }
                // Method call: `.name(…)` or `.name::<T>(…)`.
                let prev_dot = j > 0 && punct(j - 1, '.');
                if prev_dot {
                    let mut k = j + 1;
                    if punct(k, ':') && punct(k + 1, ':') && punct(k + 2, '<') {
                        k += 2;
                        let mut depth = 0i32;
                        while k < toks.len() {
                            if punct(k, '<') {
                                depth += 1;
                            } else if punct(k, '>') {
                                depth -= 1;
                                if depth == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            k += 1;
                        }
                    }
                    if punct(k, '(') {
                        let name = t.text.as_str();
                        f.calls.push(Call {
                            name: name.to_string(),
                            qualifier: None,
                            method: true,
                            line: t.line,
                        });
                        if PANIC_METHODS.contains(&name) {
                            f.panics.push(Site {
                                what: format!(".{name}()"),
                                line: t.line,
                            });
                        } else if ALLOC_METHODS.contains(&name) {
                            f.allocs.push(Site {
                                what: format!(".{name}()"),
                                line: t.line,
                            });
                        } else if BLOCK_METHODS.contains(&name) {
                            f.blocking.push(Site {
                                what: format!(".{name}()"),
                                line: t.line,
                            });
                        }
                    }
                    j += 1;
                    continue;
                }
                // Path or plain call: `a::b::c(…)`. Walk the whole path.
                if !prev_dot && ident(j).is_some() && (j == 0 || ident(j - 1) != Some("fn")) {
                    let mut segs: Vec<&str> = vec![t.text.as_str()];
                    let mut k = j + 1;
                    let mut lines = t.line;
                    while punct(k, ':') && punct(k + 1, ':') {
                        if punct(k + 2, '<') {
                            // turbofish: skip, then expect `(`
                            let mut depth = 0i32;
                            let mut m = k + 2;
                            while m < toks.len() {
                                if punct(m, '<') {
                                    depth += 1;
                                } else if punct(m, '>') {
                                    depth -= 1;
                                    if depth == 0 {
                                        m += 1;
                                        break;
                                    }
                                }
                                m += 1;
                            }
                            k = m;
                            break;
                        }
                        match ident(k + 2) {
                            Some(s) => {
                                segs.push(s);
                                lines = toks[k + 2].line;
                                k += 3;
                            }
                            None => break,
                        }
                    }
                    if punct(k, '(') && !segs.is_empty() {
                        let name = segs[segs.len() - 1];
                        let qualifier = if segs.len() >= 2 {
                            Some(segs[segs.len() - 2].to_string())
                        } else {
                            None
                        };
                        f.calls.push(Call {
                            name: name.to_string(),
                            qualifier: qualifier.clone(),
                            method: false,
                            line: lines,
                        });
                        let q = qualifier.as_deref().unwrap_or("");
                        if ALLOC_TYPES.contains(&q)
                            && matches!(name, "new" | "with_capacity" | "from" | "from_iter")
                        {
                            f.allocs.push(Site {
                                what: format!("{q}::{name}"),
                                line: lines,
                            });
                        } else if BLOCK_CALLS.contains(&name) {
                            f.blocking.push(Site {
                                what: format!("{name}()"),
                                line: lines,
                            });
                        }
                        j = k;
                        continue;
                    }
                    j = k.max(j + 1);
                    continue;
                }
                j += 1;
            }
            Tok::Punct if t.text == "[" => {
                // Index expression: `recv[…]` / `f()[…]`. Attributes (`#[`)
                // and array literals/macros are excluded because their
                // preceding token is not an ident / `)` / `]`.
                if j > 0 {
                    let prev = &toks[j - 1];
                    let is_recv = match prev.kind {
                        Tok::Ident => !matches!(
                            prev.text.as_str(),
                            // keywords that can directly precede `[`
                            "mut" | "return" | "in" | "as" | "else" | "match" | "break" | "if"
                        ),
                        Tok::Punct => prev.text == ")" || prev.text == "]",
                        _ => false,
                    };
                    if is_recv {
                        let what = if prev.kind == Tok::Ident {
                            prev.text.clone()
                        } else {
                            "<expr>".to_string()
                        };
                        f.indexing.push(Site { what, line: t.line });
                    }
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fns_and_impls() {
        let src = r#"
            pub struct Engine { q: Vec<u32> }
            impl Engine {
                pub fn poll(&mut self) -> Option<u32> { self.q.pop() }
            }
            impl ScheduleEngine<R> for Engine {
                fn enqueue(&mut self, r: R) { helper(r); }
            }
            fn helper(r: R) {}
        "#;
        let pf = parse_file("crates/demo/src/lib.rs", src);
        assert_eq!(pf.types, ["Engine"]);
        let names: Vec<&str> = pf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["poll", "enqueue", "helper"]);
        assert_eq!(pf.fns[0].self_ty.as_deref(), Some("Engine"));
        assert!(pf.fns[0].has_self);
        assert_eq!(pf.fns[1].trait_impl.as_deref(), Some("ScheduleEngine"));
        assert!(!pf.fns[2].has_self);
        assert!(pf.fns[1]
            .facts
            .calls
            .iter()
            .any(|c| c.name == "helper" && !c.method));
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = r#"
            fn hot() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn check() { hot(); }
            }
            #[cfg(not(test))]
            fn also_hot() {}
        "#;
        let pf = parse_file("crates/demo/src/lib.rs", src);
        let by_name = |n: &str| pf.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("hot").is_test);
        assert!(by_name("check").is_test);
        assert!(!by_name("also_hot").is_test);
    }

    #[test]
    fn facts_panic_alloc_block_index() {
        let src = r#"
            fn f(v: &mut Vec<u32>, m: &std::sync::Mutex<u32>) {
                let x = v.pop().unwrap();
                let b = Box::new(x);
                let s = format!("{x}");
                let g = m.lock();
                std::thread::sleep(d);
                let y = v[0];
                let z: Vec<u32> = v.iter().collect();
                panic!("no");
            }
        "#;
        let pf = parse_file("crates/demo/src/lib.rs", src);
        let f = &pf.fns[0].facts;
        assert!(f.panics.iter().any(|s| s.what == ".unwrap()"));
        assert!(f.panics.iter().any(|s| s.what == "panic!"));
        assert!(f.allocs.iter().any(|s| s.what == "Box::new"));
        assert!(f.allocs.iter().any(|s| s.what == "format!"));
        assert!(f.allocs.iter().any(|s| s.what == ".collect()"));
        assert!(f.blocking.iter().any(|s| s.what == ".lock()"));
        assert!(f.blocking.iter().any(|s| s.what == "sleep()"));
        assert!(f.indexing.iter().any(|s| s.what == "v"));
    }

    #[test]
    fn relaxed_sites_mark_use_decls_and_test_code() {
        let src = r#"
            use std::sync::atomic::Ordering::Relaxed;
            static C: AtomicU64 = AtomicU64::new(0);
            fn bump() { C.fetch_add(1, Relaxed); }
            #[cfg(test)]
            mod tests {
                use super::*;
                #[test]
                fn t() { C.load(Relaxed); }
            }
        "#;
        let pf = parse_file("crates/demo/src/lib.rs", src);
        let flags: Vec<(bool, bool)> = pf.sites("Relaxed").map(|s| (s.in_use, s.in_test)).collect();
        assert_eq!(flags, [(true, false), (false, false), (false, true)]);
    }

    #[test]
    fn unsafe_sites_include_impls_and_blocks() {
        let src = r#"
            unsafe impl Send for X {}
            fn f() { unsafe { core::hint::unreachable_unchecked() } }
        "#;
        let pf = parse_file("crates/demo/src/lib.rs", src);
        assert_eq!(pf.sites("unsafe").count(), 2);
    }

    #[test]
    fn watched_names_match_whole_tokens_only() {
        let src = r#"
            /// Calls `x.unwrap()` and `Instant::now()` in prose only.
            fn f(x: Option<u8>) -> u8 {
                let _ = "println!(.unwrap())";
                let _m: FxHashMap<u8, u8> = todo!();
                let _t = std::time::Instant::now();
                x.unwrap()
            }
            use std::collections::VecDeque as Ring;
        "#;
        let pf = parse_file("crates/demo/src/lib.rs", src);
        let seen: Vec<(&str, u32)> = pf.names.iter().map(|s| (s.name, s.line)).collect();
        assert_eq!(
            seen,
            [("Instant::now", 6), (".unwrap()", 7), ("VecDeque", 9)]
        );
        assert!(pf.names[2].in_use);
    }

    #[test]
    fn inner_attributes_are_recorded() {
        let src = "//! Docs.\n#![cfg(not(feature = \"x\"))]\n#![deny(unsafe_op_in_unsafe_fn)]\nfn f() {}\n";
        let pf = parse_file("crates/demo/src/lib.rs", src);
        assert_eq!(
            pf.inner_attrs,
            ["cfg(not(feature=\"\"))", "deny(unsafe_op_in_unsafe_fn)"]
        );
        assert_eq!(pf.fns.len(), 1);
    }

    #[test]
    fn one_predicate_decides_test_files() {
        for path in ["tests/x.rs", "benches/x.rs", "crates/a/tests/x.rs"] {
            assert!(is_test_path(path), "{path} is test code");
        }
        for path in ["crates/a/src/x.rs", "benchmark/src/x.rs"] {
            assert!(!is_test_path(path), "{path} is not test code");
        }
        assert!(parse_file("tests/chaos.rs", "fn f() {}").fns[0].is_test);
    }

    #[test]
    fn turbofish_method_call_is_seen() {
        let src = "fn f(v: &[u32]) -> Vec<u32> { v.iter().collect::<Vec<u32>>() }";
        let pf = parse_file("crates/demo/src/lib.rs", src);
        assert!(pf.fns[0]
            .facts
            .allocs
            .iter()
            .any(|s| s.what == ".collect()"));
    }

    #[test]
    fn macro_bodies_are_scanned_and_array_literals_skipped() {
        let src = r#"
            fn f(xs: &[u32]) {
                assert!(xs.first().unwrap() < &10);
                let a = [0u8; 4];
                let b = vec![1, 2];
            }
        "#;
        let pf = parse_file("crates/demo/src/lib.rs", src);
        let f = &pf.fns[0].facts;
        assert!(f.panics.iter().any(|s| s.what == "assert!"));
        assert!(f.panics.iter().any(|s| s.what == ".unwrap()"));
        assert!(f.allocs.iter().any(|s| s.what == "vec!"));
        // `[0u8; 4]` after `=` is not an index expression
        assert!(!f.indexing.iter().any(|s| s.what == "a"));
    }

    #[test]
    fn integration_test_files_are_test_code() {
        let pf = parse_file("crates/demo/tests/e2e.rs", "fn f() { x.unwrap(); }");
        assert!(pf.fns[0].is_test);
    }
}
