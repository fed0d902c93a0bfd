//! A lightweight recursive-descent parser over the significant-token
//! stream, producing the per-file item summary the workspace analyses run
//! on.
//!
//! This is *not* a Rust parser — no expressions, no types, no name
//! resolution. It recovers exactly the structure the interprocedural
//! analyses need and nothing more:
//!
//! * **functions** (free, impl methods, trait default methods) with their
//!   body token ranges, the impl'd type and trait when inside an `impl`
//!   block, the **call sites** inside each body (free calls, `Type::assoc`
//!   calls, `.method(` calls), and the **taint sources** the body contains;
//! * **struct/enum field lists** (named fields only, including struct
//!   variants), which the fingerprint-coverage check compares against the
//!   identifiers mentioned in the type's `fingerprint_into` body;
//! * for `fingerprint_into` bodies, every identifier mentioned.
//!
//! The parser is error-tolerant: malformed input degrades to skipped
//! items, and gross structural damage (unbalanced braces) is reported as a
//! parse error rather than a finding, so the CLI can distinguish "the tree
//! is dirty" from "the analyzer could not see the tree".

use crate::allow::Allows;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::map_iteration_sites;
use crate::scope::test_scopes;
use crate::walk::FileClass;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (`helper`, `fingerprint_into`, …).
    pub name: String,
    /// Qualifier for `Qual::name(..)` calls (`Self` already resolved to
    /// the surrounding impl type). `None` for free and method calls.
    pub qual: Option<String>,
    /// `true` for `.name(..)` method calls.
    pub method: bool,
    /// 1-based line of the callee token.
    pub line: u32,
}

/// The kinds of nondeterminism the taint analysis seeds at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Wall clocks, filesystem timestamps, real sleeps.
    Clock,
    /// Ambient/OS randomness.
    Entropy,
    /// `HashMap`/`HashSet` iteration order.
    MapIter,
    /// Thread identity (`thread::current`, `ThreadId`) and host
    /// parallelism probes.
    ThreadId,
    /// Pointer-to-integer casts (addresses vary run to run under ASLR).
    PtrInt,
    /// Atomic read-modify-write: the returned value depends on the
    /// interleaving no matter the memory ordering.
    AtomicRmw,
}

impl SourceKind {
    /// Stable id used in diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            SourceKind::Clock => "clock",
            SourceKind::Entropy => "entropy",
            SourceKind::MapIter => "map-iter",
            SourceKind::ThreadId => "thread-id",
            SourceKind::PtrInt => "ptr-int",
            SourceKind::AtomicRmw => "atomic-rmw",
        }
    }

    /// Human noun for diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            SourceKind::Clock => "wall-clock",
            SourceKind::Entropy => "OS-entropy",
            SourceKind::MapIter => "hash-map iteration order",
            SourceKind::ThreadId => "thread-identity",
            SourceKind::PtrInt => "pointer-address",
            SourceKind::AtomicRmw => "atomic read-modify-write",
        }
    }

    /// The token-level rule that overlaps this source kind, if any. An
    /// allow of that rule on the source line also suppresses taint
    /// seeding — the justification ("collected and sorted", "stderr
    /// progress only") applies to both views of the same site.
    fn base_rule(self) -> Option<&'static str> {
        match self {
            SourceKind::Clock => Some("D1"),
            SourceKind::Entropy => Some("D2"),
            SourceKind::MapIter => Some("D3"),
            _ => None,
        }
    }
}

/// One taint source detected inside a function body.
#[derive(Debug, Clone)]
pub struct TaintSource {
    /// What class of nondeterminism this is.
    pub kind: SourceKind,
    /// The construct, for diagnostics (`HashMap iteration over \`m\``).
    pub what: String,
    /// 1-based line of the source token.
    pub line: u32,
}

/// One parsed function.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Surrounding impl type (`impl Foo { … }` / `impl Tr for Foo`) or
    /// trait name for trait default methods.
    pub self_ty: Option<String>,
    /// Trait name for `impl Tr for Foo` methods.
    pub trait_name: Option<String>,
    /// 1-based line/col of the `fn` name token.
    pub line: u32,
    /// 1-based column of the `fn` name token.
    pub col: u32,
    /// `true` when the body sits in a test-only scope or test file.
    pub is_test: bool,
    /// Call sites inside the body, in source order.
    pub calls: Vec<Call>,
    /// Taint sources inside the body (allow-suppressed ones excluded).
    pub sources: Vec<TaintSource>,
    /// Identifiers mentioned in the body — populated only for
    /// fingerprint-hash functions (`fingerprint_into`), where the coverage
    /// check consumes them.
    pub mentions: Vec<String>,
}

/// One named field of a struct (or struct enum variant).
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// 1-based line of the field-name token.
    pub line: u32,
    /// 1-based column of the field-name token.
    pub col: u32,
    /// `true` when the declaration line carries `lint: allow(F1, …)` —
    /// the field is deliberately excluded from the fingerprint.
    pub allowed: bool,
}

/// One struct/enum with named fields.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Type name.
    pub name: String,
    /// 1-based line of the type-name token.
    pub line: u32,
    /// Named fields (tuple/unit types contribute none).
    pub fields: Vec<FieldItem>,
}

/// Everything the workspace analyses need from one file.
#[derive(Debug, Clone, Default)]
pub struct FileSummary {
    /// Workspace-relative path.
    pub rel: String,
    /// Every parsed function.
    pub fns: Vec<FnItem>,
    /// Every parsed struct/enum with named fields.
    pub types: Vec<TypeItem>,
    /// Structural damage the parser could not see through.
    pub parse_errors: Vec<String>,
}

/// Parses one lexed file into its summary, consuming `allows` for
/// source-level (`T1` + base rule) and field-level (`F1`) suppressions.
pub fn summarize(class: &FileClass, lexed: &Lexed, allows: &mut Allows) -> FileSummary {
    let toks = &lexed.toks;
    let in_test = test_scopes(toks);
    let mut sum = FileSummary {
        rel: class.rel.clone(),
        ..FileSummary::default()
    };
    // File-wide map-iteration sites, attributed to bodies by token index.
    // Test and example files never feed production chains, so their
    // sources are irrelevant (and their fns are all `is_test`).
    let map_sites = if class.test_file || class.example_file {
        Vec::new()
    } else {
        map_iteration_sites(toks, &in_test)
    };
    let mut p = Parser {
        class,
        toks,
        in_test: &in_test,
        map_sites: &map_sites,
        allows,
        sum: &mut sum,
    };
    p.items(0, toks.len(), None, None);
    check_balance(toks, &mut sum);
    sum
}

/// Flags files whose brace structure does not balance — item boundaries
/// (and therefore every body attribution) are unreliable there.
fn check_balance(toks: &[Tok], sum: &mut FileSummary) {
    let mut depth = 0i64;
    for t in toks {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            sum.parse_errors
                .push(format!("{}:{}: unbalanced `}}`", sum.rel, t.line));
            return;
        }
    }
    if depth != 0 {
        sum.parse_errors
            .push(format!("{}: {depth} unclosed `{{` at end of file", sum.rel));
    }
}

struct Parser<'a> {
    class: &'a FileClass,
    toks: &'a [Tok],
    in_test: &'a [bool],
    map_sites: &'a [crate::rules::MapIterSite],
    allows: &'a mut Allows,
    sum: &'a mut FileSummary,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "in", "as", "move", "ref", "let",
    "mut", "fn", "pub", "use", "mod", "impl", "struct", "enum", "trait", "where", "const",
    "static", "type", "unsafe", "dyn", "break", "continue", "crate", "super", "self", "Self",
    "true", "false", "async", "await", "box",
];

impl<'a> Parser<'a> {
    fn ident(&self, i: usize) -> Option<&'a str> {
        self.toks
            .get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    fn punct(&self, i: usize, text: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    }

    /// Finds the index of the matching `}` for the `{` at `open`.
    fn close_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            match self.toks[i].text.as_str() {
                "{" if self.toks[i].kind == TokKind::Punct => depth += 1,
                "}" if self.toks[i].kind == TokKind::Punct => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// From `i`, scans forward for the item's `{` (returning its index) or
    /// a terminating `;` at grouping depth 0 (returning `None`).
    fn body_open(&self, mut i: usize) -> Option<usize> {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    ";" if paren == 0 && bracket == 0 => return None,
                    "{" if paren == 0 && bracket == 0 => return Some(i),
                    _ => {}
                }
            }
            i += 1;
        }
        None
    }

    /// Walks items in `range`, recursing into `mod`/`impl`/`trait` bodies.
    fn items(&mut self, start: usize, end: usize, self_ty: Option<&str>, trait_name: Option<&str>) {
        let mut i = start;
        while i < end {
            match self.ident(i) {
                Some("fn") => {
                    i = self.item_fn(i, end, self_ty, trait_name);
                }
                Some("impl") => {
                    i = self.item_impl(i, end);
                }
                Some("trait") => {
                    let name = self.ident(i + 1).map(str::to_string);
                    match self.body_open(i + 1) {
                        Some(open) => {
                            let close = self.close_brace(open);
                            self.items(open + 1, close, name.as_deref(), None);
                            i = close + 1;
                        }
                        None => i += 1,
                    }
                }
                Some("mod") => match self.body_open(i + 1) {
                    Some(open) => {
                        let close = self.close_brace(open);
                        self.items(open + 1, close, self_ty, trait_name);
                        i = close + 1;
                    }
                    None => i += 2, // `mod name;`
                },
                Some("struct") => {
                    i = self.item_struct(i);
                }
                Some("enum") => {
                    i = self.item_enum(i);
                }
                _ => i += 1,
            }
        }
    }

    /// Parses `fn name … { body }` starting at the `fn` token; returns the
    /// index to continue scanning from.
    fn item_fn(
        &mut self,
        at: usize,
        end: usize,
        self_ty: Option<&str>,
        trait_name: Option<&str>,
    ) -> usize {
        let Some(name) = self.ident(at + 1) else {
            return at + 1; // `fn` in a type position (`fn()` pointer)
        };
        let name = name.to_string();
        let Some(open) = self.body_open(at + 2) else {
            return at + 2; // required trait method — no body
        };
        let close = self.close_brace(open).min(end);
        let name_tok = &self.toks[at + 1];
        let is_test = self.class.test_file
            || self.class.example_file
            || self.in_test.get(at).copied().unwrap_or(false);
        let want_mentions = name == "fingerprint_into";
        let mut item = FnItem {
            name,
            self_ty: self_ty.map(str::to_string),
            trait_name: trait_name.map(str::to_string),
            line: name_tok.line,
            col: name_tok.col,
            is_test,
            calls: Vec::new(),
            sources: Vec::new(),
            mentions: Vec::new(),
        };
        self.scan_body(open + 1, close, self_ty, want_mentions, &mut item);
        if !is_test {
            self.collect_sources(open + 1, close, &mut item);
        }
        self.sum.fns.push(item);
        // Recurse for nested fn items (their calls double-attributed to the
        // enclosing fn — a harmless over-approximation).
        self.items(open + 1, close, self_ty, None);
        close + 1
    }

    /// Parses an `impl [<…>] [Trait for] Type { … }` header and body.
    fn item_impl(&mut self, at: usize, _end: usize) -> usize {
        let Some(open) = self.body_open(at + 1) else {
            return at + 1;
        };
        // Header idents between `impl` and `{`, minus generics.
        let mut angle = 0i32;
        let mut path_idents: Vec<&str> = Vec::new();
        let mut for_at: Option<usize> = None;
        for j in at + 1..open {
            let t = &self.toks[j];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") => angle = (angle - 1).max(0),
                (TokKind::Ident, "for") if angle == 0 => for_at = Some(path_idents.len()),
                (TokKind::Ident, "where") if angle == 0 => break,
                (TokKind::Ident, name) if angle == 0 => path_idents.push(name),
                _ => {}
            }
        }
        let (trait_name, self_ty) = match for_at {
            Some(split) => (
                path_idents.get(..split).and_then(|p| p.last()).copied(),
                path_idents.last().copied(),
            ),
            None => (None, path_idents.last().copied()),
        };
        let close = self.close_brace(open);
        self.items(open + 1, close, self_ty, trait_name);
        close + 1
    }

    /// Parses `struct Name { fields }` (tuple/unit structs contribute an
    /// empty field list and are skipped for coverage purposes).
    fn item_struct(&mut self, at: usize) -> usize {
        let Some(name) = self.ident(at + 1) else {
            return at + 1;
        };
        let name = name.to_string();
        let name_tok = &self.toks[at + 1];
        let Some(open) = self.body_open(at + 2) else {
            return at + 2; // `struct Name;` or `struct Name(..);`
        };
        // `struct Name(T, U);` has no `{`; body_open would skip past the
        // parens and find some later `{` — guard: a `(` before the `{`
        // at depth 0 means tuple struct.
        for j in at + 2..open {
            if self.punct(j, "(") {
                return j; // let the scanner resume inside/after the parens
            }
        }
        let close = self.close_brace(open);
        let fields = self.fields(open + 1, close);
        let line = name_tok.line;
        self.sum.types.push(TypeItem { name, line, fields });
        close + 1
    }

    /// Parses `enum Name { A, B { f: T }, C(T) }`, collecting named fields
    /// of struct variants into one type record.
    fn item_enum(&mut self, at: usize) -> usize {
        let Some(name) = self.ident(at + 1) else {
            return at + 1;
        };
        let name = name.to_string();
        let name_tok = &self.toks[at + 1];
        let Some(open) = self.body_open(at + 2) else {
            return at + 2;
        };
        let close = self.close_brace(open);
        let mut fields = Vec::new();
        // Variants sit at depth 0 inside the braces; a `{` after a variant
        // name opens named fields.
        let mut j = open + 1;
        while j < close {
            let t = &self.toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" => {
                        // tuple variant: skip the parens
                        let mut depth = 0i32;
                        while j < close {
                            match self.toks[j].text.as_str() {
                                "(" => depth += 1,
                                ")" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                    "{" => {
                        let vclose = self.close_brace(j);
                        fields.extend(self.fields(j + 1, vclose));
                        j = vclose;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let line = name_tok.line;
        self.sum.types.push(TypeItem { name, line, fields });
        close + 1
    }

    /// Parses a named-field list in `range`: declarations separated by `,`
    /// at grouping depth 0, each `[attrs] [pub[(..)]] name : Type`.
    fn fields(&mut self, start: usize, end: usize) -> Vec<FieldItem> {
        let mut out = Vec::new();
        let mut j = start;
        let mut at_decl_start = true;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut brace = 0i32;
        let mut angle = 0i32;
        while j < end {
            let t = &self.toks[j];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(") => paren += 1,
                (TokKind::Punct, ")") => paren -= 1,
                (TokKind::Punct, "[") => bracket += 1,
                (TokKind::Punct, "]") => bracket -= 1,
                (TokKind::Punct, "{") => brace += 1,
                (TokKind::Punct, "}") => brace -= 1,
                // Angle heuristic: `<` in a field's type position opens a
                // generic list; `>` closes one (never a comparison here).
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") => angle = (angle - 1).max(0),
                (TokKind::Punct, ",") if paren == 0 && bracket == 0 && brace == 0 && angle == 0 => {
                    at_decl_start = true;
                    j += 1;
                    continue;
                }
                (TokKind::Ident, name)
                    if at_decl_start && paren == 0 && bracket == 0 && brace == 0 =>
                {
                    if name != "pub" && self.punct(j + 1, ":") {
                        let allowed = self.allows.permits("F1", t.line);
                        out.push(FieldItem {
                            name: name.to_string(),
                            line: t.line,
                            col: t.col,
                            allowed,
                        });
                        at_decl_start = false;
                    } else if name != "pub" {
                        // Something other than a field decl (e.g. macro
                        // output) — stop guessing for this decl.
                        at_decl_start = false;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        out
    }

    /// Scans a fn body for call sites (and mentions when requested).
    fn scan_body(
        &mut self,
        start: usize,
        end: usize,
        self_ty: Option<&str>,
        want_mentions: bool,
        item: &mut FnItem,
    ) {
        for i in start..end.min(self.toks.len()) {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            if want_mentions && !item.mentions.iter().any(|m| m == &t.text) {
                item.mentions.push(t.text.clone());
            }
            if item.is_test || self.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            if !self.punct(i + 1, "(") || KEYWORDS.contains(&t.text.as_str()) {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| &self.toks[p]);
            let (qual, method) = match prev {
                Some(p) if p.kind == TokKind::Punct && p.text == "." => (None, true),
                Some(p) if p.kind == TokKind::Punct && p.text == "::" => {
                    let Some(q) = i
                        .checked_sub(2)
                        .and_then(|q| self.toks.get(q).filter(|t| t.kind == TokKind::Ident))
                    else {
                        continue; // `::func(` absolute path fragment
                    };
                    let qual = if q.text == "Self" {
                        match self_ty {
                            Some(ty) => ty.to_string(),
                            None => continue,
                        }
                    } else {
                        q.text.clone()
                    };
                    // Lowercase qualifiers are modules (`thread::spawn`):
                    // treat as a free call under the bare name.
                    if qual.chars().next().is_some_and(char::is_lowercase) {
                        (None, false)
                    } else {
                        (Some(qual), false)
                    }
                }
                Some(p) if p.kind == TokKind::Ident && p.text == "fn" => continue,
                _ => (None, false),
            };
            item.calls.push(Call {
                name: t.text.clone(),
                qual,
                method,
                line: t.line,
            });
        }
    }

    /// Detects taint sources in a production fn body. Sources suppressed
    /// by `lint: allow(T1, …)` — or by an allow of the overlapping
    /// token-level rule — are dropped at the seed.
    fn collect_sources(&mut self, start: usize, end: usize, item: &mut FnItem) {
        let end = end.min(self.toks.len());
        let mut found: Vec<TaintSource> = Vec::new();
        for i in start..end {
            if self.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            let t = &self.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let name = t.text.as_str();
            // Clock sources — the simulated-time module is the one place
            // allowed to touch the real clock (mirrors rule D1's scope).
            if !self.class.simtime_module {
                if (name == "Instant" || name == "SystemTime")
                    && self.punct(i + 1, "::")
                    && self.ident(i + 2) == Some("now")
                {
                    found.push(src(SourceKind::Clock, format!("`{name}::now()`"), t.line));
                } else if name == "SystemTime" || name == "UNIX_EPOCH" {
                    found.push(src(SourceKind::Clock, format!("`{name}`"), t.line));
                } else if name == "thread"
                    && self.punct(i + 1, "::")
                    && self.ident(i + 2) == Some("sleep")
                {
                    found.push(src(SourceKind::Clock, "`thread::sleep`".into(), t.line));
                }
                if i > 0
                    && self.punct(i - 1, ".")
                    && matches!(name, "modified" | "created" | "accessed")
                    && self.punct(i + 1, "(")
                {
                    found.push(src(
                        SourceKind::Clock,
                        format!("filesystem timestamp `.{name}()`"),
                        t.line,
                    ));
                }
            }
            // Entropy sources (the D2 set).
            if matches!(
                name,
                "thread_rng" | "from_entropy" | "OsRng" | "getrandom" | "random_seed"
            ) {
                found.push(src(SourceKind::Entropy, format!("`{name}`"), t.line));
            }
            // Thread identity / host-environment probes.
            if name == "thread" && self.punct(i + 1, "::") && self.ident(i + 2) == Some("current") {
                found.push(src(
                    SourceKind::ThreadId,
                    "`thread::current()` (thread identity)".into(),
                    t.line,
                ));
            }
            if name == "ThreadId" {
                found.push(src(SourceKind::ThreadId, "`ThreadId`".into(), t.line));
            }
            if name == "available_parallelism" {
                found.push(src(
                    SourceKind::ThreadId,
                    "`available_parallelism()` (host CPU count)".into(),
                    t.line,
                ));
            }
            // Pointer-to-int casts: `x.as_ptr() as usize` — addresses are
            // ASLR-randomized, so they must never feed hashed state.
            if matches!(name, "as_ptr" | "as_mut_ptr")
                && self.punct(i + 1, "(")
                && self.punct(i + 2, ")")
                && self.ident(i + 3) == Some("as")
                && matches!(
                    self.ident(i + 4),
                    Some("usize" | "u64" | "u32" | "isize" | "i64" | "i32")
                )
            {
                found.push(src(
                    SourceKind::PtrInt,
                    format!(
                        "`.{name}() as {}` (pointer-to-int cast)",
                        self.toks[i + 4].text
                    ),
                    t.line,
                ));
            }
            // Atomic RMW: the returned value depends on interleaving.
            if i > 0
                && self.punct(i - 1, ".")
                && self.punct(i + 1, "(")
                && matches!(
                    name,
                    "fetch_add"
                        | "fetch_sub"
                        | "fetch_or"
                        | "fetch_and"
                        | "fetch_xor"
                        | "fetch_update"
                        | "compare_exchange"
                        | "compare_exchange_weak"
                )
            {
                found.push(src(
                    SourceKind::AtomicRmw,
                    format!("atomic `.{name}(..)`"),
                    t.line,
                ));
            }
        }
        // Map-iteration sites inside this body.
        for site in self.map_sites {
            if site.tok >= start && site.tok < end {
                let how = if site.how == "for" {
                    format!("for-loop over hash map/set `{}`", site.name)
                } else {
                    format!("`.{}()` over hash map/set `{}`", site.how, site.name)
                };
                found.push(src(SourceKind::MapIter, how, self.toks[site.tok].line));
            }
        }
        // Apply allows at the seed: allow(T1) or the overlapping
        // token-level rule's allow on the source line.
        for s in found {
            let base_allowed = s
                .kind
                .base_rule()
                .is_some_and(|r| self.allows.permits(r, s.line));
            if !base_allowed && !self.allows.permits("T1", s.line) {
                item.sources.push(s);
            }
        }
    }
}

fn src(kind: SourceKind, what: String, line: u32) -> TaintSource {
    TaintSource { kind, what, line }
}
