//! Item-level parsing on top of the surface lexer: extracts `fn`
//! definitions (with their `impl` context), call sites, ranked-lock
//! construction and acquisition sites, condvar waits, blocking
//! primitives, `fault::` hooks, raw file I/O, trait declarations and
//! metric registrations — everything the interprocedural checks
//! (L1–L4) consume.
//!
//! This is deliberately a *surface* parser: it tracks brace/paren
//! depth and token shapes, not full Rust grammar. The resolution
//! rules err on the side of precision (an ambiguous receiver is
//! dropped, not guessed), so the analyzer under-approximates rather
//! than spraying false findings; the runtime ranked-lock detector
//! remains the backstop for what the surface parse cannot see.

use crate::engine::test_spans;
use crate::lexer::{lex, Line};

/// A `sync::Mutex::new(&rank::X, ..)` / `RwLock::new(&rank::X, ..)`
/// construction site, associating a field/binding name with a lock class.
#[derive(Debug)]
pub struct LockCtor {
    /// The field (`state: Mutex::new(..)`), `let`/`static` binding, or
    /// `None` when the surrounding shape was unrecognizable.
    pub field: Option<String>,
    /// The `rank::` identifier, e.g. `WAL_GROUP` (resolved against
    /// `s2_common::sync::rank::TABLE` later).
    pub class_ident: String,
    /// Enclosing `impl` type, when the construction happens inside one.
    pub impl_ty: Option<String>,
    /// 0-based line of the construction.
    pub line: usize,
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq)]
pub enum Recv {
    /// `helper(..)` — a bare (free-function) call.
    Bare,
    /// `self.method(..)` or `self.field.method(..)`; the payload is the
    /// last receiver segment before the method (`None` for plain `self`).
    Method(Option<String>),
    /// `Type::func(..)` / `module::func(..)` — the qualifying segment.
    Qual(String),
}

/// One ordered event inside a function body.
#[derive(Debug)]
pub enum RawEvent {
    /// A no-arg `.lock()` / `.try_lock()` / `.read()` / `.write()` on a
    /// receiver chain ending in `field` (previous segment in `hint`).
    Acquire {
        field: String,
        hint: Option<String>,
        /// `let g = ..` / `g = ..` binding, when present on the line.
        bind: Option<String>,
        line: usize,
        depth: u32,
    },
    /// `cv.wait(g)` / `cv.wait_timeout(g, ..)`: blocks, releasing the
    /// guard named in `guard` for the duration.
    CvWait { guard: Option<String>, rebind: Option<String>, line: usize },
    /// `drop(g)` — explicit guard release.
    DropIdent { name: String },
    /// Brace-scope exit: guards bound deeper than `depth` die here.
    Close { depth: u32 },
    /// A resolvable call site.
    Call { name: String, recv: Recv, line: usize },
    /// A directly-blocking primitive (sleep/recv/join/fsync/blob I/O…).
    Block { what: &'static str, line: usize },
    /// A `fault::failpoint(..)` / `fault::crash_point(..)` hook.
    Hook { line: usize },
    /// Raw file I/O (`write_all`/`set_len`/`flush`/`sync_*`) — the
    /// mutation sites L3 requires failpoint coverage for.
    RawIo { what: &'static str, line: usize },
}

/// One `fn` definition with its ordered body events.
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl` type (`impl Log` → `Log`); for a trait default
    /// body this is the trait name.
    pub impl_ty: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` blocks.
    pub impl_trait: Option<String>,
    /// True for default method bodies declared inside `trait { .. }`.
    pub trait_default: bool,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    pub is_test: bool,
    /// Parameter names from the signature. Bare calls to one of these are
    /// closure-typed arguments, not free functions — the call graph must
    /// not resolve them to a same-named `fn` elsewhere.
    pub params: Vec<String>,
    pub events: Vec<RawEvent>,
}

/// A `trait Name { .. }` declaration and its method names.
#[derive(Debug)]
pub struct TraitDecl {
    pub name: String,
    pub methods: Vec<String>,
    pub line: usize,
}

/// A `counter!("..")` / `gauge!` / `histogram!` registration site.
#[derive(Debug)]
pub struct MetricReg {
    pub kind: &'static str,
    /// First string literal on (or immediately after) the macro line.
    pub name: Option<String>,
    pub line: usize,
}

/// Everything extracted from one source file.
pub struct FileModel {
    pub path: String,
    pub lines: Vec<Line>,
    pub is_test: Vec<bool>,
    pub fns: Vec<FnDef>,
    pub ctors: Vec<LockCtor>,
    pub traits: Vec<TraitDecl>,
    pub metrics: Vec<MetricReg>,
}

// ------------------------------------------------------------ tokenizer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Dot,
    PathSep,
    Comma,
    Semi,
    Eq,
    Bang,
    Amp,
    Colon,
    Pipe,
    Other(char),
}

#[derive(Debug)]
struct T {
    tok: Tok,
    line: usize,
}

fn tokenize(lines: &[Line]) -> Vec<T> {
    let mut out = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        let mut prev_op = false;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            let tok = match c {
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    out.push(T { tok: Tok::Ident(chars[start..i].iter().collect()), line: ln });
                    prev_op = false;
                    continue;
                }
                '{' => Tok::LBrace,
                '}' => Tok::RBrace,
                '(' => Tok::LParen,
                ')' => Tok::RParen,
                '[' => Tok::LBracket,
                ']' => Tok::RBracket,
                '.' => Tok::Dot,
                ',' => Tok::Comma,
                ';' => Tok::Semi,
                '!' if next == Some('=') => {
                    i += 1;
                    Tok::Other('=')
                }
                '!' => Tok::Bang,
                '&' => Tok::Amp,
                '|' => Tok::Pipe,
                ':' if next == Some(':') => {
                    i += 1;
                    Tok::PathSep
                }
                ':' => Tok::Colon,
                '=' if matches!(next, Some('=') | Some('>')) => {
                    i += 1;
                    Tok::Other('=')
                }
                '=' if prev_op => Tok::Other('='),
                '=' => Tok::Eq,
                ' ' | '\t' => {
                    i += 1;
                    prev_op = false;
                    continue;
                }
                other => Tok::Other(other),
            };
            prev_op = matches!(c, '+' | '-' | '*' | '/' | '%' | '^' | '&' | '|' | '<' | '>');
            out.push(T { tok, line: ln });
            i += 1;
        }
    }
    out
}

fn ident(t: Option<&T>) -> Option<&str> {
    match t.map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Method names too generic to resolve to workspace definitions: calls to
/// these are dropped rather than risking false call-graph edges into a
/// workspace function that happens to share a std method's name.
const SKIP_CALLS: &[&str] = &[
    "abs",
    "add",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dec",
    "drain",
    "else",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "extend_from_slice",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "for_each",
    "from",
    "get",
    "get_mut",
    "get_or_init",
    "get_or_insert_with",
    "hash",
    "inc",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "ne",
    "next",
    "none",
    "observe",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "parse",
    "partial_cmp",
    "pop",
    "pop_back",
    "pop_front",
    "position",
    "pow",
    "push",
    "push_back",
    "push_front",
    "read",
    "record",
    "remove",
    "retain",
    "rev",
    "saturating_add",
    "saturating_sub",
    "send",
    "set",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "sum",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_into",
    "try_lock",
    "unwrap",
    "unwrap_err",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "with_capacity",
    "wrapping_add",
    "write",
    "zip",
];

/// Keywords and control tokens that look like calls but are not.
const KEYWORDS: &[&str] = &[
    "if",
    "else",
    "while",
    "for",
    "loop",
    "match",
    "return",
    "fn",
    "let",
    "mut",
    "move",
    "ref",
    "in",
    "as",
    "use",
    "pub",
    "impl",
    "trait",
    "struct",
    "enum",
    "mod",
    "where",
    "unsafe",
    "dyn",
    "break",
    "continue",
    "crate",
    "super",
    "self",
    "Self",
    "Some",
    "None",
    "Ok",
    "Err",
    "Box",
    "Vec",
    "Arc",
    "Rc",
    "String",
    "static",
    "const",
    "type",
    "assert",
    "debug_assert",
    "matches",
    "Fn",
    "FnOnce",
    "FnMut",
];

#[derive(Debug)]
enum ScopeKind {
    Impl { ty: String, tr: Option<String> },
    Trait { idx: usize },
    Fn { idx: usize },
    Macro,
    Block,
}

/// Walk back from `from` (inclusive) collecting a dotted receiver chain,
/// skipping balanced `(..)` / `[..]` groups; returns segment idents in
/// source order (`self.a.b.lock()` from `b` → `["self", "a", "b"]`).
fn receiver_chain(toks: &[T], from: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut j = from as isize;
    loop {
        if j < 0 {
            break;
        }
        match &toks[j as usize].tok {
            Tok::RParen | Tok::RBracket => {
                // Skip the balanced group; the segment (if any) precedes it.
                let open =
                    if toks[j as usize].tok == Tok::RParen { Tok::LParen } else { Tok::LBracket };
                let close = toks[j as usize].tok.clone();
                let mut depth = 1;
                j -= 1;
                while j >= 0 && depth > 0 {
                    if toks[j as usize].tok == close {
                        depth += 1;
                    } else if toks[j as usize].tok == open {
                        depth -= 1;
                    }
                    j -= 1;
                }
            }
            Tok::Ident(s) => {
                segs.push(s.clone());
                j -= 1;
                // Continue only across `.` / `::` chains.
                if j >= 0 && matches!(toks[j as usize].tok, Tok::Dot | Tok::PathSep) {
                    j -= 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

/// Find a `let g = ..` / `g = ..` binding ident for the call at token
/// `at` on `line`. Only walks back over the receiver chain itself
/// (idents, `.`, `::`): any other token between the chain and a `=`
/// means the call is a subexpression (`if x || m.lock()..`,
/// `Arc::clone(&m.read())`) whose guard is statement-temporary, not
/// bound.
fn binding_before(toks: &[T], at: usize, line: usize) -> Option<String> {
    let mut j = at as isize - 1;
    let mut steps = 0;
    while j >= 0 && steps < 14 && toks[j as usize].line == line {
        match &toks[j as usize].tok {
            Tok::Ident(_) | Tok::Dot | Tok::PathSep => {}
            Tok::Eq => {
                // `let (g, _) = ..` / `let mut g = ..` / `g = ..`
                let mut k = j - 1;
                let mut last_ident: Option<String> = None;
                let mut first_ident: Option<String> = None;
                let mut saw_let = false;
                let mut pat_steps = 0;
                while k >= 0 && pat_steps < 12 && toks[k as usize].line == line {
                    match &toks[k as usize].tok {
                        Tok::Ident(s) if s == "let" => {
                            saw_let = true;
                            break;
                        }
                        // Wrappers and placeholders in the pattern, not
                        // bindings: `if let Some(g) = m.try_lock()`.
                        Tok::Ident(s)
                            if matches!(s.as_str(), "mut" | "Some" | "Ok" | "Err" | "_") => {}
                        Tok::Ident(s) => {
                            if last_ident.is_none() {
                                last_ident = Some(s.clone());
                            }
                            first_ident = Some(s.clone());
                        }
                        Tok::LParen | Tok::RParen | Tok::Comma | Tok::Amp => {}
                        Tok::Other('_') => {}
                        _ => break,
                    }
                    k -= 1;
                    pat_steps += 1;
                }
                // For `let (a, b) = ..` take the first pattern ident; for
                // a bare reassignment the ident just left of `=`.
                return if saw_let { first_ident } else { last_ident };
            }
            _ => return None,
        }
        j -= 1;
        steps += 1;
    }
    None
}

/// Innermost enclosing `fn` scope, if any.
fn innermost_fn(scopes: &[ScopeKind]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s {
        ScopeKind::Fn { idx } => Some(*idx),
        _ => None,
    })
}

/// Nearest `impl`/`trait` context walking outward: `(impl_ty, impl_trait,
/// trait_default)`.
fn item_ctx(scopes: &[ScopeKind], traits: &[TraitDecl]) -> (Option<String>, Option<String>, bool) {
    for s in scopes.iter().rev() {
        match s {
            ScopeKind::Impl { ty, tr } => return (Some(ty.clone()), tr.clone(), false),
            ScopeKind::Trait { idx } => {
                return (Some(traits[*idx].name.clone()), None, true);
            }
            _ => {}
        }
    }
    (None, None, false)
}

/// Field/binding name a lock construction is being assigned to: the
/// nearest preceding `ident:` (struct field), `let ident`, or
/// `static IDENT` within the same statement.
fn ctor_field(toks: &[T], at: usize) -> Option<String> {
    let mut j = at as isize - 1;
    let mut steps = 0;
    while j >= 1 && steps < 25 {
        match &toks[j as usize].tok {
            Tok::Semi | Tok::LBrace | Tok::RBrace => return None,
            Tok::Colon => {
                if let Some(name) = ident(toks.get(j as usize - 1)) {
                    return Some(name.to_string());
                }
            }
            Tok::Eq => {
                if let Some(name) = ident(toks.get(j as usize - 1)) {
                    let before = ident(toks.get(j as usize - 2));
                    if matches!(before, Some("let") | Some("mut") | Some("static")) {
                        return Some(name.to_string());
                    }
                }
            }
            _ => {}
        }
        j -= 1;
        steps += 1;
    }
    None
}

/// Parse one file into its model. `path` is repo-relative.
pub fn parse_file(path: &str, src: &str) -> FileModel {
    let lines = lex(src);
    let is_test = test_spans(&lines);
    let toks = tokenize(&lines);

    let mut fns: Vec<FnDef> = Vec::new();
    let mut ctors: Vec<LockCtor> = Vec::new();
    let mut traits: Vec<TraitDecl> = Vec::new();
    let mut metrics: Vec<MetricReg> = Vec::new();

    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut brace_depth: u32 = 0;
    let mut paren_depth: u32 = 0;
    let mut spawn_stack: Vec<u32> = Vec::new();
    // Pending `fn name` awaiting its body `{` (or a trait `;`).
    let mut pending_fn: Option<(String, usize)> = None;
    // Parameter names seen inside the pending signature's parens.
    let mut pending_params: Vec<String> = Vec::new();
    // Pending `impl`/`trait` header awaiting `{`:
    // (is_impl, idents at angle depth 0, angle depth, header line).
    let mut header: Option<(bool, Vec<String>, u32, usize)> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let line = toks[i].line;

        // ------------------------------------------------ header capture
        if header.is_some() {
            let finish = match &toks[i].tok {
                Tok::Other('<') => {
                    header.as_mut().unwrap().2 += 1;
                    false
                }
                Tok::Other('>') => {
                    let h = header.as_mut().unwrap();
                    h.2 = h.2.saturating_sub(1);
                    false
                }
                Tok::Semi => {
                    header = None;
                    false
                }
                Tok::Ident(s) => {
                    let h = header.as_mut().unwrap();
                    if h.2 == 0 {
                        h.1.push(s.clone());
                    }
                    false
                }
                Tok::LBrace => header.as_ref().is_some_and(|h| h.2 == 0),
                _ => false,
            };
            if finish {
                let (is_impl, idents, _, hline) = header.take().unwrap();
                brace_depth += 1;
                if is_impl {
                    let cut = idents.iter().position(|s| s == "where").unwrap_or(idents.len());
                    let idents = &idents[..cut];
                    let (tr, ty) = match idents.iter().position(|s| s == "for") {
                        Some(p) => (
                            idents[..p].last().cloned(),
                            idents[p + 1..].last().cloned().unwrap_or_default(),
                        ),
                        None => (None, idents.last().cloned().unwrap_or_default()),
                    };
                    scopes.push(ScopeKind::Impl { ty, tr });
                } else {
                    let name = idents.first().cloned().unwrap_or_default();
                    traits.push(TraitDecl { name, methods: Vec::new(), line: hline });
                    scopes.push(ScopeKind::Trait { idx: traits.len() - 1 });
                }
            }
            i += 1;
            continue;
        }

        match &toks[i].tok {
            Tok::LBrace => {
                brace_depth += 1;
                match pending_fn.take() {
                    Some((name, fline)) if paren_depth == 0 => {
                        let (impl_ty, impl_trait, trait_default) = item_ctx(&scopes, &traits);
                        if trait_default {
                            if let Some(ScopeKind::Trait { idx }) =
                                scopes.iter().rev().find(|s| matches!(s, ScopeKind::Trait { .. }))
                            {
                                traits[*idx].methods.push(name.clone());
                            }
                        }
                        fns.push(FnDef {
                            name,
                            impl_ty,
                            impl_trait,
                            trait_default,
                            line: fline,
                            is_test: is_test.get(fline).copied().unwrap_or(false),
                            params: std::mem::take(&mut pending_params),
                            events: Vec::new(),
                        });
                        scopes.push(ScopeKind::Fn { idx: fns.len() - 1 });
                    }
                    other => {
                        pending_fn = other;
                        scopes.push(ScopeKind::Block);
                    }
                }
            }
            Tok::RBrace => {
                brace_depth = brace_depth.saturating_sub(1);
                scopes.pop();
                if let Some(idx) = innermost_fn(&scopes) {
                    fns[idx].events.push(RawEvent::Close { depth: brace_depth });
                }
            }
            Tok::LParen => paren_depth += 1,
            Tok::RParen => {
                if spawn_stack.last() == Some(&paren_depth) {
                    spawn_stack.pop();
                }
                paren_depth = paren_depth.saturating_sub(1);
            }
            Tok::Semi if pending_fn.is_some() && paren_depth == 0 => {
                let (name, _) = pending_fn.take().unwrap();
                pending_params.clear();
                if let Some(ScopeKind::Trait { idx }) = scopes
                    .iter()
                    .rev()
                    .find(|s| matches!(s, ScopeKind::Trait { .. } | ScopeKind::Impl { .. }))
                {
                    traits[*idx].methods.push(name);
                }
            }
            Tok::Ident(w) => {
                let w = w.clone();
                match w.as_str() {
                    "fn" => {
                        if let Some(name) = ident(toks.get(i + 1)) {
                            pending_fn = Some((name.to_string(), line));
                            pending_params.clear();
                            i += 2;
                            continue;
                        }
                    }
                    "impl" | "trait"
                        if pending_fn.is_none()
                            && innermost_fn(&scopes).is_none()
                            && !scopes.iter().any(|s| matches!(s, ScopeKind::Macro))
                            && !matches!(toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                                Some(Tok::Ident(p)) if p == "dyn") =>
                    {
                        header = Some((w == "impl", Vec::new(), 0, line));
                    }
                    "macro_rules" => {
                        // `macro_rules! name { .. }` — skip arm bodies by
                        // entering a Macro scope at the opening brace.
                        let mut j = i + 1;
                        while j < toks.len() && toks[j].tok != Tok::LBrace {
                            j += 1;
                        }
                        if j < toks.len() {
                            brace_depth += 1;
                            scopes.push(ScopeKind::Macro);
                            i = j + 1;
                            continue;
                        }
                    }
                    _ => {
                        // Signature params: `name :` at paren depth >= 1
                        // while a `fn` header is pending. Generic bounds
                        // (`T: Clone`) sit at paren depth 0 and are skipped.
                        if pending_fn.is_some()
                            && paren_depth >= 1
                            && w != "self"
                            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Colon))
                        {
                            pending_params.push(w.clone());
                        }
                        let fn_idx = innermost_fn(&scopes);
                        let in_macro = scopes.iter().any(|s| matches!(s, ScopeKind::Macro));
                        collect_ident_events(
                            &toks,
                            i,
                            &w,
                            &lines,
                            &is_test,
                            &scopes,
                            brace_depth,
                            paren_depth,
                            &mut spawn_stack,
                            pending_fn.is_some(),
                            &mut fns,
                            &mut ctors,
                            &mut metrics,
                            fn_idx,
                            in_macro,
                        );
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    FileModel { path: path.to_string(), lines, is_test, fns, ctors, traits, metrics }
}

/// Event collection for one identifier token (the long tail of
/// [`parse_file`]'s walk, split out to keep the walker readable).
#[allow(clippy::too_many_arguments)]
fn collect_ident_events(
    toks: &[T],
    i: usize,
    w: &str,
    lines: &[Line],
    is_test: &[bool],
    scopes: &[ScopeKind],
    brace_depth: u32,
    paren_depth: u32,
    spawn_stack: &mut Vec<u32>,
    in_fn_sig: bool,
    fns: &mut [FnDef],
    ctors: &mut Vec<LockCtor>,
    metrics: &mut Vec<MetricReg>,
    fn_idx: Option<usize>,
    in_macro: bool,
) {
    let line = toks[i].line;
    if in_macro {
        return;
    }

    // Lock constructions are collected everywhere (non-test) — they feed
    // the class-resolution map even when outside any fn.
    if (w == "Mutex" || w == "RwLock")
        && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::PathSep))
        && ident(toks.get(i + 2)) == Some("new")
        && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::LParen))
        && !is_test.get(line).copied().unwrap_or(false)
    {
        // `( [&] rank :: CLASS`
        let mut j = i + 4;
        if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Amp)) {
            j += 1;
        }
        if ident(toks.get(j)) == Some("rank")
            && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::PathSep))
        {
            if let Some(class) = ident(toks.get(j + 2)) {
                let impl_ty = scopes.iter().rev().find_map(|s| match s {
                    ScopeKind::Impl { ty, .. } => Some(ty.clone()),
                    _ => None,
                });
                ctors.push(LockCtor {
                    field: ctor_field(toks, i),
                    class_ident: class.to_string(),
                    impl_ty,
                    line,
                });
            }
        }
        return;
    }

    // Metric registrations: `counter!(` / `gauge!(` / `histogram!(`.
    if matches!(w, "counter" | "gauge" | "histogram")
        && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Bang))
        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::LParen))
        && !is_test.get(line).copied().unwrap_or(false)
    {
        let kind = match w {
            "counter" => "counter",
            "gauge" => "gauge",
            _ => "histogram",
        };
        let name = lines
            .get(line)
            .and_then(|l| l.strings.first())
            .or_else(|| lines.get(line + 1).and_then(|l| l.strings.first()))
            .cloned();
        metrics.push(MetricReg { kind, name, line });
        return;
    }

    // Everything below needs an enclosing fn body (and not a fn signature).
    let Some(fi) = fn_idx else { return };
    if in_fn_sig || fns[fi].is_test {
        return;
    }
    let in_spawn = !spawn_stack.is_empty();
    let next_is_lparen = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::LParen));
    let next_is_macro = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Bang));
    if next_is_macro || !next_is_lparen {
        return;
    }
    let prev = toks.get(i.wrapping_sub(1)).map(|t| &t.tok);
    let is_method = i >= 2 && matches!(prev, Some(Tok::Dot));
    let qual = if i >= 2 && matches!(prev, Some(Tok::PathSep)) {
        ident(toks.get(i - 2)).map(str::to_string)
    } else {
        None
    };
    let noargs = matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::RParen));
    let ev = &mut fns[fi].events;

    match w {
        "spawn" => {
            // Closures handed to `spawn` run on another thread: nothing
            // inside them executes under the spawner's locks, so events
            // in the argument list are suppressed.
            spawn_stack.push(paren_depth + 1);
        }
        "failpoint" | "crash_point" if !in_spawn => {
            ev.push(RawEvent::Hook { line });
        }
        "lock" | "try_lock" | "read" | "write" if is_method && noargs && !in_spawn => {
            let chain = receiver_chain(toks, i - 2);
            if let Some(field) = chain.last().cloned() {
                let hint =
                    if chain.len() >= 2 { Some(chain[chain.len() - 2].clone()) } else { None };
                ev.push(RawEvent::Acquire {
                    field,
                    hint,
                    bind: binding_before(toks, i, line),
                    line,
                    depth: brace_depth,
                });
            }
        }
        "wait" | "wait_timeout" if is_method && !in_spawn => {
            let guard = ident(toks.get(i + 2))
                .filter(|_| {
                    matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Comma) | Some(Tok::RParen))
                })
                .map(str::to_string);
            ev.push(RawEvent::CvWait { guard, rebind: binding_before(toks, i, line), line });
        }
        "drop" if !is_method && !noargs && !in_spawn => {
            if let Some(name) = ident(toks.get(i + 2)) {
                if matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::RParen)) {
                    ev.push(RawEvent::DropIdent { name: name.to_string() });
                }
            }
        }
        "sleep" if qual.as_deref() == Some("thread") && !in_spawn => {
            ev.push(RawEvent::Block { what: "thread::sleep", line });
        }
        "recv" | "recv_timeout" | "recv_deadline" if is_method && !in_spawn => {
            ev.push(RawEvent::Block { what: "channel recv", line });
        }
        "join" if is_method && noargs && !in_spawn => {
            ev.push(RawEvent::Block { what: "thread join", line });
        }
        "sync_all" | "sync_data" if is_method && !in_spawn => {
            ev.push(RawEvent::Block { what: "fsync", line });
            ev.push(RawEvent::RawIo { what: "fsync", line });
        }
        "put" | "delete" | "get" if is_method && !in_spawn => {
            // Blob I/O by receiver shape: `..store.put(..)` etc. Plain
            // map/cache `.get(..)` receivers never match these tails.
            let chain = receiver_chain(toks, i - 2);
            let tail = chain.last().map(String::as_str);
            if matches!(tail, Some("store") | Some("blob") | Some("remote")) {
                ev.push(RawEvent::Block { what: "blob I/O", line });
            }
        }
        "write_all" | "set_len" if is_method && !in_spawn => {
            ev.push(RawEvent::RawIo { what: "file write", line });
        }
        "flush" if is_method && noargs && !in_spawn => {
            ev.push(RawEvent::RawIo { what: "file flush", line });
        }
        _ if !in_spawn => {
            if KEYWORDS.contains(&w) || SKIP_CALLS.contains(&w) {
                return;
            }
            let recv = if is_method {
                let chain = receiver_chain(toks, i - 2);
                match chain.last() {
                    Some(s) if s == "self" => Recv::Method(None),
                    Some(s) => Recv::Method(Some(s.clone())),
                    None => Recv::Method(None),
                }
            } else if let Some(q) = qual {
                Recv::Qual(q)
            } else if i > 0 && matches!(prev, Some(Tok::PathSep)) {
                return;
            } else {
                Recv::Bare
            };
            ev.push(RawEvent::Call { name: w.to_string(), recv, line });
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        parse_file("crates/x/src/lib.rs", src)
    }

    #[test]
    fn extracts_fns_with_impl_context() {
        let src = "impl Log {\n    pub fn sync(&self) -> Result<()> { Ok(()) }\n}\n\
                   impl ObjectStore for FaultyStore<S> {\n    fn put(&self) {}\n}\n\
                   fn free_helper() {}\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 3);
        assert_eq!(m.fns[0].name, "sync");
        assert_eq!(m.fns[0].impl_ty.as_deref(), Some("Log"));
        assert_eq!(m.fns[1].impl_trait.as_deref(), Some("ObjectStore"));
        assert_eq!(m.fns[1].impl_ty.as_deref(), Some("FaultyStore"));
        assert_eq!(m.fns[2].impl_ty, None);
    }

    #[test]
    fn extracts_multiline_lock_ctor_with_field() {
        let src = "impl Uploader {\n  fn new() -> Self {\n    Inner {\n      state: Mutex::new(\n        &rank::BLOB_UPLOADER,\n        QueueState::default(),\n      ),\n    }\n  }\n}\n";
        let m = model(src);
        assert_eq!(m.ctors.len(), 1);
        assert_eq!(m.ctors[0].field.as_deref(), Some("state"));
        assert_eq!(m.ctors[0].class_ident, "BLOB_UPLOADER");
        assert_eq!(m.ctors[0].impl_ty.as_deref(), Some("Uploader"));
    }

    #[test]
    fn acquisition_with_binding_and_receiver() {
        let src = "impl P {\n  fn f(&self) {\n    let _g = self.commit_lock.lock();\n    self.tables.read();\n  }\n}\n";
        let m = model(src);
        let evs = &m.fns[0].events;
        match &evs[0] {
            RawEvent::Acquire { field, bind, .. } => {
                assert_eq!(field, "commit_lock");
                assert_eq!(bind.as_deref(), Some("_g"));
            }
            other => panic!("expected acquire, got {other:?}"),
        }
        match &evs[1] {
            RawEvent::Acquire { field, bind, .. } => {
                assert_eq!(field, "tables");
                assert!(bind.is_none());
            }
            other => panic!("expected acquire, got {other:?}"),
        }
    }

    #[test]
    fn spawn_closures_are_suppressed() {
        let src = "fn f(&self) {\n  let _g = self.state.lock();\n  std::thread::spawn(move || {\n    std::thread::sleep(d);\n    other.lock();\n  });\n  helper();\n}\n";
        let m = model(src);
        let evs = &m.fns[0].events;
        assert!(
            !evs.iter().any(|e| matches!(e, RawEvent::Block { .. })),
            "spawned sleep leaked: {evs:?}"
        );
        assert!(evs.iter().any(|e| matches!(e, RawEvent::Call { name, .. } if name == "helper")));
        // Only the pre-spawn acquire survives.
        let acquires = evs.iter().filter(|e| matches!(e, RawEvent::Acquire { .. })).count();
        assert_eq!(acquires, 1, "{evs:?}");
    }

    #[test]
    fn trait_methods_and_defaults() {
        let src = "pub trait ObjectStore: Send {\n  fn put(&self) -> Result<()>;\n  fn get(&self) -> Result<()>;\n  fn exists(&self) -> bool { true }\n}\n";
        let m = model(src);
        assert_eq!(m.traits.len(), 1);
        assert_eq!(m.traits[0].methods, vec!["put", "get", "exists"]);
        assert_eq!(m.fns.len(), 1);
        assert!(m.fns[0].trait_default);
    }

    #[test]
    fn cv_wait_consumes_and_rebinds_guard() {
        let src = "fn f() {\n  let mut g = self.state.lock();\n  let (g2, timed) = self.cv.wait_timeout(g, d);\n}\n";
        let m = model(src);
        let evs = &m.fns[0].events;
        match &evs[1] {
            RawEvent::CvWait { guard, rebind, .. } => {
                assert_eq!(guard.as_deref(), Some("g"));
                assert_eq!(rebind.as_deref(), Some("g2"));
            }
            other => panic!("expected cv wait, got {other:?}"),
        }
    }

    #[test]
    fn metric_macros_collected_outside_tests_only() {
        let src = "fn f() { s2_obs::counter!(\"a.b\").inc(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { s2_obs::gauge!(\"t.x\").set(1); }\n}\n";
        let m = model(src);
        assert_eq!(m.metrics.len(), 1);
        assert_eq!(m.metrics[0].name.as_deref(), Some("a.b"));
        assert_eq!(m.metrics[0].kind, "counter");
    }
}
