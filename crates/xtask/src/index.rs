//! Layer 1½ of the simlint engine: the per-file item index.
//!
//! One pass over the token stream produces, per file: every `fn` (with its
//! owning `impl`/`trait` type, visibility, doc status, test status), every
//! type definition, the `use` graph, and — per function — the outgoing
//! call/reference edges and the determinism *sinks* (wall-clock, entropy,
//! hash-iteration, float ops) the function touches directly. The workspace
//! call graph (`graph`) and the reachability-scoped rules (`rules`) are
//! built entirely from these indexes.
//!
//! The index is a deliberate approximation: calls and references are
//! name-based (no type resolution), so `x.step()` records an edge to every
//! workspace function named `step`. That over-approximation is the right
//! polarity for a lint — it can produce a conservative path, never miss one
//! through a resolved call.

use crate::lexer::{Lexed, Tok, TokKind};

/// Determinism sink classes tracked per function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkClass {
    /// Wall-clock reads: `Instant`, `SystemTime`, the `std::time` path.
    Clock,
    /// Entropy sources: `thread_rng`, `from_entropy`.
    Entropy,
    /// Hasher-randomized collections: `HashMap`, `HashSet`.
    HashIter,
    /// Floating point: `f32`/`f64` tokens and float literals.
    Float,
}

/// One determinism sink inside a function body or signature.
#[derive(Debug)]
pub struct Sink {
    /// What kind of nondeterminism this token introduces.
    pub class: SinkClass,
    /// 0-based source line.
    pub line: usize,
    /// The offending token text (`Instant`, `f64`, `2.5`, ...).
    pub what: String,
}

/// One indexed function.
#[derive(Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// True for exactly-`pub` functions (`pub(crate)` is not pub here,
    /// matching the missing-docs rule's scope).
    pub is_pub: bool,
    /// True when a doc comment or `#[doc]` attribute precedes the item.
    pub has_doc: bool,
    /// True when the file is test support or the fn sits inside a
    /// `#[cfg(test)]`-gated item.
    pub in_test: bool,
    /// Names invoked with call syntax (`foo(...)`, `.foo(...)`).
    pub calls: Vec<String>,
    /// Bare identifier references (potential fn-pointer mentions).
    pub refs: Vec<String>,
    /// Determinism sinks touched directly by this function.
    pub sinks: Vec<Sink>,
}

impl FnInfo {
    /// `Owner::name` or bare `name`, for diagnostics.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `struct`/`enum`/`union` definition.
#[derive(Debug)]
pub struct TypeDef {
    /// Type name.
    pub name: String,
    /// 0-based line of the defining keyword.
    pub line: usize,
}

/// The full index of one source file.
#[derive(Debug)]
pub struct FileIndex {
    /// Short crate name (directory under `crates/`).
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel_path: String,
    /// Whole-file test status (tests/, benches/, the tests package).
    pub is_test: bool,
    /// Every function, in source order.
    pub fns: Vec<FnInfo>,
    /// Every type definition, in source order.
    pub types: Vec<TypeDef>,
    /// `use` paths (token texts joined), for the cross-file use graph.
    pub uses: Vec<String>,
    /// Identifiers referenced in top-level (non-fn) item bodies — static
    /// fn-pointer tables like `static EXPERIMENTS: [Experiment; N]`. These
    /// seed dynamic-dispatch roots in the call graph.
    pub top_refs: Vec<String>,
    /// 0-based inclusive line ranges of `#[cfg(test)]`-gated items.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileIndex {
    /// True when 0-based `line` is inside test code.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.is_test || self.test_ranges.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Rust keywords (plus reserved words) excluded from call/ref edges.
const KEYWORDS: [&str; 40] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Skips an attribute starting at the `#` token; returns the index past the
/// closing `]`. Attribute contents never produce edges or sinks.
fn skip_attr(toks: &[Tok], mut i: usize) -> usize {
    debug_assert_eq!(text(toks, i), "#");
    i += 1;
    if text(toks, i) == "!" {
        i += 1;
    }
    if text(toks, i) != "[" {
        return i;
    }
    let mut depth = 0usize;
    while i < toks.len() {
        match text(toks, i) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Finds every `#[cfg(test)]`-gated item and returns its 0-based inclusive
/// line range (attribute line through the item's closing brace/semicolon).
fn cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k + 6 < toks.len() {
        let is_cfg_test = text(toks, k) == "#"
            && text(toks, k + 1) == "["
            && text(toks, k + 2) == "cfg"
            && text(toks, k + 3) == "("
            && text(toks, k + 4) == "test"
            && text(toks, k + 5) == ")"
            && text(toks, k + 6) == "]";
        if !is_cfg_test {
            k += 1;
            continue;
        }
        let start_line = toks[k].line;
        let mut m = k + 7;
        // Skip any further attributes between the cfg and the item.
        while text(toks, m) == "#" {
            m = skip_attr(toks, m);
        }
        let mut depth = 0usize;
        let mut entered = false;
        let mut end_line = start_line;
        while m < toks.len() {
            match text(toks, m) {
                "{" => {
                    depth += 1;
                    entered = true;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        end_line = toks[m].line;
                        break;
                    }
                }
                ";" if !entered && depth == 0 => {
                    end_line = toks[m].line;
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        out.push((start_line, end_line));
        k += 7;
    }
    out
}

/// The out-of-line modules (`mod name;`) a file declares, each with
/// whether a `#[cfg(test)]` gate covers the declaration.
pub fn mod_decls(toks: &[Tok]) -> Vec<(String, bool)> {
    let test_ranges = cfg_test_ranges(toks);
    let mut out = Vec::new();
    for k in 0..toks.len().saturating_sub(2) {
        if text(toks, k) == "mod" && toks[k + 1].kind == TokKind::Ident && text(toks, k + 2) == ";"
        {
            let line = toks[k].line;
            let gated = test_ranges.iter().any(|&(a, b)| line >= a && line <= b);
            out.push((toks[k + 1].text.clone(), gated));
        }
    }
    out
}

/// Looks upward from the raw line above `ln` for a doc comment, skipping
/// attributes and plain `//` comments (e.g. simlint suppressions).
pub fn has_doc_above(raw_lines: &[&str], ln: usize) -> bool {
    let mut i = ln;
    while i > 0 {
        i -= 1;
        let t = raw_lines.get(i).map(|l| l.trim()).unwrap_or("");
        if t.starts_with("///") || t.starts_with("//!") || t.starts_with("#[doc") {
            return true;
        }
        if t.starts_with("#[") || t.starts_with("#![") || t.starts_with("//") {
            continue;
        }
        if t.ends_with("*/") {
            // Tail of a block comment; accept only doc-block (`/**`) heads.
            while i > 0 && !raw_lines[i].trim_start().starts_with("/*") {
                i -= 1;
            }
            if raw_lines[i].trim_start().starts_with("/**") {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

#[derive(Debug)]
enum CtxKind {
    /// An `impl` block's subject type or a trait's name.
    Owner(String),
    Fn(usize),
    Other,
}

#[derive(Debug)]
struct Ctx {
    kind: CtxKind,
    entry_depth: usize,
}

/// A `let` binding that shadows same-named fns: in fn `fi`, after the
/// `;` ending its statement (token `live_from`) until the block at
/// `depth` closes.
#[derive(Debug)]
struct Binding {
    name: String,
    fi: usize,
    depth: usize,
    live_from: usize,
}

/// Checks one identifier (at `i`) for sink-hood and records it on `f`.
fn sink_check(toks: &[Tok], i: usize, f: &mut FnInfo) {
    let t = &toks[i];
    let class = match t.text.as_str() {
        "Instant" | "SystemTime" => Some(SinkClass::Clock),
        "std" if text(toks, i + 1) == "::" && text(toks, i + 2) == "time" => Some(SinkClass::Clock),
        "thread_rng" | "from_entropy" => Some(SinkClass::Entropy),
        "HashMap" | "HashSet" => Some(SinkClass::HashIter),
        "f32" | "f64" => Some(SinkClass::Float),
        _ => None,
    };
    if let Some(class) = class {
        let what = if t.text == "std" { "std::time".to_string() } else { t.text.clone() };
        f.sinks.push(Sink { class, line: t.line, what });
    }
}

/// Builds the [`FileIndex`] for one lexed file.
pub fn index_file(
    crate_name: &str,
    rel_path: &str,
    is_test: bool,
    source: &str,
    lx: &Lexed,
) -> FileIndex {
    let toks = &lx.toks;
    let raw_lines: Vec<&str> = source.lines().collect();
    let test_ranges = cfg_test_ranges(toks);

    let mut idx = FileIndex {
        crate_name: crate_name.to_string(),
        rel_path: rel_path.to_string(),
        is_test,
        fns: Vec::new(),
        types: Vec::new(),
        uses: Vec::new(),
        top_refs: Vec::new(),
        test_ranges,
    };

    let mut stack: Vec<Ctx> = Vec::new();
    let mut bindings: Vec<Binding> = Vec::new();
    let mut pending: Option<CtxKind> = None;
    let mut depth = 0usize;
    let mut i = 0usize;

    let cur_fn = |stack: &[Ctx]| -> Option<usize> {
        stack.iter().rev().find_map(|c| match c.kind {
            CtxKind::Fn(fi) => Some(fi),
            _ => None,
        })
    };
    let owner = |stack: &[Ctx]| -> Option<String> {
        stack.iter().rev().find_map(|c| match &c.kind {
            CtxKind::Owner(subject) => Some(subject.clone()),
            _ => None,
        })
    };

    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                stack.push(Ctx {
                    kind: pending.take().unwrap_or(CtxKind::Other),
                    entry_depth: depth,
                });
                i += 1;
            }
            (TokKind::Punct, "}") => {
                if stack.last().map(|c| c.entry_depth) == Some(depth) {
                    stack.pop();
                }
                bindings.retain(|b| b.depth < depth);
                depth = depth.saturating_sub(1);
                i += 1;
            }
            (TokKind::Punct, "#") => i = skip_attr(toks, i),
            (TokKind::Ident, "use") => {
                // Consume the whole use item so its path segments never
                // become references; `use a::{b, c};` nests braces.
                let start = i + 1;
                let mut brace = 0usize;
                i += 1;
                while i < toks.len() {
                    match text(toks, i) {
                        "{" => brace += 1,
                        "}" => brace = brace.saturating_sub(1),
                        ";" if brace == 0 => break,
                        _ => {}
                    }
                    i += 1;
                }
                if cur_fn(&stack).is_none() {
                    let path: String =
                        toks[start..i.min(toks.len())].iter().map(|t| t.text.as_str()).collect();
                    idx.uses.push(path);
                }
                i += 1; // past the `;`
            }
            (TokKind::Ident, "impl") => {
                // Header: `impl<G> Trait for Type where ... {` — the subject
                // type is the last angle-depth-0 path segment (after `for`
                // when present). Header tokens produce no edges.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut name = String::new();
                while j < toks.len() {
                    let w = text(toks, j);
                    match w {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "{" | "where" if angle <= 0 => break,
                        _ => {
                            if angle <= 0 && toks[j].kind == TokKind::Ident && !is_keyword(w) {
                                name = w.to_string();
                            }
                        }
                    }
                    j += 1;
                }
                while j < toks.len() && text(toks, j) != "{" {
                    j += 1;
                }
                pending = Some(CtxKind::Owner(name));
                i = j;
            }
            (TokKind::Ident, "trait") => {
                let name = if toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) {
                    text(toks, i + 1).to_string()
                } else {
                    String::new()
                };
                let mut j = i + 2;
                while j < toks.len() && text(toks, j) != "{" && text(toks, j) != ";" {
                    j += 1;
                }
                if text(toks, j) == "{" {
                    pending = Some(CtxKind::Owner(name));
                    i = j;
                } else {
                    i = j + 1;
                }
            }
            (TokKind::Ident, "struct" | "enum" | "union") => {
                if let Some(n) = toks.get(i + 1) {
                    if n.kind == TokKind::Ident {
                        idx.types.push(TypeDef { name: n.text.clone(), line: t.line });
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
            (TokKind::Ident, "fn") => {
                // `fn` can also appear as a fn-pointer *type* (`run: fn(&P)`).
                let name_tok = match toks.get(i + 1) {
                    Some(n) if n.kind == TokKind::Ident => n,
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let line = t.line;
                let is_pub = i > 0 && text(toks, i - 1) == "pub";
                let fi = idx.fns.len();
                idx.fns.push(FnInfo {
                    name: name_tok.text.clone(),
                    owner: owner(&stack),
                    line,
                    is_pub,
                    has_doc: has_doc_above(&raw_lines, line),
                    in_test: is_test
                        || idx.test_ranges.iter().any(|&(a, b)| line >= a && line <= b),
                    calls: Vec::new(),
                    refs: Vec::new(),
                    sinks: Vec::new(),
                });
                // Signature scan: sinks only (e.g. `-> f64`), no edges. A
                // `;` at bracket depth 0 ends a bodyless declaration; `[`
                // tracking keeps `[u8; 4]` array types from ending it early.
                let mut j = i + 2;
                let mut open = 0i32;
                let mut body = false;
                while j < toks.len() {
                    match (toks[j].kind, text(toks, j)) {
                        (TokKind::Punct, "(") | (TokKind::Punct, "[") => open += 1,
                        (TokKind::Punct, ")") | (TokKind::Punct, "]") => open -= 1,
                        (TokKind::Punct, "{") if open <= 0 => {
                            body = true;
                            break;
                        }
                        (TokKind::Punct, ";") if open <= 0 => break,
                        (TokKind::Punct, "#") => {
                            j = skip_attr(toks, j);
                            continue;
                        }
                        (TokKind::Ident, _) => sink_check(toks, j, &mut idx.fns[fi]),
                        (TokKind::Float, _) => {
                            let w = toks[j].text.clone();
                            let l = toks[j].line;
                            idx.fns[fi].sinks.push(Sink {
                                class: SinkClass::Float,
                                line: l,
                                what: w,
                            });
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if body {
                    pending = Some(CtxKind::Fn(fi));
                    i = j; // the `{` — handled by the loop head
                } else {
                    i = (j + 1).min(toks.len());
                }
            }
            (TokKind::Ident, "mod") => {
                // Skip the module name so `mod horizon;` doesn't reference
                // a fn named `horizon`.
                i += 1;
                if toks.get(i).map(|t| t.kind) == Some(TokKind::Ident) {
                    i += 1;
                }
            }
            (TokKind::Ident, "let") => {
                // Skip the binding identifier so `let run = ...` doesn't
                // reference a fn named `run`. A `let [mut] run` statement
                // also shadows fn `run` for the rest of its block, so it
                // is recorded; `if let` / `while let` patterns are not,
                // which only keeps edges (an over-approximation).
                let statement = i == 0 || matches!(text(toks, i - 1), ";" | "{" | "}" | "]");
                i += 1;
                if text(toks, i) == "mut" {
                    i += 1;
                }
                if toks.get(i).map(|t| t.kind) == Some(TokKind::Ident) {
                    if let (true, Some(fi), "=" | ":" | ";") =
                        (statement, cur_fn(&stack), text(toks, i + 1))
                    {
                        // The statement's `;` is the first one outside any
                        // bracket (`[u8; 4]`, a block initializer).
                        let mut end = i + 1;
                        let mut nest = 0i32;
                        while end < toks.len() {
                            match text(toks, end) {
                                "(" | "[" | "{" => nest += 1,
                                ")" | "]" | "}" => nest -= 1,
                                ";" if nest <= 0 => break,
                                _ => {}
                            }
                            end += 1;
                        }
                        bindings.push(Binding {
                            name: toks[i].text.clone(),
                            fi,
                            depth,
                            live_from: end,
                        });
                    }
                    i += 1;
                }
            }
            (TokKind::Ident, w) => {
                let fnctx = cur_fn(&stack);
                if let Some(fi) = fnctx {
                    sink_check(toks, i, &mut idx.fns[fi]);
                }
                if is_keyword(w) {
                    i += 1;
                    continue;
                }
                // Qualified call `Owner::name(...)`: record one
                // owner-resolved edge instead of a bare `name` edge that
                // would fan out to every same-named fn in the workspace
                // (`RunCtx::new` must not taint every `new`).
                if text(toks, i + 1) == "::"
                    && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident)
                    && !is_keyword(text(toks, i + 2))
                    && text(toks, i + 3) == "("
                {
                    let callee = format!("{w}::{}", text(toks, i + 2));
                    match fnctx {
                        Some(fi) => idx.fns[fi].calls.push(callee),
                        None => idx.top_refs.push(callee),
                    }
                    i += 3;
                    continue;
                }
                match text(toks, i + 1) {
                    "(" => match fnctx {
                        Some(fi) => idx.fns[fi].calls.push(w.to_string()),
                        None => idx.top_refs.push(w.to_string()),
                    },
                    "!" => {} // macro name, not a call
                    ":" => {} // field name / type ascription (`::` is one token)
                    _ => match fnctx {
                        // A bare use of a live `let` binding is the local.
                        Some(fi)
                            if bindings
                                .iter()
                                .any(|b| i > b.live_from && b.fi == fi && b.name == w) => {}
                        Some(fi) => idx.fns[fi].refs.push(w.to_string()),
                        None => idx.top_refs.push(w.to_string()),
                    },
                }
                i += 1;
            }
            (TokKind::Float, w) => {
                if let Some(fi) = cur_fn(&stack) {
                    idx.fns[fi].sinks.push(Sink {
                        class: SinkClass::Float,
                        line: t.line,
                        what: w.to_string(),
                    });
                }
                i += 1;
            }
            _ => i += 1,
        }
    }

    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> FileIndex {
        index_file("soc", "crates/soc/src/x.rs", false, src, &lex(src))
    }

    #[test]
    fn fns_get_owner_visibility_and_docs() {
        let src = "pub struct System;\n\
                   impl System {\n\
                       /// Documented.\n\
                       pub fn advance(&mut self, until: u64) { self.step(); }\n\
                       pub(crate) fn step(&mut self) {}\n\
                   }\n\
                   fn free() {}\n";
        let idx = index(src);
        assert_eq!(idx.types.len(), 1);
        assert_eq!(idx.types[0].name, "System");
        let names: Vec<(&str, Option<&str>)> =
            idx.fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        assert_eq!(names, [("advance", Some("System")), ("step", Some("System")), ("free", None)]);
        assert!(idx.fns[0].is_pub && idx.fns[0].has_doc);
        assert!(!idx.fns[1].is_pub, "pub(crate) is not pub");
        assert_eq!(idx.fns[0].calls, ["step"]);
    }

    #[test]
    fn impl_trait_for_type_attributes_to_the_type() {
        let src = "impl fmt::Display for Diagnostic {\n    fn fmt(&self) {}\n}\n\
                   impl<T> Stamp for Generic<T> where T: Copy {\n    fn stamp(&mut self) {}\n}\n\
                   trait Stamp {\n    fn stamp(&mut self) {}\n}\n";
        let idx = index(src);
        let owners: Vec<Option<&str>> = idx.fns.iter().map(|f| f.owner.as_deref()).collect();
        // The subject after `for` owns the fns, not the trait before it; a
        // trait's own default methods belong to the trait.
        assert_eq!(owners, [Some("Diagnostic"), Some("Generic"), Some("Stamp")]);
    }

    #[test]
    fn sinks_are_recorded_in_bodies_and_signatures() {
        let src = "fn report(&self) -> f64 {\n\
                       let t = Instant::now();\n\
                       let m: HashMap<u8, u8> = HashMap::new();\n\
                       let _ = thread_rng();\n\
                       m.len() as f64 * 0.5\n\
                   }\n";
        let idx = index(src);
        let f = &idx.fns[0];
        let classes: Vec<SinkClass> = f.sinks.iter().map(|s| s.class).collect();
        assert!(classes.contains(&SinkClass::Clock));
        assert!(classes.contains(&SinkClass::Entropy));
        assert!(classes.contains(&SinkClass::HashIter));
        // `-> f64` in the signature, plus the cast and the literal.
        assert!(f.sinks.iter().filter(|s| s.class == SinkClass::Float).count() >= 3);
        assert_eq!(f.sinks.iter().find(|s| s.class == SinkClass::Clock).unwrap().line, 1);
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { let _ = Instant::now(); }\n\
                   }\n";
        let idx = index(src);
        assert!(!idx.fns[0].in_test);
        assert!(idx.fns[1].in_test);
        assert_eq!(idx.test_ranges, [(1, 4)]);
    }

    #[test]
    fn top_level_statics_seed_top_refs_but_uses_do_not() {
        let src = "use crate::table03_render;\n\
                   pub static TABLE: [Experiment; 1] =\n\
                       [Experiment { name: \"t\", run: table03_run }];\n";
        let idx = index(src);
        assert!(idx.top_refs.contains(&"table03_run".to_string()), "{:?}", idx.top_refs);
        assert!(!idx.top_refs.contains(&"table03_render".to_string()), "{:?}", idx.top_refs);
        assert!(!idx.top_refs.contains(&"run".to_string()), "field names excluded");
        assert_eq!(idx.uses, ["crate::table03_render"]);
    }

    #[test]
    fn method_calls_macros_and_lets_classify_correctly() {
        let src = "fn f(&mut self) {\n\
                       self.mc.next_event(3);\n\
                       assert!(ready);\n\
                       let sample = 4;\n\
                       helper(sample);\n\
                   }\n";
        let idx = index(src);
        let f = &idx.fns[0];
        assert!(f.calls.contains(&"next_event".to_string()));
        assert!(f.calls.contains(&"helper".to_string()));
        assert!(!f.calls.contains(&"assert".to_string()), "macros are not calls");
        // `let sample` binds; the later bare `sample` is that local, not
        // a ref to a fn named `sample`.
        assert!(!f.refs.contains(&"sample".to_string()));
        assert!(f.refs.contains(&"ready".to_string()), "macro arguments still produce refs");
    }

    #[test]
    fn let_bindings_hide_same_named_fns_only_while_live() {
        let src = "fn f() {\n\
                       let a = run;\n\
                       {\n\
                           let run: [fn(); 1] = [run; 1];\n\
                           let b = run;\n\
                       }\n\
                       let c = run;\n\
                   }\n\
                   fn outer() -> u64 {\n\
                       let run = 1;\n\
                       fn inner() -> u64 { run }\n\
                       run\n\
                   }\n";
        let idx = index(src);
        let runs = |f: &FnInfo| f.refs.iter().filter(|r| *r == "run").count();
        // Before the binding, in its own initializer and after its block
        // closes, `run` is the fn; only the use inside the block is not.
        assert_eq!(runs(&idx.fns[0]), 3, "{:?}", idx.fns[0].refs);
        assert_eq!(runs(&idx.fns[1]), 0, "outer's local hides the fn");
        assert_eq!(runs(&idx.fns[2]), 1, "a nested fn cannot see outer's local");
    }

    #[test]
    fn bodyless_trait_fns_and_fn_pointer_types_do_not_confuse_the_parser() {
        let src = "trait Workload {\n\
                       fn next_op(&mut self, now: u64) -> Option<Op>;\n\
                   }\n\
                   pub struct Experiment {\n\
                       pub run: fn(&Params) -> u64,\n\
                   }\n\
                   fn after() { work(); }\n";
        let idx = index(src);
        assert_eq!(idx.fns[0].name, "next_op");
        assert_eq!(idx.fns[0].owner.as_deref(), Some("Workload"));
        assert!(idx.fns[0].calls.is_empty());
        assert_eq!(idx.fns[1].name, "after");
        assert_eq!(idx.fns[1].calls, ["work"]);
    }
}
