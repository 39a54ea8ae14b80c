//! The simlint rule engine: the per-file token pass, the workspace
//! reachability pass, and suppression bookkeeping.
//!
//! Scoping model (see `docs/LINTS.md`):
//!
//! * **File-scoped** rules decide from one file's tokens and index alone
//!   (`hash-map`, `nondet`, `float-math`, `unwrap`, `missing-docs`,
//!   `thread`, `fault-rng`, `horizon`).
//! * **Reachability-scoped** rules need the workspace call graph
//!   (`taint-*`, `horizon-contract`).
//! * **Hygiene** rules police the lint machinery itself (`suppression`,
//!   `unused-suppression`).

use crate::graph::{Graph, NodeId};
use crate::index::{FileIndex, SinkClass};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::{
    Diagnostic, FileSpec, ALL_RULES, CROSS_RULES, RULE_FAULT_RNG, RULE_FLOAT_MATH, RULE_HASH_MAP,
    RULE_HORIZON, RULE_HORIZON_CONTRACT, RULE_MISSING_DOCS, RULE_NONDET, RULE_SUPPRESSION,
    RULE_TAINT_CLOCK, RULE_TAINT_ENTROPY, RULE_TAINT_FLOAT, RULE_TAINT_HASH_ITER, RULE_THREAD,
    RULE_UNUSED_SUPPRESSION, RULE_UNWRAP,
};

/// Crates whose simulation state must iterate deterministically.
pub const SIM_CRATES: [&str; 6] = ["simkit", "core", "cache", "cpu", "dram", "soc"];
/// Crates exempt from the nondeterminism rule: `sim_throughput` in the
/// bench crate times the host and genuinely needs `Instant`, and this
/// linter names the banned tokens.
const NONDET_EXEMPT_CRATES: [&str; 2] = ["bench", "xtask"];
/// `pabst-core` files forming the integer regulation datapath.
const FLOAT_FREE_FILES: [&str; 3] = ["pacer.rs", "arbiter.rs", "qos.rs"];
/// `pabst-simkit` files under the same no-float rule: trace records must
/// round-trip bit-exactly and identically on every platform, through the
/// serializer and the line cursor its parser shares with fault plans.
const FLOAT_FREE_SIMKIT_FILES: [&str; 2] = ["trace.rs", "jsonl.rs"];
/// Crates where `.unwrap()`/`.expect()` are banned outside tests.
const PANIC_FREE_CRATES: [&str; 2] = ["core", "simkit"];
/// The one file allowed to touch `std::thread`: the sweep executor whose
/// submission-order merge makes parallelism deterministic.
const THREAD_EXEMPT_FILES: [&str; 1] = ["crates/bench/src/harness.rs"];
/// Crates whose non-test code may not draw from an RNG directly.
const RNG_CONFINED_CRATES: [&str; 5] = ["core", "cache", "cpu", "dram", "soc"];

/// A parsed, valid `simlint: allow(...)` suppression.
#[derive(Debug)]
pub struct Suppression {
    /// Canonical rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// 0-based line of the comment itself (where hygiene diags anchor).
    pub comment_line: usize,
    /// 0-based inclusive line range the suppression covers.
    pub first_line: usize,
    /// See [`Suppression::first_line`].
    pub last_line: usize,
    /// True once the suppression has silenced at least one diagnostic.
    pub used: bool,
}

/// The per-file result of the token pass: diagnostics (already
/// suppression-filtered) plus the suppression table with usage marks.
#[derive(Debug, Default)]
pub struct FilePass {
    /// Diagnostics from file-scoped rules (cross-pass diags are appended
    /// by [`cross_pass`]).
    pub diags: Vec<Diagnostic>,
    /// Valid suppressions, with usage from the file pass.
    pub sups: Vec<Suppression>,
}

impl FilePass {
    /// Suppression-aware, per-`(line, rule)`-deduplicated diagnostic push.
    /// Returns nothing; a suppressed hit marks the suppression used.
    fn push(&mut self, file: &str, line0: usize, rule: &'static str, message: String) {
        if let Some(s) = self
            .sups
            .iter_mut()
            .find(|s| s.rule == rule && line0 >= s.first_line && line0 <= s.last_line)
        {
            s.used = true;
            return;
        }
        if self.diags.iter().any(|d| d.rule == rule && d.line == line0 + 1) {
            return;
        }
        self.diags.push(Diagnostic { file: file.to_string(), line: line0 + 1, rule, message });
    }
}

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// 0-based line where the item starting at token `k` ends: the brace
/// matching its first `{`, or its terminating `;`, or its own line.
fn item_end_line(toks: &[Tok], k: usize) -> usize {
    let mut depth = 0usize;
    let mut entered = false;
    let mut m = k;
    while m < toks.len() {
        match text(toks, m) {
            "{" => {
                depth += 1;
                entered = true;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if entered && depth == 0 {
                    return toks[m].line;
                }
            }
            ";" if !entered && depth == 0 => return toks[m].line,
            _ => {}
        }
        m += 1;
    }
    toks.get(k).map(|t| t.line).unwrap_or(0)
}

/// Parses `simlint: allow(rule): justification` comments into suppressions.
/// Malformed suppressions are reported as `suppression` diagnostics.
fn suppressions(spec: &FileSpec<'_>, lx: &Lexed) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut diags = Vec::new();
    for c in &lx.comments {
        // Doc comments describe the convention; only plain comments enact it.
        if ["///", "//!", "/**", "/*!"].iter().any(|p| c.text.starts_with(p)) {
            continue;
        }
        let Some(tag) = c.text.find("simlint:") else { continue };
        let rest = c.text[tag + "simlint:".len()..].trim_start();
        let diag = |msg: String| Diagnostic {
            file: spec.rel_path.to_string(),
            line: c.line + 1,
            rule: RULE_SUPPRESSION,
            message: msg,
        };
        let Some(inner) = rest.strip_prefix("allow(") else {
            diags.push(diag("malformed simlint comment: expected `allow(<rule>)`".into()));
            continue;
        };
        let Some(close) = inner.find(')') else {
            diags.push(diag("malformed simlint comment: unclosed `allow(`".into()));
            continue;
        };
        let rule_name = inner[..close].trim();
        let Some(rule) = crate::rule_id(rule_name).filter(|r| ALL_RULES.contains(r)) else {
            diags.push(diag(format!(
                "unknown rule `{rule_name}` in allow(...); known rules: {}",
                ALL_RULES.join(", ")
            )));
            continue;
        };
        let justification = inner[close + 1..].trim_start().strip_prefix(':').map(str::trim);
        match justification {
            Some(j) if !j.is_empty() => {}
            _ => {
                diags.push(diag(format!(
                    "allow({rule}) needs a justification: `// simlint: allow({rule}): <why>`"
                )));
                continue;
            }
        }
        let (first_line, last_line) = if c.trailing {
            (c.line, c.line)
        } else {
            // Stand-alone comment: cover the item that follows. The first
            // token on a later line starts that item (comment-only and
            // blank lines have no tokens).
            match lx.toks.iter().position(|t| t.line > c.line) {
                Some(k) => (lx.toks[k].line, item_end_line(&lx.toks, k)),
                None => {
                    diags.push(diag(format!("allow({rule}) does not precede any code")));
                    continue;
                }
            }
        };
        sups.push(Suppression { rule, comment_line: c.line, first_line, last_line, used: false });
    }
    (sups, diags)
}

/// True when the file hosts part of the audited event-horizon machinery —
/// it defines a non-test `advance`, `horizon`, `sample_n`, or `next_*`
/// function. Such files drive the clock, declare wake-ups, or provide the
/// batch-accrual primitives, so per-cycle state in them is by design. This
/// structural check replaces the old hardcoded `HORIZON_AUDITED_FILES`
/// allowlist: adding a component's `next_event` is what exempts its file.
fn horizon_exempt(idx: &FileIndex) -> bool {
    idx.fns.iter().any(|f| {
        !f.in_test
            && (f.name == "advance"
                || f.name == "horizon"
                || f.name == "sample_n"
                || f.name.starts_with("next_"))
    })
}

/// Runs every file-scoped rule over one file.
pub fn file_pass(spec: &FileSpec<'_>, lx: &Lexed, idx: &FileIndex) -> FilePass {
    let (sups, sup_diags) = suppressions(spec, lx);
    let mut pass = FilePass { diags: sup_diags, sups };

    let in_sim_crate = SIM_CRATES.contains(&spec.crate_name);
    let nondet_applies = !NONDET_EXEMPT_CRATES.contains(&spec.crate_name);
    let file_name = std::path::Path::new(spec.rel_path)
        .file_name()
        .and_then(|f| f.to_str())
        .unwrap_or(spec.rel_path);
    let float_free = (spec.crate_name == "core" && FLOAT_FREE_FILES.contains(&file_name)
        || spec.crate_name == "simkit" && FLOAT_FREE_SIMKIT_FILES.contains(&file_name))
        && spec.rel_path.contains("src");
    let float_scope = if spec.crate_name == "simkit" {
        "the trace serializer; records must round-trip bit-exactly"
    } else {
        "the regulation datapath; credits/strides/deadlines are \
         integer state machines (paper §II-C)"
    };
    let panic_free = PANIC_FREE_CRATES.contains(&spec.crate_name);
    let wants_docs = spec.crate_name == "core";
    let thread_applies = !THREAD_EXEMPT_FILES.contains(&spec.rel_path);
    let rng_confined = RNG_CONFINED_CRATES.contains(&spec.crate_name);
    let horizon_applies = in_sim_crate && !horizon_exempt(idx);

    let toks = &lx.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        let ln = t.line;
        let in_test = spec.is_test || idx.line_in_test(ln);
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, w @ ("HashMap" | "HashSet")) if in_sim_crate && !in_test => {
                pass.push(
                    spec.rel_path,
                    ln,
                    RULE_HASH_MAP,
                    format!(
                        "{w} in a simulation crate: iteration order is \
                         hasher-randomized; use BTreeMap/BTreeSet or an \
                         index-keyed Vec"
                    ),
                );
            }
            (TokKind::Ident, w @ ("thread_rng" | "from_entropy" | "Instant" | "SystemTime"))
                if nondet_applies =>
            {
                pass.push(
                    spec.rel_path,
                    ln,
                    RULE_NONDET,
                    format!(
                        "{w} is a nondeterminism source; simulations must \
                         be seeded and clocked by the model, not the host"
                    ),
                );
            }
            (TokKind::Ident, "std") if text(toks, i + 1) == "::" => {
                // Path-based bans: `std::time` (nondet), `std::thread`.
                if nondet_applies && text(toks, i + 2) == "time" {
                    pass.push(
                        spec.rel_path,
                        ln,
                        RULE_NONDET,
                        "std::time reads host wall-clock state; use simkit cycles".into(),
                    );
                }
                if thread_applies && text(toks, i + 2) == "thread" {
                    pass.push(spec.rel_path, ln, RULE_THREAD, thread_message());
                }
            }
            (TokKind::Ident, "thread")
                if thread_applies
                    && text(toks, i + 1) == "::"
                    && (i == 0 || text(toks, i - 1) != "::") =>
            {
                // `thread::spawn(...)` — but not the tail of `std::thread`,
                // which the arm above already reported.
                pass.push(spec.rel_path, ln, RULE_THREAD, thread_message());
            }
            (TokKind::Ident, w @ ("f32" | "f64")) if float_free && !in_test => {
                pass.push(spec.rel_path, ln, RULE_FLOAT_MATH, format!("{w} in {float_scope}"));
            }
            (TokKind::Float, _) if float_free && !in_test => {
                pass.push(
                    spec.rel_path,
                    ln,
                    RULE_FLOAT_MATH,
                    format!("float literal in {float_scope}; use integer arithmetic"),
                );
            }
            (TokKind::Ident, w @ ("unwrap" | "expect"))
                if panic_free
                    && !in_test
                    && i > 0
                    && text(toks, i - 1) == "."
                    && text(toks, i + 1) == "(" =>
            {
                pass.push(
                    spec.rel_path,
                    ln,
                    RULE_UNWRAP,
                    format!(
                        ".{w}() in mechanism code; return a Result or \
                         use a total fallback (unwrap_or, match)"
                    ),
                );
            }
            (TokKind::Ident, w @ ("SimRng" | "gen_bool" | "gen_range"))
                if rng_confined && !in_test =>
            {
                pass.push(
                    spec.rel_path,
                    ln,
                    RULE_FAULT_RNG,
                    format!(
                        "{w} in a mechanism crate; route randomized \
                         decisions through simkit::fault (FaultPlan / \
                         FaultSpec::fires) so they replay bit-identically"
                    ),
                );
            }
            (TokKind::Ident, w @ ("now" | "throttled" | "rob_full_cycles"))
                if horizon_applies && !in_test && text(toks, i + 1) == "+=" =>
            {
                // `now += 1` stepping loops and the per-cycle stall
                // counters; `now += n` batch accrual is fine.
                let pattern = match w {
                    "now" if text(toks, i + 2) == "1" => Some("now += 1"),
                    "throttled" => Some("throttled +="),
                    "rob_full_cycles" => Some("rob_full_cycles +="),
                    _ => None,
                };
                if let Some(p) = pattern {
                    pass.push(
                        spec.rel_path,
                        ln,
                        RULE_HORIZON,
                        format!(
                            "per-cycle accounting (`{p}`) in a file with no \
                             next_event/batch-accrual surface; batch over \
                             skipped windows and report a next_event \
                             (docs/PERFORMANCE.md)"
                        ),
                    );
                }
            }
            (TokKind::Ident, w @ ("sample" | "sample_n"))
                if horizon_applies
                    && !in_test
                    && i > 0
                    && text(toks, i - 1) == "."
                    && text(toks, i + 1) == "(" =>
            {
                pass.push(
                    spec.rel_path,
                    ln,
                    RULE_HORIZON,
                    format!(
                        ".{w}() in a file with no next_event/batch-accrual \
                         surface; per-cycle sampling under-counts across \
                         skipped windows — use the batched form and wire a \
                         next_event (docs/PERFORMANCE.md)"
                    ),
                );
            }
            _ => {}
        }
    }

    // missing-docs: every `pub fn` in pabst-core carries a doc comment.
    if wants_docs {
        for f in &idx.fns {
            if f.is_pub && !f.in_test && !f.has_doc {
                pass.push(
                    spec.rel_path,
                    f.line,
                    RULE_MISSING_DOCS,
                    format!("pub fn `{}` has no doc comment", f.name),
                );
            }
        }
    }

    pass.diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    pass
}

fn thread_message() -> String {
    "std::thread outside bench::harness; route parallelism \
     through the sweep executor (harness::run_indexed), whose \
     submission-order merge keeps output deterministic"
        .into()
}

/// A taint root: a named entry point and the sink classes banned in code
/// reachable from it.
struct TaintRoot {
    owner: &'static str,
    name: &'static str,
    banned: &'static [SinkClass],
    /// Whether top-level initializer references seed the walk — models
    /// fn-pointer table dispatch (`static EXPERIMENTS: [...]`).
    seed_top_refs: bool,
}

/// `System::advance` is the simulation clock: everything it reaches must be
/// bit-replayable, including float-free. `Experiment::run` is the sweep
/// entry: host timing and float rendering are legitimate there, but entropy
/// and hash-order iteration would still make "the same experiment"
/// unrepeatable.
const TAINT_ROOTS: [TaintRoot; 2] = [
    TaintRoot {
        owner: "System",
        name: "advance",
        banned: &[SinkClass::Clock, SinkClass::Entropy, SinkClass::HashIter, SinkClass::Float],
        seed_top_refs: false,
    },
    TaintRoot {
        owner: "Experiment",
        name: "run",
        banned: &[SinkClass::Entropy, SinkClass::HashIter],
        seed_top_refs: true,
    },
];

fn taint_rule(class: SinkClass) -> &'static str {
    match class {
        SinkClass::Clock => RULE_TAINT_CLOCK,
        SinkClass::Entropy => RULE_TAINT_ENTROPY,
        SinkClass::HashIter => RULE_TAINT_HASH_ITER,
        SinkClass::Float => RULE_TAINT_FLOAT,
    }
}

fn class_phrase(class: SinkClass) -> &'static str {
    match class {
        SinkClass::Clock => "a wall-clock read",
        SinkClass::Entropy => "an entropy source",
        SinkClass::HashIter => "hasher-randomized iteration",
        SinkClass::Float => "a floating-point operation",
    }
}

/// Runs the reachability-scoped rules over the whole file set, appending
/// diagnostics to (and marking suppressions in) each file's pass.
pub fn cross_pass(indexes: &[FileIndex], passes: &mut [FilePass]) {
    debug_assert_eq!(indexes.len(), passes.len());
    let g = Graph::build(indexes);

    // --- determinism taint -------------------------------------------------
    for root in &TAINT_ROOTS {
        let Some(r) = g.find(root.owner, root.name) else { continue };
        let seeds: Vec<NodeId> = if root.seed_top_refs {
            indexes
                .iter()
                .flat_map(|f| f.top_refs.iter())
                .flat_map(|n| g.named(n))
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        let reach = g.reachable(&[r], &seeds);
        for &node in reach.keys() {
            let (fi, ni) = node;
            let f = &indexes[fi].fns[ni];
            for sink in &f.sinks {
                if !root.banned.contains(&sink.class) {
                    continue;
                }
                let msg = format!(
                    "`{}` is {} reachable from {}::{} via {}",
                    sink.what,
                    class_phrase(sink.class),
                    root.owner,
                    root.name,
                    g.path(&reach, node),
                );
                passes[fi].push(&indexes[fi].rel_path, sink.line, taint_rule(sink.class), msg);
            }
        }
    }

    // --- horizon-contract completeness ------------------------------------
    // Every sim-crate type with a `step`/`step_*` method must define
    // `next_event` (drivers — types defining `advance`/`horizon` — are the
    // min-combine side of the contract and exempt), and that `next_event`
    // must actually be reached from `System::advance`.
    #[derive(Default)]
    struct Surface {
        step: Option<(NodeId, String)>,
        next_event: Option<NodeId>,
        driver: bool,
    }
    let mut surfaces: std::collections::BTreeMap<(String, String), Surface> =
        std::collections::BTreeMap::new();
    for (fi, file) in indexes.iter().enumerate() {
        if !SIM_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            let Some(owner) = &f.owner else { continue };
            if f.in_test {
                continue;
            }
            let key = (file.crate_name.clone(), owner.clone());
            let s = surfaces.entry(key).or_default();
            if f.name == "step" || f.name.starts_with("step_") {
                if s.step.is_none() {
                    s.step = Some(((fi, ni), f.name.clone()));
                }
            } else if f.name == "next_event" {
                s.next_event = Some((fi, ni));
            } else if f.name == "advance" || f.name == "horizon" {
                s.driver = true;
            }
        }
    }
    // Reachability roots are `System::advance` plus every `DomainSched`
    // probe: per-domain parking caches a component's `next_event` inside
    // the domain scheduler, so a surface consulted only from a
    // park/wake path is wired just as legitimately as one the global
    // min-combine reads directly.
    let advance_reach = g.find("System", "advance").map(|r| {
        let mut roots = vec![r];
        for (fi, file) in indexes.iter().enumerate() {
            if file.crate_name == "xtask" {
                continue;
            }
            for (ni, f) in file.fns.iter().enumerate() {
                if !f.in_test && f.owner.as_deref() == Some("DomainSched") {
                    roots.push((fi, ni));
                }
            }
        }
        g.reachable(&roots, &[])
    });
    let report_unreached = |ty: &str, nfi: usize, nni: usize, passes: &mut [FilePass]| {
        let Some(reach) = &advance_reach else { return };
        if reach.contains_key(&(nfi, nni)) {
            return;
        }
        let line = indexes[nfi].fns[nni].line;
        let msg = format!(
            "`{ty}::next_event` is never reached from \
             System::advance or a DomainSched probe; wire it into the \
             horizon min-combine (or a domain park site) so skips \
             respect this component's wake-ups"
        );
        passes[nfi].push(&indexes[nfi].rel_path, line, RULE_HORIZON_CONTRACT, msg);
    };
    for ((_crate, ty), s) in &surfaces {
        let Some(((fi, ni), step_name)) = &s.step else { continue };
        if s.driver {
            continue;
        }
        match s.next_event {
            None => {
                let line = indexes[*fi].fns[*ni].line;
                let msg = format!(
                    "type `{ty}` defines `{step_name}` but no `next_event`; \
                     System::advance's quiescence skipping will silently \
                     under-step it — implement next_event and wire it into \
                     the horizon min-combine (docs/PERFORMANCE.md)"
                );
                passes[*fi].push(&indexes[*fi].rel_path, line, RULE_HORIZON_CONTRACT, msg);
            }
            Some((nfi, nni)) => report_unreached(ty, nfi, nni, passes),
        }
    }
}

/// Flags every valid suppression that silenced nothing. `include_cross`
/// is false for single-file lints, where reachability-scoped rules never
/// ran and their suppressions cannot be judged.
pub fn unused_pass(rel_path: &str, pass: &mut FilePass, include_cross: bool) {
    let mut extra = Vec::new();
    for s in &pass.sups {
        if s.used {
            continue;
        }
        if !include_cross && CROSS_RULES.contains(&s.rule) {
            continue;
        }
        extra.push(Diagnostic {
            file: rel_path.to_string(),
            line: s.comment_line + 1,
            rule: RULE_UNUSED_SUPPRESSION,
            message: format!(
                "allow({}) suppresses nothing; remove it (a stale allow \
                 hides future violations of the rule it names)",
                s.rule
            ),
        });
    }
    pass.diags.extend(extra);
    pass.diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
}
