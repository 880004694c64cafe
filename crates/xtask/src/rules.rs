//! The seven `also-lint` rules, implemented as token-stream visitors.
//!
//! Each rule is a pure function from a lexed token stream (plus a
//! [`FileCtx`] saying what kind of file this is) to diagnostics. A final
//! pass drops any diagnostic covered by an
//! `// also-lint: allow(<rule>[, <rule>…])` comment on the same line or
//! the line directly above — that comment doubles as the written
//! justification the rules demand.
//!
//! | id                        | invariant                                               |
//! |---------------------------|---------------------------------------------------------|
//! | `safety-comments`         | every `unsafe` is preceded by `// SAFETY:` prose        |
//! | `lint-headers`            | crate roots deny `unsafe_op_in_unsafe_fn`, warn docs    |
//! | `deterministic-iteration` | no hash-order iteration on the emission/merge path      |
//! | `hot-loop-alloc`          | `// also-lint: hot` functions do not allocate           |
//! | `unchecked-indexing`      | `get_unchecked{,_mut}` only inside `crates/also`        |
//! | `kernel-entry`            | spine internals stay inside `crates/exec` + kernels     |
//! | `chaos-sites`             | fault *scheduling* stays inside the chaos zone; hooks   |
//! |                           | are crossed only as `faults::<site>(…)`                 |

use crate::diag::Diagnostic;
use crate::lexer::{lex, Tok, TokKind};
use std::collections::{HashMap, HashSet};

/// What the linter needs to know about a file beyond its bytes.
#[derive(Debug, Clone, Default)]
pub struct FileCtx {
    /// Repo-relative path with forward slashes, used in diagnostics.
    pub path: String,
    /// `src/lib.rs` or `src/main.rs` of some package → R2 applies.
    pub is_crate_root: bool,
    /// Inside `crates/also` → R5 does not apply (that crate is the one
    /// place allowed to hold `unsafe` micro-optimizations).
    pub in_also: bool,
    /// On the emission/merge path (sinks, the query filters, par
    /// runtime, the plan executor) → R3 applies.
    pub emission_path: bool,
    /// Inside the executor (`crates/exec`), a kernel crate, or the
    /// `fpm` spine-contract module → R6 does not apply (these *own*
    /// the `KernelSpine` machinery everyone else must reach through
    /// `MinePlan`).
    pub kernel_internal: bool,
    /// Inside `crates/chaos` or the `fpm::faults` module → R7 does not
    /// apply (the harness and hook definitions *are* the chaos zone;
    /// everyone else only crosses `faults::<site>` hooks and never
    /// schedules faults).
    pub chaos_zone: bool,
    /// On a panic-free path (serve worker loop, poll frontend, par
    /// steal path) → R11 (panic-path) applies.
    pub panic_free_path: bool,
}

/// Lints one file's source text and returns its (sorted, suppression-
/// filtered) diagnostics.
pub fn lint_source(ctx: &FileCtx, src: &str) -> Vec<Diagnostic> {
    let toks = lex(src);
    let mut diags = Vec::new();
    rule_safety_comments(ctx, &toks, &mut diags);
    if ctx.is_crate_root {
        rule_lint_headers(ctx, &toks, &mut diags);
    }
    if ctx.emission_path {
        rule_deterministic_iteration(ctx, &toks, &mut diags);
    }
    rule_hot_loop_alloc(ctx, &toks, &mut diags);
    if !ctx.in_also {
        rule_unchecked_indexing(ctx, &toks, &mut diags);
    }
    if !ctx.kernel_internal {
        rule_kernel_entry(ctx, &toks, &mut diags);
    }
    if !ctx.chaos_zone {
        rule_chaos_sites(ctx, &toks, &mut diags);
    }
    crate::concurrency::rule_atomic_ordering(ctx, &toks, &mut diags);
    crate::concurrency::rule_lock_order(ctx, &toks, &mut diags);
    if ctx.panic_free_path {
        crate::concurrency::rule_panic_path(ctx, &toks, &mut diags);
    }
    crate::concurrency::rule_guard_across_wait(ctx, &toks, &mut diags);
    let allows = collect_allows(&toks);
    diags.retain(|d| !is_allowed(&allows, d.line, d.rule));
    diags.sort();
    diags
}

// ---------------------------------------------------------------------------
// Suppression directives
// ---------------------------------------------------------------------------

/// Parses `// also-lint: …` comments. Returns `(allow_map, hot_lines)`
/// via [`collect_allows`] / [`hot_marker_indices`].
fn directive_payload(text: &str) -> Option<&str> {
    let body = text
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start();
    let rest = body.strip_prefix("also-lint:")?;
    Some(rest.trim())
}

/// Map from line number to the set of rule ids allowed on that line (and
/// the next one).
fn collect_allows(toks: &[Tok]) -> HashMap<u32, HashSet<String>> {
    let mut map: HashMap<u32, HashSet<String>> = HashMap::new();
    for t in toks {
        if !t.is_comment() {
            continue;
        }
        let Some(payload) = directive_payload(&t.text) else {
            continue;
        };
        let Some(inner) = payload
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            continue;
        };
        let entry = map.entry(t.line).or_default();
        for rule in inner.split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                entry.insert(rule.to_string());
            }
        }
    }
    map
}

/// An allow on line L covers diagnostics on L (trailing comment) and
/// L + 1 (comment on its own line above the code).
fn is_allowed(allows: &HashMap<u32, HashSet<String>>, line: u32, rule: &str) -> bool {
    let hit = |l: u32| allows.get(&l).is_some_and(|s| s.contains(rule));
    hit(line) || (line > 0 && hit(line - 1))
}

// ---------------------------------------------------------------------------
// R1: safety-comments
// ---------------------------------------------------------------------------

/// Skips an attribute group ending at `toks[j]` (which is `]`), returning
/// the index just before the opening `#` (or `#!`). Returns `None` if the
/// brackets never balance.
fn skip_attr_backwards(toks: &[Tok], mut j: usize) -> Option<usize> {
    debug_assert!(toks[j].is_punct(']'));
    let mut depth = 0isize;
    loop {
        match toks[j].kind {
            TokKind::Punct(']') => depth += 1,
            TokKind::Punct('[') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    // Optional `!` (inner attribute), then the `#`.
    if j > 0 && toks[j - 1].is_punct('!') {
        j -= 1;
    }
    if j > 0 && toks[j - 1].is_punct('#') {
        j -= 1;
    }
    j.checked_sub(1)
}

/// True if the contiguous comment group ending at `toks[j]` satisfies R1
/// for an `unsafe` item of kind `kind` ("fn"/"trait" additionally accept
/// a `# Safety` doc section, the std convention for unsafe functions).
fn comment_group_has_safety(toks: &[Tok], j: usize, kind: &str) -> bool {
    let accept_doc_section = matches!(kind, "fn" | "trait");
    let mut k = j;
    loop {
        let t = &toks[k];
        if !t.is_comment() {
            break;
        }
        if t.text.contains("SAFETY:") {
            return true;
        }
        if accept_doc_section && t.text.contains("# Safety") {
            return true;
        }
        if k == 0 {
            break;
        }
        k -= 1;
    }
    false
}

fn rule_safety_comments(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        // Classify by the next significant token.
        let kind = match toks[i + 1..].iter().find(|t| !t.is_comment()) {
            Some(n) if n.is_punct('{') => "block",
            Some(n) if n.is_ident("fn") => "fn",
            Some(n) if n.is_ident("impl") => "impl",
            Some(n) if n.is_ident("trait") => "trait",
            Some(n) if n.is_ident("extern") => "extern block",
            _ => continue,
        };
        let line = t.line;
        let mut ok = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let p = &toks[j];
            if p.is_comment() {
                // Same-line trailing comments of *previous* statements do
                // not vouch for this one unless they actually carry the
                // marker; the group check handles both.
                ok = comment_group_has_safety(toks, j, kind);
                break;
            }
            if p.line == line {
                // Tokens of the same statement (`let x = unsafe …`,
                // `pub unsafe fn`) — keep walking.
                continue;
            }
            if p.is_punct(']') {
                // An attribute between the comment and the keyword
                // (`#[target_feature(…)]`, `#[cfg(…)]`).
                match skip_attr_backwards(toks, j) {
                    Some(prev) => {
                        j = prev + 1;
                        continue;
                    }
                    None => break,
                }
            }
            break; // any other token: no comment directly above
        }
        if !ok {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line,
                rule: "safety-comments",
                message: format!(
                    "`unsafe {kind}` is not immediately preceded by a `// SAFETY:` comment{}",
                    if kind == "fn" || kind == "trait" {
                        " (or a `# Safety` doc section)"
                    } else {
                        ""
                    }
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R2: lint-headers
// ---------------------------------------------------------------------------

fn rule_lint_headers(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let mut has_deny_unsafe_op = false;
    let mut has_warn_missing_docs = false;
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_punct('#') && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('[') {
            // Collect the inner tokens of this `#![…]` attribute.
            let mut depth = 0isize;
            let mut j = i + 2;
            let mut inner: Vec<&Tok> = Vec::new();
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if depth > 0 && j > i + 2 {
                    inner.push(&toks[j]);
                }
                j += 1;
            }
            let level = inner.first().map(|t| t.text.as_str()).unwrap_or("");
            let strict = matches!(level, "deny" | "forbid");
            let lenient = strict || level == "warn";
            if strict && inner.iter().any(|t| t.is_ident("unsafe_op_in_unsafe_fn")) {
                has_deny_unsafe_op = true;
            }
            if lenient && inner.iter().any(|t| t.is_ident("missing_docs")) {
                has_warn_missing_docs = true;
            }
            i = j;
        }
        i += 1;
    }
    if !has_deny_unsafe_op {
        diags.push(Diagnostic {
            file: ctx.path.clone(),
            line: 1,
            rule: "lint-headers",
            message: "crate root lacks `#![deny(unsafe_op_in_unsafe_fn)]`".into(),
        });
    }
    if !has_warn_missing_docs {
        diags.push(Diagnostic {
            file: ctx.path.clone(),
            line: 1,
            rule: "lint-headers",
            message: "crate root lacks `#![warn(missing_docs)]`".into(),
        });
    }
}

// ---------------------------------------------------------------------------
// R3: deterministic-iteration
// ---------------------------------------------------------------------------

/// Methods whose call on a hash collection observes hash order.
const HASH_ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Finds the names bound to `HashMap`/`HashSet` values in this file:
/// struct fields and `let` bindings with an explicit hash type
/// (`name: HashMap<…>`), and `let name = HashMap::new()`-style inits.
fn hash_binding_names(toks: &[Tok]) -> HashSet<String> {
    let mut names = HashSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk backwards over `path::to::` prefixes, references
        // (`&`, `&'a mut`) and single-level wrappers (`Option<…>`).
        let mut j = i;
        loop {
            if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                j -= 2;
                if j > 0 && toks[j - 1].kind == TokKind::Ident && !toks[j - 1].is_ident("use") {
                    j -= 1;
                }
                continue;
            }
            if j >= 1
                && (toks[j - 1].is_punct('&')
                    || toks[j - 1].is_ident("mut")
                    || toks[j - 1].kind == TokKind::Lifetime)
            {
                j -= 1;
                continue;
            }
            if j >= 2
                && toks[j - 1].is_punct('<')
                && toks[j - 2].kind == TokKind::Ident
                && !toks[j - 2].is_ident("use")
            {
                j -= 2;
                continue;
            }
            break;
        }
        if j == 0 {
            continue;
        }
        let prev = &toks[j - 1];
        if prev.is_punct(':') {
            // `name: HashMap<…>` — field, param, or typed let.
            if j >= 2 && toks[j - 2].kind == TokKind::Ident {
                names.insert(toks[j - 2].text.clone());
            }
        } else if prev.is_punct('=') {
            // `let [mut] name = HashMap::new()`.
            let mut k = j - 1;
            while k > 0 {
                k -= 1;
                match toks[k].kind {
                    TokKind::Ident if toks[k].is_ident("mut") => continue,
                    TokKind::Ident => {
                        names.insert(toks[k].text.clone());
                        break;
                    }
                    _ => break,
                }
            }
        }
    }
    names
}

fn rule_deterministic_iteration(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let bindings = hash_binding_names(toks);
    if bindings.is_empty() {
        return;
    }
    let sig: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    for w in 0..sig.len() {
        let t = sig[w];
        // `recv.iter()` and friends.
        if t.is_punct('.')
            && w + 2 < sig.len()
            && sig[w + 1].kind == TokKind::Ident
            && HASH_ORDER_METHODS.contains(&sig[w + 1].text.as_str())
            && sig[w + 2].is_punct('(')
            && w > 0
            && bindings.contains(&sig[w - 1].text)
        {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: sig[w + 1].line,
                rule: "deterministic-iteration",
                message: format!(
                    "`{}.{}()` iterates a hash collection in hash order on the emission/merge \
                     path; sort first, use a BTreeMap, or allow-list with a sortedness \
                     justification",
                    sig[w - 1].text,
                    sig[w + 1].text
                ),
            });
        }
        // `for pat in [&][mut][self.]binding {` — direct IntoIterator use.
        if t.is_ident("in") {
            let mut k = w + 1;
            while k < sig.len()
                && (sig[k].is_punct('&')
                    || sig[k].is_ident("mut")
                    || sig[k].is_ident("self")
                    || sig[k].is_punct('.'))
            {
                k += 1;
            }
            if k + 1 < sig.len()
                && sig[k].kind == TokKind::Ident
                && bindings.contains(&sig[k].text)
                && sig[k + 1].is_punct('{')
            {
                diags.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: sig[k].line,
                    rule: "deterministic-iteration",
                    message: format!(
                        "`for … in {}` iterates a hash collection in hash order on the \
                         emission/merge path; sort first, use a BTreeMap, or allow-list with a \
                         sortedness justification",
                        sig[k].text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R4: hot-loop-alloc
// ---------------------------------------------------------------------------

/// Methods that (re)allocate when called on std collections/strings.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "push_str",
    "extend",
    "extend_from_slice",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
];

fn rule_hot_loop_alloc(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    for (ci, c) in toks.iter().enumerate() {
        if !c.is_comment() {
            continue;
        }
        if directive_payload(&c.text) != Some("hot") {
            continue;
        }
        // Find the `fn` this marker annotates, then its body.
        let Some(fn_rel) = toks[ci + 1..].iter().position(|t| t.is_ident("fn")) else {
            continue;
        };
        let fn_idx = ci + 1 + fn_rel;
        let Some(open_rel) = toks[fn_idx..].iter().position(|t| t.is_punct('{')) else {
            continue;
        };
        let open = fn_idx + open_rel;
        let mut depth = 0isize;
        let mut close = open;
        for (k, t) in toks.iter().enumerate().skip(open) {
            match t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body: Vec<&Tok> = toks[open..=close].iter().filter(|t| !t.is_comment()).collect();
        let report = |diags: &mut Vec<Diagnostic>, line: u32, what: &str| {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line,
                rule: "hot-loop-alloc",
                message: format!(
                    "`{what}` allocates inside a `// also-lint: hot` function; preallocate \
                     outside the loop or allow-list with a capacity argument"
                ),
            });
        };
        for w in 0..body.len() {
            let t = body[w];
            // `.push(…)`, `.collect::<…>()`, …
            if t.is_punct('.')
                && w + 1 < body.len()
                && body[w + 1].kind == TokKind::Ident
                && ALLOC_METHODS.contains(&body[w + 1].text.as_str())
                && w + 2 < body.len()
                && (body[w + 2].is_punct('(') || body[w + 2].is_punct(':'))
            {
                report(diags, body[w + 1].line, &format!(".{}", body[w + 1].text));
            }
            // `Box::new(…)`, `String::from(…)`, `Vec::new()` is fine (no
            // alloc until first push, which is itself flagged).
            if (t.is_ident("Box") || t.is_ident("String") || t.is_ident("Rc") || t.is_ident("Arc"))
                && w + 3 < body.len()
                && body[w + 1].is_punct(':')
                && body[w + 2].is_punct(':')
                && (body[w + 3].is_ident("new") || body[w + 3].is_ident("from"))
            {
                report(
                    diags,
                    t.line,
                    &format!("{}::{}", t.text, body[w + 3].text),
                );
            }
            // `format!(…)`, `vec![…]`.
            if (t.is_ident("format") || t.is_ident("vec"))
                && w + 1 < body.len()
                && body[w + 1].is_punct('!')
            {
                report(diags, t.line, &format!("{}!", t.text));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R5: unchecked-indexing
// ---------------------------------------------------------------------------

fn rule_unchecked_indexing(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    for t in toks {
        if t.is_ident("get_unchecked") || t.is_ident("get_unchecked_mut") {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: t.line,
                rule: "unchecked-indexing",
                message: format!(
                    "`{}` outside `crates/also`; bounds-check here and keep unchecked \
                     indexing inside the audited kernel crate",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R6: kernel-entry
// ---------------------------------------------------------------------------

/// Identifiers that belong to the kernel-spine contract (or to retired
/// per-kernel entry points). Everything outside `crates/exec` and the
/// kernel crates mines through `exec::MinePlan` instead; naming one of
/// these is either a layering violation or a resurrected dead API.
const KERNEL_ENTRY_IDENTS: &[&str] = &[
    "KernelSpine",
    "LcmSpine",
    "EclatSpine",
    "FpSpine",
    "root_tasks",
    "mine_task",
    "mine_controlled",
    "mine_probed_controlled",
    "mine_parallel",
    "mine_parallel_into",
    "mine_parallel_controlled_into",
];

fn rule_kernel_entry(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    for t in toks {
        if t.kind == TokKind::Ident && KERNEL_ENTRY_IDENTS.contains(&t.text.as_str()) {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: t.line,
                rule: "kernel-entry",
                message: format!(
                    "`{}` is kernel-spine internal; build an `exec::MinePlan` instead \
                     (only `crates/exec` and the kernel crates may touch the spine)",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R7: chaos-sites
// ---------------------------------------------------------------------------

/// Fault-*scheduling* vocabulary. Building or installing a plan outside
/// the chaos zone would let production code inject its own failures.
const CHAOS_PLAN_IDENTS: &[&str] = &["FaultPlan", "FaultSite", "PlanGuard"];

/// The injection hooks. Production code crosses them, but only fully
/// qualified as `faults::<site>(…)`: the path keeps every chaos seam
/// greppable and guarantees the call resolves to the feature-gated
/// no-op stubs, never a local lookalike.
const CHAOS_HOOK_IDENTS: &[&str] = &[
    "worker_panic",
    "steal_delay",
    "spurious_trip",
    "corrupt_patterns",
    "admission_flap",
    "shard_stall",
    "corrupt_artifact",
];

fn rule_chaos_sites(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let sig: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    for (w, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // `faults::<name>` ⇔ the three preceding tokens are `faults ::`.
        let faults_qualified = w >= 3
            && sig[w - 1].is_punct(':')
            && sig[w - 2].is_punct(':')
            && sig[w - 3].is_ident("faults");
        if CHAOS_PLAN_IDENTS.contains(&t.text.as_str()) {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: t.line,
                rule: "chaos-sites",
                message: format!(
                    "`{}` schedules fault injection; plans belong to `crates/chaos` and \
                     `fpm::faults` — production code only crosses `faults::<site>` hooks",
                    t.text
                ),
            });
        } else if t.is_ident("install") && faults_qualified {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: t.line,
                rule: "chaos-sites",
                message: "`faults::install` arms a fault plan outside the chaos zone; only \
                          `crates/chaos` may install plans"
                    .into(),
            });
        } else if CHAOS_HOOK_IDENTS.contains(&t.text.as_str()) && !faults_qualified {
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: t.line,
                rule: "chaos-sites",
                message: format!(
                    "`{0}` shadows a chaos injection hook; cross the site as \
                     `fpm::faults::{0}` (a feature-gated no-op without `chaos`)",
                    t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileCtx {
        FileCtx {
            path: "test.rs".into(),
            ..FileCtx::default()
        }
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn r1_flags_bare_unsafe_block() {
        let d = lint_source(&ctx(), "fn f() {\n    let x = unsafe { g() };\n}\n");
        assert_eq!(rules_of(&d), vec!["safety-comments"]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn r1_accepts_safety_comment_above_statement() {
        let src = "fn f() {\n    // SAFETY: g has no preconditions here.\n    let x = unsafe { g() };\n}\n";
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn r1_accepts_safety_doc_section_through_attributes() {
        let src = "/// Does x.\n///\n/// # Safety\n/// Caller must pass valid pointers.\n#[cfg(feature = \"x\")]\n#[inline]\npub unsafe fn f(p: *const u8) {}\n";
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn r1_requires_separate_comment_per_impl() {
        let src = "// SAFETY: only raw pointers, owned exclusively.\nunsafe impl Send for X {}\nunsafe impl Sync for X {}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["safety-comments"]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn r1_ignores_unsafe_in_strings_and_comments() {
        let src = "// unsafe impl Send for Y {}\nfn f() -> &'static str { \"unsafe { }\" }\n";
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn r2_flags_missing_headers_only_on_crate_roots() {
        let src = "//! Crate docs.\npub fn f() {}\n";
        assert!(lint_source(&ctx(), src).is_empty());
        let root = FileCtx {
            is_crate_root: true,
            ..ctx()
        };
        let d = lint_source(&root, src);
        assert_eq!(rules_of(&d), vec!["lint-headers", "lint-headers"]);
    }

    #[test]
    fn r2_accepts_both_headers() {
        let src = "//! Docs.\n#![deny(unsafe_op_in_unsafe_fn)]\n#![warn(missing_docs)]\n";
        let root = FileCtx {
            is_crate_root: true,
            ..ctx()
        };
        assert!(lint_source(&root, src).is_empty());
    }

    #[test]
    fn r3_flags_iteration_only_on_emission_path() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u32 {\n    m.values().sum()\n}\n";
        assert!(lint_source(&ctx(), src).is_empty());
        let emit = FileCtx {
            emission_path: true,
            ..ctx()
        };
        let d = lint_source(&emit, src);
        assert_eq!(rules_of(&d), vec!["deterministic-iteration"]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn r3_flags_for_loop_over_hash_field() {
        let src = "struct S { shadow: std::collections::HashMap<u32, u32> }\nimpl S {\n    fn f(&self) { for x in &self.shadow {} }\n}\n";
        let emit = FileCtx {
            emission_path: true,
            ..ctx()
        };
        assert_eq!(rules_of(&lint_source(&emit, src)), vec!["deterministic-iteration"]);
    }

    #[test]
    fn r3_lookups_are_fine() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> Option<&u32> {\n    m.get(&3)\n}\n";
        let emit = FileCtx {
            emission_path: true,
            ..ctx()
        };
        assert!(lint_source(&emit, src).is_empty());
    }

    #[test]
    fn r3_trailing_allow_suppresses() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u32 {\n    // also-lint: allow(deterministic-iteration) — result is summed, order-free\n    m.values().sum()\n}\n";
        let emit = FileCtx {
            emission_path: true,
            ..ctx()
        };
        assert!(lint_source(&emit, src).is_empty());
    }

    #[test]
    fn r4_flags_push_in_hot_fn() {
        let src = "// also-lint: hot\nfn f(v: &mut Vec<u32>) {\n    v.push(1);\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["hot-loop-alloc"]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn r4_ignores_unmarked_fns_and_allows() {
        let cold = "fn f(v: &mut Vec<u32>) { v.push(1); }\n";
        assert!(lint_source(&ctx(), cold).is_empty());
        let allowed = "// also-lint: hot\nfn f(v: &mut Vec<u32>) {\n    // also-lint: allow(hot-loop-alloc) — v preallocated to n_ranks\n    v.push(1);\n}\n";
        assert!(lint_source(&ctx(), allowed).is_empty());
    }

    #[test]
    fn r4_flags_macro_and_box_allocs() {
        let src = "// also-lint: hot\nfn f() -> Box<u32> {\n    let s = format!(\"x\");\n    Box::new(1)\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["hot-loop-alloc", "hot-loop-alloc"]);
    }

    #[test]
    fn r5_respects_crate_boundary() {
        let src = "fn f(s: &[u32]) -> u32 { unsafe { *s.get_unchecked(0) } }\n";
        let d = lint_source(&ctx(), src);
        assert!(d.iter().any(|d| d.rule == "unchecked-indexing"));
        let also = FileCtx {
            in_also: true,
            ..ctx()
        };
        let d = lint_source(&also, src);
        assert!(d.iter().all(|d| d.rule != "unchecked-indexing"));
    }

    #[test]
    fn r6_flags_spine_identifiers_outside_kernel_zone() {
        let src = "fn f(db: &fpm::TransactionDb) {\n    let t = lcm::LcmSpine::root_tasks(&p);\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["kernel-entry", "kernel-entry"]);
        assert_eq!(d[0].line, 2);
        let inside = FileCtx {
            kernel_internal: true,
            ..ctx()
        };
        assert!(lint_source(&inside, src).is_empty());
    }

    #[test]
    fn r6_skips_comments_strings_and_plain_mine() {
        let src = "// mine_parallel was retired in favour of MinePlan\nfn f() -> &'static str {\n    lcm::mine(db, 2, &cfg, sink);\n    \"mine_controlled\"\n}\n";
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn r7_flags_scheduling_and_unqualified_hooks_outside_zone() {
        let src = "fn f() {\n    let p = fpm::faults::FaultPlan::from_seed(7);\n    let _g = fpm::faults::install(p);\n    if worker_panic(0) {}\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["chaos-sites", "chaos-sites", "chaos-sites"]);
        let zone = FileCtx {
            chaos_zone: true,
            ..ctx()
        };
        assert!(lint_source(&zone, src).is_empty());
    }

    #[test]
    fn r7_accepts_qualified_hook_crossings() {
        let src = "fn f(idx: usize) -> bool {\n    fpm::faults::steal_delay();\n    crate::faults::spurious_trip() || fpm::faults::worker_panic(idx)\n}\n";
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn allow_does_not_leak_to_later_lines() {
        let src = "fn f(s: &[u32]) -> u32 {\n    // also-lint: allow(unchecked-indexing)\n    // SAFETY: len checked by caller.\n    unsafe { *s.get_unchecked(0) }\n}\n";
        // The allow sits two lines above the violation, so it must NOT apply.
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["unchecked-indexing"]);
    }
}
