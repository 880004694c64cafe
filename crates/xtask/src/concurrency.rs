//! R8, R9, R11 and R12: the concurrency-audit rules.
//!
//! PR 6 grew a real concurrency surface — sharded worker pools,
//! single-flight tables, a poll frontend — whose invariants were
//! previously only *tested* dynamically (the chaos campaign). These
//! rules check them statically at the PR boundary:
//!
//! | id                             | invariant                                                |
//! |--------------------------------|----------------------------------------------------------|
//! | `atomic-ordering`              | every atomic op names its `Ordering`; `Relaxed` on a     |
//! |                                | non-counter, and every `SeqCst`, carries `// ORDERING:`  |
//! | `lock-order`                   | the per-file lock-acquisition graph is acyclic           |
//! | `panic-path`                   | no unwrap/expect/panic!/indexing on serve/steal paths    |
//! | `guard-across-await-free-wait` | no guard held across a blocking wait, except a condvar's |
//! |                                | own mutex                                                |
//!
//! All four rules skip `#[cfg(test)]` / `#[test]` spans
//! ([`crate::analysis::test_mask`]): tests legitimately spin, unwrap,
//! and park holding locks.

use crate::analysis::{
    fn_bodies, is_non_indexing_keyword, lock_acquisitions, matching_close, receiver_name,
    sig_view, test_mask,
};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::rules::FileCtx;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// R8: atomic-ordering
// ---------------------------------------------------------------------------

/// Atomic read-modify-write methods (unambiguous — only atomics have
/// them, so a missing explicit ordering is reportable).
const ATOMIC_RMW: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Atomic methods that collide with common non-atomic names
/// (`Vec::swap`, custom `load`/`store`): they are treated as atomic
/// only when an `Ordering` variant appears in the argument list.
const ATOMIC_AMBIGUOUS: &[&str] = &["load", "store", "swap"];

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Lines carrying an `// ORDERING:` justification comment.
fn ordering_comment_lines(toks: &[Tok]) -> BTreeSet<u32> {
    // A contiguous run of line comments is one justification block: if
    // any line of it says `ORDERING:`, every line of the block counts
    // (long proofs keep working without squeezing onto the last line).
    let mut out = BTreeSet::new();
    let comments: Vec<&Tok> = toks.iter().filter(|t| t.is_comment()).collect();
    let mut i = 0;
    while i < comments.len() {
        let mut j = i;
        while j + 1 < comments.len() && comments[j + 1].line == comments[j].line + 1 {
            j += 1;
        }
        if comments[i..=j].iter().any(|t| t.text.contains("ORDERING:")) {
            for t in &comments[i..=j] {
                out.insert(t.line);
            }
        }
        i = j + 1;
    }
    out
}

/// An `// ORDERING:` comment justifies atomic ops on its own line and
/// up to two lines below — mirroring how `// SAFETY:` comments attach.
/// Checked against both the op token's line and its statement's first
/// line, so a comment above `let _ = self\n.tripped\n.compare_exchange(…)`
/// still attaches even though the op sits lines into the statement.
fn ordering_justified(lines: &BTreeSet<u32>, at: u32) -> bool {
    lines.range(at.saturating_sub(2)..=at).next().is_some()
}

/// Line on which the statement containing sig index `w` starts: the
/// first token after the previous `;`, `{`, or `}`.
fn statement_start_line(sig: &[&Tok], w: usize) -> u32 {
    let mut k = w;
    while k > 0 {
        let p = sig[k - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        k -= 1;
    }
    sig[k].line
}

/// Per-file set of receiver names that behave as pure counters: they
/// receive `fetch_add`/`fetch_sub` somewhere in the file. `Relaxed`
/// increments and reads of a counter need no justification — per-key
/// totals are exact regardless of interleaving and no other data is
/// published through them.
fn counter_receivers(sig: &[&Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for w in 1..sig.len() {
        if (sig[w].is_ident("fetch_add") || sig[w].is_ident("fetch_sub"))
            && sig[w - 1].is_punct('.')
            && sig.get(w + 1).is_some_and(|t| t.is_punct('('))
        {
            if let Some(name) = receiver_name(sig, w - 1) {
                out.insert(name);
            }
        }
    }
    out
}

pub(crate) fn rule_atomic_ordering(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let sig = sig_view(toks);
    let mask = test_mask(&sig);
    let comments = ordering_comment_lines(toks);
    let counters = counter_receivers(&sig);
    for w in 1..sig.len() {
        if mask[w] {
            continue;
        }
        let t = sig[w];
        if t.kind != TokKind::Ident || !sig[w - 1].is_punct('.') {
            continue;
        }
        let method = t.text.as_str();
        let rmw = ATOMIC_RMW.contains(&method);
        let ambiguous = ATOMIC_AMBIGUOUS.contains(&method);
        if !rmw && !ambiguous {
            continue;
        }
        let Some(next) = sig.get(w + 1) else { continue };
        if !next.is_punct('(') {
            continue;
        }
        let args_close = matching_close(&sig, w + 1, '(', ')');
        let orderings: Vec<&str> = sig[w + 2..args_close]
            .iter()
            .filter(|a| a.kind == TokKind::Ident)
            .map(|a| a.text.as_str())
            .filter(|a| ORDERING_VARIANTS.contains(a))
            .collect();
        if orderings.is_empty() {
            if rmw {
                diags.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: t.line,
                    rule: "atomic-ordering",
                    message: format!(
                        "`.{method}(…)` does not name its `Ordering` in the argument list; \
                         pass the variant literally so the required ordering is auditable \
                         at the call site"
                    ),
                });
            }
            continue; // ambiguous name without an Ordering: not atomic
        }
        let recv = receiver_name(&sig, w - 1).unwrap_or_default();
        let seqcst = orderings.contains(&"SeqCst");
        let counter_op = matches!(method, "fetch_add" | "fetch_sub" | "load");
        let relaxed_non_counter = orderings.contains(&"Relaxed")
            && !(counter_op && counters.contains(&recv));
        let justified = ordering_justified(&comments, t.line)
            || ordering_justified(&comments, statement_start_line(&sig, w));
        if (seqcst || relaxed_non_counter) && !justified {
            let (what, why) = if seqcst {
                (
                    "SeqCst",
                    "prove the global order is required — or downgrade it",
                )
            } else {
                (
                    "Relaxed",
                    "prove no data is published through this atomic (counters exempt \
                     themselves by receiving `fetch_add`/`fetch_sub`)",
                )
            };
            diags.push(Diagnostic {
                file: ctx.path.clone(),
                line: t.line,
                rule: "atomic-ordering",
                message: format!(
                    "`{recv}.{method}({what})` needs an adjacent `// ORDERING:` comment: {why}"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R9: lock-order
// ---------------------------------------------------------------------------

/// One held→acquired edge with its witness source lines.
#[derive(Debug, Clone)]
struct LockEdge {
    held: String,
    held_line: u32,
    acquired: String,
    acquired_line: u32,
}

pub(crate) fn rule_lock_order(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let sig = sig_view(toks);
    let mask = test_mask(&sig);
    // Collect held→acquired edges per function, union them per file:
    // a cycle split across two functions (f locks A then B, g locks B
    // then A) is exactly the deadlock the rule exists to catch.
    let mut edges: Vec<LockEdge> = Vec::new();
    for body in fn_bodies(&sig) {
        if mask[body.open] {
            continue;
        }
        let acqs = lock_acquisitions(&sig, body.open, body.close);
        for (i, a) in acqs.iter().enumerate() {
            if mask[a.at] {
                continue;
            }
            for h in &acqs[..i] {
                if h.at < a.at && a.at <= h.live_until {
                    edges.push(LockEdge {
                        held: h.lock.clone(),
                        held_line: h.line,
                        acquired: a.lock.clone(),
                        acquired_line: a.line,
                    });
                }
            }
        }
    }
    if edges.is_empty() {
        return;
    }
    // Adjacency (first witness per edge), then DFS for a cycle.
    let mut adj: BTreeMap<&str, BTreeMap<&str, &LockEdge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.held.as_str())
            .or_default()
            .entry(e.acquired.as_str())
            .or_insert(e);
    }
    if let Some(cycle) = find_cycle(&adj) {
        let path = cycle
            .iter()
            .map(|e| e.held.as_str())
            .chain(std::iter::once(cycle[0].held.as_str()))
            .collect::<Vec<_>>()
            .join(" -> ");
        let witness = cycle
            .iter()
            .map(|e| {
                format!(
                    "`{}` taken at line {} while holding `{}` (line {})",
                    e.acquired, e.acquired_line, e.held, e.held_line
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        diags.push(Diagnostic {
            file: ctx.path.clone(),
            line: cycle[0].acquired_line,
            rule: "lock-order",
            message: format!(
                "lock acquisition cycle {path}: {witness}; pick one global order and \
                 release before re-acquiring"
            ),
        });
    }
}

/// Finds one cycle in the lock graph, returned as its edge list (the
/// witness path). Self-edges — re-locking a mutex already held, which
/// std's non-reentrant `Mutex` turns into a guaranteed deadlock — are
/// length-1 cycles.
fn find_cycle<'a>(
    adj: &BTreeMap<&'a str, BTreeMap<&'a str, &'a LockEdge>>,
) -> Option<Vec<&'a LockEdge>> {
    for &start in adj.keys() {
        // DFS with an explicit path stack of (node, edge-into-node).
        let mut path: Vec<(&str, Option<&LockEdge>)> = vec![(start, None)];
        let mut iters: Vec<std::collections::btree_map::Iter<'_, &str, &LockEdge>> =
            vec![adj[start].iter()];
        let mut on_path: BTreeSet<&str> = [start].into();
        while let Some(it) = iters.last_mut() {
            match it.next() {
                Some((&next, &edge)) => {
                    if on_path.contains(next) {
                        // Close the cycle: edges from `next`'s position.
                        let from = path.iter().position(|(n, _)| *n == next).unwrap();
                        let mut cycle: Vec<&LockEdge> =
                            path[from + 1..].iter().filter_map(|(_, e)| *e).collect();
                        cycle.push(edge);
                        return Some(cycle);
                    }
                    if let Some(neigh) = adj.get(next) {
                        on_path.insert(next);
                        path.push((next, Some(edge)));
                        iters.push(neigh.iter());
                    }
                }
                None => {
                    let (n, _) = path.pop().unwrap();
                    on_path.remove(n);
                    iters.pop();
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// R11: panic-path
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub(crate) fn rule_panic_path(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let sig = sig_view(toks);
    let mask = test_mask(&sig);
    let report = |diags: &mut Vec<Diagnostic>, line: u32, what: &str| {
        diags.push(Diagnostic {
            file: ctx.path.clone(),
            line,
            rule: "panic-path",
            message: format!(
                "{what} can panic on a panic-free serve/steal path; handle the failure \
                 (poisoned locks: `unwrap_or_else(|e| e.into_inner())`) or carry the proof \
                 in an `// also-lint: allow(panic-path)` comment"
            ),
        });
    };
    for w in 0..sig.len() {
        if mask[w] {
            continue;
        }
        let t = sig[w];
        // `.unwrap()` / `.expect(…)`.
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && w > 0
            && sig[w - 1].is_punct('.')
            && sig.get(w + 1).is_some_and(|n| n.is_punct('('))
        {
            report(diags, t.line, &format!("`.{}(…)`", t.text));
        }
        // `panic!` and friends.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && sig.get(w + 1).is_some_and(|n| n.is_punct('!'))
        {
            report(diags, t.line, &format!("`{}!`", t.text));
        }
        // Indexing / slicing: `expr[…]` — an out-of-bounds index or a
        // backwards range panics. Postfix `[` follows an identifier
        // (not a keyword), a `)` or a `]`.
        if t.is_punct('[') && w > 0 {
            let prev = sig[w - 1];
            let postfix = match prev.kind {
                TokKind::Ident => !is_non_indexing_keyword(&prev.text),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
            if postfix {
                let what = if prev.kind == TokKind::Ident {
                    format!("indexing `{}[…]`", prev.text)
                } else {
                    "indexing `…[…]`".to_string()
                };
                report(diags, t.line, &what);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R12: guard-across-await-free-wait
// ---------------------------------------------------------------------------

/// Blocking calls a lock guard must not be held across: condvar waits,
/// thread parking, and blocking channel receives. (This runtime is
/// await-free by design — `std` threads only — so these are its
/// suspension points.)
const BLOCKING_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while", "recv", "recv_timeout", "park"];

pub(crate) fn rule_guard_across_wait(ctx: &FileCtx, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let sig = sig_view(toks);
    let mask = test_mask(&sig);
    for body in fn_bodies(&sig) {
        if mask[body.open] {
            continue;
        }
        let acqs = lock_acquisitions(&sig, body.open, body.close);
        if acqs.is_empty() {
            continue;
        }
        for w in body.open..body.close {
            let t = sig[w];
            if mask[w]
                || t.kind != TokKind::Ident
                || !BLOCKING_WAITS.contains(&t.text.as_str())
                || !sig.get(w + 1).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            // A condvar wait consumes its own guard as the first
            // argument: that guard is the one lock it may (must) hold.
            let args_close = matching_close(&sig, w + 1, '(', ')');
            let own_guard: Option<&str> = if t.text.starts_with("wait") {
                sig[w + 2..args_close]
                    .iter()
                    .find(|a| a.kind == TokKind::Ident)
                    .map(|a| a.text.as_str())
            } else {
                None
            };
            for a in &acqs {
                if !(a.at < w && w <= a.live_until) {
                    continue;
                }
                if own_guard.is_some() && a.guard.as_deref() == own_guard {
                    continue;
                }
                let held = a
                    .guard
                    .as_deref()
                    .map(|g| format!("guard `{g}` of lock `{}`", a.lock))
                    .unwrap_or_else(|| format!("a temporary guard of lock `{}`", a.lock));
                diags.push(Diagnostic {
                    file: ctx.path.clone(),
                    line: t.line,
                    rule: "guard-across-await-free-wait",
                    message: format!(
                        "`.{}(…)` blocks while {held} (acquired line {}) is still live; \
                         a parked thread holding a lock is a deadlock seed — drop the \
                         guard first (a condvar wait may hold only its own mutex)",
                        t.text, a.line
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_source;

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
    fn r8_flags_seqcst_and_bare_relaxed_but_not_counters() {
        let src = "fn f(a: &AtomicBool, n: &AtomicU64) {\n    a.store(true, Ordering::SeqCst);\n    n.fetch_add(1, Ordering::Relaxed);\n    let _ = n.load(Ordering::Relaxed);\n    if a.load(Ordering::Relaxed) {}\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["atomic-ordering", "atomic-ordering"]);
        assert_eq!(d[0].line, 2); // the SeqCst store
        assert_eq!(d[1].line, 5); // the Relaxed non-counter load
    }

    #[test]
    fn r8_accepts_ordering_comments_and_acquire_release() {
        let src = "fn f(a: &AtomicBool) {\n    // ORDERING: monotonic latch; readers only gate control flow.\n    a.store(true, Ordering::Relaxed);\n    a.store(true, Ordering::Release);\n    if a.load(Ordering::Acquire) {}\n}\n";
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn r8_requires_literal_ordering_on_rmw() {
        let src = "fn f(n: &AtomicU64, o: Ordering) {\n    n.fetch_add(1, o);\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["atomic-ordering"]);
        assert!(d[0].message.contains("name its `Ordering`"));
    }

    #[test]
    fn r8_ignores_vec_swap_and_test_modules() {
        let src = "fn f(v: &mut Vec<u32>) {\n    v.swap(0, 1);\n}\n#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicBool) { a.store(true, Ordering::SeqCst); }\n}\n";
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn r9_reports_cycle_with_witness_path() {
        let src = "fn a(s: &S) {\n    let q = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n    let c = s.cache.lock().unwrap_or_else(|e| e.into_inner());\n    drop(c); drop(q);\n}\nfn b(s: &S) {\n    let c = s.cache.lock().unwrap_or_else(|e| e.into_inner());\n    let q = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n    drop(q); drop(c);\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["lock-order"]);
        assert!(d[0].message.contains("cache -> queue -> cache") || d[0].message.contains("queue -> cache -> queue"), "{}", d[0].message);
        assert!(d[0].message.contains("while holding"));
    }

    #[test]
    fn r9_accepts_nested_but_acyclic_and_drop_breaks_liveness() {
        let src = "fn a(s: &S) {\n    let q = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n    let c = s.cache.lock().unwrap_or_else(|e| e.into_inner());\n}\nfn b(s: &S) {\n    let c = s.cache.lock().unwrap_or_else(|e| e.into_inner());\n    drop(c);\n    let q = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n}\n";
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn r9_flags_relocking_the_same_mutex() {
        let src = "fn f(s: &S) {\n    let a = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n    let b = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["lock-order"]);
        assert!(d[0].message.contains("queue -> queue"));
    }

    #[test]
    fn r11_flags_unwrap_expect_macros_and_indexing() {
        let src = "fn f(v: &[u32], o: Option<u32>) -> u32 {\n    let a = o.unwrap();\n    let b = v[0];\n    if a > b { panic!(\"no\") }\n    a\n}\n";
        let c = FileCtx {
            panic_free_path: true,
            ..ctx()
        };
        let d = lint_source(&c, src);
        assert_eq!(rules_of(&d), vec!["panic-path"; 3]);
        // Off the panic-free path the same source is fine.
        assert!(lint_source(&ctx(), src).is_empty());
    }

    #[test]
    fn r11_skips_tests_attributes_and_allows() {
        let src = "fn f(v: &[u32]) -> Option<&u32> {\n    #[allow(dead_code)]\n    // also-lint: allow(panic-path) — index is len-checked two lines up\n    let x = &v[0];\n    v.first()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let c = FileCtx {
            panic_free_path: true,
            ..ctx()
        };
        assert!(lint_source(&c, src).is_empty());
    }

    #[test]
    fn r12_flags_guard_held_across_recv_but_not_condvars_own_mutex() {
        let src = "fn bad(s: &S) {\n    let q = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n    let msg = s.rx.recv();\n}\nfn good(s: &S) {\n    let mut q = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n    q = s.ready.wait(q).unwrap_or_else(|e| e.into_inner());\n    drop(q);\n    let msg = s.rx.recv();\n}\n";
        let d = lint_source(&ctx(), src);
        assert_eq!(rules_of(&d), vec!["guard-across-await-free-wait"]);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("guard `q`"));
    }

    #[test]
    fn r12_flags_second_guard_during_condvar_wait() {
        let src = "fn f(s: &S) {\n    let c = s.cache.lock().unwrap_or_else(|e| e.into_inner());\n    let mut q = s.queue.lock().unwrap_or_else(|e| e.into_inner());\n    q = s.ready.wait(q).unwrap_or_else(|e| e.into_inner());\n}\n";
        let d = lint_source(&ctx(), src);
        assert!(d.iter().any(|d| d.rule == "guard-across-await-free-wait"
            && d.message.contains("guard `c`")));
    }
}
