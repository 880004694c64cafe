//! Token-stream analysis helpers shared by the concurrency rules
//! (R8, R9, R11, R12).
//!
//! The original seven rules get by on flat token windows. Auditing
//! atomics and locks needs three things beyond that:
//!
//! * **receiver resolution** — `shard.queue.lock()` acquires the lock
//!   *field* `queue`, and `self.counter(name).fetch_add(…)` operates on
//!   whatever `counter(…)` returned; [`receiver_name`] walks method-call
//!   chains backwards (over `(…)` and `[…]` groups) to the last named
//!   component before the final `.`.
//! * **test masking** — `#[cfg(test)]` modules and `#[test]` functions
//!   legitimately unwrap, spin on `SeqCst`, and park holding locks;
//!   [`test_mask`] marks their token spans so the concurrency rules
//!   audit only code that ships.
//! * **scope structure** — guard liveness ("is a `MutexGuard` still
//!   alive here?") follows Rust's drop rules closely enough for a
//!   linter: a `let`-bound guard lives to the end of its enclosing
//!   block (or an explicit `drop(name)`), a temporary guard to the end
//!   of its statement — extended through the following `{…}` block when
//!   it is the scrutinee of an `if let`/`while`/`match` (temporaries in
//!   scrutinee position outlive the block they head).
//!
//! Everything here operates on the *non-comment* token view returned by
//! [`sig_view`]; comments carry suppressions and justifications, not
//! code.

use crate::lexer::{Tok, TokKind};

/// The non-comment token view the analyses run on.
pub fn sig_view(toks: &[Tok]) -> Vec<&Tok> {
    toks.iter().filter(|t| !t.is_comment()).collect()
}

/// Index of the close bracket matching the open bracket at `open`, or
/// `sig.len() - 1` when unbalanced (unterminated input).
pub fn matching_close(sig: &[&Tok], open: usize, open_ch: char, close_ch: char) -> usize {
    let mut depth = 0isize;
    for (k, t) in sig.iter().enumerate().skip(open) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    sig.len().saturating_sub(1)
}

/// Index of the open bracket matching the close bracket at `close`,
/// scanning backwards. `None` when unbalanced.
pub fn matching_open(sig: &[&Tok], close: usize, open_ch: char, close_ch: char) -> Option<usize> {
    let mut depth = 0isize;
    let mut k = close;
    loop {
        let t = sig[k];
        if t.is_punct(close_ch) {
            depth += 1;
        } else if t.is_punct(open_ch) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
}

/// Resolves the receiver of the method call whose `.` sits at `dot`:
/// the last named component before the dot, looking through one or
/// more trailing `(…)` / `[…]` groups. `shard.queue.lock()` → `queue`;
/// `self.counter(name).fetch_add(…)` → `counter`; `deques[w].pop()` →
/// `deques`. `None` when the receiver is not a named chain (a literal,
/// a block expression, …).
pub fn receiver_name(sig: &[&Tok], dot: usize) -> Option<String> {
    let mut k = dot;
    loop {
        if k == 0 {
            return None;
        }
        k -= 1;
        match sig[k].kind {
            TokKind::Punct(')') => k = matching_open(sig, k, '(', ')')?,
            TokKind::Punct(']') => k = matching_open(sig, k, '[', ']')?,
            TokKind::Ident => return Some(sig[k].text.clone()),
            _ => return None,
        }
    }
}

/// `true` when `ident` is a Rust keyword that can directly precede a
/// `[` without forming an index expression (`let [a, b] = …`,
/// `return [x]`, `in [..]`, …).
pub fn is_non_indexing_keyword(ident: &str) -> bool {
    matches!(
        ident,
        "let"
            | "ref"
            | "mut"
            | "in"
            | "return"
            | "break"
            | "continue"
            | "if"
            | "else"
            | "match"
            | "move"
            | "as"
            | "static"
            | "const"
            | "use"
            | "pub"
            | "crate"
            | "where"
            | "for"
            | "while"
            | "loop"
            | "impl"
            | "fn"
            | "enum"
            | "struct"
            | "type"
            | "trait"
            | "mod"
            | "unsafe"
            | "dyn"
            | "async"
            | "await"
            | "yield"
            | "box"
    )
}

/// Marks every sig-index belonging to test-only code: an attribute
/// mentioning `test` (`#[cfg(test)]`, `#[test]`, `#[cfg(any(test, …))]`
/// — but not `#[cfg(not(test))]`) plus the item it annotates, through
/// the item's closing brace (or terminating `;`). Later attributes and
/// visibility tokens between the attribute and the item body are
/// included in the span.
pub fn test_mask(sig: &[&Tok]) -> Vec<bool> {
    let mut mask = vec![false; sig.len()];
    let mut i = 0;
    while i + 1 < sig.len() {
        if !(sig[i].is_punct('#') && sig[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let rb = matching_close(sig, i + 1, '[', ']');
        let inner = &sig[i + 2..rb];
        let mentions_test = inner.iter().enumerate().any(|(j, t)| {
            t.is_ident("test")
                && !(j >= 2 && inner[j - 1].is_punct('(') && inner[j - 2].is_ident("not"))
        });
        if !mentions_test {
            i = rb + 1;
            continue;
        }
        // Span: from the attribute through the annotated item. Walk
        // past further attributes and header tokens to the first `{`
        // (mask through its matching `}`) or `;`.
        let mut j = rb + 1;
        let mut end = sig.len() - 1;
        while j < sig.len() {
            if sig[j].is_punct('#') && j + 1 < sig.len() && sig[j + 1].is_punct('[') {
                j = matching_close(sig, j + 1, '[', ']') + 1;
                continue;
            }
            if sig[j].is_punct('{') {
                end = matching_close(sig, j, '{', '}');
                break;
            }
            if sig[j].is_punct(';') {
                end = j;
                break;
            }
            j += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// One function body found in the stream: brace span (sig indices,
/// inclusive) and the function's name.
#[derive(Debug)]
pub struct FnBody {
    /// The function's name (the identifier after `fn`).
    pub name: String,
    /// Sig index of the body's opening `{`.
    pub open: usize,
    /// Sig index of the body's matching `}`.
    pub close: usize,
}

/// Finds every `fn name … { … }` body. Bodyless declarations (trait
/// methods ending in `;`) are skipped; nested functions are reported as
/// their own (overlapping) bodies.
pub fn fn_bodies(sig: &[&Tok]) -> Vec<FnBody> {
    let mut out = Vec::new();
    for i in 0..sig.len() {
        if !sig[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = sig.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        // Scan to the body's `{`, or to `;` for a bodyless declaration.
        // Parameter lists are skipped as balanced groups so a closure
        // parameter's braces cannot be mistaken for the body.
        let mut j = i + 2;
        let mut open = None;
        while j < sig.len() {
            if sig[j].is_punct('(') {
                j = matching_close(sig, j, '(', ')') + 1;
                continue;
            }
            if sig[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if sig[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        if let Some(open) = open {
            out.push(FnBody {
                name: name_tok.text.clone(),
                open,
                close: matching_close(sig, open, '{', '}'),
            });
        }
    }
    out
}

/// One lock acquisition inside a function body.
#[derive(Debug)]
pub struct LockAcq {
    /// The lock's resolved name: the receiver field for `x.y.lock()`,
    /// the first argument's base name for a free `lock(&x[i])` helper.
    pub lock: String,
    /// Name of the `let`-bound guard, if the acquisition is bound.
    pub guard: Option<String>,
    /// Sig index of the `lock` identifier.
    pub at: usize,
    /// Source line of the acquisition.
    pub line: u32,
    /// Sig index (inclusive) up to which the guard is considered live.
    pub live_until: usize,
}

/// Finds the `.lock()` / free `lock(…)` acquisitions in `sig[open..=close]`
/// and models each guard's liveness (see the module docs for the rules).
pub fn lock_acquisitions(sig: &[&Tok], open: usize, close: usize) -> Vec<LockAcq> {
    let mut out = Vec::new();
    for w in open..close {
        if !sig[w].is_ident("lock") {
            continue;
        }
        let Some(next) = sig.get(w + 1) else { continue };
        if !next.is_punct('(') {
            continue;
        }
        let args_close = matching_close(sig, w + 1, '(', ')');
        let lock = if w > open && sig[w - 1].is_punct('.') {
            // Method call: resolve the receiver chain.
            match receiver_name(sig, w - 1) {
                Some(n) => n,
                None => continue,
            }
        } else if w > open && sig[w - 1].is_ident("fn") {
            // The definition of a `lock` helper, not an acquisition.
            continue;
        } else {
            // Free helper `lock(&deques[v])`: the last component of the
            // argument's leading field chain is the lock.
            let mut k = w + 2;
            while k < args_close && (sig[k].is_punct('&') || sig[k].is_ident("mut")) {
                k += 1;
            }
            let mut name = None;
            while k < args_close && sig[k].kind == TokKind::Ident {
                name = Some(sig[k].text.clone());
                if k + 1 < args_close && sig[k + 1].is_punct('.') {
                    k += 2;
                } else {
                    break;
                }
            }
            match name {
                Some(n) => n,
                None => continue,
            }
        };
        let (guard, live_until) = guard_liveness(sig, open, close, w, args_close);
        out.push(LockAcq {
            lock,
            guard,
            at: w,
            line: sig[w].line,
            live_until,
        });
    }
    out
}

/// Determines how long the guard produced by the lock call at `w`
/// (arguments ending at `args_close`) stays live, and its binding name
/// if `let`-bound. See the module docs for the liveness model.
fn guard_liveness(
    sig: &[&Tok],
    open: usize,
    close: usize,
    w: usize,
    args_close: usize,
) -> (Option<String>, usize) {
    // Walk the method chain after the lock call. Result adapters
    // (`unwrap`, `expect`, `unwrap_or_else`, …) still yield the guard;
    // any other method *consumes* it — `cache.lock().unwrap().probe(&k)`
    // binds probe's result, not the guard, so a `let` on such a
    // statement does not extend the guard's life (it remains a
    // temporary, dropped at the statement end — or after the scrutinee
    // block it heads).
    let mut consumed = false;
    let mut j = args_close + 1;
    while j + 2 < sig.len() && sig[j].is_punct('.') && sig[j + 2].is_punct('(') {
        let m = sig[j + 1];
        if matches!(
            m.text.as_str(),
            "unwrap" | "expect" | "unwrap_or" | "unwrap_or_else" | "unwrap_or_default"
        ) && m.kind == TokKind::Ident
        {
            j = matching_close(sig, j + 2, '(', ')') + 1;
        } else {
            consumed = true;
            break;
        }
    }
    // Backward scan for `let [mut] NAME = …` within the statement.
    let mut k = w;
    let mut bound: Option<String> = None;
    while !consumed && k > open {
        k -= 1;
        let t = sig[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            let mut n = k + 1;
            if n < sig.len() && sig[n].is_ident("mut") {
                n += 1;
            }
            if n < sig.len() && sig[n].kind == TokKind::Ident {
                bound = Some(sig[n].text.clone());
            }
            break;
        }
    }
    if let Some(name) = bound {
        // Live to the end of the enclosing block — or an explicit
        // `drop(name)`. The enclosing block is the innermost `{` whose
        // span contains `w`.
        let mut block_close = close;
        let mut depth = 0isize;
        for j in (open..w).rev() {
            if sig[j].is_punct('}') {
                depth += 1;
            } else if sig[j].is_punct('{') {
                if depth == 0 {
                    block_close = matching_close(sig, j, '{', '}');
                    break;
                }
                depth -= 1;
            }
        }
        let mut until = block_close;
        let mut j = args_close + 1;
        while j + 2 <= block_close {
            if sig[j].is_ident("drop")
                && sig[j + 1].is_punct('(')
                && sig[j + 2].is_ident(&name)
            {
                until = j;
                break;
            }
            j += 1;
        }
        return (Some(name), until);
    }
    // Temporary: live to the end of its statement — or, when a `{`
    // opens first at the same depth (scrutinee of `if let` / `while` /
    // `match`), through that block.
    let mut depth = 0isize;
    let mut j = args_close + 1;
    while j <= close {
        let t = sig[j];
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                if depth == 0 {
                    return (None, j); // end of enclosing call/args
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return (None, j),
            TokKind::Punct('{') if depth == 0 => {
                return (None, matching_close(sig, j, '{', '}'));
            }
            TokKind::Punct('}') if depth == 0 => return (None, j),
            _ => {}
        }
        j += 1;
    }
    (None, close)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn owned(src: &str) -> Vec<Tok> {
        lex(src)
    }

    #[test]
    fn receiver_resolves_chains_calls_and_indexing() {
        let toks = owned("shard.queue.lock(); self.counter(name).fetch_add(1); deques[w].pop();");
        let sig = sig_view(&toks);
        let dots: Vec<usize> = sig
            .iter()
            .enumerate()
            .filter(|(k, t)| {
                t.is_punct('.')
                    && sig
                        .get(k + 1)
                        .is_some_and(|n| n.is_ident("lock") || n.is_ident("fetch_add") || n.is_ident("pop"))
            })
            .map(|(k, _)| k)
            .collect();
        let names: Vec<String> = dots
            .iter()
            .map(|&d| receiver_name(&sig, d).unwrap())
            .collect();
        assert_eq!(names, vec!["queue", "counter", "deques"]);
    }

    #[test]
    fn test_mask_covers_cfg_test_mod_but_not_cfg_not_test() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n#[cfg(not(test))]\nfn also_live() {}\n";
        let toks = owned(src);
        let sig = sig_view(&toks);
        let mask = test_mask(&sig);
        let unwrap_at = sig.iter().position(|t| t.is_ident("unwrap")).unwrap();
        let live_at = sig.iter().position(|t| t.is_ident("live")).unwrap();
        let also_at = sig.iter().position(|t| t.is_ident("also_live")).unwrap();
        assert!(mask[unwrap_at]);
        assert!(!mask[live_at]);
        assert!(!mask[also_at]);
    }

    #[test]
    fn let_bound_guard_lives_to_block_end_or_drop() {
        let src = "fn f(s: &S) {\n    let q = s.queue.lock().unwrap();\n    use_it(&q);\n    drop(q);\n    more();\n}\n";
        let toks = owned(src);
        let sig = sig_view(&toks);
        let body = &fn_bodies(&sig)[0];
        let acqs = lock_acquisitions(&sig, body.open, body.close);
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].lock, "queue");
        assert_eq!(acqs[0].guard.as_deref(), Some("q"));
        let drop_at = sig.iter().position(|t| t.is_ident("drop")).unwrap();
        assert_eq!(acqs[0].live_until, drop_at);
    }

    #[test]
    fn temporary_guard_ends_at_statement_or_spans_scrutinee_block() {
        let src = "fn f(s: &S) {\n    s.queue.lock().unwrap().push(1);\n    match lock(&s.deques[0]).pop() {\n        Some(x) => eat(x),\n        None => {}\n    }\n}\n";
        let toks = owned(src);
        let sig = sig_view(&toks);
        let body = &fn_bodies(&sig)[0];
        let acqs = lock_acquisitions(&sig, body.open, body.close);
        assert_eq!(acqs.len(), 2);
        // Statement temporary: dead at the `;`.
        assert!(sig[acqs[0].live_until].is_punct(';'));
        // Scrutinee temporary: live through the match block's `}`.
        assert_eq!(acqs[1].lock, "deques");
        assert!(sig[acqs[1].live_until].is_punct('}'));
        let eat_at = sig.iter().position(|t| t.is_ident("eat")).unwrap();
        assert!(acqs[1].live_until > eat_at);
    }

    #[test]
    fn consumed_guard_is_a_temporary_despite_the_let() {
        // The single-flight double-check pattern: the guard is eaten by
        // `.probe(&key)` inside the statement, so `looked` binds the
        // probe result — the guard must not be considered live past the
        // `;` (a later re-lock of `cache` is NOT a self-deadlock).
        let src = "fn f(s: &S) {\n    let looked = s.cache.lock().expect(\"poisoned\").probe(&key);\n    consume(looked);\n    let again = s.cache.lock().expect(\"poisoned\").probe(&key);\n}\n";
        let toks = owned(src);
        let sig = sig_view(&toks);
        let body = &fn_bodies(&sig)[0];
        let acqs = lock_acquisitions(&sig, body.open, body.close);
        assert_eq!(acqs.len(), 2);
        assert_eq!(acqs[0].guard, None);
        assert!(sig[acqs[0].live_until].is_punct(';'));
        assert!(acqs[1].at > acqs[0].live_until, "no overlap, no cycle");
    }

    #[test]
    fn free_lock_helper_definition_is_not_an_acquisition() {
        let src = "fn lock<T>(q: &Deque<T>) -> Guard<'_, T> {\n    q.lock().unwrap_or_else(|e| e.into_inner())\n}\n";
        let toks = owned(src);
        let sig = sig_view(&toks);
        let body = &fn_bodies(&sig)[0];
        let acqs = lock_acquisitions(&sig, body.open, body.close);
        // Only the `q.lock()` inside the body counts — and its
        // temporary guard dies at the body's closing brace.
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].lock, "q");
    }
}
