//! Concurrency pass: guard-liveness tracking over the token stream.
//!
//! The transport layer (PRs 6–9) is hand-built on `Mutex` + `Condvar`,
//! so the three classic ways threaded code deadlocks or stalls are now
//! reachable from every query: inconsistent lock acquisition order
//! across call sites, blocking while a guard is live, and a guard
//! smuggled into another thread. This pass tracks `MutexGuard` bindings
//! to end-of-scope (token-level brace matching, no parser) and reports:
//!
//! * `conc-lock-order` — a lock-acquisition-order cycle. Every
//!   "lock B acquired while lock A is held" site contributes a directed
//!   edge A→B to a workspace-wide graph ([`LockEdge`]); any edge on a
//!   cycle (including a re-acquisition self-edge) is a potential
//!   deadlock and is reported at its acquisition site.
//! * `conc-blocking-hold` — a blocking call (mailbox send/recv, condvar
//!   waits, socket writes, `thread::sleep`, dials) while a guard is
//!   live. Condvar-style waits that *consume* the guard (the guard name
//!   appears in the call's arguments, as in
//!   `not_full.wait_timeout(state, …)`) are the sanctioned pattern and
//!   are exempt.
//! * `conc-guard-across-spawn` — a live guard's name captured by a
//!   `thread::spawn` call or a `move` closure: guards are `!Send` in
//!   spirit even where the compiler allows a borrow to slip through,
//!   and holding one across a spawn point extends its critical section
//!   by an unbounded amount.
//!
//! Lock identities are file-qualified (`<path>#<name>`): a `Mutex`/
//! `RwLock` struct field or static, a `let`-bound `Mutex::new`, or a
//! guard-returning helper method (`fn lock(…) -> MutexGuard`, resolved
//! to the field its body locks when possible). Acquisitions are
//! `.lock()`/`.read()`/`.write()` on a known lock name and calls of
//! known helper methods.

use super::FileCtx;
use crate::lexer::Tok;
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// One "`to` acquired while `from` was held" observation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Lock already held (file-qualified id).
    pub from: String,
    /// Lock acquired under it (file-qualified id).
    pub to: String,
    /// File of the inner acquisition.
    pub file: String,
    /// Line of the inner acquisition.
    pub line: u32,
}

/// Calls that can block the current thread for an unbounded (or
/// scheduler-decided) time. Flagged only while a guard is live.
const BLOCKING: &[&str] = &[
    "send_blocking",
    "send_timeout",
    "send_tagged",
    "send",
    "recv_timeout",
    "recv",
    "wait",
    "wait_timeout",
    "sleep",
    "write_frame",
    "read_frame",
    "write_all",
    "read_exact",
    "flush",
    "connect",
    "join",
];

/// How long a tracked guard stays live.
#[derive(Debug, Clone, PartialEq)]
enum GuardEnd {
    /// Bound guard: dies when the enclosing block (brace depth at
    /// binding time) closes.
    Depth(i32),
    /// Statement temporary: dies after this token index.
    Token(usize),
}

#[derive(Debug, Clone)]
struct Guard {
    /// Binding name (`None` for statement temporaries).
    name: Option<String>,
    /// File-qualified lock id.
    lock: String,
    /// Acquisition line (for messages).
    line: u32,
    end: GuardEnd,
}

/// Run the pass over one file: violations plus the file's contribution
/// to the workspace lock-order graph. Cycle detection over the edges is
/// the driver's job ([`order_cycles`]) so intra- and cross-file cycles
/// are found by the same code.
pub fn run(ctx: &FileCtx<'_>) -> (Vec<Violation>, Vec<LockEdge>) {
    let locks = collect_locks(ctx);
    if locks.names.is_empty() && locks.helpers.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let toks = ctx.tokens;
    let mut out = Vec::new();
    let mut edges = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_start = 0usize;
    let mut ix = 0usize;
    while ix < toks.len() {
        // Expire statement temporaries.
        guards.retain(|g| !matches!(g.end, GuardEnd::Token(end) if ix > end));
        if ctx.in_test[ix] {
            match &toks[ix].tok {
                // Keep depth honest through masked test modules.
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ => {}
            }
            ix += 1;
            continue;
        }
        match &toks[ix].tok {
            Tok::Punct('{') => {
                depth += 1;
                stmt_start = ix + 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                stmt_start = ix + 1;
                guards.retain(|g| !matches!(g.end, GuardEnd::Depth(d) if d > depth));
            }
            Tok::Punct(';') => stmt_start = ix + 1,
            // drop(guard) ends a binding early.
            Tok::Ident(id) if id == "drop" && ctx.punct(ix + 1, '(') => {
                if let Some(name) = ctx.ident(ix + 2) {
                    if ctx.punct(ix + 3, ')') {
                        guards.retain(|g| g.name.as_deref() != Some(name));
                    }
                }
            }
            Tok::Ident(id) if id == "move" && ctx.punct(ix + 1, '|') => {
                if let Some((name, lock)) = closure_captures_guard(ctx, ix + 1, &guards) {
                    out.push(ctx.violation(
                        ix,
                        "conc-guard-across-spawn",
                        format!(
                            "guard `{name}` of `{lock}` is captured by a `move` closure; \
                             a lock guard must not cross a closure/thread boundary"
                        ),
                    ));
                }
            }
            Tok::Ident(id) if id == "spawn" && ctx.punct(ix + 1, '(') => {
                if let Some(args) = super::call_args(toks, ix + 1) {
                    for (from, to) in args {
                        for g in &guards {
                            let Some(name) = &g.name else { continue };
                            if (from..to).any(|j| ctx.ident(j) == Some(name.as_str())) {
                                out.push(ctx.violation(
                                    ix,
                                    "conc-guard-across-spawn",
                                    format!(
                                        "guard `{name}` of `{}` (held since line {}) is \
                                         referenced inside a `spawn` call; the guard would \
                                         cross a thread boundary",
                                        g.lock, g.line
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            Tok::Ident(id) => {
                if let Some(lock_id) = acquisition_at(ctx, ix, &locks) {
                    record_acquisition(
                        ctx,
                        ix,
                        &lock_id,
                        &mut guards,
                        &mut edges,
                        &mut out,
                        depth,
                        stmt_start,
                    );
                    // Skip past `name (` so the method ident is not also
                    // treated as a blocking call.
                    ix += 1;
                    continue;
                }
                if BLOCKING.contains(&id.as_str()) && ctx.punct(ix + 1, '(') && !guards.is_empty() {
                    // Condvar pattern: a wait that consumes the guard
                    // (guard name among the arguments) is the sanctioned
                    // way to sleep on a condition — exempt.
                    let consumes_guard = super::call_args(toks, ix + 1)
                        .map(|args| {
                            args.iter().any(|&(from, to)| {
                                (from..to).any(|j| {
                                    ctx.ident(j).is_some_and(|w| {
                                        guards.iter().any(|g| g.name.as_deref() == Some(w))
                                    })
                                })
                            })
                        })
                        .unwrap_or(false);
                    if !consumes_guard {
                        let g = &guards[guards.len() - 1];
                        out.push(ctx.violation(
                            ix,
                            "conc-blocking-hold",
                            format!(
                                "`{id}(…)` may block while the guard of `{}` (held since \
                                 line {}) is live; release the lock first or justify",
                                g.lock, g.line
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
        ix += 1;
    }
    out.sort();
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);
    edges.sort();
    edges.dedup();
    (out, edges)
}

/// Handle one acquisition of `lock_id` at token `ix` (the method ident):
/// emit order edges against live guards, detect re-entry, and start
/// tracking the new guard.
#[expect(
    clippy::too_many_arguments,
    reason = "one acquisition needs the file context, the lock, the guard table and the edge sink at once"
)]
fn record_acquisition(
    ctx: &FileCtx<'_>,
    ix: usize,
    lock_id: &str,
    guards: &mut Vec<Guard>,
    edges: &mut Vec<LockEdge>,
    out: &mut Vec<Violation>,
    depth: i32,
    stmt_start: usize,
) {
    for g in guards.iter() {
        if g.lock == lock_id {
            // Non-reentrant std locks: re-acquiring while held is an
            // unconditional self-deadlock, no graph needed.
            out.push(ctx.violation(
                ix,
                "conc-lock-order",
                format!(
                    "`{lock_id}` is re-acquired while its own guard (line {}) is still \
                     live — std mutexes are not reentrant, this self-deadlocks",
                    g.line
                ),
            ));
        } else {
            edges.push(LockEdge {
                from: g.lock.clone(),
                to: lock_id.to_string(),
                file: ctx.path.to_string(),
                line: ctx.line(ix),
            });
        }
    }
    let Some(close) = matching_paren(ctx, ix + 1) else {
        return;
    };
    let (name, end) = guard_binding(ctx, close, depth, stmt_start);
    guards.push(Guard {
        name,
        lock: lock_id.to_string(),
        line: ctx.line(ix),
        end,
    });
}

/// Is token `ix` the method ident of a lock acquisition? Returns the
/// file-qualified lock id.
fn acquisition_at(ctx: &FileCtx<'_>, ix: usize, locks: &Locks) -> Option<String> {
    let method = ctx.ident(ix)?;
    if !(ix > 0 && ctx.punct(ix - 1, '.') && ctx.punct(ix + 1, '(')) {
        return None;
    }
    match method {
        "lock" | "read" | "write" => {
            // `<field>.lock()` on a declared Mutex/RwLock name.
            if let Some(recv) = ctx.ident(ix.wrapping_sub(2)) {
                if let Some((id, is_rw)) = locks.names.get(recv) {
                    let rw_ok = method == "lock" && !is_rw || *is_rw && method != "lock";
                    if rw_ok {
                        return Some(id.clone());
                    }
                }
            }
            // `self.lock()`-style helper defined in this file.
            if method == "lock" {
                if let Some(id) = locks.helpers.get(method) {
                    return Some(id.clone());
                }
            }
            None
        }
        m => locks.helpers.get(m).cloned(),
    }
}

struct Locks {
    /// Declared lock names (field/static/local) → (id, is_rwlock).
    names: BTreeMap<String, (String, bool)>,
    /// Guard-returning helper methods → lock id.
    helpers: BTreeMap<String, String>,
}

/// Collect the file's lock identities: `name: Mutex<…>` / `RwLock<…>`
/// fields and statics, `let name = …Mutex::new…` locals, and helper
/// methods whose return type names a guard.
fn collect_locks(ctx: &FileCtx<'_>) -> Locks {
    let toks = ctx.tokens;
    let mut names = BTreeMap::new();
    let mut helpers = BTreeMap::new();
    let id_of = |name: &str| format!("{}#{}", ctx.path, name);
    let mut ix = 0usize;
    while ix < toks.len() {
        match &toks[ix].tok {
            // `name : … Mutex < …` (struct field, static, fn param).
            Tok::Ident(name)
                if ctx.punct(ix + 1, ':') && !ctx.path_sep(ix + 1) && !ctx.punct(ix, ':') =>
            {
                // Scan the type tokens up to a delimiter for Mutex</RwLock<.
                let mut jx = ix + 2;
                while jx < toks.len() && jx < ix + 12 {
                    match &toks[jx].tok {
                        Tok::Punct(',')
                        | Tok::Punct(';')
                        | Tok::Punct('=')
                        | Tok::Punct('{')
                        | Tok::Punct('}')
                        | Tok::Punct(')') => break,
                        Tok::Ident(t)
                            if (t == "Mutex" || t == "RwLock") && ctx.punct(jx + 1, '<') =>
                        {
                            names.insert(name.clone(), (id_of(name), t == "RwLock"));
                            break;
                        }
                        _ => {}
                    }
                    jx += 1;
                }
            }
            // `let [mut] name = … Mutex::new …`.
            Tok::Ident(id) if id == "let" => {
                let mut jx = ix + 1;
                if ctx.ident(jx) == Some("mut") {
                    jx += 1;
                }
                if let Some(name) = ctx.ident(jx) {
                    if ctx.punct(jx + 1, '=') {
                        let mut kx = jx + 2;
                        let mut d = 0i32;
                        while kx < toks.len() {
                            match &toks[kx].tok {
                                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
                                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => d -= 1,
                                Tok::Punct(';') if d <= 0 => break,
                                Tok::Ident(t)
                                    if (t == "Mutex" || t == "RwLock")
                                        && ctx.path_sep(kx + 1)
                                        && ctx.ident(kx + 3) == Some("new") =>
                                {
                                    names.insert(name.to_string(), (id_of(name), t == "RwLock"));
                                }
                                _ => {}
                            }
                            kx += 1;
                        }
                    }
                }
            }
            // `fn name(…) -> … MutexGuard/RwLock*Guard …`.
            Tok::Ident(id) if id == "fn" => {
                if let Some((name, body_open)) = guard_helper_at(ctx, ix) {
                    let resolved =
                        helper_lock_field(ctx, body_open, &names).unwrap_or_else(|| id_of(&name));
                    helpers.insert(name, resolved);
                }
            }
            _ => {}
        }
        ix += 1;
    }
    Locks { names, helpers }
}

/// If the `fn` at `ix` returns a guard type, yield (fn name, index of
/// its body `{`).
fn guard_helper_at(ctx: &FileCtx<'_>, ix: usize) -> Option<(String, usize)> {
    let name = ctx.ident(ix + 1)?.to_string();
    // Find the param list, then the body `{` / item end `;`, checking
    // the return-type tokens for a guard type name.
    let toks = ctx.tokens;
    let mut jx = ix + 2;
    while jx < toks.len() && !ctx.punct(jx, '(') {
        if ctx.punct(jx, '{') || ctx.punct(jx, ';') {
            return None;
        }
        jx += 1;
    }
    let close = matching_paren(ctx, jx)?;
    let mut kx = close + 1;
    let mut has_guard = false;
    while kx < toks.len() {
        match &toks[kx].tok {
            Tok::Punct('{') => return has_guard.then_some((name, kx)),
            Tok::Punct(';') => return None,
            Tok::Ident(t)
                if t == "MutexGuard" || t == "RwLockReadGuard" || t == "RwLockWriteGuard" =>
            {
                has_guard = true;
            }
            _ => {}
        }
        kx += 1;
    }
    None
}

/// Which declared lock a helper's body acquires: the receiver field of
/// the first `.lock()` in the body, when it is a known lock name.
fn helper_lock_field(
    ctx: &FileCtx<'_>,
    body_open: usize,
    names: &BTreeMap<String, (String, bool)>,
) -> Option<String> {
    let toks = ctx.tokens;
    let mut d = 0i32;
    let mut jx = body_open;
    while jx < toks.len() {
        match &toks[jx].tok {
            Tok::Punct('{') => d += 1,
            Tok::Punct('}') => {
                d -= 1;
                if d == 0 {
                    return None;
                }
            }
            Tok::Ident(m)
                if (m == "lock" || m == "read" || m == "write")
                    && ctx.punct(jx + 1, '(')
                    && jx >= 2
                    && ctx.punct(jx - 1, '.') =>
            {
                if let Some(recv) = ctx.ident(jx - 2) {
                    if let Some((id, _)) = names.get(recv) {
                        return Some(id.clone());
                    }
                }
            }
            _ => {}
        }
        jx += 1;
    }
    None
}

/// Determine how the acquisition at method ident `ix` (call closes at
/// `close`) is held: a `let`-bound guard (scope = enclosing block) or a
/// statement temporary (scope = end of statement / scrutinee block).
fn guard_binding(
    ctx: &FileCtx<'_>,
    close: usize,
    depth: i32,
    stmt_start: usize,
) -> (Option<String>, GuardEnd) {
    let toks = ctx.tokens;
    // `.expect("…")` / `.unwrap()` after the acquisition unwraps to the
    // same guard — skip the chain so `let g = m.lock().expect(…);` binds.
    let mut close = close;
    while ctx.punct(close + 1, '.')
        && matches!(ctx.ident(close + 2), Some("expect" | "unwrap"))
        && ctx.punct(close + 3, '(')
    {
        match matching_paren(ctx, close + 3) {
            Some(c) => close = c,
            None => break,
        }
    }
    // `let [mut] name = <acq>();` or `let [mut] name = match <acq>() { … };`
    // bind the guard itself; anything trailing the call makes the guard a
    // temporary of the statement (`let len = m.lock().queue.len();`).
    if ctx.ident(stmt_start) == Some("let") {
        let mut jx = stmt_start + 1;
        if ctx.ident(jx) == Some("mut") {
            jx += 1;
        }
        if let Some(name) = ctx.ident(jx) {
            if ctx.punct(jx + 1, '=') {
                let direct = ctx.punct(close + 1, ';');
                let via_match = ctx.ident(jx + 2) == Some("match");
                if direct || via_match {
                    return (Some(name.to_string()), GuardEnd::Depth(depth));
                }
            }
        }
    }
    // Temporary: live to the statement's `;`, through the brace block
    // when the acquisition sits in an `if let`/`while let`/`match` head
    // (Rust extends scrutinee temporaries to the end of the construct),
    // or to the enclosing block's `}` for a tail expression.
    let mut d = 0i32;
    let mut jx = close + 1;
    while jx < toks.len() {
        match &toks[jx].tok {
            Tok::Punct('(') | Tok::Punct('[') => d += 1,
            Tok::Punct('{') if d == 0 => {
                // Scrutinee: walk to the matching `}`.
                let mut bd = 0i32;
                let mut kx = jx;
                while kx < toks.len() {
                    match &toks[kx].tok {
                        Tok::Punct('{') => bd += 1,
                        Tok::Punct('}') => {
                            bd -= 1;
                            if bd == 0 {
                                return (None, GuardEnd::Token(kx));
                            }
                        }
                        _ => {}
                    }
                    kx += 1;
                }
                return (None, GuardEnd::Token(toks.len() - 1));
            }
            Tok::Punct('{') => d += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                if d == 0 {
                    // Call-argument temporary or tail expression: dies
                    // with the enclosing call / block.
                    return (None, GuardEnd::Token(jx));
                }
                d -= 1;
            }
            Tok::Punct(';') if d == 0 => return (None, GuardEnd::Token(jx)),
            _ => {}
        }
        jx += 1;
    }
    (None, GuardEnd::Token(toks.len() - 1))
}

/// Does the closure whose first `|` is at `bar` mention a live guard?
fn closure_captures_guard(
    ctx: &FileCtx<'_>,
    bar: usize,
    guards: &[Guard],
) -> Option<(String, String)> {
    let toks = ctx.tokens;
    // Find the closing `|` of the parameter list.
    let mut jx = bar + 1;
    while jx < toks.len() && !ctx.punct(jx, '|') {
        jx += 1;
    }
    // Body: a brace block, or an expression up to `,` / `)` at depth 0.
    let (from, to) = if ctx.punct(jx + 1, '{') {
        let mut bd = 0i32;
        let mut kx = jx + 1;
        loop {
            if kx >= toks.len() {
                break (jx + 1, toks.len());
            }
            match &toks[kx].tok {
                Tok::Punct('{') => bd += 1,
                Tok::Punct('}') => {
                    bd -= 1;
                    if bd == 0 {
                        break (jx + 1, kx);
                    }
                }
                _ => {}
            }
            kx += 1;
        }
    } else {
        let mut d = 0i32;
        let mut kx = jx + 1;
        loop {
            if kx >= toks.len() {
                break (jx + 1, toks.len());
            }
            match &toks[kx].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') if d == 0 => {
                    break (jx + 1, kx)
                }
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => d -= 1,
                Tok::Punct(',') if d == 0 => break (jx + 1, kx),
                Tok::Punct(';') if d == 0 => break (jx + 1, kx),
                _ => {}
            }
            kx += 1;
        }
    };
    for g in guards {
        let Some(name) = &g.name else { continue };
        if (from..to).any(|j| ctx.ident(j) == Some(name.as_str())) {
            return Some((name.clone(), g.lock.clone()));
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(ctx: &FileCtx<'_>, open: usize) -> Option<usize> {
    if !ctx.punct(open, '(') {
        return None;
    }
    let toks = ctx.tokens;
    let mut d = 0i32;
    let mut jx = open;
    while jx < toks.len() {
        match &toks[jx].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                d -= 1;
                if d == 0 {
                    return Some(jx);
                }
            }
            _ => {}
        }
        jx += 1;
    }
    None
}

/// Cycle detection over the merged workspace edge set: any edge whose
/// target can reach its source again is on an acquisition-order cycle.
/// Violations are attributed to each participating edge's site so every
/// involved file sees its half of the inversion.
pub fn order_cycles(edges: &[LockEdge]) -> Vec<Violation> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let reaches = |from: &str, target: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut out = Vec::new();
    let mut sorted: Vec<&LockEdge> = edges.iter().collect();
    sorted.sort();
    sorted
        .dedup_by(|a, b| a.file == b.file && a.line == b.line && a.from == b.from && a.to == b.to);
    for e in sorted {
        if reaches(&e.to, &e.from) {
            let counter = edges
                .iter()
                .find(|o| o.from == e.to || (o.from != e.from && o.to == e.from))
                .map(|o| format!(" (counter-ordered acquisition at {}:{})", o.file, o.line))
                .unwrap_or_default();
            out.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: "conc-lock-order",
                message: format!(
                    "lock-order cycle: `{}` is acquired while `{}` is held here, but the \
                     reverse order also occurs{counter}; pick one global order",
                    e.to, e.from
                ),
            });
        }
    }
    out.sort();
    out.dedup();
    out
}
