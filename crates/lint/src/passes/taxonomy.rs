//! Telemetry-taxonomy pass: every event/span name reaching a `Recorder`
//! emit site (`.span` / `.event` / `.end`, or `Op::open` in
//! `hyperm-core`, which opens the span for its caller), a forensics matcher
//! (`.spans_named` / `.event_count`) or a metrics counter (`.add` /
//! `.counter`) must be canonical — either a string literal present in
//! `hyperm_telemetry::names::ALL` (counters may also use
//! `counters::ALL`) or a `names::CONST` / `counters::CONST` path whose
//! lowercased ident resolves to one. The canonical list is imported from
//! the telemetry crate itself at build time, so this pass can never
//! drift from the real source of truth.

use super::{call_args, FileCtx};
use crate::lexer::Tok;
use crate::report::Violation;
use hyperm_telemetry::taxonomy::{is_canonical, is_canonical_counter};

/// Emit-site methods, called as `.method(…)` or `Type::method(…)`:
/// (method name, 0-based index of the name argument, counter namespace
/// allowed).
const SITES: &[(&str, usize, bool)] = &[
    ("open", 3, false),
    ("span", 1, false),
    ("event", 1, false),
    ("count_event", 1, false),
    ("end", 1, false),
    ("spans_named", 0, false),
    ("event_count", 0, false),
    ("add", 0, true),
    ("counter", 0, true),
];

/// Run the pass over one file.
pub fn run(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for ix in 0..toks.len() {
        if ctx.in_test[ix] {
            continue;
        }
        if !(ctx.punct(ix, '.') || (ix > 0 && ctx.path_sep(ix - 1))) {
            continue;
        }
        let Some(method) = ctx.ident(ix + 1) else {
            continue;
        };
        let Some(&(_, arg_ix, counter_ok)) = SITES.iter().find(|(m, _, _)| *m == method) else {
            continue;
        };
        if !ctx.punct(ix + 2, '(') {
            continue;
        }
        let Some(args) = call_args(toks, ix + 2) else {
            continue;
        };
        let Some(&(from, to)) = args.get(arg_ix) else {
            continue;
        };
        let ok = |name: &str| {
            if counter_ok {
                is_canonical_counter(name)
            } else {
                is_canonical(name)
            }
        };
        // Shape 1: a lone string literal.
        if to == from + 1 {
            if let Tok::Str(name) = &toks[from].tok {
                if !ok(name) {
                    out.push(ctx.violation(
                        from,
                        "tel-taxonomy",
                        format!(
                            "event name {name:?} is not in the canonical taxonomy \
                             (hyperm_telemetry::names::ALL); add it there or fix the name"
                        ),
                    ));
                }
                continue;
            }
        }
        // Shape 2: a path ending `names::CONST` / `counters::CONST`.
        if to >= from + 3 && ctx.path_sep(to - 3) {
            let ns = ctx.ident(to - 4);
            if let (Some(ns), Some(konst)) = (ns, ctx.ident(to - 1)) {
                if ns == "names" || ns == "counters" {
                    let resolved = konst.to_ascii_lowercase();
                    let valid = if ns == "counters" {
                        counter_ok && is_canonical_counter(&resolved)
                    } else {
                        ok(&resolved)
                    };
                    if !valid {
                        out.push(ctx.violation(
                            to - 1,
                            "tel-taxonomy",
                            format!(
                                "`{ns}::{konst}` does not resolve to a canonical taxonomy name"
                            ),
                        ));
                    }
                }
            }
        }
        // Anything else (a variable, `ev.name`, …) is dynamic — the
        // runtime taxonomy test covers those.
    }
    out
}
