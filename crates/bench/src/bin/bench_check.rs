//! Bench artifact guard: validate every `BENCH_*.json` emitted by the
//! experiment bins against its schema and the repo's headline bounds.
//!
//! ```text
//! bench_check [DIR]    # default: current directory
//! ```
//!
//! CI runs this after regenerating the artifacts, so a refactor that
//! silently drops a field, breaks a seed, or regresses a headline
//! number (cache speedup, post-heal recall) fails the build instead of
//! shipping a stale-looking artifact. All workloads behind these files
//! are seeded, so the bounds are deterministic, not flaky.
//!
//! Checked per file:
//!
//! * `BENCH_churn.json` — non-empty sweep, recalls in range, perfect
//!   recall at `fail_frac = 0`, `recall_alive >= 0.95` in the repair
//!   arm (the no-repair baseline is allowed to decay — that gap *is*
//!   the result);
//! * `BENCH_faults.json` — non-empty cell grid, `recall_final = 1.0`
//!   after the heal round in every cell;
//! * `BENCH_load.json` — `s12_improvement >= 2.0` (the headline
//!   hot-spot-relief win), relief never worse than no relief, per-cell
//!   `recall >= 0.99` and a sane Gini coefficient;
//! * `BENCH_chaos.json` — non-empty live-cluster chaos scenarios, each
//!   recovering `recall_final = 1.0` with no exhausted retry budgets,
//!   and not a single stale (mis-correlated) reply ever returned.
//!
//! Output is one JSON verdict line per file plus a summary; the process
//! exits non-zero if any check failed.

use hyperm_telemetry::{JsonObj, JsonValue};
use std::process::ExitCode;

/// One artifact checker: schema + bounds, violations accumulated.
type Check = fn(&JsonValue, &mut Errors);

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let checks: [(&str, Check); 4] = [
        ("BENCH_churn.json", check_churn),
        ("BENCH_faults.json", check_faults),
        ("BENCH_load.json", check_load),
        ("BENCH_chaos.json", check_chaos),
    ];

    let mut failed = 0usize;
    for (file, check) in checks {
        let mut errors = Errors::default();
        let path = format!("{dir}/{file}");
        match std::fs::read_to_string(&path) {
            Ok(text) => match JsonValue::parse(&text) {
                Ok(v) => check(&v, &mut errors),
                Err(e) => errors.push(format!("unparseable JSON: {e:?}")),
            },
            Err(e) => errors.push(format!("unreadable: {e}")),
        }
        let ok = errors.0.is_empty();
        if !ok {
            failed += 1;
        }
        println!(
            "{}",
            JsonObj::new()
                .s("file", file)
                .b("ok", ok)
                .u("checks_failed", errors.0.len() as u64)
                .arr(
                    "errors",
                    &errors
                        .0
                        .iter()
                        .map(|e| format!("\"{}\"", hyperm_telemetry::json::escape(e)))
                        .collect::<Vec<_>>()
                )
                .render()
        );
    }
    println!(
        "{}",
        JsonObj::new()
            .b("ok", failed == 0)
            .s("kind", "bench_check")
            .u("files", checks.len() as u64)
            .u("failed", failed as u64)
            .render()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Accumulated schema/bound violations for one artifact.
#[derive(Default)]
struct Errors(Vec<String>);

impl Errors {
    fn push(&mut self, msg: String) {
        self.0.push(msg);
    }

    fn require(&mut self, cond: bool, what: &str) {
        if !cond {
            self.push(what.to_string());
        }
    }
}

/// Numeric field lookup: `None` when missing or non-numeric.
fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

/// Require `key` to be a numeric field; report and return 0 otherwise.
fn need(v: &JsonValue, key: &str, ctx: &str, errs: &mut Errors) -> f64 {
    match num(v, key) {
        Some(x) => x,
        None => {
            errs.push(format!("{ctx}: missing numeric field {key:?}"));
            0.0
        }
    }
}

fn check_workload(v: &JsonValue, fields: &[&str], errs: &mut Errors) {
    match v.get("workload") {
        Some(w) => {
            for f in fields {
                errs.require(
                    num(w, f).is_some_and(|x| x > 0.0),
                    &format!("workload.{f} must be a positive number"),
                );
            }
        }
        None => errs.push("missing \"workload\" object".into()),
    }
}

fn check_churn(v: &JsonValue, errs: &mut Errors) {
    check_workload(v, &["nodes", "dim", "levels", "queries"], errs);
    let Some(sweep) = v.get("sweep").and_then(JsonValue::as_arr) else {
        errs.push("missing \"sweep\" array".into());
        return;
    };
    errs.require(!sweep.is_empty(), "sweep must not be empty");
    for (i, row) in sweep.iter().enumerate() {
        let ctx = format!("sweep[{i}]");
        let fail_frac = need(row, "fail_frac", &ctx, errs);
        errs.require(
            (0.0..=1.0).contains(&fail_frac),
            &format!("{ctx}: fail_frac out of [0, 1]"),
        );
        for side in ["repair", "no_repair"] {
            let Some(s) = row.get(side) else {
                errs.push(format!("{ctx}: missing {side:?} object"));
                continue;
            };
            let sctx = format!("{ctx}.{side}");
            let recall_all = need(s, "recall_all", &sctx, errs);
            let recall_alive = need(s, "recall_alive", &sctx, errs);
            errs.require(
                (0.0..=1.0).contains(&recall_all) && (0.0..=1.0).contains(&recall_alive),
                &format!("{sctx}: recalls out of [0, 1]"),
            );
            // Only the repair arm promises resilience — the no_repair
            // baseline is *supposed* to decay; that gap is the result.
            if side == "repair" {
                errs.require(
                    recall_alive >= 0.95,
                    &format!("{sctx}: recall_alive must stay >= 0.95 with repair on"),
                );
            }
            if fail_frac == 0.0 {
                errs.require(
                    recall_all >= 1.0,
                    &format!("{sctx}: recall_all must be perfect with no failures"),
                );
            }
        }
    }
}

fn check_faults(v: &JsonValue, errs: &mut Errors) {
    check_workload(v, &["nodes", "dim", "queries"], errs);
    let Some(cells) = v.get("cells").and_then(JsonValue::as_arr) else {
        errs.push("missing \"cells\" array".into());
        return;
    };
    errs.require(!cells.is_empty(), "cells must not be empty");
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("cells[{i}]");
        let drop_prob = need(cell, "drop_prob", &ctx, errs);
        errs.require(
            (0.0..=1.0).contains(&drop_prob),
            &format!("{ctx}: drop_prob out of [0, 1]"),
        );
        let recall_mid = need(cell, "recall_mid", &ctx, errs);
        errs.require(
            (0.0..=1.0).contains(&recall_mid),
            &format!("{ctx}: recall_mid out of [0, 1]"),
        );
        // The fault-tolerance headline: the refresh/heal round always
        // restores perfect recall, partitions and drops included.
        let recall_final = need(cell, "recall_final", &ctx, errs);
        errs.require(
            recall_final >= 1.0,
            &format!("{ctx}: recall_final must be 1.0 after the heal round"),
        );
    }
}

fn check_load(v: &JsonValue, errs: &mut Errors) {
    check_workload(v, &["peers", "items_per_peer", "dim", "levels"], errs);
    let no_relief = need(v, "s12_ratio_no_relief", "top level", errs);
    let full_relief = need(v, "s12_ratio_full_relief", "top level", errs);
    errs.require(
        no_relief >= full_relief,
        "relief must not worsen the s=1.2 max/median ratio",
    );
    // The hot-spot-relief headline bound.
    let improvement = need(v, "s12_improvement", "top level", errs);
    errs.require(improvement >= 2.0, "s12_improvement must be >= 2.0");
    let Some(cells) = v.get("cells").and_then(JsonValue::as_arr) else {
        errs.push("missing \"cells\" array".into());
        return;
    };
    errs.require(!cells.is_empty(), "cells must not be empty");
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("cells[{i}]");
        let recall = need(cell, "recall", &ctx, errs);
        errs.require(
            recall >= 0.99,
            &format!("{ctx}: relief must not cost recall (>= 0.99)"),
        );
        match cell.get("load") {
            Some(load) => {
                let gini = need(load, "gini", &ctx, errs);
                errs.require(
                    (0.0..=1.0).contains(&gini),
                    &format!("{ctx}: load.gini out of [0, 1]"),
                );
            }
            None => errs.push(format!("{ctx}: missing \"load\" object")),
        }
    }
}

fn check_chaos(v: &JsonValue, errs: &mut Errors) {
    check_workload(v, &["nodes", "dim", "items_per_peer"], errs);
    let Some(scenarios) = v.get("scenarios").and_then(JsonValue::as_arr) else {
        errs.push("missing \"scenarios\" array".into());
        return;
    };
    errs.require(!scenarios.is_empty(), "scenarios must not be empty");
    for (i, s) in scenarios.iter().enumerate() {
        let ctx = format!("scenarios[{i}]");
        let queries = need(s, "queries", &ctx, errs);
        errs.require(queries > 0.0, &format!("{ctx}: queries must be positive"));
        // The fault-tolerance headline: retry/reconnect/rejoin always
        // recover exact answers, whatever the chaos schedule did.
        let recall_final = need(s, "recall_final", &ctx, errs);
        errs.require(
            recall_final >= 1.0,
            &format!("{ctx}: recall_final must recover to 1.0 under chaos"),
        );
        let gave_up = need(s, "gave_up", &ctx, errs);
        errs.require(
            gave_up == 0.0,
            &format!("{ctx}: no request may exhaust its retry budget"),
        );
    }
    // Correlation-safety headline: a late reply to a timed-out attempt
    // is only ever discarded, never handed to a later request.
    let returned = need(v, "stale_replies_returned", "top level", errs);
    errs.require(
        returned == 0.0,
        "stale_replies_returned must be 0 (mis-correlation)",
    );
}
