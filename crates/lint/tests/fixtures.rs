//! Fixture tests: one deliberately bad snippet per rule, asserted at the
//! exact line; a clean fixture; a justified-suppression fixture; a facade
//! fixture workspace; injection tests that plant a `HashMap` iteration
//! into a real hot-path source and a lock-order inversion into the real
//! TCP pool; and a self-run asserting the workspace itself is lint-clean.

use hyperm_lint::{lint_source, passes, run_workspace};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as if it lived on a hot path of a result-affecting
/// crate, so every pass is active.
fn lint_hot(name: &str) -> (Vec<hyperm_lint::report::Violation>, usize) {
    let src = fixture(name);
    let (violations, suppressed) = lint_source("crates/core/src/query/fixture.rs", "core", &src);
    (violations, suppressed.len())
}

fn assert_single(name: &str, rule: &str, line: u32) {
    let (violations, _) = lint_hot(name);
    assert_eq!(
        violations.len(),
        1,
        "{name}: expected exactly one violation, got {violations:?}"
    );
    assert_eq!(violations[0].rule, rule, "{name}: wrong rule");
    assert_eq!(violations[0].line, line, "{name}: wrong line");
}

#[test]
fn det_unordered_iter_fixture() {
    assert_single("det_unordered_iter.rs", "det-unordered-iter", 7);
}

#[test]
fn det_wall_clock_fixture() {
    assert_single("det_wall_clock.rs", "det-wall-clock", 5);
}

#[test]
fn det_unseeded_rng_fixture() {
    assert_single("det_unseeded_rng.rs", "det-unseeded-rng", 3);
}

#[test]
fn panic_unwrap_fixture() {
    assert_single("panic_unwrap.rs", "panic-unwrap", 3);
}

#[test]
fn panic_explicit_fixture() {
    assert_single("panic_explicit.rs", "panic-explicit", 3);
}

#[test]
fn panic_index_fixture() {
    assert_single("panic_index.rs", "panic-index", 3);
}

#[test]
fn lint_directive_fixture() {
    assert_single("lint_directive.rs", "lint-directive", 2);
}

#[test]
fn clean_fixture_is_clean() {
    let (violations, suppressed) = lint_hot("clean.rs");
    assert!(
        violations.is_empty(),
        "clean fixture flagged: {violations:?}"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn justified_suppression_is_honoured() {
    let (violations, suppressed) = lint_hot("suppressed.rs");
    assert!(
        violations.is_empty(),
        "suppressed fixture flagged: {violations:?}"
    );
    assert_eq!(suppressed, 1, "the suppression must be recorded as used");
}

#[test]
fn determinism_pass_is_scoped_to_result_crates() {
    // The same bad source in a non-result crate (datagen) is not flagged.
    let src = fixture("det_unordered_iter.rs");
    let (violations, _) = lint_source("crates/datagen/src/lib.rs", "datagen", &src);
    assert!(
        violations.is_empty(),
        "datagen is not a result crate: {violations:?}"
    );
}

#[test]
fn panic_pass_is_scoped_to_hot_paths() {
    let src = fixture("panic_unwrap.rs");
    let (violations, _) = lint_source("crates/core/src/score.rs", "core", &src);
    assert!(
        violations.is_empty(),
        "score.rs is not a hot path: {violations:?}"
    );
}

#[test]
fn facade_fixture_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/facade_ws");
    let mut violations = passes::facade::run(&root);
    violations.sort();
    // `Exported` is flattened, `Excluded` is manifested with a reason;
    // `Hidden` must be flagged at its declaration line, and the
    // reason-less manifest entry is a lint-directive violation.
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert_eq!(violations[0].file, "crates/can/src/lib.rs");
    assert_eq!(violations[0].rule, "facade-export");
    assert_eq!(violations[0].line, 2);
    assert!(violations[0].message.contains("can::Hidden"));
    assert_eq!(violations[1].file, "crates/lint/facade.allow");
    assert_eq!(violations[1].rule, "lint-directive");
    assert_eq!(violations[1].line, 2);
}

/// Acceptance criterion: a deliberately introduced `HashMap` iteration in
/// a real `crates/core/src/query/` source is caught at the planted line.
#[test]
fn injected_hashmap_iteration_in_query_source_is_caught() {
    let repo_root = workspace_root();
    let rel = "crates/core/src/query/range.rs";
    let original = std::fs::read_to_string(repo_root.join(rel)).expect("read range.rs");

    // The pristine source must be det-clean (suppressions included).
    let (violations, _) = lint_source(rel, "core", &original);
    let det: Vec<_> = violations
        .iter()
        .filter(|v| v.rule.starts_with("det-"))
        .collect();
    assert!(
        det.is_empty(),
        "range.rs already has det violations: {det:?}"
    );

    // Plant a HashMap iteration at a known line past the end.
    let planted = format!(
        "{original}\nfn planted() -> f64 {{\n    let m: std::collections::HashMap<u32, f64> = \
         std::collections::HashMap::new();\n    let mut acc = 0.0;\n    for (_k, v) in m.iter() \
         {{\n        acc += *v;\n    }}\n    acc\n}}\n"
    );
    let loop_line = planted
        .lines()
        .position(|l| l.contains("for (_k, v) in m.iter()"))
        .expect("planted loop present") as u32
        + 1;
    let (violations, _) = lint_source(rel, "core", &planted);
    let det: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "det-unordered-iter")
        .collect();
    assert_eq!(det.len(), 1, "planted iteration not caught: {violations:?}");
    assert_eq!(det[0].line, loop_line, "wrong line for the planted loop");
}

/// Lint a fixture at an arbitrary path (the concurrency pass is
/// path-agnostic; the wire-taint pass keys on the wire files).
fn lint_at(
    path: &str,
    crate_name: &str,
    name: &str,
) -> (Vec<hyperm_lint::report::Violation>, usize) {
    let src = fixture(name);
    let (violations, suppressed) = lint_source(path, crate_name, &src);
    (violations, suppressed.len())
}

#[test]
fn conc_lock_order_fixture() {
    // Both halves of the inversion are reported, each at its inner
    // acquisition line.
    let (violations, _) = lint_at(
        "crates/transport/src/fixture.rs",
        "transport",
        "conc_lock_order.rs",
    );
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(
        violations.iter().all(|v| v.rule == "conc-lock-order"),
        "{violations:?}"
    );
    assert_eq!(violations[0].line, 12, "forward inversion line");
    assert_eq!(violations[1].line, 19, "backward inversion line");
}

#[test]
fn conc_blocking_hold_fixture() {
    let (violations, _) = lint_at(
        "crates/transport/src/fixture.rs",
        "transport",
        "conc_blocking_hold.rs",
    );
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "conc-blocking-hold");
    assert_eq!(violations[0].line, 11);
}

#[test]
fn conc_guard_across_spawn_fixture() {
    let (violations, _) = lint_at(
        "crates/transport/src/fixture.rs",
        "transport",
        "conc_guard_across_spawn.rs",
    );
    assert!(!violations.is_empty(), "spawn capture not caught");
    assert!(
        violations
            .iter()
            .all(|v| v.rule == "conc-guard-across-spawn" && v.line == 10),
        "{violations:?}"
    );
}

#[test]
fn conc_clean_fixture_is_clean() {
    let (violations, suppressed) = lint_at(
        "crates/transport/src/fixture.rs",
        "transport",
        "conc_clean.rs",
    );
    assert!(
        violations.is_empty(),
        "clean conc fixture flagged: {violations:?}"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn conc_suppression_is_honoured() {
    let (violations, suppressed) = lint_at(
        "crates/transport/src/fixture.rs",
        "transport",
        "conc_suppressed.rs",
    );
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(
        suppressed, 1,
        "the conc suppression must be recorded as used"
    );
}

#[test]
fn wire_taint_fixture() {
    // Linted as the real codec path so the pass is active: the
    // unvalidated `with_capacity` and the wide `as usize` cast.
    let (violations, _) = lint_at("crates/can/src/codec.rs", "can", "wire_taint.rs");
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(
        violations.iter().all(|v| v.rule == "wire-taint"),
        "{violations:?}"
    );
    assert_eq!(violations[0].line, 3, "with_capacity sink line");
    assert_eq!(violations[1].line, 10, "wide-cast line");
}

#[test]
fn wire_clean_fixture_is_clean() {
    let (violations, suppressed) = lint_at("crates/can/src/codec.rs", "can", "wire_clean.rs");
    assert!(
        violations.is_empty(),
        "validated decode flagged: {violations:?}"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn wire_suppression_is_honoured() {
    let (violations, suppressed) = lint_at("crates/can/src/codec.rs", "can", "wire_suppressed.rs");
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn wire_taint_pass_is_scoped_to_wire_files() {
    // The same tainted source anywhere else is not the wire boundary.
    let (violations, _) = lint_at("crates/core/src/score.rs", "core", "wire_taint.rs");
    assert!(
        violations.is_empty(),
        "wire-taint leaked off the wire files: {violations:?}"
    );
}

/// Acceptance criterion: a lock-order inversion planted into the real
/// TCP pool source is caught at the planted lines, and the pristine
/// source carries no concurrency findings.
#[test]
fn injected_lock_order_inversion_in_tcp_pool_is_caught() {
    let repo_root = workspace_root();
    let rel = "crates/transport/src/tcp.rs";
    let original = std::fs::read_to_string(repo_root.join(rel)).expect("read tcp.rs");

    let (violations, _) = lint_source(rel, "transport", &original);
    let conc: Vec<_> = violations
        .iter()
        .filter(|v| v.rule.starts_with("conc-"))
        .collect();
    assert!(
        conc.is_empty(),
        "tcp.rs already has conc findings: {conc:?}"
    );

    // Plant both halves of an inversion against the pool's real
    // guard-returning helpers.
    let planted = format!(
        "{original}\nimpl Shared {{\n    fn planted_forward(&self) {{\n        let a = \
         self.lock_conns();\n        let b = self.lock_routes(); // planted-inner-forward\n        \
         drop(b);\n        drop(a);\n    }}\n    fn planted_backward(&self) {{\n        let b = \
         self.lock_routes();\n        let a = self.lock_conns(); // planted-inner-backward\n        \
         drop(a);\n        drop(b);\n    }}\n}}\n"
    );
    let line_of = |marker: &str| {
        planted
            .lines()
            .position(|l| l.contains(marker))
            .expect("marker present") as u32
            + 1
    };
    let (violations, _) = lint_source(rel, "transport", &planted);
    let conc: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "conc-lock-order")
        .collect();
    assert_eq!(
        conc.len(),
        2,
        "planted inversion not caught: {violations:?}"
    );
    assert_eq!(conc[0].line, line_of("planted-inner-forward"));
    assert_eq!(conc[1].line, line_of("planted-inner-backward"));
}

/// The workspace itself must be lint-clean — the same invariant CI
/// enforces by running the binary.
#[test]
fn workspace_is_lint_clean() {
    let report = run_workspace(&workspace_root());
    let rendered: Vec<String> = report.violations.iter().map(|v| v.render()).collect();
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {} files",
        report.files_scanned
    );
    assert!(
        !report.suppressed.is_empty(),
        "expected the workspace's justified suppressions to be recorded"
    );
    let timed: Vec<&str> = report.timings_ms.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(
        timed,
        hyperm_lint::PASSES,
        "per-pass timings must cover every pass in order"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives at <root>/crates/lint")
        .to_path_buf()
}
