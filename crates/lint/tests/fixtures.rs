//! Fixture tests: one deliberately bad snippet per rule, asserted at the
//! exact line; clean fixtures; justified-suppression fixtures; a facade
//! fixture workspace; an injection test that plants a lock-order
//! inversion into the real TCP pool; a check that the clippy deny headers
//! carrying the replay and panic-path rules are in place; and a self-run
//! asserting the workspace itself is lint-clean.

use hyperm_lint::{lint_source, passes, run_workspace};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as if it lived in the TCP transport (the passes are
/// path-agnostic).
fn lint_fixture(name: &str) -> (Vec<hyperm_lint::report::Violation>, usize) {
    let src = fixture(name);
    let (violations, suppressed) = lint_source("crates/transport/src/fixture.rs", &src);
    (violations, suppressed.len())
}

fn assert_single(name: &str, rule: &str, line: u32) {
    let (violations, _) = lint_fixture(name);
    assert_eq!(
        violations.len(),
        1,
        "{name}: expected exactly one violation, got {violations:?}"
    );
    assert_eq!(violations[0].rule, rule, "{name}: wrong rule");
    assert_eq!(violations[0].line, line, "{name}: wrong line");
}

#[test]
fn lint_directive_fixture() {
    assert_single("lint_directive.rs", "lint-directive", 2);
}

#[test]
fn clean_fixture_is_clean() {
    let (violations, suppressed) = lint_fixture("clean.rs");
    assert!(
        violations.is_empty(),
        "clean fixture flagged: {violations:?}"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn justified_suppression_is_honoured() {
    let (violations, suppressed) = lint_fixture("suppressed.rs");
    assert!(
        violations.is_empty(),
        "suppressed fixture flagged: {violations:?}"
    );
    assert_eq!(suppressed, 1, "the suppression must be recorded as used");
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

#[test]
fn conc_lock_order_fixture() {
    // Both halves of the inversion are reported, each at its inner
    // acquisition line.
    let (violations, _) = lint_fixture("conc_lock_order.rs");
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
    let (violations, _) = lint_fixture("conc_blocking_hold.rs");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "conc-blocking-hold");
    assert_eq!(violations[0].line, 11);
}

#[test]
fn conc_guard_across_spawn_fixture() {
    let (violations, _) = lint_fixture("conc_guard_across_spawn.rs");
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
    let (violations, suppressed) = lint_fixture("conc_clean.rs");
    assert!(
        violations.is_empty(),
        "clean conc fixture flagged: {violations:?}"
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn conc_suppression_is_honoured() {
    let (violations, suppressed) = lint_fixture("conc_suppressed.rs");
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(
        suppressed, 1,
        "the conc suppression must be recorded as used"
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

    let (violations, _) = lint_source(rel, &original);
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
    let (violations, _) = lint_source(rel, &planted);
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

/// The replay and panic-path rules are clippy lints, denied by a header
/// in each file they cover (`clippy.toml` configures the disallowed
/// paths). `cargo clippy` cannot notice a header that goes missing, so
/// this checks that every covered file still carries its deny.
#[test]
fn clippy_deny_headers_are_in_place() {
    const REPLAY: &[&str] = &[
        "disallowed_methods",
        "disallowed_types",
        "iter_over_hash_type",
    ];
    const PANIC_PATH: &[&str] = &[
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "indexing_slicing",
    ];
    const WIRE: &[&str] = &["unwrap_used", "expect_used", "cast_possible_truncation"];
    let mut scopes: Vec<(String, &[&str])> = [
        "core", "can", "repair", "cluster", "wavelet", "geometry", "vbi", "baton",
    ]
    .iter()
    .map(|c| (format!("crates/{c}/src/lib.rs"), REPLAY))
    .collect();
    for hot in [
        "crates/core/src/query/mod.rs",
        "crates/core/src/publish.rs",
        "crates/core/src/network.rs",
        "crates/core/src/churn.rs",
        "crates/can/src/ops.rs",
        "crates/can/src/overlay.rs",
        "crates/can/src/repair.rs",
        "crates/repair/src/lib.rs",
    ] {
        scopes.push((hot.to_string(), PANIC_PATH));
    }
    for wire in ["crates/can/src/codec.rs", "crates/transport/src/frame.rs"] {
        scopes.push((wire.to_string(), WIRE));
    }
    let root = workspace_root();
    for (rel, lints) in scopes {
        let src = std::fs::read_to_string(root.join(&rel)).expect("read scoped file");
        let denied: Vec<&str> = src
            .split("#![deny(")
            .skip(1)
            .filter_map(|rest| rest.split(")]").next())
            .collect();
        for lint in lints {
            assert!(
                denied
                    .iter()
                    .any(|d| d.contains(&format!("clippy::{lint}"))),
                "{rel} no longer denies clippy::{lint}"
            );
        }
    }
    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("read clippy.toml");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::collections::HashMap",
        "std::collections::HashSet",
    ] {
        assert!(config.contains(path), "clippy.toml no longer lists {path}");
    }
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
