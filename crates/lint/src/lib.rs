//! `hyperm-lint` — the workspace checks that neither clippy nor a type
//! can carry.
//!
//! The correctness story of this repo (Theorems 3.1/4.1, the parallel ==
//! serial and faults-off == legacy acceptance suites, byte-equal
//! telemetry streams) rests on **bit-identical replay** and on hot paths
//! that cannot panic. Those rules live where the compiler enforces them
//! (DESIGN.md, "Static analysis & invariants"): `clippy.toml` plus a
//! `#![deny]` in each result crate's `lib.rs` bans wall-clock reads and
//! hash-ordered containers; a `#![deny]` header on each hot-path module
//! bans unwrap/expect/panic/indexing; the codec's checked `Reader` is the
//! one place a wire count sizes an allocation. What is left here has no
//! clippy lint: lock order across files, and the facade. Dep-free (the
//! workspace builds offline) and token-level: a small lexer ([`lexer`]),
//! not a full parser.
//!
//! Passes (rule slugs in parentheses):
//! * **concurrency** ([`passes::concurrency`]) — lock-acquisition-order
//!   cycles over a workspace-wide graph (`conc-lock-order`), blocking
//!   calls while a guard is live (`conc-blocking-hold`), and guards
//!   crossing `spawn`/closure boundaries (`conc-guard-across-spawn`);
//! * **facade** ([`passes::facade`]) — root public types of core crates
//!   are re-exported from `hyperm` or excluded in
//!   `crates/lint/facade.allow` (`facade-export`).
//!
//! Protocol consistency is not a pass: the wire protocol is one
//! `protocol!` list in `hyperm_can::codec`, and the compiler checks it
//! (DESIGN.md, "Protocol consistency"). Nor is the telemetry taxonomy:
//! event and counter names are the `hyperm_telemetry::{Name, Counter}`
//! enums, so an unknown name does not compile.
//!
//! Suppressions: `// hyperm-lint: allow(<rule>) — <reason>` on the
//! flagged line or the line above; `allow-file(<rule>) — <reason>`
//! anywhere for a whole file. The reason is mandatory, and unused or
//! malformed directives are themselves violations (`lint-directive`).
//!
//! Run `cargo run -p hyperm-lint --release`; it prints
//! `file:line: rule: message` diagnostics, writes `LINT_report.json`,
//! and exits non-zero on violations.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod passes;
pub mod report;

use passes::concurrency::LockEdge;
use passes::FileCtx;
use report::{apply_suppressions, parse_directives, Report, Suppressed, Violation};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every rule slug the tool can emit, in stable report order.
pub const RULES: &[&str] = &[
    "facade-export",
    "conc-lock-order",
    "conc-blocking-hold",
    "conc-guard-across-spawn",
    "lint-directive",
];

/// Pass names, in the order `timings_ms` reports them.
pub const PASSES: &[&str] = &["concurrency", "facade"];

/// Per-pass wall-time accumulator (the lint itself is not a
/// result-affecting crate, so `Instant` is fair game here).
#[derive(Debug, Default)]
struct PassClock {
    spent: std::collections::BTreeMap<&'static str, Duration>,
}

impl PassClock {
    fn time<T>(&mut self, pass: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.spent.entry(pass).or_default() += t0.elapsed();
        out
    }

    fn timings(&self) -> Vec<(String, f64)> {
        PASSES
            .iter()
            .map(|&p| {
                let ms = self
                    .spent
                    .get(p)
                    .map(|d| d.as_secs_f64() * 1000.0)
                    .unwrap_or(0.0);
                (p.to_string(), ms)
            })
            .collect()
    }
}

/// Directory names never scanned: generated output, vendored stand-ins,
/// test code (integration tests may do anything), and lint fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "fixtures", ".git"];

/// Lint one source text as if it lived at `rel_path`. Returns surviving
/// violations and applied suppressions.
/// This is the unit the fixture tests drive. Lock-order cycles are
/// resolved over this file's edges alone; the workspace driver merges
/// edges across files instead, so cross-file inversions surface there.
pub fn lint_source(rel_path: &str, src: &str) -> (Vec<Violation>, Vec<Suppressed>) {
    let lexed = lexer::lex(src);
    let mask = lexer::test_module_mask(&lexed.tokens);
    let ctx = FileCtx {
        path: rel_path,
        tokens: &lexed.tokens,
        in_test: &mask,
    };
    let (mut raw, edges) = passes::concurrency::run(&ctx);
    raw.extend(passes::concurrency::order_cycles(&edges));
    raw.sort();
    let directives = parse_directives(&lexed.comments);
    apply_suppressions(rel_path, raw, &directives)
}

/// Scannable Rust sources under `root`, workspace-relative, sorted (the
/// lint's own output must be deterministic too).
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["src", "crates", "examples"] {
        walk(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, root, out);
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// Run every pass over the workspace at `root`.
///
/// Per-file passes run first, accumulating every file's lock-order
/// edges; cycle detection then runs once over the merged graph so
/// inversions *between* files are caught, and each cycle violation is
/// attributed (and suppressible) at its acquisition site. The
/// workspace-level facade pass appends after suppression — its findings
/// are structural and are fixed at the source of truth, not allowed away.
pub fn run_workspace(root: &Path) -> Report {
    let mut report = Report::default();
    let mut clock = PassClock::default();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut pending = Vec::new();
    for rel in workspace_sources(root) {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        report.files_scanned += 1;
        let lexed = lexer::lex(&src);
        let mask = lexer::test_module_mask(&lexed.tokens);
        let ctx = FileCtx {
            path: &rel_str,
            tokens: &lexed.tokens,
            in_test: &mask,
        };
        let (raw, mut file_edges) = clock.time("concurrency", || passes::concurrency::run(&ctx));
        edges.append(&mut file_edges);
        pending.push((rel_str, raw, parse_directives(&lexed.comments)));
    }
    let mut cycles = clock.time("concurrency", || passes::concurrency::order_cycles(&edges));
    for (rel_str, mut raw, directives) in pending {
        let (mine, rest): (Vec<_>, Vec<_>) = cycles.into_iter().partition(|v| v.file == rel_str);
        cycles = rest;
        raw.extend(mine);
        raw.sort();
        let (mut viol, mut supp) = apply_suppressions(&rel_str, raw, &directives);
        report.violations.append(&mut viol);
        report.suppressed.append(&mut supp);
    }
    report
        .violations
        .extend(clock.time("facade", || passes::facade::run(root)));
    report.violations.sort();
    report.timings_ms = clock.timings();
    report
}
