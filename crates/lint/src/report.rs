//! Violations, suppression directives, and the JSON report.

use crate::lexer::Comment;
use hyperm_telemetry::json::JsonObj;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule slug (e.g. `conc-lock-order`).
    pub rule: &'static str,
    /// Human message.
    pub message: String,
}

impl Violation {
    /// `file:line: rule: message` — the human diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A suppression that matched a violation (kept for the report).
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The violation that was suppressed.
    pub violation: Violation,
    /// The justification from the directive.
    pub reason: String,
}

/// Parsed `hyperm-lint:` directives of one file.
#[derive(Debug, Default)]
pub struct Directives {
    /// `allow(rule)` directives: (comment line, rule, reason).
    pub line_allows: Vec<(u32, String, String)>,
    /// `allow-file(rule)` directives: (rule, reason).
    pub file_allows: Vec<(String, String)>,
    /// Malformed directives: (line, problem).
    pub malformed: Vec<(u32, String)>,
}

/// Parse suppression directives out of a file's comments.
///
/// Syntax (one per comment):
/// `// hyperm-lint: allow(<rule>[, <rule>…]) — <reason>` suppresses a
/// violation of `<rule>` on the same line or the next line;
/// `allow-file(<rule>) — <reason>` suppresses the rule in the whole file.
/// The reason is mandatory — a suppression without a why is itself a
/// violation (`lint-directive`).
pub fn parse_directives(comments: &[Comment]) -> Directives {
    let mut out = Directives::default();
    for c in comments {
        // Doc comments (`///`, `//!`, `/** … */`) never carry directives —
        // they *describe* the syntax (this crate's own docs do).
        if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
            continue;
        }
        let Some(pos) = c.text.find("hyperm-lint:") else {
            continue;
        };
        let rest = c.text[pos + "hyperm-lint:".len()..].trim_start();
        let file_scope = rest.starts_with("allow-file(");
        let line_scope = rest.starts_with("allow(");
        if !file_scope && !line_scope {
            out.malformed.push((
                c.line,
                format!(
                    "unrecognised directive {:?} (expected allow(...) or allow-file(...))",
                    rest
                ),
            ));
            continue;
        }
        let open = rest.find('(').unwrap();
        let Some(close) = rest.find(')') else {
            out.malformed
                .push((c.line, "unclosed rule list".to_string()));
            continue;
        };
        let rules: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            out.malformed.push((c.line, "empty rule list".to_string()));
            continue;
        }
        // Reason: everything after the `)`, minus separator dashes.
        let reason = rest[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '-', ':'])
            .trim()
            .to_string();
        if reason.is_empty() {
            out.malformed.push((
                c.line,
                "suppression without a justification (add `— <reason>`)".to_string(),
            ));
            continue;
        }
        for rule in rules {
            if file_scope {
                out.file_allows.push((rule, reason.clone()));
            } else {
                out.line_allows.push((c.line, rule, reason.clone()));
            }
        }
    }
    out
}

/// Apply `directives` to raw `violations`: returns (surviving, suppressed)
/// and marks used directives. Unused line-level directives become
/// `lint-directive` violations — a stale suppression hides nothing but
/// misleads readers.
pub fn apply_suppressions(
    file: &str,
    violations: Vec<Violation>,
    directives: &Directives,
) -> (Vec<Violation>, Vec<Suppressed>) {
    let mut used = vec![false; directives.line_allows.len()];
    let mut surviving = Vec::new();
    let mut suppressed = Vec::new();
    for v in violations {
        // A line directive matches on the violation's own line or the
        // line directly above it.
        let line_hit = directives
            .line_allows
            .iter()
            .position(|(l, rule, _)| (*l == v.line || *l + 1 == v.line) && rule == v.rule);
        if let Some(ix) = line_hit {
            used[ix] = true;
            suppressed.push(Suppressed {
                reason: directives.line_allows[ix].2.clone(),
                violation: v,
            });
            continue;
        }
        if let Some((_, reason)) = directives.file_allows.iter().find(|(r, _)| r == v.rule) {
            suppressed.push(Suppressed {
                reason: reason.clone(),
                violation: v,
            });
            continue;
        }
        surviving.push(v);
    }
    for (ix, (line, rule, _)) in directives.line_allows.iter().enumerate() {
        if !used[ix] {
            surviving.push(Violation {
                file: file.to_string(),
                line: *line,
                rule: "lint-directive",
                message: format!("unused suppression for `{rule}` — nothing to allow here"),
            });
        }
    }
    for (line, problem) in &directives.malformed {
        surviving.push(Violation {
            file: file.to_string(),
            line: *line,
            rule: "lint-directive",
            message: problem.clone(),
        });
    }
    (surviving, suppressed)
}

/// The full run result.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived suppression, sorted by (file, line).
    pub violations: Vec<Violation>,
    /// Suppressed (justified) findings.
    pub suppressed: Vec<Suppressed>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Per-pass wall time, (pass name, milliseconds), in fixed pass
    /// order. Informational: the baseline gate ignores this field.
    pub timings_ms: Vec<(String, f64)>,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render `LINT_report.json`.
    pub fn to_json(&self, rules: &[&str]) -> String {
        let viols: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                JsonObj::new()
                    .s("file", &v.file)
                    .u("line", v.line as u64)
                    .s("rule", v.rule)
                    .s("message", &v.message)
                    .render()
            })
            .collect();
        let supp: Vec<String> = self
            .suppressed
            .iter()
            .map(|s| {
                JsonObj::new()
                    .s("file", &s.violation.file)
                    .u("line", s.violation.line as u64)
                    .s("rule", s.violation.rule)
                    .s("reason", &s.reason)
                    .render()
            })
            .collect();
        let rule_list: Vec<String> = rules.iter().map(|r| format!("\"{r}\"")).collect();
        let mut timings = JsonObj::new();
        for (pass, ms) in &self.timings_ms {
            timings = timings.f(pass, *ms, 3);
        }
        JsonObj::new()
            .s("tool", "hyperm-lint")
            .u("files_scanned", self.files_scanned as u64)
            .b("clean", self.is_clean())
            .u("violation_count", self.violations.len() as u64)
            .u("suppressed_count", self.suppressed.len() as u64)
            .obj("timings_ms", timings)
            .arr("rules", &rule_list)
            .arr("violations", &viols)
            .arr("suppressed", &supp)
            .render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: u32, text: &str) -> Comment {
        Comment {
            line,
            text: text.to_string(),
        }
    }

    fn viol(line: u32, rule: &'static str) -> Violation {
        Violation {
            file: "f.rs".into(),
            line,
            rule,
            message: "m".into(),
        }
    }

    #[test]
    fn line_allow_suppresses_same_and_next_line() {
        let d = parse_directives(&[comment(
            9,
            " hyperm-lint: allow(conc-blocking-hold) — bounded by invariant",
        )]);
        let (rest, supp) = apply_suppressions("f.rs", vec![viol(10, "conc-blocking-hold")], &d);
        assert!(rest.is_empty());
        assert_eq!(supp.len(), 1);
        assert_eq!(supp[0].reason, "bounded by invariant");

        let (rest, supp) = apply_suppressions("f.rs", vec![viol(9, "conc-blocking-hold")], &d);
        assert!(rest.is_empty());
        assert_eq!(supp.len(), 1);
    }

    #[test]
    fn missing_reason_and_unused_allow_are_violations() {
        let d = parse_directives(&[comment(1, "hyperm-lint: allow(conc-lock-order)")]);
        let (rest, _) = apply_suppressions("f.rs", vec![], &d);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].rule, "lint-directive");

        let d = parse_directives(&[comment(1, "hyperm-lint: allow(conc-lock-order) — why not")]);
        let (rest, _) = apply_suppressions("f.rs", vec![], &d);
        assert_eq!(rest.len(), 1, "unused allow must surface");
        assert!(rest[0].message.contains("unused"));
    }

    #[test]
    fn file_allow_covers_whole_file_without_unused_tracking() {
        let d = parse_directives(&[comment(
            2,
            "hyperm-lint: allow-file(conc-guard-across-spawn) — slot ids are invariant-checked",
        )]);
        let (rest, supp) = apply_suppressions(
            "f.rs",
            vec![
                viol(50, "conc-guard-across-spawn"),
                viol(90, "conc-guard-across-spawn"),
            ],
            &d,
        );
        assert!(rest.is_empty());
        assert_eq!(supp.len(), 2);
    }

    #[test]
    fn multi_rule_allow() {
        let d = parse_directives(&[comment(
            4,
            "hyperm-lint: allow(conc-lock-order, conc-blocking-hold) — host-only metric",
        )]);
        let (rest, supp) = apply_suppressions(
            "f.rs",
            vec![viol(5, "conc-lock-order"), viol(5, "conc-blocking-hold")],
            &d,
        );
        assert!(rest.is_empty());
        assert_eq!(supp.len(), 2);
    }
}
