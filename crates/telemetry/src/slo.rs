//! Declarative SLO rules over window snapshots.
//!
//! `hyperm-monitor --watch` scrapes every node's [`crate::WindowSnapshot`],
//! merges them into a cluster aggregate, and evaluates a comma-separated
//! rule list against it — making the monitor both a live dashboard and the
//! assertion engine CI smokes fail loudly on.
//!
//! Rule grammar (whitespace-insensitive):
//!
//! ```text
//! rules  := rule ("," rule)*
//! rule   := metric op value
//! op     := "<" | "<=" | ">" | ">=" | "==" | "!="
//! metric := p50_us | p99_us | p50_ms | p99_ms | ops | rejected
//!         | retries | failed_routes | hops | messages | bytes | heat_max
//! value  := decimal literal
//! ```
//!
//! Example: `p99_ms < 50, failed_routes == 0, ops > 1`.
//!
//! Every metric is read over the snapshot's window, which for a node
//! runtime is its last 64 served frames.

use crate::json::JsonObj;
use crate::window::WindowSnapshot;

/// Metric names a rule may reference (matching [`metric_of`]).
pub const METRICS: &[&str] = &[
    "p50_us",
    "p99_us",
    "p50_ms",
    "p99_ms",
    "ops",
    "rejected",
    "retries",
    "failed_routes",
    "hops",
    "messages",
    "bytes",
    "heat_max",
];

/// Read `metric` off a snapshot (`None` for unknown names).
pub fn metric_of(snap: &WindowSnapshot, metric: &str) -> Option<f64> {
    Some(match metric {
        "p50_us" => snap.p50_us() as f64,
        "p99_us" => snap.p99_us() as f64,
        "p50_ms" => snap.p50_us() as f64 / 1000.0,
        "p99_ms" => snap.p99_us() as f64 / 1000.0,
        "ops" => snap.ops as f64,
        "rejected" => snap.rejected as f64,
        "retries" => snap.retries as f64,
        "failed_routes" => snap.failed_routes as f64,
        "hops" => snap.hops as f64,
        "messages" => snap.messages as f64,
        "bytes" => snap.bytes as f64,
        "heat_max" => snap.heat_max() as f64,
        _ => return None,
    })
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    fn holds(self, actual: f64, bound: f64) -> bool {
        match self {
            CmpOp::Lt => actual < bound,
            CmpOp::Le => actual <= bound,
            CmpOp::Gt => actual > bound,
            CmpOp::Ge => actual >= bound,
            CmpOp::Eq => actual == bound,
            CmpOp::Ne => actual != bound,
        }
    }
}

/// One parsed rule: `metric op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Metric name (one of [`METRICS`]).
    pub metric: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Bound the metric is compared against.
    pub value: f64,
}

impl SloRule {
    /// Parse one rule. Unknown metrics and malformed syntax are errors —
    /// a typo'd rule must not silently always pass.
    pub fn parse(src: &str) -> Result<SloRule, String> {
        let s = src.trim();
        // Two-character operators first so "<=" does not parse as "<".
        let ops: [(&str, CmpOp); 6] = [
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("==", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ];
        let (at, (sym, op)) = ops
            .iter()
            .filter_map(|&(sym, op)| s.find(sym).map(|at| (at, (sym, op))))
            .min_by_key(|&(at, (sym, _))| (at, std::cmp::Reverse(sym.len())))
            .ok_or_else(|| format!("rule {s:?}: no comparison operator"))?;
        let metric = s[..at].trim();
        let value_src = s[at + sym.len()..].trim();
        if !METRICS.contains(&metric) {
            return Err(format!(
                "rule {s:?}: unknown metric {metric:?} (expected one of {METRICS:?})"
            ));
        }
        let value: f64 = value_src
            .parse()
            .map_err(|_| format!("rule {s:?}: bad value {value_src:?}"))?;
        if !value.is_finite() {
            return Err(format!("rule {s:?}: non-finite value"));
        }
        Ok(SloRule {
            metric: metric.to_string(),
            op,
            value,
        })
    }

    /// Parse a comma-separated rule list (empty input = no rules).
    pub fn parse_list(src: &str) -> Result<Vec<SloRule>, String> {
        src.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(SloRule::parse)
            .collect()
    }

    /// Render the rule as it would be written.
    pub fn render(&self) -> String {
        format!("{} {} {}", self.metric, self.op.symbol(), self.value)
    }
}

/// One evaluated rule: the bound, the observed value, and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SloCheck {
    /// The rule evaluated.
    pub rule: SloRule,
    /// Observed metric value.
    pub actual: f64,
    /// Whether the rule held.
    pub ok: bool,
}

/// Verdict over a whole rule list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloReport {
    /// Per-rule outcomes, in rule order.
    pub checks: Vec<SloCheck>,
}

impl SloReport {
    /// Evaluate `rules` against a (typically cluster-aggregate) snapshot.
    pub fn evaluate(rules: &[SloRule], snap: &WindowSnapshot) -> SloReport {
        let checks = rules
            .iter()
            .map(|rule| {
                let actual =
                    metric_of(snap, &rule.metric).expect("parse validated the metric name");
                SloCheck {
                    rule: rule.clone(),
                    actual,
                    ok: rule.op.holds(actual, rule.value),
                }
            })
            .collect();
        SloReport { checks }
    }

    /// Whether every rule held.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The rules that failed.
    pub fn breaches(&self) -> Vec<&SloCheck> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }

    /// Structured JSON report: overall verdict plus one row per rule.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                JsonObj::new()
                    .s("rule", &c.rule.render())
                    .s("metric", &c.rule.metric)
                    .g("bound", c.rule.value)
                    .f("actual", c.actual, 3)
                    .b("ok", c.ok)
                    .render()
            })
            .collect();
        JsonObj::new()
            .b("ok", self.ok())
            .u("breaches", self.breaches().len() as u64)
            .arr("checks", &rows)
            .render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(ops: u64, rejected: u64) -> WindowSnapshot {
        WindowSnapshot {
            ops,
            rejected,
            latency_count: 1,
            latency_sum_us: 100,
            latency_buckets: vec![(64, 127, 1)],
            ..Default::default()
        }
    }

    #[test]
    fn rules_parse_and_render() {
        let r = SloRule::parse(" p99_ms<=50 ").unwrap();
        assert_eq!(r.metric, "p99_ms");
        assert_eq!(r.op, CmpOp::Le);
        assert_eq!(r.value, 50.0);
        assert_eq!(r.render(), "p99_ms <= 50");
        let list = SloRule::parse_list("ops > 0.5, failed_routes == 0, rejected != 1").unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(list[1].op, CmpOp::Eq);
        assert_eq!(list[2].op, CmpOp::Ne);
        assert!(SloRule::parse_list("").unwrap().is_empty());
        assert!(SloRule::parse_list(" , ").unwrap().is_empty());
    }

    #[test]
    fn bad_rules_are_errors() {
        assert!(SloRule::parse("p99_ms").is_err());
        assert!(SloRule::parse("bogus_metric < 1").is_err());
        assert!(SloRule::parse("ops < banana").is_err());
        assert!(SloRule::parse("ops < inf").is_err());
        assert!(SloRule::parse_list("ops > 1, nope < 2").is_err());
    }

    #[test]
    fn evaluation_flags_breaches() {
        let rules = SloRule::parse_list("rejected == 0, ops >= 5, p99_us < 1000").unwrap();
        let good = SloReport::evaluate(&rules, &snap(10, 0));
        assert!(good.ok());
        assert!(good.breaches().is_empty());
        let bad = SloReport::evaluate(&rules, &snap(3, 2));
        assert!(!bad.ok());
        let breached: Vec<&str> = bad
            .breaches()
            .iter()
            .map(|c| c.rule.metric.as_str())
            .collect();
        assert_eq!(breached, vec!["rejected", "ops"]);
        let json = bad.to_json();
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\"breaches\": 2"));
        assert!(json.contains("\"rule\": \"rejected == 0\""));
    }

    #[test]
    fn every_listed_metric_is_readable() {
        let s = snap(1, 0);
        for m in METRICS {
            assert!(metric_of(&s, m).is_some(), "metric {m} unreadable");
        }
        assert!(metric_of(&s, "nope").is_none());
    }
}
