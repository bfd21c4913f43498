//! The committed `FIGURES.json` is the quick-scale output of the `figures`
//! binary, and CI regenerates it and fails on any diff. These checks read
//! the committed file only (no figure runs): its shape matches the
//! registry, the cells Theorem 4.1 guarantees read one, and so do the
//! recall cells the churn, fault and load experiments assert.

use hyperm_bench::figures::ALL;
use hyperm_telemetry::JsonValue;

fn pinned() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FIGURES.json");
    let text = std::fs::read_to_string(path).expect("FIGURES.json is committed at the repo root");
    JsonValue::parse(&text).expect("FIGURES.json parses")
}

fn strings(v: &JsonValue) -> Vec<&str> {
    v.as_arr()
        .expect("an array")
        .iter()
        .map(|s| s.as_str().expect("a string cell"))
        .collect()
}

fn figures(doc: &JsonValue) -> &[JsonValue] {
    doc.get("figures")
        .and_then(JsonValue::as_arr)
        .expect("a figures array")
}

fn tables(figure: &JsonValue) -> &[JsonValue] {
    figure
        .get("tables")
        .and_then(JsonValue::as_arr)
        .expect("a tables array")
}

/// For every row of every table of figure `id` that has all of `headers`:
/// the row's first cell (its label), then its cells under `headers`.
fn cells<'a>(doc: &'a JsonValue, id: &str, headers: &[&str]) -> Vec<Vec<&'a str>> {
    let figure = figures(doc)
        .iter()
        .find(|f| f.get("id").and_then(JsonValue::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no figure {id}"));
    let mut cells = Vec::new();
    for table in tables(figure) {
        let names = strings(table.get("headers").expect("headers"));
        let Some(at) = headers
            .iter()
            .map(|h| names.iter().position(|n| n == h))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        for row in table.get("rows").and_then(JsonValue::as_arr).expect("rows") {
            let row = strings(row);
            cells.push(
                std::iter::once(row[0])
                    .chain(at.iter().map(|&i| row[i]))
                    .collect(),
            );
        }
    }
    assert!(!cells.is_empty(), "{id} has no columns {headers:?}");
    cells
}

/// Every cell of column `header` in figure `id`, with its row's label.
fn column<'a>(doc: &'a JsonValue, id: &str, header: &str) -> Vec<(&'a str, &'a str)> {
    cells(doc, id, &[header])
        .into_iter()
        .map(|row| (row[0], row[1]))
        .collect()
}

/// A recall cell that reads exactly one, at whatever precision it prints.
fn reads_one(cell: &str) -> bool {
    cell.parse::<f64>() == Ok(1.0)
}

#[test]
fn pinned_at_quick_scale_in_registry_order() {
    let doc = pinned();
    assert_eq!(doc.get("scale").and_then(JsonValue::as_str), Some("quick"));
    let ids: Vec<&str> = figures(&doc)
        .iter()
        .map(|f| f.get("id").and_then(JsonValue::as_str).expect("an id"))
        .collect();
    let registry: Vec<&str> = ALL.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, registry);
}

#[test]
fn every_row_fills_its_header() {
    let doc = pinned();
    for figure in figures(&doc) {
        for table in tables(figure) {
            let width = strings(table.get("headers").expect("headers")).len();
            for row in table.get("rows").and_then(JsonValue::as_arr).expect("rows") {
                assert_eq!(strings(row).len(), width, "{figure:?}");
            }
        }
    }
}

#[test]
fn theorem_cells_read_one() {
    let doc = pinned();
    let all: Vec<_> = column(&doc, "fig10a", "recall min")
        .into_iter()
        .filter(|(label, _)| *label == "all")
        .collect();
    assert_eq!(
        all,
        [("all", "1.000")],
        "fig10a: unbounded contact misses answers"
    );
    for (policy, recall) in column(&doc, "fig10c", "recall") {
        if policy == "Republish" {
            assert_eq!(recall, "1.000", "fig10c: current summaries miss answers");
        }
    }
    for id in ["scalability", "ablation_overlay"] {
        for (row, recall) in column(&doc, id, "range recall") {
            assert_eq!(recall, "1.000", "{id}: row {row} misses answers");
        }
    }
    let knn = column(&doc, "ablation_overlay", "knn recall");
    assert!(
        knn.iter().all(|(_, r)| *r == knn[0].1),
        "ablation_overlay: k-nn recall differs across substrates: {knn:?}"
    );
    for row in cells(&doc, "churn", &["mode", "recall all", "recall alive"]) {
        let [failed, mode, all, alive] = row[..] else {
            unreachable!()
        };
        if mode == "repair" {
            assert!(
                reads_one(alive),
                "churn: repair at {failed} failed, alive recall {alive}"
            );
        }
        if failed == "0%" {
            assert!(
                reads_one(all),
                "churn: {mode} with no failures, recall {all}"
            );
        }
    }
    for (drop, recall) in column(&doc, "faults", "recall final") {
        assert!(
            reads_one(recall),
            "faults: drop {drop}, final recall {recall}"
        );
    }
    for (s, recall) in column(&doc, "load", "recall") {
        assert!(reads_one(recall), "load: s = {s}, recall {recall}");
    }
    let improvement = column(&doc, "load", "improvement");
    let improvement: f64 = improvement[0].1.parse().expect("a number");
    assert!(
        improvement >= 2.0,
        "load: s = 1.2 improvement {improvement}"
    );
}
