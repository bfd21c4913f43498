//! Shared infrastructure for the experiment binaries.
//!
//! Every figure/table of the paper, and every extension experiment, is a
//! function in [`figures`] that returns the series it plots (see
//! DESIGN.md's experiment index); the `figures` binary runs them and
//! writes `FIGURES.json`. Experiments run at a laptop-friendly **quick**
//! scale by default; set `HYPERM_SCALE=full` to reproduce the paper's
//! full workload sizes
//! (100 nodes × 1000 items × 512-d for dissemination; 12,000 histograms
//! over 50 nodes for retrieval).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;

use hyperm_cluster::Dataset;
use hyperm_datagen::{
    distribute_by_clusters, generate_aloi_like, generate_markov, AloiConfig, DistributeConfig,
    MarkovConfig,
};
use hyperm_telemetry::json::{escape, inline_arr, JsonObj};
use std::fmt;

/// Experiment scale, controlled by the `HYPERM_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes; every experiment finishes in seconds.
    Quick,
    /// The paper's workload sizes.
    Full,
}

impl Scale {
    /// Parse a `HYPERM_SCALE` value: unset is quick, `quick` and `full`
    /// are accepted in any case, and anything else is an error naming the
    /// accepted values.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None => Ok(Scale::Quick),
            Some(v) if v.eq_ignore_ascii_case("quick") => Ok(Scale::Quick),
            Some(v) if v.eq_ignore_ascii_case("full") => Ok(Scale::Full),
            Some(v) => Err(format!(
                "unknown HYPERM_SCALE {v:?}; accepted: quick, full (any case) or unset"
            )),
        }
    }

    /// Read `HYPERM_SCALE` (see [`Scale::parse`]).
    pub fn from_env() -> Result<Scale, String> {
        let value = std::env::var_os("HYPERM_SCALE");
        Scale::parse(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }
}

/// Parameters of the Section-5 dissemination workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisseminationWorkload {
    /// Network size (paper: 100).
    pub nodes: usize,
    /// Items per node (paper: 1000).
    pub items_per_node: usize,
    /// Dimensionality (paper: 512).
    pub dim: usize,
}

impl DisseminationWorkload {
    /// Workload for the given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self {
                nodes: 100,
                items_per_node: 400,
                dim: 512,
            },
            Scale::Full => Self {
                nodes: 100,
                items_per_node: 1000,
                dim: 512,
            },
        }
    }

    /// Generate the Markov corpus and deal it onto peers the paper's way
    /// (global k-means classes spread over 8–10 nodes each).
    pub fn build_peers(&self, seed: u64) -> Vec<Dataset> {
        let total = self.nodes * self.items_per_node;
        let data = generate_markov(&MarkovConfig {
            count: total,
            dim: self.dim,
            max_step_cap: 0.05,
            seed,
        });
        let mut peers = distribute_by_clusters(
            &data,
            &DistributeConfig {
                peers: self.nodes,
                classes: (self.nodes / 4).max(2),
                peers_per_class: (8, 10),
                minibatch: true,
                seed: seed.wrapping_add(1),
            },
        );
        // The class spread can leave a few peers empty; backfill one item
        // each from the largest peer so every node participates.
        backfill_empty_peers(&mut peers);
        peers
    }
}

/// Parameters of the Section-6 retrieval workload (ALOI substitute).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalWorkload {
    /// Network size (paper: 50).
    pub nodes: usize,
    /// Object classes.
    pub classes: usize,
    /// Views per class (classes × views = corpus size; paper: 12,000).
    pub views_per_class: usize,
}

impl RetrievalWorkload {
    /// Workload for the given scale.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self {
                nodes: 50,
                classes: 40,
                views_per_class: 30,
            },
            Scale::Full => Self {
                nodes: 50,
                classes: 100,
                views_per_class: 120,
            },
        }
    }

    /// Generate histograms and deal classes onto peers (each class's views
    /// spread over a few peers, mimicking shared interests).
    pub fn build_peers(&self, seed: u64) -> Vec<Dataset> {
        let corpus = generate_aloi_like(&AloiConfig {
            classes: self.classes,
            views_per_class: self.views_per_class,
            bins: 64,
            view_jitter: 0.15,
            seed,
        });
        let mut peers = distribute_by_clusters(
            &corpus.data,
            &DistributeConfig {
                peers: self.nodes,
                classes: self.classes,
                peers_per_class: (3, 6),
                minibatch: true,
                seed: seed.wrapping_add(1),
            },
        );
        backfill_empty_peers(&mut peers);
        peers
    }
}

fn backfill_empty_peers(peers: &mut [Dataset]) {
    let donor = (0..peers.len())
        .max_by_key(|&i| peers[i].len())
        .expect("at least one peer");
    let donor_rows: Vec<Vec<f64>> = peers[donor].rows().map(<[f64]>::to_vec).collect();
    let mut next = 0usize;
    for peer in peers.iter_mut() {
        if peer.is_empty() {
            peer.push_row(&donor_rows[next % donor_rows.len()]);
            next += 1;
        }
    }
}

/// A titled table of printed cells. Its text form is an aligned header
/// row then data rows (also valid CSV when pasted, commas included); its
/// JSON form holds the same strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Printed as `== title ==` above the header row.
    pub title: String,
    /// Column names.
    pub headers: Vec<String>,
    /// Cells, one `Vec` per row, as printed.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table from borrowed headers.
    pub fn new(title: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        }
    }

    /// One-line JSON object: `{"title": …, "headers": […], "rows": [[…], …]}`.
    pub fn json(&self) -> String {
        JsonObj::new()
            .s("title", &self.title)
            .raw("headers", json_strings(&self.headers))
            .raw(
                "rows",
                inline_arr(self.rows.iter().map(|r| json_strings(r))),
            )
            .render()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            writeln!(f, "{}", line.join(", "))?;
        }
        Ok(())
    }
}

/// A JSON array of strings, inline.
fn json_strings(items: &[String]) -> String {
    inline_arr(items.iter().map(|s| format!("\"{}\"", escape(s))))
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workloads_build() {
        let w = DisseminationWorkload {
            nodes: 10,
            items_per_node: 20,
            dim: 32,
        };
        let peers = w.build_peers(1);
        assert_eq!(peers.len(), 10);
        assert!(peers.iter().all(|p| !p.is_empty()));
        assert!(peers.iter().map(Dataset::len).sum::<usize>() >= 200);
    }

    #[test]
    fn retrieval_workload_builds() {
        let w = RetrievalWorkload {
            nodes: 8,
            classes: 5,
            views_per_class: 10,
        };
        let peers = w.build_peers(2);
        assert_eq!(peers.len(), 8);
        assert!(peers.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn table_text_aligns_columns_and_json_keeps_cells() {
        let t = Table::new(
            "t \"q\"",
            &["name", "v"],
            vec![
                vec!["a".into(), "1.000".into()],
                vec!["long".into(), "2".into()],
            ],
        );
        assert_eq!(
            t.to_string(),
            "\n== t \"q\" ==\nname,     v\n   a, 1.000\nlong,     2\n"
        );
        assert_eq!(
            t.json(),
            r#"{"title": "t \"q\"", "headers": ["name", "v"], "rows": [["a", "1.000"], ["long", "2"]]}"#
        );
    }

    #[test]
    fn scale_accepts_quick_full_or_unset_only() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        for (value, scale) in [
            ("quick", Scale::Quick),
            ("QUICK", Scale::Quick),
            ("full", Scale::Full),
            ("Full", Scale::Full),
            ("FULL", Scale::Full),
        ] {
            assert_eq!(Scale::parse(Some(value)), Ok(scale), "{value}");
        }
        for typo in ["", "paper", "fulll", " full", "quick "] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(err.contains("quick, full"), "{typo:?}: {err}");
        }
    }
}
