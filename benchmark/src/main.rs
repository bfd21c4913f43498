//! Paper-scale layered benchmark for Hyper-M. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--record]
//!     [--corpus-seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

mod churn;
mod measure;
mod publish;
mod query;
mod setup;
mod spec;
mod stats;
mod tcp;
mod trace;

use hyperm_telemetry::json::JsonObj;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    /// Operations that errored, were truncated, missed or invented an
    /// item, disagreed with their replay, or did not repeat exactly.
    pub failed: u64,
    /// FNV-64 over every operation's result; equal for equal seeds.
    pub digest: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable part of the report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            digest: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The paper's cost measure: `total` over `ops` operations.
    pub fn set_costs(&mut self, total: hyperm_sim::OpStats, ops: u64) {
        self.set("hops_per_op", total.hops as f64 / ops as f64);
        self.set("messages_per_op", total.messages as f64 / ops as f64);
        self.set("bytes_per_op", total.bytes as f64 / ops as f64);
    }

    /// Every guard held: nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: every metric of `table`, in table order.
    fn render(&self, table: &[(&'static str, &'static str)], traced: bool) -> String {
        let mut metrics = JsonObj::new();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                // A layer this workload's replay never enters.
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is {value}");
            metrics = metrics.obj(name, JsonObj::new().g("value", value).s("unit", unit));
        }
        JsonObj::new()
            .b("correct", self.correct())
            .u("attempted", self.attempted.max(1))
            .u("failed", self.failed)
            .obj("metrics", metrics)
            .render()
    }
}

struct Args {
    workload: String,
    seed: u64,
    corpus_seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        corpus_seed: setup::CORPUS_SEED,
        seconds: 10.0,
        traced: false,
        quick: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--corpus-seed" => {
                args.corpus_seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--corpus-seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !spec::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?} or all",
            spec::WORKLOADS
        ));
    }
    Ok(args)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_one(workload: &str, args: &Args) -> Outcome {
    let run = setup::Run {
        scale: if args.quick {
            setup::QUICK
        } else {
            setup::PAPER
        },
        seed: args.seed,
        corpus_seed: args.corpus_seed,
        seconds: args.seconds,
    };
    if !args.traced {
        let mut out = match workload {
            "publish_paper" => publish::run(&run),
            "tcp_query" => tcp::run(&run),
            "churn_mix" => churn::run(&run),
            _ => query::run(workload, &run),
        };
        out.set("peak_rss_mib", setup::peak_rss_mib());
        return out;
    }
    let mut tr = trace::Tracer::new();
    let out = match workload {
        "publish_paper" => publish::run_traced(&run, &mut tr),
        "tcp_query" => tcp::run_traced(&run, &mut tr),
        "churn_mix" => churn::run_traced(&run, &mut tr),
        _ => query::run_traced(workload, &run, &mut tr),
    };
    let dir = bench_dir().join("out");
    let path = dir.join(format!("trace_{workload}.jsonl"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| tr.write_jsonl(&path))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("{} spans written to {}", tr.spans().len(), path.display());
    println!(
        "{:<12} {:<24} {:>9} {:>12} {:>12}",
        "layer", "span", "spans", "total_ms", "self_ms"
    );
    for ((layer, name), t) in trace::totals(tr.spans()).iter() {
        println!(
            "{layer:<12} {name:<24} {:>9} {:>12.3} {:>12.3}",
            t.spans,
            t.dur_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    out
}

/// The header shared by every line of `history.jsonl`.
fn header(args: &Args) -> JsonObj {
    let capture = |cmd: &str, cmd_args: &[&str]| {
        std::process::Command::new(cmd)
            .args(cmd_args)
            .current_dir(bench_dir())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    JsonObj::new()
        .s(
            "git_rev",
            &capture("git", &["describe", "--always", "--dirty"]),
        )
        .u("cores", cores as u64)
        .u("seed", args.seed)
        .u("corpus_seed", args.corpus_seed)
        .s("rustc", &capture("rustc", &["--version"]))
        .s("scale", if args.quick { "quick" } else { "paper" })
        .g("seconds", args.seconds)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        spec::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let table: &[(&str, &str)] = if args.traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let mut all_correct = true;
    for name in names {
        let out = run_one(name, &args);
        all_correct &= out.correct();
        println!(
            "workload {name} seed {} result_digest {:016x}",
            args.seed, out.digest
        );
        for note in &out.notes {
            println!("  {note}");
        }
        for &(metric, unit) in table {
            if let Some(v) = out.metrics.get(metric) {
                println!("  {metric:<44} {v:>16.6} {unit}");
            }
        }
        let line = out.render(table, args.traced);
        if args.record {
            let entry = header(&args)
                .s("workload", name)
                .b("traced", args.traced)
                .s("result_digest", &format!("{:016x}", out.digest))
                .raw("result", line.clone());
            let path = bench_dir().join("history.jsonl");
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| writeln!(f, "{}", entry.render()))
                .unwrap_or_else(|e| panic!("append {}: {e}", path.display()));
        }
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness guard failed; see the result line");
        ExitCode::FAILURE
    }
}
