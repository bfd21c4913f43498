//! `hyperm-monitor` — inspect a running cluster: one-shot state dumps
//! and a live scrape/SLO watch loop.
//!
//! ```text
//! hyperm-monitor --node ADDR
//! hyperm-monitor --watch --nodes ADDR1,ADDR2,... [--interval MS]
//!                [--count N] [--slo "RULES"]
//! ```
//!
//! **One-shot** (`--node`): prints the node's `MonitorAck` JSON document
//! verbatim. Heads report membership, per-level zones, neighbour lists
//! and summary counts — plus a `load` array with live per-peer counters
//! whenever a `hyperm-load` ledger is installed. Members report their
//! role and head address. Every document carries the node's transport
//! id, frame clock and monotone scrape sequence.
//!
//! **Watch** (`--watch`): polls every listed node's `Stats` endpoint,
//! printing one JSON line per node scrape (the node's sliding-window
//! [`WindowSnapshot`]) and one `"kind": "cluster"` line per round with
//! the merged cluster-wide aggregate. With `--slo` the aggregate is
//! checked against declarative rules (e.g. `"p99_ms < 50, rejected ==
//! 0"`) each round; the process exits non-zero with a structured breach
//! report if any round violated a rule. `--count N` stops after N
//! rounds (0 = run until interrupted), which is how CI bounds the loop.
//!
//! A missing or bad flag exits 2 before any node is contacted.

use hyperm::telemetry::{JsonObj, JsonValue, SloReport, SloRule, WindowSnapshot};
use hyperm::transport::{Client, RequestPolicy, TcpEndpoint};
use std::process::ExitCode;
use std::time::Duration;

mod cli;
use cli::{get, Flags};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.next_if(|a| a == "help").is_some() {
        help();
        return ExitCode::SUCCESS;
    }
    let opts = cli::parse_flags(args.collect());
    if opts.contains_key("help") {
        help();
        return ExitCode::SUCCESS;
    }
    match run(&opts) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("hyperm-monitor: {usage}");
            ExitCode::from(2)
        }
    }
}

/// Dump one node or watch several. `Err` is a missing or bad flag, found
/// before any node is contacted.
fn run(opts: &Flags) -> Result<ExitCode, String> {
    let interval_ms: u64 = get(opts, "interval", 500, ..)?;
    let count: u64 = get(opts, "count", 0, ..)?;
    let node = opts.get("node");
    let outcome = if opts.contains_key("watch") {
        let list: Vec<String> = opts
            .get("nodes")
            .or(node)
            .map_or("", String::as_str)
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if list.is_empty() {
            return Err("--watch needs --nodes ADDR1,ADDR2,...".into());
        }
        let rules = SloRule::parse_list(opts.get("slo").map_or("", String::as_str))
            .map_err(|e| format!("bad --slo rules: {e}"))?;
        watch_loop(&list, Duration::from_millis(interval_ms), count, &rules)
    } else {
        let node = node.ok_or("--node ADDR is required")?;
        connect(node)
            .and_then(|c| c.monitor().map_err(|e| e.to_string()))
            .map(|json| {
                print!("{json}");
                true
            })
    };
    Ok(match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            println!("{}", JsonObj::new().b("ok", false).s("error", &e).render());
            ExitCode::FAILURE
        }
    })
}

fn connect(node: &str) -> Result<Client<TcpEndpoint>, String> {
    let addr = node
        .parse()
        .map_err(|e| format!("bad node address {node}: {e}"))?;
    let id = 2_000_000 + u64::from(std::process::id());
    let endpoint = TcpEndpoint::bind(id, "127.0.0.1:0").map_err(|e| e.to_string())?;
    endpoint
        .connect(0, addr)
        .map_err(|e| format!("cannot reach node at {node}: {e}"))?;
    // Scrapes are cheap and periodic: keep per-attempt waits short so a
    // dead node costs a watch round fractions of the default timeout.
    Ok(Client::new(endpoint, 0).with_config(RequestPolicy {
        timeout: Duration::from_secs(5),
        ..RequestPolicy::default()
    }))
}

/// Scrape every node `count` times (0 = forever), printing each node's
/// window and evaluating `rules` against the cluster aggregate. Returns
/// `Ok(true)` when no round breached.
///
/// An unreachable node does not abort the round: it is reported as a
/// `"status": "down"` node line (with a typed error kind), skipped from
/// the merge, and re-polled next round — crashed nodes coming back (the
/// transport redials with backoff, and a node that never answered at
/// start is re-connected here) rejoin the aggregate on their own.
fn watch_loop(
    nodes: &[String],
    interval: Duration,
    count: u64,
    rules: &[SloRule],
) -> Result<bool, String> {
    let mut clients: Vec<Option<Client<TcpEndpoint>>> =
        nodes.iter().map(|addr| connect(addr).ok()).collect();
    let mut clean = true;
    let mut round = 0u64;
    loop {
        round += 1;
        let mut snaps = Vec::new();
        let mut down = 0u64;
        for (addr, slot) in nodes.iter().zip(clients.iter_mut()) {
            if slot.is_none() {
                *slot = connect(addr).ok();
            }
            let scraped = match slot {
                Some(client) => client.stats().map_err(|e| e.kind_name().to_string()),
                None => Err("unreachable".to_string()),
            };
            let json = match scraped {
                Ok(json) => json,
                Err(kind) => {
                    down += 1;
                    println!(
                        "{}",
                        JsonObj::new()
                            .u("scrape", round)
                            .s("kind", "node")
                            .s("addr", addr)
                            .s("status", "down")
                            .s("error", &kind)
                            .render()
                    );
                    continue;
                }
            };
            let value = JsonValue::parse(&json)
                .map_err(|e| format!("unparseable stats from {addr}: {e:?}"))?;
            let snap = WindowSnapshot::from_json(&value)
                .ok_or_else(|| format!("stats from {addr}: missing snapshot fields"))?;
            println!(
                "{}",
                JsonObj::new()
                    .u("scrape", round)
                    .s("kind", "node")
                    .s("addr", addr)
                    .s("status", "up")
                    .raw("window", snap.to_json())
                    .render()
            );
            snaps.push(snap);
        }
        let cluster = WindowSnapshot::merge(&snaps);
        let mut line = JsonObj::new()
            .u("scrape", round)
            .s("kind", "cluster")
            .u("nodes", snaps.len() as u64)
            .u("down", down)
            .raw("window", cluster.to_json());
        if !rules.is_empty() {
            let report = SloReport::evaluate(rules, &cluster);
            if !report.ok() {
                clean = false;
            }
            line = line.raw("slo", report.to_json());
        }
        println!("{}", line.render());
        if count != 0 && round >= count {
            break;
        }
        std::thread::sleep(interval);
    }
    println!(
        "{}",
        JsonObj::new()
            .b("ok", clean)
            .s("kind", "watch_done")
            .u("scrapes", round)
            .u("nodes", nodes.len() as u64)
            .u("rules", rules.len() as u64)
            .render()
    );
    Ok(clean)
}

fn help() {
    println!(
        "hyperm-monitor — dump live overlay state / watch cluster metrics

USAGE:
  hyperm-monitor --node ADDR
  hyperm-monitor --watch --nodes ADDR1,ADDR2,... [--interval MS] [--count N] [--slo \"RULES\"]

Watch mode polls every node's sliding-window Stats endpoint, prints one
JSON line per node scrape plus a merged cluster line per round, and
(with --slo) exits non-zero if any round breaches a rule, e.g.
  --slo \"p99_ms < 50, rejected == 0, failed_routes == 0\""
    );
}
