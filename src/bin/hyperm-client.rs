//! `hyperm-client` — put/get/query CLI against a running `hyperm-node`.
//!
//! ```text
//! hyperm-client put      --node ADDR --peer P --item V1,V2,... [--republish]
//! hyperm-client get      --node ADDR --level L --key V1,V2,...
//! hyperm-client query    --node ADDR --centre V1,V2,... --eps E [--budget B] [--trace T]
//! hyperm-client fetch    --node ADDR --peer P --centre V1,V2,... --eps E
//! hyperm-client route    --node ADDR --level L --key V1,V2,...
//! hyperm-client stats    --node ADDR
//! hyperm-client shutdown --node ADDR
//! hyperm-client help
//! ```
//!
//! Every subcommand prints a single JSON object, so output is scriptable
//! (the CI transport smoke job parses it). A usage error (an unknown
//! subcommand, a missing or bad flag) exits 2; a transport error or a
//! node's refusal exits 0 with `"ok": false`. `query --trace T` stamps the
//! request frame with trace id `T` so nodes running with `--trace PATH`
//! parent their serve spans into one cross-process trace; `stats` dumps
//! the node's sliding-window metrics snapshot verbatim.

use hyperm::telemetry::{JsonObj, TraceCtx};
use hyperm::transport::{Client, TcpEndpoint, TransportError};
use std::fmt::{Debug, Display};
use std::process::ExitCode;
use std::str::FromStr;

mod cli;
use cli::Flags;

/// Why a subcommand failed: bad flags, or a transport-layer error. The
/// distinction survives into the output as a typed error object, so a
/// script can tell a mid-request peer disconnect (`closed`) from a
/// timeout or its own bad arguments without parsing prose.
enum CmdError {
    Usage(String),
    Transport(TransportError),
}

impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::Usage(msg)
    }
}

impl From<TransportError> for CmdError {
    fn from(err: TransportError) -> Self {
        CmdError::Transport(err)
    }
}

/// A subcommand: it checks its flags, then connects to the node and
/// answers one JSON object.
type Run = fn(&Flags) -> Result<JsonObj, CmdError>;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "help".into());
    let opts = cli::parse_flags(args.collect());
    // Subcommand and flags are checked before any socket is opened.
    let run: Run = match cmd.as_str() {
        "put" => put,
        "get" => get_cmd,
        "query" => query,
        "fetch" => fetch,
        "route" => route,
        "shutdown" => |opts| {
            connect(opts)?.shutdown()?;
            Ok(JsonObj::new().b("ok", true))
        },
        "stats" => {
            // The snapshot is already one JSON document: print verbatim.
            return match connect(&opts).and_then(|c| Ok(c.stats()?)) {
                Ok(json) => {
                    println!("{json}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&cmd, &e),
            };
        }
        "help" => {
            help();
            return ExitCode::SUCCESS;
        }
        other => {
            help();
            let e = CmdError::Usage(format!("unknown subcommand {other:?}"));
            return fail(&cmd, &e);
        }
    };
    match run(&opts) {
        Ok(obj) => {
            println!("{}", obj.s("cmd", &cmd).render());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&cmd, &e),
    }
}

/// Failures are still one parseable JSON object. The `error` field is
/// itself an object: `kind` is a stable machine-readable name
/// ([`TransportError::kind_name`], or `"usage"`), `detail` the
/// human-readable message. A usage error exits 2; a transport error
/// exits 0, because the smoke scripts branch on the `ok` field.
fn fail(cmd: &str, err: &CmdError) -> ExitCode {
    let (kind, detail, code) = match err {
        CmdError::Usage(msg) => ("usage", msg.clone(), ExitCode::from(2)),
        CmdError::Transport(e) => (e.kind_name(), e.to_string(), ExitCode::SUCCESS),
    };
    println!(
        "{}",
        JsonObj::new()
            .b("ok", false)
            .s("cmd", cmd)
            .raw(
                "error",
                JsonObj::new().s("kind", kind).s("detail", &detail).render()
            )
            .render()
    );
    code
}

fn connect(opts: &Flags) -> Result<Client<TcpEndpoint>, CmdError> {
    let node = opts
        .get("node")
        .ok_or_else(|| "--node ADDR is required".to_string())?;
    let addr = node
        .parse()
        .map_err(|e| format!("bad --node address {node}: {e}"))?;
    let trace_id: u64 = cli::get(opts, "trace", 0, ..)?;
    // Client transport ids live far above node ids; uniqueness per
    // process is enough for reply routing.
    let id = 1_000_000 + u64::from(std::process::id());
    let endpoint = TcpEndpoint::bind(id, "127.0.0.1:0")?;
    endpoint.connect(0, addr)?;
    let mut client = Client::new(endpoint, 0);
    if trace_id != 0 {
        client = client.with_trace(TraceCtx {
            trace_id,
            parent_span: 0,
        });
    }
    Ok(client)
}

fn vector(opts: &Flags, key: &str) -> Result<Vec<f64>, String> {
    let raw = opts
        .get(key)
        .ok_or_else(|| format!("--{key} V1,V2,... is required"))?;
    raw.split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad --{key} component {t:?}: {e}"))
        })
        .collect()
}

/// A required numeric flag; every one of them is at least zero.
fn num<T>(opts: &Flags, key: &str) -> Result<T, String>
where
    T: FromStr + Default + PartialOrd + Display + Debug,
{
    if !opts.contains_key(key) {
        return Err(format!("--{key} is required"));
    }
    cli::get(opts, key, T::default(), T::default()..)
}

fn put(opts: &Flags) -> Result<JsonObj, CmdError> {
    let peer: u64 = num(opts, "peer")?;
    let item = vector(opts, "item")?;
    let republish = opts.contains_key("republish");
    let index = connect(opts)?.put(peer, &item, republish)?;
    Ok(JsonObj::new()
        .b("ok", true)
        .u("peer", peer)
        .u("index", index)
        .b("republished", republish))
}

fn get_cmd(opts: &Flags) -> Result<JsonObj, CmdError> {
    let level: u16 = num(opts, "level")?;
    let key = vector(opts, "key")?;
    let objects = connect(opts)?.get(level, &key)?;
    let rendered: Vec<String> = objects
        .iter()
        .map(|o| {
            JsonObj::new()
                .u("peer", o.payload.peer as u64)
                .u("tag", o.payload.tag)
                .u("items", u64::from(o.payload.items))
                .g("radius", o.radius)
                .render()
        })
        .collect();
    Ok(JsonObj::new()
        .b("ok", true)
        .u("level", u64::from(level))
        .u("matches", rendered.len() as u64)
        .arr("objects", &rendered))
}

fn query(opts: &Flags) -> Result<JsonObj, CmdError> {
    let centre = vector(opts, "centre")?;
    let eps: f64 = num(opts, "eps")?;
    // An absent budget is unlimited, as `u32::MAX` is on the wire.
    let budget = Some(cli::get(opts, "budget", u32::MAX, ..)?);
    let (items, (hops, messages, bytes)) = connect(opts)?.query(&centre, eps, budget)?;
    let rendered: Vec<String> = items.iter().map(|&(p, i)| format!("[{p},{i}]")).collect();
    Ok(JsonObj::new()
        .b("ok", true)
        .u("matches", items.len() as u64)
        .u("hops", hops)
        .u("messages", messages)
        .u("bytes", bytes)
        .arr("items", &rendered))
}

fn fetch(opts: &Flags) -> Result<JsonObj, CmdError> {
    let peer: u64 = num(opts, "peer")?;
    let centre = vector(opts, "centre")?;
    let eps: f64 = num(opts, "eps")?;
    let indices = connect(opts)?.fetch(peer, &centre, eps)?;
    let rendered: Vec<String> = indices.iter().map(|i| i.to_string()).collect();
    Ok(JsonObj::new()
        .b("ok", true)
        .u("peer", peer)
        .u("matches", indices.len() as u64)
        .arr("indices", &rendered))
}

fn route(opts: &Flags) -> Result<JsonObj, CmdError> {
    let level: u16 = num(opts, "level")?;
    let key = vector(opts, "key")?;
    let owner = connect(opts)?.route(level, &key)?;
    Ok(JsonObj::new()
        .b("ok", true)
        .u("level", u64::from(level))
        .u("owner", owner))
}

fn help() {
    println!(
        "hyperm-client — put/get/query CLI for a running hyperm-node

USAGE:
  hyperm-client put      --node ADDR --peer P --item V1,V2,... [--republish]
  hyperm-client get      --node ADDR --level L --key V1,V2,...
  hyperm-client query    --node ADDR --centre V1,V2,... --eps E [--budget B] [--trace T]
  hyperm-client fetch    --node ADDR --peer P --centre V1,V2,... --eps E
  hyperm-client route    --node ADDR --level L --key V1,V2,...
  hyperm-client stats    --node ADDR
  hyperm-client shutdown --node ADDR

Output is one JSON object per invocation. `--trace T` stamps request
frames with trace id T for cross-process trace stitching; `stats` dumps
the node's sliding-window metrics snapshot."
    );
}
