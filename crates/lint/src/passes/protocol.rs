//! Protocol-consistency pass: the wire protocol's three sources of
//! truth must agree, and the linter links them in at build time (the
//! same trick as `tel-taxonomy`) so they cannot drift:
//!
//! * `hyperm_can::codec::kind::ALL` — the kind table (byte ↔ variant);
//! * `Message::reply_kind_of` — the request→reply pairing;
//! * `hyperm_transport::runtime::RESENDABLE_KINDS` — the client's
//!   timeout-retry set, which must stay inside
//!   `kind::IDEMPOTENT` (the protocol's declaration of which requests
//!   tolerate duplicate delivery).
//!
//! Rules:
//! * `proto-exhaustive` — every kind in `ALL` has a `Message::Variant`
//!   dispatch arm in `runtime/mod.rs`; a kind with no handler is a request
//!   the node silently drops.
//! * `proto-pairing` — kind bytes don't collide, the `kind` consts in
//!   `codec.rs` source agree with `ALL` (names and values), every
//!   request's reply target exists and is not itself a request, and
//!   every kind is classified (request, some request's reply, or the
//!   `HELLO` handshake).
//! * `proto-retry-set` — `RESENDABLE_KINDS` is non-empty, duplicate-free
//!   and a subset of `IDEMPOTENT`; `IDEMPOTENT` only names request
//!   kinds (an idempotence claim about a reply is meaningless).
//!
//! Like the facade pass this runs once per workspace (not per file) and
//! attributes findings to the defining source line where one can be
//! located. [`check`] is separated from [`run`] so fixture tests can
//! feed doctored tables and token streams; `run` wires in the real
//! linked constants.

use crate::lexer::{lex, Tok, Token};
use crate::report::Violation;
use hyperm_can::codec::{kind, Message};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const CODEC: &str = "crates/can/src/codec.rs";
const RUNTIME: &str = "crates/transport/src/runtime/mod.rs";

/// The protocol's sources of truth, decoupled from the linked crates so
/// the checker is testable with synthetic tables.
pub struct ProtoTables {
    /// (kind byte, variant name) — `kind::ALL`.
    pub all: Vec<(u8, String)>,
    /// Request kinds declared duplicate-tolerant — `kind::IDEMPOTENT`.
    pub idempotent: Vec<u8>,
    /// The client's timeout-retry set — `runtime::RESENDABLE_KINDS`.
    pub resendable: Vec<u8>,
    /// (request, reply) pairs — `Message::reply_kind_of`.
    pub reply: Vec<(u8, u8)>,
    /// Kinds allowed to be neither request nor reply (the `HELLO`
    /// handshake).
    pub unpaired_ok: Vec<u8>,
}

impl ProtoTables {
    /// Build from the real constants linked into this binary.
    pub fn from_workspace() -> Self {
        ProtoTables {
            all: kind::ALL.iter().map(|&(b, n)| (b, n.to_string())).collect(),
            idempotent: kind::IDEMPOTENT.to_vec(),
            resendable: hyperm_transport::runtime::RESENDABLE_KINDS.to_vec(),
            reply: kind::ALL
                .iter()
                .filter_map(|&(b, _)| Message::reply_kind_of(b).map(|r| (b, r)))
                .collect(),
            unpaired_ok: vec![kind::HELLO],
        }
    }
}

/// Run the pass over the workspace rooted at `root` using the real
/// linked tables.
pub fn run(root: &Path) -> Vec<Violation> {
    check(
        &ProtoTables::from_workspace(),
        &lex_file(root, CODEC),
        &lex_file(root, RUNTIME),
    )
}

/// Check `tables` for internal consistency and against the lexed
/// `codec.rs` / `runtime/mod.rs` sources.
pub fn check(tables: &ProtoTables, codec_toks: &[Token], runtime_toks: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    let name_of = |b: u8| -> &str {
        tables
            .all
            .iter()
            .find(|&&(kb, _)| kb == b)
            .map(|(_, n)| n.as_str())
            .unwrap_or("?")
    };
    let reply_of =
        |k: u8| -> Option<u8> { tables.reply.iter().find(|&&(q, _)| q == k).map(|&(_, r)| r) };

    // --- proto-pairing: byte collisions inside ALL -----------------------
    let mut by_byte: BTreeMap<u8, Vec<&str>> = BTreeMap::new();
    for (b, name) in &tables.all {
        by_byte.entry(*b).or_default().push(name.as_str());
    }
    for (b, names) in &by_byte {
        if names.len() > 1 {
            out.push(Violation {
                file: CODEC.to_string(),
                line: const_line(codec_toks, &screaming(names[0])).unwrap_or(1),
                rule: "proto-pairing",
                message: format!(
                    "kind byte {b} is claimed by {}; kind bytes must be unique",
                    names.join(" and ")
                ),
            });
        }
    }

    // --- proto-pairing: source consts agree with ALL ---------------------
    let src_consts = kind_consts(codec_toks);
    let table: BTreeMap<String, u8> = tables
        .all
        .iter()
        .map(|(b, name)| (screaming(name), *b))
        .collect();
    for (name, (value, line)) in &src_consts {
        match table.get(name) {
            None => out.push(Violation {
                file: CODEC.to_string(),
                line: *line,
                rule: "proto-pairing",
                message: format!(
                    "`kind::{name}` is declared in codec.rs but missing from `kind::ALL`; \
                     the kind table must list every kind"
                ),
            }),
            Some(&b) if b != *value => out.push(Violation {
                file: CODEC.to_string(),
                line: *line,
                rule: "proto-pairing",
                message: format!(
                    "`kind::{name}` is {value} in source but {b} in `kind::ALL`; the table \
                     has drifted from the consts"
                ),
            }),
            _ => {}
        }
    }
    for (name, &b) in &table {
        if !src_consts.contains_key(name) {
            out.push(Violation {
                file: CODEC.to_string(),
                line: 1,
                rule: "proto-pairing",
                message: format!(
                    "`kind::ALL` lists ({b}, {name}) but no `pub const {name}: u8` exists \
                     in codec.rs"
                ),
            });
        }
    }

    // --- proto-pairing: reply targets + full classification --------------
    let requests: BTreeSet<u8> = tables.reply.iter().map(|&(q, _)| q).collect();
    let reply_targets: BTreeSet<u8> = tables.reply.iter().map(|&(_, r)| r).collect();
    for &req in &requests {
        let reply = reply_of(req).unwrap_or(req);
        if !by_byte.contains_key(&reply) {
            out.push(Violation {
                file: CODEC.to_string(),
                line: const_line(codec_toks, &screaming(name_of(req))).unwrap_or(1),
                rule: "proto-pairing",
                message: format!(
                    "request `{}` ({req}) expects reply kind {reply}, which is not in \
                     `kind::ALL`",
                    name_of(req)
                ),
            });
        }
        if reply_of(reply).is_some() {
            out.push(Violation {
                file: CODEC.to_string(),
                line: const_line(codec_toks, &screaming(name_of(reply))).unwrap_or(1),
                rule: "proto-pairing",
                message: format!(
                    "`{}` ({reply}) is `{}`'s reply but also expects a reply of its own; \
                     pairing must be one level deep",
                    name_of(reply),
                    name_of(req)
                ),
            });
        }
    }
    for (b, name) in &tables.all {
        if !requests.contains(b) && !reply_targets.contains(b) && !tables.unpaired_ok.contains(b) {
            out.push(Violation {
                file: CODEC.to_string(),
                line: const_line(codec_toks, &screaming(name)).unwrap_or(1),
                rule: "proto-pairing",
                message: format!(
                    "kind `{name}` ({b}) is neither a request (no `reply_kind_of` entry) \
                     nor any request's reply; classify it or add it to the handshake \
                     allow-list"
                ),
            });
        }
    }

    // --- proto-exhaustive: every kind has a dispatch arm -----------------
    let dispatched = message_variants(runtime_toks);
    for (b, name) in &tables.all {
        if !dispatched.contains(name.as_str()) {
            out.push(Violation {
                file: RUNTIME.to_string(),
                line: 1,
                rule: "proto-exhaustive",
                message: format!(
                    "kind `{name}` ({b}) has no `Message::{name}` dispatch arm in \
                     runtime/mod.rs; the node would drop it on the floor"
                ),
            });
        }
    }

    // --- proto-retry-set --------------------------------------------------
    let retry_line = const_line(runtime_toks, "RESENDABLE_KINDS").unwrap_or(1);
    if tables.resendable.is_empty() {
        out.push(Violation {
            file: RUNTIME.to_string(),
            line: retry_line,
            rule: "proto-retry-set",
            message: "RESENDABLE_KINDS is empty: every timeout would be terminal, which \
                      defeats the retry layer"
                .to_string(),
        });
    }
    let mut seen = BTreeSet::new();
    for &k in &tables.resendable {
        if !seen.insert(k) {
            out.push(Violation {
                file: RUNTIME.to_string(),
                line: retry_line,
                rule: "proto-retry-set",
                message: format!("RESENDABLE_KINDS lists `{}` ({k}) twice", name_of(k)),
            });
        }
        if !tables.idempotent.contains(&k) {
            out.push(Violation {
                file: RUNTIME.to_string(),
                line: retry_line,
                rule: "proto-retry-set",
                message: format!(
                    "RESENDABLE_KINDS contains `{}` ({k}) which `kind::IDEMPOTENT` does \
                     not declare safe to duplicate; a resend could double-apply",
                    name_of(k)
                ),
            });
        }
    }
    for &k in &tables.idempotent {
        if !requests.contains(&k) {
            out.push(Violation {
                file: CODEC.to_string(),
                line: const_line(codec_toks, &screaming(name_of(k))).unwrap_or(1),
                rule: "proto-retry-set",
                message: format!(
                    "`kind::IDEMPOTENT` lists `{}` ({k}) which is not a request kind; \
                     idempotence only makes sense for requests",
                    name_of(k)
                ),
            });
        }
    }

    out.sort();
    out.dedup();
    out
}

fn lex_file(root: &Path, rel: &str) -> Vec<Token> {
    std::fs::read_to_string(root.join(rel))
        .map(|src| lex(&src).tokens)
        .unwrap_or_default()
}

/// `VariantName` → `VARIANT_NAME`.
fn screaming(variant: &str) -> String {
    let mut out = String::new();
    for (i, c) in variant.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_uppercase());
    }
    out
}

/// All `const NAME: u8 = <num>;` declarations → (value, line).
fn kind_consts(toks: &[Token]) -> BTreeMap<String, (u8, u32)> {
    let mut out = BTreeMap::new();
    for ix in 0..toks.len() {
        let Tok::Ident(kw) = &toks[ix].tok else {
            continue;
        };
        if kw != "const" {
            continue;
        }
        let Some(Token {
            tok: Tok::Ident(name),
            line,
        }) = toks.get(ix + 1)
        else {
            continue;
        };
        if !matches!(toks.get(ix + 2).map(|t| &t.tok), Some(Tok::Punct(':'))) {
            continue;
        }
        if !matches!(toks.get(ix + 3).map(|t| &t.tok), Some(Tok::Ident(ty)) if ty == "u8") {
            continue;
        }
        if !matches!(toks.get(ix + 4).map(|t| &t.tok), Some(Tok::Punct('='))) {
            continue;
        }
        let Some(Token {
            tok: Tok::Num(raw), ..
        }) = toks.get(ix + 5)
        else {
            continue;
        };
        if let Ok(v) = raw.replace('_', "").parse::<u8>() {
            out.insert(name.clone(), (v, *line));
        }
    }
    out
}

/// Line of `const NAME` / `pub const NAME` in the token stream.
fn const_line(toks: &[Token], name: &str) -> Option<u32> {
    toks.windows(2).find_map(|w| match (&w[0].tok, &w[1].tok) {
        (Tok::Ident(kw), Tok::Ident(n)) if kw == "const" && n == name => Some(w[1].line),
        _ => None,
    })
}

/// Every `Message :: Variant` path mentioned in the token stream.
fn message_variants(toks: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for ix in 0..toks.len().saturating_sub(3) {
        let Tok::Ident(base) = &toks[ix].tok else {
            continue;
        };
        if base != "Message" {
            continue;
        }
        let (Tok::Punct(':'), Tok::Punct(':')) = (&toks[ix + 1].tok, &toks[ix + 2].tok) else {
            continue;
        };
        if let Tok::Ident(variant) = &toks[ix + 3].tok {
            out.insert(variant.clone());
        }
    }
    out
}
