//! The pass pipeline: each pass scans one file's token stream and
//! reports raw violations (suppressions are applied by the driver).

pub mod concurrency;
pub mod facade;

use crate::lexer::{Tok, Token};
use crate::report::Violation;

/// Everything a per-file pass can see.
pub struct FileCtx<'a> {
    /// Workspace-relative path (diagnostics key).
    pub path: &'a str,
    /// Token stream.
    pub tokens: &'a [Token],
    /// Per-token `#[cfg(test)] mod` mask (same length as `tokens`).
    pub in_test: &'a [bool],
}

impl<'a> FileCtx<'a> {
    /// The identifier at `ix`, if any.
    pub fn ident(&self, ix: usize) -> Option<&'a str> {
        match self.tokens.get(ix).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether token `ix` is punctuation `c`.
    pub fn punct(&self, ix: usize, c: char) -> bool {
        matches!(self.tokens.get(ix).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    /// Whether tokens at `ix..ix+2` are `::`.
    pub fn path_sep(&self, ix: usize) -> bool {
        self.punct(ix, ':') && self.punct(ix + 1, ':')
    }

    /// Line of token `ix` (0 if out of range — callers always pass valid
    /// indices, this keeps the helpers total).
    pub fn line(&self, ix: usize) -> u32 {
        self.tokens.get(ix).map(|t| t.line).unwrap_or(0)
    }

    /// Build a violation at token `ix`.
    pub fn violation(&self, ix: usize, rule: &'static str, message: String) -> Violation {
        Violation {
            file: self.path.to_string(),
            line: self.line(ix),
            rule,
            message,
        }
    }
}

/// Split the argument list of a call whose opening `(` is at `open`
/// into top-level argument token ranges. Returns `None` when the call is
/// unterminated. Range bounds are token indices `[from, to)`.
pub fn call_args(tokens: &[Token], open: usize) -> Option<Vec<(usize, usize)>> {
    debug_assert!(matches!(tokens[open].tok, Tok::Punct('(')));
    let mut depth = 0i32;
    let mut args = Vec::new();
    let mut arg_start = open + 1;
    let mut ix = open;
    while ix < tokens.len() {
        match &tokens[ix].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    if ix > arg_start {
                        args.push((arg_start, ix));
                    }
                    return Some(args);
                }
            }
            Tok::Punct(',') if depth == 1 => {
                args.push((arg_start, ix));
                arg_start = ix + 1;
            }
            _ => {}
        }
        ix += 1;
    }
    None
}
