//! A small Rust lexer: just enough to run token-level lint passes.
//!
//! Produces a flat token stream (identifiers, punctuation, string and
//! numeric literals) with 1-based line numbers, plus the comment text per
//! line (suppression directives live in comments). Handles the lexical
//! constructs that would otherwise break naive text scanning: line and
//! nested block comments, string/char/byte literals with escapes, raw
//! strings with `#` fences, and lifetimes vs. char literals. It does
//! **not** parse — the passes work on token patterns.

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// String literal (decoded content not needed — raw text between the
    /// quotes, escapes left as written).
    Str(String),
    /// Character or byte literal (content ignored by the passes).
    Char,
    /// Numeric literal, raw digits as written (`0x1F`, `1_000`, `2.5`).
    Num(String),
    /// Lifetime such as `'a` (passes ignore these, but they must not be
    /// confused with char literals).
    Lifetime,
    /// Single punctuation character (`.`, `:`, `(`, `[`, `!`, …).
    Punct(char),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// The token itself.
    pub tok: Tok,
}

/// A comment with its 1-based source line (block comments are attributed
/// to their *starting* line; directives must not span lines).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// Lexer output: the token stream and every comment.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize `src`. Unterminated constructs consume to end of input
/// rather than erroring: lint passes prefer partial streams over hard
/// failures on exotic files.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advance over `s[i..j]`, counting newlines.
    macro_rules! bump_to {
        ($j:expr) => {{
            let j = $j;
            line += src[i..j].bytes().filter(|&c| c == b'\n').count() as u32;
            i = j;
        }};
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|o| i + o).unwrap_or(b.len());
                out.comments.push(Comment {
                    line,
                    text: src[i + 2..end].to_string(),
                });
                bump_to!(end);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let inner_end = j.saturating_sub(2).max(i + 2);
                out.comments.push(Comment {
                    line: start_line,
                    text: src[i + 2..inner_end].to_string(),
                });
                bump_to!(j);
            }
            b'"' => {
                let start_line = line;
                let (content, j) = scan_string(src, i + 1);
                out.tokens.push(Token {
                    line: start_line,
                    tok: Tok::Str(content),
                });
                bump_to!(j);
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let start_line = line;
                let (content, j) = scan_raw_string(src, i);
                out.tokens.push(Token {
                    line: start_line,
                    tok: Tok::Str(content),
                });
                bump_to!(j);
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'\'' => {
                let (_, j) = scan_char(src, i + 2);
                out.tokens.push(Token {
                    line,
                    tok: Tok::Char,
                });
                bump_to!(j);
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' => {
                let start_line = line;
                let (content, j) = scan_string(src, i + 2);
                out.tokens.push(Token {
                    line: start_line,
                    tok: Tok::Str(content),
                });
                bump_to!(j);
            }
            b'\'' => {
                // Lifetime (`'a`, `'static`) or char literal (`'x'`,
                // `'\n'`). A quote followed by an ident run that is NOT
                // closed by another quote is a lifetime.
                if is_lifetime(b, i) {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Lifetime,
                    });
                    i = j;
                } else {
                    let (_, j) = scan_char(src, i + 1);
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Char,
                    });
                    bump_to!(j);
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                out.tokens.push(Token {
                    line,
                    tok: Tok::Ident(src[i..j].to_string()),
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                // Good enough for numerics incl. floats/exponents/suffixes;
                // `1.method()` never appears in this codebase's sources.
                while j < b.len()
                    && (b[j].is_ascii_alphanumeric()
                        || b[j] == b'_'
                        || b[j] == b'.'
                        || ((b[j] == b'+' || b[j] == b'-')
                            && (b[j - 1] == b'e' || b[j - 1] == b'E')))
                {
                    // Stop before `..` (range) and before `.method`.
                    if b[j] == b'.'
                        && j + 1 < b.len()
                        && (b[j + 1] == b'.' || b[j + 1].is_ascii_alphabetic())
                    {
                        break;
                    }
                    j += 1;
                }
                out.tokens.push(Token {
                    line,
                    tok: Tok::Num(src[i..j].to_string()),
                });
                i = j;
            }
            c => {
                out.tokens.push(Token {
                    line,
                    tok: Tok::Punct(c as char),
                });
                i += 1;
            }
        }
    }
    out
}

fn is_lifetime(b: &[u8], i: usize) -> bool {
    // b[i] == '\''. `'a'` is a char, `'a` (no closing quote right after
    // one ident char run) is a lifetime. `'_'` the reserved lifetime is
    // also followed by no quote... except `'_'` — treat a quote right
    // after a single char as a char literal.
    let mut j = i + 1;
    if j >= b.len() || !(b[j].is_ascii_alphabetic() || b[j] == b'_') {
        return false; // escape or punctuation: char literal
    }
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    !(j < b.len() && b[j] == b'\'')
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r" r#" br" rb"? (rb isn't real rust; br is). Accept r / br prefixes.
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn scan_raw_string(src: &str, i: usize) -> (String, usize) {
    let b = src.as_bytes();
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // r
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let start = j;
    let closer: String = format!("\"{}", "#".repeat(hashes));
    match src[j..].find(&closer) {
        Some(o) => (src[start..j + o].to_string(), j + o + closer.len()),
        None => (src[start..].to_string(), b.len()),
    }
}

/// Scan a (non-raw) string body starting just after the opening quote;
/// returns (content, index past closing quote).
fn scan_string(src: &str, start: usize) -> (String, usize) {
    let b = src.as_bytes();
    let mut j = start;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return (src[start..j].to_string(), j + 1),
            _ => j += 1,
        }
    }
    (src[start..].to_string(), b.len())
}

/// Scan a char/byte-literal body starting just after the opening quote.
fn scan_char(src: &str, start: usize) -> ((), usize) {
    let b = src.as_bytes();
    let mut j = start;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return ((), j + 1),
            _ => j += 1,
        }
    }
    ((), b.len())
}

/// Per-token flag: `true` when the token is inside a `#[cfg(test)] mod`
/// block (lint passes skip test code). Detects the attribute token
/// sequence `# [ cfg ( test ) ]` followed by `mod <name> {` and marks
/// everything to the matching close brace.
pub fn test_module_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut k = 0usize;
    while k < tokens.len() {
        if is_cfg_test_at(tokens, k) {
            // Find the `mod` that follows (possibly after more attributes).
            let mut m = k + 7; // past `# [ cfg ( test ) ]`
            while m < tokens.len() {
                match &tokens[m].tok {
                    Tok::Punct('#') => {
                        // Skip the whole following attribute `[...]`.
                        let mut depth = 0i32;
                        m += 1;
                        while m < tokens.len() {
                            match &tokens[m].tok {
                                Tok::Punct('[') => depth += 1,
                                Tok::Punct(']') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        m += 1;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                    }
                    Tok::Ident(id) if id == "mod" => break,
                    _ => break,
                }
            }
            let is_mod =
                matches!(&tokens.get(m).map(|t| &t.tok), Some(Tok::Ident(id)) if id == "mod");
            if is_mod {
                // Skip to the opening brace, then mark to its close.
                let mut j = m;
                while j < tokens.len() && tokens[j].tok != Tok::Punct('{') {
                    j += 1;
                }
                let mut depth = 0i32;
                let start = k;
                while j < tokens.len() {
                    match &tokens[j].tok {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                for flag in mask.iter_mut().take((j + 1).min(tokens.len())).skip(start) {
                    *flag = true;
                }
                k = j + 1;
                continue;
            }
        }
        k += 1;
    }
    mask
}

fn is_cfg_test_at(tokens: &[Token], k: usize) -> bool {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    if k + pat.len() > tokens.len() {
        return false;
    }
    pat.iter()
        .enumerate()
        .all(|(o, want)| match &tokens[k + o].tok {
            Tok::Ident(id) => id == want,
            Tok::Punct(c) => want.len() == 1 && *c == want.chars().next().unwrap(),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let src = r##"
// HashMap in a comment
let s = "HashMap in a string";
/* block HashMap /* nested */ still comment */
let r = r#"raw "HashMap" here"#;
"##;
        assert!(!idents(src).iter().any(|i| i == "HashMap"));
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[0].text.contains("HashMap in a comment"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lx = lex(src);
        let lifetimes = lx.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = lx.tokens.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "let a = 1;\n/* c\nc\nc */\nlet b = 2;";
        let lx = lex(src);
        let b_tok = lx
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .unwrap();
        assert_eq!(b_tok.line, 5);
    }

    #[test]
    fn test_module_mask_covers_cfg_test_mod() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn after() {}";
        let lx = lex(src);
        let mask = test_module_mask(&lx.tokens);
        for (t, m) in lx.tokens.iter().zip(&mask) {
            if let Tok::Ident(id) = &t.tok {
                match id.as_str() {
                    "live" | "after" => assert!(!m, "{id} wrongly masked"),
                    "unwrap" | "tests" => assert!(m, "{id} should be masked"),
                    _ => {}
                }
            }
        }
    }
}
