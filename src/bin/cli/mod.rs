//! Flag parsing shared by the `hyperm-node`, `hyperm-demo`,
//! `hyperm-client` and `hyperm-monitor` binaries, each of which includes
//! it with `mod cli;`. It lives in a directory so that cargo does not
//! build it as a binary of its own.

use std::collections::HashMap;
use std::fmt::{Debug, Display};
use std::ops::RangeBounds;
use std::str::FromStr;

/// Parsed flags: `--name value` maps `name` to `value`, and a bare
/// `--name` (the last token, or one followed by another flag) maps it to
/// `"true"`.
pub(crate) type Flags = HashMap<String, String>;

/// Parse the arguments after the subcommand. A token that is neither a
/// flag nor a flag's value is reported on stderr and skipped.
pub(crate) fn parse_flags(raw: Vec<String>) -> Flags {
    let mut opts = Flags::new();
    let mut it = raw.into_iter().peekable();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            eprintln!("ignoring stray argument {flag:?}");
            continue;
        };
        // Boolean flags take no value; valued flags consume the next token.
        let value = match it.next_if(|v| !v.starts_with("--")) {
            Some(v) => v,
            None => "true".into(),
        };
        opts.insert(name.to_string(), value);
    }
    opts
}

/// The value of `--key` parsed as `T`: `default` when the flag is
/// absent, and an error naming the flag when its value does not parse or
/// lies outside `range` (`..` accepts every value).
pub(crate) fn get<T, R>(opts: &Flags, key: &str, default: T, range: R) -> Result<T, String>
where
    T: FromStr + PartialOrd + Display,
    R: RangeBounds<T> + Debug,
{
    let value = match opts.get(key) {
        None => default,
        Some(v) => v.parse().map_err(|_| format!("bad --{key} value {v:?}"))?,
    };
    if !range.contains(&value) {
        return Err(format!("--{key} {value} is out of range {range:?}"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        parse_flags(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn missing_flag_reads_the_default() {
        let opts = flags(&["--items", "40"]);
        assert_eq!(get(&opts, "nodes", 30usize, ..), Ok(30));
        assert_eq!(get(&opts, "items", 60usize, ..), Ok(40));
    }

    #[test]
    fn bare_flag_reads_true() {
        let opts = flags(&["--baton", "--nodes", "5", "--republish"]);
        assert_eq!(opts.get("baton").map(String::as_str), Some("true"));
        assert_eq!(opts.get("republish").map(String::as_str), Some("true"));
        assert_eq!(get(&opts, "nodes", 0usize, ..), Ok(5));
        assert_eq!(get(&opts, "baton", false, ..), Ok(true));
    }

    #[test]
    fn bad_value_is_an_error_naming_the_flag() {
        let opts = flags(&["--nodes", "abc", "--eps", "0.1"]);
        let err = get(&opts, "nodes", 30usize, ..).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
        assert!(err.contains("abc"), "{err}");
        assert_eq!(get(&opts, "eps", 0.0f64, ..), Ok(0.1));
    }

    #[test]
    fn out_of_range_value_is_an_error_naming_the_flag() {
        let opts = flags(&["--nodes", "0", "--eps", "NaN"]);
        let err = get(&opts, "nodes", 30usize, 1..).unwrap_err();
        assert_eq!(err, "--nodes 0 is out of range 1..");
        assert!(get(&opts, "eps", 0.0f64, 0.0..).is_err());
        assert_eq!(get(&opts, "items", 40usize, 1..), Ok(40));
    }
}
