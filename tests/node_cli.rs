//! The binaries' failure paths, none of which binds a socket: a
//! `hyperm-node head` configuration the network cannot be built from
//! reports the build error and exits 1, and a usage error exits 2. Neither
//! panics.

use std::process::Command;

fn head_with(flag: &str, value: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hyperm-node"))
        .args(["head", "--listen", "127.0.0.1:0", flag, value])
        .output()
        .expect("run hyperm-node");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_build_flags_fail_cleanly() {
    for (flag, value) in [("--clusters", "0"), ("--levels", "9")] {
        let (code, stderr) = head_with(flag, value);
        assert_eq!(
            code,
            Some(1),
            "{flag} {value}: exit {code:?}, stderr {stderr}"
        );
        assert!(stderr.contains("build failed:"), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

/// Out-of-range and unknown arguments are usage errors: each binary exits
/// 2 naming the flag or subcommand, before it generates data or opens a
/// socket (`127.0.0.1:1` has nothing listening, and none of these dials
/// it).
#[test]
fn usage_errors_exit_two_naming_the_argument() {
    let demo = env!("CARGO_BIN_EXE_hyperm-demo");
    let node = env!("CARGO_BIN_EXE_hyperm-node");
    let client = env!("CARGO_BIN_EXE_hyperm-client");
    let monitor = env!("CARGO_BIN_EXE_hyperm-monitor");
    let cases = [
        (demo, "query --nodes 0", "--nodes"),
        (demo, "query --items 0", "--items"),
        (demo, "query --queries 0", "--queries"),
        (demo, "query --kind knn --k 0", "--k"),
        (node, "head --items 0", "--items"),
        (node, "head --dim 3", "--dim"),
        (node, "head --dim 0", "--dim"),
        (node, "head --dim 12", "--dim"),
        (node, "member --head 127.0.0.1:1 --id 0", "--id"),
        (client, "bogus --node 127.0.0.1:1", "bogus"),
        (client, "query --centre 0.5 --eps 0.1", "--node"),
        (
            client,
            "query --node 127.0.0.1:1 --centre 0.5 --eps -1",
            "--eps",
        ),
        (monitor, "--count abc", "--count"),
        (monitor, "--watch --interval x", "--interval"),
        (monitor, "--watch", "--nodes"),
    ];
    for (exe, args, names) in cases {
        let out = Command::new(exe)
            .args(args.split_whitespace())
            .output()
            .expect("run binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{exe} {args}");
        assert_eq!(out.status.code(), Some(2), "{case}: {stdout} {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        // The client reports in its JSON object, the others on stderr.
        let report = if exe == client {
            let last = stdout.lines().last().unwrap_or_default();
            assert!(last.contains(r#""kind": "usage""#), "{case}: {last}");
            last.to_string()
        } else {
            stderr.into_owned()
        };
        assert!(report.contains(names), "{case}: {report}");
    }
}
