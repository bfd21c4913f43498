//! `hyperm-node head` with a configuration the network cannot be built
//! from: the node reports the build error and exits non-zero, without a
//! panic. Both invocations fail before any socket is bound.

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
