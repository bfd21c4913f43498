//! The static checks' configuration is still in place.
//!
//! The replay, panic-path and lock rules are clippy lints: `clippy.toml`
//! lists the disallowed paths and each covered file denies the lint in
//! its own header. Clippy cannot notice a header or a config entry that
//! goes missing; this test does.

use std::path::Path;

/// The replay and panic-path rules are clippy lints, denied by a header
/// in each file they cover (`clippy.toml` configures the disallowed
/// paths). `cargo clippy` cannot notice a header that goes missing, so
/// this checks that every covered file still carries its deny.
#[test]
fn clippy_deny_headers_are_in_place() {
    const REPLAY: &[&str] = &[
        "disallowed_methods",
        "disallowed_types",
        "iter_over_hash_type",
    ];
    const PANIC_PATH: &[&str] = &[
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "indexing_slicing",
    ];
    const WIRE: &[&str] = &["unwrap_used", "expect_used", "cast_possible_truncation"];
    // The lock-holding crates outside the replay set: no raw std lock.
    const LOCKS: &[&str] = &["disallowed_types"];
    let mut scopes: Vec<(String, &[&str])> = [
        "core", "can", "repair", "cluster", "wavelet", "geometry", "vbi", "baton",
    ]
    .iter()
    .map(|c| (format!("crates/{c}/src/lib.rs"), REPLAY))
    .collect();
    for hot in [
        "crates/core/src/query/mod.rs",
        "crates/core/src/publish.rs",
        "crates/core/src/network.rs",
        "crates/core/src/churn.rs",
        "crates/can/src/ops.rs",
        "crates/can/src/overlay.rs",
        "crates/can/src/repair.rs",
        "crates/repair/src/lib.rs",
    ] {
        scopes.push((hot.to_string(), PANIC_PATH));
    }
    for wire in ["crates/can/src/codec.rs", "crates/transport/src/frame.rs"] {
        scopes.push((wire.to_string(), WIRE));
    }
    for locks in ["crates/telemetry/src/lib.rs", "crates/transport/src/lib.rs"] {
        scopes.push((locks.to_string(), LOCKS));
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (rel, lints) in scopes {
        let src = std::fs::read_to_string(root.join(&rel)).expect("read scoped file");
        let denied: Vec<&str> = src
            .split("#![deny(")
            .skip(1)
            .filter_map(|rest| rest.split(")]").next())
            .collect();
        for lint in lints {
            assert!(
                denied
                    .iter()
                    .any(|d| d.contains(&format!("clippy::{lint}"))),
                "{rel} no longer denies clippy::{lint}"
            );
        }
    }
    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("read clippy.toml");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::sync::Mutex",
        "std::sync::RwLock",
    ] {
        assert!(
            config.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer lists {path}"
        );
    }
}
