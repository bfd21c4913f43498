// Fixture: a justified suppression silences the violation.
use std::sync::Mutex;

pub fn reader(state: &Mutex<u32>) -> impl FnOnce() -> u32 + '_ {
    let g = state.lock().unwrap();
    // hyperm-lint: allow(conc-guard-across-spawn) — fixture demonstrating a justified suppression
    move || *g
}
