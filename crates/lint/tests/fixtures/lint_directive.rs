// Fixture: a suppression without a justification (lint-directive).
// hyperm-lint: allow(conc-blocking-hold)
pub fn fine() {}
