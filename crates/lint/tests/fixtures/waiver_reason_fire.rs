//! must-fire: malformed waivers and hot-path markers are findings of
//! the waiver-reason meta-rule — and never suppress or mark anything.

// ag-lint: allow(det-hash)
pub fn missing_reason() {}

// ag-lint: allow(det-hash) --
pub fn empty_reason() {}

// ag-lint: allow(no-such-rule) -- a perfectly good reason
pub fn unknown_rule() {}

// ag-lint: allow(waiver-reason) -- trying to waive the meta-rule
pub fn meta_rule_is_unwaivable() {}

// ag-lint: deny(det-hash) -- not the allow(...) form
pub fn unrecognized_form() {}

// ag-lint: hot-path extra
pub fn malformed_marker() {}
