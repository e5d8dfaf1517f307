//! must-pass: the marked function reuses caller-owned scratch (the
//! take/restore pattern the engine uses), with a doc comment and an
//! attribute between the marker and the `fn`; cold paths allocate
//! freely.

// ag-lint: hot-path
/// Collects the indices of the non-zero words into `scratch`.
#[inline]
pub(crate) fn emit_receivers(scratch: &mut Vec<usize>, words: &[u64]) {
    scratch.clear();
    for (w, &bits) in words.iter().enumerate() {
        if bits != 0 {
            scratch.push(w);
        }
    }
}

pub fn cold_setup() -> Vec<usize> {
    let mut v = Vec::new();
    v.push(1);
    v
}
