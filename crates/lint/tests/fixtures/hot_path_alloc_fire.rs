//! must-fire: allocation written inside a marked hot-path function,
//! plus two markers that mark no `fn` body — one above a `struct`, one
//! above a trait-method declaration.

// ag-lint: hot-path
pub fn emit_receivers(words: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    for (w, &bits) in words.iter().enumerate() {
        if bits != 0 {
            out.push(w);
        }
    }
    let labels: Vec<String> = out.iter().map(|i| format!("rx{i}")).collect();
    drop(labels);
    out.to_vec()
}

pub fn cold_path_allocates_freely() -> Vec<u8> {
    Vec::new()
}

// ag-lint: hot-path
pub struct Receivers(Vec<usize>);

pub trait Emit {
    // ag-lint: hot-path
    fn emit(&mut self, words: &[u64; 4]);
}
