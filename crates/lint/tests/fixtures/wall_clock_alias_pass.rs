//! must-pass, and a known blind spot: the `wall-clock` rule matches the
//! tokens `Instant :: now`, so a renamed import reads the host clock
//! unseen. `clippy.toml`'s type-resolved `disallowed-methods` entry for
//! `std::time::Instant::now` is the layer that catches this shape.

use std::time::Instant as Clock;

pub fn elapsed_ns() -> u128 {
    let t0 = Clock::now();
    t0.elapsed().as_nanos()
}
