//! `Parallelism::auto()` environment handling.
//!
//! These tests mutate `AG_THREADS`, so they live in their own
//! integration-test binary (its own process) and run sequentially in a
//! single `#[test]` — env vars are process-global, and the in-crate
//! unit tests assume a clean environment.

use ag_harness::Parallelism;

#[test]
fn auto_honors_ag_threads_and_falls_back_sanely() {
    // Explicit positive values win verbatim.
    for v in ["1", "3", "16", " 2 "] {
        std::env::set_var("AG_THREADS", v);
        assert_eq!(
            Parallelism::auto().threads(),
            v.trim().parse::<usize>().unwrap(),
            "AG_THREADS={v:?}"
        );
    }
    // Unset falls back to the machine's parallelism. (Garbage and zero
    // end the process with status 2; `report::tests` covers the parser.)
    std::env::remove_var("AG_THREADS");
    assert!(Parallelism::auto().threads() >= 1);
}
