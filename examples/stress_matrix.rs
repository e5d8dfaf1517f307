//! The cross-protocol stress matrix: every protocol stack under every
//! stress level, one comparison table.
//!
//! The paper's evaluation (§5) runs an ideal unit-disk channel. This
//! example turns on the opt-in hostility knobs — distance-graded packet
//! loss, log-normal shadowing, and radio fail/recover churn — and sweeps
//! {MAODV + gossip, bare MAODV, ODMRP} across
//! {loss model} × {churn level} × {speed}, pooling each cell over
//! independent seeds on the parallel harness. Output is deterministic
//! for any `AG_THREADS` value.
//!
//! Run (full paper scale: 27-cell default matrix × 2 speeds, 10 seeds,
//! 600 s; budget accordingly):
//!
//! ```text
//! cargo run --release --example stress_matrix
//! ```
//!
//! or reduced, as CI does:
//!
//! ```text
//! AG_SEEDS=2 AG_SIM_SECS=30 cargo run --release --example stress_matrix
//! ```

// Wall-clock use here is driver-side progress reporting only; the
// simulation itself tells time exclusively via SimTime (the ag-lint
// waivers at each call site say the same to the first lint layer).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ag_harness::matrix::MatrixSpec;
use ag_harness::{report, Parallelism};

fn main() {
    let seeds = report::env_seeds();
    let secs = report::env_sim_secs();
    let spec = MatrixSpec::paper_stress(seeds, secs);
    report::or_exit(spec.validate());
    eprintln!(
        "stress matrix: {} protocols x {} loss x {} churn x {} speeds = {} cells, \
         {seeds} seeds each, {secs} s simulated",
        spec.protocols.len(),
        spec.losses.len(),
        spec.churns.len(),
        spec.speeds.len(),
        spec.cell_count(),
    );
    // ag-lint: allow(wall-clock) -- driver-side progress timing, outside the simulation
    let t0 = Instant::now();
    let result = report::or_exit(spec.run(Parallelism::auto()));
    eprintln!("completed in {:.1} s wall", t0.elapsed().as_secs_f64());
    println!("{}", report::render_matrix(&result));

    // The paper's qualitative claim, restated on the hostile grid:
    // gossip's delivery advantage over bare MAODV per stress level.
    println!("# gossip mean delivery advantage over bare MAODV, per cell:");
    for row in result.cells.chunks(result.protocols.len()) {
        let gossip = row
            .iter()
            .find(|c| c.protocol == ag_harness::ProtocolKind::Gossip);
        let maodv = row
            .iter()
            .find(|c| c.protocol == ag_harness::ProtocolKind::Maodv);
        if let (Some(g), Some(m)) = (gossip, maodv) {
            println!(
                "  {:>11} {:>11} {:>4.1} m/s: {:+.1} pp",
                g.loss,
                g.churn,
                g.max_speed,
                g.delivery_percent() - m.delivery_percent()
            );
        }
    }
}
