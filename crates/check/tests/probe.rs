//! State-space sizing probe (`#[ignore]`d; not part of the suite).
//!
//! Measures how the reachable MAODV state space scales with the
//! adversary's drop/churn budgets and the horizon — the numbers
//! recorded in `docs/MODEL_CHECKING.md` ("budgets multiply"). Run it
//! when sizing a new checked configuration:
//!
//! ```text
//! cargo test -p ag-check --release --test probe -- --ignored --nocapture
//! ```
//!
//! Set `AG_CHECK_PROGRESS=1` to watch BFS expansion on configurations
//! that might not close.

// Wall-clock timing is this probe's whole point: it measures real BFS
// exploration speed, is `#[ignore]`d, and never runs in `cargo test -q`.
// Each `Instant::now()` carries an ag-lint waiver (docs/LINTS.md); the
// attribute grants the same exception to the clippy layer.
#![allow(clippy::disallowed_methods)]

use ag_check::{explore, Limits, Machine, NetModel, NetState};
use ag_maodv::{GroupId, MaodvConfig, MaodvProtocol};
use ag_net::NodeId;
use ag_sim::{SimDuration, SimTime};

fn cfg(hello_ms: u64, retries: u32, grph_ms: u64) -> MaodvConfig {
    MaodvConfig {
        hello_interval: SimDuration::from_millis(hello_ms),
        allowed_hello_loss: 2,
        group_hello_interval: SimDuration::from_millis(grph_ms),
        tick_interval: SimDuration::from_secs(1),
        rrep_wait: SimDuration::from_secs(1),
        rreq_retries: retries,
        flood_ttl: 2,
        active_route_timeout: SimDuration::from_secs(20),
        join_jitter: SimDuration::from_secs(1),
        data_seen_capacity: 64,
        rreq_seen_capacity: 64,
        discovery_buffer: 4,
        nearest_member_infinity: 32,
    }
}

fn protos(n: u32, members: &[u32], c: MaodvConfig) -> Vec<MaodvProtocol> {
    (0..n)
        .map(|i| MaodvProtocol::new(c, NodeId::new(i), GroupId(0), members.contains(&i), None))
        .collect()
}

fn obs(st: &NetState<MaodvProtocol>) -> (SimTime, Vec<Option<u32>>, Vec<bool>) {
    (
        st.now,
        st.nodes
            .iter()
            .map(|p| p.node().mrt().upstream().map(|u| u.raw()))
            .collect(),
        st.nodes.iter().map(|p| p.node().is_leader()).collect(),
    )
}

/// The probe's configurations pass the rules every run is held to.
#[test]
fn probe_configs_validate() {
    for hello_ms in [10_000, 2_000] {
        assert_eq!(cfg(hello_ms, 0, 2_000).validate(), Ok(()));
    }
}

#[test]
#[ignore]
fn probe_sizes() {
    // Quiet config: one hello round at t=0, no RREQ retries (leaders at
    // t=1), GRPH at t=2 drives the merge, tree formed ~t=3.
    for (label, drop, churn, horizon_ms) in [
        ("quiet drop0 churn0 h3500", 0u8, 0u8, 3500u64),
        ("quiet drop1 churn0 h3500", 1, 0, 3500),
        ("quiet drop1 churn1 h3500", 1, 1, 3500),
    ] {
        let model = NetModel::new(
            protos(3, &[0, 2], cfg(10_000, 0, 2_000)),
            &[(0, 1), (1, 2)],
            SimTime::from_millis(horizon_ms),
            SimTime::from_millis(horizon_ms),
        )
        .with_drop_budget(drop)
        .with_churn_budget(churn);
        // ag-lint: allow(wall-clock) -- the probe reports BFS exploration time
        let t0 = std::time::Instant::now();
        let ex = explore(
            &model,
            Limits {
                max_states: 1_000_000,
            },
            obs,
        );
        let formed = ex
            .obs
            .iter()
            .any(|(_, ups, lead)| lead[0] && ups[1] == Some(0) && ups[2] == Some(1));
        println!(
            "3-node {label}: {} states complete={} formed={} in {:?}",
            ex.len(),
            ex.complete,
            formed,
            t0.elapsed()
        );
    }

    // 4-node warmed chain for the canary scenario: hellos every 2s so
    // the break is detected, no retries, short post-warm window.
    let (label, churn, horizon_ms, warm_ms) = ("4n churn1 h7000 w4500", 1u8, 7000u64, 4500u64);
    let model = NetModel::new(
        protos(4, &[0, 3], cfg(2_000, 0, 2_000)),
        &[(0, 1), (1, 2), (2, 3)],
        SimTime::from_millis(horizon_ms),
        SimTime::from_millis(horizon_ms),
    )
    .with_churn_budget(churn);
    let warm = model.warm_up(model.initial(), SimTime::from_millis(warm_ms));
    println!("warm obs: {:?}", obs(&warm));
    let model = model.with_root(warm);
    // ag-lint: allow(wall-clock) -- the probe reports BFS exploration time
    let t0 = std::time::Instant::now();
    let ex = explore(
        &model,
        Limits {
            max_states: 1_000_000,
        },
        obs,
    );
    println!(
        "4-node warmed {label}: {} states complete={} in {:?}",
        ex.len(),
        ex.complete,
        t0.elapsed()
    );
}
