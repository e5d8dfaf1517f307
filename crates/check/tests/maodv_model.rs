//! Exhaustive check of the MAODV core: multicast-tree loop freedom.
//!
//! Two configurations:
//!
//! * A 3-node line `0 — 1 — 2` with members at both ends, explored to
//!   fixpoint from t = 0 with one adversarial drop anywhere. Both
//!   members first become singleton leaders, then merge through the
//!   group-hello protocol; the upstream-pointer graph must stay
//!   acyclic in **every** reachable state.
//! * A 4-node chain `L — A — B — C` (members at both ends) warmed up
//!   deterministically to a formed tree, then one adversarial radio
//!   churn (any node, any instant). The healthy protocol repairs the
//!   leader loss without ever forming a loop; with the
//!   accept-stale-sequence-number canary armed, a repair reply from
//!   the requester's own orphaned subtree is accepted and the checker
//!   must hand back the loop counterexample.
//!
//! Timing is compressed relative to the paper's configuration (the
//! checker explores every interleaving, so wall-clock-scale intervals
//! only pad the state space): hellos are pushed out of the healthy
//! window entirely, RREQ retries are disabled (members declare
//! themselves leader after one silent round), and the horizon cuts
//! each scenario right after the interesting phase.

use ag_check::{
    always, exists, explore, render_counterexample, Limits, Machine, NetModel, NetState,
};
use ag_maodv::{GroupId, MaodvConfig, MaodvProtocol};
use ag_net::NodeId;
use ag_sim::{SimDuration, SimTime};

fn cfg(hello_ms: u64, flood_ttl: u8) -> MaodvConfig {
    MaodvConfig {
        hello_interval: SimDuration::from_millis(hello_ms),
        allowed_hello_loss: 1,
        group_hello_interval: SimDuration::from_secs(2),
        tick_interval: SimDuration::from_secs(1),
        rrep_wait: SimDuration::from_secs(1),
        rreq_retries: 0,
        flood_ttl,
        active_route_timeout: SimDuration::from_secs(20),
        join_jitter: SimDuration::from_secs(1),
        data_seen_capacity: 64,
        rreq_seen_capacity: 64,
        discovery_buffer: 4,
        nearest_member_infinity: 32,
    }
}

fn line_protocols(n: u32, members: &[u32], c: MaodvConfig, arm_canary: bool) -> Vec<MaodvProtocol> {
    (0..n)
        .map(|i| {
            let mut p =
                MaodvProtocol::new(c, NodeId::new(i), GroupId(0), members.contains(&i), None);
            if arm_canary {
                p.node_mut().canary_accept_stale_seq();
            }
            p
        })
        .collect()
}

/// The property-relevant projection: upstream pointers + tree shape.
#[derive(Debug, Clone)]
struct Obs {
    upstream: Vec<Option<u32>>,
    on_tree: Vec<bool>,
    leader: Vec<bool>,
}

fn observe(st: &NetState<MaodvProtocol>) -> Obs {
    Obs {
        upstream: st
            .nodes
            .iter()
            .map(|p| p.node().mrt().upstream().map(|u| u.raw()))
            .collect(),
        on_tree: st.nodes.iter().map(|p| p.node().on_tree()).collect(),
        leader: st.nodes.iter().map(|p| p.node().is_leader()).collect(),
    }
}

/// `true` iff following upstream pointers never revisits a node.
fn upstream_acyclic(upstream: &[Option<u32>]) -> bool {
    let n = upstream.len();
    for start in 0..n {
        let mut cur = start;
        for _ in 0..=n {
            match upstream[cur] {
                Some(next) => cur = next as usize,
                None => break,
            }
            if cur == start {
                return false;
            }
        }
    }
    true
}

/// Both model configurations pass the rules every run is held to.
#[test]
fn model_configs_validate() {
    for (hello_ms, flood_ttl) in [(10_000, 2), (1_900, 4)] {
        assert_eq!(cfg(hello_ms, flood_ttl).validate(), Ok(()));
    }
}

#[test]
fn maodv_line_merge_is_loop_free() {
    // Hellos pushed past the horizon: neighbour liveness inside the
    // window is carried by the join/merge control traffic itself.
    let model = NetModel::new(
        line_protocols(3, &[0, 2], cfg(10_000, 2), false),
        &[(0, 1), (1, 2)],
        SimTime::from_millis(3500),
        SimTime::from_millis(3500),
    )
    .with_drop_budget(1);
    let ex = explore(
        &model,
        Limits {
            max_states: 200_000,
        },
        observe,
    );
    assert!(ex.complete, "state space must be explored to fixpoint");
    println!(
        "maodv healthy line: {} states, {} terminal",
        ex.len(),
        ex.terminals().count()
    );
    // Pinned: state identity is `state_key`, the value's `Hash`, so a
    // cache leaking into it (or a field dropped from it) moves this count.
    assert_eq!((ex.len(), ex.terminals().count()), (10_054, 204));

    // The tentpole property: the upstream graph is acyclic everywhere.
    let v = always(&ex, |o: &Obs| upstream_acyclic(&o.upstream));
    assert!(v.holds(), "route loop reachable in healthy MAODV");

    // Non-vacuity: the merged tree 2 -> 1 -> 0 with 0 as leader is
    // actually reached on some path.
    assert!(
        exists(&ex, |o: &Obs| {
            o.leader[0]
                && !o.leader[2]
                && o.upstream[1] == Some(0)
                && o.upstream[2] == Some(1)
                && o.on_tree.iter().all(|&t| t)
        })
        .is_some(),
        "the fully merged tree is unreachable — scenario is broken"
    );
    // Non-vacuity: the pre-merge world with two singleton leaders.
    assert!(
        exists(&ex, |o: &Obs| o.leader[0] && o.leader[2]).is_some(),
        "the two-leader partition phase never occurs"
    );
}

/// 4-node chain model re-rooted at a warmed-up formed tree
/// `C -> B -> A -> L`, with one churn in the adversary's budget.
/// Hellos every 1.9 s (off the tick grid, so a live neighbour is
/// always refreshed before its timeout is inspected) detect the break.
fn warmed_chain(arm_canary: bool) -> NetModel<MaodvProtocol> {
    let model = NetModel::new(
        line_protocols(4, &[0, 3], cfg(1_900, 4), arm_canary),
        &[(0, 1), (1, 2), (2, 3)],
        SimTime::from_secs(6),
        SimTime::from_secs(6),
    )
    .with_churn_budget(1);
    let warm = model.warm_up(model.initial(), SimTime::from_millis(3500));
    let o = observe(&warm);
    assert_eq!(
        (o.leader[0], o.upstream[1], o.upstream[2], o.upstream[3]),
        (true, Some(0), Some(1), Some(2)),
        "warm-up did not form the expected chain tree: {o:?}"
    );
    model.with_root(warm)
}

#[test]
fn maodv_canary_accept_stale_seq_is_caught() {
    // Healthy twin: kill any node (including the leader) after the
    // tree has formed; repair never creates a loop.
    let model = warmed_chain(false);
    let ex = explore(
        &model,
        Limits {
            max_states: 400_000,
        },
        observe,
    );
    assert!(ex.complete, "healthy 4-node chain must reach fixpoint");
    println!("maodv healthy chain(4): {} states", ex.len());
    assert_eq!(ex.len(), 38_070);
    let v = always(&ex, |o: &Obs| upstream_acyclic(&o.upstream));
    assert!(v.holds(), "healthy repair formed a loop");

    // Armed: a stale-sequence answer lets the repairing node graft
    // onto its own orphaned subtree — the checker must find the loop.
    let model = warmed_chain(true);
    let ex = explore(
        &model,
        Limits {
            max_states: 400_000,
        },
        observe,
    );
    println!(
        "maodv canary chain(4): {} states (complete: {})",
        ex.len(),
        ex.complete
    );
    assert_eq!(ex.len(), 37_877);
    let v = always(&ex, |o: &Obs| upstream_acyclic(&o.upstream));
    let cex = v
        .counterexample()
        .expect("canary must produce a route loop");
    let rendered = render_counterexample(&model, &ex, cex, |st| {
        let o = observe(st);
        format!(
            "t={:?} upstream={:?} leader={:?}",
            st.now, o.upstream, o.leader
        )
    });
    println!("minimal counterexample (accept-stale-seq):\n{rendered}");
    assert!(
        rendered.contains("Churn"),
        "loop should require the leader churn"
    );
}
