//! Cross-crate integration tests: the full stack (DES kernel → mobility
//! → PHY/MAC → MAODV → Anonymous Gossip → harness) exercised together
//! on mid-sized scenarios.

use ag_core::{AgConfig, AnonymousGossip};
use ag_harness::{run, ProtocolKind, Scenario, GROUP};
use ag_maodv::{MaodvConfig, TrafficSource};
use ag_mobility::{Stationary, Vec2};
use ag_net::{Engine, NodeId, NodeSetup, PhyParams};
use ag_sim::{SimDuration, SimTime};

fn small_scenario() -> Scenario {
    Scenario::paper(20, 80.0, 1.0).with_duration_secs(120)
}

#[test]
fn full_stack_delivers_most_packets() {
    let sc = small_scenario();
    let r = run(&sc, 1, ProtocolKind::Gossip);
    assert_eq!(r.protocol, ProtocolKind::Gossip);
    let ratio = r.delivery_ratio();
    assert!(
        ratio > 0.8,
        "gossip stack should deliver most packets in a benign scenario, got {ratio:.2}"
    );
}

#[test]
fn gossip_never_loses_to_maodv_on_matched_seeds() {
    // Gossip strictly adds a recovery channel on the same phase-one
    // substrate; pooled over members and a few seeds it must not be
    // worse than the baseline.
    let sc = Scenario::paper(24, 60.0, 2.0).with_duration_secs(120);
    let mut gossip_total = 0.0;
    let mut maodv_total = 0.0;
    for seed in 0..3 {
        gossip_total += run(&sc, seed, ProtocolKind::Gossip)
            .received_summary()
            .mean();
        maodv_total += run(&sc, seed, ProtocolKind::Maodv)
            .received_summary()
            .mean();
    }
    assert!(
        gossip_total >= maodv_total,
        "gossip {gossip_total:.0} vs maodv {maodv_total:.0}"
    );
}

#[test]
fn delivery_split_is_consistent() {
    let sc = small_scenario();
    let r = run(&sc, 2, ProtocolKind::Gossip);
    for m in &r.members {
        assert_eq!(
            m.received,
            m.via_tree + m.via_gossip,
            "every distinct packet came from exactly one path"
        );
        assert!(m.received <= r.sent);
    }
}

#[test]
fn source_always_has_everything() {
    let sc = small_scenario();
    for seed in 0..3 {
        let r = run(&sc, seed, ProtocolKind::Gossip);
        let src = r.members.iter().find(|m| m.node == r.source).unwrap();
        assert_eq!(src.received, r.sent);
    }
}

#[test]
fn counters_are_populated_by_real_traffic() {
    let sc = small_scenario();
    let r = run(&sc, 3, ProtocolKind::Gossip);
    assert!(
        r.counter("mac.broadcast_tx") > 1000,
        "hellos + data + floods"
    );
    assert!(r.counter("maodv.data_originated") > 0);
    assert!(r.counter("maodv.join_rrep_sent") > 0);
    assert!(r.counter("maodv.grph_originated") > 0);
}

#[test]
fn member_caches_fill_without_membership_protocol() {
    // §4.3: membership information is collected "at no extra cost".
    let sc = small_scenario();
    let members = sc.members_for_seed(4);
    let source = members[0];
    let nodes: Vec<NodeSetup<AnonymousGossip>> = (0..sc.nodes)
        .map(|i| {
            let id = NodeId::new(i as u32);
            let mut rng = ag_sim::rng::SeedSplitter::new(4)
                .stream(ag_sim::rng::StreamKind::Placement, i as u64);
            NodeSetup {
                mobility: Box::new(ag_mobility::RandomWaypoint::new(
                    sc.field,
                    ag_mobility::SpeedRange::new(0.0, 1.0),
                    ag_mobility::PauseRange::paper(),
                    &mut rng,
                )),
                protocol: AnonymousGossip::new(
                    sc.ag,
                    sc.maodv,
                    id,
                    GROUP,
                    members.contains(&id),
                    (id == source).then_some(sc.traffic),
                ),
            }
        })
        .collect();
    let mut e = Engine::new(PhyParams::paper_default(sc.range_m), 4, nodes);
    e.run_until(sc.sim_time);
    let caches_filled = members
        .iter()
        .filter(|&&m| !e.protocol(m).member_cache().is_empty())
        .count();
    assert!(
        caches_filled >= members.len() - 1,
        "almost every member should have discovered members passively ({caches_filled}/{})",
        members.len()
    );
}

#[test]
fn static_grid_has_perfect_tree_delivery() {
    // A 4×4 static grid with generous range: no mobility, no repairs —
    // the tree alone should deliver everything to every member.
    let spacing = 50.0;
    let members: Vec<NodeId> = vec![
        NodeId::new(0),
        NodeId::new(5),
        NodeId::new(10),
        NodeId::new(15),
    ];
    let traffic = TrafficSource::compact(
        SimTime::from_secs(40),
        SimDuration::from_millis(200),
        100,
        64,
    );
    let nodes: Vec<NodeSetup<AnonymousGossip>> = (0..16u32)
        .map(|i| {
            let id = NodeId::new(i);
            let (x, y) = ((i % 4) as f64 * spacing, (i / 4) as f64 * spacing);
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(x, y)))
                    as Box<dyn ag_mobility::Mobility>,
                protocol: AnonymousGossip::new(
                    AgConfig::paper_default(),
                    MaodvConfig::paper_default(),
                    id,
                    GROUP,
                    members.contains(&id),
                    (id == NodeId::new(0)).then_some(traffic),
                ),
            }
        })
        .collect();
    let mut e = Engine::new(PhyParams::paper_default(80.0), 9, nodes);
    e.run_until(SimTime::from_secs(90));
    for &m in &members {
        assert_eq!(
            e.protocol(m).delivery().distinct(),
            100,
            "member {m} missed packets on a static grid"
        );
    }
}

#[test]
fn scaled_duration_preserves_proportions() {
    let sc = Scenario::paper(40, 75.0, 0.2);
    assert_eq!(sc.traffic.start, SimTime::from_secs(120));
    let scaled = sc.with_duration_secs(60);
    // 20% warm-up, source stops at 14/15 of the run.
    assert_eq!(scaled.traffic.start, SimTime::from_secs(12));
    assert_eq!(scaled.traffic.end, SimTime::from_secs(56));
}

#[test]
fn runs_are_bit_deterministic_across_protocol_kinds() {
    let sc = Scenario::paper(16, 70.0, 1.5).with_duration_secs(90);
    for kind in [ProtocolKind::Maodv, ProtocolKind::Gossip] {
        let a = ag_harness::run(&sc, 5, kind);
        let b = ag_harness::run(&sc, 5, kind);
        assert_eq!(
            a.members.iter().map(|m| m.received).collect::<Vec<_>>(),
            b.members.iter().map(|m| m.received).collect::<Vec<_>>()
        );
        assert_eq!(a.counters, b.counters);
    }
}

#[test]
fn goodput_stays_in_range_across_seeds() {
    let sc = Scenario::paper(20, 55.0, 2.0).with_duration_secs(120);
    for seed in 0..3 {
        let r = run(&sc, seed, ProtocolKind::Gossip);
        for m in r.receivers() {
            if let Some(g) = m.goodput_percent {
                assert!((0.0..=100.0).contains(&g), "goodput {g} out of range");
            }
        }
    }
}
