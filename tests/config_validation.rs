//! The configuration rules, at their edges: every broken rule comes back
//! as the `ConfigError` naming its field, the valid edges run to
//! completion, and every scenario the repository ships passes.
//!
//! No test here *runs* an invalid configuration: a zero timer interval
//! would re-arm at one instant for ever. They assert the `Err` only.

use ag_core::AgConfig;
use ag_harness::figures::{all_line_figures, fig8_scenarios};
use ag_harness::matrix::MatrixSpec;
use ag_harness::{run, ChurnParams, ProtocolKind, ReceptionModel, Scenario};
use ag_maodv::{GroupId, MaodvConfig, MaodvProtocol, TrafficSource};
use ag_net::NodeId;
use ag_odmrp::OdmrpConfig;
use ag_sim::{SimDuration, SimTime};

/// Boundary rows: the field whose rule an edit breaks, and the edit.
type Rows<T> = [(&'static str, fn(&mut T))];

fn paper() -> Scenario {
    Scenario::paper(40, 75.0, 0.2).with_duration_secs(60)
}

#[test]
fn each_broken_rule_names_its_field() {
    let rows: &Rows<Scenario> = &[
        ("Scenario.nodes", |sc| sc.nodes = 1),
        ("Scenario.nodes", |sc| sc.nodes = u32::MAX as usize + 1),
        ("Scenario.member_count", |sc| sc.member_count = 0),
        ("Scenario.member_count", |sc| sc.member_count = 41),
        ("Scenario.min_speed", |sc| sc.min_speed = -1.0),
        ("Scenario.max_speed", |sc| sc.max_speed = f64::NAN),
        ("Scenario.max_speed", |sc| {
            (sc.min_speed, sc.max_speed) = (2.0, 1.0)
        }),
        ("PhyParams.range_m", |sc| sc.range_m = 0.0),
        ("PhyParams.range_m", |sc| sc.range_m = f64::NAN),
        ("PhyParams.range_m", |sc| sc.range_m = f64::INFINITY),
        ("ReceptionModel.edge_per", |sc| {
            sc.reception = ReceptionModel::DistanceGraded { edge_per: 1.5 }
        }),
        ("ReceptionModel.edge_per", |sc| {
            sc.reception = ReceptionModel::DistanceGraded { edge_per: f64::NAN }
        }),
        ("ReceptionModel.sigma_db", |sc| {
            sc.reception = ReceptionModel::Shadowing {
                sigma_db: -1.0,
                path_loss_exp: 3.0,
            }
        }),
        ("ReceptionModel.path_loss_exp", |sc| {
            sc.reception = ReceptionModel::Shadowing {
                sigma_db: 8.0,
                path_loss_exp: 0.0,
            }
        }),
        ("ChurnParams.mean_up_secs", |sc| {
            sc.churn = Some(ChurnParams::new(0.0, 15.0))
        }),
        ("ChurnParams.mean_down_secs", |sc| {
            sc.churn = Some(ChurnParams::new(120.0, f64::INFINITY))
        }),
        ("TrafficSource.interval", |sc| {
            sc.traffic.interval = SimDuration::ZERO
        }),
        ("AgConfig.gossip_interval", |sc| {
            sc.ag.gossip_interval = SimDuration::ZERO
        }),
        ("AgConfig.p_anon", |sc| sc.ag.p_anon = 1.5),
        ("AgConfig.p_anon", |sc| sc.ag.p_anon = f64::NAN),
        ("AgConfig.p_accept", |sc| sc.ag.p_accept = -0.1),
        ("AgConfig.gossip_ttl", |sc| sc.ag.gossip_ttl = 0),
        ("AgConfig.lost_buffer_max", |sc| sc.ag.lost_buffer_max = 0),
        ("AgConfig.reply_max_packets", |sc| {
            sc.ag.reply_max_packets = 0
        }),
        ("AgConfig.member_cache_capacity", |sc| {
            sc.ag.member_cache_capacity = 0
        }),
        ("AgConfig.lost_table_capacity", |sc| {
            sc.ag.lost_table_capacity = 0
        }),
        ("AgConfig.history_capacity", |sc| sc.ag.history_capacity = 0),
        ("MaodvConfig.hello_interval", |sc| {
            sc.maodv.hello_interval = SimDuration::ZERO
        }),
        ("MaodvConfig.group_hello_interval", |sc| {
            sc.maodv.group_hello_interval = SimDuration::ZERO
        }),
        ("MaodvConfig.tick_interval", |sc| {
            sc.maodv.tick_interval = SimDuration::ZERO
        }),
        ("MaodvConfig.flood_ttl", |sc| sc.maodv.flood_ttl = 0),
        ("MaodvConfig.data_seen_capacity", |sc| {
            sc.maodv.data_seen_capacity = 0
        }),
        ("MaodvConfig.rreq_seen_capacity", |sc| {
            sc.maodv.rreq_seen_capacity = 0
        }),
    ];
    assert_eq!(paper().validate(), Ok(()));
    for (field, edit) in rows {
        let mut sc = paper();
        edit(&mut sc);
        let err = sc.validate().expect_err(field);
        assert_eq!(err.field, *field, "{err}");
    }
    let odmrp_rows: &Rows<OdmrpConfig> = &[
        ("OdmrpConfig.query_interval", |c| {
            c.query_interval = SimDuration::ZERO
        }),
        ("OdmrpConfig.flood_ttl", |c| c.flood_ttl = 0),
        ("OdmrpConfig.seen_capacity", |c| c.seen_capacity = 0),
    ];
    for (field, edit) in odmrp_rows {
        let mut cfg = OdmrpConfig::default_paper();
        edit(&mut cfg);
        assert_eq!(cfg.validate().expect_err(field).field, *field);
    }
}

#[test]
fn the_error_is_one_line_naming_field_value_and_rule() {
    let mut sc = paper();
    sc.maodv.flood_ttl = 0;
    assert_eq!(
        sc.validate().unwrap_err().to_string(),
        "invalid configuration: MaodvConfig.flood_ttl = 0, must be at least 1"
    );
}

#[test]
#[should_panic(expected = "run_counting: invalid configuration: Scenario.nodes = 1")]
fn a_run_refuses_an_invalid_scenario_before_building_it() {
    let mut sc = paper();
    sc.nodes = 1;
    run(&sc, 1, ProtocolKind::Gossip);
}

#[test]
#[should_panic(expected = "Maodv::new: invalid configuration: MaodvConfig.tick_interval")]
fn a_protocol_refuses_an_invalid_config_when_built() {
    let cfg = MaodvConfig {
        tick_interval: SimDuration::ZERO,
        ..MaodvConfig::paper_default()
    };
    MaodvProtocol::new(cfg, NodeId::new(0), GroupId(0), true, None);
}

#[test]
fn valid_edges_run_to_completion() {
    let two = Scenario::paper(2, 75.0, 0.2).with_duration_secs(30);
    let wide = Scenario::paper(10, 300.0, 0.2).with_duration_secs(30);
    assert!(wide.range_m > wide.field.diagonal());
    let one_second = paper().with_duration_secs(1);
    assert_eq!(one_second.packets_sent(), 1);
    for sc in [two, wide, one_second] {
        assert_eq!(sc.validate(), Ok(()));
        for kind in [
            ProtocolKind::Gossip,
            ProtocolKind::Maodv,
            ProtocolKind::Odmrp,
        ] {
            let r = run(&sc, 3, kind);
            assert_eq!(r.members.len(), sc.member_count);
            assert_eq!(r.sent, sc.packets_sent());
        }
    }
}

/// A run of no time is refused: it would dispatch only the start
/// events, yet count the source's first packet as sent.
#[test]
fn a_zero_second_run_is_an_error() {
    let err = paper().with_duration_secs(0).validate().unwrap_err();
    assert_eq!(err.field, "Scenario.sim_time");
}

#[test]
fn every_shipped_scenario_validates() {
    for spec in all_line_figures() {
        let points = spec.scenarios().map(|p| p.len());
        assert_eq!(points, Ok(spec.xs.len()), "{}", spec.id);
    }
    assert_eq!(fig8_scenarios(600).map(|s| s.len()), Ok(4));
    assert_eq!(MatrixSpec::paper_stress(10, 600).validate(), Ok(()));
    for nodes in [500, 20_000, 1_000_000] {
        assert_eq!(
            Scenario::city_scale(nodes)
                .with_duration_secs(60)
                .validate(),
            Ok(())
        );
    }
    assert_eq!(OdmrpConfig::default_paper().validate(), Ok(()));
    assert_eq!(AgConfig::paper_default().validate(), Ok(()));
    let compact = TrafficSource::compact(
        SimTime::from_secs(10),
        SimDuration::from_millis(200),
        40,
        64,
    );
    assert_eq!(compact.validate(), Ok(()));
}
