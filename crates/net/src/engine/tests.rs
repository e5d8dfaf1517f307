use super::*;
use crate::{ProtoCtx, RxKind};
use ag_mobility::{Field, PauseRange, RandomWaypoint, SpeedRange, Stationary};
use ag_sim::SimDuration;

/// A test payload with an explicit wire size.
#[derive(Clone, Debug, PartialEq)]
struct TMsg {
    tag: u32,
    size: usize,
}

impl Message for TMsg {
    fn wire_size(&self) -> usize {
        self.size
    }
}

/// What a scripted node should do when a timer fires.
#[derive(Clone, Debug)]
enum Action {
    Broadcast(TMsg),
    Send(NodeId, TMsg),
}

/// A scripted protocol: runs `script` actions at given delays, records
/// everything it receives.
#[derive(Debug, Default)]
struct Scripted {
    script: Vec<(SimDuration, Action)>,
    received: Vec<(SimTime, NodeId, TMsg, RxKind)>,
    failures: Vec<(NodeId, TMsg)>,
    timer_fires: Vec<(SimTime, TimerKey)>,
}

impl Scripted {
    fn with_script(script: Vec<(SimDuration, Action)>) -> Self {
        Scripted {
            script,
            ..Default::default()
        }
    }
}

impl Protocol for Scripted {
    type Msg = TMsg;

    fn start<C: ProtoCtx<TMsg>>(&mut self, ctx: &mut C) {
        for (i, (delay, _)) in self.script.iter().enumerate() {
            ctx.set_timer(*delay, i as TimerKey);
        }
    }

    fn on_packet<C: ProtoCtx<TMsg>>(&mut self, ctx: &mut C, from: NodeId, msg: TMsg, rx: RxKind) {
        self.received.push((ctx.now(), from, msg, rx));
    }

    fn on_timer<C: ProtoCtx<TMsg>>(&mut self, ctx: &mut C, key: TimerKey) {
        self.timer_fires.push((ctx.now(), key));
        if let Some((_, action)) = self.script.get(key as usize).cloned() {
            match action {
                Action::Broadcast(m) => ctx.broadcast(m),
                Action::Send(to, m) => ctx.send(to, m),
            }
        }
    }

    fn on_send_failure<C: ProtoCtx<TMsg>>(&mut self, _ctx: &mut C, to: NodeId, msg: TMsg) {
        self.failures.push((to, msg));
    }
}

fn stationary(x: f64) -> Box<dyn Mobility> {
    Box::new(Stationary::new(Vec2::new(x, 0.0)))
}

fn msg(tag: u32) -> TMsg {
    TMsg { tag, size: 64 }
}

#[test]
fn unicast_delivery_between_neighbors() {
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(vec![(
                SimDuration::from_secs(1),
                Action::Send(NodeId::new(1), msg(7)),
            )]),
        },
        NodeSetup {
            mobility: stationary(10.0),
            protocol: Scripted::default(),
        },
    ];
    let mut e = Engine::new(PhyParams::paper_default(75.0), 1, nodes);
    e.run_until(SimTime::from_secs(2));
    let rx = &e.protocol(NodeId::new(1)).received;
    assert_eq!(rx.len(), 1);
    assert_eq!(rx[0].1, NodeId::new(0));
    assert_eq!(rx[0].2.tag, 7);
    assert_eq!(rx[0].3, RxKind::Unicast);
    assert_eq!(e.counters().get("mac.unicast_tx"), 1);
    assert_eq!(e.counters().get("mac.send_fail"), 0);
}

#[test]
fn broadcast_respects_range() {
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(vec![(
                SimDuration::from_secs(1),
                Action::Broadcast(msg(1)),
            )]),
        },
        NodeSetup {
            mobility: stationary(50.0),
            protocol: Scripted::default(),
        },
        NodeSetup {
            mobility: stationary(200.0),
            protocol: Scripted::default(),
        },
    ];
    let mut e = Engine::new(PhyParams::paper_default(75.0), 2, nodes);
    e.run_until(SimTime::from_secs(2));
    assert_eq!(e.protocol(NodeId::new(1)).received.len(), 1);
    assert_eq!(e.protocol(NodeId::new(1)).received[0].3, RxKind::Broadcast);
    assert!(e.protocol(NodeId::new(2)).received.is_empty());
}

#[test]
fn unicast_out_of_range_reports_failure() {
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(vec![(
                SimDuration::from_secs(1),
                Action::Send(NodeId::new(1), msg(9)),
            )]),
        },
        NodeSetup {
            mobility: stationary(500.0),
            protocol: Scripted::default(),
        },
    ];
    let mut e = Engine::new(PhyParams::paper_default(75.0), 3, nodes);
    e.run_until(SimTime::from_secs(5));
    assert!(e.protocol(NodeId::new(1)).received.is_empty());
    let fails = &e.protocol(NodeId::new(0)).failures;
    assert_eq!(fails.len(), 1);
    assert_eq!(fails[0].0, NodeId::new(1));
    assert_eq!(fails[0].1.tag, 9);
    assert_eq!(e.counters().get("mac.send_fail"), 1);
    // retry limit 7 => 8 transmissions total
    assert_eq!(e.counters().get("mac.unicast_tx"), 8);
}

#[test]
fn hidden_terminal_collides_at_middle_node() {
    // A(0) and C(200) cannot hear each other (range 110) but both reach
    // B(100). Long frames guarantee overlap despite random backoff.
    let long = TMsg { tag: 5, size: 2000 };
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(vec![(
                SimDuration::from_secs(1),
                Action::Broadcast(long.clone()),
            )]),
        },
        NodeSetup {
            mobility: stationary(100.0),
            protocol: Scripted::default(),
        },
        NodeSetup {
            mobility: stationary(200.0),
            protocol: Scripted::with_script(vec![(
                SimDuration::from_secs(1),
                Action::Broadcast(long.clone()),
            )]),
        },
    ];
    let mut e = Engine::new(PhyParams::paper_default(110.0), 4, nodes);
    e.run_until(SimTime::from_secs(2));
    assert!(
        e.protocol(NodeId::new(1)).received.is_empty(),
        "middle node should lose both frames to the collision"
    );
    assert_eq!(e.counters().get("mac.rx_collision"), 2);
}

#[test]
fn carrier_sense_serializes_audible_senders() {
    // A(0) and B(30) hear each other; both broadcast at t=1. Carrier
    // sense + backoff must serialize them so C(60) receives both.
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(vec![(
                SimDuration::from_secs(1),
                Action::Broadcast(msg(1)),
            )]),
        },
        NodeSetup {
            mobility: stationary(30.0),
            protocol: Scripted::with_script(vec![(
                SimDuration::from_secs(1),
                Action::Broadcast(msg(2)),
            )]),
        },
        NodeSetup {
            mobility: stationary(60.0),
            protocol: Scripted::default(),
        },
    ];
    let mut e = Engine::new(PhyParams::paper_default(75.0), 5, nodes);
    e.run_until(SimTime::from_secs(2));
    let tags: Vec<u32> = e
        .protocol(NodeId::new(2))
        .received
        .iter()
        .map(|r| r.2.tag)
        .collect();
    assert_eq!(tags.len(), 2, "both frames should arrive, got {tags:?}");
}

#[test]
fn mac_queue_drains_in_order() {
    let script: Vec<_> = (0..5)
        .map(|i| (SimDuration::from_secs(1), Action::Broadcast(msg(i))))
        .collect();
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(script),
        },
        NodeSetup {
            mobility: stationary(10.0),
            protocol: Scripted::default(),
        },
    ];
    let mut e = Engine::new(PhyParams::paper_default(75.0), 6, nodes);
    e.run_until(SimTime::from_secs(2));
    let tags: Vec<u32> = e
        .protocol(NodeId::new(1))
        .received
        .iter()
        .map(|r| r.2.tag)
        .collect();
    assert_eq!(tags, vec![0, 1, 2, 3, 4]);
}

#[test]
fn timers_fire_at_requested_times() {
    let nodes = vec![NodeSetup {
        mobility: stationary(0.0),
        protocol: Scripted::with_script(vec![
            (SimDuration::from_millis(250), Action::Broadcast(msg(0))),
            (SimDuration::from_millis(100), Action::Broadcast(msg(1))),
        ]),
    }];
    let mut e = Engine::new(PhyParams::paper_default(75.0), 7, nodes);
    e.run_until(SimTime::from_secs(1));
    let fires = &e.protocol(NodeId::new(0)).timer_fires;
    assert_eq!(fires.len(), 2);
    assert_eq!(fires[0], (SimTime::ZERO + SimDuration::from_millis(100), 1));
    assert_eq!(fires[1], (SimTime::ZERO + SimDuration::from_millis(250), 0));
}

#[test]
fn mobility_breaks_links_over_time() {
    // Node 1 moves from x=10 (in range) to far away; a unicast at t=0.5
    // succeeds, one at t=400 fails.
    let f = Field::new(2000.0, 1.0);
    let mut rng = SeedSplitter::new(9).stream(StreamKind::Mobility, 99);
    // Deterministic "mobility": start at 10 and walk; with a narrow
    // field the node drifts along x. We use waypoint with fixed speed.
    let m = RandomWaypoint::from_point(
        f,
        SpeedRange::fixed(5.0),
        PauseRange::none(),
        Vec2::new(10.0, 0.0),
        &mut rng,
    );
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(vec![
                (
                    SimDuration::from_millis(500),
                    Action::Send(NodeId::new(1), msg(1)),
                ),
                (
                    SimDuration::from_secs(400),
                    Action::Send(NodeId::new(1), msg(2)),
                ),
            ]),
        },
        NodeSetup {
            mobility: Box::new(m),
            protocol: Scripted::default(),
        },
    ];
    let mut e = Engine::new(PhyParams::paper_default(75.0), 10, nodes);
    e.run_until(SimTime::from_secs(500));
    let got: Vec<u32> = e
        .protocol(NodeId::new(1))
        .received
        .iter()
        .map(|r| r.2.tag)
        .collect();
    let failed: Vec<u32> = e
        .protocol(NodeId::new(0))
        .failures
        .iter()
        .map(|f| f.1.tag)
        .collect();
    // Whatever the trajectory, message 1 (at 10 m) must arrive. If the
    // node wandered out of range by t=400, message 2 must show up as a
    // failure instead of silently vanishing.
    assert!(got.contains(&1));
    assert!(got.contains(&2) || failed.contains(&2));
}

#[test]
fn graded_loss_drops_some_broadcasts_near_the_edge() {
    // 200 broadcasts over a 70 m link with a harsh edge PER: some
    // must get through, some must be lost, and the loss shows up in
    // the channel-drop counter — never as a collision.
    let script: Vec<_> = (0..200)
        .map(|i| {
            (
                SimDuration::from_millis(100 * (i as u64 + 1)),
                Action::Broadcast(msg(i)),
            )
        })
        .collect();
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(script),
        },
        NodeSetup {
            mobility: stationary(70.0),
            protocol: Scripted::default(),
        },
    ];
    let phy = PhyParams::paper_default(75.0)
        .with_reception(crate::ReceptionModel::DistanceGraded { edge_per: 0.9 });
    let mut e = Engine::new(phy, 21, nodes);
    e.run_until(SimTime::from_secs(30));
    let got = e.protocol(NodeId::new(1)).received.len() as u64;
    let dropped = e.counters().get("mac.rx_channel_drop");
    assert_eq!(got + dropped, 200);
    assert!(got > 0, "some frames must survive");
    assert!(dropped > 50, "a 0.9-edge PER at 70/75 m must hurt");
    assert_eq!(e.counters().get("mac.rx_collision"), 0);
}

#[test]
fn shadowing_blocks_obstructed_links_entirely() {
    // With a static per-link fade, a given link either always works
    // or always fails at a fixed distance. Sweep several receivers:
    // each must see all 20 frames or none.
    let script: Vec<_> = (0..20)
        .map(|i| {
            (SimDuration::from_millis(200 * (i as u64 + 1)), {
                Action::Broadcast(msg(i))
            })
        })
        .collect();
    let mut nodes = vec![NodeSetup {
        mobility: stationary(0.0),
        protocol: Scripted::with_script(script),
    }];
    for r in 1..10u32 {
        // All at 65 m, just inside the 75 m disk, spread on a ring.
        let ang = r as f64;
        nodes.push(NodeSetup {
            mobility: Box::new(Stationary::new(Vec2::new(
                65.0 * ang.cos(),
                65.0 * ang.sin(),
            ))),
            protocol: Scripted::default(),
        });
    }
    let phy = PhyParams::paper_default(75.0).with_reception(crate::ReceptionModel::Shadowing {
        sigma_db: 10.0,
        path_loss_exp: 3.0,
    });
    let mut e = Engine::new(phy, 5, nodes);
    e.run_until(SimTime::from_secs(30));
    let counts: Vec<usize> = (1..10u32)
        .map(|r| e.protocol(NodeId::new(r)).received.len())
        .collect();
    assert!(
        counts.iter().all(|&c| c == 0 || c == 20),
        "static shadowing must be all-or-nothing per link: {counts:?}"
    );
    assert!(counts.contains(&20), "{counts:?}");
    assert!(counts.contains(&0), "{counts:?}");
}

#[test]
fn churn_toggles_radios_and_drops_traffic() {
    // A steady broadcast stream under aggressive churn: the
    // receiver misses a chunk of frames, fail/recover counters
    // move, and runs stay deterministic.
    let script: Vec<_> = (0..300)
        .map(|i| {
            (
                SimDuration::from_millis(100 * (i as u64 + 1)),
                Action::Broadcast(msg(i)),
            )
        })
        .collect();
    let build = || {
        let nodes = vec![
            NodeSetup {
                mobility: stationary(0.0),
                protocol: Scripted::with_script(script.clone()),
            },
            NodeSetup {
                mobility: stationary(10.0),
                protocol: Scripted::default(),
            },
        ];
        let phy = PhyParams::paper_default(75.0).with_churn(crate::ChurnParams::new(5.0, 5.0));
        Engine::new(phy, 31, nodes)
    };
    let mut e = build();
    e.run_until(SimTime::from_secs(40));
    let c = e.counters();
    assert!(c.get("churn.fail") > 0, "{c}");
    assert!(c.get("churn.recover") > 0, "{c}");
    // ~half the time either endpoint is down: substantial loss,
    // via sender-side drops and/or deaf receiver windows.
    let got = e.protocol(NodeId::new(1)).received.len();
    assert!(got < 290, "churn must lose traffic, got {got}");
    assert!(got > 0, "some frames must land in up-up windows");
    // Deterministic replay.
    let mut e2 = build();
    e2.run_until(SimTime::from_secs(40));
    assert_eq!(
        e.protocol(NodeId::new(1)).received,
        e2.protocol(NodeId::new(1)).received
    );
    let ca: Vec<_> = e.counters().iter().collect();
    let cb: Vec<_> = e2.counters().iter().collect();
    assert_eq!(ca, cb);
}

#[test]
fn churn_accounts_for_every_unicast_frame() {
    // Under churn, every unicast the protocol attempts ends in
    // exactly one of three ways: delivered to the receiver, a
    // failure callback (retry exhaustion or queue destroyed by a
    // radio failure), or discarded because the sender was already
    // down (counted). Nothing may vanish silently.
    let script: Vec<_> = (0..100)
        .map(|i| {
            (
                SimDuration::from_millis(100 * (i as u64 + 1)),
                Action::Send(NodeId::new(1), msg(i)),
            )
        })
        .collect();
    for seed in [1, 7, 42] {
        let nodes = vec![
            NodeSetup {
                mobility: stationary(0.0),
                protocol: Scripted::with_script(script.clone()),
            },
            NodeSetup {
                mobility: stationary(10.0),
                protocol: Scripted::default(),
            },
        ];
        let phy = PhyParams::paper_default(75.0).with_churn(crate::ChurnParams::new(3.0, 2.0));
        let mut e = Engine::new(phy, seed, nodes);
        e.run_until(SimTime::from_secs(60));
        let delivered = e.protocol(NodeId::new(1)).received.len() as u64;
        let failed = e.protocol(NodeId::new(0)).failures.len() as u64;
        let down_drops = e.counters().get("mac.down_drop");
        assert_eq!(
            delivered + failed + down_drops,
            100,
            "seed {seed}: {delivered} delivered + {failed} failed + {down_drops} down-drops"
        );
        assert!(failed > 0, "seed {seed}: churn must destroy some frames");
    }
}

#[test]
fn churned_unicast_to_dead_node_reports_failure() {
    // Receiver mean-up is tiny and mean-down is huge: it dies
    // almost immediately and stays dead, so the unicast at t=5 s
    // exhausts its retries.
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(vec![(
                SimDuration::from_secs(5),
                Action::Send(NodeId::new(1), msg(3)),
            )]),
        },
        NodeSetup {
            mobility: stationary(10.0),
            protocol: Scripted::default(),
        },
    ];
    let phy = PhyParams::paper_default(75.0).with_churn(crate::ChurnParams::new(0.001, 1e6));
    let mut e = Engine::new(phy, 8, nodes);
    e.run_until(SimTime::from_secs(20));
    assert!(e.is_down(NodeId::new(0)));
    assert!(e.is_down(NodeId::new(1)));
    // Node 0 was also dead by t=5 s, so its send was dropped at the
    // (off) radio; nothing was received anywhere.
    assert_eq!(e.counters().get("mac.down_drop"), 1);
    assert!(e.protocol(NodeId::new(1)).received.is_empty());
}

#[test]
fn runs_are_deterministic() {
    fn build() -> Engine<Scripted> {
        let f = Field::paper();
        let splitter = SeedSplitter::new(77);
        let nodes = (0..10u32)
            .map(|i| {
                let mut rng = splitter.stream(StreamKind::Placement, i as u64);
                let script = if i == 0 {
                    (0..20)
                        .map(|k| {
                            (
                                SimDuration::from_millis(100 * k as u64 + 1),
                                Action::Broadcast(msg(k)),
                            )
                        })
                        .collect()
                } else {
                    vec![]
                };
                NodeSetup {
                    mobility: Box::new(RandomWaypoint::new(
                        f,
                        SpeedRange::new(0.0, 5.0),
                        PauseRange::paper(),
                        &mut rng,
                    )) as Box<dyn Mobility>,
                    protocol: Scripted::with_script(script),
                }
            })
            .collect();
        Engine::new(PhyParams::paper_default(75.0), 42, nodes)
    }
    let mut a = build();
    let mut b = build();
    a.run_until(SimTime::from_secs(30));
    b.run_until(SimTime::from_secs(30));
    for i in 0..10u32 {
        let ra: Vec<_> = a
            .protocol(NodeId::new(i))
            .received
            .iter()
            .map(|r| (r.0, r.1, r.2.tag))
            .collect();
        let rb: Vec<_> = b
            .protocol(NodeId::new(i))
            .received
            .iter()
            .map(|r| (r.0, r.1, r.2.tag))
            .collect();
        assert_eq!(ra, rb, "node {i} diverged");
    }
    let ca: Vec<_> = a.counters().iter().collect();
    let cb: Vec<_> = b.counters().iter().collect();
    assert_eq!(ca, cb);
}

#[test]
fn set_threads_is_inert() {
    // The contract `agbench` relies on: the thread knob changes
    // nothing and reports no hits, even with far more transmissions
    // live at once than the retired precompute layer needed (64).
    // A 10 × 10 lattice of senders 140 m apart (mutually inaudible
    // at 75 m, so carrier sense never serializes them), each with a
    // private listener 20 m north and a shared one midway to its
    // eastern neighbour: one long broadcast each at t = 1 s puts
    // all 100 frames on the air together, delivering to the private
    // listeners and colliding at the shared ones.
    fn build(spatial: bool) -> Engine<Scripted> {
        let long = TMsg { tag: 1, size: 2000 };
        let at = |i: u32, dx: f64, dy: f64| -> Box<dyn Mobility> {
            let p = Vec2::new(140.0 * (i % 10) as f64 + dx, 140.0 * (i / 10) as f64 + dy);
            Box::new(Stationary::new(p))
        };
        let mut nodes = Vec::new();
        for i in 0..100u32 {
            nodes.push(NodeSetup {
                mobility: at(i, 0.0, 0.0),
                protocol: Scripted::with_script(vec![
                    (SimDuration::from_secs(1), Action::Broadcast(long.clone())),
                    (
                        SimDuration::from_secs(2),
                        Action::Send(NodeId::new(100 + i), msg(2)),
                    ),
                ]),
            });
        }
        for (dx, dy) in [(0.0, 20.0), (70.0, 0.0)] {
            for i in 0..100u32 {
                nodes.push(NodeSetup {
                    mobility: at(i, dx, dy),
                    protocol: Scripted::default(),
                });
            }
        }
        let phy = PhyParams::paper_default(75.0).with_spatial_index(spatial);
        Engine::new(phy, 17, nodes)
    }
    // The third run is the brute-force engine: with ≥ 64 frames on the
    // air, this is the engine-level oracle for carrier sense over a
    // crowded slab (the unicast round senses one) and the receive
    // kernel.
    let mut outcomes = Vec::new();
    for (threads, spatial) in [(1, true), (8, true), (1, false)] {
        let mut e = build(spatial);
        e.set_threads(threads);
        // Every backoff (≤ 0.7 ms) has expired, no frame (8 ms) has
        // ended: the whole lattice is on the air.
        e.run_until(SimTime::from_secs(1) + SimDuration::from_millis(2));
        assert!(e.world.air.len() >= 64, "{} live", e.world.air.len());
        e.run_until(SimTime::from_secs(3));
        assert_eq!(e.parallel_hits(), 0);
        let counters: Vec<_> = e.counters().iter().collect();
        let logs = |p: &Scripted| (p.received.clone(), p.failures.clone());
        let per_node: Vec<_> = e.protocols().iter().map(logs).collect();
        let events = (e.events_processed(), e.events_scheduled());
        outcomes.push((counters, per_node, events));
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0], outcomes[2]);
    let get = |name| outcomes[0].0.iter().find(|c| c.0 == name).map(|c| c.1);
    assert_eq!(get("mac.broadcast_tx"), Some(100));
    // 90 shared listeners × 2 corrupted frames, in each round.
    assert_eq!(get("mac.rx_collision"), Some(360));
}

#[test]
fn queue_drop_counter() {
    // Capacity-4 queue, 10 back-to-back frames from one timer burst.
    let script: Vec<_> = (0..10)
        .map(|i| (SimDuration::from_secs(1), Action::Broadcast(msg(i))))
        .collect();
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(script),
        },
        NodeSetup {
            mobility: stationary(10.0),
            protocol: Scripted::default(),
        },
    ];
    let phy = PhyParams::paper_default(75.0).with_queue_capacity(4);
    let mut e = Engine::new(phy, 8, nodes);
    e.run_until(SimTime::from_secs(2));
    assert_eq!(e.counters().get("mac.queue_drop"), 6);
    assert_eq!(e.protocol(NodeId::new(1)).received.len(), 4);
}

#[test]
fn run_until_is_resumable() {
    let nodes = vec![
        NodeSetup {
            mobility: stationary(0.0),
            protocol: Scripted::with_script(vec![
                (SimDuration::from_secs(1), Action::Broadcast(msg(1))),
                (SimDuration::from_secs(3), Action::Broadcast(msg(2))),
            ]),
        },
        NodeSetup {
            mobility: stationary(10.0),
            protocol: Scripted::default(),
        },
    ];
    let mut e = Engine::new(PhyParams::paper_default(75.0), 11, nodes);
    e.run_until(SimTime::from_secs(2));
    assert_eq!(e.protocol(NodeId::new(1)).received.len(), 1);
    assert_eq!(e.now(), SimTime::from_secs(2));
    // An earlier target must not rewind the clock (or node positions).
    e.run_until(SimTime::from_secs(1));
    assert_eq!(e.now(), SimTime::from_secs(2));
    e.run_until(SimTime::from_secs(4));
    assert_eq!(e.protocol(NodeId::new(1)).received.len(), 2);
}
