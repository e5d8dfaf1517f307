//! Differential test: the grid-indexed engine must be *behaviourally
//! identical* to the brute-force engine — same deliveries, same
//! failures, same timer firings, same counters — over random scenarios
//! and seeds. The spatial index is a pure query accelerator; any
//! divergence here is a bug in the index, not a tuning trade-off.

use ag_mobility::{
    Field, LegSample, Mobility, PauseRange, RandomWalk, RandomWaypoint, SpeedRange, Stationary,
    Vec2,
};
use ag_net::{
    ChurnParams, Engine, Message, NodeId, NodeSetup, PhyParams, ProtoCtx, Protocol, ReceptionModel,
    RxKind, TimerKey,
};
use ag_sim::rng::{SeedSplitter, StreamKind};
use ag_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;

/// A payload with a configurable wire size (drives airtime and thus
/// collision windows).
#[derive(Clone, Debug, PartialEq)]
struct Blob {
    tag: u32,
    size: usize,
}

impl Message for Blob {
    fn wire_size(&self) -> usize {
        self.size
    }
}

/// A traffic generator that keeps the channel busy: every `interval`,
/// each node alternates between broadcasting and unicasting to its ring
/// neighbour, and logs everything it observes.
#[derive(Debug)]
struct Chatter {
    interval: SimDuration,
    node_count: u32,
    payload: usize,
    sent: u32,
    received: Vec<(SimTime, NodeId, u32, RxKind)>,
    failures: Vec<(NodeId, u32)>,
}

impl Chatter {
    fn new(interval_ms: u64, node_count: u32, payload: usize) -> Self {
        Chatter {
            interval: SimDuration::from_millis(interval_ms),
            node_count,
            payload,
            sent: 0,
            received: Vec::new(),
            failures: Vec::new(),
        }
    }
}

impl Protocol for Chatter {
    type Msg = Blob;

    fn start<C: ProtoCtx<Blob>>(&mut self, api: &mut C) {
        // Stagger first transmissions by node id so not everyone keys up
        // at the same instant.
        let offset = SimDuration::from_millis(7 * (api.id().raw() as u64 + 1));
        api.set_timer(offset, 0);
    }

    fn on_packet<C: ProtoCtx<Blob>>(&mut self, api: &mut C, from: NodeId, msg: Blob, rx: RxKind) {
        self.received.push((api.now(), from, msg.tag, rx));
    }

    fn on_timer<C: ProtoCtx<Blob>>(&mut self, api: &mut C, _key: TimerKey) {
        self.sent += 1;
        let tag = api.id().raw() * 100_000 + self.sent;
        if self.sent.is_multiple_of(3) && self.node_count > 1 {
            let dest = NodeId::new((api.id().raw() + 1) % self.node_count);
            api.send(
                dest,
                Blob {
                    tag,
                    size: self.payload,
                },
            );
        } else {
            api.broadcast(Blob {
                tag,
                size: self.payload,
            });
        }
        api.set_timer(self.interval, 0);
    }

    fn on_send_failure<C: ProtoCtx<Blob>>(&mut self, _api: &mut C, to: NodeId, msg: Blob) {
        self.failures.push((to, msg.tag));
    }
}

/// Builds one node's mobility model; the mix (waypoint / walk /
/// stationary) exercises moving-segment, short-epoch and point buckets.
fn mobility_for(seed: u64, node: usize, field: Field, max_speed: f64) -> Box<dyn Mobility> {
    let mut rng = SeedSplitter::new(seed).stream(StreamKind::Placement, node as u64);
    match node % 3 {
        0 => Box::new(RandomWaypoint::new(
            field,
            SpeedRange::new(0.0, max_speed),
            PauseRange::uniform_secs(0.0, 4.0),
            &mut rng,
        )),
        1 => Box::new(RandomWalk::new(
            field,
            SpeedRange::new(0.5, max_speed.max(1.0)),
            SimDuration::from_secs(3),
            &mut rng,
        )),
        _ => Box::new(Stationary::random(field, &mut rng)),
    }
}

type RxLog = Vec<(SimTime, NodeId, u32, RxKind)>;
type FailLog = Vec<(NodeId, u32)>;

struct Outcome {
    per_node: Vec<(RxLog, FailLog, u32)>,
    counters: Vec<(&'static str, u64)>,
    positions: Vec<Vec2>,
}

/// One random scenario's knobs.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    seed: u64,
    nodes: usize,
    field_m: f64,
    range_m: f64,
    max_speed: f64,
    payload: usize,
    sim_secs: u64,
    /// 0 = ideal, 1 = distance-graded PER, 2 = log-normal shadowing.
    reception_kind: u8,
    /// Churn (mean up, mean down) in seconds; `None` for no churn.
    churn_secs: Option<(f64, f64)>,
}

impl Knobs {
    fn reception(&self) -> ReceptionModel {
        match self.reception_kind % 3 {
            0 => ReceptionModel::Ideal,
            1 => ReceptionModel::DistanceGraded { edge_per: 0.7 },
            _ => ReceptionModel::Shadowing {
                sigma_db: 8.0,
                path_loss_exp: 3.0,
            },
        }
    }
}

fn run_once(k: Knobs, spatial: bool) -> Outcome {
    let field = Field::new(k.field_m, k.field_m);
    let mobility = (0..k.nodes)
        .map(|i| mobility_for(k.seed, i, field, k.max_speed))
        .collect();
    let mut phy = PhyParams::paper_default(k.range_m)
        .with_spatial_index(spatial)
        .with_reception(k.reception());
    if let Some((up, down)) = k.churn_secs {
        phy = phy.with_churn(ChurnParams::new(up, down));
    }
    run_chatter(phy, k.seed, mobility, k.payload, k.sim_secs)
}

/// Runs one [`Chatter`] per mobility model under `phy` and logs what
/// every node saw.
fn run_chatter(
    phy: PhyParams,
    seed: u64,
    mobility: Vec<Box<dyn Mobility>>,
    payload: usize,
    sim_secs: u64,
) -> Outcome {
    let nodes = mobility.len();
    let setups = mobility
        .into_iter()
        .enumerate()
        .map(|(i, mobility)| NodeSetup {
            mobility,
            protocol: Chatter::new(40 + 13 * (i as u64 % 5), nodes as u32, payload),
        })
        .collect();
    let mut engine = Engine::new(phy, seed, setups);
    engine.run_until(SimTime::from_secs(sim_secs));
    Outcome {
        per_node: engine
            .protocols()
            .iter()
            .map(|p| (p.received.clone(), p.failures.clone(), p.sent))
            .collect(),
        counters: engine.counters().iter().collect(),
        positions: (0..nodes)
            .map(|i| engine.position_of(NodeId::new(i as u32)))
            .collect(),
    }
}

proptest! {
    /// Grid-indexed and brute-force engines agree event-for-event over
    /// random node counts, field sizes, ranges, speeds, payloads,
    /// seeds, reception models and churn schedules. The stress knobs
    /// ride the same proptest so the equivalence holds under hostile
    /// channels, not just the paper's ideal one.
    #[test]
    fn grid_path_is_identical_to_brute_force(
        seed in 0u64..10_000,
        nodes in 2usize..12,
        field_m in 80.0f64..600.0,
        range_m in 30.0f64..120.0,
        max_speed in 0.2f64..25.0,
        payload in 32usize..1500,
        reception_kind in 0u8..3,
        churn in proptest::option::of((2.0f64..20.0, 1.0f64..8.0)),
    ) {
        let k = Knobs {
            seed, nodes, field_m, range_m, max_speed, payload, sim_secs: 12,
            reception_kind, churn_secs: churn,
        };
        let grid = run_once(k, true);
        let brute = run_once(k, false);
        prop_assert_eq!(&grid.counters, &brute.counters, "counters diverged");
        for (i, (g, b)) in grid.per_node.iter().zip(&brute.per_node).enumerate() {
            prop_assert_eq!(g.2, b.2, "node {} send count diverged", i);
            prop_assert_eq!(&g.1, &b.1, "node {} failures diverged", i);
            prop_assert_eq!(&g.0, &b.0, "node {} receptions diverged", i);
        }
        prop_assert_eq!(&grid.positions, &brute.positions, "final positions diverged");
    }
}

/// A dense, collision-heavy scenario where every broadcast reaches (and
/// every overlap corrupts) many nodes — worst case for index bookkeeping.
#[test]
fn dense_cluster_identical_paths() {
    let out: Vec<Outcome> = [true, false]
        .iter()
        .map(|&sp| {
            run_once(
                Knobs {
                    seed: 99,
                    nodes: 10,
                    field_m: 90.0,
                    range_m: 100.0,
                    max_speed: 10.0,
                    payload: 900,
                    sim_secs: 20,
                    reception_kind: 0,
                    churn_secs: None,
                },
                sp,
            )
        })
        .collect();
    assert_eq!(out[0].counters, out[1].counters);
    assert!(
        out[0]
            .counters
            .iter()
            .any(|&(k, v)| k == "mac.rx_collision" && v > 0),
        "scenario failed to produce collisions: {:?}",
        out[0].counters
    );
    for (g, b) in out[0].per_node.iter().zip(&out[1].per_node) {
        assert_eq!(g.0, b.0);
    }
}

/// A fully hostile fixed scenario — shadowed channel *and* aggressive
/// churn — where the grid's detach/re-attach bookkeeping gets the most
/// exercise, pinned so it runs on every `cargo test` (the proptest only
/// samples this corner).
#[test]
fn stressed_channel_identical_paths() {
    let out: Vec<Outcome> = [true, false]
        .iter()
        .map(|&sp| {
            run_once(
                Knobs {
                    seed: 1234,
                    nodes: 9,
                    field_m: 250.0,
                    range_m: 90.0,
                    max_speed: 12.0,
                    payload: 700,
                    sim_secs: 25,
                    reception_kind: 2,
                    churn_secs: Some((6.0, 3.0)),
                },
                sp,
            )
        })
        .collect();
    assert_eq!(out[0].counters, out[1].counters);
    assert!(
        out[0]
            .counters
            .iter()
            .any(|&(k, v)| k == "churn.fail" && v > 0),
        "scenario failed to churn: {:?}",
        out[0].counters
    );
    for (g, b) in out[0].per_node.iter().zip(&out[1].per_node) {
        assert_eq!(g.0, b.0);
        assert_eq!(g.1, b.1);
    }
    assert_eq!(out[0].positions, out[1].positions);
}

/// A sparse city-sized scenario where most nodes are out of range of
/// each other — worst case for missed candidates.
#[test]
fn sparse_field_identical_paths() {
    let out: Vec<Outcome> = [true, false]
        .iter()
        .map(|&sp| {
            run_once(
                Knobs {
                    seed: 7,
                    nodes: 11,
                    field_m: 1000.0,
                    range_m: 60.0,
                    max_speed: 20.0,
                    payload: 400,
                    sim_secs: 25,
                    reception_kind: 0,
                    churn_secs: None,
                },
                sp,
            )
        })
        .collect();
    assert_eq!(out[0].counters, out[1].counters);
    for (g, b) in out[0].per_node.iter().zip(&out[1].per_node) {
        assert_eq!(g.0, b.0);
        assert_eq!(g.1, b.1);
    }
}

/// A city block big enough to keep dozens of records in the air slab:
/// the 12-node cases above never do, so this is where carrier sense and
/// collisions over a crowded slab meet the brute-force engine under
/// mixed mobility. Dense enough that the medium is often busy
/// (asserted), short enough for debug.
#[test]
fn crowded_air_identical_paths() {
    let out: Vec<Outcome> = [true, false]
        .iter()
        .map(|&sp| {
            run_once(
                Knobs {
                    seed: 4242,
                    nodes: 320,
                    field_m: 1600.0,
                    range_m: 75.0,
                    max_speed: 15.0,
                    payload: 1400,
                    sim_secs: 2,
                    reception_kind: 1,
                    churn_secs: None,
                },
                sp,
            )
        })
        .collect();
    assert_eq!(out[0].counters, out[1].counters);
    assert!(
        out[0]
            .counters
            .iter()
            .any(|&(k, v)| k == "mac.cs_busy" && v > 100),
        "scenario failed to load the medium: {:?}",
        out[0].counters
    );
    for (g, b) in out[0].per_node.iter().zip(&out[1].per_node) {
        assert_eq!(g.0, b.0);
        assert_eq!(g.1, b.1);
    }
    assert_eq!(out[0].positions, out[1].positions);
}

/// Runs `scenario` on the grid-indexed engine, then on the brute-force
/// one, asserts they agree on counters, every node's receptions and
/// failures, and final positions, and returns the grid run's outcome.
fn identical_paths(scenario: impl Fn(bool) -> Outcome) -> Outcome {
    let (grid, brute) = (scenario(true), scenario(false));
    assert_eq!(grid.counters, brute.counters, "counters diverged");
    for (i, (g, b)) in grid.per_node.iter().zip(&brute.per_node).enumerate() {
        assert_eq!(g, b, "node {i} diverged");
    }
    assert_eq!(grid.positions, brute.positions, "final positions diverged");
    grid
}

fn counter(out: &Outcome, name: &str) -> u64 {
    out.counters
        .iter()
        .find(|&&(k, _)| k == name)
        .map_or(0, |&(_, v)| v)
}

/// Boundary knobs for the receive kernel: a scenario at the paper's
/// scale whose one extreme knob is set by the caller.
fn boundary(seed: u64, nodes: usize, field_m: f64, range_m: f64) -> Knobs {
    Knobs {
        seed,
        nodes,
        field_m,
        range_m,
        max_speed: 10.0,
        payload: 300,
        sim_secs: 10,
        reception_kind: 0,
        churn_secs: None,
    }
}

/// A range beyond the field's diagonal: every fetch covers the whole
/// field, and every node hears from every other.
#[test]
fn range_beyond_diagonal_identical_paths() {
    let k = boundary(21, 8, 100.0, 150.0);
    let out = identical_paths(|sp| run_once(k, sp));
    for (i, (log, _, _)) in out.per_node.iter().enumerate() {
        let heard: std::collections::BTreeSet<_> = log.iter().map(|e| e.1.raw()).collect();
        assert_eq!(heard.len(), k.nodes - 1, "node {i} missed a sender");
    }
}

/// A sub-metre range: fetches find nobody in range, frames reach
/// nobody and every unicast fails.
#[test]
fn sub_metre_range_identical_paths() {
    let out = identical_paths(|sp| run_once(boundary(22, 8, 200.0, 0.5), sp));
    assert_eq!(counter(&out, "mac.rx_delivered"), 0);
    assert!(counter(&out, "mac.send_fail") > 0, "{:?}", out.counters);
}

/// Exactly two nodes, on a graded channel: each fetch holds at most
/// the one other node.
#[test]
fn two_nodes_identical_paths() {
    let k = Knobs {
        reception_kind: 1,
        sim_secs: 20,
        ..boundary(23, 2, 150.0, 75.0)
    };
    let out = identical_paths(|sp| run_once(k, sp));
    assert!(counter(&out, "mac.rx_delivered") > 0, "{:?}", out.counters);
}

/// Every node parked on one cell corner (a multiple of the `R / 2`
/// cell): each is bucketed under the four cells meeting there, so a
/// fetch returns every id four times — the most duplicates one query
/// can hand the kernel's dedupe.
#[test]
fn shared_cell_corner_identical_paths() {
    const RANGE: f64 = 75.0;
    let out = identical_paths(|sp| {
        let corner = (0..6)
            .map(|_| Box::new(Stationary::new(Vec2::new(RANGE, RANGE))) as Box<dyn Mobility>)
            .collect();
        let phy = PhyParams::paper_default(RANGE).with_spatial_index(sp);
        run_chatter(phy, 24, corner, 300, 10)
    });
    assert!(counter(&out, "mac.rx_delivered") > 0, "{:?}", out.counters);
}

/// A scripted trajectory: leg `k` takes over at `legs[k].0` (the first
/// one's instant is ignored). Unlike the shipped models it may restart
/// a node anywhere, which the `Mobility` contract allows.
#[derive(Debug)]
struct Script {
    legs: Vec<(SimTime, LegSample)>,
    at: usize,
}

impl Mobility for Script {
    fn position(&self, t: SimTime) -> Vec2 {
        self.legs[self.at].1.position_at(t)
    }

    fn next_transition(&self) -> SimTime {
        self.legs.get(self.at + 1).map_or(SimTime::MAX, |l| l.0)
    }

    fn transition(&mut self, _now: SimTime, _rng: &mut SmallRng) {
        self.at = (self.at + 1).min(self.legs.len() - 1);
    }

    fn current_leg(&self) -> LegSample {
        self.legs[self.at].1
    }
}

fn script(legs: Vec<(SimTime, LegSample)>) -> Box<dyn Mobility> {
    Box::new(Script { legs, at: 0 })
}

fn parked(x: f64, y: f64) -> Box<dyn Mobility> {
    Box::new(Stationary::new(Vec2::new(x, y)))
}

/// Four parked nodes 60 m apart on the x axis, and `mover` as node 4,
/// at range 75 m through `identical_paths`, optionally churny. Node 4
/// must hear the row.
fn row_and(secs: u64, churn: Option<(f64, f64)>, mover: fn() -> Box<dyn Mobility>) -> Outcome {
    let out = identical_paths(|sp| {
        let mut nodes: Vec<_> = (0..4).map(|i| parked(60.0 * i as f64, 0.0)).collect();
        nodes.push(mover());
        let mut phy = PhyParams::paper_default(75.0).with_spatial_index(sp);
        if let Some((up, down)) = churn {
            phy = phy.with_churn(ChurnParams::new(up, down));
        }
        run_chatter(phy, 31, nodes, 300, secs)
    });
    assert!(
        out.per_node[4].0.iter().any(|e| e.1.raw() < 4),
        "node 4 never heard the row"
    );
    out
}

/// Neighbour lists: a node whose second leg is faster than every leg
/// loaded before it. The row is parked and node 4 walks at 0.5 m/s far
/// to its east, so lists live ~9 s; at 5 s it sprints west along the
/// row at 40 m/s, into the reach of lists built under the slow bound.
#[test]
fn faster_second_leg_identical_paths() {
    row_and(15, None, || {
        let turn = SimTime::from_secs(5);
        let slow = LegSample::moving(
            Vec2::new(400.0, 30.0),
            Vec2::new(410.0, 30.0),
            SimTime::ZERO,
            SimTime::from_secs(20),
        );
        let (here, west) = (slow.position_at(turn), Vec2::new(-200.0, 30.0));
        let sprint = SimDuration::from_secs_f64(here.distance_to(west) / 40.0);
        let fast = LegSample::moving(here, west, turn, turn + sprint);
        script(vec![(SimTime::ZERO, slow), (turn, fast)])
    });
}

/// Neighbour lists: a custom model whose leg restarts elsewhere.
/// Everyone is parked, so `v̄ = 0` and lists never expire; at 3 s node
/// 4 reappears in the middle of the row, off every list built before.
#[test]
fn discontinuous_leg_identical_paths() {
    row_and(8, None, || {
        let away = LegSample::fixed(Vec2::new(900.0, 900.0));
        let back = LegSample::fixed(Vec2::new(90.0, 20.0));
        script(vec![(SimTime::ZERO, away), (SimTime::from_secs(3), back)])
    });
}

/// Neighbour lists: a `LegSample::jump` leg, the shape of `ag-maodv`'s
/// `TeleportAt`, loaded while lists are live. Everyone is parked for
/// 2 s, so `v̄ = 0` and the lists built then never expire; at 2 s node
/// 4 loads a jump from one end of the row to the other at 4 s. The load
/// continues where node 4 stood, so only the jump's speed (its distance
/// per nanosecond) ends the lists that would miss it after the jump.
#[test]
fn jump_legs_identical_paths() {
    row_and(8, None, || {
        let (load, at) = (SimTime::from_secs(2), SimTime::from_secs(4));
        let (west, east) = (Vec2::new(-40.0, 10.0), Vec2::new(220.0, 10.0));
        let hop = LegSample::jump(west, east, at);
        script(vec![(SimTime::ZERO, LegSample::fixed(west)), (load, hop)])
    });
}

/// Neighbour lists: radios recover while their neighbours' lists are
/// inside their deadlines. Node 4 walks along the row at 3 m/s, so a
/// list lives ~1.6 s and is rebuilt while some radios are down; one
/// that recovers before the list expires was detached from the grid
/// when the list was built.
#[test]
fn recovery_inside_list_life_identical_paths() {
    let out = row_and(20, Some((3.0, 1.0)), || {
        let (from, to) = (Vec2::new(90.0, 20.0), Vec2::new(150.0, 20.0));
        script(vec![(
            SimTime::ZERO,
            LegSample::moving(from, to, SimTime::ZERO, SimTime::from_secs(20)),
        )])
    });
    assert!(counter(&out, "churn.recover") > 0, "{:?}", out.counters);
}

/// Neighbour lists: an all-`Stationary` field, where `v̄ = 0` and a
/// list, once built, serves every later `TxEnd` of its sender.
#[test]
fn all_stationary_identical_paths() {
    let out = identical_paths(|sp| {
        let field = Field::new(300.0, 300.0);
        let nodes = (0..12)
            .map(|i| {
                let mut rng = SeedSplitter::new(25).stream(StreamKind::Placement, i);
                Box::new(Stationary::random(field, &mut rng)) as Box<dyn Mobility>
            })
            .collect();
        run_chatter(
            PhyParams::paper_default(90.0).with_spatial_index(sp),
            25,
            nodes,
            300,
            10,
        )
    });
    assert!(counter(&out, "mac.rx_delivered") > 0, "{:?}", out.counters);
}

/// Neighbour lists: a cluster denser than its slot. Slots are sized
/// from the starting placement's mean density; 20 nodes within a metre
/// of one point among 40 movers over a kilometre square outgrow theirs,
/// so the cluster's neighbourhoods are fetched afresh at every `TxEnd`.
#[test]
fn cluster_denser_than_slot_identical_paths() {
    let k = boundary(26, 40, 1000.0, 50.0);
    let out = identical_paths(|sp| {
        let field = Field::new(k.field_m, k.field_m);
        let mut nodes: Vec<_> = (0..k.nodes)
            .map(|i| mobility_for(k.seed, i, field, k.max_speed))
            .collect();
        nodes.extend((0..20).map(|i| parked(500.0 + 0.05 * i as f64, 500.0)));
        run_chatter(
            PhyParams::paper_default(k.range_m).with_spatial_index(sp),
            k.seed,
            nodes,
            300,
            6,
        )
    });
    assert!(counter(&out, "mac.rx_delivered") > 0, "{:?}", out.counters);
}

/// The near-field overlap cut at its boundary: stationary nodes on a
/// line at exact multiples of the range. Node 0 and node 2 are exactly
/// `2·range` apart — hidden from each other, both exactly in range of
/// node 1 between them — so their overlapping frames must keep
/// colliding at node 1, and the cut (a `<=` on `2·range`) must keep
/// node 2's. Node 3, one metre farther, is dropped by the cut and is
/// indeed out of node 1's range. The brute-force engine applies no cut.
#[test]
fn overlap_cut_boundary_identical_paths() {
    const RANGE: f64 = 75.0;
    let out: Vec<Outcome> = [true, false]
        .iter()
        .map(|&sp| {
            let line = [0.0, RANGE, 2.0 * RANGE, 2.0 * RANGE + 1.0]
                .iter()
                .map(|&x| Box::new(Stationary::new(Vec2::new(x, 0.0))) as Box<dyn Mobility>)
                .collect();
            let phy = PhyParams::paper_default(RANGE).with_spatial_index(sp);
            run_chatter(phy, 11, line, 1400, 10)
        })
        .collect();
    assert!(
        out[0]
            .counters
            .iter()
            .any(|&(k, v)| k == "mac.rx_collision" && v > 0),
        "scenario failed to produce collisions: {:?}",
        out[0].counters
    );
    // Every counter, `mac.rx_collision` and `mac.rx_delivered` included.
    assert_eq!(out[0].counters, out[1].counters);
    for (g, b) in out[0].per_node.iter().zip(&out[1].per_node) {
        assert_eq!(g.0, b.0);
        assert_eq!(g.1, b.1);
    }
}
