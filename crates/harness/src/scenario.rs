//! The §5.1 simulation environment, parameterized by the paper's three
//! sweep knobs (transmission range, maximum speed, node count).

use ag_core::{AgConfig, AnonymousGossip};
use ag_maodv::delivery::DeliveryLog;
use ag_maodv::{GroupId, MaodvConfig, MaodvProtocol, TrafficSource};
use ag_mobility::{Field, Mobility, PauseRange, RandomWaypoint, SpeedRange};
use ag_net::{ChurnParams, Engine, NodeId, NodeSetup, PhyParams, Protocol, ReceptionModel};
use ag_sim::rng::{SeedSplitter, StreamKind};
use ag_sim::{ConfigError, SimTime};
use rand::Rng;

use crate::result::{MemberStats, RunResult};

/// Which protocol stack a run uses (the paper's two series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Bare MAODV (baseline).
    Maodv,
    /// MAODV + Anonymous Gossip.
    Gossip,
    /// Bare ODMRP (the mesh-based related-work comparison, §2).
    Odmrp,
}

/// A complete experiment configuration.
///
/// [`Scenario::paper`] gives the §5.1 defaults; the figure specs mutate
/// one knob at a time.
///
/// # Example
///
/// ```
/// use ag_harness::{run, ProtocolKind, Scenario};
/// let sc = Scenario::paper(10, 75.0, 0.2).with_duration_secs(40);
/// let result = run(&sc, 1, ProtocolKind::Gossip);
/// assert_eq!(result.members.len(), 3); // a third of 10, rounded down, min 2
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Total node count (paper default 40).
    pub nodes: usize,
    /// Group size (paper: one third of the nodes).
    pub member_count: usize,
    /// Transmission range in metres.
    pub range_m: f64,
    /// Minimum node speed, m/s (paper: 0).
    pub min_speed: f64,
    /// Maximum node speed, m/s.
    pub max_speed: f64,
    /// Field dimensions (paper: 200 m × 200 m).
    pub field: Field,
    /// Total simulated time (paper: 600 s).
    pub sim_time: SimTime,
    /// The CBR source description.
    pub traffic: TrafficSource,
    /// Gossip parameters.
    pub ag: AgConfig,
    /// MAODV parameters.
    pub maodv: MaodvConfig,
    /// Use the engine's grid spatial index (`true`, default) or the
    /// brute-force receiver/collision scans (`false`; differential
    /// testing and scaling baselines only — results are identical).
    pub spatial_index: bool,
    /// Channel reception model ([`ReceptionModel::Ideal`] — the
    /// paper's channel — by default; see [`Scenario::with_reception`]).
    pub reception: ReceptionModel,
    /// Per-node radio fail/recover churn (`None` — the paper's always-
    /// on nodes — by default; see [`Scenario::with_churn`]).
    pub churn: Option<ChurnParams>,
}

impl Scenario {
    /// The paper's environment with the given node count, transmission
    /// range and maximum speed. Members are a third of the nodes
    /// (minimum 2); the first member is the source; traffic is 64-byte
    /// packets every 200 ms from 120 s to 560 s (2201 packets).
    pub fn paper(nodes: usize, range_m: f64, max_speed: f64) -> Self {
        Scenario {
            nodes,
            member_count: (nodes / 3).max(2),
            range_m,
            min_speed: 0.0,
            max_speed,
            field: Field::paper(),
            sim_time: SimTime::from_secs(600),
            traffic: TrafficSource::paper(),
            ag: AgConfig::paper_default(),
            maodv: MaodvConfig::paper_default(),
            spatial_index: true,
            reception: ReceptionModel::Ideal,
            churn: None,
        }
    }

    /// The paper's environment on a *lossy* channel: a distance-graded
    /// packet-error rate reaching `edge_per` at the edge of the
    /// transmission range. This is the cheapest way to make the network
    /// hostile — the regime where anonymous gossip's recovery is
    /// supposed to earn its keep.
    pub fn lossy(nodes: usize, range_m: f64, max_speed: f64, edge_per: f64) -> Self {
        Scenario::paper(nodes, range_m, max_speed)
            .with_reception(ReceptionModel::DistanceGraded { edge_per })
    }

    /// A "city-scale" environment far beyond the paper's 40 nodes:
    /// 100 m radio range, up to 5 m/s vehicular-ish speeds, a
    /// 4 %-of-nodes multicast group (minimum 2), and a square field
    /// sized to hold 500 nodes per km². Up to 500 nodes that is the
    /// original 1 km × 1 km square (so historical outputs are
    /// unchanged); beyond it the field grows with the population, so a
    /// metropolis run is *more city* — constant local density,
    /// neighbour counts and contention — rather than an ever-denser
    /// square kilometre. Only tractable with the grid spatial index;
    /// see `examples/city_scale.rs` and `agbench`'s `city_20k` workload.
    pub fn city_scale(nodes: usize) -> Self {
        let mut sc = Scenario::paper(nodes, 100.0, 5.0);
        let side = 1000.0 * (nodes as f64 / 500.0).sqrt().max(1.0);
        sc.field = Field::new(side, side);
        // Group size tracks the city up to a point: a multicast group
        // is a social artifact, not a fraction of the metropolis, and
        // an unbounded group makes every GRPH flood touch O(nodes)
        // members. 64 keeps the paper's 500-node case unchanged (20)
        // while holding million-node runs to a constant per-flood cost.
        sc.member_count = (nodes / 25).clamp(2, 64);
        sc
    }

    /// Returns a copy selecting the grid-indexed (`true`) or
    /// brute-force (`false`) engine lookup path.
    pub fn with_spatial_index(mut self, enabled: bool) -> Self {
        self.spatial_index = enabled;
        self
    }

    /// Returns a copy on a different reception model (the default,
    /// [`ReceptionModel::Ideal`], reproduces the paper's channel).
    pub fn with_reception(mut self, model: ReceptionModel) -> Self {
        self.reception = model;
        self
    }

    /// Returns a copy with per-node radio churn: exponential up/down
    /// periods with the given means in seconds.
    pub fn with_churn(mut self, mean_up_secs: f64, mean_down_secs: f64) -> Self {
        self.churn = Some(ChurnParams::new(mean_up_secs, mean_down_secs));
        self
    }

    /// Rescales the run to `secs` seconds, keeping the paper's
    /// proportions: warm-up is the first 20 % and the source stops at
    /// 93.3 % of the run, with the packet interval unchanged. Use for
    /// tests and benches.
    pub fn with_duration_secs(mut self, secs: u64) -> Self {
        self.sim_time = SimTime::from_secs(secs);
        self.traffic = TrafficSource {
            start: SimTime::from_secs(secs / 5),
            end: SimTime::from_secs(secs * 14 / 15),
            interval: self.traffic.interval,
            payload_len: self.traffic.payload_len,
        };
        self
    }

    /// Checks 2 to `u32::MAX` nodes, 1 to `nodes` members, finite speeds
    /// with `0 <= min_speed <= max_speed` and a run above zero (a
    /// [`Field`] is valid by construction), then the radio's, source's,
    /// gossip's and MAODV's own `validate`. [`run_counting`] expects it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (nodes, members) = (self.nodes, self.member_count);
        let ok = (2..=u32::MAX as usize).contains(&nodes);
        ConfigError::check(ok, "Scenario.nodes", nodes, "in [2, u32::MAX]")?;
        let ok = (1..=nodes).contains(&members);
        ConfigError::check(ok, "Scenario.member_count", members, "in [1, nodes]")?;
        let (min, max) = (self.min_speed, self.max_speed);
        let ok = min >= 0.0 && min.is_finite();
        ConfigError::check(ok, "Scenario.min_speed", min, ">= 0 and finite")?;
        let ok = max >= min && max.is_finite();
        ConfigError::check(ok, "Scenario.max_speed", max, ">= min_speed and finite")?;
        let run = self.sim_time.duration_since(SimTime::ZERO);
        ConfigError::nonzero("Scenario.sim_time", run)?;
        self.phy().validate()?;
        self.traffic.validate()?;
        self.ag.validate()?;
        self.maodv.validate()
    }

    /// Number of data packets the source will emit.
    pub fn packets_sent(&self) -> u64 {
        self.traffic.packet_count()
    }

    /// The member node ids for a given seed (uniform distinct choice;
    /// the first is the source).
    pub fn members_for_seed(&self, seed: u64) -> Vec<NodeId> {
        let mut rng = SeedSplitter::new(seed).stream(StreamKind::Scenario, 0);
        let mut picked: Vec<usize> = Vec::with_capacity(self.member_count);
        // Dense membership flags instead of a `picked.contains` scan:
        // same accept/reject sequence (the predicate is identical), so
        // the RNG draws — and thus every committed result — are
        // unchanged, but a metropolis-scale group no longer costs
        // O(members²).
        let mut is_picked = vec![false; self.nodes];
        while picked.len() < self.member_count.min(self.nodes) {
            let c = rng.random_range(0..self.nodes);
            if !is_picked[c] {
                is_picked[c] = true;
                picked.push(c);
            }
        }
        picked.into_iter().map(|i| NodeId::new(i as u32)).collect()
    }

    fn mobility_for(&self, seed: u64, node: usize) -> Box<dyn Mobility> {
        let mut rng = SeedSplitter::new(seed).stream(StreamKind::Placement, node as u64);
        Box::new(RandomWaypoint::new(
            self.field,
            SpeedRange::new(self.min_speed, self.max_speed.max(1e-3)),
            PauseRange::paper(),
            &mut rng,
        ))
    }

    fn phy(&self) -> PhyParams {
        let mut phy = PhyParams::paper_default(self.range_m)
            .with_spatial_index(self.spatial_index)
            .with_reception(self.reception);
        if let Some(churn) = self.churn {
            phy = phy.with_churn(churn);
        }
        phy
    }
}

/// The group id used throughout (single-group scenarios, as in §5.1).
pub const GROUP: GroupId = GroupId(0);

/// The run body behind [`run_counting`]: builds an engine
/// whose nodes run the stack `make` constructs, runs it to
/// `sc.sim_time`, and projects each member's protocol state through
/// `stats`. Also returns the kernel events the engine dispatched.
fn run_stack<P, F, S>(
    sc: &Scenario,
    seed: u64,
    protocol: ProtocolKind,
    mut make: F,
    stats: S,
) -> (RunResult, u64)
where
    P: Protocol,
    F: FnMut(NodeId, bool, Option<TrafficSource>) -> P,
    S: Fn(NodeId, &P) -> MemberStats,
{
    let members = sc.members_for_seed(seed);
    let source = members[0];
    // Dense membership flags: `members.contains` per node is an
    // O(n × members) setup cost that dominates start-up at city scale.
    let mut member_flags = vec![false; sc.nodes];
    for m in &members {
        member_flags[m.index()] = true;
    }
    let nodes = (0..sc.nodes)
        .map(|i| {
            let id = NodeId::new(i as u32);
            let traffic = (id == source).then_some(sc.traffic);
            NodeSetup {
                mobility: sc.mobility_for(seed, i),
                protocol: make(id, member_flags[i], traffic),
            }
        })
        .collect();
    let mut engine = Engine::new(sc.phy(), seed, nodes);
    engine.run_until(sc.sim_time);
    let events = engine.events_processed();
    let result = RunResult {
        protocol,
        seed,
        source,
        sent: sc.packets_sent(),
        members: members
            .iter()
            .map(|&m| stats(m, engine.protocol(m)))
            .collect(),
        counters: engine
            .counters()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    };
    (result, events)
}

/// [`MemberStats`] of a stack with no gossip layer.
fn tree_only_stats(node: NodeId, delivery: &DeliveryLog) -> MemberStats {
    MemberStats {
        node,
        received: delivery.distinct(),
        via_tree: delivery.via_tree(),
        via_gossip: 0,
        goodput_percent: None,
        gossip_rounds: 0,
    }
}

/// Runs the requested protocol stack once. Deterministic in
/// `(scenario, seed)`. Panics as [`run_counting`] does.
pub fn run(sc: &Scenario, seed: u64, kind: ProtocolKind) -> RunResult {
    run_counting(sc, seed, kind).0
}

/// [`run`], also reporting the kernel events the engine dispatched (the
/// events/second numerator `examples/city_scale.rs` prints) — `agbench`
/// runs every `paper_sweep` and `stress_harsh` job through this and
/// reads `sim.events_processed` off the count. The [`RunResult`] is
/// identical to [`run`]'s. Panics, before it builds anything, if `sc`
/// fails [`Scenario::validate`].
pub fn run_counting(sc: &Scenario, seed: u64, kind: ProtocolKind) -> (RunResult, u64) {
    sc.validate().expect("run_counting");
    match kind {
        ProtocolKind::Gossip => run_stack(
            sc,
            seed,
            kind,
            |id, member, traffic| AnonymousGossip::new(sc.ag, sc.maodv, id, GROUP, member, traffic),
            |node, p| MemberStats {
                node,
                received: p.delivery().distinct(),
                via_tree: p.delivery().via_tree(),
                via_gossip: p.delivery().via_gossip(),
                goodput_percent: p.metrics().goodput_percent(),
                gossip_rounds: p.metrics().rounds_total(),
            },
        ),
        ProtocolKind::Maodv => run_stack(
            sc,
            seed,
            kind,
            |id, member, traffic| MaodvProtocol::new(sc.maodv, id, GROUP, member, traffic),
            |node, p| tree_only_stats(node, p.delivery()),
        ),
        // The mesh-based related-work comparison point of the paper's §2.
        ProtocolKind::Odmrp => {
            let cfg = ag_odmrp::OdmrpConfig::default_paper();
            run_stack(
                sc,
                seed,
                kind,
                |id, member, traffic| ag_odmrp::OdmrpProtocol::new(cfg, id, GROUP, member, traffic),
                |node, p| tree_only_stats(node, p.delivery()),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::SimDuration;

    #[test]
    fn paper_scenario_defaults() {
        let sc = Scenario::paper(40, 75.0, 0.2);
        assert_eq!(sc.member_count, 13);
        assert_eq!(sc.packets_sent(), 2201);
        assert_eq!(sc.sim_time, SimTime::from_secs(600));
    }

    #[test]
    fn scaled_scenario_shrinks_traffic() {
        let sc = Scenario::paper(40, 75.0, 0.2).with_duration_secs(60);
        assert_eq!(sc.sim_time, SimTime::from_secs(60));
        assert_eq!(sc.traffic.start, SimTime::from_secs(12));
        assert_eq!(sc.traffic.end, SimTime::from_secs(56));
        assert!(sc.packets_sent() < 2201);
        assert_eq!(sc.traffic.interval, SimDuration::from_millis(200));
    }

    #[test]
    fn member_selection_is_deterministic_and_distinct() {
        let sc = Scenario::paper(40, 75.0, 0.2);
        let a = sc.members_for_seed(7);
        let b = sc.members_for_seed(7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 13);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 13);
        // Different seeds give different groups (overwhelmingly likely).
        assert_ne!(sc.members_for_seed(7), sc.members_for_seed(8));
    }

    #[test]
    fn small_scenario_runs_both_protocols() {
        let sc = Scenario::paper(10, 90.0, 0.2).with_duration_secs(50);
        let g = run(&sc, 1, ProtocolKind::Gossip);
        let m = run(&sc, 1, ProtocolKind::Maodv);
        assert_eq!(g.protocol, ProtocolKind::Gossip);
        assert_eq!(m.protocol, ProtocolKind::Maodv);
        assert_eq!(g.members.len(), m.members.len());
        assert_eq!(g.source, m.source);
        // The source itself always holds everything it sent.
        let src_stats = g.members.iter().find(|s| s.node == g.source).unwrap();
        assert_eq!(src_stats.received, g.sent);
    }

    #[test]
    fn paper_scenario_defaults_to_ideal_channel() {
        let sc = Scenario::paper(10, 75.0, 0.2);
        assert!(sc.reception.is_ideal());
        assert!(sc.churn.is_none());
    }

    #[test]
    fn lossy_channel_reduces_delivery() {
        // Identical scenario and seed; a harsh edge PER must not help.
        let ideal = Scenario::paper(10, 75.0, 0.5).with_duration_secs(60);
        let lossy = Scenario::lossy(10, 75.0, 0.5, 0.9).with_duration_secs(60);
        let a = run(&ideal, 2, ProtocolKind::Gossip);
        let b = run(&lossy, 2, ProtocolKind::Gossip);
        assert!(
            b.received_summary().mean() <= a.received_summary().mean(),
            "lossy {} must not beat ideal {}",
            b.received_summary().mean(),
            a.received_summary().mean()
        );
        assert!(b.counter("mac.rx_channel_drop") > 0);
        assert_eq!(a.counter("mac.rx_channel_drop"), 0);
    }

    #[test]
    fn churny_scenario_runs_all_three_protocols_deterministically() {
        let sc = Scenario::paper(9, 90.0, 1.0)
            .with_duration_secs(50)
            .with_churn(20.0, 5.0);
        for kind in [
            ProtocolKind::Gossip,
            ProtocolKind::Maodv,
            ProtocolKind::Odmrp,
        ] {
            let a = run(&sc, 4, kind);
            let b = run(&sc, 4, kind);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{kind:?} diverged");
            assert!(a.counter("churn.fail") > 0, "{kind:?} never churned");
        }
    }

    #[test]
    fn identical_seeds_identical_results() {
        let sc = Scenario::paper(8, 90.0, 1.0).with_duration_secs(40);
        let a = run(&sc, 3, ProtocolKind::Gossip);
        let b = run(&sc, 3, ProtocolKind::Gossip);
        let fa: Vec<_> = a
            .members
            .iter()
            .map(|m| (m.node, m.received, m.via_gossip))
            .collect();
        let fb: Vec<_> = b
            .members
            .iter()
            .map(|m| (m.node, m.received, m.via_gossip))
            .collect();
        assert_eq!(fa, fb);
    }
}
