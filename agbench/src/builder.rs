//! A replica of the harness's private engine builder.
//!
//! `ag_harness::run_counting` builds, runs and reduces an engine in one
//! call, which leaves no seam to time `Engine::new` apart from
//! `run_until`, nor to substitute a tracing wrapper for the protocol.
//! This module rebuilds the same engine from the public pieces; the
//! `equivalence` integration test pins it to the harness (same result
//! digest, same kernel event count).

use std::hash::Hasher;

use ag_core::AnonymousGossip;
use ag_harness::{MemberStats, ProtocolKind, RunResult, Scenario, GROUP};
use ag_maodv::{MaodvProtocol, TrafficSource};
use ag_mobility::{Mobility, PauseRange, RandomWaypoint, SpeedRange};
use ag_net::{Engine, NodeId, NodeSetup, PhyParams, Protocol};
use ag_odmrp::{OdmrpConfig, OdmrpProtocol};
use ag_sim::hash::FastHasher;
use ag_sim::rng::{SeedSplitter, StreamKind};

use crate::clock::now;

/// A protocol stack the benchmark can build for a scenario node and
/// reduce to the harness's per-member record.
pub trait Stack: Protocol {
    /// The harness's name for this stack.
    const KIND: ProtocolKind;

    /// The protocol instance of node `id`.
    fn make(sc: &Scenario, id: NodeId, member: bool, traffic: Option<TrafficSource>) -> Self;

    /// This node's outcome, as `ag_harness` would record it.
    fn member_stats(&self, node: NodeId) -> MemberStats;
}

impl Stack for AnonymousGossip {
    const KIND: ProtocolKind = ProtocolKind::Gossip;

    fn make(sc: &Scenario, id: NodeId, member: bool, traffic: Option<TrafficSource>) -> Self {
        AnonymousGossip::new(sc.ag, sc.maodv, id, GROUP, member, traffic)
    }

    fn member_stats(&self, node: NodeId) -> MemberStats {
        MemberStats {
            node,
            received: self.delivery().distinct(),
            via_tree: self.delivery().via_tree(),
            via_gossip: self.delivery().via_gossip(),
            goodput_percent: self.metrics().goodput_percent(),
            gossip_rounds: self.metrics().rounds_total(),
        }
    }
}

/// The record of a stack without a gossip layer.
fn tree_only_stats(node: NodeId, received: u64, via_tree: u64) -> MemberStats {
    MemberStats {
        node,
        received,
        via_tree,
        via_gossip: 0,
        goodput_percent: None,
        gossip_rounds: 0,
    }
}

impl Stack for MaodvProtocol {
    const KIND: ProtocolKind = ProtocolKind::Maodv;

    fn make(sc: &Scenario, id: NodeId, member: bool, traffic: Option<TrafficSource>) -> Self {
        MaodvProtocol::new(sc.maodv, id, GROUP, member, traffic)
    }

    fn member_stats(&self, node: NodeId) -> MemberStats {
        tree_only_stats(node, self.delivery().distinct(), self.delivery().via_tree())
    }
}

impl Stack for OdmrpProtocol {
    const KIND: ProtocolKind = ProtocolKind::Odmrp;

    fn make(_sc: &Scenario, id: NodeId, member: bool, traffic: Option<TrafficSource>) -> Self {
        OdmrpProtocol::new(OdmrpConfig::default_paper(), id, GROUP, member, traffic)
    }

    fn member_stats(&self, node: NodeId) -> MemberStats {
        tree_only_stats(node, self.delivery().distinct(), self.delivery().via_tree())
    }
}

/// A built, not yet run, simulation.
pub struct Built<S: Stack> {
    /// The engine, every `Protocol::start` already dispatched.
    pub engine: Engine<S>,
    /// Group members; the first is the source.
    pub members: Vec<NodeId>,
    /// Host seconds spent inside `Engine::new` alone (every
    /// `Protocol::start` included; placement and mobility excluded).
    pub engine_new_s: f64,
}

/// The scenario's radio, as `Scenario::phy` (private) assembles it.
fn phy(sc: &Scenario) -> PhyParams {
    let mut phy = PhyParams::paper_default(sc.range_m)
        .with_spatial_index(sc.spatial_index)
        .with_reception(sc.reception);
    if let Some(churn) = sc.churn {
        phy = phy.with_churn(churn);
    }
    phy
}

/// Node `node`'s mobility model, as `Scenario::mobility_for` (private)
/// draws it.
fn mobility_for(sc: &Scenario, seed: u64, node: usize) -> Box<dyn Mobility> {
    let mut rng = SeedSplitter::new(seed).stream(StreamKind::Placement, node as u64);
    Box::new(RandomWaypoint::new(
        sc.field,
        SpeedRange::new(sc.min_speed, sc.max_speed.max(1e-3)),
        PauseRange::paper(),
        &mut rng,
    ))
}

/// Builds the engine `ag_harness` would build for `(sc, seed)` with
/// stack `S`, armed with an explicit tile-thread count instead of the
/// ambient `AG_THREADS`.
pub fn build<S: Stack>(sc: &Scenario, seed: u64, threads: usize) -> Built<S> {
    let members = sc.members_for_seed(seed);
    let source = members[0];
    let mut is_member = vec![false; sc.nodes];
    for m in &members {
        is_member[m.index()] = true;
    }
    let nodes = (0..sc.nodes)
        .map(|i| {
            let id = NodeId::new(i as u32);
            NodeSetup {
                mobility: mobility_for(sc, seed, i),
                protocol: S::make(sc, id, is_member[i], (id == source).then_some(sc.traffic)),
            }
        })
        .collect();
    let t0 = now();
    let mut engine = Engine::new(phy(sc), seed, nodes);
    let engine_new_s = t0.elapsed().as_secs_f64();
    engine.set_threads(threads);
    Built {
        engine,
        members,
        engine_new_s,
    }
}

impl<S: Stack> Built<S> {
    /// Runs the event loop to the scenario's horizon.
    pub fn run(&mut self, sc: &Scenario) {
        self.engine.run_until(sc.sim_time);
    }

    /// Reduces the finished run to the harness's [`RunResult`].
    pub fn reduce(&mut self, sc: &Scenario, seed: u64) -> RunResult {
        let members = self
            .members
            .iter()
            .map(|&m| self.engine.protocol(m).member_stats(m))
            .collect();
        RunResult {
            protocol: S::KIND,
            seed,
            source: self.members[0],
            sent: sc.packets_sent(),
            members,
            counters: self
                .engine
                .counters()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// Digest of what a run *delivered*: protocol, seed, source, packets
/// sent and every member's outcome. Kernel event counts and counter
/// names are left out on purpose — optimisation and telemetry changes
/// may alter those without altering the simulation's answer.
pub fn result_digest(r: &RunResult) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(match r.protocol {
        ProtocolKind::Maodv => 1,
        ProtocolKind::Gossip => 2,
        ProtocolKind::Odmrp => 3,
    });
    h.write_u64(r.seed);
    h.write_u64(u64::from(r.source.raw()));
    h.write_u64(r.sent);
    for m in &r.members {
        h.write_u64(u64::from(m.node.raw()));
        h.write_u64(m.received);
        h.write_u64(m.via_tree);
        h.write_u64(m.via_gossip);
        h.write_u64(m.gossip_rounds);
        // `None` and `Some(x)` must differ for every x, NaN payloads
        // included: tag first, bits second.
        h.write_u64(u64::from(m.goodput_percent.is_some()));
        h.write_u64(m.goodput_percent.map_or(0, f64::to_bits));
    }
    h.finish()
}

/// Folds per-job digests (in job order) into one workload digest.
pub fn combine_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FastHasher::default();
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            protocol: ProtocolKind::Gossip,
            seed: 9,
            source: NodeId::new(1),
            sent: 10,
            members: vec![MemberStats {
                node: NodeId::new(1),
                received: 10,
                via_tree: 8,
                via_gossip: 2,
                goodput_percent: Some(50.0),
                gossip_rounds: 3,
            }],
            counters: vec![("mac.unicast_tx".to_string(), 5)],
        }
    }

    #[test]
    fn digest_sees_member_outcomes_but_not_counters() {
        let base = sample();
        let mut counters_changed = sample();
        counters_changed.counters[0].1 = 6;
        counters_changed
            .counters
            .push(("new.counter".to_string(), 1));
        assert_eq!(result_digest(&base), result_digest(&counters_changed));

        let mut fewer = sample();
        fewer.members[0].received = 9;
        assert_ne!(result_digest(&base), result_digest(&fewer));
        let mut no_goodput = sample();
        no_goodput.members[0].goodput_percent = None;
        assert_ne!(result_digest(&base), result_digest(&no_goodput));
        let mut zero_goodput = sample();
        zero_goodput.members[0].goodput_percent = Some(0.0);
        assert_ne!(result_digest(&no_goodput), result_digest(&zero_goodput));
        let mut other_stack = sample();
        other_stack.protocol = ProtocolKind::Maodv;
        assert_ne!(result_digest(&base), result_digest(&other_stack));
    }

    #[test]
    fn combined_digest_depends_on_order() {
        assert_ne!(combine_digests([1, 2]), combine_digests([2, 1]));
        assert_eq!(combine_digests([1, 2]), combine_digests([1, 2]));
    }
}
