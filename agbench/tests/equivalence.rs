//! The benchmark's own machinery must not change what it measures:
//! the replica builder builds the engine `ag_harness` builds, and the
//! tracing wrappers forward everything untouched.

use ag_core::AnonymousGossip;
use ag_harness::{run_counting, ProtocolKind, ReceptionModel, RunResult, Scenario};
use ag_maodv::MaodvProtocol;
use ag_odmrp::OdmrpProtocol;
use agbench::builder::{build, result_digest, Stack};
use agbench::trace::{record_job, span, Classify, JobTrace, Kind, Layer, Span, Timed};

/// Small (≤ 50 nodes) scenarios covering the ideal channel, both lossy
/// models and churn.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        (
            "ideal",
            Scenario::paper(20, 75.0, 2.0).with_duration_secs(60),
        ),
        (
            "graded",
            Scenario::lossy(25, 75.0, 1.0, 0.5).with_duration_secs(50),
        ),
        (
            "shadowing+churn",
            Scenario::paper(30, 75.0, 2.0)
                .with_duration_secs(60)
                .with_reception(ReceptionModel::Shadowing {
                    sigma_db: 8.0,
                    path_loss_exp: 3.0,
                })
                .with_churn(20.0, 5.0),
        ),
    ]
}

/// What the replica produced, in the shape `run_counting` returns.
struct Replica {
    result: RunResult,
    events: u64,
    scheduled: u64,
}

fn replica<S: Stack>(sc: &Scenario, seed: u64, threads: usize) -> Replica {
    let mut built = build::<S>(sc, seed, threads);
    built.run(sc);
    Replica {
        result: built.reduce(sc, seed),
        events: built.engine.events_processed(),
        scheduled: built.engine.events_scheduled(),
    }
}

fn assert_same(label: &str, ours: &Replica, theirs: &(RunResult, u64)) {
    assert_eq!(
        result_digest(&ours.result),
        result_digest(&theirs.0),
        "{label}: result digest"
    );
    assert_eq!(ours.events, theirs.1, "{label}: events processed");
    assert_eq!(ours.result.members, theirs.0.members, "{label}: members");
    assert_eq!(ours.result.counters, theirs.0.counters, "{label}: counters");
    assert_eq!(ours.result.sent, theirs.0.sent, "{label}: sent");
}

#[test]
fn replica_builder_matches_the_harness() {
    for (name, sc) in scenarios() {
        for seed in [3, 11] {
            let label = |kind: &str| format!("{name} / {kind} / seed {seed}");
            assert_same(
                &label("gossip"),
                &replica::<AnonymousGossip>(&sc, seed, 1),
                &run_counting(&sc, seed, ProtocolKind::Gossip),
            );
            assert_same(
                &label("maodv"),
                &replica::<MaodvProtocol>(&sc, seed, 1),
                &run_counting(&sc, seed, ProtocolKind::Maodv),
            );
            assert_same(
                &label("odmrp"),
                &replica::<OdmrpProtocol>(&sc, seed, 1),
                &run_counting(&sc, seed, ProtocolKind::Odmrp),
            );
        }
    }
}

/// A churny scenario really churns and a lossy one really drops, so the
/// equivalence above exercised those paths.
#[test]
fn scenarios_exercise_the_paths_they_name() {
    for (name, sc) in scenarios() {
        let r = replica::<AnonymousGossip>(&sc, 3, 1).result;
        let hit = |counter: &str| r.counter(counter) > 0;
        match name {
            "ideal" => assert!(!hit("mac.rx_channel_drop") && !hit("churn.fail")),
            "graded" => assert!(hit("mac.rx_channel_drop") && !hit("churn.fail")),
            _ => assert!(hit("mac.rx_channel_drop") && hit("churn.fail")),
        }
    }
}

fn traced<S: Stack + Classify>(sc: &Scenario, seed: u64, stride: u64) -> (Replica, JobTrace) {
    record_job(0, stride, || {
        let mut built = span(Span::Setup, || build::<Timed<S>>(sc, seed, 1));
        span(Span::Run, || built.run(sc));
        Replica {
            result: span(Span::Fold, || built.reduce(sc, seed)),
            events: built.engine.events_processed(),
            scheduled: built.engine.events_scheduled(),
        }
    })
}

fn assert_inert<S: Stack + Classify>(sc: &Scenario, seed: u64) {
    let plain = replica::<S>(sc, seed, 1);
    for stride in [1, 3] {
        let (wrapped, trace) = traced::<S>(sc, seed, stride);
        let label = format!("{:?} stride {stride}", S::KIND);
        assert_eq!(
            result_digest(&wrapped.result),
            result_digest(&plain.result),
            "{label}: digest"
        );
        assert_eq!(wrapped.result.counters, plain.result.counters, "{label}");
        assert_eq!(wrapped.events, plain.events, "{label}: events processed");
        assert_eq!(wrapped.scheduled, plain.scheduled, "{label}: scheduled");

        // Call counts are exact whatever the stride; every node started
        // once; nothing fell into the classifier's `other` bucket.
        let handler = |k: Kind| trace.agg(Span::Handler(k));
        assert_eq!(handler(S::START).calls, sc.nodes as u64, "{label}");
        assert_eq!(handler(Kind::Other).calls, 0, "{label}: unclassified entry");
        let dispatched: u64 = Kind::ALL
            .iter()
            .filter(|k| !k.is_start())
            .map(|&k| handler(k).calls)
            .sum();
        // (One `TxEnd` event upcalls every receiver of a broadcast, so
        // dispatches outnumber kernel events.)
        assert!(dispatched > 0, "{label}");
        let timed: u64 = Kind::ALL
            .iter()
            .filter(|k| !k.is_start())
            .map(|&k| handler(k).timed)
            .sum();
        assert!(
            timed >= dispatched / stride && timed <= dispatched / stride + Kind::ALL.len() as u64
        );
        // The layers' shares and the engine's add up to the run they
        // are taken against (here the traced run itself).
        let run = trace.agg(Span::Run).total_s();
        let parts = trace.engine_self_s(run)
            + trace.ctx_s()
            + [Layer::Maodv, Layer::Core, Layer::Odmrp, Layer::Other]
                .iter()
                .map(|&l| trace.handler_self_s(l))
                .sum::<f64>();
        if stride == 1 {
            assert!(
                (parts - run).abs() <= 1e-6 * run.max(1.0),
                "{label}: parts {parts} vs run {run}"
            );
        }
        assert_eq!(trace.agg(Span::Job).calls, 1);
        assert_eq!(trace.agg(Span::Setup).calls, 1);
        assert_eq!(trace.agg(Span::Fold).calls, 1);
    }
}

#[test]
fn tracing_wrappers_are_inert() {
    let (_, sc) = scenarios().pop().expect("non-empty");
    assert_inert::<AnonymousGossip>(&sc, 5);
    assert_inert::<MaodvProtocol>(&sc, 5);
    assert_inert::<OdmrpProtocol>(&sc, 5);
}

/// `set_threads` is a wall-clock knob only: the tiled engine the
/// `city_20k_nt` workload runs must reproduce the serial one. (Forced
/// to engage here by a many-node, short run; the workload itself
/// re-checks this on every invocation.)
#[test]
fn thread_count_does_not_change_results() {
    let sc = Scenario::city_scale(1_500).with_duration_secs(2);
    let serial = replica::<AnonymousGossip>(&sc, 9, 1);
    let tiled = replica::<AnonymousGossip>(&sc, 9, 3);
    assert_eq!(result_digest(&serial.result), result_digest(&tiled.result));
    assert_eq!(serial.events, tiled.events);
    assert_eq!(serial.result.counters, tiled.result.counters);
}

/// The city workloads cut `run_until` into slices so each can be
/// bracketed by the yardstick; slicing must change nothing.
#[test]
fn sliced_run_until_changes_nothing() {
    let sc = Scenario::city_scale(600).with_duration_secs(3);
    let whole = replica::<AnonymousGossip>(&sc, 4, 1);
    let mut built = build::<AnonymousGossip>(&sc, 4, 1);
    let horizon = sc.sim_time.as_nanos();
    for i in 1..=20 {
        built
            .engine
            .run_until(ag_sim::SimTime::from_nanos(horizon / 20 * i));
    }
    built.run(&sc);
    let sliced = built.reduce(&sc, 4);
    assert_eq!(result_digest(&sliced), result_digest(&whole.result));
    assert_eq!(sliced.counters, whole.result.counters);
    assert_eq!(built.engine.events_processed(), whole.events);
    assert_eq!(built.engine.events_scheduled(), whole.scheduled);
}
