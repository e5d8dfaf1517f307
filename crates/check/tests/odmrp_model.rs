//! Exhaustive check of the ODMRP core on the S — R — M chain.
//!
//! Configuration: node 0 is the source (and a member), node 1 a
//! non-member relay, node 2 a member; 2 data packets; the adversary
//! may drop one frame. Checked to fixpoint:
//!
//! * **FG-expiry** (`leads_to`): whenever the relay is in the
//!   forwarding group, it eventually leaves it — ODMRP's soft state
//!   always decays once queries stop.
//! * **Delivery** (`leads_to`): every originated packet is eventually
//!   delivered at the far member, unless the adversary spent a drop.
//! * Non-vacuity: the relay really does enter the forwarding group on
//!   some path, and full delivery really happens on some path.

use ag_check::{
    always, exists, explore, leads_to, render_counterexample, Limits, NetModel, NetState,
};
use ag_maodv::{GroupId, TrafficSource};
use ag_net::NodeId;
use ag_odmrp::{OdmrpConfig, OdmrpProtocol};
use ag_sim::{SimDuration, SimTime};

const N: usize = 3;

fn cfg() -> OdmrpConfig {
    OdmrpConfig {
        query_interval: SimDuration::from_secs(2),
        fg_lifetime: SimDuration::from_secs(6),
        flood_ttl: 3,
        route_lifetime: SimDuration::from_secs(6),
        seen_capacity: 64,
    }
}

/// The model's configuration passes the rules every run is held to.
#[test]
fn model_config_validates() {
    assert_eq!(cfg().validate(), Ok(()));
    let traffic = TrafficSource::compact(SimTime::from_secs(2), SimDuration::from_secs(2), 2, 64);
    assert_eq!(traffic.validate(), Ok(()));
}

fn chain_model(arm_canary: bool, drop_budget: u8) -> NetModel<OdmrpProtocol> {
    // Packets at t = 2 s and t = 4 s; queries at t = 0, 2, 4.
    let traffic = TrafficSource::compact(SimTime::from_secs(2), SimDuration::from_secs(2), 2, 64);
    let protocols: Vec<OdmrpProtocol> = (0..N as u32)
        .map(|i| {
            let mut p = OdmrpProtocol::new(
                cfg(),
                NodeId::new(i),
                GroupId(0),
                i != 1,
                (i == 0).then_some(traffic),
            );
            if arm_canary && i == 1 {
                p.canary_skip_fg_refresh();
            }
            p
        })
        .collect();
    // Horizon 5 s covers the last query round; end time 11 s sits past
    // the last possible fg_until (4 s + 6 s) so parked states observe
    // soft-state expiry.
    NetModel::new(
        protocols,
        &[(0, 1), (1, 2)],
        SimTime::from_secs(5),
        SimTime::from_secs(11),
    )
    .with_drop_budget(drop_budget)
}

/// The property-relevant projection of one world state.
#[derive(Debug, Clone)]
struct Obs {
    parked: bool,
    fg: [bool; N],
    originated: [bool; 2],
    delivered: [bool; 2],
    drops_used: u8,
}

fn observe(model: &NetModel<OdmrpProtocol>) -> impl Fn(&NetState<OdmrpProtocol>) -> Obs + '_ {
    move |st| Obs {
        parked: st.parked,
        fg: core::array::from_fn(|i| st.nodes[i].in_forwarding_group(st.now)),
        originated: core::array::from_fn(|q| {
            st.nodes[0]
                .delivery()
                .contains(NodeId::new(0), q as u32 + 1)
        }),
        delivered: core::array::from_fn(|q| {
            st.nodes[2]
                .delivery()
                .contains(NodeId::new(0), q as u32 + 1)
        }),
        drops_used: st.drops_used(model),
    }
}

#[test]
fn odmrp_chain_holds_fg_expiry_and_delivery() {
    let model = chain_model(false, 1);
    let ex = explore(
        &model,
        Limits {
            max_states: 400_000,
        },
        observe(&model),
    );
    assert!(ex.complete, "state space must be explored to fixpoint");
    println!(
        "odmrp healthy chain: {} states, {} terminal",
        ex.len(),
        ex.terminals().count()
    );
    // Pinned: state identity is `state_key`, the value's `Hash`, so a
    // cache leaking into it (or a field dropped from it) moves this count.
    assert_eq!((ex.len(), ex.terminals().count()), (2_689, 18));

    // Terminal worlds are exactly the parked ones.
    for t in ex.terminals() {
        assert!(ex.obs[t].parked, "only parked states may be terminal");
    }

    // Soft state always expires: FG membership leads to non-membership.
    for node in 0..N {
        let v = leads_to(&ex, |o: &Obs| o.fg[node], |o| !o.fg[node]);
        assert!(v.holds(), "fg expiry violated at node {node}");
    }
    // Non-vacuity: the relay is nominated on some path.
    assert!(
        exists(&ex, |o: &Obs| o.fg[1]).is_some(),
        "relay never entered the forwarding group — property is vacuous"
    );

    // Every originated packet is eventually delivered at the far
    // member unless the adversary spent its drop.
    for q in 0..2 {
        let v = leads_to(
            &ex,
            |o: &Obs| o.originated[q],
            |o| o.delivered[q] || o.drops_used > 0,
        );
        assert!(v.holds(), "delivery of packet {} violated", q + 1);
    }
    // Non-vacuity: full delivery with no drops happens.
    assert!(
        exists(&ex, |o: &Obs| o.delivered[0]
            && o.delivered[1]
            && o.drops_used == 0)
        .is_some(),
        "lossless full delivery unreachable — model is broken"
    );
    // And the adversary can actually prevent a delivery (the drop
    // budget is not decorative).
    assert!(
        exists(&ex, |o: &Obs| o.parked
            && !(o.delivered[0] && o.delivered[1]))
        .is_some(),
        "one drop should be able to cost a packet on this chain"
    );

    // No world ends with undelivered packets *and* an unspent budget.
    let v = always(&ex, |o: &Obs| {
        !o.parked || (o.delivered[0] && o.delivered[1]) || o.drops_used > 0
    });
    assert!(v.holds(), "packet lost without any adversarial drop");
}

/// Bug canary: the relay skips its forwarding-group refresh. With no
/// adversarial drops at all, delivery must now fail — and the checker
/// must hand back a concrete counterexample trace. The healthy twin of
/// the same configuration passes, proving the checker's verdict tracks
/// the seeded bug and nothing else.
#[test]
fn odmrp_canary_skip_fg_refresh_is_caught() {
    // Healthy twin: no drops, everything is delivered on every path.
    let healthy = chain_model(false, 0);
    let ex = explore(
        &healthy,
        Limits {
            max_states: 400_000,
        },
        observe(&healthy),
    );
    assert!(ex.complete);
    let v = always(&ex, |o: &Obs| {
        !o.parked || (o.delivered[0] && o.delivered[1])
    });
    assert!(
        v.holds(),
        "healthy twin must deliver everything without drops"
    );

    // Armed: the relay never (re)joins the forwarding group.
    let armed = chain_model(true, 0);
    let ex = explore(
        &armed,
        Limits {
            max_states: 400_000,
        },
        observe(&armed),
    );
    assert!(ex.complete);
    println!("odmrp canary chain: {} states", ex.len());
    assert_eq!(ex.len(), 136);

    // The property is not even vacuously satisfiable any more: the
    // relay never enters the forwarding group...
    assert!(
        exists(&ex, |o: &Obs| o.fg[1]).is_none(),
        "armed relay must never enter the forwarding group"
    );

    // ...and delivery of the first packet is violated outright.
    let v = leads_to(
        &ex,
        |o: &Obs| o.originated[0],
        |o| o.delivered[0] || o.drops_used > 0,
    );
    let cex = v
        .counterexample()
        .expect("canary must produce a delivery violation");
    let rendered = render_counterexample(&armed, &ex, cex, |st| {
        let o = observe(&armed)(st);
        format!(
            "t={:?} fg={:?} delivered={:?} parked={}",
            st.now, o.fg, o.delivered, o.parked
        )
    });
    println!("minimal counterexample (skip-fg-refresh):\n{rendered}");
    assert!(!rendered.is_empty());
}
