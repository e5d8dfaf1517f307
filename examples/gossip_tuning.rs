//! Gossip tuning: exploring the knobs the paper leaves open.
//!
//! §5.5 notes that "the effectiveness of anonymous gossip depends on
//! the values chosen for the size of the history table and the lost
//! table, besides the gossip interval" and that the authors were still
//! studying those parameters. This example runs that study on one
//! scenario: it sweeps the anonymous/cached mix (`p_anon`), the gossip
//! interval and the history capacity, and prints the resulting delivery
//! and goodput so the trade-offs are visible.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example gossip_tuning
//! ```

use ag_harness::{run, ProtocolKind, Scenario};
use ag_sim::SimDuration;

fn show(label: &str, sc: &Scenario, seeds: u64) {
    let mut recv = ag_sim::stats::Summary::new();
    let mut goodput = ag_sim::stats::Summary::new();
    let mut recovered = 0u64;
    for seed in 0..seeds {
        let r = run(sc, seed, ProtocolKind::Gossip);
        recv.merge(&r.received_summary());
        for m in r.receivers() {
            recovered += m.via_gossip;
            if let Some(g) = m.goodput_percent {
                goodput.record(g);
            }
        }
    }
    println!(
        "{label:>26}: recv {:>6.0} [{:>4.0},{:>4.0}]  recovered {:>5}  goodput {:>5.1}%",
        recv.mean(),
        recv.min(),
        recv.max(),
        recovered,
        goodput.mean()
    );
}

fn main() {
    let seeds = 3;
    // A stressed configuration (short range, mobile) so recovery matters.
    let base = Scenario::paper(40, 50.0, 2.0).with_duration_secs(300);
    println!(
        "base scenario: {} nodes, {} members, range {} m, {} packets, {} seeds\n",
        base.nodes,
        base.member_count,
        base.range_m,
        base.packets_sent(),
        seeds
    );

    println!("-- anonymous/cached mix (p_anon) --");
    for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut sc = base.clone();
        sc.ag.p_anon = p;
        show(&format!("p_anon = {p}"), &sc, seeds);
    }

    println!("\n-- gossip interval --");
    for ms in [500, 1000, 2000, 4000] {
        let mut sc = base.clone();
        sc.ag.gossip_interval = SimDuration::from_millis(ms);
        show(&format!("interval = {ms} ms"), &sc, seeds);
    }

    println!("\n-- history table capacity --");
    for cap in [25, 50, 100, 200, 400] {
        let mut sc = base.clone();
        sc.ag.history_capacity = cap;
        show(&format!("history = {cap} packets"), &sc, seeds);
    }

    println!("\n-- locality weighting (§4.2) --");
    for loc in [true, false] {
        let mut sc = base.clone();
        sc.ag.locality_weighting = loc;
        show(&format!("locality = {loc}"), &sc, seeds);
    }
}
