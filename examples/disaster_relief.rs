//! Disaster relief: the paper's motivating application.
//!
//! A search-and-rescue operation covers a 300 m × 300 m collapsed-
//! building site. A coordination team of 12 (one third of the 36
//! deployed radios) must all see every situation report; the remaining
//! radios are relays carried by other workers. People move at walking
//! speeds and pause frequently — the paper's random-waypoint regime.
//!
//! The example runs the *same* seed twice — bare MAODV vs. MAODV +
//! Anonymous Gossip — and prints the per-member delivery side by side,
//! demonstrating the paper's two headline claims: higher delivery and
//! much lower variance across members.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example disaster_relief
//! ```

use ag_harness::{run, ProtocolKind, Scenario};
use ag_mobility::Field;
use ag_sim::stats::Summary;

fn main() {
    // 36 radios on the site, walking pace, 60 m radio range.
    let mut sc = Scenario::paper(36, 60.0, 1.5);
    sc.field = Field::new(300.0, 300.0);
    // A 5-minute operation window; reports start after a 1-minute setup.
    let sc = sc.with_duration_secs(300);
    let seed = 7;

    println!(
        "disaster-relief site: {} radios, {} coordinators, {} situation reports\n",
        sc.nodes,
        sc.member_count,
        sc.packets_sent()
    );

    let maodv = run(&sc, seed, ProtocolKind::Maodv);
    let gossip = run(&sc, seed, ProtocolKind::Gossip);

    println!(
        "{:>8} | {:>14} | {:>14} {:>12}",
        "member", "MAODV recv", "AG recv", "(recovered)"
    );
    println!("{}", "-".repeat(58));
    for (m, g) in maodv.members.iter().zip(gossip.members.iter()) {
        assert_eq!(m.node, g.node);
        let tag = if m.node == maodv.source {
            " source"
        } else {
            ""
        };
        println!(
            "{:>8} | {:>14} | {:>14} {:>12}{tag}",
            m.node.to_string(),
            m.received,
            g.received,
            format!("+{}", g.via_gossip),
        );
    }

    let ms: Summary = maodv.received_summary();
    let gs: Summary = gossip.received_summary();
    println!("{}", "-".repeat(58));
    println!(
        "{:>8} | {:>6.0} ± {:<6.0} | {:>6.0} ± {:<6.0}",
        "mean±sd",
        ms.mean(),
        ms.stddev(),
        gs.mean(),
        gs.stddev()
    );
    println!(
        "{:>8} | {:>14} | {:>14}",
        "min..max",
        format!("{:.0}..{:.0}", ms.min(), ms.max()),
        format!("{:.0}..{:.0}", gs.min(), gs.max()),
    );
    println!(
        "\ncoordinators below 90% of reports: MAODV {}, with gossip {}",
        maodv
            .receivers()
            .filter(|m| (m.received as f64) < 0.9 * maodv.sent as f64)
            .count(),
        gossip
            .receivers()
            .filter(|m| (m.received as f64) < 0.9 * gossip.sent as f64)
            .count(),
    );
}
