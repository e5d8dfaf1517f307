//! # ag-maodv: Multicast Ad-hoc On-demand Distance Vector routing
//!
//! A from-scratch implementation of the MAODV subset the paper's §3
//! describes (IETF draft-05 behaviour), plus the unicast AODV core it is
//! built on. This is the *unreliable multicast substrate* that Anonymous
//! Gossip (`ag-core`) recovers losses for.
//!
//! ## What is implemented
//!
//! * **Unicast AODV** — route table with destination sequence numbers,
//!   RREQ flood / RREP reverse-path route discovery, per-use lifetime
//!   refresh, and buffered sends while discovery is in flight
//!   ([`route_table`], parts of [`Maodv`]).
//! * **Neighbour liveness** — HELLO-based link sensing: every frame
//!   stamps its sender, and the tick sweeps neighbours silent for the
//!   hello timeout. The stamp lives in the sender's [`route_table`]
//!   record beside the one-hop route the same frame teaches, so a
//!   reception touches one record.
//! * **Multicast tree** — the Multicast Route Table with enabled/inactive
//!   next hops ([`mrt`]), Join-RREQ → RREP → MACT activation, prune,
//!   duplicate-suppressed data forwarding along tree edges, downstream
//!   link repair with the hop-count-to-leader extension, leader takeover
//!   on partition and GRPH-based leader merge.
//! * **The AG hooks** — the `nearest_member` field on every next hop with
//!   its split-horizon min-propagation rule (paper §4.2), one-hop and
//!   routed extension payloads for the gossip layer, and
//!   [`Upcall`]-based delivery/membership notifications.
//!
//! ## Layering
//!
//! [`Maodv`] is a plain state machine driven through `Protocol`-shaped
//! methods that *return* [`Upcall`]s instead of taking a callback trait;
//! the Anonymous Gossip layer wraps it by composition. For bare-MAODV
//! baselines (the paper's comparison series), [`MaodvProtocol`] adapts
//! [`Maodv`] directly to [`ag_net::Protocol`].
//!
//! # Example
//!
//! See [`MaodvProtocol`] for a runnable two-member example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod messages;
mod node;
mod protocol;

pub mod counters;
pub mod delivery;
pub mod mrt;
pub mod route_table;
pub mod seen;

pub use config::MaodvConfig;
pub use messages::{
    DataHeader, GrphPayload, MactKind, MactPayload, MaodvMsg, NoExt, RoutedExt, RrepPayload,
    RreqPayload,
};
pub use node::{
    Maodv, MaodvCtx, Upcall, TIMER_GRPH, TIMER_HELLO, TIMER_JOIN_START, TIMER_TICK, TIMER_USER_BASE,
};
pub use protocol::{MaodvProtocol, TrafficSource};

/// A multicast group address.
///
/// The paper evaluates a single group; the type keeps call sites honest
/// and leaves room for multi-group scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u16);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}
