//! # ag-core: Anonymous Gossip
//!
//! The primary contribution of *Anonymous Gossip: Improving Multicast
//! Reliability in Mobile Ad-Hoc Networks* (Chandra, Ramasubramanian,
//! Birman — ICDCS 2001), implemented over the `ag-maodv` substrate.
//!
//! The protocol runs in two concurrent phases:
//!
//! 1. **Multicast phase** — messages are multicast unreliably over the
//!    MAODV tree.
//! 2. **Gossip phase** — every member runs a periodic background gossip
//!    round that *pulls* packets it believes it has lost from some other
//!    member — without knowing who that member is.
//!
//! Each round is either (paper §4.3):
//!
//! * **Anonymous gossip** (probability `p_anon`) — the request takes a
//!   random walk along the multicast tree. Every relay forwards it to a
//!   random next hop, biased toward the smaller `nearest_member`
//!   distance (§4.2 locality); a member relay flips a coin to accept it
//!   instead. The accepting member — whose identity the initiator never
//!   needed to know — unicasts any requested packets back.
//! * **Cached gossip** — the request is unicast directly to a member
//!   drawn from the bounded [`MemberCache`], which fills itself for free
//!   from data packets, route replies and earlier gossip (§4.3).
//!
//! The pull state is the per-member [`LostTable`] (believed-missing
//! sequence numbers) and [`HistoryTable`] (recent packets kept for
//! answering), both bounded exactly as §4.4 describes — and both the
//! same bounded FIFO table MAODV's flood-id windows use
//! ([`ag_maodv::seen::FifoTable`]): keyed by packet id, evicting the
//! oldest entry at capacity, allocating nothing until first used.
//! [`HistoryTable`] is that table itself, a type alias with the packet
//! record as its value.
//!
//! [`AnonymousGossip`] is the full node stack ([`ag_net::Protocol`]
//! implementation) used by the examples, the experiment harness, the
//! benchmarks and the `ag-check` model checker (handlers are written
//! against the pure [`ag_net::ProtoCtx`] facade, so the identical code
//! runs under the engine and the exhaustive explorer — see
//! `docs/MODEL_CHECKING.md`).
//!
//! # Example
//!
//! See [`AnonymousGossip`] for a runnable three-node example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod counters;
mod history;
mod lost;
mod member_cache;
mod message;
mod metrics;
mod protocol;

pub use config::AgConfig;
pub use history::HistoryTable;
pub use lost::LostTable;
pub use member_cache::{CacheEntry, MemberCache};
pub use message::{AgMsg, GossipReply, GossipRequest, PacketId, PacketRecord};
pub use metrics::GossipMetrics;
pub use protocol::AnonymousGossip;
