//! # ag-odmrp: On-Demand Multicast Routing Protocol
//!
//! A from-scratch implementation of ODMRP (Lee, Gerla, Chiang — WCNC
//! 1999), the *mesh-based* multicast protocol the Anonymous Gossip paper
//! positions against tree-based MAODV in its related work (§2): "the
//! mesh-based protocol ODMRP provides better packet delivery than
//! tree-based protocols but pays an extra cost for mesh maintenance".
//! This crate exists to reproduce that comparison (and to demonstrate
//! the engine's protocol interface carrying a second, structurally
//! different multicast substrate).
//!
//! ## Protocol sketch
//!
//! * While a **source** has data to send it periodically floods a
//!   **Join-Query**; every node records the previous hop (backward
//!   learning) and rebroadcasts once.
//! * A **member** receiving a Join-Query broadcasts a **Join-Reply**
//!   naming its backward next hop toward the source.
//! * A node named as someone's next hop joins the **forwarding group**
//!   (soft state, refreshed by later replies) and propagates its own
//!   Join-Reply upstream — carving a *mesh* of redundant paths.
//! * **Data** is broadcast; forwarding-group nodes rebroadcast
//!   (duplicate-suppressed); members deliver.
//!
//! Redundant mesh paths are why ODMRP tolerates individual link breaks
//! without any explicit repair procedure — and why it costs more
//! transmissions per delivered packet than a tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod counters;
mod messages;
mod protocol;

pub use config::OdmrpConfig;
pub use messages::OdmrpMsg;
pub use protocol::OdmrpProtocol;
