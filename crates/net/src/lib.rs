//! # ag-net: the wireless network substrate
//!
//! Replaces GloMoSim's PHY/MAC layers for the Anonymous Gossip
//! reproduction. It provides:
//!
//! * [`PhyParams`] — a unit-disk radio at 2 Mbps with IEEE 802.11b DSSS
//!   timing constants (slot/DIFS/SIFS/preamble) and per-frame airtime.
//! * a simplified **802.11 DCF MAC** (module [`mac`]): carrier sense,
//!   DIFS + slotted random backoff with binary exponential contention
//!   window, per-receiver collision corruption, unicast ACK + retransmit
//!   with a retry limit and a link-failure upcall, unacknowledged broadcast.
//! * [`Engine`] — the discrete-event network engine. It owns every node's
//!   MAC, mobility model and RNG streams, and drives an upper-layer
//!   [`Protocol`] implementation per node (MAODV in `ag-maodv`, Anonymous
//!   Gossip over MAODV in `ag-core`).
//! * [`ProtoCtx`] (module [`ctx`]) — the pure facade protocol handlers
//!   are written against: effects (frames, timers, counters) and *named
//!   random choices* flow through the context, never directly into the
//!   world. The same handler code therefore also runs under `ag-check`'s
//!   model checker, and its `Conform` wrapper checks an engine run
//!   against a replica dispatch by dispatch, with no engine hook.
//!
//! ## Fidelity notes
//!
//! * Propagation is unit-disk: a frame is audible exactly within
//!   `range_m` of the sender. The paper sweeps this "transmission range"
//!   as its connectivity knob, so the binary model is the faithful one.
//! * A receiver is corrupted by *any* overlapping audible transmission
//!   (no capture effect), which naturally produces hidden-terminal loss.
//! * Unicast ACKs succeed instantaneously when the data frame is received
//!   uncorrupted; ACK airtime is charged to the channel but ACK loss is
//!   not modelled. Retries re-contend with a doubled contention window.
//!
//! # Example
//!
//! See [`Engine`] for a complete two-node example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod grid;
mod reference;
mod types;

pub mod ctx;
pub mod mac;
pub mod phy;

pub use ctx::{Dispatch, ProtoCtx};
pub use engine::{Engine, NodeApi, NodeSetup};
pub use phy::{ChurnParams, PhyParams, ReceptionModel};
pub use types::{Message, NodeId, Protocol, RxKind, TimerKey};
