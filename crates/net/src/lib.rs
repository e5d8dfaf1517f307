//! # ag-net: the wireless network substrate
//!
//! Replaces GloMoSim's PHY/MAC layers for the Anonymous Gossip
//! reproduction. It provides:
//!
//! * [`PhyParams`] — what a scenario varies about the radio: the
//!   unit-disk range, the receiver-set kernel, the reception model and
//!   radio churn.
//! * a simplified **802.11 DCF MAC** inside the [`Engine`], fixed to
//!   the paper's 2 Mbps 802.11b DSSS timing (slot/DIFS/SIFS/preamble):
//!   carrier sense, DIFS + slotted random backoff with binary
//!   exponential contention window, per-receiver collision corruption,
//!   unicast ACK + retransmit with a retry limit and a link-failure
//!   upcall, unacknowledged broadcast.
//! * [`Engine`] — the discrete-event network engine. It owns every node's
//!   MAC, mobility model and RNG streams, and drives an upper-layer
//!   [`Protocol`] implementation per node (MAODV in `ag-maodv`, Anonymous
//!   Gossip over MAODV in `ag-core`).
//! * [`ProtoCtx`] (module [`ctx`]) — the pure facade protocol handlers
//!   are written against: effects (frames, timers, counters) and *named
//!   random choices* flow through the context, never directly into the
//!   world. The same handler code therefore also runs under `ag-check`'s
//!   model checker.
//! * [`Observer`] — what the engine shows of a run: each upcall's
//!   [`Dispatch`], the [`Choice`]s its handler draws and the node's
//!   state after it, through shared views only. The default, [`Quiet`],
//!   compiles away; `ag-check`'s `Conform` is an observer that replays
//!   every dispatch of a plain engine run into a replica of its node.
//! * [`Counter`] (module [`counter`]) — a named count with a dense slot
//!   in the engine's one counter array; each crate declares its block
//!   once with [`counters!`].
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

pub mod counter;
pub mod ctx;
pub mod phy;

pub use counter::Counter;
pub use ctx::{Choice, Dispatch, Observer, ProtoCtx, Quiet};
pub use engine::{Engine, NodeApi, NodeSetup, PREFETCH_ABOVE_NODES};
pub use phy::{ChurnParams, PhyParams, ReceptionModel};
pub use types::{Message, NodeId, Protocol, RxKind, TimerKey};
