//! Core vocabulary types shared by every layer above the PHY.

use std::fmt;

use crate::ctx::ProtoCtx;

/// A node's network address.
///
/// In MAODV terms this stands in for the node's IP address; the engine
/// assigns dense ids `0..n`. A `u32` index caps the population at ~4
/// billion — metropolis-scale (millions of nodes) with headroom, while
/// keeping per-node id storage (grid buckets, scratch lists) at four
/// bytes.
///
/// # Example
///
/// ```
/// use ag_net::NodeId;
/// let a = NodeId::new(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(a.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node (also its engine slot).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw 32-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// How a frame arrived at the MAC: addressed to this node or broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RxKind {
    /// The frame was unicast to this node (and implicitly ACKed).
    Unicast,
    /// The frame was a local broadcast heard by every node in range.
    Broadcast,
}

/// An opaque protocol-defined timer tag.
///
/// Timers are *not* cancellable: a protocol checks its state when a
/// timer fires and does only what that state still calls for (MAODV's
/// group-hello timer runs on every node, but originates a hello only
/// while its node leads).
pub type TimerKey = u64;

/// A frame payload that can ride the simulated wireless channel.
///
/// The engine only needs to know a payload's serialized size to compute
/// airtime; it never actually serializes anything.
///
/// **Cheap-clone contract:** the engine clones a payload once when it
/// goes on the air and once per broadcast receiver, so `Clone` sits on
/// the hot path. Payloads carrying heap data (a `Vec` of records, say)
/// should wrap it in `Arc` so those clones are refcount bumps rather
/// than deep copies — see `AgMsg` in `ag-core` for the idiom. `Copy`
/// payloads and small plain structs are fine as-is.
pub trait Message: Clone + fmt::Debug + Send + 'static {
    /// Size of the payload on the wire, in bytes, *excluding* the MAC
    /// header (the PHY adds that).
    fn wire_size(&self) -> usize;
}

/// The upper layer of a node's stack (routing + application).
///
/// One instance exists per node. All interaction with the world goes
/// through the [`ProtoCtx`] handed into every callback: sending frames,
/// scheduling timers, drawing named random choices, bumping counters.
/// Handlers are generic over the context, so the identical protocol
/// code runs under the engine's [`NodeApi`](crate::NodeApi), the
/// `ag-check` model checker's enumerating context, and the replaying
/// context of `ag-check`'s conformance observer.
///
/// A protocol states nothing about its counters: the engine's array
/// has a slot for every [`Counter`](crate::Counter), so a wrapping
/// protocol has nothing about counting to forward.
///
/// State identity is `Hash`, required only where `ag-check` keys
/// states; `Debug` keeps a state printable.
pub trait Protocol: Sized + fmt::Debug {
    /// The frame payload type this protocol family exchanges.
    type Msg: Message;

    /// Called once at simulation start (time zero), in node-id order.
    /// Schedule initial timers here.
    fn start<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C);

    /// A frame arrived, already MAC-filtered: either unicast to this node
    /// or a broadcast it overheard.
    fn on_packet<C: ProtoCtx<Self::Msg>>(
        &mut self,
        ctx: &mut C,
        from: NodeId,
        msg: Self::Msg,
        rx: RxKind,
    );

    /// A timer scheduled via [`ProtoCtx::set_timer`] fired.
    fn on_timer<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C, key: TimerKey);

    /// A unicast of `msg` to `to` definitively failed: the MAC
    /// exhausted its retry limit, or a radio failure (churn) destroyed
    /// the frame while it was queued.
    ///
    /// MAODV uses this as its primary link-break detector.
    fn on_send_failure<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C, to: NodeId, msg: Self::Msg);

    /// A hint that [`Protocol::on_packet`]`(from, msg)` is about to run
    /// here: in an engine of more than
    /// [`PREFETCH_ABOVE_NODES`](crate::PREFETCH_ABOVE_NODES) nodes, the
    /// engine calls this on every receiver of a broadcast before it
    /// delivers to the first, so an implementation can read (through
    /// [`std::hint::black_box`]) the table entries `on_packet` will
    /// probe, and the receivers' cache-miss chains overlap instead of
    /// queueing behind one another's handlers. A smaller engine's
    /// tables stay in cache, where the pre-pass only repeats each
    /// probe, so it is not called there.
    ///
    /// `&self` and no [`ProtoCtx`]: it cannot send, schedule, draw or
    /// change state, so implementing it, or not, cannot alter a
    /// simulation result — only its speed. The default does nothing,
    /// which is right for any protocol whose state is cache-resident.
    ///
    /// What it buys: with the engine's pre-pass loop deleted, `agbench`'s
    /// `city_20k` read `wall_s` 2.334 → 2.635 s on a 2-CPU host, +12.9 %,
    /// worse in 5 of 5 alternating pairs, every digest equal.
    /// `ag_check::Conform` observes the engine rather than wrapping the
    /// protocol, so a checked run takes the shipped path.
    #[inline]
    fn prefetch(&self, _from: NodeId, _msg: &Self::Msg) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(NodeId::from(7u32), NodeId::new(7));
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn node_id_orders_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn rx_kind_eq() {
        assert_ne!(RxKind::Unicast, RxKind::Broadcast);
    }
}
