//! Wire messages.
//!
//! Sizes approximate the draft-05 packet formats; the simulator only uses
//! them for airtime, never for real serialization. The enum is generic
//! over an extension payload `X` so the Anonymous Gossip layer can ride
//! the same channel without MAODV knowing its packet formats.

use ag_net::{Message, NodeId};

use crate::GroupId;

/// RREQ: route request, broadcast-flooded.
///
/// Serves three roles: unicast route discovery (`group == None`), group
/// join (`group == Some(_)`, `repair_hops == None`), and tree repair
/// (`group == Some(_)`, `repair_hops == Some(d)` where `d` is the
/// requester's old distance to the group leader — only tree nodes
/// strictly closer may answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RreqPayload {
    /// The requesting node.
    pub origin: NodeId,
    /// Requester's own sequence number.
    pub origin_seq: u32,
    /// Per-origin RREQ identifier (dedupes the flood).
    pub rreq_id: u32,
    /// Unicast target (route discovery) or the group's notional address.
    pub dest: NodeId,
    /// Multicast group being joined, if this is a join/repair RREQ (the
    /// draft's join flag).
    pub group: Option<GroupId>,
    /// Last group/destination sequence number the origin knows.
    pub known_seq: u32,
    /// Hops travelled so far.
    pub hop_count: u8,
    /// Remaining TTL.
    pub ttl: u8,
    /// Repair extension: requester's previous hop-count to the leader.
    pub repair_hops: Option<u8>,
}

/// RREP: route reply, unicast hop-by-hop along the reverse path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrepPayload {
    /// The RREQ origin this reply answers.
    pub origin: NodeId,
    /// Echo of the RREQ id (matches replies to join attempts).
    pub rreq_id: u32,
    /// The replying node.
    pub responder: NodeId,
    /// Unicast destination the reply is about (== responder for joins).
    pub dest: NodeId,
    /// Group, for join replies.
    pub group: Option<GroupId>,
    /// Destination/group sequence number at the responder.
    pub seq: u32,
    /// Hops from the responder (grows as the RREP travels).
    pub hop_count: u8,
    /// Responder's distance to the group leader (join replies).
    pub leader_hops: u8,
    /// Whether the responder is itself a group member (feeds the AG
    /// member cache for free, §4.3).
    pub responder_is_member: bool,
}

/// MACT variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MactKind {
    /// Activate the tree branch toward the sender.
    Join,
    /// Remove the sender from the receiver's next hops.
    Prune,
}

/// MACT: multicast activation, unicast to the chosen next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MactPayload {
    /// The group.
    pub group: GroupId,
    /// Join or prune.
    pub kind: MactKind,
    /// The node whose join attempt this MACT finalizes (keys the pending
    /// state at intermediate nodes as the activation cascades upstream).
    pub origin: NodeId,
    /// Join attempt this MACT finalizes.
    pub rreq_id: u32,
    /// Whether the MACT sender is a group member (initializes the
    /// receiver's `nearest_member` field for this next hop).
    pub sender_is_member: bool,
}

/// GRPH: group hello, originated by the leader every group-hello
/// interval in two forms.
///
/// The **flood** copy (`tree == false`) is rebroadcast network-wide and
/// serves partition/merge detection. The **tree** copy (`tree == true`)
/// is relayed only from a node's upstream tree edge downward; receiving
/// one is proof of a live tree path to the leader, and its absence is
/// how an orphaned subtree learns it must repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrphPayload {
    /// The group.
    pub group: GroupId,
    /// Current leader.
    pub leader: NodeId,
    /// Group sequence number (increments every GRPH).
    pub group_seq: u32,
    /// Hops from the leader so far.
    pub hop_count: u8,
    /// Remaining TTL.
    pub ttl: u8,
    /// `true` for the tree-scoped copy (see above).
    pub tree: bool,
}

/// Multicast data header (payload bytes are virtual — only identity and
/// length exist in the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataHeader {
    /// The group.
    pub group: GroupId,
    /// Originating member.
    pub origin: NodeId,
    /// Per-origin sequence number.
    pub seq: u32,
    /// Payload length in bytes (the paper uses 64).
    pub payload_len: u16,
    /// Tree hops travelled so far.
    pub hops: u8,
}

/// A unicast extension payload routed hop-by-hop via the AODV route
/// table (gossip replies and cached gossip take this path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedExt<X> {
    /// Original sender.
    pub src: NodeId,
    /// Final destination.
    pub dest: NodeId,
    /// Remaining TTL.
    pub ttl: u8,
    /// Hops travelled so far (feeds the AG member cache's `numhops`).
    pub hops: u8,
    /// The extension payload.
    pub payload: X,
}

/// The MAODV frame set, generic over the extension payload `X`.
#[derive(Debug, Clone, PartialEq)]
pub enum MaodvMsg<X> {
    /// 1-hop neighbour beacon.
    Hello,
    /// Route request flood.
    Rreq(RreqPayload),
    /// Route reply.
    Rrep(RrepPayload),
    /// Multicast tree (de)activation.
    Mact(MactPayload),
    /// Leader's group hello flood.
    Grph(GrphPayload),
    /// Multicast data.
    Data(DataHeader),
    /// `nearest_member` update to a tree neighbour (AG §4.2): distance
    /// from the sender to its nearest member avoiding the receiver.
    NmUpdate {
        /// The group.
        group: GroupId,
        /// The saturating hop distance.
        value: u8,
    },
    /// One-hop extension frame (anonymous gossip propagation step).
    Ext(X),
    /// Routed extension frame (gossip replies, cached gossip).
    Routed(RoutedExt<X>),
}

/// Extension type for bare-MAODV stacks: uninhabited, zero-sized on the
/// wire, never constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoExt {}

impl Message for NoExt {
    fn wire_size(&self) -> usize {
        match *self {}
    }
}

impl<X: Message> Message for MaodvMsg<X> {
    fn wire_size(&self) -> usize {
        match self {
            MaodvMsg::Hello => 12,
            MaodvMsg::Rreq(r) => {
                24 + if r.group.is_some() { 4 } else { 0 }
                    + if r.repair_hops.is_some() { 4 } else { 0 }
            }
            MaodvMsg::Rrep(_) => 20,
            MaodvMsg::Mact(_) => 16,
            MaodvMsg::Grph(_) => 16,
            MaodvMsg::Data(d) => 12 + d.payload_len as usize,
            MaodvMsg::NmUpdate { .. } => 8,
            MaodvMsg::Ext(x) => 4 + x.wire_size(),
            MaodvMsg::Routed(r) => 16 + r.payload.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Fake(usize);
    impl Message for Fake {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn wire_sizes_are_sane() {
        let hello: MaodvMsg<Fake> = MaodvMsg::Hello;
        assert_eq!(hello.wire_size(), 12);
        let data: MaodvMsg<Fake> = MaodvMsg::Data(DataHeader {
            group: GroupId(0),
            origin: NodeId::new(1),
            seq: 5,
            payload_len: 64,
            hops: 0,
        });
        assert_eq!(data.wire_size(), 76);
        let ext: MaodvMsg<Fake> = MaodvMsg::Ext(Fake(30));
        assert_eq!(ext.wire_size(), 34);
        let routed: MaodvMsg<Fake> = MaodvMsg::Routed(RoutedExt {
            src: NodeId::new(0),
            dest: NodeId::new(1),
            ttl: 8,
            hops: 0,
            payload: Fake(30),
        });
        assert_eq!(routed.wire_size(), 46);
    }

    #[test]
    fn rreq_extensions_add_bytes() {
        let base = RreqPayload {
            origin: NodeId::new(0),
            origin_seq: 1,
            rreq_id: 1,
            dest: NodeId::new(5),
            group: None,
            known_seq: 0,
            hop_count: 0,
            ttl: 10,
            repair_hops: None,
        };
        let plain: MaodvMsg<Fake> = MaodvMsg::Rreq(base);
        let join: MaodvMsg<Fake> = MaodvMsg::Rreq(RreqPayload {
            group: Some(GroupId(0)),
            ..base
        });
        let repair: MaodvMsg<Fake> = MaodvMsg::Rreq(RreqPayload {
            group: Some(GroupId(0)),
            repair_hops: Some(3),
            ..base
        });
        assert!(plain.wire_size() < join.wire_size());
        assert!(join.wire_size() < repair.wire_size());
    }
}
