//! The gossip wire messages (paper §4.1's five-field gossip message plus
//! the reply).

use std::sync::Arc;

use ag_maodv::GroupId;
use ag_net::{Message, NodeId};

/// Identity of one multicast data packet: §4.4's two-tuple sequence
/// number (sender address, per-sender sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId {
    /// Originating member.
    pub origin: NodeId,
    /// Per-origin sequence number.
    pub seq: u32,
}

impl PacketId {
    /// Creates a packet id.
    pub fn new(origin: NodeId, seq: u32) -> Self {
        PacketId { origin, seq }
    }
}

/// A stored data packet (payload bytes are virtual; identity + length is
/// all the simulator carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRecord {
    /// The packet's identity.
    pub id: PacketId,
    /// Payload length in bytes.
    pub payload_len: u16,
}

/// The gossip message (§4.1): group, source, lost buffer, its size
/// (implicit in the vec) and the expected sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GossipRequest {
    /// The multicast group gossiped about.
    pub group: GroupId,
    /// The node that started this gossip round (replies go here).
    pub initiator: NodeId,
    /// Sequence numbers the initiator believes it has lost (≤ the
    /// configured lost-buffer size).
    pub lost: Vec<PacketId>,
    /// Per-origin next expected sequence number at the initiator
    /// (detects tail loss the initiator cannot see).
    pub expected: Vec<(NodeId, u32)>,
    /// Hops travelled so far (lets relays install a reverse route to the
    /// initiator, which is why replies need no route discovery).
    pub hops: u8,
    /// Remaining walk budget.
    pub ttl: u8,
}

/// A gossip reply: the packets a member found in its history table for
/// the initiator (§4.4, pull mode).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GossipReply {
    /// The group.
    pub group: GroupId,
    /// The replying member (feeds the initiator's member cache).
    pub responder: NodeId,
    /// Recovered packets, payloads included.
    pub packets: Vec<PacketRecord>,
}

/// The extension payload Anonymous Gossip rides on MAODV frames.
///
/// The variants hold their bodies behind `Arc`: the engine clones every
/// payload once onto the air and once per broadcast receiver (the
/// [`Message`] cheap-clone contract), and the request/reply bodies carry
/// heap-backed `Vec`s that would otherwise be deep-copied each time.
/// Cloning an `AgMsg` is a refcount bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AgMsg {
    /// A gossip request walking the tree or unicast to a cached member.
    Request(Arc<GossipRequest>),
    /// A gossip reply unicast back to the initiator.
    Reply(Arc<GossipReply>),
}

impl AgMsg {
    /// Wraps a request body for the wire.
    pub fn request(r: GossipRequest) -> Self {
        AgMsg::Request(Arc::new(r))
    }

    /// Wraps a reply body for the wire.
    pub fn reply(r: GossipReply) -> Self {
        AgMsg::Reply(Arc::new(r))
    }
}

impl Message for AgMsg {
    fn wire_size(&self) -> usize {
        match self {
            // group 2 + initiator 2 + counts 2 + hops/ttl 2, then 6 bytes
            // per lost id and per expected entry.
            AgMsg::Request(r) => 8 + 6 * r.lost.len() + 6 * r.expected.len(),
            // group 2 + responder 2 + count 2, then header + payload per
            // packet (the actual recovered data rides here).
            AgMsg::Reply(r) => {
                6 + r
                    .packets
                    .iter()
                    .map(|p| 8 + p.payload_len as usize)
                    .sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    #[test]
    fn packet_id_orders() {
        assert!(PacketId::new(id(1), 5) < PacketId::new(id(1), 6));
        assert!(PacketId::new(id(1), 5) < PacketId::new(id(2), 0));
    }

    #[test]
    fn request_wire_size_scales_with_content() {
        let empty = AgMsg::request(GossipRequest {
            group: GroupId(0),
            initiator: id(0),
            lost: vec![],
            expected: vec![],
            hops: 0,
            ttl: 8,
        });
        let full = AgMsg::request(GossipRequest {
            group: GroupId(0),
            initiator: id(0),
            lost: (0..10).map(|s| PacketId::new(id(1), s)).collect(),
            expected: vec![(id(1), 10)],
            hops: 0,
            ttl: 8,
        });
        assert_eq!(empty.wire_size(), 8);
        assert_eq!(full.wire_size(), 8 + 60 + 6);
    }

    #[test]
    fn reply_carries_payload_bytes() {
        let reply = AgMsg::reply(GossipReply {
            group: GroupId(0),
            responder: id(3),
            packets: vec![
                PacketRecord {
                    id: PacketId::new(id(1), 1),
                    payload_len: 64,
                },
                PacketRecord {
                    id: PacketId::new(id(1), 2),
                    payload_len: 64,
                },
            ],
        });
        assert_eq!(reply.wire_size(), 6 + 2 * (8 + 64));
    }
}
