//! ODMRP wire messages.

use ag_maodv::GroupId;
use ag_net::{Message, NodeId};

/// The ODMRP frame set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OdmrpMsg {
    /// Source-originated periodic flood; builds backward routes.
    JoinQuery {
        /// The group.
        group: GroupId,
        /// The flooding source.
        source: NodeId,
        /// Per-source query round (dedupes the flood).
        round: u32,
        /// Hops travelled.
        hops: u8,
        /// Remaining TTL.
        ttl: u8,
    },
    /// Member/forwarding-group reply naming its next hop toward the
    /// source; whoever hears its own id joins the forwarding group.
    JoinReply {
        /// The group.
        group: GroupId,
        /// The source this reply builds toward.
        source: NodeId,
        /// Echo of the query round.
        round: u32,
        /// The backward next hop being nominated.
        next_hop: NodeId,
    },
    /// Multicast data, flooded through the forwarding group.
    Data {
        /// The group.
        group: GroupId,
        /// Originating source.
        source: NodeId,
        /// Per-source sequence number.
        seq: u32,
        /// Payload length in bytes.
        payload_len: u16,
    },
}

impl Message for OdmrpMsg {
    fn wire_size(&self) -> usize {
        match self {
            OdmrpMsg::JoinQuery { .. } => 20,
            OdmrpMsg::JoinReply { .. } => 16,
            OdmrpMsg::Data { payload_len, .. } => 12 + *payload_len as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let q = OdmrpMsg::JoinQuery {
            group: GroupId(0),
            source: NodeId::new(0),
            round: 1,
            hops: 0,
            ttl: 16,
        };
        assert_eq!(q.wire_size(), 20);
        let d = OdmrpMsg::Data {
            group: GroupId(0),
            source: NodeId::new(0),
            seq: 1,
            payload_len: 64,
        };
        assert_eq!(d.wire_size(), 76);
    }
}
