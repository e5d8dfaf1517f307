//! MAODV's counters, after the engine's.
//!
//! Declared once, in slot order; a handler bumps one with
//! [`ProtoCtx::bump`](ag_net::ProtoCtx::bump) and it renders under its
//! name in [`Engine::counters`](ag_net::Engine::counters).

ag_net::counters! {
    after ag_net::counter::engine::END;
    BECAME_LEADER = "maodv.became_leader",
    DATA_DUPLICATE = "maodv.data_duplicate",
    DATA_FORWARDED = "maodv.data_forwarded",
    DATA_NON_TREE_IGNORED = "maodv.data_non_tree_ignored",
    DATA_ORIGINATED = "maodv.data_originated",
    DATA_SENT_DETACHED = "maodv.data_sent_detached",
    DISCOVERY_BUFFER_DROP = "maodv.discovery_buffer_drop",
    DISCOVERY_FAILED = "maodv.discovery_failed",
    DISCOVERY_FAILED_PKTS = "maodv.discovery_failed_pkts",
    GRPH_ORIGINATED = "maodv.grph_originated",
    HELLO_LINK_BREAK = "maodv.hello_link_break",
    JOIN_RREP_SENT = "maodv.join_rrep_sent",
    JOIN_RREQ = "maodv.join_rreq",
    JOIN_RREQ_RETRY = "maodv.join_rreq_retry",
    LEADER_MERGE_DEFER = "maodv.leader_merge_defer",
    MACT_JOIN_RECEIVED = "maodv.mact_join_received",
    MACT_SENT = "maodv.mact_sent",
    MEMBER_REJOIN = "maodv.member_rejoin",
    NM_UPDATE_SENT = "maodv.nm_update_sent",
    ORPHAN_REPAIR = "maodv.orphan_repair",
    PRUNE_RECEIVED = "maodv.prune_received",
    PRUNE_SENT = "maodv.prune_sent",
    REPAIR_RREQ = "maodv.repair_rreq",
    ROUTED_DROPPED = "maodv.routed_dropped",
    ROUTED_NO_ROUTE = "maodv.routed_no_route",
    ROUTED_TTL_EXPIRED = "maodv.routed_ttl_expired",
    RREP_LOOP_DROPPED = "maodv.rrep_loop_dropped",
    RREP_NO_REVERSE_ROUTE = "maodv.rrep_no_reverse_route",
    SEND_FAILURE = "maodv.send_failure",
    TREE_GRPH_ADOPTED = "maodv.tree_grph_adopted",
    TREE_LINK_BREAK = "maodv.tree_link_break",
    UNICAST_RREP_INTERMEDIATE = "maodv.unicast_rrep_intermediate",
    UNICAST_RREP_SENT = "maodv.unicast_rrep_sent",
    UNICAST_RREQ = "maodv.unicast_rreq",
}
