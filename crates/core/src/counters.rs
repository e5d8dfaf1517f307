//! The gossip layer's counters, after MAODV's.
//!
//! Declared once, in slot order; a handler bumps one with
//! [`ProtoCtx::bump`](ag_net::ProtoCtx::bump) and it renders under its
//! name in [`Engine::counters`](ag_net::Engine::counters).

ag_net::counters! {
    after ag_maodv::counters::END;
    RECOVERED = "ag.recovered",
    REPLY_DUPLICATE = "ag.reply_duplicate",
    REPLY_EMPTY = "ag.reply_empty",
    REPLY_PACKETS_SENT = "ag.reply_packets_sent",
    REQUEST_ANON_SENT = "ag.request_anon_sent",
    REQUEST_CACHED_SENT = "ag.request_cached_sent",
    REQUEST_DEAD_END = "ag.request_dead_end",
    ROUND_SKIPPED = "ag.round_skipped",
}
