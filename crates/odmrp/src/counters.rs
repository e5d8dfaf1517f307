//! ODMRP's counters, after MAODV's.
//!
//! Declared once, in slot order; a handler bumps one with
//! [`ProtoCtx::bump`](ag_net::ProtoCtx::bump) and it renders under its
//! name in [`Engine::counters`](ag_net::Engine::counters).

ag_net::counters! {
    after ag_maodv::counters::END;
    DATA_DUPLICATE = "odmrp.data_duplicate",
    DATA_FORWARDED = "odmrp.data_forwarded",
    DATA_ORIGINATED = "odmrp.data_originated",
    FG_REFRESHED = "odmrp.fg_refreshed",
    QUERY_ORIGINATED = "odmrp.query_originated",
    QUERY_RELAYED = "odmrp.query_relayed",
    REPLY_SENT = "odmrp.reply_sent",
}
