//! must-fire: protocol handlers bumping counters by string literal.

pub fn on_rreq<C: ProtoCtx<Msg>>(api: &mut C, relayed: bool, n: u64) {
    api.count("maodv.rreq_relayed");
    api.count_n("maodv.rreq_bytes", n);
    api.count(r"maodv.raw_name");
    api
        .count("maodv.split_call");
}
