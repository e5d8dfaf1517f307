//! must-pass: typed bumps, a forwarding context, a named string in a
//! message, and test code.

pub fn on_rreq<C: ProtoCtx<Msg>>(api: &mut C, n: u64) {
    api.bump(counters::RREQ_RELAYED);
    api.bump_n(counters::RREQ_BYTES, n);
    let relayed = api.members().count();
    debug_assert!(relayed < 10, "count(\"not a call\")");
}

impl<M: Message, C: ProtoCtx<M>> ProtoCtx<M> for Wrapper<'_, C> {
    fn count_n(&mut self, name: &'static str, n: u64) {
        self.inner.count_n(name, n);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_by_name_in_tests() {
        ctx.count("maodv.rreq_relayed");
    }
}
