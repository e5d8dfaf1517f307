//! Typed counters: one dense slot per name, declared once per crate.
//!
//! Every count a run keeps is a [`Counter`]: a slot in the engine's one
//! counter array plus the name [`Engine::counters`](crate::Engine::counters)
//! renders it under. Each crate declares its counters once, with
//! [`counters!`](crate::counters), in a fixed order that starts where
//! the crate below it ended: this crate's [`engine`] block (the MAC,
//! mobility and churn counts) takes the first slots, `ag-maodv`'s
//! block follows, and `ag-core`'s and `ag-odmrp`'s both follow
//! `ag-maodv`'s (one engine never runs both). A bump through
//! [`ProtoCtx::bump`](crate::ProtoCtx::bump) is an add at a constant
//! index: no name is compared at dispatch time.
//!
//! What names cost: bumping the engine's 14 counts through the
//! name-keyed [`CounterSet`] instead read
//! `paper_sweep` `wall_s` 1.678 → 1.845 s (+9.9 %, slower in 10/10
//! alternating `agbench` pairs on a 2-CPU host) and `city_20k`
//! 2.228 → 2.394 s (+7.4 %, 6/10).

use ag_sim::stats::CounterSet;

/// The length of every engine's counter array. [`counters!`](crate::counters)
/// rejects at compile time any block that would end past it, so no
/// stack states its own count.
pub const SLOTS: usize = 64;

/// A named count with a fixed slot in the engine's counter array.
///
/// Made by [`counters!`](crate::counters), never by hand, so two names
/// cannot share a slot within one stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    slot: usize,
    name: &'static str,
}

impl Counter {
    /// The counter `name` at `slot`. For [`counters!`](crate::counters).
    #[doc(hidden)]
    pub const fn new(slot: usize, name: &'static str) -> Self {
        Counter { slot, name }
    }

    /// Its index in the engine's counter array.
    pub const fn slot(self) -> usize {
        self.slot
    }

    /// The name it is rendered (and, on the fallback path, counted) under.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

/// Declares a crate's counters, in slot order, after slot `$base`.
///
/// Each `IDENT = "name",` line becomes a `pub const IDENT: Counter` at
/// the next free slot; the block also gets `ALL` (its counters in slot
/// order) and `END` (one past its last slot, where the next crate's
/// block starts). Invoke it once per module:
///
/// ```
/// mod counters {
///     ag_net::counters! {
///         after ag_net::counter::engine::END;
///         PINGS = "demo.pings",
///         PONGS = "demo.pongs",
///     }
/// }
/// assert_eq!(counters::PONGS.slot(), counters::PINGS.slot() + 1);
/// assert_eq!(counters::PONGS.name(), "demo.pongs");
/// assert_eq!(counters::END, counters::PINGS.slot() + 2);
/// ```
///
/// A block that would end past [`SLOTS`](crate::counter::SLOTS) does
/// not compile:
///
/// ```compile_fail
/// mod counters {
///     ag_net::counters! {
///         after ag_net::counter::SLOTS;
///         OVERFLOW = "demo.overflow",
///     }
/// }
/// ```
#[macro_export]
macro_rules! counters {
    (after $base:expr; $($(#[$doc:meta])* $id:ident = $name:literal,)+) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Slot {
            $($id,)+
        }
        $(
            #[doc = concat!("`", $name, "`.")]
            $(#[$doc])*
            pub const $id: $crate::Counter = $crate::Counter::new($base + Slot::$id as usize, $name);
        )+
        /// This block's counters, in slot order.
        pub const ALL: &[$crate::Counter] = &[$($id),+];
        /// One past this block's last slot: where the next block starts.
        pub const END: usize = $base + ALL.len();
        const _: () = assert!(
            END <= $crate::counter::SLOTS,
            "this counter block ends past ag_net::counter::SLOTS"
        );
    };
}

/// The engine's own counts: the first slots of every engine's array.
/// Each is rendered once it is above zero.
pub mod engine {
    crate::counters! {
        after 0;
        ENQUEUED = "mac.enqueued",
        QUEUE_DROP = "mac.queue_drop",
        CS_BUSY = "mac.cs_busy",
        UNICAST_TX = "mac.unicast_tx",
        BROADCAST_TX = "mac.broadcast_tx",
        RX_DELIVERED = "mac.rx_delivered",
        RX_COLLISION = "mac.rx_collision",
        UNICAST_RETRY = "mac.unicast_retry",
        SEND_FAIL = "mac.send_fail",
        MOB_TRANSITION = "mob.transition",
        /// In-range, uncollided receptions lost to the (non-ideal)
        /// reception model.
        RX_CHANNEL_DROP = "mac.rx_channel_drop",
        /// Frames discarded because the sender's radio was down.
        DOWN_DROP = "mac.down_drop",
        CHURN_FAIL = "churn.fail",
        CHURN_RECOVER = "churn.recover",
    }
}

/// One engine's counts: a slot per [`Counter`], [`SLOTS`] in all, and
/// the counts made by name.
///
/// The engine's own slots sit inline and hold only their values, so
/// each of its bumps compiles to one add at a fixed offset, as when
/// they were plain fields; the protocol's slots follow, inline too.
pub(crate) struct Tally {
    engine: [u64; engine::END],
    /// The protocol's slots, from `engine::END` on.
    protocol: [Slot; SLOTS - engine::END],
    /// Counts that came by name ([`ProtoCtx::count_n`](crate::ProtoCtx::count_n)),
    /// from a context wrapper that does not forward the typed bump.
    named: CounterSet,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    value: u64,
    /// Set by the first bump, so a protocol count renders once bumped,
    /// even by 0.
    name: Option<&'static str>,
}

impl Tally {
    /// Every slot at zero and not yet bumped.
    pub(crate) fn new() -> Self {
        Tally {
            engine: [0; engine::END],
            protocol: [Slot::default(); SLOTS - engine::END],
            named: CounterSet::new(),
        }
    }

    /// Adds `n` to one of the engine's own counts.
    #[inline(always)]
    pub(crate) fn add(&mut self, counter: Counter, n: u64) {
        self.engine[counter.slot()] += n;
    }

    /// Adds `n` to a protocol's count.
    #[inline]
    pub(crate) fn bump(&mut self, counter: Counter, n: u64) {
        debug_assert!(counter.slot() >= engine::END, "an engine count");
        let slot = &mut self.protocol[counter.slot() - engine::END];
        debug_assert!(
            slot.name.is_none_or(|name| name == counter.name()),
            "two counters share slot {}",
            counter.slot()
        );
        slot.value += n;
        slot.name = Some(counter.name());
    }

    /// Adds `n` to the count named `name`.
    pub(crate) fn add_named(&mut self, name: &'static str, n: u64) {
        self.named.add(name, n);
    }

    /// Every count under its name: the engine's once above zero, a
    /// protocol's once bumped. A name counted both ways is summed, so
    /// the typed and the named path render alike.
    pub(crate) fn render(&self) -> CounterSet {
        let mut set = self.named.clone();
        for (counter, &value) in engine::ALL.iter().zip(&self.engine) {
            if value > 0 {
                set.add(counter.name(), value);
            }
        }
        for slot in &self.protocol {
            if let Some(name) = slot.name {
                set.add(name, slot.value);
            }
        }
        set
    }
}
