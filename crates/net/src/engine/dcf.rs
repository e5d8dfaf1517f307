//! The 802.11 DCF: its fixed constants, the per-node MAC record, and the
//! handlers for queueing, backoff arming, carrier sense, putting a frame
//! on the air, and — at `TxEnd` — deciding who heard it and what the
//! sender's MAC does next.
//!
//! The paper (§5.1) fixes the MAC to IEEE 802.11 at 2 Mbps, so every
//! timing and contention value here is a constant (802.11b DSSS). A
//! node's MAC state is not stored, because the engine already holds
//! each state as a fact:
//!
//! ```text
//!          enqueue (queue was empty)      channel idle at attempt time
//!   Idle ────────────────▶ Contending ───────────────────────────────▶ Transmitting
//!    ▲                        ▲   │ channel busy: re-arm attempt           │
//!    │                        └───┘                                        │
//!    └──────────── queue empty ◀──────────── TxEnd (+ACK outcome) ◀────────┘
//! ```
//!
//! Idle is an empty queue, Transmitting is `World::tx_of[node]` being
//! `Some`, and a popped `MacAttempt` is live exactly when its
//! generation is the node's current one.

use std::collections::VecDeque;

use ag_sim::{SimDuration, SimTime};
use rand::Rng;

use super::receive::{self, RxView};
use super::{Engine, Event, PendingTx, World, PREFETCH_ABOVE_NODES};
use crate::counter::engine;
use crate::ctx::{Dispatch, Observer};
use crate::grid::TxShot;
use crate::{reference, Message, NodeId, Protocol, RxKind};

/// Channel bitrate, bits per second: the paper's 2 Mbps.
const BITRATE_BPS: u64 = 2_000_000;
/// PHY preamble + PLCP header time (802.11b long preamble).
const PREAMBLE: SimDuration = SimDuration::from_micros(192);
/// MAC framing added to every payload: 24 B header + 4 B FCS.
const MAC_HEADER_BYTES: usize = 28;
/// Size of an ACK frame.
const ACK_BYTES: usize = 14;
/// Backoff slot time.
const SLOT: SimDuration = SimDuration::from_micros(20);
/// DCF inter-frame space.
const DIFS: SimDuration = SimDuration::from_micros(50);
/// Short inter-frame space (before an ACK).
const SIFS: SimDuration = SimDuration::from_micros(10);
/// Minimum contention window: backoff is drawn from `0..=cw` slots.
const CW_MIN: u32 = 31;
/// Maximum contention window.
const CW_MAX: u32 = 1023;
/// Unicast retransmissions before the frame is dropped and the upper
/// layer's `on_send_failure` fires.
const RETRY_LIMIT: u32 = 7;
/// Transmit-queue capacity, head frame included (drop-tail beyond it).
const QUEUE_CAPACITY: usize = 128;

/// Channel time of `bytes` serialized at the bitrate.
fn serialize(bytes: usize) -> SimDuration {
    SimDuration::from_nanos((bytes * 8) as u64 * 1_000_000_000 / BITRATE_BPS)
}

/// Time the channel is occupied by a data frame with `payload_bytes` of
/// upper-layer payload: preamble plus the framed bits at the bitrate.
fn airtime(payload_bytes: usize) -> SimDuration {
    PREAMBLE + serialize(MAC_HEADER_BYTES + payload_bytes)
}

/// Extra channel time consumed by the ACK exchange after a unicast
/// frame: SIFS + ACK preamble + ACK frame.
fn ack_overhead() -> SimDuration {
    SIFS + PREAMBLE + serialize(ACK_BYTES)
}

/// The next contention window after a failed attempt (binary
/// exponential backoff, capped at [`CW_MAX`]).
fn next_cw(cw: u32) -> u32 {
    ((cw + 1) * 2 - 1).min(CW_MAX)
}

/// An outbound frame waiting in (or at the head of) a MAC queue.
#[derive(Debug, Clone)]
pub(crate) struct OutFrame<M> {
    /// `Some(dest)` for unicast (ACKed, retried), `None` for broadcast.
    pub(crate) dest: Option<NodeId>,
    /// The upper-layer payload.
    pub(crate) msg: M,
}

/// One node's MAC: a drop-tail transmit queue plus DCF contention state.
#[derive(Debug)]
pub(super) struct Mac<M> {
    /// The head frame stays queued until ACKed (unicast) or sent
    /// (broadcast).
    queue: VecDeque<OutFrame<M>>,
    /// Current contention window.
    cw: u32,
    /// Retransmissions already used for the head-of-line unicast frame.
    retries: u32,
    /// Generation of the armed attempt; bumped to invalidate it.
    attempt_gen: u64,
}

impl<M> Mac<M> {
    /// An idle MAC at the minimum contention window.
    pub(super) fn new() -> Self {
        Mac {
            queue: VecDeque::new(),
            cw: CW_MIN,
            retries: 0,
            attempt_gen: 0,
        }
    }

    /// The radio failed: moves every queued frame to `dropped`, resets
    /// contention and invalidates any armed attempt.
    pub(super) fn fail(&mut self, dropped: &mut Vec<OutFrame<M>>) {
        dropped.extend(self.queue.drain(..));
        self.retries = 0;
        self.cw = CW_MIN;
        self.attempt_gen += 1;
    }
}

impl<M: Message> World<M> {
    // ag-lint: hot-path
    /// Queues a frame and kicks the MAC if it was idle. Frames from a
    /// down radio are silently discarded (counted): the hardware is
    /// off, so there is no carrier feedback to report.
    pub(super) fn enqueue_frame(&mut self, node: usize, dest: Option<NodeId>, msg: M) {
        if self.down[node] {
            self.tally.add(engine::DOWN_DROP, 1);
            return;
        }
        let queue = &mut self.macs[node].queue;
        if queue.len() >= QUEUE_CAPACITY {
            self.tally.add(engine::QUEUE_DROP, 1);
            return;
        }
        let was_idle = queue.is_empty();
        queue.push_back(OutFrame { dest, msg });
        self.tally.add(engine::ENQUEUED, 1);
        if was_idle {
            self.arm_attempt(node, self.now);
        }
    }

    // ag-lint: hot-path
    /// Arms a DIFS + backoff attempt for `node`'s head frame, counted
    /// from `idle_from`: now for a fresh frame or a retry, the end of
    /// the audible busy period for a deferral.
    fn arm_attempt(&mut self, node: usize, idle_from: SimTime) {
        let mac = &mut self.macs[node];
        debug_assert!(!mac.queue.is_empty(), "arming attempt with empty queue");
        let slots = self.mac_rngs[node].random_range(0..=mac.cw) as u64;
        let delay = DIFS + SLOT * slots;
        mac.attempt_gen += 1;
        let gen = mac.attempt_gen;
        self.queue.schedule(
            idle_from.saturating_add(delay),
            Event::MacAttempt { node, gen },
        );
    }

    // ag-lint: hot-path
    /// Handles an armed attempt firing: carrier-sense, then transmit or
    /// defer.
    pub(super) fn handle_attempt(&mut self, node: usize, gen: u64) {
        if self.macs[node].attempt_gen != gen {
            return; // stale: re-armed or failed since
        }
        debug_assert!(
            !self.macs[node].queue.is_empty() && self.tx_of[node].is_none(),
            "a live attempt needs a queued frame and nothing on the air"
        );
        // With nothing on the air anywhere, skip even the position sample.
        if self.air.any_live() {
            let pos = self.position(node);
            if let Some(busy_until) = self.air.busy_until(pos, self.phy.range_m()) {
                self.tally.add(engine::CS_BUSY, 1);
                self.arm_attempt(node, busy_until);
                return;
            }
        }
        self.start_tx(node);
    }

    // ag-lint: hot-path
    /// Puts `node`'s head frame on the air.
    fn start_tx(&mut self, node: usize) {
        // The head frame stays queued until ACKed (unicast) or completed
        // (broadcast), so the air record holds a clone — a refcount bump
        // under the `Message` cheap-clone contract, not a payload copy.
        let frame = self.macs[node]
            .queue
            .front()
            .expect("start_tx with empty queue")
            .clone();
        let unicast = frame.dest.is_some();
        let mut on_air = airtime(frame.msg.wire_size());
        if unicast {
            on_air += ack_overhead();
        }
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        self.tx_of[node] = Some(id);
        let end = self.now + on_air;
        self.air.insert(
            id,
            TxShot {
                start: self.now,
                end,
                pos: self.position(node),
            },
            PendingTx {
                sender: node,
                frame,
            },
        );
        if unicast {
            self.tally.add(engine::UNICAST_TX, 1);
        } else {
            self.tally.add(engine::BROADCAST_TX, 1);
        }
        self.queue.schedule(end, Event::TxEnd { tx_id: id });
    }

    // ag-lint: hot-path
    /// Completes the head frame (success or final drop) and moves the MAC
    /// on to the next queued frame.
    fn finish_head_frame(&mut self, node: usize) -> OutFrame<M> {
        let mac = &mut self.macs[node];
        let frame = mac.queue.pop_front().expect("no head frame to finish");
        mac.retries = 0;
        mac.cw = CW_MIN;
        if !mac.queue.is_empty() {
            self.arm_attempt(node, self.now);
        }
        frame
    }

    /// Applies unicast failure policy: retry with doubled CW, or give up.
    /// Returns the dropped frame once the retry limit is exhausted.
    fn unicast_retry_or_fail(&mut self, node: usize) -> Option<OutFrame<M>> {
        let mac = &mut self.macs[node];
        mac.retries += 1;
        if mac.retries > RETRY_LIMIT {
            self.tally.add(engine::SEND_FAIL, 1);
            Some(self.finish_head_frame(node))
        } else {
            mac.cw = next_cw(mac.cw);
            self.tally.add(engine::UNICAST_RETRY, 1);
            self.arm_attempt(node, self.now);
            None
        }
    }
}

impl<P: Protocol, O: Observer<P>> Engine<P, O> {
    // ag-lint: hot-path
    /// A transmission leaves the air: compute who heard it, advance the
    /// sender's MAC, and deliver.
    pub(super) fn handle_tx_end(&mut self, tx_id: u64) {
        let (world, protocols, obs) = (&mut self.world, &mut self.protocols, &mut self.obs);
        let rx = &mut self.rx;
        let Some((shot, PendingTx { sender, frame })) = world.air.finish(tx_id) else {
            debug_assert!(false, "TxEnd for unknown transmission");
            return;
        };
        if world.tx_of[sender] != Some(tx_id) {
            // The sender's radio failed mid-transmission (churn): the
            // frame was truncated on the air, nobody decodes it, and
            // the sender's MAC state is long gone.
            world.air.prune();
            return;
        }
        world.tx_of[sender] = None;
        // The one place the production kernel and its brute-force
        // oracle part ways (`PhyParams::with_spatial_index`).
        let lost = if world.phy.spatial_index() {
            let view = RxView {
                phy: &world.phy,
                now: world.now,
                legs: &world.legs,
                down: &world.down,
                up_since: &world.up_since,
                air: &world.air,
                channel_seed: world.channel_seed,
                bound: world.bound,
            };
            receive::receivers(&view, rx, tx_id, &shot, sender)
        } else {
            reference::receivers(world, tx_id, &shot, sender, &mut rx.receivers)
        };
        world.tally.add(engine::RX_COLLISION, lost.collisions);
        world.tally.add(engine::RX_CHANNEL_DROP, lost.channel_drops);
        world.air.prune();
        let receivers = &rx.receivers;
        let from = NodeId::new(sender as u32);
        let packet = |msg, rx| Dispatch::Packet { from, msg, rx };
        match frame.dest {
            None => {
                // Broadcast: the sender is done with this frame regardless
                // of who heard it. The per-receiver clone is the
                // `Message` cheap-clone contract at work: for `Arc`-backed
                // payloads it is a refcount bump, not a deep copy.
                world.finish_head_frame(sender);
                world
                    .tally
                    .add(engine::RX_DELIVERED, receivers.len() as u64);
                // Above a cache-resident population, two passes: every
                // receiver first loads what its handler is about to
                // probe, so the receivers' cold misses overlap
                // (`Protocol::prefetch` cannot change state); then the
                // handlers run in order.
                if protocols.len() > PREFETCH_ABOVE_NODES {
                    for &r in receivers {
                        protocols[r].prefetch(from, &frame.msg);
                    }
                }
                for &r in receivers {
                    let heard = packet(frame.msg.clone(), RxKind::Broadcast);
                    Self::upcall(world, protocols, obs, r, heard);
                }
            }
            Some(dest) if receivers.contains(&dest.index()) => {
                world.tally.add(engine::RX_DELIVERED, 1);
                world.finish_head_frame(sender);
                // Exactly one receiver: the air record's copy of the
                // frame is moved, not cloned.
                let heard = packet(frame.msg, RxKind::Unicast);
                Self::upcall(world, protocols, obs, dest.index(), heard);
            }
            Some(to) => {
                if let Some(OutFrame { msg, .. }) = world.unicast_retry_or_fail(sender) {
                    let failure = Dispatch::SendFailure { to, msg };
                    Self::upcall(world, protocols, obs, sender, failure);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_scales_with_payload() {
        assert!(airtime(1000) > airtime(0));
        // 64-byte paper payload: 192 µs preamble + (28+64)·8 bits / 2 Mbps = 192 + 368 µs.
        assert_eq!(airtime(64), SimDuration::from_micros(192 + 368));
    }

    #[test]
    fn ack_overhead_is_positive_and_small() {
        // SIFS 10 µs + preamble 192 µs + 14·8 bits / 2 Mbps = 56 µs.
        assert_eq!(ack_overhead(), SimDuration::from_micros(10 + 192 + 56));
        assert!(ack_overhead() < airtime(64));
    }

    #[test]
    fn bexp_backoff_caps() {
        assert_eq!(next_cw(31), 63);
        assert_eq!(next_cw(63), 127);
        assert_eq!(next_cw(1023), 1023);
        let mut cw = CW_MIN;
        for _ in 0..20 {
            cw = next_cw(cw);
        }
        assert_eq!(cw, CW_MAX);
    }
}
