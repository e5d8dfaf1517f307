//! The 802.11 DCF handlers: queueing, backoff arming, carrier sense,
//! putting a frame on the air, and — at `TxEnd` — deciding who heard it
//! and what the sender's MAC does next.

use ag_sim::SimTime;
use rand::Rng;

use super::receive::{self, RxView};
use super::{Engine, Event, PendingTx, World};
use crate::ctx::Dispatch;
use crate::grid::TxShot;
use crate::mac::{MacState, OutFrame};
use crate::{reference, Message, NodeId, Protocol, RxKind};

impl<M: Message> World<M> {
    /// Queues a frame and kicks the MAC if it was idle. Frames from a
    /// down radio are silently discarded (counted): the hardware is
    /// off, so there is no carrier feedback to report.
    pub(super) fn enqueue_frame(&mut self, node: usize, dest: Option<NodeId>, msg: M) {
        if self.down[node] {
            self.hot.down_drop += 1;
            return;
        }
        let accepted = self.macs[node].enqueue(OutFrame { dest, msg });
        if !accepted {
            self.hot.queue_drop += 1;
            return;
        }
        self.hot.enqueued += 1;
        if self.macs[node].state() == MacState::Idle {
            self.arm_attempt(node, self.now);
        }
    }

    /// Arms a DIFS + backoff attempt for `node`'s head frame, counted
    /// from `idle_from`: now for a fresh frame or a retry, the end of
    /// the audible busy period for a deferral.
    fn arm_attempt(&mut self, node: usize, idle_from: SimTime) {
        debug_assert!(
            !self.macs[node].is_empty(),
            "arming attempt with empty queue"
        );
        let cw = self.macs[node].cw;
        let slots = self.mac_rngs[node].random_range(0..=cw) as u64;
        let delay = self.phy.difs() + self.phy.slot() * slots;
        let gen = self.macs[node].bump_attempt_gen();
        self.macs[node].set_state(MacState::Contending);
        self.queue.schedule(
            idle_from.saturating_add(delay),
            Event::MacAttempt { node, gen },
        );
    }

    /// Handles an armed attempt firing: carrier-sense, then transmit or
    /// defer.
    pub(super) fn handle_attempt(&mut self, node: usize, gen: u64) {
        if self.macs[node].attempt_gen != gen || self.macs[node].state() != MacState::Contending {
            return; // stale
        }
        if self.macs[node].is_empty() {
            self.macs[node].set_state(MacState::Idle);
            return;
        }
        // With nothing on the air anywhere, skip even the position sample.
        if self.air.any_live() {
            let pos = self.position(node);
            if let Some(busy_until) = self.air.busy_until(pos, self.phy.range_m()) {
                self.hot.cs_busy += 1;
                self.arm_attempt(node, busy_until);
                return;
            }
        }
        self.start_tx(node);
    }

    /// Puts `node`'s head frame on the air.
    fn start_tx(&mut self, node: usize) {
        // The head frame stays queued until ACKed (unicast) or completed
        // (broadcast), so the air record holds a clone — a refcount bump
        // under the `Message` cheap-clone contract, not a payload copy.
        let frame = self.macs[node]
            .head()
            .expect("start_tx with empty queue")
            .clone();
        let unicast = frame.dest.is_some();
        let mut airtime = self.phy.airtime(frame.msg.wire_size());
        if unicast {
            airtime += self.phy.ack_overhead();
        }
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        self.tx_of[node] = Some(id);
        let end = self.now + airtime;
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
        self.macs[node].set_state(MacState::Transmitting);
        if unicast {
            self.hot.unicast_tx += 1;
        } else {
            self.hot.broadcast_tx += 1;
        }
        self.queue.schedule(end, Event::TxEnd { tx_id: id });
    }

    /// Completes the head frame (success or final drop) and moves the MAC
    /// on to the next queued frame.
    fn finish_head_frame(&mut self, node: usize) -> OutFrame<M> {
        let frame = self.macs[node].pop_head().expect("no head frame to finish");
        self.macs[node].retries = 0;
        self.macs[node].cw = self.phy.cw_min();
        if self.macs[node].is_empty() {
            self.macs[node].set_state(MacState::Idle);
        } else {
            self.arm_attempt(node, self.now);
        }
        frame
    }

    /// Applies unicast failure policy: retry with doubled CW, or give up.
    /// Returns the dropped frame once the retry limit is exhausted.
    fn unicast_retry_or_fail(&mut self, node: usize) -> Option<OutFrame<M>> {
        self.macs[node].retries += 1;
        if self.macs[node].retries > self.phy.retry_limit() {
            self.hot.send_fail += 1;
            Some(self.finish_head_frame(node))
        } else {
            self.hot.unicast_retry += 1;
            self.macs[node].cw = self.phy.next_cw(self.macs[node].cw);
            self.arm_attempt(node, self.now);
            None
        }
    }
}

impl<P: Protocol> Engine<P> {
    /// A transmission leaves the air: compute who heard it, advance the
    /// sender's MAC, and deliver.
    pub(super) fn handle_tx_end(&mut self, tx_id: u64) {
        let (world, protocols, rx) = (&mut self.world, &mut self.protocols, &mut self.rx);
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
        world.hot.rx_collision += lost.collisions;
        world.hot.rx_channel_drop += lost.channel_drops;
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
                world.hot.rx_delivered += receivers.len() as u64;
                // Two passes: every receiver first loads what its
                // handler is about to probe, so the receivers' cold
                // misses overlap (`Protocol::prefetch` cannot change
                // state); then the handlers run in order.
                for &r in receivers {
                    protocols[r].prefetch(from, &frame.msg);
                }
                for &r in receivers {
                    let heard = packet(frame.msg.clone(), RxKind::Broadcast);
                    Self::upcall(world, protocols, r, heard);
                }
            }
            Some(dest) if receivers.contains(&dest.index()) => {
                world.hot.rx_delivered += 1;
                world.finish_head_frame(sender);
                // Exactly one receiver: the air record's copy of the
                // frame is moved, not cloned.
                let heard = packet(frame.msg, RxKind::Unicast);
                Self::upcall(world, protocols, dest.index(), heard);
            }
            Some(to) => {
                if let Some(OutFrame { msg, .. }) = world.unicast_retry_or_fail(sender) {
                    Self::upcall(world, protocols, sender, Dispatch::SendFailure { to, msg });
                }
            }
        }
    }
}
