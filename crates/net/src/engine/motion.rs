//! Node motion and radio churn, and the bound on motion that the
//! receive kernel's caches are judged by. Nothing here draws from a
//! protocol or MAC stream.

use ag_mobility::LegSample;
use ag_sim::{SimDuration, SimTime};

use super::{Event, World};
use crate::mac::{MacState, OutFrame};
use crate::Message;

/// What the receive kernel's neighbour lists and snapshot must know of
/// motion.
#[derive(Debug, Clone, Copy)]
pub(super) struct MotionBound {
    /// `v̄`, m/ns: the fastest `|to − from| / (arrive − depart)` of any
    /// leg loaded so far, read at each use, so a faster leg shortens
    /// every list at once.
    pub speed: f64,
    /// The latest instant motion broke the bound: a leg load that broke
    /// continuity (`Mobility` does not promise it), a jump's arrival
    /// (dated ahead when it is loaded early) or a radio's recovery (left
    /// out of the snapshot while down). Only ever moves forward.
    pub voided_at: SimTime,
}

impl MotionBound {
    /// The bound over the legs the nodes start on.
    pub fn new(legs: &[LegSample]) -> Self {
        let mut bound = MotionBound {
            speed: 0.0,
            voided_at: SimTime::ZERO,
        };
        legs.iter().for_each(|leg| bound.take(leg));
        bound
    }

    /// Takes in `new`, which replaces `old` at `now`.
    pub fn load(&mut self, old: &LegSample, new: &LegSample, now: SimTime) {
        self.take(new);
        if new.position_at(now) != old.position_at(now) {
            self.voided_at = self.voided_at.max(now);
        }
    }

    /// Takes in one leg's motion: its speed, or for a jump — a move with
    /// no queryable instant inside its travel — a void at its arrival,
    /// so one teleport does not shorten every list for the rest of the
    /// run.
    fn take(&mut self, leg: &LegSample) {
        match leg.arrive.as_nanos().saturating_sub(leg.depart.as_nanos()) {
            _ if leg.is_static() => {}
            1 => self.voided_at = self.voided_at.max(leg.arrive),
            ns => self.speed = self.speed.max(leg.from.distance_to(leg.to) / ns as f64),
        }
    }
}

impl<M: Message> World<M> {
    /// Advances `node`'s mobility model through the transition due now,
    /// re-reads its leg into the position cache and schedules the next
    /// transition.
    pub(super) fn handle_mobility(&mut self, node: usize) {
        self.mobility[node].transition(self.now, &mut self.mobility_rngs[node]);
        self.hot.mob_transition += 1;
        let leg = self.mobility[node].current_leg();
        self.bound.load(&self.legs[node], &leg, self.now);
        self.legs[node] = leg;
        self.schedule_mobility(node);
    }

    /// Toggles `node`'s radio between up and down and schedules the
    /// next toggle (exponential durations from the node's churn
    /// stream). Failing drops all in-flight MAC state — queued frames,
    /// any armed backoff, a frame mid-air; recovering restarts it with a
    /// clean MAC.
    ///
    /// The queued frames a failure destroys go to `dropped`, so the
    /// engine can report the unicasts among them to the (still
    /// running) stack through `Protocol::on_send_failure`.
    pub(super) fn handle_churn(&mut self, node: usize, dropped: &mut Vec<OutFrame<M>>) {
        let churn = self.phy.churn().expect("churn event without churn model");
        let next_toggle = if self.down[node] {
            self.down[node] = false;
            self.up_since[node] = self.now;
            // Left out of snapshots while down, it is on no list.
            self.bound.voided_at = self.bound.voided_at.max(self.now);
            self.hot.churn_recover += 1;
            churn.sample_up(&mut self.churn_rngs[node])
        } else {
            self.down[node] = true;
            self.hot.churn_fail += 1;
            // Drop in-flight MAC state and invalidate any armed attempt.
            while let Some(frame) = self.macs[node].pop_head() {
                dropped.push(frame);
            }
            self.macs[node].retries = 0;
            self.macs[node].cw = self.phy.cw_min();
            self.macs[node].bump_attempt_gen();
            self.macs[node].set_state(MacState::Idle);
            // A frame mid-air is truncated: disown it so `TxEnd`
            // delivers it to nobody (it still occupies its airtime
            // window for interference purposes until pruned).
            self.tx_of[node] = None;
            churn.sample_down(&mut self.churn_rngs[node])
        };
        self.queue
            .schedule(self.now + next_toggle, Event::Churn { node });
    }

    /// Schedules `node`'s next mobility transition, guarding against
    /// zero-length legs.
    pub(super) fn schedule_mobility(&mut self, node: usize) {
        let next = self.mobility[node].next_transition();
        if next == SimTime::MAX {
            return;
        }
        let at = if next <= self.now {
            self.now + SimDuration::from_nanos(1)
        } else {
            next
        };
        self.queue.schedule(at, Event::Mobility { node });
    }
}
