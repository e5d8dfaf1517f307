//! Node motion and radio churn: everything that moves a node in, out
//! of, or across the spatial index. Nothing here draws from a protocol
//! or MAC stream, and with the index off it reduces to leg caching.

use ag_mobility::LegSample;
use ag_sim::{SimDuration, SimTime};

use super::{Event, World};
use crate::mac::{MacState, OutFrame};
use crate::Message;

/// Node-grid cell size as a fraction of the radio range. Cells at the
/// full range make every disk query fetch a ~3 × 3-cell box — nine
/// times the disk's area in candidates, all paying the dedupe-and-
/// distance test. Half-range cells tighten the fetched box (and halve
/// each node's bucketing-window smear) for a fraction of the per-query
/// work; the exact per-candidate distance test makes the cell size
/// invisible in results. Below one half, per-query cell iteration
/// overhead starts winning back the savings. (Measured with a query at
/// `R` per `TxEnd`; now only neighbour-list rebuilds query, at `R + skin`.)
pub(super) const GRID_CELL_FACTOR: f64 = 0.5;

/// What the receive kernel's neighbour lists must know of motion.
#[derive(Debug, Clone, Copy)]
pub(super) struct MotionBound {
    /// `v̄`, m/ns: the fastest `|to − from| / (arrive − depart)` of any
    /// leg loaded so far (a jump's is its distance per ns), read at each
    /// use, so a faster leg shortens every list at once.
    pub speed: f64,
    /// When a leg load last broke continuity (`Mobility` does not promise
    /// it) or a radio last recovered (detached, it is on no list); dated,
    /// it also voids a list built after its sender jumped mid-shot.
    pub voided_at: SimTime,
}

impl MotionBound {
    /// The bound over the legs the nodes start on.
    pub fn new(legs: &[LegSample]) -> Self {
        MotionBound {
            speed: legs.iter().map(speed_of).fold(0.0, f64::max),
            voided_at: SimTime::ZERO,
        }
    }

    /// Takes in `new`, which replaces `old` at `now`.
    pub fn load(&mut self, old: &LegSample, new: &LegSample, now: SimTime) {
        self.speed = self.speed.max(speed_of(new));
        if new.position_at(now) != old.position_at(now) {
            self.voided_at = now;
        }
    }
}

/// A leg's speed in m/ns; 0 for one whose position never changes.
fn speed_of(leg: &LegSample) -> f64 {
    match leg.arrive.as_nanos().saturating_sub(leg.depart.as_nanos()) {
        0 => 0.0,
        ns => leg.from.distance_to(leg.to) / ns as f64,
    }
}

impl<M: Message> World<M> {
    /// (Re)buckets `node` for the portion of its leg starting now and
    /// spanning roughly half a grid cell of travel, and schedules the
    /// next [`Event::GridRefresh`] if the leg continues past the window.
    ///
    /// Invariant: at every processed instant, each node's bucketed
    /// segment contains its true position — window ends are inclusive
    /// on both sides, so same-instant event ordering cannot break it.
    pub(super) fn slide_window(&mut self, node: usize) {
        let Some(grid) = &mut self.grid else {
            return;
        };
        if self.down[node] {
            // A down radio stays detached; recovery rebuckets it.
            grid.remove_node(node);
            return;
        }
        let leg = self.legs[node];
        let now = self.now;
        if leg.is_static() || now >= leg.arrive {
            let p = leg.position_at(now);
            grid.update_segment(node, p, p);
            return;
        }
        let gen = self.grid_gens[node];
        if now < leg.depart {
            // Parked at the leg's start until it departs.
            grid.update_segment(node, leg.from, leg.from);
            self.queue
                .schedule(leg.depart, Event::GridRefresh { node, gen });
            return;
        }
        let p0 = leg.position_at(now);
        // Time to traverse half a cell at the leg's speed (short windows
        // keep each node in ~1–2 cells, so queries see few duplicate
        // candidates), floored to keep event counts sane for absurdly
        // fast movers.
        let secs_per_cell = leg.arrive.duration_since(leg.depart).as_secs_f64()
            * (0.5 * GRID_CELL_FACTOR * self.phy.range_m())
            / leg.from.distance_to(leg.to);
        let window = SimDuration::from_secs_f64(secs_per_cell.max(1e-6));
        let t1 = now.saturating_add(window);
        if t1 >= leg.arrive {
            grid.update_segment(node, p0, leg.to);
        } else {
            grid.update_segment(node, p0, leg.position_at(t1));
            self.queue.schedule(t1, Event::GridRefresh { node, gen });
        }
    }

    /// Advances `node`'s mobility model through the transition due now,
    /// re-reads its leg into the position cache, rebuckets it and
    /// schedules the next transition.
    pub(super) fn handle_mobility(&mut self, node: usize) {
        self.mobility[node].transition(self.now, &mut self.mobility_rngs[node]);
        self.hot.mob_transition += 1;
        let leg = self.mobility[node].current_leg();
        self.bound.load(&self.legs[node], &leg, self.now);
        self.legs[node] = leg;
        self.grid_gens[node] = self.grid_gens[node].wrapping_add(1);
        self.slide_window(node);
        self.schedule_mobility(node);
    }

    /// Toggles `node`'s radio between up and down and schedules the
    /// next toggle (exponential durations from the node's churn
    /// stream). Failing drops all in-flight MAC state — queued frames,
    /// any armed backoff, a frame mid-air — and detaches the node from
    /// the spatial index; recovering re-attaches it with a clean MAC.
    ///
    /// The queued frames a failure destroys go to `dropped`, so the
    /// engine can report the unicasts among them to the (still
    /// running) stack through `Protocol::on_send_failure`.
    pub(super) fn handle_churn(&mut self, node: usize, dropped: &mut Vec<OutFrame<M>>) {
        let churn = self.phy.churn().expect("churn event without churn model");
        // Either way the node's bucketing windows restart: stale
        // refreshes die on the bumped generation.
        self.grid_gens[node] = self.grid_gens[node].wrapping_add(1);
        let next_toggle = if self.down[node] {
            self.down[node] = false;
            self.up_since[node] = self.now;
            // Detached while the lists were built, it is on none.
            self.bound.voided_at = self.now;
            self.hot.churn_recover += 1;
            // Rebucket at the node's current position (mobility kept
            // advancing while the radio was off).
            self.slide_window(node);
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
            if let Some(grid) = &mut self.grid {
                grid.remove_node(node);
            }
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
