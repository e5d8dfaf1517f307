//! The reference receiver-set computation: the pre-index brute-force
//! scan, kept — like `ag_sim::reference` for the event queue — as the
//! differential oracle and cost baseline of the production kernel
//! (`engine::receive`). `tests/differential.rs` runs whole engines with
//! and without
//! [`PhyParams::with_spatial_index`](crate::PhyParams::with_spatial_index)
//! and asserts event-for-event identical behaviour.
//!
//! The oracle shares no shortcut with the kernel: it scans all `0..n`
//! nodes, re-enters each boxed mobility model per range check, probes
//! the air slab per receiver, and takes reception decisions straight
//! from [`ReceptionModel::receives`](crate::ReceptionModel::receives)
//! with no per-link cache. Do not call it from new engine code.

use crate::engine::{RxCounts, World};
use crate::grid::TxShot;
use crate::Message;

/// Fills `out` with every node that hears transmission `id` (described
/// by `shot`, sent by `sender`) uncorrupted, in ascending node order,
/// and returns what the others lost it to.
pub(crate) fn receivers<M: Message>(
    world: &World<M>,
    id: u64,
    shot: &TxShot,
    sender: usize,
    out: &mut Vec<usize>,
) -> RxCounts {
    let mut lost = RxCounts::default();
    let (seed, range) = (world.channel_seed, world.phy.range_m());
    let reception = world.phy.reception();
    out.clear();
    for r in 0..world.mobility.len() {
        // A down radio hears nothing, and one that recovered mid-frame
        // missed the frame's head.
        if r == sender || world.down[r] || world.up_since[r] > shot.start {
            continue;
        }
        let rpos = world.mobility[r].position(world.now);
        let dist_sq = shot.pos.distance_sq(rpos);
        if dist_sq > range * range {
            continue;
        }
        if world.air.corrupts(id, shot.start, shot.end, rpos, range) {
            lost.collisions += 1;
        } else if !reception.receives(seed, id, sender as u32, r as u32, dist_sq, range) {
            lost.channel_drops += 1;
        } else {
            out.push(r);
        }
    }
    lost
}
