//! The receiver-set kernel: who hears a finished transmission
//! uncorrupted.
//!
//! [`receivers`] is the one production rendering of that question — a
//! straight-line function of a read-only [`RxView`] of the world and
//! one owned [`RxScratch`]. It selects no path: the brute-force oracle
//! it is differentially tested against lives in [`crate::reference`],
//! and `Engine::handle_tx_end` picks between the two once per `TxEnd`.

use ag_mobility::{LegSample, Vec2};
use ag_sim::SimTime;

use crate::grid::{AirIndex, NodeGrid, TxShot};
use crate::phy::shadow_eff_range_sq;
use crate::{PhyParams, ReceptionModel};

/// Largest node count for which the engine pre-allocates the dense
/// `n × n` per-link shadowing cache (8 MiB of `f64` at the cap). Above
/// this, shadowing decisions recompute the Box–Muller transform per
/// reception.
const SHADOW_CACHE_MAX_NODES: usize = 1024;

/// Receptions a `TxEnd` lost, by cause.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RxCounts {
    /// In range, but another audible transmission overlapped.
    pub collisions: u64,
    /// In range and uncollided, but lost to the (non-ideal) reception
    /// model.
    pub channel_drops: u64,
}

/// What the kernel reads of the world, borrowed for one `TxEnd`.
pub(super) struct RxView<'a, F> {
    pub phy: &'a PhyParams,
    pub now: SimTime,
    pub legs: &'a [LegSample],
    pub down: &'a [bool],
    pub up_since: &'a [SimTime],
    pub grid: &'a NodeGrid,
    pub air: &'a AirIndex<F>,
    pub channel_seed: u64,
}

/// Everything the kernel writes: its reusable buffers and the receiver
/// list it produces. Owned by the `Engine` beside the `World`, not
/// inside it, so the delivery loop reads `receivers` while protocol
/// handlers mutate the world — the borrow checker, not a hand-back
/// protocol, guarantees the buffers survive each event.
pub(super) struct RxScratch {
    /// The last `TxEnd`'s uncorrupted receivers, ascending.
    pub receivers: Vec<usize>,
    /// Sender positions of the nearby transmissions overlapping this
    /// one's airtime.
    overlaps: Vec<Vec2>,
    /// Per-node visit stamps deduplicating the fetched buckets' ids
    /// without a sort (a node's window can span several queried cells).
    stamps: Vec<u64>,
    stamp: u64,
    /// Pass 1 leaves the unique candidate ids at the front; pass 2
    /// compacts the in-range ones to the front in place, with each
    /// one's position at the same index of `pos`.
    ids: Vec<u32>,
    pos: Vec<Vec2>,
    /// One bit per node, set for each accepted receiver. Sweeping the
    /// words in order emits the receiver list already ascending, so it
    /// is never sorted; the sweep clears the bits behind itself.
    recv_bits: Vec<u64>,
    /// The `recv_bits` words this `TxEnd` touched (pushed on each
    /// word's 0 → nonzero transition). The sweep visits only these,
    /// sorted, instead of all `n / 64` words: at metropolis scale the
    /// full walk is ~2 KB of streamed zeros per event.
    touched_words: Vec<u32>,
    /// Memoized per-link squared effective range for the shadowing
    /// model, indexed `a * n + b` with `a <= b` (the gain is reciprocal
    /// and static). `NaN` marks an uncomputed entry — the gain math can
    /// never produce one. Empty unless the model is `Shadowing` and `n`
    /// is small enough to afford `n²` entries.
    shadow_cache: Vec<f64>,
}

impl RxScratch {
    /// Buffers start at their natural bounds (receivers and overlapping
    /// transmissions are each capped by `n`, and so are the unique
    /// candidates' positions; their ids take a write one past the last,
    /// so `n + 1`) instead of discovering their high-water push by push
    /// — each discovery is a rare, late reallocation the zero-allocation
    /// gate would catch.
    pub fn new(n: usize, phy: &PhyParams) -> Self {
        let cached = matches!(phy.reception(), ReceptionModel::Shadowing { .. })
            && n <= SHADOW_CACHE_MAX_NODES;
        RxScratch {
            receivers: Vec::with_capacity(n),
            overlaps: Vec::with_capacity(n),
            stamps: vec![0; n],
            stamp: 0,
            ids: vec![0; n + 1],
            pos: Vec::with_capacity(n),
            recv_bits: vec![0; n.div_ceil(64)],
            touched_words: Vec::with_capacity(n.div_ceil(64)),
            shadow_cache: vec![f64::NAN; if cached { n * n } else { 0 }],
        }
    }
}

/// Keyed-hash reception-model decision for one `(transmission,
/// receiver)` pair, serving shadowing decisions from `cache` when one
/// was allocated. Bit-identical to [`ReceptionModel::receives`] (which
/// the oracle calls directly): the cache stores exactly the value
/// `shadow_eff_range_sq` computes, and the comparison is the same.
fn channel_receives<F>(
    view: &RxView<'_, F>,
    cache: &mut [f64],
    tx_id: u64,
    sender: u32,
    receiver: u32,
    dist_sq: f64,
) -> bool {
    let (seed, range) = (view.channel_seed, view.phy.range_m());
    let model = view.phy.reception();
    match model {
        ReceptionModel::Shadowing {
            sigma_db,
            path_loss_exp,
        } if !cache.is_empty() => {
            let (a, b) = (sender.min(receiver), sender.max(receiver));
            let slot = &mut cache[a as usize * view.legs.len() + b as usize];
            if slot.is_nan() {
                *slot = shadow_eff_range_sq(seed, sender, receiver, sigma_db, path_loss_exp, range);
            }
            dist_sq <= *slot
        }
        _ => model.receives(seed, tx_id, sender, receiver, dist_sq, range),
    }
}

/// Fills `s.receivers` with every node that hears transmission `id`
/// (described by `shot`, sent by `sender`) uncorrupted, in ascending
/// node order, and returns what the others lost it to.
///
/// `id` must already be marked finished in the air index.
pub(super) fn receivers<F>(
    view: &RxView<'_, F>,
    s: &mut RxScratch,
    id: u64,
    shot: &TxShot,
    sender: usize,
) -> RxCounts {
    let mut lost = RxCounts::default();
    let range = view.phy.range_m();
    let ideal = view.phy.reception().is_ideal();
    // Without a churn model no radio is ever down and `up_since` stays
    // at time zero, so pass 3's liveness loads can't fire; hoist that
    // fact out of the loop.
    let churny = view.phy.churn().is_some();
    // Gather the overlapping senders near this one in one slab pass;
    // each receiver then answers "am I corrupted?" with a linear scan
    // over that (typically tiny) set instead of probing the air index.
    // Same predicate as the oracle's `AirIndex::corrupts`, same results.
    s.overlaps.clear();
    view.air
        .collect_overlapping(id, shot, range, &mut s.overlaps);
    // Hoisted so the uncontended (empty-overlap) common case skips even
    // the slice-iterator setup per candidate.
    let any_overlap = !s.overlaps.is_empty();
    // Passes 1 and 2 write every slot and advance the length by a 0/1
    // flag: no branch waits on a candidate's data, so pass 2's
    // divisions pipeline instead of each feeding a mispredicted jump.
    //
    // Pass 1, dedupe: the fetched buckets' ids, read in place, each
    // kept once. The sender is pre-stamped, so it is never kept.
    s.stamp += 1;
    let stamp = s.stamp;
    s.stamps[sender] = stamp;
    let mut unique = 0;
    view.grid.query_disk(shot.pos, range, |bucket| {
        for &rid in bucket {
            let fresh = s.stamps[rid as usize] != stamp;
            s.stamps[rid as usize] = stamp;
            s.ids[unique] = rid;
            unique += fresh as usize;
        }
    });
    // Pass 2, measure: the oracle's positions, then the in-range ones
    // compacted to the front.
    let at = |&rid: &u32| view.legs[rid as usize].position_at(view.now);
    s.pos.clear();
    s.pos.extend(s.ids[..unique].iter().map(at));
    let mut near = 0;
    for i in 0..unique {
        let (rid, rpos) = (s.ids[i], s.pos[i]);
        s.ids[near] = rid;
        s.pos[near] = rpos;
        near += (shot.pos.distance_sq(rpos) <= range * range) as usize;
    }
    // Pass 3, decide: the per-receiver logic over the in-range few.
    for (&rid, &rpos) in s.ids[..near].iter().zip(&s.pos[..near]) {
        let r = rid as usize;
        // A down radio hears nothing (it is detached from the grid, so
        // this half only mirrors the oracle's predicate), and a radio
        // that recovered mid-frame missed the frame's head and cannot
        // decode the rest.
        if churny && (view.down[r] || view.up_since[r] > shot.start) {
            continue;
        }
        let dist_sq = shot.pos.distance_sq(rpos);
        let in_range = |p: &Vec2| p.distance_sq(rpos) <= range * range;
        if any_overlap && s.overlaps.iter().any(in_range) {
            lost.collisions += 1;
        } else if !ideal
            && !channel_receives(view, &mut s.shadow_cache, id, sender as u32, rid, dist_sq)
        {
            lost.channel_drops += 1;
        } else {
            let w = r >> 6;
            if s.recv_bits[w] == 0 {
                s.touched_words.push(w as u32);
            }
            s.recv_bits[w] |= 1u64 << (r & 63);
        }
    }
    // Sweep the touched bitset words in ascending order: the list comes
    // out in the oracle's ascending node order without sorting it and
    // without walking the untouched remainder of the bitset.
    s.receivers.clear();
    s.touched_words.sort_unstable();
    for w in s.touched_words.drain(..) {
        let w = w as usize;
        let mut bits = s.recv_bits[w];
        s.recv_bits[w] = 0;
        while bits != 0 {
            s.receivers.push((w << 6) | bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    lost
}
