//! The receiver-set kernel: who hears a finished transmission
//! uncorrupted.
//!
//! [`receivers`] is the one production rendering of that question — a
//! straight-line function of a read-only [`RxView`] of the world and
//! one owned [`RxScratch`]. It selects no path: the brute-force oracle
//! it is differentially tested against lives in [`crate::reference`],
//! and `Engine::handle_tx_end` picks between the two once per `TxEnd`.
//!
//! # Neighbour lists
//!
//! After Verlet's neighbour lists (L. Verlet, *Phys. Rev.* 159, 98,
//! 1967), each sender caches every node within `R + skin` of a shot it
//! sent, fetched by one [`NodeGrid::query_disk`] at that radius, and
//! its later `TxEnd`s skip the grid while the list is [`fresh`]. That
//! is safe because a sender has one frame on the air (a `TxEnd` whose
//! sender keyed up again mid-frame is truncated and builds nothing):
//! from the built shot's start `t0` to a later shot's the sender moves
//! at most `v̄·(t − t0)`, from the build to `t` so does every node, so a
//! node in range of the later shot is on the list while
//! `2·v̄·(t − t0) ≤ skin − ε`, unless motion broke the bound
//! ([`MotionBound`]'s void). A node that went down after a build stays
//! listed: pass 3's liveness test keeps it out.
//!
//! # The snapshot behind them
//!
//! A rebuild fetches from [`NodeGrid`], every up node's position at one
//! instant `tₛ`, and widens its query by `v̄·(t − tₛ)`, as far as any
//! node can have moved since. The same bound judges it: it is retaken
//! once a void falls at or after `tₛ` (a radio that recovered was left
//! out while down) or the widening would pass half the skin. That is
//! the linked-cell list molecular dynamics pairs with Verlet's.

use ag_mobility::{LegSample, Vec2};
use ag_sim::SimTime;

use super::motion::MotionBound;
use crate::grid::{bounds, AirIndex, NodeGrid, TxShot, GRID_PAD};
use crate::phy::shadow_eff_range_sq;
use crate::{PhyParams, ReceptionModel};

/// Node-grid cell size as a fraction of the radio range. Cells at the
/// full range make every disk query fetch a ~3 × 3-cell box — nine
/// times the disk's area in candidates, all paying the distance test.
/// Half-range cells tighten the fetched box for a fraction of the
/// per-query work; the exact per-candidate distance test makes the cell
/// size invisible in results. Below one half, per-query cell iteration
/// overhead starts winning back the savings. (Measured with a query at
/// `R` per `TxEnd`; now only rebuilds query, at `R + skin` and drift.)
const GRID_CELL_FACTOR: f64 = 0.5;

/// Largest node count for which the engine pre-allocates the dense
/// `n × n` per-link shadowing cache (8 MiB of `f64` at the cap). Above
/// this, shadowing decisions recompute the Box–Muller transform per
/// reception. What the cache buys: with it disabled (cap 0), `agbench`'s
/// `stress_harsh` (40 nodes, half its jobs shadowed) read `wall_s`
/// 2.665 [2.614, 2.834] → 3.226 [3.022, 3.248] s (median [quartiles],
/// +21 %), slower in 6 of 6 alternating pairs at seed 7 on a 2-CPU
/// host, `result_digest` `f8c81bb0290f6056` on both sides.
const SHADOW_CACHE_MAX_NODES: usize = 1024;

/// The lists' skin as a fraction of `R`: wider lives longer but lists
/// more for pass 2 to reject. Hit rates, first three workloads below:
/// 91 / 84 / 75 % at 1/16, 95 / 90 / 84 % at 1/8, 97 / 92 / 92 % at
/// 1/4, whose 50-id `city_20k` slot costs 1 MB more RSS than 40.
const SKIN: f64 = 1.0 / 8.0;

/// A slot holds this many times the mean count within `R + skin` of a
/// node ([`stride_for`]). `TxEnd`s whose neighbourhood outgrew its slot,
/// then `TxEnd`s a list served, on `paper_sweep` / `stress_harsh` /
/// `city_20k` / 100k-node `city_scale` (seed 7): 2×: 0.2 / 0 / 0 / 0 %,
/// 94.9 / 89.6 / 84.0 / 72.4 %; 1.5×: 4.9 / 0 / 0.9 / 1.1 %, 90.4 /
/// 89.6 / 83.3 / 71.7 %, for 0.7 MB less RSS on `city_20k` and 4 MB at
/// 100k; 1.25×: 11 / 0.03 / 9.4 / 9.8 %, 84.3 / 89.5 / 76.2 / 65.3 %.
const SLOT_HEADROOM: f64 = 2.0;

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
    pub air: &'a AirIndex<F>,
    pub channel_seed: u64,
    pub bound: MotionBound,
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
    /// Where rebuilds fetch candidates: every up node's position at
    /// `taken`, by cell.
    grid: NodeGrid,
    taken: SimTime,
    /// Pass 1 leaves the candidate ids at the front; pass 2
    /// compacts the in-range ones to the front in place, with each
    /// one's position at the same index of `pos`.
    ids: Vec<u32>,
    pos: Vec<Vec2>,
    /// Per sender: the start of the shot its list was built for (the
    /// initial zero is never [`fresh`]) and the list's length in its
    /// `stride` ids of `slab`, at `sender * stride`. A list is
    /// ascending, as [`rebuild`] leaves its candidates.
    lists: Vec<(SimTime, u32)>,
    slab: Vec<u32>,
    stride: usize,
    /// Memoized per-link squared effective range for the shadowing
    /// model, indexed `a * n + b` with `a <= b` (the gain is reciprocal
    /// and static). `NaN` marks an uncomputed entry — the gain math can
    /// never produce one. Empty unless the model is `Shadowing` and `n`
    /// is small enough to afford `n²` entries.
    shadow_cache: Vec<f64>,
}

impl RxScratch {
    /// Buffers start at their natural bounds (receivers and overlapping
    /// transmissions are each capped by `n`, and so are the candidates'
    /// positions; their ids take a write one past the last, so `n + 1`)
    /// instead of discovering their high-water push by push — each
    /// discovery is a rare, late reallocation the zero-allocation gate
    /// would catch. The grid's box covers the starting legs' endpoints.
    /// The oracle keeps no lists and takes no snapshot, so it has no
    /// slab and no snapshot ids.
    pub fn new(phy: &PhyParams, legs: &[LegSample]) -> Self {
        let n = legs.len();
        let cached = matches!(phy.reception(), ReceptionModel::Shadowing { .. })
            && n <= SHADOW_CACHE_MAX_NODES;
        let indexed = phy.spatial_index() as usize;
        let stride = indexed * stride_for(legs, phy.range_m() * (1.0 + SKIN));
        let ends = bounds(legs.iter().flat_map(|leg| [leg.from, leg.to]));
        RxScratch {
            receivers: Vec::with_capacity(n),
            overlaps: Vec::with_capacity(n),
            grid: NodeGrid::new(GRID_CELL_FACTOR * phy.range_m(), indexed * n, ends),
            taken: SimTime::ZERO,
            ids: vec![0; n + 1],
            pos: Vec::with_capacity(n),
            lists: vec![(SimTime::ZERO, 0); n],
            slab: vec![0; n * stride],
            stride,
            shadow_cache: vec![f64::NAN; if cached { n * n } else { 0 }],
        }
    }
}

/// Ids per slot: [`SLOT_HEADROOM`] times the mean count within `reach`
/// were the nodes spread evenly over their starting bounding box (each
/// side at least the disk's diameter, so a line or a point reads as an
/// area); at least 8, at most `n − 1` and 1,024, past which pass 2
/// dwarfs the walk a list saves and the slab nears `n²`.
fn stride_for(legs: &[LegSample], reach: f64) -> usize {
    let (lo, hi) = bounds(legs.iter().map(|leg| leg.position_at(SimTime::ZERO)));
    let side = |d: f64| d.max(2.0 * reach);
    let area = side(hi.x - lo.x) * side(hi.y - lo.y);
    let mean = legs.len() as f64 * std::f64::consts::PI * reach * reach / area;
    ((SLOT_HEADROOM * mean).ceil().clamp(8.0, 1024.0) as usize).min(legs.len() - 1)
}

// ag-lint: hot-path
/// `true` while a list built for a shot that started at `start` may
/// serve its sender's `TxEnd` at `now`: no void at or after `start`,
/// and `2·v̄·(now − start) ≤ skin − ε`, with `ε` four [`GRID_PAD`]s of
/// rounding slack. With `v̄ = 0` a list lives until a void.
fn fresh(bound: &MotionBound, start: SimTime, now: SimTime, range: f64) -> bool {
    let life_ns = (range * SKIN - 4.0 * GRID_PAD) / (2.0 * bound.speed);
    bound.voided_at < start && now.duration_since(start).as_nanos() as f64 <= life_ns
}

// ag-lint: hot-path
/// Pass 2's positions: each of `ids`' node at `now`, into `pos`.
fn measure(legs: &[LegSample], now: SimTime, ids: &[u32], pos: &mut Vec<Vec2>) {
    pos.clear();
    pos.extend(ids.iter().map(|&rid| legs[rid as usize].position_at(now)));
}

// ag-lint: hot-path
/// Fetches `sender`'s candidates afresh: the snapshot's buckets within
/// `R + skin` of `shot` and its drift, retaking it first if stale, the
/// sender left out; sorted ascending, measured, the ones within reach
/// compacted to the front. Caches them as the sender's list if they fit
/// its slot; returns their count.
fn rebuild<F>(view: &RxView<'_, F>, s: &mut RxScratch, shot: &TxShot, sender: usize) -> usize {
    let range = view.phy.range_m();
    let reach = range * (1.0 + SKIN);
    let mut drift = view.bound.speed * view.now.duration_since(s.taken).as_nanos() as f64;
    if view.bound.voided_at >= s.taken || drift > range * SKIN / 2.0 {
        s.pos.clear();
        s.pos
            .extend(view.legs.iter().map(|leg| leg.position_at(view.now)));
        s.grid.retake(&s.pos, view.down);
        (s.taken, drift) = (view.now, 0.0);
    }
    let mut found = 0;
    s.grid.query_disk(shot.pos, reach + drift, |bucket| {
        for &rid in bucket {
            s.ids[found] = rid;
            found += (rid as usize != sender) as usize;
        }
    });
    s.ids[..found].sort_unstable();
    measure(view.legs, view.now, &s.ids[..found], &mut s.pos);
    let mut kept = 0;
    for i in 0..found {
        let (rid, rpos) = (s.ids[i], s.pos[i]);
        s.ids[kept] = rid;
        s.pos[kept] = rpos;
        kept += (shot.pos.distance_sq(rpos) <= reach * reach) as usize;
    }
    if kept <= s.stride {
        s.slab[sender * s.stride..][..kept].copy_from_slice(&s.ids[..kept]);
        s.lists[sender] = (shot.start, kept as u32);
    }
    kept
}

// ag-lint: hot-path
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

// ag-lint: hot-path
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
    // Pass 1, candidates at `now`: the sender's fresh list, or a rebuild.
    let (start, len) = s.lists[sender];
    let found = if fresh(&view.bound, start, view.now, range) {
        let list = &s.slab[sender * s.stride..][..len as usize];
        s.ids[..list.len()].copy_from_slice(list);
        measure(view.legs, view.now, list, &mut s.pos);
        list.len()
    } else {
        rebuild(view, s, shot, sender)
    };
    // Pass 2, measure: the in-range candidates compacted to the front.
    let mut near = 0;
    for i in 0..found {
        let (rid, rpos) = (s.ids[i], s.pos[i]);
        s.ids[near] = rid;
        s.pos[near] = rpos;
        near += (shot.pos.distance_sq(rpos) <= range * range) as usize;
    }
    // Pass 3, decide: the per-receiver logic over the in-range few,
    // ascending because every candidate list is.
    s.receivers.clear();
    for (&rid, &rpos) in s.ids[..near].iter().zip(&s.pos[..near]) {
        let r = rid as usize;
        // A down radio hears nothing, and a cached list may still hold
        // one that failed after the list was built: this test is what
        // keeps it out. A radio that recovered mid-frame missed the
        // frame's head and cannot decode the rest.
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
            s.receivers.push(r);
        }
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::SimDuration;
    use proptest::prelude::*;

    /// A node's legs so far, each with the instant it was loaded.
    type History = Vec<(SimTime, LegSample)>;

    /// Where the node of `h` stood at `t`.
    fn pos(h: &History, t: SimTime) -> Vec2 {
        let (_, leg) = h
            .iter()
            .rev()
            .find(|(at, _)| *at <= t)
            .expect("a leg from zero");
        leg.position_at(t)
    }

    fn parked(points: &[(f64, f64)]) -> Vec<LegSample> {
        points
            .iter()
            .map(|&(x, y)| LegSample::fixed(Vec2::new(x, y)))
            .collect()
    }

    #[test]
    fn stride_follows_the_starting_density() {
        // 60 nodes over a kilometre square at reach 56.25: a mean of
        // 0.6 in reach, so the floor.
        let spread: Vec<_> = (0..60)
            .map(|i| ((i % 8) as f64 * 140.0, (i / 8) as f64 * 140.0))
            .collect();
        assert_eq!(stride_for(&parked(&spread), 56.25), 8);
        // The paper's 40 nodes on 200 m × 200 m: a list can hold everyone.
        let paper: Vec<_> = (0..40)
            .map(|i| ((i % 7) as f64 * 33.0, (i / 7) as f64 * 33.0))
            .collect();
        assert_eq!(stride_for(&parked(&paper), 95.625), 39);
        // A line reads as a strip one disk wide: 100 · π · 10² / (99 · 20)
        // ≈ 15.9 in reach, twice that rounded up.
        let line: Vec<_> = (0..100).map(|i| (i as f64, 0.0)).collect();
        assert_eq!(stride_for(&parked(&line), 10.0), 32);
        // 3,000 nodes on one point: the cap, not n − 1.
        assert_eq!(stride_for(&parked(&[(5.0, 5.0); 3000]), 10.0), 1024);
    }

    /// A jump voids the lists up to its arrival, not every list after
    /// it: `v̄` stays the walkers' (here 0), and a list built for a shot
    /// that started after the arrival is served until the next void.
    #[test]
    fn list_built_after_a_jump_is_served() {
        let legs = parked(&[(0.0, 0.0), (50.0, 0.0)]);
        let mut bound = MotionBound::new(&legs);
        let (load, arrive) = (SimTime::from_secs(2), SimTime::from_secs(4));
        let hop = LegSample::jump(Vec2::new(0.0, 0.0), Vec2::new(500.0, 0.0), arrive);
        bound.load(&legs[0], &hop, load);
        assert_eq!(bound.speed, 0.0);
        let ms = SimTime::from_millis;
        assert!(
            !fresh(&bound, ms(1_000), ms(1_500), 75.0),
            "built before the load"
        );
        assert!(
            !fresh(&bound, ms(3_000), ms(3_500), 75.0),
            "built between load and arrival"
        );
        assert!(
            !fresh(&bound, arrive, ms(4_500), 75.0),
            "built at the arrival"
        );
        assert!(
            fresh(&bound, ms(4_001), ms(60_000), 75.0),
            "built after the arrival"
        );
    }

    proptest! {
        /// The snapshot rule against brute force. Nodes walk straight
        /// legs at random speeds (some parked) while radios fail and
        /// recover (each recovery a void); at random instants a random
        /// sender rebuilds. Whatever snapshot the rebuild fetched from,
        /// it lists every up node within `R + skin` of the shot now,
        /// and nothing farther.
        #[test]
        fn prop_rebuild_lists_every_node_in_reach(
            range in 5.0f64..80.0,
            vmax in 0.1f64..40.0,
            walks in prop::collection::vec(((0.0f64..200.0, 0.0f64..200.0), (0.0f64..200.0, 0.0f64..200.0), 0.0f64..1.0), 2..30),
            ops in prop::collection::vec((0u64..60, 0usize..30, 0u8..8), 1..80),
        ) {
            let legs: Vec<LegSample> = walks
                .iter()
                .map(|&((x0, y0), (x1, y1), frac)| {
                    let (a, b) = (Vec2::new(x0, y0), Vec2::new(x1, y1));
                    let travel = SimDuration::from_secs_f64(a.distance_to(b) / (frac * vmax).max(0.05));
                    if frac < 0.15 { LegSample::fixed(a) } else { LegSample::moving(a, b, SimTime::ZERO, SimTime::ZERO + travel) }
                })
                .collect();
            let n = legs.len();
            let phy = PhyParams::paper_default(range);
            let mut s = RxScratch::new(&phy, &legs);
            let mut bound = MotionBound::new(&legs);
            let (air, up_since) = (AirIndex::<()>::new(), vec![SimTime::ZERO; n]);
            let mut down = vec![false; n];
            let reach = range * (1.0 + SKIN);
            let mut now = SimTime::ZERO;
            for &(step, who, kind) in &ops {
                now += SimDuration::from_millis(step);
                let node = who % n;
                if kind == 0 {
                    down[node] = !down[node];
                    if !down[node] {
                        bound.voided_at = bound.voided_at.max(now);
                    }
                    continue;
                }
                let pos = legs[node].position_at(now);
                let shot = TxShot { start: now, end: now + SimDuration::from_millis(1), pos };
                let view = RxView { phy: &phy, now, legs: &legs, down: &down, up_since: &up_since, air: &air, channel_seed: 0, bound };
                let kept = rebuild(&view, &mut s, &shot, node);
                let listed = &s.ids[..kept];
                for r in (0..n).filter(|&r| r != node) {
                    let near = pos.distance_sq(legs[r].position_at(now)) <= reach * reach;
                    prop_assert!(!near || down[r] || listed.contains(&(r as u32)), "node {} in reach of {} at {:?} but not listed", r, node, now);
                    prop_assert!(near || !listed.contains(&(r as u32)), "node {} listed out of reach", r);
                }
                prop_assert!(!listed.contains(&(node as u32)), "the sender listed itself");
            }
        }

        /// The list rule against brute force. A few nodes load random
        /// legs — moves at random speeds, parked starts, pauses, jumps
        /// and restarts elsewhere — while lists are built at random
        /// `TxEnd`s, for shots that started up to 20 ms earlier (across
        /// leg loads), and used at random later ones whose shots start
        /// after the build. Whenever [`fresh`] calls a list valid, it
        /// holds every node within range of the later shot.
        #[test]
        fn prop_fresh_list_holds_every_receiver(
            range in 5.0f64..80.0,
            vmax in 0.1f64..40.0,
            starts in prop::collection::vec((0.0f64..200.0, 0.0f64..200.0), 2..7),
            ops in prop::collection::vec(((0u8..16, 0usize..7), 1u64..2_000, (0.0f64..200.0, 0.0f64..200.0), 0.0f64..1.0), 1..200),
        ) {
            let n = starts.len();
            let mut hist: Vec<History> = parked(&starts).into_iter().map(|leg| vec![(SimTime::ZERO, leg)]).collect();
            let mut bound = MotionBound::new(&parked(&starts));
            // Per sender: the built shot's start, the build's instant, the list.
            let mut lists: Vec<Option<(SimTime, SimTime, Vec<usize>)>> = vec![None; n];
            let mut now = SimTime::ZERO;
            let reach = range * (1.0 + SKIN);
            for &((kind, i), step, (x, y), frac) in &ops {
                now += SimDuration::from_micros(100 * step);
                let node = i % n;
                let here = pos(&hist[node], now);
                let there = Vec2::new(x, y);
                let travel = SimDuration::from_secs_f64(here.distance_to(there) / (frac * vmax).max(0.01));
                let later = now + SimDuration::from_micros(50 * step);
                let leg = match kind {
                    0..=2 => LegSample::moving(here, there, now, now + travel),
                    3 => LegSample::moving(here, there, later, later + travel),
                    4 => LegSample { depart: later, arrive: later, ..LegSample::fixed(here) },
                    5 => LegSample::moving(there, here, now, now + travel),
                    6 if frac < 0.1 => LegSample::jump(here, there, later),
                    _ => {
                        let shot_start = SimTime::from_nanos(now.as_nanos().saturating_sub(10_000 * step));
                        if kind < 11 {
                            let s0 = pos(&hist[node], shot_start);
                            let within = (0..n)
                                .filter(|&r| r != node && s0.distance_sq(pos(&hist[r], now)) <= reach * reach)
                                .collect();
                            lists[node] = Some((shot_start, now, within));
                        } else if let Some((t0, built, within)) = &lists[node] {
                            if fresh(&bound, *t0, now, range) {
                                let s1 = pos(&hist[node], shot_start.max(*built));
                                for r in (0..n).filter(|&r| r != node) {
                                    let d_sq = s1.distance_sq(pos(&hist[r], now));
                                    prop_assert!(d_sq > range * range || within.contains(&r),
                                        "node {} at {:?} is in range but not on {}'s list", r, now, node);
                                }
                            }
                        }
                        continue;
                    }
                };
                bound.load(&hist[node].last().expect("a leg from zero").1, &leg, now);
                hist[node].push((now, leg));
            }
        }
    }
}
