//! The network engine's hot-path indexes: a uniform grid over nodes
//! and a slab of the transmissions on the air.
//!
//! The engine answers two geometric questions constantly:
//!
//! 1. *Who can hear a transmission?* — every `TxEnd` needs the set of
//!    nodes within the unit-disk radius of the sender.
//! 2. *Is the medium busy / is this reception corrupted?* — every MAC
//!    attempt and every delivery needs the transmissions audible at a
//!    point.
//!
//! Answering the first with a linear scan costs `O(N)` per query, which
//! is fine at the paper's 40 nodes and hopeless at city scale, so
//! [`NodeGrid`] indexes **nodes** by the cells their current mobility
//! leg can touch and cuts it to `O(local density)`. The second is asked
//! of far fewer records: [`AirIndex`] owns every transmission record
//! (live and recently finished) in a slab kept in id order — a `TxEnd`
//! finds its record by binary search — and eager pruning keeps it to
//! the transmissions that can still matter, so each query is one pass
//! over the slab.
//!
//! # Cell sizing
//!
//! [`NodeGrid`] cells are `R / 2` for radio range `R` (the engine's
//! `GRID_CELL_FACTOR`): the fetched box hugs the disk more tightly than
//! one-`R` cells would, [`NodeGrid::query_disk`] skips the box's
//! out-of-disk corner cells, and each node's bucketing window smears
//! over less area. The query copies nothing: it lends each fetched
//! bucket to the caller in place. The work per query is independent of
//! field size, and the ids fetched (at most four per node: a half-cell
//! window or a point straddles at most the 2 × 2 cells at a corner)
//! track local density rather than global population. Most `TxEnd`s
//! never query: the receive kernel caches each sender's neighbours
//! within `R + skin` and queries, at that radius, only to rebuild them.
//!
//! # Rebucket-on-mobility-event strategy
//!
//! Node positions change *continuously* during a movement leg, but the
//! engine only touches the index at *events*. The grid buckets each
//! node under every cell a **segment of its current leg** touches
//! (dilated by a small pad, see below):
//!
//! * A pausing (or parked) node covers the single cell of its point.
//! * A moving node covers the sub-segment it will traverse over the
//!   next ~half cell of travel; the engine schedules a grid-refresh
//!   event at the window's end to slide it forward. Random-waypoint
//!   legs can span the whole field, so bucketing entire legs would put
//!   most nodes in most query results — the window keeps each node in
//!   one or two cells at `O(leg length / R)` refresh events per leg,
//!   the same order as the mobility transitions themselves.
//!
//! Rebuckets therefore happen only at mobility events: leg transitions
//! and the window refreshes derived from them. Grid-refresh events
//! mutate nothing but the index — no RNG draws, no protocol state — so
//! enabling the index cannot perturb the simulation. At any instant a
//! node's true position lies on its bucketed segment, so its true cell
//! is always one of its bucket cells: queries are *conservative*, and
//! the engine runs the exact unit-disk distance test on every
//! candidate — a superset of candidates never changes results, only
//! costs.
//!
//! # Exactness and the safety pad
//!
//! Interpolated positions (`from + (to − from)·s`) can land a rounding
//! error off the ideal segment. Bucketing dilates the segment by
//! [`GRID_PAD`] (1 µm — about seven orders of magnitude above the worst
//! interpolation jitter) and disk queries widen their radius by the same
//! pad, so candidate sets are immune to float fuzz while the exact
//! distance test keeps delivery and collision outcomes **identical** to
//! the brute-force scan. That equivalence is enforced two ways: the
//! brute-force scan survives as [`crate::reference`], selected by
//! [`PhyParams::with_spatial_index`](crate::PhyParams::with_spatial_index)
//! `(false)`, and a property test (`tests/differential.rs`) drives both
//! over random scenarios and seeds asserting event-for-event identical
//! behaviour.

use ag_mobility::Vec2;
use ag_sim::SimTime;

/// Dilation applied to leg segments when bucketing and to disk queries,
/// in metres. Must exceed worst-case position interpolation error
/// (~1e-13 m for kilometre-scale fields) by a wide margin while staying
/// far below any radio range.
pub(crate) const GRID_PAD: f64 = 1e-6;

/// A cell coordinate (floor of position / cell size, per axis).
type Cell = (i64, i64);

fn cell_of(p: Vec2, cell: f64) -> Cell {
    (floor_i64(p.x / cell), floor_i64(p.y / cell))
}

/// `q.floor() as i64` without the libm call `floor` compiles to on
/// baseline x86-64 (no `roundsd`): truncate (saturating, NaN → 0), then
/// step down once if truncation rounded a negative fraction up.
fn floor_i64(q: f64) -> i64 {
    let t = q as i64;
    t.saturating_sub(((t as f64) > q) as i64)
}

/// The inclusive cell range covering the disk of radius `r` around `c`.
fn disk_cells(c: Vec2, r: f64, cell: f64) -> (Cell, Cell) {
    let lo = cell_of(Vec2::new(c.x - r, c.y - r), cell);
    let hi = cell_of(Vec2::new(c.x + r, c.y + r), cell);
    (lo, hi)
}

/// The inclusive cell range covering the pad-dilated bounding box of
/// the segment `a`→`b`.
fn segment_cells(a: Vec2, b: Vec2, cell: f64) -> (Cell, Cell) {
    let lo = cell_of(
        Vec2::new(a.x.min(b.x) - GRID_PAD, a.y.min(b.y) - GRID_PAD),
        cell,
    );
    let hi = cell_of(
        Vec2::new(a.x.max(b.x) + GRID_PAD, a.y.max(b.y) + GRID_PAD),
        cell,
    );
    (lo, hi)
}

/// `true` if the segment `a`→`b` comes within `pad` of the axis-aligned
/// cell rectangle `cell_idx` (slab/Liang–Barsky clip against the
/// pad-dilated rectangle).
fn segment_touches_cell(a: Vec2, b: Vec2, cell_idx: Cell, cell: f64, pad: f64) -> bool {
    let min_x = cell_idx.0 as f64 * cell - pad;
    let max_x = (cell_idx.0 + 1) as f64 * cell + pad;
    let min_y = cell_idx.1 as f64 * cell - pad;
    let max_y = (cell_idx.1 + 1) as f64 * cell + pad;
    let d = b - a;
    let mut t0 = 0.0f64;
    let mut t1 = 1.0f64;
    for (p0, dp, lo, hi) in [(a.x, d.x, min_x, max_x), (a.y, d.y, min_y, max_y)] {
        if dp == 0.0 {
            if p0 < lo || p0 > hi {
                return false;
            }
        } else {
            let mut ta = (lo - p0) / dp;
            let mut tb = (hi - p0) / dp;
            if ta > tb {
                std::mem::swap(&mut ta, &mut tb);
            }
            t0 = t0.max(ta);
            t1 = t1.min(tb);
            if t0 > t1 {
                return false;
            }
        }
    }
    true
}

/// Spatial index over nodes: each node is bucketed under every cell its
/// current mobility leg can touch, and rebucketed at leg transitions.
///
/// The buckets are row-major over the axis-aligned bounding box of
/// every cell touched so far. A cell lookup is pure index arithmetic (a
/// hashed lookup per cell dominated query cost in profiles), and every
/// bucket in the box exists, with a capacity floor, from the moment the
/// box grows: a lazy map kept *creating* buckets in steady state, one
/// rare allocation per never-before-used cell, for as long as mobility
/// kept finding new cells. Mobility models are field-clamped, so the
/// box converges to the field's extent shortly after start-up; an
/// out-of-box touch triggers a rare O(cells) regrow.
#[derive(Debug)]
pub(crate) struct NodeGrid {
    cell: f64,
    /// The `dims.0 × dims.1` cells at `origin`, row-major.
    buckets: Vec<Vec<u32>>,
    origin: Cell,
    dims: (i64, i64),
    /// Each node's currently bucketed segment, as flat struct-of-arrays
    /// storage (two `Vec2`s per node — no per-node heap block). The
    /// occupied cells are *recomputed* from the segment on removal with
    /// the same deterministic clip that inserted them, so storing the
    /// cell lists (a `Vec<Cell>` allocation per node, ruinous at
    /// millions of nodes) buys nothing.
    node_seg: Vec<(Vec2, Vec2)>,
    /// Whether the node currently occupies any buckets ([`NodeGrid::
    /// remove_node`] detaches churned-down nodes until re-attached).
    attached: Vec<bool>,
}

impl NodeGrid {
    /// An empty grid for `n` nodes with `cell`-metre cells.
    pub fn new(cell: f64, n: usize) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "invalid grid cell {cell}");
        NodeGrid {
            cell,
            buckets: vec![Vec::new()],
            origin: (0, 0),
            dims: (1, 1),
            node_seg: vec![(Vec2::new(0.0, 0.0), Vec2::new(0.0, 0.0)); n],
            attached: vec![false; n],
        }
    }

    /// Capacity floor for a cell bucket in an `n`-node grid of `cells`
    /// cells: generously above the mean occupancy (`~2n / cells`, a
    /// moving node's window spans a cell or two), capped at `n`.
    /// Mobility keeps nudging each cell's occupancy high-water up for
    /// a long time after start-up; handing every bucket room for a
    /// dense local cluster up front is a few cells × `u32` of memory
    /// and keeps the hot path free of the late, rare `Vec` growth
    /// reallocations it would otherwise see.
    fn floor_for(n: usize, cells: usize) -> usize {
        (16 * (2 * n).div_ceil(cells.max(1)) + 8).min(n)
    }

    /// Row-major index of cell `c`, or `None` outside the box.
    #[inline]
    fn slot(&self, c: Cell) -> Option<usize> {
        let dx = c.0.wrapping_sub(self.origin.0);
        let dy = c.1.wrapping_sub(self.origin.1);
        if dx < 0 || dy < 0 || dx >= self.dims.0 || dy >= self.dims.1 {
            None
        } else {
            Some((dy * self.dims.0 + dx) as usize)
        }
    }

    /// The bucket of cell `c`, which must lie inside the box.
    #[inline]
    fn bucket_mut(&mut self, c: Cell) -> &mut Vec<u32> {
        let slot = self.slot(c).expect("cell outside the grid box");
        &mut self.buckets[slot]
    }

    /// Grows the box to cover `lo..=hi`, preserving contents. Every
    /// bucket gets at least [`NodeGrid::floor_for`] the new cell count:
    /// occupied buckets move over and are topped up to it, the rest
    /// start afresh with exactly it. (An empty bucket's old capacity
    /// was sized for a smaller box's higher occupancy; moving those
    /// over too read +3 % `peak_rss_mb` on `city_20k`.)
    fn grow_to(&mut self, lo: Cell, hi: Cell) {
        let new_origin = (lo.0.min(self.origin.0), lo.1.min(self.origin.1));
        let new_max = (
            hi.0.max(self.origin.0 + self.dims.0 - 1),
            hi.1.max(self.origin.1 + self.dims.1 - 1),
        );
        let new_dims = (new_max.0 - new_origin.0 + 1, new_max.1 - new_origin.1 + 1);
        let floor = Self::floor_for(self.node_seg.len(), (new_dims.0 * new_dims.1) as usize);
        let mut buckets: Vec<Vec<u32>> = (0..new_dims.0 * new_dims.1)
            .map(|_| Vec::with_capacity(floor))
            .collect();
        for dy in 0..self.dims.1 {
            for dx in 0..self.dims.0 {
                let old = &mut self.buckets[(dy * self.dims.0 + dx) as usize];
                if !old.is_empty() {
                    let mut moved = std::mem::take(old);
                    if moved.capacity() < floor {
                        moved.reserve(floor - moved.len());
                    }
                    let nx = self.origin.0 + dx - new_origin.0;
                    let ny = self.origin.1 + dy - new_origin.1;
                    buckets[(ny * new_dims.0 + nx) as usize] = moved;
                }
            }
        }
        self.buckets = buckets;
        self.origin = new_origin;
        self.dims = new_dims;
    }

    /// Calls `f` on the bucket of every cell in `lo..=hi` that the
    /// pad-dilated segment `a`→`b` touches: the one clip-walk insertion
    /// and removal share, so bit-identical floats in give an identical
    /// cell set out and every insertion is found again.
    fn for_touched(
        &mut self,
        (a, b): (Vec2, Vec2),
        (lo, hi): (Cell, Cell),
        mut f: impl FnMut(&mut Vec<u32>),
    ) {
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                if segment_touches_cell(a, b, (cx, cy), self.cell, GRID_PAD) {
                    f(self.bucket_mut((cx, cy)));
                }
            }
        }
    }

    /// Detaches `node` from every cell it occupies (radio churn: a down
    /// node must not appear in any disk query; re-attach by calling
    /// [`NodeGrid::update_segment`] again).
    pub fn remove_node(&mut self, node: usize) {
        if !self.attached[node] {
            return;
        }
        self.attached[node] = false;
        let (a, b) = self.node_seg[node];
        self.for_touched((a, b), segment_cells(a, b, self.cell), |v| {
            if let Some(i) = v.iter().position(|&id| id as usize == node) {
                v.swap_remove(i);
            }
        });
    }

    /// Rebuckets `node` for the trajectory segment `a`→`b` (its next
    /// bucketing window): removes it from its old cells and inserts it
    /// under every cell the (pad-dilated) segment touches. Pass `a == b`
    /// for a parked node.
    pub fn update_segment(&mut self, node: usize, a: Vec2, b: Vec2) {
        self.remove_node(node);
        let (lo, hi) = segment_cells(a, b, self.cell);
        if self.slot(lo).is_none() || self.slot(hi).is_none() {
            self.grow_to(lo, hi);
        }
        self.for_touched((a, b), (lo, hi), |v| v.push(node as u32));
        self.node_seg[node] = (a, b);
        self.attached[node] = true;
    }

    /// Hands `f` the bucket of every cell within radius `r` (+pad) of
    /// `center`, in place, each once, rows ascending. A node may sit in
    /// up to four of them and lie farther than `r`; the caller must
    /// dedupe and run the exact distance test.
    pub fn query_disk(&self, center: Vec2, r: f64, mut f: impl FnMut(&[u32])) {
        let (lo, hi) = disk_cells(center, r + GRID_PAD, self.cell);
        let r_sq = (r + GRID_PAD) * (r + GRID_PAD);
        // Clamp to the dense box: cells outside it are empty.
        let x0 = lo.0.max(self.origin.0);
        let x1 = hi.0.min(self.origin.0 + self.dims.0 - 1);
        let y0 = lo.1.max(self.origin.1);
        let y1 = hi.1.min(self.origin.1 + self.dims.1 - 1);
        for cy in y0..=y1 {
            let row = (cy - self.origin.1) * self.dims.0 - self.origin.0;
            let ny = center
                .y
                .clamp(cy as f64 * self.cell, (cy + 1) as f64 * self.cell);
            let dy_sq = (ny - center.y) * (ny - center.y);
            for cx in x0..=x1 {
                // Skip cells (the fetch box's corners) whose nearest
                // point lies beyond the dilated disk: an in-range node's
                // true position sits on its bucketed segment, so the
                // cell *containing* that position is in the box and
                // passes this test — a rejected cell can only hold that
                // node's duplicate entries, which the caller's dedupe
                // would discard anyway.
                let nx = center
                    .x
                    .clamp(cx as f64 * self.cell, (cx + 1) as f64 * self.cell);
                if (nx - center.x) * (nx - center.x) + dy_sq > r_sq {
                    continue;
                }
                f(&self.buckets[(row + cx) as usize]);
            }
        }
    }
}

/// One transmission's channel-relevant facts: its airtime window and
/// where the sender stood when it keyed up.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxShot {
    /// When the frame hit the air.
    pub start: SimTime,
    /// When it leaves the air.
    pub end: SimTime,
    /// The sender's position at `start` (unit-disk audibility anchor).
    pub pos: Vec2,
}

/// One transmission's record in the air slab: its shot and liveness.
/// Kept small because every query (`busy_until`, `collect_overlapping`,
/// `corrupts`) strides the whole slab.
#[derive(Debug, Clone, Copy)]
struct AirRec {
    id: u64,
    shot: TxShot,
    /// `true` until the transmission's `TxEnd` is processed; finished
    /// records stick around only while their airtime window can still
    /// corrupt an in-flight reception.
    live: bool,
}

/// Every transmission currently relevant to the channel: a dense slab
/// of records, plus each live transmission's sender and frame held in
/// a parallel vector so the scans stay compact. Every query is one
/// linear pass over the slab.
///
/// The slab is its own id index: the engine hands out ascending ids and
/// pruning compacts in place, so records stay in id order and lookup by
/// id is a binary search. The slab is kept tiny by *eager pruning* —
/// after every `TxEnd`, any finished record whose airtime window ends at
/// or before the earliest start among still-live transmissions can no
/// longer overlap an in-flight reception and is dropped; with nothing in
/// the air the slab empties entirely.
#[derive(Debug)]
pub(crate) struct AirIndex<F> {
    /// Ascending by id.
    recs: Vec<AirRec>,
    /// Parallel to `recs`: the sender/frame payload, `None` once
    /// finished.
    frames: Vec<Option<F>>,
    /// Finished records awaiting pruning.
    done_count: usize,
    /// Records still on the air. Carrier-sense asks "is anything
    /// audible *now*?", which with zero live transmissions anywhere is
    /// a guaranteed no — an O(1) answer for the idle-channel common
    /// case, skipping even the asker's position sample.
    live_count: usize,
}

impl<F> AirIndex<F> {
    /// An empty index.
    pub fn new() -> Self {
        AirIndex {
            recs: Vec::new(),
            frames: Vec::new(),
            done_count: 0,
            live_count: 0,
        }
    }

    /// Slab index of `id`, or `None` if unknown/pruned.
    #[inline]
    fn slot_of(&self, id: u64) -> Option<usize> {
        self.recs.binary_search_by_key(&id, |r| r.id).ok()
    }

    /// Registers a transmission going on the air, carrying its payload.
    /// Ids must ascend (the engine's monotone tx-id counter guarantees
    /// this).
    pub fn insert(&mut self, id: u64, shot: TxShot, frame: F) {
        debug_assert!(
            self.recs.last().is_none_or(|r| r.id < id),
            "tx ids must ascend"
        );
        self.recs.push(AirRec {
            id,
            shot,
            live: true,
        });
        self.frames.push(Some(frame));
        self.live_count += 1;
    }

    /// Marks `id` as finished (it keeps corrupting overlapping
    /// receptions until pruned) and returns its shot and payload, or
    /// `None` if unknown.
    pub fn finish(&mut self, id: u64) -> Option<(TxShot, F)> {
        let idx = self.slot_of(id)?;
        debug_assert!(self.recs[idx].live, "TxEnd for finished transmission");
        self.recs[idx].live = false;
        self.done_count += 1;
        self.live_count -= 1;
        let frame = self.frames[idx].take().expect("finished tx lost its frame");
        Some((self.recs[idx].shot, frame))
    }

    /// `true` while at least one transmission is still on the air.
    #[inline]
    pub fn any_live(&self) -> bool {
        self.live_count > 0
    }

    /// The latest time any live transmission audible within `range` of
    /// `pos` stays on the air, or `None` if the medium is free there.
    pub fn busy_until(&self, pos: Vec2, range: f64) -> Option<SimTime> {
        let range_sq = range * range;
        self.recs
            .iter()
            .filter(|r| r.live && r.shot.pos.distance_sq(pos) <= range_sq)
            .map(|r| r.shot.end)
            .max()
    }

    /// Appends to `out` the sender position of every transmission
    /// other than `exclude` — live or finished — whose airtime overlaps
    /// `shot`'s and whose sender stood within `2·range` of `shot`'s.
    ///
    /// One O(slab) pass per `TxEnd` replaces the reference scan's
    /// per-receiver [`AirIndex::corrupts`] probes: a reception of
    /// `shot` at `rpos` is corrupted iff any collected position is
    /// within `range` of `rpos`. Same predicate, same results; an empty
    /// `out` means no receiver is corrupted. The `2·range` cut drops
    /// only transmissions that cannot matter — a receiver is within
    /// `range` of `shot.pos`, so by the triangle inequality nothing
    /// farther than `2·range` from `shot.pos` is within `range` of it —
    /// and keeps each receiver's scan the size of the neighbourhood,
    /// not of the city's air. The bound is widened by a relative 1e-9
    /// so rounding can only keep a record the exact per-receiver test
    /// then rejects, never drop one it would accept.
    pub fn collect_overlapping(
        &self,
        exclude: u64,
        shot: &TxShot,
        range: f64,
        out: &mut Vec<Vec2>,
    ) {
        let near_sq = (2.0 * range) * (2.0 * range) * (1.0 + 1e-9);
        for r in &self.recs {
            if r.id != exclude
                && r.shot.start < shot.end
                && shot.start < r.shot.end
                && r.shot.pos.distance_sq(shot.pos) <= near_sq
            {
                out.push(r.shot.pos);
            }
        }
    }

    /// `true` if any transmission other than `exclude` — live or
    /// finished — overlaps the `[start, end)` airtime window and is
    /// audible within `range` of `at` (i.e. the reception there is
    /// corrupted). Only [`crate::reference`] probes per receiver.
    pub fn corrupts(
        &self,
        exclude: u64,
        start: SimTime,
        end: SimTime,
        at: Vec2,
        range: f64,
    ) -> bool {
        let range_sq = range * range;
        self.recs.iter().any(|r| {
            r.id != exclude
                && r.shot.start < end
                && start < r.shot.end
                && r.shot.pos.distance_sq(at) <= range_sq
        })
    }

    /// Eagerly drops finished transmissions whose airtime window can no
    /// longer overlap any live transmission's reception, compacting the
    /// survivors in place (id order is kept).
    ///
    /// The engine inserts at `now`, so starts ascend with ids: the
    /// oldest live transmission is the *first* live record, and —
    /// airtimes being positive — a record behind it cannot have ended by
    /// its start. Only the finished prefix ahead of it is looked at, and
    /// with a live record at the front nothing is.
    pub fn prune(&mut self) {
        if self.done_count == 0 {
            return;
        }
        let first_live = self
            .recs
            .iter()
            .position(|r| r.live)
            .unwrap_or(self.recs.len());
        let min_live_start = self.recs.get(first_live).map(|r| r.shot.start);
        debug_assert!(
            self.recs[first_live..].iter().all(|r| {
                let m = min_live_start.expect("a record at `first_live`");
                m <= r.shot.start && (r.live || m < r.shot.end)
            }),
            "starts descended behind the first live record"
        );
        let mut kept = 0;
        for i in 0..first_live {
            let r = self.recs[i];
            if min_live_start.is_some_and(|m| r.shot.end > m) {
                // A survivor ahead of the first dropped record stays
                // put; rewriting it onto itself read +3 % `city_20k`.
                if kept != i {
                    self.recs[kept] = r;
                }
                kept += 1;
            }
        }
        // The prefix is finished records: its frames are all `None`.
        self.done_count -= first_live - kept;
        self.recs.drain(kept..first_live);
        self.frames.drain(kept..first_live);
    }

    /// Number of records currently held (live + not-yet-pruned).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.recs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::SimDuration;
    use proptest::prelude::*;

    fn sorted_query(g: &NodeGrid, c: Vec2, r: f64) -> Vec<u32> {
        let mut out = Vec::new();
        g.query_disk(c, r, |bucket| out.extend_from_slice(bucket));
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn point_node_is_found_within_range() {
        let mut g = NodeGrid::new(75.0, 3);
        g.update_segment(0, Vec2::new(10.0, 10.0), Vec2::new(10.0, 10.0));
        g.update_segment(1, Vec2::new(60.0, 10.0), Vec2::new(60.0, 10.0));
        g.update_segment(2, Vec2::new(500.0, 500.0), Vec2::new(500.0, 500.0));
        let got = sorted_query(&g, Vec2::new(0.0, 0.0), 75.0);
        assert!(got.contains(&0));
        assert!(got.contains(&1));
        assert!(!got.contains(&2));
    }

    #[test]
    fn moving_node_is_found_anywhere_on_its_segment() {
        let mut g = NodeGrid::new(50.0, 1);
        // A diagonal window segment; the node must be a candidate near
        // both ends and in the middle.
        g.update_segment(0, Vec2::new(0.0, 0.0), Vec2::new(100.0, 100.0));
        for p in [
            Vec2::new(0.0, 0.0),
            Vec2::new(50.0, 50.0),
            Vec2::new(100.0, 100.0),
        ] {
            assert_eq!(sorted_query(&g, p, 50.0), vec![0], "missing at {p:?}");
        }
        // ...but not far off the segment's corridor.
        assert!(sorted_query(&g, Vec2::new(250.0, 0.0), 50.0).is_empty());
    }

    #[test]
    fn rebucket_replaces_old_cells() {
        let mut g = NodeGrid::new(50.0, 1);
        g.update_segment(0, Vec2::new(10.0, 10.0), Vec2::new(10.0, 10.0));
        assert_eq!(sorted_query(&g, Vec2::new(0.0, 0.0), 50.0), vec![0]);
        g.update_segment(0, Vec2::new(1000.0, 1000.0), Vec2::new(1000.0, 1000.0));
        assert!(sorted_query(&g, Vec2::new(0.0, 0.0), 50.0).is_empty());
        assert_eq!(sorted_query(&g, Vec2::new(990.0, 990.0), 50.0), vec![0]);
    }

    #[test]
    fn remove_node_detaches_until_next_update() {
        let mut g = NodeGrid::new(50.0, 2);
        g.update_segment(0, Vec2::new(10.0, 10.0), Vec2::new(10.0, 10.0));
        g.update_segment(1, Vec2::new(20.0, 10.0), Vec2::new(20.0, 10.0));
        g.remove_node(0);
        assert_eq!(sorted_query(&g, Vec2::new(0.0, 0.0), 50.0), vec![1]);
        // Removing twice is a no-op; re-attach restores queries.
        g.remove_node(0);
        g.update_segment(0, Vec2::new(10.0, 10.0), Vec2::new(10.0, 10.0));
        assert_eq!(sorted_query(&g, Vec2::new(0.0, 0.0), 50.0), vec![0, 1]);
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let mut g = NodeGrid::new(50.0, 1);
        g.update_segment(0, Vec2::new(-10.0, -10.0), Vec2::new(-10.0, -10.0));
        assert_eq!(sorted_query(&g, Vec2::new(0.0, 0.0), 50.0), vec![0]);
    }

    #[test]
    fn segment_cell_test_matches_geometry() {
        // Horizontal segment through row 0 only.
        let a = Vec2::new(5.0, 25.0);
        let b = Vec2::new(145.0, 25.0);
        assert!(segment_touches_cell(a, b, (0, 0), 50.0, GRID_PAD));
        assert!(segment_touches_cell(a, b, (2, 0), 50.0, GRID_PAD));
        assert!(!segment_touches_cell(a, b, (1, 1), 50.0, GRID_PAD));
        assert!(!segment_touches_cell(a, b, (3, 0), 50.0, GRID_PAD));
        // Degenerate (point) segment.
        let p = Vec2::new(75.0, 75.0);
        assert!(segment_touches_cell(p, p, (1, 1), 50.0, GRID_PAD));
        assert!(!segment_touches_cell(p, p, (0, 0), 50.0, GRID_PAD));
    }

    #[test]
    fn cell_box_grows_in_all_four_directions() {
        // Enough nodes that the floor stays under its cap of `N` and
        // shrinks as the box grows.
        const N: usize = 1000;
        let mut b = NodeGrid::new(1.0, N);
        b.bucket_mut((0, 0)).push(7);
        // Right/up, then left/down.
        for (n, (lo, hi)) in [((1, 0), (4, 7)), ((-5, -2), (-1, 0))]
            .into_iter()
            .enumerate()
        {
            assert_eq!(b.slot(lo), None);
            assert_eq!(b.slot(hi), None);
            b.grow_to(lo, hi);
            b.bucket_mut(lo).push(10 + n as u32);
            b.bucket_mut(hi).push(20 + n as u32);
        }
        assert_eq!((b.origin, b.dims), ((-5, -2), (10, 10)));
        assert_eq!(b.buckets.len(), 100);
        for (c, want) in [((0, 0), 7), ((1, 0), 10), ((4, 7), 20), ((-5, -2), 11)] {
            assert_eq!(b.bucket_mut(c), &[want], "contents of {c:?} lost");
        }
        // (-1, 0) came into the box with the second growth and took 21.
        assert_eq!(b.bucket_mut((-1, 0)), &[21]);
        assert_eq!(b.buckets.iter().map(Vec::len).sum::<usize>(), 5);
        // Every bucket has room for the last growth's floor; occupied
        // ones kept the larger capacity the first growth gave them.
        let floor = |cells| NodeGrid::floor_for(N, cells);
        assert!(floor(40) > floor(100) && floor(40) < N);
        assert!(b.buckets.iter().all(|v| v.capacity() >= floor(100)));
        assert!(b.bucket_mut((0, 0)).capacity() >= floor(40));
        for outside in [
            (-6, 0),
            (5, 0),
            (0, -3),
            (0, 8),
            (i64::MAX, 0),
            (0, i64::MIN),
        ] {
            assert_eq!(b.slot(outside), None, "{outside:?}");
        }
    }

    fn shot(start_s: u64, dur_ms: u64, x: f64) -> TxShot {
        TxShot {
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(start_s) + SimDuration::from_millis(dur_ms),
            pos: Vec2::new(x, 0.0),
        }
    }

    #[test]
    fn air_index_busy_and_corruption() {
        let mut air: AirIndex<()> = AirIndex::new();
        air.insert(1, shot(1, 500, 0.0), ());
        air.insert(2, shot(1, 900, 300.0), ());
        // Near tx 1: busy until its end.
        let busy = air.busy_until(Vec2::new(10.0, 0.0), 75.0).unwrap();
        assert_eq!(busy, SimTime::from_secs(1) + SimDuration::from_millis(500));
        // Far from both: free.
        assert!(air.busy_until(Vec2::new(150.0, 0.0), 75.0).is_none());
        // A reception of tx 1 at a point also hearing tx 2 is corrupted.
        assert!(air.corrupts(
            1,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            Vec2::new(300.0, 0.0),
            75.0
        ));
        // ...but not where tx 2 is inaudible.
        assert!(!air.corrupts(
            1,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            Vec2::new(10.0, 0.0),
            75.0
        ));
    }

    /// Every `busy_until` and `collect_overlapping` call strides the
    /// whole slab of these, so the pin makes a new field a decision,
    /// not an accident.
    #[test]
    fn air_record_stays_small() {
        assert_eq!(std::mem::size_of::<AirRec>(), 48);
    }

    #[test]
    fn eager_pruning_drops_irrelevant_done_txs() {
        let mut air: AirIndex<()> = AirIndex::new();
        air.insert(1, shot(1, 100, 0.0), ());
        air.finish(1).unwrap();
        // Nothing live: the finished record is dropped immediately.
        air.prune();
        assert_eq!(air.len(), 0);

        // A finished tx overlapping a live one must survive the prune…
        air.insert(2, shot(2, 100, 0.0), ());
        air.insert(3, shot(2, 400, 10.0), ());
        air.finish(2).unwrap();
        air.prune();
        assert_eq!(air.len(), 2);
        // …until the live one finishes too.
        air.finish(3).unwrap();
        air.prune();
        assert_eq!(air.len(), 0);
    }

    /// The naive counterpart of one [`AirIndex`] record: same facts,
    /// found by linear search.
    #[derive(Debug, Clone, Copy)]
    struct ModelRec {
        id: u64,
        shot: TxShot,
        live: bool,
    }

    fn pos_bits(p: &Vec2) -> (u64, u64) {
        (p.x.to_bits(), p.y.to_bits())
    }

    /// The cases a bit-pattern draw rarely hits.
    #[test]
    fn floor_i64_matches_libm_at_the_edges() {
        let p52 = (1u64 << 52) as f64;
        let p63 = (1u64 << 63) as f64;
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            1.0f64.next_down(),
            1.0f64.next_up(),
            (-1.0f64).next_down(),
            (-1.0f64).next_up(),
            p52,
            -p52,
            p52 - 0.5,
            -p52 + 0.5,
            p63,
            -p63,
            p63.next_down(),
            (-p63).next_down(),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for q in edges {
            assert_eq!(floor_i64(q), q.floor() as i64, "{q:e}");
        }
    }

    proptest! {
        /// `floor_i64` is `q.floor() as i64` over random bit patterns
        /// (NaNs, infinities, subnormals and out-of-range values
        /// included) and one ulp either side of random integers.
        #[test]
        fn prop_floor_i64_matches_libm(
            bits in 0u64..=u64::MAX,
            k in -(1i64 << 53)..(1i64 << 53),
        ) {
            let k = k as f64;
            for q in [f64::from_bits(bits), k, k.next_up(), k.next_down()] {
                prop_assert_eq!(floor_i64(q), q.floor() as i64, "{:e}", q);
            }
        }

        /// Random bucketed segments (points and moving windows) and
        /// random disks, some wholly outside the grid's box: the fetch
        /// hands over each bucket at most once per query, and its ids
        /// include every node whose segment comes within `r` of the
        /// centre.
        #[test]
        fn prop_query_disk_visits_each_bucket_once_and_misses_no_node(
            cell in 5.0f64..80.0,
            segs in prop::collection::vec(((0.0f64..300.0, 0.0f64..300.0), (-40.0f64..40.0, -40.0f64..40.0), 0u8..3), 1..40),
            disks in prop::collection::vec((-400.0f64..700.0, -400.0f64..700.0, 0.1f64..200.0), 1..20),
        ) {
            let mut g = NodeGrid::new(cell, segs.len());
            let mut bucketed = Vec::new();
            for (i, &((x, y), (dx, dy), kind)) in segs.iter().enumerate() {
                let a = Vec2::new(x, y);
                // One in three is a parked point, the rest move.
                let b = if kind == 0 { a } else { Vec2::new(x + dx, y + dy) };
                g.update_segment(i, a, b);
                bucketed.push((a, b));
            }
            for &(cx, cy, r) in &disks {
                let c = Vec2::new(cx, cy);
                let (mut seen, mut ids) = (Vec::new(), Vec::new());
                g.query_disk(c, r, |bucket| {
                    let slot = g.buckets.iter().position(|v| std::ptr::eq(v.as_slice(), bucket));
                    seen.push(slot.expect("a slice of a grid bucket"));
                    ids.extend_from_slice(bucket);
                });
                let fetched = seen.len();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), fetched, "a bucket was handed over twice");
                for (i, &(a, b)) in bucketed.iter().enumerate() {
                    // The closest point of the segment to the centre.
                    let d = b - a;
                    let len_sq = d.x * d.x + d.y * d.y;
                    let t = if len_sq == 0.0 { 0.0 } else { ((c - a).x * d.x + (c - a).y * d.y) / len_sq };
                    let near = a.lerp(b, t.clamp(0.0, 1.0));
                    if near.distance_sq(c) <= r * r {
                        prop_assert!(ids.contains(&(i as u32)), "node {} missed by {:?}", i, (c, r));
                    }
                }
            }
        }

        /// Random insert / finish / prune histories — ascending ids
        /// with gaps, overlapping and nested airtimes, optionally one
        /// long frame holding the slab's front while short ones behind
        /// it finish (which keeps the slab long) — against a `Vec` of
        /// records with linear lookups. `finish` only finds its record
        /// while `prune` keeps the slab in id order.
        #[test]
        fn prop_air_index_matches_naive_model(
            ops in prop::collection::vec((0u8..10, 0.0f64..600.0, 0.0f64..300.0, 1u64..4), 1..160),
            hold_front in 0u8..2,
        ) {
            const RANGE: f64 = 75.0;
            let mut air: AirIndex<u64> = AirIndex::new();
            let mut model: Vec<ModelRec> = Vec::new();
            let mut now = SimTime::from_secs(1);
            let mut next_id = 0u64;
            for (n, &(kind, x, y, step)) in ops.iter().enumerate() {
                let pos = Vec2::new(x, y);
                now += SimDuration::from_micros(100 * step);
                let earliest_end = model.iter().filter(|r| r.live).map(|r| r.shot.end).min();
                if kind < 5 || earliest_end.is_none() {
                    // Key up: a short frame, a long one, or the one
                    // that outlasts the whole history.
                    let airtime = match (n, kind) {
                        (0, _) if hold_front == 1 => SimDuration::from_secs(60),
                        (_, 0) => SimDuration::from_millis(20),
                        _ => SimDuration::from_micros(300 * step),
                    };
                    next_id += step;
                    let shot = TxShot { start: now, end: now + airtime, pos };
                    air.insert(next_id, shot, next_id);
                    model.push(ModelRec { id: next_id, shot, live: true });
                } else if kind < 8 {
                    // The next `TxEnd` due, as the engine would pop it.
                    let end = earliest_end.expect("checked above");
                    let m = model
                        .iter_mut()
                        .find(|r| r.live && r.shot.end == end)
                        .expect("a live record ends then");
                    m.live = false;
                    let ModelRec { id, shot: want, .. } = *m;
                    now = now.max(end);
                    let (shot, frame) = air.finish(id).expect("live tx lost by the slab");
                    prop_assert_eq!(frame, id);
                    prop_assert_eq!((shot.start, shot.end, pos_bits(&shot.pos)),
                                    (want.start, want.end, pos_bits(&want.pos)));
                    air.prune();
                    let min_live_start = model.iter().filter(|r| r.live).map(|r| r.shot.start).min();
                    model.retain(|r| r.live || min_live_start.is_some_and(|s| r.shot.end > s));
                    prop_assert_eq!(air.len(), model.len());
                    if !model.iter().any(|r| r.id == id) {
                        prop_assert!(air.finish(id).is_none(), "pruned id still found");
                    }
                }
                // Every query, every step.
                let busy = model
                    .iter()
                    .filter(|r| r.live && r.shot.pos.distance_sq(pos) <= RANGE * RANGE)
                    .map(|r| r.shot.end)
                    .max();
                prop_assert_eq!(air.busy_until(pos, RANGE), busy);
                prop_assert_eq!(air.any_live(), model.iter().any(|r| r.live));
                let probe = TxShot { start: now, end: now + SimDuration::from_millis(1), pos };
                let exclude = model.first().map_or(0, |r| r.id);
                let near_sq = (2.0 * RANGE) * (2.0 * RANGE) * (1.0 + 1e-9);
                let mut want: Vec<_> = model
                    .iter()
                    .filter(|r| {
                        r.id != exclude
                            && r.shot.start < probe.end
                            && probe.start < r.shot.end
                            && r.shot.pos.distance_sq(pos) <= near_sq
                    })
                    .map(|r| pos_bits(&r.shot.pos))
                    .collect();
                let mut got = Vec::new();
                air.collect_overlapping(exclude, &probe, RANGE, &mut got);
                let mut got: Vec<_> = got.iter().map(pos_bits).collect();
                want.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }
}
