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
//! [`NodeGrid`] indexes a **snapshot of node positions** by cell and
//! cuts it to `O(local density)`. The second is asked of far fewer
//! records: [`AirIndex`] owns every transmission record (live and
//! recently finished) in a slab kept in id order — a `TxEnd` finds its
//! record by binary search — and eager pruning keeps it to the
//! transmissions that can still matter, so each query is one pass over
//! the slab.
//!
//! # Cell sizing
//!
//! [`NodeGrid`] cells are `R / 2` for radio range `R` (the receive
//! kernel's `GRID_CELL_FACTOR`): the fetched box hugs the disk more
//! tightly than one-`R` cells would, and [`NodeGrid::query_disk`] skips
//! the box's out-of-disk corner cells. The query copies nothing: it
//! lends each fetched bucket to the caller in place. The work per query
//! is independent of field size, and each node sits in exactly one
//! bucket, so the ids fetched track local density rather than global
//! population. Most `TxEnd`s never query: the receive kernel caches
//! each sender's neighbours within `R + skin` and queries only to
//! rebuild them.
//!
//! # A snapshot under a motion bound
//!
//! Nodes move continuously, but the grid holds where they stood at one
//! instant, each in the cell of its position: a linked-cell list (after
//! Hockney & Eastwood, *Computer Simulation Using Particles*, 1981),
//! counting-sorted into two flat arrays. Nothing updates it as nodes
//! move, fail or recover. The receive kernel owns it and retakes it
//! when the motion bound its neighbour lists are judged by says it is
//! stale; until then each query widens by how far any node can have
//! moved since the snapshot, so candidate sets are *conservative*, and
//! the engine runs the exact unit-disk distance test on every candidate
//! — a superset of candidates never changes results, only costs.
//!
//! # Exactness and the safety pad
//!
//! A position's cell comes from a floating division and the kernel's
//! widening from a floating product, so either can land a rounding
//! error off the ideal. Disk queries widen their radius by [`GRID_PAD`]
//! (1 µm — about seven orders of magnitude above the worst such error),
//! so candidate sets are immune to float fuzz while the exact distance
//! test keeps delivery and collision outcomes **identical** to the
//! brute-force scan. That equivalence is enforced two ways: the
//! brute-force scan survives as [`crate::reference`], selected by
//! [`PhyParams::with_spatial_index`](crate::PhyParams::with_spatial_index)
//! `(false)`, and a property test (`tests/differential.rs`) drives both
//! over random scenarios and seeds asserting event-for-event identical
//! behaviour.

use ag_mobility::Vec2;
use ag_sim::SimTime;

/// Widening applied to disk queries, in metres. Must exceed worst-case
/// rounding in a cell or distance computation (~1e-13 m for
/// kilometre-scale fields) by a wide margin while staying far below any
/// radio range.
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

/// The bounding box of `points`: inverted, so no cell lies in it, when
/// there are none.
pub(crate) fn bounds(points: impl Iterator<Item = Vec2>) -> (Vec2, Vec2) {
    let far = (Vec2::new(f64::MAX, f64::MAX), Vec2::new(f64::MIN, f64::MIN));
    points.fold(far, |(lo, hi), p| {
        let min = Vec2::new(lo.x.min(p.x), lo.y.min(p.y));
        (min, Vec2::new(hi.x.max(p.x), hi.y.max(p.y)))
    })
}

/// A snapshot of node positions bucketed by cell: each node handed to
/// [`NodeGrid::retake`] sits in the one bucket of its position's cell.
///
/// The buckets are row-major over a box of cells, stored back to back
/// in two flat arrays, so a cell lookup is index arithmetic and a
/// retake is a counting sort into the same memory. The box is sized at
/// construction and grows only when a snapshot's positions outgrow it;
/// mobility models are field-clamped, so that is rare after start-up.
#[derive(Debug)]
pub(crate) struct NodeGrid {
    cell: f64,
    origin: Cell,
    dims: (i64, i64),
    /// Cell `c`'s bucket is `ids[starts[c]..starts[c + 1]]`, ascending.
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl NodeGrid {
    /// An empty snapshot of up to `n` nodes in `cell`-metre cells, its
    /// box covering the rectangle from `lo` to `hi`.
    pub fn new(cell: f64, n: usize, (lo, hi): (Vec2, Vec2)) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "invalid grid cell {cell}");
        let origin = cell_of(lo, cell);
        let mut grid = NodeGrid {
            cell,
            origin,
            dims: (1, 1),
            starts: Vec::new(),
            ids: vec![0; n],
        };
        grid.cover(origin, cell_of(hi, cell));
        grid
    }

    /// Grows the box to cover `lo..=hi` too. Every retake rewrites
    /// every start, so nothing moves over.
    fn cover(&mut self, lo: Cell, hi: Cell) {
        let (o, d) = (self.origin, self.dims);
        self.origin = (lo.0.min(o.0), lo.1.min(o.1));
        let max = (hi.0.max(o.0 + d.0 - 1), hi.1.max(o.1 + d.1 - 1));
        self.dims = (max.0 - self.origin.0 + 1, max.1 - self.origin.1 + 1);
        self.starts
            .resize((self.dims.0 * self.dims.1) as usize + 1, 0);
    }

    /// Row-major index of cell `c`, which must lie inside the box.
    #[inline]
    fn slot(&self, c: Cell) -> usize {
        ((c.1 - self.origin.1) * self.dims.0 + c.0 - self.origin.0) as usize
    }

    /// Retakes the snapshot: node `i` at `pos[i]`, unless `skip[i]`.
    pub fn retake(&mut self, pos: &[Vec2], skip: &[bool]) {
        debug_assert!(pos.len() == skip.len() && pos.len() <= self.ids.len());
        let kept = || pos.iter().zip(skip).enumerate().filter(|&(_, (_, &s))| !s);
        // `floor` is monotone, so the kept positions' box has every
        // kept cell between its corners' cells.
        let (lo, hi) = bounds(kept().map(|(_, (&p, _))| p));
        let (lo, hi) = (cell_of(lo, self.cell), cell_of(hi, self.cell));
        let (o, d) = (self.origin, self.dims);
        if lo.0 < o.0 || lo.1 < o.1 || hi.0 >= o.0 + d.0 || hi.1 >= o.1 + d.1 {
            self.cover(lo, hi);
        }
        // Count each cell's nodes at its own index, sum the counts into
        // each cell's end, then place the nodes backwards, each stepping
        // its cell's end down: every bucket ends ascending and starting
        // at its index, and the last entry holds the total.
        self.starts.fill(0);
        for (_, (&p, _)) in kept() {
            let c = self.slot(cell_of(p, self.cell));
            self.starts[c] += 1;
        }
        let mut total = 0;
        for s in &mut self.starts {
            total += *s;
            *s = total;
        }
        for (i, (&p, _)) in kept().rev() {
            let c = self.slot(cell_of(p, self.cell));
            self.starts[c] -= 1;
            self.ids[self.starts[c] as usize] = i as u32;
        }
    }

    /// Hands `f` the bucket of every cell within radius `r` (+pad) of
    /// `center`, in place, each once, rows ascending. A bucket may hold
    /// nodes farther than `r`; the caller runs the exact distance test.
    pub fn query_disk(&self, center: Vec2, r: f64, mut f: impl FnMut(&[u32])) {
        let (lo, hi) = disk_cells(center, r + GRID_PAD, self.cell);
        let r_sq = (r + GRID_PAD) * (r + GRID_PAD);
        // Clamp to the box: cells outside it are empty.
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
                // point lies beyond the dilated disk: a node within `r`
                // of the centre sits in the cell containing its
                // position, which passes this test.
                let nx = center
                    .x
                    .clamp(cx as f64 * self.cell, (cx + 1) as f64 * self.cell);
                if (nx - center.x) * (nx - center.x) + dy_sq > r_sq {
                    continue;
                }
                let c = (row + cx) as usize;
                f(&self.ids[self.starts[c] as usize..self.starts[c + 1] as usize]);
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

    /// A snapshot of `points`, none skipped, on a grid whose box was
    /// sized for the first alone.
    fn snapshot(cell: f64, points: &[Vec2]) -> NodeGrid {
        let mut g = NodeGrid::new(cell, points.len(), (points[0], points[0]));
        g.retake(points, &vec![false; points.len()]);
        g
    }

    fn sorted_query(g: &NodeGrid, c: Vec2, r: f64) -> Vec<u32> {
        let mut out = Vec::new();
        g.query_disk(c, r, |bucket| out.extend_from_slice(bucket));
        out.sort_unstable();
        out
    }

    #[test]
    fn point_node_is_found_within_range() {
        let g = snapshot(
            75.0,
            &[
                Vec2::new(10.0, 10.0),
                Vec2::new(60.0, 10.0),
                Vec2::new(500.0, 500.0),
            ],
        );
        assert_eq!(sorted_query(&g, Vec2::new(0.0, 0.0), 75.0), vec![0, 1]);
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let g = snapshot(50.0, &[Vec2::new(-10.0, -10.0)]);
        assert_eq!(sorted_query(&g, Vec2::new(0.0, 0.0), 50.0), vec![0]);
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

        /// Two snapshots of random points, negative coordinates and
        /// skipped nodes included, on one grid whose box grows for the
        /// first and holds the second in a corner: every kept node sits
        /// in exactly one bucket, its cell's, ascending within it; and
        /// against random disks, some wholly outside the box, a query
        /// hands over no bucket twice and fetches every kept node within
        /// `r` of the centre.
        #[test]
        fn prop_query_disk_visits_each_bucket_once_and_misses_no_node(
            cell in 5.0f64..80.0,
            nodes in prop::collection::vec(((-200.0f64..300.0, -200.0f64..300.0), (0.0f64..1.0, 0.0f64..1.0), 0u8..4), 1..40),
            disks in prop::collection::vec((-400.0f64..700.0, -400.0f64..700.0, 0.1f64..200.0), 1..20),
        ) {
            let n = nodes.len();
            // One in four is skipped.
            let skip: Vec<bool> = nodes.iter().map(|node| node.2 == 0).collect();
            let wide = nodes.iter().map(|&((x, y), _, _)| Vec2::new(x, y)).collect();
            let narrow = nodes.iter().map(|&(_, (u, v), _)| Vec2::new(60.0 * u - 20.0, 60.0 * v + 10.0)).collect();
            let mut g = NodeGrid::new(cell, n, (Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0)));
            for pos in [wide, narrow] {
                let pos: Vec<Vec2> = pos;
                g.retake(&pos, &skip);
                let cells = (g.dims.0 * g.dims.1) as usize;
                prop_assert_eq!(g.starts.len(), cells + 1);
                let mut held = vec![0; n];
                for c in 0..cells {
                    let bucket = &g.ids[g.starts[c] as usize..g.starts[c + 1] as usize];
                    prop_assert!(bucket.windows(2).all(|w| w[0] < w[1]), "bucket {} out of order", c);
                    for &i in bucket {
                        prop_assert_eq!(g.slot(cell_of(pos[i as usize], cell)), c, "node {} off its cell", i);
                        held[i as usize] += 1;
                    }
                }
                for (i, &s) in skip.iter().enumerate() {
                    prop_assert_eq!(held[i], !s as u32, "node {} held {} times", i, held[i]);
                }
                for &(cx, cy, r) in &disks {
                    let c = Vec2::new(cx, cy);
                    let mut ids = Vec::new();
                    g.query_disk(c, r, |bucket| ids.extend_from_slice(bucket));
                    let fetched = ids.len();
                    ids.sort_unstable();
                    ids.dedup();
                    prop_assert_eq!(ids.len(), fetched, "a bucket was handed over twice");
                    for (i, p) in pos.iter().enumerate() {
                        if !skip[i] && p.distance_sq(c) <= r * r {
                            prop_assert!(ids.binary_search(&(i as u32)).is_ok(), "node {} missed by {:?}", i, (c, r));
                        }
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
