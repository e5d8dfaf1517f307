//! The mobility models themselves.
//!
//! All models are *leg-based*: a node is always either pausing at a point or
//! moving along a straight segment at constant speed. Positions inside a leg
//! are interpolated analytically, and each model reports the absolute time
//! of its next leg transition so the simulation kernel can schedule exactly
//! one event per transition.

use ag_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::{Field, Vec2};

/// Minimum effective speed (m/s) used when a model draws a speed of ~0.
///
/// The paper's random-waypoint runs use a minimum speed of 0; a literal zero
/// would make travel time infinite. 10⁻⁴ m/s moves a node < 0.1 m over the
/// whole 600 s run — behaviourally stationary, numerically safe.
pub const MIN_EFFECTIVE_SPEED: f64 = 1e-4;

/// A uniform speed distribution `[min, max]` in m/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedRange {
    min: f64,
    max: f64,
}

impl SpeedRange {
    /// Creates a speed range.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ min ≤ max` and `max > 0`.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(
            min >= 0.0 && min <= max && max > 0.0,
            "invalid speed range [{min}, {max}]"
        );
        SpeedRange { min, max }
    }

    /// A fixed speed.
    pub fn fixed(speed: f64) -> Self {
        SpeedRange::new(speed, speed)
    }

    /// Lower bound (m/s).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound (m/s).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Draws a speed; never returns less than [`MIN_EFFECTIVE_SPEED`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let s = if self.min == self.max {
            self.max
        } else {
            rng.random_range(self.min..=self.max)
        };
        s.max(MIN_EFFECTIVE_SPEED)
    }
}

/// A uniform pause-time distribution, `[lo, hi]`.
///
/// The paper pauses each node for `U(0, 80)` seconds at every waypoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseRange {
    lo: SimDuration,
    hi: SimDuration,
}

impl PauseRange {
    /// Creates a pause range from durations.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: SimDuration, hi: SimDuration) -> Self {
        assert!(lo <= hi, "invalid pause range");
        PauseRange { lo, hi }
    }

    /// Creates a pause range from float seconds.
    pub fn uniform_secs(lo: f64, hi: f64) -> Self {
        PauseRange::new(
            SimDuration::from_secs_f64(lo),
            SimDuration::from_secs_f64(hi),
        )
    }

    /// The paper's `U(0, 80) s` pause distribution.
    pub fn paper() -> Self {
        PauseRange::uniform_secs(0.0, 80.0)
    }

    /// No pausing at all.
    pub fn none() -> Self {
        PauseRange::new(SimDuration::ZERO, SimDuration::ZERO)
    }

    /// Draws a pause duration.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        if self.lo == self.hi {
            return self.lo;
        }
        SimDuration::from_nanos(rng.random_range(self.lo.as_nanos()..=self.hi.as_nanos()))
    }
}

/// An analytic sample of one trajectory leg: linear motion from `from`
/// (held before `depart`) to `to` (held after `arrive`).
///
/// This is the currency of leg-aware position sampling: instead of
/// re-entering a boxed [`Mobility`] model on every range check, the
/// network engine caches each node's [`LegSample`] at mobility
/// transitions and interpolates positions inline. [`LegSample::position_at`]
/// is the *single* interpolation routine shared with the models
/// themselves, so cached sampling is bit-identical to querying the model.
///
/// A pause is a degenerate leg with `from == to`; an instantaneous jump
/// (used by test doubles) is a leg whose `depart`/`arrive` are one
/// nanosecond apart.
///
/// # Example
///
/// ```
/// use ag_mobility::{LegSample, Vec2};
/// use ag_sim::SimTime;
///
/// let leg = LegSample::moving(
///     Vec2::new(0.0, 0.0),
///     Vec2::new(10.0, 0.0),
///     SimTime::ZERO,
///     SimTime::from_secs(10),
/// );
/// assert_eq!(leg.position_at(SimTime::from_secs(5)), Vec2::new(5.0, 0.0));
/// assert_eq!(leg.position_at(SimTime::from_secs(99)), Vec2::new(10.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegSample {
    /// Position at (and before) `depart`.
    pub from: Vec2,
    /// Position at (and after) `arrive`.
    pub to: Vec2,
    /// When the leg leaves `from`.
    pub depart: SimTime,
    /// When the leg reaches `to`.
    pub arrive: SimTime,
}

impl LegSample {
    /// A leg that never moves: the node sits at `at` forever.
    pub fn fixed(at: Vec2) -> Self {
        LegSample {
            from: at,
            to: at,
            depart: SimTime::ZERO,
            arrive: SimTime::ZERO,
        }
    }

    /// A straight constant-speed leg.
    pub fn moving(from: Vec2, to: Vec2, depart: SimTime, arrive: SimTime) -> Self {
        LegSample {
            from,
            to,
            depart,
            arrive,
        }
    }

    /// An instantaneous jump: `from` strictly before `at`, `to` at and
    /// after `at`. Because simulated time has nanosecond granularity, no
    /// queryable instant falls inside the one-nanosecond "travel"
    /// window. A jump at time zero has no "before" and degenerates to a
    /// fixed leg at `to`.
    pub fn jump(from: Vec2, to: Vec2, at: SimTime) -> Self {
        if at == SimTime::ZERO {
            return LegSample::fixed(to);
        }
        LegSample {
            from,
            to,
            depart: at - SimDuration::from_nanos(1),
            arrive: at,
        }
    }

    /// Exact position at instant `t`; times outside `[depart, arrive]`
    /// clamp to the leg's endpoints.
    pub fn position_at(&self, t: SimTime) -> Vec2 {
        if t <= self.depart || self.arrive <= self.depart {
            self.from
        } else if t >= self.arrive {
            self.to
        } else {
            let num = t.duration_since(self.depart).as_nanos() as f64;
            let den = self.arrive.duration_since(self.depart).as_nanos() as f64;
            self.from.lerp(self.to, num / den)
        }
    }

    /// `true` if the position never changes over the leg's lifetime.
    pub fn is_static(&self) -> bool {
        self.from == self.to || self.arrive <= self.depart
    }
}

/// A node's trajectory generator.
///
/// Object-safe so the network engine can mix models in one run.
pub trait Mobility: std::fmt::Debug + Send {
    /// Position at instant `t` on the [current leg](Mobility::current_leg).
    ///
    /// `t` may be anywhere; times before the current leg return the leg's
    /// start point and times after it return its end point, so stale queries
    /// degrade gracefully.
    fn position(&self, t: SimTime) -> Vec2 {
        self.current_leg().position_at(t)
    }

    /// Absolute time of the next leg transition, or [`SimTime::MAX`] if the
    /// model never changes state again.
    fn next_transition(&self) -> SimTime;

    /// Advances past the transition due at `now`, drawing any randomness
    /// from `rng`. Calling it early or late is harmless.
    fn transition(&mut self, now: SimTime, rng: &mut SmallRng);

    /// The current leg as an analytic sample: the trajectory up to (at
    /// least) [`Mobility::next_transition`]. Models whose whole remaining
    /// trajectory is linear may return a longer-lived sample. The engine
    /// re-queries after every transition.
    fn current_leg(&self) -> LegSample;
}

/// The random-waypoint model (paper §5.1).
///
/// The node repeats: pick a uniform destination, travel to it at a speed
/// drawn from `speeds`, pause for a time drawn from `pauses`.
///
/// # Example
///
/// ```
/// use ag_mobility::{Field, RandomWaypoint, Mobility, SpeedRange, PauseRange};
/// use ag_sim::rng::{SeedSplitter, StreamKind};
/// use ag_sim::SimTime;
///
/// let mut rng = SeedSplitter::new(3).stream(StreamKind::Mobility, 0);
/// let m = RandomWaypoint::new(Field::paper(), SpeedRange::new(0.0, 2.0),
///                             PauseRange::paper(), &mut rng);
/// assert!(Field::paper().contains(m.position(SimTime::ZERO)));
/// ```
#[derive(Debug)]
pub struct RandomWaypoint {
    field: Field,
    speeds: SpeedRange,
    pauses: PauseRange,
    /// The current move, or the pause at its end: a leg with
    /// `from == to` whose `depart == arrive` is when the pause ends.
    leg: LegSample,
    /// Not `leg.is_static()`: a zero-length move is still followed by
    /// its pause draw.
    pausing: bool,
}

impl RandomWaypoint {
    /// Creates a node placed uniformly in `field`, already moving toward its
    /// first waypoint at time zero.
    pub fn new<R: Rng + ?Sized>(
        field: Field,
        speeds: SpeedRange,
        pauses: PauseRange,
        rng: &mut R,
    ) -> Self {
        let start = field.sample_uniform(rng);
        Self::from_point(field, speeds, pauses, start, rng)
    }

    /// Creates a node at an explicit starting point (useful in tests).
    pub fn from_point<R: Rng + ?Sized>(
        field: Field,
        speeds: SpeedRange,
        pauses: PauseRange,
        start: Vec2,
        rng: &mut R,
    ) -> Self {
        let start = field.clamp(start);
        let leg = Self::new_move(field, speeds, start, SimTime::ZERO, rng);
        RandomWaypoint {
            field,
            speeds,
            pauses,
            leg,
            pausing: false,
        }
    }

    fn new_move<R: Rng + ?Sized>(
        field: Field,
        speeds: SpeedRange,
        from: Vec2,
        depart: SimTime,
        rng: &mut R,
    ) -> LegSample {
        let to = field.sample_uniform(rng);
        let speed = speeds.sample(rng);
        let dist = from.distance_to(to);
        let travel = SimDuration::from_secs_f64(dist / speed);
        LegSample::moving(from, to, depart, depart.saturating_add(travel))
    }
}

impl Mobility for RandomWaypoint {
    fn current_leg(&self) -> LegSample {
        self.leg
    }

    fn next_transition(&self) -> SimTime {
        self.leg.arrive
    }

    fn transition(&mut self, now: SimTime, rng: &mut SmallRng) {
        let here = self.leg.position_at(now);
        let pause = if self.pausing {
            SimDuration::ZERO
        } else {
            self.pauses.sample(rng)
        };
        self.pausing = !pause.is_zero();
        self.leg = if self.pausing {
            let until = now.saturating_add(pause);
            LegSample {
                depart: until,
                arrive: until,
                ..LegSample::fixed(here)
            }
        } else {
            Self::new_move(self.field, self.speeds, here, now, rng)
        };
    }
}

/// A bounded random walk: fixed-length epochs in uniformly random
/// directions, destinations clipped to the field.
///
/// Not used by the paper's headline experiments; provided for ablations and
/// as a second model exercising the same engine interface.
#[derive(Debug)]
pub struct RandomWalk {
    field: Field,
    speeds: SpeedRange,
    epoch: SimDuration,
    leg: LegSample,
}

impl RandomWalk {
    /// Creates a walker placed uniformly in `field`; each leg lasts at most
    /// `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn new<R: Rng + ?Sized>(
        field: Field,
        speeds: SpeedRange,
        epoch: SimDuration,
        rng: &mut R,
    ) -> Self {
        assert!(!epoch.is_zero(), "random walk epoch must be positive");
        let start = field.sample_uniform(rng);
        let leg = Self::new_leg(field, speeds, epoch, start, SimTime::ZERO, rng);
        RandomWalk {
            field,
            speeds,
            epoch,
            leg,
        }
    }

    fn new_leg<R: Rng + ?Sized>(
        field: Field,
        speeds: SpeedRange,
        epoch: SimDuration,
        from: Vec2,
        depart: SimTime,
        rng: &mut R,
    ) -> LegSample {
        let theta = rng.random_range(0.0..std::f64::consts::TAU);
        let speed = speeds.sample(rng);
        let reach = speed * epoch.as_secs_f64();
        let raw_to = from + Vec2::new(theta.cos(), theta.sin()) * reach;
        let to = field.clamp(raw_to);
        let dist = from.distance_to(to);
        let travel = SimDuration::from_secs_f64(dist / speed);
        LegSample::moving(from, to, depart, depart.saturating_add(travel))
    }
}

impl Mobility for RandomWalk {
    fn current_leg(&self) -> LegSample {
        self.leg
    }

    fn next_transition(&self) -> SimTime {
        self.leg.arrive
    }

    fn transition(&mut self, now: SimTime, rng: &mut SmallRng) {
        let here = self.leg.position_at(now);
        self.leg = Self::new_leg(self.field, self.speeds, self.epoch, here, now, rng);
    }
}

/// A node that never moves.
#[derive(Debug, Clone, Copy)]
pub struct Stationary {
    at: Vec2,
}

impl Stationary {
    /// Creates a node pinned at `at`.
    pub fn new(at: Vec2) -> Self {
        Stationary { at }
    }

    /// Creates a node pinned at a uniformly random point of `field`.
    pub fn random<R: Rng + ?Sized>(field: Field, rng: &mut R) -> Self {
        Stationary {
            at: field.sample_uniform(rng),
        }
    }
}

impl Mobility for Stationary {
    fn current_leg(&self) -> LegSample {
        LegSample::fixed(self.at)
    }

    fn next_transition(&self) -> SimTime {
        SimTime::MAX
    }

    fn transition(&mut self, _now: SimTime, _rng: &mut SmallRng) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::rng::{SeedSplitter, StreamKind};
    use proptest::prelude::*;

    fn rng(i: u64) -> SmallRng {
        SeedSplitter::new(0xC0FFEE).stream(StreamKind::Mobility, i)
    }

    #[test]
    fn speed_range_validation() {
        let s = SpeedRange::new(0.0, 2.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 2.0);
        let f = SpeedRange::fixed(1.5);
        assert_eq!(f.sample(&mut rng(0)), 1.5);
    }

    #[test]
    #[should_panic]
    fn speed_range_rejects_inverted() {
        let _ = SpeedRange::new(2.0, 1.0);
    }

    #[test]
    fn speed_sample_never_zero() {
        let s = SpeedRange::new(0.0, 0.1);
        let mut r = rng(1);
        for _ in 0..1000 {
            assert!(s.sample(&mut r) >= MIN_EFFECTIVE_SPEED);
        }
    }

    #[test]
    fn pause_range_sampling() {
        let p = PauseRange::paper();
        let mut r = rng(2);
        for _ in 0..1000 {
            let d = p.sample(&mut r);
            assert!(d <= SimDuration::from_secs(80));
        }
        assert_eq!(PauseRange::none().sample(&mut r), SimDuration::ZERO);
    }

    #[test]
    fn waypoint_starts_inside_and_moving() {
        let mut r = rng(3);
        let m = RandomWaypoint::new(
            Field::paper(),
            SpeedRange::new(0.0, 2.0),
            PauseRange::paper(),
            &mut r,
        );
        assert!(Field::paper().contains(m.position(SimTime::ZERO)));
        assert!(m.next_transition() > SimTime::ZERO);
    }

    #[test]
    fn waypoint_position_continuous_across_transition() {
        let mut r = rng(4);
        let mut m = RandomWaypoint::new(
            Field::paper(),
            SpeedRange::new(0.5, 2.0),
            PauseRange::uniform_secs(1.0, 5.0),
            &mut r,
        );
        for _ in 0..50 {
            let t = m.next_transition();
            if t == SimTime::MAX {
                break;
            }
            let before = m.position(t);
            m.transition(t, &mut r);
            let after = m.position(t);
            assert!(before.distance_to(after) < 1e-9, "teleport at transition");
        }
    }

    #[test]
    fn waypoint_alternates_move_pause() {
        let mut r = rng(5);
        let mut m = RandomWaypoint::new(
            Field::paper(),
            SpeedRange::fixed(1.0),
            PauseRange::uniform_secs(2.0, 2.0),
            &mut r,
        );
        // First leg is a move; after transition we must be pausing for 2 s.
        let arrive = m.next_transition();
        m.transition(arrive, &mut r);
        assert_eq!(m.next_transition(), arrive + SimDuration::from_secs(2));
        // Position holds still during a pause.
        let p0 = m.position(arrive);
        let p1 = m.position(arrive + SimDuration::from_secs(1));
        assert_eq!(p0, p1);
    }

    #[test]
    fn waypoint_zero_pause_goes_straight_to_next_leg() {
        let mut r = rng(6);
        let mut m = RandomWaypoint::new(
            Field::paper(),
            SpeedRange::fixed(10.0),
            PauseRange::none(),
            &mut r,
        );
        let arrive = m.next_transition();
        m.transition(arrive, &mut r);
        // Still moving: next transition strictly after arrive.
        assert!(m.next_transition() > arrive);
        let p_mid = m.position(arrive + SimDuration::from_millis(1));
        assert!(Field::paper().contains(p_mid));
    }

    #[test]
    fn zero_length_move_is_still_followed_by_its_pause() {
        let p = Vec2::new(5.0, 5.0);
        let mut m = RandomWaypoint {
            field: Field::paper(),
            speeds: SpeedRange::fixed(1.0),
            pauses: PauseRange::uniform_secs(2.0, 2.0),
            leg: LegSample::moving(p, p, SimTime::ZERO, SimTime::ZERO),
            pausing: false,
        };
        // The move looks exactly like a pause that has just ended...
        assert!(m.current_leg().is_static());
        m.transition(SimTime::ZERO, &mut rng(11));
        // ...but what follows it is the pause, not the next move.
        assert_eq!(m.next_transition(), SimTime::from_secs(2));
        assert_eq!(m.position(SimTime::from_secs(1)), p);
    }

    #[test]
    fn from_point_clamps() {
        let mut r = rng(7);
        let m = RandomWaypoint::from_point(
            Field::new(10.0, 10.0),
            SpeedRange::fixed(1.0),
            PauseRange::none(),
            Vec2::new(50.0, -3.0),
            &mut r,
        );
        assert_eq!(m.position(SimTime::ZERO), Vec2::new(10.0, 0.0));
    }

    #[test]
    fn walk_stays_in_field() {
        let mut r = rng(8);
        let f = Field::new(50.0, 50.0);
        let mut m = RandomWalk::new(
            f,
            SpeedRange::fixed(5.0),
            SimDuration::from_secs(10),
            &mut r,
        );
        for _ in 0..100 {
            let t = m.next_transition();
            assert!(f.contains(m.position(t)));
            m.transition(t, &mut r);
        }
    }

    #[test]
    fn stationary_never_transitions() {
        let s = Stationary::new(Vec2::new(1.0, 2.0));
        assert_eq!(s.next_transition(), SimTime::MAX);
        assert_eq!(s.position(SimTime::from_secs(500)), Vec2::new(1.0, 2.0));
        let mut r = rng(9);
        let mut s2 = s;
        s2.transition(SimTime::from_secs(1), &mut r);
        assert_eq!(s2.position(SimTime::ZERO), s.position(SimTime::ZERO));
    }

    #[test]
    fn stationary_random_inside() {
        let f = Field::paper();
        let s = Stationary::random(f, &mut rng(10));
        assert!(f.contains(s.position(SimTime::ZERO)));
    }

    #[test]
    fn leg_sample_fixed_and_jump() {
        let p = Vec2::new(3.0, 4.0);
        let fixed = LegSample::fixed(p);
        assert!(fixed.is_static());
        assert_eq!(fixed.position_at(SimTime::ZERO), p);
        assert_eq!(fixed.position_at(SimTime::from_secs(1_000)), p);

        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(100.0, 0.0);
        let at = SimTime::from_secs(10);
        let j = LegSample::jump(a, b, at);
        assert!(!j.is_static());
        assert_eq!(j.position_at(at - SimDuration::from_nanos(1)), a);
        assert_eq!(j.position_at(at), b);
        assert_eq!(j.position_at(SimTime::from_secs(99)), b);

        // A jump at t=0 has already happened: the node sits at `to`.
        let j0 = LegSample::jump(a, b, SimTime::ZERO);
        assert_eq!(j0.position_at(SimTime::ZERO), b);
        assert_eq!(j0.position_at(SimTime::from_secs(1)), b);
    }

    #[test]
    fn stationary_leg_lives_forever() {
        let s = Stationary::new(Vec2::new(7.0, 8.0));
        let leg = s.current_leg();
        assert!(leg.is_static());
        assert_eq!(leg.position_at(SimTime::MAX), Vec2::new(7.0, 8.0));
    }

    proptest! {
        /// The cached leg sample agrees *bit-for-bit* with the model's own
        /// position at every instant up to the next transition — the
        /// invariant the network engine's position cache relies on.
        #[test]
        fn prop_leg_sample_matches_position(seed in 0u64..300) {
            let f = Field::paper();
            let mut r = SeedSplitter::new(seed).stream(StreamKind::Mobility, 2);
            let mut m = RandomWaypoint::new(f, SpeedRange::new(0.0, 8.0), PauseRange::paper(), &mut r);
            let mut now = SimTime::ZERO;
            for _ in 0..30 {
                let leg = m.current_leg();
                let until = m.next_transition();
                // Probe inside the leg, at its ends, and beyond.
                let probes = [
                    now,
                    now.saturating_add(SimDuration::from_millis(1)),
                    until,
                    until.saturating_add(SimDuration::from_secs(5)),
                ];
                for t in probes {
                    prop_assert_eq!(leg.position_at(t), m.position(t));
                }
                if until == SimTime::MAX {
                    break;
                }
                m.transition(until, &mut r);
                now = until;
            }
        }

        /// A random-waypoint node is inside the field at *every* queried
        /// instant, across many legs and seeds.
        #[test]
        fn prop_waypoint_always_in_field(seed in 0u64..500, queries in prop::collection::vec(0u64..600, 1..20)) {
            let f = Field::paper();
            let mut r = SeedSplitter::new(seed).stream(StreamKind::Mobility, 0);
            let mut m = RandomWaypoint::new(f, SpeedRange::new(0.0, 10.0), PauseRange::paper(), &mut r);
            let mut sorted = queries.clone();
            sorted.sort_unstable();
            for q in sorted {
                let t = SimTime::from_secs(q);
                while m.next_transition() < t {
                    let tr = m.next_transition();
                    m.transition(tr, &mut r);
                }
                prop_assert!(f.contains(m.position(t)));
            }
        }

        /// Movement speed never exceeds the configured maximum.
        #[test]
        fn prop_waypoint_respects_speed_limit(seed in 0u64..200) {
            let f = Field::paper();
            let max = 2.0;
            let mut r = SeedSplitter::new(seed).stream(StreamKind::Mobility, 1);
            let mut m = RandomWaypoint::new(f, SpeedRange::new(0.0, max), PauseRange::none(), &mut r);
            let step = SimDuration::from_millis(500);
            let mut t = SimTime::ZERO;
            let mut prev = m.position(t);
            for _ in 0..200 {
                let nt = t + step;
                while m.next_transition() < nt {
                    let tr = m.next_transition();
                    m.transition(tr, &mut r);
                }
                let cur = m.position(nt);
                let dist = prev.distance_to(cur);
                prop_assert!(dist <= max * step.as_secs_f64() + 1e-6,
                             "moved {dist} m in 0.5 s with max {max} m/s");
                prev = cur;
                t = nt;
            }
        }
    }
}
