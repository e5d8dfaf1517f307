//! The physical layer: a unit-disk radio.
//!
//! The paper (§5.1) fixes the MAC to IEEE 802.11 and the channel to
//! 2 Mbps, and sweeps the *transmission range* from 45 m to 85 m. The PHY
//! here is therefore parameterized by `range_m`; the 802.11b DSSS timing
//! and the DCF's contention values are constants of the engine's MAC.
//!
//! ## Stress knobs (strictly opt-in)
//!
//! The paper's channel is ideal: every uncollided frame within range is
//! received. Two additional knob families make the network hostile on
//! demand, both defaulting *off* so the paper's figures are bit-for-bit
//! unaffected:
//!
//! * [`ReceptionModel`] — pluggable per-reception loss on top of the
//!   unit disk (distance-graded packet-error rate, log-normal
//!   shadowing). Decisions are *pure functions* of a keyed hash, so
//!   results are independent of receiver iteration order and identical
//!   between the grid-indexed and brute-force engine paths.
//! * [`ChurnParams`] — per-node radio fail/recover churn; the engine
//!   schedules the fail and recover events from dedicated per-node RNG
//!   streams.

use ag_sim::rng::splitmix64;
use ag_sim::{ConfigError, SimDuration};
use rand::Rng;

/// Maps a 64-bit hash to a uniform draw in `[0, 1)` (53 mantissa bits).
#[inline]
fn unit_uniform(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// How a frame that arrived within radio range, uncorrupted by any
/// collision, is finally accepted or lost by the receiver's radio.
///
/// All models are **deterministic**: loss decisions come from a keyed
/// hash of `(channel seed, transmission id, receiver)` — never from a
/// stateful RNG — so a simulation stays a pure function of
/// `(scenario, seed)` no matter in which order receivers are examined.
/// Models only ever *remove* receptions inside the unit disk; carrier
/// sense and collision geometry stay unit-disk, and the spatial index's
/// candidate sets remain conservative.
///
/// # Example
///
/// ```
/// use ag_net::{PhyParams, ReceptionModel};
/// let phy = PhyParams::paper_default(75.0)
///     .with_reception(ReceptionModel::DistanceGraded { edge_per: 0.4 });
/// assert_ne!(phy.reception(), ReceptionModel::Ideal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReceptionModel {
    /// The paper's channel: every in-range, uncollided frame is
    /// received. The default.
    Ideal,
    /// Distance-graded packet-error rate: a reception at distance `d`
    /// is dropped with probability `edge_per · (d / range)²`, so links
    /// degrade smoothly toward the edge of the disk. Each reception
    /// draws independently (fast fading).
    DistanceGraded {
        /// Packet-error rate at the edge of the transmission range,
        /// in `[0, 1]`.
        edge_per: f64,
    },
    /// Log-normal shadowing: each (unordered) node pair owns a static
    /// shadowing gain `X ~ Normal(0, sigma_db²)` dB drawn from a
    /// deterministic per-link stream, shrinking that link's effective
    /// range to `range · 10^(X / (10 · path_loss_exp))`. Gains above
    /// 0 dB are clamped to the nominal range (the unit disk is the
    /// best case), so obstructed links go short while clear links stay
    /// ideal — a static obstacle field, reciprocal in both directions.
    Shadowing {
        /// Standard deviation of the shadowing gain, dB. Typical
        /// outdoor measurements run 4–12 dB.
        sigma_db: f64,
        /// Path-loss exponent converting dB of gain into metres of
        /// range (2 = free space, 3–4 = urban).
        path_loss_exp: f64,
    },
}

impl ReceptionModel {
    /// `true` when this model can never drop a reception (the engine
    /// skips hashing entirely).
    pub fn is_ideal(&self) -> bool {
        matches!(self, ReceptionModel::Ideal)
    }

    /// Pure reception decision for one `(transmission, receiver)` pair:
    /// `true` if the frame survives the channel. `dist_sq` is the
    /// squared sender→receiver distance (already known to be within
    /// `range_m`); `tx_id` is the engine's unique transmission id.
    pub fn receives(
        &self,
        channel_seed: u64,
        tx_id: u64,
        sender: u32,
        receiver: u32,
        dist_sq: f64,
        range_m: f64,
    ) -> bool {
        match *self {
            ReceptionModel::Ideal => true,
            ReceptionModel::DistanceGraded { edge_per } => {
                let per = edge_per * dist_sq / (range_m * range_m);
                let h = splitmix64(
                    splitmix64(channel_seed ^ tx_id)
                        ^ (receiver as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                );
                unit_uniform(h) >= per
            }
            ReceptionModel::Shadowing {
                sigma_db,
                path_loss_exp,
            } => {
                let eff_sq = shadow_eff_range_sq(
                    channel_seed,
                    sender,
                    receiver,
                    sigma_db,
                    path_loss_exp,
                    range_m,
                );
                dist_sq <= eff_sq
            }
        }
    }
}

/// The squared effective range of the shadowing model for one link.
///
/// Static and reciprocal: keyed on the unordered node pair only, never
/// on the transmission — which is what lets the engine memoize the
/// result per link instead of redoing the Box–Muller transform (`ln`,
/// `sqrt`, `cos`, `powf`) on every reception.
pub(crate) fn shadow_eff_range_sq(
    channel_seed: u64,
    sender: u32,
    receiver: u32,
    sigma_db: f64,
    path_loss_exp: f64,
    range_m: f64,
) -> f64 {
    let (a, b) = if sender <= receiver {
        (sender, receiver)
    } else {
        (receiver, sender)
    };
    let key = splitmix64(
        channel_seed ^ (((a as u64) << 32) | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    // Box–Muller from two hash-derived uniforms (u1 kept strictly
    // positive for the log).
    let u1 = unit_uniform(splitmix64(key)).max(f64::MIN_POSITIVE);
    let u2 = unit_uniform(splitmix64(key ^ 0x6C62_272E_07BB_0142));
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    let gain_db = (sigma_db * z).min(0.0);
    let eff_range = range_m * 10f64.powf(gain_db / (10.0 * path_loss_exp));
    eff_range * eff_range
}

/// Per-node radio churn: alternating up/down periods with exponentially
/// distributed durations.
///
/// While a node is down its radio is off: it is left out of the next
/// node snapshot the receive kernel takes, hears nothing (including
/// frames that started while it was down, even if it recovers
/// mid-frame), any in-flight MAC state is dropped — queued *unicast*
/// frames are reported through
/// `Protocol::on_send_failure` at the moment of failure, a frame
/// mid-air is truncated — and frames its protocol tries to send while
/// down are discarded without a callback (the hardware is off, there is
/// no carrier feedback; counted as `mac.down_drop`). Protocol timers
/// keep firing — the process runs, the radio doesn't — so protocols
/// resume naturally at recovery.
///
/// # Example
///
/// ```
/// use ag_net::ChurnParams;
/// let churn = ChurnParams::new(120.0, 15.0);
/// assert_eq!(churn.mean_up_secs(), 120.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnParams {
    mean_up_secs: f64,
    mean_down_secs: f64,
}

impl ChurnParams {
    /// Creates a churn model with the given mean up and down durations
    /// in seconds; [`PhyParams::validate`] holds both to positive and
    /// finite.
    pub fn new(mean_up_secs: f64, mean_down_secs: f64) -> Self {
        ChurnParams {
            mean_up_secs,
            mean_down_secs,
        }
    }

    /// Mean duration of an up (radio on) period, seconds.
    pub fn mean_up_secs(&self) -> f64 {
        self.mean_up_secs
    }

    /// Mean duration of a down (radio off) period, seconds.
    pub fn mean_down_secs(&self) -> f64 {
        self.mean_down_secs
    }

    /// Draws the next up-period duration from `rng` (exponential,
    /// floored at 1 ns so zero-length periods cannot stall the event
    /// loop).
    pub fn sample_up<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        sample_exp(self.mean_up_secs, rng)
    }

    /// Draws the next down-period duration from `rng`.
    pub fn sample_down<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        sample_exp(self.mean_down_secs, rng)
    }
}

/// Exponential draw with mean `mean_secs`, floored at 1 ns.
fn sample_exp<R: Rng + ?Sized>(mean_secs: f64, rng: &mut R) -> SimDuration {
    let u: f64 = rng.random_range(0.0..1.0);
    SimDuration::from_secs_f64((-mean_secs * (1.0 - u).ln()).max(1e-9))
}

/// What a scenario varies about the radio.
///
/// # Example
///
/// ```
/// use ag_net::PhyParams;
/// let phy = PhyParams::paper_default(75.0);
/// assert_eq!(phy.range_m(), 75.0);
/// assert!(phy.reception().is_ideal() && phy.churn().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyParams {
    /// Unit-disk transmission (and carrier-sense) range in metres.
    range_m: f64,
    /// Compute each transmission's receivers with the node-grid kernel
    /// (`true`, the default) or the brute-force reference scan (`false`,
    /// kept for differential testing). Both produce identical
    /// simulations; only the wall-clock cost differs.
    spatial_index: bool,
    /// How in-range, uncollided frames are accepted or lost
    /// ([`ReceptionModel::Ideal`] — the paper's channel — by default).
    reception: ReceptionModel,
    /// Optional per-node radio fail/recover churn (off by default).
    churn: Option<ChurnParams>,
}

impl PhyParams {
    /// The paper's configuration at the given transmission range in
    /// metres: the ideal channel, no churn and the node-grid kernel. (The
    /// 2 Mbps 802.11 MAC is fixed; it is not a parameter.)
    pub fn paper_default(range_m: f64) -> Self {
        PhyParams {
            range_m,
            spatial_index: true,
            reception: ReceptionModel::Ideal,
            churn: None,
        }
    }

    /// Returns a copy selecting how a `TxEnd` finds its receivers: the
    /// node-grid kernel (`true`) or the brute-force reference scan
    /// (`false`). Carrier sense is the same slab pass either way.
    /// Results are identical; the brute-force path exists for
    /// differential testing and as the baseline of `agbench`'s
    /// `net.grid_speedup_x`.
    pub fn with_spatial_index(mut self, enabled: bool) -> Self {
        self.spatial_index = enabled;
        self
    }

    /// Transmission range in metres.
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Returns a copy with a different reception model (the default,
    /// [`ReceptionModel::Ideal`], reproduces the paper's channel
    /// exactly).
    pub fn with_reception(mut self, model: ReceptionModel) -> Self {
        self.reception = model;
        self
    }

    /// Returns a copy with per-node radio churn enabled.
    pub fn with_churn(mut self, churn: ChurnParams) -> Self {
        self.churn = Some(churn);
        self
    }

    /// `true` when receiver sets come from the node-grid kernel.
    pub fn spatial_index(&self) -> bool {
        self.spatial_index
    }

    /// The reception model in force.
    pub fn reception(&self) -> ReceptionModel {
        self.reception
    }

    /// The churn model, if churn is enabled.
    pub fn churn(&self) -> Option<ChurnParams> {
        self.churn
    }

    /// Checks the rules: the range, `path_loss_exp` and the churn means
    /// are positive and finite, `edge_per` lies in `[0, 1]` and
    /// `sigma_db` is finite and at least 0. [`Engine::observed`](crate::Engine::observed)
    /// expects it to pass.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive = |field: &'static str, x: f64| {
            ConfigError::check(x > 0.0 && x.is_finite(), field, x, "> 0 and finite")
        };
        positive("PhyParams.range_m", self.range_m)?;
        match self.reception {
            ReceptionModel::Ideal => {}
            ReceptionModel::DistanceGraded { edge_per } => {
                let ok = (0.0..=1.0).contains(&edge_per);
                ConfigError::check(ok, "ReceptionModel.edge_per", edge_per, "in [0, 1]")?;
            }
            ReceptionModel::Shadowing {
                sigma_db,
                path_loss_exp,
            } => {
                let ok = sigma_db >= 0.0 && sigma_db.is_finite();
                ConfigError::check(ok, "ReceptionModel.sigma_db", sigma_db, ">= 0 and finite")?;
                positive("ReceptionModel.path_loss_exp", path_loss_exp)?;
            }
        }
        if let Some(churn) = self.churn {
            positive("ChurnParams.mean_up_secs", churn.mean_up_secs)?;
            positive("ChurnParams.mean_down_secs", churn.mean_down_secs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_constants() {
        let p = PhyParams::paper_default(75.0);
        assert_eq!(p.range_m(), 75.0);
        assert!(p.spatial_index());
    }

    #[test]
    fn builder_style_overrides() {
        let p = PhyParams::paper_default(55.0).with_spatial_index(false);
        assert_eq!(p.range_m(), 55.0);
        assert!(!p.spatial_index());
    }

    #[test]
    fn rejects_nonpositive_range() {
        let err = PhyParams::paper_default(0.0).validate().unwrap_err();
        assert_eq!(err.field, "PhyParams.range_m");
        assert_eq!(PhyParams::paper_default(75.0).validate(), Ok(()));
    }

    #[test]
    fn default_phy_is_ideal_and_churn_free() {
        let p = PhyParams::paper_default(75.0);
        assert!(p.reception().is_ideal());
        assert!(p.churn().is_none());
    }

    #[test]
    fn ideal_model_never_drops() {
        let m = ReceptionModel::Ideal;
        for tx in 0..50 {
            assert!(m.receives(99, tx, 0, 1, 74.0 * 74.0, 75.0));
        }
    }

    #[test]
    fn graded_model_loses_more_at_the_edge() {
        let m = ReceptionModel::DistanceGraded { edge_per: 0.8 };
        let (mut near, mut far) = (0u32, 0u32);
        for tx in 0..2000u64 {
            if m.receives(7, tx, 0, 1, 10.0 * 10.0, 75.0) {
                near += 1;
            }
            if m.receives(7, tx, 0, 1, 74.0 * 74.0, 75.0) {
                far += 1;
            }
        }
        // Near the sender PER ≈ 0.8·(10/75)² ≈ 1.4 %; at the edge ≈ 78 %.
        assert!(near > 1900, "near deliveries {near}");
        assert!(far < 600, "edge deliveries {far}");
        assert!(near > far);
    }

    #[test]
    fn graded_decision_is_deterministic_and_per_reception() {
        let m = ReceptionModel::DistanceGraded { edge_per: 0.9 };
        let d = 70.0 * 70.0;
        let a = m.receives(1, 42, 0, 3, d, 75.0);
        assert_eq!(a, m.receives(1, 42, 0, 3, d, 75.0));
        // Different tx ids decide independently: both outcomes occur.
        let outcomes: Vec<bool> = (0..64).map(|tx| m.receives(1, tx, 0, 3, d, 75.0)).collect();
        assert!(outcomes.iter().any(|&x| x));
        assert!(outcomes.iter().any(|&x| !x));
    }

    #[test]
    fn shadowing_is_static_reciprocal_and_sometimes_short() {
        let m = ReceptionModel::Shadowing {
            sigma_db: 8.0,
            path_loss_exp: 3.0,
        };
        let d = 70.0 * 70.0;
        let mut shortened = 0;
        for b in 1..200u32 {
            let ab = m.receives(11, 0, 0, b, d, 75.0);
            // Reciprocal and independent of the transmission id.
            assert_eq!(ab, m.receives(11, 5, b, 0, d, 75.0));
            assert_eq!(ab, m.receives(11, 9, 0, b, d, 75.0));
            if !ab {
                shortened += 1;
            }
        }
        assert!(shortened > 10, "expected some obstructed links");
        assert!(shortened < 190, "expected some clear links");
        // Very short links always get through (gain is clamped at 0 dB
        // only from above; a 1 m link needs ~37 dB of fade at n=3).
        for b in 1..200u32 {
            assert!(m.receives(11, 0, 0, b, 1.0, 75.0));
        }
    }

    #[test]
    fn rejects_out_of_range_edge_per() {
        let phy = PhyParams::paper_default(75.0)
            .with_reception(ReceptionModel::DistanceGraded { edge_per: 1.5 });
        assert_eq!(phy.validate().unwrap_err().field, "ReceptionModel.edge_per");
    }

    #[test]
    fn rejects_nonpositive_churn_mean() {
        let phy = PhyParams::paper_default(75.0).with_churn(ChurnParams::new(0.0, 5.0));
        assert_eq!(
            phy.validate().unwrap_err().field,
            "ChurnParams.mean_up_secs"
        );
    }

    #[test]
    fn churn_samples_are_positive_with_roughly_right_mean() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let c = ChurnParams::new(100.0, 10.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 2000;
        let mean_up: f64 = (0..n)
            .map(|_| c.sample_up(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        let mean_down: f64 = (0..n)
            .map(|_| c.sample_down(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean_up - 100.0).abs() < 10.0, "mean up {mean_up}");
        assert!((mean_down - 10.0).abs() < 1.0, "mean down {mean_down}");
    }
}
