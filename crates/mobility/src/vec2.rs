//! Minimal 2-D vector used for node positions and velocities.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A point or displacement in the plane, in metres.
///
/// # Example
///
/// ```
/// use ag_mobility::Vec2;
/// let a = Vec2::new(3.0, 4.0);
/// assert_eq!(a.length(), 5.0);
/// assert_eq!(a.distance_to(Vec2::ZERO), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal coordinate (m).
    pub x: f64,
    /// Vertical coordinate (m).
    pub y: f64,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Euclidean distance to `other`.
    pub fn distance_to(self, other: Vec2) -> f64 {
        (self - other).length()
    }

    /// Squared distance to `other` (avoids the square root for
    /// comparisons).
    pub fn distance_sq(self, other: Vec2) -> f64 {
        let d = self - other;
        d.x * d.x + d.y * d.y
    }

    /// Linear interpolation: `self` at `t == 0`, `other` at `t == 1`.
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// `true` if both components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn length_and_distance() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.length(), 5.0);
        assert_eq!(Vec2::ZERO.distance_to(v), 5.0);
        assert_eq!(Vec2::ZERO.distance_sq(v), 25.0);
    }

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(5.0, 10.0));
    }

    #[test]
    fn display_nonempty() {
        assert!(!Vec2::new(1.5, 2.5).to_string().is_empty());
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(ax in -1e3f64..1e3, ay in -1e3f64..1e3,
                                    bx in -1e3f64..1e3, by in -1e3f64..1e3,
                                    cx in -1e3f64..1e3, cy in -1e3f64..1e3) {
            let a = Vec2::new(ax, ay);
            let b = Vec2::new(bx, by);
            let c = Vec2::new(cx, cy);
            prop_assert!(a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9);
        }

        #[test]
        fn prop_lerp_stays_on_segment(t in 0.0f64..1.0,
                                      ax in -1e3f64..1e3, ay in -1e3f64..1e3,
                                      bx in -1e3f64..1e3, by in -1e3f64..1e3) {
            let a = Vec2::new(ax, ay);
            let b = Vec2::new(bx, by);
            let p = a.lerp(b, t);
            // Distance from a to p plus p to b equals a to b (collinearity).
            prop_assert!((a.distance_to(p) + p.distance_to(b) - a.distance_to(b)).abs() < 1e-6);
        }
    }
}
