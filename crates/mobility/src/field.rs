//! The rectangular simulation area.

use rand::Rng;

use crate::Vec2;

/// An axis-aligned rectangular field `[0, width] × [0, height]`, in metres.
///
/// The paper uses a fixed 200 m × 200 m field (§5.1).
///
/// # Example
///
/// ```
/// use ag_mobility::{Field, Vec2};
/// let f = Field::new(200.0, 200.0);
/// assert!(f.contains(Vec2::new(100.0, 100.0)));
/// assert!(!f.contains(Vec2::new(-1.0, 0.0)));
/// assert_eq!(f.area(), 40_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    width: f64,
    height: f64,
}

impl Field {
    /// Creates a field of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "invalid field width {width}"
        );
        assert!(
            height > 0.0 && height.is_finite(),
            "invalid field height {height}"
        );
        Field { width, height }
    }

    /// The paper's 200 m × 200 m field.
    pub fn paper() -> Self {
        Field::new(200.0, 200.0)
    }

    /// Field width in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Field height in metres.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Field area in square metres.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// `true` if `p` lies inside the field (boundary inclusive).
    pub fn contains(&self, p: Vec2) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Clamps `p` to the field.
    pub fn clamp(&self, p: Vec2) -> Vec2 {
        Vec2::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// Draws a uniformly random point in the field.
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec2 {
        Vec2::new(
            rng.random_range(0.0..=self.width),
            rng.random_range(0.0..=self.height),
        )
    }

    /// The longest possible distance between two points in the field.
    pub fn diagonal(&self) -> f64 {
        self.width.hypot(self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::rng::{SeedSplitter, StreamKind};
    use proptest::prelude::*;

    #[test]
    fn paper_field_dimensions() {
        let f = Field::paper();
        assert_eq!(f.width(), 200.0);
        assert_eq!(f.height(), 200.0);
        assert_eq!(f.area(), 40_000.0);
        assert!((f.diagonal() - 200.0 * 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn contains_boundary() {
        let f = Field::new(10.0, 20.0);
        assert!(f.contains(Vec2::ZERO));
        assert!(f.contains(Vec2::new(10.0, 20.0)));
        assert!(!f.contains(Vec2::new(10.1, 5.0)));
        assert!(!f.contains(Vec2::new(5.0, -0.1)));
    }

    #[test]
    fn clamp_moves_points_inside() {
        let f = Field::new(10.0, 10.0);
        assert_eq!(f.clamp(Vec2::new(-5.0, 15.0)), Vec2::new(0.0, 10.0));
        assert_eq!(f.clamp(Vec2::new(3.0, 4.0)), Vec2::new(3.0, 4.0));
    }

    #[test]
    fn uniform_samples_inside() {
        let f = Field::paper();
        let mut rng = SeedSplitter::new(5).stream(StreamKind::Placement, 0);
        for _ in 0..1000 {
            assert!(f.contains(f.sample_uniform(&mut rng)));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_zero_width() {
        let _ = Field::new(0.0, 10.0);
    }

    proptest! {
        #[test]
        fn prop_clamp_idempotent(x in -1e3f64..1e3, y in -1e3f64..1e3) {
            let f = Field::new(100.0, 50.0);
            let c = f.clamp(Vec2::new(x, y));
            prop_assert!(f.contains(c));
            prop_assert_eq!(f.clamp(c), c);
        }
    }
}
