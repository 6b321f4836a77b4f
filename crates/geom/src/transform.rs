//! Placement transforms: orientation followed by translation.

use crate::{Orientation, Point, Rect, Vector};

/// A rigid placement transform: the shape is first reoriented around the
/// origin by [`Orientation`], then translated so that the reoriented
/// origin lands on `offset`.
///
/// This is exactly the transform a cell *instance* applies to the master
/// cell's geometry.
///
/// ```
/// use bisram_geom::{Transform, Orientation, Point, Rect};
/// let t = Transform::new(Orientation::My, Point::new(100, 0));
/// // A rect hugging the y-axis mirrors to hug it from the left, then
/// // shifts right by 100.
/// assert_eq!(t.apply_rect(Rect::new(0, 0, 30, 10)), Rect::new(70, 0, 100, 10));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Transform {
    /// Reorientation applied around the origin.
    pub orientation: Orientation,
    /// Translation applied after reorientation.
    pub offset: Point,
}

impl Transform {
    /// The identity transform.
    pub const IDENTITY: Transform = Transform {
        orientation: Orientation::R0,
        offset: Point::ORIGIN,
    };

    /// Creates a transform from an orientation and an offset.
    pub const fn new(orientation: Orientation, offset: Point) -> Self {
        Transform {
            orientation,
            offset,
        }
    }

    /// A pure translation.
    pub const fn translate(offset: Point) -> Self {
        Transform {
            orientation: Orientation::R0,
            offset,
        }
    }

    /// Applies the transform to a point.
    pub fn apply_point(self, p: Point) -> Point {
        self.orientation.apply_point(p) + self.offset.to_vector()
    }

    /// Applies the transform to a rectangle.
    pub fn apply_rect(self, r: Rect) -> Rect {
        self.orientation
            .apply_rect(r)
            .translate(self.offset.to_vector())
    }

    /// Applies the transform to a direction vector (ignores the offset).
    pub fn apply_vector(self, v: Vector) -> Vector {
        let p = self.orientation.apply_point(Point::new(v.x, v.y));
        Vector::new(p.x, p.y)
    }

    /// Composition: applying `self` first, then `after`.
    pub fn then(self, after: Transform) -> Transform {
        Transform {
            orientation: self.orientation.then(after.orientation),
            offset: after.apply_point(self.offset),
        }
    }

    /// The inverse transform.
    pub fn inverse(self) -> Transform {
        let inv = self.orientation.inverse();
        let p = inv.apply_point(self.offset);
        Transform {
            orientation: inv,
            offset: Point::new(-p.x, -p.y),
        }
    }
}

impl std::fmt::Display for Transform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.orientation, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::seq::SliceRandom;
    use bisram_rng::{Rng, SeedableRng};

    #[test]
    fn identity_is_noop() {
        let r = Rect::new(3, 4, 10, 20);
        assert_eq!(Transform::IDENTITY.apply_rect(r), r);
    }

    #[test]
    fn translation_only() {
        let t = Transform::translate(Point::new(5, -2));
        assert_eq!(t.apply_point(Point::new(1, 1)), Point::new(6, -1));
    }

    fn arb_transform(rng: &mut StdRng) -> Transform {
        let o = *Orientation::ALL.choose(rng).expect("non-empty");
        Transform::new(
            o,
            Point::new(rng.gen_range(-200i64..200), rng.gen_range(-200i64..200)),
        )
    }

    // Deterministic seeded sweeps; failing transform/point pairs are
    // printed by the assert messages.

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x7_2A05_0001);
        for case in 0..256 {
            let t = arb_transform(&mut rng);
            let p = Point::new(rng.gen_range(-100i64..100), rng.gen_range(-100i64..100));
            assert_eq!(
                t.inverse().apply_point(t.apply_point(p)),
                p,
                "case {case}: t={t:?} p={p:?}"
            );
            assert_eq!(
                t.apply_point(t.inverse().apply_point(p)),
                p,
                "case {case}: t={t:?} p={p:?}"
            );
        }
    }

    #[test]
    fn composition_associates_with_application() {
        let mut rng = StdRng::seed_from_u64(0x7_2A05_0002);
        for case in 0..256 {
            let a = arb_transform(&mut rng);
            let b = arb_transform(&mut rng);
            let p = Point::new(rng.gen_range(-100i64..100), rng.gen_range(-100i64..100));
            assert_eq!(
                a.then(b).apply_point(p),
                b.apply_point(a.apply_point(p)),
                "case {case}: a={a:?} b={b:?} p={p:?}"
            );
        }
    }

    #[test]
    fn rect_transform_matches_corner_transform() {
        let mut rng = StdRng::seed_from_u64(0x7_2A05_0003);
        for case in 0..256 {
            let t = arb_transform(&mut rng);
            let x = rng.gen_range(-50i64..50);
            let y = rng.gen_range(-50i64..50);
            let r = Rect::new(x, y, x + 13, y + 7);
            let tr = t.apply_rect(r);
            // Both transformed corners must lie on the transformed rect
            // boundary corners.
            let c1 = t.apply_point(r.ll());
            let c2 = t.apply_point(r.ur());
            assert_eq!(
                tr,
                Rect::new(c1.x, c1.y, c2.x, c2.y),
                "case {case}: t={t:?} r={r}"
            );
        }
    }
}
