//! Axis-aligned rectangles.

use crate::{Coord, Point, Vector};

/// An axis-aligned rectangle with inclusive lower-left and exclusive
/// upper-right semantics for area purposes; coordinates are plain DBU
/// values and a degenerate rectangle (zero width or height) is permitted
/// so that abutment lines can be represented.
///
/// Invariant: `x0 <= x1 && y0 <= y1`. Constructors normalize their inputs,
/// so the invariant always holds.
///
/// ```
/// use bisram_geom::Rect;
/// let r = Rect::new(10, 0, 0, 5); // corners given in any order
/// assert_eq!(r, Rect::new(0, 0, 10, 5));
/// assert_eq!(r.area(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    x0: Coord,
    y0: Coord,
    x1: Coord,
    y1: Coord,
}

impl Rect {
    /// Creates a rectangle from two opposite corners, in any order.
    pub fn new(xa: Coord, ya: Coord, xb: Coord, yb: Coord) -> Self {
        Rect {
            x0: xa.min(xb),
            y0: ya.min(yb),
            x1: xa.max(xb),
            y1: ya.max(yb),
        }
    }

    /// Creates a rectangle from its lower-left corner and a size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn with_size(ll: Point, width: Coord, height: Coord) -> Self {
        assert!(width >= 0 && height >= 0, "negative rect size");
        Rect::new(ll.x, ll.y, ll.x + width, ll.y + height)
    }

    /// The empty rectangle at the origin.
    pub const EMPTY: Rect = Rect {
        x0: 0,
        y0: 0,
        x1: 0,
        y1: 0,
    };

    /// Left edge coordinate.
    pub const fn left(self) -> Coord {
        self.x0
    }

    /// Bottom edge coordinate.
    pub const fn bottom(self) -> Coord {
        self.y0
    }

    /// Right edge coordinate.
    pub const fn right(self) -> Coord {
        self.x1
    }

    /// Top edge coordinate.
    pub const fn top(self) -> Coord {
        self.y1
    }

    /// Lower-left corner.
    pub const fn ll(self) -> Point {
        Point::new(self.x0, self.y0)
    }

    /// Upper-right corner.
    pub const fn ur(self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// Horizontal extent.
    pub const fn width(self) -> Coord {
        self.x1 - self.x0
    }

    /// Vertical extent.
    pub const fn height(self) -> Coord {
        self.y1 - self.y0
    }

    /// Area in square DBU.
    pub const fn area(self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Center point (rounded toward the lower-left on odd extents).
    pub const fn center(self) -> Point {
        Point::new((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
    }

    /// True if the rectangle has zero width or height.
    pub const fn is_degenerate(self) -> bool {
        self.x0 == self.x1 || self.y0 == self.y1
    }

    /// Translates the rectangle by a vector.
    pub fn translate(self, v: Vector) -> Rect {
        Rect {
            x0: self.x0 + v.x,
            y0: self.y0 + v.y,
            x1: self.x1 + v.x,
            y1: self.y1 + v.y,
        }
    }

    /// Grows (or shrinks, for negative `d`) the rectangle on all four
    /// sides. Shrinking below zero extent collapses to the center line
    /// rather than producing an invalid rectangle.
    pub fn expand(self, d: Coord) -> Rect {
        let x0 = self.x0 - d;
        let x1 = self.x1 + d;
        let y0 = self.y0 - d;
        let y1 = self.y1 + d;
        if x0 > x1 || y0 > y1 {
            let c = self.center();
            let (x0, x1) = if x0 > x1 { (c.x, c.x) } else { (x0, x1) };
            let (y0, y1) = if y0 > y1 { (c.y, c.y) } else { (y0, y1) };
            Rect { x0, y0, x1, y1 }
        } else {
            Rect { x0, y0, x1, y1 }
        }
    }

    /// True if `p` lies inside or on the boundary.
    pub fn contains_point(self, p: Point) -> bool {
        p.x >= self.x0 && p.x <= self.x1 && p.y >= self.y0 && p.y <= self.y1
    }

    /// True if `other` lies entirely inside or on the boundary of `self`.
    pub fn contains_rect(self, other: Rect) -> bool {
        other.x0 >= self.x0 && other.x1 <= self.x1 && other.y0 >= self.y0 && other.y1 <= self.y1
    }

    /// True if the interiors of the two rectangles overlap (shared area
    /// strictly greater than zero).
    pub fn overlaps(self, other: Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// True if the rectangles touch (share at least an edge segment or a
    /// corner) or overlap.
    pub fn touches(self, other: Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// True if the rectangles share an edge segment of positive length but
    /// do not overlap — the abutment condition used when macrocells are
    /// connected without routing.
    ///
    /// ```
    /// use bisram_geom::Rect;
    /// let a = Rect::new(0, 0, 10, 10);
    /// let b = Rect::new(10, 2, 20, 8);
    /// assert!(a.abuts(b));
    /// assert!(!a.overlaps(b));
    /// ```
    pub fn abuts(self, other: Rect) -> bool {
        if self.overlaps(other) {
            return false;
        }
        let x_touch = self.x1 == other.x0 || other.x1 == self.x0;
        let y_touch = self.y1 == other.y0 || other.y1 == self.y0;
        let x_overlap_len = self.x1.min(other.x1) - self.x0.max(other.x0);
        let y_overlap_len = self.y1.min(other.y1) - self.y0.max(other.y0);
        (x_touch && y_overlap_len > 0) || (y_touch && x_overlap_len > 0)
    }

    /// Intersection, or `None` when the rectangles do not even touch.
    /// A degenerate (line or point) intersection is returned as a
    /// degenerate rectangle.
    pub fn intersection(self, other: Rect) -> Option<Rect> {
        if !self.touches(other) {
            return None;
        }
        Some(Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        })
    }

    /// Smallest rectangle containing both inputs.
    pub fn union(self, other: Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Smallest rectangle containing every input, or `None` for an empty
    /// iterator.
    pub fn bounding<I: IntoIterator<Item = Rect>>(rects: I) -> Option<Rect> {
        rects.into_iter().reduce(Rect::union)
    }

    /// Minimum separation between the two rectangles measured as the
    /// Chebyshev-style gap used by spacing design rules: the larger of the
    /// horizontal and vertical gaps, zero when they touch or overlap.
    ///
    /// Spacing rules in Manhattan layouts are checked per-axis: two shapes
    /// violate a spacing rule `s` when both their horizontal and vertical
    /// gaps are less than `s`.
    pub fn spacing(self, other: Rect) -> Coord {
        let dx = (other.x0 - self.x1).max(self.x0 - other.x1).max(0);
        let dy = (other.y0 - self.y1).max(self.y0 - other.y1).max(0);
        dx.max(dy)
    }

    /// The minimum of width and height — what minimum-width design rules
    /// constrain.
    pub fn min_dimension(self) -> Coord {
        self.width().min(self.height())
    }

    /// The maximum of width and height.
    pub fn max_dimension(self) -> Coord {
        self.width().max(self.height())
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{},{} {}x{}]",
            self.x0,
            self.y0,
            self.width(),
            self.height()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    #[test]
    fn constructor_normalizes_corners() {
        let r = Rect::new(5, 9, 1, 2);
        assert_eq!(r.ll(), Point::new(1, 2));
        assert_eq!(r.ur(), Point::new(5, 9));
    }

    #[test]
    fn area_and_dimensions() {
        let r = Rect::with_size(Point::new(2, 3), 7, 11);
        assert_eq!(r.width(), 7);
        assert_eq!(r.height(), 11);
        assert_eq!(r.area(), 77);
        assert_eq!(r.min_dimension(), 7);
        assert_eq!(r.max_dimension(), 11);
    }

    #[test]
    #[should_panic(expected = "negative rect size")]
    fn with_size_rejects_negative() {
        let _ = Rect::with_size(Point::ORIGIN, -1, 5);
    }

    #[test]
    fn expand_and_shrink() {
        let r = Rect::new(0, 0, 10, 10);
        assert_eq!(r.expand(2), Rect::new(-2, -2, 12, 12));
        assert_eq!(r.expand(-3), Rect::new(3, 3, 7, 7));
        // Over-shrinking collapses to the centerline instead of inverting.
        let collapsed = r.expand(-6);
        assert!(collapsed.is_degenerate());
        assert!(r.contains_rect(collapsed));
    }

    #[test]
    fn overlap_touch_abut_distinctions() {
        let a = Rect::new(0, 0, 10, 10);
        let overlapping = Rect::new(5, 5, 15, 15);
        let abutting = Rect::new(10, 0, 20, 10);
        let corner = Rect::new(10, 10, 20, 20);
        let distant = Rect::new(11, 0, 20, 10);

        assert!(a.overlaps(overlapping) && !a.abuts(overlapping));
        assert!(!a.overlaps(abutting) && a.abuts(abutting) && a.touches(abutting));
        // Corner contact touches but does not abut (no shared edge length).
        assert!(a.touches(corner) && !a.abuts(corner));
        assert!(!a.touches(distant) && a.spacing(distant) == 1);
    }

    #[test]
    fn intersection_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersection(b), Some(Rect::new(5, 5, 10, 10)));
        assert_eq!(a.union(b), Rect::new(0, 0, 15, 15));
        assert_eq!(a.intersection(Rect::new(20, 20, 30, 30)), None);
    }

    #[test]
    fn bounding_of_rect_collection() {
        let rects = vec![
            Rect::new(0, 0, 1, 1),
            Rect::new(5, -3, 6, 0),
            Rect::new(-2, 2, 0, 4),
        ];
        assert_eq!(Rect::bounding(rects), Some(Rect::new(-2, -3, 6, 4)));
        assert_eq!(Rect::bounding(std::iter::empty()), None);
    }

    #[test]
    fn spacing_is_axis_gap() {
        let a = Rect::new(0, 0, 10, 10);
        // Diagonal neighbour: gaps 3 (x) and 4 (y) -> rule distance 4.
        let b = Rect::new(13, 14, 20, 20);
        assert_eq!(a.spacing(b), 4);
        assert_eq!(b.spacing(a), 4);
        assert_eq!(a.spacing(a), 0);
    }

    fn arb_rect(rng: &mut StdRng) -> Rect {
        Rect::new(
            rng.gen_range(-1000i64..1000),
            rng.gen_range(-1000i64..1000),
            rng.gen_range(-1000i64..1000),
            rng.gen_range(-1000i64..1000),
        )
    }

    // Deterministic seeded sweeps; rect pairs are drawn from the same
    // ±1000 box the proptest strategies used, so overlapping, abutting
    // and distant pairs all occur. The failing pair is in every message.

    #[test]
    fn union_contains_both() {
        let mut rng = StdRng::seed_from_u64(0x2EC7_0001);
        for case in 0..256 {
            let (a, b) = (arb_rect(&mut rng), arb_rect(&mut rng));
            let u = a.union(b);
            assert!(u.contains_rect(a), "case {case}: union {u} of {a}, {b}");
            assert!(u.contains_rect(b), "case {case}: union {u} of {a}, {b}");
        }
    }

    #[test]
    fn intersection_contained_in_both() {
        let mut rng = StdRng::seed_from_u64(0x2EC7_0002);
        for case in 0..256 {
            let (a, b) = (arb_rect(&mut rng), arb_rect(&mut rng));
            if let Some(i) = a.intersection(b) {
                assert!(a.contains_rect(i), "case {case}: {a} ∩ {b} = {i}");
                assert!(b.contains_rect(i), "case {case}: {a} ∩ {b} = {i}");
            }
        }
    }

    #[test]
    fn translate_preserves_size() {
        let mut rng = StdRng::seed_from_u64(0x2EC7_0003);
        for case in 0..256 {
            let r = arb_rect(&mut rng);
            let v = crate::Vector::new(rng.gen_range(-500i64..500), rng.gen_range(-500i64..500));
            let t = r.translate(v);
            assert_eq!(t.width(), r.width(), "case {case}: {r} by {v:?}");
            assert_eq!(t.height(), r.height(), "case {case}: {r} by {v:?}");
            assert_eq!(t.area(), r.area(), "case {case}: {r} by {v:?}");
        }
    }

    #[test]
    fn overlap_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(0x2EC7_0004);
        for case in 0..256 {
            let (a, b) = (arb_rect(&mut rng), arb_rect(&mut rng));
            assert_eq!(a.overlaps(b), b.overlaps(a), "case {case}: {a} vs {b}");
            assert_eq!(a.abuts(b), b.abuts(a), "case {case}: {a} vs {b}");
            assert_eq!(a.spacing(b), b.spacing(a), "case {case}: {a} vs {b}");
        }
    }

    #[test]
    fn overlap_implies_touch_not_abut() {
        let mut rng = StdRng::seed_from_u64(0x2EC7_0005);
        for case in 0..256 {
            let (a, b) = (arb_rect(&mut rng), arb_rect(&mut rng));
            if a.overlaps(b) {
                assert!(a.touches(b), "case {case}: {a} vs {b}");
                assert!(!a.abuts(b), "case {case}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn spacing_zero_iff_touching() {
        let mut rng = StdRng::seed_from_u64(0x2EC7_0006);
        for case in 0..256 {
            let (a, b) = (arb_rect(&mut rng), arb_rect(&mut rng));
            assert_eq!(a.spacing(b) == 0, a.touches(b), "case {case}: {a} vs {b}");
        }
    }
}
