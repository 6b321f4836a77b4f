//! Interval-sweep primitives for scanline geometry engines.
//!
//! The design-rule checker and the extraction engine both reduce to the
//! same kernel question: *which pairs of rectangles are within `window`
//! of each other?* Answering it pairwise is O(n²) and dominates
//! macrocell-scale runs; the sweep here sorts shapes by their left edge
//! once and then only scans forward while the x-gap can still be inside
//! the window, which is O(n·k) for k neighbours per shape — effectively
//! linear on tiled layouts, whose shapes are spread evenly in x.
//!
//! The module also carries the two small companions every geometry
//! engine needs next to the sweep: a union–find for connectivity
//! classes, and an exact rectangle-coverage test for enclosure rules.

use crate::{Coord, Rect};

/// Disjoint-set forest (union–find) with path halving, used for
/// connectivity classes over shapes.
///
/// ```
/// use bisram_geom::sweep::UnionFind;
/// let mut uf = UnionFind::new(3);
/// uf.union(0, 2);
/// assert_eq!(uf.find(0), uf.find(2));
/// assert_ne!(uf.find(0), uf.find(1));
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets `0..n`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for an empty forest.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `i`'s set.
    pub fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Merges the sets of `a` and `b`. The larger root is linked under
    /// the smaller, so unions made in index order — a column of cells
    /// merged bottom-up — leave a star instead of a chain whose every
    /// `find` walks back to the start.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Calls `visit(i, j)` (with `i < j`) for every pair of rectangles whose
/// [`Rect::spacing`] is at most `window`. `window == 0` yields exactly
/// the touching/overlapping pairs.
///
/// This is the scanline replacement for the all-pairs loop: shapes are
/// visited in lower-edge order along one axis and each forward scan
/// stops as soon as the gap on that axis alone exceeds the window, which
/// no later shape can shrink. The axis is the one along which the lower
/// edges spread further (x on a tie), so a column of stacked rows —
/// every left edge equal — is swept bottom-up in O(n) rather than
/// scanned in O(n²). Pairs are emitted in sweep order; callers that
/// need a fixed order sort them.
///
/// ```
/// use bisram_geom::{sweep, Rect};
/// let rects = [
///     Rect::new(0, 0, 10, 10),
///     Rect::new(12, 0, 20, 10),  // 2 from the first
///     Rect::new(100, 0, 110, 10),
/// ];
/// let mut pairs = Vec::new();
/// sweep::pair_sweep(&rects, 5, |i, j| pairs.push((i, j)));
/// assert_eq!(pairs, vec![(0, 1)]);
/// ```
pub fn pair_sweep<F: FnMut(usize, usize)>(rects: &[Rect], window: Coord, mut visit: F) {
    type Edge = fn(Rect) -> Coord;
    let spread = |edge: Edge| {
        let (lo, hi) = rects.iter().fold((Coord::MAX, Coord::MIN), |(lo, hi), &r| {
            (lo.min(edge(r)), hi.max(edge(r)))
        });
        hi.saturating_sub(lo)
    };
    let (lower, upper): (Edge, Edge) = if spread(Rect::bottom) > spread(Rect::left) {
        (Rect::bottom, Rect::top)
    } else {
        (Rect::left, Rect::right)
    };
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_by_key(|&i| (lower(rects[i]), i));
    for (pos, &i) in order.iter().enumerate() {
        let reach = upper(rects[i]) + window;
        for &j in &order[pos + 1..] {
            if lower(rects[j]) > reach {
                break;
            }
            if rects[i].spacing(rects[j]) <= window {
                visit(i.min(j), i.max(j));
            }
        }
    }
}

/// Calls `visit(ia, ib)` for every cross-set pair `(a[ia], b[ib])` whose
/// spacing is at most `window`. The two sets are swept together, so the
/// cost is sorted-merge-like rather than |a|·|b|.
pub fn join_sweep<F: FnMut(usize, usize)>(a: &[Rect], b: &[Rect], window: Coord, mut visit: F) {
    // Tag and co-sort; forward-scan as in pair_sweep, emitting only
    // cross-tag pairs.
    let mut order: Vec<(bool, usize)> = (0..a.len())
        .map(|i| (false, i))
        .chain((0..b.len()).map(|i| (true, i)))
        .collect();
    let rect = |&(tb, i): &(bool, usize)| if tb { b[i] } else { a[i] };
    order.sort_by_key(|e| (rect(e).left(), e.0, e.1));
    for (pos, ea) in order.iter().enumerate() {
        let ra = rect(ea);
        let reach = ra.right() + window;
        for eb in &order[pos + 1..] {
            let rb = rect(eb);
            if rb.left() > reach {
                break;
            }
            if ea.0 != eb.0 && ra.spacing(rb) <= window {
                let (ia, ib) = if ea.0 { (eb.1, ea.1) } else { (ea.1, eb.1) };
                visit(ia, ib);
            }
        }
    }
}

/// True when `target` is completely covered by the union of `covers`
/// (boundary contact counts as covered). Degenerate targets are covered
/// trivially.
///
/// Exact, by rectangle subtraction: enclosure rules ("the expanded cut
/// must be covered by the surrounding conductor") reduce to this, and a
/// union of overlapping rectangles cannot be tested with per-rectangle
/// containment alone.
///
/// ```
/// use bisram_geom::{sweep, Rect};
/// let halves = [Rect::new(0, 0, 6, 10), Rect::new(4, 0, 10, 10)];
/// assert!(sweep::covered_by(Rect::new(1, 1, 9, 9), &halves));
/// assert!(!sweep::covered_by(Rect::new(1, 1, 11, 9), &halves));
/// ```
pub fn covered_by(target: Rect, covers: &[Rect]) -> bool {
    let mut uncovered = vec![target];
    uncovered.retain(|r| !r.is_degenerate());
    for &c in covers {
        if uncovered.is_empty() {
            return true;
        }
        let mut next = Vec::with_capacity(uncovered.len());
        for &u in &uncovered {
            match u.intersection(c) {
                Some(i) if !i.is_degenerate() => {
                    // Up to four L-pieces of `u` outside `c`.
                    let pieces = [
                        Rect::new(u.left(), u.bottom(), u.right(), i.bottom()),
                        Rect::new(u.left(), i.top(), u.right(), u.top()),
                        Rect::new(u.left(), i.bottom(), i.left(), i.top()),
                        Rect::new(i.right(), i.bottom(), u.right(), i.top()),
                    ];
                    next.extend(pieces.into_iter().filter(|p| !p.is_degenerate()));
                }
                _ => next.push(u),
            }
        }
        uncovered = next;
    }
    uncovered.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    fn arb_rect(rng: &mut StdRng) -> Rect {
        let x = rng.gen_range(-500i64..500);
        let y = rng.gen_range(-500i64..500);
        Rect::new(
            x,
            y,
            x + rng.gen_range(1i64..120),
            y + rng.gen_range(1i64..120),
        )
    }

    /// A stack of `n` abutting (or, with `gap`, separated) rows of one
    /// width and a shared left edge, optionally jittered in x.
    fn stack(rng: &mut StdRng, n: usize, gap: Coord, jitter: Coord) -> Vec<Rect> {
        let (w, h) = (rng.gen_range(50i64..400), rng.gen_range(5i64..40));
        (0..n as Coord)
            .map(|k| {
                let x = if jitter > 0 {
                    rng.gen_range(-jitter..=jitter)
                } else {
                    0
                };
                Rect::new(x, k * (h + gap), x + w, k * (h + gap) + h)
            })
            .collect()
    }

    /// One drawn set of `kind % 5`: scattered rects (kinds 0 and 1),
    /// tall stacks, which the sweep runs along y (2), a single column of
    /// unit cells (3), or a mixture of stacks beside scattered shapes,
    /// where either axis can win, with one stack transposed to a row (4).
    fn arb_set(rng: &mut StdRng, kind: usize) -> Vec<Rect> {
        match kind % 5 {
            0 | 1 => (0..40).map(|_| arb_rect(rng)).collect(),
            2 => {
                let gap = rng.gen_range(0i64..20);
                let jitter = rng.gen_range(0i64..30);
                stack(rng, 60, gap, jitter)
            }
            3 => (0..50)
                .map(|k| Rect::new(7, 10 * k, 17, 10 * k + 10))
                .collect(),
            _ => {
                let gap = rng.gen_range(0i64..5);
                let mut v = stack(rng, 30, gap, 0);
                v.extend((0..20).map(|_| arb_rect(rng)));
                v.extend(transposed(stack(rng, 10, 0, 0)));
                v
            }
        }
    }

    /// `rects` with every rectangle's axes swapped.
    fn transposed(rects: Vec<Rect>) -> Vec<Rect> {
        rects
            .into_iter()
            .map(|r| Rect::new(r.bottom(), r.left(), r.top(), r.right()))
            .collect()
    }

    #[test]
    fn pair_sweep_matches_all_pairs_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EE9_0001);
        for case in 0..160 {
            let rects = arb_set(&mut rng, case);
            let window = rng.gen_range(0i64..80);
            let mut swept = Vec::new();
            pair_sweep(&rects, window, |i, j| swept.push((i, j)));
            swept.sort_unstable();
            let mut reference = Vec::new();
            for i in 0..rects.len() {
                for j in (i + 1)..rects.len() {
                    if rects[i].spacing(rects[j]) <= window {
                        reference.push((i, j));
                    }
                }
            }
            assert_eq!(swept, reference, "case {case} window {window}");
        }
    }

    #[test]
    fn join_sweep_matches_nested_loop_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EE9_0002);
        for case in 0..200 {
            // Every pairing of the `arb_set` kinds on the two sides,
            // either side transposed, an empty side every seventh case,
            // and zero-width or zero-height rects mixed in.
            let mut a = arb_set(&mut rng, case);
            let mut b = arb_set(&mut rng, case / 5);
            if case % 3 == 1 {
                a = transposed(a);
            }
            if case % 4 == 2 {
                b = transposed(b);
            }
            match case % 7 {
                0 => a.clear(),
                3 => b.clear(),
                _ => {}
            }
            if case % 2 == 0 {
                for side in [&mut a, &mut b] {
                    for _ in 0..5 {
                        let r = arb_rect(&mut rng);
                        side.push(if rng.gen_range(0u32..2) == 0 {
                            Rect::new(r.left(), r.bottom(), r.left(), r.top())
                        } else {
                            Rect::new(r.left(), r.bottom(), r.right(), r.bottom())
                        });
                    }
                }
            }
            let window = rng.gen_range(0i64..80);
            let mut swept = Vec::new();
            join_sweep(&a, &b, window, |i, j| swept.push((i, j)));
            swept.sort_unstable();
            let mut reference = Vec::new();
            for (i, ra) in a.iter().enumerate() {
                for (j, rb) in b.iter().enumerate() {
                    if ra.spacing(*rb) <= window {
                        reference.push((i, j));
                    }
                }
            }
            assert_eq!(swept, reference, "case {case} window {window}");
        }
    }

    #[test]
    fn pair_sweep_zero_window_is_touching() {
        let rects = [
            Rect::new(0, 0, 10, 10),
            Rect::new(10, 0, 20, 10), // abuts 0
            Rect::new(21, 0, 30, 10), // 1 away from 1
            Rect::new(5, 5, 15, 15),  // overlaps 0 and 1
        ];
        let mut pairs = Vec::new();
        pair_sweep(&rects, 0, |i, j| pairs.push((i, j)));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 3), (1, 3)]);
    }

    #[test]
    fn union_find_transitive() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(2), uf.find(3));
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
    }

    #[test]
    fn covered_by_union_but_not_parts() {
        let target = Rect::new(0, 0, 10, 10);
        let left = Rect::new(-1, -1, 6, 11);
        let right = Rect::new(5, -1, 11, 11);
        assert!(!covered_by(target, &[left]));
        assert!(!covered_by(target, &[right]));
        assert!(covered_by(target, &[left, right]));
    }

    #[test]
    fn covered_by_detects_pinholes() {
        // Four rects framing the target but missing its centre.
        let target = Rect::new(0, 0, 9, 9);
        let frame = [
            Rect::new(0, 0, 9, 4),
            Rect::new(0, 5, 9, 9),
            Rect::new(0, 0, 4, 9),
            Rect::new(5, 0, 9, 9),
        ];
        assert!(!covered_by(target, &frame));
        assert!(covered_by(target, &[Rect::new(0, 0, 9, 9)]));
    }

    #[test]
    fn covered_by_randomised_against_point_sampling() {
        let mut rng = StdRng::seed_from_u64(0x5EE9_0003);
        for case in 0..128 {
            let target = Rect::new(0, 0, 20, 20);
            let covers: Vec<Rect> = (0..rng.gen_range(1usize..6))
                .map(|_| {
                    let x = rng.gen_range(-5i64..15);
                    let y = rng.gen_range(-5i64..15);
                    Rect::new(
                        x,
                        y,
                        x + rng.gen_range(5i64..25),
                        y + rng.gen_range(5i64..25),
                    )
                })
                .collect();
            let covered = covered_by(target, &covers);
            // Unit-grid point sampling is exact here because all
            // coordinates are integers: test each unit cell's centre
            // via containment of the cell.
            let sampled = (0..20).all(|x| {
                (0..20).all(|y| {
                    let cell = Rect::new(x, y, x + 1, y + 1);
                    covers.iter().any(|c| c.contains_rect(cell))
                })
            });
            assert_eq!(covered, sampled, "case {case}: {covers:?}");
        }
    }

    #[test]
    fn degenerate_target_is_trivially_covered() {
        assert!(covered_by(Rect::new(5, 5, 5, 9), &[]));
    }
}
