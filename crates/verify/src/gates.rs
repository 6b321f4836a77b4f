//! Shared MOS gate recognition over poly/diffusion overlaps.
//!
//! Both the DRC engine (gate/source-drain extension rules) and the
//! extractor (device recognition, diffusion splitting) start from the same
//! question: where does poly cross active? Keeping the answer in one place
//! keeps the two engines' notion of "a gate" identical.

use bisram_geom::{sweep, Coord, Rect};

use crate::error::VerifyError;

/// One strict poly-over-active overlap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateHit {
    /// Index into the poly rect list.
    pub poly: usize,
    /// Index into the active rect list.
    pub active: usize,
    /// Poly endcap past the channel when the poly crosses the active
    /// vertically (negative: does not fully cross that way).
    pub ext_v: Coord,
    /// Endcap for a horizontal crossing.
    pub ext_h: Coord,
    /// The channel region: poly ∩ active.
    pub overlap: Rect,
}

impl GateHit {
    /// Largest endcap over the two crossing directions; a proper gate has
    /// `ext() >= 0`, and the gate-extension rule demands `ext() >= rule`.
    pub fn ext(&self) -> Coord {
        self.ext_v.max(self.ext_h)
    }

    /// True when the poly fully crosses the diffusion in either direction,
    /// i.e. the overlap really is a MOS channel.
    pub fn crosses(&self) -> bool {
        self.ext() >= 0
    }

    /// True when the crossing is vertical (poly running top-to-bottom,
    /// channel cut left/right). Ties go to vertical.
    pub fn vertical(&self) -> bool {
        self.ext_v >= self.ext_h
    }
}

/// All strict poly/active overlaps, ordered by `(active, poly)` index so
/// downstream per-diffusion grouping is deterministic.
///
/// Touch-only (zero-area) contacts between poly and active are not gates
/// and are skipped. A pair that reports as overlapping but yields an
/// empty or degenerate intersection is an internal inconsistency in the
/// shape data and surfaces as a typed error rather than a panic.
pub(crate) fn find_gates(poly: &[Rect], active: &[Rect]) -> Result<Vec<GateHit>, VerifyError> {
    let mut hits = Vec::new();
    let mut error = None;
    sweep::join_sweep(poly, active, 0, |pi, ai| {
        let (p, a) = (poly[pi], active[ai]);
        if !p.overlaps(a) {
            return;
        }
        let overlap = match p.intersection(a) {
            Some(o) if !o.is_degenerate() => o,
            _ => {
                if error.is_none() {
                    error = Some(VerifyError::DegenerateGateOverlap { poly: p, active: a });
                }
                return;
            }
        };
        hits.push(GateHit {
            poly: pi,
            active: ai,
            ext_v: (p.top() - a.top()).min(a.bottom() - p.bottom()),
            ext_h: (a.left() - p.left()).min(p.right() - a.right()),
            overlap,
        });
    });
    if let Some(e) = error {
        return Err(e);
    }
    hits.sort_by_key(|h| (h.active, h.poly));
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertical_crossing_recognised() {
        let poly = [Rect::new(6, 3, 8, 16)];
        let active = [Rect::new(3, 5, 11, 14)];
        let hits = find_gates(&poly, &active).expect("consistent input");
        assert_eq!(hits.len(), 1);
        let h = hits[0];
        assert!(h.crosses() && h.vertical());
        assert_eq!(h.ext(), 2);
        assert_eq!(h.overlap, Rect::new(6, 5, 8, 14));
    }

    #[test]
    fn horizontal_crossing_recognised() {
        let poly = [Rect::new(0, 6, 26, 8)];
        let active = [Rect::new(2, 3, 6, 13)];
        let h = find_gates(&poly, &active).expect("consistent input")[0];
        assert!(h.crosses() && !h.vertical());
        assert_eq!(h.ext(), 2);
    }

    #[test]
    fn partial_overlap_is_not_a_crossing() {
        // Poly pokes into the diffusion corner without crossing it.
        let poly = [Rect::new(6, 10, 8, 20)];
        let active = [Rect::new(3, 5, 11, 14)];
        let h = find_gates(&poly, &active).expect("consistent input")[0];
        assert!(!h.crosses());
        assert!(h.ext() < 0);
    }

    #[test]
    fn touching_pairs_are_ignored() {
        let poly = [Rect::new(0, 14, 26, 16)];
        let active = [Rect::new(3, 5, 11, 14)];
        assert!(find_gates(&poly, &active)
            .expect("consistent input")
            .is_empty());
    }

    #[test]
    fn degenerate_rects_do_not_panic() {
        // Point rects only touch, never strictly overlap: no gates.
        let poly = [Rect::new(0, 0, 0, 0)];
        let active = [Rect::new(3, 5, 11, 14), Rect::new(0, 0, 0, 0)];
        assert!(find_gates(&poly, &active).expect("no gates").is_empty());

        // A zero-width sliver slicing through a diffusion used to panic
        // ("overlapping rects intersect"); it now surfaces as a typed
        // error naming the offending pair.
        let sliver = [Rect::new(5, 0, 5, 20)];
        let err = find_gates(&sliver, &active).expect_err("degenerate overlap");
        assert_eq!(
            err,
            VerifyError::DegenerateGateOverlap {
                poly: Rect::new(5, 0, 5, 20),
                active: Rect::new(3, 5, 11, 14),
            }
        );
    }
}
