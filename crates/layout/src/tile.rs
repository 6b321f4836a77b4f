//! Array tiling by abutment, with strap-space insertion.
//!
//! "During this structured design, no routing is necessary and the
//! signals in adjacent modules are perfectly aligned and connected by
//! abutments" (paper §II). The *strap space* parameter "provides design
//! flexibility in increasing the spacing between subarrays at regular
//! intervals ... for example, to allow over-the-cell wiring across the
//! RAM array".

use crate::cell::Cell;
use bisram_geom::{Coord, Point, Port, PortDirection, Rect, Side, Transform};
use bisram_tech::Layer;
use std::sync::Arc;

/// Tiles `master` into a `rows × cols` grid, stepping by the master's
/// outline. All instances use the identity orientation so that
/// through-running wires (bitlines, word lines, rails) connect by exact
/// abutment.
///
/// # Panics
///
/// Panics for a zero-sized grid.
pub fn tile_grid(name: &str, master: Arc<Cell>, rows: usize, cols: usize) -> Cell {
    tile_with_straps(name, master, rows, cols, 0, 0)
}

/// Tiles a single row of `cols` instances.
pub fn tile_row(name: &str, master: Arc<Cell>, cols: usize) -> Cell {
    tile_grid(name, master, 1, cols)
}

/// Tiles a single column of `rows` instances.
pub fn tile_column(name: &str, master: Arc<Cell>, rows: usize) -> Cell {
    tile_grid(name, master, rows, 1)
}

/// Tiles with extra horizontal *strap space*: after every
/// `strap_every` columns (0 = never), a gap of `strap_space` DBU is
/// inserted for over-the-cell wiring.
///
/// # Panics
///
/// Panics for a zero-sized grid or negative strap space.
pub fn tile_with_straps(
    name: &str,
    master: Arc<Cell>,
    rows: usize,
    cols: usize,
    strap_every: usize,
    strap_space: Coord,
) -> Cell {
    assert!(rows > 0 && cols > 0, "grid must be non-empty");
    assert!(strap_space >= 0, "strap space cannot be negative");
    let pitch_x = master.bbox().width();
    let pitch_y = master.bbox().height();
    let mut out = Cell::new(name);
    let mut max_x = 0;
    for r in 0..rows {
        let mut x = 0;
        for c in 0..cols {
            if strap_every > 0 && c > 0 && c % strap_every == 0 {
                x += strap_space;
            }
            out.add_instance(
                format!("i_{r}_{c}"),
                Arc::clone(&master),
                Transform::translate(Point::new(x, r as Coord * pitch_y)),
            );
            x += pitch_x;
        }
        max_x = max_x.max(x);
    }
    out.set_outline(bisram_geom::Rect::new(0, 0, max_x, rows as Coord * pitch_y));
    out
}

/// The representative word-line boundary port of a row-pitched tile:
/// poly at the leaf library's word-line contract (y = 18λ..20λ of row
/// 0), a 2λ stub on the `West` or `East` edge of a cell `width` wide.
/// The placer's alignment heuristic matches these across macrocells, so
/// every macro exposing a word line must describe it identically —
/// which is why this lives here rather than being hand-built per macro.
///
/// # Panics
///
/// Panics on a side other than `West`/`East`.
pub fn wordline_boundary_port(
    lambda: Coord,
    width: Coord,
    side: Side,
    direction: PortDirection,
) -> Port {
    let (x0, x1) = match side {
        Side::West => (0, 2 * lambda),
        Side::East => (width - 2 * lambda, width),
        other => panic!("word lines leave on a vertical edge, not {other:?}"),
    };
    Port::new(
        "wl0",
        Layer::Poly.id(),
        Rect::new(x0, 18 * lambda, x1, 20 * lambda),
        side,
    )
    .with_direction(direction)
}

/// The representative bitline boundary port of a column-pitched tile:
/// metal2 at the leaf library's bitline contract (x = 2λ..5λ of column
/// 0), a 4λ stub on the `South` edge, bidirectional.
pub fn bitline_boundary_port(lambda: Coord) -> Port {
    Port::new(
        "bl0",
        Layer::Metal2.id(),
        Rect::new(2 * lambda, 0, 5 * lambda, 4 * lambda),
        Side::South,
    )
    .with_direction(PortDirection::Inout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf;
    use bisram_tech::Process;

    #[test]
    fn grid_dimensions() {
        let p = Process::cda07();
        let master = Arc::new(leaf::sram6t(&p));
        let w = master.bbox().width();
        let h = master.bbox().height();
        let grid = tile_grid("arr", master, 3, 5);
        assert_eq!(grid.bbox().width(), 5 * w);
        assert_eq!(grid.bbox().height(), 3 * h);
        assert_eq!(grid.instances().len(), 15);
    }

    #[test]
    fn strap_space_widens_the_array() {
        let p = Process::cda07();
        let master = Arc::new(leaf::sram6t(&p));
        let l = p.rules().lambda();
        let plain = tile_grid("a", Arc::clone(&master), 1, 64);
        let strapped = tile_with_straps("b", master, 1, 64, 32, 8 * l);
        // One strap gap at column 32.
        assert_eq!(strapped.bbox().width(), plain.bbox().width() + 8 * l);
    }

    #[test]
    fn rows_and_columns_helpers() {
        let p = Process::cda07();
        let master = Arc::new(leaf::col_mux(&p));
        assert_eq!(tile_row("r", Arc::clone(&master), 7).instances().len(), 7);
        assert_eq!(tile_column("c", master, 3).instances().len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_rejected() {
        let p = Process::cda07();
        tile_grid("bad", Arc::new(leaf::sram6t(&p)), 0, 3);
    }

    #[test]
    fn boundary_ports_sit_at_the_pitch_contract() {
        let l = 350;
        let west = wordline_boundary_port(l, 9000, Side::West, PortDirection::Input);
        assert_eq!(west.rect(), Rect::new(0, 18 * l, 2 * l, 20 * l));
        let east = wordline_boundary_port(l, 9000, Side::East, PortDirection::Output);
        assert_eq!(east.rect(), Rect::new(9000 - 2 * l, 18 * l, 9000, 20 * l));
        assert_eq!(east.name(), "wl0");
        let bl = bitline_boundary_port(l);
        assert_eq!(bl.rect(), Rect::new(2 * l, 0, 5 * l, 4 * l));
        assert_eq!(bl.name(), "bl0");
        assert_eq!(bl.layer(), Layer::Metal2.id());
    }

    #[test]
    #[should_panic(expected = "vertical edge")]
    fn wordline_port_rejects_horizontal_sides() {
        let _ = wordline_boundary_port(250, 1000, Side::South, PortDirection::Input);
    }
}
