//! Over-the-cell metal-3 routing.
//!
//! Paper §II: the tool "often uses over-the-cell routing with third
//! metal, instead of channel or global routing, to reduce the
//! interconnect lengths and delays". After macrocell placement, ports
//! that did not connect by abutment get L-shaped metal-3 wires.

use crate::placer::Placement;
use bisram_geom::{Coord, Point, Rect};
use bisram_tech::{Layer, Process};

/// One routed connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Net name (the shared port name).
    pub net: String,
    /// Wire rectangles (metal 3) plus via landing pads.
    pub shapes: Vec<(Layer, Rect)>,
    /// Total centerline length in DBU.
    pub length: Coord,
}

/// An L-shaped (horizontal-then-vertical) metal-3 wire between two
/// points, `width` wide. Degenerate legs are omitted.
pub fn l_route(net: &str, a: Point, b: Point, width: Coord) -> Route {
    assert!(width > 0, "wire width must be positive");
    let half = width / 2;
    let mut shapes = Vec::new();
    if a.x != b.x {
        shapes.push((
            Layer::Metal3,
            Rect::new(
                a.x.min(b.x) - half,
                a.y - half,
                a.x.max(b.x) + half,
                a.y + half,
            ),
        ));
    }
    if a.y != b.y {
        shapes.push((
            Layer::Metal3,
            Rect::new(
                b.x - half,
                a.y.min(b.y) - half,
                b.x + half,
                a.y.max(b.y) + half,
            ),
        ));
    }
    Route {
        net: net.to_owned(),
        shapes,
        length: (a.x - b.x).abs() + (a.y - b.y).abs(),
    }
}

/// Routes every pair of same-named ports between *different* macros of a
/// placement that do not already touch (abutment connections need no
/// wire). Returns the routes in net-name order.
pub fn route_placement(placement: &Placement, process: &Process) -> Vec<Route> {
    let width = process.rules().min_width(Layer::Metal3);
    let mut routes = Vec::new();
    let placed = placement.placed();
    for i in 0..placed.len() {
        for j in (i + 1)..placed.len() {
            for pa in placed[i].cell.ports() {
                for pb in placed[j].cell.ports() {
                    if pa.name() != pb.name() {
                        continue;
                    }
                    let ra = placed[i].transform.apply_rect(pa.rect());
                    let rb = placed[j].transform.apply_rect(pb.rect());
                    if ra.touches(rb) {
                        continue; // connected by abutment
                    }
                    routes.push(l_route(pa.name(), ra.center(), rb.center(), width));
                }
            }
        }
    }
    routes.sort_by(|a, b| a.net.cmp(&b.net));
    routes
}

/// Wire resistance and capacitance of a metal route of `length` DBU and
/// `width` DBU in the given process, plus its Elmore delay into
/// `load_cap` farads.
pub fn wire_delay(process: &Process, length: Coord, width: Coord, load_cap: f64) -> f64 {
    let d = process.devices();
    let len_m = length as f64 * 1e-9;
    let w_m = width as f64 * 1e-9;
    let r = d.rsh_metal * len_m / w_m;
    let c = d.cw_metal * len_m;
    bisram_circuit::elmore::wire_delay(r, c, load_cap)
}

/// Total wire length of a route set, DBU.
pub fn total_length(routes: &[Route]) -> Coord {
    routes.iter().map(|r| r.length).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::placer::{place, Macro};
    use bisram_geom::{Port, Side};
    use std::sync::Arc;

    #[test]
    fn l_route_shapes_and_length() {
        let r = l_route("n", Point::new(0, 0), Point::new(1000, 500), 100);
        assert_eq!(r.length, 1500);
        assert_eq!(r.shapes.len(), 2);
        for (layer, _) in &r.shapes {
            assert_eq!(*layer, Layer::Metal3);
        }
        // Straight wire has one leg.
        let s = l_route("n", Point::new(0, 0), Point::new(0, 900), 100);
        assert_eq!(s.shapes.len(), 1);
        assert_eq!(s.length, 900);
        // Zero-length route has no shapes.
        let z = l_route("n", Point::new(5, 5), Point::new(5, 5), 100);
        assert!(z.shapes.is_empty());
    }

    fn block_with_port(name: &str, w: i64, port: &str, side: Side) -> Macro {
        let mut c = Cell::new(name);
        c.set_outline(Rect::new(0, 0, w, w));
        let r = match side {
            Side::East => Rect::new(w - 10, w / 2, w, w / 2 + 20),
            _ => Rect::new(0, w / 2, 10, w / 2 + 20),
        };
        c.add_port(Port::new(port, Layer::Metal3.id(), r, side));
        Macro::new(name, Arc::new(c))
    }

    #[test]
    fn placement_routing_connects_matching_ports() {
        let p = place(vec![
            block_with_port("a", 1000, "net1", Side::East),
            block_with_port("b", 800, "net1", Side::West),
            block_with_port("c", 600, "other", Side::West),
        ]);
        let routes = route_placement(&p, &Process::cda07());
        // Only net1 is shared between two macros.
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].net, "net1");
        assert!(routes[0].length > 0);
        assert!(total_length(&routes) == routes[0].length);
    }

    #[test]
    fn wire_delay_grows_with_length() {
        let p = Process::cda07();
        let short = wire_delay(&p, 10_000, 1750, 10e-15);
        let long = wire_delay(&p, 1_000_000, 1750, 10e-15);
        assert!(long > short);
        assert!(short > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        l_route("n", Point::new(0, 0), Point::new(1, 1), 0);
    }
}
