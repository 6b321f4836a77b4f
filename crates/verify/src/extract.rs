//! Connectivity and device extraction from flat geometry.
//!
//! The extractor turns a bag of `(Layer, Rect)` shapes into a
//! [`NetGraph`]:
//!
//! * **Conductors** are diffusion, poly and the three metals. Same-layer
//!   shapes that touch or overlap merge into one net — the same
//!   connectivity model the DRC spacing exemption uses.
//! * **Cuts** (contact, via1, via2) stitch layers vertically, but only by
//!   *strict overlap* with the conductors above and below. Abutment does
//!   not connect through a cut: the generators deliberately land contacts
//!   edge-to-edge with gate poly, and an abutting cut must not short the
//!   gate to the diffusion.
//! * **Devices**: wherever poly fully crosses a diffusion (per the
//!   internal `gates` module), the diffusion is split along the channel
//!   into source/drain pieces; the channel itself leaves the conductor
//!   graph.
//!   W is the diffusion extent along the gate, L the poly width across
//!   it, both in DBU (nanometres). A device is PMOS when its channel
//!   overlaps an n-well.
//!
//! Everything is ordered by input shape order, so two extractions of the
//! same flattened cell yield byte-identical graphs regardless of worker
//! count upstream.

use crate::error::VerifyError;
use crate::gates;
use crate::graph::{Device, Net, NetGraph};
use bisram_circuit::MosType;
use bisram_geom::{sweep, Coord, Rect};
use bisram_tech::Layer;

/// Extraction result: the net graph plus bookkeeping counters.
#[derive(Debug, Clone)]
pub struct Extracted {
    /// The extracted circuit.
    pub graph: NetGraph,
    /// Every conductor node (diffusion piece or wire rect) with the index
    /// of the net it landed on, in deterministic node order. Hierarchical
    /// verification uses this to find which nets reach a cell boundary.
    pub nodes: Vec<(Layer, Rect, usize)>,
    /// Cuts that failed to connect two layers (suspicious but not fatal).
    pub dangling_cuts: usize,
}

/// The conductor layers, in node-numbering order (diffusion pieces come
/// first, see `extract`).
const METAL_LAYERS: [Layer; 4] = [Layer::Poly, Layer::Metal1, Layer::Metal2, Layer::Metal3];

/// One source/drain (or plain) diffusion piece.
#[derive(Debug, Clone, Copy)]
struct DiffPiece {
    rect: Rect,
    /// Index of the owning input diffusion rect.
    #[allow(dead_code)]
    active: usize,
}

/// Extracts the netlist from flattened shapes. Degenerate rectangles are
/// ignored.
pub fn extract(shapes: &[(Layer, Rect)]) -> Result<Extracted, VerifyError> {
    let mut by_layer: Vec<Vec<Rect>> = vec![Vec::new(); Layer::ALL.len()];
    for &(layer, rect) in shapes {
        if !rect.is_degenerate() {
            by_layer[layer.id().index() as usize].push(rect);
        }
    }
    let on = |l: Layer| &by_layer[l.id().index() as usize];

    let active = on(Layer::Active);
    let poly = on(Layer::Poly);
    let hits = gates::find_gates(poly, active)?;

    // ---- Split diffusions along their channels -------------------------
    struct PendingDevice {
        poly: usize,
        /// Piece indices for the two channel flanks; `usize::MAX` when the
        /// gate runs off the diffusion edge (malformed art, DRC flags it).
        sd: [usize; 2],
        channel: Rect,
        w: Coord,
        l: Coord,
    }
    let mut pieces: Vec<DiffPiece> = Vec::new();
    let mut devices: Vec<PendingDevice> = Vec::new();
    let mut hit_cursor = 0usize; // hits are sorted by (active, poly)
    for (ai, &a) in active.iter().enumerate() {
        let start = hit_cursor;
        while hit_cursor < hits.len() && hits[hit_cursor].active == ai {
            hit_cursor += 1;
        }
        let crossings: Vec<&gates::GateHit> = hits[start..hit_cursor]
            .iter()
            .filter(|h| h.crosses())
            .collect();
        if crossings.is_empty() {
            pieces.push(DiffPiece {
                rect: a,
                active: ai,
            });
            continue;
        }
        // Split along the dominant orientation (the generators never mix
        // orientations on one diffusion; ties go to vertical).
        let n_vert = crossings.iter().filter(|h| h.vertical()).count();
        let vertical = n_vert * 2 >= crossings.len();
        let span = |r: Rect| {
            if vertical {
                (r.left(), r.right())
            } else {
                (r.bottom(), r.top())
            }
        };
        let sub = |lo: Coord, hi: Coord| {
            if vertical {
                Rect::new(lo, a.bottom(), hi, a.top())
            } else {
                Rect::new(a.left(), lo, a.right(), hi)
            }
        };
        let mut spans: Vec<(Coord, Coord, usize)> = crossings
            .iter()
            .filter(|h| h.vertical() == vertical)
            .map(|h| {
                let (lo, hi) = span(h.overlap);
                (lo, hi, h.poly)
            })
            .collect();
        spans.sort_unstable();
        let (a_lo, a_hi) = span(a);
        // Pieces between channel spans; channel spans may touch or overlap
        // under malformed art, in which case the in-between piece vanishes
        // and the affected flank stays unconnected.
        let mut flanks: Vec<(usize, Option<usize>, Option<usize>)> = Vec::new();
        let mut edge = a_lo;
        for &(lo, hi, pi) in &spans {
            let left_piece = if lo > edge {
                pieces.push(DiffPiece {
                    rect: sub(edge, lo),
                    active: ai,
                });
                Some(pieces.len() - 1)
            } else {
                None
            };
            flanks.push((pi, left_piece, None));
            edge = edge.max(hi);
        }
        let mut carry = if a_hi > edge {
            pieces.push(DiffPiece {
                rect: sub(edge, a_hi),
                active: ai,
            });
            Some(pieces.len() - 1)
        } else {
            None
        };
        // Fill right flanks back-to-front: each gate's right piece is the
        // next piece to its right (or the tail piece for the last gate).
        for f in flanks.iter_mut().rev() {
            f.2 = carry;
            carry = f.1;
        }
        for (k, &(pi, left, right)) in flanks.iter().enumerate() {
            let (lo, hi, _) = spans[k];
            let channel = sub(lo, hi);
            let (w, l) = if vertical {
                (channel.height(), channel.width())
            } else {
                (channel.width(), channel.height())
            };
            devices.push(PendingDevice {
                poly: pi,
                sd: [left.unwrap_or(usize::MAX), right.unwrap_or(usize::MAX)],
                channel,
                w,
                l,
            });
        }
        // Off-orientation crossings (never produced by the generators):
        // self-connected device on the piece containing the channel centre.
        for h in crossings.iter().filter(|h| h.vertical() != vertical) {
            let centre = h.overlap.center();
            let host = pieces
                .iter()
                .position(|p| p.rect.contains_point(centre))
                .unwrap_or(usize::MAX);
            devices.push(PendingDevice {
                poly: h.poly,
                sd: [host, host],
                channel: h.overlap,
                w: if h.vertical() {
                    h.overlap.height()
                } else {
                    h.overlap.width()
                },
                l: if h.vertical() {
                    h.overlap.width()
                } else {
                    h.overlap.height()
                },
            });
        }
    }

    // ---- Conductor node list (deterministic order) ---------------------
    // Diffusion pieces first (in diffusion order), then poly, metal1..3.
    let mut nodes: Vec<(Layer, Rect)> = Vec::new();
    let mut layer_node_base = [0usize; 4];
    for p in &pieces {
        nodes.push((Layer::Active, p.rect));
    }
    for (k, layer) in METAL_LAYERS.into_iter().enumerate() {
        layer_node_base[k] = nodes.len();
        for &r in on(layer) {
            nodes.push((layer, r));
        }
    }
    let layer_base = |l: Layer| -> Result<usize, VerifyError> {
        METAL_LAYERS
            .iter()
            .position(|&m| m == l)
            .map(|k| layer_node_base[k])
            .ok_or(VerifyError::UnexpectedLayer { layer: l })
    };

    // ---- Same-layer touching merges ------------------------------------
    let mut uf = sweep::UnionFind::new(nodes.len());
    let piece_rects: Vec<Rect> = pieces.iter().map(|p| p.rect).collect();
    sweep::pair_sweep(&piece_rects, 0, |i, j| uf.union(i, j));
    for layer in METAL_LAYERS {
        let base = layer_base(layer)?;
        sweep::pair_sweep(on(layer), 0, |i, j| uf.union(base + i, base + j));
    }

    // ---- Cut stitching (strict overlap only) ---------------------------
    let mut dangling_cuts = 0usize;
    for (cut_layer, lowers, upper) in [
        (
            Layer::Contact,
            &[Layer::Active, Layer::Poly][..],
            Layer::Metal1,
        ),
        (Layer::Via1, &[Layer::Metal1][..], Layer::Metal2),
        (Layer::Via2, &[Layer::Metal2][..], Layer::Metal3),
    ] {
        let cuts = on(cut_layer);
        if cuts.is_empty() {
            continue;
        }
        let mut linked: Vec<Vec<usize>> = vec![Vec::new(); cuts.len()];
        // Diffusion side connects to the split pieces, not raw diffusion.
        if lowers.contains(&Layer::Active) {
            sweep::join_sweep(cuts, &piece_rects, 0, |ci, ni| {
                if cuts[ci].overlaps(piece_rects[ni]) {
                    linked[ci].push(ni);
                }
            });
        }
        for &l in lowers
            .iter()
            .filter(|&&l| l != Layer::Active)
            .chain([&upper])
        {
            let base = layer_base(l)?;
            sweep::join_sweep(cuts, on(l), 0, |ci, ni| {
                if cuts[ci].overlaps(on(l)[ni]) {
                    linked[ci].push(base + ni);
                }
            });
        }
        for link in &linked {
            match link.split_first() {
                Some((&first, rest)) if !rest.is_empty() => {
                    for &n in rest {
                        uf.union(first, n);
                    }
                }
                _ => dangling_cuts += 1,
            }
        }
    }

    // ---- Net numbering by first node appearance ------------------------
    let mut net_of_root: Vec<usize> = vec![usize::MAX; nodes.len()];
    let mut nets: Vec<Net> = Vec::new();
    let mut node_net: Vec<usize> = vec![0; nodes.len()];
    for (i, &(layer, rect)) in nodes.iter().enumerate() {
        let root = uf.find(i);
        if net_of_root[root] == usize::MAX {
            net_of_root[root] = nets.len();
            nets.push(Net {
                name: format!("n{}", nets.len()),
                sample: Some((layer, rect)),
            });
        }
        node_net[i] = net_of_root[root];
    }

    // ---- Device polarity and terminal resolution -----------------------
    let channels: Vec<Rect> = devices.iter().map(|d| d.channel).collect();
    let mut pmos = vec![false; devices.len()];
    sweep::join_sweep(&channels, on(Layer::Nwell), 0, |di, wi| {
        if channels[di].overlaps(on(Layer::Nwell)[wi]) {
            pmos[di] = true;
        }
    });
    let poly_base = layer_base(Layer::Poly)?;
    let isolated = |nets: &mut Vec<Net>| {
        let id = nets.len();
        nets.push(Net {
            name: format!("n{id}"),
            sample: None,
        });
        id
    };
    let out_devices: Vec<Device> = devices
        .iter()
        .enumerate()
        .map(|(di, d)| {
            let sd = [d.sd[0], d.sd[1]].map(|p| {
                if p == usize::MAX {
                    isolated(&mut nets)
                } else {
                    node_net[p]
                }
            });
            Device {
                polarity: if pmos[di] {
                    MosType::Pmos
                } else {
                    MosType::Nmos
                },
                w: d.w,
                l: d.l,
                gate: node_net[poly_base + d.poly],
                sd,
                location: d.channel,
            }
        })
        .collect();

    let node_list = nodes
        .iter()
        .zip(&node_net)
        .map(|(&(layer, rect), &net)| (layer, rect, net))
        .collect();
    Ok(Extracted {
        graph: NetGraph {
            nets,
            devices: out_devices,
        },
        nodes: node_list,
        dangling_cuts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_terminals(g: &NetGraph) -> Vec<usize> {
        let mut t = g.terminal_counts();
        t.sort_unstable();
        t
    }

    /// The clean NMOS from the DRC tests: one device, contacted source.
    fn nmos_shapes() -> Vec<(Layer, Rect)> {
        vec![
            (Layer::Active, Rect::new(300, 500, 1100, 1400)),
            (Layer::Poly, Rect::new(600, 300, 800, 1600)),
            (Layer::Nselect, Rect::new(100, 300, 1300, 1600)),
            (Layer::Contact, Rect::new(400, 700, 600, 900)),
            (Layer::Metal1, Rect::new(300, 600, 700, 1000)),
        ]
    }

    #[test]
    fn single_nmos_extraction() {
        let x = extract(&nmos_shapes()).expect("consistent input");
        let g = &x.graph;
        assert_eq!(g.devices.len(), 1);
        let d = &g.devices[0];
        assert_eq!(d.polarity, MosType::Nmos);
        assert_eq!(d.w, 900);
        assert_eq!(d.l, 200);
        assert_ne!(d.sd[0], d.sd[1]);
        assert_ne!(d.gate, d.sd[0]);
        // Nets: source piece + metal (merged via cut), drain piece, gate.
        assert_eq!(g.nets.len(), 3);
        assert_eq!(g.floating_count(), 0);
        assert_eq!(x.dangling_cuts, 0);
    }

    #[test]
    fn nwell_overlap_makes_pmos() {
        let mut shapes = nmos_shapes();
        shapes.push((Layer::Nwell, Rect::new(0, 0, 2000, 2000)));
        let g = extract(&shapes).expect("consistent input").graph;
        assert_eq!(g.devices[0].polarity, MosType::Pmos);
    }

    #[test]
    fn abutting_cut_does_not_stitch() {
        // Contact lands exactly on the poly edge: connects diffusion to
        // metal but must NOT pick up the gate.
        let shapes = vec![
            (Layer::Active, Rect::new(300, 500, 1100, 1400)),
            (Layer::Poly, Rect::new(600, 300, 800, 1600)),
            (Layer::Contact, Rect::new(400, 700, 600, 900)), // abuts poly
            (Layer::Metal1, Rect::new(300, 600, 700, 1000)),
        ];
        let g = extract(&shapes).expect("consistent input").graph;
        let d = &g.devices[0];
        // Source merged with metal; gate stays its own net.
        let t = g.terminal_counts();
        assert_eq!(t[d.gate], 1);
        assert_ne!(d.gate, d.sd[0]);
        assert_ne!(d.gate, d.sd[1]);
        assert_eq!(g.nets.len(), 3);
    }

    #[test]
    fn overlapping_cut_shorts_gate_to_metal() {
        let shapes = vec![
            (Layer::Active, Rect::new(300, 500, 1100, 1400)),
            (Layer::Poly, Rect::new(600, 300, 800, 1600)),
            (Layer::Contact, Rect::new(500, 700, 700, 900)), // over the gate
            (Layer::Metal1, Rect::new(400, 600, 800, 1000)),
        ];
        let g = extract(&shapes).expect("consistent input").graph;
        let d = &g.devices[0];
        // The cut overlaps source piece, channel poly and metal: all one
        // net now — a short LVS will catch.
        assert_eq!(d.gate, d.sd[0]);
    }

    #[test]
    fn shared_diffusion_chains_two_devices() {
        // Two gates over one diffusion: 3 pieces, middle shared.
        let shapes = vec![
            (Layer::Active, Rect::new(0, 500, 1600, 1400)),
            (Layer::Poly, Rect::new(300, 300, 500, 1600)),
            (Layer::Poly, Rect::new(1100, 300, 1300, 1600)),
        ];
        let g = extract(&shapes).expect("consistent input").graph;
        assert_eq!(g.devices.len(), 2);
        let (d0, d1) = (&g.devices[0], &g.devices[1]);
        assert_eq!(d0.sd[1], d1.sd[0], "middle piece shared");
        assert_ne!(d0.sd[0], d1.sd[1]);
        assert_eq!(g.nets.len(), 5);
    }

    #[test]
    fn horizontal_gate_width_length() {
        let shapes = vec![
            (Layer::Active, Rect::new(200, 300, 700, 1300)),
            (Layer::Poly, Rect::new(0, 600, 2600, 800)),
        ];
        let g = extract(&shapes).expect("consistent input").graph;
        let d = &g.devices[0];
        assert_eq!(d.w, 500);
        assert_eq!(d.l, 200);
    }

    #[test]
    fn abutting_diffusion_pieces_merge_across_cells() {
        // Two diffusion rects abutting in x, each with its own gate; the
        // touching S/D pieces merge into one net — the programmed-PLA
        // crosspoint chain.
        let shapes = vec![
            (Layer::Active, Rect::new(0, 200, 800, 500)),
            (Layer::Active, Rect::new(800, 200, 1600, 500)),
            (Layer::Poly, Rect::new(300, 0, 500, 800)),
            (Layer::Poly, Rect::new(1100, 0, 1300, 800)),
        ];
        let g = extract(&shapes).expect("consistent input").graph;
        assert_eq!(g.devices.len(), 2);
        let (d0, d1) = (&g.devices[0], &g.devices[1]);
        assert_eq!(d0.sd[1], d1.sd[0], "chain through the abutting pieces");
    }

    #[test]
    fn via_stack_connects_three_metals() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 400, 400)),
            (Layer::Via1, Rect::new(100, 100, 300, 300)),
            (Layer::Metal2, Rect::new(0, 0, 400, 400)),
            (Layer::Via2, Rect::new(100, 100, 300, 300)),
            (Layer::Metal3, Rect::new(0, 0, 400, 400)),
        ];
        let x = extract(&shapes).expect("consistent input");
        assert_eq!(x.graph.nets.len(), 1);
        assert_eq!(x.dangling_cuts, 0);
    }

    #[test]
    fn dangling_cut_counted() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 400, 400)),
            (Layer::Via1, Rect::new(100, 100, 300, 300)), // no metal2
        ];
        assert_eq!(extract(&shapes).expect("consistent input").dangling_cuts, 1);
    }

    #[test]
    fn floating_rails_counted() {
        let shapes = vec![
            (Layer::Metal1, Rect::new(0, 0, 2600, 300)),
            (Layer::Metal1, Rect::new(0, 2200, 2600, 2500)),
        ];
        let g = extract(&shapes).expect("consistent input").graph;
        assert_eq!(g.nets.len(), 2);
        assert_eq!(g.floating_count(), 2);
    }

    #[test]
    fn node_nets_expose_boundary_membership() {
        // The node list pairs every conductor rect with its net, so a
        // caller can tell which nets own shapes on a given boundary.
        let x = extract(&nmos_shapes()).expect("consistent input");
        assert_eq!(x.nodes.len(), 2 + 1 + 1); // 2 pieces, poly, metal1
        for &(_, _, net) in &x.nodes {
            assert!(net < x.graph.nets.len());
        }
        // The metal node shares its net with the contacted source piece.
        let metal = x.nodes.iter().find(|n| n.0 == Layer::Metal1).unwrap();
        assert!(x
            .nodes
            .iter()
            .any(|n| n.0 == Layer::Active && n.2 == metal.2));
    }

    #[test]
    fn degenerate_shapes_never_panic() {
        let mut shapes = nmos_shapes();
        for layer in Layer::ALL {
            shapes.push((layer, Rect::new(0, 0, 0, 0)));
            shapes.push((layer, Rect::new(300, 1400, 1100, 1400)));
        }
        let x = extract(&shapes).expect("degenerate shapes are ignored");
        assert_eq!(x.graph.devices.len(), 1);
    }

    #[test]
    fn extraction_is_input_order_deterministic() {
        let shapes = nmos_shapes();
        let a = extract(&shapes).expect("consistent input");
        let b = extract(&shapes).expect("consistent input");
        assert_eq!(format!("{:?}", a.graph), format!("{:?}", b.graph));
        assert_eq!(by_terminals(&a.graph), by_terminals(&b.graph));
    }
}
