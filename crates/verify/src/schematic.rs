//! Reference schematics for the leaf cells and their hierarchical
//! composition.
//!
//! Each leaf generator in `bisram-layout` has a hand-written
//! [`CellSchematic`] here describing the circuit the drawn geometry is
//! *supposed* to implement: its nets, its MOS devices, and — for nets
//! that reach the cell boundary — *anchor* shapes, the conductor
//! rectangles through which the net connects by abutment when the cell
//! is tiled.
//!
//! [`compose`] walks a hierarchical layout cell, drops one schematic per
//! placed leaf instance, transforms the anchors with the instance
//! transforms, and unions nets whose anchors touch — exactly the
//! connect-by-abutment model the extractor applies to the flattened
//! geometry. The result is a [`NetGraph`] that LVS can compare against
//! the extracted one.

use crate::graph::{Device, Net, NetGraph};
use bisram_circuit::{MosType, Netlist};
use bisram_geom::{sweep, Coord, Rect, Transform};
use bisram_layout::leaf::LeafSpec;
use bisram_layout::Cell;
use bisram_tech::{Layer, Process};
use std::collections::HashMap;
use std::sync::Arc;

/// A net of a reference schematic.
#[derive(Debug, Clone)]
pub struct SchematicNet {
    /// Net name, unique within the cell.
    pub name: String,
    /// Conductor shapes (DBU, cell coordinates) through which this net
    /// connects to abutting neighbours. Empty for internal nets.
    pub anchors: Vec<(Layer, Rect)>,
}

/// A MOS device of a reference schematic.
#[derive(Debug, Clone)]
pub struct SchematicDevice {
    /// N or P channel.
    pub polarity: MosType,
    /// Drawn width in DBU.
    pub w: Coord,
    /// Drawn length in DBU.
    pub l: Coord,
    /// Gate net index.
    pub gate: usize,
    /// Source/drain net indices (unordered).
    pub sd: [usize; 2],
    /// Channel location in DBU cell coordinates.
    pub location: Rect,
}

/// The reference circuit of one leaf cell.
#[derive(Debug, Clone)]
pub struct CellSchematic {
    /// Layout cell name this schematic describes.
    pub name: String,
    /// All nets.
    pub nets: Vec<SchematicNet>,
    /// All devices.
    pub devices: Vec<SchematicDevice>,
}

impl CellSchematic {
    /// The schematic as a flat [`NetGraph`] (the LVS reference for a
    /// standalone leaf).
    pub fn graph(&self) -> NetGraph {
        NetGraph {
            nets: self
                .nets
                .iter()
                .map(|n| Net {
                    name: n.name.clone(),
                    sample: n.anchors.first().copied(),
                })
                .collect(),
            devices: self
                .devices
                .iter()
                .map(|d| Device {
                    polarity: d.polarity,
                    w: d.w,
                    l: d.l,
                    gate: d.gate,
                    sd: d.sd,
                    location: d.location,
                })
                .collect(),
        }
    }

    /// The schematic as a simulatable [`Netlist`] (dimensions converted
    /// from DBU nanometres to metres).
    pub fn netlist(&self) -> Netlist {
        let mut nl = Netlist::new(self.name.clone());
        let nodes: Vec<_> = self.nets.iter().map(|n| nl.node(n.name.clone())).collect();
        for d in &self.devices {
            nl.mos(
                d.polarity,
                nodes[d.sd[0]],
                nodes[d.gate],
                nodes[d.sd[1]],
                d.w as f64 * 1e-9,
                d.l as f64 * 1e-9,
            );
        }
        nl
    }
}

/// λ-grid builder mirroring the layout crate's `Sketch` helper.
struct SchBuilder {
    lambda: Coord,
    sch: CellSchematic,
}

impl SchBuilder {
    fn new(name: &str, lambda: Coord) -> Self {
        SchBuilder {
            lambda,
            sch: CellSchematic {
                name: name.to_string(),
                nets: Vec::new(),
                devices: Vec::new(),
            },
        }
    }

    fn net(&mut self, name: &str) -> usize {
        self.sch.nets.push(SchematicNet {
            name: name.to_string(),
            anchors: Vec::new(),
        });
        self.sch.nets.len() - 1
    }

    fn anchor(&mut self, net: usize, layer: Layer, x0: Coord, y0: Coord, x1: Coord, y1: Coord) {
        let l = self.lambda;
        self.sch.nets[net]
            .anchors
            .push((layer, Rect::new(x0 * l, y0 * l, x1 * l, y1 * l)));
    }

    /// A net whose single anchor is the given rectangle.
    #[allow(clippy::too_many_arguments)]
    fn wire(
        &mut self,
        name: &str,
        layer: Layer,
        x0: Coord,
        y0: Coord,
        x1: Coord,
        y1: Coord,
    ) -> usize {
        let n = self.net(name);
        self.anchor(n, layer, x0, y0, x1, y1);
        n
    }

    #[allow(clippy::too_many_arguments)]
    fn mos(
        &mut self,
        polarity: MosType,
        gate: usize,
        sd: [usize; 2],
        w: Coord,
        l: Coord,
        x0: Coord,
        y0: Coord,
        x1: Coord,
        y1: Coord,
    ) {
        let lam = self.lambda;
        self.sch.devices.push(SchematicDevice {
            polarity,
            w: w * lam,
            l: l * lam,
            gate,
            sd,
            location: Rect::new(x0 * lam, y0 * lam, x1 * lam, y1 * lam),
        });
    }

    fn finish(self) -> CellSchematic {
        self.sch
    }
}

/// Builds the reference schematic for one leaf spec in one process.
///
/// The net/device structure mirrors what [`crate::extract()`] produces
/// from the corresponding generator's geometry, down to the diffusion
/// pieces isolated between series gates.
pub fn leaf_schematic(spec: &LeafSpec, process: &Process) -> CellSchematic {
    use MosType::{Nmos, Pmos};
    let lam = process.rules().lambda();
    match *spec {
        LeafSpec::Sram6t => {
            let mut b = SchBuilder::new("sram6t", lam);
            b.wire("bl", Layer::Metal2, 2, 0, 5, 40);
            b.wire("blb", Layer::Metal2, 21, 0, 24, 40);
            b.wire("wl", Layer::Poly, 0, 18, 26, 20);
            b.wire("gnd", Layer::Metal1, 0, 0, 26, 3);
            b.wire("vdd", Layer::Metal1, 0, 22, 26, 25);
            let ng1 = b.net("ng1");
            let ng2 = b.net("ng2");
            let pg1 = b.net("pg1");
            let pg2 = b.net("pg2");
            let sna = b.net("sna"); // contacted storage landing A
            let nda = b.net("nda"); // A-side drain piece
            let ndb = b.net("ndb");
            let snb = b.net("snb");
            let spa = b.net("spa"); // contacted pull-up landings
            let spm = b.net("spm"); // shared mid piece
            let spb = b.net("spb");
            b.mos(Nmos, ng1, [sna, nda], 9, 2, 6, 5, 8, 14);
            b.mos(Nmos, ng2, [ndb, snb], 9, 2, 18, 5, 20, 14);
            b.mos(Pmos, pg1, [spa, spm], 7, 2, 9, 27, 11, 34);
            b.mos(Pmos, pg2, [spm, spb], 7, 2, 15, 27, 17, 34);
            b.finish()
        }
        LeafSpec::Precharge { size_factor } => {
            let mut b = SchBuilder::new("precharge", lam);
            let h = 14 + 3 * size_factor;
            let aw = (3 + size_factor).min(9);
            b.wire("bl", Layer::Metal2, 2, 0, 5, h);
            b.wire("blb", Layer::Metal2, 21, 0, 24, h);
            let prech = b.wire("prech", Layer::Poly, 0, 6, 26, 8);
            let a1 = b.net("a1_lo");
            let a2 = b.net("a1_hi");
            let a3 = b.net("a2_lo");
            let a4 = b.net("a2_hi");
            b.mos(Pmos, prech, [a1, a2], aw, 2, 2, 6, 2 + aw, 8);
            b.mos(Pmos, prech, [a3, a4], aw, 2, 24 - aw, 6, 24, 8);
            b.finish()
        }
        LeafSpec::SenseAmp => {
            let mut b = SchBuilder::new("sense_amp", lam);
            b.wire("bl", Layer::Metal2, 2, 0, 5, 34);
            b.wire("blb", Layer::Metal2, 21, 0, 24, 34);
            let ng1 = b.net("ng1");
            let ng2 = b.net("ng2");
            let pg1 = b.net("pg1");
            let pg2 = b.net("pg2");
            let sa = b.net("sense_a"); // contacted sensing landing
            let nm = b.net("n_mid");
            let sb = b.net("sense_b");
            let p1 = b.net("p1");
            let pm = b.net("p_mid");
            let p2 = b.net("p2");
            b.mos(Nmos, ng1, [sa, nm], 8, 2, 8, 4, 10, 12);
            b.mos(Nmos, ng2, [nm, sb], 8, 2, 16, 4, 18, 12);
            b.mos(Pmos, pg1, [p1, pm], 5, 2, 8, 23, 10, 28);
            b.mos(Pmos, pg2, [pm, p2], 5, 2, 16, 23, 18, 28);
            b.finish()
        }
        LeafSpec::WriteDriver => {
            let mut b = SchBuilder::new("write_driver", lam);
            b.wire("bl", Layer::Metal2, 2, 0, 5, 22);
            b.wire("blb", Layer::Metal2, 21, 0, 24, 22);
            b.net("din"); // isolated input strap
            let g1 = b.net("g1");
            let g2 = b.net("g2");
            let s1 = b.net("s1");
            let sm = b.net("s_mid");
            let s2 = b.net("s2");
            b.mos(Nmos, g1, [s1, sm], 8, 2, 8, 4, 10, 12);
            b.mos(Nmos, g2, [sm, s2], 8, 2, 16, 4, 18, 12);
            b.finish()
        }
        LeafSpec::ColMux => {
            let mut b = SchBuilder::new("col_mux", lam);
            b.wire("bl", Layer::Metal2, 2, 0, 5, 18);
            b.wire("blb", Layer::Metal2, 21, 0, 24, 18);
            let sel = b.wire("sel", Layer::Poly, 0, 7, 26, 9);
            let a1 = b.net("a1_lo");
            let a2 = b.net("a1_hi");
            let a3 = b.net("a2_lo");
            let a4 = b.net("a2_hi");
            b.mos(Nmos, sel, [a1, a2], 5, 2, 6, 7, 11, 9);
            b.mos(Nmos, sel, [a3, a4], 5, 2, 15, 7, 20, 9);
            b.finish()
        }
        LeafSpec::RowDecoder { address_bits } => {
            let mut b = SchBuilder::new("row_decoder", lam);
            let w = 8 * address_bits as Coord + 12;
            let gx = 8 * address_bits as Coord;
            for bit in 0..address_bits as Coord {
                b.wire(
                    &format!("a{bit}"),
                    Layer::Metal2,
                    8 * bit + 2,
                    0,
                    8 * bit + 5,
                    40,
                );
            }
            b.wire("wl", Layer::Poly, gx + 1, 18, w, 20);
            b.wire("gnd", Layer::Metal1, 0, 0, w, 3);
            b.wire("vdd", Layer::Metal1, 0, 22, w, 25);
            let g = b.net("g");
            let s = b.net("s");
            let d = b.net("d");
            b.mos(Nmos, g, [s, d], 9, 2, gx + 3, 5, gx + 5, 14);
            b.finish()
        }
        LeafSpec::WordlineDriver { size_factor } => {
            let mut b = SchBuilder::new("wordline_driver", lam);
            let w = 18 + 4 * size_factor;
            b.wire("wl", Layer::Poly, 0, 18, w, 20);
            b.wire("gnd", Layer::Metal1, 0, 0, w, 3);
            b.wire("vdd", Layer::Metal1, 0, 22, w, 25);
            let ng = b.net("ng");
            let pg = b.net("pg");
            let ns1 = b.net("ns1");
            let ns2 = b.net("ns2");
            let ps1 = b.net("ps1");
            let ps2 = b.net("ps2");
            b.mos(Nmos, ng, [ns1, ns2], 9, 2, 6, 5, 8, 14);
            b.mos(Pmos, pg, [ps1, ps2], 7, 2, 9, 27, 11, 34);
            b.finish()
        }
        LeafSpec::CamBit => {
            let mut b = SchBuilder::new("cam_bit", lam);
            b.wire("search", Layer::Metal2, 2, 0, 5, 40);
            b.wire("searchb", Layer::Metal2, 29, 0, 32, 40);
            b.wire("sel", Layer::Poly, 0, 18, 34, 20);
            b.wire("gnd", Layer::Metal1, 0, 0, 34, 3);
            b.wire("vdd", Layer::Metal1, 0, 22, 34, 25);
            b.wire("match", Layer::Metal1, 0, 28, 34, 31);
            let g1 = b.net("g1");
            let g2 = b.net("g2");
            let g3 = b.net("g3");
            let st1 = b.net("st1");
            let stm = b.net("st_mid");
            let st2 = b.net("st2");
            let cp1 = b.net("cp1");
            let cp2 = b.net("cp2");
            b.mos(Nmos, g1, [st1, stm], 9, 2, 8, 5, 10, 14);
            b.mos(Nmos, g2, [stm, st2], 9, 2, 16, 5, 18, 14);
            b.mos(Nmos, g3, [cp1, cp2], 9, 2, 27, 5, 29, 14);
            b.finish()
        }
        LeafSpec::PlaCrosspoint { programmed } => {
            let name = if programmed { "pla_x1" } else { "pla_x0" };
            let mut b = SchBuilder::new(name, lam);
            let input = b.wire("in", Layer::Poly, 3, 0, 5, 8);
            b.wire("t", Layer::Metal1, 0, 3, 8, 6);
            if programmed {
                let sd_l = b.wire("sd_l", Layer::Active, 0, 2, 3, 5);
                let sd_r = b.wire("sd_r", Layer::Active, 5, 2, 8, 5);
                b.mos(Nmos, input, [sd_l, sd_r], 3, 2, 3, 2, 5, 5);
            }
            b.finish()
        }
        LeafSpec::PlaPullup => {
            let mut b = SchBuilder::new("pla_pullup", lam);
            let t = b.wire("t", Layer::Metal1, 0, 3, 20, 6);
            let g = b.wire("g", Layer::Poly, 12, 0, 14, 8);
            let sd_l = b.net("sd_l");
            b.mos(Pmos, g, [sd_l, t], 4, 2, 12, 2, 14, 6);
            b.finish()
        }
        LeafSpec::Dff => {
            let mut b = SchBuilder::new("dff", lam);
            b.wire("gnd", Layer::Metal1, 0, 0, 48, 3);
            b.wire("vdd", Layer::Metal1, 0, 22, 48, 25);
            let clk = b.wire("clk", Layer::Poly, 0, 18, 48, 20);
            let d_in = b.wire("d", Layer::Metal1, 0, 8, 6, 11);
            let q = b.wire("q", Layer::Metal1, 42, 8, 48, 11);
            let _ = (clk, d_in, q);
            for x0 in [6, 26] {
                let stage = if x0 == 6 { "m" } else { "s" };
                let ng1 = b.net(&format!("{stage}_ng1"));
                let ng2 = b.net(&format!("{stage}_ng2"));
                let pg1 = b.net(&format!("{stage}_pg1"));
                let pg2 = b.net(&format!("{stage}_pg2"));
                let n1 = b.net(&format!("{stage}_n1"));
                let nm = b.net(&format!("{stage}_nm"));
                let n2 = b.net(&format!("{stage}_n2"));
                let p1 = b.net(&format!("{stage}_p1"));
                let pm = b.net(&format!("{stage}_pm"));
                let p2 = b.net(&format!("{stage}_p2"));
                b.mos(Nmos, ng1, [n1, nm], 9, 2, x0 + 3, 5, x0 + 5, 14);
                b.mos(Nmos, ng2, [nm, n2], 9, 2, x0 + 11, 5, x0 + 13, 14);
                b.mos(Pmos, pg1, [p1, pm], 7, 2, x0 + 3, 27, x0 + 5, 34);
                b.mos(Pmos, pg2, [pm, p2], 7, 2, x0 + 11, 27, x0 + 13, 34);
            }
            b.finish()
        }
        LeafSpec::CounterBit => {
            let mut b = SchBuilder::new("counter_bit", lam);
            b.wire("gnd", Layer::Metal1, 0, 0, 64, 3);
            b.wire("vdd", Layer::Metal1, 0, 22, 64, 25);
            b.wire("clk", Layer::Poly, 0, 18, 64, 20);
            b.wire("carry", Layer::Metal1, 0, 28, 64, 31);
            b.wire("q", Layer::Metal1, 10, 34, 14, 40);
            for (k, x0) in [4, 24, 44].into_iter().enumerate() {
                let ng1 = b.net(&format!("s{k}_ng1"));
                let ng2 = b.net(&format!("s{k}_ng2"));
                let n1 = b.net(&format!("s{k}_n1"));
                let nm = b.net(&format!("s{k}_nm"));
                let n2 = b.net(&format!("s{k}_n2"));
                b.mos(Nmos, ng1, [n1, nm], 9, 2, x0 + 3, 5, x0 + 5, 14);
                b.mos(Nmos, ng2, [nm, n2], 9, 2, x0 + 11, 5, x0 + 13, 14);
            }
            for (k, x0) in [6, 26, 46].into_iter().enumerate() {
                let pg = b.net(&format!("s{k}_pg"));
                let p1 = b.net(&format!("s{k}_p1"));
                let p2 = b.net(&format!("s{k}_p2"));
                b.mos(Pmos, pg, [p1, p2], 7, 2, x0 + 3, 27, x0 + 5, 34);
            }
            b.finish()
        }
        LeafSpec::Xor2 => {
            let mut b = SchBuilder::new("xor2", lam);
            b.wire("gnd", Layer::Metal1, 0, 0, 44, 3);
            b.wire("vdd", Layer::Metal1, 0, 22, 44, 25);
            b.wire("a", Layer::Metal1, 0, 6, 4, 9);
            b.wire("b", Layer::Metal1, 0, 12, 4, 15);
            b.net("y"); // inset output strap: isolated by design
            for (k, x0) in [4, 24].into_iter().enumerate() {
                let ng1 = b.net(&format!("s{k}_ng1"));
                let ng2 = b.net(&format!("s{k}_ng2"));
                let n1 = b.net(&format!("s{k}_n1"));
                let nm = b.net(&format!("s{k}_nm"));
                let n2 = b.net(&format!("s{k}_n2"));
                b.mos(Nmos, ng1, [n1, nm], 9, 2, x0 + 3, 5, x0 + 5, 14);
                b.mos(Nmos, ng2, [nm, n2], 9, 2, x0 + 11, 5, x0 + 13, 14);
            }
            for (k, x0) in [6, 26].into_iter().enumerate() {
                let pg = b.net(&format!("s{k}_pg"));
                let p1 = b.net(&format!("s{k}_p1"));
                let p2 = b.net(&format!("s{k}_p2"));
                b.mos(Pmos, pg, [p1, p2], 7, 2, x0 + 3, 27, x0 + 5, 34);
            }
            b.finish()
        }
    }
}

/// Leaf schematics indexed by layout cell name.
///
/// The cell *name* is the composition key: macrocells place leaf cells
/// by `Arc<Cell>`, and [`compose`] resolves each placed master back to
/// its schematic through its name.
#[derive(Debug, Clone, Default)]
pub struct SchematicLib {
    by_name: HashMap<String, Arc<CellSchematic>>,
}

impl SchematicLib {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a schematic under its cell name (replacing any previous
    /// entry with that name).
    pub fn insert(&mut self, sch: CellSchematic) {
        self.by_name.insert(sch.name.clone(), Arc::new(sch));
    }

    /// Looks a schematic up by cell name.
    pub fn get(&self, name: &str) -> Option<&Arc<CellSchematic>> {
        self.by_name.get(name)
    }

    /// A library covering exactly the given leaf specs.
    pub fn for_leaves<'a>(
        specs: impl IntoIterator<Item = &'a LeafSpec>,
        process: &Process,
    ) -> Self {
        let mut lib = Self::new();
        for spec in specs {
            lib.insert(leaf_schematic(spec, process));
        }
        lib
    }

    /// The library for the default leaf set of
    /// [`bisram_layout::leaf::library`] (the parameter points the leaf
    /// test-suite pins).
    pub fn standard(process: &Process) -> Self {
        Self::for_leaves(
            &[
                LeafSpec::Sram6t,
                LeafSpec::Precharge { size_factor: 2 },
                LeafSpec::SenseAmp,
                LeafSpec::WriteDriver,
                LeafSpec::ColMux,
                LeafSpec::RowDecoder { address_bits: 9 },
                LeafSpec::WordlineDriver { size_factor: 2 },
                LeafSpec::CamBit,
                LeafSpec::PlaCrosspoint { programmed: true },
                LeafSpec::PlaCrosspoint { programmed: false },
                LeafSpec::PlaPullup,
                LeafSpec::Dff,
                LeafSpec::CounterBit,
                LeafSpec::Xor2,
            ],
            process,
        )
    }
}

/// Why a hierarchical cell could not be composed into a reference
/// netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// A cell carries its own geometry but has no schematic registered
    /// under its name — the reference side doesn't know its circuit.
    MissingSchematic {
        /// Name of the unresolvable cell.
        cell: String,
    },
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::MissingSchematic { cell } => {
                write!(f, "no schematic registered for cell '{cell}'")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

/// Composes the reference netlist of a hierarchical cell: one schematic
/// per placed leaf instance, with nets unioned wherever transformed
/// anchors touch or overlap — the same connect-by-abutment model the
/// extractor applies to flattened geometry.
pub fn compose(cell: &Cell, lib: &SchematicLib) -> Result<NetGraph, ComposeError> {
    let mut placed: Vec<(Arc<CellSchematic>, Transform, String)> = Vec::new();
    collect(cell, Transform::IDENTITY, "", lib, &mut placed)?;

    let mut base = Vec::with_capacity(placed.len());
    let mut total = 0usize;
    for (s, _, _) in &placed {
        base.push(total);
        total += s.nets.len();
    }

    // Union nets through touching anchors, per layer.
    let mut uf = sweep::UnionFind::new(total);
    let mut per_layer: Vec<Vec<(Rect, usize)>> = vec![Vec::new(); Layer::ALL.len()];
    for (k, (s, t, _)) in placed.iter().enumerate() {
        for (ni, net) in s.nets.iter().enumerate() {
            for &(layer, r) in &net.anchors {
                per_layer[layer.id().index() as usize].push((t.apply_rect(r), base[k] + ni));
            }
        }
    }
    for bucket in &per_layer {
        let rects: Vec<Rect> = bucket.iter().map(|&(r, _)| r).collect();
        sweep::pair_sweep(&rects, 0, |i, j| {
            uf.union(bucket[i].1, bucket[j].1);
        });
    }

    // Compact merged nets by first appearance (instance order, then net
    // order within the schematic) so composition is deterministic.
    let mut net_map = vec![usize::MAX; total];
    let mut nets: Vec<Net> = Vec::new();
    for (k, (s, t, path)) in placed.iter().enumerate() {
        for (ni, n) in s.nets.iter().enumerate() {
            let root = uf.find(base[k] + ni);
            if net_map[root] == usize::MAX {
                net_map[root] = nets.len();
                nets.push(Net {
                    name: if path.is_empty() {
                        n.name.clone()
                    } else {
                        format!("{path}/{}", n.name)
                    },
                    sample: n.anchors.first().map(|&(l, r)| (l, t.apply_rect(r))),
                });
            }
        }
    }
    let mut devices: Vec<Device> = Vec::new();
    for (k, (s, t, _)) in placed.iter().enumerate() {
        for d in &s.devices {
            let mut resolve = |n: usize| net_map[uf.find(base[k] + n)];
            devices.push(Device {
                polarity: d.polarity,
                w: d.w,
                l: d.l,
                gate: resolve(d.gate),
                sd: [resolve(d.sd[0]), resolve(d.sd[1])],
                location: t.apply_rect(d.location),
            });
        }
    }
    Ok(NetGraph { nets, devices })
}

pub(crate) fn collect(
    cell: &Cell,
    t: Transform,
    path: &str,
    lib: &SchematicLib,
    out: &mut Vec<(Arc<CellSchematic>, Transform, String)>,
) -> Result<(), ComposeError> {
    // Only geometry-bearing cells resolve through the library: a pure
    // container is always recursed into, even when it happens to share
    // a name with a leaf (the `precharge` macrocell tiles the
    // `precharge` leaf).
    if !cell.shapes().is_empty() {
        if let Some(s) = lib.get(cell.name()) {
            out.push((s.clone(), t, path.to_string()));
            return Ok(());
        }
        return Err(ComposeError::MissingSchematic {
            cell: cell.name().to_string(),
        });
    }
    for inst in cell.instances() {
        let sub = if path.is_empty() {
            inst.name.clone()
        } else {
            format!("{path}/{}", inst.name)
        };
        collect(&inst.master, inst.transform.then(t), &sub, lib, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::lvs;
    use bisram_geom::Point;

    fn p() -> Process {
        Process::cda07()
    }

    #[test]
    fn leaf_schematic_matches_leaf_extraction() {
        let process = p();
        let spec = LeafSpec::Sram6t;
        let cell = spec.build(&process);
        let extracted = extract(&cell.flatten()).expect("consistent input");
        let reference = leaf_schematic(&spec, &process).graph();
        let report = lvs::compare(&extracted.graph, &reference);
        assert!(report.is_clean(), "{report}");
        assert_eq!(extracted.graph.nets.len(), 16);
        assert_eq!(extracted.graph.floating_count(), 5);
    }

    #[test]
    fn netlist_export_has_all_devices() {
        let sch = leaf_schematic(&LeafSpec::Dff, &p());
        let nl = sch.netlist();
        assert_eq!(nl.device_count(), 8);
        assert!(nl.to_spice().contains("M1"));
    }

    #[test]
    fn compose_merges_abutting_instances() {
        let process = p();
        let lib = SchematicLib::standard(&process);
        let lam = process.rules().lambda();
        let sram = Arc::new(LeafSpec::Sram6t.build(&process));
        let mut pair = Cell::new("pair");
        pair.add_instance("c0", sram.clone(), Transform::IDENTITY);
        pair.add_instance("c1", sram, Transform::translate(Point::new(0, 40 * lam)));
        let g = compose(&pair, &lib).unwrap();
        // Two cells share bl, blb (vertical abutment); wl/gnd/vdd stay
        // per-cell: 2*16 - 2 shared.
        assert_eq!(g.nets.len(), 30);
        assert_eq!(g.devices.len(), 8);
    }

    #[test]
    fn compose_rejects_unknown_geometry() {
        let lib = SchematicLib::new();
        let mut c = Cell::new("mystery");
        c.add_shape(Layer::Metal1, Rect::new(0, 0, 300, 300));
        let err = compose(&c, &lib).unwrap_err();
        assert!(err.to_string().contains("mystery"));
    }

    #[test]
    fn empty_hierarchy_composes_to_empty_graph() {
        let g = compose(&Cell::new("empty"), &SchematicLib::new()).unwrap();
        assert!(g.nets.is_empty() && g.devices.is_empty());
    }

    #[test]
    fn standard_library_covers_all_leaf_names() {
        let lib = SchematicLib::standard(&p());
        for name in [
            "sram6t",
            "precharge",
            "sense_amp",
            "write_driver",
            "col_mux",
            "row_decoder",
            "wordline_driver",
            "cam_bit",
            "pla_x1",
            "pla_x0",
            "pla_pullup",
            "dff",
            "counter_bit",
            "xor2",
        ] {
            assert!(lib.get(name).is_some(), "{name}");
        }
    }
}
