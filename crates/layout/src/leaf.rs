//! Rule-driven parametric leaf-cell generators.
//!
//! Every generator takes a [`Process`] and draws on that process's lambda
//! grid, which is what makes the layouts design-rule independent (paper
//! §II). The geometries are simplified but structurally faithful — the
//! right layers in the right topology at the right pitches — and every
//! cell is kept clean under the full verification engine (widths,
//! spacings, enclosures, gate/source-drain extensions) both standalone
//! and when tiled at its abutment pitch (see the tests here, in `tile`,
//! and in the `bisram-verify` crate).
//!
//! Pitch contracts the macrocells rely on:
//!
//! * the SRAM cell is `26λ × 40λ`; bitlines run vertically through on
//!   metal2 at x = 2..5 and 21..24; the word line runs through on poly
//!   at y = 18..20,
//! * every bitline-pitch-matched cell (precharge, column mux, sense
//!   amplifier, write driver) is 26λ wide with bitline stubs at the same
//!   x positions,
//! * every row-pitch-matched cell (row decoder, word-line driver) is
//!   40λ tall with its word-line poly at y = 18..20.

use crate::cell::Cell;
use bisram_geom::{Coord, Port, PortDirection, Rect, Side};
use bisram_tech::{Layer, Process};

/// Width of the SRAM cell in lambda (the bitline pitch contract).
pub const SRAM_W: Coord = 26;
/// Height of the SRAM cell in lambda (the word-line pitch contract).
pub const SRAM_H: Coord = 40;

/// Helper carrying the process lambda for λ-grid drawing.
struct Sketch<'a> {
    cell: Cell,
    lambda: Coord,
    _process: &'a Process,
}

impl<'a> Sketch<'a> {
    fn new(name: &str, process: &'a Process) -> Self {
        Sketch {
            cell: Cell::new(name),
            lambda: process.rules().lambda(),
            _process: process,
        }
    }

    fn rect(&mut self, layer: Layer, x0: Coord, y0: Coord, x1: Coord, y1: Coord) {
        let l = self.lambda;
        self.cell
            .add_shape(layer, Rect::new(x0 * l, y0 * l, x1 * l, y1 * l));
    }

    #[allow(clippy::too_many_arguments)]
    fn port(
        &mut self,
        name: &str,
        layer: Layer,
        side: Side,
        x0: Coord,
        y0: Coord,
        x1: Coord,
        y1: Coord,
        dir: PortDirection,
    ) {
        let l = self.lambda;
        self.cell.add_port(
            Port::new(
                name,
                layer.id(),
                Rect::new(x0 * l, y0 * l, x1 * l, y1 * l),
                side,
            )
            .with_direction(dir),
        );
    }

    fn outline(&mut self, w: Coord, h: Coord) {
        let l = self.lambda;
        self.cell.set_outline(Rect::new(0, 0, w * l, h * l));
    }

    fn finish(self) -> Cell {
        self.cell
    }
}

/// The six-transistor SRAM storage cell.
///
/// Implements the layout template of paper §VII with near-zero critical
/// area for fatal (supply-shorting) defects: the supply rails are narrow
/// and the cell interior keeps metal1 islands well separated. The two
/// pull-up transistors share one diffusion strip inside the well; the
/// contacted storage-node landings satisfy the full enclosure and
/// extension rules of every built-in process.
pub fn sram6t(process: &Process) -> Cell {
    let mut s = Sketch::new("sram6t", process);
    s.outline(SRAM_W, SRAM_H);
    // Through-wires (connect by abutment when tiled).
    s.rect(Layer::Metal2, 2, 0, 5, SRAM_H); // BL
    s.rect(Layer::Metal2, 21, 0, 24, SRAM_H); // BLB
    s.rect(Layer::Poly, 0, 18, SRAM_W, 20); // WL
    s.rect(Layer::Metal1, 0, 0, SRAM_W, 3); // GND rail
    s.rect(Layer::Metal1, 0, 22, SRAM_W, 25); // VDD rail
    s.rect(Layer::Nwell, 0, 21, SRAM_W, SRAM_H); // PMOS well
                                                 // NMOS half (pull-downs + access).
    s.rect(Layer::Active, 3, 5, 11, 14);
    s.rect(Layer::Active, 15, 5, 23, 14);
    s.rect(Layer::Poly, 6, 3, 8, 16);
    s.rect(Layer::Poly, 18, 3, 20, 16);
    s.rect(Layer::Nselect, 1, 3, 25, 16);
    s.rect(Layer::Contact, 4, 7, 6, 9);
    s.rect(Layer::Contact, 20, 7, 22, 9);
    s.rect(Layer::Metal1, 3, 6, 7, 10); // storage node A strap
    s.rect(Layer::Metal1, 19, 6, 23, 10); // storage node B strap
                                          // PMOS half (pull-ups on a shared diffusion strip).
    s.rect(Layer::Active, 6, 27, 20, 34);
    s.rect(Layer::Poly, 9, 25, 11, 36);
    s.rect(Layer::Poly, 15, 25, 17, 36);
    s.rect(Layer::Pselect, 4, 25, 22, 38);
    s.rect(Layer::Contact, 7, 29, 9, 31);
    s.rect(Layer::Contact, 17, 29, 19, 31);
    s.rect(Layer::Metal1, 6, 28, 10, 32);
    s.rect(Layer::Metal1, 16, 28, 20, 32);

    s.port(
        "bl",
        Layer::Metal2,
        Side::South,
        2,
        0,
        5,
        4,
        PortDirection::Inout,
    );
    s.port(
        "blb",
        Layer::Metal2,
        Side::South,
        21,
        0,
        24,
        4,
        PortDirection::Inout,
    );
    s.port(
        "wl",
        Layer::Poly,
        Side::West,
        0,
        18,
        2,
        20,
        PortDirection::Input,
    );
    s.port(
        "vdd",
        Layer::Metal1,
        Side::East,
        22,
        22,
        26,
        25,
        PortDirection::Supply,
    );
    s.port(
        "gnd",
        Layer::Metal1,
        Side::East,
        22,
        0,
        26,
        3,
        PortDirection::Supply,
    );
    s.finish()
}

/// Bitline precharge/equalization cell (one column pitch). The paper
/// makes precharge transistors "larger than minimal size to increase
/// their current drive strengths"; `size_factor` (≥ 1) widens them.
pub fn precharge(process: &Process, size_factor: Coord) -> Cell {
    assert!(size_factor >= 1, "critical gates are never sub-minimum");
    let mut s = Sketch::new("precharge", process);
    let h = 14 + 3 * size_factor;
    s.outline(SRAM_W, h);
    // Bitline stubs at the array pitch.
    s.rect(Layer::Metal2, 2, 0, 5, h);
    s.rect(Layer::Metal2, 21, 0, 24, h);
    // PMOS precharge devices crossed by a shared clock gate. The well
    // overhangs the outline so the diffusions keep their 6λ enclosure;
    // neighbouring column cells' wells merge by overlap.
    s.rect(Layer::Nwell, -4, -3, 30, h + 5);
    let aw = (3 + size_factor).min(9); // device width grows with the factor
    s.rect(Layer::Active, 2, 3, 2 + aw, 13);
    s.rect(Layer::Active, 24 - aw, 3, 24, 13);
    s.rect(Layer::Poly, 0, 6, SRAM_W, 8); // shared precharge clock gate
    s.rect(Layer::Pselect, 0, 1, SRAM_W, 15);

    s.port(
        "bl",
        Layer::Metal2,
        Side::South,
        2,
        0,
        5,
        4,
        PortDirection::Inout,
    );
    s.port(
        "blb",
        Layer::Metal2,
        Side::South,
        21,
        0,
        24,
        4,
        PortDirection::Inout,
    );
    s.port(
        "prech",
        Layer::Poly,
        Side::West,
        0,
        6,
        2,
        8,
        PortDirection::Input,
    );
    s.finish()
}

/// The current-mode sense amplifier of Fig. 3 (one column-mux output
/// pitch): a cross-coupled latch sensing a bitline current differential,
/// bypassed in write mode.
pub fn sense_amp(process: &Process) -> Cell {
    let mut s = Sketch::new("sense_amp", process);
    let h = 34;
    s.outline(SRAM_W, h);
    s.rect(Layer::Metal2, 2, 0, 5, h); // data line in
    s.rect(Layer::Metal2, 21, 0, 24, h);
    // Cross-coupled NMOS pair on one diffusion strip.
    s.rect(Layer::Active, 4, 4, 22, 12);
    s.rect(Layer::Poly, 8, 2, 10, 14);
    s.rect(Layer::Poly, 16, 2, 18, 14);
    s.rect(Layer::Nselect, 2, 2, 24, 14);
    // PMOS load pair in a well strip.
    s.rect(Layer::Nwell, -3, 17, 29, h);
    s.rect(Layer::Active, 5, 23, 21, 28);
    s.rect(Layer::Poly, 8, 21, 10, 30);
    s.rect(Layer::Poly, 16, 21, 18, 30);
    s.rect(Layer::Pselect, 3, 21, 23, 30);
    // Output landings on the sensing nodes.
    s.rect(Layer::Contact, 5, 5, 7, 7);
    s.rect(Layer::Contact, 19, 5, 21, 7);
    s.rect(Layer::Metal1, 4, 4, 8, 8);
    s.rect(Layer::Metal1, 18, 4, 22, 8);

    s.port(
        "bl",
        Layer::Metal2,
        Side::North,
        2,
        h - 4,
        5,
        h,
        PortDirection::Input,
    );
    s.port(
        "blb",
        Layer::Metal2,
        Side::North,
        21,
        h - 4,
        24,
        h,
        PortDirection::Input,
    );
    s.port(
        "dout",
        Layer::Metal1,
        Side::East,
        22,
        5,
        26,
        8,
        PortDirection::Output,
    );
    s.port(
        "se",
        Layer::Poly,
        Side::West,
        0,
        19,
        2,
        21,
        PortDirection::Input,
    );
    s.finish()
}

/// Write driver (one column pitch): tristate drivers onto the bitline
/// pair, active in write mode when the sense amplifier is bypassed.
pub fn write_driver(process: &Process) -> Cell {
    let mut s = Sketch::new("write_driver", process);
    let h = 22;
    s.outline(SRAM_W, h);
    s.rect(Layer::Metal2, 2, 0, 5, h);
    s.rect(Layer::Metal2, 21, 0, 24, h);
    s.rect(Layer::Active, 5, 4, 21, 12);
    s.rect(Layer::Poly, 8, 2, 10, 14);
    s.rect(Layer::Poly, 16, 2, 18, 14);
    s.rect(Layer::Nselect, 3, 2, 23, 14);
    s.rect(Layer::Metal1, 6, 16, 20, 19); // data input strap

    s.port(
        "bl",
        Layer::Metal2,
        Side::North,
        2,
        h - 4,
        5,
        h,
        PortDirection::Output,
    );
    s.port(
        "blb",
        Layer::Metal2,
        Side::North,
        21,
        h - 4,
        24,
        h,
        PortDirection::Output,
    );
    s.port(
        "din",
        Layer::Metal1,
        Side::West,
        0,
        16,
        4,
        19,
        PortDirection::Input,
    );
    s.port(
        "we",
        Layer::Poly,
        Side::West,
        0,
        2,
        2,
        4,
        PortDirection::Input,
    );
    s.finish()
}

/// Column multiplexer slice (one column pitch): the pass-transistor pair
/// selecting one of `bpc` bitline pairs per I/O subarray (paper §IV,
/// Fig. 2).
pub fn col_mux(process: &Process) -> Cell {
    let mut s = Sketch::new("col_mux", process);
    let h = 18;
    s.outline(SRAM_W, h);
    // Bitlines from the array above; data bus below.
    s.rect(Layer::Metal2, 2, 0, 5, h);
    s.rect(Layer::Metal2, 21, 0, 24, h);
    // Pass transistors.
    s.rect(Layer::Active, 6, 4, 11, 12);
    s.rect(Layer::Active, 15, 4, 20, 12);
    s.rect(Layer::Poly, 0, 7, SRAM_W, 9); // shared select line through
    s.rect(Layer::Nselect, 4, 2, 22, 14);

    s.port(
        "bl",
        Layer::Metal2,
        Side::North,
        2,
        h - 4,
        5,
        h,
        PortDirection::Inout,
    );
    s.port(
        "blb",
        Layer::Metal2,
        Side::North,
        21,
        h - 4,
        24,
        h,
        PortDirection::Inout,
    );
    s.port(
        "dbus",
        Layer::Metal2,
        Side::South,
        2,
        0,
        5,
        4,
        PortDirection::Inout,
    );
    s.port(
        "dbusb",
        Layer::Metal2,
        Side::South,
        21,
        0,
        24,
        4,
        PortDirection::Inout,
    );
    s.port(
        "sel",
        Layer::Poly,
        Side::West,
        0,
        7,
        2,
        9,
        PortDirection::Input,
    );
    s.finish()
}

/// Static row decoder slice (one word-line pitch, 40λ tall): a NAND of
/// the row-address lines driving the word line through the east edge,
/// where it abuts the word-line driver / array.
pub fn row_decoder(process: &Process, address_bits: u32) -> Cell {
    assert!(address_bits >= 1, "decoder needs at least one address bit");
    let mut s = Sketch::new("row_decoder", process);
    // Width grows with fan-in: one 8λ pitch per address line + 12λ gate.
    let w = 8 * address_bits as Coord + 12;
    s.outline(w, SRAM_H);
    // Vertical address lines (metal2, one per bit, through-running).
    for b in 0..address_bits as Coord {
        s.rect(Layer::Metal2, 8 * b + 2, 0, 8 * b + 5, SRAM_H);
    }
    // NAND stack.
    let gx = 8 * address_bits as Coord;
    s.rect(Layer::Active, gx, 5, gx + 8, 14);
    s.rect(Layer::Poly, gx + 3, 3, gx + 5, 16);
    s.rect(Layer::Nselect, gx - 2, 3, w - 2, 16);
    // Word line out on poly at the array pitch.
    s.rect(Layer::Poly, gx + 1, 18, w, 20);
    s.rect(Layer::Metal1, 0, 0, w, 3); // GND rail
    s.rect(Layer::Metal1, 0, 22, w, 25); // VDD rail

    for b in 0..address_bits as Coord {
        s.port(
            &format!("a{b}"),
            Layer::Metal2,
            Side::South,
            8 * b + 2,
            0,
            8 * b + 5,
            4,
            PortDirection::Input,
        );
    }
    s.port(
        "wl",
        Layer::Poly,
        Side::East,
        w - 2,
        18,
        w,
        20,
        PortDirection::Output,
    );
    s.port(
        "vdd",
        Layer::Metal1,
        Side::West,
        0,
        22,
        4,
        25,
        PortDirection::Supply,
    );
    s.port(
        "gnd",
        Layer::Metal1,
        Side::West,
        0,
        0,
        4,
        3,
        PortDirection::Supply,
    );
    s.finish()
}

/// Word-line driver (one word-line pitch): the buffer between decoder
/// and array; `size_factor` scales the output stage (a paper "critical
/// gate").
pub fn wordline_driver(process: &Process, size_factor: Coord) -> Cell {
    assert!(size_factor >= 1, "critical gates are never sub-minimum");
    let mut s = Sketch::new("wordline_driver", process);
    let w = 18 + 4 * size_factor;
    s.outline(w, SRAM_H);
    s.rect(Layer::Poly, 0, 18, w, 20); // WL through
    s.rect(Layer::Metal1, 0, 0, w, 3);
    s.rect(Layer::Metal1, 0, 22, w, 25);
    s.rect(Layer::Nwell, 0, 21, w, SRAM_H);
    // Output inverter.
    s.rect(Layer::Active, 3, 5, 11, 14);
    s.rect(Layer::Poly, 6, 3, 8, 16);
    s.rect(Layer::Nselect, 1, 3, 13, 16);
    s.rect(Layer::Active, 6, 27, 14, 34);
    s.rect(Layer::Poly, 9, 25, 11, 36);
    s.rect(Layer::Pselect, 4, 25, 16, 36);

    s.port(
        "wl_in",
        Layer::Poly,
        Side::West,
        0,
        18,
        2,
        20,
        PortDirection::Input,
    );
    s.port(
        "wl",
        Layer::Poly,
        Side::East,
        w - 2,
        18,
        w,
        20,
        PortDirection::Output,
    );
    s.finish()
}

/// One TLB bit: a CAM cell — storage plus XOR comparison against the
/// incoming address bit, discharging a match line (paper §VI's parallel
/// address comparison).
pub fn cam_bit(process: &Process) -> Cell {
    let mut s = Sketch::new("cam_bit", process);
    let w = 34;
    s.outline(w, SRAM_H);
    // Storage half reuses the SRAM topology.
    s.rect(Layer::Metal2, 2, 0, 5, SRAM_H); // compare/search line
    s.rect(Layer::Metal2, 29, 0, 32, SRAM_H); // complement search line
    s.rect(Layer::Poly, 0, 18, w, 20); // select/word line
    s.rect(Layer::Metal1, 0, 0, w, 3); // GND / match discharge
    s.rect(Layer::Metal1, 0, 22, w, 25); // VDD
    s.rect(Layer::Metal1, 0, 28, w, 31); // match line (through, m1)
    s.rect(Layer::Nwell, 0, 30, w, SRAM_H);
    s.rect(Layer::Active, 5, 5, 21, 14); // storage pair strip
    s.rect(Layer::Active, 24, 5, 32, 14); // compare pulldown
    s.rect(Layer::Poly, 8, 3, 10, 16);
    s.rect(Layer::Poly, 16, 3, 18, 16);
    s.rect(Layer::Poly, 27, 3, 29, 16);
    s.rect(Layer::Nselect, 3, 3, 34, 16);

    s.port(
        "search",
        Layer::Metal2,
        Side::South,
        2,
        0,
        5,
        4,
        PortDirection::Input,
    );
    s.port(
        "searchb",
        Layer::Metal2,
        Side::South,
        29,
        0,
        32,
        4,
        PortDirection::Input,
    );
    s.port(
        "match_w",
        Layer::Metal1,
        Side::West,
        0,
        28,
        4,
        31,
        PortDirection::Inout,
    );
    s.port(
        "match_e",
        Layer::Metal1,
        Side::East,
        w - 4,
        28,
        w,
        31,
        PortDirection::Inout,
    );
    s.port(
        "sel",
        Layer::Poly,
        Side::West,
        0,
        18,
        2,
        20,
        PortDirection::Input,
    );
    s.finish()
}

/// A PLA crosspoint cell (8λ × 8λ): `programmed` cells carry the
/// pulldown transistor of the pseudo-NMOS NOR plane, unprogrammed cells
/// only pass the lines through.
///
/// The programmed diffusion runs to both cell edges so that a row of
/// programmed crosspoints chains source/drain regions by abutment; the
/// metal1 term line collects the plane output. (The term line is not
/// contacted inside the 8λ crosspoint — the chain-to-term connection is
/// abstracted, and the extraction/schematic sides model it identically.)
pub fn pla_crosspoint(process: &Process, programmed: bool) -> Cell {
    let name = if programmed { "pla_x1" } else { "pla_x0" };
    let mut s = Sketch::new(name, process);
    s.outline(8, 8);
    s.rect(Layer::Poly, 3, 0, 5, 8); // input line (vertical)
    s.rect(Layer::Metal1, 0, 3, 8, 6); // term line (horizontal)
    if programmed {
        s.rect(Layer::Active, 0, 2, 8, 5);
        s.rect(Layer::Nselect, -2, 0, 10, 8);
    }
    s.port(
        "in_s",
        Layer::Poly,
        Side::South,
        3,
        0,
        5,
        2,
        PortDirection::Input,
    );
    s.port(
        "in_n",
        Layer::Poly,
        Side::North,
        3,
        6,
        5,
        8,
        PortDirection::Input,
    );
    s.port(
        "t_w",
        Layer::Metal1,
        Side::West,
        0,
        3,
        2,
        6,
        PortDirection::Inout,
    );
    s.port(
        "t_e",
        Layer::Metal1,
        Side::East,
        6,
        3,
        8,
        6,
        PortDirection::Inout,
    );
    s.finish()
}

/// The pseudo-NMOS pull-up cell terminating a PLA term line (8λ pitch).
pub fn pla_pullup(process: &Process) -> Cell {
    let mut s = Sketch::new("pla_pullup", process);
    s.outline(20, 8);
    s.rect(Layer::Metal1, 0, 3, 20, 6); // term line continuation
    s.rect(Layer::Nwell, 0, -4, 24, 12);
    s.rect(Layer::Active, 9, 2, 18, 6);
    s.rect(Layer::Poly, 12, 0, 14, 8); // always-on gate column
    s.rect(Layer::Contact, 15, 3, 17, 5);
    s.rect(Layer::Metal1, 14, 2, 18, 6); // drain pad onto the term line
    s.rect(Layer::Pselect, 7, 0, 20, 8);
    s.port(
        "t_w",
        Layer::Metal1,
        Side::West,
        0,
        3,
        2,
        6,
        PortDirection::Inout,
    );
    s.finish()
}

/// A D flip-flop bit (state register / counter storage).
pub fn dff(process: &Process) -> Cell {
    let mut s = Sketch::new("dff", process);
    let w = 48;
    s.outline(w, SRAM_H);
    s.rect(Layer::Metal1, 0, 0, w, 3);
    s.rect(Layer::Metal1, 0, 22, w, 25);
    s.rect(Layer::Nwell, 0, 21, w, SRAM_H);
    // Master and slave transmission/latch stages, each a shared-diffusion
    // transistor pair over and under the supply rails.
    for x0 in [6, 26] {
        s.rect(Layer::Active, x0, 5, x0 + 16, 14);
        s.rect(Layer::Poly, x0 + 3, 3, x0 + 5, 16);
        s.rect(Layer::Poly, x0 + 11, 3, x0 + 13, 16);
        s.rect(Layer::Active, x0, 27, x0 + 16, 34);
        s.rect(Layer::Poly, x0 + 3, 25, x0 + 5, 36);
        s.rect(Layer::Poly, x0 + 11, 25, x0 + 13, 36);
    }
    s.rect(Layer::Nselect, 4, 3, w - 4, 16);
    s.rect(Layer::Pselect, 4, 25, w - 4, 36);
    // Clock line through on poly.
    s.rect(Layer::Poly, 0, 18, w, 20);

    s.port(
        "d",
        Layer::Metal1,
        Side::West,
        0,
        8,
        4,
        11,
        PortDirection::Input,
    );
    s.port(
        "q",
        Layer::Metal1,
        Side::East,
        w - 4,
        8,
        w,
        11,
        PortDirection::Output,
    );
    s.port(
        "clk",
        Layer::Poly,
        Side::West,
        0,
        18,
        2,
        20,
        PortDirection::Input,
    );
    s.rect(Layer::Metal1, 0, 8, 6, 11);
    s.rect(Layer::Metal1, w - 6, 8, w, 11);
    s.finish()
}

/// A counter bit-slice: flip-flop plus the carry/borrow logic of the
/// ADDGEN up/down counter.
pub fn counter_bit(process: &Process) -> Cell {
    let mut s = Sketch::new("counter_bit", process);
    let w = 64;
    s.outline(w, SRAM_H);
    s.rect(Layer::Metal1, 0, 0, w, 3);
    s.rect(Layer::Metal1, 0, 22, w, 25);
    s.rect(Layer::Nwell, 0, 21, w, SRAM_H);
    for x0 in [4, 24, 44] {
        s.rect(Layer::Active, x0, 5, x0 + 16, 14);
        s.rect(Layer::Poly, x0 + 3, 3, x0 + 5, 16);
        s.rect(Layer::Poly, x0 + 11, 3, x0 + 13, 16);
    }
    for x0 in [6, 26, 46] {
        s.rect(Layer::Active, x0, 27, x0 + 8, 34);
        s.rect(Layer::Poly, x0 + 3, 25, x0 + 5, 36);
    }
    s.rect(Layer::Nselect, 2, 3, 62, 16);
    s.rect(Layer::Pselect, 4, 25, 56, 36);
    s.rect(Layer::Poly, 0, 18, w, 20); // clock through
    s.rect(Layer::Metal1, 0, 28, w, 31); // carry chain through

    s.port(
        "carry_w",
        Layer::Metal1,
        Side::West,
        0,
        28,
        4,
        31,
        PortDirection::Input,
    );
    s.port(
        "carry_e",
        Layer::Metal1,
        Side::East,
        w - 4,
        28,
        w,
        31,
        PortDirection::Output,
    );
    s.port(
        "clk",
        Layer::Poly,
        Side::West,
        0,
        18,
        2,
        20,
        PortDirection::Input,
    );
    s.port(
        "q",
        Layer::Metal1,
        Side::North,
        10,
        36,
        14,
        SRAM_H,
        PortDirection::Output,
    );
    s.rect(Layer::Metal1, 10, 34, 14, SRAM_H);
    s.finish()
}

/// A two-input XOR comparator bit (the DATAGEN read-compare element).
pub fn xor2(process: &Process) -> Cell {
    let mut s = Sketch::new("xor2", process);
    let w = 44;
    s.outline(w, SRAM_H);
    s.rect(Layer::Metal1, 0, 0, w, 3);
    s.rect(Layer::Metal1, 0, 22, w, 25);
    s.rect(Layer::Nwell, 0, 21, w, SRAM_H);
    for x0 in [4, 24] {
        s.rect(Layer::Active, x0, 5, x0 + 16, 14);
        s.rect(Layer::Poly, x0 + 3, 3, x0 + 5, 16);
        s.rect(Layer::Poly, x0 + 11, 3, x0 + 13, 16);
    }
    for x0 in [6, 26] {
        s.rect(Layer::Active, x0, 27, x0 + 8, 34);
        s.rect(Layer::Poly, x0 + 3, 25, x0 + 5, 36);
    }
    s.rect(Layer::Nselect, 2, 3, 42, 16);
    s.rect(Layer::Pselect, 4, 25, 36, 36);
    s.port(
        "a",
        Layer::Metal1,
        Side::West,
        0,
        6,
        4,
        9,
        PortDirection::Input,
    );
    s.port(
        "b",
        Layer::Metal1,
        Side::West,
        0,
        12,
        4,
        15,
        PortDirection::Input,
    );
    s.port(
        "y",
        Layer::Metal1,
        Side::East,
        w - 4,
        8,
        w,
        11,
        PortDirection::Output,
    );
    s.rect(Layer::Metal1, 0, 6, 4, 9);
    s.rect(Layer::Metal1, 0, 12, 4, 15);
    // Output strap inset from the east edge so a tiled neighbour's input
    // straps (vertically offset) keep metal1 spacing.
    s.rect(Layer::Metal1, w - 7, 8, w - 3, 11);
    s.finish()
}

/// All leaf cells of the library, for exhaustive per-process testing.
pub fn library(process: &Process) -> Vec<Cell> {
    vec![
        sram6t(process),
        precharge(process, 2),
        sense_amp(process),
        write_driver(process),
        col_mux(process),
        row_decoder(process, 9),
        wordline_driver(process, 2),
        cam_bit(process),
        pla_crosspoint(process, true),
        pla_crosspoint(process, false),
        pla_pullup(process),
        dff(process),
        counter_bit(process),
        xor2(process),
    ]
}

/// A hashable description of one leaf cell: which generator to run and
/// the parameters it takes. Together with a process fingerprint this is
/// the *content key* under which compile pipelines cache generated
/// leaves — two compiles that would draw the identical cell map to the
/// identical key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeafSpec {
    /// [`sram6t`].
    Sram6t,
    /// [`precharge`] with its critical-gate size factor.
    Precharge {
        /// Size factor (λ multiplier on the pull-up width).
        size_factor: Coord,
    },
    /// [`sense_amp`].
    SenseAmp,
    /// [`write_driver`].
    WriteDriver,
    /// [`col_mux`].
    ColMux,
    /// [`row_decoder`] for a given address width.
    RowDecoder {
        /// Row-address bits decoded.
        address_bits: u32,
    },
    /// [`wordline_driver`] with its critical-gate size factor.
    WordlineDriver {
        /// Size factor.
        size_factor: Coord,
    },
    /// [`cam_bit`].
    CamBit,
    /// [`pla_crosspoint`], programmed or blank.
    PlaCrosspoint {
        /// Whether the crosspoint transistor is present.
        programmed: bool,
    },
    /// [`pla_pullup`].
    PlaPullup,
    /// [`dff`].
    Dff,
    /// [`counter_bit`].
    CounterBit,
    /// [`xor2`].
    Xor2,
}

impl LeafSpec {
    /// Runs the described generator against `process`.
    pub fn build(&self, process: &Process) -> Cell {
        match *self {
            LeafSpec::Sram6t => sram6t(process),
            LeafSpec::Precharge { size_factor } => precharge(process, size_factor),
            LeafSpec::SenseAmp => sense_amp(process),
            LeafSpec::WriteDriver => write_driver(process),
            LeafSpec::ColMux => col_mux(process),
            LeafSpec::RowDecoder { address_bits } => row_decoder(process, address_bits),
            LeafSpec::WordlineDriver { size_factor } => wordline_driver(process, size_factor),
            LeafSpec::CamBit => cam_bit(process),
            LeafSpec::PlaCrosspoint { programmed } => pla_crosspoint(process, programmed),
            LeafSpec::PlaPullup => pla_pullup(process),
            LeafSpec::Dff => dff(process),
            LeafSpec::CounterBit => counter_bit(process),
            LeafSpec::Xor2 => xor2(process),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_cells_scale_with_lambda() {
        let small = sram6t(&Process::cda05());
        let large = sram6t(&Process::cda07());
        // Same lambda dimensions, different absolute size: 350/250 ratio.
        assert_eq!(small.bbox().width() * 7, large.bbox().width() * 5);
        assert_eq!(small.bbox().height() * 7, large.bbox().height() * 5);
    }

    #[test]
    fn sram_cell_respects_pitch_contract() {
        let p = Process::cda07();
        let l = p.rules().lambda();
        let c = sram6t(&p);
        assert_eq!(c.bbox().width(), SRAM_W * l);
        assert_eq!(c.bbox().height(), SRAM_H * l);
        // Word line at the contract y.
        let wl = c.port("wl").unwrap();
        assert_eq!(wl.rect().bottom(), 18 * l);
        // Bitline ports at the contract x.
        assert_eq!(c.port("bl").unwrap().rect().left(), 2 * l);
        assert_eq!(c.port("blb").unwrap().rect().left(), 21 * l);
    }

    #[test]
    fn column_pitch_matched_cells_share_bitline_positions() {
        let p = Process::mosis06();
        let array = sram6t(&p);
        for cell in [
            precharge(&p, 2),
            sense_amp(&p),
            write_driver(&p),
            col_mux(&p),
        ] {
            assert_eq!(
                cell.bbox().width(),
                array.bbox().width(),
                "{} must match the column pitch",
                cell.name()
            );
            let a = array.port("bl").unwrap().rect();
            let c = cell.port("bl").unwrap().rect();
            assert_eq!(a.left(), c.left(), "{} bl x position", cell.name());
        }
    }

    #[test]
    fn row_pitch_matched_cells_share_wordline_position() {
        let p = Process::cda07();
        let l = p.rules().lambda();
        for cell in [row_decoder(&p, 9), wordline_driver(&p, 2)] {
            assert_eq!(cell.bbox().height(), SRAM_H * l, "{}", cell.name());
            let wl = cell.port("wl").unwrap();
            assert_eq!(wl.rect().bottom(), 18 * l, "{} wl y", cell.name());
        }
    }

    #[test]
    fn decoder_width_grows_with_fanin() {
        let p = Process::cda07();
        assert!(row_decoder(&p, 10).bbox().width() > row_decoder(&p, 5).bbox().width());
    }

    #[test]
    fn leaf_specs_build_the_same_cells_as_the_generators() {
        let p = Process::cda07();
        for (spec, direct) in [
            (LeafSpec::Sram6t, sram6t(&p)),
            (LeafSpec::Precharge { size_factor: 3 }, precharge(&p, 3)),
            (LeafSpec::RowDecoder { address_bits: 7 }, row_decoder(&p, 7)),
            (
                LeafSpec::PlaCrosspoint { programmed: true },
                pla_crosspoint(&p, true),
            ),
            (LeafSpec::Xor2, xor2(&p)),
        ] {
            let built = spec.build(&p);
            assert_eq!(built.name(), direct.name());
            assert_eq!(built.bbox(), direct.bbox());
            assert_eq!(built.flatten(), direct.flatten());
        }
    }

    #[test]
    fn leaf_specs_with_different_parameters_hash_differently() {
        use std::collections::HashSet;
        let specs = [
            LeafSpec::Precharge { size_factor: 1 },
            LeafSpec::Precharge { size_factor: 2 },
            LeafSpec::RowDecoder { address_bits: 5 },
            LeafSpec::RowDecoder { address_bits: 6 },
            LeafSpec::PlaCrosspoint { programmed: true },
            LeafSpec::PlaCrosspoint { programmed: false },
        ];
        let set: HashSet<LeafSpec> = specs.into_iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn critical_gate_sizing_grows_cells() {
        let p = Process::cda07();
        assert!(wordline_driver(&p, 4).bbox().width() > wordline_driver(&p, 1).bbox().width());
        assert!(precharge(&p, 4).bbox().height() > precharge(&p, 1).bbox().height());
    }

    #[test]
    #[should_panic(expected = "sub-minimum")]
    fn zero_size_factor_rejected() {
        let _ = wordline_driver(&Process::cda07(), 0);
    }

    #[test]
    fn programmed_crosspoint_differs_from_blank() {
        let p = Process::cda07();
        let on = pla_crosspoint(&p, true);
        let off = pla_crosspoint(&p, false);
        assert!(on.shapes().len() > off.shapes().len());
        assert_eq!(on.bbox(), off.bbox(), "same footprint either way");
    }
}
