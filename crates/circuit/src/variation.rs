//! Parametric variation of the 6T SRAM cell.
//!
//! The rare-event yield engine (`bisram-yieldsim`'s `rare` module) needs
//! a physical model of *why* a cell fails: local mismatch spreads the
//! thresholds and dimensions of the six transistors, and the operating
//! corner moves the supply and temperature. This module owns that
//! mapping:
//!
//! * [`OpCorner`] — a deterministic Vdd/temperature corner applied to
//!   the process [`DeviceParams`] (first-order `kp ∝ T^−1.5` mobility
//!   and `dVth/dT ≈ −1.2 mV/K` threshold drift),
//! * [`VariationModel`] — per-transistor Vth/W plus shared-L Gaussian
//!   sigmas; [`VariationModel::realize`] maps a standard-normal vector
//!   `z ∈ R^13` to a [`VariedCell`],
//! * [`VariedCell`] — the realized cell, with DC margin analyses
//!   (delegating to [`crate::snm`]) and a transient read-delay
//!   testbench on the adaptive solver.
//!
//! The zero-variation contract: `realize` with `z = 0` at the nominal
//! corner produces analyses bit-identical to the golden nominal paths
//! (`×1.0` and `+0.0` are exact in IEEE-754), which is what lets the
//! importance-sampling engine's zero-shift mode reproduce plain Monte
//! Carlo byte-for-byte.

use crate::netlist::{MosType, Netlist};
use crate::snm::{self, CellGeometry, InverterVar, MosVar, NoiseMargins};
use crate::tran::{AdaptiveOptions, TransientSim};
use bisram_tech::DeviceParams;

/// Dimension of the standard-normal variation vector: six per-transistor
/// threshold shifts, six per-transistor width variations, one shared
/// gate-length variation (lithography acts on the cell, not per device).
pub const VAR_DIM: usize = 13;

/// Transistor order inside the 13-dim variation vector and the
/// [`VariedCell`] arrays: left pull-down, left pull-up, left access,
/// then the right-side mirror.
pub const DEVICE_NAMES: [&str; 6] = ["pd_l", "pu_l", "ax_l", "pd_r", "pu_r", "ax_r"];

/// Threshold temperature drift (V/K), a textbook first-order value.
const DVT_DT: f64 = -1.2e-3;

/// The cell's left/right mirror symmetry in variation space: swaps the
/// two half-cells' threshold and width components (the shared length is
/// its own mirror image). For any symmetric metric (`min` over the two
/// sides — SNM, write margin), `metric(mirror_z(z)) == metric(z)`, so a
/// failure mode found on one side always has a mirrored twin; the
/// importance sampler covers both with a two-component mixture.
pub fn mirror_z(z: &[f64; VAR_DIM]) -> [f64; VAR_DIM] {
    let mut m = *z;
    for base in [0, 6] {
        for d in 0..3 {
            m.swap(base + d, base + 3 + d);
        }
    }
    m
}

/// An operating corner: supply scale and junction temperature, applied
/// deterministically on top of the statistical variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCorner {
    /// Multiplier on the process nominal Vdd (0.9 = 10% droop).
    pub vdd_scale: f64,
    /// Junction temperature in °C.
    pub temp_c: f64,
}

impl OpCorner {
    /// Reference temperature the process parameters are extracted at.
    pub const NOMINAL_TEMP_C: f64 = 27.0;

    /// The nominal corner: full supply, 27 °C. Applying it is
    /// bit-identical to not applying a corner at all.
    pub fn nominal() -> Self {
        OpCorner {
            vdd_scale: 1.0,
            temp_c: Self::NOMINAL_TEMP_C,
        }
    }

    /// Derives corner-adjusted device parameters: Vdd scaled, mobility
    /// degraded as `(T/T₀)^−1.5`, thresholds drifted at −1.2 mV/K.
    pub fn apply(&self, dev: &DeviceParams) -> DeviceParams {
        assert!(
            self.vdd_scale > 0.0 && self.vdd_scale.is_finite(),
            "vdd_scale must be positive"
        );
        let t_k = self.temp_c + 273.15;
        let t0_k = Self::NOMINAL_TEMP_C + 273.15;
        assert!(t_k > 0.0, "temperature below absolute zero");
        let mut d = dev.clone();
        d.vdd *= self.vdd_scale;
        let kp_scale = (t_k / t0_k).powf(-1.5);
        d.kp_n *= kp_scale;
        d.kp_p *= kp_scale;
        let dvt = DVT_DT * (self.temp_c - Self::NOMINAL_TEMP_C);
        d.vtn += dvt;
        d.vtp += dvt;
        d
    }
}

/// Gaussian process-variation sigmas plus the operating corner — the
/// distribution the yield engine samples (and shifts) in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Per-transistor threshold sigma (V). 35 mV is a plausible local
    /// mismatch figure for the paper-era half-micron processes.
    pub sigma_vth: f64,
    /// Per-transistor fractional width sigma.
    pub sigma_w_frac: f64,
    /// Shared fractional gate-length sigma.
    pub sigma_l_frac: f64,
    /// Deterministic operating corner.
    pub corner: OpCorner,
}

impl Default for VariationModel {
    fn default() -> Self {
        VariationModel {
            sigma_vth: 0.035,
            sigma_w_frac: 0.05,
            sigma_l_frac: 0.03,
            corner: OpCorner::nominal(),
        }
    }
}

impl VariationModel {
    /// Maps a standard-normal vector to a concrete cell instance.
    ///
    /// Layout of `z`: `z[0..6]` per-transistor threshold shifts (in
    /// sigmas, device order [`DEVICE_NAMES`]), `z[6..12]` per-transistor
    /// fractional width variations, `z[12]` the shared gate-length
    /// variation. Widths and length are floored at 10% of nominal so a
    /// pathological shifted sample cannot produce a nonphysical device.
    pub fn realize(
        &self,
        dev: &DeviceParams,
        geom: &CellGeometry,
        z: &[f64; VAR_DIM],
    ) -> VariedCell {
        let d = self.corner.apply(dev);
        let nominal_w = [
            geom.w_pulldown,
            geom.w_pullup,
            geom.w_access,
            geom.w_pulldown,
            geom.w_pullup,
            geom.w_access,
        ];
        let mut w = [0.0; 6];
        let mut dvt = [0.0; 6];
        for i in 0..6 {
            dvt[i] = self.sigma_vth * z[i];
            w[i] = (nominal_w[i] * (1.0 + self.sigma_w_frac * z[6 + i])).max(0.1 * nominal_w[i]);
        }
        let l = (geom.l * (1.0 + self.sigma_l_frac * z[12])).max(0.1 * geom.l);
        let half = |pd: usize, pu: usize, ax: usize| InverterVar {
            pd: MosVar {
                beta: d.kp_n * w[pd] / l,
                vt: d.vtn + dvt[pd],
            },
            pu: MosVar {
                beta: d.kp_p * w[pu] / l,
                vt: d.vtp + dvt[pu],
            },
            ax: MosVar {
                beta: d.kp_n * w[ax] / l,
                vt: d.vtn + dvt[ax],
            },
        };
        let inv = [half(0, 1, 2), half(3, 4, 5)];
        VariedCell {
            dev: d,
            geom: *geom,
            inv,
            w,
            dvt,
            l,
        }
    }
}

/// One realized cell instance: corner-adjusted process parameters plus
/// the six perturbed transistors, ready for DC margin extraction or a
/// transient read-delay run.
#[derive(Debug, Clone, PartialEq)]
pub struct VariedCell {
    /// Corner-adjusted device parameters.
    pub dev: DeviceParams,
    /// Nominal geometry the cell was realized from.
    pub geom: CellGeometry,
    /// The two half-cells in [`crate::snm`]'s DC form
    /// (`inv[0]` drives `q` from `qb`, `inv[1]` the mirror).
    pub inv: [InverterVar; 2],
    /// Realized widths (m), device order [`DEVICE_NAMES`].
    pub w: [f64; 6],
    /// Realized threshold offsets (V), device order [`DEVICE_NAMES`].
    pub dvt: [f64; 6],
    /// Realized shared gate length (m).
    pub l: f64,
}

/// Bitline capacitance of the read testbench (a short column).
const C_BITLINE: f64 = 120e-15;
/// Storage-node capacitance.
const C_NODE: f64 = 5e-15;
/// Initialization pulse end: the init transistor holds `q` low until
/// here so the latched state is deterministic even for a symmetric cell.
const T_INIT_OFF: f64 = 0.3e-9;
/// Precharge turn-off time (gate driven high).
const T_PCHG_OFF: f64 = 0.5e-9;
/// Wordline rise start.
const T_WL_RISE: f64 = 0.6e-9;
/// Source edge time.
const T_EDGE: f64 = 0.05e-9;
/// Simulated span.
const T_STOP: f64 = 3.0e-9;
/// Bitline swing fraction a sense amplifier needs: the read delay is
/// measured to `vdd·(1 − SENSE_FRACTION)` on the falling bitline.
const SENSE_FRACTION: f64 = 0.1;

impl VariedCell {
    /// Corner-adjusted supply.
    pub fn vdd(&self) -> f64 {
        self.dev.vdd
    }

    /// Hold/read static noise margins of this instance.
    pub fn margins(&self) -> NoiseMargins {
        snm::analyze_pair(self.dev.vdd, &self.inv)
    }

    /// Static write margin of this instance (see
    /// [`snm::write_margin_pair`]).
    pub fn write_margin(&self) -> f64 {
        snm::write_margin_pair(self.dev.vdd, &self.inv)
    }

    /// Transient read delay (s): wordline 50% rise to the bitline
    /// falling through `vdd·(1 − 10%)`, simulated with the adaptive
    /// solver on a netlist carrying this instance's per-device
    /// threshold offsets (`mos_dvt`) and widths.
    ///
    /// The testbench stores '0' at `q` (forced by an init transistor so
    /// the latched state never depends on solver luck), precharges both
    /// bitlines, releases the precharge, then raises the wordline; the
    /// `bl` column discharges through the access/pull-down stack.
    /// Returns `f64::INFINITY` when the bitline never develops the
    /// swing inside the simulated span (a functional read failure) or
    /// the solver fails to converge on a pathological instance.
    pub fn read_delay(&self) -> f64 {
        let vdd = self.dev.vdd;
        let mut n = Netlist::new("read_delay_cell");
        let gnd = Netlist::ground();
        let vddn = n.node("vdd");
        let q = n.node("q");
        let qb = n.node("qb");
        let bl = n.node("bl");
        let blb = n.node("blb");
        let wl = n.node("wl");
        let pg = n.node("pchg_gate");
        let ig = n.node("init_gate");
        n.vdc(vddn, gnd, vdd);
        // The 6T cell with realized widths and per-device offsets.
        n.mos_dvt(MosType::Nmos, q, qb, gnd, self.w[0], self.l, self.dvt[0]);
        n.mos_dvt(MosType::Pmos, q, qb, vddn, self.w[1], self.l, self.dvt[1]);
        n.mos_dvt(MosType::Nmos, bl, wl, q, self.w[2], self.l, self.dvt[2]);
        n.mos_dvt(MosType::Nmos, qb, q, gnd, self.w[3], self.l, self.dvt[3]);
        n.mos_dvt(MosType::Pmos, qb, q, vddn, self.w[4], self.l, self.dvt[4]);
        n.mos_dvt(MosType::Nmos, blb, wl, qb, self.w[5], self.l, self.dvt[5]);
        n.capacitor(q, gnd, C_NODE);
        n.capacitor(qb, gnd, C_NODE);
        n.capacitor(bl, gnd, C_BITLINE);
        n.capacitor(blb, gnd, C_BITLINE);
        // Wide precharge PMOS pair, gates low (on) until T_PCHG_OFF.
        let w_pchg = 20.0 * self.geom.l;
        n.mos(MosType::Pmos, bl, pg, vddn, w_pchg, self.geom.l);
        n.mos(MosType::Pmos, blb, pg, vddn, w_pchg, self.geom.l);
        n.vpwl(
            pg,
            gnd,
            vec![
                (0.0, 0.0),
                (T_PCHG_OFF, 0.0),
                (T_PCHG_OFF + T_EDGE, vdd),
                (T_STOP, vdd),
            ],
        );
        // Init NMOS forces q low while its gate pulse is high, latching
        // '0' at q deterministically.
        n.mos(MosType::Nmos, q, ig, gnd, 4.0 * self.geom.l, self.geom.l);
        n.vpwl(
            ig,
            gnd,
            vec![
                (0.0, vdd),
                (T_INIT_OFF, vdd),
                (T_INIT_OFF + T_EDGE, 0.0),
                (T_STOP, 0.0),
            ],
        );
        n.vpwl(
            wl,
            gnd,
            vec![
                (0.0, 0.0),
                (T_WL_RISE, 0.0),
                (T_WL_RISE + T_EDGE, vdd),
                (T_STOP, vdd),
            ],
        );
        let sim = match TransientSim::new(&n, &self.dev) {
            Ok(s) => s,
            Err(_) => return f64::INFINITY,
        };
        let opts = AdaptiveOptions::for_span(T_STOP);
        let result = match sim.run_adaptive(T_STOP, &opts) {
            Ok(r) => r,
            Err(_) => return f64::INFINITY,
        };
        let t_ref = T_WL_RISE + 0.5 * T_EDGE;
        let level = vdd * (1.0 - SENSE_FRACTION);
        match result.crossing_time(bl, level, false, t_ref) {
            Some(t) => t - t_ref,
            None => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snm;
    use bisram_tech::Process;

    fn setup() -> (DeviceParams, CellGeometry) {
        let p = Process::cda07();
        let g = CellGeometry::standard(p.gate_length_m());
        (p.devices().clone(), g)
    }

    /// The zero-variation contract: `z = 0` at the nominal corner must
    /// reproduce the golden nominal analyses bit-for-bit.
    #[test]
    fn zero_variation_is_bit_identical_to_nominal() {
        for p in Process::builtin() {
            let d = p.devices();
            let g = CellGeometry::standard(p.gate_length_m());
            let cell = VariationModel::default().realize(d, &g, &[0.0; VAR_DIM]);
            assert_eq!(cell.dev.vdd.to_bits(), d.vdd.to_bits());
            assert_eq!(cell.dev.vtn.to_bits(), d.vtn.to_bits());
            assert_eq!(cell.dev.kp_n.to_bits(), d.kp_n.to_bits());
            let golden = snm::analyze(d, &g);
            let varied = cell.margins();
            assert_eq!(
                golden.hold_snm.to_bits(),
                varied.hold_snm.to_bits(),
                "{}",
                p.name()
            );
            assert_eq!(
                golden.read_snm.to_bits(),
                varied.read_snm.to_bits(),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn threshold_spread_degrades_margins() {
        let (d, g) = setup();
        let m = VariationModel::default();
        let nominal = m.realize(&d, &g, &[0.0; VAR_DIM]).margins();
        // +3σ on the left pull-down threshold: a weak pull-down is the
        // classic read-stability killer.
        let mut z = [0.0; VAR_DIM];
        z[0] = 3.0;
        let skewed = m.realize(&d, &g, &z).margins();
        assert!(
            skewed.read_snm < nominal.read_snm,
            "weak pull-down must cost read SNM: {:.3} vs {:.3}",
            skewed.read_snm,
            nominal.read_snm
        );
    }

    #[test]
    fn access_threshold_up_costs_write_margin_and_read_speed() {
        let (d, g) = setup();
        let m = VariationModel::default();
        let nominal = m.realize(&d, &g, &[0.0; VAR_DIM]);
        let mut z = [0.0; VAR_DIM];
        z[2] = 4.0; // left access Vth up: weaker access device
        z[5] = 4.0; // right access too (write margin takes the min side)
        let weak = m.realize(&d, &g, &z);
        assert!(weak.write_margin() < nominal.write_margin());
        let t_nom = nominal.read_delay();
        let t_weak = weak.read_delay();
        assert!(t_nom.is_finite(), "nominal cell must read: {t_nom:e}");
        assert!(
            t_weak > t_nom,
            "weaker access must slow the read: {t_weak:e} vs {t_nom:e}"
        );
    }

    #[test]
    fn nominal_read_delay_is_sub_nanosecond_scale() {
        let (d, g) = setup();
        let cell = VariationModel::default().realize(&d, &g, &[0.0; VAR_DIM]);
        let t = cell.read_delay();
        assert!(
            t > 1e-12 && t < 2e-9,
            "read delay {t:e} s outside the plausible window"
        );
    }

    #[test]
    fn low_supply_corner_shrinks_margins() {
        let (d, g) = setup();
        let mut m = VariationModel::default();
        let nominal = m.realize(&d, &g, &[0.0; VAR_DIM]).margins();
        m.corner = OpCorner {
            vdd_scale: 0.8,
            temp_c: 85.0,
        };
        let cornered = m.realize(&d, &g, &[0.0; VAR_DIM]).margins();
        assert!(
            cornered.hold_snm < nominal.hold_snm,
            "low-Vdd hot corner must shrink hold SNM: {:.3} vs {:.3}",
            cornered.hold_snm,
            nominal.hold_snm
        );
    }

    /// The DC margins are symmetric under the left/right half-cell
    /// swap, bit for bit — the property the importance sampler's
    /// two-mode mixture relies on.
    #[test]
    fn dc_margins_are_mirror_symmetric() {
        let (d, g) = setup();
        let m = VariationModel::default();
        let z = {
            let mut z = [0.0; VAR_DIM];
            for (i, zi) in z.iter_mut().enumerate() {
                *zi = (i as f64 - 6.0) * 0.31;
            }
            z
        };
        let a = m.realize(&d, &g, &z);
        let b = m.realize(&d, &g, &mirror_z(&z));
        assert_eq!(
            a.write_margin().to_bits(),
            b.write_margin().to_bits(),
            "write margin must be mirror-symmetric"
        );
        let (ma, mb) = (a.margins(), b.margins());
        assert_eq!(ma.hold_snm.to_bits(), mb.hold_snm.to_bits());
        assert_eq!(ma.read_snm.to_bits(), mb.read_snm.to_bits());
        // Mirroring twice is the identity.
        assert_eq!(mirror_z(&mirror_z(&z)), z);
    }

    /// The per-device `dvt` path through the transient solver must agree
    /// with baking the same shift into `DeviceParams` when every device
    /// shares the shift.
    #[test]
    fn uniform_dvt_matches_shifted_process_params() {
        let (d, g) = setup();
        let m = VariationModel {
            sigma_w_frac: 0.0,
            sigma_l_frac: 0.0,
            ..VariationModel::default()
        };
        let shift = 2.0; // sigmas
        let z = {
            let mut z = [0.0; VAR_DIM];
            for zi in z.iter_mut().take(6) {
                *zi = shift;
            }
            z
        };
        let via_dvt = m.realize(&d, &g, &z);
        let mut shifted = d.clone();
        shifted.vtn += m.sigma_vth * shift;
        shifted.vtp += m.sigma_vth * shift;
        let via_params = m.realize(&shifted, &g, &[0.0; VAR_DIM]);
        let a = via_dvt.margins();
        let b = via_params.margins();
        assert_eq!(a.hold_snm.to_bits(), b.hold_snm.to_bits());
        assert_eq!(a.read_snm.to_bits(), b.read_snm.to_bits());
    }
}
