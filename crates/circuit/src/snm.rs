//! Static noise margin analysis of the 6T SRAM cell.
//!
//! A memory compiler must guarantee that the cell it tiles by the
//! million actually holds data: the hold and read static noise margins
//! (SNM) of the cross-coupled inverter pair, extracted from the
//! butterfly curves. Read SNM additionally loads the "low" storage node
//! through the access transistor from the precharged bitline — the
//! classic read-disturb mechanism that fixes the cell ratio (pulldown
//! strength over access strength).
//!
//! The voltage transfer curves come from the same level-1 device
//! equations as the transient simulator; the SNM is the side of the
//! largest square that fits inside a butterfly lobe, computed with the
//! standard 45°-rotation method.

use crate::device::level1_nmos_id_dc;
use bisram_tech::DeviceParams;

/// Geometry of the 6T cell's transistors (widths in metres; all devices
/// share the process gate length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    /// Pull-down NMOS width.
    pub w_pulldown: f64,
    /// Pull-up PMOS width.
    pub w_pullup: f64,
    /// Access NMOS width.
    pub w_access: f64,
    /// Gate length.
    pub l: f64,
}

impl CellGeometry {
    /// A standard cell for a process of gate length `l`: cell ratio 2
    /// (pulldown twice the access strength), minimum-strength pull-up.
    pub fn standard(l: f64) -> Self {
        CellGeometry {
            w_pulldown: 3.0 * l,
            w_pullup: 1.5 * l,
            w_access: 1.5 * l,
            l,
        }
    }

    /// The cell ratio (beta ratio): pulldown strength over access
    /// strength. Read stability demands a ratio comfortably above 1.
    pub fn cell_ratio(&self) -> f64 {
        self.w_pulldown / self.w_access
    }
}

/// Level-1 NMOS drain current in the DC (vgs, vds) convention — the
/// shared device model of [`crate::device`], with channel-length
/// modulation off for the butterfly curves.
fn nmos_id(vgs: f64, vds: f64, beta: f64, vt: f64) -> f64 {
    level1_nmos_id_dc(vgs, vds, beta, vt)
}

/// One transistor as the DC butterfly analyses see it: its conductance
/// factor `beta = kp·W/L` and its effective threshold magnitude (process
/// threshold plus any local-mismatch offset). The variation engine
/// builds these per device; the nominal path derives them from
/// [`CellGeometry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosVar {
    /// `kp·W/L` (A/V²).
    pub beta: f64,
    /// Effective threshold magnitude (V).
    pub vt: f64,
}

/// One half-cell (inverter plus its access transistor) with per-device
/// parameters — the unit of asymmetry a mismatched 6T cell is built
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterVar {
    /// Pull-down NMOS.
    pub pd: MosVar,
    /// Pull-up PMOS.
    pub pu: MosVar,
    /// Access NMOS (loads the output during a read).
    pub ax: MosVar,
}

impl InverterVar {
    /// The nominal half-cell of a symmetric geometry — exactly the
    /// betas/thresholds the golden [`analyze`] path computes.
    pub fn nominal(dev: &DeviceParams, geom: &CellGeometry) -> Self {
        InverterVar {
            pd: MosVar {
                beta: dev.kp_n * geom.w_pulldown / geom.l,
                vt: dev.vtn,
            },
            pu: MosVar {
                beta: dev.kp_p * geom.w_pullup / geom.l,
                vt: dev.vtp,
            },
            ax: MosVar {
                beta: dev.kp_n * geom.w_access / geom.l,
                vt: dev.vtn,
            },
        }
    }
}

/// DC transfer curve of one cell inverter: storage node voltage as a
/// function of the opposite node's voltage. With `read_access` the
/// output node is also pulled toward `vdd` through the access device
/// (bitline precharged high), which degrades the low level.
fn inverter_vtc(dev: &DeviceParams, geom: &CellGeometry, vin: f64, read_access: bool) -> f64 {
    inverter_vtc_var(dev.vdd, &InverterVar::nominal(dev, geom), vin, read_access)
}

/// [`inverter_vtc`] generalized to per-device parameters — the shared
/// implementation both the nominal and the variation-aware analyses
/// funnel through, so the zero-variation case is bit-identical to the
/// golden path by construction.
fn inverter_vtc_var(vdd: f64, inv: &InverterVar, vin: f64, read_access: bool) -> f64 {
    // Solve i_pullup(vout) + i_access(vout) - i_pulldown(vout) = 0 by
    // bisection; the net current is monotone in vout.
    let net = |vout: f64| {
        let i_dn = nmos_id(vin, vout, inv.pd.beta, inv.pd.vt);
        // PMOS pull-up: source at vdd, gate at vin.
        let i_up = nmos_id(vdd - vin, vdd - vout, inv.pu.beta, inv.pu.vt);
        // Access device from the precharged bitline (gate at vdd).
        let i_acc = if read_access {
            nmos_id(vdd - vout, vdd - vout, inv.ax.beta, inv.ax.vt)
        } else {
            0.0
        };
        i_up + i_acc - i_dn
    };
    let (mut lo, mut hi) = (0.0, vdd);
    // net(0) >= 0 (nothing pulls below ground), net(vdd) <= 0 when the
    // pulldown is on; handle the cutoff case where the output rails.
    if net(vdd) > 0.0 {
        return vdd;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if net(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Test/debug access to the raw VTC (hidden from docs).
#[doc(hidden)]
pub fn debug_vtc(dev: &DeviceParams, geom: &CellGeometry, vin: f64, read_access: bool) -> f64 {
    inverter_vtc(dev, geom, vin, read_access)
}

/// A butterfly analysis result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseMargins {
    /// Hold (standby) static noise margin, volts.
    pub hold_snm: f64,
    /// Read static noise margin, volts.
    pub read_snm: f64,
}

/// Extracts hold and read SNM for a cell geometry.
pub fn analyze(dev: &DeviceParams, geom: &CellGeometry) -> NoiseMargins {
    NoiseMargins {
        hold_snm: lobe_snm(dev, geom, false),
        read_snm: lobe_snm(dev, geom, true),
    }
}

/// SNM of the butterfly formed by the VTC and its mirror: the largest
/// square inscribed in the upper-left lobe.
///
/// In the `(V1, V2)` plane the lobe's interior satisfies `V2 < f(V1)`
/// (below curve A) and `V1 > f(V2)` (right of curve B). With `f`
/// non-increasing, a square `[x0, x0+s] × [y0, y0+s]` fits exactly when
/// its lower-left corner touches curve B (`x0 = f(y0)`) and its
/// upper-right corner touches curve A (`y0 + s = f(x0 + s)`). The
/// residual `h(s) = f(x0 + s) − (y0 + s)` is positive at `s = 0` inside
/// the lobe (`f(f(y0)) > y0`) and strictly decreasing, so the
/// per-anchor side comes from a bisection; the SNM maximizes over the
/// `y0` anchors.
fn lobe_snm(dev: &DeviceParams, geom: &CellGeometry, read_access: bool) -> f64 {
    let vdd = dev.vdd;
    let f = |v: f64| inverter_vtc(dev, geom, v, read_access);
    lobe_var(vdd, &f, &f)
}

/// The inscribed-square search over one butterfly lobe, generalized to a
/// mismatched cell: curve A is `V2 = fa(V1)`, curve B is `V1 = fb(V2)`.
/// The square's lower-left corner rides curve B, its upper-right corner
/// curve A. The symmetric case passes the same curve twice and recovers
/// [`lobe_snm`] exactly.
fn lobe_var(vdd: f64, fa: &dyn Fn(f64) -> f64, fb: &dyn Fn(f64) -> f64) -> f64 {
    let n = 160;
    let mut snm: f64 = 0.0;
    for i in 0..=n {
        let y0 = vdd * i as f64 / n as f64;
        let x0 = fb(y0);
        let h = |s: f64| {
            if x0 + s > vdd || y0 + s > vdd {
                // The square would leave the supply window.
                return -1.0;
            }
            fa(x0 + s) - (y0 + s)
        };
        if h(0.0) <= 0.0 {
            continue; // outside the bistable lobe
        }
        let (mut lo, mut hi) = (0.0, vdd);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if h(mid) >= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        snm = snm.max(lo);
    }
    snm
}

/// Hold and read SNM of a mismatched cell given its two half-cells:
/// `inv[0]` drives node `q` from `qb`, `inv[1]` drives `qb` from `q`.
/// An asymmetric butterfly has two unequal lobes; the cell's margin is
/// the smaller one (the first noise polarity to flip the cell wins).
pub fn analyze_pair(vdd: f64, inv: &[InverterVar; 2]) -> NoiseMargins {
    let lobe_min = |read_access: bool| {
        let f0 = |v: f64| inverter_vtc_var(vdd, &inv[0], v, read_access);
        let f1 = |v: f64| inverter_vtc_var(vdd, &inv[1], v, read_access);
        lobe_var(vdd, &f0, &f1).min(lobe_var(vdd, &f1, &f0))
    };
    NoiseMargins {
        hold_snm: lobe_min(false),
        read_snm: lobe_min(true),
    }
}

/// Static write margin of a mismatched cell, volts: the smaller of the
/// two write directions. Positive means the write succeeds with room to
/// spare; at or below zero the access device cannot drag the '1' node
/// past the opposite inverter's trip point.
///
/// Per direction: the driven node stores '1' (so its pull-up fights with
/// the gate of the opposite node at 0) while the bitline is driven to
/// ground through the access device; `v_div` is the resulting divider
/// level, `v_trip` the opposite inverter's switching threshold
/// (`f(v) = v` crossing of its hold VTC), and the margin is
/// `v_trip − v_div`.
pub fn write_margin_pair(vdd: f64, inv: &[InverterVar; 2]) -> f64 {
    let side = |driven: &InverterVar, opposite: &InverterVar| {
        // Divider level of the driven '1' node: pull-up (gate at 0,
        // fully on) against the access device to the grounded bitline.
        let net_div = |v: f64| {
            let i_up = nmos_id(vdd, vdd - v, driven.pu.beta, driven.pu.vt);
            let i_ax = nmos_id(vdd, v, driven.ax.beta, driven.ax.vt);
            i_up - i_ax
        };
        let (mut lo, mut hi) = (0.0, vdd);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if net_div(mid) >= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let v_div = 0.5 * (lo + hi);
        // Trip point of the opposite inverter's hold VTC: the VTC is
        // non-increasing, so g(v) = f(v) − v is strictly decreasing.
        let g = |v: f64| inverter_vtc_var(vdd, opposite, v, false) - v;
        let (mut lo, mut hi) = (0.0, vdd);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if g(mid) >= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let v_trip = 0.5 * (lo + hi);
        v_trip - v_div
    };
    side(&inv[0], &inv[1]).min(side(&inv[1], &inv[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_tech::Process;

    fn dev() -> DeviceParams {
        Process::cda07().devices().clone()
    }

    #[test]
    fn vtc_is_a_proper_inverter() {
        let d = dev();
        let g = CellGeometry::standard(0.7e-6);
        let low_in = inverter_vtc(&d, &g, 0.0, false);
        let high_in = inverter_vtc(&d, &g, d.vdd, false);
        assert!(low_in > 0.95 * d.vdd, "output high: {low_in}");
        assert!(high_in < 0.05 * d.vdd, "output low: {high_in}");
        // Monotone non-increasing.
        let mut prev = f64::MAX;
        for i in 0..=20 {
            let v = inverter_vtc(&d, &g, d.vdd * i as f64 / 20.0, false);
            assert!(v <= prev + 1e-9);
            prev = v;
        }
    }

    #[test]
    fn read_degrades_the_low_level() {
        let d = dev();
        let g = CellGeometry::standard(0.7e-6);
        let hold_low = inverter_vtc(&d, &g, d.vdd, false);
        let read_low = inverter_vtc(&d, &g, d.vdd, true);
        assert!(
            read_low > hold_low + 0.05,
            "the access device must lift the low node: {read_low} vs {hold_low}"
        );
    }

    #[test]
    fn margins_are_plausible_for_a_5v_process() {
        let d = dev();
        let g = CellGeometry::standard(0.7e-6);
        let m = analyze(&d, &g);
        assert!(
            (0.3..2.5).contains(&m.hold_snm),
            "hold SNM {:.3} V implausible",
            m.hold_snm
        );
        assert!(
            m.read_snm > 0.1,
            "cell must be read-stable: {:.3}",
            m.read_snm
        );
        assert!(
            m.read_snm < m.hold_snm,
            "read SNM must be the smaller margin"
        );
    }

    #[test]
    fn stronger_pulldown_improves_read_stability() {
        let d = dev();
        let weak = CellGeometry {
            w_pulldown: 1.6e-6,
            ..CellGeometry::standard(0.7e-6)
        };
        let strong = CellGeometry {
            w_pulldown: 4.2e-6,
            ..CellGeometry::standard(0.7e-6)
        };
        let m_weak = analyze(&d, &weak);
        let m_strong = analyze(&d, &strong);
        assert!(
            m_strong.read_snm > m_weak.read_snm,
            "cell ratio must buy read margin: {:.3} vs {:.3}",
            m_strong.read_snm,
            m_weak.read_snm
        );
        assert!(strong.cell_ratio() > weak.cell_ratio());
    }

    /// The variation-aware pair analysis with two nominal half-cells
    /// must be bit-identical to the golden symmetric path — the pin the
    /// rare-event engine's zero-variation contract rests on.
    #[test]
    fn symmetric_pair_matches_golden_analyze_bitwise() {
        for p in Process::builtin() {
            let d = p.devices();
            let g = CellGeometry::standard(p.gate_length_m());
            let golden = analyze(d, &g);
            let inv = [InverterVar::nominal(d, &g); 2];
            let paired = analyze_pair(d.vdd, &inv);
            assert_eq!(
                golden.hold_snm.to_bits(),
                paired.hold_snm.to_bits(),
                "{}",
                p.name()
            );
            assert_eq!(
                golden.read_snm.to_bits(),
                paired.read_snm.to_bits(),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn standard_cell_is_writable_on_every_builtin_process() {
        for p in Process::builtin() {
            let d = p.devices();
            let g = CellGeometry::standard(p.gate_length_m());
            let inv = [InverterVar::nominal(d, &g); 2];
            let wm = write_margin_pair(d.vdd, &inv);
            assert!(
                wm > 0.1 * d.vdd,
                "{}: write margin {wm:.3} V too small for a standard cell",
                p.name()
            );
        }
    }

    #[test]
    fn weaker_access_device_costs_write_margin() {
        let d = dev();
        let g = CellGeometry::standard(0.7e-6);
        let nominal = InverterVar::nominal(&d, &g);
        let mut weak_ax = nominal;
        weak_ax.ax.beta *= 0.5;
        weak_ax.ax.vt += 0.2;
        let wm_nom = write_margin_pair(d.vdd, &[nominal; 2]);
        let wm_weak = write_margin_pair(d.vdd, &[weak_ax; 2]);
        assert!(
            wm_weak < wm_nom,
            "a weak access transistor must hurt writability: {wm_weak:.3} vs {wm_nom:.3}"
        );
    }

    /// A one-sided threshold shift breaks the butterfly's symmetry: the
    /// two lobes differ and the reported margin is the smaller one, so
    /// it can only degrade relative to nominal.
    #[test]
    fn asymmetry_shrinks_the_reported_margin() {
        let d = dev();
        let g = CellGeometry::standard(0.7e-6);
        let nominal = InverterVar::nominal(&d, &g);
        let mut skewed = nominal;
        skewed.pd.vt += 0.25;
        let m_nom = analyze_pair(d.vdd, &[nominal; 2]);
        let m_skew = analyze_pair(d.vdd, &[skewed, nominal]);
        assert!(
            m_skew.read_snm < m_nom.read_snm,
            "mismatch must shrink read SNM: {:.3} vs {:.3}",
            m_skew.read_snm,
            m_nom.read_snm
        );
    }

    #[test]
    fn every_builtin_process_yields_a_stable_standard_cell() {
        for p in Process::builtin() {
            let g = CellGeometry::standard(p.gate_length_m());
            let m = analyze(p.devices(), &g);
            assert!(
                m.read_snm > 0.05,
                "{}: read SNM {:.3} V — cell not usable",
                p.name(),
                m.read_snm
            );
        }
    }
}
