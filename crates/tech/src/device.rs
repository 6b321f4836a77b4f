//! Electrical device parameters feeding the circuit models.

/// First-order (SPICE level-1 style) electrical parameters of a process.
///
/// These drive the circuit crate's delay estimation, the automatic P/N
/// sizing that balances rise and fall times (paper §II), and the
/// transient simulator used for the sense-amplifier and TLB experiments.
///
/// All values are in SI units.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceParams {
    /// Supply voltage (V).
    pub vdd: f64,
    /// NMOS threshold voltage (V).
    pub vtn: f64,
    /// PMOS threshold voltage magnitude (V).
    pub vtp: f64,
    /// NMOS transconductance parameter kp_n = µ_n·Cox (A/V²).
    pub kp_n: f64,
    /// PMOS transconductance parameter kp_p = µ_p·Cox (A/V²).
    pub kp_p: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// Junction (drain/source) capacitance per area (F/m²).
    pub cj: f64,
    /// Sidewall junction capacitance per perimeter (F/m).
    pub cjsw: f64,
    /// Metal wiring capacitance per length, including fringing (F/m).
    pub cw_metal: f64,
    /// Poly wiring capacitance per length (F/m).
    pub cw_poly: f64,
    /// Metal sheet resistance (Ω/sq).
    pub rsh_metal: f64,
    /// Poly sheet resistance (Ω/sq).
    pub rsh_poly: f64,
    /// Diffusion sheet resistance (Ω/sq).
    pub rsh_diff: f64,
    /// Channel-length modulation parameter λ (1/V), shared by both types.
    pub channel_lambda: f64,
}

impl DeviceParams {
    /// Mobility ratio µ_n/µ_p = kp_n/kp_p. Classic CMOS processes sit
    /// between 2 and 3; the automatic sizing widens PMOS devices by this
    /// factor to balance rise and fall times.
    ///
    /// ```
    /// use bisram_tech::Process;
    /// let beta = Process::cda07().devices().mobility_ratio();
    /// assert!(beta > 1.5 && beta < 3.5);
    /// ```
    pub fn mobility_ratio(&self) -> f64 {
        self.kp_n / self.kp_p
    }

    /// The raw bit patterns of every field, in declaration order — an
    /// exact identity for caches and fingerprints (`f64` has no `Eq` or
    /// `Hash`, and two parameter sets agree exactly when these do).
    pub fn field_bits(&self) -> [u64; 14] {
        let DeviceParams {
            vdd,
            vtn,
            vtp,
            kp_n,
            kp_p,
            cox,
            cj,
            cjsw,
            cw_metal,
            cw_poly,
            rsh_metal,
            rsh_poly,
            rsh_diff,
            channel_lambda,
        } = *self;
        [
            vdd,
            vtn,
            vtp,
            kp_n,
            kp_p,
            cox,
            cj,
            cjsw,
            cw_metal,
            cw_poly,
            rsh_metal,
            rsh_poly,
            rsh_diff,
            channel_lambda,
        ]
        .map(f64::to_bits)
    }

    /// Effective switching resistance of an NMOS of width `w` and length
    /// `l` (metres): the average resistance over the output transition,
    /// using the standard RC-model fit `R ≈ (3/4)·Vdd / Id_sat`.
    pub fn r_eff_n(&self, w: f64, l: f64) -> f64 {
        let idsat = 0.5 * self.kp_n * (w / l) * (self.vdd - self.vtn).powi(2);
        0.75 * self.vdd / idsat
    }

    /// Effective switching resistance of a PMOS of width `w` and length
    /// `l` (metres).
    pub fn r_eff_p(&self, w: f64, l: f64) -> f64 {
        let idsat = 0.5 * self.kp_p * (w / l) * (self.vdd - self.vtp).powi(2);
        0.75 * self.vdd / idsat
    }

    /// Gate capacitance of a device of width `w` and length `l` (metres).
    pub fn c_gate(&self, w: f64, l: f64) -> f64 {
        self.cox * w * l
    }

    /// Drain junction capacitance of a device of width `w` with a
    /// source/drain extension `ext` (metres).
    pub fn c_drain(&self, w: f64, ext: f64) -> f64 {
        self.cj * w * ext + self.cjsw * 2.0 * (w + ext)
    }

    /// Saturation drain current of an NMOS at Vgs = Vdd.
    pub fn idsat_n(&self, w: f64, l: f64) -> f64 {
        0.5 * self.kp_n * (w / l) * (self.vdd - self.vtn).powi(2)
    }

    /// Saturation drain current of a PMOS at |Vgs| = Vdd.
    pub fn idsat_p(&self, w: f64, l: f64) -> f64 {
        0.5 * self.kp_p * (w / l) * (self.vdd - self.vtp).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeviceParams {
        DeviceParams {
            vdd: 3.3,
            vtn: 0.7,
            vtp: 0.9,
            kp_n: 120e-6,
            kp_p: 45e-6,
            cox: 2.4e-3,
            cj: 4.0e-4,
            cjsw: 3.0e-10,
            cw_metal: 2.0e-10,
            cw_poly: 2.5e-10,
            rsh_metal: 0.07,
            rsh_poly: 25.0,
            rsh_diff: 60.0,
            channel_lambda: 0.05,
        }
    }

    #[test]
    fn mobility_ratio_matches_kp_ratio() {
        let d = sample();
        assert!((d.mobility_ratio() - 120.0 / 45.0).abs() < 1e-12);
    }

    #[test]
    fn resistance_scales_inversely_with_width() {
        let d = sample();
        let r1 = d.r_eff_n(1e-6, 0.7e-6);
        let r2 = d.r_eff_n(2e-6, 0.7e-6);
        assert!((r1 / r2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_strength_devices_have_equal_resistance_when_scaled_by_mobility() {
        let d = sample();
        // With equal (Vdd - Vt) the P device scaled by mobility ratio and
        // threshold correction matches the N resistance.
        let wn = 1e-6;
        let l = 0.7e-6;
        let scale = d.mobility_ratio() * (d.vdd - d.vtn).powi(2) / (d.vdd - d.vtp).powi(2);
        let wp = wn * scale;
        let rn = d.r_eff_n(wn, l);
        let rp = d.r_eff_p(wp, l);
        assert!((rn / rp - 1.0).abs() < 1e-9, "rn={rn} rp={rp}");
    }

    #[test]
    fn capacitances_positive_and_additive() {
        let d = sample();
        let c = d.c_gate(1e-6, 0.7e-6);
        assert!(c > 0.0);
        assert!(d.c_drain(1e-6, 1.0e-6) > 0.0);
        // Gate capacitance is linear in width.
        assert!((d.c_gate(2e-6, 0.7e-6) / c - 2.0).abs() < 1e-12);
    }
}
