//! Automatic transistor sizing.
//!
//! Paper §II: "for a given gate size, the n and p transistors are
//! automatically sized to balance the rise and fall times. This is made
//! possible by built-in access to SPICE utilities." We reproduce both the
//! analytic balancing (from the level-1 model) and a simulation-based
//! refinement loop that measures the actual rise/fall delays with the
//! transient simulator and drives the mismatch to zero with a
//! secant/bisection hybrid on the PMOS width.

use crate::netlist::{MosType, Netlist, NodeId};
use crate::tran::{AdaptiveOptions, SimError, TransientSim};
use bisram_tech::DeviceParams;

/// Simulated time span of one edge measurement (covers both edges).
const T_STOP: f64 = 12.0e-9;
/// Fixed step of the golden-reference measurement.
const DT_REF: f64 = 5.0e-12;
/// Relative rise/fall mismatch below which the sizing loop stops.
const MISMATCH_TOL: f64 = 0.02;
/// Sizing-loop iteration cap.
const MAX_SIZING_ITERS: usize = 24;

/// Errors from the simulation-based sizing loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SizingError {
    /// The underlying transient simulation failed.
    Sim(SimError),
    /// A measurement waveform never produced the expected crossing.
    MissingEdge {
        /// Which edge was missing (e.g. `"output rise"`).
        edge: &'static str,
    },
    /// The width iteration hit its cap before balancing the edges.
    MaxIterations {
        /// Iterations performed.
        iterations: usize,
        /// Relative mismatch at the final iterate.
        mismatch: f64,
    },
}

impl std::fmt::Display for SizingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SizingError::Sim(e) => write!(f, "sizing simulation failed: {e}"),
            SizingError::MissingEdge { edge } => {
                write!(f, "sizing measurement saw no {edge} edge")
            }
            SizingError::MaxIterations {
                iterations,
                mismatch,
            } => write!(
                f,
                "sizing did not balance after {iterations} iterations \
                 (mismatch {:.1}%)",
                mismatch * 100.0
            ),
        }
    }
}

impl std::error::Error for SizingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SizingError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for SizingError {
    fn from(e: SimError) -> Self {
        SizingError::Sim(e)
    }
}

/// PMOS width that balances an inverter's rise time against the fall time
/// of an NMOS of width `wn`, from the level-1 saturation currents:
/// `wp = wn · (kp_n/kp_p) · (Vdd−Vtn)²/(Vdd−Vtp)²`.
pub fn balanced_pmos_width(dev: &DeviceParams, wn: f64) -> f64 {
    wn * dev.mobility_ratio() * (dev.vdd - dev.vtn).powi(2) / (dev.vdd - dev.vtp).powi(2)
}

/// Scales a gate's nominal transistor width by the user-requested
/// critical-gate size factor (the paper's "size of critical gates in the
/// RAM circuitry" parameter). Factor 1 is minimum size; precharge
/// transistors and word-line drivers typically use 2–4.
pub fn critical_gate_width(min_width: f64, size_factor: f64) -> f64 {
    assert!(size_factor >= 1.0, "critical gates are never sub-minimum");
    min_width * size_factor
}

/// Result of the simulation-based balancing loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceResult {
    /// NMOS width (m), as given.
    pub wn: f64,
    /// PMOS width (m) found by the loop.
    pub wp: f64,
    /// Measured output fall delay (s) at the final sizing.
    pub t_fall: f64,
    /// Measured output rise delay (s) at the final sizing.
    pub t_rise: f64,
    /// Iterations used.
    pub iterations: usize,
}

impl BalanceResult {
    /// Rise/fall mismatch as a fraction of the slower edge.
    pub fn mismatch(&self) -> f64 {
        (self.t_rise - self.t_fall).abs() / self.t_rise.max(self.t_fall)
    }
}

/// Balances an inverter by *simulation*: builds an inverter driving a
/// load, applies a step to the input, measures the 50% crossings of the
/// rising and falling output edges, and solves the signed mismatch
/// `g(wp) = t_rise − t_fall` for its root.
///
/// The iteration is a secant/bisection hybrid: each measurement updates
/// the bracket `[lo, hi]` from the sign of `g`, the next width comes
/// from the secant through the last two measurements, and whenever that
/// estimate leaves the bracket (or the secant is degenerate) the step
/// falls back to bisecting. Superlinear near the root, bisection-robust
/// far from it.
///
/// This is the reproduction of the tool's SPICE-in-the-loop sizing.
///
/// # Errors
///
/// * [`SizingError::Sim`] / [`SizingError::MissingEdge`] when a
///   measurement fails (does not happen for physical parameter ranges).
/// * [`SizingError::MaxIterations`] if the loop cap is hit before the
///   mismatch drops under 2%.
pub fn balance_inverter_by_simulation(
    dev: &DeviceParams,
    gate_length: f64,
    wn: f64,
    load_cap: f64,
) -> Result<BalanceResult, SizingError> {
    let measure = |wp: f64| measure_inverter_edges(dev, gate_length, wn, wp, load_cap);

    // Wider PMOS → faster rise, so g(wp) = t_rise − t_fall decreases in
    // wp; the root is bracketed by wn/2 (far too weak) and 8·wn.
    let mut lo = 0.5 * wn;
    let mut hi = 8.0 * wn;
    let mut wp = balanced_pmos_width(dev, wn).clamp(lo, hi);
    let (mut t_fall, mut t_rise) = measure(wp)?;
    let mut prev: Option<(f64, f64)> = None;
    let mut iterations = 0;
    loop {
        let g = t_rise - t_fall;
        let mismatch = g.abs() / t_rise.max(t_fall);
        if mismatch < MISMATCH_TOL {
            return Ok(BalanceResult {
                wn,
                wp,
                t_fall,
                t_rise,
                iterations,
            });
        }
        if iterations >= MAX_SIZING_ITERS {
            return Err(SizingError::MaxIterations {
                iterations,
                mismatch,
            });
        }
        iterations += 1;
        if g > 0.0 {
            lo = wp; // rise too slow: widen the PMOS
        } else {
            hi = wp;
        }
        let next = match prev {
            Some((wp_prev, g_prev)) if (g - g_prev).abs() > 1e-30 => {
                let secant = wp - g * (wp - wp_prev) / (g - g_prev);
                if secant.is_finite() && secant > lo && secant < hi {
                    secant
                } else {
                    0.5 * (lo + hi)
                }
            }
            _ => 0.5 * (lo + hi),
        };
        prev = Some((wp, g));
        wp = next;
        let m = measure(wp)?;
        t_fall = m.0;
        t_rise = m.1;
    }
}

/// Builds and simulates one inverter driving `load_cap` with the
/// adaptive solver, returning the 50%-to-50% `(fall, rise)` propagation
/// delays. This is the production measurement the sizing loop calls.
///
/// # Errors
///
/// [`SizingError::Sim`] on solver failure, [`SizingError::MissingEdge`]
/// when a crossing is absent.
pub fn measure_inverter_edges(
    dev: &DeviceParams,
    gate_length: f64,
    wn: f64,
    wp: f64,
    load_cap: f64,
) -> Result<(f64, f64), SizingError> {
    let (nl, a, y) = inverter_testbench(dev, gate_length, wn, wp, load_cap);
    let sim = TransientSim::new(&nl, dev)?;
    let result = sim.run_adaptive(T_STOP, &AdaptiveOptions::for_span(T_STOP))?;
    extract_edges(dev, &result, a, y)
}

/// [`measure_inverter_edges`] on the fixed-step golden reference path
/// (5 ps steps) — kept for equivalence testing and benchmarking.
///
/// # Errors
///
/// As for [`measure_inverter_edges`].
pub fn measure_inverter_edges_fixed(
    dev: &DeviceParams,
    gate_length: f64,
    wn: f64,
    wp: f64,
    load_cap: f64,
) -> Result<(f64, f64), SizingError> {
    let (nl, a, y) = inverter_testbench(dev, gate_length, wn, wp, load_cap);
    let sim = TransientSim::new(&nl, dev)?;
    let result = sim.run(T_STOP, DT_REF)?;
    extract_edges(dev, &result, a, y)
}

/// The shared measurement fixture: an inverter driving `load_cap`, input
/// rising at 1 ns and falling at 6 ns with 50 ps edges.
fn inverter_testbench(
    dev: &DeviceParams,
    gate_length: f64,
    wn: f64,
    wp: f64,
    load_cap: f64,
) -> (Netlist, NodeId, NodeId) {
    let mut nl = Netlist::new("inv_meas");
    let vdd = nl.node("vdd");
    let a = nl.node("a");
    let y = nl.node("y");
    let gnd = Netlist::ground();
    nl.vdc(vdd, gnd, dev.vdd);
    nl.vpwl(
        a,
        gnd,
        vec![
            (0.0, 0.0),
            (1.0e-9, 0.0),
            (1.05e-9, dev.vdd),
            (6.0e-9, dev.vdd),
            (6.05e-9, 0.0),
        ],
    );
    nl.mos(MosType::Pmos, y, a, vdd, wp, gate_length);
    nl.mos(MosType::Nmos, y, a, gnd, wn, gate_length);
    nl.capacitor(y, gnd, load_cap);
    (nl, a, y)
}

/// Extracts the `(fall, rise)` 50%-to-50% delays from a testbench run.
fn extract_edges(
    dev: &DeviceParams,
    result: &crate::tran::TranResult,
    a: NodeId,
    y: NodeId,
) -> Result<(f64, f64), SizingError> {
    let half = dev.vdd / 2.0;
    let in_rise = result
        .crossing_time(a, half, true, 0.0)
        .ok_or(SizingError::MissingEdge { edge: "input rise" })?;
    let out_fall =
        result
            .crossing_time(y, half, false, in_rise)
            .ok_or(SizingError::MissingEdge {
                edge: "output fall",
            })?;
    let in_fall = result
        .crossing_time(a, half, false, 5.0e-9)
        .ok_or(SizingError::MissingEdge { edge: "input fall" })?;
    let out_rise =
        result
            .crossing_time(y, half, true, in_fall)
            .ok_or(SizingError::MissingEdge {
                edge: "output rise",
            })?;
    Ok((out_fall - in_rise, out_rise - in_fall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_tech::Process;

    #[test]
    fn analytic_balance_scales_with_mobility() {
        let p = Process::cda07();
        let d = p.devices();
        let wp = balanced_pmos_width(d, 1e-6);
        // kp_n/kp_p ~ 2.86 for cda07, threshold correction pushes higher.
        assert!(wp > 2.5e-6 && wp < 4.5e-6, "wp = {wp:e}");
    }

    #[test]
    fn critical_gate_width_scales() {
        assert_eq!(critical_gate_width(1e-6, 2.0), 2e-6);
    }

    #[test]
    #[should_panic(expected = "never sub-minimum")]
    fn sub_minimum_factor_rejected() {
        critical_gate_width(1e-6, 0.5);
    }

    #[test]
    fn simulation_balancing_converges_near_analytic() {
        let p = Process::cda07();
        let d = p.devices();
        let wn = 1.4e-6;
        let r = balance_inverter_by_simulation(d, p.gate_length_m(), wn, 50e-15)
            .expect("balancing converges");
        assert!(r.mismatch() < 0.05, "mismatch {}", r.mismatch());
        let analytic = balanced_pmos_width(d, wn);
        // Simulation agrees with the analytic estimate within 40% (the
        // triode region and input slope shift the optimum slightly).
        assert!(
            (r.wp / analytic - 1.0).abs() < 0.4,
            "sim wp={:.3e} analytic={:.3e}",
            r.wp,
            analytic
        );
        // The secant steps buy superlinear convergence: the old pure
        // bisection needed up to 24 halvings, the hybrid stays well
        // under ten measurements.
        assert!(r.iterations <= 10, "took {} iterations", r.iterations);
    }

    #[test]
    fn unbalanced_inverter_has_larger_mismatch_than_balanced() {
        let p = Process::cda05();
        let d = p.devices();
        let wn = 1e-6;
        let balanced = balance_inverter_by_simulation(d, p.gate_length_m(), wn, 30e-15).unwrap();
        let (tf, tr) = measure_inverter_edges(d, p.gate_length_m(), wn, wn, 30e-15).unwrap();
        let equal_width_mismatch = (tr - tf).abs() / tr.max(tf);
        assert!(balanced.mismatch() < equal_width_mismatch);
        // Equal widths make the rise edge visibly slower.
        assert!(tr > tf);
    }

    #[test]
    fn adaptive_and_fixed_measurements_agree() {
        let p = Process::mosis06();
        let d = p.devices();
        let (wn, wp) = (1e-6, 2.8e-6);
        let (tf_a, tr_a) = measure_inverter_edges(d, p.gate_length_m(), wn, wp, 40e-15).unwrap();
        let (tf_f, tr_f) =
            measure_inverter_edges_fixed(d, p.gate_length_m(), wn, wp, 40e-15).unwrap();
        // The 5 ps backward-Euler reference carries a couple of percent
        // of its own discretization error on these ~100 ps delays, so
        // the drivers agree to 3% on deltas (absolute crossing times
        // agree far tighter — see tests/adaptive_equivalence.rs).
        assert!(
            (tf_a - tf_f).abs() / tf_f < 0.03,
            "fall {tf_a:e} vs {tf_f:e}"
        );
        assert!(
            (tr_a - tr_f).abs() / tr_f < 0.03,
            "rise {tr_a:e} vs {tr_f:e}"
        );
    }

    #[test]
    fn sizing_errors_display_and_convert() {
        let e: SizingError = SimError::NoConvergence { time: 1e-9 }.into();
        assert!(e.to_string().contains("sizing simulation failed"));
        assert!(std::error::Error::source(&e).is_some());
        let e = SizingError::MissingEdge {
            edge: "output rise",
        };
        assert!(e.to_string().contains("output rise"));
        let e = SizingError::MaxIterations {
            iterations: 24,
            mismatch: 0.1,
        };
        assert!(e.to_string().contains("24 iterations"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
