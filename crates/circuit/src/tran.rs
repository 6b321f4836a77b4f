//! A small modified-nodal-analysis transient simulator.
//!
//! Backward-Euler integration with Newton–Raphson iteration and level-1
//! MOS models — enough to reproduce the paper's circuit experiments: the
//! current-mode sense amplifier of Fig. 3 and the simulation-in-the-loop
//! transistor sizing of §II. Circuits are small (tens of nodes), so a
//! dense LU solve per Newton step is more robust than anything sparse.
//!
//! Two integration drivers share the same device models and the same
//! discrete (backward-Euler) circuit equations:
//!
//! * [`TransientSim::run`] — the original fixed-step driver, kept as the
//!   golden reference path: full Jacobian assembly and a fresh dense
//!   solve on every Newton iteration of every step.
//! * [`TransientSim::run_adaptive`] — the production driver: adaptive
//!   timestepping with local-truncation-error control (step halving and
//!   doubling between user-set `dt_min`/`dt_max`), pre-assembled static
//!   stamps so per-step assembly only re-stamps MOS devices and
//!   companion conductances, and modified-Newton iteration that reuses
//!   the LU factorization until convergence stalls. Source-waveform
//!   breakpoints are never stepped over, so sharp input edges stay
//!   resolved. Both drivers converge each accepted timepoint to the
//!   same `VNTOL`, which is why their waveforms agree to within the
//!   truncation tolerance (see `tests/adaptive_equivalence.rs`).

use crate::device;
use crate::netlist::{DeviceKind, MosType, Netlist, NodeId};
use bisram_tech::DeviceParams;

/// Minimum conductance from every node to ground, for convergence.
const GMIN: f64 = 1e-12;
/// Newton convergence tolerance on node voltages (V).
const VNTOL: f64 = 1e-6;
/// Maximum Newton iterations per timepoint.
const MAX_NEWTON: usize = 200;
/// Per-iteration voltage step limit (V), a simple damping scheme.
const VSTEP_LIMIT: f64 = 0.6;
/// Modified Newton: a step must shrink `max_dv` by at least this factor
/// over the previous iteration, or the stale Jacobian is declared
/// stalled and refactored.
const STALL_CONTRACTION: f64 = 0.5;

/// Errors from the transient simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The MNA matrix became singular (typically a floating node).
    SingularMatrix {
        /// Simulation time at which the solve failed.
        time: f64,
    },
    /// Newton iteration failed to converge at a timepoint.
    NoConvergence {
        /// Simulation time of the failed timepoint.
        time: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::SingularMatrix { time } => {
                write!(
                    f,
                    "singular MNA matrix at t = {time:.3e} s (floating node?)"
                )
            }
            SimError::NoConvergence { time } => {
                write!(f, "newton iteration did not converge at t = {time:.3e} s")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Step-size policy of the adaptive driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Smallest allowed timestep (s). Steps at the floor are accepted
    /// unconditionally, so the floor bounds total work.
    pub dt_min: f64,
    /// Largest allowed timestep (s).
    pub dt_max: f64,
    /// Local-truncation-error acceptance threshold (V): a step whose
    /// predictor mismatch on any node exceeds this is rejected and
    /// retried at half the step; a step under a quarter of it doubles
    /// the next step.
    pub lte_tol: f64,
}

impl AdaptiveOptions {
    /// Sensible defaults for a simulation of length `t_stop`: the floor
    /// resolves 1/50 000 of the span (fine enough for 50 ps input edges
    /// on nanosecond experiments), the ceiling crosses quiet stretches
    /// in 1/64-span strides, and the 1 mV tolerance keeps interpolated
    /// crossing times within 1% of the fixed-step reference.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` is not positive.
    pub fn for_span(t_stop: f64) -> Self {
        assert!(t_stop > 0.0, "time span must be positive");
        AdaptiveOptions {
            dt_min: t_stop / 50_000.0,
            dt_max: t_stop / 64.0,
            lte_tol: 1e-3,
        }
    }
}

/// Work counters of one adaptive run — the observability half of the
/// solver overhaul (asserted by the equivalence tests, printed by the
/// `tran_solver` bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Timepoints accepted into the result.
    pub steps_accepted: usize,
    /// Step attempts rejected by the LTE controller (or by a Newton
    /// failure that triggered a retry at a smaller step).
    pub steps_rejected: usize,
    /// Total Newton iterations across all attempts.
    pub newton_iterations: usize,
    /// Jacobian assemblies + LU factorizations performed.
    pub lu_factorizations: usize,
    /// Newton iterations served by a reused (stale) LU factorization.
    pub lu_reuses: usize,
}

/// A prepared transient simulation of one netlist.
#[derive(Debug, Clone)]
pub struct TransientSim<'a> {
    netlist: &'a Netlist,
    dev: &'a DeviceParams,
    /// Number of node-voltage unknowns (nodes minus ground).
    n_nodes: usize,
    /// Number of voltage-source current unknowns.
    n_vsrc: usize,
}

/// The waveforms produced by a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TranResult {
    times: Vec<f64>,
    /// `volts[sample][node_index]`, ground included at index 0.
    volts: Vec<Vec<f64>>,
}

impl TranResult {
    /// The sampled timepoints.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage of `node` at sample `i`.
    pub fn voltage(&self, node: NodeId, i: usize) -> f64 {
        self.volts[i][node.index()]
    }

    /// Voltage of `node` at the final timepoint.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        self.volts.last().map(|v| v[node.index()]).unwrap_or(0.0)
    }

    /// Linearly interpolated voltage of `node` at time `t`.
    pub fn voltage_at(&self, node: NodeId, t: f64) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        if t <= self.times[0] {
            return self.voltage(node, 0);
        }
        for i in 1..self.times.len() {
            if t <= self.times[i] {
                let (t0, t1) = (self.times[i - 1], self.times[i]);
                let (v0, v1) = (self.voltage(node, i - 1), self.voltage(node, i));
                if t1 == t0 {
                    return v1;
                }
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
            }
        }
        self.final_voltage(node)
    }

    /// First time after `after` at which `node` crosses `level` in the
    /// given direction (`rising = true` for an upward crossing), found by
    /// linear interpolation between samples. `None` when no crossing
    /// occurs.
    pub fn crossing_time(&self, node: NodeId, level: f64, rising: bool, after: f64) -> Option<f64> {
        for i in 1..self.times.len() {
            if self.times[i] <= after {
                continue;
            }
            let v0 = self.voltage(node, i - 1);
            let v1 = self.voltage(node, i);
            let crossed = if rising {
                v0 < level && v1 >= level
            } else {
                v0 > level && v1 <= level
            };
            if crossed {
                let (t0, t1) = (self.times[i - 1], self.times[i]);
                let frac = if (v1 - v0).abs() < 1e-30 {
                    1.0
                } else {
                    (level - v0) / (v1 - v0)
                };
                let t = t0 + frac * (t1 - t0);
                if t > after {
                    return Some(t);
                }
            }
        }
        None
    }
}

/// Pre-resolved node indices of one capacitor (reduced-system column, or
/// `None` for ground) plus the raw node ids for history lookups.
#[derive(Debug, Clone, Copy)]
struct CapStamp {
    pi: Option<usize>,
    qi: Option<usize>,
    p: usize,
    q: usize,
    farads: f64,
}

/// Pre-resolved MOS device: raw terminal ids for voltage lookups plus
/// reduced-system rows for stamping.
#[derive(Debug, Clone, Copy)]
struct MosStamp {
    mos_type: MosType,
    d: usize,
    g: usize,
    s: usize,
    di: Option<usize>,
    si: Option<usize>,
    gi: Option<usize>,
    w: f64,
    l: f64,
    dvt: f64,
}

/// Pre-resolved independent source.
#[derive(Debug, Clone)]
struct SrcStamp<'a> {
    pi: Option<usize>,
    qi: Option<usize>,
    waveform: &'a [(f64, f64)],
}

/// Pre-resolved voltage source: its MNA branch row (the ±1 incidence
/// stamps already live in the static matrix).
#[derive(Debug, Clone)]
struct VsrcStamp<'a> {
    row: usize,
    waveform: &'a [(f64, f64)],
}

/// Everything the adaptive driver pre-assembles once per simulation: the
/// static linear stamps (resistors, GMIN, voltage-source incidence) as a
/// dense matrix, index-resolved device lists for the dynamic re-stamps,
/// and the sorted source-waveform breakpoints the step controller must
/// not step across.
#[derive(Debug, Clone)]
struct Stamps<'a> {
    /// Full system dimension (`n_nodes + n_vsrc`).
    n: usize,
    /// Static part of the MNA matrix, flat row-major `n × n`.
    base: Vec<f64>,
    caps: Vec<CapStamp>,
    mos: Vec<MosStamp>,
    isrcs: Vec<SrcStamp<'a>>,
    vsrcs: Vec<VsrcStamp<'a>>,
    /// Sorted, deduplicated waveform corner times inside `(0, ∞)`.
    breakpoints: Vec<f64>,
}

impl<'a> TransientSim<'a> {
    /// Prepares a simulation.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the `Result` reserves room for
    /// topology validation errors.
    pub fn new(netlist: &'a Netlist, dev: &'a DeviceParams) -> Result<Self, SimError> {
        let n_vsrc = netlist
            .devices()
            .iter()
            .filter(|d| matches!(d, DeviceKind::Vsource { .. }))
            .count();
        Ok(TransientSim {
            netlist,
            dev,
            n_nodes: netlist.node_count() - 1,
            n_vsrc,
        })
    }

    /// Runs the transient analysis from 0 to `t_stop` with fixed step
    /// `dt`, starting from all node voltages at zero.
    ///
    /// This is the golden reference path: full Jacobian assembly and a
    /// fresh dense solve every Newton iteration. Use
    /// [`run_adaptive`](Self::run_adaptive) for production workloads.
    ///
    /// # Errors
    ///
    /// * [`SimError::SingularMatrix`] on floating-node topologies.
    /// * [`SimError::NoConvergence`] if Newton fails.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` or `dt` is not positive.
    pub fn run(&self, t_stop: f64, dt: f64) -> Result<TranResult, SimError> {
        assert!(t_stop > 0.0 && dt > 0.0, "time parameters must be positive");
        let n = self.n_nodes + self.n_vsrc;
        // Node voltages from the previous accepted timepoint (index 0 is
        // ground and stays 0).
        let mut v_prev = vec![0.0; self.n_nodes + 1];
        let mut times = Vec::new();
        let mut volts = Vec::new();

        // Solve the t = 0 point first (caps behave as open history from
        // zero), then march.
        let steps = (t_stop / dt).ceil() as usize;
        for step in 0..=steps {
            let t = (step as f64 * dt).min(t_stop);
            let mut x: Vec<f64> = v_prev.clone();
            let mut iv = vec![0.0; self.n_vsrc];
            let mut converged = false;
            for _ in 0..MAX_NEWTON {
                let (a, mut rhs) = self.assemble(t, dt, &x, &v_prev);
                let sol = solve_dense(a, &mut rhs).ok_or(SimError::SingularMatrix { time: t })?;
                let mut max_dv: f64 = 0.0;
                for k in 0..self.n_nodes {
                    let newv = sol[k];
                    let dv = (newv - x[k + 1]).clamp(-VSTEP_LIMIT, VSTEP_LIMIT);
                    max_dv = max_dv.max((newv - x[k + 1]).abs());
                    x[k + 1] += dv;
                }
                iv.copy_from_slice(&sol[self.n_nodes..n]);
                if max_dv < VNTOL {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SimError::NoConvergence { time: t });
            }
            times.push(t);
            volts.push(x.clone());
            v_prev = x;
        }
        Ok(TranResult { times, volts })
    }

    /// Runs the transient analysis from 0 to `t_stop` with adaptive
    /// timestepping (see [`AdaptiveOptions`]), discarding the work
    /// counters.
    ///
    /// # Errors
    ///
    /// * [`SimError::SingularMatrix`] on floating-node topologies.
    /// * [`SimError::NoConvergence`] if Newton fails even at `dt_min`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt_min <= dt_max` and `lte_tol > 0`.
    pub fn run_adaptive(
        &self,
        t_stop: f64,
        opts: &AdaptiveOptions,
    ) -> Result<TranResult, SimError> {
        self.run_adaptive_with_stats(t_stop, opts).map(|(r, _)| r)
    }

    /// [`run_adaptive`](Self::run_adaptive), also returning the solver's
    /// work counters.
    ///
    /// # Errors
    ///
    /// As for [`run_adaptive`](Self::run_adaptive).
    ///
    /// # Panics
    ///
    /// As for [`run_adaptive`](Self::run_adaptive).
    pub fn run_adaptive_with_stats(
        &self,
        t_stop: f64,
        opts: &AdaptiveOptions,
    ) -> Result<(TranResult, SolverStats), SimError> {
        assert!(t_stop > 0.0, "time parameters must be positive");
        assert!(
            opts.dt_min > 0.0 && opts.dt_min <= opts.dt_max,
            "need 0 < dt_min <= dt_max"
        );
        assert!(opts.lte_tol > 0.0, "lte_tol must be positive");

        let st = self.stamps();
        let mut stats = SolverStats::default();
        let mut lu = LuState::new(st.n);
        let mut times: Vec<f64> = Vec::new();
        let mut volts: Vec<Vec<f64>> = Vec::new();

        // t = 0 operating point, with the same from-zero companion
        // history the fixed-step driver uses for its first point.
        let mut v_prev = vec![0.0; self.n_nodes + 1];
        let mut iv_prev = vec![0.0; self.n_vsrc];
        let (x0, iv0) = self.newton_solve(
            &st,
            &mut lu,
            0.0,
            opts.dt_min,
            &v_prev,
            &iv_prev,
            &mut stats,
        )?;
        times.push(0.0);
        volts.push(x0.clone());
        stats.steps_accepted += 1;
        v_prev = x0;
        iv_prev = iv0;

        // Previous *accepted* point behind `v_prev`, for the predictor.
        let mut back: Option<(f64, Vec<f64>)> = None;
        let mut t = 0.0;
        let mut dt = opts.dt_min;
        // Index of the first breakpoint not yet passed.
        let mut bp_idx = 0usize;

        while t < t_stop * (1.0 - 1e-12) {
            while bp_idx < st.breakpoints.len() && st.breakpoints[bp_idx] <= t + opts.dt_min * 1e-6
            {
                bp_idx += 1;
            }
            let mut dt_eff = dt.min(t_stop - t);
            let mut lands_on_bp = false;
            if let Some(&bp) = st.breakpoints.get(bp_idx) {
                if bp <= t_stop && t + dt_eff >= bp - opts.dt_min * 1e-6 {
                    dt_eff = bp - t;
                    lands_on_bp = true;
                }
            }
            let t_next = t + dt_eff;

            match self.newton_solve(&st, &mut lu, t_next, dt_eff, &v_prev, &iv_prev, &mut stats) {
                Ok((x_new, iv_new)) => {
                    // Local-truncation-error estimate: mismatch between
                    // the solution and a linear extrapolation of the two
                    // previous accepted points. O(dt²·v̈), the same order
                    // as the backward-Euler truncation error itself.
                    let err = match &back {
                        Some((t_back, v_back)) if t > *t_back => {
                            let scale = dt_eff / (t - t_back);
                            (1..=self.n_nodes)
                                .map(|k| {
                                    let pred = v_prev[k] + (v_prev[k] - v_back[k]) * scale;
                                    (x_new[k] - pred).abs()
                                })
                                .fold(0.0f64, f64::max)
                        }
                        _ => 0.0,
                    };
                    if err > opts.lte_tol && dt_eff > opts.dt_min * 1.000_001 {
                        stats.steps_rejected += 1;
                        dt = (dt_eff / 2.0).max(opts.dt_min);
                        continue;
                    }
                    back = Some((t, std::mem::replace(&mut v_prev, x_new)));
                    iv_prev = iv_new;
                    t = t_next;
                    times.push(t);
                    volts.push(v_prev.clone());
                    stats.steps_accepted += 1;
                    dt = if lands_on_bp {
                        // A waveform corner invalidates the predictor
                        // history; re-resolve from the floor.
                        back = None;
                        opts.dt_min
                    } else if err < opts.lte_tol / 4.0 {
                        (dt_eff * 2.0).min(opts.dt_max)
                    } else {
                        dt_eff
                    };
                }
                Err(SimError::NoConvergence { .. }) if dt_eff > opts.dt_min * 1.000_001 => {
                    // Newton divergence is handled like an LTE failure:
                    // halve and retry from the same accepted state.
                    stats.steps_rejected += 1;
                    dt = (dt_eff / 2.0).max(opts.dt_min);
                }
                Err(e) => return Err(e),
            }
        }
        Ok((TranResult { times, volts }, stats))
    }

    /// Pre-assembles the static stamps and index-resolved device lists.
    fn stamps(&self) -> Stamps<'a> {
        let n = self.n_nodes + self.n_vsrc;
        let idx = |node: NodeId| -> Option<usize> {
            if node == NodeId::GROUND {
                None
            } else {
                Some(node.index() - 1)
            }
        };
        let mut base = vec![0.0; n * n];
        for k in 0..self.n_nodes {
            base[k * n + k] += GMIN;
        }
        let mut caps = Vec::new();
        let mut mos = Vec::new();
        let mut isrcs = Vec::new();
        let mut vsrcs = Vec::new();
        let mut breakpoints: Vec<f64> = Vec::new();
        let mut vsrc_row = self.n_nodes;
        for devk in self.netlist.devices() {
            match devk {
                DeviceKind::Resistor { a: p, b: q, ohms } => {
                    let g = 1.0 / ohms;
                    stamp_flat(&mut base, n, idx(*p), idx(*q), g);
                }
                DeviceKind::Capacitor { a: p, b: q, farads } => {
                    caps.push(CapStamp {
                        pi: idx(*p),
                        qi: idx(*q),
                        p: p.index(),
                        q: q.index(),
                        farads: *farads,
                    });
                }
                DeviceKind::Isource {
                    a: p,
                    b: q,
                    waveform,
                } => {
                    breakpoints.extend(waveform.iter().map(|&(t, _)| t));
                    isrcs.push(SrcStamp {
                        pi: idx(*p),
                        qi: idx(*q),
                        waveform,
                    });
                }
                DeviceKind::Vsource {
                    a: p,
                    b: q,
                    waveform,
                } => {
                    breakpoints.extend(waveform.iter().map(|&(t, _)| t));
                    let row = vsrc_row;
                    vsrc_row += 1;
                    if let Some(i) = idx(*p) {
                        base[i * n + row] += 1.0;
                        base[row * n + i] += 1.0;
                    }
                    if let Some(j) = idx(*q) {
                        base[j * n + row] -= 1.0;
                        base[row * n + j] -= 1.0;
                    }
                    vsrcs.push(VsrcStamp { row, waveform });
                }
                DeviceKind::Mos {
                    mos_type,
                    d,
                    g,
                    s,
                    w,
                    l,
                    dvt,
                } => {
                    mos.push(MosStamp {
                        mos_type: *mos_type,
                        d: d.index(),
                        g: g.index(),
                        s: s.index(),
                        di: idx(*d),
                        gi: idx(*g),
                        si: idx(*s),
                        w: *w,
                        l: *l,
                        dvt: *dvt,
                    });
                }
            }
        }
        breakpoints.retain(|&t| t > 0.0);
        breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("waveform times are finite"));
        breakpoints.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON * a.abs().max(1.0));
        Stamps {
            n,
            base,
            caps,
            mos,
            isrcs,
            vsrcs,
            breakpoints,
        }
    }

    /// Writes the linear MNA matrix at step size `dt` into `m`: static
    /// stamps plus the backward-Euler companion conductances `C/dt`.
    fn fill_linear_matrix(&self, st: &Stamps<'_>, dt: f64, m: &mut [f64]) {
        let n = st.n;
        m.copy_from_slice(&st.base);
        for c in &st.caps {
            stamp_flat(m, n, c.pi, c.qi, c.farads / dt);
        }
    }

    /// Writes the source vector `b(t, dt, v_prev)` of the linear system
    /// into `b`: waveform values plus the companion history currents.
    fn fill_source_vector(&self, st: &Stamps<'_>, t: f64, dt: f64, v_prev: &[f64], b: &mut [f64]) {
        b.fill(0.0);
        for c in &st.caps {
            let g = c.farads / dt;
            let vprev = v_prev[c.p] - v_prev[c.q];
            if let Some(i) = c.pi {
                b[i] += g * vprev;
            }
            if let Some(j) = c.qi {
                b[j] -= g * vprev;
            }
        }
        for s in &st.isrcs {
            let i = Netlist::pwl_at(s.waveform, t);
            if let Some(ip) = s.pi {
                b[ip] -= i;
            }
            if let Some(iq) = s.qi {
                b[iq] += i;
            }
        }
        for v in &st.vsrcs {
            b[v.row] = Netlist::pwl_at(v.waveform, t);
        }
    }

    /// Writes the KCL residual `F(z) = M·z + i_mos(z) − b` of the
    /// discretized system at iterate (`x` node voltages incl. ground,
    /// `iv` branch currents) into `f`. The converged root of `F` is
    /// exactly the solution the fixed-step driver's full-Newton
    /// iteration converges to.
    fn fill_residual(
        &self,
        st: &Stamps<'_>,
        m: &[f64],
        x: &[f64],
        iv: &[f64],
        b: &[f64],
        f: &mut [f64],
    ) {
        let n = st.n;
        let nn = self.n_nodes;
        for (i, fi) in f.iter_mut().enumerate() {
            let row = &m[i * n..(i + 1) * n];
            let mut acc = -b[i];
            for (a, v) in row[..nn].iter().zip(&x[1..]) {
                acc += a * v;
            }
            for (a, v) in row[nn..].iter().zip(iv) {
                acc += a * v;
            }
            *fi = acc;
        }
        for ms in &st.mos {
            let i0 = device::mos_id_dvt(
                self.dev,
                ms.mos_type,
                x[ms.d],
                x[ms.g],
                x[ms.s],
                ms.w,
                ms.l,
                ms.dvt,
            );
            if let Some(di) = ms.di {
                f[di] += i0;
            }
            if let Some(si) = ms.si {
                f[si] -= i0;
            }
        }
    }

    /// Writes the Jacobian at the iterate into `j`: the linear matrix
    /// plus the linearized MOS conductances — the only stamps that
    /// change within a step.
    fn fill_jacobian(&self, st: &Stamps<'_>, m: &[f64], x: &[f64], j: &mut [f64]) {
        let n = st.n;
        j.copy_from_slice(m);
        for ms in &st.mos {
            let (_, gd, gg, gs) = device::mos_linearized_dvt(
                self.dev,
                ms.mos_type,
                x[ms.d],
                x[ms.g],
                x[ms.s],
                ms.w,
                ms.l,
                ms.dvt,
            );
            if let Some(di) = ms.di {
                j[di * n + di] += gd;
                if let Some(gi) = ms.gi {
                    j[di * n + gi] += gg;
                }
                if let Some(si) = ms.si {
                    j[di * n + si] += gs;
                }
            }
            if let Some(si) = ms.si {
                j[si * n + si] -= gs;
                if let Some(di) = ms.di {
                    j[si * n + di] -= gd;
                }
                if let Some(gi) = ms.gi {
                    j[si * n + gi] -= gg;
                }
            }
        }
    }

    /// Solves one timepoint at `t` with companion step `dt` by
    /// modified-Newton iteration: the LU factorization in `lu` is reused
    /// across iterations (and across timepoints at the same `dt`) and
    /// only refreshed when the iteration stalls or `dt` changed. All
    /// intermediate vectors live in `lu`'s scratch buffers — the hot
    /// loop performs no heap allocation, which dominates the cost on
    /// the small (≲10-node) systems this tool simulates.
    #[allow(clippy::too_many_arguments)]
    fn newton_solve(
        &self,
        st: &Stamps<'_>,
        lu: &mut LuState,
        t: f64,
        dt: f64,
        v_prev: &[f64],
        iv_prev: &[f64],
        stats: &mut SolverStats,
    ) -> Result<(Vec<f64>, Vec<f64>), SimError> {
        if lu.dt != dt {
            self.fill_linear_matrix(st, dt, &mut lu.m_dt);
            lu.dt = dt;
            // The companion conductances moved: the old factorization no
            // longer matches the system.
            lu.lu_valid = false;
        }
        self.fill_source_vector(st, t, dt, v_prev, &mut lu.b);
        let mut x = v_prev.to_vec();
        let mut iv = iv_prev.to_vec();
        let mut prev_max_dv = f64::INFINITY;
        let mut refactor_next = false;
        let mut err = SimError::NoConvergence { time: t };
        for _ in 0..MAX_NEWTON {
            if !lu.lu_valid || refactor_next {
                self.fill_jacobian(st, &lu.m_dt, &x, &mut lu.jbuf);
                if !lu.factors.refactor(&lu.jbuf) {
                    err = SimError::SingularMatrix { time: t };
                    break;
                }
                lu.lu_valid = true;
                stats.lu_factorizations += 1;
                refactor_next = false;
                prev_max_dv = f64::INFINITY;
            } else {
                stats.lu_reuses += 1;
            }
            stats.newton_iterations += 1;
            self.fill_residual(st, &lu.m_dt, &x, &iv, &lu.b, &mut lu.delta);
            for d in lu.delta.iter_mut() {
                *d = -*d;
            }
            lu.factors.solve(&mut lu.delta);
            let mut max_dv: f64 = 0.0;
            for k in 0..self.n_nodes {
                let dv = lu.delta[k];
                max_dv = max_dv.max(dv.abs());
                x[k + 1] += dv.clamp(-VSTEP_LIMIT, VSTEP_LIMIT);
            }
            for (r, div) in iv.iter_mut().zip(&lu.delta[self.n_nodes..]) {
                *r += div;
            }
            if max_dv < VNTOL {
                return Ok((x, iv));
            }
            // Stale-Jacobian stall: the error stopped contracting fast
            // enough — pay for a fresh factorization next iteration.
            if max_dv > prev_max_dv * STALL_CONTRACTION {
                refactor_next = true;
            }
            prev_max_dv = max_dv;
        }
        // A failed attempt leaves a Jacobian from a wild iterate behind;
        // drop it so the retry starts fresh.
        lu.lu_valid = false;
        Err(err)
    }

    /// Assembles the linearized MNA system `A·x = rhs` around the current
    /// Newton iterate `x` (node voltages, ground included at index 0)
    /// with backward-Euler companions from `v_prev`. Reference-path only.
    fn assemble(&self, t: f64, dt: f64, x: &[f64], v_prev: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = self.n_nodes + self.n_vsrc;
        let mut a = vec![vec![0.0; n]; n];
        let mut rhs = vec![0.0; n];
        // Row/col index of a node in the reduced system (ground → None).
        let idx = |node: NodeId| -> Option<usize> {
            if node == NodeId::GROUND {
                None
            } else {
                Some(node.index() - 1)
            }
        };
        let stamp_g = |a: &mut Vec<Vec<f64>>, p: Option<usize>, q: Option<usize>, g: f64| {
            if let Some(i) = p {
                a[i][i] += g;
                if let Some(j) = q {
                    a[i][j] -= g;
                }
            }
            if let Some(j) = q {
                a[j][j] += g;
                if let Some(i) = p {
                    a[j][i] -= g;
                }
            }
        };

        // GMIN from every node to ground.
        for (k, row) in a.iter_mut().enumerate().take(self.n_nodes) {
            row[k] += GMIN;
        }

        let mut vsrc_row = self.n_nodes;
        for dev in self.netlist.devices() {
            match dev {
                DeviceKind::Resistor { a: p, b: q, ohms } => {
                    stamp_g(&mut a, idx(*p), idx(*q), 1.0 / ohms);
                }
                DeviceKind::Capacitor { a: p, b: q, farads } => {
                    // Backward Euler companion: g = C/dt, I_eq = g·v_prev.
                    let g = farads / dt;
                    stamp_g(&mut a, idx(*p), idx(*q), g);
                    let vprev = v_prev[p.index()] - v_prev[q.index()];
                    if let Some(i) = idx(*p) {
                        rhs[i] += g * vprev;
                    }
                    if let Some(j) = idx(*q) {
                        rhs[j] -= g * vprev;
                    }
                }
                DeviceKind::Isource {
                    a: p,
                    b: q,
                    waveform,
                } => {
                    let i = Netlist::pwl_at(waveform, t);
                    if let Some(ip) = idx(*p) {
                        rhs[ip] -= i;
                    }
                    if let Some(iq) = idx(*q) {
                        rhs[iq] += i;
                    }
                }
                DeviceKind::Vsource {
                    a: p,
                    b: q,
                    waveform,
                } => {
                    let v = Netlist::pwl_at(waveform, t);
                    let row = vsrc_row;
                    vsrc_row += 1;
                    if let Some(i) = idx(*p) {
                        a[i][row] += 1.0;
                        a[row][i] += 1.0;
                    }
                    if let Some(j) = idx(*q) {
                        a[j][row] -= 1.0;
                        a[row][j] -= 1.0;
                    }
                    rhs[row] = v;
                }
                DeviceKind::Mos {
                    mos_type,
                    d,
                    g,
                    s,
                    w,
                    l,
                    dvt,
                } => {
                    let vd = x[d.index()];
                    let vg = x[g.index()];
                    let vs = x[s.index()];
                    let (i0, gd, gg, gs) =
                        device::mos_linearized_dvt(self.dev, *mos_type, vd, vg, vs, *w, *l, *dvt);
                    // i flows from drain node into source node:
                    // i ≈ i0 + gd·Δvd + gg·Δvg + gs·Δvs, already expanded
                    // around the iterate, so the rhs carries the residue.
                    let res = i0 - gd * vd - gg * vg - gs * vs;
                    if let Some(di) = idx(*d) {
                        a[di][di] += gd;
                        if let Some(gi) = idx(*g) {
                            a[di][gi] += gg;
                        }
                        if let Some(si) = idx(*s) {
                            a[di][si] += gs;
                        }
                        rhs[di] -= res;
                    }
                    if let Some(si) = idx(*s) {
                        a[si][si] -= gs;
                        if let Some(di) = idx(*d) {
                            a[si][di] -= gd;
                        }
                        if let Some(gi) = idx(*g) {
                            a[si][gi] -= gg;
                        }
                        rhs[si] += res;
                    }
                }
            }
        }
        (a, rhs)
    }
}

/// Stamps a two-terminal conductance into a flat row-major matrix.
fn stamp_flat(m: &mut [f64], n: usize, p: Option<usize>, q: Option<usize>, g: f64) {
    if let Some(i) = p {
        m[i * n + i] += g;
        if let Some(j) = q {
            m[i * n + j] -= g;
        }
    }
    if let Some(j) = q {
        m[j * n + j] += g;
        if let Some(i) = p {
            m[j * n + i] -= g;
        }
    }
}

/// The adaptive driver's reusable linear-algebra state: the linear
/// matrix for the current `dt`, the latest LU factorization, and the
/// scratch buffers the Newton loop works in. Everything is allocated
/// once per `run_adaptive` call and reused for every timepoint.
#[derive(Debug)]
struct LuState {
    dt: f64,
    /// Linear matrix (static stamps + `C/dt` companions), valid for `dt`.
    m_dt: Vec<f64>,
    /// Latest factorization of the Jacobian; stale unless `lu_valid`.
    factors: Lu,
    lu_valid: bool,
    /// Source vector for the current timepoint.
    b: Vec<f64>,
    /// Residual, negated and solved in place into the Newton update.
    delta: Vec<f64>,
    /// Jacobian assembly scratch, copied into `factors` on refactor.
    jbuf: Vec<f64>,
}

impl LuState {
    fn new(n: usize) -> Self {
        LuState {
            dt: f64::NAN,
            m_dt: vec![0.0; n * n],
            factors: Lu::new(n),
            lu_valid: false,
            b: vec![0.0; n],
            delta: vec![0.0; n],
            jbuf: vec![0.0; n * n],
        }
    }
}

/// Dense LU factorization with partial pivoting over a flat row-major
/// matrix, reusable across many right-hand sides — the piece that turns
/// modified Newton into an O(n²)-per-iteration method.
#[derive(Debug, Clone)]
struct Lu {
    n: usize,
    /// Combined L (unit diagonal, below) and U (on/above diagonal).
    a: Vec<f64>,
    /// Row permutation: step `k` swapped rows `k` and `piv[k]`.
    piv: Vec<usize>,
}

impl Lu {
    /// An unfactored placeholder with buffers sized for `n × n` systems.
    fn new(n: usize) -> Lu {
        Lu {
            n,
            a: vec![0.0; n * n],
            piv: vec![0usize; n],
        }
    }

    /// Factors `a` (flat `n × n`). Returns `None` on a numerically
    /// singular matrix.
    #[cfg(test)]
    fn factor(a: Vec<f64>, n: usize) -> Option<Lu> {
        let mut lu = Lu {
            n,
            a,
            piv: vec![0usize; n],
        };
        lu.factor_in_place().then_some(lu)
    }

    /// Copies `src` over the stored matrix and refactors in place,
    /// reusing both buffers. Returns `false` (leaving the factors
    /// unusable) on a numerically singular matrix.
    fn refactor(&mut self, src: &[f64]) -> bool {
        self.a.copy_from_slice(src);
        self.factor_in_place()
    }

    /// Factors the stored matrix in place with partial pivoting.
    fn factor_in_place(&mut self) -> bool {
        let n = self.n;
        let a = &mut self.a;
        for col in 0..n {
            let mut p = col;
            for row in (col + 1)..n {
                if a[row * n + col].abs() > a[p * n + col].abs() {
                    p = row;
                }
            }
            if a[p * n + col].abs() < 1e-20 {
                return false;
            }
            self.piv[col] = p;
            if p != col {
                for k in 0..n {
                    a.swap(col * n + k, p * n + k);
                }
            }
            let diag = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / diag;
                a[row * n + col] = factor;
                if factor == 0.0 {
                    continue;
                }
                for k in (col + 1)..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
            }
        }
        true
    }

    /// Solves `A·x = b` in place using the stored factors.
    // Index loops mirror the textbook forward/back-substitution; the
    // iterator forms clippy suggests hide the triangular structure.
    #[allow(clippy::needless_range_loop)]
    fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        for col in 0..n {
            b.swap(col, self.piv[col]);
            let bc = b[col];
            if bc != 0.0 {
                for row in (col + 1)..n {
                    b[row] -= self.a[row * n + col] * bc;
                }
            }
        }
        for row in (0..n).rev() {
            let mut acc = b[row];
            for k in (row + 1)..n {
                acc -= self.a[row * n + k] * b[k];
            }
            b[row] = acc / self.a[row * n + row];
        }
    }
}

/// Dense Gaussian elimination with partial pivoting. Returns `None` on a
/// (numerically) singular matrix. Reference-path solver.
fn solve_dense(mut a: Vec<Vec<f64>>, rhs: &mut [f64]) -> Option<Vec<f64>> {
    let n = rhs.len();
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-20 {
            return None;
        }
        if pivot != col {
            a.swap(pivot, col);
            rhs.swap(pivot, col);
        }
        let (head, tail) = a.split_at_mut(col + 1);
        let pivot_row = &head[col];
        let diag = pivot_row[col];
        let rhs_col = rhs[col];
        for (off, row_vec) in tail.iter_mut().enumerate() {
            let factor = row_vec[col] / diag;
            if factor == 0.0 {
                continue;
            }
            for (rv, pv) in row_vec[col..n].iter_mut().zip(&pivot_row[col..n]) {
                *rv -= factor * *pv;
            }
            rhs[col + 1 + off] -= factor * rhs_col;
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_tech::Process;

    fn dev() -> DeviceParams {
        Process::cda07().devices().clone()
    }

    #[test]
    fn rc_charging_matches_analytic() {
        // 1kΩ from a 1V source into 1nF: v(t) = 1 - e^{-t/RC}, RC = 1 µs.
        let mut nl = Netlist::new("rc");
        let src = nl.node("src");
        let out = nl.node("out");
        nl.vdc(src, Netlist::ground(), 1.0);
        nl.resistor(src, out, 1000.0);
        nl.capacitor(out, Netlist::ground(), 1e-9);
        let d = dev();
        let sim = TransientSim::new(&nl, &d).unwrap();
        let r = sim.run(10e-6, 1e-8).unwrap();
        let v_tau = r.voltage_at(out, 1e-6);
        let expect = 1.0 - (-1.0f64).exp();
        assert!(
            (v_tau - expect).abs() < 0.02,
            "v(tau) = {v_tau}, expect {expect}"
        );
        // After 10 time constants the capacitor is within 1e-4 of the rail.
        assert!((r.final_voltage(out) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn adaptive_rc_charging_matches_analytic_with_fewer_steps() {
        let mut nl = Netlist::new("rc");
        let src = nl.node("src");
        let out = nl.node("out");
        nl.vdc(src, Netlist::ground(), 1.0);
        nl.resistor(src, out, 1000.0);
        nl.capacitor(out, Netlist::ground(), 1e-9);
        let d = dev();
        let sim = TransientSim::new(&nl, &d).unwrap();
        let opts = AdaptiveOptions::for_span(10e-6);
        let (r, stats) = sim.run_adaptive_with_stats(10e-6, &opts).unwrap();
        let v_tau = r.voltage_at(out, 1e-6);
        let expect = 1.0 - (-1.0f64).exp();
        assert!(
            (v_tau - expect).abs() < 0.02,
            "v(tau) = {v_tau}, expect {expect}"
        );
        assert!((r.final_voltage(out) - 1.0).abs() < 1e-3);
        // The fixed-step run above takes 1000 steps; adaptive needs far
        // fewer and reuses its factorization heavily.
        assert!(
            stats.steps_accepted < 500,
            "expected coarse stepping, got {stats:?}"
        );
        assert!(stats.lu_reuses > stats.lu_factorizations, "{stats:?}");
    }

    #[test]
    fn adaptive_is_deterministic() {
        let d = dev();
        let mut nl = Netlist::new("inv");
        let vdd = nl.node("vdd");
        let a = nl.node("a");
        let y = nl.node("y");
        nl.vdc(vdd, Netlist::ground(), d.vdd);
        nl.vpwl(
            a,
            Netlist::ground(),
            vec![(0.0, 0.0), (2e-9, 0.0), (2.1e-9, d.vdd)],
        );
        nl.mos(MosType::Pmos, y, a, vdd, 3e-6, 0.7e-6);
        nl.mos(MosType::Nmos, y, a, Netlist::ground(), 1e-6, 0.7e-6);
        nl.capacitor(y, Netlist::ground(), 20e-15);
        let sim = TransientSim::new(&nl, &d).unwrap();
        let opts = AdaptiveOptions::for_span(5e-9);
        let r1 = sim.run_adaptive(5e-9, &opts).unwrap();
        let r2 = sim.run_adaptive(5e-9, &opts).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn adaptive_inverter_matches_fixed_step_reference() {
        let d = dev();
        let mut nl = Netlist::new("inv");
        let vdd = nl.node("vdd");
        let a = nl.node("a");
        let y = nl.node("y");
        nl.vdc(vdd, Netlist::ground(), d.vdd);
        nl.vpwl(
            a,
            Netlist::ground(),
            vec![(0.0, 0.0), (2e-9, 0.0), (2.1e-9, d.vdd)],
        );
        nl.mos(MosType::Pmos, y, a, vdd, 3e-6, 0.7e-6);
        nl.mos(MosType::Nmos, y, a, Netlist::ground(), 1e-6, 0.7e-6);
        nl.capacitor(y, Netlist::ground(), 20e-15);
        let sim = TransientSim::new(&nl, &d).unwrap();
        let fixed = sim.run(5e-9, 5e-12).unwrap();
        let (adaptive, stats) = sim
            .run_adaptive_with_stats(5e-9, &AdaptiveOptions::for_span(5e-9))
            .unwrap();
        let tf = fixed.crossing_time(y, d.vdd / 2.0, false, 2e-9).unwrap();
        let ta = adaptive.crossing_time(y, d.vdd / 2.0, false, 2e-9).unwrap();
        assert!(
            (ta - tf).abs() / tf < 0.01,
            "crossing drifted: fixed {tf:e}, adaptive {ta:e}"
        );
        assert!(
            (adaptive.final_voltage(y) - fixed.final_voltage(y)).abs() < 1e-3,
            "final voltages drifted"
        );
        assert!(
            stats.steps_accepted + stats.steps_rejected < 1001,
            "adaptive used {} attempts vs 1001 fixed steps",
            stats.steps_accepted + stats.steps_rejected
        );
    }

    #[test]
    fn divider_settles_to_half() {
        let mut nl = Netlist::new("div");
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vdc(a, Netlist::ground(), 2.0);
        nl.resistor(a, m, 1000.0);
        nl.resistor(m, Netlist::ground(), 1000.0);
        let d = dev();
        let r = TransientSim::new(&nl, &d)
            .unwrap()
            .run(1e-9, 1e-10)
            .unwrap();
        assert!((r.final_voltage(m) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn inverter_switches_rail_to_rail() {
        let d = dev();
        let mut nl = Netlist::new("inv");
        let vdd = nl.node("vdd");
        let a = nl.node("a");
        let y = nl.node("y");
        nl.vdc(vdd, Netlist::ground(), d.vdd);
        nl.vpwl(
            a,
            Netlist::ground(),
            vec![(0.0, 0.0), (2e-9, 0.0), (2.1e-9, d.vdd)],
        );
        nl.mos(MosType::Pmos, y, a, vdd, 3e-6, 0.7e-6);
        nl.mos(MosType::Nmos, y, a, Netlist::ground(), 1e-6, 0.7e-6);
        nl.capacitor(y, Netlist::ground(), 20e-15);
        let r = TransientSim::new(&nl, &d)
            .unwrap()
            .run(5e-9, 5e-12)
            .unwrap();
        // Before the edge the output is high; after, low.
        assert!(r.voltage_at(y, 1.9e-9) > 0.95 * d.vdd);
        assert!(r.final_voltage(y) < 0.05 * d.vdd);
        // There is a falling crossing after the input edge.
        let t = r.crossing_time(y, d.vdd / 2.0, false, 2e-9);
        assert!(t.is_some());
    }

    #[test]
    fn current_source_integrates_on_capacitor() {
        // 1 mA into 1 pF for 1 ns → 1 V ramp.
        let mut nl = Netlist::new("ramp");
        let out = nl.node("out");
        nl.ipwl(Netlist::ground(), out, vec![(0.0, 1e-3)]);
        nl.capacitor(out, Netlist::ground(), 1e-12);
        let d = dev();
        let r = TransientSim::new(&nl, &d)
            .unwrap()
            .run(1e-9, 1e-12)
            .unwrap();
        assert!((r.final_voltage(out) - 1.0).abs() < 0.01);
    }

    #[test]
    fn adaptive_ramp_tracks_the_integral() {
        let mut nl = Netlist::new("ramp");
        let out = nl.node("out");
        nl.ipwl(Netlist::ground(), out, vec![(0.0, 1e-3)]);
        nl.capacitor(out, Netlist::ground(), 1e-12);
        let d = dev();
        let sim = TransientSim::new(&nl, &d).unwrap();
        let r = sim
            .run_adaptive(1e-9, &AdaptiveOptions::for_span(1e-9))
            .unwrap();
        assert!((r.final_voltage(out) - 1.0).abs() < 0.01);
    }

    #[test]
    fn crossing_detection_and_interpolation() {
        let res = TranResult {
            times: vec![0.0, 1.0, 2.0, 3.0],
            volts: vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![0.0, 2.0],
                vec![0.0, 0.0],
            ],
        };
        let n = NodeId(1);
        assert_eq!(res.crossing_time(n, 0.5, true, 0.0), Some(0.5));
        assert_eq!(res.crossing_time(n, 1.5, true, 0.0), Some(1.5));
        assert_eq!(res.crossing_time(n, 1.0, false, 2.0), Some(2.5));
        assert_eq!(res.crossing_time(n, 5.0, true, 0.0), None);
        assert_eq!(res.voltage_at(n, 0.25), 0.25);
        assert_eq!(res.voltage_at(n, 99.0), 0.0);
    }

    #[test]
    fn floating_node_reports_singular_or_settles_via_gmin() {
        // A node connected only through a capacitor is handled by GMIN —
        // must not error out.
        let mut nl = Netlist::new("float");
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc(a, Netlist::ground(), 1.0);
        nl.capacitor(a, b, 1e-12);
        let d = dev();
        let sim = TransientSim::new(&nl, &d).unwrap();
        assert!(sim.run(1e-9, 1e-11).is_ok());
        assert!(sim
            .run_adaptive(1e-9, &AdaptiveOptions::for_span(1e-9))
            .is_ok());
    }

    #[test]
    fn solver_handles_permuted_systems() {
        // x + 2y = 5; 3x + 4y = 11 → x = 1, y = 2 — but with a zero
        // leading pivot to force the row swap.
        let a = vec![vec![0.0, 2.0], vec![3.0, 4.0]];
        let mut rhs = vec![4.0, 11.0];
        let x = solve_dense(a, &mut rhs).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        // Singular matrix returns None.
        let a = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let mut rhs = vec![1.0, 2.0];
        assert!(solve_dense(a, &mut rhs).is_none());
    }

    #[test]
    fn lu_matches_reference_solver_and_rejects_singular() {
        let flat = vec![0.0, 2.0, 3.0, 4.0];
        let lu = Lu::factor(flat, 2).unwrap();
        let mut b = vec![4.0, 11.0];
        lu.solve(&mut b);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
        // A second right-hand side reuses the same factors.
        let mut b2 = vec![2.0, 3.0];
        lu.solve(&mut b2);
        let a = [[0.0, 2.0], [3.0, 4.0]];
        for (i, row) in a.iter().enumerate() {
            let acc: f64 = row.iter().zip(&b2).map(|(x, y)| x * y).sum();
            assert!((acc - [2.0, 3.0][i]).abs() < 1e-12);
        }
        assert!(Lu::factor(vec![1.0, 1.0, 2.0, 2.0], 2).is_none());
    }

    #[test]
    fn adaptive_options_for_span_are_ordered() {
        let o = AdaptiveOptions::for_span(1e-8);
        assert!(o.dt_min > 0.0 && o.dt_min < o.dt_max);
        assert!(o.lte_tol > 0.0);
    }

    #[test]
    #[should_panic(expected = "dt_min <= dt_max")]
    fn adaptive_rejects_inverted_bounds() {
        let mut nl = Netlist::new("r");
        let a = nl.node("a");
        nl.resistor(a, Netlist::ground(), 1.0);
        let d = dev();
        let sim = TransientSim::new(&nl, &d).unwrap();
        let _ = sim.run_adaptive(
            1e-9,
            &AdaptiveOptions {
                dt_min: 1e-9,
                dt_max: 1e-12,
                lte_tol: 1e-3,
            },
        );
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::NoConvergence { time: 1e-9 };
        assert!(e.to_string().contains("1.000e-9"));
        let e = SimError::SingularMatrix { time: 0.0 };
        assert!(e.to_string().contains("singular"));
    }
}
