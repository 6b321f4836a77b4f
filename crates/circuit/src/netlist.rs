//! Transistor-level netlist database and SPICE export.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Identifier of a circuit node (net).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground node, always present.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index (0 is ground).
    pub fn index(self) -> usize {
        self.0
    }
}

/// MOS transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// One circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceKind {
    /// Linear resistor (Ω) between two nodes.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor (F) between two nodes.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Ideal voltage source `a` − `b` = volts(t), with a piecewise-linear
    /// waveform (time, volts) pairs; constant before the first and after
    /// the last point.
    Vsource {
        /// Positive terminal.
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Piecewise-linear waveform.
        waveform: Vec<(f64, f64)>,
    },
    /// Ideal current source pushing amps(t) from `a` into `b`.
    Isource {
        /// Source terminal (current leaves).
        a: NodeId,
        /// Sink terminal (current enters).
        b: NodeId,
        /// Piecewise-linear waveform.
        waveform: Vec<(f64, f64)>,
    },
    /// Level-1 MOS transistor.
    Mos {
        /// Polarity.
        mos_type: MosType,
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Channel width (m).
        w: f64,
        /// Channel length (m).
        l: f64,
        /// Per-device threshold-voltage offset (V) added to the process
        /// `vtn`/`vtp` magnitude — the local-mismatch handle of the
        /// variation engine (SPICE `DELVTO`). Zero for nominal devices.
        dvt: f64,
    },
}

/// A flat netlist: named nodes plus a device list.
///
/// ```
/// use bisram_circuit::{Netlist, MosType};
///
/// let mut nl = Netlist::new("inv");
/// let vdd = nl.node("vdd");
/// let a = nl.node("a");
/// let y = nl.node("y");
/// let gnd = Netlist::ground();
/// nl.mos(MosType::Pmos, y, a, vdd, 2e-6, 0.7e-6);
/// nl.mos(MosType::Nmos, y, a, gnd, 1e-6, 0.7e-6);
/// assert_eq!(nl.device_count(), 2);
/// assert!(nl.to_spice().contains("M1"));
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    node_names: Vec<String>,
    by_name: HashMap<String, NodeId>,
    devices: Vec<DeviceKind>,
}

impl Netlist {
    /// Creates an empty netlist containing only the ground node (`0`).
    pub fn new(name: impl Into<String>) -> Self {
        let mut by_name = HashMap::new();
        by_name.insert("0".to_owned(), NodeId(0));
        Netlist {
            name: name.into(),
            node_names: vec!["0".to_owned()],
            by_name,
            devices: Vec::new(),
        }
    }

    /// The ground node.
    pub fn ground() -> NodeId {
        NodeId::GROUND
    }

    /// Netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the node with this name, creating it if needed.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.clone());
        self.by_name.insert(name, id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The device list.
    pub fn devices(&self) -> &[DeviceKind] {
        &self.devices
    }

    /// Adds a resistor. Returns the device index.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> usize {
        self.push(DeviceKind::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> usize {
        self.push(DeviceKind::Capacitor { a, b, farads })
    }

    /// Adds a DC voltage source.
    pub fn vdc(&mut self, a: NodeId, b: NodeId, volts: f64) -> usize {
        self.push(DeviceKind::Vsource {
            a,
            b,
            waveform: vec![(0.0, volts)],
        })
    }

    /// Adds a piecewise-linear voltage source.
    pub fn vpwl(&mut self, a: NodeId, b: NodeId, waveform: Vec<(f64, f64)>) -> usize {
        assert!(
            !waveform.is_empty(),
            "waveform must have at least one point"
        );
        self.push(DeviceKind::Vsource { a, b, waveform })
    }

    /// Adds a piecewise-linear current source from `a` to `b`.
    pub fn ipwl(&mut self, a: NodeId, b: NodeId, waveform: Vec<(f64, f64)>) -> usize {
        assert!(
            !waveform.is_empty(),
            "waveform must have at least one point"
        );
        self.push(DeviceKind::Isource { a, b, waveform })
    }

    /// Adds a MOS transistor (bulk is implied: ground for NMOS, the most
    /// positive supply for PMOS; body effect is not modelled).
    pub fn mos(
        &mut self,
        mos_type: MosType,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        w: f64,
        l: f64,
    ) -> usize {
        self.mos_dvt(mos_type, d, g, s, w, l, 0.0)
    }

    /// Adds a MOS transistor with a per-device threshold offset `dvt`
    /// (V, added to the process threshold magnitude) — the entry point
    /// the variation-aware trial kernels use to model local mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn mos_dvt(
        &mut self,
        mos_type: MosType,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        w: f64,
        l: f64,
        dvt: f64,
    ) -> usize {
        assert!(w > 0.0 && l > 0.0, "device dimensions must be positive");
        assert!(dvt.is_finite(), "threshold offset must be finite");
        self.push(DeviceKind::Mos {
            mos_type,
            d,
            g,
            s,
            w,
            l,
            dvt,
        })
    }

    fn push(&mut self, d: DeviceKind) -> usize {
        self.devices.push(d);
        self.devices.len() - 1
    }

    /// Renders the netlist as a SPICE deck — the "simulation model" output
    /// of the original tool.
    pub fn to_spice(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "* {} (generated by bisram-circuit)", self.name);
        let mut r = 0;
        let mut c = 0;
        let mut v = 0;
        let mut i = 0;
        let mut m = 0;
        for dev in &self.devices {
            match dev {
                DeviceKind::Resistor { a, b, ohms } => {
                    r += 1;
                    let _ = writeln!(
                        out,
                        "R{r} {} {} {ohms:.6e}",
                        self.node_name(*a),
                        self.node_name(*b)
                    );
                }
                DeviceKind::Capacitor { a, b, farads } => {
                    c += 1;
                    let _ = writeln!(
                        out,
                        "C{c} {} {} {farads:.6e}",
                        self.node_name(*a),
                        self.node_name(*b)
                    );
                }
                DeviceKind::Vsource { a, b, waveform } => {
                    v += 1;
                    if waveform.len() == 1 {
                        let _ = writeln!(
                            out,
                            "V{v} {} {} DC {:.6e}",
                            self.node_name(*a),
                            self.node_name(*b),
                            waveform[0].1
                        );
                    } else {
                        let pts: Vec<String> = waveform
                            .iter()
                            .map(|(t, x)| format!("{t:.6e} {x:.6e}"))
                            .collect();
                        let _ = writeln!(
                            out,
                            "V{v} {} {} PWL({})",
                            self.node_name(*a),
                            self.node_name(*b),
                            pts.join(" ")
                        );
                    }
                }
                DeviceKind::Isource { a, b, waveform } => {
                    i += 1;
                    let pts: Vec<String> = waveform
                        .iter()
                        .map(|(t, x)| format!("{t:.6e} {x:.6e}"))
                        .collect();
                    let _ = writeln!(
                        out,
                        "I{i} {} {} PWL({})",
                        self.node_name(*a),
                        self.node_name(*b),
                        pts.join(" ")
                    );
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
                    m += 1;
                    let (model, bulk) = match mos_type {
                        MosType::Nmos => ("NMOS", "0"),
                        MosType::Pmos => ("PMOS", "vdd!"),
                    };
                    let delvto = if *dvt != 0.0 {
                        format!(" DELVTO={dvt:.6e}")
                    } else {
                        String::new()
                    };
                    let _ = writeln!(
                        out,
                        "M{m} {} {} {} {bulk} {model} W={w:.6e} L={l:.6e}{delvto}",
                        self.node_name(*d),
                        self.node_name(*g),
                        self.node_name(*s)
                    );
                }
            }
        }
        let _ = writeln!(out, ".END");
        out
    }

    /// Evaluates a piecewise-linear waveform at time `t`.
    pub(crate) fn pwl_at(waveform: &[(f64, f64)], t: f64) -> f64 {
        if waveform.is_empty() {
            return 0.0;
        }
        if t <= waveform[0].0 {
            return waveform[0].1;
        }
        for w in waveform.windows(2) {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            if t <= t1 {
                if t1 == t0 {
                    return v1;
                }
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
            }
        }
        waveform.last().expect("nonempty").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned_by_name() {
        let mut nl = Netlist::new("t");
        let a1 = nl.node("a");
        let a2 = nl.node("a");
        let b = nl.node("b");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(nl.node_count(), 3); // ground + a + b
        assert_eq!(nl.find_node("a"), Some(a1));
        assert_eq!(nl.find_node("zz"), None);
        assert_eq!(nl.node_name(NodeId::GROUND), "0");
    }

    #[test]
    fn spice_export_contains_all_devices() {
        let mut nl = Netlist::new("mix");
        let a = nl.node("a");
        let b = nl.node("b");
        nl.resistor(a, b, 1000.0);
        nl.capacitor(b, Netlist::ground(), 1e-12);
        nl.vdc(a, Netlist::ground(), 3.3);
        nl.ipwl(a, b, vec![(0.0, 0.0), (1e-9, 1e-3)]);
        nl.mos(MosType::Nmos, b, a, Netlist::ground(), 1e-6, 0.5e-6);
        let deck = nl.to_spice();
        for tag in ["R1", "C1", "V1", "I1", "M1", ".END", "PWL"] {
            assert!(deck.contains(tag), "missing {tag} in deck:\n{deck}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn mos_rejects_nonpositive_size() {
        let mut nl = Netlist::new("bad");
        let a = nl.node("a");
        nl.mos(MosType::Nmos, a, a, a, 0.0, 1e-6);
    }

    #[test]
    fn pwl_interpolation() {
        let wf = vec![(0.0, 0.0), (1.0, 10.0), (2.0, 10.0)];
        assert_eq!(Netlist::pwl_at(&wf, -1.0), 0.0);
        assert_eq!(Netlist::pwl_at(&wf, 0.5), 5.0);
        assert_eq!(Netlist::pwl_at(&wf, 1.5), 10.0);
        assert_eq!(Netlist::pwl_at(&wf, 5.0), 10.0);
        // Single-point waveform behaves as DC.
        assert_eq!(Netlist::pwl_at(&[(0.0, 2.5)], 9.0), 2.5);
    }
}
