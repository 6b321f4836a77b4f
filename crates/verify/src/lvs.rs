//! Layout-versus-schematic graph comparison.
//!
//! Both sides arrive as a [`NetGraph`]. Matching runs iterative label
//! refinement (1-dimensional Weisfeiler–Leman): device labels start from
//! `(polarity, W, L)`, net labels from their terminal count, and each
//! round folds the sorted neighbour labels back in — a net sees its
//! incident `(device, terminal-role)` pairs, a device sees its gate net
//! and its unordered source/drain pair. After a fixed number of rounds
//! the two graphs match iff the label multisets match.
//!
//! Refinement decides isomorphism only up to its usual blind spot
//! (distinct but locally identical structures), which is far beyond the
//! failure modes a rectangle-level generator can produce; in exchange it
//! is near-linear and deterministic. Mismatches are reported per label
//! with a sample element from each side, carrying layout coordinates on
//! the extracted side.

use crate::graph::NetGraph;
use bisram_geom::Rect;

/// Refinement rounds: enough to propagate context across the deepest
/// leaf-cell structures (a handful of devices) and the long rail chains
/// of macrocells; fixed so both sides label identically.
const ROUNDS: usize = 12;

/// Fowler/Noll-style mixing; local so label values never depend on
/// `std::hash` internals (which may change across toolchains).
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Stable labels for every net and device of one graph.
fn refine(g: &NetGraph) -> (Vec<u64>, Vec<u64>) {
    let n_nets = g.nets.len();
    // role: 0 = gate, 1 = source/drain.
    let mut incident: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n_nets];
    for (di, d) in g.devices.iter().enumerate() {
        incident[d.gate].push((di, 0));
        incident[d.sd[0]].push((di, 1));
        incident[d.sd[1]].push((di, 1));
    }

    let mut net_labels: Vec<u64> = incident
        .iter()
        .map(|inc| mix(0x6e65, inc.len() as u64))
        .collect();
    let mut dev_labels: Vec<u64> = g
        .devices
        .iter()
        .map(|d| {
            let polarity = match d.polarity {
                bisram_circuit::MosType::Nmos => 1u64,
                bisram_circuit::MosType::Pmos => 2u64,
            };
            mix(mix(mix(0x6d6f73, polarity), d.w as u64), d.l as u64)
        })
        .collect();

    let mut neighbour = Vec::new();
    for _ in 0..ROUNDS {
        let next_nets: Vec<u64> = (0..n_nets)
            .map(|ni| {
                neighbour.clear();
                neighbour.extend(
                    incident[ni]
                        .iter()
                        .map(|&(di, role)| mix(dev_labels[di], role)),
                );
                neighbour.sort_unstable();
                neighbour.iter().fold(net_labels[ni], |acc, &x| mix(acc, x))
            })
            .collect();
        let next_devs: Vec<u64> = g
            .devices
            .iter()
            .enumerate()
            .map(|(di, d)| {
                let (s0, s1) = (net_labels[d.sd[0]], net_labels[d.sd[1]]);
                let (lo, hi) = (s0.min(s1), s0.max(s1));
                mix(mix(mix(dev_labels[di], net_labels[d.gate]), lo), hi)
            })
            .collect();
        net_labels = next_nets;
        dev_labels = next_devs;
    }
    (net_labels, dev_labels)
}

/// What kind of element a mismatch concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MismatchKind {
    /// A net equivalence class.
    Net,
    /// A device equivalence class.
    Device,
}

/// One label class whose population differs between the two sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LvsMismatch {
    /// Net or device class.
    pub kind: MismatchKind,
    /// The refinement label (opaque; stable for a given input pair).
    pub label: u64,
    /// Population on the extracted (layout) side.
    pub extracted_count: usize,
    /// Population on the reference (schematic) side.
    pub reference_count: usize,
    /// Human-readable description of a sample member.
    pub description: String,
    /// Layout coordinates of a sample extracted member, when present.
    pub extracted_at: Option<Rect>,
    /// Schematic-side anchor/location of a sample member, when present.
    pub reference_at: Option<Rect>,
}

impl std::fmt::Display for LvsMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            MismatchKind::Net => "net",
            MismatchKind::Device => "device",
        };
        write!(
            f,
            "{kind} class {}: layout has {}, schematic has {}",
            self.description, self.extracted_count, self.reference_count
        )?;
        if let Some(r) = self.extracted_at {
            write!(f, "; layout at {r}")?;
        }
        if let Some(r) = self.reference_at {
            write!(f, "; schematic at {r}")?;
        }
        Ok(())
    }
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct LvsReport {
    /// Net count on the extracted side.
    pub extracted_nets: usize,
    /// Device count on the extracted side.
    pub extracted_devices: usize,
    /// Terminal-free net count on the extracted side.
    pub extracted_floating: usize,
    /// Net count on the reference side.
    pub reference_nets: usize,
    /// Device count on the reference side.
    pub reference_devices: usize,
    /// Terminal-free net count on the reference side.
    pub reference_floating: usize,
    /// Label classes whose populations differ, nets first.
    pub mismatches: Vec<LvsMismatch>,
}

impl LvsReport {
    /// True when the graphs matched.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl std::fmt::Display for LvsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "lvs: layout {} nets / {} devices ({} floating), \
             schematic {} nets / {} devices ({} floating) -> {}",
            self.extracted_nets,
            self.extracted_devices,
            self.extracted_floating,
            self.reference_nets,
            self.reference_devices,
            self.reference_floating,
            if self.is_clean() { "match" } else { "MISMATCH" }
        )?;
        for m in &self.mismatches {
            writeln!(f, "  {m}")?;
        }
        Ok(())
    }
}

fn describe_net(g: &NetGraph, i: usize, terminals: &[usize]) -> String {
    match g.nets[i].sample {
        Some((layer, _)) => format!(
            "net {} ({} terminals, {})",
            g.nets[i].name,
            terminals[i],
            layer.name()
        ),
        None => format!("net {} ({} terminals)", g.nets[i].name, terminals[i]),
    }
}

fn describe_device(g: &NetGraph, i: usize) -> String {
    let d = &g.devices[i];
    let polarity = match d.polarity {
        bisram_circuit::MosType::Nmos => "nmos",
        bisram_circuit::MosType::Pmos => "pmos",
    };
    format!("{polarity} W={} L={}", d.w, d.l)
}

fn net_rect(g: &NetGraph, i: usize) -> Option<Rect> {
    g.nets[i].sample.map(|(_, r)| r)
}

/// Compares the extracted graph against the reference graph.
pub fn compare(extracted: &NetGraph, reference: &NetGraph) -> LvsReport {
    let (e_nets, e_devs) = refine(extracted);
    let (r_nets, r_devs) = refine(reference);
    let e_terms = extracted.terminal_counts();
    let r_terms = reference.terminal_counts();

    let mut mismatches = Vec::new();
    // Tally per-label populations with a deterministic sample element.
    let tally = |labels: &[u64]| {
        let mut t: Vec<(u64, usize, usize)> = Vec::new(); // (label, count, first)
        let mut sorted: Vec<(u64, usize)> = labels.iter().copied().zip(0..labels.len()).collect();
        sorted.sort_unstable();
        for (label, idx) in sorted {
            match t.last_mut() {
                Some(last) if last.0 == label => last.1 += 1,
                _ => t.push((label, 1, idx)),
            }
        }
        t
    };
    // (label, extracted count, extracted sample, reference count,
    // reference sample) for every label whose populations differ.
    type LabelDiff = (u64, usize, Option<usize>, usize, Option<usize>);
    let diff = |a: &[(u64, usize, usize)], b: &[(u64, usize, usize)]| {
        // Merge-join the two sorted tallies.
        let mut out: Vec<LabelDiff> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let order = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.0.cmp(&y.0),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => break,
            };
            match order {
                std::cmp::Ordering::Less => {
                    out.push((a[i].0, a[i].1, Some(a[i].2), 0, None));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((b[j].0, 0, None, b[j].1, Some(b[j].2)));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        out.push((a[i].0, a[i].1, Some(a[i].2), b[j].1, Some(b[j].2)));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    };

    for (label, e_count, e_idx, r_count, r_idx) in diff(&tally(&e_nets), &tally(&r_nets)) {
        let description = e_idx
            .map(|i| describe_net(extracted, i, &e_terms))
            .or_else(|| r_idx.map(|i| describe_net(reference, i, &r_terms)))
            .unwrap_or_default();
        mismatches.push(LvsMismatch {
            kind: MismatchKind::Net,
            label,
            extracted_count: e_count,
            reference_count: r_count,
            description,
            extracted_at: e_idx.and_then(|i| net_rect(extracted, i)),
            reference_at: r_idx.and_then(|i| net_rect(reference, i)),
        });
    }
    for (label, e_count, e_idx, r_count, r_idx) in diff(&tally(&e_devs), &tally(&r_devs)) {
        let description = e_idx
            .map(|i| describe_device(extracted, i))
            .or_else(|| r_idx.map(|i| describe_device(reference, i)))
            .unwrap_or_default();
        mismatches.push(LvsMismatch {
            kind: MismatchKind::Device,
            label,
            extracted_count: e_count,
            reference_count: r_count,
            description,
            extracted_at: e_idx.map(|i| extracted.devices[i].location),
            reference_at: r_idx.map(|i| reference.devices[i].location),
        });
    }
    mismatches.sort_by_key(|m| (m.kind, m.label));

    LvsReport {
        extracted_nets: extracted.nets.len(),
        extracted_devices: extracted.devices.len(),
        extracted_floating: extracted.floating_count(),
        reference_nets: reference.nets.len(),
        reference_devices: reference.devices.len(),
        reference_floating: reference.floating_count(),
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Device, Net};
    use bisram_circuit::MosType;
    use bisram_tech::Layer;

    fn net(name: &str) -> Net {
        Net {
            name: name.into(),
            sample: Some((Layer::Metal1, Rect::new(0, 0, 10, 10))),
        }
    }

    /// An inverter: two devices sharing gate (in) and drain (out).
    fn inverter(w_n: i64, w_p: i64) -> NetGraph {
        NetGraph {
            nets: vec![net("in"), net("out"), net("vdd"), net("gnd")],
            devices: vec![
                Device {
                    polarity: MosType::Nmos,
                    w: w_n,
                    l: 200,
                    gate: 0,
                    sd: [1, 3],
                    location: Rect::new(0, 0, 2, 9),
                },
                Device {
                    polarity: MosType::Pmos,
                    w: w_p,
                    l: 200,
                    gate: 0,
                    sd: [2, 1],
                    location: Rect::new(0, 20, 2, 29),
                },
            ],
        }
    }

    #[test]
    fn identical_graphs_match() {
        let r = compare(&inverter(900, 700), &inverter(900, 700));
        assert!(r.is_clean(), "{:?}", r.mismatches);
        assert_eq!(r.extracted_devices, 2);
    }

    #[test]
    fn permuted_indices_still_match() {
        let a = inverter(900, 700);
        // Same circuit with nets and devices listed in another order.
        let b = NetGraph {
            nets: vec![net("gnd"), net("vdd"), net("in"), net("out")],
            devices: vec![
                Device {
                    polarity: MosType::Pmos,
                    w: 700,
                    l: 200,
                    gate: 2,
                    sd: [3, 1],
                    location: Rect::new(5, 5, 7, 9),
                },
                Device {
                    polarity: MosType::Nmos,
                    w: 900,
                    l: 200,
                    gate: 2,
                    sd: [0, 3],
                    location: Rect::new(5, 0, 7, 4),
                },
            ],
        };
        assert!(compare(&a, &b).is_clean());
    }

    #[test]
    fn source_drain_symmetry_respected() {
        let a = inverter(900, 700);
        let mut b = inverter(900, 700);
        for d in &mut b.devices {
            d.sd.swap(0, 1);
        }
        assert!(compare(&a, &b).is_clean());
    }

    #[test]
    fn wrong_width_is_device_mismatch() {
        let r = compare(&inverter(900, 700), &inverter(800, 700));
        assert!(!r.is_clean());
        assert!(r
            .mismatches
            .iter()
            .any(|m| m.kind == MismatchKind::Device && m.description.contains("nmos")));
    }

    #[test]
    fn wrong_polarity_is_mismatch() {
        let mut b = inverter(900, 700);
        b.devices[1].polarity = MosType::Nmos;
        assert!(!compare(&inverter(900, 700), &b).is_clean());
    }

    #[test]
    fn broken_connection_is_net_mismatch() {
        let mut b = inverter(900, 700);
        // Split the output: PMOS drain goes to a new floating-ish net.
        b.nets.push(net("out2"));
        b.devices[1].sd = [2, 4];
        let r = compare(&inverter(900, 700), &b);
        assert!(!r.is_clean());
        assert!(r.mismatches.iter().any(|m| m.kind == MismatchKind::Net));
    }

    #[test]
    fn floating_net_count_mismatch_detected() {
        let a = inverter(900, 700);
        let mut b = inverter(900, 700);
        b.nets.push(net("orphan"));
        let r = compare(&a, &b);
        assert_eq!(r.extracted_floating, 0);
        assert_eq!(r.reference_floating, 1);
        assert!(!r.is_clean());
        let m = &r.mismatches[0];
        assert_eq!(m.extracted_count, 0);
        assert_eq!(m.reference_count, 1);
    }

    #[test]
    fn mismatch_display_has_counts_and_coordinates() {
        let r = compare(&inverter(900, 700), &inverter(800, 700));
        let s = r
            .mismatches
            .iter()
            .map(|m| m.to_string())
            .collect::<String>();
        assert!(s.contains("layout has") && s.contains("at ["), "{s}");
    }

    #[test]
    fn report_is_deterministic() {
        let a = compare(&inverter(900, 700), &inverter(800, 650));
        let b = compare(&inverter(900, 700), &inverter(800, 650));
        assert_eq!(format!("{:?}", a.mismatches), format!("{:?}", b.mismatches));
    }
}
