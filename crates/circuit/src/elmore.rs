//! Elmore delay over RC trees.
//!
//! Bitlines and word lines are long distributed RC wires; the compiler
//! estimates their delay with the Elmore metric over an RC tree rooted at
//! the driver.

/// A node in an RC tree. Node 0 is the root (driver output).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RcNode {
    /// Parent node index (root's parent is itself).
    parent: usize,
    /// Resistance of the branch from the parent to this node (Ω).
    r_to_parent: f64,
    /// Capacitance to ground at this node (F).
    cap: f64,
}

/// An RC tree for Elmore delay evaluation.
///
/// ```
/// use bisram_circuit::elmore::RcTree;
///
/// // Driver -- 100Ω -- node1 (1pF) -- 100Ω -- node2 (1pF)
/// let mut tree = RcTree::new(0.0);
/// let n1 = tree.add_node(RcTree::ROOT, 100.0, 1e-12);
/// let n2 = tree.add_node(n1, 100.0, 1e-12);
/// // Elmore to n2: 100*(1p+1p) + 100*1p = 300 ps
/// let d = tree.elmore_delay(n2);
/// assert!((d - 300e-12).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RcTree {
    nodes: Vec<RcNode>,
}

impl RcTree {
    /// Index of the root node.
    pub const ROOT: usize = 0;

    /// Creates a tree whose root has capacitance `root_cap` (the driver's
    /// own output capacitance).
    pub fn new(root_cap: f64) -> Self {
        RcTree {
            nodes: vec![RcNode {
                parent: 0,
                r_to_parent: 0.0,
                cap: root_cap,
            }],
        }
    }

    /// Adds a node connected to `parent` through resistance `r` with
    /// grounded capacitance `cap`. Returns the new node's index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range or `r`/`cap` are negative.
    pub fn add_node(&mut self, parent: usize, r: f64, cap: f64) -> usize {
        assert!(parent < self.nodes.len(), "parent out of range");
        assert!(r >= 0.0 && cap >= 0.0, "negative RC element");
        self.nodes.push(RcNode {
            parent,
            r_to_parent: r,
            cap,
        });
        self.nodes.len() - 1
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Total capacitance of the tree.
    pub fn total_cap(&self) -> f64 {
        self.nodes.iter().map(|n| n.cap).sum()
    }

    /// Downstream capacitance seen from each node (the node's own cap plus
    /// all descendants').
    fn downstream_caps(&self) -> Vec<f64> {
        let mut down: Vec<f64> = self.nodes.iter().map(|n| n.cap).collect();
        // Children always have larger indices than their parents.
        for i in (1..self.nodes.len()).rev() {
            let p = self.nodes[i].parent;
            down[p] += down[i];
        }
        down
    }

    /// Elmore delay from the root to `sink`:
    /// `Σ_{k on path} R_k · C_downstream(k)`.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range.
    pub fn elmore_delay(&self, sink: usize) -> f64 {
        assert!(sink < self.nodes.len(), "sink out of range");
        let down = self.downstream_caps();
        let mut delay = 0.0;
        let mut k = sink;
        while k != RcTree::ROOT {
            delay += self.nodes[k].r_to_parent * down[k];
            k = self.nodes[k].parent;
        }
        delay
    }

    /// Builds a uniform distributed wire of `segments` Π-segments with
    /// total resistance `r_total` and capacitance `c_total`, returning
    /// `(tree, far_end_index)`. `load_cap` is lumped at the far end.
    pub fn uniform_wire(
        segments: usize,
        r_total: f64,
        c_total: f64,
        load_cap: f64,
    ) -> (RcTree, usize) {
        assert!(segments > 0, "need at least one segment");
        let mut tree = RcTree::new(0.0);
        let rs = r_total / segments as f64;
        let cs = c_total / segments as f64;
        let mut last = RcTree::ROOT;
        for i in 0..segments {
            let cap = if i == segments - 1 { cs + load_cap } else { cs };
            last = tree.add_node(last, rs, cap);
        }
        (tree, last)
    }
}

/// Elmore delay of a uniform wire with a lumped load, in seconds: the
/// classic `R·C/2 + R·C_load` limit (for many segments).
///
/// ```
/// use bisram_circuit::elmore::wire_delay;
/// let d = wire_delay(1000.0, 1e-12, 0.0);
/// assert!((d - 0.5e-9).abs() < 0.01e-9);
/// ```
pub fn wire_delay(r_total: f64, c_total: f64, load_cap: f64) -> f64 {
    let (tree, sink) = RcTree::uniform_wire(64, r_total, c_total, load_cap);
    tree.elmore_delay(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    #[test]
    fn single_rc_is_rc() {
        let mut t = RcTree::new(0.0);
        let n = t.add_node(RcTree::ROOT, 1000.0, 1e-12);
        assert!((t.elmore_delay(n) - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn root_delay_is_zero() {
        let t = RcTree::new(5e-12);
        assert_eq!(t.elmore_delay(RcTree::ROOT), 0.0);
    }

    #[test]
    fn branches_contribute_to_shared_path() {
        // Root -- R1 -- a, a -- R2 -- b, a -- R3 -- c.
        // Delay to b includes R1*(Ca+Cb+Cc) + R2*Cb.
        let mut t = RcTree::new(0.0);
        let a = t.add_node(RcTree::ROOT, 100.0, 1e-12);
        let b = t.add_node(a, 200.0, 2e-12);
        let c = t.add_node(a, 300.0, 3e-12);
        let expect_b = 100.0 * (1e-12 + 2e-12 + 3e-12) + 200.0 * 2e-12;
        assert!((t.elmore_delay(b) - expect_b).abs() < 1e-20);
        let expect_c = 100.0 * 6e-12 + 300.0 * 3e-12;
        assert!((t.elmore_delay(c) - expect_c).abs() < 1e-20);
    }

    #[test]
    fn uniform_wire_converges_to_half_rc() {
        // With many segments the distributed wire Elmore delay tends to
        // R*C/2 (+ R*C_load).
        let d = wire_delay(2000.0, 4e-12, 1e-12);
        let ideal = 2000.0 * 4e-12 / 2.0 + 2000.0 * 1e-12;
        assert!((d - ideal).abs() / ideal < 0.02, "d={d:e} ideal={ideal:e}");
    }

    #[test]
    fn total_cap_accumulates() {
        let (tree, _) = RcTree::uniform_wire(10, 100.0, 5e-12, 2e-12);
        assert!((tree.total_cap() - 7e-12).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "parent out of range")]
    fn bad_parent_panics() {
        let mut t = RcTree::new(0.0);
        t.add_node(7, 1.0, 1.0);
    }

    // Deterministic seeded sweeps over the same parameter boxes the
    // proptest strategies drew from.

    #[test]
    fn delay_monotone_in_load() {
        let mut rng = StdRng::seed_from_u64(0xE7_0001);
        for case in 0..256 {
            let r = rng.gen_range(1.0f64..1e4);
            let c = rng.gen_range(1e-15f64..1e-11);
            let load = rng.gen_range(0.0f64..1e-11);
            let d0 = wire_delay(r, c, load);
            let d1 = wire_delay(r, c, load + 1e-12);
            assert!(
                d1 > d0,
                "case {case}: r={r:e} c={c:e} load={load:e}: {d1:e} !> {d0:e}"
            );
        }
    }

    #[test]
    fn delay_scales_linearly_with_r() {
        let mut rng = StdRng::seed_from_u64(0xE7_0002);
        for case in 0..256 {
            let r = rng.gen_range(1.0f64..1e4);
            let c = rng.gen_range(1e-15f64..1e-11);
            let d1 = wire_delay(r, c, 0.0);
            let d2 = wire_delay(2.0 * r, c, 0.0);
            assert!(
                (d2 / d1 - 2.0).abs() < 1e-9,
                "case {case}: r={r:e} c={c:e}: ratio {}",
                d2 / d1
            );
        }
    }
}
