//! Hierarchical (instance-aware) verification with verified-clean
//! certificates.
//!
//! Flat verification flattens every macrocell, so its cost grows with
//! total placed area — a 1 Mb array re-checks the same bit cell a
//! million times. The hierarchical engine instead:
//!
//! 1. verifies each *distinct* cell once, keyed by a content hash of its
//!    geometry and instance tree, caching a [`CellCertificate`] in a
//!    [`CertificateStore`];
//! 2. for every pure container, runs a *boundary-interaction pass*: only
//!    geometry within the halo — the largest rule distance,
//!    [`crate::drc::interaction_distance`] — of a pair of instance
//!    abutment boxes is flattened (via `Cell::flatten_window_into`) and
//!    design-rule checked, with findings clipped back to the shared
//!    boundary strip;
//! 3. merges connectivity *summaries* instead of re-extracting: a
//!    certificate records, for both the extracted and the reference
//!    graph, the counts of nets that can no longer grow ("closed") plus
//!    the boundary shapes of nets that reach the cell's abutment frame
//!    ("open"). A container unions the open nets of touching children —
//!    the same connect-by-abutment model the extractor and
//!    [`crate::schematic::compose`] apply to flat geometry.
//!
//! On clean designs the assembled [`CellVerifyReport`] is byte-identical
//! to the flat one: every count is provably equal (cross-instance merges
//! can only happen through boundary shapes when instance extents do not
//! overlap) and a clean run renders no violation or mismatch lines. When
//! child extents *do* overlap strictly, the container falls back to flat
//! extraction for its own summary, trading speed for exactness.
//!
//! Window checks are deduplicated by content: a uniform tiling has
//! thousands of geometrically identical boundary pairs but only a
//! handful of distinct (masters, relative placement) configurations, so
//! each is checked once and its findings are translated to every
//! occurrence.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bisram_geom::{sweep, Coord, Point, Rect, Transform};
use bisram_layout::{Cell, Instance};
use bisram_tech::{DesignRules, Layer};

use crate::drc::{self, DrcViolation};
use crate::error::VerifyError;
use crate::extract::{extract, Extracted};
use crate::lvs::{LvsMismatch, LvsReport, MismatchKind};
use crate::report::CellVerifyReport;
use crate::schematic::{self, CellSchematic, SchematicLib};

/// A net that reaches its cell's abutment frame and may still merge
/// with nets of sibling instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenNet {
    /// The net's conductor shapes on or within 1 DBU of the frame, in
    /// cell-local coordinates — the only shapes through which a foreign
    /// shape can connect when extents do not overlap.
    pub shapes: Vec<(Layer, Rect)>,
    /// Device terminals (gate + source/drain references) on the net.
    pub terminals: usize,
}

/// Net-graph totals of one side (extracted or reference) of a cell,
/// reduced to what merging across instance boundaries can still change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphSummary {
    /// Nets with no shape on the abutment frame: final, just counted.
    pub closed_nets: usize,
    /// Closed nets with zero device terminals.
    pub closed_floating: usize,
    /// Total devices in the subtree.
    pub devices: usize,
    /// Nets that reach the frame, in deterministic net order.
    pub open: Vec<OpenNet>,
}

impl GraphSummary {
    /// Total net count as flat extraction/composition would report it.
    pub fn nets(&self) -> usize {
        self.closed_nets + self.open.len()
    }

    /// Total terminal-free net count.
    pub fn floating(&self) -> usize {
        self.closed_floating + self.open.iter().filter(|n| n.terminals == 0).count()
    }
}

/// The cached verification outcome for one distinct cell.
#[derive(Debug, Clone)]
pub struct CellCertificate {
    /// Abutment frame: bounding box of the subtree's geometry and every
    /// recorded open shape, in local coordinates. Parents test sibling
    /// interaction (and the flat-fallback condition) against it.
    pub extent: Rect,
    /// DRC findings for the subtree, local coordinates, class-sorted.
    pub drc: Vec<DrcViolation>,
    /// Structural LVS mismatches for the subtree, local coordinates.
    pub lvs_mismatches: Vec<LvsMismatch>,
    /// First verification error met in the subtree, if any.
    pub error: Option<VerifyError>,
    /// Summary of the extracted (layout) connectivity.
    pub extracted: GraphSummary,
    /// Summary of the reference (schematic) connectivity.
    pub reference: GraphSummary,
}

/// Where certificates are cached between cells and between runs.
///
/// `key` folds in everything a certificate reads: the cell's content
/// hash, the design-rule fingerprint, and the content of the schematic
/// entries its subtree resolves. One store can therefore serve several
/// schematic libraries without a salt.
pub trait CertificateStore {
    /// Returns the certificate for `key`, building it at most once per
    /// distinct key. `build` must be called outside any lock that
    /// `get_or_build` itself takes (it recurses into the store).
    fn get_or_build(
        &self,
        key: u64,
        build: &mut dyn FnMut() -> CellCertificate,
    ) -> Arc<CellCertificate>;
}

/// A store that never caches: every call builds. Still fast for a
/// single `verify_cell_hier` call because the engine memoizes shared
/// `Arc<Cell>` subtrees by pointer within one run.
pub struct NoCertStore;

impl CertificateStore for NoCertStore {
    fn get_or_build(
        &self,
        _key: u64,
        build: &mut dyn FnMut() -> CellCertificate,
    ) -> Arc<CellCertificate> {
        Arc::new(build())
    }
}

/// A simple thread-safe in-memory store, useful for tests and for
/// standalone (non-pipeline) hierarchical verification.
#[derive(Default)]
pub struct MemCertStore {
    map: Mutex<HashMap<u64, Arc<CellCertificate>>>,
    builds: Mutex<usize>,
}

impl MemCertStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many certificates were built (cache misses) so far.
    pub fn builds(&self) -> usize {
        *self.builds.lock().expect("store poisoned")
    }

    /// How many distinct certificates the store holds.
    pub fn len(&self) -> usize {
        self.map.lock().expect("store poisoned").len()
    }

    /// True when the store holds no certificates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CertificateStore for MemCertStore {
    fn get_or_build(
        &self,
        key: u64,
        build: &mut dyn FnMut() -> CellCertificate,
    ) -> Arc<CellCertificate> {
        if let Some(c) = self.map.lock().expect("store poisoned").get(&key) {
            return c.clone();
        }
        // Build outside the lock: `build` recurses back into the store
        // for child cells. Duplicate concurrent builds are acceptable —
        // certificates are pure functions of the key.
        let built = Arc::new(build());
        *self.builds.lock().expect("store poisoned") += 1;
        self.map
            .lock()
            .expect("store poisoned")
            .entry(key)
            .or_insert(built)
            .clone()
    }
}

// ---- Content hashing -----------------------------------------------------

/// FNV/Fx-style mixing step (same recipe as the pipeline's content
/// keys): deterministic across runs and platforms, no `std::hash`.
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

fn mix_coord(h: u64, c: Coord) -> u64 {
    mix(h, c as u64)
}

fn mix_str(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(mix(h, s.len() as u64), |h, b| mix(h, b as u64))
}

fn mix_rect(h: u64, r: Rect) -> u64 {
    let h = mix_coord(h, r.left());
    let h = mix_coord(h, r.bottom());
    let h = mix_coord(h, r.right());
    mix_coord(h, r.top())
}

/// Folds a transform's effect: the images of the two unit vectors (which
/// identify the orientation without relying on enum discriminants) plus
/// the offset.
fn mix_transform(h: u64, t: Transform) -> u64 {
    let o = Transform::new(t.orientation, Point::new(0, 0));
    let (ex, ey) = (
        o.apply_point(Point::new(1, 0)),
        o.apply_point(Point::new(0, 1)),
    );
    let h = mix_coord(h, ex.x);
    let h = mix_coord(h, ex.y);
    let h = mix_coord(h, ey.x);
    let h = mix_coord(h, ey.y);
    let h = mix_coord(h, t.offset.x);
    mix_coord(h, t.offset.y)
}

/// Content hash of a cell: name, bounding box (which folds in any
/// outline override), own shapes, and the placed children's content.
/// Ports and instance names are excluded — they do not affect
/// verification. Shared `Arc` subtrees are memoized by pointer.
fn cell_hash(cell: &Cell, memo: &mut HashMap<*const Cell, u64>) -> u64 {
    let ptr: *const Cell = cell;
    if let Some(&h) = memo.get(&ptr) {
        return h;
    }
    let mut h = mix_str(0x9e37_79b9_7f4a_7c15, cell.name());
    h = mix_rect(h, cell.bbox());
    for &(layer, r) in cell.shapes() {
        h = mix(h, u64::from(layer.id().index()));
        h = mix_rect(h, r);
    }
    for inst in cell.instances() {
        h = mix_transform(h, inst.transform);
        h = mix(h, cell_hash(&inst.master, memo));
    }
    memo.insert(ptr, h);
    h
}

/// Content hash of one schematic library entry: everything composition
/// and LVS read from it.
fn schematic_hash(s: &CellSchematic) -> u64 {
    let mut h = mix_str(0x5c4e_3a71_c0de_0001, &s.name);
    h = mix(h, s.nets.len() as u64);
    for net in &s.nets {
        h = mix_str(h, &net.name);
        h = mix(h, net.anchors.len() as u64);
        for &(layer, r) in &net.anchors {
            h = mix(h, u64::from(layer.id().index()));
            h = mix_rect(h, r);
        }
    }
    h = mix(h, s.devices.len() as u64);
    for d in &s.devices {
        h = mix(h, d.polarity as u64);
        h = mix_coord(h, d.w);
        h = mix_coord(h, d.l);
        h = mix(h, d.gate as u64);
        h = mix(h, d.sd[0] as u64);
        h = mix(h, d.sd[1] as u64);
        h = mix_rect(h, d.location);
    }
    h
}

/// Fingerprint of the library entries a cell's certificate reads: the
/// entries `schematic::collect` resolves for it — those of the
/// geometry-bearing cells in its subtree, looked up by name (a missing
/// entry counts too: it becomes the certificate's error). Shared `Arc`
/// subtrees are memoized by pointer.
fn lib_hash(cell: &Cell, lib: &SchematicLib, memo: &mut HashMap<*const Cell, u64>) -> u64 {
    let ptr: *const Cell = cell;
    if let Some(&h) = memo.get(&ptr) {
        return h;
    }
    let h = if cell.shapes().is_empty() {
        cell.instances()
            .iter()
            .fold(0x1b5c_0f3e_9a27_d64b, |h, inst| {
                mix(h, lib_hash(&inst.master, lib, memo))
            })
    } else {
        lib.get(cell.name())
            .map_or(0x6d15_5106, |s| schematic_hash(s))
    };
    memo.insert(ptr, h);
    h
}

/// Fingerprint of the rule values verification depends on, so one store
/// can serve several processes.
fn rules_fingerprint(rules: &DesignRules) -> u64 {
    let mut h = mix(0xcbf2_9ce4_8422_2325, rules.lambda() as u64);
    for layer in Layer::ALL {
        h = mix_coord(h, rules.min_width(layer));
        h = mix_coord(h, rules.min_space(layer));
    }
    for v in [
        rules.cut_enclosure(),
        rules.gate_extension(),
        rules.sd_extension(),
        rules.poly_active_space(),
        rules.well_enclosure(),
        rules.select_enclosure(),
    ] {
        h = mix_coord(h, v);
    }
    h
}

// ---- Transform helpers ---------------------------------------------------

fn transform_violation(v: &DrcViolation, t: Transform) -> DrcViolation {
    DrcViolation {
        rect: t.apply_rect(v.rect),
        other: v.other.map(|o| t.apply_rect(o)),
        ..v.clone()
    }
}

fn transform_mismatch(m: &LvsMismatch, t: Transform) -> LvsMismatch {
    LvsMismatch {
        extracted_at: m.extracted_at.map(|r| t.apply_rect(r)),
        reference_at: m.reference_at.map(|r| t.apply_rect(r)),
        ..m.clone()
    }
}

/// Total deterministic order for violations, used to sort and
/// deduplicate merged findings (a window can re-find a violation a
/// child certificate already carries).
fn violation_key(v: &DrcViolation) -> impl Ord {
    (
        v.class,
        v.layer.id().index(),
        [v.rect.left(), v.rect.bottom(), v.rect.right(), v.rect.top()],
        v.other
            .map(|o| [o.left(), o.bottom(), o.right(), o.top()])
            .unwrap_or([Coord::MIN; 4]),
        v.actual,
        v.required,
    )
}

// ---- The engine ----------------------------------------------------------

struct Hier<'a> {
    rules: &'a DesignRules,
    lib: &'a SchematicLib,
    store: &'a dyn CertificateStore,
    rules_fp: u64,
    halo: Coord,
    hash_memo: HashMap<*const Cell, u64>,
    lib_memo: HashMap<*const Cell, u64>,
    cert_memo: HashMap<*const Cell, Arc<CellCertificate>>,
}

impl<'a> Hier<'a> {
    fn new(rules: &'a DesignRules, lib: &'a SchematicLib, store: &'a dyn CertificateStore) -> Self {
        Hier {
            rules,
            lib,
            store,
            rules_fp: rules_fingerprint(rules),
            halo: drc::interaction_distance(rules),
            hash_memo: HashMap::new(),
            lib_memo: HashMap::new(),
            cert_memo: HashMap::new(),
        }
    }

    fn certify(&mut self, cell: &Cell) -> Arc<CellCertificate> {
        let ptr: *const Cell = cell;
        if let Some(c) = self.cert_memo.get(&ptr) {
            return c.clone();
        }
        let key = mix(
            mix(self.rules_fp, cell_hash(cell, &mut self.hash_memo)),
            lib_hash(cell, self.lib, &mut self.lib_memo),
        );
        let store = self.store;
        let cert = store.get_or_build(key, &mut || self.build_cert(cell));
        self.cert_memo.insert(ptr, cert.clone());
        cert
    }

    fn build_cert(&mut self, cell: &Cell) -> CellCertificate {
        // Geometry-bearing cells resolve through the schematic library
        // without recursing (mirroring `schematic::compose`), so they are
        // verified flat, as are trivial cells with no instances.
        if !cell.shapes().is_empty() || cell.instances().is_empty() {
            return self.flat_cert(cell);
        }
        let insts = cell.instances();
        let children: Vec<(Arc<CellCertificate>, Transform)> = insts
            .iter()
            .map(|i| (self.certify(&i.master), i.transform))
            .collect();
        let extents: Vec<Rect> = children
            .iter()
            .map(|(c, t)| t.apply_rect(c.extent))
            .collect();

        // Strictly overlapping extents break the only-through-the-frame
        // merging argument; fall back to flat verification of this cell.
        let mut overlapping = false;
        sweep::pair_sweep(&extents, 0, |i, j| {
            if extents[i].overlaps(extents[j]) {
                overlapping = true;
            }
        });
        if overlapping {
            return self.flat_cert(cell);
        }

        let mut error = children.iter().find_map(|(c, _)| c.error.clone());

        // DRC: child findings (transformed) plus the boundary pass, then
        // sorted and deduplicated into a total order.
        let mut drcv: Vec<DrcViolation> = Vec::new();
        for (c, t) in &children {
            drcv.extend(c.drc.iter().map(|v| transform_violation(v, *t)));
        }
        match self.boundary_pass(insts, &extents) {
            Ok(found) => drcv.extend(found),
            Err(e) => {
                if error.is_none() {
                    error = Some(e);
                }
            }
        }
        drcv.sort_by_key(violation_key);
        drcv.dedup();

        let mismatches: Vec<LvsMismatch> = children
            .iter()
            .flat_map(|(c, t)| c.lvs_mismatches.iter().map(|m| transform_mismatch(m, *t)))
            .collect();

        let frame = Rect::bounding(extents.iter().copied()).unwrap_or(Rect::EMPTY);
        let extracted = merge_summaries(&children, &extents, frame, |c| &c.extracted);
        let reference = merge_summaries(&children, &extents, frame, |c| &c.reference);

        CellCertificate {
            extent: frame,
            drc: drcv,
            lvs_mismatches: mismatches,
            error,
            extracted,
            reference,
        }
    }

    /// Verifies one cell on flattened geometry — the leaf (and fallback)
    /// path. DRC, extraction, and LVS match `crate::verify_cell` exactly;
    /// on top the connectivity is summarized against the abutment frame.
    fn flat_cert(&mut self, cell: &Cell) -> CellCertificate {
        let shapes = cell.flatten();
        let geo = cell.geometry_extent();
        let mut cert = CellCertificate {
            extent: geo,
            drc: Vec::new(),
            lvs_mismatches: Vec::new(),
            error: None,
            extracted: GraphSummary::default(),
            reference: GraphSummary::default(),
        };
        match drc::check(self.rules, &shapes) {
            Ok(v) => cert.drc = v,
            Err(e) => {
                cert.error = Some(e);
                return cert;
            }
        }
        let extracted = match extract(&shapes) {
            Ok(x) => x,
            Err(e) => {
                cert.error = Some(e);
                return cert;
            }
        };
        let mut placed: Vec<(Arc<CellSchematic>, Transform, String)> = Vec::new();
        if let Err(e) = schematic::collect(cell, Transform::IDENTITY, "", self.lib, &mut placed) {
            cert.error = Some(e.into());
            cert.extracted = summarize_extracted(&extracted, geo);
            return cert;
        }
        // The frame must contain every shape either side can merge
        // through; anchors nominally sit inside the drawn geometry but
        // the union keeps the classification sound regardless.
        let mut frame = geo;
        for (s, t, _) in &placed {
            for net in &s.nets {
                for &(_, r) in &net.anchors {
                    frame = frame.union(t.apply_rect(r));
                }
            }
        }
        cert.extent = frame;
        cert.extracted = summarize_extracted(&extracted, frame);
        cert.reference = summarize_reference(&placed, frame);
        match schematic::compose(cell, self.lib) {
            Ok(reference) => {
                cert.lvs_mismatches = crate::lvs::compare(&extracted.graph, &reference).mismatches;
            }
            Err(e) => cert.error = Some(e.into()),
        }
        cert
    }

    /// The boundary-interaction pass of one container: for every pair of
    /// children whose extents come within one halo of each other, check
    /// the shared window and keep the findings that touch it. Windows
    /// are cached by content, so uniform tilings check each distinct
    /// boundary configuration once.
    fn boundary_pass(
        &mut self,
        insts: &[Instance],
        extents: &[Rect],
    ) -> Result<Vec<DrcViolation>, VerifyError> {
        let halo = self.halo;
        let master_hash: Vec<u64> = insts
            .iter()
            .map(|i| cell_hash(&i.master, &mut self.hash_memo))
            .collect();
        // Pairs within 2·halo: candidates for window context. Pairs
        // within one halo get a window of their own (shapes further
        // apart than the halo can never co-violate).
        let mut pairs = Vec::new();
        sweep::pair_sweep(extents, 2 * halo, |i, j| pairs.push((i, j)));
        pairs.sort_unstable();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); extents.len()];
        for &(i, j) in &pairs {
            adj[i].push(j);
            adj[j].push(i);
        }
        let mut cache: HashMap<u64, Vec<DrcViolation>> = HashMap::new();
        let mut out = Vec::new();
        let mut cand: Vec<usize> = Vec::new();
        let mut shapes: Vec<(Layer, Rect)> = Vec::new();
        for &(i, j) in &pairs {
            if extents[i].spacing(extents[j]) >= halo {
                continue;
            }
            let Some(window) = extents[i]
                .expand(halo)
                .intersection(extents[j].expand(halo))
            else {
                continue;
            };
            let region = window.expand(halo);
            cand.clear();
            cand.push(i);
            cand.push(j);
            for &k in adj[i].iter().chain(&adj[j]) {
                if k != i && k != j && extents[k].touches(region) {
                    cand.push(k);
                }
            }
            cand.sort_unstable();
            cand.dedup();
            // Canonicalize on the window's lower-left corner: identical
            // (masters, relative placement, relative window) pairs share
            // one check.
            let origin = window.ll();
            let unshift = Transform::translate(origin);
            let shift = unshift.inverse();
            let mut key = mix_rect(0xb0a2_11eb, shift.apply_rect(window));
            for &k in &cand {
                key = mix(key, master_hash[k]);
                key = mix_transform(key, insts[k].transform.then(shift));
            }
            let found = match cache.get(&key) {
                Some(f) => f,
                None => {
                    shapes.clear();
                    let local_region = shift.apply_rect(region);
                    for &k in &cand {
                        insts[k].master.flatten_window_into(
                            insts[k].transform.then(shift),
                            local_region,
                            &mut shapes,
                        );
                    }
                    let local_window = shift.apply_rect(window);
                    let found = drc::check_clipped(self.rules, &shapes, local_window)?;
                    cache.entry(key).or_insert(found)
                }
            };
            out.extend(found.iter().map(|v| transform_violation(v, unshift)));
        }
        Ok(out)
    }
}

/// Reduces an extracted graph to its boundary summary against `frame`.
fn summarize_extracted(x: &Extracted, frame: Rect) -> GraphSummary {
    let terminals = x.graph.terminal_counts();
    let interior = frame.expand(-1);
    let frame_shapes: Vec<(usize, Layer, Rect)> = x
        .nodes
        .iter()
        .filter(|&&(_, r, _)| !interior.contains_rect(r))
        .map(|&(layer, r, net)| (net, layer, r))
        .collect();
    let mut out = GraphSummary {
        devices: x.graph.devices.len(),
        ..GraphSummary::default()
    };
    let shapes = group_shapes(x.graph.nets.len(), &frame_shapes);
    file_components(shapes, &terminals, &mut out);
    out
}

/// Groups `(component, layer, rect)` frame shapes by component, in
/// input order within each. Every list is allocated at its final
/// length: certificates stay in the artifact cache, and a list grown
/// push by push holds up to four times the shapes it has (a one-shape
/// list reserves four).
fn group_shapes(comps: usize, frame_shapes: &[(usize, Layer, Rect)]) -> Vec<Vec<(Layer, Rect)>> {
    let mut lens = vec![0usize; comps];
    for &(c, _, _) in frame_shapes {
        lens[c] += 1;
    }
    let mut groups: Vec<Vec<(Layer, Rect)>> = lens.into_iter().map(Vec::with_capacity).collect();
    for &(c, layer, r) in frame_shapes {
        groups[c].push((layer, r));
    }
    groups
}

/// Files each component of a summary, given its frame shapes and
/// device terminals: one without frame shapes is closed and only
/// counted, the rest are kept as open nets.
fn file_components(shapes: Vec<Vec<(Layer, Rect)>>, terminals: &[usize], out: &mut GraphSummary) {
    for (shapes, &terminals) in shapes.into_iter().zip(terminals) {
        if shapes.is_empty() {
            out.closed_nets += 1;
            if terminals == 0 {
                out.closed_floating += 1;
            }
        } else {
            out.open.push(OpenNet { shapes, terminals });
        }
    }
    out.open.shrink_to_fit();
}

/// The component index a union-find root maps to (`usize::MAX` while
/// unassigned), appending a fresh component with no terminals on first
/// sight — so components come out in first-appearance order.
fn comp_for(slot: &mut usize, comp_terminals: &mut Vec<usize>) -> usize {
    if *slot == usize::MAX {
        *slot = comp_terminals.len();
        comp_terminals.push(0);
    }
    *slot
}

/// Builds the reference-side summary from placed schematics, merging
/// anchors exactly like `schematic::compose` and classifying the merged
/// components against `frame`.
fn summarize_reference(
    placed: &[(Arc<CellSchematic>, Transform, String)],
    frame: Rect,
) -> GraphSummary {
    let mut base = Vec::with_capacity(placed.len());
    let mut total = 0usize;
    for (s, _, _) in placed {
        base.push(total);
        total += s.nets.len();
    }
    let mut terminals = vec![0usize; total];
    let mut devices = 0usize;
    for (k, (s, _, _)) in placed.iter().enumerate() {
        devices += s.devices.len();
        for d in &s.devices {
            terminals[base[k] + d.gate] += 1;
            terminals[base[k] + d.sd[0]] += 1;
            terminals[base[k] + d.sd[1]] += 1;
        }
    }
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
    let interior = frame.expand(-1);
    let mut comp_of_root = vec![usize::MAX; total];
    let (mut comp_terminals, mut frame_shapes) = (Vec::new(), Vec::new());
    for (k, (s, t, _)) in placed.iter().enumerate() {
        for (ni, net) in s.nets.iter().enumerate() {
            let g = base[k] + ni;
            let ci = comp_for(&mut comp_of_root[uf.find(g)], &mut comp_terminals);
            comp_terminals[ci] += terminals[g];
            for &(layer, r) in &net.anchors {
                let rr = t.apply_rect(r);
                if !interior.contains_rect(rr) {
                    frame_shapes.push((ci, layer, rr));
                }
            }
        }
    }
    let mut out = GraphSummary {
        devices,
        ..GraphSummary::default()
    };
    let shapes = group_shapes(comp_terminals.len(), &frame_shapes);
    file_components(shapes, &comp_terminals, &mut out);
    out
}

/// Merges the children's summaries of one side: sums the closed counts,
/// unions open nets of touching children through their boundary shapes,
/// and re-classifies the merged components against the container frame.
fn merge_summaries(
    children: &[(Arc<CellCertificate>, Transform)],
    extents: &[Rect],
    frame: Rect,
    pick: impl Fn(&CellCertificate) -> &GraphSummary,
) -> GraphSummary {
    let mut out = GraphSummary::default();
    let mut base = Vec::with_capacity(children.len());
    let mut total = 0usize;
    for (c, _) in children {
        let s = pick(c);
        base.push(total);
        total += s.open.len();
        out.closed_nets += s.closed_nets;
        out.closed_floating += s.closed_floating;
        out.devices += s.devices;
    }
    // Union across pairs of touching children. Which open nets of the
    // two children touch depends only on the two certificates and their
    // relative placement, so the local index pairs are computed once per
    // such configuration — a big array has thousands of abutting pairs
    // but a handful of configurations — and replayed for every pair. The
    // memo keys on the exact (certificate, certificate, relative
    // transform) tuple; certificates are compared by identity, which is
    // sound because `children` keeps each one alive for the whole call.
    // Nets of one child never need a self-union here: they were already
    // merged (or proven separate) when the child was summarized, and
    // transforms preserve touching.
    let nl = Layer::ALL.len();
    let mut uf = sweep::UnionFind::new(total);
    let mut pairs = Vec::new();
    sweep::pair_sweep(extents, 0, |i, j| pairs.push((i, j)));
    pairs.sort_unstable();
    type Config = (*const CellCertificate, *const CellCertificate, Transform);
    let mut memo: HashMap<Config, Vec<(usize, usize)>> = HashMap::new();
    let mut side_a: Vec<(Vec<Rect>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); nl];
    let mut side_b: Vec<(Vec<Rect>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); nl];
    // Open shapes of `c` under `t`, bucketed by layer, tagged with the
    // net's index within `c`.
    let fill = |side: &mut Vec<(Vec<Rect>, Vec<usize>)>, c: &CellCertificate, t: Transform| {
        for (r, i) in side.iter_mut() {
            r.clear();
            i.clear();
        }
        for (oi, net) in pick(c).open.iter().enumerate() {
            for &(layer, r) in &net.shapes {
                let idx = layer.id().index() as usize;
                side[idx].0.push(t.apply_rect(r));
                side[idx].1.push(oi);
            }
        }
    };
    for &(i, j) in &pairs {
        let ((ci, ti), (cj, tj)) = (&children[i], &children[j]);
        // `j` placed in `i`'s local frame.
        let rel = tj.then(ti.inverse());
        let unions = memo
            .entry((Arc::as_ptr(ci), Arc::as_ptr(cj), rel))
            .or_insert_with(|| {
                fill(&mut side_a, ci, Transform::IDENTITY);
                fill(&mut side_b, cj, rel);
                let mut found = Vec::new();
                for l in 0..nl {
                    let ((ra, ia), (rb, ib)) = (&side_a[l], &side_b[l]);
                    if ra.is_empty() || rb.is_empty() {
                        continue;
                    }
                    sweep::join_sweep(ra, rb, 0, |x, y| found.push((ia[x], ib[y])));
                }
                found.sort_unstable();
                found.dedup();
                found
            });
        for &(a, b) in unions.iter() {
            uf.union(base[i] + a, base[j] + b);
        }
    }
    // Components in first-appearance order, re-classified vs the frame.
    let interior = frame.expand(-1);
    let mut comp_of_root = vec![usize::MAX; total];
    let (mut comp_terminals, mut frame_shapes) = (Vec::new(), Vec::new());
    for (k, (c, t)) in children.iter().enumerate() {
        for (oi, net) in pick(c).open.iter().enumerate() {
            let ci = comp_for(
                &mut comp_of_root[uf.find(base[k] + oi)],
                &mut comp_terminals,
            );
            comp_terminals[ci] += net.terminals;
            for &(layer, r) in &net.shapes {
                let rr = t.apply_rect(r);
                if !interior.contains_rect(rr) {
                    frame_shapes.push((ci, layer, rr));
                }
            }
        }
    }
    let shapes = group_shapes(comp_terminals.len(), &frame_shapes);
    file_components(shapes, &comp_terminals, &mut out);
    out
}

/// Hierarchically verifies one cell — the instance-aware equivalent of
/// [`crate::verify_cell`]. On clean designs the returned report renders
/// byte-identically to the flat one.
pub fn verify_cell_hier(
    rules: &DesignRules,
    cell: &Cell,
    lib: &SchematicLib,
    store: &dyn CertificateStore,
) -> CellVerifyReport {
    let mut engine = Hier::new(rules, lib, store);
    let cert = engine.certify(cell);
    let mut report = CellVerifyReport {
        cell: cell.name().to_string(),
        shape_count: cell.flat_shape_count(),
        drc: cert.drc.clone(),
        lvs: None,
        error: cert.error.clone(),
    };
    if report.error.is_some() {
        return report;
    }
    let (ext, rf) = (&cert.extracted, &cert.reference);
    let mut mismatches = cert.lvs_mismatches.clone();
    mismatches.sort_by_key(|m| (m.kind, m.label));
    // Totals can disagree without a structural mismatch when nets merge
    // *across* an instance boundary (e.g. a bridge between two placed
    // cells). Synthesize a totals entry so the defect is flagged; on
    // clean designs totals agree and nothing is added.
    if mismatches.is_empty() {
        if ext.nets() != rf.nets() || ext.floating() != rf.floating() {
            mismatches.push(LvsMismatch {
                kind: MismatchKind::Net,
                label: 0,
                extracted_count: ext.nets(),
                reference_count: rf.nets(),
                description: format!(
                    "net totals disagree across instance boundaries \
                     (layout {} nets / {} floating, schematic {} / {})",
                    ext.nets(),
                    ext.floating(),
                    rf.nets(),
                    rf.floating()
                ),
                extracted_at: ext
                    .open
                    .first()
                    .and_then(|n| n.shapes.first())
                    .map(|&(_, r)| r),
                reference_at: rf
                    .open
                    .first()
                    .and_then(|n| n.shapes.first())
                    .map(|&(_, r)| r),
            });
        } else if ext.devices != rf.devices {
            mismatches.push(LvsMismatch {
                kind: MismatchKind::Device,
                label: 0,
                extracted_count: ext.devices,
                reference_count: rf.devices,
                description: "device totals disagree across instance boundaries".to_string(),
                extracted_at: None,
                reference_at: None,
            });
        }
    }
    report.lvs = Some(LvsReport {
        extracted_nets: ext.nets(),
        extracted_devices: ext.devices,
        extracted_floating: ext.floating(),
        reference_nets: rf.nets(),
        reference_devices: rf.devices,
        reference_floating: rf.floating(),
        mismatches,
    });
    report
}

/// Runs only the boundary-interaction DRC pass over the direct children
/// of a pure container — the design-level check a floorplan needs on
/// top of its macros' own certificates. The container's own shapes (if
/// any) are ignored; findings are sorted and deduplicated.
pub fn boundary_findings(
    rules: &DesignRules,
    cell: &Cell,
) -> Result<Vec<DrcViolation>, VerifyError> {
    let lib = SchematicLib::new();
    let store = NoCertStore;
    let mut engine = Hier::new(rules, &lib, &store);
    let insts = cell.instances();
    let extents: Vec<Rect> = insts
        .iter()
        .map(|i| i.transform.apply_rect(i.master.geometry_extent()))
        .collect();
    let mut found = engine.boundary_pass(insts, &extents)?;
    found.sort_by_key(violation_key);
    found.dedup();
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_cell;
    use bisram_geom::Orientation;
    use bisram_layout::leaf::LeafSpec;
    use bisram_tech::Process;

    fn grid(process: &Process, nx: i64, ny: i64) -> Cell {
        let master = Arc::new(LeafSpec::Sram6t.build(process));
        let ext = master.geometry_extent();
        let (dx, dy) = (ext.width(), ext.height());
        let mut top = Cell::new("grid");
        for r in 0..ny {
            for c in 0..nx {
                top.add_instance(
                    format!("i_{r}_{c}"),
                    master.clone(),
                    Transform::translate(Point::new(c * dx, r * dy)),
                );
            }
        }
        top
    }

    #[test]
    fn hier_report_matches_flat_on_clean_grid() {
        let process = Process::cda07();
        let lib = SchematicLib::standard(&process);
        for (nx, ny) in [(1, 1), (4, 1), (3, 3)] {
            let top = grid(&process, nx, ny);
            let flat = verify_cell(process.rules(), &top, &lib);
            let hier = verify_cell_hier(process.rules(), &top, &lib, &NoCertStore);
            assert!(flat.is_clean(), "flat dirty:\n{flat}");
            assert_eq!(
                flat.to_string(),
                hier.to_string(),
                "{nx}x{ny} grid diverged"
            );
        }
    }

    #[test]
    fn certificates_are_built_once_per_distinct_cell() {
        let process = Process::cda07();
        let lib = SchematicLib::standard(&process);
        let store = MemCertStore::new();
        let top = grid(&process, 8, 8);
        let first = verify_cell_hier(process.rules(), &top, &lib, &store);
        // One leaf certificate + one container certificate.
        assert_eq!(store.builds(), 2, "distinct cells certified more than once");
        // A content-identical second run hits the store for everything.
        let top2 = grid(&process, 8, 8);
        let second = verify_cell_hier(process.rules(), &top2, &lib, &store);
        assert_eq!(store.builds(), 2);
        assert_eq!(first.to_string(), second.to_string());
    }

    #[test]
    fn certificate_shape_lists_hold_no_spare_capacity() {
        // Certificates stay cached as long as the artifact cache does.
        let process = Process::cda07();
        let lib = SchematicLib::standard(&process);
        let top = grid(&process, 4, 4);
        for cell in [&*top.instances()[0].master, &top] {
            let cert = Hier::new(process.rules(), &lib, &NoCertStore).certify(cell);
            for side in [&cert.extracted, &cert.reference] {
                assert!(!side.open.is_empty(), "{}", cell.name());
                assert_eq!(side.open.capacity(), side.open.len());
                for net in &side.open {
                    assert_eq!(net.shapes.capacity(), net.shapes.len(), "{}", cell.name());
                }
            }
        }
    }

    #[test]
    fn certificate_keys_cover_the_resolved_schematic_entries() {
        // Two libraries that differ in one device width of the one entry
        // the grid resolves: a store shared between them must not hand
        // the first library's certificates to the second.
        let process = Process::cda07();
        let lib = SchematicLib::standard(&process);
        let mut wider = SchematicLib::standard(&process);
        let mut sram = (**lib.get("sram6t").expect("standard entry")).clone();
        sram.devices[0].w += process.rules().lambda();
        wider.insert(sram);
        let store = MemCertStore::new();
        let top = grid(&process, 4, 4);
        let first = verify_cell_hier(process.rules(), &top, &lib, &store);
        assert!(first.is_clean(), "{first}");
        let second = verify_cell_hier(process.rules(), &top, &wider, &store);
        let fresh = verify_cell_hier(process.rules(), &top, &wider, &NoCertStore);
        assert!(!fresh.is_clean(), "the width change must show in LVS");
        assert_eq!(second.to_string(), fresh.to_string());
        // An entry the cell never resolves does not split the key.
        let mut unrelated = SchematicLib::standard(&process);
        let mut dff = (**lib.get("dff").expect("standard entry")).clone();
        dff.devices[0].w += process.rules().lambda();
        unrelated.insert(dff);
        let builds = store.builds();
        let third = verify_cell_hier(process.rules(), &top, &unrelated, &store);
        assert_eq!(store.builds(), builds);
        assert_eq!(third.to_string(), first.to_string());
    }

    #[test]
    fn missing_schematic_surfaces_like_flat() {
        let process = Process::cda07();
        let top = grid(&process, 2, 1);
        let empty = SchematicLib::new();
        let flat = verify_cell(process.rules(), &top, &empty);
        let hier = verify_cell_hier(process.rules(), &top, &empty, &NoCertStore);
        assert_eq!(
            hier.error,
            Some(VerifyError::MissingSchematic {
                cell: "sram6t".into()
            })
        );
        assert_eq!(hier.error, flat.error);
        assert!(hier.lvs.is_none() && !hier.is_clean());
    }

    #[test]
    fn boundary_spacing_defect_is_caught_by_the_window_pass() {
        // Two clean cells placed 1λ apart vertically: each certificate
        // is clean, so only the boundary pass can see the violation.
        let process = Process::cda07();
        let lam = process.rules().lambda();
        let lib = SchematicLib::standard(&process);
        let master = Arc::new(LeafSpec::Sram6t.build(&process));
        let mut top = Cell::new("pair");
        top.add_instance("a", master.clone(), Transform::IDENTITY);
        top.add_instance(
            "b",
            master.clone(),
            Transform::translate(Point::new(0, master.geometry_extent().height() + lam)),
        );
        let hier = verify_cell_hier(process.rules(), &top, &lib, &NoCertStore);
        assert!(!hier.drc.is_empty(), "boundary violation missed");
        // The flat checker agrees on the defect set.
        let flat = verify_cell(process.rules(), &top, &lib);
        assert_eq!(hier.drc, flat.drc, "flat:\n{flat}\nhier:\n{hier}");
    }

    #[test]
    fn empty_cell_verifies_clean() {
        let process = Process::cda07();
        let lib = SchematicLib::new();
        let top = Cell::new("void");
        let report = verify_cell_hier(process.rules(), &top, &lib, &NoCertStore);
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            report.to_string(),
            verify_cell(process.rules(), &top, &lib).to_string()
        );
    }

    /// `rows` copies of one `bits`-wide row of 6T cells stacked in a
    /// column, every odd row mirrored across x (MX) so that row pairs
    /// share their well and their ground rail.
    fn mirrored_column(process: &Process, rows: i64, bits: usize) -> Cell {
        let sram = Arc::new(LeafSpec::Sram6t.build(process));
        let row = Arc::new(bisram_layout::tile::tile_row("row", sram, bits));
        let h = row.bbox().height();
        let mut column = Cell::new("column");
        for r in 0..rows {
            let t = if r % 2 == 0 {
                Transform::translate(Point::new(0, r * h))
            } else {
                Transform::new(Orientation::Mx, Point::new(0, (r + 1) * h))
            };
            column.add_instance(format!("r{r}"), row.clone(), t);
        }
        column
    }

    #[test]
    fn hier_matches_flat_on_tall_mirrored_column() {
        // One row certificate, two merge configurations: normal under
        // MX meets on the well side, where only the bitlines join; MX
        // under normal meets on the rail side, where the ground rails
        // join too. A memo keyed on the certificates alone would replay
        // one side's unions for both.
        let process = Process::cda07();
        let lib = SchematicLib::standard(&process);
        let column = mirrored_column(&process, 48, 4);
        let flat = verify_cell(process.rules(), &column, &lib);
        let hier = verify_cell_hier(process.rules(), &column, &lib, &NoCertStore);
        assert!(flat.is_clean(), "flat dirty:\n{flat}");
        assert_eq!(flat.to_string(), hier.to_string());
    }

    #[test]
    fn merge_memo_tells_orientations_apart_at_equal_offsets() {
        // A 100λ-square cell centred on the origin with one metal-1 tab
        // on its north edge and one on its south edge, both at the west
        // end. Stacked at a fixed pitch, a row directly above an
        // identically oriented row joins its tab to the one below; above
        // an MY-mirrored row it lands on the east end and joins nothing.
        // Both placements share the certificates *and* the relative
        // offset, so only the orientation in the memo key separates them.
        let process = Process::cda07();
        let lam = process.rules().lambda();
        let tab = |y0: i64| Rect::new(-50 * lam, y0 * lam, -40 * lam, (y0 + 10) * lam);
        let (north, south) = (tab(40), tab(-50));
        // A full-width bar keeps the extent (and so the pairing) the
        // same in both orientations.
        let bar = Rect::new(-50 * lam, -5 * lam, 50 * lam, 5 * lam);
        let mut cell = Cell::new("tabbed");
        for r in [north, south, bar] {
            cell.add_shape(Layer::Metal1, r);
        }
        let cell = Arc::new(cell);
        let mut lib = SchematicLib::new();
        lib.insert(CellSchematic {
            name: "tabbed".into(),
            nets: [("n", north), ("s", south), ("bar", bar)]
                .into_iter()
                .map(|(name, r)| schematic::SchematicNet {
                    name: name.into(),
                    anchors: vec![(Layer::Metal1, r)],
                })
                .collect(),
            devices: Vec::new(),
        });
        let mut column = Cell::new("column");
        for (k, o) in ["R0", "R0", "MY", "MY", "R0", "MY", "R0", "R0"]
            .iter()
            .enumerate()
        {
            let o = if *o == "MY" {
                Orientation::My
            } else {
                Orientation::R0
            };
            let at = Point::new(0, k as i64 * 100 * lam);
            column.add_instance(format!("t{k}"), cell.clone(), Transform::new(o, at));
        }
        let flat = verify_cell(process.rules(), &column, &lib);
        let hier = verify_cell_hier(process.rules(), &column, &lib, &NoCertStore);
        assert!(flat.is_clean(), "flat dirty:\n{flat}");
        assert_eq!(flat.to_string(), hier.to_string());
    }

    /// A 3λ-wide metal-1 strip just east of a mirrored column, spanning
    /// from row 0's VDD rail up to row 1's. The two rails are distinct
    /// nets, so the strip shorts them unless the strip's schematic says
    /// it is meant to connect them (`anchored`).
    fn bridged_column(process: &Process, anchored: bool) -> (Cell, SchematicLib) {
        let lam = process.rules().lambda();
        let bits = 4;
        let mut column = mirrored_column(process, 8, bits);
        let x = bits as i64 * 26 * lam;
        let strip = Rect::new(x, 22 * lam, x + 3 * lam, (40 + 18) * lam);
        let mut bridge = Cell::new("bridge");
        bridge.add_shape(Layer::Metal1, strip);
        column.add_instance("bridge", Arc::new(bridge), Transform::IDENTITY);
        let mut lib = SchematicLib::standard(process);
        lib.insert(CellSchematic {
            name: "bridge".into(),
            nets: vec![schematic::SchematicNet {
                name: "strap".into(),
                anchors: if anchored {
                    vec![(Layer::Metal1, strip)]
                } else {
                    Vec::new()
                },
            }],
            devices: Vec::new(),
        });
        (column, lib)
    }

    #[test]
    fn bridge_between_adjacent_rows_is_reported_like_flat() {
        let process = Process::cda07();
        let rules = process.rules();
        // As a drawn strap the strip is legal and both engines agree
        // byte for byte: the (row, bridge) merges replay per row
        // orientation, separately from the (row, row) ones.
        let (column, lib) = bridged_column(&process, true);
        let flat = verify_cell(rules, &column, &lib);
        let hier = verify_cell_hier(rules, &column, &lib, &NoCertStore);
        assert!(flat.is_clean(), "flat dirty:\n{flat}");
        assert_eq!(flat.to_string(), hier.to_string());

        // As an unintended bridge it shorts two rails. Flat LVS names the
        // short by net label; hier flags the same totals across the
        // instance boundary. Everything both engines count must agree.
        let (column, lib) = bridged_column(&process, false);
        let flat = verify_cell(rules, &column, &lib);
        let hier = verify_cell_hier(rules, &column, &lib, &NoCertStore);
        assert!(!flat.is_clean() && !hier.is_clean(), "bridge missed");
        assert_eq!(hier.drc, flat.drc);
        assert_eq!(hier.shape_count, flat.shape_count);
        let (f, h) = (flat.lvs.expect("flat lvs"), hier.lvs.expect("hier lvs"));
        assert_eq!(
            (f.extracted_nets, f.extracted_devices, f.extracted_floating),
            (h.extracted_nets, h.extracted_devices, h.extracted_floating)
        );
        assert_eq!(
            (f.reference_nets, f.reference_devices, f.reference_floating),
            (h.reference_nets, h.reference_devices, h.reference_floating)
        );
        assert_eq!(f.extracted_nets + 2, f.reference_nets, "short not seen");
    }

    #[test]
    fn clean_floorplan_boundary_pass_finds_nothing() {
        let process = Process::cda07();
        let top = grid(&process, 4, 4);
        let found = boundary_findings(process.rules(), &top).expect("consistent geometry");
        assert!(found.is_empty(), "{found:?}");
    }
}
