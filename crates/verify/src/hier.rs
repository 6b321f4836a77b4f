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
//!    [`crate::schematic::compose`] apply to flat geometry. A run of
//!    identical children at a fixed pitch, such as a tiled column's rows,
//!    is summarized by doubling rather than child by child, with the
//!    same result.
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
use std::ops::Range;
use std::sync::{Arc, Mutex};

use bisram_geom::{sweep, Coord, Orientation, Point, Rect, Transform};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenNet {
    /// End of the net's shapes in [`GraphSummary::shapes`]; they start
    /// where the previous open net's end.
    pub end: usize,
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
    /// The open nets' conductor shapes on or within 1 DBU of the frame,
    /// in cell-local coordinates, net after net — the only shapes
    /// through which a foreign shape can connect when extents do not
    /// overlap. One list per summary, not one per net: a big array's
    /// cached certificates hold hundreds of thousands of open nets.
    pub shapes: Vec<(Layer, Rect)>,
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

    /// Each open net with the index range of its shapes, in net order.
    fn open_ranges(&self) -> impl Iterator<Item = (&OpenNet, Range<usize>)> {
        self.open.iter().scan(0, |start, net| {
            let range = *start..net.end;
            *start = net.end;
            Some((net, range))
        })
    }
}

/// The cached verification outcome for one distinct cell.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    merge: MergeFn,
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
            merge: merge_summaries,
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
        let extracted = (self.merge)(&children, frame, |c| &c.extracted);
        let reference = (self.merge)(&children, frame, |c| &c.reference);

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
    file_components(&terminals, &frame_shapes, x.graph.devices.len())
}

/// Files components into a summary, given each one's device terminals
/// and its frame shapes tagged by component, each component's shapes
/// kept in input order (see [`open_nets`]).
fn file_components(
    terminals: &[usize],
    frame_shapes: &[(usize, Layer, Rect)],
    devices: usize,
) -> GraphSummary {
    let mut at = vec![0usize; terminals.len() + 1];
    for &(c, ..) in frame_shapes {
        at[c + 1] += 1;
    }
    prefix_sums(&mut at);
    let mut next = at.clone();
    let mut shapes = vec![(Layer::Metal1, Rect::EMPTY); frame_shapes.len()];
    for &(c, layer, r) in frame_shapes {
        shapes[next[c]] = (layer, r);
        next[c] += 1;
    }
    let mut out = open_nets(terminals, &at, devices);
    out.shapes = shapes;
    out
}

/// Turns per-component counts in `at[c + 1]` into slice bounds: component
/// `c`'s shapes go to `at[c]..at[c + 1]` — a counting sort's offsets.
fn prefix_sums(at: &mut [usize]) {
    for c in 1..at.len() {
        at[c] += at[c - 1];
    }
}

/// A summary without shapes yet, given each component's device terminals
/// and shape slice `at[c]..at[c + 1]`: a component without frame shapes
/// is closed and only counted, the rest are open nets in component
/// order. Lists are allocated at their final length: certificates stay
/// in the artifact cache, and a list grown push by push can hold twice
/// the entries it has.
fn open_nets(terminals: &[usize], at: &[usize], devices: usize) -> GraphSummary {
    let open = at.windows(2).filter(|w| w[0] < w[1]).count();
    let mut out = GraphSummary {
        devices,
        open: Vec::with_capacity(open),
        ..GraphSummary::default()
    };
    for (c, &terminals) in terminals.iter().enumerate() {
        if at[c] == at[c + 1] {
            out.closed_nets += 1;
            if terminals == 0 {
                out.closed_floating += 1;
            }
        } else {
            out.open.push(OpenNet {
                end: at[c + 1],
                terminals,
            });
        }
    }
    out
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
    file_components(&comp_terminals, &frame_shapes, devices)
}

// ---- Summary merging -----------------------------------------------------

/// Picks one side (extracted or reference) of a certificate.
type Side = fn(&CellCertificate) -> &GraphSummary;

/// How a container merges its children's summaries of one side.
type MergeFn = fn(&[(Arc<CellCertificate>, Transform)], Rect, Side) -> GraphSummary;

/// One input of [`merge_parts`]: a child's summary, or a summary of
/// consecutive children, placed in the container.
#[derive(Clone, Copy)]
struct Part<'s> {
    sum: &'s GraphSummary,
    /// Abutment frame of `sum`, in its own coordinates.
    extent: Rect,
    /// Each shape's provenance and each open net's first member (see
    /// [`Merged`]), counted from `child`; `None` for a child's own
    /// summary, whose shapes and nets are numbered in order.
    keys: Option<(&'s [u64], &'s [u64])>,
    t: Transform,
    /// Index of the first child the part stands for.
    child: usize,
}

impl Part<'_> {
    /// The provenance of shape `s`, counted from the container's first
    /// child.
    fn shape_key(&self, s: usize) -> u64 {
        ((self.child as u64) << 32) + self.keys.map_or(s as u64, |(prov, _)| prov[s])
    }

    /// The first member of open net `oi`, counted from the container's
    /// first child.
    fn net_key(&self, oi: usize) -> u64 {
        ((self.child as u64) << 32) + self.keys.map_or(oi as u64, |(_, first)| first[oi])
    }
}

/// A transient summary of consecutive children, with the keys that place
/// its content in the per-instance merge's order. Both keys read
/// `child << 32 | index`: the child, counted from the first child
/// covered, and an index into that child's own summary. A shape's key
/// (provenance) names the shape; an open net's key names the first of
/// its member nets. Open nets are in increasing first-member order, and
/// each net's shapes in provenance order.
struct Merged {
    sum: GraphSummary,
    prov: Vec<u64>,
    first: Vec<u64>,
    extent: Rect,
}

impl Merged {
    fn part(&self, t: Transform, child: usize) -> Part<'_> {
        Part {
            sum: &self.sum,
            extent: self.extent,
            keys: Some((&self.prov, &self.first)),
            t,
            child,
        }
    }
}

/// Merges the children's summaries of one side: sums the closed counts,
/// unions open nets of touching children through their boundary shapes,
/// and re-classifies the merged components against the container frame.
///
/// Maximal runs of consecutive children that share a certificate and an
/// orientation at a constant offset step — the rows of a tiled column —
/// are summarized at once ([`run_summary`]) and enter the merge as one
/// part each. The result equals the per-instance merge: counts, net
/// order and each net's shape order.
fn merge_summaries(
    children: &[(Arc<CellCertificate>, Transform)],
    frame: Rect,
    side: Side,
) -> GraphSummary {
    let runs = find_runs(children);
    // A lone run — a tiled column or row — is the whole container.
    if let [(0, n, step)] = runs[..] {
        if n > 1 {
            let (c, t) = &children[0];
            let mut sum = run_summary(side(c), c.extent, t.orientation, step, n).sum;
            for (_, r) in &mut sum.shapes {
                *r = r.translate(t.offset.to_vector());
            }
            sum.open.shrink_to_fit();
            sum.shapes.shrink_to_fit();
            return sum;
        }
    }
    type RunKey = (*const CellCertificate, Orientation, Point, usize);
    let key = |start: usize, len: usize, step: Point| -> RunKey {
        let (c, t) = &children[start];
        (Arc::as_ptr(c), t.orientation, step, len)
    };
    let mut built: HashMap<RunKey, Merged> = HashMap::new();
    for &(start, len, step) in runs.iter().filter(|r| r.1 > 1) {
        let (c, t) = &children[start];
        built
            .entry(key(start, len, step))
            .or_insert_with(|| run_summary(side(c), c.extent, t.orientation, step, len));
    }
    let single = |k: usize| {
        let (c, t) = &children[k];
        Part {
            sum: side(c),
            extent: c.extent,
            keys: None,
            t: *t,
            child: k,
        }
    };
    let mut parts: Vec<Part<'_>> = runs
        .iter()
        .map(
            |&(start, len, step)| match built.get(&key(start, len, step)) {
                Some(run) => run.part(Transform::translate(children[start].1.offset), start),
                None => single(start),
            },
        )
        .collect();
    // A run's summary drops the shapes inside its frame, which is sound
    // only while no other part reaches into that frame.
    if parts.len() < children.len() && parts_overlap(&parts) {
        parts = (0..children.len()).map(single).collect();
    }
    merge_parts(&parts, frame).sum
}

/// Splits the children into maximal runs `(first, len, step)` of
/// consecutive instances of one certificate in one orientation at a
/// constant offset step (a lone child's step is the origin). Only
/// certificates with a positive-area extent form runs: two such extents
/// one step apart do not overlap (the container checked), so they lie on
/// either side of a line — children two or more steps apart never touch,
/// and no shape strictly inside the frame of some children of a run can
/// touch the rest of it.
fn find_runs(children: &[(Arc<CellCertificate>, Transform)]) -> Vec<(usize, usize, Point)> {
    let mut runs = Vec::new();
    let mut start = 0;
    while let Some((c, t)) = children.get(start) {
        let (mut len, mut step) = (1, Point::ORIGIN);
        if c.extent.width() > 0 && c.extent.height() > 0 {
            while let Some((cn, tn)) = children.get(start + len) {
                let prev = children[start + len - 1].1.offset;
                let d = Point::new(tn.offset.x - prev.x, tn.offset.y - prev.y);
                if !Arc::ptr_eq(c, cn) || tn.orientation != t.orientation || (len > 1 && d != step)
                {
                    break;
                }
                step = d;
                len += 1;
            }
        }
        runs.push((start, len, step));
        start += len;
    }
    runs
}

/// True when two parts' placed extents overlap strictly.
fn parts_overlap(parts: &[Part<'_>]) -> bool {
    let extents: Vec<Rect> = parts.iter().map(|p| p.t.apply_rect(p.extent)).collect();
    let mut overlap = false;
    sweep::pair_sweep(&extents, 0, |i, j| {
        overlap |= extents[i].overlaps(extents[j]);
    });
    overlap
}

/// The summary of a run of `n` children that share `sum` (frame
/// `extent`), child `i` placed at `Transform::new(o, i·step)`.
///
/// Only neighbours touch, and every neighbour pair is the same
/// configuration, so one join finds the *linked* nets: those that touch
/// a net of the next or the previous child. Every other net of every
/// child is a component of its own inside the run. The linked nets are
/// summarized by doubling: S(2k) merges S(k) with a copy shifted by
/// k·step, and S(n) joins the powers of two of `n`'s binary form, lowest
/// first, so the children stay in order. The unlinked copies — a tiled
/// column's wordline ends and rails — are then placed once each and
/// interleaved by first member. A column of n rows so costs about n
/// times a row's unlinked nets plus log₂ n times its linked ones, not n
/// times every open net of a row.
fn run_summary(sum: &GraphSummary, extent: Rect, o: Orientation, step: Point, n: usize) -> Merged {
    let at = |i: usize| {
        let k = i as Coord;
        Transform::new(o, Point::new(step.x * k, step.y * k))
    };
    let mut linked = vec![false; sum.open.len()];
    for (a, b) in touching(sum, extent, sum, extent, at(1).then(at(0).inverse())) {
        (linked[a], linked[b]) = (true, true);
    }
    // S(1): child 0's linked nets alone, placed, keyed by their indices
    // in `sum`; they carry the child's closed counts. Placing a summary
    // at its own frame turns no shape interior.
    let mut one = Merged {
        sum: GraphSummary {
            closed_nets: sum.closed_nets,
            closed_floating: sum.closed_floating,
            devices: sum.devices,
            ..GraphSummary::default()
        },
        prov: Vec::new(),
        first: Vec::new(),
        extent: at(0).apply_rect(extent),
    };
    for (oi, (net, range)) in sum.open_ranges().enumerate() {
        if linked[oi] {
            one.prov.extend(range.clone().map(|s| s as u64));
            let placed = sum.shapes[range]
                .iter()
                .map(|&(l, r)| (l, at(0).apply_rect(r)));
            one.sum.shapes.extend(placed);
            one.sum.open.push(OpenNet {
                end: one.sum.shapes.len(),
                terminals: net.terminals,
            });
            one.first.push(oi as u64);
        }
    }
    let mut powers = vec![one];
    while 1usize << powers.len() <= n {
        let (k, half) = (powers.len() - 1, &powers[powers.len() - 1]);
        let double = join(half, half, 1 << k, step);
        powers.push(double);
    }
    let run = powers
        .into_iter()
        .enumerate()
        .filter(|&(j, _)| n >> j & 1 == 1)
        .map(|(j, power)| (1usize << j, power))
        .reduce(|(len, prefix), (more, power)| (len + more, join(&prefix, &power, len, step)))
        .map_or_else(|| merge_parts(&[], Rect::EMPTY), |(_, run)| run);
    add_unlinked(run, sum, &linked, n, at)
}

/// `a` followed by `b`, placed `a_len` steps further along the run.
fn join(a: &Merged, b: &Merged, a_len: usize, step: Point) -> Merged {
    let k = a_len as Coord;
    let shift = Transform::translate(Point::new(step.x * k, step.y * k));
    merge_parts(
        &[a.part(Transform::IDENTITY, 0), b.part(shift, a_len)],
        a.extent.union(shift.apply_rect(b.extent)),
    )
}

/// Completes a run's summary of linked components with every child's
/// copy of the unlinked nets of `sum` (child `i` placed at `at(i)`),
/// each classified against the run's frame and put in first-member
/// order among the linked components.
///
/// A child strictly inside the run sits at least one step from either
/// end of the frame, so which of its shapes stay outside the frame's
/// interior is the same for all such children: it is worked out once, at
/// child 1, and the inner children visit only those shapes.
fn add_unlinked(
    run: Merged,
    sum: &GraphSummary,
    linked: &[bool],
    n: usize,
    at: impl Fn(usize) -> Transform,
) -> Merged {
    let interior = run.extent.expand(-1);
    let kept = |t: Transform, s: usize| {
        let (layer, r) = sum.shapes[s];
        let r = t.apply_rect(r);
        (!interior.contains_rect(r)).then_some((layer, r))
    };
    // (net index, terminals, shapes, shapes kept at inner children)
    let unlinked: Vec<(u64, usize, Range<usize>, Vec<usize>)> = sum
        .open_ranges()
        .enumerate()
        .filter(|&(oi, _)| !linked[oi])
        .map(|(oi, (net, range))| {
            let inner = match n {
                0..=2 => Vec::new(),
                _ => range
                    .clone()
                    .filter(|&s| kept(at(1), s).is_some())
                    .collect(),
            };
            (oi as u64, net.terminals, range, inner)
        })
        .collect();
    let inner_closed = unlinked.iter().filter(|u| u.3.is_empty());
    let inners = n.saturating_sub(2);
    let mut out = Merged {
        sum: GraphSummary {
            closed_nets: run.sum.closed_nets + inners * inner_closed.clone().count(),
            closed_floating: run.sum.closed_floating
                + inners * inner_closed.filter(|u| u.1 == 0).count(),
            devices: run.sum.devices,
            ..GraphSummary::default()
        },
        prov: Vec::new(),
        first: Vec::new(),
        extent: run.extent,
    };
    let mut linked_nets = run.sum.open_ranges().zip(&run.first).peekable();
    // Copies the linked components whose first member precedes `key`.
    let mut linked_before = |out: &mut Merged, key: u64| {
        while let Some(((net, range), &first)) = linked_nets.next_if(|&(_, &first)| first < key) {
            out.sum
                .shapes
                .extend_from_slice(&run.sum.shapes[range.clone()]);
            out.prov.extend_from_slice(&run.prov[range]);
            out.sum.open.push(OpenNet {
                end: out.sum.shapes.len(),
                terminals: net.terminals,
            });
            out.first.push(first);
        }
    };
    for i in 0..n {
        let (t, child) = (at(i), (i as u64) << 32);
        let inner = 0 < i && i + 1 < n;
        for (oi, terminals, range, inner_kept) in &unlinked {
            if inner && inner_kept.is_empty() {
                continue;
            }
            linked_before(&mut out, child | oi);
            let start = out.sum.shapes.len();
            if inner {
                for &s in inner_kept {
                    let (layer, r) = sum.shapes[s];
                    out.sum.shapes.push((layer, t.apply_rect(r)));
                    out.prov.push(child | s as u64);
                }
            } else {
                for s in range.clone() {
                    if let Some(shape) = kept(t, s) {
                        out.sum.shapes.push(shape);
                        out.prov.push(child | s as u64);
                    }
                }
            }
            if out.sum.shapes.len() == start {
                out.sum.closed_nets += 1;
                if *terminals == 0 {
                    out.sum.closed_floating += 1;
                }
            } else {
                out.sum.open.push(OpenNet {
                    end: out.sum.shapes.len(),
                    terminals: *terminals,
                });
                out.first.push(child | oi);
            }
        }
    }
    linked_before(&mut out, u64::MAX);
    out
}

/// The open-net index pairs `(a, b)` through which `sa` (frame `ea`)
/// and `sb` (frame `eb`), placed by `rel` in `sa`'s coordinates, touch.
/// Only a shape that touches the other frame can touch a shape inside it.
fn touching(
    sa: &GraphSummary,
    ea: Rect,
    sb: &GraphSummary,
    eb: Rect,
    rel: Transform,
) -> Vec<(usize, usize)> {
    // Open shapes of `s` under `t` that touch `other`, bucketed by
    // layer, tagged with the net's index within `s`.
    let near = |s: &GraphSummary, t: Transform, other: Rect| {
        let mut side: Vec<(Vec<Rect>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); Layer::ALL.len()];
        for (oi, (_, range)) in s.open_ranges().enumerate() {
            for &(layer, r) in &s.shapes[range] {
                let r = t.apply_rect(r);
                if r.touches(other) {
                    let bucket = &mut side[layer.id().index() as usize];
                    bucket.0.push(r);
                    bucket.1.push(oi);
                }
            }
        }
        side
    };
    let a = near(sa, Transform::IDENTITY, rel.apply_rect(eb));
    let b = near(sb, rel, ea);
    let mut found = Vec::new();
    for ((ra, ia), (rb, ib)) in a.iter().zip(&b) {
        if !ra.is_empty() && !rb.is_empty() {
            sweep::join_sweep(ra, rb, 0, |x, y| found.push((ia[x], ib[y])));
        }
    }
    found.sort_unstable();
    found.dedup();
    found
}

/// Merges placed summaries, given in child order with extents that do
/// not overlap strictly: sums the closed counts, unions open nets of
/// touching parts through their frame shapes, and re-classifies the
/// merged components against `frame` in first-appearance order.
fn merge_parts(parts: &[Part<'_>], frame: Rect) -> Merged {
    let mut base = Vec::with_capacity(parts.len());
    let (mut total, mut closed, mut floating, mut devices) = (0usize, 0, 0, 0);
    for p in parts {
        base.push(total);
        total += p.sum.open.len();
        closed += p.sum.closed_nets;
        floating += p.sum.closed_floating;
        devices += p.sum.devices;
    }
    // Union across pairs of touching parts. Which open nets of the two
    // parts touch depends only on the two summaries and their relative
    // placement, so the local index pairs are computed once per such
    // configuration — a big array has thousands of abutting pairs but a
    // handful of configurations — and replayed for every pair. The memo
    // keys on the exact (summary, summary, relative transform) tuple;
    // summaries are compared by identity, which is sound because `parts`
    // borrows each one for the whole call. Nets of one part never need a
    // self-union here: they were already merged (or proven separate)
    // when the part was summarized, and transforms preserve touching.
    let extents: Vec<Rect> = parts.iter().map(|p| p.t.apply_rect(p.extent)).collect();
    let mut uf = sweep::UnionFind::new(total);
    let mut pairs = Vec::new();
    sweep::pair_sweep(&extents, 0, |i, j| pairs.push((i, j)));
    pairs.sort_unstable();
    type Config = (*const GraphSummary, *const GraphSummary, Transform);
    let mut memo: HashMap<Config, Vec<(usize, usize)>> = HashMap::new();
    for &(i, j) in &pairs {
        let (pi, pj) = (&parts[i], &parts[j]);
        // `j` placed in `i`'s local frame.
        let rel = pj.t.then(pi.t.inverse());
        let unions = memo
            .entry((pi.sum, pj.sum, rel))
            .or_insert_with(|| touching(pi.sum, pi.extent, pj.sum, pj.extent, rel));
        for &(a, b) in unions.iter() {
            uf.union(base[i] + a, base[j] + b);
        }
    }
    // Components in first-appearance order, re-classified vs the frame:
    // one pass numbers the components and counts their frame shapes, a
    // second writes each shape into its component's slice.
    let interior = frame.expand(-1);
    let kept = |p: &Part<'_>, s: usize| {
        let (layer, r) = p.sum.shapes[s];
        let r = p.t.apply_rect(r);
        (!interior.contains_rect(r)).then_some((layer, r))
    };
    let mut comp_of_root = vec![usize::MAX; total];
    let mut comp_of_net = Vec::with_capacity(total);
    let (mut comp_terminals, mut comp_first) = (Vec::new(), Vec::new());
    let mut at = vec![0usize; total + 1];
    for p in parts {
        for (oi, (net, range)) in p.sum.open_ranges().enumerate() {
            let fresh = comp_terminals.len();
            let ci = comp_for(
                &mut comp_of_root[uf.find(comp_of_net.len())],
                &mut comp_terminals,
            );
            if ci == fresh {
                comp_first.push(p.net_key(oi));
            }
            comp_of_net.push(ci);
            comp_terminals[ci] += net.terminals;
            at[ci + 1] += range.filter(|&s| kept(p, s).is_some()).count();
        }
    }
    at.truncate(comp_terminals.len() + 1);
    prefix_sums(&mut at);
    let mut next = at.clone();
    let kept_total = at[comp_terminals.len()];
    let mut shapes = vec![(Layer::Metal1, Rect::EMPTY); kept_total];
    let mut prov = vec![0u64; kept_total];
    let mut nets = comp_of_net.iter();
    for p in parts {
        for ((_, range), &ci) in p.sum.open_ranges().zip(&mut nets) {
            for s in range {
                if let Some(shape) = kept(p, s) {
                    shapes[next[ci]] = shape;
                    prov[next[ci]] = p.shape_key(s);
                    next[ci] += 1;
                }
            }
        }
    }
    // A component that joined two nets of one part, each spanning
    // several children, can interleave their shapes; provenance order is
    // the per-instance merge's order.
    for c in 0..comp_terminals.len() {
        let range = at[c]..at[c + 1];
        if !prov[range.clone()].is_sorted() {
            let mut group: Vec<_> = prov[range.clone()]
                .iter()
                .copied()
                .zip(shapes[range.clone()].iter().copied())
                .collect();
            group.sort_unstable_by_key(|&(prov, _)| prov);
            for (k, (p, shape)) in range.zip(group) {
                (prov[k], shapes[k]) = (p, shape);
            }
        }
    }
    let mut sum = open_nets(&comp_terminals, &at, devices);
    sum.shapes = shapes;
    sum.closed_nets += closed;
    sum.closed_floating += floating;
    let first = (0..comp_first.len())
        .filter(|&c| at[c] < at[c + 1])
        .map(|c| comp_first[c])
        .collect();
    Merged {
        sum,
        prov,
        first,
        extent: frame,
    }
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
                extracted_at: ext.shapes.first().map(|&(_, r)| r),
                reference_at: rf.shapes.first().map(|&(_, r)| r),
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
mod oracle;

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
                assert_eq!(side.shapes.capacity(), side.shapes.len(), "{}", cell.name());
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
