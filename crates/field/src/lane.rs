//! The lane scheduler: up to 64 device lifetimes simulated in lockstep.
//!
//! [`simulate_lifetimes_lane`] is the batched counterpart of
//! [`crate::simulate_lifetime`]: one packed array walk per session
//! advances a whole batch, with per-lane RNG streams, TLBs and outcome
//! bookkeeping. It is bit-exact against the golden scalar path — every
//! per-lane [`LifetimeOutcome`] field matches `simulate_lifetime` of the
//! same seed, except that the event log is not materialized (fleet
//! aggregation never reads it, and building 64 interleaved logs would
//! cost more than the simulation).
//!
//! # Why lockstep batching is exact, not approximate
//!
//! The in-field fault population is per-cell stuck-at only (one
//! first-hit arrival per physical row), which collapses the scalar
//! engine's screen → retry → diagnose ladder into one packed run:
//!
//! * A transparent run leaves a stuck-at-only memory *unchanged* (stuck
//!   cells already hold their stuck value, everything else is restored),
//!   so the scalar path's bounded re-screens are provably identical
//!   re-runs. The retry classification therefore needs no extra walks:
//!   an alarm is a transient iff `max_retries >= 1` and the *memory*
//!   signature (before any soft-upset flip) was clean.
//! * The same invariance means the word-exact diagnosis the scalar path
//!   runs as a separate pass reads the same state — so the packed run
//!   computes signatures and per-row mismatch masks in one pass
//!   ([`bisram_bist::lane::run_transparent_lanes`]).
//! * Lanes are fully independent (no shared cells, masked writes), so
//!   devices at different points of their repair history coexist in one
//!   walk; lanes that fail fatally retire from the active mask and cost
//!   nothing afterwards.
//!
//! Session skipping, soft-upset draws, the pessimistic spare screen,
//! incremental repair through per-lane TLBs, degradation to detect-only
//! and the repair-round bound all follow the golden control flow
//! decision for decision — in the same RNG draw order, which is what
//! the byte-identity tests in `fleet.rs` and `tests/determinism.rs`
//! pin down.

use crate::sim::{
    sample_arrivals, Arrival, DegradationState, FailureCause, FieldConfig, LifetimeOutcome,
    SparePolicy,
};
use bisram_bist::lane::{march_row_lanes, run_transparent_lanes, LaneRowMap};
use bisram_bist::RowMap;
use bisram_mem::{lane_mask, FaultKind, LaneSram, ALL_LANES, LANE_WIDTH};
use bisram_repair::{Tlb, TlbError};
use bisram_rng::rngs::StdRng;
use bisram_rng::{Rng, SeedableRng};

/// Iterates the set lane indices of a mask, ascending.
fn lanes(mask: u64) -> impl Iterator<Item = usize> {
    let mut m = mask;
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(l)
        }
    })
}

/// Simulates one lifetime per seed (at most [`LANE_WIDTH`]) in lockstep,
/// returning the outcomes in seed order.
///
/// Each outcome equals `simulate_lifetime(config, seeds[i])` field for
/// field, except `events`, which is left empty (see module docs).
///
/// # Panics
///
/// Panics when `seeds` is empty or holds more than [`LANE_WIDTH`]
/// entries.
pub fn simulate_lifetimes_lane(config: &FieldConfig, seeds: &[u64]) -> Vec<LifetimeOutcome> {
    assert!(
        !seeds.is_empty() && seeds.len() <= LANE_WIDTH,
        "a lane batch holds 1..=64 lifetimes"
    );
    let org = config.org;
    let n = seeds.len();

    // Per-lane streams: RNG, pre-sampled arrivals, arrival cursor, TLB.
    let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
    let arrivals: Vec<Vec<Arrival>> = rngs
        .iter_mut()
        .map(|rng| sample_arrivals(config, rng))
        .collect();
    let mut next_arrival = vec![0usize; n];
    let mut tlbs: Vec<Tlb> = (0..n)
        .map(|_| Tlb::new(org.rows(), org.spare_rows()))
        .collect();
    let mut outs: Vec<LifetimeOutcome> = vec![LifetimeOutcome::default(); n];
    // Per logical row: lanes holding that row in their unrepairable map.
    let mut unrep: Vec<u64> = vec![0; org.rows()];

    // Shared packed memory with the golden path's resident user data.
    let mut sram = LaneSram::new(org);
    let data_mask = if org.bpw() >= 64 {
        u64::MAX
    } else {
        (1u64 << org.bpw()) - 1
    };
    for addr in 0..org.words() {
        let (row, col) = org.split(addr);
        sram.write_word_uniform(row, col, addr as u64 & data_mask);
    }

    // Lane status masks. `alive`: not fatally failed (the golden path's
    // `break 'sessions`); `clean`: last session screened clean (fresh
    // silicon counts as clean); `detect_only`: degraded lanes.
    let mut alive = lane_mask(n);
    let mut clean = alive;
    let mut detect_only = 0u64;

    for k in 1..=config.sessions() {
        if alive == 0 {
            break; // every lane retired: the batch is done early
        }
        let t = k as f64 * config.session_period_hours;

        // Activate every defect that arrived inside this window. The
        // in-field stream is stuck-at only; injection at the session
        // instant equals the golden stage-then-activate (nothing reads
        // the array in between).
        let mut activated = 0u64;
        for l in lanes(alive) {
            let bit = 1u64 << l;
            let arr = &arrivals[l];
            while next_arrival[l] < arr.len() && arr[next_arrival[l]].time_hours <= t {
                let a = arr[next_arrival[l]];
                if let FaultKind::StuckAt(v) = a.fault.kind {
                    sram.inject_stuck(a.fault.cell, if v { ALL_LANES } else { 0 }, bit);
                }
                next_arrival[l] += 1;
                activated |= bit;
            }
        }

        // Soft-upset draws — one per alive lane per session whenever the
        // probability is positive, exactly the golden draw order.
        let mut upset = 0u64;
        if config.transient_upset_probability > 0.0 {
            for l in lanes(alive) {
                if rngs[l].gen_bool(config.transient_upset_probability) {
                    upset |= 1u64 << l;
                }
            }
        }

        // Quiet-session skip per lane.
        let run_mask = alive & (activated | upset | !clean);
        for l in lanes(alive & !run_mask) {
            outs[l].sessions_skipped += 1;
        }
        for l in lanes(run_mask) {
            outs[l].sessions_run += 1;
        }
        if run_mask == 0 {
            continue;
        }

        let mut session = run_mask;

        // Pessimistic policy: destructively march the spares no repair is
        // using yet. Decomposed per spare row — each running lane marches
        // exactly its own unused spares, which is op-for-op what the
        // scalar row-subset march does to that lane's cells.
        if config.spare_policy == SparePolicy::Pessimistic {
            let mut fatal = 0u64;
            for s in 0..org.spare_rows() {
                let mut marchers = 0u64;
                for l in lanes(session) {
                    if tlbs[l].used() <= s {
                        marchers |= 1u64 << l;
                    }
                }
                if marchers != 0 {
                    fatal |= march_row_lanes(&config.test, &mut sram, org.rows() + s, marchers);
                }
            }
            for l in lanes(fatal) {
                fail_lane(&mut outs[l], t, FailureCause::SpareFault);
            }
            alive &= !fatal;
            session &= !fatal;
        }

        // Degraded lanes only diagnose; healthy lanes run the repair
        // loop. Both share the first packed transparent run.
        let detect_run = session & detect_only;
        let mut loop_mask = session & !detect_only;
        let mut upset_pending = upset & loop_mask;
        let mut rounds = vec![0usize; n];
        let mut round = 0usize;

        loop {
            let run_set = loop_mask | if round == 0 { detect_run } else { 0 };
            if run_set == 0 {
                break;
            }
            let map = build_lane_map(&tlbs, run_set);
            let mut res = run_transparent_lanes(&config.test, &mut sram, &map, run_set);

            if round == 0 && detect_run != 0 {
                // Detect-only operation: extend the unrepairable map from
                // the word-exact mismatches, nothing more. Never clean.
                for (u, &f) in unrep.iter_mut().zip(&res.row_faults) {
                    *u |= f & detect_run;
                }
                clean &= !detect_run;
            }
            if loop_mask == 0 {
                break;
            }

            // Signature-level memory detection — evaluated before any
            // soft-upset flip, which is what the golden path's retries
            // converge to (a transparent re-run is an identical re-run).
            let memory_detected = res.detected_lanes(loop_mask);
            for l in lanes(upset_pending) {
                // Same draw expression as the golden path, so the stream
                // stays aligned: `1u64 << rng.gen_range(0..64)`.
                let flip: u64 = 1u64 << rngs[l].gen_range(0..64);
                res.observed
                    .flip_signature_bit(flip.trailing_zeros() as usize, 1u64 << l);
            }
            upset_pending = 0;
            let detected = res.detected_lanes(loop_mask);

            // Clean screens end the lane's session.
            let clean_now = loop_mask & !detected;
            clean |= clean_now;
            loop_mask &= !clean_now;

            // Transient dismissal by re-screen: with at least one retry
            // allowed, an alarm with a clean memory signature is a soft
            // upset.
            let transient = if config.max_retries >= 1 {
                loop_mask & detected & !memory_detected
            } else {
                0
            };
            for l in lanes(transient) {
                outs[l].transients_dismissed += 1;
            }
            clean |= transient;
            loop_mask &= !transient;

            // Hard alarms: word-exact diagnosis, spare-backed check,
            // incremental repair — per lane, against the shared array.
            let mut exited = 0u64;
            for l in lanes(loop_mask) {
                let bit = 1u64 << l;
                let rows: Vec<usize> = (0..org.rows())
                    .filter(|&r| res.row_faults[r] & bit != 0)
                    .collect();
                if rows.is_empty() {
                    // Signature-only disturbance with nothing word-exact
                    // behind it (e.g. an upset with max_retries = 0).
                    outs[l].transients_dismissed += 1;
                    clean |= bit;
                    exited |= bit;
                    continue;
                }
                if config.spare_policy == SparePolicy::Pessimistic
                    && rows.iter().any(|&r| tlbs[l].is_mapped(r))
                {
                    fail_lane(&mut outs[l], t, FailureCause::SpareFault);
                    alive &= !bit;
                    exited |= bit;
                    continue;
                }
                // Incremental repair: capture each faulty row onto the
                // next spare and migrate its live data for this lane.
                let mut mapped = 0usize;
                let mut unmapped: Vec<usize> = Vec::new();
                for &r in &rows {
                    let source = tlbs[l].map_row(r);
                    match tlbs[l].capture(r) {
                        Ok(spare) => {
                            let dest = tlbs[l].spare_row(spare);
                            sram.copy_row_lane(source, dest, bit);
                            mapped += 1;
                        }
                        Err(TlbError::Exhausted { .. }) => unmapped.push(r),
                        Err(TlbError::RowOutOfRange { .. }) => {} // r < rows(): unreachable
                    }
                }
                outs[l].rows_repaired += mapped;
                if !unmapped.is_empty() {
                    if config.spare_policy == SparePolicy::Pessimistic {
                        fail_lane(&mut outs[l], t, FailureCause::SparesExhausted);
                        alive &= !bit;
                    } else {
                        degrade_lane(
                            &mut outs[l],
                            &mut detect_only,
                            &mut unrep,
                            bit,
                            t,
                            FailureCause::SparesExhausted,
                            &unmapped,
                        );
                        clean &= !bit;
                    }
                    exited |= bit;
                    continue;
                }
                if mapped == 0 {
                    degrade_lane(
                        &mut outs[l],
                        &mut detect_only,
                        &mut unrep,
                        bit,
                        t,
                        FailureCause::FaultsPersist,
                        &rows,
                    );
                    clean &= !bit;
                    exited |= bit;
                    continue;
                }
                rounds[l] += 1;
                if rounds[l] > org.spare_rows() + 1 {
                    degrade_lane(
                        &mut outs[l],
                        &mut detect_only,
                        &mut unrep,
                        bit,
                        t,
                        FailureCause::FaultsPersist,
                        &rows,
                    );
                    clean &= !bit;
                    exited |= bit;
                }
            }
            loop_mask &= !exited;
            round += 1;
        }
    }

    // Materialize the per-lane unrepairable maps (bitmask rows are
    // already sorted and deduplicated by construction).
    for (l, out) in outs.iter_mut().enumerate() {
        let bit = 1u64 << l;
        out.unrepairable_rows = (0..org.rows()).filter(|&r| unrep[r] & bit != 0).collect();
    }
    outs
}

/// Stamps a fatal failure and retires the lane (the golden `fail` +
/// `break 'sessions`). Overwrites any earlier degradation stamp, exactly
/// like the scalar path.
fn fail_lane(out: &mut LifetimeOutcome, t: f64, cause: FailureCause) {
    out.failure_time_hours = Some(t);
    out.failure_cause = Some(cause);
}

/// Enters detect-only degraded operation for one lane; the first
/// degradation stamps the failure time, later ones only extend the
/// unrepairable map.
#[allow(clippy::too_many_arguments)]
fn degrade_lane(
    out: &mut LifetimeOutcome,
    detect_only: &mut u64,
    unrep: &mut [u64],
    lane_bit: u64,
    t: f64,
    cause: FailureCause,
    rows: &[usize],
) {
    if out.state == DegradationState::Healthy {
        out.state = DegradationState::DetectOnly;
        out.failure_time_hours = Some(t);
        out.failure_cause = Some(cause);
    }
    *detect_only |= lane_bit;
    for &r in rows {
        unrep[r] |= lane_bit;
    }
}

/// Builds the per-lane row map of the selected lanes from their TLBs.
fn build_lane_map(tlbs: &[Tlb], active: u64) -> LaneRowMap {
    let mut map = LaneRowMap::identity();
    for l in lanes(active) {
        let tlb = &tlbs[l];
        let mut rows: Vec<usize> = tlb.entries().map(|(row, _)| row).collect();
        rows.sort_unstable();
        rows.dedup();
        for row in rows {
            map.map_lane(row, tlb.map_row(row), 1u64 << l);
        }
    }
    map
}
