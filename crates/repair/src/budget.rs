//! Chip-level spare allocation under an area budget.
//!
//! A chip instantiates many heterogeneous bisram macros; each macro's
//! diagnosis produces a *demand* (how many faulty rows need replacing),
//! and the chip has a finite redundancy area budget to spend across all
//! of them. The allocator's objective is lexicographic:
//!
//! 1. maximize the total number of rows repaired chip-wide (every
//!    repaired row is a row that no longer produces field errors),
//! 2. among plans repairing that many rows, minimize area spent,
//! 3. break remaining ties deterministically (lowest macro index, then
//!    lowest ordinal) so reports are reproducible bit-for-bit.
//!
//! Because every row repair is one unit of value and costs a fixed
//! per-macro area, the greedy that grants unit row repairs in ascending
//! `(cost, macro, ordinal)` order is exactly optimal — the classical
//! exchange argument: any optimal plan that skips a cheapest affordable
//! unit can swap one of its units for it without losing value or gaining
//! cost. [`allocate_exact`] is the brute-force reference used by tests
//! to certify the greedy on every small case.

/// One macro's repair demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacroDemand {
    /// Index of the macro on the chip.
    pub macro_index: usize,
    /// Faulty rows diagnosis wants replaced.
    pub rows_needed: usize,
    /// Area cost of granting one spare row in this macro (its row pitch
    /// × width, in budget units).
    pub row_cost: u64,
    /// Spare rows physically available in this macro — grants beyond
    /// this are impossible no matter the budget.
    pub max_rows: usize,
}

impl MacroDemand {
    /// Rows that could possibly be granted: `min(rows_needed, max_rows)`.
    pub fn grantable(&self) -> usize {
        self.rows_needed.min(self.max_rows)
    }
}

/// Rows granted to one macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Index of the macro on the chip.
    pub macro_index: usize,
    /// Rows granted (≤ the macro's grantable demand).
    pub rows: usize,
}

/// A complete allocation plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationPlan {
    /// Per-macro grants, ascending by macro index, zero-row grants
    /// included for every demanding macro (explicit is auditable).
    pub grants: Vec<Grant>,
    /// Budget supplied.
    pub budget: u64,
    /// Budget actually spent.
    pub spent: u64,
    /// Total rows requested chip-wide (capped per macro at its spares).
    pub rows_requested: usize,
    /// Total rows granted chip-wide.
    pub rows_granted: usize,
}

impl AllocationPlan {
    /// True when every grantable row was granted.
    pub fn fully_granted(&self) -> bool {
        self.rows_granted == self.rows_requested
    }

    /// The grant for one macro (0 when the macro demanded nothing).
    pub fn rows_for(&self, macro_index: usize) -> usize {
        self.grants
            .iter()
            .find(|g| g.macro_index == macro_index)
            .map_or(0, |g| g.rows)
    }
}

/// Grants unit row repairs in ascending `(row_cost, macro_index,
/// ordinal)` order while the budget lasts. Optimal for the lexicographic
/// maximize-rows-then-minimize-cost objective (see module docs).
pub fn allocate_greedy(demands: &[MacroDemand], budget: u64) -> AllocationPlan {
    // Unit items, canonically ordered.
    let mut items: Vec<(u64, usize, usize)> = Vec::new();
    for d in demands {
        for ordinal in 0..d.grantable() {
            items.push((d.row_cost, d.macro_index, ordinal));
        }
    }
    items.sort_unstable();

    let mut grants: Vec<Grant> = demands
        .iter()
        .map(|d| Grant {
            macro_index: d.macro_index,
            rows: 0,
        })
        .collect();
    grants.sort_unstable_by_key(|g| g.macro_index);
    let mut spent = 0u64;
    let mut rows_granted = 0usize;
    for (cost, macro_index, _) in items {
        if spent + cost > budget {
            // Units are sorted by cost: a costlier later unit cannot fit
            // either, but an equal-cost one cannot fit *a fortiori* —
            // stopping at the first unaffordable unit is exact.
            break;
        }
        spent += cost;
        rows_granted += 1;
        if let Some(g) = grants.iter_mut().find(|g| g.macro_index == macro_index) {
            g.rows += 1;
        }
    }
    AllocationPlan {
        grants,
        budget,
        spent,
        rows_requested: demands.iter().map(|d| d.grantable()).sum(),
        rows_granted,
    }
}

/// Brute-force reference: enumerates every per-macro grant combination
/// and keeps the lexicographically best `(rows_granted, -spent,
/// grant-vector matching greedy's fill order)` plan. Exponential — test
/// use only, on small cases.
///
/// # Panics
///
/// Panics when the search space exceeds 2²⁰ combinations.
pub fn allocate_exact(demands: &[MacroDemand], budget: u64) -> AllocationPlan {
    let space: usize = demands.iter().map(|d| d.grantable() + 1).product();
    assert!(space <= 1 << 20, "exact reference is for small cases only");

    let mut sorted: Vec<&MacroDemand> = demands.iter().collect();
    sorted.sort_unstable_by_key(|d| (d.row_cost, d.macro_index));

    let mut best: Option<(usize, u64, Vec<usize>)> = None;
    let mut counters = vec![0usize; demands.len()];
    loop {
        let spent: u64 = counters
            .iter()
            .zip(sorted.iter())
            .map(|(&c, d)| c as u64 * d.row_cost)
            .sum();
        if spent <= budget {
            let rows: usize = counters.iter().sum();
            // Canonical tie-break: among equal (rows, spent), prefer the
            // plan that fills cheaper/lower-indexed macros first — i.e.
            // the lexicographically *largest* counter vector in the
            // (cost, macro_index)-sorted macro order.
            let candidate = (rows, spent, counters.clone());
            let better = match &best {
                None => true,
                Some((r, s, c)) => {
                    (rows, std::cmp::Reverse(spent), &counters) > (*r, std::cmp::Reverse(*s), c)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        // Odometer increment over 0..=grantable per macro.
        let mut i = 0;
        loop {
            if i == counters.len() {
                let (rows_granted, spent, counters) =
                    best.unwrap_or((0, 0, vec![0; demands.len()]));
                let mut grants: Vec<Grant> = sorted
                    .iter()
                    .zip(counters.iter())
                    .map(|(d, &rows)| Grant {
                        macro_index: d.macro_index,
                        rows,
                    })
                    .collect();
                grants.sort_unstable_by_key(|g| g.macro_index);
                return AllocationPlan {
                    grants,
                    budget,
                    spent,
                    rows_requested: demands.iter().map(|d| d.grantable()).sum(),
                    rows_granted,
                };
            }
            counters[i] += 1;
            if counters[i] <= sorted[i].grantable() {
                break;
            }
            counters[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(
        macro_index: usize,
        rows_needed: usize,
        row_cost: u64,
        max_rows: usize,
    ) -> MacroDemand {
        MacroDemand {
            macro_index,
            rows_needed,
            row_cost,
            max_rows,
        }
    }

    #[test]
    fn unlimited_budget_grants_everything() {
        let demands = [demand(0, 3, 10, 4), demand(1, 2, 25, 2), demand(2, 0, 5, 4)];
        let plan = allocate_greedy(&demands, u64::MAX);
        assert!(plan.fully_granted());
        assert_eq!(plan.rows_granted, 5);
        assert_eq!(plan.spent, 3 * 10 + 2 * 25);
        assert_eq!(plan.rows_for(0), 3);
        assert_eq!(plan.rows_for(1), 2);
        assert_eq!(plan.rows_for(2), 0);
    }

    #[test]
    fn demand_is_capped_by_physical_spares() {
        let demands = [demand(0, 10, 1, 4)];
        let plan = allocate_greedy(&demands, u64::MAX);
        assert_eq!(plan.rows_requested, 4);
        assert_eq!(plan.rows_granted, 4);
        assert!(plan.fully_granted(), "grantable demand fully met");
    }

    #[test]
    fn tight_budget_prefers_cheap_rows() {
        // Budget 30: three rows @10 beat one row @25.
        let demands = [demand(0, 1, 25, 2), demand(1, 3, 10, 4)];
        let plan = allocate_greedy(&demands, 30);
        assert_eq!(plan.rows_granted, 3);
        assert_eq!(plan.rows_for(1), 3);
        assert_eq!(plan.rows_for(0), 0);
        assert_eq!(plan.spent, 30);
    }

    #[test]
    fn zero_budget_grants_nothing() {
        let plan = allocate_greedy(&[demand(0, 2, 1, 2)], 0);
        assert_eq!(plan.rows_granted, 0);
        assert_eq!(plan.spent, 0);
        assert_eq!(
            plan.grants,
            vec![Grant {
                macro_index: 0,
                rows: 0
            }]
        );
    }

    #[test]
    fn greedy_matches_exact_on_exhaustive_small_cases() {
        // Every budget from 0 to worst-case spend over a seeded sweep of
        // small demand sets: the greedy must equal the reference plan
        // exactly — same rows, same spend, same per-macro grants.
        use bisram_rng::rngs::StdRng;
        use bisram_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA110C);
        for case in 0..60 {
            let n = rng.gen_range(1..5usize);
            let demands: Vec<MacroDemand> = (0..n)
                .map(|i| {
                    demand(
                        i,
                        rng.gen_range(0..4usize),
                        rng.gen_range(1..6u64),
                        rng.gen_range(0..4usize),
                    )
                })
                .collect();
            let max_spend: u64 = demands
                .iter()
                .map(|d| d.grantable() as u64 * d.row_cost)
                .sum();
            for budget in 0..=max_spend + 1 {
                let greedy = allocate_greedy(&demands, budget);
                let exact = allocate_exact(&demands, budget);
                assert_eq!(
                    greedy, exact,
                    "case {case} budget {budget} demands {demands:?}"
                );
            }
        }
    }

    #[test]
    fn equal_cost_ties_break_by_macro_index() {
        let demands = [demand(1, 2, 10, 2), demand(0, 2, 10, 2)];
        let plan = allocate_greedy(&demands, 30);
        assert_eq!(plan.rows_granted, 3);
        assert_eq!(plan.rows_for(0), 2, "lower index fills first");
        assert_eq!(plan.rows_for(1), 1);
    }

    #[test]
    fn deterministic() {
        let demands = [demand(0, 3, 7, 3), demand(1, 1, 2, 1), demand(2, 5, 3, 4)];
        assert_eq!(allocate_greedy(&demands, 20), allocate_greedy(&demands, 20));
    }
}
