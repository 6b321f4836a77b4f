//! The MPR manufacturing-cost model — paper §X, Tables II and III.
//!
//! `Manufacturing cost/chip = Die cost + Test & Assembly cost +
//! Package & Final test cost`, with
//! `Die cost = Wafer cost / (Dies-per-Wafer × Yield)`.

use crate::mpr::Microprocessor;
use crate::repairability::YieldModel;
use bisram_mem::ArrayOrg;

/// Package families and their final-test yields (paper §X: "for PQFP
/// packages, a realistic value of this final yield is 93%, whereas for
/// PGA packages it is found to be greater, about 97%").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Package {
    /// Plastic quad flat pack.
    Pqfp,
    /// Pin grid array.
    Pga,
}

impl Package {
    /// Final-test yield of the packaged part.
    pub fn final_test_yield(self) -> f64 {
        match self {
            Package::Pqfp => 0.93,
            Package::Pga => 0.97,
        }
    }
}

/// Global cost-model constants from the paper's §X narration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Wafer-test cost in dollars per minute (≈ $5.00/min).
    pub wafer_test_rate_per_min: f64,
    /// Test time spent on each *bad* die, minutes ("a few seconds").
    pub bad_die_test_min: f64,
    /// Packaging + final test cost per pin ("about one cent per pin").
    pub package_cost_per_pin: f64,
    /// Stapper clustering factor shared by die and embedded RAM (the
    /// paper argues the same process ⇒ the same clustering coefficient).
    pub alpha: f64,
    /// BIST/BISR area overhead applied to the cache area (Table I gives
    /// at most 7% for realistic sizes; 5% is the mid-band value used
    /// here).
    pub bisr_overhead_fraction: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            wafer_test_rate_per_min: 5.0,
            bad_die_test_min: 0.05,
            package_cost_per_pin: 0.01,
            alpha: 2.0,
            bisr_overhead_fraction: 0.05,
        }
    }
}

/// Gross dies per wafer for a `die_area` (mm²) on a wafer of diameter
/// `wafer_diameter` (mm), with the standard edge-loss correction:
/// `π·(d/2)²/A − π·d/√(2A)`.
///
/// ```
/// use bisram_yield::cost::dies_per_wafer;
/// // A 100 mm² die on a 200 mm wafer yields around 270 candidates.
/// let dpw = dies_per_wafer(100.0, 200.0);
/// assert!(dpw > 240.0 && dpw < 300.0, "{dpw}");
/// ```
pub fn dies_per_wafer(die_area: f64, wafer_diameter: f64) -> f64 {
    assert!(
        die_area > 0.0 && wafer_diameter > 0.0,
        "positive sizes required"
    );
    let r = wafer_diameter / 2.0;
    let gross = std::f64::consts::PI * r * r / die_area
        - std::f64::consts::PI * wafer_diameter / (2.0 * die_area).sqrt();
    gross.max(0.0)
}

/// Per-chip cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Die yield used.
    pub yield_: f64,
    /// Dies per wafer used.
    pub dies_per_wafer: f64,
    /// Cost per good die before wafer test (the Table II quantity).
    pub die_cost: f64,
    /// Wafer test and assembly cost per good chip.
    pub test_assembly_cost: f64,
    /// Packaging and final test cost.
    pub package_cost: f64,
}

impl CostBreakdown {
    /// Total manufacturing cost per packaged, tested chip (the Table III
    /// quantity).
    pub fn total(&self) -> f64 {
        self.die_cost + self.test_assembly_cost + self.package_cost
    }
}

/// Cost evaluation of one microprocessor with and without embedded-RAM
/// BISR.
#[derive(Debug, Clone, PartialEq)]
pub struct CostComparison {
    /// Processor name.
    pub name: String,
    /// Baseline (no BISR).
    pub without: CostBreakdown,
    /// With cache BISR (4 spare rows). `None` for parts on 2-metal
    /// processes — BISRAMGEN needs three metal layers, so those rows are
    /// blank in the paper's tables too.
    pub with_bisr: Option<CostBreakdown>,
}

impl CostComparison {
    /// Relative reduction of the cost per good die, when applicable.
    pub fn die_cost_reduction(&self) -> Option<f64> {
        self.with_bisr
            .as_ref()
            .map(|w| 1.0 - w.die_cost / self.without.die_cost)
    }

    /// Relative reduction of the total manufacturing cost.
    pub fn total_cost_reduction(&self) -> Option<f64> {
        self.with_bisr
            .as_ref()
            .map(|w| 1.0 - w.total() / self.without.total())
    }
}

/// Evaluates the full cost model for one processor.
pub fn evaluate(cpu: &Microprocessor, model: &CostModel) -> CostComparison {
    let without = breakdown(cpu, model, cpu.die_area_mm2, cpu.die_yield);

    let with_bisr = if cpu.metal_layers >= 3 {
        // Embedded-RAM yield from the die yield: Y_ram = Y_die^frac.
        let y_ram = cpu.die_yield.powf(cpu.cache_fraction);
        // Invert Stapper to recover the cache's average defect count.
        let n_ram = model.alpha * (y_ram.powf(-1.0 / model.alpha) - 1.0);
        let org = cache_org(cpu.cache_kbytes);
        let ymodel = YieldModel {
            org,
            alpha: model.alpha,
            growth_factor: org.total_rows() as f64 / org.rows() as f64
                + model.bisr_overhead_fraction,
            overhead_fraction: model.bisr_overhead_fraction,
        };
        let y_ram_bisr = ymodel.yield_with_bisr(n_ram);
        let y_rest = cpu.die_yield.powf(1.0 - cpu.cache_fraction);
        let die_yield_bisr = (y_rest * y_ram_bisr).min(1.0);
        // The die grows by the cache overhead.
        let area_bisr =
            cpu.die_area_mm2 * (1.0 + cpu.cache_fraction * model.bisr_overhead_fraction);
        Some(breakdown(cpu, model, area_bisr, die_yield_bisr))
    } else {
        None
    };

    CostComparison {
        name: cpu.name.clone(),
        without,
        with_bisr,
    }
}

fn breakdown(cpu: &Microprocessor, model: &CostModel, area: f64, yield_: f64) -> CostBreakdown {
    let dpw = dies_per_wafer(area, cpu.wafer_diameter_mm);
    let die_cost = cpu.wafer_cost_usd / (dpw * yield_);
    // Good dies pay their own full test; the cost of briefly touching
    // each bad die is amortized over the good ones.
    let test_assembly_cost = model.wafer_test_rate_per_min
        * (cpu.test_minutes + model.bad_die_test_min * (1.0 / yield_ - 1.0));
    let package_cost =
        cpu.pins as f64 * model.package_cost_per_pin / cpu.package.final_test_yield();
    CostBreakdown {
        yield_,
        dies_per_wafer: dpw,
        die_cost,
        test_assembly_cost,
        package_cost,
    }
}

/// A standard embedded-cache organization for a cache of `kbytes`
/// kilobytes: 64-bit words, 8 bits per column, 4 spare rows (the Table
/// II/III configuration).
pub fn cache_org(kbytes: usize) -> ArrayOrg {
    let words = (kbytes * 1024 / 8).max(64).next_power_of_two();
    ArrayOrg::new(words, 64, 8, 4).expect("cache geometry is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpr;

    #[test]
    fn dies_per_wafer_grows_with_wafer_and_shrinks_with_die() {
        let base = dies_per_wafer(100.0, 200.0);
        assert!(dies_per_wafer(100.0, 150.0) < base);
        assert!(dies_per_wafer(200.0, 200.0) < base);
        // Paper §X: going from 150 mm to 200 mm wafers increases
        // dies-per-wafer by 80-100%.
        let d6 = dies_per_wafer(120.0, 150.0);
        let d8 = dies_per_wafer(120.0, 200.0);
        let gain = d8 / d6 - 1.0;
        assert!((0.7..1.2).contains(&gain), "gain = {gain}");
    }

    #[test]
    fn die_cost_inverse_in_yield() {
        let cpu = mpr::dataset()
            .into_iter()
            .find(|c| c.metal_layers >= 3)
            .unwrap();
        let model = CostModel::default();
        let a = breakdown(&cpu, &model, cpu.die_area_mm2, 0.5);
        let b = breakdown(&cpu, &model, cpu.die_area_mm2, 0.25);
        assert!((b.die_cost / a.die_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bisr_always_reduces_cost_for_three_metal_parts() {
        let model = CostModel::default();
        for cpu in mpr::dataset() {
            let cmp = evaluate(&cpu, &model);
            match cmp.with_bisr {
                None => assert!(cpu.metal_layers < 3, "{} should be blank", cpu.name),
                Some(ref w) => {
                    assert!(
                        w.die_cost < cmp.without.die_cost,
                        "{}: BISR die cost {} >= baseline {}",
                        cpu.name,
                        w.die_cost,
                        cmp.without.die_cost
                    );
                    assert!(cmp.total_cost_reduction().unwrap() > 0.0);
                }
            }
        }
    }

    #[test]
    fn reductions_span_the_papers_band() {
        // Table III: reductions from 2.35% (486DX2) to 47.2% (SuperSPARC).
        let model = CostModel::default();
        let reductions: Vec<(String, f64)> = mpr::dataset()
            .iter()
            .filter_map(|c| {
                evaluate(c, &model)
                    .total_cost_reduction()
                    .map(|r| (c.name.clone(), r))
            })
            .collect();
        let min = reductions.iter().map(|(_, r)| *r).fold(f64::MAX, f64::min);
        let max = reductions.iter().map(|(_, r)| *r).fold(f64::MIN, f64::max);
        assert!(min > 0.005 && min < 0.10, "min reduction {min}");
        assert!(max > 0.25 && max < 0.60, "max reduction {max}");
        // SuperSPARC is the biggest winner, as in the paper.
        let best = reductions
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(best.0.contains("SuperSPARC"), "best was {}", best.0);
    }

    #[test]
    fn die_cost_reduction_factor_of_two_for_low_yield_parts() {
        // Table II: "a significant decrease in the cost per good die with
        // RAM BISR, often by a factor of about 2".
        let model = CostModel::default();
        let best = mpr::dataset()
            .iter()
            .filter_map(|c| evaluate(c, &model).die_cost_reduction())
            .fold(f64::MIN, f64::max);
        assert!(best > 0.40, "largest die-cost reduction only {best}");
    }

    #[test]
    fn cache_org_scales_with_size() {
        let small = cache_org(8);
        let big = cache_org(64);
        assert!(big.words() > small.words());
        assert_eq!(big.spare_rows(), 4);
    }

    #[test]
    fn package_yields() {
        assert!(Package::Pga.final_test_yield() > Package::Pqfp.final_test_yield());
    }

    #[test]
    fn breakdown_total_sums_components() {
        let cpu = &mpr::dataset()[0];
        let model = CostModel::default();
        let b = breakdown(cpu, &model, cpu.die_area_mm2, cpu.die_yield);
        assert!((b.total() - (b.die_cost + b.test_assembly_cost + b.package_cost)).abs() < 1e-12);
    }
}
