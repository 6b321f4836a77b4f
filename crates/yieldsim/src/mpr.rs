//! The synthetic microprocessor dataset behind Tables II and III.
//!
//! The paper's tables are computed from September 1994 / August 1993
//! Microprocessor Report data (die photographs, wafer costs, dies per
//! wafer), which is proprietary. This dataset is *synthetic but
//! calibrated*: die sizes, wafer sizes, pin counts, metal layers and
//! clock rates follow the public record for these parts, while wafer
//! costs, yields and cache fractions are tuned so that the model lands in
//! the band the paper reports (total-cost reductions from ~2% for the
//! i486DX2 up to ~47% for the SuperSPARC, with 2-metal parts excluded).
//! See DESIGN.md for the substitution rationale.

use crate::cost::Package;

/// One microprocessor record.
#[derive(Debug, Clone, PartialEq)]
pub struct Microprocessor {
    /// Part name.
    pub name: String,
    /// Metal layers of the process (2-metal parts cannot take BISRAMGEN
    /// BISR and appear blank in the paper's tables).
    pub metal_layers: u8,
    /// Die area in mm².
    pub die_area_mm2: f64,
    /// Wafer diameter in mm (150 or 200).
    pub wafer_diameter_mm: f64,
    /// Processed wafer cost in dollars.
    pub wafer_cost_usd: f64,
    /// Die yield without BISR (0..1).
    pub die_yield: f64,
    /// Fraction of the die occupied by embedded RAM (caches).
    pub cache_fraction: f64,
    /// Total embedded cache in kilobytes.
    pub cache_kbytes: usize,
    /// Package pin count.
    pub pins: u32,
    /// Package family.
    pub package: Package,
    /// Wafer test time per good die, minutes.
    pub test_minutes: f64,
    /// Clock rate, MHz (reported in the tables for context).
    pub clock_mhz: u32,
}

impl Microprocessor {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: &str,
        metal_layers: u8,
        die_area_mm2: f64,
        wafer_diameter_mm: f64,
        wafer_cost_usd: f64,
        die_yield: f64,
        cache_fraction: f64,
        cache_kbytes: usize,
        pins: u32,
        package: Package,
        test_minutes: f64,
        clock_mhz: u32,
    ) -> Self {
        Microprocessor {
            name: name.to_owned(),
            metal_layers,
            die_area_mm2,
            wafer_diameter_mm,
            wafer_cost_usd,
            die_yield,
            cache_fraction,
            cache_kbytes,
            pins,
            package,
            test_minutes,
            clock_mhz,
        }
    }
}

/// The processors of Tables II/III (1993–1994 era), with synthetic
/// economics calibrated to the paper's anchor values.
pub fn dataset() -> Vec<Microprocessor> {
    vec![
        // name, metals, die mm², wafer mm, wafer $, yield, cache frac,
        // cache kB, pins, package, test min, MHz
        Microprocessor::new(
            "Intel386DX",
            2,
            42.0,
            150.0,
            900.0,
            0.75,
            0.00,
            0,
            132,
            Package::Pqfp,
            0.5,
            33,
        ),
        Microprocessor::new(
            "Intel486DX2",
            3,
            81.0,
            150.0,
            1100.0,
            0.60,
            0.10,
            8,
            168,
            Package::Pga,
            1.0,
            66,
        ),
        Microprocessor::new(
            "IntelDX4",
            3,
            76.0,
            200.0,
            1900.0,
            0.55,
            0.16,
            16,
            168,
            Package::Pga,
            1.2,
            100,
        ),
        Microprocessor::new(
            "Pentium",
            4,
            163.0,
            200.0,
            2400.0,
            0.32,
            0.14,
            16,
            273,
            Package::Pga,
            3.0,
            66,
        ),
        Microprocessor::new(
            "Pentium-90",
            4,
            148.0,
            200.0,
            2600.0,
            0.38,
            0.16,
            16,
            296,
            Package::Pga,
            3.0,
            90,
        ),
        Microprocessor::new(
            "TI SuperSPARC",
            3,
            256.0,
            200.0,
            2300.0,
            0.10,
            0.36,
            36,
            293,
            Package::Pga,
            5.0,
            60,
        ),
        Microprocessor::new(
            "microSPARC",
            2,
            225.0,
            150.0,
            1000.0,
            0.35,
            0.20,
            6,
            288,
            Package::Pqfp,
            1.5,
            50,
        ),
        Microprocessor::new(
            "MIPS R4400",
            3,
            186.0,
            200.0,
            2200.0,
            0.22,
            0.25,
            32,
            447,
            Package::Pga,
            3.5,
            150,
        ),
        Microprocessor::new(
            "MIPS R4600",
            3,
            77.0,
            200.0,
            1800.0,
            0.50,
            0.22,
            32,
            179,
            Package::Pga,
            1.5,
            100,
        ),
        Microprocessor::new(
            "PowerPC 601",
            3,
            121.0,
            200.0,
            2100.0,
            0.35,
            0.26,
            32,
            304,
            Package::Pga,
            2.5,
            80,
        ),
        Microprocessor::new(
            "PowerPC 604",
            4,
            196.0,
            200.0,
            2500.0,
            0.25,
            0.24,
            32,
            304,
            Package::Pga,
            3.0,
            100,
        ),
        Microprocessor::new(
            "DEC Alpha 21064A",
            4,
            164.0,
            200.0,
            2700.0,
            0.28,
            0.28,
            32,
            431,
            Package::Pga,
            4.0,
            275,
        ),
        Microprocessor::new(
            "AMD Am486DX2",
            3,
            84.0,
            150.0,
            1050.0,
            0.58,
            0.12,
            8,
            168,
            Package::Pga,
            1.0,
            66,
        ),
        Microprocessor::new(
            "Motorola 68040",
            2,
            126.0,
            150.0,
            950.0,
            0.45,
            0.18,
            8,
            179,
            Package::Pga,
            1.2,
            33,
        ),
        Microprocessor::new(
            "HyperSPARC",
            3,
            144.0,
            200.0,
            2200.0,
            0.30,
            0.27,
            24,
            144,
            Package::Pqfp,
            2.5,
            90,
        ),
    ]
}

/// Looks a processor up by (sub)name.
pub fn by_name(name: &str) -> Option<Microprocessor> {
    dataset().into_iter().find(|c| c.name.contains(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_plausible() {
        let d = dataset();
        assert!(d.len() >= 12, "table needs a representative spread");
        for c in &d {
            assert!(
                c.die_area_mm2 > 30.0 && c.die_area_mm2 < 400.0,
                "{}",
                c.name
            );
            assert!((0.05..=0.9).contains(&c.die_yield), "{}", c.name);
            assert!((0.0..=0.5).contains(&c.cache_fraction), "{}", c.name);
            assert!(c.wafer_diameter_mm == 150.0 || c.wafer_diameter_mm == 200.0);
            assert!(c.pins >= 100);
        }
    }

    #[test]
    fn two_metal_parts_present_for_blank_rows() {
        let blanks: Vec<_> = dataset()
            .into_iter()
            .filter(|c| c.metal_layers < 3)
            .collect();
        assert!(blanks.len() >= 2, "the paper's tables have blank rows");
    }

    #[test]
    fn anchor_parts_exist() {
        assert!(by_name("486DX2").is_some());
        assert!(by_name("SuperSPARC").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn supersparc_has_low_yield_and_big_cache() {
        // The paper's biggest winner: large die, low yield, large
        // on-chip cache fraction ("effective area may be as low as 73%").
        let s = by_name("TI SuperSPARC").unwrap();
        let i = by_name("Intel486DX2").unwrap();
        assert!(s.die_yield < i.die_yield);
        assert!(s.cache_fraction > i.cache_fraction);
    }
}
