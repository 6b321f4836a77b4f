//! The Sawada et al. (1989) baseline: address-comparison repair with a
//! single fail-address register.
//!
//! Paper §III: "This was a very simple scheme based upon the address
//! comparison method; that is, registering a failed address (in a fail
//! address register) during test mode and comparing this address with an
//! accessed address during normal mode ... This scheme was originally
//! designed to repair single address location faults, because only one
//! faulty address location could be registered."

use bisram_bist::engine::{run_march, MarchConfig};
use bisram_bist::march::MarchTest;
use bisram_mem::SramModel;

/// Result of applying the Sawada scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SawadaResult {
    /// The word address latched in the fail-address register (the first
    /// failure observed), if any.
    pub fail_address: Option<usize>,
    /// Distinct faulty word addresses the test observed in total.
    pub faulty_addresses: usize,
    /// Whether the scheme repairs this memory (at most one faulty word
    /// address, and the spare word is assumed good).
    pub repaired: bool,
}

/// Runs `test` and applies the single-register repair rule.
pub fn evaluate(ram: &mut SramModel, test: &MarchTest, march: &MarchConfig) -> SawadaResult {
    let outcome = run_march(test, ram, march, None);
    let mut addrs: Vec<usize> = outcome.fails().iter().map(|f| f.addr).collect();
    let fail_address = addrs.first().copied();
    addrs.sort_unstable();
    addrs.dedup();
    SawadaResult {
        fail_address,
        faulty_addresses: addrs.len(),
        repaired: addrs.len() <= 1,
    }
}

/// Normal-mode access translation: the registered address diverts to the
/// spare memory module; everything else passes through.
///
/// ```
/// use bisram_repair::sawada::translate;
/// assert_eq!(translate(Some(9), 9, 1000), 1000);
/// assert_eq!(translate(Some(9), 8, 1000), 8);
/// assert_eq!(translate(None, 9, 1000), 9);
/// ```
pub fn translate(fail_address: Option<usize>, addr: usize, spare_location: usize) -> usize {
    match fail_address {
        Some(f) if f == addr => spare_location,
        _ => addr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_bist::march;
    use bisram_mem::{ArrayOrg, Fault, FaultKind};

    fn ram() -> SramModel {
        SramModel::new(ArrayOrg::new(256, 8, 4, 0).unwrap())
    }

    #[test]
    fn clean_memory_needs_no_repair() {
        let mut m = ram();
        let r = evaluate(&mut m, &march::ifa9(), &MarchConfig::default());
        assert_eq!(r.fail_address, None);
        assert!(r.repaired);
        assert_eq!(r.faulty_addresses, 0);
    }

    #[test]
    fn single_fault_repaired() {
        let mut m = ram();
        let cell = m.org().cell_at(6, 2, 1);
        m.inject(Fault::new(cell, FaultKind::StuckAt(true)));
        let r = evaluate(&mut m, &march::ifa9(), &MarchConfig::default());
        assert_eq!(r.fail_address, Some(m.org().join(6, 2)));
        assert_eq!(r.faulty_addresses, 1);
        assert!(r.repaired);
    }

    #[test]
    fn two_faults_defeat_the_single_register() {
        let mut m = ram();
        m.inject(Fault::new(
            m.org().cell_at(1, 0, 0),
            FaultKind::StuckAt(true),
        ));
        m.inject(Fault::new(
            m.org().cell_at(30, 3, 5),
            FaultKind::StuckAt(false),
        ));
        let r = evaluate(&mut m, &march::ifa9(), &MarchConfig::default());
        assert_eq!(r.faulty_addresses, 2);
        assert!(!r.repaired, "Sawada repairs only single address faults");
    }

    #[test]
    fn translation_diverts_only_registered_address() {
        for a in 0..20 {
            let t = translate(Some(7), a, 999);
            if a == 7 {
                assert_eq!(t, 999);
            } else {
                assert_eq!(t, a);
            }
        }
    }
}
