//! Behavioural column-multiplexed SRAM with spare rows and functional
//! fault injection.
//!
//! This crate is the device-under-test substrate for the BIST and BISR
//! crates. It models the RAM organization of paper §II / Fig. 2:
//!
//! * a single physical column stores `bpc` bits (bits per column),
//! * a word has `bpw` bits (bits per word), one from each of `bpw` I/O
//!   subarrays,
//! * a `log2(bpc)`-to-`bpc` column decoder selects one of `bpc` bitline
//!   pairs per subarray, producing the `bpw`-bit word,
//! * `spare_rows` redundant rows are fully integrated with the main array
//!   and share the same column multiplexers.
//!
//! A functional-fault layer implements the classical inductive-fault-
//! analysis fault classes the IFA-9/IFA-13 tests target: stuck-at,
//! transition, stuck-open, coupling (inversion / idempotent / state) and
//! data-retention faults, plus row address-decoder faults.
//!
//! # Examples
//!
//! ```
//! use bisram_mem::{ArrayOrg, SramModel, Word};
//!
//! let org = ArrayOrg::new(1024, 4, 4, 4)?; // 1024 words, bpw=4, bpc=4, 4 spares
//! let mut ram = SramModel::new(org);
//! ram.write_word(37, Word::from_u64(0b1010, 4));
//! assert_eq!(ram.read_word(37).to_u64(), 0b1010);
//! # Ok::<(), bisram_mem::OrgError>(())
//! ```

// Out-of-range coordinates are documented `# Panics` invariants; all
// other paths stay panic-free so lifetime simulations can drive the
// model with arbitrary fault populations. Enforced by CI clippy.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod fault;
mod inject;
pub mod lane;
#[cfg(test)]
mod oracle;
mod org;
mod sram;
mod word;

pub use fault::{Fault, FaultClass, FaultKind, RowFault};
pub use inject::{column_failure, random_faults, row_failure, FaultMix};
pub use lane::{lane_mask, LaneSram, ALL_LANES, LANE_WIDTH};
pub use org::{ArrayOrg, CellIndex, OrgError};
pub use sram::{AccessStats, SramModel};
pub use word::Word;
