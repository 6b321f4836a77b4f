//! Layout generation for the BISRAMGEN reproduction.
//!
//! BISRAMGEN "builds a library of leaf cells that are subsequently used
//! for generating modules or macrocells in a bottom-up (hierarchical)
//! fashion to complete the overall layout" (paper §II). This crate
//! provides that whole path:
//!
//! * [`cell`] — the hierarchical layout database (shapes, ports,
//!   instances, flattening),
//! * [`leaf`] — rule-driven parametric leaf-cell generators (6T SRAM
//!   cell, precharge, current-mode sense amplifier, decoders, word-line
//!   drivers, column multiplexers, CAM/TLB bit, PLA plane cells, counter
//!   and register bits),
//! * [`tile`] — array tiling by abutment with strap-space insertion,
//! * [`placer`] — the macrocell place-and-route heuristics of §II
//!   (decreasing-area order, port alignment, stretching, "as rectangular
//!   as possible"),
//! * [`route`] — over-the-cell metal-3 connections for ports that do not
//!   abut,
//! * [`export`] — CIF and SVG writers,
//! * [`area`] — area accounting feeding the Table I overhead report.
//!
//! Every generated leaf cell and tiling is checked DRC-clean against its
//! process, in all eight rule classes, by the workspace's one DRC engine
//! (`bisram_verify::drc`) in the `layout_integrity` integration tests,
//! which is what makes the design-rule-independence claim testable.
//!
//! # Examples
//!
//! ```
//! use bisram_layout::leaf;
//! use bisram_tech::Process;
//!
//! let p = Process::cda07();
//! let cell = leaf::sram6t(&p);
//! assert!(cell.bbox().width() > 0);
//! assert!(cell.port("bl").is_some() && cell.port("wl").is_some());
//! ```

pub mod area;
pub mod cell;
pub mod export;
pub mod leaf;
pub mod placer;
pub mod route;
pub mod tile;

pub use cell::{Cell, Instance};
