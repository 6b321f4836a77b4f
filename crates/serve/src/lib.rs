//! **bisram-serve** — the compile service, its daemon, the
//! declarative sweep orchestrator and the `bisramgen` command line.
//!
//! * **Jobs** ([`job`]): one parameter table per job kind (compile /
//!   characterize / verify, rare-yield, fleet, chip) drives spec
//!   parsing, `bisramgen` flags (`--key value` is `key = value`),
//!   `--help` and the canonical text.
//! * **Service / daemon** ([`service`], [`daemon`], [`client`],
//!   [`proto`]): one runner per job kind, shared by the CLI and by
//!   `bisramgen serve`, a long-lived server on a Unix socket (or a
//!   localhost TCP fallback) that speaks the checksummed
//!   [`bisram_wire`] frames. It shares one cache across requests,
//!   collapses identical in-flight requests into one execution and
//!   streams artifact sections back. Malformed, corrupted or oversized
//!   frames and panicking jobs get typed, retry-classified error
//!   responses — never a crashed or wedged daemon.
//! * **Sweep orchestrator** ([`spec`], [`sweep`]): expands a plain-text
//!   spec of axes into the cartesian matrix of `characterize` jobs,
//!   runs them through the same service (in-process or over the
//!   socket) and reduces them to a Pareto report over area / yield /
//!   MTTF / repair cost, byte-identical at any worker count and on
//!   either backend.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod daemon;
pub mod job;
pub mod proto;
pub mod service;
pub mod spec;
pub mod sweep;

pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig, Listen};
pub use job::{ChipJob, CompileJob, FleetJob, JobSpec, RareJob, VerifyChoice};
pub use proto::RespFrame;
pub use service::{JobFailure, JobOutcome, JobResult, Ran, Section, Service};
pub use spec::{Spec, SpecError};
pub use sweep::{run_sweep, SweepBackend, SweepReport, SweepSpec};
