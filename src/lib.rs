//! # rsep
//!
//! Facade crate for the reproduction of *"Register Sharing for Equality
//! Prediction"* (Perais, Endo, Seznec — MICRO 2016).
//!
//! It re-exports the workspace crates so applications can depend on a
//! single crate:
//!
//! * [`isa`] — micro-ISA, registers, result hashing.
//! * [`trace`] — synthetic SPEC CPU2006-like workload generation.
//! * [`predictors`] — TAGE, distance predictor, D-VTAGE, zero predictor.
//! * [`uarch`] — the cycle-level out-of-order core (Table I).
//! * [`core`] — RSEP itself: distance prediction, FIFO history, ISRB
//!   register sharing, validation, mechanism composition, experiment
//!   runner.
//! * [`stats`] — means, speedups and report formatting.
//! * [`campaign`] — the parallel experiment-campaign engine behind the
//!   `rsep` CLI: declarative specs, a deterministic thread-pool executor,
//!   result store and JSON/CSV/markdown report emitters.
//!
//! See `README.md` for a quick start and `DESIGN.md` for the reproduction
//! methodology.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use rsep_campaign as campaign;
pub use rsep_core as core;
pub use rsep_isa as isa;
pub use rsep_predictors as predictors;
pub use rsep_stats as stats;
pub use rsep_trace as trace;
pub use rsep_uarch as uarch;
