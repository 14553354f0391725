//! # rsep-trace
//!
//! Synthetic SPEC CPU2006-like workload generation for the RSEP
//! reproduction.
//!
//! The paper evaluates on SPEC CPU2006 binaries simulated with gem5 (ten
//! 100M-instruction checkpoints per benchmark). Those binaries, inputs and
//! checkpoints are not available here, so — per the substitution rule in
//! `DESIGN.md` — this crate generates *synthetic* dynamic instruction traces
//! whose statistical properties reproduce what drives the paper's results:
//!
//! * instruction mix (loads, stores, branches, ALU/MUL/DIV, FP, moves,
//!   zero idioms),
//! * dependency structure (how far back register sources reach, pointer
//!   chasing),
//! * branch predictability,
//! * memory locality (working-set size, streaming vs. random access),
//! * **value redundancy**: how often a result is zero, how often it equals
//!   the result of an older in-flight instruction, at which instruction
//!   distance, and how *stable* that distance is per static instruction
//!   (what the distance predictor can learn),
//! * conventional value predictability (constant / strided / last-value
//!   streams that D-VTAGE captures), and the overlap between the two.
//!
//! One [`BenchmarkProfile`] is provided per SPEC CPU2006 benchmark; the
//! parameters are calibrated against Figures 1, 4 and 5 of the paper. The
//! calibration record is still pending (ROADMAP item 2).
//!
//! # Example
//!
//! ```
//! use rsep_trace::{BenchmarkProfile, TraceGenerator};
//!
//! let profile = BenchmarkProfile::spec2006()
//!     .into_iter()
//!     .find(|p| p.name == "mcf")
//!     .unwrap();
//! let mut gen = TraceGenerator::new(&profile, 42);
//! let window: Vec<_> = gen.by_ref().take(1000).collect();
//! assert_eq!(window.len(), 1000);
//! // Sequence numbers are consecutive.
//! assert!(window.windows(2).all(|w| w[1].seq == w[0].seq + 1));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod behavior;
pub mod checkpoint;
pub mod generator;
pub mod profile;
pub mod program;
pub mod source;

pub use behavior::{BranchBehavior, MemBehavior, ValueBehavior};
pub use checkpoint::{CheckpointSpec, CheckpointedTrace};
pub use generator::TraceGenerator;
pub use profile::{BenchmarkProfile, InstructionMix};
pub use program::{StaticInst, StaticProgram};
pub use source::TraceSource;
