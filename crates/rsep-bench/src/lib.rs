//! # rsep-bench
//!
//! Throughput benches of the simulator's hot structures and loops
//! (`benches/`), the [`record`] module through which they write their
//! machine-readable `BENCH_*.json` records, and `bench_gate`, the
//! regression gate that compares a fresh record against a committed one.
//!
//! The paper's tables and figures are produced by the `rsep` campaign CLI
//! (`rsep fig1 … fig7`, `rsep table1`, `rsep sweep`) in `rsep-campaign`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod record;
