//! # rsep-bench
//!
//! Criterion micro-benches of the simulator's hot structures and loops.
//! They live in `benches/` and write nothing: criterion prints the timings.
//! This library target is empty; Cargo needs one to host the benches.
//!
//! The benchmark of record is `perfbench/` (see `perfbench/README.md`).
//! It times the paper's campaign grids end to end and layer by layer.
//! The paper's tables and figures themselves come from the `rsep` campaign
//! CLI (`rsep fig1 … fig7`, `rsep table1`, `rsep sweep`) in `rsep-campaign`.

#![forbid(unsafe_code)]
