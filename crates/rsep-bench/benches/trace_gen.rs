//! Criterion bench: trace generation vs simulation — how much of a
//! campaign cell's wall-clock is spent *making* instructions rather than
//! simulating them?
//!
//! Five modes over the same gcc workload as `cycle_loop`:
//!
//! * `trace_gen/generate` — [`TraceGenerator`] iteration alone (the cost
//!   the simulator pays on top of simulation in a streamed run);
//! * `trace_gen/simulate_pregenerated` — the baseline core over a
//!   pre-collected `Vec<DynInst>` (pure simulation);
//! * `trace_gen/simulate_streaming` — the baseline core pulling straight
//!   from a live generator (how campaign cells actually run);
//! * `trace_gen/record` — [`record_profile`] writing the workload as an
//!   in-memory trace file (generation + delta/varint encoding);
//! * `trace_gen/replay` — the baseline core pulling from a parsed trace
//!   file segment (decode + simulation, how `rsep trace replay` runs).
//!
//! The generation share of a streamed run is roughly `generate /
//! simulate_streaming`. `perfbench` reports it for whole campaign grids as
//! `trace.gen_share`, and the decode share of replay as
//! `tracefile.decode_share`.

#![forbid(unsafe_code)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rsep_trace::{BenchmarkProfile, CheckpointSpec, TraceGenerator};
use rsep_tracefile::{record_profile, AnonScheme, TraceFile, RECORD_SLACK};
use rsep_uarch::{Core, CoreConfig};

const COMMITS: u64 = 30_000;
/// Same head-room over the commit target as `cycle_loop` uses.
const INSTS: usize = COMMITS as usize + 4_000;
const SEED: u64 = 42;

fn profile() -> BenchmarkProfile {
    BenchmarkProfile::by_name("gcc").unwrap()
}

/// One-checkpoint spec whose recorded segment holds exactly [`INSTS`]
/// instructions, so record/replay numbers are comparable to the other
/// modes.
fn record_spec() -> CheckpointSpec {
    CheckpointSpec::scaled(1, 0, INSTS as u64 - RECORD_SLACK)
}

/// Generation alone: drain the generator, folding PCs so the work cannot
/// be optimised away.
fn generate(profile: &BenchmarkProfile) -> u64 {
    let mut acc = 0u64;
    for inst in TraceGenerator::new(profile, SEED).take(INSTS) {
        acc = acc.wrapping_add(inst.pc);
    }
    acc
}

/// Pure simulation: the core consumes an already-materialised trace.
fn simulate_pregenerated(insts: &[rsep_isa::DynInst]) -> u64 {
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = insts.iter().cloned();
    core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    core.stats().cycles
}

/// Streamed simulation: the core pulls from a live generator, the way
/// campaign cells run.
fn simulate_streaming(profile: &BenchmarkProfile) -> u64 {
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = TraceGenerator::new(profile, SEED).take(INSTS);
    core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    core.stats().cycles
}

/// Trace recording: generate the workload and encode it as an in-memory
/// trace file, the way `rsep trace record` does per profile.
fn record(profile: &BenchmarkProfile) -> u64 {
    let bytes = record_profile(Vec::new(), profile, &record_spec(), SEED, AnonScheme::KeyedBlock)
        .expect("bench recording cannot fail");
    bytes.len() as u64
}

/// Trace replay: the core pulls decoded instructions straight from a
/// parsed trace-file segment.
fn replay(file: &TraceFile) -> u64 {
    let mut core = Core::baseline(CoreConfig::table1());
    let mut trace = file.segment(0).expect("bench trace has segment 0");
    core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    core.stats().cycles
}

fn bench(c: &mut Criterion) {
    let profile = profile();
    let insts: Vec<rsep_isa::DynInst> = TraceGenerator::new(&profile, SEED).take(INSTS).collect();
    // The streamed and pregenerated runs must simulate identical cycles —
    // the comparison is meaningless otherwise.
    assert_eq!(simulate_pregenerated(&insts), simulate_streaming(&profile));
    let bytes = record_profile(Vec::new(), &profile, &record_spec(), SEED, AnonScheme::KeyedBlock)
        .expect("bench recording cannot fail");
    let file = TraceFile::parse(bytes, "bench".to_string()).expect("bench trace parses");
    c.bench_function("trace_gen/generate", |b| b.iter(|| black_box(generate(&profile))));
    c.bench_function("trace_gen/simulate_pregenerated", |b| {
        b.iter(|| black_box(simulate_pregenerated(&insts)))
    });
    c.bench_function("trace_gen/simulate_streaming", |b| {
        b.iter(|| black_box(simulate_streaming(&profile)))
    });
    c.bench_function("trace_gen/record", |b| b.iter(|| black_box(record(&profile))));
    c.bench_function("trace_gen/replay", |b| b.iter(|| black_box(replay(&file))));
}

criterion_group!(benches, bench);
criterion_main!(benches);
