//! Criterion bench: the cache hierarchy alone.
//!
//! `cache_hierarchy/per_access` drives a synthetic access stream through
//! `access_data`/`access_inst`, one call per access in cycle order — the
//! pattern the core's execute and fetch stages use. (The legacy nested
//! `Vec<Vec<Line>>` layout this bench also used to measure was retired
//! with the PR 4 equivalence proofs in; the struct-of-arrays layout is
//! now the only one.)

#![forbid(unsafe_code)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rsep_uarch::{AccessKind, CacheHierarchy, CoreConfig};

/// Cycles of a synthetic workload: a handful of loads/stores/ifetches per
/// cycle mixing stride streams (prefetcher-friendly), hot lines (L1 hits)
/// and scattered misses (full L2/L3/DRAM walks with fills). Large enough
/// that the access stream, not hierarchy construction (which each timed
/// run includes, as every campaign cell does), dominates the measurement.
const CYCLES: u64 = 20_000;

/// One access of the stream.
#[derive(Debug, Clone, Copy)]
enum Access {
    /// A load or store by the instruction at `pc`.
    Data { pc: u64, addr: u64, kind: AccessKind },
    /// An instruction fetch of the block at `addr`.
    Fetch { addr: u64 },
}

/// The access stream as `(cycle, access)` pairs in cycle order.
fn access_schedule() -> Vec<(u64, Access)> {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    let load = |pc, addr| Access::Data { pc, addr, kind: AccessKind::Load };
    let mut schedule = Vec::new();
    for cycle in 0..CYCLES {
        for unit in 0..(1 + step() % 4) {
            let pc = 0x40_0000 + (step() % 64) * 4;
            let access = match step() % 8 {
                // Stride stream: trains the L1D prefetcher.
                0 | 1 => load(0x41_0000, 0x1000_0000 + cycle * 64 + unit * 8),
                // Hot working set: L1 hits.
                2 | 3 => load(pc, 0x2000_0000 + (step() % 64) * 64),
                // Scattered misses: full walks + fills.
                4 => load(pc, 0x3000_0000 + (step() % (1 << 22)) / 8 * 8),
                5 => Access::Data {
                    pc,
                    addr: 0x3000_0000 + (step() % (1 << 22)) / 8 * 8,
                    kind: AccessKind::Store,
                },
                _ => Access::Fetch { addr: 0x40_0000 + (step() % 512) * 64 },
            };
            schedule.push((cycle, access));
        }
    }
    schedule
}

/// Drives the schedule through a fresh hierarchy; returns the summed
/// latency.
fn run(schedule: &[(u64, Access)]) -> u64 {
    let mut hierarchy = CacheHierarchy::new(&CoreConfig::table1());
    let mut total = 0u64;
    for &(cycle, access) in schedule {
        total += match access {
            Access::Data { pc, addr, kind } => hierarchy.access_data(pc, addr, kind, cycle),
            Access::Fetch { addr } => hierarchy.access_inst(addr, cycle),
        };
    }
    total
}

fn bench(c: &mut Criterion) {
    let schedule = access_schedule();
    c.bench_function("cache_hierarchy/per_access", |b| b.iter(|| black_box(run(&schedule))));
}

criterion_group!(benches, bench);
criterion_main!(benches);
