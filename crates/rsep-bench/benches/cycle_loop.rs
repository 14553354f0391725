//! Criterion bench: the core's cycle loop under both scheduler
//! implementations, and with the RSEP engine.
//!
//! `cycle_loop/event_driven` vs `cycle_loop/polling` is the headline
//! comparison for the event-driven wakeup/select rewrite: same simulated
//! behaviour (enforced by the golden-stats and property tests), different
//! simulator throughput. `cycle_loop/rsep_ideal` and
//! `cycle_loop/rsep_realistic` run the same trace through a
//! `Core<RsepEngine>`, so the engine's rename and commit hooks (history
//! search, distance ring, ISRB) are timed inside the loop that calls them.
//! End-to-end and per-layer timing of the campaign grids is `perfbench`'s
//! job.

#![forbid(unsafe_code)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rsep_core::{MechanismConfig, RsepEngine};
use rsep_trace::{BenchmarkProfile, TraceGenerator};
use rsep_uarch::{Core, CoreConfig, SchedulerKind};

const COMMITS: u64 = 30_000;

fn trace_insts() -> Vec<rsep_isa::DynInst> {
    let profile = BenchmarkProfile::by_name("gcc").unwrap();
    TraceGenerator::new(&profile, 42).take(COMMITS as usize + 4_000).collect()
}

fn run_once(insts: &[rsep_isa::DynInst], scheduler: SchedulerKind) -> (u64, u64) {
    let mut config = CoreConfig::table1();
    config.scheduler = scheduler;
    let mut core = Core::baseline(config);
    let mut trace = insts.iter().cloned();
    let committed = core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    (core.stats().cycles, committed)
}

fn run_rsep(insts: &[rsep_isa::DynInst], mechanism: &MechanismConfig) -> (u64, u64) {
    let mut core = Core::new(CoreConfig::table1(), RsepEngine::new(mechanism.clone()));
    let mut trace = insts.iter().cloned();
    let committed = core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    (core.stats().cycles, committed)
}

fn bench(c: &mut Criterion) {
    let insts = trace_insts();
    for (id, scheduler) in [
        ("cycle_loop/event_driven", SchedulerKind::EventDriven),
        ("cycle_loop/polling", SchedulerKind::Polling),
    ] {
        c.bench_function(id, |b| b.iter(|| black_box(run_once(&insts, scheduler))));
    }
    for (id, mechanism) in [
        ("cycle_loop/rsep_ideal", MechanismConfig::rsep_ideal()),
        ("cycle_loop/rsep_realistic", MechanismConfig::rsep_realistic()),
    ] {
        c.bench_function(id, |b| b.iter(|| black_box(run_rsep(&insts, &mechanism))));
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
