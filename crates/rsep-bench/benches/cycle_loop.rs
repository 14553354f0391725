//! Criterion bench: the core's cycle loop under both scheduler
//! implementations.
//!
//! `cycle_loop/event_driven` vs `cycle_loop/polling` is the headline
//! comparison for the event-driven wakeup/select rewrite: same simulated
//! behaviour (enforced by the golden-stats and property tests), different
//! simulator throughput. The final `throughput` entries print simulated
//! cycles and instructions per wall-clock second, which the CI quick-bench
//! job surfaces so perf regressions are visible in PR logs — and write the
//! same numbers as machine-readable JSON to `BENCH_cycle_loop.json` at the
//! workspace root (override the path with `RSEP_BENCH_JSON`), so the bench
//! trajectory can be tracked across PRs instead of living only in logs.

#![forbid(unsafe_code)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rsep_bench::record::BenchRecord;
use rsep_stats::json::Json;
use rsep_trace::{BenchmarkProfile, TraceGenerator};
use rsep_uarch::{Core, CoreConfig, SchedulerKind};
use std::time::Instant;

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

fn bench(c: &mut Criterion) {
    let insts = trace_insts();
    for (id, scheduler) in [
        ("cycle_loop/event_driven", SchedulerKind::EventDriven),
        ("cycle_loop/polling", SchedulerKind::Polling),
    ] {
        c.bench_function(id, |b| b.iter(|| black_box(run_once(&insts, scheduler))));
    }
}

/// Default output path of the machine-readable throughput record: the
/// workspace root, next to `ROADMAP.md` (the bench runs with the package
/// directory as its working directory, so a relative path would land in
/// `crates/rsep-bench`).
const BENCH_JSON_DEFAULT: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cycle_loop.json");

/// Prints absolute throughput (simulated cycles & instructions per second)
/// for each scheduler — the number the ROADMAP bench trajectory tracks —
/// and records it as schema-v2 JSON (`BENCH_cycle_loop.json`): host
/// metadata, max-RSS, and the per-stage cycle attribution of one run.
fn throughput(_c: &mut Criterion) {
    let insts = trace_insts();
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let mut results = Vec::new();
    for (label, scheduler) in
        [("event_driven", SchedulerKind::EventDriven), ("polling", SchedulerKind::Polling)]
    {
        // One untimed warm-up, then a few timed runs; report the best.
        run_once(&insts, scheduler);
        let mut best = f64::MAX;
        let mut cycles = 0;
        for _ in 0..3 {
            #[expect(
                clippy::disallowed_methods,
                reason = "bench measures wall-clock throughput; timings never enter simulation results"
            )]
            let start = Instant::now();
            let (c, committed) = run_once(&insts, scheduler);
            let secs = start.elapsed().as_secs_f64();
            // The final commit group may overshoot the target slightly.
            assert!(committed >= COMMITS);
            cycles = c;
            best = best.min(secs);
        }
        let mcycles = cycles as f64 / best / 1e6;
        let minsts = COMMITS as f64 / best / 1e6;
        println!(
            "cycle_loop/throughput/{label:<14} {mcycles:>8.2} Mcycles/s  {minsts:>7.2} Minsts/s"
        );
        results.push(Json::Object(vec![
            ("scheduler".to_string(), Json::Str(label.to_string())),
            ("ms_per_run".to_string(), Json::Num((best * 1e6).round() / 1e3)),
            ("mcycles_per_sec".to_string(), Json::Num(round2(mcycles))),
            ("minsts_per_sec".to_string(), Json::Num(round2(minsts))),
        ]));
    }
    let record = BenchRecord {
        bench: "cycle_loop",
        params: vec![
            ("profile", Json::Str("gcc".to_string())),
            ("config", Json::Str("table1".to_string())),
            ("commits", Json::Num(COMMITS as f64)),
        ],
        results,
        attribution: measured_attribution(&insts),
    };
    record.write("RSEP_BENCH_JSON", BENCH_JSON_DEFAULT);
}

/// Per-stage attribution of one event-driven run over the bench trace.
fn measured_attribution(insts: &[rsep_isa::DynInst]) -> Json {
    let mut config = CoreConfig::table1();
    config.scheduler = SchedulerKind::EventDriven;
    let mut core = Core::baseline(config);
    let mut trace = insts.iter().cloned();
    core.run(&mut trace, COMMITS).expect("bench trace cannot wedge");
    let attribution = core.take_attribution();
    attribution.validate(core.stats().cycles).expect("attribution sums to cycles");
    rsep_bench::record::attribution_json(&attribution)
}

criterion_group!(benches, bench, throughput);
criterion_main!(benches);
