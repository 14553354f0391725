//! Per-stage cycle attribution on mechanism cells.
//!
//! `rsep-uarch`'s own attribution tests can only drive the baseline core.
//! Here the core runs the real [`RsepEngine`], whose register sharing,
//! validation µ-ops and prediction squashes exercise classification paths
//! the baseline never reaches. Every stage must still account for every
//! cycle exactly once, and the validation work counter must agree with
//! `SimStats`.

use rsep_core::{checkpoint_seed, MechanismConfig, RsepConfig, RsepEngine};
use rsep_trace::{BenchmarkProfile, CheckpointSpec, TraceGenerator};
use rsep_uarch::{Core, CoreConfig, SchedulerKind, ValidationKind};

#[test]
fn attribution_sums_to_cycles_on_mechanism_cells() {
    let spec = CheckpointSpec::scaled(1, 2_000, 8_000);
    // The ideal configurations validate for free; Figure 6's issue-twice
    // variant sends validation µ-ops through the ports, so the counter
    // check has teeth.
    let issue_twice = RsepConfig { validation: ValidationKind::AnyFu, ..RsepConfig::ideal() };
    let mechanisms = [
        MechanismConfig::rsep_ideal(),
        MechanismConfig::rsep_plus_vp(),
        MechanismConfig::rsep(issue_twice),
    ];
    let mut validations = 0;
    for name in ["mcf", "libquantum"] {
        let profile = BenchmarkProfile::by_name(name).expect("known profile");
        for mechanism in &mechanisms {
            for scheduler in [SchedulerKind::EventDriven, SchedulerKind::Polling] {
                let cell = format!("{name}/{}/{scheduler:?}", mechanism.label);
                let mut config = CoreConfig::table1();
                config.scheduler = scheduler;
                let mut core = Core::new(config, RsepEngine::new(mechanism.clone()));
                let mut trace = TraceGenerator::new(&profile, checkpoint_seed(42, 0));
                core.run(&mut trace, spec.warmup).expect("warm-up cannot wedge");
                core.reset_stats();
                core.run(&mut trace, spec.measure).expect("measure cannot wedge");
                let attribution = core.take_attribution();
                let stats = core.take_stats();
                if let Err(problem) = attribution.validate(stats.cycles) {
                    panic!("{cell}: {problem}");
                }
                assert_eq!(attribution.work.validations_issued, stats.validation_issues, "{cell}");
                validations += stats.validation_issues;
            }
        }
    }
    assert!(validations > 0, "no cell issued a validation µ-op");
}
