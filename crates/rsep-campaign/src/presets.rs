//! The paper's figure campaigns as ready-made [`CampaignSpec`]s.
//!
//! Every `rsep` figure subcommand runs one of these, so there is exactly
//! one definition of each experiment grid.

use crate::spec::CampaignSpec;
use rsep_core::{FifoHistoryConfig, IsrbConfig, MechanismConfig, RsepConfig, SamplingConfig};
use rsep_uarch::ValidationKind;

/// Figure 1: committed-value redundancy (run with
/// [`Campaign::run_redundancy`](crate::Campaign::run_redundancy)).
pub fn fig1() -> CampaignSpec {
    CampaignSpec::new("figure1").with_baseline(false)
}

/// Figure 4: zero prediction, move elimination, RSEP (ideal), value
/// prediction and RSEP + VP vs the baseline.
pub fn fig4() -> CampaignSpec {
    CampaignSpec::new("figure4").with_mechanisms(MechanismConfig::figure4_suite())
}

/// The validation/sampling variants of Figure 6, labelled.
pub fn fig6_variants() -> Vec<(String, MechanismConfig)> {
    let base = RsepConfig::ideal();
    let mk = |label: &str, validation: ValidationKind, sampling: Option<SamplingConfig>| {
        let mut cfg = base.clone();
        cfg.validation = validation;
        cfg.sampling = sampling;
        let mut mechanism = MechanismConfig::rsep(cfg);
        mechanism.label = label.to_string();
        (label.to_string(), mechanism)
    };
    vec![
        mk("ideal-validation", ValidationKind::Free, None),
        mk("issue2x-lock-fu", ValidationKind::SameFu, None),
        mk("issue2x", ValidationKind::AnyFu, None),
        mk("issue2x-sample-t15", ValidationKind::AnyFu, Some(SamplingConfig::threshold_15())),
        mk("issue2x-sample-t63", ValidationKind::AnyFu, Some(SamplingConfig::threshold_63())),
    ]
}

/// Figure 6: impact of the validation mechanism and commit sampling.
pub fn fig6() -> CampaignSpec {
    CampaignSpec::new("figure6")
        .with_mechanisms(fig6_variants().into_iter().map(|(_, m)| m).collect())
}

/// Figure 7: ideal RSEP vs the realistic 10.1 KB configuration.
pub fn fig7() -> CampaignSpec {
    CampaignSpec::new("figure7")
        .with_mechanisms(vec![MechanismConfig::rsep_ideal(), MechanismConfig::rsep_realistic()])
}

/// Figure 5: coverage of RSEP alone and VP-on-top-of-RSEP (no baseline —
/// coverage needs no speedup reference).
pub fn fig5() -> CampaignSpec {
    CampaignSpec::new("figure5")
        .with_mechanisms(vec![MechanismConfig::rsep_ideal(), MechanismConfig::rsep_plus_vp()])
        .with_baseline(false)
}

/// Section VI-A2 sweep: FIFO history depth sensitivity.
pub fn sweep_history() -> CampaignSpec {
    let mechanisms = [32usize, 128, 256, 2048]
        .iter()
        .map(|&capacity| {
            let mut cfg = RsepConfig::ideal();
            cfg.history = FifoHistoryConfig { capacity, ..FifoHistoryConfig::ideal() };
            let mut m = MechanismConfig::rsep(cfg);
            m.label = format!("history-{capacity}");
            m
        })
        .collect();
    CampaignSpec::new("ablation-history").with_mechanisms(mechanisms)
}

/// Section VI-A3 sweep: ISRB size sensitivity (plus the unlimited point).
pub fn sweep_isrb() -> CampaignSpec {
    let mut mechanisms: Vec<MechanismConfig> = [4usize, 8, 16, 24, 48]
        .iter()
        .map(|&entries| {
            let mut cfg = RsepConfig::ideal();
            cfg.isrb = IsrbConfig { entries, counter_bits: 6 };
            let mut m = MechanismConfig::rsep(cfg);
            m.label = format!("isrb-{entries}");
            m
        })
        .collect();
    let mut unlimited = MechanismConfig::rsep_ideal();
    unlimited.label = "isrb-unlimited".into();
    mechanisms.push(unlimited);
    CampaignSpec::new("ablation-isrb").with_mechanisms(mechanisms)
}

/// Section IV-A sweep: pairing-hash width sensitivity.
pub fn sweep_hash() -> CampaignSpec {
    let mechanisms = [8u8, 10, 14, 16]
        .iter()
        .map(|&hash_bits| {
            let mut cfg = RsepConfig::ideal();
            cfg.history = FifoHistoryConfig { hash_bits, ..FifoHistoryConfig::ideal() };
            let mut m = MechanismConfig::rsep(cfg);
            m.label = format!("hash-{hash_bits}b");
            m
        })
        .collect();
    CampaignSpec::new("ablation-hash").with_mechanisms(mechanisms)
}

/// Every sensitivity sweep, for `rsep sweep`.
pub fn sweeps() -> Vec<CampaignSpec> {
    vec![sweep_history(), sweep_isrb(), sweep_hash()]
}

/// Assembles the Figure 5 coverage breakdown (`% of committed
/// instructions` per mechanism) from a [`fig5`] campaign result.
pub fn figure5_experiment(result: &crate::CampaignResult) -> rsep_stats::Experiment {
    let mut exp = rsep_stats::Experiment::new("figure5", "% of committed instructions");
    // Compare against the canonical label so the series split survives any
    // label change in rsep-core.
    let vp_label = MechanismConfig::rsep_plus_vp().label;
    for row in &result.rows {
        for bench in &row.results {
            let committed = bench.stats.committed.max(1) as f64;
            let c = &bench.stats.coverage;
            let prefix = if bench.mechanism == vp_label { "rsep+vp" } else { "rsep" };
            let pairs = [
                ("zero-idiom-elim", c.zero_idiom_elim),
                ("move-elim", c.move_elim),
                ("zero-pred", c.zero_pred),
                ("load-zero-pred", c.load_zero_pred),
                ("dist-pred", c.dist_pred),
                ("load-dist-pred", c.load_dist_pred),
                ("value-pred", c.value_pred),
                ("load-value-pred", c.load_value_pred),
            ];
            for (name, count) in pairs {
                exp.push(
                    row.benchmark.clone(),
                    format!("{prefix}:{name}"),
                    count as f64 / committed * 100.0,
                );
            }
        }
    }
    exp
}

/// Assembles Figure 7's Section VI-B summary (accuracy / coverage of the
/// realistic configuration, storage budgets) from a [`fig7`] campaign
/// result.
pub fn figure7_summary(result: &crate::CampaignResult) -> rsep_stats::Experiment {
    let mut summary = rsep_stats::Experiment::new("figure7-summary", "value");
    for row in &result.rows {
        for bench in &row.results {
            if bench.mechanism == "rsep-realistic" {
                summary.push(
                    row.benchmark.clone(),
                    "accuracy %",
                    bench.stats.prediction_accuracy() * 100.0,
                );
                summary.push(
                    row.benchmark.clone(),
                    "coverage % of eligible",
                    bench.stats.eligible_coverage_fraction() * 100.0,
                );
            }
        }
    }
    summary.push("storage", "rsep-realistic KB", RsepConfig::realistic().storage_kb());
    summary.push("storage", "rsep-ideal KB", RsepConfig::ideal().storage_kb());
    summary.push("storage", "d-vtage KB", rsep_core::VpConfig::paper().storage_kb());
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_has_five_validation_variants() {
        let variants = fig6_variants();
        assert_eq!(variants.len(), 5);
        assert!(variants.iter().any(|(l, _)| l == "ideal-validation"));
        assert!(variants.iter().any(|(l, _)| l == "issue2x-sample-t63"));
        assert_eq!(fig6().mechanisms.len(), 5);
    }

    #[test]
    fn figure_presets_have_expected_grids() {
        assert_eq!(fig4().mechanisms.len(), 5);
        assert_eq!(fig7().mechanisms.len(), 2);
        assert!(!fig5().baseline);
        assert!(!fig1().baseline);
        assert_eq!(sweeps().len(), 3);
        assert_eq!(sweep_isrb().mechanisms.len(), 6);
    }
}
