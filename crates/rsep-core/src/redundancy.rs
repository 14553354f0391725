//! Commit-time redundancy analysis (Figure 1 of the paper).
//!
//! Figure 1 measures, over committed instructions, how many produce a
//! result that is zero and how many produce a result that is already
//! present in the physical register file (i.e. equals the result of a
//! recent older instruction), separating loads from other
//! register-producing instructions. This analysis only needs the committed
//! value stream, so it runs directly on a trace without the cycle-level
//! core.

use rsep_isa::{DynInst, OpClass};
use std::collections::VecDeque;

/// Result of the Figure-1 analysis for one benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RedundancyReport {
    /// Committed instructions analysed.
    pub committed: u64,
    /// Loads whose result is zero (and are not zero idioms).
    pub zero_loads: u64,
    /// Other producers whose result is zero.
    pub zero_others: u64,
    /// Loads whose (non-zero) result is already live in the window.
    pub prf_loads: u64,
    /// Other producers whose (non-zero) result is already live in the
    /// window.
    pub prf_others: u64,
}

impl RedundancyReport {
    /// Fraction of committed instructions that are zero-producing loads.
    pub fn zero_load_fraction(&self) -> f64 {
        self.ratio(self.zero_loads)
    }

    /// Fraction of committed instructions that are zero-producing
    /// non-loads.
    pub fn zero_other_fraction(&self) -> f64 {
        self.ratio(self.zero_others)
    }

    /// Fraction of committed instructions that are loads whose result is
    /// already in the PRF.
    pub fn prf_load_fraction(&self) -> f64 {
        self.ratio(self.prf_loads)
    }

    /// Fraction of committed instructions that are non-loads whose result
    /// is already in the PRF.
    pub fn prf_other_fraction(&self) -> f64 {
        self.ratio(self.prf_others)
    }

    /// Total fraction covered by any of the four Figure-1 categories.
    pub fn total_fraction(&self) -> f64 {
        self.ratio(self.zero_loads + self.zero_others + self.prf_loads + self.prf_others)
    }

    /// Accumulates another checkpoint's counts into this one (used by the
    /// campaign engine to merge per-checkpoint redundancy cells; the merged
    /// fractions are then instruction-weighted averages).
    pub fn merge(&mut self, other: &RedundancyReport) {
        let RedundancyReport { committed, zero_loads, zero_others, prf_loads, prf_others } = other;
        self.committed += committed;
        self.zero_loads += zero_loads;
        self.zero_others += zero_others;
        self.prf_loads += prf_loads;
        self.prf_others += prf_others;
    }

    fn ratio(&self, n: u64) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            n as f64 / self.committed as f64
        }
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyConfig {
    /// Number of recent register-producing instructions considered "live in
    /// the PRF". The paper resolves this at commit over the in-flight
    /// window; 192 matches the Table I ROB.
    pub window: usize,
}

impl Default for RedundancyConfig {
    fn default() -> Self {
        RedundancyConfig { window: 192 }
    }
}

/// Streaming Figure-1 analyzer.
#[derive(Debug)]
pub struct RedundancyAnalyzer {
    config: RedundancyConfig,
    recent: VecDeque<u64>,
    report: RedundancyReport,
}

impl RedundancyAnalyzer {
    /// Creates an analyzer.
    pub fn new(config: RedundancyConfig) -> RedundancyAnalyzer {
        RedundancyAnalyzer { config, recent: VecDeque::new(), report: RedundancyReport::default() }
    }

    /// Feeds one committed instruction.
    pub fn observe(&mut self, inst: &DynInst) {
        self.report.committed += 1;
        if !inst.produces_register() || inst.op == OpClass::ZeroIdiom {
            return;
        }
        let is_load = inst.op.is_load();
        if inst.result == 0 {
            if is_load {
                self.report.zero_loads += 1;
            } else {
                self.report.zero_others += 1;
            }
        } else if self.recent.contains(&inst.result) {
            if is_load {
                self.report.prf_loads += 1;
            } else {
                self.report.prf_others += 1;
            }
        }
        if self.recent.len() >= self.config.window {
            self.recent.pop_front();
        }
        self.recent.push_back(inst.result);
    }

    /// The report accumulated so far.
    pub fn report(&self) -> RedundancyReport {
        self.report
    }

    /// Convenience: analyses a whole trace.
    pub fn analyze<I: IntoIterator<Item = DynInst>>(
        config: RedundancyConfig,
        trace: I,
    ) -> RedundancyReport {
        let mut analyzer = RedundancyAnalyzer::new(config);
        for inst in trace {
            analyzer.observe(&inst);
        }
        analyzer.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_isa::ArchReg;
    use rsep_trace::{BenchmarkProfile, TraceGenerator};

    fn alu(seq: u64, result: u64) -> DynInst {
        DynInst::simple(seq, 0x400000 + seq * 4, OpClass::IntAlu, ArchReg::int(1), result)
    }

    #[test]
    fn zero_and_redundant_results_are_classified() {
        let trace = vec![
            alu(0, 5),
            alu(1, 0),                                                       // zero other
            alu(2, 5),                                                       // redundant other
            DynInst::simple(3, 0x40000c, OpClass::Load, ArchReg::int(2), 0), // zero load
            DynInst::simple(4, 0x400010, OpClass::Load, ArchReg::int(2), 5), // redundant load
            alu(5, 99),                                                      // neither
        ];
        let report = RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace);
        assert_eq!(report.committed, 6);
        assert_eq!(report.zero_others, 1);
        assert_eq!(report.prf_others, 1);
        assert_eq!(report.zero_loads, 1);
        assert_eq!(report.prf_loads, 1);
        assert!((report.total_fraction() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn window_bounds_the_lookback() {
        let mut trace = vec![alu(0, 123)];
        for i in 1..300u64 {
            trace.push(alu(i, 1_000_000 + i));
        }
        trace.push(alu(300, 123)); // producer fell out of a 192-entry window
        let report = RedundancyAnalyzer::analyze(RedundancyConfig { window: 192 }, trace.clone());
        assert_eq!(report.prf_others, 0);
        let wide = RedundancyAnalyzer::analyze(RedundancyConfig { window: 400 }, trace);
        assert_eq!(wide.prf_others, 1);
    }

    #[test]
    fn zero_idioms_and_non_producers_are_excluded() {
        let trace = vec![
            DynInst::simple(0, 0x400000, OpClass::ZeroIdiom, ArchReg::int(1), 0),
            rsep_isa::DynInstBuilder::new(1, 0x400004, OpClass::Store)
                .mem(0x1000, 8)
                .result(0)
                .build(),
        ];
        let report = RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace);
        assert_eq!(report.committed, 2);
        assert_eq!(report.zero_others, 0);
        assert_eq!(report.zero_loads, 0);
    }

    #[test]
    fn synthetic_profiles_reproduce_the_figure1_shape() {
        let analyze = |name: &str| {
            let profile = BenchmarkProfile::by_name(name).unwrap();
            let trace = TraceGenerator::new(&profile, 17).take(40_000);
            RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace)
        };
        let zeusmp = analyze("zeusmp");
        let gcc = analyze("gcc");
        let mcf = analyze("mcf");
        // zeusmp is one of the zero-heavy benchmarks in Figure 1.
        assert!(
            zeusmp.zero_load_fraction() + zeusmp.zero_other_fraction()
                > 2.0 * (gcc.zero_load_fraction() + gcc.zero_other_fraction()),
            "zeusmp {:.3} vs gcc {:.3}",
            zeusmp.zero_other_fraction(),
            gcc.zero_other_fraction()
        );
        // mcf's redundancy is load dominated.
        assert!(mcf.prf_load_fraction() > mcf.prf_other_fraction());
        // Most benchmarks have non-trivial "already in PRF" potential.
        assert!(mcf.total_fraction() > 0.10);
    }
}
