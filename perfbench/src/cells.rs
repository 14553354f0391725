//! Campaign grids and the per-cell protocol.
//!
//! A grid is a [`CampaignSpec`] expanded exactly like `Campaign::run`
//! expands it: baseline first (when present), then the spec's mechanisms;
//! cell `index` is `(profile, mechanism, checkpoint)` in row-major order,
//! so the cells reassemble through the campaign's own
//! `CampaignResult::from_stored`.
//!
//! Each cell runs the warm-up / reset / measure protocol of
//! `rsep_core::run_checkpoint_on`, with the construction of the trace
//! source, engine and core timed apart (the benchmark's set-up time) and
//! the core's clock read afterwards (cycles simulated, warm-up included).

use crate::timed::{HookTime, Timed};
use rsep_campaign::CampaignSpec;
use rsep_core::{checkpoint_seed, CheckpointResult, FifoHistoryStats, MechanismConfig, RsepEngine};
use rsep_isa::DynInst;
use rsep_trace::{CheckpointSpec, TraceGenerator};
use rsep_tracefile::{TraceFile, RECORD_SLACK};
use rsep_uarch::{Core, SpecEngine};
use std::time::{Duration, Instant};

/// Where a grid's instruction streams come from.
pub enum Source {
    /// Live `TraceGenerator`s, seeded like the campaign runner seeds them.
    Live,
    /// A recorded corpus: one validated trace file per profile, spec order.
    Replay(Vec<TraceFile>),
}

/// A campaign grid.
pub struct Grid {
    /// The campaign.
    pub spec: CampaignSpec,
    /// The expanded mechanism axis (baseline first when present).
    pub mechanisms: Vec<MechanismConfig>,
}

/// A cell's place in the grid.
#[derive(Debug, Clone, Copy)]
pub struct Coords {
    pub profile: usize,
    pub mechanism: usize,
    pub checkpoint: usize,
}

impl Grid {
    pub fn new(spec: CampaignSpec) -> Grid {
        let mut mechanisms = Vec::new();
        if spec.baseline {
            mechanisms.push(MechanismConfig::baseline());
        }
        mechanisms.extend(spec.mechanisms.iter().cloned());
        Grid { spec, mechanisms }
    }

    pub fn cells(&self) -> usize {
        self.spec.cell_count()
    }

    pub fn coords(&self, index: usize) -> Coords {
        let n_checkpoints = self.spec.checkpoints.count;
        Coords {
            profile: index / (n_checkpoints * self.mechanisms.len()),
            mechanism: (index / n_checkpoints) % self.mechanisms.len(),
            checkpoint: index % n_checkpoints,
        }
    }

    /// `profile/mechanism#checkpoint`, for diagnostics.
    pub fn label(&self, index: usize) -> String {
        let c = self.coords(index);
        format!(
            "{}/{}#{}",
            self.spec.profiles[c.profile].name, self.mechanisms[c.mechanism].label, c.checkpoint
        )
    }

    /// Index of the cell with the given profile and mechanism names
    /// (checkpoint 0), if the grid has one.
    pub fn find(&self, profile: &str, mechanism: &str) -> Option<usize> {
        let p = self.spec.profiles.iter().position(|x| x.name == profile)?;
        let m = self.mechanisms.iter().position(|x| x.label == mechanism)?;
        Some((p * self.mechanisms.len() + m) * self.spec.checkpoints.count)
    }

    /// Instructions the protocol commits per cell (warm-up + measured).
    pub fn instructions_per_cell(&self) -> u64 {
        self.spec.checkpoints.warmup + self.spec.checkpoints.measure
    }

    /// Runs cell `index` untraced.
    pub fn run(&self, source: &Source, index: usize) -> CellRun {
        let c = self.coords(index);
        let mechanism = &self.mechanisms[c.mechanism];
        match source {
            Source::Live => {
                let profile = &self.spec.profiles[c.profile];
                let seed = checkpoint_seed(self.spec.seed, c.checkpoint);
                self.run_on(|| TraceGenerator::new(profile, seed), mechanism, c.checkpoint)
            }
            Source::Replay(files) => self.run_on(
                || {
                    files[c.profile]
                        .segment(c.checkpoint)
                        .expect("corpus validated against the spec")
                },
                mechanism,
                c.checkpoint,
            ),
        }
    }

    fn run_on<T: Iterator<Item = DynInst>>(
        &self,
        make_trace: impl FnOnce() -> T,
        mechanism: &MechanismConfig,
        checkpoint: usize,
    ) -> CellRun {
        let start = Instant::now();
        let mut trace = make_trace();
        let mut core = Core::new(self.spec.core_config.clone(), RsepEngine::new(mechanism.clone()));
        let setup = start.elapsed();
        let result = protocol(&mut core, &mut trace, self.spec.checkpoints, checkpoint);
        let cycles = core.clock();
        drop(core);
        drop(trace);
        CellRun { result, setup, run: start.elapsed() - setup, cycles }
    }

    /// Runs cell `index` traced: the stream is drained first (generation or
    /// decoding timed on its own), then simulated on a hook-timed engine.
    pub fn run_traced(&self, source: &Source, index: usize) -> TracedCell {
        let c = self.coords(index);
        let mechanism = &self.mechanisms[c.mechanism];
        match source {
            Source::Live => {
                let profile = &self.spec.profiles[c.profile];
                let seed = checkpoint_seed(self.spec.seed, c.checkpoint);
                self.traced_on(|| TraceGenerator::new(profile, seed), mechanism, c.checkpoint)
            }
            Source::Replay(files) => self.traced_on(
                || {
                    files[c.profile]
                        .segment(c.checkpoint)
                        .expect("corpus validated against the spec")
                },
                mechanism,
                c.checkpoint,
            ),
        }
    }

    fn traced_on<T: Iterator<Item = DynInst>>(
        &self,
        make_trace: impl FnOnce() -> T,
        mechanism: &MechanismConfig,
        checkpoint: usize,
    ) -> TracedCell {
        let start = Instant::now();
        let trace = make_trace();
        let engine = Timed::new(RsepEngine::new(mechanism.clone()));
        let mut core = Core::new(self.spec.core_config.clone(), engine);
        let setup = start.elapsed();

        // Pre-drain exactly what a recorded segment holds, as
        // `record_profile` does.
        let drain_start = Instant::now();
        let insts: Vec<DynInst> =
            trace.take((self.instructions_per_cell() + RECORD_SLACK) as usize).collect();
        let drain = drain_start.elapsed();
        let drained = insts.len() as u64;

        let run_start = Instant::now();
        let result = protocol(&mut core, &mut insts.into_iter(), self.spec.checkpoints, checkpoint);
        let run = run_start.elapsed();

        let hooks = core.engine().time();
        let fifo = core.engine().inner().fifo_stats();
        let cycles = core.clock();
        drop(core);
        TracedCell {
            result,
            setup,
            drain,
            drained,
            run,
            hooks,
            fifo,
            cycles,
            total: start.elapsed(),
        }
    }
}

/// The warm-up / reset / measure protocol of `rsep_core::run_checkpoint_on`.
fn protocol<E: SpecEngine>(
    core: &mut Core<E>,
    trace: &mut impl Iterator<Item = DynInst>,
    spec: CheckpointSpec,
    checkpoint: usize,
) -> CheckpointResult {
    if let Err(e) = core.run(trace, spec.warmup) {
        return CheckpointResult::failed(checkpoint, &e);
    }
    core.reset_stats();
    if let Err(e) = core.run(trace, spec.measure) {
        return CheckpointResult::failed(checkpoint, &e);
    }
    CheckpointResult::ok(checkpoint, core.take_stats())
}

/// One untraced cell.
pub struct CellRun {
    pub result: CheckpointResult,
    /// Construction of the trace source, engine and core.
    pub setup: Duration,
    /// The protocol plus tear-down.
    pub run: Duration,
    /// Cycles simulated, warm-up included.
    pub cycles: u64,
}

/// One traced cell.
pub struct TracedCell {
    pub result: CheckpointResult,
    pub setup: Duration,
    /// Draining the stream (generation or decoding).
    pub drain: Duration,
    pub drained: u64,
    /// `Core::run` calls of the protocol, hooks included.
    pub run: Duration,
    pub hooks: HookTime,
    pub fifo: Option<FifoHistoryStats>,
    pub cycles: u64,
    /// The whole cell, tear-down included.
    pub total: Duration,
}
