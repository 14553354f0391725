//! `Timed`: a forwarding [`SpecEngine`] decorator that times every hook.
//!
//! The traced run drives each cell on `Core<Timed<RsepEngine>>`. Every
//! hook is forwarded unchanged, so the simulated statistics must equal the
//! untraced run's exactly — the benchmark checks that for every cell. The
//! time spent inside the per-instruction hooks is the engine's share;
//! `Core::run` time minus hook time is the core's self time. The two `&self`
//! queries, `name` (deadlock reports) and `predictor_stats` (statistics
//! finalisation), run at most once per cell and are forwarded untimed.

use rsep_isa::{DynInst, PhysReg};
use rsep_predictors::PredictorStats;
use rsep_uarch::{Disposition, RenameAction, RenameContext, SpecEngine};
use std::time::{Duration, Instant};

/// Hook time accumulated by a [`Timed`] engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct HookTime {
    /// Time inside every hook.
    pub total: Duration,
    /// Time inside `at_commit`.
    pub commit: Duration,
    /// `at_commit` calls.
    pub commits: u64,
    /// Timed hook calls of every kind.
    pub calls: u64,
}

/// The part of its own two clock reads that a timed span measures,
/// found by timing empty spans exactly as [`Timed`] times a hook. It is
/// subtracted from hook time and reported as the tracer's share.
pub fn span_cost() -> Duration {
    const SPANS: u32 = 1 << 20;
    let mut inside = Duration::ZERO;
    for _ in 0..SPANS {
        let span = Instant::now();
        inside += std::hint::black_box(span).elapsed();
    }
    inside / SPANS
}

/// Wraps an engine and times each hook call.
#[derive(Debug)]
pub struct Timed<E> {
    inner: E,
    time: HookTime,
}

impl<E> Timed<E> {
    /// Wraps `inner` with zeroed timers.
    pub fn new(inner: E) -> Timed<E> {
        Timed { inner, time: HookTime::default() }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Hook time so far.
    pub fn time(&self) -> HookTime {
        self.time
    }

    fn timed<R>(&mut self, hook: impl FnOnce(&mut E) -> R) -> R {
        let start = Instant::now();
        let out = hook(&mut self.inner);
        self.time.total += start.elapsed();
        self.time.calls += 1;
        out
    }
}

impl<E: SpecEngine> SpecEngine for Timed<E> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_branch(&mut self, pc: u64, taken: bool) {
        self.timed(|e| e.on_branch(pc, taken))
    }
    fn at_rename(&mut self, inst: &DynInst, ctx: &RenameContext<'_>) -> RenameAction {
        self.timed(|e| e.at_rename(inst, ctx))
    }
    fn at_commit(&mut self, inst: &DynInst, disposition: Disposition, clock: u64) {
        let start = Instant::now();
        self.inner.at_commit(inst, disposition, clock);
        let spent = start.elapsed();
        self.time.total += spent;
        self.time.commit += spent;
        self.time.commits += 1;
        self.time.calls += 1;
    }
    fn release_register(&mut self, preg: PhysReg) -> bool {
        self.timed(|e| e.release_register(preg))
    }
    fn on_squash(&mut self, from_seq: u64) -> Vec<PhysReg> {
        self.timed(|e| e.on_squash(from_seq))
    }
    fn predictor_stats(&self) -> Vec<(&'static str, PredictorStats)> {
        self.inner.predictor_stats()
    }
}
