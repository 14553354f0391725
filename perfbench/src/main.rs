//! End-to-end campaign benchmark of the RSEP simulator.
//!
//! ```text
//! perfbench --workload <fig4-live|baseline-live|fig7-replay> --seed N
//!           --seconds S --trace <0|1> --work-dir DIR
//! ```
//!
//! Runs a campaign grid on one thread, through the workspace's public API,
//! in timed passes for about `S` seconds, with the reference probe
//! ([`probe`]) interleaved between cells. Prints one JSON line: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). Set-up failures exit non-zero without a result. See
//! `README.md` in this directory for the workloads, metrics and method.

mod cells;
mod probe;
mod timed;

use cells::{CellRun, Grid, Source, TracedCell};
use probe::{Probe, P0_MS};
use rsep_campaign::{
    open_corpus, presets, record_campaign, CampaignHeader, CampaignResult, CampaignSpec,
    ReportFormat,
};
use rsep_core::{run_checkpoint, run_checkpoint_on, CheckpointResult};
use rsep_stats::Experiment;
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_tracefile::{sha256_hex, AnonScheme};
use rsep_uarch::SimStats;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use timed::span_cost;

/// Profiles of the Figure 4 and Figure 7 slices. perlbench and xalancbmk
/// hold the two cells that wedge at default scale; the others span the
/// suite's memory-bound, branchy and RSEP-friendly behaviours.
const SLICE: [&str; 6] = ["perlbench", "xalancbmk", "mcf", "gcc", "libquantum", "h264ref"];
/// The paper grids' default checkpoint scale and seed (`CampaignSpec::new`
/// without `RSEP_*` overrides), pinned so the environment cannot shrink
/// the workload.
const WARMUP: u64 = 100_000;
const MEASURE: u64 = 60_000;
const CAMPAIGN_SEED: u64 = 42;
/// Timed passes per untraced run, at least; more follow until the run
/// has measured for `--seconds`.
const MIN_PASSES: usize = 3;
/// Corpus set-ups per `fig7-replay` run (median reported).
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn slice_profiles() -> Vec<BenchmarkProfile> {
    SLICE.iter().map(|n| BenchmarkProfile::by_name(n).expect("slice profile exists")).collect()
}

fn pin(spec: CampaignSpec) -> CampaignSpec {
    spec.with_checkpoints(CheckpointSpec::scaled(1, WARMUP, MEASURE)).with_seed(CAMPAIGN_SEED)
}

/// The workload's grid and whether it replays a corpus.
fn workload(name: &str) -> Result<(Grid, bool), String> {
    match name {
        "fig4-live" => Ok((Grid::new(pin(presets::fig4()).with_profiles(slice_profiles())), false)),
        "baseline-live" => Ok((
            Grid::new(
                pin(CampaignSpec::new("baseline")).with_profiles(BenchmarkProfile::spec2006()),
            ),
            false,
        )),
        "fig7-replay" => {
            Ok((Grid::new(pin(presets::fig7()).with_profiles(slice_profiles())), true))
        }
        other => Err(format!("unknown workload '{other}' (fig4-live, baseline-live, fig7-replay)")),
    }
}

// ------------------------------------------------------------- statistics

fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, with the same exclusive
/// method as Python's `statistics.quantiles(values, n=4)`.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.25), if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 }, at(0.75))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Deterministic cell order of a run: a seeded shuffle (the seed chooses
/// the order cells run in, never what they simulate).
fn shuffled(cells: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells).collect();
    let mut x = seed ^ 0x6A09_E667_F3BC_C909;
    for i in (1..cells).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

// ------------------------------------------------------------ the report

/// What `rsep <fig> --json` produces for a grid: the assembled result and
/// the digest of its warnings and rendered JSON report.
struct Report {
    result: CampaignResult,
    digest: String,
}

fn render(grid: &Grid, results: &[CheckpointResult]) -> Report {
    let header = CampaignHeader::for_spec(&grid.spec);
    let cells = results.iter().cloned().enumerate().collect();
    let result = CampaignResult::from_stored(&header, cells).expect("every cell of the grid ran");
    let mut text = String::new();
    for (benchmark, mechanism, error) in result.failures() {
        let _ = writeln!(text, "warning: {}/{benchmark}/{mechanism}: {error}", result.id);
    }
    for exp in experiments(&result) {
        text.push_str(&ReportFormat::Json.render(&exp));
        text.push('\n');
    }
    let digest = sha256_hex(text.as_bytes());
    Report { result, digest }
}

fn experiments(result: &CampaignResult) -> Vec<Experiment> {
    match result.id.as_str() {
        "figure7" => vec![result.speedups(), presets::figure7_summary(result)],
        "baseline" => vec![result.ipcs()],
        _ => vec![result.speedups()],
    }
}

impl Report {
    /// Failed cells the report shows as a finite number.
    fn failed_rendered(&self) -> usize {
        let exps = experiments(&self.result);
        self.result
            .failures()
            .iter()
            .filter(|(b, m, _)| exps.iter().any(|e| e.value(b, m).is_some_and(f64::is_finite)))
            .count()
    }
}

fn stats_digest(results: &[CheckpointResult]) -> String {
    sha256_hex(format!("{results:?}").as_bytes())
}

// ---------------------------------------------------------- timed passes

/// `P0 / P` for a cell bracketed by two probe samples.
fn local_factor(before: Duration, after: Duration) -> f64 {
    2.0 * P0_MS / (ms(before) + ms(after))
}

/// Cells run in `order`, with the probe sampled before the first cell and
/// after every cell; each cell is adjusted by the mean of the two samples
/// around it, so drift within a pass is followed cell by cell.
struct Interleaved<T> {
    /// Per cell, in grid order: output, loop time and adjustment factor.
    out: Vec<T>,
    times: Vec<Duration>,
    factors: Vec<f64>,
    /// Probe samples in time order.
    probes: Vec<Duration>,
}

impl<T> Interleaved<T> {
    fn run(
        cells: usize,
        order: &[usize],
        probe: &mut Probe,
        mut cell: impl FnMut(usize) -> T,
    ) -> Self {
        let mut probes = vec![probe.sample()];
        let mut slots: Vec<Option<T>> = (0..cells).map(|_| None).collect();
        let mut times = vec![Duration::ZERO; cells];
        let mut factors = vec![0.0; cells];
        for &index in order {
            let start = Instant::now();
            slots[index] = Some(cell(index));
            times[index] = start.elapsed();
            let before = probes[probes.len() - 1];
            let after = probe.sample();
            probes.push(after);
            factors[index] = local_factor(before, after);
        }
        let out = slots.into_iter().map(|c| c.expect("every cell ran")).collect();
        Interleaved { out, times, factors, probes }
    }

    /// Adjusted seconds of the cells `keep` selects.
    fn adjusted(&self, keep: impl Fn(&T) -> bool) -> f64 {
        (0..self.out.len())
            .filter(|&i| keep(&self.out[i]))
            .map(|i| self.times[i].as_secs_f64() * self.factors[i])
            .sum()
    }

    fn last_factor(&self) -> f64 {
        P0_MS / ms(self.probes[self.probes.len() - 1])
    }
}

/// One untraced pass over the grid.
struct Pass {
    cells: Interleaved<CellRun>,
    /// Assembly and rendering of the report.
    report_time: Duration,
    report: Report,
}

impl Pass {
    fn run(grid: &Grid, source: &Source, order: &[usize], probe: &mut Probe) -> Pass {
        let cells = Interleaved::run(grid.cells(), order, probe, |index| grid.run(source, index));
        let start = Instant::now();
        let report = render(grid, &cells.out.iter().map(|c| c.result.clone()).collect::<Vec<_>>());
        let report_time = start.elapsed();
        Pass { cells, report_time, report }
    }

    fn results(&self) -> Vec<CheckpointResult> {
        self.cells.out.iter().map(|c| c.result.clone()).collect()
    }

    /// The timed part, unadjusted: every cell plus assembly and rendering.
    fn raw(&self) -> Duration {
        self.cells.times.iter().sum::<Duration>() + self.report_time
    }

    /// The timed part, adjusted cell by cell.
    fn wall(&self) -> f64 {
        self.cells.adjusted(|_| true) + self.report_time.as_secs_f64() * self.cells.last_factor()
    }

    /// Adjusted construction time, summed over cells.
    fn setup(&self) -> f64 {
        let c = &self.cells;
        (0..c.out.len()).map(|i| c.out[i].setup.as_secs_f64() * c.factors[i]).sum()
    }
}

/// Corpus set-up of a replay workload: record, then open and verify.
struct Setup {
    record: Duration,
    open: Duration,
    factor: f64,
    bytes: u64,
    instructions: u64,
}

fn set_up_corpus(grid: &Grid, dir: &Path, probe: &mut Probe) -> Result<(Setup, Source), String> {
    let before = probe.sample();
    let start = Instant::now();
    let written = record_campaign(dir, &grid.spec, AnonScheme::default())?;
    let record = start.elapsed();
    let start = Instant::now();
    let files = open_corpus(dir, &grid.spec)?;
    let open = start.elapsed();
    let setup = Setup {
        record,
        open,
        factor: local_factor(before, probe.sample()),
        bytes: written.iter().map(|w| w.bytes).sum(),
        instructions: written.iter().map(|w| w.instructions).sum(),
    };
    Ok((setup, Source::Replay(files)))
}

/// Metrics are printed in insertion order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
}

/// Output checks shared by both modes; `ok` turns false at the first failure.
struct Checks {
    ok: bool,
}

impl Checks {
    fn require(&mut self, condition: bool, what: impl FnOnce() -> String) {
        if !condition {
            eprintln!("perfbench: check failed: {}", what());
            self.ok = false;
        }
    }
}

/// Compares a run's report digest with the first run of the same
/// workload on the same source tree (the set), recording it if first.
fn check_set_digest(checks: &mut Checks, work_dir: &Path, workload: &str, digest: &str) {
    let path = work_dir.join(format!("{workload}.digest"));
    match std::fs::read_to_string(&path) {
        Ok(first) => checks.require(first.trim() == digest, || {
            format!("report digest {digest} differs from the set's first run ({})", first.trim())
        }),
        Err(_) => {
            if let Err(e) = std::fs::write(&path, digest) {
                eprintln!("perfbench: cannot record {}: {e}", path.display());
            }
        }
    }
}

/// Cross-checks cells against the program's own runner functions: on
/// `fig7-replay`, every baseline and rsep-ideal cell against the live
/// `run_checkpoint` result (the same cells as `fig4-live`'s); elsewhere
/// one seed-chosen cell against `run_checkpoint` / `run_checkpoint_on`.
fn check_against_runner(checks: &mut Checks, grid: &Grid, source: &Source, pass: &Pass, seed: u64) {
    let spec = &grid.spec;
    let live = |index: usize| {
        let c = grid.coords(index);
        run_checkpoint(
            &spec.profiles[c.profile],
            &grid.mechanisms[c.mechanism],
            &spec.core_config,
            spec.checkpoints,
            spec.seed,
            c.checkpoint,
        )
    };
    let indices: Vec<usize> = match source {
        Source::Replay(_) => spec
            .profiles
            .iter()
            .flat_map(|p| ["baseline", "rsep-ideal"].map(|m| grid.find(p.name, m)))
            .map(|i| i.expect("fig7 grid has baseline and rsep-ideal"))
            .collect(),
        Source::Live => vec![(seed % grid.cells() as u64) as usize],
    };
    for index in indices {
        let expected = live(index);
        let got = &pass.cells.out[index].result;
        checks.require(same_cell(got, &expected), || {
            format!("{}: cell differs from rsep_core::run_checkpoint", grid.label(index))
        });
    }
    if let Source::Replay(files) = source {
        let index = (seed % grid.cells() as u64) as usize;
        let c = grid.coords(index);
        let mut segment = files[c.profile].segment(c.checkpoint).expect("validated corpus");
        let expected = run_checkpoint_on(
            &mut segment,
            &grid.mechanisms[c.mechanism],
            &spec.core_config,
            spec.checkpoints,
            c.checkpoint,
        );
        checks.require(same_cell(&pass.cells.out[index].result, &expected), || {
            format!("{}: cell differs from rsep_core::run_checkpoint_on", grid.label(index))
        });
    }
}

fn same_cell(a: &CheckpointResult, b: &CheckpointResult) -> bool {
    a.index == b.index
        && a.stats == b.stats
        && a.error == b.error
        && a.ipc.to_bits() == b.ipc.to_bits()
}

/// Checks every pass and returns the failed-cell count of one pass.
fn check_passes(checks: &mut Checks, grid: &Grid, passes: &[Pass]) -> usize {
    let first = &passes[0];
    for pass in &passes[1..] {
        checks.require(pass.report.digest == first.report.digest, || {
            format!("pass report digest {} != {}", pass.report.digest, first.report.digest)
        });
        checks.require(stats_digest(&pass.results()) == stats_digest(&first.results()), || {
            "cell statistics differ between passes".into()
        });
    }
    let failed = first.cells.out.iter().filter(|c| !c.result.is_ok()).count();
    for pass in passes {
        // Failed cells are counted from the cells themselves and must
        // match the campaign's own failure list one for one.
        checks.require(pass.report.result.failures().len() == failed, || {
            "CampaignResult::failures() disagrees with the cells' errors".into()
        });
        for (index, cell) in pass.cells.out.iter().enumerate() {
            let r = &cell.result;
            if r.is_ok() {
                checks.require(r.stats.committed >= grid.spec.checkpoints.measure, || {
                    format!("{}: committed {} instructions", grid.label(index), r.stats.committed)
                });
            } else {
                checks.require(r.stats == SimStats::default() && r.ipc == 0.0, || {
                    format!("{}: a failed cell carries statistics", grid.label(index))
                });
            }
        }
    }
    failed
}

/// Cell listing: a failed cell is shown as `failed`, never as a number.
fn log_cells(grid: &Grid, pass: &Pass) {
    for (index, cell) in pass.cells.out.iter().enumerate() {
        match &cell.result.error {
            Some(e) => eprintln!("perfbench: {:<32} failed ({e})", grid.label(index)),
            None => eprintln!(
                "perfbench: {:<32} ipc {:.4} in {:.1} ms",
                grid.label(index),
                cell.result.ipc,
                ms(cell.setup + cell.run)
            ),
        }
    }
}

// ------------------------------------------------------------------ main

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            let mut line = format!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
            );
            for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ =
                    write!(line, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
            }
            line.push_str("}}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

type Outcome = (bool, usize, usize, Metrics);

fn run(args: &Args) -> Result<Outcome, String> {
    let (grid, replay) = workload(&args.workload)?;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
    let mut probe = Probe::new();
    let order = shuffled(grid.cells(), args.seed);

    // Set-up: a replay workload records and opens its corpus (repeated,
    // median reported); live workloads have nothing to prepare.
    let mut setups = Vec::new();
    let mut source = Source::Live;
    if replay {
        let dir = args.work_dir.join("corpus");
        for _ in 0..SETUP_REPEATS {
            let (setup, opened) = set_up_corpus(&grid, &dir, &mut probe)?;
            setups.push(setup);
            source = opened;
        }
    }

    let mut checks = Checks { ok: true };
    if args.trace {
        traced_run(args, &grid, &source, &order, &setups, &mut probe, &mut checks)
    } else {
        untraced_run(args, &grid, &source, &order, &setups, &mut probe, &mut checks)
    }
}

fn untraced_run(
    args: &Args,
    grid: &Grid,
    source: &Source,
    order: &[usize],
    setups: &[Setup],
    probe: &mut Probe,
    checks: &mut Checks,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(Pass::run(grid, source, order, probe));
    }
    log_cells(grid, &passes[0]);
    let failed_cells = check_passes(checks, grid, &passes);
    check_against_runner(checks, grid, source, &passes[0], args.seed);
    check_set_digest(checks, &args.work_dir, &args.workload, &passes[0].report.digest);

    let per_cell = grid.instructions_per_cell() as f64;
    let (mut wall, mut minsts, mut ns_cycle, mut setup) = (vec![], vec![], vec![], vec![]);
    for pass in &passes {
        let ok = |c: &CellRun| c.result.is_ok();
        let ok_cells = pass.cells.out.iter().filter(|c| ok(c)).count();
        let ok_cycles: u64 = pass.cells.out.iter().filter(|c| ok(c)).map(|c| c.cycles).sum();
        wall.push(pass.wall());
        minsts.push(ok_cells as f64 * per_cell / pass.wall() / 1e6);
        ns_cycle.push(ratio(pass.cells.adjusted(ok) * 1e9, ok_cycles as f64));
        setup.push(pass.setup());
    }
    let setup_s = if setups.is_empty() {
        median(&setup)
    } else {
        let corpus: Vec<f64> =
            setups.iter().map(|s| (s.record + s.open).as_secs_f64() * s.factor).collect();
        median(&corpus)
    };
    eprintln!(
        "perfbench: {} passes of {} cells; raw {:.3?} s; adjusted {:.3?} s; probe median {:.3} ms",
        passes.len(),
        grid.cells(),
        passes.iter().map(|p| p.raw().as_secs_f64()).collect::<Vec<_>>(),
        wall,
        median(
            &passes.iter().flat_map(|p| p.cells.probes.iter().map(|d| ms(*d))).collect::<Vec<_>>()
        ),
    );

    let mut m = Metrics::default();
    m.put("wall_s", median(&wall), "s");
    m.put("sim_minsts_per_s", median(&minsts), "Minst/s");
    m.put("ns_per_sim_cycle", median(&ns_cycle), "ns");
    m.put("setup_s", setup_s, "s");
    m.put("max_rss_mb", max_rss_mib()?, "MiB");
    m.put("cells_ok_frac", 1.0 - failed_cells as f64 / grid.cells() as f64, "frac");
    Ok((checks.ok, passes.len(), 0, m))
}

fn traced_run(
    args: &Args,
    grid: &Grid,
    source: &Source,
    order: &[usize],
    setups: &[Setup],
    probe: &mut Probe,
    checks: &mut Checks,
) -> Result<Outcome, String> {
    let pass = Pass::run(grid, source, order, probe);
    let failed_cells = check_passes(checks, grid, std::slice::from_ref(&pass));
    check_against_runner(checks, grid, source, &pass, args.seed);
    check_set_digest(checks, &args.work_dir, &args.workload, &pass.report.digest);

    let traced =
        Interleaved::run(grid.cells(), order, probe, |index| grid.run_traced(source, index));
    for (index, (t, u)) in traced.out.iter().zip(&pass.cells.out).enumerate() {
        checks.require(same_cell(&t.result, &u.result), || {
            format!("{}: traced statistics differ from the untraced run", grid.label(index))
        });
    }
    let start = Instant::now();
    let traced_report =
        render(grid, &traced.out.iter().map(|t| t.result.clone()).collect::<Vec<_>>());
    let traced_report_time = start.elapsed();
    checks.require(traced_report.digest == pass.report.digest, || {
        "traced report digest differs from the untraced one".into()
    });

    // Layer times, each adjusted by its cell's probe factor. A hook span
    // also measures part of its own clock reads; that part is the tracer's
    // share, taken out of the hook time.
    let span = span_cost().as_secs_f64();
    let adjusted = |f: &dyn Fn(&TracedCell) -> f64| -> f64 {
        (0..traced.out.len()).map(|i| f(&traced.out[i]) * traced.factors[i]).sum()
    };
    let total = adjusted(&|t| t.total.as_secs_f64());
    let drain = adjusted(&|t| t.drain.as_secs_f64());
    let timer = adjusted(&|t| t.hooks.calls as f64 * span);
    let hooks = adjusted(&|t| t.hooks.total.as_secs_f64()) - timer;
    let core_self = adjusted(&|t| (t.run - t.hooks.total).as_secs_f64());
    let setup = adjusted(&|t| t.setup.as_secs_f64());
    let commit_time = adjusted(&|t| t.hooks.commit.as_secs_f64() - t.hooks.commits as f64 * span);
    let shares = [drain, hooks, core_self, setup, timer].map(|x| x / total);
    let covered: f64 = shares.iter().sum();
    checks.require((0.97..=1.01).contains(&covered), || {
        format!("traced shares cover {covered:.4} of traced cell time")
    });
    let commits: u64 = traced.out.iter().map(|t| t.hooks.commits).sum();
    let drained: u64 = traced.out.iter().map(|t| t.drained).sum();
    let (searches, matches) = traced
        .out
        .iter()
        .filter_map(|t| t.fifo)
        .fold((0u64, 0u64), |(s, m), f| (s + f.searches, m + f.matches));

    let ok: Vec<&TracedCell> = traced.out.iter().filter(|t| t.result.is_ok()).collect();
    let mut merged = SimStats::default();
    for t in &ok {
        merged.merge(&t.result.stats);
    }
    let mpki = |level: &str| {
        let misses = merged.cache.iter().find(|(n, _)| *n == level).map_or(0, |(_, c)| c.misses);
        ratio(misses as f64 * 1e3, merged.committed as f64)
    };
    let ipcs: Vec<f64> = ok.iter().map(|t| t.result.ipc).collect();
    let traced_wall = total + traced_report_time.as_secs_f64() * traced.last_factor();
    let live = matches!(source, Source::Live);
    let (gen, decode) = if live { (drain, 0.0) } else { (0.0, drain) };
    let median_setup = |f: fn(&Setup) -> Duration| {
        if setups.is_empty() {
            0.0
        } else {
            median(&setups.iter().map(|s| f(s).as_secs_f64() * s.factor).collect::<Vec<_>>())
        }
    };
    let probes: Vec<f64> = pass.cells.probes.iter().chain(&traced.probes).map(|d| ms(*d)).collect();
    let (q1, probe_ms, q3) = quartiles(&probes);
    let cell_sum: Duration = pass.cells.out.iter().map(|c| c.setup + c.run).sum();

    let mut m = Metrics::default();
    m.put("host.raw_wall_s", pass.raw().as_secs_f64(), "s");
    m.put("host.probe_ms", probe_ms, "ms");
    m.put("host.probe_spread", (q3 - q1) / probe_ms, "frac");
    m.put("host.trace_overhead_s", traced_wall - pass.wall(), "s");
    m.put("campaign.cells", grid.cells() as f64, "count");
    m.put(
        "campaign.overhead_s",
        pass.raw().saturating_sub(cell_sum).as_secs_f64() * pass.cells.last_factor(),
        "s",
    );
    m.put("campaign.report_ms", ms(pass.report_time) * pass.cells.last_factor(), "ms");
    m.put("campaign.failed_rendered", pass.report.failed_rendered() as f64, "count");
    m.put("campaign.setup_share", shares[3], "frac");
    m.put("host.timer_share", shares[4], "frac");
    m.put("trace.gen_share", gen / total, "frac");
    m.put(
        "trace.minsts_per_s",
        if live { ratio(drained as f64, gen) / 1e6 } else { 0.0 },
        "Minst/s",
    );
    m.put("tracefile.record_s", median_setup(|s| s.record), "s");
    m.put("tracefile.open_s", median_setup(|s| s.open), "s");
    m.put("tracefile.decode_share", decode / total, "frac");
    m.put(
        "tracefile.bytes_per_inst",
        setups.first().map_or(0.0, |s| ratio(s.bytes as f64, s.instructions as f64)),
        "B/inst",
    );
    m.put("engine.hook_share", shares[1], "frac");
    m.put("engine.commit_ns", ratio(commit_time * 1e9, commits as f64), "ns");
    m.put("engine.history_searches", searches as f64, "count");
    m.put("engine.history_match_ratio", ratio(matches as f64, searches as f64), "frac");
    m.put("engine.coverage_frac", merged.coverage_fraction(), "frac");
    m.put("engine.pred_squashes", merged.prediction_squashes as f64, "count");
    m.put("core.self_share", shares[2], "frac");
    m.put("core.sim_cycles", ok.iter().map(|t| t.cycles).sum::<u64>() as f64, "count");
    m.put("core.ipc_hmean", rsep_stats::harmonic_mean(&ipcs), "inst/cycle");
    m.put("core.rob_occ_mean", merged.avg_rob_occupancy(), "entries");
    m.put(
        "core.prf_stall_frac",
        ratio(merged.prf_stall_cycles as f64, merged.cycles as f64),
        "frac",
    );
    m.put("core.watchdog_failures", failed_cells as f64, "count");
    m.put("cache.l1d_mpki", mpki("L1D"), "MPKI");
    m.put("cache.l2_mpki", mpki("L2"), "MPKI");
    m.put("cache.l3_mpki", mpki("L3"), "MPKI");
    m.put("frontend.branch_mpki", merged.branch_mpki(), "MPKI");
    Ok((checks.ok, 1, 0, m))
}

/// Peak resident set of this process (VmHWM), in MiB.
fn max_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}
