//! Campaign-level trace record and replay.
//!
//! [`record_campaign`] freezes every profile of a [`CampaignSpec`] into a
//! corpus directory (`<dir>/<profile>.rseptrc`); [`open_corpus`] validates
//! a corpus against a spec (profile calibration fingerprint, seed and
//! checkpoint scale must all match the recording); [`replay_campaign`]
//! then runs the full grid with every cell driven from the files instead
//! of live generators. Because each cell sees the same instruction stream
//! (modulo the keyed address translation, which is behaviour-preserving),
//! the replayed [`CampaignResult`] renders **byte-identically** to the
//! live run's report — the property `rsep trace replay` and the CI
//! end-to-end check rely on.

use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use rsep_core::run_checkpoint_on;
use rsep_isa::Fingerprint;
use rsep_tracefile::{record_profile, AnonScheme, TraceFile};

use crate::{assemble_rows, expand_mechanisms, grid_cell, CampaignResult, CampaignSpec, Executor};

/// Path of one profile's trace within a corpus directory.
fn trace_path(dir: &Path, profile: &str) -> PathBuf {
    dir.join(format!("{profile}.rseptrc"))
}

/// Summary of one file written by [`record_campaign`].
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    /// Benchmark profile name.
    pub profile: String,
    /// File the trace was written to.
    pub path: PathBuf,
    /// Instruction records in the file (all segments).
    pub instructions: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// Records every profile of `spec` into `dir/<profile>.rseptrc`.
///
/// Each file holds one segment per checkpoint, seeded exactly like the
/// live runner, so [`replay_campaign`] over the same spec reproduces the
/// live grid. Existing files are overwritten: a corpus is a pure function
/// of the spec, never an accumulation.
pub fn record_campaign(
    dir: &Path,
    spec: &CampaignSpec,
    anon: AnonScheme,
) -> Result<Vec<RecordedTrace>, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut written = Vec::with_capacity(spec.profiles.len());
    for profile in &spec.profiles {
        let path = trace_path(dir, profile.name);
        let out = fs::File::create(&path)
            .map(BufWriter::new)
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        record_profile(out, profile, &spec.checkpoints, spec.seed, anon)
            .map_err(|e| format!("record {}: {e}", path.display()))?;
        let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let file = TraceFile::open(&path).map_err(|e| format!("reread {}: {e}", path.display()))?;
        written.push(RecordedTrace {
            profile: profile.name.to_string(),
            path,
            instructions: file.instructions(),
            bytes,
        });
    }
    Ok(written)
}

/// Opens and validates `dir`'s trace file for every profile of `spec`, in
/// spec order.
///
/// A file recorded from a different profile calibration, seed or
/// checkpoint scale would replay without error but produce a grid that
/// silently differs from the live campaign — every header field the cell
/// outcome depends on is therefore checked up front.
pub fn open_corpus(dir: &Path, spec: &CampaignSpec) -> Result<Vec<TraceFile>, String> {
    spec.profiles
        .iter()
        .map(|profile| {
            let path = trace_path(dir, profile.name);
            let label = path.display().to_string();
            let file = TraceFile::open(&path).map_err(|e| format!("{label}: {e}"))?;
            let h = file.header();
            let mismatch = |what: &str, got: &dyn std::fmt::Display, want: &dyn std::fmt::Display| {
                format!("{label}: {what} is {got}, but the campaign needs {want} — re-record with `rsep trace record`")
            };
            if h.profile != profile.name {
                return Err(mismatch("profile", &h.profile, &profile.name));
            }
            if h.profile_fingerprint != profile.fingerprint_value() {
                return Err(format!(
                    "{label}: recorded from a different calibration of profile '{}' — \
                     re-record with `rsep trace record`",
                    profile.name
                ));
            }
            if h.seed != spec.seed {
                return Err(mismatch("seed", &h.seed, &spec.seed));
            }
            if h.checkpoints != spec.checkpoints.count as u64 {
                return Err(mismatch("checkpoint count", &h.checkpoints, &spec.checkpoints.count));
            }
            if h.warmup != spec.checkpoints.warmup {
                return Err(mismatch("warm-up scale", &h.warmup, &spec.checkpoints.warmup));
            }
            if h.measure != spec.checkpoints.measure {
                return Err(mismatch("measure scale", &h.measure, &spec.checkpoints.measure));
            }
            Ok(file)
        })
        .collect()
}

/// Runs the full campaign grid with every cell driven from `corpus`
/// (one validated [`TraceFile`] per profile, spec order) instead of live
/// generators.
///
/// Cell expansion, execution order and row assembly mirror
/// [`Campaign::run`](crate::Campaign::run) exactly, so the result renders
/// byte-identically to a live run of the same spec.
pub fn replay_campaign(
    executor: &Executor,
    spec: &CampaignSpec,
    corpus: &[TraceFile],
) -> Result<CampaignResult, String> {
    if corpus.len() != spec.profiles.len() {
        return Err(format!(
            "corpus holds {} trace file(s) but the campaign has {} profiles",
            corpus.len(),
            spec.profiles.len()
        ));
    }
    let mechanisms = expand_mechanisms(spec);
    let n_mechanisms = mechanisms.len();
    let n_checkpoints = spec.checkpoints.count;
    let cells = spec.profiles.len() * n_mechanisms * n_checkpoints;
    let (outputs, exec) = executor.run(cells, |index| {
        let (profile, mechanism, checkpoint) = grid_cell(index, n_mechanisms, n_checkpoints);
        let mut segment = corpus[profile]
            .segment(checkpoint)
            .expect("segment count was validated against the spec");
        // A segment too short for the scale surfaces as a drained-trace
        // cell failure, exactly like a live generator ending early.
        run_checkpoint_on(
            &mut segment,
            &mechanisms[mechanism],
            &spec.core_config,
            spec.checkpoints,
            checkpoint,
        )
    });
    let benchmarks: Vec<String> = spec.profiles.iter().map(|p| p.name.to_string()).collect();
    let labels: Vec<String> = mechanisms.iter().map(|m| m.label.clone()).collect();
    let rows = assemble_rows(&benchmarks, &labels, spec.baseline, n_checkpoints, outputs);
    Ok(CampaignResult { id: spec.id.clone(), rows, exec })
}
