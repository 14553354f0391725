//! Golden expected-output guard: the fig4 and fig7 smoke campaigns, plus
//! the hash-width and history-depth sweeps, must reproduce the digests
//! committed under `tests/expected/`, bit for bit.
//!
//! The two sweeps pin the commit-time history search at its edges: the
//! 8-bit hash makes long same-hash chains and the 32-entry history evicts
//! entries that are still chained.
//!
//! The golden-stats suite proves two *live* configurations agree with each
//! other; this suite pins the results against a *committed* artifact, so
//! any simulator-behaviour change (intended or not) shows up as a digest
//! diff in review.
//!
//! The digest per campaign: the rendered speedup report JSON, then one line
//! per (benchmark, mechanism) cell with the full `SimStats` debug
//! rendering and the per-checkpoint IPC bit patterns in hex. To re-bless
//! after an intended behaviour change:
//!
//! ```text
//! RSEP_BLESS=1 cargo test -p rsep-campaign --test golden_expected
//! ```

use rsep_campaign::{presets, Campaign, CampaignSpec};

fn digest(spec: &CampaignSpec) -> String {
    let result = Campaign::with_jobs(4).run(spec);
    let mut out = result.speedups().to_json();
    out.push('\n');
    for row in &result.rows {
        for cell in row.baseline.iter().chain(&row.results) {
            assert!(
                cell.failures.is_empty(),
                "{}/{}/{}: unexpected failed cells: {:?}",
                spec.id,
                row.benchmark,
                cell.mechanism,
                cell.failures
            );
            out.push_str(&format!("{}/{}: {:?}\n", row.benchmark, cell.mechanism, cell.stats));
            let bits: Vec<String> =
                cell.checkpoint_ipcs.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
            out.push_str(&format!("  ipc_bits: [{}]\n", bits.join(", ")));
        }
    }
    out
}

fn assert_golden(name: &str, spec: &CampaignSpec) {
    let path = format!("{}/tests/expected/{name}.golden", env!("CARGO_MANIFEST_DIR"));
    let actual = digest(spec);
    if std::env::var("RSEP_BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden file");
        eprintln!("blessed {path}");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path}: {e}; bless it with RSEP_BLESS=1 cargo test")
    });
    assert_eq!(
        actual, expected,
        "{name}: smoke campaign diverges from the committed golden digest \
         ({path}). If the behaviour change is intended, re-bless with \
         RSEP_BLESS=1 and include the diff in review."
    );
}

#[test]
fn fig4_smoke_matches_committed_golden() {
    assert_golden("fig4_smoke", &presets::fig4().smoke());
}

#[test]
fn fig7_smoke_matches_committed_golden() {
    assert_golden("fig7_smoke", &presets::fig7().smoke());
}

#[test]
fn hash_sweep_smoke_matches_committed_golden() {
    assert_golden("ablation_hash_smoke", &presets::sweep_hash().smoke());
}

#[test]
fn history_sweep_smoke_matches_committed_golden() {
    assert_golden("ablation_history_smoke", &presets::sweep_history().smoke());
}
