//! The campaign engine's headline guarantee: same spec + same seed →
//! bit-identical merged results at any thread count, including through the
//! `rsep` CLI's JSON output.

use rsep_campaign::{presets, Campaign, CampaignSpec};
use rsep_core::MechanismConfig;
use rsep_trace::CheckpointSpec;
use std::process::Command;

fn small_spec() -> CampaignSpec {
    CampaignSpec::new("determinism")
        .with_benchmark_filter("mcf,libquantum,gcc")
        .with_checkpoints(CheckpointSpec::scaled(3, 500, 2_000))
        .with_seed(42)
        .with_mechanisms(vec![MechanismConfig::rsep_ideal(), MechanismConfig::value_pred()])
}

#[test]
fn jobs_1_and_jobs_8_produce_identical_grids() {
    let spec = small_spec();
    let serial = Campaign::with_jobs(1).run(&spec);
    let parallel = Campaign::with_jobs(8).run(&spec);

    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (a, b) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(a.benchmark, b.benchmark);
        let (a_base, b_base) = (a.baseline.as_ref().unwrap(), b.baseline.as_ref().unwrap());
        assert_eq!(a_base.ipc.to_bits(), b_base.ipc.to_bits());
        assert_eq!(a_base.stats, b_base.stats);
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.mechanism, rb.mechanism);
            assert_eq!(ra.checkpoint_ipcs.len(), 3);
            for (ia, ib) in ra.checkpoint_ipcs.iter().zip(&rb.checkpoint_ipcs) {
                assert_eq!(ia.to_bits(), ib.to_bits());
            }
            assert_eq!(ra.stats, rb.stats);
        }
    }
    // And the rendered reports are byte-identical.
    assert_eq!(serial.speedups().to_json(), parallel.speedups().to_json());
    assert_eq!(serial.ipcs().to_csv(), parallel.ipcs().to_csv());
}

#[test]
fn redundancy_campaign_is_thread_count_invariant() {
    let spec = presets::fig1()
        .with_benchmark_filter("zeusmp,cactusADM,sjeng")
        .with_checkpoints(CheckpointSpec::scaled(2, 500, 2_000))
        .with_seed(9);
    let (serial, _) = Campaign::with_jobs(1).run_redundancy(&spec);
    let (parallel, _) = Campaign::with_jobs(6).run_redundancy(&spec);
    assert_eq!(serial.to_json(), parallel.to_json());
}

/// Runs the `rsep` binary and returns its output. Asserts success.
fn rsep(args: &[&str]) -> Vec<u8> {
    let output =
        Command::new(env!("CARGO_BIN_EXE_rsep")).args(args).output().expect("rsep binary runs");
    assert!(
        output.status.success(),
        "rsep {args:?} exited {:?}: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

#[test]
fn cli_fig4_smoke_json_is_byte_identical_across_jobs() {
    let serial = rsep(&["fig4", "--smoke", "--json", "--quiet", "--jobs", "1"]);
    let parallel = rsep(&["fig4", "--smoke", "--json", "--quiet", "--jobs", "8"]);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "fig4 JSON differs between --jobs 1 and --jobs 8");
    // Sanity: it is the Figure 4 experiment.
    let text = String::from_utf8(serial).unwrap();
    assert!(text.contains("\"id\": \"figure4\""));
    assert!(text.contains("rsep-ideal"));
}

#[test]
fn cli_sharded_run_plus_merge_is_byte_identical_to_unsharded() {
    let dir = std::env::temp_dir().join(format!("rsep-shard-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let s0 = dir.join("shard0.jsonl");
    let s1 = dir.join("shard1.jsonl");
    let store0 = format!("jsonl:{}", s0.display());
    let store1 = format!("jsonl:{}", s1.display());

    let reference = rsep(&["fig4", "--smoke", "--json", "--quiet", "--jobs", "8"]);

    let shard0 =
        rsep(&["fig4", "--smoke", "--quiet", "--jobs", "4", "--store", &store0, "--shard", "0/2"]);
    let shard1 =
        rsep(&["fig4", "--smoke", "--quiet", "--jobs", "4", "--store", &store1, "--shard", "1/2"]);
    // Shard runs produce no report of their own; the merge does.
    assert!(shard0.is_empty() && shard1.is_empty(), "shard runs must not print reports");

    let merged = rsep(&["merge", s0.to_str().unwrap(), s1.to_str().unwrap(), "--json", "--quiet"]);
    assert_eq!(merged, reference, "merged shard report differs from the unsharded run");

    // A killed-then-resumed campaign: reuse shard 0's partial file as the
    // store of a full run — only the missing cells simulate, and the report
    // still matches byte-for-byte.
    let resumed =
        rsep(&["fig4", "--smoke", "--json", "--quiet", "--jobs", "4", "--store", &store0]);
    assert_eq!(resumed, reference, "resumed run differs from the from-scratch run");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_cached_rerun_is_byte_identical_and_fully_cached() {
    let dir = std::env::temp_dir().join(format!("rsep-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().unwrap();

    let reference = rsep(&["fig7", "--smoke", "--json", "--quiet", "--benchmarks", "mcf"]);
    let cold = rsep(&[
        "fig7",
        "--smoke",
        "--json",
        "--quiet",
        "--benchmarks",
        "mcf",
        "--cache-dir",
        cache,
    ]);
    assert_eq!(cold, reference);

    // Second run: everything from cache, bit-identical report. Run without
    // --quiet so the store summary is observable.
    let output = Command::new(env!("CARGO_BIN_EXE_rsep"))
        .args(["fig7", "--smoke", "--json", "--benchmarks", "mcf", "--cache-dir", cache])
        .output()
        .expect("rsep binary runs");
    assert!(output.status.success());
    assert_eq!(output.stdout, reference);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("(100.0% cached)"), "store summary missing: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
