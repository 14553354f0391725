//! Run the full SPEC CPU2006-like suite under the baseline, RSEP and value
//! prediction through the parallel campaign engine, and print a speedup
//! table (a small-scale Figure 4).
//!
//! Run with: `cargo run --release --example spec_campaign`
//! (one worker per available hardware thread).

use rsep::campaign::{Campaign, CampaignSpec};
use rsep::core::MechanismConfig;
use rsep::trace::CheckpointSpec;

fn main() {
    let spec = CampaignSpec::new("spec-campaign")
        .with_checkpoints(CheckpointSpec::scaled(1, 60_000, 30_000))
        .with_mechanisms(vec![MechanismConfig::rsep_realistic(), MechanismConfig::value_pred()]);
    let result = Campaign::auto().run(&spec);
    println!("{}", result.speedups().to_table());
    eprintln!("{}", result.timing_summary());
}
