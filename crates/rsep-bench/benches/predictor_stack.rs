//! Criterion bench: the front-end predictor stack in isolation.
//!
//! * `predictor_stack/batched` vs `predictor_stack/per_branch` — the same
//!   branch stream resolved through one `predict_block` call per
//!   fetch-width block versus one `predict_one` call per branch (the
//!   retained reference protocol). Both must count the same mispredictions.
//! * `predictor_stack/tage_trait` — the real [`Tage`] driven through the
//!   unified trait (predict + train + history per conditional branch).

#![forbid(unsafe_code)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rsep_isa::{BranchInfo, BranchKind};
use rsep_predictors::{GlobalHistory, PredictRequest, Predictor, PredictorStack, Tage};

const BRANCHES: usize = 100_000;
const BLOCK: usize = 8;

/// A deterministic branch stream shaped like a fetch front end sees it:
/// mostly conditionals over a modest PC working set (loop exits, periodic
/// patterns, a slice of hard-to-predict directions), with calls and
/// returns mixed in.
fn branch_stream() -> Vec<(u64, BranchInfo)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    (0..BRANCHES)
        .map(|i| {
            let r = step();
            let pc = 0x40_0000 + (r % 96) * 4;
            let branch = match r % 16 {
                0 => BranchInfo { kind: BranchKind::Unconditional, taken: true, target: pc + 64 },
                1 => BranchInfo { kind: BranchKind::Return, taken: true, target: pc + 4 },
                // Loop-exit pattern: taken 15 of 16 times.
                2..=9 => BranchInfo {
                    kind: BranchKind::Conditional,
                    taken: i % 16 != 15,
                    target: pc + 32,
                },
                // Periodic.
                10..=13 => {
                    BranchInfo { kind: BranchKind::Conditional, taken: i % 5 != 4, target: pc + 32 }
                }
                // Hard.
                _ => BranchInfo {
                    kind: BranchKind::Conditional,
                    taken: step() & 1 == 1,
                    target: pc + 32,
                },
            };
            (pc, branch)
        })
        .collect()
}

/// Resolves the stream in fetch-width blocks through `predict_block`.
/// Returns the misprediction count (used as the black-box payload and as a
/// cross-path equivalence check).
fn run_batched(stream: &[(u64, BranchInfo)]) -> u64 {
    let mut stack = PredictorStack::table1();
    let mut mispredicts = 0u64;
    let mut requests: Vec<PredictRequest> = Vec::with_capacity(BLOCK);
    let mut cursor = 0usize;
    while cursor < stream.len() {
        let end = (cursor + BLOCK).min(stream.len());
        requests.clear();
        requests.extend(stream[cursor..end].iter().map(|&(pc, b)| PredictRequest::new(pc, b)));
        let resolved = stack.predict_block(&mut requests);
        mispredicts += requests[..resolved].iter().filter(|r| r.mispredicted).count() as u64;
        cursor += resolved;
    }
    mispredicts
}

/// Resolves the stream one branch at a time through the reference path.
fn run_per_branch(stream: &[(u64, BranchInfo)]) -> u64 {
    let mut stack = PredictorStack::table1();
    stream.iter().filter(|&&(pc, branch)| stack.predict_one(pc, branch)).count() as u64
}

/// Drives the real packed-flat [`Tage`] through the unified trait
/// (predict + train + history) over the conditional branches of the
/// stream.
fn run_tage_trait(stream: &[(u64, BranchInfo)]) -> u64 {
    let mut tage = Tage::table1();
    let mut hist = GlobalHistory::new();
    let mut mispredicts = 0u64;
    for &(pc, branch) in stream {
        if branch.kind != BranchKind::Conditional {
            continue;
        }
        let pred = tage.predict(pc, &hist).expect("TAGE always answers");
        if pred.taken != branch.taken {
            mispredicts += 1;
        }
        tage.train(pc, (branch.taken, pred), &hist);
        hist.push(branch.taken, pc);
        tage.on_history_update(&hist);
    }
    mispredicts
}

fn bench(c: &mut Criterion) {
    let stream = branch_stream();
    // The two stack entry points must agree, so the bench doubles as a
    // coarse equivalence check.
    assert_eq!(run_batched(&stream), run_per_branch(&stream));
    c.bench_function("predictor_stack/batched", |b| b.iter(|| black_box(run_batched(&stream))));
    c.bench_function("predictor_stack/per_branch", |b| {
        b.iter(|| black_box(run_per_branch(&stream)))
    });
    c.bench_function("predictor_stack/tage_trait", |b| {
        b.iter(|| black_box(run_tage_trait(&stream)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
