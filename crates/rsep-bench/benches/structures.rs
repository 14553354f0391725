//! Criterion bench: microbenchmarks of the RSEP hardware structures
//! themselves (distance predictor, FIFO history, ISRB, fold hash).

#![forbid(unsafe_code)]
use criterion::{criterion_group, criterion_main, Criterion};
use rsep_core::{FifoHistory, FifoHistoryConfig, Isrb, IsrbConfig};
use rsep_isa::FoldHash;
use rsep_predictors::{DistancePredictor, GlobalHistory, Predictor as _};

fn bench(c: &mut Criterion) {
    c.bench_function("structures/fold_hash_14bit", |b| {
        let h = FoldHash::paper_default();
        let mut x = 0x1234_5678_9abc_def0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.hash(x)
        })
    });
    c.bench_function("structures/distance_predictor_train_predict", |b| {
        let mut p = DistancePredictor::realistic();
        let hist = GlobalHistory::new();
        let mut pc = 0x40_0000u64;
        b.iter(|| {
            pc = 0x40_0000 + (pc + 4) % 4096;
            let _ = p.predict(pc, &hist);
            p.train(pc, 17, &hist);
        })
    });
    c.bench_function("structures/fifo_history_search_push", |b| {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let _ = fifo.find_pair(seq, seq % 97, Some(12));
            fifo.push(seq, seq % 97);
        })
    });
    c.bench_function("structures/fifo_history_search_push_2048", |b| {
        // The ideal 2048-entry history fed 256 recurring values, so each
        // hash chain holds about eight live entries. Every other search
        // propagates a predicted distance, which is usually absent and
        // walks the chain until the distances pass it.
        let mut fifo = FifoHistory::new(FifoHistoryConfig::ideal());
        let mut seq = 0u64;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        b.iter(|| {
            seq += 1;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let value = state >> 56;
            let predicted = seq.is_multiple_of(2).then_some(((state >> 20) % 2048) as u32);
            let found = fifo.find_pair(seq, value, predicted);
            fifo.push(seq, value);
            found
        })
    });
    c.bench_function("structures/isrb_share_release", |b| {
        let mut isrb = Isrb::new(IsrbConfig::paper());
        let preg = rsep_isa::PhysReg::new(rsep_isa::RegClass::Int, 42);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let _ = isrb.try_share(preg, seq);
            isrb.on_sharer_commit(seq);
            let _ = isrb.on_release(preg);
            let _ = isrb.on_release(preg);
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
