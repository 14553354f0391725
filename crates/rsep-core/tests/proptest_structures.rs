//! Property-based tests on the RSEP hardware structures: the ISRB
//! reference-counting protocol and the commit FIFO history.
//!
//! The FIFO history finds pairs through per-hash chains; [`LinearHistory`]
//! keeps the whole-FIFO reverse scan it replaced as the reference model,
//! and the differential properties below check that both give the same
//! match and the same statistics after every step.

use proptest::prelude::*;
use rsep_core::{FifoHistory, FifoHistoryConfig, FifoHistoryStats, Isrb, IsrbConfig, PairMatch};
use rsep_isa::{FoldHash, PhysReg, RegClass};
use std::collections::VecDeque;

/// Reference model: the FIFO as a deque of `(csn, hash)`, searched by a
/// reverse scan over every entry.
struct LinearHistory {
    capacity: usize,
    hash: FoldHash,
    entries: VecDeque<(u64, u16)>,
    stats: FifoHistoryStats,
}

impl LinearHistory {
    fn new(config: FifoHistoryConfig) -> LinearHistory {
        LinearHistory {
            capacity: config.capacity,
            hash: FoldHash::new(config.hash_bits),
            entries: VecDeque::new(),
            stats: FifoHistoryStats::default(),
        }
    }

    fn find_pair(&mut self, csn: u64, result: u64, predicted: Option<u32>) -> Option<PairMatch> {
        self.stats.searches += 1;
        let h = self.hash.hash(result);
        let mut best: Option<PairMatch> = None;
        for &(entry_csn, entry_hash) in self.entries.iter().rev() {
            if entry_hash != h {
                continue;
            }
            let distance = (csn - entry_csn) as u32;
            if best.is_none() {
                best = Some(PairMatch { distance, matched_prediction: false });
            }
            if predicted == Some(distance) {
                best = Some(PairMatch { distance, matched_prediction: true });
                break;
            }
        }
        if let Some(m) = best {
            self.stats.matches += 1;
            if m.matched_prediction {
                self.stats.predicted_distance_matches += 1;
            }
        }
        best
    }

    fn push(&mut self, csn: u64, result: u64) {
        self.stats.pushes += 1;
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((csn, self.hash.hash(result)));
    }
}

/// Hash widths of the differential properties: 1 and 4 bits make nearly
/// every entry collide, 8 gives long chains, 14 and 16 are the paper's and
/// the sweep's widest.
const HASH_BITS: [u8; 5] = [1, 4, 8, 14, 16];

/// One step of a history stream: `(value, gap, predict, pick, search,
/// push_odds)`. The step commits a producer of one of 24 values at the
/// next CSN, `gap` non-producers later; it searches when `search` is set,
/// then pushes unless `push_odds` is 0 (a searcher that is not pushed).
/// `predict` selects the propagated distance: none, the distance of a live
/// same-hash entry, of any live entry, or `pick` (mostly absent).
type Step = (u8, u64, u8, usize, bool, u8);

/// Runs `steps` through the chained history and the model, comparing the
/// search results and the statistics after every step.
fn run_differential(config: FifoHistoryConfig, steps: &[Step]) {
    let mut chained = FifoHistory::new(config);
    let mut model = LinearHistory::new(config);
    let mut csn = 0u64;
    for &(value_idx, gap, predict, pick, search, push_odds) in steps {
        // A small value pool, so equal results recur.
        let value = u64::from(value_idx).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        csn += 1 + gap;
        if search {
            let h = model.hash.hash(value);
            let live_distance = |same_hash: bool| {
                let candidates: Vec<u32> = model
                    .entries
                    .iter()
                    .filter(|&&(_, eh)| !same_hash || eh == h)
                    .map(|&(ec, _)| (csn - ec) as u32)
                    .collect();
                (!candidates.is_empty()).then(|| candidates[pick % candidates.len()])
            };
            let predicted = match predict {
                0 => None,
                1 => live_distance(true),
                2 => live_distance(false),
                _ => Some(pick as u32),
            };
            let expected = model.find_pair(csn, value, predicted);
            let actual = chained.find_pair(csn, value, predicted);
            assert_eq!(actual, expected, "search at csn {csn} (predicted {predicted:?}) diverges");
        }
        // Push on most steps so the history fills and evicts.
        if push_odds != 0 || !search {
            model.push(csn, value);
            chained.push(csn, value);
        }
        assert_eq!(chained.stats(), model.stats, "statistics diverge at csn {csn}");
        assert_eq!(chained.len(), model.entries.len());
    }
}

proptest! {
    /// The chained history answers every search exactly like the linear
    /// scan, on small capacities that evict constantly.
    #[test]
    fn chained_history_matches_the_linear_scan(
        hash_idx in 0usize..5,
        capacity in 1usize..65,
        steps in collection::vec((0u8..24, 0u64..3, 0u8..4, 0usize..4096, any::<bool>(), 0u8..8), 1..300),
    ) {
        let config = FifoHistoryConfig { capacity, hash_bits: HASH_BITS[hash_idx], csn_bits: 10 };
        run_differential(config, &steps);
    }

    /// The same at the ideal 2048-entry capacity, with streams long
    /// enough to wrap the ring.
    #[test]
    fn chained_history_matches_the_linear_scan_at_ideal_capacity(
        hash_idx in 0usize..5,
        steps in collection::vec((0u8..24, 0u64..3, 0u8..4, 0usize..4096, 0u8..8, 0u8..8), 2100..2600),
    ) {
        // Search on one step in eight: the model's full scan is the cost.
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|(v, g, p, k, search, push)| (v, g, p, k, search == 0, push))
            .collect();
        let config = FifoHistoryConfig { hash_bits: HASH_BITS[hash_idx], ..FifoHistoryConfig::ideal() };
        run_differential(config, &steps);
    }

    /// ISRB protocol invariant: for a register shared `n` times (all sharers
    /// committed), the register is freed exactly on the `n + 1`-th committed
    /// de-reference and never before.
    #[test]
    fn isrb_frees_after_the_last_dereference(shares in 1usize..8) {
        let mut isrb = Isrb::new(IsrbConfig { entries: 32, counter_bits: 8 });
        let preg = PhysReg::new(RegClass::Int, 17);
        for seq in 0..shares as u64 {
            prop_assert!(isrb.try_share(preg, seq));
            isrb.on_sharer_commit(seq);
        }
        // The first `shares` de-references must not free the register.
        for _ in 0..shares {
            prop_assert!(!isrb.on_release(preg));
        }
        // The final de-reference frees it.
        prop_assert!(isrb.on_release(preg));
        prop_assert_eq!(isrb.occupancy(), 0);
    }

    /// Squashing every speculative sharer leaves the buffer consistent: a
    /// subsequent single de-reference (the provider's own mapping) frees the
    /// register.
    #[test]
    fn isrb_squash_rolls_back_all_speculative_references(shares in 1usize..8) {
        let mut isrb = Isrb::new(IsrbConfig { entries: 32, counter_bits: 8 });
        let preg = PhysReg::new(RegClass::Int, 3);
        for seq in 0..shares as u64 {
            prop_assert!(isrb.try_share(preg, seq));
        }
        let freed = isrb.on_squash(0);
        prop_assert!(freed.is_empty());
        prop_assert!(isrb.on_release(preg));
    }

    /// The ISRB never exceeds its configured capacity, regardless of the
    /// request stream.
    #[test]
    fn isrb_occupancy_is_bounded(requests in proptest::collection::vec((0u16..64, 0u64..1000), 1..200),
                                 capacity in 1usize..16) {
        let mut isrb = Isrb::new(IsrbConfig { entries: capacity, counter_bits: 6 });
        for (reg, seq) in requests {
            let _ = isrb.try_share(PhysReg::new(RegClass::Int, reg), seq);
            prop_assert!(isrb.occupancy() <= capacity);
        }
    }

    /// FIFO history: a producer pushed within the last `capacity` producers
    /// is always found, and the reported distance is exact.
    #[test]
    fn fifo_history_finds_recent_producers(gap in 1u64..100, value in any::<u64>()) {
        let mut fifo = FifoHistory::new(FifoHistoryConfig { capacity: 128, hash_bits: 14, csn_bits: 10 });
        fifo.push(1000, value);
        // Push unrelated producers in between (odd values that cannot hash
        // equal to themselves being irrelevant — distance must still point
        // at the most recent equal-hash producer or closer).
        for i in 0..gap.min(100) {
            fifo.push(1001 + i, value ^ (0xdead_beef << 1) ^ i);
        }
        let csn = 1001 + gap.min(100);
        let m = fifo.find_pair(csn, value, None);
        prop_assert!(m.is_some());
        prop_assert!(m.unwrap().distance <= (csn - 1000) as u32);
    }

    /// FIFO history: the propagated predicted distance is preferred whenever
    /// it corresponds to a real match.
    #[test]
    fn fifo_history_prefers_the_predicted_distance(extra in 1u64..50, value in any::<u64>()) {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::ideal());
        fifo.push(100, value);          // older instance, distance = extra + 10
        fifo.push(100 + extra, value);  // most recent instance, distance = 10
        let csn = 110 + extra;
        let predicted = (csn - 100) as u32;
        let m = fifo.find_pair(csn, value, Some(predicted)).unwrap();
        prop_assert!(m.matched_prediction);
        prop_assert_eq!(m.distance, predicted);
    }

    /// FIFO history never remembers more than its capacity.
    #[test]
    fn fifo_history_capacity_is_bounded(pushes in 1usize..500, capacity in 1usize..64) {
        let mut fifo = FifoHistory::new(FifoHistoryConfig { capacity, hash_bits: 14, csn_bits: 10 });
        for i in 0..pushes {
            fifo.push(i as u64, i as u64);
            prop_assert!(fifo.len() <= capacity);
        }
    }
}
