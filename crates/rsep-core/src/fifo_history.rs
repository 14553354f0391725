//! Commit-time FIFO history and pairing (Section IV-B2 / IV-B3 / IV-D2).
//!
//! At commit, the hashes of retiring register-producing instructions are
//! compared against the hashes of the last `capacity` retired producers to
//! discover pairs that produced the same result; the resulting instruction
//! distance (difference of commit sequence numbers) trains the distance
//! predictor. The structure is a FIFO (implemented here as a ring buffer),
//! the *explicit IDist* variant of Section IV-D2a: every entry carries a
//! commit sequence number so the distance is computed with a subtraction.
//!
//! When a distance prediction is being propagated with the instruction, the
//! match that corresponds to the predicted distance is preferred over the
//! most recent one (Section VI-A2: this filters "per chance" matches).
//!
//! Commit-time sampling (Section IV-B3) limits the number of comparisons:
//! only the first committing producer of each cycle searches the history;
//! instructions whose confidence already exceeds the `start_train`
//! threshold are trained through the validation path instead.
//!
//! The hardware is a CAM searched in parallel; the model finds the same
//! match through per-hash chains (see [`FifoHistory`]).
//! [`FifoHistoryConfig::storage_bits`] and [`FifoHistoryConfig::comparators`]
//! describe the CAM, not the model's index.

use rsep_isa::FoldHash;

/// Configuration of the FIFO history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoHistoryConfig {
    /// Number of retired producers remembered (128 in Section VI-B; the
    /// ideal configuration uses a history much larger than the ROB).
    pub capacity: usize,
    /// Hash width in bits (14 in Section IV-A).
    pub hash_bits: u8,
    /// Width of the stored commit sequence numbers (10 bits in the paper's
    /// sizing; only used for storage accounting — the model keeps full
    /// sequence numbers and computes distances exactly).
    pub csn_bits: u8,
}

impl FifoHistoryConfig {
    /// The realistic configuration of Section VI-B: 128 entries, 14-bit
    /// hashes, 10-bit CSNs (384 bytes).
    pub fn realistic() -> FifoHistoryConfig {
        FifoHistoryConfig { capacity: 128, hash_bits: 14, csn_bits: 10 }
    }

    /// A history much larger than the ROB (the "ideal" configuration of
    /// Section VI-A1).
    pub fn ideal() -> FifoHistoryConfig {
        FifoHistoryConfig { capacity: 2048, hash_bits: 14, csn_bits: 12 }
    }

    /// Storage in bits (hash + CSN per entry).
    pub fn storage_bits(&self) -> u64 {
        self.capacity as u64 * (u64::from(self.hash_bits) + u64::from(self.csn_bits))
    }

    /// Number of hash comparators needed for an unsampled implementation at
    /// the given commit width (Section IV-B2's 2076-comparator example).
    pub fn comparators(&self, commit_width: usize) -> u64 {
        let within_group = (commit_width * (commit_width - 1) / 2) as u64;
        self.capacity as u64 * commit_width as u64 + within_group
    }
}

impl rsep_isa::Fingerprint for FifoHistoryConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let FifoHistoryConfig { capacity, hash_bits, csn_bits } = self;
        h.write_str("FifoHistoryConfig");
        capacity.fingerprint(h);
        hash_bits.fingerprint(h);
        csn_bits.fingerprint(h);
    }
}

/// Result of a history search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairMatch {
    /// Instruction distance (difference of commit sequence numbers).
    pub distance: u32,
    /// Whether the match corresponds to the propagated predicted distance.
    pub matched_prediction: bool,
}

/// One ring slot: a remembered producer and its link down its hash chain.
#[derive(Debug, Clone, Copy)]
struct ChainEntry {
    csn: u64,
    /// Push number of the next older entry with the same hash (0: none).
    prev: u64,
}

/// Commit-time FIFO history.
///
/// The hardware compares a search hash against every entry in parallel.
/// The model reaches the same answer through per-hash chains: each entry
/// links to the previous entry with the same hash, and a head table holds
/// the youngest entry of every hash value, so a search visits only
/// same-hash entries, youngest first. Entries are identified by their
/// 1-based push number; the live ones are the last `len()` pushes, so a
/// link that points below that window ends the chain and eviction needs no
/// unlinking.
#[derive(Debug)]
pub struct FifoHistory {
    config: FifoHistoryConfig,
    hash: FoldHash,
    /// Push number `n` lives in slot `(n - 1) & slot_mask`. The ring is
    /// `capacity` rounded up to a power of two (grown on demand), so an
    /// entry is overwritten only after it has left the live window.
    ring: Vec<ChainEntry>,
    slot_mask: u64,
    /// Push number of the youngest entry of each hash value (0: none).
    heads: Vec<u64>,
    /// Producers pushed so far.
    pushes: u64,
    /// Committing producers seen in the current cycle (for sampling).
    seen_this_cycle: u32,
    current_cycle: u64,
    stats: FifoHistoryStats,
}

/// Statistics of the FIFO history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoHistoryStats {
    /// Searches performed.
    pub searches: u64,
    /// Searches that found at least one matching hash.
    pub matches: u64,
    /// Searches whose best match was the propagated predicted distance.
    pub predicted_distance_matches: u64,
    /// Producers pushed into the history.
    pub pushes: u64,
    /// Committing producers skipped because of sampling.
    pub sampled_out: u64,
}

impl FifoHistory {
    /// Creates a FIFO history.
    pub fn new(config: FifoHistoryConfig) -> FifoHistory {
        let hash = FoldHash::new(config.hash_bits);
        // `FoldHash::hash` returns a `u16`, so wider hashes still index
        // 2^16 heads.
        let head_bits = config.hash_bits.min(16);
        FifoHistory {
            config,
            hash,
            ring: Vec::new(),
            slot_mask: config.capacity.next_power_of_two() as u64 - 1,
            heads: vec![0; 1 << head_bits],
            pushes: 0,
            seen_this_cycle: 0,
            current_cycle: u64::MAX,
            stats: FifoHistoryStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> FifoHistoryConfig {
        self.config
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> FifoHistoryStats {
        self.stats
    }

    /// Current number of remembered producers.
    pub fn len(&self) -> usize {
        self.pushes.min(self.config.capacity as u64) as usize
    }

    /// Returns `true` when the history is empty.
    pub fn is_empty(&self) -> bool {
        self.pushes == 0
    }

    /// Decides whether a committing producer may search the history this
    /// cycle under commit-time sampling: only the first producer of each
    /// commit cycle searches.
    pub fn admit_sampled(&mut self, cycle: u64) -> bool {
        if cycle != self.current_cycle {
            self.current_cycle = cycle;
            self.seen_this_cycle = 0;
        }
        self.seen_this_cycle += 1;
        if self.seen_this_cycle > 1 {
            self.stats.sampled_out += 1;
            return false;
        }
        true
    }

    /// Searches the history for an older producer with the same result
    /// hash. The default match is the most recent one; `predicted_distance`,
    /// when provided and present, is preferred over it.
    ///
    /// CSNs never decrease from push to push, so distances grow along a
    /// chain: the walk stops at the first entry when nothing was predicted,
    /// and otherwise as soon as it reaches or passes the predicted distance.
    pub fn find_pair(
        &mut self,
        csn: u64,
        result: u64,
        predicted_distance: Option<u32>,
    ) -> Option<PairMatch> {
        self.stats.searches += 1;
        let last_evicted = self.pushes - self.len() as u64;
        let mut link = self.heads[usize::from(self.hash.hash(result))];
        let mut best: Option<PairMatch> = None;
        while link > last_evicted {
            let entry = self.ring[((link - 1) & self.slot_mask) as usize];
            let distance = (csn - entry.csn) as u32;
            if predicted_distance == Some(distance) {
                best = Some(PairMatch { distance, matched_prediction: true });
                break;
            }
            if best.is_none() {
                best = Some(PairMatch { distance, matched_prediction: false });
            }
            match predicted_distance {
                Some(predicted) if distance < predicted => link = entry.prev,
                _ => break,
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

    /// Pushes a retiring producer into the history, evicting the oldest
    /// one when full.
    pub fn push(&mut self, csn: u64, result: u64) {
        self.stats.pushes += 1;
        let slot = (self.pushes & self.slot_mask) as usize;
        debug_assert!(
            self.pushes == 0 || self.ring[((self.pushes - 1) & self.slot_mask) as usize].csn <= csn,
            "commit sequence numbers must not decrease"
        );
        let head = &mut self.heads[usize::from(self.hash.hash(result))];
        let entry = ChainEntry { csn, prev: *head };
        self.pushes += 1;
        *head = self.pushes;
        if slot == self.ring.len() {
            self.ring.push(entry);
        } else {
            self.ring[slot] = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_matches_paper_sizing() {
        // Section VI-B: 128 entries × (14-bit hash + 10-bit CSN) = 384 B.
        let bytes = FifoHistoryConfig::realistic().storage_bits() / 8;
        assert_eq!(bytes, 384);
    }

    #[test]
    fn comparator_count_matches_section_iv_b2() {
        // 256 entries, commit width 8: 2048 + 28 = 2076 comparators.
        let cfg = FifoHistoryConfig { capacity: 256, hash_bits: 14, csn_bits: 10 };
        assert_eq!(cfg.comparators(8), 2076);
    }

    #[test]
    fn finds_the_most_recent_matching_producer() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        fifo.push(10, 0xaaaa);
        fifo.push(20, 0xbbbb);
        fifo.push(30, 0xaaaa);
        let m = fifo.find_pair(40, 0xaaaa, None).unwrap();
        assert_eq!(m.distance, 10); // most recent producer of 0xaaaa is CSN 30
        assert!(!m.matched_prediction);
    }

    #[test]
    fn prefers_the_predicted_distance_over_the_most_recent_match() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        fifo.push(10, 0xaaaa);
        fifo.push(30, 0xaaaa);
        let m = fifo.find_pair(40, 0xaaaa, Some(30)).unwrap();
        assert_eq!(m.distance, 30);
        assert!(m.matched_prediction);
        assert_eq!(fifo.stats().predicted_distance_matches, 1);
    }

    #[test]
    fn no_match_for_unseen_values() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        fifo.push(1, 123);
        assert!(fifo.find_pair(2, 456, None).is_none());
        assert_eq!(fifo.stats().matches, 0);
    }

    #[test]
    fn capacity_is_bounded() {
        let cfg = FifoHistoryConfig { capacity: 4, hash_bits: 14, csn_bits: 10 };
        let mut fifo = FifoHistory::new(cfg);
        for i in 0..10u64 {
            fifo.push(i, i);
        }
        assert_eq!(fifo.len(), 4);
        // The oldest entries fell out: value 0 is no longer matchable.
        assert!(fifo.find_pair(20, 0, None).is_none());
        assert!(fifo.find_pair(20, 9, None).is_some());
    }

    #[test]
    fn sampling_admits_one_producer_per_cycle() {
        let mut fifo = FifoHistory::new(FifoHistoryConfig::realistic());
        assert!(fifo.admit_sampled(100));
        assert!(!fifo.admit_sampled(100));
        assert!(!fifo.admit_sampled(100));
        assert!(fifo.admit_sampled(101));
        assert_eq!(fifo.stats().sampled_out, 2);
    }

    #[test]
    fn hash_collisions_can_cause_false_matches() {
        // With a 1-bit hash everything collides; the history reports a
        // match even for unequal values. This is exactly the accuracy /
        // complexity trade-off of Section IV-A, resolved by validation.
        let cfg = FifoHistoryConfig { capacity: 16, hash_bits: 1, csn_bits: 10 };
        let mut fifo = FifoHistory::new(cfg);
        fifo.push(1, 2);
        assert!(fifo.find_pair(2, 4, None).is_some());
    }
}
