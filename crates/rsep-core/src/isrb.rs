//! Inflight Shared Registers Buffer (ISRB), Section IV-E2.
//!
//! RSEP shares a physical register between the provider instruction and the
//! predicted instruction, so registers can no longer be freed as soon as
//! their architectural mapping is overwritten: the ISRB reference-counts
//! shared registers. It is a small fully-associative buffer (24 entries in
//! the paper's final configuration) whose entries hold two counters:
//! `referenced` (number of extra references, including speculative ones) and
//! `committed` (number of committed de-references). A register is freed when
//! `committed` exceeds `referenced`. If the ISRB is full, no sharing takes
//! place for the new pair.

use rsep_isa::PhysReg;

/// One ISRB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IsrbEntry {
    preg: PhysReg,
    /// Number of extra references to the register (sharers), including
    /// speculative ones.
    referenced: u32,
    /// Number of committed de-references observed so far.
    committed: u32,
}

/// A speculative (not yet committed) sharing reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingShare {
    seq: u64,
    preg: PhysReg,
}

/// Configuration of the ISRB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsrbConfig {
    /// Number of entries (24 in Section VI-A3).
    pub entries: usize,
    /// Width of each counter in bits (6 in Section VI-A3).
    pub counter_bits: u8,
}

impl IsrbConfig {
    /// The paper's final configuration: 24 entries of two 6-bit counters.
    pub fn paper() -> IsrbConfig {
        IsrbConfig { entries: 24, counter_bits: 6 }
    }

    /// An effectively unlimited ISRB (used for the ideal configuration).
    pub fn unlimited() -> IsrbConfig {
        IsrbConfig { entries: usize::MAX, counter_bits: 16 }
    }

    /// Storage in bits: two counters plus a physical register tag per entry
    /// (the 63 bytes reported in Section VI-B for 24 entries).
    pub fn storage_bits(&self) -> u64 {
        if self.entries == usize::MAX {
            return 0;
        }
        let preg_tag_bits = 9; // 235 < 512 physical registers per class + class bit
        self.entries as u64 * (2 * u64::from(self.counter_bits) + preg_tag_bits)
    }

    fn counter_max(&self) -> u32 {
        if self.counter_bits >= 32 {
            u32::MAX
        } else {
            (1u32 << self.counter_bits) - 1
        }
    }
}

impl rsep_isa::Fingerprint for IsrbConfig {
    fn fingerprint(&self, h: &mut rsep_isa::Fnv) {
        let IsrbConfig { entries, counter_bits } = self;
        h.write_str("IsrbConfig");
        entries.fingerprint(h);
        counter_bits.fingerprint(h);
    }
}

/// Statistics of the ISRB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsrbStats {
    /// Sharing requests that were accepted.
    pub shares_accepted: u64,
    /// Sharing requests rejected because the buffer was full.
    pub shares_rejected_full: u64,
    /// Registers freed through the ISRB protocol.
    pub registers_freed: u64,
    /// Maximum occupancy observed.
    pub max_occupancy: usize,
}

/// The Inflight Shared Registers Buffer.
#[derive(Debug)]
pub struct Isrb {
    config: IsrbConfig,
    entries: Vec<IsrbEntry>,
    pending: Vec<PendingShare>,
    stats: IsrbStats,
}

impl Isrb {
    /// Creates an ISRB with the given configuration.
    pub fn new(config: IsrbConfig) -> Isrb {
        Isrb { config, entries: Vec::new(), pending: Vec::new(), stats: IsrbStats::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> IsrbConfig {
        self.config
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> IsrbStats {
        self.stats
    }

    /// Current number of tracked registers.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Attempts to record that the instruction with sequence number `seq`
    /// shares `preg`. Returns `false` (no sharing) when the buffer is full
    /// or the entry's counter would overflow.
    pub fn try_share(&mut self, preg: PhysReg, seq: u64) -> bool {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.preg == preg) {
            if entry.referenced >= self.config.counter_max() {
                self.stats.shares_rejected_full += 1;
                return false;
            }
            entry.referenced += 1;
        } else {
            if self.entries.len() >= self.config.entries {
                self.stats.shares_rejected_full += 1;
                return false;
            }
            self.entries.push(IsrbEntry { preg, referenced: 1, committed: 0 });
            self.stats.max_occupancy = self.stats.max_occupancy.max(self.entries.len());
        }
        self.pending.push(PendingShare { seq, preg });
        self.stats.shares_accepted += 1;
        true
    }

    /// Notifies the ISRB that the sharing instruction `seq` committed (its
    /// reference is no longer speculative).
    pub fn on_sharer_commit(&mut self, seq: u64) {
        self.pending.retain(|p| p.seq != seq);
    }

    /// Called when a committing instruction overwrites the architectural
    /// mapping previously held by `preg`. Returns `true` when the register
    /// can really be freed.
    pub fn on_release(&mut self, preg: PhysReg) -> bool {
        let Some(idx) = self.entries.iter().position(|e| e.preg == preg) else {
            // Not shared: the register frees normally.
            return true;
        };
        let entry = &mut self.entries[idx];
        entry.committed += 1;
        if entry.committed > entry.referenced {
            self.entries.swap_remove(idx);
            self.stats.registers_freed += 1;
            true
        } else {
            false
        }
    }

    /// Rolls back all speculative references made by instructions with
    /// sequence number `>= from_seq` (checkpoint recovery / pipeline
    /// squash). Registers whose counters now satisfy the free condition are
    /// returned so the caller can release them.
    pub fn on_squash(&mut self, from_seq: u64) -> Vec<PhysReg> {
        let mut freed = Vec::new();
        let squashed: Vec<PendingShare> =
            self.pending.iter().copied().filter(|p| p.seq >= from_seq).collect();
        self.pending.retain(|p| p.seq < from_seq);
        for share in squashed {
            if let Some(idx) = self.entries.iter().position(|e| e.preg == share.preg) {
                let entry = &mut self.entries[idx];
                entry.referenced = entry.referenced.saturating_sub(1);
                if entry.committed > entry.referenced {
                    freed.push(entry.preg);
                    self.entries.swap_remove(idx);
                    self.stats.registers_freed += 1;
                }
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_isa::RegClass;

    fn preg(i: u16) -> PhysReg {
        PhysReg::new(RegClass::Int, i)
    }

    #[test]
    fn paper_config_storage_is_about_63_bytes() {
        let bits = IsrbConfig::paper().storage_bits();
        let bytes = bits as f64 / 8.0;
        assert!((60.0..=68.0).contains(&bytes), "ISRB storage {bytes} bytes, paper says 63");
    }

    #[test]
    fn single_share_frees_on_second_release() {
        let mut isrb = Isrb::new(IsrbConfig::paper());
        assert!(isrb.try_share(preg(7), 100));
        isrb.on_sharer_commit(100);
        // First de-reference (committed == referenced): keep.
        assert!(!isrb.on_release(preg(7)));
        // Second de-reference (committed > referenced): free.
        assert!(isrb.on_release(preg(7)));
        assert_eq!(isrb.occupancy(), 0);
        assert_eq!(isrb.stats().registers_freed, 1);
    }

    #[test]
    fn two_sharers_need_three_releases() {
        let mut isrb = Isrb::new(IsrbConfig::paper());
        assert!(isrb.try_share(preg(3), 1));
        assert!(isrb.try_share(preg(3), 2));
        assert!(!isrb.on_release(preg(3)));
        assert!(!isrb.on_release(preg(3)));
        assert!(isrb.on_release(preg(3)));
    }

    #[test]
    fn unshared_registers_free_immediately() {
        let mut isrb = Isrb::new(IsrbConfig::paper());
        assert!(isrb.on_release(preg(9)));
    }

    #[test]
    fn full_buffer_rejects_new_pairs() {
        let mut isrb = Isrb::new(IsrbConfig { entries: 2, counter_bits: 6 });
        assert!(isrb.try_share(preg(1), 1));
        assert!(isrb.try_share(preg(2), 2));
        assert!(!isrb.try_share(preg(3), 3));
        assert_eq!(isrb.stats().shares_rejected_full, 1);
        // Sharing an already-tracked register still works.
        assert!(isrb.try_share(preg(1), 4));
    }

    #[test]
    fn squash_rolls_back_speculative_references() {
        let mut isrb = Isrb::new(IsrbConfig::paper());
        assert!(isrb.try_share(preg(5), 10));
        // The provider's mapping is overwritten and commits before the
        // sharer does: committed == referenced, entry stays.
        assert!(!isrb.on_release(preg(5)));
        // The sharer is squashed: its reference is undone, and now
        // committed(1) > referenced(0), so the register frees.
        let freed = isrb.on_squash(10);
        assert_eq!(freed, vec![preg(5)]);
        assert_eq!(isrb.occupancy(), 0);
    }

    #[test]
    fn squash_only_affects_younger_sequences() {
        let mut isrb = Isrb::new(IsrbConfig::paper());
        assert!(isrb.try_share(preg(5), 10));
        assert!(isrb.try_share(preg(6), 20));
        let freed = isrb.on_squash(15);
        assert!(freed.is_empty());
        // preg 6's reference was rolled back; preg 5's remains.
        assert!(!isrb.on_release(preg(5)));
        assert!(isrb.on_release(preg(5)));
        // preg 6 now behaves as unshared (referenced rolled back to 0 but
        // entry still present until a release arrives).
        assert!(isrb.on_release(preg(6)));
    }

    #[test]
    fn committed_sharer_references_survive_squash() {
        let mut isrb = Isrb::new(IsrbConfig::paper());
        assert!(isrb.try_share(preg(8), 30));
        isrb.on_sharer_commit(30);
        let freed = isrb.on_squash(0);
        assert!(freed.is_empty());
        assert!(!isrb.on_release(preg(8)));
        assert!(isrb.on_release(preg(8)));
    }

    #[test]
    fn unlimited_config_never_rejects() {
        let mut isrb = Isrb::new(IsrbConfig::unlimited());
        for i in 0..10_000u16 {
            assert!(isrb.try_share(preg(i % 400), u64::from(i)));
        }
        assert_eq!(isrb.stats().shares_rejected_full, 0);
        assert_eq!(IsrbConfig::unlimited().storage_bits(), 0);
    }
}
