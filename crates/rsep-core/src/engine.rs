//! The RSEP speculation engine.
//!
//! [`RsepEngine`] implements the [`SpecEngine`] interface of `rsep-uarch`
//! and composes every mechanism the paper studies, according to a
//! [`MechanismConfig`]:
//!
//! * zero-idiom elimination (baseline rename feature, Table I),
//! * move elimination (Section IV-H1, enabled together with RSEP),
//! * zero prediction (Section III),
//! * RSEP distance prediction with register sharing through the ISRB and
//!   a configurable validation policy (Section IV),
//! * conventional value prediction with D-VTAGE (Section II-A).
//!
//! The engine mirrors the pipeline of Figure 3: the distance predictor is
//! consulted at Rename (the ROB is indexed with the predicted distance to
//! find the provider register), predictions are validated by issuing the
//! predicted instruction a second time (charged by the core according to
//! the validation policy), and training happens at Commit from the FIFO
//! history — with optional commit-group sampling plus the
//! likely-candidate/validation-path refinement of Section IV-B3.

use crate::config::{MechanismConfig, RsepConfig, VpConfig};
use crate::fifo_history::FifoHistory;
use crate::isrb::Isrb;
use rsep_isa::{DynInst, OpClass, PhysReg};
use rsep_predictors::{
    DistancePredictor, Dvtage, GlobalHistory, IDistPredictor as _, Predictor, PredictorStats,
    ZeroPredictor,
};
use rsep_uarch::{Disposition, RenameAction, RenameContext, SpecEngine};

/// Slots of the rename-to-commit distance ring: a power of two at least
/// the ROB capacity, so no two in-flight sequence numbers share a slot.
const PENDING_SLOTS: usize = 1024;

/// Predicted distances propagated from Rename to Commit (Section VI-B
/// counts 224 B for this FIFO), indexed by sequence number. Each slot is
/// tagged with its sequence number, so a slot left behind by an
/// instruction that never took it reads as empty for every other one.
#[derive(Debug)]
struct PendingDistances {
    /// `(seq, distance)`; `seq == u64::MAX` marks an empty slot.
    slots: Vec<(u64, u32)>,
    /// One past the youngest sequence number inserted and not squashed.
    end: u64,
}

impl PendingDistances {
    const EMPTY: (u64, u32) = (u64::MAX, 0);

    fn new() -> PendingDistances {
        PendingDistances { slots: vec![Self::EMPTY; PENDING_SLOTS], end: 0 }
    }

    fn slot(seq: u64) -> usize {
        seq as usize & (PENDING_SLOTS - 1)
    }

    fn insert(&mut self, seq: u64, distance: u32) {
        self.slots[Self::slot(seq)] = (seq, distance);
        self.end = self.end.max(seq + 1);
    }

    /// Removes and returns the distance propagated for `seq`, if any.
    fn take(&mut self, seq: u64) -> Option<u32> {
        let slot = &mut self.slots[Self::slot(seq)];
        if slot.0 != seq {
            return None;
        }
        let distance = slot.1;
        *slot = Self::EMPTY;
        Some(distance)
    }

    /// Forgets every distance from `from_seq` on, so a replayed
    /// instruction that gets no new prediction reads none at commit.
    fn squash_from(&mut self, from_seq: u64) {
        let first = from_seq.max(self.end.saturating_sub(PENDING_SLOTS as u64));
        for seq in first..self.end {
            let slot = &mut self.slots[Self::slot(seq)];
            if slot.0 == seq {
                *slot = Self::EMPTY;
            }
        }
        self.end = self.end.min(from_seq);
    }
}

/// Counters describing the engine's own activity (in addition to the
/// core's [`rsep_uarch::SimStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rename-time RSEP opportunities dropped because the provider had
    /// already left the ROB.
    pub provider_out_of_window: u64,
    /// Rename-time RSEP opportunities dropped because provider and
    /// destination live in different register files.
    pub class_mismatch: u64,
    /// Rename-time RSEP opportunities dropped because the ISRB was full.
    pub isrb_full: u64,
    /// Distance predictions used for sharing.
    pub shares_attempted: u64,
    /// Value predictions used.
    pub value_predictions_used: u64,
    /// Zero predictions used.
    pub zero_predictions_used: u64,
}

/// The composed speculation engine.
#[derive(Debug)]
pub struct RsepEngine {
    config: MechanismConfig,
    ghist: GlobalHistory,
    distance: Option<DistancePredictor>,
    fifo: Option<FifoHistory>,
    isrb: Option<Isrb>,
    dvtage: Option<Dvtage>,
    zero: Option<ZeroPredictor>,
    pending_distances: PendingDistances,
    stats: EngineStats,
}

impl RsepEngine {
    /// Builds an engine from a mechanism configuration.
    pub fn new(config: MechanismConfig) -> RsepEngine {
        let distance = config.rsep.as_ref().map(|r| DistancePredictor::new(r.predictor.clone()));
        let fifo = config.rsep.as_ref().map(|r| FifoHistory::new(r.history));
        let isrb = config.rsep.as_ref().map(|r| Isrb::new(r.isrb));
        let dvtage = config.vp.as_ref().map(|v: &VpConfig| Dvtage::new(v.predictor.clone()));
        let zero = config.zero_pred.map(ZeroPredictor::new);
        RsepEngine {
            config,
            ghist: GlobalHistory::new(),
            distance,
            fifo,
            isrb,
            dvtage,
            zero,
            pending_distances: PendingDistances::new(),
            stats: EngineStats::default(),
        }
    }

    /// The mechanism configuration driving this engine.
    pub fn config(&self) -> &MechanismConfig {
        &self.config
    }

    /// Engine-side statistics.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// ISRB statistics, when RSEP is enabled.
    pub fn isrb_stats(&self) -> Option<crate::isrb::IsrbStats> {
        self.isrb.as_ref().map(|i| i.stats())
    }

    /// Distance-predictor statistics, when RSEP is enabled.
    pub fn distance_stats(&self) -> Option<PredictorStats> {
        self.distance.as_ref().map(|d| d.stats())
    }

    /// FIFO-history statistics, when RSEP is enabled.
    pub fn fifo_stats(&self) -> Option<crate::fifo_history::FifoHistoryStats> {
        self.fifo.as_ref().map(|f| f.stats())
    }

    /// RSEP configuration, when the mechanism is enabled.
    pub fn rsep_config(&self) -> Option<&RsepConfig> {
        self.config.rsep.as_ref()
    }

    /// Attempts an RSEP share for `inst`; returns the action when the whole
    /// chain (confident prediction, provider in the ROB, same register
    /// class, ISRB space) succeeds.
    fn try_share(&mut self, inst: &DynInst, ctx: &RenameContext<'_>) -> Option<RenameAction> {
        let rsep = self.config.rsep.as_ref()?;
        let predictor = self.distance.as_mut()?;
        let prediction = predictor.predict(inst.pc, &self.ghist)?;
        // Remember the predicted distance so commit can prefer it when
        // searching the FIFO history (and so likely candidates can train
        // through the validation path).
        let start_train = rsep.sampling.map(|s| s.start_train_raw).unwrap_or(0);
        if prediction.usable() || prediction.likely_candidate(start_train) {
            assert!(
                ctx.rob.capacity() <= PENDING_SLOTS,
                "the ROB holds more instructions than the distance ring has slots"
            );
            self.pending_distances.insert(inst.seq, prediction.distance);
        }
        if !prediction.usable() || prediction.distance == 0 {
            return None;
        }
        let provider_seq = inst.seq.checked_sub(u64::from(prediction.distance))?;
        let Some(provider) = ctx.rob.find_by_seq(provider_seq) else {
            self.stats.provider_out_of_window += 1;
            return None;
        };
        if !provider.inst.produces_register() {
            self.stats.provider_out_of_window += 1;
            return None;
        }
        let provider_preg = provider.dest_preg?;
        let dest_class = inst.dest?.class();
        if provider_preg.class() != dest_class {
            self.stats.class_mismatch += 1;
            return None;
        }
        let isrb = self.isrb.as_mut()?;
        if !isrb.try_share(provider_preg, inst.seq) {
            self.stats.isrb_full += 1;
            return None;
        }
        self.stats.shares_attempted += 1;
        Some(RenameAction::Share {
            provider_seq,
            correct: inst.result == provider.inst.result,
            validation: rsep.validation,
        })
    }

    /// Trains the RSEP machinery for one committed register producer.
    fn train_rsep(&mut self, inst: &DynInst, clock: u64) {
        let Some(rsep) = self.config.rsep.as_ref() else {
            return;
        };
        let (Some(fifo), Some(predictor)) = (self.fifo.as_mut(), self.distance.as_mut()) else {
            return;
        };
        let predicted = self.pending_distances.take(inst.seq);
        let mut search_allowed = true;
        if rsep.sampling.is_some() {
            let is_candidate = predicted.is_some();
            if is_candidate {
                // Likely candidates finish training through the validation
                // mechanism: they compare against the register they would
                // have shared (the predicted distance) instead of searching
                // the history at commit.
                search_allowed = false;
                let d = predicted.expect("candidate implies a propagated distance");
                if let Some(m) = fifo.find_pair(inst.seq, inst.result, Some(d)) {
                    predictor.train(inst.pc, m.distance, &self.ghist);
                } else {
                    // No live pair: decay by training toward the maximal
                    // distance, which will reset confidence.
                    let max_distance = predictor.max_distance();
                    predictor.train(inst.pc, max_distance, &self.ghist);
                }
            } else {
                // Non-candidates only search when they win the commit-group
                // sampling lottery (one per cycle).
                search_allowed = fifo.admit_sampled(clock);
            }
        }
        if search_allowed {
            if let Some(m) = fifo.find_pair(inst.seq, inst.result, predicted) {
                predictor.train(inst.pc, m.distance, &self.ghist);
            }
        }
        // Every retired producer enters the history regardless of sampling.
        fifo.push(inst.seq, inst.result);
    }
}

impl SpecEngine for RsepEngine {
    fn name(&self) -> String {
        self.config.label.clone()
    }

    fn on_branch(&mut self, pc: u64, taken: bool) {
        self.ghist.push(taken, pc);
        if let Some(d) = self.distance.as_mut() {
            d.on_history_update(&self.ghist);
        }
        if let Some(v) = self.dvtage.as_mut() {
            v.on_history_update(&self.ghist);
        }
    }

    fn at_rename(&mut self, inst: &DynInst, ctx: &RenameContext<'_>) -> RenameAction {
        // Non-speculative eliminations first (Decode/Rename features).
        if inst.op == OpClass::ZeroIdiom && self.config.zero_idiom_elim {
            return RenameAction::EliminateZeroIdiom;
        }
        if inst.op == OpClass::Move && self.config.move_elim && inst.num_sources() > 0 {
            return RenameAction::EliminateMove;
        }
        if !inst.eligible_for_prediction() {
            return RenameAction::Normal;
        }
        // RSEP has priority; VP covers instructions RSEP does not capture
        // (this is the composition used for the RSEP+VP configuration).
        if self.config.rsep.is_some() {
            if let Some(action) = self.try_share(inst, ctx) {
                return action;
            }
        }
        if let Some(dvtage) = self.dvtage.as_mut() {
            if let Some(p) = dvtage.predict(inst.pc, &self.ghist) {
                if p.usable() {
                    self.stats.value_predictions_used += 1;
                    return RenameAction::PredictValue { correct: p.value == inst.result };
                }
            }
        }
        if let Some(zero) = self.zero.as_mut() {
            if zero.predict(inst.pc, &self.ghist).is_some() {
                self.stats.zero_predictions_used += 1;
                return RenameAction::PredictZero { correct: inst.result == 0 };
            }
        }
        RenameAction::Normal
    }

    fn at_commit(&mut self, inst: &DynInst, disposition: Disposition, clock: u64) {
        if matches!(disposition, Disposition::DistPred { .. }) {
            if let Some(isrb) = self.isrb.as_mut() {
                isrb.on_sharer_commit(inst.seq);
            }
        }
        if !inst.eligible_for_prediction() {
            return;
        }
        // Commit-time training of every enabled predictor.
        if let Some(zero) = self.zero.as_mut() {
            zero.train(inst.pc, inst.result == 0, &self.ghist);
        }
        if let Some(dvtage) = self.dvtage.as_mut() {
            dvtage.train(inst.pc, inst.result, &self.ghist);
        }
        if self.config.rsep.is_some() {
            self.train_rsep(inst, clock);
        }
    }

    fn release_register(&mut self, preg: PhysReg) -> bool {
        match self.isrb.as_mut() {
            Some(isrb) => isrb.on_release(preg),
            None => true,
        }
    }

    fn on_squash(&mut self, from_seq: u64) -> Vec<PhysReg> {
        self.pending_distances.squash_from(from_seq);
        // Predictors train at commit only, so their on_squash hooks are
        // no-ops — broadcast anyway to honour the trait contract.
        if let Some(d) = self.distance.as_mut() {
            d.on_squash(from_seq);
        }
        if let Some(v) = self.dvtage.as_mut() {
            v.on_squash(from_seq);
        }
        if let Some(z) = self.zero.as_mut() {
            z.on_squash(from_seq);
        }
        match self.isrb.as_mut() {
            Some(isrb) => isrb.on_squash(from_seq),
            None => Vec::new(),
        }
    }

    fn predictor_stats(&self) -> Vec<(&'static str, PredictorStats)> {
        let mut stats = Vec::new();
        if let Some(d) = self.distance.as_ref() {
            stats.push((d.name(), d.stats()));
        }
        if let Some(v) = self.dvtage.as_ref() {
            stats.push((v.name(), v.stats()));
        }
        if let Some(z) = self.zero.as_ref() {
            stats.push((z.name(), z.stats()));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MechanismConfig;
    use rsep_isa::ArchReg;
    use rsep_uarch::Rob;

    fn ctx(rob: &Rob) -> RenameContext<'_> {
        RenameContext { clock: 0, rob }
    }

    #[test]
    fn zero_idioms_are_eliminated() {
        let mut engine = RsepEngine::new(MechanismConfig::baseline());
        let rob = Rob::new(8);
        let inst = DynInst::simple(0, 0x400000, OpClass::ZeroIdiom, ArchReg::int(1), 0);
        assert_eq!(engine.at_rename(&inst, &ctx(&rob)), RenameAction::EliminateZeroIdiom);
    }

    #[test]
    fn moves_are_eliminated_only_when_enabled() {
        let rob = Rob::new(8);
        let mv = rsep_isa::DynInstBuilder::new(0, 0x400000, OpClass::Move)
            .dest(ArchReg::int(2))
            .src(ArchReg::int(3))
            .result(9)
            .build();
        let mut without = RsepEngine::new(MechanismConfig::baseline());
        assert_eq!(without.at_rename(&mv, &ctx(&rob)), RenameAction::Normal);
        let mut with = RsepEngine::new(MechanismConfig::move_elim());
        assert_eq!(with.at_rename(&mv, &ctx(&rob)), RenameAction::EliminateMove);
    }

    #[test]
    fn zero_prediction_engages_after_training() {
        let mut engine = RsepEngine::new(MechanismConfig::zero_pred());
        let rob = Rob::new(8);
        let inst = DynInst::simple(0, 0x400100, OpClass::IntAlu, ArchReg::int(1), 0);
        // Train heavily.
        for s in 0..20_000u64 {
            let mut i = inst.clone();
            i.seq = s;
            engine.at_commit(&i, Disposition::None, s);
        }
        let mut i = inst.clone();
        i.seq = 30_000;
        let action = engine.at_rename(&i, &ctx(&rob));
        assert_eq!(action, RenameAction::PredictZero { correct: true });
        // A non-zero result is flagged as an incorrect speculation.
        let mut wrong = inst;
        wrong.seq = 30_001;
        wrong.result = 7;
        assert_eq!(
            engine.at_rename(&wrong, &ctx(&rob)),
            RenameAction::PredictZero { correct: false }
        );
    }

    #[test]
    fn value_prediction_engages_for_constant_streams() {
        let mut engine = RsepEngine::new(MechanismConfig::value_pred());
        let rob = Rob::new(8);
        let make =
            |seq: u64| DynInst::simple(seq, 0x400200, OpClass::IntAlu, ArchReg::int(1), 0x42);
        for s in 0..20_000u64 {
            engine.at_commit(&make(s), Disposition::None, s);
        }
        let action = engine.at_rename(&make(30_000), &ctx(&rob));
        assert_eq!(action, RenameAction::PredictValue { correct: true });
        assert!(engine.engine_stats().value_predictions_used > 0);
    }

    #[test]
    fn rsep_engine_reports_configuration() {
        let engine = RsepEngine::new(MechanismConfig::rsep_realistic());
        assert_eq!(engine.name(), "rsep-realistic");
        assert!(engine.config().rsep.is_some());
        assert!(engine.isrb_stats().is_some());
        assert!(engine.distance_stats().is_some());
        assert!(engine.fifo_stats().is_some());
        let baseline = RsepEngine::new(MechanismConfig::baseline());
        assert!(baseline.isrb_stats().is_none());
    }

    #[test]
    fn release_register_defers_to_the_isrb() {
        let mut engine = RsepEngine::new(MechanismConfig::baseline());
        assert!(engine.release_register(PhysReg::new(rsep_isa::RegClass::Int, 4)));
        let mut rsep = RsepEngine::new(MechanismConfig::rsep_ideal());
        // Unshared registers release normally even with RSEP enabled.
        assert!(rsep.release_register(PhysReg::new(rsep_isa::RegClass::Int, 4)));
    }

    #[test]
    fn squash_clears_pending_distances() {
        let mut engine = RsepEngine::new(MechanismConfig::rsep_ideal());
        engine.pending_distances.insert(10, 3);
        engine.pending_distances.insert(20, 5);
        let freed = engine.on_squash(15);
        assert!(freed.is_empty());
        assert_eq!(engine.pending_distances.take(20), None);
        assert_eq!(engine.pending_distances.take(10), Some(3));
        assert_eq!(engine.pending_distances.take(10), None, "a distance is taken once");
    }

    #[test]
    fn distance_ring_tags_slots_with_their_sequence_number() {
        let mut ring = PendingDistances::new();
        ring.insert(7, 4);
        // The same slot, one lap later, belongs to another instruction.
        assert_eq!(ring.take(7 + PENDING_SLOTS as u64), None);
        assert_eq!(ring.take(7), Some(4));
    }

    /// Commits `seq` as a register producer of `value` and returns whether
    /// its history search matched a propagated predicted distance.
    fn commit_matches_prediction(engine: &mut RsepEngine, seq: u64, value: u64) -> bool {
        let before = engine.fifo_stats().unwrap().predicted_distance_matches;
        let inst = DynInst::simple(seq, 0x400300, OpClass::IntAlu, ArchReg::int(1), value);
        engine.at_commit(&inst, Disposition::None, seq);
        engine.fifo_stats().unwrap().predicted_distance_matches > before
    }

    #[test]
    fn replayed_instruction_sees_only_its_own_prediction() {
        // Producers of 0x77 commit at seqs 0 and 1, so seq 5 has pairs at
        // distances 4 and 5. Seq 5 is renamed with distance 5, squashed and
        // replayed.
        let prime = |engine: &mut RsepEngine| {
            for seq in 0..2 {
                assert!(!commit_matches_prediction(engine, seq, 0x77));
            }
            engine.pending_distances.insert(5, 5);
            engine.on_squash(5);
        };

        // The replay gets no usable prediction: commit searches with none
        // and settles on the youngest pair, not the squashed distance.
        let mut engine = RsepEngine::new(MechanismConfig::rsep_ideal());
        prime(&mut engine);
        assert_eq!(engine.pending_distances.take(5), None);
        assert!(!commit_matches_prediction(&mut engine, 5, 0x77));

        // The replay predicts a new distance: commit sees that one.
        let mut engine = RsepEngine::new(MechanismConfig::rsep_ideal());
        prime(&mut engine);
        engine.pending_distances.insert(5, 4);
        assert!(commit_matches_prediction(&mut engine, 5, 0x77));
        assert_eq!(engine.pending_distances.take(5), None, "commit consumed it");

        // A new distance that matches no pair is not confused with the
        // squashed one either.
        let mut engine = RsepEngine::new(MechanismConfig::rsep_ideal());
        prime(&mut engine);
        engine.pending_distances.insert(5, 3);
        assert!(!commit_matches_prediction(&mut engine, 5, 0x77));
    }
}
