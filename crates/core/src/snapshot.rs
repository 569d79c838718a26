//! Registry snapshots: serialise / restore the expert pool and assignment
//! map.
//!
//! The conclusion frames expert reuse and consolidation as middleware
//! "service discovery"; a service registry must survive aggregator restarts.
//! Snapshots capture everything needed to resume serving — expert
//! parameters, latent memories, cohort assignments and calibrated
//! thresholds — as a single JSON document.

use serde::{Deserialize, Serialize};
use shiftex_detect::CalibratedThresholds;
use shiftex_fl::PartyId;

use crate::registry::{ExpertId, ExpertRegistry};

/// A point-in-time snapshot of the aggregator's serving state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Schema version for forward compatibility.
    pub version: u32,
    /// Window index the snapshot was taken at.
    pub window: usize,
    /// The expert pool (parameters + latent memories).
    pub registry: ExpertRegistry,
    /// Party → expert assignment at snapshot time.
    pub assignment: Vec<(PartyId, ExpertId)>,
    /// Personalised (sub-γ fine-tuned) parameters per party.
    pub personal: Vec<(PartyId, Vec<f32>)>,
    /// Calibrated thresholds, if calibration had run.
    pub thresholds: Option<CalibratedThresholds>,
}

/// Current snapshot schema version.
pub const SNAPSHOT_VERSION: u32 = 1;

impl RegistrySnapshot {
    /// Serialises to JSON.
    ///
    /// # Errors
    ///
    /// Returns any serde error (cannot occur for well-formed snapshots).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores from JSON, validating the schema version.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Parse`] for malformed JSON and
    /// [`SnapshotError::Version`] for an unknown schema version.
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        let snap: RegistrySnapshot = serde_json::from_str(json).map_err(SnapshotError::Parse)?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(snap.version));
        }
        Ok(snap)
    }
}

/// Errors restoring a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// JSON parse failure.
    Parse(serde_json::Error),
    /// Unsupported schema version.
    Version(u32),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Parse(e) => write!(f, "snapshot parse error: {e}"),
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl crate::aggregator::ShiftEx {
    /// Captures the current serving state as a snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            version: SNAPSHOT_VERSION,
            window: self.window(),
            registry: self.registry().clone(),
            assignment: self.assignments().iter().map(|(p, e)| (*p, *e)).collect(),
            personal: self
                .personal_params()
                .map(|(p, v)| (p, v.to_vec()))
                .collect(),
            thresholds: self.thresholds(),
        }
    }

    /// Restores serving state from a snapshot (parameters, memories,
    /// assignments, thresholds). Detection kernels are re-calibrated on the
    /// next window, which is safe: the snapshot's thresholds remain in
    /// force.
    pub fn restore(&mut self, snapshot: RegistrySnapshot) {
        self.restore_parts(
            snapshot.window,
            snapshot.registry,
            snapshot.assignment,
            snapshot.personal,
            snapshot.thresholds,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShiftEx, ShiftExConfig};
    use rand::{rngs::StdRng, SeedableRng};
    use shiftex_data::{ImageShape, PrototypeGenerator};
    use shiftex_fl::{
        run_algorithm_round, CodecSpec, FederatedAlgorithm, FoldPolicy, LocalTransport, Party,
        PopulationStore, RoundCodec, ScenarioEngine, ScenarioSpec, UniformSelector,
    };
    use shiftex_nn::ArchSpec;

    /// A ShiftEx after three burn-in rounds on the unified driver.
    fn booted() -> (ShiftEx, PopulationStore, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
        let parties: Vec<Party> = (0..6)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(30, &mut rng),
                    gen.generate_uniform(15, &mut rng),
                )
            })
            .collect();
        let spec = ArchSpec::mlp("t", 64, &[16], 4);
        let mut sx = ShiftEx::new(ShiftExConfig::default(), spec, &mut rng);
        let store = PopulationStore::from_parties(parties);
        let ids = store.party_ids();
        sx.init(&store.view(ids.clone()), &mut rng);
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
        for _ in 0..3 {
            run_algorithm_round(
                &mut sx,
                &store,
                &mut engine,
                RoundCodec::Static(&CodecSpec::dense()),
                &mut UniformSelector,
                &FoldPolicy::Mean,
                None,
                &mut rng,
                &mut LocalTransport,
            );
        }
        (sx, store, rng)
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let (sx, _parties, _rng) = booted();
        let snap = sx.snapshot();
        let json = snap.to_json().expect("serialises");
        let back = RegistrySnapshot::from_json(&json).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn restore_recovers_serving_state() {
        let (sx, store, mut rng) = booted();
        let parties = store.view(store.party_ids());
        let before = sx.eval(&parties);
        let snap = sx.snapshot();

        // A "fresh aggregator process" restores the snapshot.
        let mut fresh = ShiftEx::new(ShiftExConfig::default(), sx.spec().clone(), &mut rng);
        fresh.restore(snap);
        assert_eq!(fresh.num_experts(), sx.num_experts());
        assert_eq!(fresh.assignments(), sx.assignments());
        let after = fresh.eval(&parties);
        assert!(
            (before - after).abs() < 1e-6,
            "restored accuracy must match"
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (sx, _parties, _rng) = booted();
        let mut snap = sx.snapshot();
        snap.version = 99;
        let json = snap.to_json().unwrap();
        assert!(matches!(
            RegistrySnapshot::from_json(&json),
            Err(SnapshotError::Version(99))
        ));
    }

    #[test]
    fn garbage_json_is_rejected() {
        assert!(matches!(
            RegistrySnapshot::from_json("not json"),
            Err(SnapshotError::Parse(_))
        ));
    }
}
