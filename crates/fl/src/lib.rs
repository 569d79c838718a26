//! In-process federated-learning runtime.
//!
//! Models the middleware dataflow the paper assumes from frameworks like
//! PySyft or Flower: a [`PopulationStore`] lends parties (private windowed
//! datasets) to each round on demand, a round selects a cohort, each cohort
//! member trains locally from the current global parameters, updates are
//! shipped (and metered) as binary wire payloads under a pluggable
//! [`codec`] (dense / int8-quantised / top-k sparse / delta), and the
//! aggregator folds what it decodes. One driver, [`run_algorithm_round`],
//! runs every round of every [`FederatedAlgorithm`]. Everything is
//! deterministic given a seed.
//!
//! The store is the scale lever: with a lazy [`PartyProvider`] only the
//! sampled cohort is ever resident, so a 100k-party federation runs in
//! O(cohort) memory (see [`population`]).
//!
//! # Example
//!
//! ```
//! use shiftex_fl::{
//!     run_algorithm_round, CodecSpec, FederatedAlgorithm, FoldPolicy, LocalTransport, Party,
//!     PartyId, PopulationStore, RoundCodec, ScenarioEngine, ScenarioSpec, UniformSelector,
//! };
//! use shiftex_data::{ImageShape, PrototypeGenerator};
//! # use rand::rngs::StdRng;
//! # use shiftex_fl::{ParticipantSelector, PopulationView, UpdateVerdict, WeightedUpdate};
//! # use shiftex_nn::{ArchSpec, Sequential, TrainConfig};
//! use rand::SeedableRng;
//! # /// One global model, sample-weighted averaging.
//! # struct Plain { spec: ArchSpec, params: Vec<f32> }
//! # impl FederatedAlgorithm for Plain {
//! #     fn name(&self) -> &str { "plain" }
//! #     fn arch(&self) -> &ArchSpec { &self.spec }
//! #     fn init(&mut self, _: &PopulationView<'_>, rng: &mut StdRng) {
//! #         self.params = Sequential::build(&self.spec, rng).params_flat();
//! #     }
//! #     fn begin_window(&mut self, _: usize, _: &PopulationView<'_>, _: &mut StdRng) {}
//! #     fn streams(&self) -> Vec<usize> { vec![0] }
//! #     fn broadcast_state(&self, _: usize) -> Vec<f32> { self.params.clone() }
//! #     fn train_config(&self, _: usize) -> TrainConfig { TrainConfig::default() }
//! #     fn cohort(&mut self, _: usize, live: &PopulationView<'_>,
//! #               selector: &mut dyn ParticipantSelector, rng: &mut StdRng) -> Vec<PartyId> {
//! #         selector.select(&live.infos(), 4, rng)
//! #     }
//! #     fn fold(&mut self, _: usize, ready: &[WeightedUpdate], lr: f32,
//! #             policy: &FoldPolicy) -> Vec<UpdateVerdict> {
//! #         let fold = shiftex_fl::aggregate_robust(&self.params, ready, lr, policy);
//! #         if let Some(p) = fold.params { self.params = p; }
//! #         fold.verdicts
//! #     }
//! #     fn eval(&self, parties: &PopulationView<'_>) -> f32 {
//! #         shiftex_fl::evaluate_on_view(&self.spec, &self.params, parties)
//! #     }
//! #     fn model_index(&self, _: PartyId) -> usize { 0 }
//! #     fn num_models(&self) -> usize { 1 }
//! # }
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
//! let parties: Vec<Party> = (0..4)
//!     .map(|i| {
//!         let train = gen.generate_uniform(32, &mut rng);
//!         let test = gen.generate_uniform(16, &mut rng);
//!         Party::new(PartyId(i), train, test)
//!     })
//!     .collect();
//! // Back the federation with a population store; `from_parties`
//! // materializes, a custom `PartyProvider` makes the same run lazy.
//! let population = PopulationStore::from_parties(parties);
//! let ids = population.party_ids();
//! let mut algorithm = Plain { spec: ArchSpec::mlp("demo", 16, &[8], 3), params: Vec::new() };
//! algorithm.init(&population.view(ids.clone()), &mut rng);
//! // The clean synchronous protocol: no churn, stragglers or async buffer.
//! let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
//! for _ in 0..3 {
//!     let outcome = run_algorithm_round(
//!         &mut algorithm,
//!         &population,
//!         &mut engine,
//!         RoundCodec::Static(&CodecSpec::dense()),
//!         &mut UniformSelector,
//!         &FoldPolicy::Mean,
//!         None,
//!         &mut rng,
//!         &mut LocalTransport,
//!     );
//!     assert_eq!(outcome.folded, 4);
//! }
//! let accuracy = algorithm.eval(&population.view(ids));
//! assert!((0.0..=1.0).contains(&accuracy));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod codec;
mod comm;
pub mod control;
pub mod join;
mod party;
pub mod population;
pub mod robust;
pub mod scenario;
pub mod selection;
pub mod transport;
mod update;

pub use algo::{
    local_update, run_algorithm_round, AlgoRoundOutcome, FederatedAlgorithm, RobustnessReport,
    RoundCodec,
};
pub use codec::{CodecError, CodecKind, CodecSpec, UpdateCodec};
pub use comm::{CommLedger, CommTotals};
pub use control::{BudgetSpec, CodecController};
pub use join::{JoinConfig, JoinSync, JOIN_CHUNK_HEADER_LEN};
pub use party::{Party, PartyId, PartyInfo};
pub use population::{PartyProvider, PopulationStats, PopulationStore, PopulationView};
pub use robust::{aggregate_robust, FoldPolicy, RobustFold, UpdateVerdict};
pub use scenario::{
    aggregate_weighted, AsyncSpec, AttackKind, AttackSchedule, AttackSpec, BroadcastDelivery,
    ChurnSchedule, ChurnSpec, DelayDist, LatePolicy, ParticipationStats, RoundDelivery, RoundMode,
    ScenarioEngine, ScenarioSpec, StragglerSpec, WeightedUpdate,
};
pub use selection::{ParticipantSelector, UniformSelector};
pub use transport::{CohortExchange, CohortTransport, LocalStepFn, LocalTransport, UploadOutcome};
pub use update::ModelUpdate;

use shiftex_nn::{ArchSpec, Sequential};

/// Evaluates `params` on the test split of every party in `view`,
/// returning the sample-weighted mean accuracy in `[0, 1]` (0 when no
/// party has test data). Parties are materialized one at a time in view
/// order and dropped after scoring, so evaluation stays O(1)-resident at
/// any population size.
pub fn evaluate_on_view(spec: &ArchSpec, params: &[f32], view: &PopulationView<'_>) -> f32 {
    let mut model = Sequential::build(spec, &mut deterministic_rng());
    model.set_params_flat(params);
    let mut correct = 0.0f64;
    let mut total = 0usize;
    for &id in view.ids() {
        view.with_party(id, |p| {
            let y = p.test_labels();
            if y.is_empty() {
                return;
            }
            let report = model.evaluate(p.test_features(), y);
            correct += (report.accuracy as f64) * y.len() as f64;
            total += y.len();
        });
    }
    if total == 0 {
        0.0
    } else {
        (correct / total as f64) as f32
    }
}

/// Fixed-seed RNG for places where randomness is structurally required by an
/// API (model construction before overwriting parameters) but must not
/// affect results.
pub(crate) fn deterministic_rng() -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(0x5417_f7ed)
}
